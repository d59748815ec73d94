//! Per-device shard construction.
//!
//! [`Shard::build`] materializes one device's slice of the global graph as
//! a self-contained local [`CsrGraph`] that the unmodified kernels run on,
//! plus the [`Shard`] bookkeeping to gather inputs and scatter outputs.
//!
//! # Why the sharded result is bitwise-identical
//!
//! SGT assigns each neighbor its *rank* in the row window's sorted-unique
//! neighbor set, and chunks edges by a stable sort on that rank. Both are
//! invariant under any strictly monotone relabeling of node ids. The shard
//! therefore remaps global ids to local ids monotonically and keeps every
//! owned global row window as one 16-aligned run of consecutive local
//! rows:
//!
//! - windows are walked in ascending global order; an **owned** window is
//!   padded to the next multiple of 16 local rows (padding rows have no
//!   edges and no identity) and then occupies `win_size` consecutive local
//!   rows — so local window `local_start/16` has exactly the same edge
//!   set, neighbor ranks, and chunking as the global window;
//! - a **remote** window contributes only the rows this shard actually
//!   references (its halo), appended unpadded and edgeless — they shift
//!   local ids but never change relative order, keeping the remap
//!   monotone, and their windows produce zero TC blocks (no compute, no
//!   output rows anyone reads);
//! - per-edge values (the GCN norm) are sliced from the *global* vector in
//!   local edge order, so every multiply sees the exact same f32 operands
//!   in the exact same reduction order as the single-device launch.
//!
//! The final global window may be ragged (< 16 rows); it is globally last,
//! so when owned it is also locally last — the one place a ragged window
//! is legal.

use tcg_graph::{CsrGraph, NodeId};
use tcg_tensor::DenseMatrix;

use crate::partition::Partition;

/// Sentinel in `Shard::gather` for alignment padding rows.
pub const PAD: u32 = u32::MAX;

/// One owned row window mapped into the local graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnedRun {
    /// First global row of the window.
    pub global_start: usize,
    /// First local row it occupies (always a multiple of the window size).
    pub local_start: usize,
    /// Rows in the window (the window size, except a ragged final window).
    pub len: usize,
}

/// One device's self-contained slice of the global graph.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Which device this shard runs on.
    pub device_id: usize,
    /// Local row → global row ([`PAD`] for alignment padding).
    gather: Vec<u32>,
    /// Owned windows in ascending order.
    owned_runs: Vec<OwnedRun>,
    /// Global edge ranges of owned local rows, in local edge order.
    edge_ranges: Vec<(usize, usize)>,
    /// Rows gathered from peer devices before each aggregation.
    pub halo_rows: usize,
    /// Rows this shard owns (and writes output for).
    pub owned_rows: usize,
}

impl Shard {
    /// Builds device `device_id`'s shard of `csr` under `partition`,
    /// returned with the shard-local graph the kernels execute on.
    pub fn build(csr: &CsrGraph, partition: &Partition, device_id: usize) -> (Self, CsrGraph) {
        let win = partition.win_size;
        let n = csr.num_nodes();
        let num_windows = n.div_ceil(win);
        let owns = |w: usize| partition.assignment[w] as usize == device_id;

        // Rows referenced from peer shards.
        let mut halo = vec![false; n];
        for w in (0..num_windows).filter(|&w| owns(w)) {
            for v in w * win..((w + 1) * win).min(n) {
                for &u in csr.neighbors(v) {
                    if !owns(u as usize / win) {
                        halo[u as usize] = true;
                    }
                }
            }
        }

        // Local row layout: ascending windows, owned ones 16-aligned.
        let mut gather: Vec<u32> = Vec::new();
        let mut owned_runs = Vec::new();
        for w in 0..num_windows {
            let lo = w * win;
            let hi = ((w + 1) * win).min(n);
            if owns(w) {
                while !gather.len().is_multiple_of(win) {
                    gather.push(PAD);
                }
                owned_runs.push(OwnedRun {
                    global_start: lo,
                    local_start: gather.len(),
                    len: hi - lo,
                });
                gather.extend((lo..hi).map(|v| v as u32));
            } else {
                gather.extend((lo..hi).filter(|&v| halo[v]).map(|v| v as u32));
            }
        }

        let mut global_to_local = vec![PAD; n];
        for (l, &g) in gather.iter().enumerate() {
            if g != PAD {
                global_to_local[g as usize] = l as u32;
            }
        }

        // Local CSR: only owned rows carry edges; halo and padding rows are
        // edgeless, so remote windows translate to zero TC blocks.
        let mut node_pointer = Vec::with_capacity(gather.len() + 1);
        node_pointer.push(0usize);
        let mut edge_list: Vec<NodeId> = Vec::new();
        let mut edge_ranges = Vec::new();
        for &g in &gather {
            if g != PAD && owns(g as usize / win) {
                let lo = csr.node_pointer()[g as usize];
                let hi = csr.node_pointer()[g as usize + 1];
                edge_ranges.push((lo, hi));
                for &u in csr.neighbors(g as usize) {
                    let lu = global_to_local[u as usize];
                    debug_assert_ne!(lu, PAD, "neighbor {u} of owned row {g} unmapped");
                    edge_list.push(lu);
                }
            }
            node_pointer.push(edge_list.len());
        }
        let local = CsrGraph::from_raw(gather.len(), node_pointer, edge_list)
            .expect("shard-local CSR is structurally valid by construction");

        let halo_rows = halo.iter().filter(|&&h| h).count();
        let owned_rows = owned_runs.iter().map(|r| r.len).sum();
        let shard = Shard {
            device_id,
            gather,
            owned_runs,
            edge_ranges,
            halo_rows,
            owned_rows,
        };
        (shard, local)
    }

    /// Whether the shard owns no windows (more devices than windows).
    pub fn is_empty(&self) -> bool {
        self.owned_runs.is_empty()
    }

    /// Local rows (owned + halo + padding) — the local graph's node count.
    pub fn local_rows(&self) -> usize {
        self.gather.len()
    }

    /// The owned windows, ascending.
    pub fn owned_runs(&self) -> &[OwnedRun] {
        &self.owned_runs
    }

    /// Local row → global row map ([`PAD`] marks padding rows).
    pub fn gather_map(&self) -> &[u32] {
        &self.gather
    }

    /// Edges executed on this shard.
    pub fn nnz(&self) -> usize {
        self.edge_ranges.iter().map(|&(lo, hi)| hi - lo).sum()
    }

    /// Bytes pulled from peers per aggregation at feature width `dim`
    /// (f32 features; owned rows are already resident).
    pub fn halo_bytes(&self, dim: usize) -> u64 {
        self.halo_rows as u64 * dim as u64 * 4
    }

    /// Assembles the local input matrix: global rows via the gather map,
    /// zeros for padding rows (they have no edges, so the values are never
    /// read — zeros keep the buffer deterministic).
    pub fn gather_x(&self, x_global: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.gather.len(), x_global.cols());
        for (l, &g) in self.gather.iter().enumerate() {
            if g != PAD {
                out.row_mut(l).copy_from_slice(x_global.row(g as usize));
            }
        }
        out
    }

    /// Slices a global per-edge vector (e.g. the GCN norm) into local edge
    /// order.
    pub fn slice_edge_values(&self, global_vals: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.nnz());
        for &(lo, hi) in &self.edge_ranges {
            out.extend_from_slice(&global_vals[lo..hi]);
        }
        out
    }

    /// Writes a local per-edge vector (in local edge order, e.g. a shard
    /// SDDMM output) back into its global edge slots.
    pub fn scatter_edge_values(&self, local_vals: &[f32], global_out: &mut [f32]) {
        debug_assert_eq!(local_vals.len(), self.nnz());
        let mut k = 0usize;
        for &(lo, hi) in &self.edge_ranges {
            global_out[lo..hi].copy_from_slice(&local_vals[k..k + hi - lo]);
            k += hi - lo;
        }
    }

    /// Writes the owned rows of a *local* matrix (e.g. a shard SpMM
    /// output) into a global `n × d` buffer, dropping padding and halo
    /// rows.
    pub fn scatter_owned(&self, local: &DenseMatrix, global_out: &mut DenseMatrix) {
        debug_assert_eq!(local.rows(), self.local_rows());
        for run in &self.owned_runs {
            for i in 0..run.len {
                global_out
                    .row_mut(run.global_start + i)
                    .copy_from_slice(local.row(run.local_start + i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioner;
    use tcg_graph::gen;
    use tcg_sgt::TC_BLK_H;
    use tcg_tensor::init;

    fn shards_of(g: &CsrGraph, devices: usize, p: Partitioner) -> (Partition, Vec<Shard>) {
        let (part, built) = built_of(g, devices, p);
        (part, built.into_iter().map(|(sh, _)| sh).collect())
    }

    fn built_of(
        g: &CsrGraph,
        devices: usize,
        p: Partitioner,
    ) -> (Partition, Vec<(Shard, CsrGraph)>) {
        let part = p.partition(g, devices);
        let built = (0..devices).map(|d| Shard::build(g, &part, d)).collect();
        (part, built)
    }

    #[test]
    fn owned_runs_are_aligned_and_cover_every_row_once() {
        let g = gen::rmat_default(777, 6000, 3).unwrap();
        for p in [Partitioner::Contiguous, Partitioner::GreedyEdgeCut] {
            let (_, shards) = shards_of(&g, 4, p);
            let mut seen = vec![0u32; g.num_nodes()];
            for sh in &shards {
                for run in sh.owned_runs() {
                    assert_eq!(run.local_start % TC_BLK_H, 0);
                    // Ragged only at the global tail.
                    assert!(run.len == TC_BLK_H || run.global_start + run.len == g.num_nodes());
                    for i in 0..run.len {
                        seen[run.global_start + i] += 1;
                    }
                }
                assert_eq!(sh.owned_rows, sh.owned_runs().iter().map(|r| r.len).sum());
            }
            assert!(seen.iter().all(|&c| c == 1));
            assert_eq!(
                shards.iter().map(|s| s.owned_rows).sum::<usize>(),
                g.num_nodes()
            );
        }
    }

    #[test]
    fn gather_map_is_strictly_monotone_over_real_rows() {
        let g = gen::rmat_default(500, 4000, 9).unwrap();
        let (_, shards) = shards_of(&g, 3, Partitioner::GreedyEdgeCut);
        for sh in &shards {
            let reals: Vec<u32> = sh
                .gather_map()
                .iter()
                .copied()
                .filter(|&g| g != PAD)
                .collect();
            assert!(
                reals.windows(2).all(|w| w[0] < w[1]),
                "dev {}",
                sh.device_id
            );
        }
    }

    #[test]
    fn local_graph_matches_remapped_global_neighborhoods() {
        let g = gen::community(300, 2500, 10, 30, 5).unwrap();
        let (part, built) = built_of(&g, 2, Partitioner::Contiguous);
        for (sh, local) in &built {
            assert_eq!(sh.nnz(), local.num_edges());
            for run in sh.owned_runs() {
                for i in 0..run.len {
                    let gv = run.global_start + i;
                    let lv = run.local_start + i;
                    let local_nbrs = local.neighbors(lv);
                    let global_nbrs = g.neighbors(gv);
                    assert_eq!(local_nbrs.len(), global_nbrs.len());
                    for (&lu, &gu) in local_nbrs.iter().zip(global_nbrs) {
                        assert_eq!(sh.gather_map()[lu as usize], gu);
                    }
                }
            }
            // Halo + padding rows never carry edges.
            for lv in 0..sh.local_rows() {
                let gv = sh.gather_map()[lv];
                let owned =
                    gv != PAD && part.assignment[gv as usize / TC_BLK_H] as usize == sh.device_id;
                if !owned {
                    assert!(local.neighbors(lv).is_empty());
                }
            }
        }
    }

    #[test]
    fn edge_value_slices_cover_all_owned_edges_in_order() {
        let g = gen::erdos_renyi(200, 1600, 4).unwrap();
        let vals: Vec<f32> = (0..g.num_edges()).map(|e| e as f32).collect();
        let (_, shards) = shards_of(&g, 3, Partitioner::GreedyEdgeCut);
        let mut covered = vec![false; g.num_edges()];
        let mut rebuilt = vec![-1.0f32; g.num_edges()];
        for sh in &shards {
            let local_vals = sh.slice_edge_values(&vals);
            assert_eq!(local_vals.len(), sh.nnz());
            sh.scatter_edge_values(&local_vals, &mut rebuilt);
            // Each sliced value is the global value of the matching edge.
            let mut k = 0usize;
            for run in sh.owned_runs() {
                for i in 0..run.len {
                    let gv = run.global_start + i;
                    let lo = g.node_pointer()[gv];
                    let hi = g.node_pointer()[gv + 1];
                    for e in lo..hi {
                        assert_eq!(local_vals[k], vals[e]);
                        assert!(!covered[e]);
                        covered[e] = true;
                        k += 1;
                    }
                }
            }
        }
        assert!(covered.iter().all(|&c| c));
        assert_eq!(rebuilt, vals);
    }

    #[test]
    fn gather_scatter_roundtrips() {
        let g = gen::rmat_default(250, 2000, 6).unwrap();
        let x = init::uniform(g.num_nodes(), 5, -1.0, 1.0, 8);
        let (_, shards) = shards_of(&g, 4, Partitioner::Contiguous);
        let mut rebuilt = DenseMatrix::zeros(g.num_nodes(), 5);
        for sh in &shards {
            let lx = sh.gather_x(&x);
            assert_eq!(lx.rows(), sh.local_rows());
            sh.scatter_owned(&lx, &mut rebuilt);
        }
        assert_eq!(rebuilt.as_slice(), x.as_slice());
    }

    #[test]
    fn halo_rows_count_distinct_remote_neighbors() {
        let g = gen::rmat_default(400, 3000, 2).unwrap();
        let (part, shards) = shards_of(&g, 2, Partitioner::Contiguous);
        for sh in &shards {
            let mut remote = std::collections::HashSet::new();
            for run in sh.owned_runs() {
                for i in 0..run.len {
                    for &u in g.neighbors(run.global_start + i) {
                        if part.assignment[u as usize / TC_BLK_H] as usize != sh.device_id {
                            remote.insert(u);
                        }
                    }
                }
            }
            assert_eq!(sh.halo_rows, remote.len());
            assert_eq!(sh.halo_bytes(16), remote.len() as u64 * 64);
        }
    }

    #[test]
    fn empty_shard_is_well_formed() {
        let g = gen::erdos_renyi(20, 80, 1).unwrap(); // 2 windows
        let part = Partitioner::Contiguous.partition(&g, 8);
        for d in 0..8 {
            let (sh, _) = Shard::build(&g, &part, d);
            if sh.is_empty() {
                assert_eq!(sh.owned_rows, 0);
                assert_eq!(sh.local_rows(), 0);
                assert_eq!(sh.nnz(), 0);
            }
        }
    }
}
