//! Window-granular graph partitioning.
//!
//! The SGT row window (16 rows) is the sharding unit: a partition maps
//! every row window to one device, never splitting a window. This keeps
//! each shard's windows structurally identical to the corresponding
//! global windows, which is what makes sharded aggregation bitwise-equal
//! to the single-device kernel (see `shard.rs` for the construction).
//!
//! Two strategies:
//! - [`Partitioner::Contiguous`] — nnz-balanced contiguous window ranges,
//!   the trivial baseline.
//! - [`Partitioner::GreedyEdgeCut`] — METIS-lite greedy growth: each
//!   device grows from the heaviest unassigned window, repeatedly
//!   absorbing the unassigned window most connected to the shard, until
//!   it reaches its nnz share. Hub windows seed shards first because on
//!   power-law graphs they dominate both compute and cut (the HC-SpMM
//!   observation), and pulling their neighborhoods into the same shard is
//!   where most of the halo reduction comes from.

use std::collections::BinaryHeap;
use std::collections::HashMap;

use tcg_graph::CsrGraph;
use tcg_sgt::TC_BLK_H;

/// A window → device assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Number of devices (shards).
    pub num_devices: usize,
    /// Rows per window (always [`TC_BLK_H`] in this codebase).
    pub win_size: usize,
    /// `assignment[w]` = device owning window `w`.
    pub assignment: Vec<u32>,
}

/// Number of row windows of `csr` at window size `win`.
pub fn num_windows(csr: &CsrGraph, win: usize) -> usize {
    csr.num_nodes().div_ceil(win)
}

impl Partition {
    /// The device owning global row `row`.
    pub fn device_of_row(&self, row: usize) -> u32 {
        self.assignment[row / self.win_size]
    }

    /// Checks structural validity against `csr`: one entry per window
    /// (every window covered exactly once, by construction of the dense
    /// assignment vector) and every device id in range.
    pub fn validate(&self, csr: &CsrGraph) -> Result<(), String> {
        let w = num_windows(csr, self.win_size);
        if self.assignment.len() != w {
            return Err(format!(
                "assignment covers {} windows, graph has {w}",
                self.assignment.len()
            ));
        }
        if let Some(&bad) = self
            .assignment
            .iter()
            .find(|&&d| d as usize >= self.num_devices)
        {
            return Err(format!(
                "device id {bad} out of range for {} devices",
                self.num_devices
            ));
        }
        Ok(())
    }

    /// Directed edges whose endpoints live on different devices — the
    /// rows a shard must gather from peers (halo volume is the number of
    /// *distinct* remote endpoints; the cut counts every crossing edge).
    ///
    /// Computed through the window-adjacency weights (the same structure
    /// the greedy partitioner optimizes); tests recount per-edge.
    pub fn cut_edges(&self, csr: &CsrGraph) -> usize {
        window_adjacency(csr, self.win_size)
            .iter()
            .filter(|&&((wu, wv), _)| self.assignment[wu as usize] != self.assignment[wv as usize])
            .map(|&(_, weight)| weight as usize)
            .sum()
    }

    /// Per-device non-zero (edge) counts.
    pub fn shard_nnz(&self, csr: &CsrGraph) -> Vec<usize> {
        let mut nnz = vec![0usize; self.num_devices];
        for (w, &d) in self.assignment.iter().enumerate() {
            nnz[d as usize] += window_nnz(csr, self.win_size, w);
        }
        nnz
    }
}

/// Out-edges of window `w`.
fn window_nnz(csr: &CsrGraph, win: usize, w: usize) -> usize {
    let lo = w * win;
    let hi = ((w + 1) * win).min(csr.num_nodes());
    csr.node_pointer()[hi] - csr.node_pointer()[lo]
}

/// Directed window-pair edge weights, sorted by `(src_window, dst_window)`.
fn window_adjacency(csr: &CsrGraph, win: usize) -> Vec<((u32, u32), u64)> {
    let mut weights: HashMap<(u32, u32), u64> = HashMap::new();
    for v in 0..csr.num_nodes() {
        let wv = (v / win) as u32;
        for &u in csr.neighbors(v) {
            *weights.entry((wv, u / win as u32)).or_insert(0) += 1;
        }
    }
    let mut out: Vec<_> = weights.into_iter().collect();
    out.sort_unstable_by_key(|&(k, _)| k);
    out
}

/// Partitioning strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioner {
    /// nnz-balanced contiguous window ranges.
    Contiguous,
    /// Greedy edge-cut minimization under an nnz-balance constraint.
    GreedyEdgeCut,
}

impl Partitioner {
    /// Stable name, stamped into benchmark `_meta` blocks and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Partitioner::Contiguous => "contiguous",
            Partitioner::GreedyEdgeCut => "greedy",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "contiguous" => Some(Partitioner::Contiguous),
            "greedy" => Some(Partitioner::GreedyEdgeCut),
            _ => None,
        }
    }

    /// Splits `csr` into `devices` window-aligned shards.
    ///
    /// Deterministic: same graph and device count → same assignment.
    pub fn partition(&self, csr: &CsrGraph, devices: usize) -> Partition {
        let devices = devices.max(1);
        let win = TC_BLK_H;
        let w = num_windows(csr, win);
        let assignment = match self {
            Partitioner::Contiguous => contiguous(csr, win, w, devices),
            Partitioner::GreedyEdgeCut => greedy(csr, win, w, devices),
        };
        Partition {
            num_devices: devices,
            win_size: win,
            assignment,
        }
    }
}

fn contiguous(csr: &CsrGraph, win: usize, w: usize, devices: usize) -> Vec<u32> {
    // Weight each window by nnz (plus one so edgeless windows still count
    // toward balance) and cut the prefix at each device's share.
    let weights: Vec<u64> = (0..w).map(|i| window_nnz(csr, win, i) as u64 + 1).collect();
    let total: u64 = weights.iter().sum();
    let mut assignment = vec![0u32; w];
    let mut device = 0usize;
    let mut cum = 0u64;
    for (i, &wt) in weights.iter().enumerate() {
        assignment[i] = device as u32;
        cum += wt;
        // Advance once this device reached its share of the remaining mass.
        while device + 1 < devices && cum * devices as u64 >= total * (device as u64 + 1) {
            device += 1;
        }
    }
    assignment
}

fn greedy(csr: &CsrGraph, win: usize, w: usize, devices: usize) -> Vec<u32> {
    const UNASSIGNED: u32 = u32::MAX;
    let nnz: Vec<u64> = (0..w).map(|i| window_nnz(csr, win, i) as u64 + 1).collect();
    // Window adjacency as CSR-of-windows for O(1) neighbor walks.
    let pairs = window_adjacency(csr, win);
    let mut adj_ptr = vec![0usize; w + 1];
    for &((src, _), _) in &pairs {
        adj_ptr[src as usize + 1] += 1;
    }
    for i in 0..w {
        adj_ptr[i + 1] += adj_ptr[i];
    }
    let adj: Vec<(u32, u64)> = pairs.iter().map(|&((_, dst), wt)| (dst, wt)).collect();

    let mut assignment = vec![UNASSIGNED; w];
    let mut remaining_nnz: u64 = nnz.iter().sum();
    let mut remaining_windows = w;
    // Heavy windows first as seeds: hub neighborhoods anchor shards.
    let mut seeds: Vec<u32> = (0..w as u32).collect();
    seeds.sort_by_key(|&i| (std::cmp::Reverse(nnz[i as usize]), i));
    let mut seed_cursor = 0usize;

    for d in 0..devices.saturating_sub(1) {
        if remaining_windows == 0 {
            break;
        }
        let target = remaining_nnz / (devices - d) as u64;
        let mut shard_nnz = 0u64;
        // Connectivity of each unassigned window to the growing shard.
        let mut score = vec![0u64; w];
        // Max-heap over (score, low-id-first); entries go stale when a
        // score improves — the pop re-checks against `score`.
        let mut heap: BinaryHeap<(u64, std::cmp::Reverse<u32>)> = BinaryHeap::new();
        while shard_nnz < target && remaining_windows > 0 {
            let pick = loop {
                match heap.pop() {
                    Some((s, std::cmp::Reverse(cand))) => {
                        if assignment[cand as usize] != UNASSIGNED || s != score[cand as usize] {
                            continue; // stale or already taken
                        }
                        break Some(cand);
                    }
                    None => break None,
                }
            };
            let pick = match pick {
                Some(p) => p,
                None => {
                    // Disconnected frontier: seed with the heaviest
                    // unassigned window.
                    while seed_cursor < seeds.len()
                        && assignment[seeds[seed_cursor] as usize] != UNASSIGNED
                    {
                        seed_cursor += 1;
                    }
                    match seeds.get(seed_cursor) {
                        Some(&s) => s,
                        None => break,
                    }
                }
            };
            // Balance constraint: never blow past the target unless the
            // shard would otherwise stay empty.
            if shard_nnz > 0 && shard_nnz + nnz[pick as usize] > target + target / 8 {
                break;
            }
            assignment[pick as usize] = d as u32;
            shard_nnz += nnz[pick as usize];
            remaining_nnz -= nnz[pick as usize];
            remaining_windows -= 1;
            for &(nbr, wt) in &adj[adj_ptr[pick as usize]..adj_ptr[pick as usize + 1]] {
                if assignment[nbr as usize] == UNASSIGNED {
                    score[nbr as usize] += wt;
                    heap.push((score[nbr as usize], std::cmp::Reverse(nbr)));
                }
            }
        }
    }
    // Last device absorbs the remainder.
    for a in assignment.iter_mut() {
        if *a == UNASSIGNED {
            *a = devices as u32 - 1;
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcg_graph::gen;

    fn brute_cut(p: &Partition, csr: &CsrGraph) -> usize {
        let mut cut = 0;
        for v in 0..csr.num_nodes() {
            for &u in csr.neighbors(v) {
                if p.device_of_row(v) != p.device_of_row(u as usize) {
                    cut += 1;
                }
            }
        }
        cut
    }

    #[test]
    fn both_partitioners_validate_and_agree_on_cut_counting() {
        let g = gen::rmat_default(512, 4000, 7).unwrap();
        for p in [Partitioner::Contiguous, Partitioner::GreedyEdgeCut] {
            for devices in [1, 2, 4, 8] {
                let part = p.partition(&g, devices);
                part.validate(&g).unwrap();
                assert_eq!(part.cut_edges(&g), brute_cut(&part, &g));
                assert_eq!(part.shard_nnz(&g).iter().sum::<usize>(), g.num_edges());
            }
        }
    }

    #[test]
    fn greedy_cuts_no_more_than_contiguous_on_clustered_graphs() {
        // Communities straddle contiguous boundaries only mildly, so this
        // is a fair fight; greedy must not lose badly, and in the common
        // case it wins.
        let g = gen::community(1024, 12000, 32, 64, 3).unwrap();
        let c = Partitioner::Contiguous.partition(&g, 4).cut_edges(&g);
        let gr = Partitioner::GreedyEdgeCut.partition(&g, 4).cut_edges(&g);
        assert!(
            gr as f64 <= c as f64 * 1.05,
            "greedy cut {gr} vs contiguous {c}"
        );
    }

    #[test]
    fn greedy_respects_nnz_balance() {
        let g = tcg_graph::synth::power_law(11, 4096, 8).unwrap();
        let part = Partitioner::GreedyEdgeCut.partition(&g, 4);
        let nnz = part.shard_nnz(&g);
        let target = g.num_edges() / 4;
        for (d, &n) in nnz.iter().enumerate() {
            assert!(
                n <= target + target / 2,
                "device {d} holds {n} nnz vs target {target}"
            );
        }
    }

    #[test]
    fn single_device_partition_is_trivial() {
        let g = gen::erdos_renyi(100, 500, 1).unwrap();
        for p in [Partitioner::Contiguous, Partitioner::GreedyEdgeCut] {
            let part = p.partition(&g, 1);
            assert!(part.assignment.iter().all(|&d| d == 0));
            assert_eq!(part.cut_edges(&g), 0);
        }
    }

    #[test]
    fn more_devices_than_windows_leaves_trailing_shards_empty() {
        let g = gen::erdos_renyi(20, 60, 1).unwrap(); // 2 windows
        let part = Partitioner::Contiguous.partition(&g, 8);
        part.validate(&g).unwrap();
        assert_eq!(part.assignment.len(), 2);
    }

    #[test]
    fn parse_roundtrips_names() {
        for p in [Partitioner::Contiguous, Partitioner::GreedyEdgeCut] {
            assert_eq!(Partitioner::parse(p.name()), Some(p));
        }
        assert_eq!(Partitioner::parse("metis"), None);
    }
}
