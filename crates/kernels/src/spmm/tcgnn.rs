//! TC-GNN neighbor aggregation — Algorithm 2 / Listing 2 of the paper.
//!
//! One thread block per SGT row window. CUDA-core threads stage the current
//! TC block's sparse tile (`sparse_A`, dense 16×8 layout built from
//! `edgeToCol`/`edgeToRow`) and the column→row mapping
//! (`sparse_AToX_index`) into shared memory, then gather the referenced
//! rows of the dense matrix into per-warp `dense_X` tiles. Warps drive the
//! tensor cores over the staged tiles with `m16n16k8` MMAs, accumulating in
//! registers across the window's TC blocks, and finally store their 16×16
//! output slab. The embedding dimension is *split across warps* (§5.2's
//! dimension-split strategy), so every warp reuses the same shared sparse
//! tile — the data-reuse benefit of the two-level workload mapping.
//!
//! The body charges that staging and every MMA in full and computes no
//! value. The outputs come from a plain loop over each row's edges,
//! `tcu_rows`, in the MMAs' accumulation order, so they carry the bits of
//! the staged-tile loop `tcg_oracle::refmodel::tcu_spmm`.
//!
//! The window body, `TcuWindow`, is the one the hybrid launch runs for
//! its TCU windows; this kernel is that launch under an all-TCU mask.

use std::ops::Range;
use std::sync::Arc;

use tcg_gpusim::launch::Buffer;
use tcg_gpusim::wmma::{
    mma_sync, FRAG_ACC_TRANSACTIONS, FRAG_A_SMEM_TRANSACTIONS, FRAG_B_SMEM_TRANSACTIONS, WMMA_K,
    WMMA_M, WMMA_N,
};
use tcg_gpusim::{BlockCtx, KernelReport, Launcher};
use tcg_graph::CsrGraph;
use tcg_sgt::{Sgt, TranslatedGraph, TC_BLK_H, TC_BLK_W};
use tcg_tensor::tf32::round_to_tf32;
use tcg_tensor::DenseMatrix;

use crate::common::{axpy, check_windows, SpmmKernel, SpmmProblem, TcgError};
use crate::hybrid::{mask_over, WindowBackend};

// The MMA shape is the SGT tile: one fragment row per window row, one
// fragment k per condensed column.
const _: () = assert!(WMMA_M == TC_BLK_H && WMMA_K == TC_BLK_W);

/// The TC-GNN SpMM kernel, bound to a translated graph.
#[derive(Debug, Clone)]
pub struct TcgnnSpmm {
    translated: Arc<TranslatedGraph>,
    warps_per_block: usize,
}

impl TcgnnSpmm {
    /// Builds the kernel by running SGT on `csr`.
    pub fn new(csr: &CsrGraph) -> Self {
        Self::from_translated(
            Sgt::builder()
                .translate(csr)
                .expect("default SGT geometry is valid"),
        )
    }

    /// Builds the kernel from a pre-computed translation (SGT runs once and
    /// is reused across epochs — §4.1), shared when given an `Arc`.
    pub fn from_translated(translated: impl Into<Arc<TranslatedGraph>>) -> Self {
        TcgnnSpmm {
            translated: translated.into(),
            warps_per_block: 0,
        }
    }

    /// Overrides the dimension-split warp count (0 = auto: one warp per
    /// 16-dim slab, capped at 8). The Figure 7(c) ablation sweeps this.
    pub fn with_warps_per_block(mut self, warps: usize) -> Self {
        self.warps_per_block = warps;
        self
    }

    /// The translation this kernel runs over.
    pub fn translated(&self) -> &TranslatedGraph {
        &self.translated
    }
}

impl SpmmKernel for TcgnnSpmm {
    fn name(&self) -> &'static str {
        "tc-gnn"
    }

    fn execute(
        &self,
        launcher: &mut Launcher,
        prob: &SpmmProblem<'_>,
    ) -> Result<(DenseMatrix, KernelReport), TcgError> {
        let t = &self.translated;
        let all_tcu = || vec![WindowBackend::Tcu; t.num_row_windows];
        super::hybrid::launch(launcher, prob, t, all_tcu, "tc-gnn", self.warps_per_block)
    }

    fn execute_windows(
        &self,
        launcher: &mut Launcher,
        prob: &SpmmProblem<'_>,
        windows: &[u32],
    ) -> Result<(DenseMatrix, KernelReport), TcgError> {
        let t = &self.translated;
        check_windows(t, windows)?;
        let tcu = || mask_over(t.num_row_windows, Some(windows), |_| WindowBackend::Tcu);
        super::hybrid::launch(launcher, prob, t, tcu, "tc-gnn", self.warps_per_block)
    }
}

/// The TCU row-window body of Listing 2, with the device buffers it reads
/// and writes (allocated by the launch). It only charges.
#[derive(Clone, Copy)]
pub(crate) struct TcuWindow<'a> {
    pub t: &'a TranslatedGraph,
    pub prob: &'a SpmmProblem<'a>,
    pub buf_ptr: Buffer,
    pub buf_pack: Buffer,
    pub buf_atox: Buffer,
    pub buf_porig: Buffer,
    pub buf_vals: Buffer,
    pub buf_x: Buffer,
    pub buf_out: Buffer,
}

impl TcuWindow<'_> {
    /// Charges row window `w`. An empty window issues nothing.
    pub(crate) fn run(&self, ctx: &mut BlockCtx<'_>, w: usize) {
        let (t, prob) = (self.t, self.prob);
        let num_tc_blocks = t.win_partition[w] as usize;
        if num_tc_blocks == 0 {
            return;
        }
        let d = prob.dim();
        let slabs = d.div_ceil(WMMA_N);
        let row_lo = w * TC_BLK_H;
        let row_hi = (row_lo + TC_BLK_H).min(prob.csr.num_nodes());

        // Window metadata reads.
        ctx.ld_global_scalar(self.buf_ptr.addr(row_lo, 8));
        ctx.ld_global_scalar(self.buf_ptr.addr(row_hi, 8));

        // Per-block scratch (the parallel path runs bodies concurrently,
        // so nothing mutable is shared between blocks).
        let mut row_bases: Vec<u64> = Vec::with_capacity(TC_BLK_W);
        let mut slab_bases: Vec<u64> = Vec::with_capacity(TC_BLK_H);
        let mut addr_scratch: Vec<u64> = Vec::with_capacity(64);

        for i in 0..num_tc_blocks {
            // --- CUDA-core staging phase (Alg. 2's GetChunk + the
            // shared-memory staging of Listing 2) -----------------
            // Stream exactly this TC block's edge chunk: the
            // column-sorted permutation arrays from SGT.
            let b = t.win_block_start[w] + i;
            let (c_lo, c_hi) = t.block_chunk(b);
            let chunk = c_hi - c_lo;
            // Packed coordinates: one byte per non-zero.
            ctx.ld_global_contiguous(self.buf_pack.addr(c_lo, 1), chunk, 1);
            // sparse_AToX_index: one id per condensed column.
            let atox_ids = t.block_atox(b);
            ctx.ld_global_contiguous(
                self.buf_atox.addr(t.block_atox_ptr[b], 4),
                atox_ids.len(),
                4,
            );
            if prob.edge_values.is_some() {
                // Values live in original edge order: indirect gather.
                ctx.ld_global_contiguous(self.buf_porig.addr(c_lo, 4), chunk, 4);
                addr_scratch.clear();
                addr_scratch.extend(
                    t.perm_orig[c_lo..c_hi]
                        .iter()
                        .map(|&e| self.buf_vals.f32_addr(e as usize)),
                );
                for wchunk in addr_scratch.chunks(32) {
                    ctx.ld_global_warp(wchunk);
                }
            }

            // The A operand is the same for every dim slab: staged once
            // per TC block (each warp's load is still charged).
            let nnz_blk = chunk as u64;
            // Shared-memory writes: zero-init + nnz scatter + index row.
            ctx.shared_access(((TC_BLK_H * TC_BLK_W) as u64).div_ceil(32));
            ctx.shared_access(nnz_blk.div_ceil(32).max(1));
            ctx.shared_access(1);

            // Gather the up-to-8 referenced X rows (per warp dim slab).
            row_bases.clear();
            row_bases.extend(
                atox_ids
                    .iter()
                    .filter(|&&u| u != u32::MAX)
                    .map(|&u| self.buf_x.f32_addr(u as usize * d)),
            );

            for s in 0..slabs {
                let dim0 = s * WMMA_N;
                let width = (d - dim0).min(WMMA_N);
                // Stage dense_X: each referenced row contributes its
                // 16-dim slab slice.
                slab_bases.clear();
                slab_bases.extend(row_bases.iter().map(|&b| b + (dim0 * 4) as u64));
                ctx.ld_global_gather_rows(&slab_bases, width, 4);
                ctx.shared_access(((TC_BLK_W * WMMA_N) as u64).div_ceil(32));

                // --- TCU phase (Listing 2 lines 36-37) --------------
                ctx.shared_access(FRAG_A_SMEM_TRANSACTIONS + FRAG_B_SMEM_TRANSACTIONS);
                mma_sync(ctx);
            }
        }
        ctx.syncthreads();

        // Store each warp's 16×16 output slab (boundary-clipped).
        for s in 0..slabs {
            let dim0 = s * WMMA_N;
            let width = (d - dim0).min(WMMA_N);
            slab_bases.clear();
            slab_bases.extend((row_lo..row_hi).map(|r| self.buf_out.f32_addr(r * d + dim0)));
            ctx.st_global_gather_rows(&slab_bases, width, 4);
            ctx.shared_access(FRAG_ACC_TRANSACTIONS);
        }
    }
}

/// The outputs of a TCU window's `rows` for an SpMM with edge values
/// `value(e)`: the loop every launch computes a TCU window with. `out_rows`
/// (`rows × d`, zeroed on entry) gets `Σ tf32(value(e)) · x_tf32[u]` over
/// each row's edges `(e, u)` in CSR order, skipping zero
/// `tf32(value(e))`, a separate multiply and add.
///
/// That is the MMA order of the staged tiles: a row's tile entries ascend
/// in condensed column over the window's TC blocks, the condensed columns
/// are the window's sorted distinct neighbors, and
/// `TranslatedGraph::validate` ties each to a distinct edge of the row,
/// whose CSR neighbors ascend.
pub(crate) fn tcu_rows(
    csr: &CsrGraph,
    value: impl Fn(usize) -> f32,
    x_tf32: &[f32],
    d: usize,
    rows: Range<usize>,
    out_rows: &mut [f32],
) {
    let ptr = csr.node_pointer();
    for (i, v) in rows.enumerate() {
        let orow = &mut out_rows[i * d..(i + 1) * d];
        for (e, &u) in (ptr[v]..ptr[v + 1]).zip(csr.neighbors(v)) {
            let a = round_to_tf32(value(e));
            if a == 0.0 {
                continue;
            }
            axpy(orow, a, &x_tf32[u as usize * d..][..d]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{kernel_tolerance, reference_spmm};
    use crate::spmm::cusparse::CusparseCsrSpmm;
    use tcg_graph::gen;
    use tcg_tensor::init;

    fn run(
        g: &CsrGraph,
        x: &DenseMatrix,
        vals: Option<&[f32]>,
    ) -> (DenseMatrix, KernelReport, DenseMatrix) {
        let prob = SpmmProblem::new(g, vals, x).unwrap();
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (out, report) = TcgnnSpmm::new(g).execute(&mut l, &prob).unwrap();
        let reference = reference_spmm(&prob);
        (out, report, reference)
    }

    #[test]
    fn matches_reference_basic() {
        let g = gen::rmat_default(512, 5000, 1).unwrap();
        let x = init::uniform(512, 16, -1.0, 1.0, 2);
        let (out, report, reference) = run(&g, &x, None);
        assert!(out.max_abs_diff(&reference).unwrap() < kernel_tolerance(64, 16, 4.0));
        assert!(
            report.stats.tcu_mma_instructions > 0,
            "must use tensor cores"
        );
    }

    #[test]
    fn matches_reference_wide_embedding() {
        // d = 50: non-multiple of 16 exercises slab clipping.
        let g = gen::citation(300, 2400, 3).unwrap();
        let x = init::uniform(300, 50, -1.0, 1.0, 4);
        let (out, _, reference) = run(&g, &x, None);
        assert!(out.max_abs_diff(&reference).unwrap() < kernel_tolerance(64, 50, 4.0));
    }

    #[test]
    fn matches_reference_narrow_embedding() {
        // d = 7 < 16: single clipped slab.
        let g = gen::erdos_renyi(200, 1600, 5).unwrap();
        let x = init::uniform(200, 7, -1.0, 1.0, 6);
        let (out, _, reference) = run(&g, &x, None);
        assert!(out.max_abs_diff(&reference).unwrap() < kernel_tolerance(64, 7, 4.0));
    }

    #[test]
    fn matches_reference_weighted() {
        let g = gen::rmat_default(256, 2000, 7).unwrap();
        let x = init::uniform(256, 32, -1.0, 1.0, 8);
        let vals: Vec<f32> = (0..g.num_edges())
            .map(|e| 0.05 + (e % 11) as f32 * 0.1)
            .collect();
        let (out, _, reference) = run(&g, &x, Some(&vals));
        assert!(out.max_abs_diff(&reference).unwrap() < kernel_tolerance(64, 32, 8.0));
    }

    #[test]
    fn non_multiple_of_window_node_count() {
        // n = 101 leaves a ragged final window.
        let g = gen::erdos_renyi(101, 900, 9).unwrap();
        let x = init::uniform(101, 16, -1.0, 1.0, 10);
        let (out, _, reference) = run(&g, &x, None);
        assert!(out.max_abs_diff(&reference).unwrap() < kernel_tolerance(64, 16, 4.0));
    }

    #[test]
    fn mma_count_matches_translation() {
        let g = gen::rmat_default(1024, 8000, 11).unwrap();
        let x = init::uniform(1024, 32, -1.0, 1.0, 12);
        let kernel = TcgnnSpmm::new(&g);
        let expected = kernel.translated().total_tc_blocks() * 2; // 2 slabs
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (_, report) = kernel.execute(&mut l, &prob).unwrap();
        assert_eq!(report.stats.tcu_mma_instructions, expected);
    }

    #[test]
    fn beats_cusparse_on_irregular_graph() {
        // The headline claim, at kernel granularity.
        let g = gen::rmat_default(8192, 80_000, 13).unwrap();
        let x = init::uniform(8192, 32, -1.0, 1.0, 14);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let mut l1 = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (_, r_tc) = TcgnnSpmm::new(&g).execute(&mut l1, &prob).unwrap();
        let mut l2 = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (_, r_cu) = CusparseCsrSpmm.execute(&mut l2, &prob).unwrap();
        assert!(
            r_tc.time_ms < r_cu.time_ms,
            "TC-GNN {} ms should beat cuSPARSE {} ms",
            r_tc.time_ms,
            r_cu.time_ms
        );
    }

    #[test]
    fn warp_override_changes_block_size_not_result() {
        let g = gen::citation(256, 2000, 15).unwrap();
        let x = init::uniform(256, 64, -1.0, 1.0, 16);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let mut outs = Vec::new();
        for warps in [1, 2, 4, 8] {
            let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
            let k = TcgnnSpmm::new(&g).with_warps_per_block(warps);
            let (out, report) = k.execute(&mut l, &prob).unwrap();
            assert_eq!(report.stats.block_size, (warps * 32) as u32);
            outs.push(out);
        }
        for o in &outs[1..] {
            assert_eq!(o.as_slice(), outs[0].as_slice(), "results must agree");
        }
    }

    #[test]
    fn rejects_mismatched_translation() {
        let g1 = gen::erdos_renyi(128, 1000, 17).unwrap();
        let g2 = gen::erdos_renyi(128, 900, 18).unwrap();
        let x = init::uniform(128, 16, -1.0, 1.0, 19);
        let kernel = TcgnnSpmm::new(&g1);
        let prob = SpmmProblem::new(&g2, None, &x).unwrap();
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        assert!(kernel.execute(&mut l, &prob).is_err());
    }
}
