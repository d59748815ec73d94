//! Hybrid TCU/CUDA-core SpMM: one launch, per-row-window dispatch.
//!
//! Every SGT row window is routed by [`DispatchPolicy`] (or a forced mask)
//! to one of two window bodies inside a *single* kernel launch. Each window
//! type has exactly one body, shared with the pure kernel it comes from:
//!
//! - **TCU windows** run `tcgnn::TcuWindow`, TC-GNN's Listing 2
//!   body. [`super::tcgnn::TcgnnSpmm`] is this launch under an all-TCU
//!   mask, so its output and cost report are the hybrid's by construction.
//! - **CUDA-core windows** run `cusparse::CudaRows`, the
//!   cuSPARSE-style lockstep walk, over the window's ≤16 rows as one group.
//!   The pure kernel runs the same body over 32-row groups. Its functional
//!   accumulation is per row in CSR edge order, independent of grouping, so
//!   the window's rows are bitwise the pure CUDA-core kernel's, while the
//!   divergence charge shrinks (a 16-row group's max degree is bounded by
//!   that of the 32-row group containing it).
//!
//! The fused attention kernel keeps its own SDDMM and SpMM stages: their
//! charge sequences differ from these bodies (see `crate::fused`).

use std::sync::Arc;

use tcg_gpusim::wmma::WMMA_N;
use tcg_gpusim::{BlockCtx, DisjointSlices, GridConfig, KernelReport, Launcher};
use tcg_graph::CsrGraph;
use tcg_sgt::{Sgt, TranslatedGraph, TC_BLK_H, TC_BLK_W};
use tcg_tensor::DenseMatrix;

use super::cusparse::{accumulate_rows, CudaRows};
use super::tcgnn::{tcu_rows, TcuWindow};
use crate::common::{
    check_translation, check_windows, first_mma_window, launch_mask, tf32_operand, window_mask,
    window_rows, SpmmKernel, SpmmProblem, TcgError,
};
use crate::hybrid::{mask_over, DispatchPolicy, WindowBackend};

/// The hybrid per-window SpMM dispatcher.
#[derive(Debug, Clone)]
pub struct HybridSpmm {
    translated: Arc<TranslatedGraph>,
    policy: DispatchPolicy,
    forced_mask: Option<Vec<WindowBackend>>,
}

impl HybridSpmm {
    /// Builds the kernel by running SGT on `csr`, with the fitted default
    /// dispatch policy.
    pub fn new(csr: &CsrGraph) -> Self {
        Self::from_translated(
            Sgt::builder()
                .translate(csr)
                .expect("default SGT geometry is valid"),
        )
    }

    /// Builds the kernel from a pre-computed translation (shared, not
    /// copied, when given an `Arc`).
    pub fn from_translated(translated: impl Into<Arc<TranslatedGraph>>) -> Self {
        HybridSpmm {
            translated: translated.into(),
            policy: DispatchPolicy::default(),
            forced_mask: None,
        }
    }

    /// Overrides the dispatch policy (a tuned threshold).
    pub fn with_policy(mut self, policy: DispatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Forces an explicit per-window dispatch mask, bypassing the policy —
    /// the conformance/property-test hook and the engine's per-window ECC
    /// degrade path. Length is validated at execute time.
    pub fn with_mask(mut self, mask: Vec<WindowBackend>) -> Self {
        self.forced_mask = Some(mask);
        self
    }

    /// The translation this kernel runs over.
    pub fn translated(&self) -> &TranslatedGraph {
        &self.translated
    }

    /// The active dispatch policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// The per-window mask `execute` will use at dimension `dim`: the
    /// forced mask when set, otherwise the policy applied to each window's
    /// geometry. Pure in `(translation, csr, dim)`.
    pub fn dispatch_mask(&self, csr: &CsrGraph, dim: usize) -> Vec<WindowBackend> {
        self.dispatch_mask_for(csr, dim, None)
    }

    /// [`HybridSpmm::dispatch_mask`] with every window outside `windows`
    /// (ascending ids; `None` is every window) skipped.
    fn dispatch_mask_for(
        &self,
        csr: &CsrGraph,
        dim: usize,
        windows: Option<&[u32]>,
    ) -> Vec<WindowBackend> {
        match &self.forced_mask {
            Some(m) => mask_over(m.len(), windows, |w| m[w]),
            None => self
                .policy
                .mask_windows(&self.translated, csr, dim, windows),
        }
    }
}

impl SpmmKernel for HybridSpmm {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn execute(
        &self,
        launcher: &mut Launcher,
        prob: &SpmmProblem<'_>,
    ) -> Result<(DenseMatrix, KernelReport), TcgError> {
        let mask = || self.dispatch_mask(prob.csr, prob.dim());
        launch(launcher, prob, &self.translated, mask, "hybrid", 0)
    }

    fn execute_windows(
        &self,
        launcher: &mut Launcher,
        prob: &SpmmProblem<'_>,
        windows: &[u32],
    ) -> Result<(DenseMatrix, KernelReport), TcgError> {
        check_windows(&self.translated, windows)?;
        let mask = || self.dispatch_mask_for(prob.csr, prob.dim(), Some(windows));
        launch(launcher, prob, &self.translated, mask, "hybrid", 0)
    }
}

/// The one SpMM launch behind [`HybridSpmm`] and
/// [`super::tcgnn::TcgnnSpmm`]: validates the translation, then resolves
/// `mask` (which indexes the translation's windows), allocates the
/// buffers and runs every row window through the body its mask entry
/// names; a [`WindowBackend::Skip`] window launches no block.
/// `warps_per_block` 0 picks one warp per 16-dim slab within `[4, 8]`.
pub(crate) fn launch(
    launcher: &mut Launcher,
    prob: &SpmmProblem<'_>,
    t: &TranslatedGraph,
    mask: impl FnOnce() -> Vec<WindowBackend>,
    name: &'static str,
    warps_per_block: usize,
) -> Result<(DenseMatrix, KernelReport), TcgError> {
    let csr = prob.csr;
    check_translation(t, csr)?;
    let mask = window_mask(t, mask)?;
    let n = csr.num_nodes();
    let d = prob.dim();
    // §5.1: "we use more CUDA-core threads than TCU threads" — the block
    // always carries at least 4 warps for staging parallelism, even when
    // fewer dimension slabs need TCU warps.
    let warps = match warps_per_block {
        0 => d.div_ceil(WMMA_N).clamp(4, 8),
        w => w,
    };
    let mut out = DenseMatrix::zeros(n, d);

    let x_tf32 = tf32_operand(prob.x, mask.contains(&WindowBackend::Tcu));
    // The CUDA-core path's edge-id array is appended only when some
    // window needs it, so every all-TCU launch has the same address space
    // (and therefore the same cache behavior and cost report).
    let tcu = TcuWindow {
        t,
        prob,
        buf_ptr: launcher.try_alloc(csr.node_pointer().len() * 8)?,
        buf_pack: launcher.try_alloc(csr.num_edges())?,
        buf_atox: launcher.try_alloc(t.block_atox.len() * 4)?,
        buf_porig: launcher.try_alloc(csr.num_edges() * 4)?,
        buf_vals: launcher.try_alloc(csr.num_edges() * 4)?,
        buf_x: launcher.try_alloc_f32(prob.x.len())?,
        buf_out: launcher.try_alloc_f32(out.len())?,
    };
    let cuda = if mask.contains(&WindowBackend::CudaCore) {
        Some(CudaRows {
            prob,
            buf_edges: launcher.try_alloc(csr.num_edges() * 4)?,
            buf_vals: tcu.buf_vals,
            buf_x: tcu.buf_x,
            buf_out: tcu.buf_out,
        })
    } else {
        None
    };

    // Shared memory mirrors Listing 2: sparse_A (16×8 f32),
    // sparse_AToX_index (8 u32), dense_X (warps × 8×16 f32).
    let smem_bytes = TC_BLK_H * TC_BLK_W * 4 + TC_BLK_W * 4 + warps * TC_BLK_W * WMMA_N * 4;
    let cfg = GridConfig {
        block_size: (warps * 32) as u32,
        shared_mem_bytes: smem_bytes,
        regs_per_thread: 64,
    };

    let body = |ctx: &mut BlockCtx<'_>| {
        let w = ctx.block_id as usize;
        let rows = window_rows(w, n);
        match mask[w] {
            WindowBackend::Tcu => tcu.run(ctx, w),
            // An edgeless window issues nothing, not even its row
            // pointers; otherwise its ≤16 rows are one lockstep group.
            WindowBackend::CudaCore => {
                if csr.node_pointer()[rows.start] == csr.node_pointer()[rows.end] {
                    return;
                }
                let cuda = cuda
                    .as_ref()
                    .expect("a CUDA-core window implies the edge buffer");
                ctx.ld_global_contiguous(tcu.buf_ptr.addr(rows.start, 8), rows.len() + 1, 8);
                cuda.run(ctx, rows);
            }
            WindowBackend::Skip => {}
        }
    };
    // Windows write disjoint row slabs of `out`, so the loop runs on the
    // parallel path without locks.
    let out_view = DisjointSlices::new(out.as_mut_slice());
    let values = |w: u64| {
        let w = w as usize;
        let rows = window_rows(w, n);
        // SAFETY: window `w` owns its rows exclusively.
        let out_win = unsafe { out_view.range_mut(rows.start * d, rows.len() * d) };
        match mask[w] {
            WindowBackend::Tcu => tcu_rows(csr, |e| prob.value(e), &x_tf32, d, rows, out_win),
            WindowBackend::CudaCore => accumulate_rows(prob, rows, out_win),
            WindowBackend::Skip => {}
        }
    };
    launcher.preflight(name, &cfg)?;
    let stats = launch_mask(launcher, cfg, &mask, body, values);
    if stats.ecc_faults > 0 {
        // The flip poisons accumulator element (0, 0) of the launch's
        // first MMA: row 0, column 0 of its window.
        let tcu_windows = (0..mask.len()).filter(|&w| mask[w] == WindowBackend::Tcu);
        let w = first_mma_window(t, tcu_windows).expect("an MMA consumed the flip");
        out.as_mut_slice()[w * TC_BLK_H * d] = f32::NAN;
    }
    let report = tcg_gpusim::cost::analyze(launcher.device(), &stats);
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{kernel_tolerance, reference_spmm};
    use crate::spmm::cusparse::CusparseCsrSpmm;
    use crate::spmm::tcgnn::TcgnnSpmm;
    use tcg_gpusim::DeviceSpec;
    use tcg_graph::gen;
    use tcg_tensor::init;

    fn launcher() -> Launcher {
        Launcher::new(DeviceSpec::rtx3090())
    }

    fn uniform_mask(t: &TranslatedGraph, wb: WindowBackend) -> Vec<WindowBackend> {
        vec![wb; t.num_row_windows]
    }

    #[test]
    fn matches_reference_under_policy_dispatch() {
        let g = gen::rmat_default(512, 5000, 1).unwrap();
        let x = init::uniform(512, 16, -1.0, 1.0, 2);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let (out, report) = HybridSpmm::new(&g).execute(&mut launcher(), &prob).unwrap();
        let reference = reference_spmm(&prob);
        assert!(out.max_abs_diff(&reference).unwrap() < kernel_tolerance(64, 16, 4.0));
        assert!(report.time_ms > 0.0);
    }

    #[test]
    fn all_tcu_mask_is_bitwise_and_cost_identical_to_pure_tcu() {
        let g = gen::citation(300, 2400, 3).unwrap();
        let x = init::uniform(300, 50, -1.0, 1.0, 4);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let tcgnn = TcgnnSpmm::new(&g);
        let hybrid = HybridSpmm::from_translated(tcgnn.translated().clone())
            .with_mask(uniform_mask(tcgnn.translated(), WindowBackend::Tcu));
        let (out_t, rep_t) = tcgnn.execute(&mut launcher(), &prob).unwrap();
        let (out_h, rep_h) = hybrid.execute(&mut launcher(), &prob).unwrap();
        assert_eq!(out_h.as_slice(), out_t.as_slice());
        assert_eq!(rep_h.stats, rep_t.stats, "identical charge sequence");
        assert_eq!(rep_h.cycles.to_bits(), rep_t.cycles.to_bits());
    }

    #[test]
    fn all_cuda_mask_is_bitwise_identical_to_cusparse() {
        let g = gen::rmat_default(256, 2000, 7).unwrap();
        let x = init::uniform(256, 32, -1.0, 1.0, 8);
        let vals: Vec<f32> = (0..g.num_edges())
            .map(|e| 0.05 + (e % 11) as f32 * 0.1)
            .collect();
        let prob = SpmmProblem::new(&g, Some(&vals), &x).unwrap();
        let t = Sgt::builder().translate(&g).unwrap();
        let hybrid = HybridSpmm::from_translated(t.clone())
            .with_mask(uniform_mask(&t, WindowBackend::CudaCore));
        let (out_h, _) = hybrid.execute(&mut launcher(), &prob).unwrap();
        let (out_c, _) = CusparseCsrSpmm.execute(&mut launcher(), &prob).unwrap();
        assert_eq!(out_h.as_slice(), out_c.as_slice());
    }

    #[test]
    fn mixed_mask_stitches_pure_outputs_window_by_window() {
        let g = gen::community(200, 1800, 8, 16, 9).unwrap();
        let x = init::uniform(200, 24, -1.0, 1.0, 10);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let t = Sgt::builder().translate(&g).unwrap();
        let mask: Vec<WindowBackend> = (0..t.num_row_windows)
            .map(|w| {
                if w % 2 == 0 {
                    WindowBackend::Tcu
                } else {
                    WindowBackend::CudaCore
                }
            })
            .collect();
        let hybrid = HybridSpmm::from_translated(t.clone()).with_mask(mask.clone());
        let (out_h, _) = hybrid.execute(&mut launcher(), &prob).unwrap();
        let (out_t, _) = TcgnnSpmm::from_translated(t.clone())
            .execute(&mut launcher(), &prob)
            .unwrap();
        let (out_c, _) = CusparseCsrSpmm.execute(&mut launcher(), &prob).unwrap();
        let d = x.cols();
        for (w, &wb) in mask.iter().enumerate() {
            let lo = w * TC_BLK_H * d;
            let hi = (((w + 1) * TC_BLK_H).min(g.num_nodes())) * d;
            let want = match wb {
                WindowBackend::Tcu => &out_t,
                WindowBackend::CudaCore => &out_c,
                WindowBackend::Skip => unreachable!("no window is skipped"),
            };
            assert_eq!(
                &out_h.as_slice()[lo..hi],
                &want.as_slice()[lo..hi],
                "window {w} ({wb:?})"
            );
        }
    }

    #[test]
    fn skipped_windows_launch_nothing_and_stay_zero() {
        let g = gen::community(200, 1800, 8, 16, 9).unwrap();
        let x = init::uniform(200, 24, -1.0, 1.0, 10);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let t = Sgt::builder().translate(&g).unwrap();
        let windows = [1u32, 4, 5, 11];
        let d = x.cols();
        for kernel in [
            Box::new(TcgnnSpmm::from_translated(t.clone())) as Box<dyn SpmmKernel>,
            Box::new(HybridSpmm::from_translated(t.clone())),
        ] {
            let (full, full_rep) = kernel.execute(&mut launcher(), &prob).unwrap();
            let (part, rep) = kernel
                .execute_windows(&mut launcher(), &prob, &windows)
                .unwrap();
            assert_eq!(rep.stats.num_blocks, windows.len() as u64);
            // Skipped windows issue nothing. (Compared on counters: the
            // cost model's time is not monotone in the block count.)
            assert!(rep.stats.warp_instructions < full_rep.stats.warp_instructions);
            assert!(rep.stats.tcu_mma_instructions < full_rep.stats.tcu_mma_instructions);
            for w in 0..t.num_row_windows {
                let rows = w * TC_BLK_H * d..((w + 1) * TC_BLK_H).min(200) * d;
                let got = &part.as_slice()[rows.clone()];
                if windows.contains(&(w as u32)) {
                    assert_eq!(got, &full.as_slice()[rows], "window {w}");
                } else {
                    assert!(got.iter().all(|&v| v.to_bits() == 0), "window {w}");
                }
            }
            // Every window listed is the full launch, bit for bit.
            let all: Vec<u32> = (0..t.num_row_windows as u32).collect();
            let (every, every_rep) = kernel
                .execute_windows(&mut launcher(), &prob, &all)
                .unwrap();
            assert_eq!(every.as_slice(), full.as_slice());
            assert_eq!(every_rep.stats, full_rep.stats);
            let unsorted = [4u32, 1];
            assert!(kernel
                .execute_windows(&mut launcher(), &prob, &unsorted)
                .is_err());
        }
    }

    #[test]
    fn rejects_wrong_mask_length() {
        let g = gen::erdos_renyi(128, 1000, 17).unwrap();
        let x = init::uniform(128, 16, -1.0, 1.0, 19);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let k = HybridSpmm::new(&g).with_mask(vec![WindowBackend::Tcu; 3]);
        assert!(k.execute(&mut launcher(), &prob).is_err());
    }

    #[test]
    fn rejects_mismatched_translation() {
        let g1 = gen::erdos_renyi(128, 1000, 17).unwrap();
        let g2 = gen::erdos_renyi(128, 900, 18).unwrap();
        let x = init::uniform(128, 16, -1.0, 1.0, 19);
        let kernel = HybridSpmm::new(&g1);
        let prob = SpmmProblem::new(&g2, None, &x).unwrap();
        assert!(kernel.execute(&mut launcher(), &prob).is_err());
    }
}
