//! Hybrid TCU/CUDA-core SDDMM: one launch, per-row-window dispatch.
//!
//! The SDDMM twin of [`crate::spmm::hybrid::HybridSpmm`]. A window's edges
//! are the contiguous CSR range `[ptr[row_lo], ptr[row_hi])`, so per-window
//! routing keeps output slices disjoint on both paths. Each window type has
//! exactly one body, shared with the pure kernel it comes from:
//!
//! - **TCU windows** run `tcgnn::TcuWindow`, TC-GNN's fused 16×16
//!   block body of Listing 3. [`super::tcgnn::TcgnnSddmm`] is this launch
//!   under an all-TCU mask.
//! - **CUDA-core windows** run `cuda_core::CudaRows`, the per-row
//!   warp body, over the window's ≤16 rows. The pure kernel runs it over
//!   4-row blocks; each dot product depends on its edge alone, so the
//!   window's edge values are bitwise the pure CUDA-core kernel's.
//!
//! The CUDA-core path's edge-id array is appended only when some window
//! needs it. The fused attention kernel keeps its own SDDMM stage: it
//! issues no staging shared-memory traffic and scatters into shared
//! memory, so its charges differ from this body's (see `crate::fused`).

use std::sync::Arc;

use tcg_gpusim::wmma::WMMA_K;
use tcg_gpusim::{BlockCtx, DisjointSlices, GridConfig, KernelReport, Launcher};
use tcg_graph::CsrGraph;
use tcg_sgt::{Sgt, TranslatedGraph, TC_BLK_H};
use tcg_tensor::DenseMatrix;

use super::cuda_core::{check_features, dot_rows, CudaRows};
use super::tcgnn::{first_entry_edge, tcu_dot_rows, TcuWindow};
use crate::common::{
    all_finite, check_translation, first_mma_window, launch_mask, tf32_operand, window_mask,
    window_rows, TcgError,
};
use crate::hybrid::{DispatchPolicy, KernelClass, WindowBackend};
use crate::sddmm::SddmmKernel;

/// The hybrid per-window SDDMM dispatcher.
#[derive(Debug, Clone)]
pub struct HybridSddmm {
    translated: Arc<TranslatedGraph>,
    policy: DispatchPolicy,
    forced_mask: Option<Vec<WindowBackend>>,
}

impl HybridSddmm {
    /// Builds the kernel by running SGT on `csr`.
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
        HybridSddmm {
            translated: translated.into(),
            policy: DispatchPolicy::default_for(KernelClass::Sddmm),
            forced_mask: None,
        }
    }

    /// Overrides the dispatch policy (a tuned threshold).
    pub fn with_policy(mut self, policy: DispatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Forces an explicit per-window dispatch mask, bypassing the policy.
    pub fn with_mask(mut self, mask: Vec<WindowBackend>) -> Self {
        self.forced_mask = Some(mask);
        self
    }

    /// The translation this kernel runs over.
    pub fn translated(&self) -> &TranslatedGraph {
        &self.translated
    }

    /// The per-window mask `execute` will use at dimension `dim`.
    pub fn dispatch_mask(&self, csr: &CsrGraph, dim: usize) -> Vec<WindowBackend> {
        match &self.forced_mask {
            Some(m) => m.clone(),
            None => self.policy.mask(&self.translated, csr, dim),
        }
    }
}

impl SddmmKernel for HybridSddmm {
    fn name(&self) -> &'static str {
        "hybrid-sddmm"
    }

    fn execute(
        &self,
        launcher: &mut Launcher,
        csr: &CsrGraph,
        xa: &DenseMatrix,
        xb: &DenseMatrix,
    ) -> Result<(Vec<f32>, KernelReport), TcgError> {
        let mask = || self.dispatch_mask(csr, xa.cols());
        launch(
            launcher,
            csr,
            xa,
            xb,
            &self.translated,
            mask,
            "hybrid-sddmm",
        )
    }
}

/// The one SDDMM launch behind [`HybridSddmm`] and
/// [`super::tcgnn::TcgnnSddmm`]: validates the translation and operands,
/// then resolves `mask` (which indexes the translation's windows),
/// allocates the buffers and runs every row window through the body its
/// mask entry names; a [`WindowBackend::Skip`] window launches no block.
pub(crate) fn launch(
    launcher: &mut Launcher,
    csr: &CsrGraph,
    xa: &DenseMatrix,
    xb: &DenseMatrix,
    t: &TranslatedGraph,
    mask: impl FnOnce() -> Vec<WindowBackend>,
    name: &'static str,
) -> Result<(Vec<f32>, KernelReport), TcgError> {
    check_translation(t, csr)?;
    check_features(csr, xa, xb)?;
    let mask = window_mask(t, mask)?;
    let n = csr.num_nodes();
    let mut out = vec![0.0f32; csr.num_edges()];

    let tcu_windows = mask.contains(&WindowBackend::Tcu);
    let (xa_tf32, xb_tf32) = (tf32_operand(xa, tcu_windows), tf32_operand(xb, tcu_windows));
    let xb_finite = all_finite(&xb_tf32);
    let d = xa.cols();
    let tcu = TcuWindow {
        t,
        csr,
        dim: d,
        buf_ptr: launcher.try_alloc(csr.node_pointer().len() * 8)?,
        buf_pack: launcher.try_alloc(csr.num_edges())?,
        buf_atox: launcher.try_alloc(t.block_atox.len() * 4)?,
        buf_porig: launcher.try_alloc(csr.num_edges() * 4)?,
        buf_xa: launcher.try_alloc_f32(xa.len())?,
        buf_xb: launcher.try_alloc_f32(xb.len())?,
        buf_out: launcher.try_alloc_f32(csr.num_edges())?,
    };
    let cuda = if mask.contains(&WindowBackend::CudaCore) {
        Some(CudaRows {
            csr,
            dim: d,
            buf_ptr: tcu.buf_ptr,
            buf_edges: launcher.try_alloc(csr.num_edges() * 4)?,
            buf_xa: tcu.buf_xa,
            buf_xb: tcu.buf_xb,
            buf_out: tcu.buf_out,
        })
    } else {
        None
    };

    // Listing 3 shared layout: sparse_A 16×16 (edge ids), AToX 16,
    // dense_X 16×8, dense_Y 8×16.
    let smem_bytes = (TC_BLK_H * TC_BLK_H + TC_BLK_H) * 4 + 2 * (TC_BLK_H * WMMA_K) * 4;
    let cfg = GridConfig {
        block_size: 128,
        shared_mem_bytes: smem_bytes,
        regs_per_thread: 72,
    };

    let body = |ctx: &mut BlockCtx<'_>| {
        let w = ctx.block_id as usize;
        match mask[w] {
            WindowBackend::Tcu => tcu.run(ctx, w),
            WindowBackend::CudaCore => cuda
                .as_ref()
                .expect("a CUDA-core window implies the edge buffer")
                .run(ctx, window_rows(w, n)),
            WindowBackend::Skip => {}
        }
    };
    // A window's edges are exactly its rows' CSR edges — the contiguous
    // range [ptr[row_lo], ptr[row_hi]) — so windows write disjoint output
    // slices on both paths and the loop runs on the parallel path.
    let ptr = csr.node_pointer();
    let out_view = DisjointSlices::new(&mut out);
    let values = |w: u64| {
        let w = w as usize;
        let rows = window_rows(w, n);
        let (e_lo, e_hi) = (ptr[rows.start], ptr[rows.end]);
        // SAFETY: window `w` owns the edge range [e_lo, e_hi) exclusively.
        let out_win = unsafe { out_view.range_mut(e_lo, e_hi - e_lo) };
        match mask[w] {
            WindowBackend::Tcu => {
                tcu_dot_rows(csr, &xa_tf32, &xb_tf32, d, xb_finite, rows, out_win)
            }
            WindowBackend::CudaCore => dot_rows(csr, xa, xb, rows, out_win),
            WindowBackend::Skip => {}
        }
    };
    launcher.preflight(name, &cfg)?;
    let stats = launch_mask(launcher, cfg, &mask, body, values);
    if stats.ecc_faults > 0 {
        // The flip poisons accumulator element (0, 0) of the launch's
        // first MMA: an edge of its window's first frame, if there is one.
        let tcu_windows = (0..mask.len()).filter(|&w| mask[w] == WindowBackend::Tcu);
        let w = first_mma_window(t, tcu_windows).expect("an MMA consumed the flip");
        if let Some(e) = first_entry_edge(t, w) {
            out[e] = f32::NAN;
        }
    }
    let report = tcg_gpusim::cost::analyze(launcher.device(), &stats);
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::reference_sddmm;
    use crate::sddmm::cuda_core::CudaCoreSddmm;
    use crate::sddmm::tcgnn::TcgnnSddmm;
    use tcg_gpusim::DeviceSpec;
    use tcg_graph::gen;
    use tcg_tensor::init;

    fn launcher() -> Launcher {
        Launcher::new(DeviceSpec::rtx3090())
    }

    #[test]
    fn matches_reference_under_policy_dispatch() {
        let g = gen::rmat_default(300, 2500, 1).unwrap();
        let x = init::uniform(300, 16, -1.0, 1.0, 2);
        let (vals, _) = HybridSddmm::new(&g)
            .execute(&mut launcher(), &g, &x, &x)
            .unwrap();
        let reference = reference_sddmm(&g, &x, &x);
        for (i, (a, b)) in vals.iter().zip(&reference).enumerate() {
            assert!((a - b).abs() < 0.05, "edge {i}: {a} vs {b}");
        }
    }

    #[test]
    fn all_tcu_mask_is_bitwise_and_cost_identical_to_pure_tcu() {
        let g = gen::citation(300, 2400, 3).unwrap();
        let x = init::uniform(300, 13, -1.0, 1.0, 4);
        let tcgnn = TcgnnSddmm::new(&g);
        let mask = vec![WindowBackend::Tcu; tcgnn.translated().num_row_windows];
        let hybrid = HybridSddmm::from_translated(tcgnn.translated().clone()).with_mask(mask);
        let (out_t, rep_t) = tcgnn.execute(&mut launcher(), &g, &x, &x).unwrap();
        let (out_h, rep_h) = hybrid.execute(&mut launcher(), &g, &x, &x).unwrap();
        assert_eq!(out_h, out_t);
        assert_eq!(rep_h.stats, rep_t.stats, "identical charge sequence");
        assert_eq!(rep_h.cycles.to_bits(), rep_t.cycles.to_bits());
    }

    #[test]
    fn mixed_mask_stitches_pure_outputs_window_by_window() {
        let g = gen::community(220, 2000, 8, 16, 9).unwrap();
        let x = init::uniform(220, 24, -1.0, 1.0, 10);
        let t = Sgt::builder().translate(&g).unwrap();
        let mask: Vec<WindowBackend> = (0..t.num_row_windows)
            .map(|w| {
                if w % 3 == 0 {
                    WindowBackend::CudaCore
                } else {
                    WindowBackend::Tcu
                }
            })
            .collect();
        let hybrid = HybridSddmm::from_translated(t.clone()).with_mask(mask.clone());
        let (out_h, _) = hybrid.execute(&mut launcher(), &g, &x, &x).unwrap();
        let (out_t, _) = TcgnnSddmm::from_translated(t)
            .execute(&mut launcher(), &g, &x, &x)
            .unwrap();
        let (out_c, _) = CudaCoreSddmm.execute(&mut launcher(), &g, &x, &x).unwrap();
        for (w, &wb) in mask.iter().enumerate() {
            let e_lo = g.node_pointer()[w * TC_BLK_H];
            let e_hi = g.node_pointer()[((w + 1) * TC_BLK_H).min(g.num_nodes())];
            let want = match wb {
                WindowBackend::Tcu => &out_t,
                WindowBackend::CudaCore => &out_c,
                WindowBackend::Skip => unreachable!("no window is skipped"),
            };
            assert_eq!(&out_h[e_lo..e_hi], &want[e_lo..e_hi], "window {w} ({wb:?})");
        }
    }

    #[test]
    fn rejects_wrong_mask_length() {
        let g = gen::erdos_renyi(128, 1000, 17).unwrap();
        let x = init::uniform(128, 16, -1.0, 1.0, 19);
        let k = HybridSddmm::new(&g).with_mask(vec![WindowBackend::Tcu; 1]);
        assert!(k.execute(&mut launcher(), &g, &x, &x).is_err());
    }
}
