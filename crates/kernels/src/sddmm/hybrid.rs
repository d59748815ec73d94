//! Hybrid TCU/CUDA-core SDDMM: one launch, per-row-window dispatch.
//!
//! The SDDMM twin of [`crate::spmm::hybrid::HybridSpmm`]. A window's edges
//! are the contiguous CSR range `[ptr[row_lo], ptr[row_hi])`, so per-window
//! routing keeps output slices disjoint on both paths:
//!
//! - **TCU windows** replay [`super::tcgnn::TcgnnSddmm`]'s fused 16×16
//!   block body verbatim (same staging, MMA order, and dense-to-sparse
//!   scatter), so their edge values are bitwise the pure TCU kernel's.
//! - **CUDA-core windows** replay [`super::cuda_core::CudaCoreSddmm`]'s
//!   per-row warp body for the window's ≤16 rows. The pure kernel's dot
//!   products are computed row-at-a-time in CSR order — independent of how
//!   rows are grouped into blocks — so the window's edge values are bitwise
//!   the pure CUDA-core kernel's.
//!
//! An all-TCU mask allocates the same buffers in the same order and issues
//! the identical charge sequence as `TcgnnSddmm`; the CUDA-core path's
//! edge-id array is appended only when some window needs it.

use tcg_gpusim::wmma::{
    mma_sync, FragmentA, FragmentAcc, FragmentB, FRAG_A_SMEM_TRANSACTIONS,
    FRAG_B_SMEM_TRANSACTIONS, WMMA_K, WMMA_N,
};
use tcg_gpusim::{GridConfig, KernelReport, Launcher};
use tcg_graph::CsrGraph;
use tcg_sgt::{Sgt, TranslatedGraph, TC_BLK_H};
use tcg_tensor::DenseMatrix;

use crate::common::TcgError;
use crate::hybrid::{DispatchPolicy, KernelClass, WindowBackend};
use crate::sddmm::SddmmKernel;

/// The hybrid per-window SDDMM dispatcher.
#[derive(Debug, Clone)]
pub struct HybridSddmm {
    translated: TranslatedGraph,
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

    /// Builds the kernel from a pre-computed translation.
    pub fn from_translated(translated: TranslatedGraph) -> Self {
        HybridSddmm {
            translated,
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
        let t = &self.translated;
        if t.edge_to_col.len() != csr.num_edges() {
            return Err(TcgError::DimMismatch {
                what: "translation edge count vs graph",
                expected: csr.num_edges(),
                actual: t.edge_to_col.len(),
            });
        }
        if xa.rows() != csr.num_nodes() || xb.rows() != csr.num_nodes() {
            return Err(TcgError::DimMismatch {
                what: "feature rows vs graph nodes",
                expected: csr.num_nodes(),
                actual: xa.rows().min(xb.rows()),
            });
        }
        if xa.cols() != xb.cols() {
            return Err(TcgError::DimMismatch {
                what: "xa cols vs xb cols",
                expected: xa.cols(),
                actual: xb.cols(),
            });
        }
        let n = csr.num_nodes();
        let d = xa.cols();
        let mask = self.dispatch_mask(csr, d);
        if mask.len() != t.num_row_windows {
            return Err(TcgError::DimMismatch {
                what: "dispatch mask length vs row windows",
                expected: t.num_row_windows,
                actual: mask.len(),
            });
        }
        let dim_iterations = d.div_ceil(WMMA_K);
        let mut out = vec![0.0f32; csr.num_edges()];

        // TcgnnSddmm's buffers in its exact order; the CUDA-core edge-id
        // array only when some window dispatches there.
        let buf_ptr = launcher.try_alloc(csr.node_pointer().len() * 8)?;
        let buf_pack = launcher.try_alloc(csr.num_edges())?;
        let buf_atox = launcher.try_alloc(t.block_atox.len() * 4)?;
        let buf_porig = launcher.try_alloc(csr.num_edges() * 4)?;
        let buf_xa = launcher.try_alloc_f32(xa.len())?;
        let buf_xb = launcher.try_alloc_f32(xb.len())?;
        let buf_out = launcher.try_alloc_f32(csr.num_edges())?;
        let any_cuda = mask.contains(&WindowBackend::CudaCore);
        let buf_edges = if any_cuda {
            Some(launcher.try_alloc(csr.num_edges() * 4)?)
        } else {
            None
        };

        let smem_bytes = (TC_BLK_H * TC_BLK_H + TC_BLK_H) * 4 + 2 * (TC_BLK_H * WMMA_K) * 4;
        let cfg = GridConfig {
            block_size: 128,
            shared_mem_bytes: smem_bytes,
            regs_per_thread: 72,
        };

        const SDDMM_W: usize = TC_BLK_H;

        // Window edges are the contiguous range [ptr[row_lo], ptr[row_hi])
        // on both paths: disjoint output slices either way.
        let out_slices = tcg_gpusim::DisjointSlices::new(&mut out);

        launcher.preflight("hybrid-sddmm", &cfg)?;
        let stats = launcher.launch_par(cfg, t.num_row_windows as u64, |ctx| {
            let w = ctx.block_id as usize;
            let row_lo = w * TC_BLK_H;
            let row_hi = (row_lo + TC_BLK_H).min(n);

            if mask[w] == WindowBackend::CudaCore {
                // --- CUDA-core window: CudaCoreSddmm's per-row body scoped
                // to rows [row_lo, row_hi) ---------------------------------
                let buf_edges = buf_edges.as_ref().expect("cuda window implies edge buffer");
                let mut bases: Vec<u64> = Vec::with_capacity(64);
                let e_lo = csr.node_pointer()[row_lo];
                let e_hi = csr.node_pointer()[row_hi];
                // SAFETY: window `w` owns the edge range [e_lo, e_hi).
                let out_win = if e_hi > e_lo {
                    unsafe { out_slices.range_mut(e_lo, e_hi - e_lo) }
                } else {
                    &mut []
                };
                for v in row_lo..row_hi {
                    let lo = csr.node_pointer()[v];
                    let hi = csr.node_pointer()[v + 1];
                    ctx.ld_global_scalar(buf_ptr.addr(v, 8));
                    ctx.ld_global_scalar(buf_ptr.addr(v + 1, 8));
                    if hi == lo {
                        continue;
                    }
                    ctx.ld_global_contiguous(buf_edges.addr(lo, 4), hi - lo, 4);
                    ctx.ld_global_contiguous(buf_xa.f32_addr(v * d), d, 4);
                    bases.clear();
                    bases.extend(
                        csr.neighbors(v)
                            .iter()
                            .map(|&u| buf_xb.f32_addr(u as usize * d)),
                    );
                    ctx.ld_global_gather_rows(&bases, d, 4);
                    let deg = hi - lo;
                    ctx.fma_warps(((deg * d) as u64).div_ceil(32));
                    let shuffle_steps = (d.min(32) as f64).log2().ceil() as u64;
                    ctx.fp32_warps(deg as u64 * shuffle_steps.max(1));
                    ctx.st_global_contiguous(buf_out.f32_addr(lo), deg, 4);

                    let xrow = xa.row(v);
                    let orow = &mut out_win[lo - e_lo..hi - e_lo];
                    for (i, &u) in csr.neighbors(v).iter().enumerate() {
                        let urow = xb.row(u as usize);
                        let mut s = 0.0f32;
                        for (a, b) in xrow.iter().zip(urow) {
                            s += a * b;
                        }
                        orow[i] = s;
                    }
                }
                return;
            }

            // --- TCU window: TcgnnSddmm's window body, verbatim -----------
            let num_tc_blocks = (t.win_partition[w] as usize * t.blk_w).div_ceil(SDDMM_W);
            if num_tc_blocks == 0 {
                return;
            }
            ctx.ld_global_scalar(buf_ptr.addr(row_lo, 8));
            ctx.ld_global_scalar(buf_ptr.addr(row_hi, 8));
            let b_lo = t.win_block_start[w];
            let b_hi = t.win_block_start[w + 1];

            let mut edge_map = vec![usize::MAX; TC_BLK_H * SDDMM_W];
            let mut atox = [u32::MAX; SDDMM_W];
            let mut a_tile = vec![0.0f32; TC_BLK_H * WMMA_K];
            let mut b_tile = vec![0.0f32; WMMA_K * WMMA_N];
            let mut store_addrs: Vec<u64> = Vec::with_capacity(64);
            let mut row_bases: Vec<u64> = Vec::with_capacity(TC_BLK_H);
            let mut fa = FragmentA::default();
            let mut fb = FragmentB::default();
            let e_lo = csr.node_pointer()[row_lo];
            let e_hi = csr.node_pointer()[row_hi];
            // SAFETY: window `w` owns the edge range [e_lo, e_hi) exclusively.
            let out_win = unsafe { out_slices.range_mut(e_lo, e_hi - e_lo) };

            for i in 0..num_tc_blocks {
                let cb_lo = b_lo + 2 * i;
                let cb_hi = (cb_lo + 2).min(b_hi);
                let c_lo = t.block_ptr[cb_lo];
                let c_hi = t.block_ptr[cb_hi];
                let chunk = c_hi - c_lo;
                ctx.ld_global_contiguous(buf_pack.addr(c_lo, 1), chunk, 1);
                ctx.ld_global_contiguous(buf_porig.addr(c_lo, 4), chunk, 4);
                ctx.ld_global_contiguous(
                    buf_atox.addr(t.block_atox_ptr[cb_lo], 4),
                    t.block_atox_ptr[cb_hi] - t.block_atox_ptr[cb_lo],
                    4,
                );
                edge_map.iter_mut().for_each(|v| *v = usize::MAX);
                atox.iter_mut().for_each(|v| *v = u32::MAX);
                let nnz_blk = chunk as u64;
                for (half, cb) in (cb_lo..cb_hi).enumerate() {
                    let (h_lo, h_hi) = t.block_chunk(cb);
                    for pos in h_lo..h_hi {
                        let (r, c8) = t.unpack(t.perm_pack[pos]);
                        let c = c8 + half * t.blk_w;
                        edge_map[r * SDDMM_W + c] = t.perm_orig[pos] as usize;
                    }
                    for (c8, &nid) in t.block_atox(cb).iter().enumerate() {
                        if nid != u32::MAX {
                            atox[c8 + half * t.blk_w] = nid;
                        }
                    }
                }
                ctx.shared_access(((TC_BLK_H * SDDMM_W) as u64).div_ceil(32));
                ctx.shared_access(nnz_blk.div_ceil(32).max(1));
                ctx.shared_access(1);

                let mut acc = FragmentAcc::default();
                for di in 0..dim_iterations {
                    let dim0 = di * WMMA_K;
                    let kw = (d - dim0).min(WMMA_K);

                    row_bases.clear();
                    row_bases.extend((row_lo..row_hi).map(|r| buf_xa.f32_addr(r * d + dim0)));
                    ctx.ld_global_gather_rows(&row_bases, kw, 4);
                    ctx.shared_access(((TC_BLK_H * WMMA_K) as u64).div_ceil(32));
                    a_tile.iter_mut().for_each(|v| *v = 0.0);
                    for (ri, r) in (row_lo..row_hi).enumerate() {
                        let xr = xa.row(r);
                        for k in 0..kw {
                            a_tile[ri * WMMA_K + k] = xr[dim0 + k];
                        }
                    }

                    row_bases.clear();
                    row_bases.extend(
                        atox.iter()
                            .filter(|&&u| u != u32::MAX)
                            .map(|&u| buf_xb.f32_addr(u as usize * d + dim0)),
                    );
                    ctx.ld_global_gather_rows(&row_bases, kw, 4);
                    ctx.shared_access(((WMMA_K * TC_BLK_H) as u64).div_ceil(32));
                    b_tile.iter_mut().for_each(|v| *v = 0.0);
                    for (c, &u) in atox.iter().enumerate() {
                        if u == u32::MAX {
                            continue;
                        }
                        let yr = xb.row(u as usize);
                        for k in 0..kw {
                            b_tile[k * WMMA_N + c] = yr[dim0 + k];
                        }
                    }

                    fa.load(&a_tile, WMMA_K);
                    fb.load(&b_tile, WMMA_N);
                    ctx.shared_access(FRAG_A_SMEM_TRANSACTIONS + FRAG_B_SMEM_TRANSACTIONS);
                    mma_sync(&mut acc, &fa, &fb, ctx);
                }

                store_addrs.clear();
                for r in 0..TC_BLK_H {
                    for c in 0..SDDMM_W {
                        let e = edge_map[r * SDDMM_W + c];
                        if e != usize::MAX {
                            out_win[e - e_lo] = acc.get(r, c);
                            store_addrs.push(buf_out.f32_addr(e));
                        }
                    }
                }
                for chunk in store_addrs.chunks(32) {
                    ctx.st_global_warp(chunk);
                }
            }
            ctx.syncthreads();
        });
        let report = tcg_gpusim::cost::analyze(launcher.device(), &stats);
        Ok((out, report))
    }
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
