//! Hybrid TCU/CUDA-core SpMM: one launch, per-row-window dispatch.
//!
//! Every SGT row window is routed by [`DispatchPolicy`] (or a forced mask)
//! to either the TC-GNN tensor-core formulation or a cuSPARSE-style scalar
//! walk scoped to the window's rows, inside a *single* kernel launch. Each
//! window's body replays the chosen pure kernel's charges and functional
//! arithmetic exactly:
//!
//! - **TCU windows** run [`super::tcgnn::TcgnnSpmm`]'s window body verbatim
//!   (same staging, same MMA order, same stores), so their output slab is
//!   bitwise identical to the pure TCU kernel's.
//! - **CUDA-core windows** run [`super::cusparse::CusparseCsrSpmm`]'s
//!   lockstep row walk restricted to the window's ≤16 rows. The pure
//!   kernel's functional accumulation is *per row in CSR edge order* —
//!   independent of how rows are grouped into blocks — so the window's rows
//!   are bitwise identical to the pure CUDA-core kernel's, while the
//!   divergence charge shrinks (a 16-row lockstep group's max degree is
//!   bounded by the 32-row group's that contains it).
//!
//! With an all-TCU mask the launch allocates the same buffers in the same
//! order and issues the identical charge sequence as `TcgnnSpmm`, so its
//! cost report matches the pure kernel's exactly — the bench gate's
//! "hybrid never loses to the best single backend" anchor.

use tcg_gpusim::hotspot::{self, HotPhase};
use tcg_gpusim::wmma::{
    mma_sync, FragmentA, FragmentAcc, FragmentB, FRAG_ACC_TRANSACTIONS, FRAG_A_SMEM_TRANSACTIONS,
    FRAG_B_SMEM_TRANSACTIONS, WMMA_N,
};
use tcg_gpusim::{GridConfig, KernelReport, Launcher};
use tcg_graph::CsrGraph;
use tcg_sgt::{Sgt, TranslatedGraph, TC_BLK_H, TC_BLK_W};
use tcg_tensor::DenseMatrix;

use crate::common::{SpmmKernel, SpmmProblem, TcgError};
use crate::hybrid::{DispatchPolicy, WindowBackend};

/// Dense columns per register tile on the CUDA-core path (matches
/// `CusparseCsrSpmm`).
const COLS_PER_TILE: usize = 4;

/// The hybrid per-window SpMM dispatcher.
#[derive(Debug, Clone)]
pub struct HybridSpmm {
    translated: TranslatedGraph,
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

    /// Builds the kernel from a pre-computed translation.
    pub fn from_translated(translated: TranslatedGraph) -> Self {
        HybridSpmm {
            translated,
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
        match &self.forced_mask {
            Some(m) => m.clone(),
            None => self.policy.mask(&self.translated, csr, dim),
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
        let csr = prob.csr;
        let t = &self.translated;
        if t.edge_to_col.len() != csr.num_edges() {
            return Err(TcgError::DimMismatch {
                what: "translation edge count vs graph",
                expected: csr.num_edges(),
                actual: t.edge_to_col.len(),
            });
        }
        let n = csr.num_nodes();
        let d = prob.dim();
        let mask = self.dispatch_mask(csr, d);
        if mask.len() != t.num_row_windows {
            return Err(TcgError::DimMismatch {
                what: "dispatch mask length vs row windows",
                expected: t.num_row_windows,
                actual: mask.len(),
            });
        }
        let slabs = d.div_ceil(WMMA_N);
        let warps = slabs.clamp(4, 8);
        let mut out = DenseMatrix::zeros(n, d);

        // Buffer layout mirrors TcgnnSpmm exactly; the CUDA-core path's
        // edge-id array is appended only when some window needs it, so an
        // all-TCU mask reproduces the pure kernel's address space (and
        // therefore its cache behavior and cost report) bit for bit.
        let buf_ptr = launcher.try_alloc(csr.node_pointer().len() * 8)?;
        let buf_pack = launcher.try_alloc(csr.num_edges())?;
        let buf_atox = launcher.try_alloc(t.block_atox.len() * 4)?;
        let buf_porig = launcher.try_alloc(csr.num_edges() * 4)?;
        let buf_vals = launcher.try_alloc(csr.num_edges() * 4)?;
        let buf_x = launcher.try_alloc_f32(prob.x.len())?;
        let buf_out = launcher.try_alloc_f32(out.len())?;
        let any_cuda = mask.contains(&WindowBackend::CudaCore);
        let buf_edges = if any_cuda {
            Some(launcher.try_alloc(csr.num_edges() * 4)?)
        } else {
            None
        };

        let smem_bytes = TC_BLK_H * TC_BLK_W * 4 + TC_BLK_W * 4 + warps * TC_BLK_W * WMMA_N * 4;
        let cfg = GridConfig {
            block_size: (warps * 32) as u32,
            shared_mem_bytes: smem_bytes,
            regs_per_thread: 64,
        };

        let dim_tiles = d.div_ceil(COLS_PER_TILE);
        let num_windows = t.num_row_windows as u64;
        // Blocks write disjoint row-window slabs of `out` on both paths.
        let out_slices = tcg_gpusim::DisjointSlices::new(out.as_mut_slice());

        launcher.preflight("hybrid", &cfg)?;
        let stats = launcher.launch_par(cfg, num_windows, |ctx| {
            let w = ctx.block_id as usize;
            let row_lo = w * TC_BLK_H;
            let row_hi = (row_lo + TC_BLK_H).min(n);

            if mask[w] == WindowBackend::CudaCore {
                // --- CUDA-core window: CusparseCsrSpmm's lockstep walk
                // scoped to rows [row_lo, row_hi) --------------------------
                let e_lo = csr.node_pointer()[row_lo];
                let e_hi = csr.node_pointer()[row_hi];
                if e_hi == e_lo {
                    return;
                }
                let buf_edges = buf_edges.as_ref().expect("cuda window implies edge buffer");
                let mut addrs: Vec<u64> = Vec::with_capacity(32);
                // SAFETY: window `w` owns rows [row_lo, row_hi) exclusively.
                let out_rows = unsafe { out_slices.range_mut(row_lo * d, (row_hi - row_lo) * d) };
                ctx.ld_global_contiguous(buf_ptr.addr(row_lo, 8), row_hi - row_lo + 1, 8);

                // One lockstep group: the window's ≤16 rows.
                let max_deg = (row_lo..row_hi).map(|v| csr.degree(v)).max().unwrap_or(0);
                for it in 0..max_deg {
                    addrs.clear();
                    for v in row_lo..row_hi {
                        if it < csr.degree(v) {
                            addrs.push(buf_edges.addr(csr.node_pointer()[v] + it, 4));
                        }
                    }
                    if addrs.is_empty() {
                        continue;
                    }
                    ctx.ld_global_warp(&addrs);
                    if prob.edge_values.is_some() {
                        addrs.clear();
                        addrs.extend(
                            (row_lo..row_hi)
                                .filter(|&v| it < csr.degree(v))
                                .map(|v| buf_vals.addr(csr.node_pointer()[v] + it, 4)),
                        );
                        ctx.ld_global_warp(&addrs);
                    }
                    for dt in 0..dim_tiles {
                        addrs.clear();
                        for v in row_lo..row_hi {
                            if it < csr.degree(v) {
                                let u = csr.neighbors(v)[it] as usize;
                                addrs.push(buf_x.f32_addr(u * d + dt * COLS_PER_TILE));
                            }
                        }
                        ctx.ld_global_warp(&addrs);
                        ctx.fma_warp(32);
                    }
                }
                for dt in 0..dim_tiles {
                    addrs.clear();
                    for v in row_lo..row_hi {
                        addrs.push(buf_out.f32_addr(v * d + dt * COLS_PER_TILE));
                    }
                    ctx.st_global_warp(&addrs);
                }

                // Functional accumulation: identical to CusparseCsrSpmm's
                // per-row loop, so the window is bitwise the pure kernel's.
                for v in row_lo..row_hi {
                    let lo = csr.node_pointer()[v];
                    let orow = &mut out_rows[(v - row_lo) * d..(v - row_lo + 1) * d];
                    for (i, &u) in csr.neighbors(v).iter().enumerate() {
                        let wgt = prob.value(lo + i);
                        let xrow = prob.x.row(u as usize);
                        for (o, &xv) in orow.iter_mut().zip(xrow) {
                            *o += wgt * xv;
                        }
                    }
                }
                return;
            }

            // --- TCU window: TcgnnSpmm's window body, verbatim ------------
            let num_tc_blocks = t.win_partition[w] as usize;
            if num_tc_blocks == 0 {
                return;
            }
            ctx.ld_global_scalar(buf_ptr.addr(row_lo, 8));
            ctx.ld_global_scalar(buf_ptr.addr(row_hi, 8));

            let mut a_tile = vec![0.0f32; TC_BLK_H * TC_BLK_W];
            let mut atox: Vec<u32> = vec![u32::MAX; TC_BLK_W];
            let mut b_tile = vec![0.0f32; TC_BLK_W * WMMA_N];
            let mut accs: Vec<FragmentAcc> = (0..slabs).map(|_| FragmentAcc::default()).collect();
            let mut row_bases: Vec<u64> = Vec::with_capacity(TC_BLK_W);
            let mut slab_bases: Vec<u64> = Vec::with_capacity(TC_BLK_H);
            let mut addr_scratch: Vec<u64> = Vec::with_capacity(64);
            let mut fa = FragmentA::default();
            let mut fb = FragmentB::default();
            let mut win_nnz = 0u64;
            let mut win_cols = 0u64;
            // SAFETY: window `w` owns rows [row_lo, row_hi) exclusively.
            let out_win = unsafe { out_slices.range_mut(row_lo * d, (row_hi - row_lo) * d) };

            for i in 0..num_tc_blocks {
                let b = t.win_block_start[w] + i;
                let (c_lo, c_hi) = t.block_chunk(b);
                let chunk = c_hi - c_lo;
                ctx.ld_global_contiguous(buf_pack.addr(c_lo, 1), chunk, 1);
                let atox_ids = t.block_atox(b);
                ctx.ld_global_contiguous(buf_atox.addr(t.block_atox_ptr[b], 4), atox_ids.len(), 4);
                if prob.edge_values.is_some() {
                    ctx.ld_global_contiguous(buf_porig.addr(c_lo, 4), chunk, 4);
                    addr_scratch.clear();
                    addr_scratch.extend(
                        t.perm_orig[c_lo..c_hi]
                            .iter()
                            .map(|&e| buf_vals.f32_addr(e as usize)),
                    );
                    for wchunk in addr_scratch.chunks(32) {
                        ctx.ld_global_warp(wchunk);
                    }
                }

                {
                    let _t = hotspot::scope(HotPhase::Staging);
                    a_tile.iter_mut().for_each(|v| *v = 0.0);
                    atox.iter_mut().for_each(|v| *v = u32::MAX);
                    for pos in c_lo..c_hi {
                        let (r, c) = t.unpack(t.perm_pack[pos]);
                        a_tile[r * TC_BLK_W + c] = prob.value(t.perm_orig[pos] as usize);
                    }
                    for (c, &nid) in atox_ids.iter().enumerate() {
                        if nid != u32::MAX {
                            atox[c] = nid;
                        }
                    }
                }
                // The A fragment is the same for every dim slab: load it
                // once per TC block (each warp's load is still charged).
                fa.load(&a_tile, TC_BLK_W);
                let nnz_blk = chunk as u64;
                win_nnz += nnz_blk;
                ctx.shared_access(((TC_BLK_H * TC_BLK_W) as u64).div_ceil(32));
                ctx.shared_access(nnz_blk.div_ceil(32).max(1));
                ctx.shared_access(1);

                row_bases.clear();
                row_bases.extend(
                    atox.iter()
                        .filter(|&&u| u != u32::MAX)
                        .map(|&u| buf_x.f32_addr(u as usize * d)),
                );
                win_cols += row_bases.len() as u64;

                for (s, acc) in accs.iter_mut().enumerate() {
                    let dim0 = s * WMMA_N;
                    let width = (d - dim0).min(WMMA_N);
                    slab_bases.clear();
                    slab_bases.extend(row_bases.iter().map(|&b| b + (dim0 * 4) as u64));
                    ctx.ld_global_gather_rows(&slab_bases, width, 4);
                    ctx.shared_access(((TC_BLK_W * WMMA_N) as u64).div_ceil(32));

                    {
                        let _t = hotspot::scope(HotPhase::Staging);
                        b_tile.iter_mut().for_each(|v| *v = 0.0);
                        for (k, &u) in atox.iter().enumerate() {
                            if u == u32::MAX {
                                continue;
                            }
                            let xrow = prob.x.row(u as usize);
                            for c in 0..width {
                                b_tile[k * WMMA_N + c] = xrow[dim0 + c];
                            }
                        }
                    }

                    fb.load(&b_tile, WMMA_N);
                    ctx.shared_access(FRAG_A_SMEM_TRANSACTIONS + FRAG_B_SMEM_TRANSACTIONS);
                    mma_sync(acc, &fa, &fb, ctx);
                }
            }
            ctx.syncthreads();

            for (s, acc) in accs.iter().enumerate() {
                let dim0 = s * WMMA_N;
                let width = (d - dim0).min(WMMA_N);
                slab_bases.clear();
                slab_bases.extend((row_lo..row_hi).map(|r| buf_out.f32_addr(r * d + dim0)));
                ctx.st_global_gather_rows(&slab_bases, width, 4);
                ctx.shared_access(FRAG_ACC_TRANSACTIONS);
                for ri in 0..(row_hi - row_lo) {
                    let orow = &mut out_win[ri * d..(ri + 1) * d];
                    for c in 0..width {
                        orow[dim0 + c] = acc.get(ri, c);
                    }
                }
            }
            hotspot::annotate_window(win_nnz, win_cols);
        });
        let report = tcg_gpusim::cost::analyze(launcher.device(), &stats);
        Ok((out, report))
    }
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
            };
            assert_eq!(
                &out_h.as_slice()[lo..hi],
                &want.as_slice()[lo..hi],
                "window {w} ({wb:?})"
            );
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
