//! TC-GNN edge-feature computation — Algorithm 3 / Listing 3 of the paper.
//!
//! Reuses the *same* SGT translation as SpMM. The sparse tile is now the
//! `16×16` **output** of the MMA (so two SpMM-width block columns fuse into
//! one SDDMM block, Listing 3 line 9), `sparse_A` stores *edge indices*
//! rather than values, and the kernel iterates along the embedding
//! dimension in `K = 8` slabs, accumulating `X · Yᵀ` before a final
//! dense-to-sparse conversion writes each edge's scalar back to
//! `edgeValList`.
//!
//! The body charges the full 16×16 tile's staging and MMAs and computes no
//! value. The outputs come from a plain loop over each row's edges,
//! `tcu_dot_rows`, in the MMAs' accumulation order, so they carry the bits
//! of the staged-tile loop `tcg_oracle::refmodel::tcu_sddmm`.
//!
//! The window body, `TcuWindow`, is the one the hybrid launch runs for
//! its TCU windows; this kernel is that launch under an all-TCU mask.

use std::ops::Range;
use std::sync::Arc;

use tcg_gpusim::launch::Buffer;
use tcg_gpusim::wmma::{mma_sync, FRAG_A_SMEM_TRANSACTIONS, FRAG_B_SMEM_TRANSACTIONS, WMMA_K};
use tcg_gpusim::{BlockCtx, KernelReport, Launcher};
use tcg_graph::CsrGraph;
use tcg_sgt::{Sgt, TranslatedGraph, TC_BLK_H};
use tcg_tensor::DenseMatrix;

use crate::common::{row_dots, TcgError};
use crate::hybrid::WindowBackend;
use crate::sddmm::SddmmKernel;

/// Condensed columns per SDDMM block: two SpMM-width chunks.
pub(crate) const SDDMM_W: usize = TC_BLK_H;

/// The TC-GNN SDDMM kernel, bound to a translated graph.
#[derive(Debug, Clone)]
pub struct TcgnnSddmm {
    translated: Arc<TranslatedGraph>,
}

impl TcgnnSddmm {
    /// Builds the kernel by running SGT on `csr`.
    pub fn new(csr: &CsrGraph) -> Self {
        Self::from_translated(
            Sgt::builder()
                .translate(csr)
                .expect("default SGT geometry is valid"),
        )
    }

    /// Builds the kernel from a pre-computed translation (shared with the
    /// SpMM kernel — SGT runs once per graph).
    pub fn from_translated(translated: impl Into<Arc<TranslatedGraph>>) -> Self {
        TcgnnSddmm {
            translated: translated.into(),
        }
    }

    /// The translation this kernel runs over.
    pub fn translated(&self) -> &TranslatedGraph {
        &self.translated
    }
}

impl SddmmKernel for TcgnnSddmm {
    fn name(&self) -> &'static str {
        "tc-gnn-sddmm"
    }

    fn execute(
        &self,
        launcher: &mut Launcher,
        csr: &CsrGraph,
        xa: &DenseMatrix,
        xb: &DenseMatrix,
    ) -> Result<(Vec<f32>, KernelReport), TcgError> {
        let t = &self.translated;
        let all_tcu = || vec![WindowBackend::Tcu; t.num_row_windows];
        super::hybrid::launch(launcher, csr, xa, xb, t, all_tcu, "tc-gnn-sddmm")
    }
}

/// The TCU row-window body of Listing 3, with the device buffers it reads
/// and writes (allocated by the launch). It only charges.
#[derive(Clone, Copy)]
pub(crate) struct TcuWindow<'a> {
    pub t: &'a TranslatedGraph,
    pub csr: &'a CsrGraph,
    /// Feature width of both operands.
    pub dim: usize,
    pub buf_ptr: Buffer,
    pub buf_pack: Buffer,
    pub buf_atox: Buffer,
    pub buf_porig: Buffer,
    pub buf_xa: Buffer,
    pub buf_xb: Buffer,
    pub buf_out: Buffer,
}

impl TcuWindow<'_> {
    /// Charges row window `w`. An empty window issues nothing.
    pub(crate) fn run(&self, ctx: &mut BlockCtx<'_>, w: usize) {
        let (t, csr, d) = (self.t, self.csr, self.dim);
        // Listing 3 line 9: SDDMM block count from the SpMM partition.
        let num_tc_blocks = (t.win_partition[w] as usize * t.blk_w).div_ceil(SDDMM_W);
        if num_tc_blocks == 0 {
            return;
        }
        let row_lo = w * TC_BLK_H;
        let row_hi = (row_lo + TC_BLK_H).min(csr.num_nodes());
        ctx.ld_global_scalar(self.buf_ptr.addr(row_lo, 8));
        ctx.ld_global_scalar(self.buf_ptr.addr(row_hi, 8));
        let b_lo = t.win_block_start[w];
        let b_hi = t.win_block_start[w + 1];

        // Per-block scratch (bodies run concurrently on the parallel
        // path, so nothing mutable is shared between blocks).
        let mut edge_map = vec![usize::MAX; TC_BLK_H * SDDMM_W];
        let mut atox = [u32::MAX; SDDMM_W];
        let mut store_addrs: Vec<u64> = Vec::with_capacity(64);
        let mut row_bases: Vec<u64> = Vec::with_capacity(TC_BLK_H);

        for i in 0..num_tc_blocks {
            // Stage sparse_A (edge-index map) + AToX for this 16-wide
            // condensed column frame: the frame fuses two SpMM-width
            // chunks, which are adjacent in the sorted permutation
            // (Algorithm 3's GetChunk over the reused translation).
            let cb_lo = b_lo + 2 * i;
            let cb_hi = (cb_lo + 2).min(b_hi);
            let c_lo = t.block_ptr[cb_lo];
            let c_hi = t.block_ptr[cb_hi];
            let chunk = c_hi - c_lo;
            // Packed coordinates (1 B/nnz), original edge ids (for the
            // sparse output scatter), and per-block AToX lists.
            ctx.ld_global_contiguous(self.buf_pack.addr(c_lo, 1), chunk, 1);
            ctx.ld_global_contiguous(self.buf_porig.addr(c_lo, 4), chunk, 4);
            ctx.ld_global_contiguous(
                self.buf_atox.addr(t.block_atox_ptr[cb_lo], 4),
                t.block_atox_ptr[cb_hi] - t.block_atox_ptr[cb_lo],
                4,
            );
            edge_map.fill(usize::MAX);
            for (half, cb) in (cb_lo..cb_hi).enumerate() {
                let (h_lo, h_hi) = t.block_chunk(cb);
                for pos in h_lo..h_hi {
                    let (r, c8) = t.unpack(t.perm_pack[pos]);
                    let c = c8 + half * t.blk_w;
                    edge_map[r * SDDMM_W + c] = t.perm_orig[pos] as usize;
                }
            }
            fill_frame_atox(&mut atox, t, cb_lo..cb_hi);
            ctx.shared_access(((TC_BLK_H * SDDMM_W) as u64).div_ceil(32));
            ctx.shared_access((chunk as u64).div_ceil(32).max(1));
            ctx.shared_access(1);
            for dim0 in (0..d).step_by(WMMA_K) {
                let kw = (d - dim0).min(WMMA_K);

                // dense_X: the window's own rows (contiguous block of X).
                row_bases.clear();
                row_bases.extend((row_lo..row_hi).map(|r| self.buf_xa.f32_addr(r * d + dim0)));
                ctx.ld_global_gather_rows(&row_bases, kw, 4);
                ctx.shared_access(((TC_BLK_H * WMMA_K) as u64).div_ceil(32));

                // dense_Y: the frame's condensed neighbors (gather).
                row_bases.clear();
                row_bases.extend(
                    atox.iter()
                        .filter(|&&u| u != u32::MAX)
                        .map(|&u| self.buf_xb.f32_addr(u as usize * d + dim0)),
                );
                ctx.ld_global_gather_rows(&row_bases, kw, 4);
                ctx.shared_access(((WMMA_K * TC_BLK_H) as u64).div_ceil(32));

                ctx.shared_access(FRAG_A_SMEM_TRANSACTIONS + FRAG_B_SMEM_TRANSACTIONS);
                mma_sync(ctx);
            }

            // Dense-to-sparse conversion: scatter the frame's edge
            // scalars, row-major over the tile.
            store_addrs.clear();
            store_addrs.extend(
                edge_map
                    .iter()
                    .filter(|&&e| e != usize::MAX)
                    .map(|&e| self.buf_out.f32_addr(e)),
            );
            for chunk in store_addrs.chunks(32) {
                ctx.st_global_warp(chunk);
            }
        }
        ctx.syncthreads();
    }
}

/// The outputs of a TCU window's `rows` for an SDDMM: the loop every
/// launch computes a TCU window with. Each edge `(v, u)` gets
/// `Σ_k xa_tf32[v][k] · xb_tf32[u][k]` in `out` (the rows' CSR edge
/// range), from `+0.0`, `k` ascending, a separate multiply and add: the
/// order in which the staged-tile MMAs accumulate an edge's entry.
///
/// The MMA skips zero elements of `xa`. The loop skips them only when
/// `xb_finite` is false: if every element of `xb_tf32` is finite, a zero
/// `xa` element times it is `±0`, and adding `±0` leaves a sum that is
/// never `−0` unchanged (a sum from `+0` is `−0` only when both addends
/// are), so dropping the test, whose branch mispredicts on ReLU'd
/// operands, keeps the bits.
pub(crate) fn tcu_dot_rows(
    csr: &CsrGraph,
    xa_tf32: &[f32],
    xb_tf32: &[f32],
    d: usize,
    xb_finite: bool,
    rows: Range<usize>,
    out: &mut [f32],
) {
    let ptr = csr.node_pointer();
    let e_base = ptr[rows.start];
    for v in rows {
        let out_v = &mut out[ptr[v] - e_base..ptr[v + 1] - e_base];
        let arow = &xa_tf32[v * d..][..d];
        row_dots(arow, xb_tf32, csr.neighbors(v), !xb_finite, out_v);
    }
}

/// The edge at entry `(0, 0)` of window `w`'s first frame, if the window's
/// first row has an edge to its first condensed column: the output an
/// armed ECC flip poisons when the window's first MMA consumes it. The
/// window must have a TC block.
pub(crate) fn first_entry_edge(t: &TranslatedGraph, w: usize) -> Option<usize> {
    let (lo, hi) = t.block_chunk(t.win_block_start[w]);
    let pos = (lo..hi).find(|&pos| t.unpack(t.perm_pack[pos]) == (0, 0))?;
    Some(t.perm_orig[pos] as usize)
}

/// Builds the 16-entry AToX of the frame fusing SpMM blocks `blocks` (one
/// or two): block `half`'s condensed column `c` lands at `c + half·8`.
pub(crate) fn fill_frame_atox(atox: &mut [u32], t: &TranslatedGraph, blocks: Range<usize>) {
    atox.fill(u32::MAX);
    for (half, cb) in blocks.enumerate() {
        for (c8, &nid) in t.block_atox(cb).iter().enumerate() {
            if nid != u32::MAX {
                atox[c8 + half * t.blk_w] = nid;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::reference_sddmm;
    use crate::sddmm::cuda_core::CudaCoreSddmm;
    use tcg_graph::gen;
    use tcg_tensor::init;

    fn check(g: &CsrGraph, x: &DenseMatrix, tol: f32) -> KernelReport {
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (vals, report) = TcgnnSddmm::new(g).execute(&mut l, g, x, x).unwrap();
        let reference = reference_sddmm(g, x, x);
        for (i, (a, b)) in vals.iter().zip(&reference).enumerate() {
            assert!((a - b).abs() < tol, "edge {i}: {a} vs {b}");
        }
        report
    }

    #[test]
    fn matches_reference_basic() {
        let g = gen::rmat_default(300, 2500, 1).unwrap();
        let x = init::uniform(300, 16, -1.0, 1.0, 2);
        let report = check(&g, &x, 0.05);
        assert!(report.stats.tcu_mma_instructions > 0);
    }

    #[test]
    fn matches_reference_non_multiple_dims() {
        // d = 13 exercises the ragged final K slab.
        let g = gen::citation(200, 1500, 3).unwrap();
        let x = init::uniform(200, 13, -1.0, 1.0, 4);
        check(&g, &x, 0.05);
    }

    #[test]
    fn matches_reference_wide_dims() {
        let g = gen::erdos_renyi(150, 1200, 5).unwrap();
        let x = init::uniform(150, 64, -1.0, 1.0, 6);
        check(&g, &x, 0.2);
    }

    #[test]
    fn mma_count_uses_fused_blocks() {
        let g = gen::rmat_default(1024, 8000, 7).unwrap();
        let x = init::uniform(1024, 32, -1.0, 1.0, 8);
        let kernel = TcgnnSddmm::new(&g);
        let expected = kernel.translated().total_sddmm_blocks() * (32 / WMMA_K) as u64;
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (_, report) = kernel.execute(&mut l, &g, &x, &x).unwrap();
        assert_eq!(report.stats.tcu_mma_instructions, expected);
    }

    #[test]
    fn faster_than_cuda_core_when_neighbors_are_shared() {
        // SGT condenses shared neighbors; dense intra-window communities are
        // where the TCU formulation pays off (the paper's Type II/III
        // datasets all have strong clustering).
        let g = gen::community(20_000, 400_000, 16, 48, 9).unwrap();
        let x = init::uniform(20_000, 32, -1.0, 1.0, 10);
        let mut l1 = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (_, r_tc) = TcgnnSddmm::new(&g).execute(&mut l1, &g, &x, &x).unwrap();
        let mut l2 = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (_, r_cc) = CudaCoreSddmm.execute(&mut l2, &g, &x, &x).unwrap();
        assert!(
            r_tc.time_ms < r_cc.time_ms,
            "TC-GNN SDDMM {} ms vs CUDA core {} ms",
            r_tc.time_ms,
            r_cc.time_ms
        );
    }

    #[test]
    fn competitive_with_cuda_core_on_scattered_graph() {
        // With little intra-window sharing the two formulations move similar
        // bytes; TC-GNN must at least not lose badly.
        let g = gen::rmat_default(8192, 80_000, 9).unwrap();
        let x = init::uniform(8192, 32, -1.0, 1.0, 10);
        let mut l1 = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (_, r_tc) = TcgnnSddmm::new(&g).execute(&mut l1, &g, &x, &x).unwrap();
        let mut l2 = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (_, r_cc) = CudaCoreSddmm.execute(&mut l2, &g, &x, &x).unwrap();
        assert!(r_tc.time_ms < 1.3 * r_cc.time_ms);
    }

    #[test]
    fn rejects_mismatched_inputs() {
        let g1 = gen::erdos_renyi(100, 800, 11).unwrap();
        let g2 = gen::erdos_renyi(100, 700, 12).unwrap();
        let x = init::uniform(100, 8, -1.0, 1.0, 13);
        let kernel = TcgnnSddmm::new(&g1);
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        assert!(kernel.execute(&mut l, &g2, &x, &x).is_err());
        let x_bad = init::uniform(99, 8, -1.0, 1.0, 14);
        assert!(kernel.execute(&mut l, &g1, &x_bad, &x_bad).is_err());
    }
}
