//! Per-edge SDDMM on CUDA cores — the DGL/cuSPARSE-class baseline.
//!
//! One warp per row: for each outgoing edge the warp loads the source row
//! (reused across the row's edges via L1) and the destination row
//! (scattered gather), multiplies element-wise and tree-reduces. This is
//! the "much more intensive computations and memory access" pattern the
//! paper says makes SDDMM especially sensitive to graph irregularity.

use std::ops::Range;

use tcg_gpusim::launch::Buffer;
use tcg_gpusim::{BlockCtx, Blocks, DisjointSlices, GridConfig, KernelReport, Launcher};
use tcg_graph::CsrGraph;
use tcg_tensor::DenseMatrix;

use crate::common::{row_dots, TcgError};
use crate::sddmm::SddmmKernel;

/// CUDA-core per-edge SDDMM.
#[derive(Debug, Clone, Default)]
pub struct CudaCoreSddmm;

/// Rows per thread block (4 warps × 1 row).
const ROWS_PER_BLOCK: usize = 4;

impl SddmmKernel for CudaCoreSddmm {
    fn name(&self) -> &'static str {
        "cuda-core-sddmm"
    }

    fn execute(
        &self,
        launcher: &mut Launcher,
        csr: &CsrGraph,
        xa: &DenseMatrix,
        xb: &DenseMatrix,
    ) -> Result<(Vec<f32>, KernelReport), TcgError> {
        check_features(csr, xa, xb)?;
        let n = csr.num_nodes();
        let mut out = vec![0.0f32; csr.num_edges()];

        let rows = CudaRows {
            csr,
            dim: xa.cols(),
            buf_ptr: launcher.try_alloc(csr.node_pointer().len() * 8)?,
            buf_edges: launcher.try_alloc(csr.num_edges() * 4)?,
            buf_xa: launcher.try_alloc_f32(xa.len())?,
            buf_xb: launcher.try_alloc_f32(xb.len())?,
            buf_out: launcher.try_alloc_f32(csr.num_edges())?,
        };

        let num_blocks = n.div_ceil(ROWS_PER_BLOCK) as u64;
        let cfg = GridConfig {
            block_size: (ROWS_PER_BLOCK * 32) as u32,
            shared_mem_bytes: 0,
            regs_per_thread: 40,
        };

        let block_rows = |block: u64| {
            let row0 = block as usize * ROWS_PER_BLOCK;
            row0..(row0 + ROWS_PER_BLOCK).min(n)
        };
        let body = |ctx: &mut BlockCtx<'_>| rows.run(ctx, block_rows(ctx.block_id));
        // Each block's rows own the contiguous edge range
        // [ptr[row0], ptr[row1]): disjoint output slices across blocks.
        let out_view = DisjointSlices::new(&mut out);
        let values = |block: u64| {
            let rows = block_rows(block);
            let (e0, e1) = (csr.node_pointer()[rows.start], csr.node_pointer()[rows.end]);
            // SAFETY: the block's rows own edges [e0, e1) exclusively.
            let out_rows = unsafe { out_view.range_mut(e0, e1 - e0) };
            dot_rows(csr, xa, xb, rows, out_rows)
        };
        launcher.preflight("cuda-core-sddmm", &cfg)?;
        let blocks = Blocks::All(num_blocks);
        let stats = launcher.launch(cfg, blocks, body, values);
        let report = tcg_gpusim::cost::analyze(launcher.device(), &stats);
        Ok((out, report))
    }
}

/// Rejects feature matrices that do not match the graph or each other.
pub(crate) fn check_features(
    csr: &CsrGraph,
    xa: &DenseMatrix,
    xb: &DenseMatrix,
) -> Result<(), TcgError> {
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
    Ok(())
}

/// The per-row warp body with the device buffers it reads and writes: the
/// CUDA-core body of this kernel and of the hybrid launch's CUDA-core
/// windows. It only charges.
#[derive(Clone, Copy)]
pub(crate) struct CudaRows<'a> {
    pub csr: &'a CsrGraph,
    /// Feature width of both operands.
    pub dim: usize,
    pub buf_ptr: Buffer,
    pub buf_edges: Buffer,
    pub buf_xa: Buffer,
    pub buf_xb: Buffer,
    pub buf_out: Buffer,
}

impl CudaRows<'_> {
    /// Charges one warp per row of `rows`.
    pub(crate) fn run(&self, ctx: &mut BlockCtx<'_>, rows: Range<usize>) {
        let (csr, d) = (self.csr, self.dim);
        let mut bases: Vec<u64> = Vec::with_capacity(64);
        for v in rows {
            let lo = csr.node_pointer()[v];
            let hi = csr.node_pointer()[v + 1];
            ctx.ld_global_scalar(self.buf_ptr.addr(v, 8));
            ctx.ld_global_scalar(self.buf_ptr.addr(v + 1, 8));
            if hi == lo {
                continue;
            }
            ctx.ld_global_contiguous(self.buf_edges.addr(lo, 4), hi - lo, 4);
            // Source row: loaded once, reused per edge via registers.
            ctx.ld_global_contiguous(self.buf_xa.f32_addr(v * d), d, 4);
            // Destination rows: scattered gather.
            bases.clear();
            bases.extend(
                csr.neighbors(v)
                    .iter()
                    .map(|&u| self.buf_xb.f32_addr(u as usize * d)),
            );
            ctx.ld_global_gather_rows(&bases, d, 4);
            // Multiply + warp tree reduction per edge: the dot product
            // needs log2(lanes) shuffle steps per edge, unavoidable in
            // the per-edge formulation.
            let deg = hi - lo;
            ctx.fma_warps(((deg * d) as u64).div_ceil(32));
            let shuffle_steps = (d.min(32) as f64).log2().ceil() as u64;
            ctx.fp32_warps(deg as u64 * shuffle_steps.max(1));
            // Scattered-ish store of edge values (contiguous per row).
            ctx.st_global_contiguous(self.buf_out.f32_addr(lo), deg, 4);
        }
    }
}

/// `xa[v]·xb[u]` for each edge `(v, u)` of `rows` into `out` (their CSR
/// edge range): f32 dot products from `+0.0`, `k` ascending. The loop
/// every launch computes its CUDA-core SDDMM rows with; each dot product
/// depends on its edge alone, so every grouping of rows yields the same
/// bits.
pub(crate) fn dot_rows(
    csr: &CsrGraph,
    xa: &DenseMatrix,
    xb: &DenseMatrix,
    rows: Range<usize>,
    out: &mut [f32],
) {
    let ptr = csr.node_pointer();
    let e_base = ptr[rows.start];
    for v in rows {
        let out_v = &mut out[ptr[v] - e_base..ptr[v + 1] - e_base];
        row_dots(xa.row(v), xb.as_slice(), csr.neighbors(v), false, out_v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::reference_sddmm;
    use tcg_graph::gen;
    use tcg_tensor::init;

    #[test]
    fn matches_reference() {
        let g = gen::rmat_default(400, 3500, 1).unwrap();
        let x = init::uniform(400, 24, -1.0, 1.0, 2);
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (vals, report) = CudaCoreSddmm.execute(&mut l, &g, &x, &x).unwrap();
        let reference = reference_sddmm(&g, &x, &x);
        for (a, b) in vals.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        assert_eq!(report.stats.tcu_flops, 0);
    }

    #[test]
    fn rejects_wrong_feature_rows() {
        let g = gen::erdos_renyi(50, 300, 3).unwrap();
        let x = init::uniform(49, 8, -1.0, 1.0, 4);
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        assert!(CudaCoreSddmm.execute(&mut l, &g, &x, &x).is_err());
    }
}
