//! Triton-style block-sparse GEMM baseline.
//!
//! Triton's block-sparse kernels target *neural-network feature-map*
//! sparsity: a static block mask over a modest matrix, every non-empty
//! block processed as a full dense tile on tensor cores via a precomputed
//! lookup table. Applied to a graph adjacency (§6.2 / Table 5) this
//! misfires twice: virtually all non-empty blocks hold a couple of
//! non-zeros (full MMA + full tile fetch for 1-2 useful values), and the
//! lookup table itself is streamed per block with no graph-aware staging —
//! which is why the paper measures Triton behind even tSparse.
//!
//! The program bodies only charge. The outputs come from the CUDA-core row
//! loop ([`super::cusparse`]'s `accumulate_rows`): the slab-0 program of
//! each block row computes its 16 rows, each row's edges in CSR order.

use tcg_gpusim::wmma::MMA_FLOPS;
use tcg_gpusim::{BlockCtx, GridConfig, KernelReport, Launcher};
use tcg_tensor::DenseMatrix;

use crate::common::{SpmmKernel, SpmmProblem, TcgError};
use crate::spmm::cusparse::launch_rows;
use crate::spmm::tiling::{block_row_tiles, num_block_rows, tile_counts};

/// Block edge length of the block-sparse layout.
const BLK: usize = 16;

/// Triton-like block-sparse SpMM: every non-empty block on the TCU.
#[derive(Debug, Clone, Default)]
pub struct TritonBlockSparseSpmm;

impl SpmmKernel for TritonBlockSparseSpmm {
    fn name(&self) -> &'static str {
        "triton-blocksparse"
    }

    fn execute(
        &self,
        launcher: &mut Launcher,
        prob: &SpmmProblem<'_>,
    ) -> Result<(DenseMatrix, KernelReport), TcgError> {
        let csr = prob.csr;
        let n = csr.num_nodes();
        let d = prob.dim();
        let mut out = DenseMatrix::zeros(n, d);

        // Block-sparse storage: dense values per non-empty block + LUT.
        let buf_lut = launcher.try_alloc(csr.num_edges() * 16)?;
        let buf_blocks = launcher.try_alloc(csr.num_edges() * BLK * BLK * 4)?; // upper bound
        let buf_x = launcher.try_alloc_f32(prob.x.len())?;
        let buf_out = launcher.try_alloc_f32(out.len())?;

        let slabs = d.div_ceil(16);
        let brs = num_block_rows(csr, BLK);
        let cfg = GridConfig {
            block_size: 128,
            shared_mem_bytes: 2 * (BLK * BLK) * 4,
            regs_per_thread: 80,
        };

        // Programs stream the LUT in launch order: program (br, s) starts
        // at the entry after every tile of the programs before it.
        let first_entry: Vec<usize> = tile_counts(csr, BLK)
            .iter()
            .scan(0, |seen, &c| {
                let first = *seen;
                *seen += slabs * c;
                Some(first)
            })
            .collect();
        let body = |ctx: &mut BlockCtx<'_>| {
            // Triton launches one program per (block-row, output slab).
            let pid = ctx.block_id as usize;
            let br = pid / slabs;
            let s = pid % slabs;
            let tiles = block_row_tiles(csr, br, BLK);
            if tiles.is_empty() {
                return;
            }
            let row_lo = br * BLK;
            let row_hi = (row_lo + BLK).min(n);
            let dim0 = s * 16;
            let width = (d - dim0).min(16);
            let lut = first_entry[br] + s * tiles.len();
            for (entry, tile) in (lut..).zip(&tiles) {
                // LUT entry: block coordinates + value offset (streamed,
                // no reuse across programs).
                ctx.ld_global_contiguous(buf_lut.addr(entry % csr.num_edges(), 16), 4, 4);
                // Full dense 16×16 block of A from global memory.
                ctx.ld_global_contiguous(
                    buf_blocks.addr((tile.entries[0].2 % csr.num_edges()) * BLK * BLK, 4),
                    BLK * BLK,
                    4,
                );
                ctx.shared_access(((BLK * BLK) as u64).div_ceil(32));
                // Full X tile, fetched from global for this program alone.
                let col_base = tile.col_block as usize * BLK;
                let bases: Vec<u64> = (0..BLK)
                    .map(|k| buf_x.f32_addr((col_base + k).min(n.saturating_sub(1)) * d + dim0))
                    .collect();
                ctx.ld_global_gather_rows(&bases, width, 4);
                ctx.shared_access(8);
                // 16×16 A tile = two k8 MMAs.
                ctx.tcu_mma(MMA_FLOPS);
                ctx.tcu_mma(MMA_FLOPS);
            }

            let bases: Vec<u64> = (row_lo..row_hi)
                .map(|r| buf_out.f32_addr(r * d + dim0))
                .collect();
            ctx.st_global_gather_rows(&bases, width, 4);
        };
        launcher.preflight("triton-blocksparse", &cfg)?;
        let first_row = |pid: u64| {
            let (br, s) = (pid as usize / slabs.max(1), pid as usize % slabs.max(1));
            (if s == 0 { br * BLK } else { (br + 1) * BLK }).min(n)
        };
        let num_programs = (brs * slabs) as u64;
        let stats = launch_rows(launcher, cfg, num_programs, body, prob, first_row, &mut out);
        let report = tcg_gpusim::cost::analyze(launcher.device(), &stats);
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{kernel_tolerance, reference_spmm};
    use crate::spmm::tsparse::TsparseLikeSpmm;
    use tcg_graph::gen;
    use tcg_tensor::init;

    #[test]
    fn matches_reference() {
        let g = gen::rmat_default(512, 5000, 1).unwrap();
        let x = init::uniform(512, 32, -1.0, 1.0, 2);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (out, report) = TritonBlockSparseSpmm.execute(&mut l, &prob).unwrap();
        assert!(out.max_abs_diff(&reference_spmm(&prob)).unwrap() < kernel_tolerance(64, 32, 4.0));
        assert!(report.stats.tcu_mma_instructions > 0);
    }

    #[test]
    fn weighted_matches_reference() {
        let g = gen::erdos_renyi(200, 1500, 3).unwrap();
        let x = init::uniform(200, 16, -1.0, 1.0, 4);
        let vals: Vec<f32> = (0..g.num_edges()).map(|e| 1.0 + (e % 2) as f32).collect();
        let prob = SpmmProblem::new(&g, Some(&vals), &x).unwrap();
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (out, _) = TritonBlockSparseSpmm.execute(&mut l, &prob).unwrap();
        assert!(out.max_abs_diff(&reference_spmm(&prob)).unwrap() < kernel_tolerance(64, 16, 8.0));
    }

    #[test]
    fn slower_than_tsparse_on_scattered_graph() {
        // Table 5's ordering: Triton trails tSparse on Type III graphs.
        let g = gen::rmat_default(8192, 80_000, 5).unwrap();
        let x = init::uniform(8192, 16, -1.0, 1.0, 6);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let mut l1 = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (_, r_tr) = TritonBlockSparseSpmm.execute(&mut l1, &prob).unwrap();
        let mut l2 = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (_, r_ts) = TsparseLikeSpmm::default().execute(&mut l2, &prob).unwrap();
        assert!(
            r_tr.time_ms > r_ts.time_ms,
            "Triton {} ms vs tSparse {} ms",
            r_tr.time_ms,
            r_ts.time_ms
        );
    }
}
