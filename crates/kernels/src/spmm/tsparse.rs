//! tSparse-style hybrid tiling (Zachariadis et al.): 2D-tile the raw
//! adjacency, send nnz-rich tiles to tensor cores and nnz-poor tiles to
//! CUDA cores.
//!
//! The crucial difference from TC-GNN (§6.2): tSparse "only considers
//! partitioning the input sparse matrix into dense/sparse tiles based on
//! their non-zero elements but ignores the potential of compressing
//! non-zero elements into fewer tiles" — so on scattered graphs most tiles
//! carry a handful of non-zeros and the TCU tiles stay mostly empty.
//!
//! The block body only charges, on either path. The outputs come from the
//! CUDA-core row loop ([`super::cusparse`]'s `accumulate_rows`): each block
//! row computes its 16 rows, each row's edges in CSR order.

use tcg_gpusim::wmma::MMA_FLOPS;
use tcg_gpusim::{BlockCtx, GridConfig, KernelReport, Launcher};
use tcg_tensor::DenseMatrix;

use crate::common::{SpmmKernel, SpmmProblem, TcgError};
use crate::spmm::cusparse::launch_rows;
use crate::spmm::tiling::{block_row_tiles, num_block_rows};

/// Tile edge length.
const BLK: usize = 16;

/// tSparse-like hybrid SpMM.
#[derive(Debug, Clone)]
pub struct TsparseLikeSpmm {
    /// Tiles with at least this many non-zeros go to the tensor cores.
    pub dense_threshold: usize,
}

impl Default for TsparseLikeSpmm {
    fn default() -> Self {
        TsparseLikeSpmm { dense_threshold: 8 }
    }
}

impl SpmmKernel for TsparseLikeSpmm {
    fn name(&self) -> &'static str {
        "tsparse-like"
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

        let buf_meta = launcher.try_alloc(csr.num_edges() * 8)?;
        let buf_vals = launcher.try_alloc(csr.num_edges() * 4)?;
        let buf_x = launcher.try_alloc_f32(prob.x.len())?;
        let buf_out = launcher.try_alloc_f32(out.len())?;

        let slabs = d.div_ceil(16);
        let brs = num_block_rows(csr, BLK);
        let cfg = GridConfig {
            block_size: 128,
            shared_mem_bytes: (BLK * BLK + 16 * BLK) * 4,
            regs_per_thread: 56,
        };

        let body = |ctx: &mut BlockCtx<'_>| {
            let br = ctx.block_id as usize;
            let tiles = block_row_tiles(csr, br, BLK);
            if tiles.is_empty() {
                return;
            }
            let row_lo = br * BLK;
            let row_hi = (row_lo + BLK).min(n);

            for s in 0..slabs {
                let dim0 = s * 16;
                let width = (d - dim0).min(16);

                for tile in &tiles {
                    // Tile metadata traversal (the "sparse control" cost of
                    // §3.3): tSparse keeps a per-tile descriptor (coordinates,
                    // nnz bitmap, value offset) that must be fetched and
                    // decoded before the tile can be routed to a compute path.
                    ctx.ld_global_scalar(buf_meta.addr(tile.col_block as usize, 8));
                    ctx.ld_global_contiguous(
                        buf_meta.addr((tile.entries[0].2).min(csr.num_edges() - 1), 8),
                        2,
                        8,
                    );
                    ctx.int_warp(32); // coordinate decode
                    ctx.int_warp(32); // bitmap popcount / routing
                    ctx.shared_access(1); // staged descriptor

                    let col_base = tile.col_block as usize * BLK;
                    if tile.entries.len() >= self.dense_threshold {
                        // TCU path: stage the tile dense + X tile, 2 MMAs.
                        ctx.ld_global_contiguous(
                            buf_vals.addr(tile.entries[0].2, 4),
                            tile.entries.len(),
                            4,
                        );
                        ctx.shared_access(((BLK * BLK) as u64).div_ceil(32));
                        let bases: Vec<u64> = (0..BLK)
                            .map(|k| {
                                buf_x.f32_addr((col_base + k).min(n.saturating_sub(1)) * d + dim0)
                            })
                            .collect();
                        ctx.ld_global_gather_rows(&bases, width, 4);
                        ctx.shared_access(8);
                        ctx.tcu_mma(MMA_FLOPS);
                        ctx.tcu_mma(MMA_FLOPS);
                    } else {
                        // CUDA-core path: per-edge gather + FMA.
                        let bases: Vec<u64> = tile
                            .entries
                            .iter()
                            .map(|&(_, c, _)| buf_x.f32_addr((col_base + c as usize) * d + dim0))
                            .collect();
                        ctx.ld_global_gather_rows(&bases, width, 4);
                        ctx.fma_warps(((tile.entries.len() * width) as u64).div_ceil(32));
                    }

                    // tSparse's merge phase: per-tile partial results are
                    // accumulated into global memory with atomics (the
                    // SpGEMM-heritage design §6.2 criticizes).
                    let out_bases: Vec<u64> = (row_lo..row_hi)
                        .map(|r| buf_out.f32_addr(r * d + dim0))
                        .collect();
                    ctx.atomic_add_global(&out_bases);
                }

                let bases: Vec<u64> = (row_lo..row_hi)
                    .map(|r| buf_out.f32_addr(r * d + dim0))
                    .collect();
                ctx.st_global_gather_rows(&bases, width, 4);
            }
        };
        launcher.preflight("tsparse-like", &cfg)?;
        let first_row = |br: u64| (br as usize * BLK).min(n);
        let stats = launch_rows(launcher, cfg, brs as u64, body, prob, first_row, &mut out);
        let report = tcg_gpusim::cost::analyze(launcher.device(), &stats);
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{kernel_tolerance, reference_spmm};
    use crate::spmm::tcgnn::TcgnnSpmm;
    use tcg_graph::gen;
    use tcg_tensor::init;

    #[test]
    fn matches_reference() {
        let g = gen::rmat_default(512, 5000, 1).unwrap();
        let x = init::uniform(512, 16, -1.0, 1.0, 2);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (out, _) = TsparseLikeSpmm::default().execute(&mut l, &prob).unwrap();
        assert!(out.max_abs_diff(&reference_spmm(&prob)).unwrap() < kernel_tolerance(64, 16, 4.0));
    }

    #[test]
    fn dense_threshold_extremes_agree() {
        let g = gen::community(300, 3000, 16, 24, 3).unwrap();
        let x = init::uniform(300, 16, -1.0, 1.0, 4);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let all_tcu = TsparseLikeSpmm { dense_threshold: 0 };
        let all_cuda = TsparseLikeSpmm {
            dense_threshold: usize::MAX,
        };
        let mut l1 = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (o1, r1) = all_tcu.execute(&mut l1, &prob).unwrap();
        let mut l2 = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (o2, r2) = all_cuda.execute(&mut l2, &prob).unwrap();
        assert_eq!(o1.as_slice(), o2.as_slice());
        assert!(r1.stats.tcu_mma_instructions > 0);
        assert_eq!(r2.stats.tcu_mma_instructions, 0);
    }

    #[test]
    fn slower_than_tcgnn_on_scattered_graph() {
        // Table 5's ordering: TC-GNN ≫ tSparse on Type III graphs.
        let g = gen::rmat_default(8192, 80_000, 5).unwrap();
        let x = init::uniform(8192, 16, -1.0, 1.0, 6);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let mut l1 = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (_, r_ts) = TsparseLikeSpmm::default().execute(&mut l1, &prob).unwrap();
        let mut l2 = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (_, r_tc) = TcgnnSpmm::new(&g).execute(&mut l2, &prob).unwrap();
        assert!(
            r_ts.time_ms > r_tc.time_ms,
            "tSparse {} ms vs TC-GNN {} ms",
            r_ts.time_ms,
            r_tc.time_ms
        );
    }
}
