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
//! Each program is one block row × output slab of the shared tiled body
//! (`spmm::tiling`), which walks the block row's non-empty tiles.

use tcg_gpusim::{KernelReport, Launcher};
use tcg_tensor::DenseMatrix;

use crate::common::{SpmmKernel, SpmmProblem, TcgError};
use crate::spmm::tiling::{grid, launch_tiled, tile_x_rows, Tiled, Tiling, BLK};

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
        let (edges, tiling) = (prob.csr.num_edges(), Tiling::new(prob.csr));
        // Block-sparse storage: dense values per non-empty block + LUT.
        let buf_lut = launcher.try_alloc(edges * 16)?;
        let buf_blocks = launcher.try_alloc(edges * BLK * BLK * 4)?; // upper bound
        let slabs = prob.dim().div_ceil(BLK);
        let tiled = Tiled {
            name: self.name(),
            cfg: grid(2 * (BLK * BLK) * 4, 80),
            tiling: &tiling,
            k: BLK,
            dense_threshold: 0,
            per_slab: true,
            // LUT entry: block coordinates + value offset (streamed, no
            // reuse across programs). Programs stream the LUT in launch
            // order: program (br, s) starts at the entry after every tile of
            // the programs before it.
            descriptor: &|ctx, at| {
                let entry = slabs * tiling.ptr[at.br] + at.slab * tiling.row(at.br).0 + at.slot;
                ctx.ld_global_contiguous(buf_lut.addr(entry % edges, 16), 4, 4);
            },
            // Full dense 16×16 block of A from global memory.
            a_tile: &|_, at| {
                (
                    buf_blocks.addr(at.tile.entries[0].2 * BLK * BLK, 4),
                    BLK * BLK,
                )
            },
            x_rows: &tile_x_rows,
            atomic_merge: false,
            padding: None,
        };
        launch_tiled(launcher, prob, tiled)
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
