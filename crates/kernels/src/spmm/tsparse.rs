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
//! Each program is one block row of the shared tiled body
//! (`spmm::tiling`), which walks the block row's non-empty tiles.

use tcg_gpusim::{KernelReport, Launcher};
use tcg_tensor::DenseMatrix;

use crate::common::{SpmmKernel, SpmmProblem, TcgError};
use crate::spmm::tiling::{grid, launch_tiled, tile_x_rows, Tiled, Tiling, BLK};

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
        let (edges, tiling) = (prob.csr.num_edges(), Tiling::new(prob.csr));
        let buf_meta = launcher.try_alloc(edges * 8)?;
        let buf_vals = launcher.try_alloc(edges * 4)?;
        let tiled = Tiled {
            name: self.name(),
            cfg: grid((BLK * BLK + 16 * BLK) * 4, 56),
            tiling: &tiling,
            k: BLK,
            dense_threshold: self.dense_threshold,
            per_slab: false,
            // Tile metadata traversal (the "sparse control" cost of §3.3):
            // tSparse keeps a per-tile descriptor (coordinates, nnz bitmap,
            // value offset) that must be fetched and decoded before the tile
            // can be routed to a compute path.
            descriptor: &|ctx, at| {
                ctx.ld_global_scalar(buf_meta.addr(at.tile.col_block as usize, 8));
                ctx.ld_global_contiguous(buf_meta.addr(at.tile.entries[0].2, 8), 2, 8);
                ctx.int_warp(32); // coordinate decode
                ctx.int_warp(32); // bitmap popcount / routing
                ctx.shared_access(1); // staged descriptor
            },
            // TCU path: the tile's packed values, staged dense.
            a_tile: &|_, at| {
                (
                    buf_vals.addr(at.tile.entries[0].2, 4),
                    at.tile.entries.len(),
                )
            },
            x_rows: &tile_x_rows,
            // tSparse's merge phase: per-tile partial results are
            // accumulated into global memory with atomics (the
            // SpGEMM-heritage design §6.2 criticizes).
            atomic_merge: true,
            padding: None,
        };
        launch_tiled(launcher, prob, tiled)
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
