//! Edge-parallel scatter-add aggregation — the torch-scatter kernel class
//! behind PyTorch-Geometric.
//!
//! Work is distributed over *edges*: every (edge, dim) pair loads one source
//! element and atomically accumulates it into the destination row. Edges of
//! the same destination produce atomic conflicts — the "high-overhead atomic
//! operations for thread-level synchronization" the paper cites when
//! explaining PyG's inferior performance (§6.2, 1.76×/2.82× behind TC-GNN).
//!
//! The block body only charges. The outputs come from the CUDA-core row
//! loop ([`super::cusparse`]'s `accumulate_rows`): edge block `b` computes
//! the rows whose first edge lies in its 64-edge range.

use tcg_gpusim::{BlockCtx, GridConfig, KernelReport, Launcher};
use tcg_tensor::DenseMatrix;

use super::cusparse::launch_rows;
use crate::common::{SpmmKernel, SpmmProblem, TcgError};

/// PyG-style edge-parallel scatter-gather aggregation.
#[derive(Debug, Clone, Default)]
pub struct ScatterGatherSpmm;

/// Edges per thread block (256 threads, one (edge, dim-chunk) per lane).
const EDGES_PER_BLOCK: usize = 64;

impl SpmmKernel for ScatterGatherSpmm {
    fn name(&self) -> &'static str {
        "scatter-gather"
    }

    fn execute(
        &self,
        launcher: &mut Launcher,
        prob: &SpmmProblem<'_>,
    ) -> Result<(DenseMatrix, KernelReport), TcgError> {
        let csr = prob.csr;
        let n = csr.num_nodes();
        let d = prob.dim();
        let nnz = csr.num_edges();
        let mut out = DenseMatrix::zeros(n, d);

        let buf_src = launcher.try_alloc(nnz * 4)?; // COO source array
        let buf_dst = launcher.try_alloc(nnz * 4)?; // COO destination array
        let buf_vals = launcher.try_alloc(nnz * 4)?;
        let buf_x = launcher.try_alloc_f32(prob.x.len())?;
        let buf_out = launcher.try_alloc_f32(out.len())?;

        // Flatten CSR to COO once (what PyG stores anyway).
        let mut src: Vec<u32> = Vec::with_capacity(nnz);
        let mut dst: Vec<u32> = Vec::with_capacity(nnz);
        for (s, u) in csr.iter_edges() {
            dst.push(s); // aggregation writes into the source row
            src.push(u);
        }

        let num_blocks = (nnz.div_ceil(EDGES_PER_BLOCK) as u64).max(1);
        let cfg = GridConfig {
            block_size: 256,
            shared_mem_bytes: 0,
            regs_per_thread: 32,
        };

        let body = |ctx: &mut BlockCtx<'_>| {
            let e0 = ctx.block_id as usize * EDGES_PER_BLOCK;
            let e1 = (e0 + EDGES_PER_BLOCK).min(nnz);
            if e0 >= e1 {
                return;
            }
            // COO endpoint loads: coalesced.
            ctx.ld_global_contiguous(buf_src.addr(e0, 4), e1 - e0, 4);
            ctx.ld_global_contiguous(buf_dst.addr(e0, 4), e1 - e0, 4);
            if prob.edge_values.is_some() {
                ctx.ld_global_contiguous(buf_vals.addr(e0, 4), e1 - e0, 4);
            }
            // Gather source rows.
            let gather_bases: Vec<u64> = src[e0..e1]
                .iter()
                .map(|&u| buf_x.f32_addr(u as usize * d))
                .collect();
            ctx.ld_global_gather_rows(&gather_bases, d, 4);

            // Scatter with atomics: warps cover (edge, dim) lanes; lanes
            // aiming at the same (dst, dim) element serialize.
            let lanes_per_edge = d.min(32);
            let edges_per_warp = (32 / lanes_per_edge).max(1);
            let mut atomic_addrs: Vec<u64> = Vec::with_capacity(32);
            let mut e = e0;
            while e < e1 {
                let e_hi = (e + edges_per_warp).min(e1);
                atomic_addrs.clear();
                for &dv in &dst[e..e_hi] {
                    let base = dv as usize * d;
                    for dim in 0..lanes_per_edge {
                        atomic_addrs.push(buf_out.f32_addr(base + dim));
                    }
                }
                // One atomic instruction round per 32-lane group, replayed
                // ceil(d / 32) times for wide embeddings.
                let rounds = d.div_ceil(32).max(1);
                for _ in 0..rounds {
                    ctx.atomic_add_global(&atomic_addrs);
                }
                ctx.fma_warps(((e_hi - e) * d).div_ceil(32) as u64);
                e = e_hi;
            }
        };
        launcher.preflight("scatter-gather", &cfg)?;
        // The atomics add each edge's term in edge order. The edges of a
        // row are consecutive in edge order, so each row accumulates them
        // in CSR order: the CUDA-core row loop's bits. Edge block `b`
        // computes the rows whose first edge lies in its edge range, a run
        // of rows that covers every row with an edge exactly once.
        let row_starts = &csr.node_pointer()[..n];
        let first_row =
            |block: u64| row_starts.partition_point(|&e| e < block as usize * EDGES_PER_BLOCK);
        let stats = launch_rows(launcher, cfg, num_blocks, body, prob, first_row, &mut out);
        let report = tcg_gpusim::cost::analyze(launcher.device(), &stats);
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{kernel_tolerance, reference_spmm};
    use crate::spmm::gespmm::GeSpmm;
    use tcg_graph::gen;
    use tcg_tensor::init;

    #[test]
    fn matches_reference() {
        let g = gen::rmat_default(512, 5000, 1).unwrap();
        let x = init::uniform(512, 16, -1.0, 1.0, 2);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (out, report) = ScatterGatherSpmm.execute(&mut l, &prob).unwrap();
        assert!(out.max_abs_diff(&reference_spmm(&prob)).unwrap() < kernel_tolerance(64, 16, 4.0));
        assert!(report.stats.atomic_ops > 0, "scatter must use atomics");
    }

    #[test]
    fn weighted_matches_reference() {
        let g = gen::erdos_renyi(128, 1000, 3).unwrap();
        let x = init::uniform(128, 8, -1.0, 1.0, 4);
        let vals: Vec<f32> = (0..g.num_edges()).map(|e| 1.0 + (e % 3) as f32).collect();
        let prob = SpmmProblem::new(&g, Some(&vals), &x).unwrap();
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (out, _) = ScatterGatherSpmm.execute(&mut l, &prob).unwrap();
        assert!(out.max_abs_diff(&reference_spmm(&prob)).unwrap() < 1e-2);
    }

    #[test]
    fn slower_than_tuned_row_parallel_kernel() {
        // Hub-heavy graph: scatter's atomics pile up on hub rows, so the
        // hand-tuned row-parallel kernel (GE-SpMM) wins at kernel level.
        let g = gen::rmat_default(4096, 60_000, 5).unwrap();
        let x = init::uniform(4096, 32, -1.0, 1.0, 6);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let mut l1 = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (_, r_scatter) = ScatterGatherSpmm.execute(&mut l1, &prob).unwrap();
        let mut l2 = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (_, r_ge) = GeSpmm.execute(&mut l2, &prob).unwrap();
        assert!(
            r_scatter.time_ms > r_ge.time_ms,
            "scatter {} ms should trail ge-spmm {} ms",
            r_scatter.time_ms,
            r_ge.time_ms
        );
    }
}
