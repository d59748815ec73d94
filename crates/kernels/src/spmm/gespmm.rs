//! GE-SpMM (Huang et al., SC'20): CUDA-core SpMM with coalesced row caching
//! and coarse-grained warp merging.
//!
//! Two improvements over the plain CSR-vector kernel: the row's column
//! indices are staged once into shared memory by a coalesced load and then
//! read from there by all lanes (Coalesced Row Caching), and each warp
//! processes two rows (Coarse-grained Warp Merging) to amortize index
//! loads and raise ILP. The dense-row gather remains irregular — GE-SpMM
//! improves over cuSPARSE but stays CUDA-core-bound, which is exactly
//! where the paper positions it (§3.1).
//!
//! The block body only charges; each block's 8 rows are computed by the
//! CUDA-core row loop ([`super::cusparse`]'s `accumulate_rows`), each row's
//! edges in CSR order.

use tcg_gpusim::{BlockCtx, GridConfig, KernelReport, Launcher};
use tcg_tensor::DenseMatrix;

use super::cusparse::launch_rows;
use crate::common::{SpmmKernel, SpmmProblem, TcgError};

/// GE-SpMM-style kernel: row caching + warp merging.
#[derive(Debug, Clone, Default)]
pub struct GeSpmm;

/// Rows merged per warp.
const MERGE: usize = 2;
/// Warps per block.
const WARPS: usize = 4;
/// Rows per thread block.
const ROWS_PER_BLOCK: usize = MERGE * WARPS;

impl SpmmKernel for GeSpmm {
    fn name(&self) -> &'static str {
        "ge-spmm"
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

        let buf_ptr = launcher.try_alloc(csr.node_pointer().len() * 8)?;
        let buf_edges = launcher.try_alloc(csr.num_edges() * 4)?;
        let buf_vals = launcher.try_alloc(csr.num_edges() * 4)?;
        let buf_x = launcher.try_alloc_f32(prob.x.len())?;
        let buf_out = launcher.try_alloc_f32(out.len())?;

        let num_blocks = n.div_ceil(ROWS_PER_BLOCK) as u64;
        let cfg = GridConfig {
            block_size: (WARPS * 32) as u32,
            // Row cache: 32 column indices (+ values) per warp.
            shared_mem_bytes: WARPS * 32 * 8,
            regs_per_thread: 48,
        };

        let body = |ctx: &mut BlockCtx<'_>| {
            let row0 = ctx.block_id as usize * ROWS_PER_BLOCK;
            let row1 = (row0 + ROWS_PER_BLOCK).min(n);
            // Row pointers for the whole block: one coalesced load.
            ctx.ld_global_contiguous(buf_ptr.addr(row0, 8), row1 - row0 + 1, 8);
            let mut row_bases: Vec<u64> = Vec::with_capacity(64);
            for pair0 in (row0..row1).step_by(MERGE) {
                let pair1 = (pair0 + MERGE).min(row1);
                // Merged rows share index-staging instructions.
                for v in pair0..pair1 {
                    let lo = csr.node_pointer()[v];
                    let hi = csr.node_pointer()[v + 1];
                    if hi == lo {
                        continue;
                    }
                    // Coalesced Row Caching: indices through shared memory.
                    ctx.ld_global_contiguous(buf_edges.addr(lo, 4), hi - lo, 4);
                    ctx.shared_access(((hi - lo) as u64).div_ceil(32));
                    if prob.edge_values.is_some() {
                        ctx.ld_global_contiguous(buf_vals.addr(lo, 4), hi - lo, 4);
                    }
                    row_bases.clear();
                    row_bases.extend(
                        csr.neighbors(v)
                            .iter()
                            .map(|&u| buf_x.f32_addr(u as usize * d)),
                    );
                    ctx.ld_global_gather_rows(&row_bases, d, 4);
                    // Warp merging halves per-row FMA instruction overhead.
                    ctx.fma_warps(
                        (((hi - lo) * d) as u64)
                            .div_ceil((32 * MERGE) as u64)
                            .max(1),
                    );
                    ctx.st_global_contiguous(buf_out.f32_addr(v * d), d, 4);
                }
            }
        };
        launcher.preflight("ge-spmm", &cfg)?;
        let first_row = |block: u64| (block as usize * ROWS_PER_BLOCK).min(n);
        let stats = launch_rows(launcher, cfg, num_blocks, body, prob, first_row, &mut out);
        let report = tcg_gpusim::cost::analyze(launcher.device(), &stats);
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{kernel_tolerance, reference_spmm};
    use crate::spmm::cusparse::CusparseCsrSpmm;
    use tcg_graph::gen;
    use tcg_tensor::init;

    #[test]
    fn matches_reference() {
        let g = gen::citation(300, 2500, 1).unwrap();
        let x = init::uniform(300, 20, -1.0, 1.0, 2);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (out, _) = GeSpmm.execute(&mut l, &prob).unwrap();
        let reference = reference_spmm(&prob);
        assert!(out.max_abs_diff(&reference).unwrap() < kernel_tolerance(64, 20, 4.0));
    }

    #[test]
    fn fewer_instructions_than_cusparse() {
        let g = gen::rmat_default(4096, 40_000, 3).unwrap();
        let x = init::uniform(4096, 32, -1.0, 1.0, 4);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let mut l1 = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (_, r_ge) = GeSpmm.execute(&mut l1, &prob).unwrap();
        let mut l2 = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (_, r_cu) = CusparseCsrSpmm.execute(&mut l2, &prob).unwrap();
        assert!(
            r_ge.stats.warp_instructions < r_cu.stats.warp_instructions,
            "GE-SpMM {} vs cuSPARSE {}",
            r_ge.stats.warp_instructions,
            r_cu.stats.warp_instructions
        );
    }

    #[test]
    fn weighted_aggregation_correct() {
        let g = gen::erdos_renyi(200, 1500, 5).unwrap();
        let x = init::uniform(200, 16, -1.0, 1.0, 6);
        let vals: Vec<f32> = (0..g.num_edges()).map(|e| (e % 5) as f32 * 0.3).collect();
        let prob = SpmmProblem::new(&g, Some(&vals), &x).unwrap();
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (out, _) = GeSpmm.execute(&mut l, &prob).unwrap();
        assert!(out.max_abs_diff(&reference_spmm(&prob)).unwrap() < 1e-2);
    }
}
