//! Scalar CSR SpMM — the cuSPARSE-class generic kernel behind DGL.
//!
//! cuSPARSE's generic `csrmm` assigns one *thread* per matrix row (256
//! threads per block, `ceil(N/256)` blocks), each walking its row's
//! neighbor list and accumulating across the dense columns in 16-byte
//! register tiles. On GNN graphs this exhibits all three pathologies the
//! paper's §3.1 profiling reports:
//!
//! - **small grids** — Cora launches ~11 blocks on an 82-SM device, so
//!   achieved occupancy collapses (Table 1's ~15%);
//! - **warp divergence** — lanes process 32 *different* rows in lockstep,
//!   so every warp runs as long as its highest-degree row;
//! - **scattered access** — each lane gathers its own row of `X`, giving a
//!   different sector per lane per instruction (Table 1's ~37% hit rate
//!   comes only from consecutive 16 B granules sharing a 32 B sector).

use std::ops::Range;

use tcg_gpusim::launch::Buffer;
use tcg_gpusim::{
    BlockCtx, Blocks, DisjointSlices, GridConfig, KernelReport, KernelStats, Launcher,
};
use tcg_tensor::DenseMatrix;

use crate::common::{axpy, SpmmKernel, SpmmProblem, TcgError};

/// cuSPARSE-style scalar CSR SpMM (thread per row).
#[derive(Debug, Clone, Default)]
pub struct CusparseCsrSpmm;

/// Threads (rows) per block.
const ROWS_PER_BLOCK: usize = 256;
/// Dense columns processed per register tile (float4 granule).
const COLS_PER_TILE: usize = 4;

impl SpmmKernel for CusparseCsrSpmm {
    fn name(&self) -> &'static str {
        "cusparse-csr"
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
        let rows = CudaRows {
            prob,
            buf_edges: launcher.try_alloc(csr.num_edges() * 4)?,
            buf_vals: launcher.try_alloc(csr.num_edges() * 4)?,
            buf_x: launcher.try_alloc_f32(prob.x.len())?,
            buf_out: launcher.try_alloc_f32(out.len())?,
        };

        let num_blocks = n.div_ceil(ROWS_PER_BLOCK) as u64;
        let cfg = GridConfig {
            block_size: ROWS_PER_BLOCK as u32,
            shared_mem_bytes: 0,
            regs_per_thread: 64,
        };

        let body = |ctx: &mut BlockCtx<'_>| {
            let row0 = ctx.block_id as usize * ROWS_PER_BLOCK;
            let row1 = (row0 + ROWS_PER_BLOCK).min(n);
            // Row pointers: coalesced across the block's threads.
            ctx.ld_global_contiguous(buf_ptr.addr(row0, 8), row1 - row0 + 1, 8);

            // Warp by warp: 32 consecutive rows in lockstep.
            for w0 in (row0..row1).step_by(32) {
                rows.run(ctx, w0..(w0 + 32).min(row1));
            }
        };
        launcher.preflight("cusparse-csr", &cfg)?;
        let first_row = |block: u64| (block as usize * ROWS_PER_BLOCK).min(n);
        let stats = launch_rows(launcher, cfg, num_blocks, body, prob, first_row, &mut out);
        let report = tcg_gpusim::cost::analyze(launcher.device(), &stats);
        Ok((out, report))
    }
}

/// Launches `body` over blocks `0..num_blocks` with [`accumulate_rows`] as
/// the per-block loop: block `b` computes output rows
/// `first_row(b)..first_row(b + 1)` of `out`. The loop of every kernel
/// whose blocks each own a run of output rows; `first_row` must not
/// decrease, so no two blocks share a row.
pub(crate) fn launch_rows(
    launcher: &mut Launcher,
    cfg: GridConfig,
    num_blocks: u64,
    body: impl Fn(&mut BlockCtx<'_>) + Sync,
    prob: &SpmmProblem<'_>,
    first_row: impl Fn(u64) -> usize + Sync,
    out: &mut DenseMatrix,
) -> KernelStats {
    assert!(
        (0..num_blocks).all(|b| first_row(b) <= first_row(b + 1))
            && first_row(num_blocks) <= out.rows(),
        "block row ranges must ascend within the output"
    );
    let d = prob.dim();
    let out_view = DisjointSlices::new(out.as_mut_slice());
    let values = |block: u64| {
        let rows = first_row(block)..first_row(block + 1);
        // SAFETY: the ranges ascend, so block `block` alone owns `rows`.
        let out_rows = unsafe { out_view.range_mut(rows.start * d, rows.len() * d) };
        accumulate_rows(prob, rows, out_rows)
    };
    launcher.launch(cfg, Blocks::All(num_blocks), body, values)
}

/// One lockstep group of thread-per-row lanes (≤ 32 rows) with the device
/// buffers it reads and writes: the CUDA-core body of this kernel and of
/// the hybrid launch's CUDA-core windows. It only charges.
#[derive(Clone, Copy)]
pub(crate) struct CudaRows<'a> {
    pub prob: &'a SpmmProblem<'a>,
    pub buf_edges: Buffer,
    pub buf_vals: Buffer,
    pub buf_x: Buffer,
    pub buf_out: Buffer,
}

impl CudaRows<'_> {
    /// Charges a lockstep walk of `rows`. The group runs as long as its
    /// highest-degree row, so a smaller group pays less divergence.
    pub(crate) fn run(&self, ctx: &mut BlockCtx<'_>, rows: Range<usize>) {
        let prob = self.prob;
        let csr = prob.csr;
        let d = prob.dim();
        let dim_tiles = d.div_ceil(COLS_PER_TILE);
        let mut addrs: Vec<u64> = Vec::with_capacity(32);
        let max_deg = rows.clone().map(|v| csr.degree(v)).max().unwrap_or(0);
        for it in 0..max_deg {
            // The lanes whose row still has an `it`-th neighbor.
            let active = || rows.clone().filter(|&v| it < csr.degree(v));
            // Edge-id load: each active lane reads its row's next
            // neighbor — scattered positions in edgeList.
            addrs.clear();
            addrs.extend(active().map(|v| self.buf_edges.addr(csr.node_pointer()[v] + it, 4)));
            if addrs.is_empty() {
                continue;
            }
            ctx.ld_global_warp(&addrs);
            if prob.edge_values.is_some() {
                addrs.clear();
                addrs.extend(active().map(|v| self.buf_vals.addr(csr.node_pointer()[v] + it, 4)));
                ctx.ld_global_warp(&addrs);
            }
            // X gathers: per 4-column tile, each lane fetches 16 B
            // of its own neighbor's row.
            for dt in 0..dim_tiles {
                addrs.clear();
                addrs.extend(active().map(|v| {
                    let u = csr.neighbors(v)[it] as usize;
                    self.buf_x.f32_addr(u * d + dt * COLS_PER_TILE)
                }));
                ctx.ld_global_warp(&addrs);
                ctx.fma_warp(32);
            }
        }
        // Output stores: 16 B granules per lane per tile.
        for dt in 0..dim_tiles {
            addrs.clear();
            addrs.extend(
                rows.clone()
                    .map(|v| self.buf_out.f32_addr(v * d + dt * COLS_PER_TILE)),
            );
            ctx.st_global_warp(&addrs);
        }
    }
}

/// Adds `(F ⊙ A)·X` over `rows` into `out_rows` (zeroed on entry): each
/// row's edges in CSR order, in f32, a separate multiply and add. The loop
/// every launch computes its CUDA-core SpMM rows with; it depends on no
/// grouping of the rows, so every grouping yields the same bits.
pub(crate) fn accumulate_rows(prob: &SpmmProblem<'_>, rows: Range<usize>, out_rows: &mut [f32]) {
    let csr = prob.csr;
    let d = prob.dim();
    for v in rows.clone() {
        let lo = csr.node_pointer()[v];
        let orow = &mut out_rows[(v - rows.start) * d..(v - rows.start + 1) * d];
        for (i, &u) in csr.neighbors(v).iter().enumerate() {
            axpy(orow, prob.value(lo + i), prob.x.row(u as usize));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{kernel_tolerance, reference_spmm};
    use tcg_graph::gen;
    use tcg_tensor::init;

    #[test]
    fn matches_reference_unweighted() {
        let g = gen::rmat_default(256, 2500, 1).unwrap();
        let x = init::uniform(256, 24, -1.0, 1.0, 2);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (out, report) = CusparseCsrSpmm.execute(&mut l, &prob).unwrap();
        let reference = reference_spmm(&prob);
        let tol = kernel_tolerance(64, 24, 4.0);
        assert!(out.max_abs_diff(&reference).unwrap() < tol);
        assert!(report.time_ms > 0.0);
        assert!(report.stats.fp32_flops > 0);
        assert_eq!(report.stats.tcu_flops, 0, "pure CUDA-core kernel");
    }

    #[test]
    fn matches_reference_weighted() {
        let g = gen::erdos_renyi(128, 1200, 3).unwrap();
        let x = init::uniform(128, 16, -1.0, 1.0, 4);
        let vals: Vec<f32> = (0..g.num_edges()).map(|e| 0.1 + (e % 7) as f32).collect();
        let prob = SpmmProblem::new(&g, Some(&vals), &x).unwrap();
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (out, _) = CusparseCsrSpmm.execute(&mut l, &prob).unwrap();
        let reference = reference_spmm(&prob);
        assert!(out.max_abs_diff(&reference).unwrap() < 1e-2);
    }

    #[test]
    fn small_graph_has_low_occupancy() {
        // The Table 1 phenomenon: a Cora-sized launch cannot fill the SMs.
        let g = gen::citation(2708, 10858, 5).unwrap();
        let x = init::uniform(2708, 64, -1.0, 1.0, 6);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (_, report) = CusparseCsrSpmm.execute(&mut l, &prob).unwrap();
        assert!(
            report.occupancy < 0.25,
            "expected low occupancy, got {:.2}",
            report.occupancy
        );
    }

    #[test]
    fn cache_hit_rate_is_mediocre_on_irregular_graph() {
        let g = gen::rmat_default(8192, 80_000, 5).unwrap();
        let x = init::uniform(8192, 32, -1.0, 1.0, 6);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (_, report) = CusparseCsrSpmm.execute(&mut l, &prob).unwrap();
        assert!(
            (0.2..0.7).contains(&report.l1_hit_rate),
            "expected mediocre locality, got {:.2}",
            report.l1_hit_rate
        );
    }

    #[test]
    fn divergence_costs_show_on_skewed_graphs() {
        // Same nnz, one skewed one regular: the skewed graph must issue
        // more instructions (warps run at their max row degree).
        let skewed = gen::rmat_default(4096, 40_000, 7).unwrap();
        let regular = gen::watts_strogatz(4096, 10, 0.1, 7).unwrap();
        let x = init::uniform(4096, 16, -1.0, 1.0, 8);
        let run = |g: &tcg_graph::CsrGraph| {
            let prob = SpmmProblem::new(g, None, &x).unwrap();
            let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
            CusparseCsrSpmm.execute(&mut l, &prob).unwrap().1
        };
        let r_skew = run(&skewed);
        let r_reg = run(&regular);
        let per_edge_skew = r_skew.stats.warp_instructions as f64 / skewed.num_edges() as f64;
        let per_edge_reg = r_reg.stats.warp_instructions as f64 / regular.num_edges() as f64;
        assert!(
            per_edge_skew > 1.5 * per_edge_reg,
            "skewed {per_edge_skew:.2} vs regular {per_edge_reg:.2} instructions/edge"
        );
    }

    #[test]
    fn handles_isolated_nodes() {
        let g = tcg_graph::CsrGraph::from_raw(64, vec![0; 65], vec![]).unwrap();
        let x = init::uniform(64, 8, -1.0, 1.0, 7);
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (out, _) = CusparseCsrSpmm.execute(&mut l, &prob).unwrap();
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }
}
