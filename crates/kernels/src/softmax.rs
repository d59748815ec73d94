//! Sparse row-wise softmax over edge values — the glue between SDDMM and
//! weighted SpMM in attention GNNs (AGNN's `P = softmax(β · cos(x_u, x_v))`).
//!
//! A CUDA-core kernel: one warp per row performs the max / exp / sum / div
//! passes over the row's slice of the edge-value array. Memory-bound and
//! cheap relative to SDDMM/SpMM, but it is a real kernel launch in every
//! framework, so it participates in end-to-end timing.

use tcg_gpusim::{BlockCtx, Blocks, DisjointSlices, GridConfig, KernelReport, Launcher};
use tcg_graph::CsrGraph;

use crate::common::TcgError;

/// Applies row-wise softmax to `values` (aligned with `csr.edge_list()`),
/// returning the normalized values and the simulated report.
pub fn sparse_row_softmax(
    launcher: &mut Launcher,
    csr: &CsrGraph,
    values: &[f32],
) -> Result<(Vec<f32>, KernelReport), TcgError> {
    if values.len() != csr.num_edges() {
        return Err(TcgError::DimMismatch {
            what: "edge values vs edges",
            expected: csr.num_edges(),
            actual: values.len(),
        });
    }
    let n = csr.num_nodes();
    let mut out = values.to_vec();

    let buf_ptr = launcher.try_alloc(csr.node_pointer().len() * 8)?;
    let buf_vals = launcher.try_alloc(csr.num_edges() * 4)?;

    const ROWS_PER_BLOCK: usize = 4;
    let cfg = GridConfig {
        block_size: (ROWS_PER_BLOCK * 32) as u32,
        shared_mem_bytes: 0,
        regs_per_thread: 28,
    };
    let body = |ctx: &mut BlockCtx<'_>| {
        let row0 = ctx.block_id as usize * ROWS_PER_BLOCK;
        let row1 = (row0 + ROWS_PER_BLOCK).min(n);
        for v in row0..row1 {
            let lo = csr.node_pointer()[v];
            let hi = csr.node_pointer()[v + 1];
            ctx.ld_global_scalar(buf_ptr.addr(v, 8));
            ctx.ld_global_scalar(buf_ptr.addr(v + 1, 8));
            if hi == lo {
                continue;
            }
            let deg = hi - lo;
            // Pass 1: load + max; pass 2: exp + sum; pass 3: divide + store.
            ctx.ld_global_contiguous(buf_vals.addr(lo, 4), deg, 4);
            ctx.fp32_warp(deg.min(32) as u32); // max reduction
            ctx.fp32_warp(deg.min(32) as u32); // exp (SFU, 1 op charged)
            ctx.fp32_warp(deg.min(32) as u32); // sum reduction
            ctx.fp32_warp(deg.min(32) as u32); // divide
            ctx.st_global_contiguous(buf_vals.addr(lo, 4), deg, 4);
        }
    };
    // A block's rows cover the contiguous edge range
    // [ptr[row0], ptr[row1]): disjoint output slices across blocks.
    let out_view = DisjointSlices::new(&mut out);
    let values = |block: u64| {
        let row0 = block as usize * ROWS_PER_BLOCK;
        let row1 = (row0 + ROWS_PER_BLOCK).min(n);
        for v in row0..row1 {
            let (lo, hi) = (csr.node_pointer()[v], csr.node_pointer()[v + 1]);
            // SAFETY: row `v` belongs to this block alone; its edge slice
            // does not overlap any other block's.
            softmax_row(unsafe { out_view.range_mut(lo, hi - lo) });
        }
    };
    launcher.preflight("edge-softmax", &cfg)?;
    let blocks = Blocks::All(n.div_ceil(ROWS_PER_BLOCK) as u64);
    let stats = launcher.launch(cfg, blocks, body, values);
    let report = tcg_gpusim::cost::analyze(launcher.device(), &stats);
    Ok((out, report))
}

/// Numerically stable softmax of one row's edge values, in place: the loop
/// the kernel computes each row with.
fn softmax_row(row: &mut [f32]) {
    let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in row.iter_mut() {
        *x = (*x - m).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcg_graph::gen;

    #[test]
    fn rows_sum_to_one() {
        let g = gen::rmat_default(300, 2500, 1).unwrap();
        let vals: Vec<f32> = (0..g.num_edges())
            .map(|e| (e % 13) as f32 * 0.3 - 1.0)
            .collect();
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (soft, report) = sparse_row_softmax(&mut l, &g, &vals).unwrap();
        for v in 0..g.num_nodes() {
            let lo = g.node_pointer()[v];
            let hi = g.node_pointer()[v + 1];
            if hi > lo {
                let s: f32 = soft[lo..hi].iter().sum();
                assert!((s - 1.0).abs() < 1e-5, "row {v} sums to {s}");
                assert!(soft[lo..hi].iter().all(|&x| x >= 0.0));
            }
        }
        assert!(report.time_ms > 0.0);
    }

    #[test]
    fn matches_dense_softmax_per_row() {
        let g = gen::erdos_renyi(50, 400, 2).unwrap();
        let vals: Vec<f32> = (0..g.num_edges()).map(|e| (e as f32).sin()).collect();
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (soft, _) = sparse_row_softmax(&mut l, &g, &vals).unwrap();
        for v in 0..g.num_nodes() {
            let lo = g.node_pointer()[v];
            let hi = g.node_pointer()[v + 1];
            if hi == lo {
                continue;
            }
            let m = vals[lo..hi]
                .iter()
                .cloned()
                .fold(f32::NEG_INFINITY, f32::max);
            let denom: f32 = vals[lo..hi].iter().map(|&x| (x - m).exp()).sum();
            for e in lo..hi {
                let expect = (vals[e] - m).exp() / denom;
                assert!((soft[e] - expect).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn shift_invariance() {
        let g = gen::erdos_renyi(60, 500, 3).unwrap();
        let vals: Vec<f32> = (0..g.num_edges()).map(|e| (e % 7) as f32).collect();
        let shifted: Vec<f32> = vals.iter().map(|v| v + 50.0).collect();
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (a, _) = sparse_row_softmax(&mut l, &g, &vals).unwrap();
        let (b, _) = sparse_row_softmax(&mut l, &g, &shifted).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn rejects_wrong_length() {
        let g = gen::erdos_renyi(20, 100, 4).unwrap();
        let vals = vec![0.0; g.num_edges() + 1];
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        assert!(sparse_row_softmax(&mut l, &g, &vals).is_err());
    }
}
