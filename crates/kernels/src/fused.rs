//! Fused attention pipeline: SDDMM → row softmax → weighted SpMM in one
//! kernel launch.
//!
//! An extension beyond the paper (its §5 pipelines the three stages as
//! separate kernels). The fusion is possible because SGT's row windows make
//! each thread block the owner of *all* edges of its 16 rows: the block can
//! compute the window's attention logits with the SDDMM tile loop, softmax
//! them entirely in shared memory (each row's edges are block-local), and
//! immediately run the weighted SpMM accumulation — no `edgeValList`
//! round-trips through global memory and two fewer kernel launches per
//! layer. Exactly the AGNN forward pipeline
//! `P = softmax(β·cos(x̂, x̂)); Y = P·X`.
//!
//! Stages 1 and 3 keep their own loops instead of calling the SDDMM and
//! SpMM window bodies, because their charges differ: stage 1 issues no
//! staging shared-memory traffic and 8 extra shared transactions per MMA,
//! and stage 3 loads no AToX or value permutation (both block-resident).
//! Sharing the bodies would make them branch on their caller; only the
//! frame AToX helper is shared. As in those bodies, the block body only
//! charges. The outputs come from the SDDMM and SpMM kernels' TCU loops
//! (`tcu_dot_rows`, `tcu_rows`) around the stage-2 softmax, per window.

use std::ops::Range;

use tcg_gpusim::wmma::{
    mma_sync, FRAG_A_SMEM_TRANSACTIONS, FRAG_B_SMEM_TRANSACTIONS, WMMA_K, WMMA_N,
};
use tcg_gpusim::{BlockCtx, Blocks, DisjointSlices, GridConfig, KernelReport, Launcher};
use tcg_graph::CsrGraph;
use tcg_sgt::{TranslatedGraph, TC_BLK_H, TC_BLK_W};
use tcg_tensor::DenseMatrix;

use crate::common::{
    all_finite, check_translation, check_windows, first_mma_window, tf32_operand, window_rows,
    TcgError,
};
use crate::sddmm::tcgnn::{fill_frame_atox, first_entry_edge, tcu_dot_rows, SDDMM_W};
use crate::spmm::tcgnn::tcu_rows;

/// Output of the fused attention kernel.
pub struct FusedAttentionOutput {
    /// Aggregated node features `Y = P·Xv`.
    pub y: DenseMatrix,
    /// Raw cosine logits per edge (needed by the backward pass).
    pub cos: Vec<f32>,
    /// Softmaxed attention values per edge.
    pub p: Vec<f32>,
    /// Simulated performance report (one launch).
    pub report: KernelReport,
}

/// Runs the fused pipeline: logits from `xa·xaᵀ` (SDDMM over edges), scale
/// by `beta`, row softmax, then `Y = P·xv` — one simulated kernel.
///
/// `xa` supplies the attention operands (AGNN passes the L2-normalized
/// features), `xv` the aggregated values (AGNN passes the raw features).
pub fn fused_attention(
    launcher: &mut Launcher,
    csr: &CsrGraph,
    t: &TranslatedGraph,
    xa: &DenseMatrix,
    xv: &DenseMatrix,
    beta: f32,
) -> Result<FusedAttentionOutput, TcgError> {
    fused_attention_windows(launcher, csr, t, xa, xv, beta, None)
}

/// [`fused_attention`] over only the row windows `windows` (ascending ids;
/// `None` is every window). Every other window launches no block and is
/// charged nothing; its rows of `y` and its edges of `cos` and `p` stay
/// zero. Window `w`'s outputs read only `xa` at its own rows and its
/// neighbors and `xv` at its neighbors.
pub fn fused_attention_windows(
    launcher: &mut Launcher,
    csr: &CsrGraph,
    t: &TranslatedGraph,
    xa: &DenseMatrix,
    xv: &DenseMatrix,
    beta: f32,
    windows: Option<&[u32]>,
) -> Result<FusedAttentionOutput, TcgError> {
    check_translation(t, csr)?;
    if let Some(ids) = windows {
        check_windows(t, ids)?;
    }
    if xa.rows() != csr.num_nodes() || xv.rows() != csr.num_nodes() {
        return Err(TcgError::DimMismatch {
            what: "feature rows vs graph nodes",
            expected: csr.num_nodes(),
            actual: xa.rows().min(xv.rows()),
        });
    }
    let n = csr.num_nodes();
    let da = xa.cols();
    let dv = xv.cols();
    let slabs = dv.div_ceil(WMMA_N);
    let mut y = DenseMatrix::zeros(n, dv);
    let mut cos = vec![0.0f32; csr.num_edges()];
    let mut p = vec![0.0f32; csr.num_edges()];
    let (xa_tf32, xv_tf32) = (tf32_operand(xa, true), tf32_operand(xv, true));
    let xa_finite = all_finite(&xa_tf32);

    let buf_ptr = launcher.try_alloc(csr.node_pointer().len() * 8)?;
    let buf_pack = launcher.try_alloc(csr.num_edges())?;
    let buf_atox = launcher.try_alloc(t.block_atox.len() * 4 + 4)?;
    let buf_porig = launcher.try_alloc(csr.num_edges() * 4)?;
    let buf_xa = launcher.try_alloc_f32(xa.len())?;
    let buf_xv = launcher.try_alloc_f32(xv.len())?;
    let buf_out = launcher.try_alloc_f32(y.len())?;
    let buf_cos = launcher.try_alloc_f32(csr.num_edges())?;
    let buf_p = launcher.try_alloc_f32(csr.num_edges())?;

    // Shared memory: the SDDMM staging of Listing 3 plus a window-local
    // edge-value buffer (the fusion's working set) and the SpMM dense_X.
    let warps = slabs.clamp(4, 8);
    let max_win_edges = (0..t.num_row_windows)
        .map(|w| {
            let (lo, hi) = t.window_edge_range(csr, w).expect("window in range");
            hi - lo
        })
        .max()
        .unwrap_or(0);
    let smem_bytes = (TC_BLK_H * TC_BLK_H + TC_BLK_H) * 4
        + 2 * (TC_BLK_H * WMMA_K) * 4
        + max_win_edges.min(4096) * 4
        + warps * TC_BLK_W * WMMA_N * 4;
    let cfg = GridConfig {
        block_size: (warps * 32) as u32,
        shared_mem_bytes: smem_bytes,
        regs_per_thread: 96,
    };
    let blocks = match windows {
        None => Blocks::All(t.num_row_windows as u64),
        Some(ids) => Blocks::Only(ids),
    };

    let body = |ctx: &mut BlockCtx<'_>| {
        let w = ctx.block_id as usize;
        let num_spmm_blocks = t.win_partition[w] as usize;
        if num_spmm_blocks == 0 {
            return;
        }
        let row_lo = w * TC_BLK_H;
        let row_hi = (row_lo + TC_BLK_H).min(n);
        ctx.ld_global_scalar(buf_ptr.addr(row_lo, 8));
        ctx.ld_global_scalar(buf_ptr.addr(row_hi, 8));
        let b_lo = t.win_block_start[w];
        let b_hi = t.win_block_start[w + 1];

        // Per-block scratch (bodies run concurrently on the parallel path,
        // so nothing mutable is captured from the outer scope).
        let mut atox = [u32::MAX; SDDMM_W];
        let mut bases: Vec<u64> = Vec::with_capacity(TC_BLK_H);
        let (e_lo, e_hi) = t.window_edge_range(csr, w).expect("window in range");

        // --- Stage 1: SDDMM over the window's edges (16-wide frames). ----
        let num_sddmm_blocks = (num_spmm_blocks * t.blk_w).div_ceil(TC_BLK_H);
        for i in 0..num_sddmm_blocks {
            let cb_lo = b_lo + 2 * i;
            let cb_hi = (cb_lo + 2).min(b_hi);
            let c_lo = t.block_ptr[cb_lo];
            let c_hi = t.block_ptr[cb_hi];
            ctx.ld_global_contiguous(buf_pack.addr(c_lo, 1), c_hi - c_lo, 1);
            ctx.ld_global_contiguous(buf_porig.addr(c_lo, 4), c_hi - c_lo, 4);
            ctx.ld_global_contiguous(
                buf_atox.addr(t.block_atox_ptr[cb_lo], 4),
                t.block_atox_ptr[cb_hi] - t.block_atox_ptr[cb_lo],
                4,
            );
            fill_frame_atox(&mut atox, t, cb_lo..cb_hi);
            for dim0 in (0..da).step_by(WMMA_K) {
                let kw = (da - dim0).min(WMMA_K);
                bases.clear();
                bases.extend((row_lo..row_hi).map(|r| buf_xa.f32_addr(r * da + dim0)));
                ctx.ld_global_gather_rows(&bases, kw, 4);
                bases.clear();
                bases.extend(
                    atox.iter()
                        .filter(|&&u| u != u32::MAX)
                        .map(|&u| buf_xa.f32_addr(u as usize * da + dim0)),
                );
                ctx.ld_global_gather_rows(&bases, kw, 4);
                ctx.shared_access(FRAG_A_SMEM_TRANSACTIONS + FRAG_B_SMEM_TRANSACTIONS + 8);
                mma_sync(ctx);
            }
            // Scatter logits into the window-local shared buffer (stays in
            // shared memory — the fusion's point; charged as shared traffic).
            ctx.shared_access(((c_hi - c_lo) as u64).div_ceil(32).max(1));
        }

        // --- Stage 2: row softmax, entirely in shared memory. ------------
        // max/exp-sum/divide passes over the window's edges.
        ctx.shared_access((((e_hi - e_lo) as u64) * 3).div_ceil(32).max(1));
        ctx.fp32_warps((((e_hi - e_lo) * 3) as u64).div_ceil(32).max(1));
        // The attention values are also persisted for the backward pass.
        ctx.st_global_contiguous(buf_p.f32_addr(e_lo), e_hi - e_lo, 4);
        ctx.st_global_contiguous(buf_cos.f32_addr(e_lo), e_hi - e_lo, 4);

        // --- Stage 3: weighted SpMM over the same translation. -----------
        for i in 0..num_spmm_blocks {
            let b = b_lo + i;
            let (c_lo, c_hi) = t.block_chunk(b);
            // pack/atox are already block-resident from stage 1 (L1 hits).
            ctx.ld_global_contiguous(buf_pack.addr(c_lo, 1), c_hi - c_lo, 1);
            let atox_ids = t.block_atox(b);
            // The A operand is the same for every dim slab: staged once per
            // TC block (each warp's load is still charged).
            ctx.shared_access(((TC_BLK_H * TC_BLK_W) as u64).div_ceil(32) + 1);
            for s in 0..slabs {
                let dim0 = s * WMMA_N;
                let width = (dv - dim0).min(WMMA_N);
                bases.clear();
                bases.extend(
                    atox_ids
                        .iter()
                        .filter(|&&u| u != u32::MAX)
                        .map(|&u| buf_xv.f32_addr(u as usize * dv + dim0)),
                );
                ctx.ld_global_gather_rows(&bases, width, 4);
                ctx.shared_access(((TC_BLK_W * WMMA_N) as u64).div_ceil(32));
                ctx.shared_access(FRAG_A_SMEM_TRANSACTIONS + FRAG_B_SMEM_TRANSACTIONS);
                mma_sync(ctx);
            }
        }
        ctx.syncthreads();
        for s in 0..slabs {
            let dim0 = s * WMMA_N;
            let width = (dv - dim0).min(WMMA_N);
            bases.clear();
            bases.extend((row_lo..row_hi).map(|r| buf_out.f32_addr(r * dv + dim0)));
            ctx.st_global_gather_rows(&bases, width, 4);
        }
    };
    // The three stages as plain loops over each window's rows, in the
    // MMAs' accumulation order (see `tcu_dot_rows` and `tcu_rows`). Each
    // window owns all edges and output rows of its rows, so the three
    // outputs split into disjoint per-window slices and the loop runs on
    // the parallel path.
    let ptr = csr.node_pointer();
    // Stages 2 and 3 of `rows` from their logits (`cos`, `p`: the rows'
    // edge range; `y`: their output rows, zeroed on entry).
    let attend = |rows: Range<usize>, cos: &[f32], p: &mut [f32], y: &mut [f32]| {
        let e_lo = ptr[rows.start];
        softmax_rows(csr, rows.clone(), beta, cos, p);
        tcu_rows(csr, |e| p[e - e_lo], &xv_tf32, dv, rows, y);
    };
    let (y_view, cos_view, p_view) = (
        DisjointSlices::new(y.as_mut_slice()),
        DisjointSlices::new(&mut cos),
        DisjointSlices::new(&mut p),
    );
    let values = |w: u64| {
        let rows = window_rows(w as usize, n);
        let (e_lo, e_hi) = (ptr[rows.start], ptr[rows.end]);
        // SAFETY: window `w` exclusively owns its rows and the edge range
        // [e_lo, e_hi).
        let (y_win, cos_win, p_win) = unsafe {
            (
                y_view.range_mut(rows.start * dv, rows.len() * dv),
                cos_view.range_mut(e_lo, e_hi - e_lo),
                p_view.range_mut(e_lo, e_hi - e_lo),
            )
        };
        tcu_dot_rows(
            csr,
            &xa_tf32,
            &xa_tf32,
            da,
            xa_finite,
            rows.clone(),
            cos_win,
        );
        attend(rows, cos_win, p_win, y_win);
    };
    launcher.preflight("fused-attention", &cfg)?;
    let stats = launcher.launch(cfg, blocks, body, values);
    if stats.ecc_faults > 0 {
        // The flip poisons accumulator element (0, 0) of the launch's first
        // MMA. With logits to compute, that is the first window's edge
        // logit at its first frame's entry (0, 0), if there is one, and the
        // NaN runs through its row's softmax and output; without, stage 3's
        // output row 0, column 0.
        let launched = (0..blocks.len()).map(|i| blocks.id(i) as usize);
        let w = first_mma_window(t, launched).expect("an MMA consumed the flip");
        let row = window_rows(w, n).start;
        if da == 0 {
            y.as_mut_slice()[row * dv] = f32::NAN;
        } else if let Some(e) = first_entry_edge(t, w) {
            cos[e] = f32::NAN;
            let edges = ptr[row]..ptr[row + 1];
            let y_row = y.row_mut(row);
            y_row.fill(0.0);
            attend(row..row + 1, &cos[edges.clone()], &mut p[edges], y_row);
        }
    }
    let report = tcg_gpusim::cost::analyze(launcher.device(), &stats);
    Ok(FusedAttentionOutput { y, cos, p, report })
}

/// Stage 2 over `rows`: each row's logits scaled by `beta` and softmaxed
/// in f32, in edge order. `cos` and `p` are the rows' CSR edge range.
fn softmax_rows(csr: &CsrGraph, rows: Range<usize>, beta: f32, cos: &[f32], p: &mut [f32]) {
    let ptr = csr.node_pointer();
    let e_base = ptr[rows.start];
    for r in rows {
        let (lo, hi) = (ptr[r] - e_base, ptr[r + 1] - e_base);
        if hi == lo {
            continue;
        }
        let m = cos[lo..hi]
            .iter()
            .map(|c| beta * c)
            .fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for e in lo..hi {
            p[e] = (beta * cos[e] - m).exp();
            sum += p[e];
        }
        for pe in &mut p[lo..hi] {
            *pe /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{reference_sddmm, reference_spmm, SpmmProblem};
    use tcg_graph::gen;
    use tcg_tensor::init;

    fn check(g: &CsrGraph, da: usize, dv: usize, beta: f32) -> FusedAttentionOutput {
        let t = tcg_sgt::Sgt::builder()
            .translate(g)
            .expect("default SGT geometry is valid");
        let xa = init::uniform(g.num_nodes(), da, -1.0, 1.0, 3);
        let xv = init::uniform(g.num_nodes(), dv, -1.0, 1.0, 4);
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let out = fused_attention(&mut l, g, &t, &xa, &xv, beta).unwrap();

        // Reference: unfused pipeline in f64-backed steps.
        let cos_ref = reference_sddmm(g, &xa, &xa);
        for (a, b) in out.cos.iter().zip(&cos_ref) {
            assert!((a - b).abs() < 0.05, "cos {a} vs {b}");
        }
        let mut p_ref = vec![0.0f32; g.num_edges()];
        for v in 0..g.num_nodes() {
            let (lo, hi) = (g.node_pointer()[v], g.node_pointer()[v + 1]);
            if hi == lo {
                continue;
            }
            let m = cos_ref[lo..hi]
                .iter()
                .map(|c| beta * c)
                .fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for (p, c) in p_ref[lo..hi].iter_mut().zip(&cos_ref[lo..hi]) {
                *p = (beta * c - m).exp();
                sum += *p;
            }
            for p in &mut p_ref[lo..hi] {
                *p /= sum;
            }
        }
        for (a, b) in out.p.iter().zip(&p_ref) {
            assert!((a - b).abs() < 0.03, "p {a} vs {b}");
        }
        let prob = SpmmProblem::new(g, Some(&p_ref), &xv).unwrap();
        let y_ref = reference_spmm(&prob);
        assert!(out.y.max_abs_diff(&y_ref).unwrap() < 0.05);
        out
    }

    #[test]
    fn fused_matches_unfused_pipeline() {
        let g = gen::citation(300, 2400, 1).unwrap();
        let out = check(&g, 16, 32, 0.8);
        assert!(out.report.stats.tcu_mma_instructions > 0);
    }

    #[test]
    fn fused_handles_ragged_dims() {
        let g = gen::erdos_renyi(150, 1200, 2).unwrap();
        check(&g, 13, 20, 1.5);
    }

    #[test]
    fn fused_is_one_launch_and_cheaper_than_three() {
        let g = gen::community(4096, 40_000, 16, 48, 5).unwrap();
        let t = tcg_sgt::Sgt::builder().translate(&g).unwrap();
        let xa = init::uniform(g.num_nodes(), 32, -1.0, 1.0, 6);
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let fused = fused_attention(&mut l, &g, &t, &xa, &xa, 1.0).unwrap();

        // Unfused: SDDMM + softmax + SpMM as separate launches.
        use crate::common::SpmmKernel;
        use crate::sddmm::{SddmmKernel, TcgnnSddmm};
        use crate::softmax::sparse_row_softmax;
        use crate::spmm::TcgnnSpmm;
        let mut l2 = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        let (cosv, r1) = TcgnnSddmm::from_translated(t.clone())
            .execute(&mut l2, &g, &xa, &xa)
            .unwrap();
        let (pv, r2) = sparse_row_softmax(&mut l2, &g, &cosv).unwrap();
        let prob = SpmmProblem::new(&g, Some(&pv), &xa).unwrap();
        let (_, r3) = TcgnnSpmm::from_translated(t)
            .execute(&mut l2, &prob)
            .unwrap();
        let unfused_ms = r1.time_ms + r2.time_ms + r3.time_ms;
        assert!(
            fused.report.time_ms < unfused_ms,
            "fused {} ms vs unfused {} ms",
            fused.report.time_ms,
            unfused_ms
        );
    }

    #[test]
    fn rejects_mismatched_inputs() {
        let g = gen::erdos_renyi(100, 800, 7).unwrap();
        let t = tcg_sgt::Sgt::builder().translate(&g).unwrap();
        let xa = init::uniform(99, 8, -1.0, 1.0, 8);
        let mut l = Launcher::new(tcg_gpusim::DeviceSpec::rtx3090());
        assert!(fused_attention(&mut l, &g, &t, &xa, &xa, 1.0).is_err());
    }
}
