//! Shared problem types, CPU references and the kernel trait.

use std::ops::Range;

use tcg_gpusim::{BlockCtx, Blocks, GridConfig, KernelReport, KernelStats, Launcher};
use tcg_graph::CsrGraph;
use tcg_sgt::{TranslatedGraph, TC_BLK_H, TC_BLK_W};
use tcg_tensor::tf32::round_to_tf32;
use tcg_tensor::DenseMatrix;

use crate::hybrid::WindowBackend;

pub use tcg_fault::TcgError;

/// One neighbor-aggregation problem instance: `X̂ = (F ⊙ A) · X`.
///
/// `edge_values` (the paper's **F**, aligned with `csr.edge_list()` order)
/// is `None` for plain adjacency aggregation (GCN-style with external
/// normalization) and `Some` for weighted aggregation (AGNN attention).
#[derive(Clone, Copy)]
pub struct SpmmProblem<'a> {
    /// Adjacency in CSR.
    pub csr: &'a CsrGraph,
    /// Optional per-edge multipliers aligned with `csr.edge_list()`.
    pub edge_values: Option<&'a [f32]>,
    /// Dense node matrix `N × D`.
    pub x: &'a DenseMatrix,
}

impl<'a> SpmmProblem<'a> {
    /// Creates a problem, validating dimensions.
    pub fn new(
        csr: &'a CsrGraph,
        edge_values: Option<&'a [f32]>,
        x: &'a DenseMatrix,
    ) -> Result<Self, TcgError> {
        if x.rows() != csr.num_nodes() {
            return Err(TcgError::DimMismatch {
                what: "x rows vs graph nodes",
                expected: csr.num_nodes(),
                actual: x.rows(),
            });
        }
        if let Some(v) = edge_values {
            if v.len() != csr.num_edges() {
                return Err(TcgError::DimMismatch {
                    what: "edge value count vs edges",
                    expected: csr.num_edges(),
                    actual: v.len(),
                });
            }
        }
        Ok(SpmmProblem {
            csr,
            edge_values,
            x,
        })
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.x.cols()
    }

    /// The multiplier of edge `e` (1.0 when unweighted).
    #[inline]
    pub fn value(&self, e: usize) -> f32 {
        self.edge_values.map_or(1.0, |v| v[e])
    }
}

/// A neighbor-aggregation kernel: takes the problem, returns the aggregated
/// matrix and the simulated performance report.
pub trait SpmmKernel {
    /// Kernel name for report tables.
    fn name(&self) -> &'static str;

    /// Executes the kernel on the simulated device. Besides the setup
    /// errors, any device fault injected by the launcher's
    /// [`tcg_fault::FaultPlan`] surfaces here as its [`TcgError`] variant.
    fn execute(
        &self,
        launcher: &mut Launcher,
        prob: &SpmmProblem<'_>,
    ) -> Result<(DenseMatrix, KernelReport), TcgError>;

    /// [`SpmmKernel::execute`] that promises only the output rows of the
    /// row windows `windows` (ascending ids, `TC_BLK_H` rows each). The
    /// row-window kernels skip every other window: it launches no block, is
    /// charged nothing and its rows stay zero. The default, for kernels
    /// that do not tile by row window, computes every row.
    fn execute_windows(
        &self,
        launcher: &mut Launcher,
        prob: &SpmmProblem<'_>,
        windows: &[u32],
    ) -> Result<(DenseMatrix, KernelReport), TcgError> {
        let _ = windows;
        self.execute(launcher, prob)
    }
}

/// Rejects a translation the TCU window bodies cannot run, before any of
/// its arrays is indexed. The bodies stage `TC_BLK_H × TC_BLK_W` tiles and
/// own rows `[w·TC_BLK_H, (w+1)·TC_BLK_H)`, so another window height or
/// block width (which `Sgt::builder()` accepts) would index out of bounds
/// mid-launch, as would a translation of a graph with other node or edge
/// counts. O(1): compares geometry and counts, not the arrays.
pub(crate) fn check_translation(t: &TranslatedGraph, csr: &CsrGraph) -> Result<(), TcgError> {
    if t.win_size != TC_BLK_H || t.blk_w != TC_BLK_W {
        return Err(TcgError::InvalidInput {
            what: "translation geometry",
            detail: format!(
                "window {} x block width {}; the TCU kernels need {TC_BLK_H} x {TC_BLK_W}",
                t.win_size, t.blk_w
            ),
        });
    }
    if t.edge_to_col.len() != csr.num_edges() {
        return Err(TcgError::DimMismatch {
            what: "translation edge count vs graph",
            expected: csr.num_edges(),
            actual: t.edge_to_col.len(),
        });
    }
    if t.num_row_windows != csr.num_nodes().div_ceil(TC_BLK_H) {
        return Err(TcgError::DimMismatch {
            what: "translation row windows vs graph",
            expected: csr.num_nodes().div_ceil(TC_BLK_H),
            actual: t.num_row_windows,
        });
    }
    Ok(())
}

/// Resolves a launch's dispatch mask, which must come after
/// [`check_translation`] (the policy indexes the translation's windows),
/// and checks that it covers every row window.
pub(crate) fn window_mask(
    t: &TranslatedGraph,
    mask: impl FnOnce() -> Vec<WindowBackend>,
) -> Result<Vec<WindowBackend>, TcgError> {
    let mask = mask();
    if mask.len() != t.num_row_windows {
        return Err(TcgError::DimMismatch {
            what: "dispatch mask length vs row windows",
            expected: t.num_row_windows,
            actual: mask.len(),
        });
    }
    Ok(mask)
}

/// Rejects a window list that is not strictly ascending or names a window
/// `t` does not have.
pub(crate) fn check_windows(t: &TranslatedGraph, windows: &[u32]) -> Result<(), TcgError> {
    let ascending = windows.windows(2).all(|p| p[0] < p[1]);
    match windows.last() {
        Some(&w) if !ascending || w as usize >= t.num_row_windows => Err(TcgError::InvalidInput {
            what: "row window list",
            detail: format!(
                "windows must ascend below {}; got up to {w}",
                t.num_row_windows
            ),
        }),
        _ => Ok(()),
    }
}

/// Runs `body` as one launch over the windows of `mask` that are not
/// [`WindowBackend::Skip`], block id = window id, and `values` for each of
/// them (see [`Launcher::launch`]). A mask without `Skip` launches every
/// window.
pub(crate) fn launch_mask<F, V>(
    launcher: &mut Launcher,
    cfg: GridConfig,
    mask: &[WindowBackend],
    body: F,
    values: V,
) -> KernelStats
where
    F: Fn(&mut BlockCtx<'_>) + Sync,
    V: Fn(u64) + Sync,
{
    let running: Vec<u32>;
    let blocks = if mask.contains(&WindowBackend::Skip) {
        running = (0..mask.len() as u32)
            .filter(|&w| mask[w as usize] != WindowBackend::Skip)
            .collect();
        Blocks::Only(&running)
    } else {
        Blocks::All(mask.len() as u64)
    };
    launcher.launch(cfg, blocks, body, values)
}

/// The window whose TCU body runs a launch's first MMA, the one an armed
/// ECC flip poisons: the first of the ascending `launched` windows that
/// has a TC block.
pub(crate) fn first_mma_window(
    t: &TranslatedGraph,
    mut launched: impl Iterator<Item = usize>,
) -> Option<usize> {
    launched.find(|&w| t.win_partition[w] > 0)
}

/// The rows of row window `w` in an `n`-node graph.
pub(crate) fn window_rows(w: usize, n: usize) -> Range<usize> {
    w * TC_BLK_H..((w + 1) * TC_BLK_H).min(n)
}

/// `x`'s elements rounded to TF-32 when some window of the launch runs on
/// TCUs (empty otherwise). The TCU loops read their dense operands from
/// this copy, made once per launch, where the fragment loads round each
/// element at every MMA.
pub(crate) fn tf32_operand(x: &DenseMatrix, tcu: bool) -> Vec<f32> {
    if !tcu {
        return Vec::new();
    }
    x.as_slice().iter().map(|&v| round_to_tf32(v)).collect()
}

/// Whether every element of a launch's TF-32 operand is finite: the SDDMM
/// loops then drop their zero test (see `crate::sddmm::tcgnn::tcu_dot_rows`).
pub(crate) fn all_finite(x: &[f32]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// `orow += a · xrow`, a separate multiply and add per element: the step
/// of every SpMM loop. Eight-element chunks let the compiler keep each in
/// vector registers.
#[inline(always)]
pub(crate) fn axpy(orow: &mut [f32], a: f32, xrow: &[f32]) {
    let mut o8 = orow.chunks_exact_mut(8);
    let mut x8 = xrow.chunks_exact(8);
    for (o, x) in o8.by_ref().zip(x8.by_ref()) {
        for i in 0..8 {
            o[i] += a * x[i];
        }
    }
    for (o, &x) in o8.into_remainder().iter_mut().zip(x8.remainder()) {
        *o += a * x;
    }
}

/// `arow · b[u]` for each `u` of `nbrs` into `out` (one per neighbor),
/// where row `u` of `b` starts at `u · arow.len()`: f32 from `+0.0`, `k`
/// ascending, a separate multiply and add, skipping zero `arow[k]` when
/// `skip_zeros`. The step of every SDDMM loop. Four dot products run
/// interleaved, each its own chain of adds, so the adds overlap.
pub(crate) fn row_dots(arow: &[f32], b: &[f32], nbrs: &[u32], skip_zeros: bool, out: &mut [f32]) {
    if skip_zeros {
        dots::<true>(arow, b, nbrs, out)
    } else {
        dots::<false>(arow, b, nbrs, out)
    }
}

#[inline(always)]
fn dots<const SKIP_ZEROS: bool>(arow: &[f32], b: &[f32], nbrs: &[u32], out: &mut [f32]) {
    let d = arow.len();
    let row = |u: u32| &b[u as usize * d..][..d];
    let mut groups = nbrs.chunks_exact(4);
    let mut outs = out.chunks_exact_mut(4);
    for (us, o) in groups.by_ref().zip(outs.by_ref()) {
        let rows: [&[f32]; 4] = std::array::from_fn(|j| row(us[j]));
        let mut s = [0.0f32; 4];
        for (k, &a) in arow.iter().enumerate() {
            if !SKIP_ZEROS || a != 0.0 {
                for (sj, rj) in s.iter_mut().zip(&rows) {
                    *sj += a * rj[k];
                }
            }
        }
        o.copy_from_slice(&s);
    }
    for (o, &u) in outs.into_remainder().iter_mut().zip(groups.remainder()) {
        let mut s = 0.0f32;
        for (&a, &bv) in arow.iter().zip(row(u)) {
            if !SKIP_ZEROS || a != 0.0 {
                s += a * bv;
            }
        }
        *o = s;
    }
}

/// CPU reference SpMM: `out[v] = Σ_{u ∈ N(v)} w(v,u) · x[u]`, f64-accumulated.
pub fn reference_spmm(prob: &SpmmProblem<'_>) -> DenseMatrix {
    let n = prob.csr.num_nodes();
    let d = prob.dim();
    let mut out = DenseMatrix::zeros(n, d);
    let mut acc = vec![0.0f64; d];
    for v in 0..n {
        acc.iter_mut().for_each(|a| *a = 0.0);
        let lo = prob.csr.node_pointer()[v];
        for (i, &u) in prob.csr.neighbors(v).iter().enumerate() {
            let w = prob.value(lo + i) as f64;
            let row = prob.x.row(u as usize);
            for (a, &xv) in acc.iter_mut().zip(row) {
                *a += w * xv as f64;
            }
        }
        for (o, &a) in out.row_mut(v).iter_mut().zip(acc.iter()) {
            *o = a as f32;
        }
    }
    out
}

/// CPU reference SDDMM: `f[e] = x[src(e)] · x_b[dst(e)]` for every edge,
/// f64-accumulated, in `edge_list` order.
pub fn reference_sddmm(csr: &CsrGraph, xa: &DenseMatrix, xb: &DenseMatrix) -> Vec<f32> {
    let mut out = Vec::with_capacity(csr.num_edges());
    for v in 0..csr.num_nodes() {
        let arow = xa.row(v);
        for &u in csr.neighbors(v) {
            let brow = xb.row(u as usize);
            let s: f64 = arow
                .iter()
                .zip(brow)
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum();
            out.push(s as f32);
        }
    }
    out
}

/// Tolerance for comparing a TF-32 kernel against the f64 reference, scaled
/// by reduction length and value magnitude.
pub fn kernel_tolerance(max_degree: usize, dim: usize, magnitude: f32) -> f32 {
    let k = max_degree.max(dim).max(1);
    tcg_tensor::tf32::tf32_rel_tolerance(k) * magnitude.max(1.0) * 8.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcg_graph::gen;
    use tcg_tensor::init;

    #[test]
    fn problem_validates_dims() {
        let g = gen::erdos_renyi(50, 300, 1).unwrap();
        let x_ok = DenseMatrix::zeros(50, 8);
        let x_bad = DenseMatrix::zeros(49, 8);
        assert!(SpmmProblem::new(&g, None, &x_ok).is_ok());
        assert!(SpmmProblem::new(&g, None, &x_bad).is_err());
        let vals = vec![1.0; g.num_edges() + 1];
        assert!(SpmmProblem::new(&g, Some(&vals), &x_ok).is_err());
    }

    #[test]
    fn reference_spmm_identity_weights() {
        // Path graph 0-1-2; X = identity-ish rows.
        let g = CsrGraph::from_raw(3, vec![0, 1, 3, 4], vec![1, 0, 2, 1]).unwrap();
        let x = DenseMatrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 2.0, 2.0]).unwrap();
        let prob = SpmmProblem::new(&g, None, &x).unwrap();
        let out = reference_spmm(&prob);
        // Row 0 = x[1]; row 1 = x[0] + x[2]; row 2 = x[1].
        assert_eq!(out.row(0), &[0.0, 1.0]);
        assert_eq!(out.row(1), &[3.0, 2.0]);
        assert_eq!(out.row(2), &[0.0, 1.0]);
    }

    #[test]
    fn reference_spmm_respects_edge_values() {
        let g = CsrGraph::from_raw(2, vec![0, 1, 2], vec![1, 0]).unwrap();
        let x = DenseMatrix::from_vec(2, 1, vec![3.0, 5.0]).unwrap();
        let vals = vec![2.0, 10.0];
        let prob = SpmmProblem::new(&g, Some(&vals), &x).unwrap();
        let out = reference_spmm(&prob);
        assert_eq!(out.get(0, 0), 10.0); // 2 * x[1]
        assert_eq!(out.get(1, 0), 30.0); // 10 * x[0]
    }

    #[test]
    fn reference_sddmm_simple_dots() {
        let g = CsrGraph::from_raw(2, vec![0, 1, 2], vec![1, 0]).unwrap();
        let x = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let f = reference_sddmm(&g, &x, &x);
        // Edge (0,1): 1*3+2*4 = 11; edge (1,0): same by symmetry.
        assert_eq!(f, vec![11.0, 11.0]);
    }

    #[test]
    fn sddmm_matches_dense_masked_product() {
        let g = gen::erdos_renyi(40, 300, 2).unwrap();
        let x = init::uniform(40, 12, -1.0, 1.0, 3);
        let f = reference_sddmm(&g, &x, &x);
        let full = tcg_tensor::gemm::gemm_a_bt(&x, &x).unwrap();
        for (i, (s, d)) in g.iter_edges().enumerate() {
            assert!((f[i] - full.get(s as usize, d as usize)).abs() < 1e-4);
        }
    }
}
