//! CPU GEMM: the dense update GEMMs, a TF-32 variant and the references.
//!
//! Two use cases: (1) the dense *Update* phase of GNN layers, `X · W`
//! forward ([`gemm`]) and `Xᵀ · dY` for weight gradients ([`gemm_at_b`]),
//! which is most of a training epoch's host time on wide-feature graphs;
//! and (2) reference results for validating the simulated WMMA pipeline.
//!
//! # Bit-exact contract of the update GEMMs
//!
//! [`gemm`] and [`gemm_at_b`] are register-blocked, yet every output bit
//! equals the triple loop [`gemm_naive`]. Each `C[i][j]` starts from `+0.0`
//! and adds `a·b` for `p` in ascending order as a separate multiply and
//! add: no FMA, no reassociation, no split-k. Terms whose `A` entry is
//! `== 0.0` are skipped, so a `±inf`/NaN in a `B` row met only by zeros
//! never reaches `C`. Blocking changes only which outputs are computed
//! together. [`gemm`] holds a 2-row × 16-column tile of `C` in locals
//! across all of `k`; [`gemm_at_b`] streams rows of `A` and `B` and holds
//! each 16-wide `C` row segment in locals across 4 consecutive `p`.
//! Columns go in 16-wide panels plus one narrower tail panel, and scratch
//! memory is the tile in locals.
//!
//! Each output row depends only on its own `A` row (its own `A` column for
//! [`gemm_at_b`]), so any row subset multiplies to the same bits as the
//! full matrix. `tcg_oracle::refmodel` pins the contract.

use crate::{DenseMatrix, Result, TensorError};

/// Columns of `C` a tile holds in locals: four SSE vectors per row.
const PANEL: usize = 16;

/// Rows of `A` and `B` that [`gemm_at_b`] folds into `C` per pass.
const P_GROUP: usize = 4;

fn check_dims(op: &'static str, a: &DenseMatrix, b: &DenseMatrix) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(TensorError::DimMismatch {
            op,
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(())
}

/// Naive triple-loop GEMM, `C = A · B`, kept as the obviously-correct
/// reference for property tests.
pub fn gemm_naive(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    check_dims("gemm_naive", a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = DenseMatrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let av = a.get(i, p);
            if av == 0.0 {
                continue;
            }
            let brow = b.row(p);
            let crow = c.row_mut(i);
            for j in 0..n {
                crow[j] += av * brow[j];
            }
        }
    }
    Ok(c)
}

/// Register-blocked GEMM, `C = A · B`, bitwise equal to [`gemm_naive`].
pub fn gemm(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    check_dims("gemm", a, b)?;
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    xw(a, b.as_slice(), &mut c, |av| av);
    Ok(c)
}

/// GEMM with TF-32 input rounding and FP32 accumulation, matching the
/// numerics of the simulated tensor-core path without its tiling machinery.
///
/// `B` is rounded once up front; each `A` element is rounded as the
/// [`gemm`] kernel loads it, once per 16-column panel.
pub fn gemm_tf32(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    check_dims("gemm_tf32", a, b)?;
    let mut b_tf32 = b.clone();
    b_tf32.round_tf32_inplace();
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    xw(a, b_tf32.as_slice(), &mut c, crate::tf32::round_to_tf32);
    Ok(c)
}

/// `C = load(A) · B` into a zeroed `c`, two rows of `A` at a time.
fn xw(a: &DenseMatrix, b: &[f32], c: &mut DenseMatrix, load: impl Fn(f32) -> f32 + Copy) {
    let (k, n) = (a.cols(), c.cols());
    if k == 0 || n == 0 {
        return;
    }
    let mut a_pairs = a.as_slice().chunks_exact(2 * k);
    let mut c_pairs = c.as_mut_slice().chunks_exact_mut(2 * n);
    for (a2, c2) in a_pairs.by_ref().zip(c_pairs.by_ref()) {
        let (c0, c1) = c2.split_at_mut(n);
        xw_rows([&a2[..k], &a2[k..]], b, [c0, c1], load);
    }
    let a_last = a_pairs.remainder();
    if !a_last.is_empty() {
        xw_rows([a_last], b, [c_pairs.into_remainder()], load);
    }
}

/// All column panels of `R` rows of `C = load(A) · B`.
#[inline(always)]
fn xw_rows<const R: usize>(
    a_rows: [&[f32]; R],
    b: &[f32],
    mut c_rows: [&mut [f32]; R],
    load: impl Fn(f32) -> f32 + Copy,
) {
    let n = c_rows[0].len();
    for j0 in (0..n).step_by(PANEL) {
        // A full panel passes the constant, so its inlined copy runs on
        // fixed-width chunks the compiler keeps in registers.
        match n - j0 {
            w if w >= PANEL => xw_panel(&a_rows, b, &mut c_rows, j0, PANEL, load),
            w => xw_panel(&a_rows, b, &mut c_rows, j0, w, load),
        }
    }
}

/// Columns `j0..j0 + w` of `R` rows of `C`, accumulated over all of `k`
/// in locals, then stored once.
#[inline(always)]
fn xw_panel<const R: usize>(
    a_rows: &[&[f32]; R],
    b: &[f32],
    c_rows: &mut [&mut [f32]; R],
    j0: usize,
    w: usize,
    load: impl Fn(f32) -> f32,
) {
    let n = c_rows[0].len();
    let mut acc = [[0.0_f32; PANEL]; R];
    for (p, b_row) in b.chunks_exact(n).enumerate() {
        let b_seg = &b_row[j0..j0 + w];
        for (acc_r, a_row) in acc.iter_mut().zip(a_rows) {
            let av = load(a_row[p]);
            if av != 0.0 {
                for (cv, &bv) in acc_r[..w].iter_mut().zip(b_seg) {
                    *cv += av * bv;
                }
            }
        }
    }
    for (c_row, acc_r) in c_rows.iter_mut().zip(&acc) {
        c_row[j0..j0 + w].copy_from_slice(&acc_r[..w]);
    }
}

/// f64-accumulated GEMM used as the high-precision oracle in tests.
pub fn gemm_f64_reference(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    check_dims("gemm_f64_reference", a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut acc = vec![0.0_f64; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a.get(i, p) as f64;
            if av == 0.0 {
                continue;
            }
            let brow = b.row(p);
            for j in 0..n {
                acc[i * n + j] += av * brow[j] as f64;
            }
        }
    }
    DenseMatrix::from_vec(m, n, acc.into_iter().map(|v| v as f32).collect())
}

/// `C = Aᵀ · B` without materializing the transpose, bitwise equal to
/// `gemm_naive(&a.transpose(), b)`.
pub fn gemm_at_b(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.rows() != b.rows() {
        return Err(TensorError::DimMismatch {
            op: "gemm_at_b",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let m = a.cols();
    let n = b.cols();
    let mut c = DenseMatrix::zeros(m, n);
    if m == 0 || n == 0 {
        return Ok(c);
    }
    let mut a_groups = a.as_slice().chunks_exact(P_GROUP * m);
    let mut b_groups = b.as_slice().chunks_exact(P_GROUP * n);
    for (a_grp, b_grp) in a_groups.by_ref().zip(b_groups.by_ref()) {
        at_b_rows::<P_GROUP>(a_grp, b_grp, &mut c);
    }
    // The last `k % P_GROUP` rows, one pass each.
    let a_tail = a_groups.remainder().chunks_exact(m);
    for (a_row, b_row) in a_tail.zip(b_groups.remainder().chunks_exact(n)) {
        at_b_rows::<1>(a_row, b_row, &mut c);
    }
    Ok(c)
}

/// Folds `G` consecutive rows of `A` and `B` into every row of `C`, one
/// column panel at a time.
#[inline(always)]
fn at_b_rows<const G: usize>(a_grp: &[f32], b_grp: &[f32], c: &mut DenseMatrix) {
    let n = c.cols();
    for j0 in (0..n).step_by(PANEL) {
        // Same full-panel specialization as `xw_rows`.
        match n - j0 {
            w if w >= PANEL => at_b_panel::<G>(a_grp, b_grp, c, j0, PANEL),
            w => at_b_panel::<G>(a_grp, b_grp, c, j0, w),
        }
    }
}

/// Columns `j0..j0 + w` of every row of `C`, each row segment held in
/// locals while `G` terms are added.
#[inline(always)]
fn at_b_panel<const G: usize>(
    a_grp: &[f32],
    b_grp: &[f32],
    c: &mut DenseMatrix,
    j0: usize,
    w: usize,
) {
    let (m, n) = c.shape();
    let a_rows: [&[f32]; G] = std::array::from_fn(|q| &a_grp[q * m..(q + 1) * m]);
    // The group's B panel, zero-padded to full width: the update below
    // always runs on whole [f32; PANEL] chunks, and the padded columns are
    // never stored.
    let b_pan: [[f32; PANEL]; G] = std::array::from_fn(|q| {
        let mut pan = [0.0; PANEL];
        pan[..w].copy_from_slice(&b_grp[q * n + j0..][..w]);
        pan
    });
    for (i, c_row) in c.as_mut_slice().chunks_exact_mut(n).enumerate() {
        let c_seg = &mut c_row[j0..j0 + w];
        let mut acc = [0.0_f32; PANEL];
        acc[..w].copy_from_slice(c_seg);
        for (a_row, b_row) in a_rows.iter().zip(&b_pan) {
            let av = a_row[i];
            if av != 0.0 {
                for (cv, &bv) in acc.iter_mut().zip(b_row) {
                    *cv += av * bv;
                }
            }
        }
        c_seg.copy_from_slice(&acc[..w]);
    }
}

/// `C = A · Bᵀ` without materializing the transpose.
pub fn gemm_a_bt(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    if a.cols() != b.cols() {
        return Err(TensorError::DimMismatch {
            op: "gemm_a_bt",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k) = a.shape();
    let n = b.rows();
    let mut c = DenseMatrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let crow = c.row_mut(i);
        for (j, cj) in crow.iter_mut().enumerate().take(n) {
            let brow = b.row(j);
            let mut s = 0.0_f32;
            for p in 0..k {
                s += arow[p] * brow[p];
            }
            *cj = s;
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    fn rand_mat(r: usize, c: usize, seed: u64) -> DenseMatrix {
        init::uniform(r, c, -1.0, 1.0, seed)
    }

    #[test]
    fn blocked_matches_naive() {
        let a = rand_mat(37, 53, 1);
        let b = rand_mat(53, 29, 2);
        let c1 = gemm_naive(&a, &b).unwrap();
        let c2 = gemm(&a, &b).unwrap();
        let bits = |c: &DenseMatrix| c.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c1), bits(&c2));
    }

    #[test]
    fn matches_f64_reference() {
        let a = rand_mat(16, 16, 3);
        let b = rand_mat(16, 16, 4);
        let c = gemm(&a, &b).unwrap();
        let r = gemm_f64_reference(&a, &b).unwrap();
        assert!(c.max_abs_diff(&r).unwrap() < 1e-4);
    }

    #[test]
    fn tf32_close_to_fp32() {
        let a = rand_mat(24, 40, 5);
        let b = rand_mat(40, 17, 6);
        let c = gemm(&a, &b).unwrap();
        let t = gemm_tf32(&a, &b).unwrap();
        let tol = crate::tf32::tf32_rel_tolerance(40) * 40.0;
        assert!(c.max_abs_diff(&t).unwrap() < tol);
    }

    #[test]
    fn identity_is_neutral() {
        let a = rand_mat(9, 9, 7);
        let i = DenseMatrix::identity(9);
        let c = gemm(&a, &i).unwrap();
        assert!(c.max_abs_diff(&a).unwrap() < 1e-6);
        let c2 = gemm(&i, &a).unwrap();
        assert!(c2.max_abs_diff(&a).unwrap() < 1e-6);
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let a = rand_mat(13, 7, 8);
        let b = rand_mat(13, 11, 9);
        let c1 = gemm_at_b(&a, &b).unwrap();
        let c2 = gemm(&a.transpose(), &b).unwrap();
        assert!(c1.max_abs_diff(&c2).unwrap() < 1e-4);

        let x = rand_mat(6, 19, 10);
        let y = rand_mat(8, 19, 11);
        let d1 = gemm_a_bt(&x, &y).unwrap();
        let d2 = gemm(&x, &y.transpose()).unwrap();
        assert!(d1.max_abs_diff(&d2).unwrap() < 1e-4);
    }

    #[test]
    fn dim_mismatch_is_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(4, 2);
        assert!(gemm(&a, &b).is_err());
        assert!(gemm_naive(&a, &b).is_err());
        assert!(gemm_tf32(&a, &b).is_err());
        assert!(gemm_at_b(&a, &b).is_err());
    }

    #[test]
    fn empty_dims_are_fine() {
        let a = DenseMatrix::zeros(0, 5);
        let b = DenseMatrix::zeros(5, 3);
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.shape(), (0, 3));
    }
}
