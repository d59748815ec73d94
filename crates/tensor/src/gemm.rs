//! CPU GEMM: the dense update GEMMs, a TF-32 variant and the references.
//!
//! Two use cases: (1) the dense *Update* phase of GNN layers, `X · W`
//! forward ([`gemm`]), `Xᵀ · dY` for weight gradients ([`gemm_at_b`]) and
//! `dY · Wᵀ` for input gradients ([`gemm_a_bt`]), which is most of a
//! training epoch's host time on wide-feature graphs; and (2) reference
//! results for validating the simulated WMMA pipeline.
//!
//! # Bit-exact contract of the update GEMMs
//!
//! [`gemm`], [`gemm_at_b`] and [`gemm_a_bt`] are register-blocked, yet
//! every output bit equals the triple loop [`gemm_naive`] (of `Aᵀ` for
//! [`gemm_at_b`], of `Bᵀ` for [`gemm_a_bt`]). Each `C[i][j]` starts from
//! `+0.0` and adds `a·b` for `p` in ascending order as a separate multiply
//! and add: no FMA, no reassociation, no split-k. Terms whose `A` entry is
//! `== 0.0` are skipped, so a `±inf`/NaN in a `B` row met only by zeros
//! never reaches `C`. Blocking changes only which outputs are computed
//! together. The `X·W` kernel holds an `R`-row × 16-column tile of `C` in
//! locals across all of `k`; [`gemm_at_b`] streams rows of `A` and `B` and
//! holds each 16-wide `C` row segment in locals across `G` consecutive
//! `p`. Columns go in 16-wide panels plus one narrower tail panel, and
//! scratch memory is the tile in locals. [`gemm_a_bt`] transposes `B` (a
//! weight matrix, small) and runs the `X·W` kernel. It thereby skips a
//! `0·±inf/NaN` term that a plain dot loop over `A`'s row and `B`'s row
//! would add; on finite `B` the two give the same bits (next section).
//!
//! Each output row depends only on its own `A` row (its own `A` column for
//! [`gemm_at_b`]), so any row subset multiplies to the same bits as the
//! full matrix. `tcg_oracle::refmodel` pins the contract.
//!
//! # Finite `B`: the zero test is dropped
//!
//! An accumulator that starts at `+0.0` never becomes `-0.0`: a sum is
//! `-0.0` only if both addends are, and an exact cancellation gives
//! `+0.0`. So adding a `±0.0` term leaves every accumulator's bits as they
//! are. When every `B` entry is finite, a skipped term `0·b` is such a
//! `±0.0`, and skipping it changes nothing. Each call checks `B` once
//! (O(k·n)) and, when it is all finite, runs an instantiation of the same
//! body without the per-`(row, p)` test, which is branch-free. Non-finite
//! `B` keeps the test.
//!
//! The same argument allows a single body that adds `+0.0` in place of a
//! zero-`A` term (`if av != 0.0 { av * bv } else { 0.0 }`). It gives the
//! same bits for every `B`, but the compiler turns the select back into a
//! branch per `(row, p)`: on a 2-vCPU AVX-512F Xeon a GCN-on-Cora epoch
//! took 14.3 ms with it, 12.0 ms with the zero test always on, and 10.3
//! ms with the finite path.
//!
//! # One body per GEMM, instantiated per vector ISA
//!
//! The two kernel bodies are `#[inline(always)]` generics over their tile
//! shape and the zero test, written without intrinsics: the compiler
//! vectorizes the 16-wide column loops, and each output keeps its separate
//! multiply and add in ascending `p` whatever the vector width. Each body
//! is compiled twice: inside a `#[target_feature(enable = "avx512f")]`
//! wrapper on x86-64, and once for the build's baseline (SSE2 on x86-64,
//! the only one elsewhere). Every call runs AVX-512F when
//! `is_x86_feature_detected!` finds it and the baseline otherwise. Only
//! the tile shape differs per ISA. `R` rows of 16 accumulators fill 8
//! vector registers in both; `G` is not set by the register file but by
//! timing (AVX-512F against `G` = 8 and 16):
//!
//! | ISA | `X·W` rows `R` | `Aᵀ·B` group `G` |
//! |---|---|---|
//! | AVX-512F | 8 | 4 |
//! | baseline | 2 | 4 |
//!
//! An AVX2 instantiation (`R` = 4, `G` = 8) was timed against AVX-512F on
//! a 2-vCPU Xeon that has both, and made a GCN-on-Cora training epoch
//! about 6% slower (11.1 against 10.5 ms); it is not kept.

use crate::{DenseMatrix, Result, TensorError};

/// Columns of `C` a tile holds in locals: one AVX-512 vector per row.
const PANEL: usize = 16;

/// Rows of `A` [`gemm_tf32`] rounds per pass (at the 4096 columns of the
/// largest dense adjacency it multiplies, a 1 MB buffer).
const TF32_ROWS: usize = 64;

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
    Isa::widest().gemm(a, b)
}

/// GEMM with TF-32 input rounding and FP32 accumulation, matching the
/// numerics of the simulated tensor-core path without its tiling machinery.
///
/// Every operand element is rounded once, before the [`gemm`] kernel
/// multiplies it: `B` up front, `A` a block of `TF32_ROWS` rows at a
/// time into a buffer that stays in cache. A full rounded copy of a large
/// `A` costs more in fresh pages than the kernel does: on a 4096×4096
/// dense adjacency times 4096×32 (2-vCPU AVX-512F Xeon) the call took
/// 35–43 ms with the blocks and 88–107 ms with the copy.
pub fn gemm_tf32(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    Isa::widest().gemm_tf32(a, b)
}

/// `C = Aᵀ · B` without materializing the transpose, bitwise equal to
/// `gemm_naive(&a.transpose(), b)`.
pub fn gemm_at_b(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    Isa::widest().gemm_at_b(a, b)
}

/// `C = A · Bᵀ`, bitwise equal to `gemm_naive(a, &b.transpose())`: `B` is
/// transposed (it is the small weight matrix) and multiplied by the
/// [`gemm`] kernel. A `0·±inf/NaN` term is skipped, as in [`gemm`].
pub fn gemm_a_bt(a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
    Isa::widest().gemm_a_bt(a, b)
}

/// One vector ISA the update GEMMs are compiled for. A value exists only
/// for an ISA this host supports: [`Isa::supported`] is the one way to get
/// one. Tests use it to run every instantiation; every other caller gets
/// the widest through the free functions.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Isa(Unit);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Unit {
    Avx512,
    Baseline,
}

impl Unit {
    fn detected(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Unit::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Unit::Avx512 => false,
            Unit::Baseline => true,
        }
    }
}

impl Isa {
    /// Every ISA this host can run the GEMMs on, widest first; the
    /// baseline is always last.
    pub fn supported() -> impl Iterator<Item = Isa> {
        [Unit::Avx512, Unit::Baseline]
            .into_iter()
            .filter(|u| u.detected())
            .map(Isa)
    }

    fn widest() -> Isa {
        Isa::supported()
            .next()
            .expect("the baseline is always supported")
    }

    /// [`gemm`] on this ISA.
    pub fn gemm(self, a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
        check_dims("gemm", a, b)?;
        let mut c = DenseMatrix::zeros(a.rows(), b.cols());
        let n = c.cols();
        self.xw(
            !all_finite(b.as_slice()),
            a.as_slice(),
            b.as_slice(),
            c.as_mut_slice(),
            n,
        );
        Ok(c)
    }

    /// [`gemm_tf32`] on this ISA.
    pub fn gemm_tf32(self, a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
        check_dims("gemm_tf32", a, b)?;
        let mut b_tf32 = b.clone();
        b_tf32.round_tf32_inplace();
        let (k, n) = (a.cols(), b.cols());
        let mut c = DenseMatrix::zeros(a.rows(), n);
        if k == 0 || n == 0 {
            return Ok(c);
        }
        let skip_zeros = !all_finite(b_tf32.as_slice());
        let mut a_tf32 = Vec::with_capacity(TF32_ROWS * k);
        let a_blocks = a.as_slice().chunks(TF32_ROWS * k);
        for (a_blk, c_blk) in a_blocks.zip(c.as_mut_slice().chunks_mut(TF32_ROWS * n)) {
            a_tf32.clear();
            a_tf32.extend(a_blk.iter().map(|&v| crate::tf32::round_to_tf32(v)));
            self.xw(skip_zeros, &a_tf32, b_tf32.as_slice(), c_blk, n);
        }
        Ok(c)
    }

    /// [`gemm_at_b`] on this ISA.
    pub fn gemm_at_b(self, a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
        if a.rows() != b.rows() {
            return Err(TensorError::DimMismatch {
                op: "gemm_at_b",
                lhs: a.shape(),
                rhs: b.shape(),
            });
        }
        let n = b.cols();
        let mut c = DenseMatrix::zeros(a.cols(), n);
        if !c.as_slice().is_empty() {
            let skip_zeros = !all_finite(b.as_slice());
            let (a, b, c) = (a.as_slice(), b.as_slice(), c.as_mut_slice());
            match self.0 {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: an `Isa` holding `Avx512` is only made by
                // `Isa::supported`, after run-time detection found AVX-512F.
                Unit::Avx512 => unsafe { x86::at_b_avx512(skip_zeros, a, b, c, n) },
                _ => at_b::<4>(skip_zeros, a, b, c, n),
            }
        }
        Ok(c)
    }

    /// [`gemm_a_bt`] on this ISA.
    pub fn gemm_a_bt(self, a: &DenseMatrix, b: &DenseMatrix) -> Result<DenseMatrix> {
        if a.cols() != b.cols() {
            return Err(TensorError::DimMismatch {
                op: "gemm_a_bt",
                lhs: a.shape(),
                rhs: b.shape(),
            });
        }
        self.gemm(a, &b.transpose())
    }

    /// `C = A · B` for row-major `a`, `b` and a zeroed `c` of `n` columns,
    /// with the zero-`A` test kept iff `skip_zeros` (see the module doc).
    fn xw(self, skip_zeros: bool, a: &[f32], b: &[f32], c: &mut [f32], n: usize) {
        // An empty `a` or `c` means `m`, `k` or `n` is zero: nothing to add.
        if a.is_empty() || c.is_empty() {
            return;
        }
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Isa` holding `Avx512` is only made by
            // `Isa::supported`, after run-time detection found AVX-512F.
            Unit::Avx512 => unsafe { x86::xw_avx512(skip_zeros, a, b, c, n) },
            _ => xw::<2>(skip_zeros, a, b, c, n),
        }
    }
}

/// Whether the zero test can be dropped for this `B` (see the module doc).
fn all_finite(b: &[f32]) -> bool {
    b.iter().all(|v| v.is_finite())
}

/// The AVX-512F instantiations of the two bodies.
#[cfg(target_arch = "x86_64")]
mod x86 {
    #[target_feature(enable = "avx512f")]
    pub(super) fn xw_avx512(skip_zeros: bool, a: &[f32], b: &[f32], c: &mut [f32], n: usize) {
        super::xw::<8>(skip_zeros, a, b, c, n)
    }

    #[target_feature(enable = "avx512f")]
    pub(super) fn at_b_avx512(skip_zeros: bool, a: &[f32], b: &[f32], c: &mut [f32], n: usize) {
        super::at_b::<4>(skip_zeros, a, b, c, n)
    }
}

/// `C = A · B` for row-major `a` (m×k), `b` (k×n) and a zeroed `c`
/// (m×n), `R` rows of `A` at a time, then the last `m % R` one by one.
/// `k` and `n` are non-zero.
#[inline(always)]
fn xw<const R: usize>(skip_zeros: bool, a: &[f32], b: &[f32], c: &mut [f32], n: usize) {
    if skip_zeros {
        xw_tiles::<R, true>(a, b, c, n)
    } else {
        xw_tiles::<R, false>(a, b, c, n)
    }
}

#[inline(always)]
fn xw_tiles<const R: usize, const SKIP_ZEROS: bool>(a: &[f32], b: &[f32], c: &mut [f32], n: usize) {
    let k = b.len() / n;
    let mut a_tiles = a.chunks_exact(R * k);
    let mut c_tiles = c.chunks_exact_mut(R * n);
    for (a_t, c_t) in a_tiles.by_ref().zip(c_tiles.by_ref()) {
        let a_rows = std::array::from_fn(|r| &a_t[r * k..(r + 1) * k]);
        let mut c_rows = c_t.chunks_exact_mut(n);
        let c_rows = std::array::from_fn(|_| c_rows.next().expect("the tile has R rows"));
        xw_rows::<R, SKIP_ZEROS>(a_rows, b, c_rows);
    }
    let a_last = a_tiles.remainder().chunks_exact(k);
    for (a_row, c_row) in a_last.zip(c_tiles.into_remainder().chunks_exact_mut(n)) {
        xw_rows::<1, SKIP_ZEROS>([a_row], b, [c_row]);
    }
}

/// All column panels of `R` rows of `C = A · B`.
#[inline(always)]
fn xw_rows<const R: usize, const SKIP_ZEROS: bool>(
    a_rows: [&[f32]; R],
    b: &[f32],
    mut c_rows: [&mut [f32]; R],
) {
    let n = c_rows[0].len();
    for j0 in (0..n).step_by(PANEL) {
        // A full panel passes the constant, so its inlined copy runs on
        // fixed-width chunks the compiler keeps in registers.
        match n - j0 {
            w if w >= PANEL => xw_panel::<R, SKIP_ZEROS>(&a_rows, b, &mut c_rows, j0, PANEL),
            w => xw_panel::<R, SKIP_ZEROS>(&a_rows, b, &mut c_rows, j0, w),
        }
    }
}

/// Columns `j0..j0 + w` of `R` rows of `C`, accumulated over all of `k`
/// in locals, then stored once.
#[inline(always)]
fn xw_panel<const R: usize, const SKIP_ZEROS: bool>(
    a_rows: &[&[f32]; R],
    b: &[f32],
    c_rows: &mut [&mut [f32]; R],
    j0: usize,
    w: usize,
) {
    let n = c_rows[0].len();
    let mut acc = [[0.0_f32; PANEL]; R];
    for (p, b_row) in b.chunks_exact(n).enumerate() {
        let b_seg = &b_row[j0..j0 + w];
        for (acc_r, a_row) in acc.iter_mut().zip(a_rows) {
            let av = a_row[p];
            if !SKIP_ZEROS || av != 0.0 {
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

/// `C = Aᵀ · B` for row-major `a` (k×m), `b` (k×n) and a zeroed `c` (m×n),
/// `G` rows of `A` and `B` per pass over `C`, then the last `k % G` one by
/// one. `m` and `n` are non-zero.
#[inline(always)]
fn at_b<const G: usize>(skip_zeros: bool, a: &[f32], b: &[f32], c: &mut [f32], n: usize) {
    if skip_zeros {
        at_b_groups::<G, true>(a, b, c, n)
    } else {
        at_b_groups::<G, false>(a, b, c, n)
    }
}

#[inline(always)]
fn at_b_groups<const G: usize, const SKIP_ZEROS: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    n: usize,
) {
    let m = c.len() / n;
    let mut a_groups = a.chunks_exact(G * m);
    let mut b_groups = b.chunks_exact(G * n);
    for (a_grp, b_grp) in a_groups.by_ref().zip(b_groups.by_ref()) {
        at_b_rows::<G, SKIP_ZEROS>(a_grp, b_grp, c, n);
    }
    let a_tail = a_groups.remainder().chunks_exact(m);
    for (a_row, b_row) in a_tail.zip(b_groups.remainder().chunks_exact(n)) {
        at_b_rows::<1, SKIP_ZEROS>(a_row, b_row, c, n);
    }
}

/// Folds `G` consecutive rows of `A` and `B` into every row of `C`, one
/// column panel at a time.
#[inline(always)]
fn at_b_rows<const G: usize, const SKIP_ZEROS: bool>(
    a_grp: &[f32],
    b_grp: &[f32],
    c: &mut [f32],
    n: usize,
) {
    for j0 in (0..n).step_by(PANEL) {
        // Same full-panel specialization as `xw_rows`.
        match n - j0 {
            w if w >= PANEL => at_b_panel::<G, SKIP_ZEROS>(a_grp, b_grp, c, n, j0, PANEL),
            w => at_b_panel::<G, SKIP_ZEROS>(a_grp, b_grp, c, n, j0, w),
        }
    }
}

/// Columns `j0..j0 + w` of every row of `C`, each row segment held in
/// locals while `G` terms are added.
#[inline(always)]
fn at_b_panel<const G: usize, const SKIP_ZEROS: bool>(
    a_grp: &[f32],
    b_grp: &[f32],
    c: &mut [f32],
    n: usize,
    j0: usize,
    w: usize,
) {
    let m = c.len() / n;
    let a_rows: [&[f32]; G] = std::array::from_fn(|q| &a_grp[q * m..(q + 1) * m]);
    // The group's B panel, zero-padded to full width: the update below
    // always runs on whole [f32; PANEL] chunks, and the padded columns are
    // never stored.
    let b_pan: [[f32; PANEL]; G] = std::array::from_fn(|q| {
        let mut pan = [0.0; PANEL];
        pan[..w].copy_from_slice(&b_grp[q * n + j0..][..w]);
        pan
    });
    for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
        let c_seg = &mut c_row[j0..j0 + w];
        let mut acc = [0.0_f32; PANEL];
        acc[..w].copy_from_slice(c_seg);
        for (a_row, b_row) in a_rows.iter().zip(&b_pan) {
            let av = a_row[i];
            if !SKIP_ZEROS || av != 0.0 {
                for (cv, &bv) in acc.iter_mut().zip(b_row) {
                    *cv += av * bv;
                }
            }
        }
        c_seg.copy_from_slice(&acc[..w]);
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
        assert!(gemm_a_bt(&a, &b).is_err());
    }

    #[test]
    fn empty_dims_are_fine() {
        let a = DenseMatrix::zeros(0, 5);
        let b = DenseMatrix::zeros(5, 3);
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.shape(), (0, 3));
    }
}
