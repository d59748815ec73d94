//! Element-wise and row-wise NN operations used by the GNN layers.

use crate::{DenseMatrix, Result, TensorError};

/// ReLU, returning a new matrix.
pub fn relu(x: &DenseMatrix) -> DenseMatrix {
    let data = x.as_slice().iter().map(|&v| v.max(0.0)).collect();
    DenseMatrix::from_vec(x.rows(), x.cols(), data).expect("same shape")
}

/// Gradient mask for ReLU: `dX = dY ⊙ (X > 0)`.
pub fn relu_backward(x: &DenseMatrix, dy: &DenseMatrix) -> Result<DenseMatrix> {
    if x.shape() != dy.shape() {
        return Err(TensorError::DimMismatch {
            op: "relu_backward",
            lhs: x.shape(),
            rhs: dy.shape(),
        });
    }
    let data = x
        .as_slice()
        .iter()
        .zip(dy.as_slice())
        .map(|(&xv, &gv)| if xv > 0.0 { gv } else { 0.0 })
        .collect();
    DenseMatrix::from_vec(x.rows(), x.cols(), data)
}

/// Numerically stable row-wise softmax.
pub fn softmax_rows(x: &DenseMatrix) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        let row = x.row(r);
        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let orow = out.row_mut(r);
        let mut sum = 0.0_f32;
        for (o, &v) in orow.iter_mut().zip(row) {
            let e = (v - m).exp();
            *o = e;
            sum += e;
        }
        if sum > 0.0 {
            for o in orow.iter_mut() {
                *o /= sum;
            }
        }
    }
    out
}

/// Adds a broadcast row vector (`bias`) to every row of `x` in place.
pub fn add_bias_inplace(x: &mut DenseMatrix, bias: &[f32]) -> Result<()> {
    if bias.len() != x.cols() {
        return Err(TensorError::ShapeMismatch {
            expected: x.cols(),
            actual: bias.len(),
        });
    }
    for r in 0..x.rows() {
        for (v, b) in x.row_mut(r).iter_mut().zip(bias) {
            *v += b;
        }
    }
    Ok(())
}

/// Sums each column of `x` into a vector of length `cols` — the bias
/// gradient reduction.
pub fn column_sums(x: &DenseMatrix) -> Vec<f32> {
    let mut out = vec![0.0_f32; x.cols()];
    for r in 0..x.rows() {
        for (o, &v) in out.iter_mut().zip(x.row(r)) {
            *o += v;
        }
    }
    out
}

/// L2-normalizes each row in place; zero rows are left untouched.
/// Returns the original row norms (needed by cosine-similarity backward).
pub fn l2_normalize_rows(x: &mut DenseMatrix) -> Vec<f32> {
    let mut norms = Vec::with_capacity(x.rows());
    for r in 0..x.rows() {
        let row = x.row_mut(r);
        let n = row.iter().map(|v| (*v as f64).powi(2)).sum::<f64>().sqrt() as f32;
        norms.push(n);
        if n > 0.0 {
            for v in row.iter_mut() {
                *v /= n;
            }
        }
    }
    norms
}

/// Row argmax, breaking ties toward the lower index — prediction extraction.
pub fn argmax_rows(x: &DenseMatrix) -> Vec<usize> {
    (0..x.rows()).map(|r| argmax(x.row(r))).collect()
}

/// Index of `row`'s largest value, the first on ties (0 when empty or
/// all NaN).
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    #[test]
    fn relu_clamps_negatives() {
        let x = DenseMatrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]).unwrap();
        assert_eq!(relu(&x).as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let x = DenseMatrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]).unwrap();
        let dy = DenseMatrix::from_vec(1, 3, vec![5.0, 5.0, 5.0]).unwrap();
        let dx = relu_backward(&x, &dy).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = init::uniform(5, 8, -3.0, 3.0, 1);
        let s = softmax_rows(&x);
        for r in 0..5 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = DenseMatrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let mut y = x.clone();
        for v in y.as_mut_slice() {
            *v += 100.0;
        }
        assert!(softmax_rows(&x).max_abs_diff(&softmax_rows(&y)).unwrap() < 1e-5);
    }

    #[test]
    fn bias_add_and_column_sums() {
        let mut x = DenseMatrix::zeros(3, 2);
        add_bias_inplace(&mut x, &[1.0, 2.0]).unwrap();
        assert_eq!(column_sums(&x), vec![3.0, 6.0]);
        assert!(add_bias_inplace(&mut x, &[1.0]).is_err());
    }

    #[test]
    fn l2_normalize_rows_unit_norm() {
        let mut x = init::uniform(4, 5, -1.0, 1.0, 3);
        x.row_mut(2).iter_mut().for_each(|v| *v = 0.0);
        let norms = l2_normalize_rows(&mut x);
        for r in 0..4 {
            let n: f32 = x.row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
            if r == 2 {
                assert_eq!(norms[2], 0.0);
                assert_eq!(n, 0.0);
            } else {
                assert!((n - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn argmax_breaks_ties_low() {
        let x = DenseMatrix::from_vec(2, 3, vec![1.0, 3.0, 3.0, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(argmax_rows(&x), vec![1, 0]);
    }
}
