//! Row-major dense matrix.

use serde::{Deserialize, Serialize};

use crate::{Result, TensorError};

/// A row-major dense `f32` matrix.
///
/// This is the single dense container used across the workspace: node
/// embedding matrices, layer weights, GEMM operands and simulated global
/// memory buffers are all `DenseMatrix` values. Storage is a flat `Vec<f32>`
/// of length `rows * cols`, with element `(r, c)` at `r * cols + c` — the
/// same layout the paper's CUDA kernels assume for `in_mat`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Wraps an existing buffer as a matrix.
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access without bounds checking beyond the slice index panic.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` is combined with a `c` that pushes the flat
    /// index past the buffer; use [`DenseMatrix::get_checked`] for a fallible
    /// variant.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Fallible element access.
    pub fn get_checked(&self, r: usize, c: usize) -> Result<f32> {
        if r >= self.rows || c >= self.cols {
            return Err(TensorError::OutOfBounds {
                index: (r, c),
                shape: self.shape(),
            });
        }
        Ok(self.data[r * self.cols + c])
    }

    /// Sets element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Copies a rectangular region `[row0, row0+h) × [col0, col0+w)` into a
    /// new `h × w` matrix, zero-padding parts that fall outside `self`.
    ///
    /// This mirrors how the CUDA kernels stage boundary tiles into shared
    /// memory with explicit zero padding (Listing 3's boundary checks).
    pub fn tile_padded(&self, row0: usize, col0: usize, h: usize, w: usize) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(h, w);
        for r in 0..h {
            let sr = row0 + r;
            if sr >= self.rows {
                break;
            }
            for c in 0..w {
                let sc = col0 + c;
                if sc >= self.cols {
                    break;
                }
                out.data[r * w + c] = self.data[sr * self.cols + sc];
            }
        }
        out
    }

    /// Element-wise `self += other`.
    pub fn add_assign(&mut self, other: &DenseMatrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::DimMismatch {
                op: "add_assign",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Scales every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Maximum absolute element-wise difference against `other`.
    ///
    /// Shapes must match; used pervasively in tests to compare kernel output
    /// against references.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(TensorError::DimMismatch {
                op: "max_abs_diff",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    /// Rounds every element to TF-32 in place.
    pub fn round_tf32_inplace(&mut self) {
        for v in &mut self.data {
            *v = crate::tf32::round_to_tf32(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = DenseMatrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn row_major_layout() {
        let m = DenseMatrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn get_checked_bounds() {
        let m = DenseMatrix::zeros(2, 2);
        assert!(m.get_checked(1, 1).is_ok());
        assert!(matches!(
            m.get_checked(2, 0),
            Err(TensorError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = DenseMatrix::from_fn(3, 5, |r, c| (r * 7 + c * 3) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t.transpose(), m);
        assert_eq!(m.get(2, 4), t.get(4, 2));
    }

    #[test]
    fn tile_padded_interior_and_boundary() {
        let m = DenseMatrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let t = m.tile_padded(1, 1, 2, 2);
        assert_eq!(t.as_slice(), &[5.0, 6.0, 9.0, 10.0]);
        // Boundary tile extends past the matrix: padded with zeros.
        let b = m.tile_padded(3, 3, 2, 2);
        assert_eq!(b.as_slice(), &[15.0, 0.0, 0.0, 0.0]);
        // Fully outside: all zeros.
        let o = m.tile_padded(10, 10, 2, 2);
        assert!(o.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn arithmetic_ops() {
        let mut a = DenseMatrix::filled(2, 2, 1.0);
        let b = DenseMatrix::filled(2, 2, 2.0);
        a.add_assign(&b).unwrap();
        assert_eq!(a.as_slice(), &[3.0; 4]);
        a.scale(5.0);
        assert_eq!(a.as_slice(), &[15.0; 4]);
    }

    #[test]
    fn arithmetic_rejects_shape_mismatch() {
        let mut a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(3, 2);
        assert!(a.add_assign(&b).is_err());
        assert!(a.max_abs_diff(&b).is_err());
    }

    #[test]
    fn identity_gemm_neutral_element_shape() {
        let i = DenseMatrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.get(2, 2), 1.0);
    }
}
