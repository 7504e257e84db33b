//! Row-major dense matrix of `f64`.

use capes_persist::{Persist, PersistError, Reader, Writer};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A row-major dense matrix of `f64` values.
///
/// This is the only array type used by the CAPES reproduction. Vectors are
/// represented as `1 × n` or `n × 1` matrices. The storage is a single
/// contiguous `Vec<f64>` so that the GEMM kernels in [`crate::matmul`] can walk
/// it linearly.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates a `rows × cols` matrix where every element is `value`.
    // capes-check: allow(dead-pub) -- the constant matrices of tests/kernel_properties.rs, tests/simd_properties.rs and capes-nn's unit tests
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
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

    /// Always `false`: a [`Matrix`] cannot be constructed empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Read-only view of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns element `(r, c)` without bounds checking in release builds.
    ///
    /// # Panics
    /// Panics in debug builds if out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    #[inline]
    pub(crate) fn set(&mut self, r: usize, c: usize, value: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = value;
    }

    /// Read-only view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {} out of range ({})", r, self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {} out of range ({})", r, self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies row `r` of `src` into row `dst_row` of `self`.
    ///
    /// # Panics
    /// Panics if the column counts differ or rows are out of range.
    pub fn copy_row_from(&mut self, dst_row: usize, src: &Matrix, src_row: usize) {
        assert_eq!(self.cols, src.cols, "column count mismatch");
        self.row_mut(dst_row).copy_from_slice(src.row(src_row));
    }

    /// Returns a new matrix whose elements are `f(x)` for every element `x`.
    pub(crate) fn map<F: Fn(f64) -> f64>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Returns a new matrix combining `self` and `other` element-wise with `f`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    // capes-check: allow(dead-pub) -- the affine reference of tests/kernel_properties.rs
    pub fn zip_map<F: Fn(f64, f64) -> f64>(&self, other: &Matrix, f: F) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in zip_map");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `true` if every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Returns `true` if all elements differ from `other` by at most `tol`.
    // capes-check: allow(dead-pub) -- the tolerance compare of tests/kernel_properties.rs, tests/proptest_matrix.rs and capes-nn's unit tests
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| crate::approx_eq(a, b, tol))
    }
}

impl Persist for Matrix {
    // rows + cols + element count.
    const MIN_SIZE: usize = 24;

    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.rows);
        w.put_usize(self.cols);
        self.data.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let rows = r.get_usize()?;
        let cols = r.get_usize()?;
        if rows == 0 || cols == 0 {
            return Err(PersistError::BadValue {
                what: "matrix dimension is zero",
            });
        }
        // rows · cols must not overflow and must agree with the stored
        // element count — checked before `Vec<f64>::decode` sizes its
        // allocation against the remaining bytes.
        let expected = rows.checked_mul(cols).ok_or(PersistError::BadValue {
            what: "matrix dimensions overflow",
        })?;
        let data = Vec::<f64>::decode(r)?;
        if data.len() != expected {
            return Err(PersistError::BadValue {
                what: "matrix data length disagrees with its dimensions",
            });
        }
        Ok(Matrix { rows, cols, data })
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8usize;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            let max_cols = 10usize;
            for c in 0..self.cols.min(max_cols) {
                write!(f, "{:10.4}", self.get(r, c))?;
                if c + 1 < self.cols.min(max_cols) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let o = Matrix::filled(3, 2, 1.0);
        assert!(o.as_slice().iter().all(|&x| x == 1.0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dims_panic() {
        let _ = Matrix::zeros(0, 3);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn indexing_and_rows() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        m[(1, 0)] = 9.0;
        assert_eq!(m.get(1, 0), 9.0);
        m.row_mut(0)[2] = -1.0;
        assert_eq!(m.get(0, 2), -1.0);
    }

    #[test]
    fn map_and_zip_map() {
        let m = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        let abs = m.map(f64::abs);
        assert_eq!(abs, Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let sum = m.zip_map(&abs, |a, b| a + b);
        assert_eq!(sum, Matrix::from_vec(2, 2, vec![2.0, 0.0, 6.0, 0.0]));
    }

    #[test]
    fn copy_row_from_other() {
        let src = Matrix::from_vec(2, 2, vec![7.0, 8.0, 9.0, 10.0]);
        let mut dst = Matrix::zeros(2, 2);
        dst.copy_row_from(0, &src, 1);
        assert_eq!(dst.row(0), &[9.0, 10.0]);
        assert_eq!(dst.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn finiteness_and_approx_eq() {
        let mut m = Matrix::filled(2, 2, 1.0);
        assert!(m.all_finite());
        m[(0, 0)] = f64::NAN;
        assert!(!m.all_finite());

        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 1.0 + 1e-12);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&Matrix::filled(2, 2, 1.1), 1e-9));
        assert!(!a.approx_eq(&Matrix::filled(2, 3, 1.0), 1e-9));
    }

    #[test]
    fn debug_format_is_bounded() {
        let m = Matrix::zeros(100, 100);
        let s = format!("{m:?}");
        // Debug output must stay small even for large matrices.
        assert!(s.len() < 2_000);
    }
}
