//! Element-wise operations, reductions and BLAS-1 style helpers on [`Matrix`].

use crate::Matrix;

impl Matrix {
    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a - b)
    }

    /// Copies every element of `other` into `self` without reallocating.
    ///
    /// # Panics
    /// Panics if shapes differ.
    // capes-check: allow(dead-pub) -- the output-delta fill of capes-nn's tests/workspace_gradcheck.rs, tests/simd_determinism.rs and unit tests
    pub fn copy_from(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "copy_from shape mismatch");
        self.as_mut_slice().copy_from_slice(other.as_slice());
    }

    /// Multiplies every element by `k`.
    pub fn scale(&self, k: f64) -> Matrix {
        self.map(|x| x * k)
    }

    /// In-place convex blend `self = (1 - alpha) * self + alpha * other`.
    ///
    /// This is the exact soft-update rule the paper uses for the target
    /// network: θ⁻ ← θ⁻·(1−α) + θ·α (§3.4).
    // capes-check: allow(dead-pub) -- the soft-update reference of drl's tests/fused_step.rs
    pub fn blend(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "blend shape mismatch");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a = *a * (1.0 - alpha) + b * alpha;
        }
    }

    /// Transposed copy of the matrix.
    // capes-check: allow(dead-pub) -- the transposed-GEMM reference of tests/kernel_properties.rs
    pub fn transpose(&self) -> Matrix {
        let (r, c) = self.shape();
        let mut out = Matrix::zeros(c, r);
        for i in 0..r {
            for j in 0..c {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.as_slice().iter().sum()
    }

    /// Frobenius norm (√Σx²).
    pub fn frobenius_norm(&self) -> f64 {
        self.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Per-column sum written into a caller-owned `1 × cols` row vector (used
    /// to reduce per-sample bias gradients over a minibatch).
    ///
    /// # Panics
    /// Panics if `out` is not `1 × self.cols()`.
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (1, self.cols()),
            "sum_rows_into output shape mismatch"
        );
        let acc = out.as_mut_slice();
        acc.fill(0.0);
        for r in 0..self.rows() {
            for (a, &x) in acc.iter_mut().zip(self.row(r)) {
                *a += x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn sub_scale() {
        let a = sample();
        let b = Matrix::filled(2, 3, 2.0);
        assert_eq!(a.sub(&b).get(1, 2), 4.0);
        assert_eq!(a.scale(0.5).get(1, 2), 3.0);
    }

    #[test]
    fn blend_is_the_soft_update() {
        let mut target = Matrix::filled(2, 2, 0.0);
        let online = Matrix::filled(2, 2, 10.0);
        target.blend(0.01, &online);
        assert!(target.approx_eq(&Matrix::filled(2, 2, 0.1), 1e-12));
        // Blending with alpha = 1 copies the online network.
        target.blend(1.0, &online);
        assert!(target.approx_eq(&online, 1e-12));
    }

    #[test]
    fn transpose_involution() {
        let a = sample();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn reductions() {
        let a = sample();
        assert_eq!(a.sum(), 21.0);
        assert!((a.frobenius_norm() - 91.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn sum_rows_adds_up_each_column() {
        let a = Matrix::from_vec(2, 3, vec![0.5, 3.0, -1.0, 2.0, 2.0, 2.0]);
        let mut sums = Matrix::filled(1, 3, 9.0);
        a.sum_rows_into(&mut sums);
        assert!(sums.approx_eq(&Matrix::from_vec(1, 3, vec![2.5, 5.0, 1.0]), 1e-12));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_blend_panics() {
        let mut a = Matrix::zeros(2, 2);
        a.blend(0.5, &Matrix::zeros(3, 2));
    }
}
