//! The training loss of the Q-network.
//!
//! The paper's training objective (Equation 1) is the mean-squared error
//! between the predicted Q-value of the taken action and the Bellman target.

use capes_tensor::Matrix;

/// Mean-squared error, averaged over every element of the batch.
#[derive(Debug, Clone, Copy, Default)]
// capes-check: allow(dead-pub) -- the loss of tests/simd_determinism.rs
pub struct MseLoss;

impl MseLoss {
    /// Returns the scalar loss averaged over the batch.
    // capes-check: allow(dead-pub) -- the crate-level example of lib.rs
    pub fn loss(&self, prediction: &Matrix, target: &Matrix) -> f64 {
        assert_eq!(prediction.shape(), target.shape(), "loss shape mismatch");
        let total: f64 = prediction
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&p, &t)| (p - t) * (p - t))
            .sum();
        total / prediction.len() as f64
    }

    /// Returns the gradient of the loss with respect to `prediction`.
    // capes-check: allow(dead-pub) -- the loss gradient of tests/simd_determinism.rs
    pub fn grad(&self, prediction: &Matrix, target: &Matrix) -> Matrix {
        assert_eq!(prediction.shape(), target.shape(), "loss shape mismatch");
        let n = prediction.len() as f64;
        prediction.sub(target).scale(2.0 / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_for_equal_inputs() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(MseLoss.loss(&a, &a), 0.0);
        assert!(MseLoss.grad(&a, &a).approx_eq(&Matrix::zeros(2, 2), 1e-12));
    }

    #[test]
    fn mse_known_value() {
        let p = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let t = Matrix::from_vec(1, 2, vec![0.0, 4.0]);
        // ((1)^2 + (2)^2) / 2 = 2.5
        assert!((MseLoss.loss(&p, &t) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let p = Matrix::from_vec(2, 3, vec![0.5, -1.5, 3.0, 0.0, 2.0, -0.7]);
        let t = Matrix::from_vec(2, 3, vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let h = 1e-6;
        let g = MseLoss.grad(&p, &t);
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = p.clone();
                plus[(r, c)] += h;
                let mut minus = p.clone();
                minus[(r, c)] -= h;
                let numeric = (MseLoss.loss(&plus, &t) - MseLoss.loss(&minus, &t)) / (2.0 * h);
                assert!(
                    (g[(r, c)] - numeric).abs() < 1e-5,
                    "grad mismatch at ({r},{c}): {} vs {}",
                    g[(r, c)],
                    numeric
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = MseLoss.loss(&Matrix::zeros(1, 2), &Matrix::zeros(2, 1));
    }
}
