//! Weight-initialisation schemes for neural-network layers.

use crate::Matrix;
use rand::Rng;

/// Initialisation schemes supported by [`Matrix::random_init`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightInit {
    /// Uniform in `[-limit, limit]`.
    Uniform {
        /// Half-width of the sampling interval.
        limit: f64,
    },
    /// Xavier/Glorot uniform: `limit = sqrt(6 / (fan_in + fan_out))`.
    ///
    /// This is the standard choice for tanh layers, which is what the CAPES
    /// network uses for its two hidden layers.
    XavierUniform,
    /// All zeros (used for biases).
    Zeros,
}

impl Matrix {
    /// Creates a `rows × cols` matrix drawn from the given initialisation
    /// scheme. For the fan-based schemes, `rows` is treated as `fan_in` and
    /// `cols` as `fan_out`, matching a weight matrix used as `x · W`.
    pub fn random_init<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        scheme: WeightInit,
        rng: &mut R,
    ) -> Matrix {
        match scheme {
            WeightInit::Zeros => Matrix::zeros(rows, cols),
            WeightInit::Uniform { limit } => {
                assert!(limit > 0.0, "uniform init limit must be positive");
                let mut m = Matrix::zeros(rows, cols);
                for x in m.as_mut_slice() {
                    *x = rng.gen_range(-limit..limit);
                }
                m
            }
            WeightInit::XavierUniform => {
                let limit = (6.0 / (rows as f64 + cols as f64)).sqrt();
                Matrix::random_init(rows, cols, WeightInit::Uniform { limit }, rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_init() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = Matrix::random_init(4, 4, WeightInit::Zeros, &mut rng);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn uniform_respects_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::random_init(50, 50, WeightInit::Uniform { limit: 0.3 }, &mut rng);
        assert!(m.as_slice().iter().all(|&x| x.abs() <= 0.3));
        // The draw should not be degenerate.
        assert!(m.as_slice().iter().any(|x| x.abs() > 0.05));
    }

    #[test]
    fn xavier_limit_depends_on_fan() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = Matrix::random_init(300, 300, WeightInit::XavierUniform, &mut rng);
        let limit = (6.0 / 600.0f64).sqrt();
        assert!(m.as_slice().iter().all(|&x| x.abs() <= limit));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let m1 = Matrix::random_init(10, 10, WeightInit::XavierUniform, &mut a);
        let m2 = Matrix::random_init(10, 10, WeightInit::XavierUniform, &mut b);
        assert_eq!(m1, m2);
    }
}
