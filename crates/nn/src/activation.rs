//! Element-wise activation functions and their derivatives.
//!
//! The tanh paths route through the `CAPES_SIMD`-dispatched kernels in
//! [`capes_tensor::simd`], which are bit-identical across dispatch levels —
//! toggling the SIMD switch never changes a forward pass or a gradient.

use capes_tensor::simd::{tanh_backward, tanh_forward, tanh_value};
use capes_tensor::Matrix;

/// Activation functions supported by [`crate::Dense`] layers.
///
/// The CAPES paper uses `Tanh` for the two hidden layers and `Identity`
/// (a plain fully-connected linear layer) for the Q-value output head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Hyperbolic tangent — the paper's choice for hidden layers.
    Tanh,
    /// Rectified linear unit, provided for ablation experiments.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// No nonlinearity (linear layer) — used for the output head.
    Identity,
}

impl Activation {
    /// Applies the activation element-wise to a pre-activation matrix.
    pub fn forward(&self, z: &Matrix) -> Matrix {
        match self {
            Activation::Tanh => {
                let mut out = Matrix::zeros(z.rows(), z.cols());
                tanh_forward(z.as_slice(), out.as_mut_slice());
                out
            }
            Activation::Relu => z.map(|x| x.max(0.0)),
            Activation::Sigmoid => z.map(sigmoid),
            Activation::Identity => z.clone(),
        }
    }

    /// Applies the activation element-wise, writing into a caller-owned
    /// output matrix (allocation-free).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn forward_into(&self, z: &Matrix, out: &mut Matrix) {
        assert_eq!(z.shape(), out.shape(), "activation shape mismatch");
        let src = z.as_slice();
        let dst = out.as_mut_slice();
        match self {
            Activation::Identity => dst.copy_from_slice(src),
            Activation::Tanh => tanh_forward(src, dst),
            _ => {
                for (o, &x) in dst.iter_mut().zip(src) {
                    *o = self.apply_scalar(x);
                }
            }
        }
    }

    /// In-place backward kernel: `d ⊙= σ'`, with the derivative expressed as
    /// a function of the activation **output** `a = σ(z)` rather than the
    /// pre-activation. For every activation in this crate the derivative has
    /// a closed form in the output (`1 − a²` for tanh, `a(1 − a)` for
    /// sigmoid, `[a > 0]` for ReLU), which saves re-evaluating the
    /// transcendental in the hot backward path.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn apply_derivative_from_output(&self, output: &Matrix, d: &mut Matrix) {
        assert_eq!(
            output.shape(),
            d.shape(),
            "activation derivative shape mismatch"
        );
        let a = output.as_slice();
        let dst = d.as_mut_slice();
        match self {
            Activation::Tanh => tanh_backward(a, dst),
            Activation::Relu => {
                for (g, &y) in dst.iter_mut().zip(a) {
                    if y <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            Activation::Sigmoid => {
                for (g, &y) in dst.iter_mut().zip(a) {
                    *g *= y * (1.0 - y);
                }
            }
            Activation::Identity => {}
        }
    }

    /// Scalar forward evaluation, handy for tests.
    pub fn apply_scalar(&self, x: f64) -> f64 {
        match self {
            Activation::Tanh => tanh_value(x),
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => sigmoid(x),
            Activation::Identity => x,
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl capes_persist::Persist for Activation {
    const MIN_SIZE: usize = 1;

    fn encode(&self, w: &mut capes_persist::Writer) {
        w.put_u8(match self {
            Activation::Tanh => 0,
            Activation::Relu => 1,
            Activation::Sigmoid => 2,
            Activation::Identity => 3,
        });
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        match r.get_u8()? {
            0 => Ok(Activation::Tanh),
            1 => Ok(Activation::Relu),
            2 => Ok(Activation::Sigmoid),
            3 => Ok(Activation::Identity),
            _ => Err(capes_persist::PersistError::BadValue {
                what: "unknown activation tag",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_derivative(a: Activation, x: f64) -> f64 {
        let h = 1e-6;
        (a.apply_scalar(x + h) - a.apply_scalar(x - h)) / (2.0 * h)
    }

    #[test]
    fn forward_known_values() {
        let z = Matrix::row_vector(&[-1.0, 0.0, 2.0]);
        assert!(Activation::Tanh.forward(&z).approx_eq(
            &Matrix::row_vector(&[(-1.0f64).tanh(), 0.0, 2.0f64.tanh()]),
            1e-12
        ));
        assert!(Activation::Relu
            .forward(&z)
            .approx_eq(&Matrix::row_vector(&[0.0, 0.0, 2.0]), 1e-12));
        assert!(Activation::Identity.forward(&z).approx_eq(&z, 1e-12));
        let sig = Activation::Sigmoid.forward(&z);
        assert!(sig.as_slice().iter().all(|&v| v > 0.0 && v < 1.0));
    }

    /// `upstream · σ'(x)` through the in-place backward kernel.
    fn analytic_derivative(a: Activation, x: f64, upstream: f64) -> f64 {
        let output = a.forward(&Matrix::row_vector(&[x]));
        let mut d = Matrix::row_vector(&[upstream]);
        a.apply_derivative_from_output(&output, &mut d);
        d[(0, 0)]
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let points = [-2.0, -0.5, 0.3, 1.7];
        for a in [Activation::Tanh, Activation::Sigmoid, Activation::Identity] {
            for &x in &points {
                for upstream in [1.0, -0.8] {
                    let analytic = analytic_derivative(a, x, upstream);
                    let numeric = upstream * numeric_derivative(a, x);
                    assert!(
                        (analytic - numeric).abs() < 1e-5,
                        "{a:?} at {x}: {analytic} vs {numeric}"
                    );
                }
            }
        }
        // ReLU away from the kink.
        for &x in &[-1.0, 1.0] {
            let analytic = analytic_derivative(Activation::Relu, x, 2.0);
            let numeric = 2.0 * numeric_derivative(Activation::Relu, x);
            assert!((analytic - numeric).abs() < 1e-5);
        }
    }

    #[test]
    fn tanh_derivative_bounded_by_one() {
        for x in [-5.0, -1.0, 0.0, 1.0, 5.0] {
            let d = analytic_derivative(Activation::Tanh, x, 1.0);
            assert!((0.0..=1.0).contains(&d));
        }
        assert_eq!(
            analytic_derivative(Activation::Tanh, 0.0, 1.0),
            1.0,
            "derivative at 0 is exactly 1"
        );
    }

    #[test]
    fn forward_into_matches_forward() {
        let z = Matrix::row_vector(&[-2.0, -0.5, 0.0, 0.7, 3.0]);
        for a in [
            Activation::Tanh,
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Identity,
        ] {
            let mut out = Matrix::filled(1, 5, f64::NAN);
            a.forward_into(&z, &mut out);
            assert!(out.approx_eq(&a.forward(&z), 1e-12), "{a:?}");
        }
    }

    #[test]
    fn persist_round_trip_and_unknown_tag() {
        use capes_persist::Persist;
        for a in [
            Activation::Tanh,
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Identity,
        ] {
            let mut w = capes_persist::Writer::new();
            a.encode(&mut w);
            let bytes = w.into_vec();
            let back = Activation::decode(&mut capes_persist::Reader::new(&bytes)).unwrap();
            assert_eq!(a, back);
        }
        assert!(Activation::decode(&mut capes_persist::Reader::new(&[4])).is_err());
    }
}
