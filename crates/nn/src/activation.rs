//! Element-wise activation functions and their derivatives.
//!
//! The tanh paths route through the `CAPES_SIMD`-dispatched kernels in
//! [`capes_tensor::simd`], which are bit-identical across dispatch levels —
//! toggling the SIMD switch never changes a forward pass or a gradient.

use capes_tensor::simd::{tanh_backward, tanh_forward};
use capes_tensor::Matrix;

/// Activation functions supported by [`crate::Dense`] layers.
///
/// The CAPES paper uses `Tanh` for the two hidden layers and `Identity`
/// (a plain fully-connected linear layer) for the Q-value output head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Hyperbolic tangent — the paper's choice for hidden layers.
    Tanh,
    /// No nonlinearity (linear layer) — used for the output head.
    Identity,
}

impl Activation {
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
            Activation::Tanh => tanh_forward(src, dst),
            Activation::Identity => dst.copy_from_slice(src),
        }
    }

    /// In-place backward kernel: `d ⊙= σ'`, with the derivative expressed as
    /// a function of the activation **output** `a = σ(z)` rather than the
    /// pre-activation (`1 − a²` for tanh), which saves re-evaluating the
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
        match self {
            Activation::Tanh => tanh_backward(output.as_slice(), d.as_mut_slice()),
            Activation::Identity => {}
        }
    }
}

impl capes_persist::Persist for Activation {
    const MIN_SIZE: usize = 1;

    fn encode(&self, w: &mut capes_persist::Writer) {
        // Tags 1 and 2 belonged to retired activations; they stay unused so
        // no old file decodes as a different network.
        w.put_u8(match self {
            Activation::Tanh => 0,
            Activation::Identity => 3,
        });
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        match r.get_u8()? {
            0 => Ok(Activation::Tanh),
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
    use capes_persist::{PersistError, Reader};
    use capes_tensor::simd::tanh_value;

    fn forward(a: Activation, z: &Matrix) -> Matrix {
        let mut out = Matrix::filled(z.rows(), z.cols(), f64::NAN);
        a.forward_into(z, &mut out);
        out
    }

    #[test]
    fn forward_known_values() {
        let z = Matrix::row_vector(&[-1.0, 0.0, 2.0]);
        assert!(forward(Activation::Tanh, &z).approx_eq(
            &Matrix::row_vector(&[(-1.0f64).tanh(), 0.0, 2.0f64.tanh()]),
            1e-12
        ));
        assert_eq!(forward(Activation::Identity, &z), z);
    }

    /// `upstream · σ'(x)` through the in-place backward kernel.
    fn analytic_derivative(a: Activation, x: f64, upstream: f64) -> f64 {
        let output = forward(a, &Matrix::row_vector(&[x]));
        let mut d = Matrix::row_vector(&[upstream]);
        a.apply_derivative_from_output(&output, &mut d);
        d[(0, 0)]
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for (a, f) in [
            (Activation::Tanh, tanh_value as fn(f64) -> f64),
            (Activation::Identity, |x| x),
        ] {
            for x in [-2.0, -0.5, 0.3, 1.7] {
                for upstream in [1.0, -0.8] {
                    let analytic = analytic_derivative(a, x, upstream);
                    let numeric = upstream * (f(x + h) - f(x - h)) / (2.0 * h);
                    assert!(
                        (analytic - numeric).abs() < 1e-5,
                        "{a:?} at {x}: {analytic} vs {numeric}"
                    );
                }
            }
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
    fn persist_round_trip_keeps_tags_0_and_3() {
        use capes_persist::Persist;
        for (a, tag) in [(Activation::Tanh, 0u8), (Activation::Identity, 3)] {
            let mut w = capes_persist::Writer::new();
            a.encode(&mut w);
            let bytes = w.into_vec();
            assert_eq!(bytes, [tag]);
            assert_eq!(Activation::decode(&mut Reader::new(&bytes)).unwrap(), a);
        }
    }

    #[test]
    fn retired_and_unknown_tags_are_typed_errors() {
        use capes_persist::Persist;
        for tag in [1u8, 2, 4, 255] {
            assert!(
                matches!(
                    Activation::decode(&mut Reader::new(&[tag])),
                    Err(PersistError::BadValue { .. })
                ),
                "tag {tag}"
            );
        }
    }
}
