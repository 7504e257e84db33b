//! Fully-connected (dense) layer with an optional activation.

use crate::Activation;
use capes_tensor::{Matrix, WeightInit};
use rand::Rng;

/// Gradients of a [`Dense`] layer produced by one backward pass.
#[derive(Debug, Clone, PartialEq)]
// capes-check: allow(dead-pub) -- the gradient type of the public `Optimizer::step` and `Workspace::grads`
pub struct LayerGrads {
    /// Gradient of the loss with respect to the weight matrix.
    pub d_weights: Matrix,
    /// Gradient of the loss with respect to the bias row vector.
    pub d_bias: Matrix,
}

/// A fully-connected layer computing `activation(x · W + b)`.
///
/// The layer holds parameters only: training and action selection run
/// `Dense::forward_into` (and training `Dense::backward_into`) against
/// caller-owned intermediates (see [`crate::Workspace`]).
#[derive(Debug, Clone)]
// capes-check: allow(dead-pub) -- the element type of the public `Mlp::layers`
pub struct Dense {
    /// Weight matrix of shape `(input_dim, output_dim)`.
    pub weights: Matrix,
    /// Bias row vector of shape `(1, output_dim)`.
    pub bias: Matrix,
    /// Activation applied to the affine output.
    pub(crate) activation: Activation,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights (appropriate for the
    /// tanh layers the CAPES network uses) and zero biases.
    pub(crate) fn new<R: Rng + ?Sized>(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        Dense {
            weights: Matrix::random_init(input_dim, output_dim, WeightInit::XavierUniform, rng),
            bias: Matrix::zeros(1, output_dim),
            activation,
        }
    }

    /// Builds a layer from explicit parameters (used by checkpoint loading and
    /// tests).
    pub(crate) fn from_parameters(weights: Matrix, bias: Matrix, activation: Activation) -> Self {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(
            bias.cols(),
            weights.cols(),
            "bias width must match weight output dimension"
        );
        Dense {
            weights,
            bias,
            activation,
        }
    }

    /// Input dimensionality.
    pub(crate) fn input_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Number of trainable scalars in the layer.
    pub(crate) fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Allocation-free forward pass writing the pre-activation into `preact`
    /// and the activated output into `out` (both `batch × output_dim`).
    pub(crate) fn forward_into(&self, x: &Matrix, preact: &mut Matrix, out: &mut Matrix) {
        assert_eq!(
            x.cols(),
            self.input_dim(),
            "input width {} does not match layer input dim {}",
            x.cols(),
            self.input_dim()
        );
        x.affine_into(&self.weights, &self.bias, preact);
        self.activation.forward_into(preact, out);
    }

    /// Allocation-free backward pass against caller-owned buffers.
    ///
    /// * `input` / `output` are the values seen during the matching
    ///   [`Dense::forward_into`] call;
    /// * `d_out` holds `∂L/∂output` on entry and is overwritten in place with
    ///   `∂L/∂z` (the pre-activation gradient);
    /// * the parameter gradients are written into `grads`;
    /// * `∂L/∂input` is written into `d_input` when provided — the first
    ///   layer of a network can pass `None` and skip that GEMM entirely.
    pub(crate) fn backward_into(
        &self,
        input: &Matrix,
        output: &Matrix,
        d_out: &mut Matrix,
        d_input: Option<&mut Matrix>,
        grads: &mut LayerGrads,
    ) {
        assert_eq!(
            d_out.shape(),
            (input.rows(), self.output_dim()),
            "gradient shape mismatch"
        );
        // dL/dz = dL/dout ⊙ σ'(z), with σ' expressed in the output.
        self.activation.apply_derivative_from_output(output, d_out);
        // dL/dW = xᵀ · dz ; dL/db = Σ_batch dz ; dL/dx = dz · Wᵀ
        input.matmul_transpose_a_into(d_out, &mut grads.d_weights);
        d_out.sum_rows_into(&mut grads.d_bias);
        if let Some(di) = d_input {
            d_out.matmul_transpose_b_into(&self.weights, di);
        }
    }
}

impl capes_persist::Persist for Dense {
    // weights + bias (matrices) + activation tag.
    const MIN_SIZE: usize = 49;

    fn encode(&self, w: &mut capes_persist::Writer) {
        self.weights.encode(w);
        self.bias.encode(w);
        self.activation.encode(w);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        let weights = Matrix::decode(r)?;
        let bias = Matrix::decode(r)?;
        let activation = Activation::decode(r)?;
        // The `from_parameters` invariants, as typed errors instead of
        // panics: corrupt input must never abort the process.
        if bias.rows() != 1 || bias.cols() != weights.cols() {
            return Err(capes_persist::PersistError::BadValue {
                what: "dense bias shape disagrees with its weights",
            });
        }
        Ok(Dense::from_parameters(weights, bias, activation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer(input: usize, output: usize, act: Activation) -> Dense {
        layer_seeded(input, output, act, 42)
    }

    fn layer_seeded(input: usize, output: usize, act: Activation, seed: u64) -> Dense {
        let mut rng = StdRng::seed_from_u64(seed);
        Dense::new(input, output, act, &mut rng)
    }

    /// `Σ forward_into(x)`: the loss whose `∂L/∂output` is all ones.
    fn output_sum(l: &Dense, x: &Matrix) -> f64 {
        let mut preact = Matrix::zeros(x.rows(), l.output_dim());
        let mut out = Matrix::zeros(x.rows(), l.output_dim());
        l.forward_into(x, &mut preact, &mut out);
        out.sum()
    }

    /// One `forward_into` + `backward_into` round on fresh buffers:
    /// `(output, d_input, grads)`.
    fn forward_backward(l: &Dense, x: &Matrix, d_out: &Matrix) -> (Matrix, Matrix, LayerGrads) {
        let mut preact = Matrix::zeros(x.rows(), l.output_dim());
        let mut out = Matrix::zeros(x.rows(), l.output_dim());
        l.forward_into(x, &mut preact, &mut out);
        let mut dz = d_out.clone();
        let mut dx = Matrix::zeros(x.rows(), l.input_dim());
        let mut grads = LayerGrads {
            d_weights: Matrix::zeros(l.input_dim(), l.output_dim()),
            d_bias: Matrix::zeros(1, l.output_dim()),
        };
        l.backward_into(x, &out, &mut dz, Some(&mut dx), &mut grads);
        (out, dx, grads)
    }

    #[test]
    fn forward_shapes() {
        let l = layer(4, 3, Activation::Tanh);
        let x = Matrix::filled(5, 4, 1.0);
        let (y, dx, _) = forward_backward(&l, &x, &Matrix::filled(5, 3, 1.0));
        assert_eq!(y.shape(), (5, 3));
        assert_eq!(dx.shape(), (5, 4));
        assert_eq!(l.input_dim(), 4);
        assert_eq!(l.output_dim(), 3);
        assert_eq!(l.parameter_count(), 4 * 3 + 3);
    }

    #[test]
    fn identity_layer_is_affine() {
        let w = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let l = Dense::from_parameters(w, b, Activation::Identity);
        let x = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        let (y, _, _) = forward_backward(&l, &x, &Matrix::filled(1, 2, 1.0));
        assert!(y.approx_eq(&Matrix::from_vec(1, 2, vec![4.0, 7.0]), 1e-12));
    }

    #[test]
    fn backward_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut l = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::from_vec(2, 3, vec![0.5, -0.3, 0.8, 0.1, 0.9, -0.7]);
        // Loss = sum of outputs, so d_out = ones.
        let (_, _dx, grads) = forward_backward(&l, &x, &Matrix::filled(2, 2, 1.0));

        let h = 1e-6;
        for r in 0..3 {
            for c in 0..2 {
                let orig = l.weights[(r, c)];
                l.weights[(r, c)] = orig + h;
                let plus = output_sum(&l, &x);
                l.weights[(r, c)] = orig - h;
                let minus = output_sum(&l, &x);
                l.weights[(r, c)] = orig;
                let numeric = (plus - minus) / (2.0 * h);
                assert!(
                    (grads.d_weights[(r, c)] - numeric).abs() < 1e-5,
                    "dW[{r},{c}]: analytic {} vs numeric {}",
                    grads.d_weights[(r, c)],
                    numeric
                );
            }
        }
        for c in 0..2 {
            let orig = l.bias[(0, c)];
            l.bias[(0, c)] = orig + h;
            let plus = output_sum(&l, &x);
            l.bias[(0, c)] = orig - h;
            let minus = output_sum(&l, &x);
            l.bias[(0, c)] = orig;
            let numeric = (plus - minus) / (2.0 * h);
            assert!((grads.d_bias[(0, c)] - numeric).abs() < 1e-5);
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(8);
        let l = Dense::new(3, 4, Activation::Tanh, &mut rng);
        let mut x = Matrix::from_vec(1, 3, vec![0.2, -0.1, 0.6]);
        let (_, dx, _) = forward_backward(&l, &x, &Matrix::filled(1, 4, 1.0));
        let h = 1e-6;
        for c in 0..3 {
            let orig = x[(0, c)];
            x[(0, c)] = orig + h;
            let plus = output_sum(&l, &x);
            x[(0, c)] = orig - h;
            let minus = output_sum(&l, &x);
            x[(0, c)] = orig;
            let numeric = (plus - minus) / (2.0 * h);
            assert!((dx[(0, c)] - numeric).abs() < 1e-5);
        }
    }
}
