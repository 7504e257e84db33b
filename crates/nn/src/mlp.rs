//! Multi-layered perceptron: the network class used for the CAPES Q-network.

use crate::{Activation, Dense, LayerGrads, Workspace};
use capes_tensor::Matrix;
use rand::Rng;

/// Gradients for every layer of an [`Mlp`], ordered input → output.
pub(crate) type MlpGrads = Vec<LayerGrads>;

/// A feed-forward multi-layered perceptron.
///
/// `Mlp::new(&[in, h1, h2, out], rng)` builds the exact topology the paper
/// describes in §3.4: every hidden layer is tanh and the final layer is
/// linear ("a fully-connected linear layer with a single output for each
/// valid action").
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP from a list of layer widths.
    ///
    /// `dims[0]` is the input width, `dims.last()` the output width; every
    /// intermediate entry creates a `tanh` hidden layer. The
    /// output layer is always linear (identity).
    ///
    /// # Panics
    /// Panics if fewer than two widths are given.
    pub fn new<R: Rng + ?Sized>(dims: &[usize], rng: &mut R) -> Self {
        assert!(dims.len() >= 2, "need at least input and output widths");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let is_output = i == dims.len() - 2;
            let act = if is_output {
                Activation::Identity
            } else {
                Activation::Tanh
            };
            layers.push(Dense::new(dims[i], dims[i + 1], act, rng));
        }
        Mlp { layers }
    }

    /// Builds the canonical CAPES Q-network: `input → input (tanh) → input
    /// (tanh) → actions (linear)`, i.e. two hidden layers "of the same size as
    /// the input array" (Table 1).
    pub fn capes_q_network<R: Rng + ?Sized>(
        input_dim: usize,
        num_actions: usize,
        rng: &mut R,
    ) -> Self {
        Self::new(&[input_dim, input_dim, input_dim, num_actions], rng)
    }

    /// Read-only access to the layers.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable access to the layers (used by optimizers).
    // capes-check: allow(dead-pub) -- the reference step of capes-drl's tests/fused_step.rs
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Input width expected by the network.
    pub fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    /// Output width produced by the network.
    pub fn output_dim(&self) -> usize {
        self.layers.last().unwrap().output_dim()
    }

    /// Total number of trainable scalars.
    pub(crate) fn parameter_count(&self) -> usize {
        self.layers.iter().map(Dense::parameter_count).sum()
    }

    /// Approximate in-memory size of the model in bytes (used to report the
    /// "size of the DNN model" row of Table 2).
    pub fn model_size_bytes(&self) -> usize {
        self.parameter_count() * std::mem::size_of::<f64>()
    }

    /// Shapes of every trainable parameter matrix, ordered as the optimizer
    /// will see gradients: `(weights, bias)` per layer.
    pub fn parameter_shapes(&self) -> Vec<(usize, usize)> {
        let mut shapes = Vec::with_capacity(self.layers.len() * 2);
        for l in &self.layers {
            shapes.push(l.weights.shape());
            shapes.push(l.bias.shape());
        }
        shapes
    }

    /// Allocation-free forward pass through a [`Workspace`], which is resized
    /// on the fly if the batch shape changed. Works on `&self`, so it serves
    /// training, target-network inference and action selection alike.
    /// Returns the network output, which lives in the workspace.
    pub fn forward_into<'w>(&self, x: &Matrix, ws: &'w mut Workspace) -> &'w Matrix {
        ws.ensure(self, x.rows());
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = ws.acts.split_at_mut(i);
            let input: &Matrix = if i == 0 { x } else { &done[i - 1] };
            layer.forward_into(input, &mut ws.preacts[i], &mut rest[0]);
        }
        ws.output()
    }

    /// Allocation-free backward pass through a [`Workspace`].
    ///
    /// The caller must have run [`Mlp::forward_into`] on the same workspace
    /// with the same `x`, and written the gradient of the loss with respect
    /// to the network output into [`Workspace::output_delta_mut`]. The
    /// per-layer parameter gradients are left in [`Workspace::grads`]. The
    /// input gradient of the first layer is not computed (no caller needs
    /// `∂L/∂x` during training).
    ///
    /// # Panics
    /// Panics if the workspace shapes do not match the network and `x`.
    pub fn backward_into(&self, x: &Matrix, ws: &mut Workspace) {
        assert!(
            ws.matches(self, x.rows()),
            "workspace does not match the network/batch; run forward_into first"
        );
        assert!(
            ws.supports_backward(),
            "inference-only workspace cannot run backward_into (built with Workspace::new_inference)"
        );
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let input: &Matrix = if i == 0 { x } else { &ws.acts[i - 1] };
            let output = &ws.acts[i];
            let (before, rest) = ws.deltas.split_at_mut(i);
            let d_out = &mut rest[0];
            let d_input = if i == 0 {
                None
            } else {
                Some(&mut before[i - 1])
            };
            layer.backward_into(input, output, d_out, d_input, &mut ws.grads[i]);
        }
    }

    /// Euclidean distance between this network's parameters and `other`'s
    /// (useful for tests and for monitoring target-network lag).
    // capes-check: allow(dead-pub) -- the target-lag measure of crates/drl/tests/fused_step.rs
    pub fn parameter_distance(&self, other: &Mlp) -> f64 {
        assert_eq!(self.layers.len(), other.layers.len());
        let mut acc = 0.0;
        for (a, b) in self.layers.iter().zip(other.layers.iter()) {
            let dw = a.weights.sub(&b.weights);
            let db = a.bias.sub(&b.bias);
            acc += dw.frobenius_norm().powi(2) + db.frobenius_norm().powi(2);
        }
        acc.sqrt()
    }

    /// `true` if every parameter of the network is finite.
    pub fn is_finite(&self) -> bool {
        self.layers
            .iter()
            .all(|l| l.weights.all_finite() && l.bias.all_finite())
    }
}

impl capes_persist::Persist for Mlp {
    const MIN_SIZE: usize = 8;

    fn encode(&self, w: &mut capes_persist::Writer) {
        self.layers.encode(w);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        let layers = Vec::<Dense>::decode(r)?;
        // A decoded network must chain: at least one layer, and each
        // layer's output feeds the next layer's input.
        if layers.is_empty() {
            return Err(capes_persist::PersistError::BadValue {
                what: "MLP with no layers",
            });
        }
        if layers
            .windows(2)
            .any(|pair| pair[0].output_dim() != pair[1].input_dim())
        {
            return Err(capes_persist::PersistError::BadValue {
                what: "adjacent MLP layer dimensions disagree",
            });
        }
        Ok(Mlp { layers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net() -> Mlp {
        let mut rng = StdRng::seed_from_u64(11);
        Mlp::new(&[5, 8, 8, 3], &mut rng)
    }

    #[test]
    fn topology() {
        let n = net();
        assert_eq!(n.input_dim(), 5);
        assert_eq!(n.output_dim(), 3);
        assert_eq!(n.layers().len(), 3);
        assert_eq!(n.layers()[2].activation, Activation::Identity);
        assert_eq!(n.layers()[0].activation, Activation::Tanh);
        assert_eq!(n.parameter_count(), (5 * 8 + 8) + (8 * 8 + 8) + (8 * 3 + 3));
        assert_eq!(n.model_size_bytes(), n.parameter_count() * 8);
        assert_eq!(n.parameter_shapes().len(), 6);
    }

    #[test]
    fn capes_q_network_shape_matches_table_1() {
        let mut rng = StdRng::seed_from_u64(3);
        // Paper: hidden layer size 600 = input size; 5 actions for 2 params.
        let q = Mlp::capes_q_network(600, 5, &mut rng);
        assert_eq!(q.input_dim(), 600);
        assert_eq!(q.output_dim(), 5);
        assert_eq!(q.layers().len(), 3);
        assert_eq!(q.layers()[0].output_dim(), 600);
        assert_eq!(q.layers()[1].output_dim(), 600);
    }

    #[test]
    fn backward_produces_gradients_for_every_layer() {
        let n = net();
        let x = Matrix::filled(4, 5, 1.0);
        let mut ws = Workspace::new(&n, 4);
        n.forward_into(&x, &mut ws);
        ws.output_delta_mut().copy_from(&Matrix::filled(4, 3, 1.0));
        n.backward_into(&x, &mut ws);
        assert_eq!(ws.grads().len(), 3);
        for (g, l) in ws.grads().iter().zip(n.layers()) {
            assert_eq!(g.d_weights.shape(), l.weights.shape());
            assert_eq!(g.d_bias.shape(), l.bias.shape());
            assert!(
                g.d_weights.frobenius_norm() > 0.0,
                "gradient reached the layer"
            );
        }
    }

    #[test]
    fn workspace_forward_resizes_for_new_batch_shapes() {
        let n = net();
        let mut ws = Workspace::new(&n, 2);
        let out = n.forward_into(&Matrix::filled(4, 5, 1.0), &mut ws);
        assert_eq!(out.shape(), (4, 3));
    }

    #[test]
    fn finiteness_check() {
        let mut n = net();
        assert!(n.is_finite());
        n.layers_mut()[0].weights[(0, 0)] = f64::NAN;
        assert!(!n.is_finite());
    }

    #[test]
    fn persist_round_trip_preserves_predictions() {
        use capes_persist::Persist;
        let n = net();
        let x = Matrix::from_vec(1, 5, vec![0.3, -0.2, 0.5, 0.7, -0.9]);
        let mut w = capes_persist::Writer::new();
        n.encode(&mut w);
        let bytes = w.into_vec();
        let mut r = capes_persist::Reader::new(&bytes);
        let back = Mlp::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.parameter_distance(&n), 0.0);
        let mut ws = Workspace::new_inference(&n, 1);
        let before = n.forward_into(&x, &mut ws).clone();
        assert_eq!(*back.forward_into(&x, &mut ws), before);
    }
}
