//! Reusable per-batch buffers for allocation-free training.
//!
//! A [`Workspace`] owns every intermediate of a training step (per-layer
//! pre-activations, activations, output-gradient buffers and parameter
//! gradients), sized once for a given network architecture and batch shape;
//! [`crate::Mlp::forward_into`] and [`crate::Mlp::backward_into`] then run
//! entirely inside it.

use crate::{LayerGrads, Mlp, MlpGrads};
use capes_tensor::Matrix;

/// Pre-sized buffers for one network architecture and batch size.
#[derive(Debug, Clone)]
pub struct Workspace {
    batch: usize,
    /// Pre-activations `z_i = x_i · W_i + b_i`, one per layer.
    pub(crate) preacts: Vec<Matrix>,
    /// Activations `a_i = σ(z_i)`, one per layer; the last is the output.
    pub(crate) acts: Vec<Matrix>,
    /// Gradients w.r.t. each layer's output (consumed in place as the
    /// gradient w.r.t. its pre-activation during the backward sweep).
    pub(crate) deltas: Vec<Matrix>,
    /// Parameter gradients, one [`LayerGrads`] per layer.
    pub(crate) grads: MlpGrads,
}

impl Workspace {
    /// Allocates buffers matching `network`'s layer widths for `batch` rows.
    pub fn new(network: &Mlp, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        let layers = network.layers();
        let mut preacts = Vec::with_capacity(layers.len());
        let mut acts = Vec::with_capacity(layers.len());
        let mut deltas = Vec::with_capacity(layers.len());
        let mut grads = Vec::with_capacity(layers.len());
        for l in layers {
            let width = l.output_dim();
            preacts.push(Matrix::zeros(batch, width));
            acts.push(Matrix::zeros(batch, width));
            deltas.push(Matrix::zeros(batch, width));
            grads.push(LayerGrads {
                d_weights: Matrix::zeros(l.input_dim(), width),
                d_bias: Matrix::zeros(1, width),
            });
        }
        Workspace {
            batch,
            preacts,
            acts,
            deltas,
            grads,
        }
    }

    /// Allocates forward-only buffers: per-layer pre-activations and
    /// activations, but no backward-pass deltas or parameter gradients —
    /// roughly the model size again in savings. [`crate::Mlp::forward_into`]
    /// runs entirely inside such a workspace (this is what the DQN decision
    /// paths use); calling [`crate::Mlp::backward_into`] on one panics.
    pub fn new_inference(network: &Mlp, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        let layers = network.layers();
        let mut preacts = Vec::with_capacity(layers.len());
        let mut acts = Vec::with_capacity(layers.len());
        for l in layers {
            let width = l.output_dim();
            preacts.push(Matrix::zeros(batch, width));
            acts.push(Matrix::zeros(batch, width));
        }
        Workspace {
            batch,
            preacts,
            acts,
            deltas: Vec::new(),
            grads: Vec::new(),
        }
    }

    /// Re-allocates only if the network architecture or batch size no longer
    /// matches; the steady-state call is a cheap shape comparison. An
    /// inference-only workspace ([`Workspace::new_inference`]) is rebuilt as
    /// inference-only.
    pub(crate) fn ensure(&mut self, network: &Mlp, batch: usize) {
        if !self.matches(network, batch) {
            *self = if self.grads.is_empty() && !self.acts.is_empty() {
                Workspace::new_inference(network, batch)
            } else {
                Workspace::new(network, batch)
            };
        }
    }

    /// `true` if the buffers fit `network` at `batch` rows (for an
    /// inference-only workspace, "fit" covers the forward pass only).
    pub fn matches(&self, network: &Mlp, batch: usize) -> bool {
        let layers = network.layers();
        self.batch == batch
            && self.acts.len() == layers.len()
            && layers
                .iter()
                .zip(&self.acts)
                .all(|(l, a)| a.cols() == l.output_dim())
            && layers.iter().zip(&self.grads).all(|(l, g)| {
                g.d_weights.shape() == l.weights.shape() && g.d_bias.shape() == l.bias.shape()
            })
    }

    /// `true` if this workspace also carries the backward-pass buffers.
    pub(crate) fn supports_backward(&self) -> bool {
        !self.grads.is_empty()
    }

    /// Network output of the last [`crate::Mlp::forward_into`] call.
    pub fn output(&self) -> &Matrix {
        self.acts.last().expect("workspace has at least one layer")
    }

    /// Mutable gradient-of-the-loss buffer w.r.t. the network output. Fill
    /// this before calling [`crate::Mlp::backward_into`].
    pub fn output_delta_mut(&mut self) -> &mut Matrix {
        self.deltas
            .last_mut()
            .expect("workspace has at least one layer")
    }

    /// Simultaneous access to the network output and the output-gradient
    /// buffer, for computing a loss gradient straight into the workspace.
    pub fn output_and_delta_mut(&mut self) -> (&Matrix, &mut Matrix) {
        let last = self.acts.len() - 1;
        (&self.acts[last], &mut self.deltas[last])
    }

    /// Parameter gradients produced by the last
    /// [`crate::Mlp::backward_into`] call, ordered input → output.
    pub fn grads(&self) -> &MlpGrads {
        &self.grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net() -> Mlp {
        let mut rng = StdRng::seed_from_u64(3);
        Mlp::new(&[4, 6, 2], &mut rng)
    }

    #[test]
    fn buffers_match_network_shapes() {
        let n = net();
        let ws = Workspace::new(&n, 5);
        assert_eq!(ws.batch, 5);
        assert_eq!(ws.output().shape(), (5, 2));
        assert_eq!(ws.grads().len(), 2);
        assert_eq!(ws.grads()[0].d_weights.shape(), (4, 6));
        assert_eq!(ws.grads()[1].d_bias.shape(), (1, 2));
        assert!(ws.matches(&n, 5));
        assert!(!ws.matches(&n, 6));
    }

    #[test]
    fn ensure_is_a_no_op_for_matching_shapes() {
        let n = net();
        let mut ws = Workspace::new(&n, 3);
        let before = ws.output() as *const Matrix;
        ws.ensure(&n, 3);
        assert_eq!(before, ws.output() as *const Matrix);
        ws.ensure(&n, 8);
        assert_eq!(ws.batch, 8);
        assert_eq!(ws.output().shape(), (8, 2));
    }

    #[test]
    fn ensure_rebuilds_for_a_different_architecture() {
        let mut rng = StdRng::seed_from_u64(4);
        let small = net();
        let wide = Mlp::new(&[4, 10, 2], &mut rng);
        let mut ws = Workspace::new(&small, 3);
        assert!(!ws.matches(&wide, 3));
        ws.ensure(&wide, 3);
        assert!(ws.matches(&wide, 3));
        assert_eq!(ws.grads()[0].d_weights.shape(), (4, 10));
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_rejected() {
        let _ = Workspace::new(&net(), 0);
    }

    #[test]
    fn inference_workspace_forwards_without_backward_buffers() {
        let n = net();
        let mut ws = Workspace::new_inference(&n, 3);
        assert!(ws.matches(&n, 3));
        assert!(!ws.supports_backward());
        let full = Workspace::new(&n, 3);
        assert!(full.supports_backward());
        let x = Matrix::filled(3, 4, 1.0);
        let out = n.forward_into(&x, &mut ws).clone();
        let mut reference = Workspace::new(&n, 3);
        assert!(out.approx_eq(n.forward_into(&x, &mut reference), 1e-15));
        // `ensure` keeps an inference workspace inference-only across
        // resizes.
        ws.ensure(&n, 8);
        assert_eq!(ws.batch, 8);
        assert!(!ws.supports_backward());
        // A different architecture at equal batch/layer count must not match
        // (the grads check is vacuous for inference workspaces, so the
        // activation widths carry the architecture check).
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let wide = Mlp::new(&[4, 10, 2], &mut rng);
        assert!(!ws.matches(&wide, 8));
    }

    #[test]
    #[should_panic(expected = "inference-only workspace")]
    fn backward_into_rejects_inference_workspace() {
        let n = net();
        let mut ws = Workspace::new_inference(&n, 2);
        let x = Matrix::filled(2, 4, 1.0);
        n.forward_into(&x, &mut ws);
        n.backward_into(&x, &mut ws);
    }
}
