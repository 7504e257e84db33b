//! The Q-network wrapper: observation in, one Q-value per action out.
//!
//! The paper chooses the "single forward pass produces the Q-value of every
//! action" formulation (§3.4) because its cost does not grow with the number
//! of candidate actions, and parameterises the network as a two-hidden-layer
//! tanh MLP whose hidden layers are as wide as the input (Table 1).

use capes_nn::{Mlp, Workspace};
use capes_tensor::Matrix;
use rand::Rng;

/// Index of the maximal entry of `row` of a Q-value matrix, with
/// `Iterator::max_by`'s tie-breaking (when several entries compare equal, the
/// last one wins). Shared by the single-decision and batched-decision paths
/// so they pick identical actions.
// capes-check: allow(dead-pub) -- the greedy-action check of capes-fleet's tests/model_checkpoint.rs
pub fn best_action_in_row(q: &Matrix, row: usize) -> usize {
    let values = q.row(row);
    let mut best = 0usize;
    for (j, v) in values.iter().enumerate().skip(1) {
        let cmp = values[best]
            .partial_cmp(v)
            .unwrap_or(std::cmp::Ordering::Equal);
        if cmp != std::cmp::Ordering::Greater {
            best = j;
        }
    }
    best
}

/// A Q-network: maps a flattened observation to a vector of Q-values, one per
/// action.
#[derive(Debug, Clone)]
pub struct QNetwork {
    network: Mlp,
}

impl QNetwork {
    /// Builds the paper's architecture: `input → input (tanh) → input (tanh)
    /// → num_actions (linear)`.
    pub fn new<R: Rng + ?Sized>(observation_size: usize, num_actions: usize, rng: &mut R) -> Self {
        assert!(observation_size > 0 && num_actions > 0);
        QNetwork {
            network: Mlp::capes_q_network(observation_size, num_actions, rng),
        }
    }

    /// The underlying MLP (read access).
    pub fn mlp(&self) -> &Mlp {
        &self.network
    }

    /// The underlying MLP (mutable access, used by the trainer/optimizer).
    pub(crate) fn mlp_mut(&mut self) -> &mut Mlp {
        &mut self.network
    }

    /// Observation width the network expects.
    pub fn observation_size(&self) -> usize {
        self.network.input_dim()
    }

    /// Number of actions (output neurons).
    pub(crate) fn num_actions(&self) -> usize {
        self.network.output_dim()
    }

    /// Q-values of every action for each observation row: one allocation-free
    /// forward pass through a caller-owned [`Workspace`]. This is the only
    /// inference path, behind both [`crate::DqnAgent::decide`] and
    /// [`crate::DqnAgent::decide_batch`]; the returned matrix lives in the
    /// workspace, and [`best_action_in_row`] picks a row's greedy action.
    ///
    /// # Panics
    /// Panics if the column count differs from the network's input width.
    // capes-check: allow(dead-pub) -- the Q-value compare of capes-fleet's tests/model_checkpoint.rs
    pub fn q_values_into<'w>(&self, observations: &Matrix, ws: &'w mut Workspace) -> &'w Matrix {
        assert_eq!(
            observations.cols(),
            self.observation_size(),
            "observation width {} does not match the network input {}",
            observations.cols(),
            self.observation_size()
        );
        self.network.forward_into(observations, ws)
    }

    /// In-memory model size in bytes (the Table-2 "size of the DNN model" row).
    pub fn model_size_bytes(&self) -> usize {
        self.network.model_size_bytes()
    }
}

impl capes_persist::Persist for QNetwork {
    const MIN_SIZE: usize = <Mlp as capes_persist::Persist>::MIN_SIZE;

    fn encode(&self, w: &mut capes_persist::Writer) {
        self.network.encode(w);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        Ok(QNetwork {
            network: Mlp::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capes_replay::Observation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn obs(values: &[f64]) -> Observation {
        Observation {
            tick: 0,
            features: Matrix::from_vec(1, values.len(), values.to_vec()),
        }
    }

    #[test]
    fn paper_architecture_dimensions() {
        let mut rng = StdRng::seed_from_u64(1);
        let q = QNetwork::new(40, 5, &mut rng);
        assert_eq!(q.observation_size(), 40);
        assert_eq!(q.num_actions(), 5);
        // 2 hidden layers of the input width plus the linear head.
        assert_eq!(q.mlp().layers().len(), 3);
        assert_eq!(q.mlp().layers()[0].output_dim(), 40);
        assert_eq!(q.mlp().layers()[1].output_dim(), 40);
        assert!(q.model_size_bytes() > 0);
    }

    #[test]
    fn q_values_and_best_action_are_consistent() {
        let mut rng = StdRng::seed_from_u64(2);
        let q = QNetwork::new(6, 5, &mut rng);
        let o = obs(&[0.1, -0.2, 0.3, 0.0, 0.5, -0.4]);
        let mut ws = Workspace::new_inference(q.mlp(), 1);
        let values = q.q_values_into(&o.features, &mut ws);
        assert_eq!(values.shape(), (1, 5));
        let best = best_action_in_row(values, 0);
        let max = values
            .row(0)
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(values[(0, best)], max);
    }

    #[test]
    fn batch_forward_matches_single_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let q = QNetwork::new(4, 3, &mut rng);
        let a = obs(&[0.1, 0.2, 0.3, 0.4]);
        let b = obs(&[-0.5, 0.0, 0.5, 1.0]);
        let batch = Matrix::from_vec(
            2,
            4,
            [a.features.as_slice(), b.features.as_slice()].concat(),
        );
        let batch_q = q
            .q_values_into(&batch, &mut Workspace::new_inference(q.mlp(), 2))
            .clone();
        let mut single = Workspace::new_inference(q.mlp(), 1);
        // A batched row is bit-identical to the same row forwarded alone.
        assert_eq!(
            q.q_values_into(&a.features, &mut single).row(0),
            batch_q.row(0)
        );
        assert_eq!(
            q.q_values_into(&b.features, &mut single).row(0),
            batch_q.row(1)
        );
    }

    #[test]
    fn best_action_in_row_breaks_ties_like_max_by() {
        let q = Matrix::from_vec(2, 4, vec![1.0, 3.0, 3.0, 2.0, 5.0, 5.0, 5.0, 5.0]);
        // Iterator::max_by keeps the last of equal maxima.
        assert_eq!(best_action_in_row(&q, 0), 2);
        assert_eq!(best_action_in_row(&q, 1), 3);
    }

    #[test]
    #[should_panic(expected = "does not match the network input")]
    fn wrong_observation_width_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let q = QNetwork::new(4, 3, &mut rng);
        let mut ws = Workspace::new_inference(q.mlp(), 1);
        let _ = q.q_values_into(&obs(&[1.0, 2.0]).features, &mut ws);
    }
}
