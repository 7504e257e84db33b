//! The deep Q-learning training step (paper §3.4, Equation 1).
//!
//! Each step samples a minibatch of transitions from the Replay DB, computes
//! the Bellman targets with the slowly-updated target network, minimises the
//! mean-squared prediction error with Adam, and soft-updates the target
//! network: `θ⁻ ← θ⁻ (1 − α) + θ α`.

use crate::qnet::QNetwork;
use capes_nn::{Adam, Workspace};
use capes_replay::ReplayBatch;
use capes_telemetry::names;
use capes_tensor::simd;

/// Hyperparameters of the training step (defaults follow Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// Discount rate γ (paper: 0.99).
    pub discount_rate: f64,
    /// Adam learning rate (paper: 1e-4).
    pub learning_rate: f64,
    /// Target-network update rate α (paper: 0.01).
    pub target_update_rate: f64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            discount_rate: 0.99,
            learning_rate: 1e-4,
            target_update_rate: 0.01,
        }
    }
}

impl TrainerConfig {
    /// Validates the hyperparameters, panicking on the first invalid one.
    pub(crate) fn validate(&self) {
        if let Err(what) = self.check() {
            panic!("invalid trainer config: {what}");
        }
    }

    /// The checks behind [`TrainerConfig::validate`] and `decode` (NaN fails
    /// every one of them).
    fn check(&self) -> Result<(), &'static str> {
        if !(0.0..1.0).contains(&self.discount_rate) {
            Err("discount rate outside [0, 1)")
        } else if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            Err("learning rate not finite and positive")
        } else if !(0.0..=1.0).contains(&self.target_update_rate) {
            Err("target update rate outside [0, 1]")
        } else {
            Ok(())
        }
    }
}

impl capes_persist::Persist for TrainerConfig {
    const MIN_SIZE: usize = 3 * 8 + 1;

    fn encode(&self, w: &mut capes_persist::Writer) {
        w.put_f64(self.discount_rate);
        w.put_f64(self.learning_rate);
        w.put_f64(self.target_update_rate);
        w.put_u8(0); // v1 slot of the former gradient clip: `None`
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        let config = TrainerConfig {
            discount_rate: r.get_f64()?,
            learning_rate: r.get_f64()?,
            target_update_rate: r.get_f64()?,
        };
        if r.get_u8()? != 0 {
            return Err(capes_persist::PersistError::BadValue {
                what: "trainer gradient-clip slot is not `None`",
            });
        }
        config
            .check()
            .map_err(|what| capes_persist::PersistError::BadValue { what })?;
        Ok(config)
    }
}

/// Outcome of one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
// capes-check: allow(dead-pub) -- returned by the public `DqnAgent::train_from_db` and `DqnAgent::train_weighted`
pub struct TrainReport {
    /// Mean-squared Bellman error of the minibatch (the optimised loss).
    pub loss: f64,
    /// Mean absolute prediction error: |predicted Q(s, a) − (r + γ max Q')| —
    /// the quantity plotted in Figure 5.
    pub prediction_error: f64,
    /// Mean reward of the sampled transitions.
    pub mean_reward: f64,
    /// Training steps performed so far (including this one).
    pub step: u64,
}

/// Persistent buffers for the allocation-free training step: workspaces for
/// the online and target networks (the [`ReplayBatch`] carries its own
/// matrices). Sized lazily on the first step and reused for every step after
/// (the "warm-up" after which the hot path performs zero heap allocations).
#[derive(Debug, Clone)]
struct TrainerScratch {
    ws_online: Workspace,
    ws_target: Workspace,
    /// Per-row Bellman targets, filled by the fused
    /// [`capes_tensor::simd::bellman_targets`] kernel each step.
    targets: Vec<f64>,
}

impl TrainerScratch {
    fn new(online: &QNetwork, batch: usize) -> Self {
        TrainerScratch {
            ws_online: Workspace::new(online.mlp(), batch),
            ws_target: Workspace::new(online.mlp(), batch),
            targets: vec![0.0; batch],
        }
    }

    fn matches(&self, online: &QNetwork, batch: usize) -> bool {
        self.ws_online.matches(online.mlp(), batch)
    }
}

/// Owns the online network, the target network and the optimizer state.
#[derive(Debug, Clone)]
// capes-check: allow(dead-pub) -- the fused-step reference of tests/fused_step.rs
pub struct Trainer {
    online: QNetwork,
    target: QNetwork,
    optimizer: Adam,
    config: TrainerConfig,
    steps: u64,
    scratch: Option<Box<TrainerScratch>>,
}

impl Trainer {
    /// Creates a trainer whose target network starts as a copy of the online
    /// network.
    pub fn new(online: QNetwork, config: TrainerConfig) -> Self {
        let target = online.clone();
        Self::resume(online, target, config, 0)
    }

    /// A trainer picking up stored networks `steps` training steps in (model
    /// checkpoint restore). The optimizer starts fresh, matching the paper's
    /// prototype which rebuilds it on restart.
    ///
    /// # Panics
    /// Panics if `config` is invalid or the two networks' shapes differ.
    pub(crate) fn resume(
        online: QNetwork,
        target: QNetwork,
        config: TrainerConfig,
        steps: u64,
    ) -> Self {
        config.validate();
        let shapes = online.mlp().parameter_shapes();
        assert_eq!(
            shapes,
            target.mlp().parameter_shapes(),
            "online and target networks must have one shape"
        );
        let optimizer = Adam::new(config.learning_rate, shapes);
        Trainer {
            online,
            target,
            optimizer,
            config,
            steps,
            scratch: None,
        }
    }

    /// The online (acting) network.
    // capes-check: allow(dead-pub) -- the parameter compare of tests/fused_step.rs
    pub fn online(&self) -> &QNetwork {
        &self.online
    }

    /// The target network.
    pub fn target(&self) -> &QNetwork {
        &self.target
    }

    /// Number of completed training steps.
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    /// Performs one training step (Equation 1) on a pre-encoded
    /// [`ReplayBatch`] and soft-updates the target network. Allocation-free:
    /// after the first call sized for this batch shape, no heap allocation
    /// occurs anywhere in the step.
    // capes-check: allow(dead-pub) -- the fused step tests/fused_step.rs drives
    pub fn train_step_batch(&mut self, batch: &ReplayBatch) -> TrainReport {
        // Covers the whole step: both forward passes, Bellman targets,
        // backprop, Adam and the soft target update.
        let _span = capes_telemetry::span!(names::DRL_TRAIN_STEP);
        assert_eq!(
            batch.observation_size(),
            self.online.observation_size(),
            "batch observation width does not match the network"
        );
        self.ensure_scratch(batch.len());
        let TrainerScratch {
            ws_online,
            ws_target,
            targets,
        } = &mut **self.scratch.as_mut().expect("scratch just ensured");
        let (states, actions, rewards) = (batch.states(), batch.actions(), batch.rewards());
        let n = batch.len();
        let num_actions = self.online.num_actions();

        // Bellman targets from the target network: r + γ max_a' Q(s', a'; θ⁻).
        self.target
            .mlp()
            .forward_into(batch.next_states(), ws_target);
        self.online.mlp().forward_into(states, ws_online);

        // Only the entries belonging to the taken actions differ between
        // predictions and targets, so the MSE gradient is zero everywhere
        // else — exactly the per-action loss of Equation 1. The gradient is
        // written sparsely, straight into the workspace's output-delta
        // buffer.
        let mut loss = 0.0;
        let mut abs_error_sum = 0.0;
        let mut reward_sum = 0.0;
        {
            let next_q = ws_target.output();
            // r + γ max_a' through the CAPES_SIMD-dispatched fused kernel
            // (bit-identical across levels).
            targets.resize(n, 0.0);
            simd::bellman_targets(
                rewards,
                next_q.as_slice(),
                num_actions,
                self.config.discount_rate,
                targets,
            );
            let (predictions, delta) = ws_online.output_and_delta_mut();
            delta.as_mut_slice().fill(0.0);
            let denom = (n * num_actions) as f64;
            for i in 0..n {
                let action = actions[i];
                assert!(action < num_actions, "action index out of range");
                let bellman = targets[i];
                let error = predictions[(i, action)] - bellman;
                abs_error_sum += error.abs();
                reward_sum += rewards[i];
                loss += error * error;
                delta[(i, action)] = 2.0 * error / denom;
            }
            loss /= denom;
        }

        self.online.mlp().backward_into(states, ws_online);
        {
            // Adam, with θ⁻ ← θ⁻ (1 − α) + θ α riding the same pass over
            // the parameters.
            let _span = capes_telemetry::span!(names::SPAN_NN_ADAM_STEP);
            self.optimizer.step_with_target(
                self.online.mlp_mut(),
                ws_online.grads(),
                self.target.mlp_mut(),
                self.config.target_update_rate,
            );
        }

        self.steps += 1;
        TrainReport {
            loss,
            prediction_error: abs_error_sum / n as f64,
            mean_reward: reward_sum / n as f64,
            step: self.steps,
        }
    }

    fn ensure_scratch(&mut self, batch: usize) {
        let fits = self
            .scratch
            .as_ref()
            .is_some_and(|s| s.matches(&self.online, batch));
        if !fits {
            self.scratch = Some(Box::new(TrainerScratch::new(&self.online, batch)));
        }
    }
}

impl capes_persist::Persist for Trainer {
    const MIN_SIZE: usize = 2 * <QNetwork as capes_persist::Persist>::MIN_SIZE
        + <Adam as capes_persist::Persist>::MIN_SIZE
        + <TrainerConfig as capes_persist::Persist>::MIN_SIZE
        + 8;

    fn encode(&self, w: &mut capes_persist::Writer) {
        // The optimizer is carried verbatim (moments and step count) so a
        // restored trainer takes bit-identical Adam steps — unlike
        // `Trainer::resume`, which rebuilds it from scratch.
        self.online.encode(w);
        self.target.encode(w);
        self.optimizer.encode(w);
        self.config.encode(w);
        w.put_u64(self.steps);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        let online = QNetwork::decode(r)?;
        let target = QNetwork::decode(r)?;
        let optimizer = Adam::decode(r)?;
        let config = TrainerConfig::decode(r)?;
        let steps = r.get_u64()?;
        let shapes = online.mlp().parameter_shapes();
        if target.mlp().parameter_shapes() != shapes {
            return Err(capes_persist::PersistError::BadValue {
                what: "trainer target network shape disagrees with the online network",
            });
        }
        if !optimizer.matches_shapes(&shapes) {
            return Err(capes_persist::PersistError::BadValue {
                what: "optimizer state shaped for a different network",
            });
        }
        Ok(Trainer {
            online,
            target,
            optimizer,
            config,
            steps,
            // Scratch buffers are transient: rebuilt lazily on the first step.
            scratch: None,
        })
    }

    /// Both networks and the optimizer walk into the live ones, whose shapes
    /// the stored ones must equal, so the agreements `decode` checks hold
    /// unchecked. The scratch buffers, shaped for those networks, stay.
    fn decode_in_place(
        &mut self,
        r: &mut capes_persist::Reader<'_>,
        pass: capes_persist::Pass,
    ) -> Result<(), capes_persist::PersistError> {
        self.online.decode_in_place(r, pass)?;
        self.target.decode_in_place(r, pass)?;
        self.optimizer.decode_in_place(r, pass)?;
        self.config.decode_in_place(r, pass)?;
        let steps = r.get_u64()?;
        if let Some(live) = pass.target(self) {
            live.steps = steps;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qnet::best_action_in_row;
    use capes_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A tiny synthetic environment: two feature patterns; action 1 is good
    /// (reward 1) in pattern A, action 2 is good in pattern B, other actions
    /// earn 0. Terminal-free, so the Bellman target includes bootstrapping.
    fn synthetic_batch(rng: &mut StdRng, n: usize) -> ReplayBatch {
        use rand::Rng;
        let mut states = Matrix::zeros(n, 4);
        let mut actions = Vec::with_capacity(n);
        let mut rewards = Vec::with_capacity(n);
        for i in 0..n {
            let pattern_a = rng.gen_bool(0.5);
            let features = if pattern_a {
                [1.0, 0.0, 0.3, -0.2]
            } else {
                [0.0, 1.0, -0.4, 0.1]
            };
            let action = rng.gen_range(0..3usize);
            let reward = match (pattern_a, action) {
                (true, 1) | (false, 2) => 1.0,
                _ => 0.0,
            };
            states.row_mut(i).copy_from_slice(&features);
            actions.push(action);
            rewards.push(reward);
        }
        ReplayBatch::from_parts(states.clone(), states, actions, rewards)
    }

    #[test]
    fn default_config_matches_table_1() {
        let c = TrainerConfig::default();
        assert_eq!(c.discount_rate, 0.99);
        assert_eq!(c.learning_rate, 1e-4);
        assert_eq!(c.target_update_rate, 0.01);
        c.validate();
    }

    #[test]
    fn training_reduces_prediction_error_on_synthetic_task() {
        let mut rng = StdRng::seed_from_u64(11);
        let config = TrainerConfig {
            learning_rate: 5e-3,
            discount_rate: 0.5,
            ..Default::default()
        };
        let mut trainer = Trainer::new(QNetwork::new(4, 3, &mut rng), config);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..400 {
            let batch = synthetic_batch(&mut rng, 16);
            let report = trainer.train_step_batch(&batch);
            if first.is_none() {
                first = Some(report.prediction_error);
            }
            last = report.prediction_error;
        }
        let first = first.unwrap();
        assert!(
            last < first * 0.5,
            "prediction error should at least halve: {first} → {last}"
        );
        assert_eq!(trainer.steps(), 400);
        assert!(trainer.online().mlp().is_finite());
    }

    #[test]
    fn trained_network_prefers_the_rewarding_action() {
        let mut rng = StdRng::seed_from_u64(12);
        let config = TrainerConfig {
            learning_rate: 5e-3,
            discount_rate: 0.3,
            ..Default::default()
        };
        let mut trainer = Trainer::new(QNetwork::new(4, 3, &mut rng), config);
        for _ in 0..600 {
            let batch = synthetic_batch(&mut rng, 16);
            trainer.train_step_batch(&batch);
        }
        let patterns = Matrix::from_vec(2, 4, vec![1.0, 0.0, 0.3, -0.2, 0.0, 1.0, -0.4, 0.1]);
        let online = trainer.online();
        let mut ws = Workspace::new_inference(online.mlp(), 2);
        let q = online.q_values_into(&patterns, &mut ws);
        assert_eq!(best_action_in_row(q, 0), 1);
        assert_eq!(best_action_in_row(q, 1), 2);
    }

    #[test]
    fn target_network_lags_behind_online_network() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut trainer = Trainer::new(QNetwork::new(4, 3, &mut rng), TrainerConfig::default());
        assert_eq!(
            trainer
                .online()
                .mlp()
                .parameter_distance(trainer.target().mlp()),
            0.0
        );
        let batch = synthetic_batch(&mut rng, 8);
        trainer.train_step_batch(&batch);
        let d1 = trainer
            .online()
            .mlp()
            .parameter_distance(trainer.target().mlp());
        assert!(d1 > 0.0, "one step must separate the networks");
        // With α = 1 the target snaps to the online network every step.
        let mut snap = Trainer::new(
            QNetwork::new(4, 3, &mut rng),
            TrainerConfig {
                target_update_rate: 1.0,
                ..Default::default()
            },
        );
        snap.train_step_batch(&batch);
        assert!(snap.online().mlp().parameter_distance(snap.target().mlp()) < 1e-12);
    }

    #[test]
    fn report_contains_reward_statistics() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut trainer = Trainer::new(QNetwork::new(4, 3, &mut rng), TrainerConfig::default());
        let batch = synthetic_batch(&mut rng, 32);
        let expected_mean: f64 = batch.rewards().iter().sum::<f64>() / 32.0;
        let report = trainer.train_step_batch(&batch);
        assert!((report.mean_reward - expected_mean).abs() < 1e-12);
        assert!(report.loss >= 0.0);
        assert!(report.prediction_error >= 0.0);
        assert_eq!(report.step, 1);
    }

    #[test]
    fn resume_keeps_weights_and_steps_but_resets_the_optimizer() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut trainer = Trainer::new(QNetwork::new(4, 3, &mut rng), TrainerConfig::default());
        let batch = synthetic_batch(&mut rng, 8);
        trainer.train_step_batch(&batch);
        trainer.train_step_batch(&batch);
        let (online, target) = (trainer.online().clone(), trainer.target().clone());
        assert!(online.mlp().parameter_distance(target.mlp()) > 0.0);
        let resumed = Trainer::resume(online.clone(), target.clone(), trainer.config, 2);
        assert_eq!(resumed.online().mlp().parameter_distance(online.mlp()), 0.0);
        assert_eq!(resumed.target().mlp().parameter_distance(target.mlp()), 0.0);
        assert_eq!(resumed.steps(), 2);
        let encoded = |adam: &Adam| {
            let mut w = capes_persist::Writer::new();
            capes_persist::Persist::encode(adam, &mut w);
            w.into_vec()
        };
        let fresh = Adam::new(
            trainer.config.learning_rate,
            online.mlp().parameter_shapes(),
        );
        assert_eq!(
            encoded(&resumed.optimizer),
            encoded(&fresh),
            "a fresh optimizer"
        );
    }

    #[test]
    fn scratch_is_reused_across_steps_and_resized_on_batch_change() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut trainer = Trainer::new(QNetwork::new(4, 3, &mut rng), TrainerConfig::default());
        let small = synthetic_batch(&mut rng, 8);
        let large = synthetic_batch(&mut rng, 16);
        trainer.train_step_batch(&small);
        trainer.train_step_batch(&large);
        trainer.train_step_batch(&small);
        assert_eq!(trainer.steps(), 3);
        assert!(trainer.online().mlp().is_finite());
    }

    #[test]
    fn infinite_learning_rate_or_a_clip_does_not_decode() {
        use capes_persist::{Persist, PersistError, Reader, Writer};
        let encode = |config: TrainerConfig| {
            let mut w = Writer::new();
            config.encode(&mut w);
            w.into_vec()
        };
        let infinite = encode(TrainerConfig {
            learning_rate: f64::INFINITY,
            ..Default::default()
        });
        // The clip's tag follows the three f64s; `Some` is 1.
        let mut clip = encode(TrainerConfig::default());
        assert!(TrainerConfig::decode(&mut Reader::new(&clip)).is_ok());
        clip[24] = 1;
        for bytes in [infinite, clip] {
            assert!(matches!(
                TrainerConfig::decode(&mut Reader::new(&bytes)),
                Err(PersistError::BadValue { .. })
            ));
        }
    }

    #[test]
    #[should_panic(expected = "discount rate")]
    fn invalid_discount_rejected() {
        Trainer::new(
            QNetwork::new(4, 3, &mut StdRng::seed_from_u64(0)),
            TrainerConfig {
                discount_rate: 1.5,
                ..Default::default()
            },
        );
    }
}
