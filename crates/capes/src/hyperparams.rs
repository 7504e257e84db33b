//! The hyperparameters of Table 1.

use crate::error::CapesError;
use capes_drl::{DqnAgentConfig, EpsilonSchedule, TrainerConfig};

/// Every hyperparameter listed in Table 1 of the paper, plus four knobs the
/// reproduction adds to let experiments run at laptop scale (replay capacity,
/// reward scale, train steps per tick and the workload-change ε bump; none of
/// them changes the algorithm). Table 1's action and sampling tick lengths
/// are not fields: the simulator steps one second per tick, the paper's value
/// for both. Nor is its number of hidden layers: the depth is fixed by the
/// architecture [`capes_drl::QNetwork::new`] builds (two tanh layers as wide
/// as the input). Adam's β₁, β₂ and ε, which Table 1 does not list, are the
/// constants `capes_nn::Adam::{BETA1, BETA2, EPSILON}`, and gradients are
/// never clipped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hyperparameters {
    /// "sampling ticks per observation" (paper: 10).
    pub sampling_ticks_per_observation: usize,
    /// "ε initial value" (paper: 1.0).
    pub epsilon_initial: f64,
    /// "ε final value" (paper: 0.05).
    pub epsilon_final: f64,
    /// "initial exploration period" in seconds (paper: 2 h).
    pub exploration_period_ticks: u64,
    /// "discount rate (γ)" (paper: 0.99).
    pub discount_rate: f64,
    /// "minibatch size" (paper: 32).
    pub minibatch_size: usize,
    /// "missing entry tolerance" (paper: 20 %).
    pub missing_entry_tolerance: f64,
    /// "Adam learning rate" (paper: 1e-4).
    pub adam_learning_rate: f64,
    /// "target network update rate (α)" (paper: 0.01).
    pub target_update_rate: f64,
    /// Replay-database capacity in ticks (paper's evaluation accumulated 250 k
    /// one-second records).
    pub replay_capacity_ticks: usize,
    /// Scale factor applied to the objective value before it is stored as a
    /// reward. The paper feeds raw throughput (MB/s); with γ = 0.99 the
    /// Q-values then converge to ≈100× the per-second reward, which needs a
    /// long training run to reach. Scaling rewards to order one (e.g. 1/300
    /// for a cluster that peaks near 300 MB/s) makes the scaled-down runs
    /// converge in minutes without changing the optimal policy.
    pub reward_scale: f64,
    /// Training steps run per action tick. The paper's DRL engine trains
    /// continuously on a GPU; one step per simulated second reproduces the
    /// same data-to-update ratio on a CPU.
    pub train_steps_per_tick: usize,
    /// How long ε stays bumped after a scheduled workload change, in ticks.
    pub workload_change_bump_ticks: u64,
}

impl Default for Hyperparameters {
    fn default() -> Self {
        Self::paper()
    }
}

impl Hyperparameters {
    /// The exact values of Table 1.
    pub fn paper() -> Self {
        Hyperparameters {
            sampling_ticks_per_observation: 10,
            epsilon_initial: 1.0,
            epsilon_final: 0.05,
            exploration_period_ticks: 2 * 3600,
            discount_rate: 0.99,
            minibatch_size: 32,
            missing_entry_tolerance: 0.2,
            adam_learning_rate: 1e-4,
            target_update_rate: 0.01,
            replay_capacity_ticks: 250_000,
            reward_scale: 1.0,
            train_steps_per_tick: 1,
            workload_change_bump_ticks: 1800,
        }
    }

    /// A scaled-down configuration for fast experiments and CI: shorter
    /// observations, a shorter exploration period, a smaller discount rate,
    /// order-one rewards, a higher learning rate and more training steps per
    /// tick, so that a few thousand simulated seconds are enough for the
    /// policy to move.
    pub fn quick_test() -> Self {
        Hyperparameters {
            sampling_ticks_per_observation: 4,
            exploration_period_ticks: 2_000,
            discount_rate: 0.9,
            adam_learning_rate: 1e-3,
            train_steps_per_tick: 2,
            replay_capacity_ticks: 50_000,
            reward_scale: 1.0 / 300.0,
            workload_change_bump_ticks: 300,
            ..Self::paper()
        }
    }

    /// Validates the hyperparameters, reporting the first invalid value as a
    /// typed [`CapesError::InvalidHyperparameter`] so callers can recover
    /// (previously this asserted).
    pub fn validate(&self) -> Result<(), CapesError> {
        fn invalid(name: &'static str, reason: &str) -> CapesError {
            CapesError::InvalidHyperparameter {
                name,
                reason: reason.to_string(),
            }
        }
        let checks: [(&'static str, bool, &str); 13] = [
            (
                "sampling_ticks_per_observation",
                self.sampling_ticks_per_observation > 0,
                "must be positive",
            ),
            (
                "epsilon_initial",
                (0.0..=1.0).contains(&self.epsilon_initial),
                "must lie in [0, 1]",
            ),
            (
                "epsilon_final",
                (0.0..=1.0).contains(&self.epsilon_final),
                "must lie in [0, 1]",
            ),
            (
                "epsilon_final",
                self.epsilon_final <= self.epsilon_initial,
                "must not exceed epsilon_initial",
            ),
            (
                "exploration_period_ticks",
                self.exploration_period_ticks > 0,
                "must be positive",
            ),
            (
                "discount_rate",
                (0.0..1.0).contains(&self.discount_rate),
                "must lie in [0, 1)",
            ),
            (
                "minibatch_size",
                self.minibatch_size > 0,
                "must be positive",
            ),
            (
                "missing_entry_tolerance",
                (0.0..1.0).contains(&self.missing_entry_tolerance),
                "must lie in [0, 1)",
            ),
            (
                "adam_learning_rate",
                self.adam_learning_rate.is_finite() && self.adam_learning_rate > 0.0,
                "must be finite and positive",
            ),
            (
                "target_update_rate",
                (0.0..=1.0).contains(&self.target_update_rate),
                "must lie in [0, 1]",
            ),
            (
                "replay_capacity_ticks",
                self.replay_capacity_ticks > self.sampling_ticks_per_observation,
                "must exceed sampling_ticks_per_observation",
            ),
            (
                "reward_scale",
                self.reward_scale.is_finite() && self.reward_scale > 0.0,
                "must be finite and positive",
            ),
            (
                "train_steps_per_tick",
                self.train_steps_per_tick > 0,
                "must be positive",
            ),
        ];
        for (name, ok, reason) in checks {
            if !ok {
                return Err(invalid(name, reason));
            }
        }
        Ok(())
    }

    /// Width of the flattened observation for a target with `num_nodes` nodes
    /// reporting `pis_per_node` indicators each (Table 1's "sampling ticks
    /// per observation" × nodes × PIs).
    pub fn observation_size(&self, num_nodes: usize, pis_per_node: usize) -> usize {
        self.sampling_ticks_per_observation * num_nodes * pis_per_node
    }

    /// Derives the replay-store configuration for a target with `num_nodes`
    /// nodes reporting `pis_per_node` indicators each. Single source of truth
    /// shared by [`crate::system::CapesSystem`] and external arena builders
    /// (the fleet daemon), so a pre-built arena stripe always matches what
    /// the member system would have built for itself.
    pub fn replay_config(
        &self,
        num_nodes: usize,
        pis_per_node: usize,
    ) -> capes_replay::ReplayConfig {
        capes_replay::ReplayConfig {
            num_nodes,
            pis_per_node,
            ticks_per_observation: self.sampling_ticks_per_observation,
            missing_entry_tolerance: self.missing_entry_tolerance,
            capacity_ticks: self.replay_capacity_ticks,
        }
    }

    /// Derives the DRL agent configuration for a target with the given
    /// observation width and parameter count.
    pub fn agent_config(&self, observation_size: usize, num_params: usize) -> DqnAgentConfig {
        DqnAgentConfig {
            observation_size,
            num_params,
            minibatch_size: self.minibatch_size,
            trainer: TrainerConfig {
                discount_rate: self.discount_rate,
                learning_rate: self.adam_learning_rate,
                target_update_rate: self.target_update_rate,
            },
            epsilon: EpsilonSchedule::new(
                self.epsilon_initial,
                self.epsilon_final,
                self.exploration_period_ticks,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_match_table_1() {
        let hp = Hyperparameters::paper();
        hp.validate().expect("paper values are valid");
        assert_eq!(hp.sampling_ticks_per_observation, 10);
        assert_eq!(hp.epsilon_initial, 1.0);
        assert_eq!(hp.epsilon_final, 0.05);
        assert_eq!(hp.exploration_period_ticks, 7200);
        assert_eq!(hp.discount_rate, 0.99);
        assert_eq!(hp.minibatch_size, 32);
        assert_eq!(hp.missing_entry_tolerance, 0.2);
        assert_eq!(hp.adam_learning_rate, 1e-4);
        assert_eq!(hp.target_update_rate, 0.01);
    }

    #[test]
    fn quick_test_is_valid_and_faster() {
        let hp = Hyperparameters::quick_test();
        hp.validate().expect("quick_test values are valid");
        assert!(hp.exploration_period_ticks < Hyperparameters::paper().exploration_period_ticks);
        assert!(hp.train_steps_per_tick >= Hyperparameters::paper().train_steps_per_tick);
        assert!(hp.reward_scale < 1.0);
        // The structural hyperparameters stay at the paper values.
        assert_eq!(hp.minibatch_size, 32);
        assert_eq!(hp.target_update_rate, 0.01);
        assert_eq!(Hyperparameters::paper().reward_scale, 1.0);
    }

    #[test]
    fn agent_config_propagates_values() {
        let hp = Hyperparameters::paper();
        let cfg = hp.agent_config(2200, 2);
        assert_eq!(cfg.observation_size, 2200);
        assert_eq!(cfg.num_params, 2);
        assert_eq!(cfg.minibatch_size, 32);
        assert_eq!(cfg.trainer.discount_rate, 0.99);
        assert_eq!(cfg.trainer.learning_rate, 1e-4);
        assert_eq!(cfg.epsilon.exploration_ticks, 7200);
    }

    #[test]
    fn invalid_hyperparameters_rejected_with_typed_error() {
        let hp = Hyperparameters {
            discount_rate: 1.5,
            ..Hyperparameters::paper()
        };
        match hp.validate() {
            Err(CapesError::InvalidHyperparameter { name, reason }) => {
                assert_eq!(name, "discount_rate");
                assert!(reason.contains("[0, 1)"));
            }
            other => panic!("expected InvalidHyperparameter, got {other:?}"),
        }
        let hp = Hyperparameters {
            epsilon_final: 0.9,
            epsilon_initial: 0.5,
            ..Hyperparameters::paper()
        };
        assert!(matches!(
            hp.validate(),
            Err(CapesError::InvalidHyperparameter {
                name: "epsilon_final",
                ..
            })
        ));
        // Rates must be finite as well as positive: an infinite learning
        // rate or reward scale would turn the first Adam step into ±∞/NaN.
        let (mut lr, mut scale) = (Hyperparameters::paper(), Hyperparameters::paper());
        lr.adam_learning_rate = f64::INFINITY;
        scale.reward_scale = f64::INFINITY;
        for (hp, field) in [(lr, "adam_learning_rate"), (scale, "reward_scale")] {
            match hp.validate() {
                Err(CapesError::InvalidHyperparameter { name, .. }) => assert_eq!(name, field),
                other => panic!("expected InvalidHyperparameter for {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn observation_size_follows_table_1() {
        let hp = Hyperparameters::paper();
        // The paper's full configuration: 5 clients × 44 PIs × 10 ticks.
        assert_eq!(hp.observation_size(5, 44), 2200);
    }
}
