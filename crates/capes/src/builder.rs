//! Builder-first construction of a CAPES deployment: one fallible builder.
//!
//! ```
//! use capes::prelude::*;
//!
//! let target = SimulatedLustre::builder()
//!     .workload(Workload::random_rw(0.1))
//!     .seed(7)
//!     .build();
//! let system = Capes::builder(target)
//!     .hyperparams(Hyperparameters::quick_test())
//!     .objective(Objective::Throughput)
//!     .seed(7)
//!     .build()
//!     .expect("valid configuration");
//! assert_eq!(system.tick(), 0);
//! ```
//!
//! Invalid configurations are reported as [`CapesError`] values instead of
//! panics, and every part of the deployment — objective, Action Checker,
//! tuning engine, tick observers — is optional with the paper's evaluation
//! setup as the default.

use crate::engine::TuningEngine;
use crate::error::CapesError;
use crate::experiment::PhaseKind;
use crate::hyperparams::Hyperparameters;
use crate::objective::Objective;
use crate::system::{CapesSystem, Observer, SystemTick, Transport};
use crate::target::TargetSystem;
use capes_agents::ActionChecker;
use capes_drl::DqnAgent;
use capes_replay::SharedReplayDb;

/// Entry point for the builder API.
pub struct Capes;

impl Capes {
    /// Starts building a CAPES deployment around `target`.
    pub fn builder<T: TargetSystem>(target: T) -> CapesBuilder<T> {
        CapesBuilder {
            target,
            hyperparams: Hyperparameters::paper(),
            objective: Objective::Throughput,
            checker: ActionChecker::permissive(),
            seed: 0,
            engine: None,
            observers: Vec::new(),
            transport: Transport::Wire,
            replay_db: None,
        }
    }
}

/// Configures and assembles a [`CapesSystem`].
///
/// Defaults match the paper's evaluation: Table-1 hyperparameters, the
/// throughput objective, a permissive Action Checker and the DQN engine.
pub struct CapesBuilder<T: TargetSystem> {
    target: T,
    hyperparams: Hyperparameters,
    objective: Objective,
    checker: ActionChecker,
    seed: u64,
    engine: Option<Box<dyn TuningEngine>>,
    observers: Vec<Observer>,
    transport: Transport,
    replay_db: Option<SharedReplayDb>,
}

impl<T: TargetSystem> CapesBuilder<T> {
    /// Sets the hyperparameters (default: [`Hyperparameters::paper`]).
    #[must_use]
    pub fn hyperparams(mut self, hyperparams: Hyperparameters) -> Self {
        self.hyperparams = hyperparams;
        self
    }

    /// Sets the objective function (default: [`Objective::Throughput`]).
    #[must_use]
    // capes-check: allow(dead-pub) -- the paper's multi-objective reward (§3.2); the floor test multi_objective_tuning_runs_and_reports in tests/end_to_end.rs drives it
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the Action Checker (default: permissive).
    #[must_use]
    // capes-check: allow(dead-pub) -- the paper's Action Checker; the floor test action_checker_keeps_vetoed_regions_untouched in tests/end_to_end.rs drives it
    pub fn checker(mut self, checker: ActionChecker) -> Self {
        self.checker = checker;
        self
    }

    /// Sets the RNG seed of the default DQN engine (default: 0). Nothing
    /// else reads it: the system draws no random numbers, and an engine
    /// passed to [`CapesBuilder::engine`] brings its own.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the default DQN engine with any [`TuningEngine`] (e.g. the
    /// search comparators wrapped in [`crate::engine::SearchEngine`]).
    #[must_use]
    pub fn engine(mut self, engine: Box<dyn TuningEngine>) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Registers a per-tick observer; may be called repeatedly. The system
    /// calls it with the phase kind and the outcome of every tick it runs,
    /// so dashboards and harnesses can watch a run without polling. It must
    /// be [`Send`]: fleet members migrate across the fleet's worker threads.
    #[must_use]
    pub fn observer(
        mut self,
        observer: impl FnMut(PhaseKind, &SystemTick) + Send + 'static,
    ) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Sets the monitoring transport (default: [`Transport::Wire`], which
    /// routes every monitoring message through the binary wire codec,
    /// exactly as a networked deployment would). [`Transport::Socket`]
    /// stages the messages for an external transmitter instead.
    #[must_use]
    pub fn transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Supplies the replay store to write into — an arena stripe view. By
    /// default the system builds its own standalone one-stripe arena; a
    /// fleet passes each member a stripe of the shared fleet arena here, so
    /// all clusters store experience in one striped structure. The stripe's
    /// configuration must match what the system would derive for its target
    /// (checked in [`CapesBuilder::build`]).
    #[must_use]
    pub fn replay_db(mut self, db: SharedReplayDb) -> Self {
        self.replay_db = Some(db);
        self
    }

    /// Validates the configuration and assembles the system.
    ///
    /// # Errors
    ///
    /// * [`CapesError::InvalidHyperparameter`] if any hyperparameter violates
    ///   its constraint;
    /// * [`CapesError::NoTunableParameters`] if the target exposes an empty
    ///   tunable-spec list;
    /// * [`CapesError::ReplayConfigMismatch`] if a supplied replay stripe was
    ///   configured for a different geometry than the target needs.
    pub fn build(self) -> Result<CapesSystem<T>, CapesError> {
        self.hyperparams.validate()?;
        let specs = self.target.tunable_specs();
        if specs.is_empty() {
            return Err(CapesError::NoTunableParameters);
        }
        if let Some(db) = &self.replay_db {
            let expected = self
                .hyperparams
                .replay_config(self.target.num_nodes(), self.target.pis_per_node());
            let provided = db.with_read(|db| *db.config());
            if provided != expected {
                return Err(CapesError::ReplayConfigMismatch {
                    reason: format!("expected {expected:?}, stripe holds {provided:?}"),
                });
            }
        }
        let engine = match self.engine {
            Some(engine) => engine,
            None => {
                // The default engine: a freshly-initialised DQN sized for the
                // target's observation width and parameter count.
                let observation_size = self
                    .hyperparams
                    .observation_size(self.target.num_nodes(), self.target.pis_per_node());
                let config = self.hyperparams.agent_config(observation_size, specs.len());
                Box::new(DqnAgent::new(config, self.seed ^ 0x5eed))
            }
        };
        Ok(CapesSystem::assemble(
            self.target,
            self.hyperparams,
            self.objective,
            self.checker,
            engine,
            self.observers,
            self.transport,
            self.replay_db,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchEngine;
    use crate::target::test_target::QuadraticTarget;
    use crate::target::{TargetTick, TunableSpec};
    use crate::tuners::StaticBaseline;

    /// A target with no tunable parameters (invalid for CAPES).
    struct Untunable;

    impl TargetSystem for Untunable {
        fn num_nodes(&self) -> usize {
            1
        }
        fn pis_per_node(&self) -> usize {
            1
        }
        fn tunable_specs(&self) -> Vec<TunableSpec> {
            Vec::new()
        }
        fn current_params(&self) -> Vec<f64> {
            Vec::new()
        }
        fn apply_params(&mut self, _values: &[f64]) {}
        fn step(&mut self) -> TargetTick {
            TargetTick {
                per_node_pis: vec![vec![0.0]],
                throughput_mbps: 1.0,
                latency_ms: 1.0,
            }
        }
    }

    #[test]
    fn default_build_succeeds_with_dqn_engine() {
        let system = Capes::builder(QuadraticTarget::new(60.0))
            .hyperparams(Hyperparameters::quick_test())
            .seed(1)
            .build()
            .expect("valid configuration");
        assert_eq!(system.engine().name(), "deep RL (DQN)");
        assert!(system.dqn_agent().is_some());
        assert_eq!(system.current_params(), vec![10.0]);
    }

    #[test]
    fn invalid_hyperparameters_are_reported_not_panicked() {
        let result = Capes::builder(QuadraticTarget::new(60.0))
            .hyperparams(Hyperparameters {
                discount_rate: 1.5,
                ..Hyperparameters::paper()
            })
            .build();
        match result {
            Err(CapesError::InvalidHyperparameter { name, .. }) => {
                assert_eq!(name, "discount_rate");
            }
            Err(other) => panic!("expected InvalidHyperparameter, got {other:?}"),
            Ok(_) => panic!("expected InvalidHyperparameter, got a built system"),
        }
    }

    #[test]
    fn empty_tunable_specs_are_reported_not_panicked() {
        let result = Capes::builder(Untunable).build();
        assert!(matches!(result, Err(CapesError::NoTunableParameters)));
    }

    #[test]
    fn external_arena_stripe_is_used_as_the_replay_store() {
        let hp = Hyperparameters::quick_test();
        // QuadraticTarget: 1 node × 2 PIs.
        let arena = capes_replay::ReplayArena::uniform(hp.replay_config(1, 2), 3);
        let system = Capes::builder(QuadraticTarget::new(60.0))
            .hyperparams(hp)
            .replay_db(arena.stripe(2))
            .build()
            .expect("matching stripe config");
        system.replay_db().insert_snapshot(7, 0, vec![0.5, 0.5]);
        assert_eq!(arena.stripe(2).len(), 1, "writes land in stripe 2");
        assert!(arena.stripe(0).is_empty() && arena.stripe(1).is_empty());
    }

    #[test]
    fn mismatched_replay_stripe_is_a_typed_error() {
        let hp = Hyperparameters::quick_test();
        let wrong = capes_replay::ReplayConfig {
            pis_per_node: 7,
            ..hp.replay_config(1, 2)
        };
        let result = Capes::builder(QuadraticTarget::new(60.0))
            .hyperparams(hp)
            .replay_db(capes_replay::SharedReplayDb::new(wrong))
            .build();
        assert!(matches!(
            result,
            Err(CapesError::ReplayConfigMismatch { .. })
        ));
    }

    #[test]
    fn custom_engine_is_used() {
        let system = Capes::builder(QuadraticTarget::new(60.0))
            .hyperparams(Hyperparameters::quick_test())
            .engine(Box::new(SearchEngine::new(StaticBaseline, 10)))
            .build()
            .expect("valid configuration");
        assert_eq!(system.engine().name(), "static defaults");
        assert!(system.dqn_agent().is_none());
    }
}
