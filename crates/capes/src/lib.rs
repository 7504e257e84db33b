//! # capes
//!
//! CAPES — Computer Automated Performance Enhancement System — is an
//! unsupervised, model-less parameter-tuning system driven by deep
//! reinforcement learning, reproduced from the SC '17 paper by Li et al.
//!
//! This crate is the orchestration layer that ties the substrates together:
//!
//! * [`target::TargetSystem`] — the adapter interface of the paper's
//!   Appendix A: anything that can report per-node performance indicators and
//!   accept parameter values can be tuned;
//! * [`builder::Capes`] — the fallible builder assembling a deployment
//!   (objective, Action Checker, tuning engine, observers all optional);
//! * [`error::CapesError`] — typed errors instead of assembly-time panics;
//! * [`hyperparams::Hyperparameters`] — every hyperparameter of Table 1 with
//!   the paper's values as defaults;
//! * [`objective`] — single- and multi-objective reward functions (§3.2);
//! * [`adapter::SimulatedLustre`] — the bundled adapter that binds the
//!   [`capes_simstore`] cluster simulator as a target system (the analogue of
//!   the paper's Lustre adapter);
//! * [`system::CapesSystem`] — Monitoring Agents + Interface Daemon + Replay
//!   DB + a pluggable tuning engine wired around a target system (Figure 1);
//! * [`engine::TuningEngine`] — the unified engine interface implemented by
//!   the DQN agent ([`capes_drl::DqnAgent`]) itself and the search
//!   comparators;
//! * [`experiment::Phase`] — declarative baseline/train/tuned phase plans
//!   that [`system::CapesSystem::run`] turns into JSON-serializable
//!   [`experiment::ExperimentReport`]s, while closures registered with
//!   [`builder::CapesBuilder::observer`] stream per-tick telemetry;
//! * [`tuners`] — comparator tuners (static defaults, random search, hill
//!   climbing) representing the search-based prior work discussed in §5;
//!   they run through the same [`system::CapesSystem`] loop as the DQN.
//!
//! ## Quick start
//!
//! ```
//! use capes::prelude::*;
//!
//! // A small simulated cluster running the paper's write-heavy workload.
//! let target = SimulatedLustre::builder()
//!     .workload(Workload::random_rw(0.1))
//!     .seed(7)
//!     .build();
//!
//! // Assemble CAPES around it. `quick_test()` scales the paper's
//! // hyperparameters down so this doc-test runs quickly; invalid
//! // configurations come back as typed errors instead of panics.
//! let mut system = Capes::builder(target)
//!     .hyperparams(Hyperparameters::quick_test())
//!     .seed(7)
//!     .build()
//!     .expect("valid configuration");
//!
//! // The paper's evaluation workflow as a declarative plan: measure the
//! // baseline, train (very briefly, for the doc-test), measure tuned.
//! let report = system.run(&[
//!     Phase::Baseline { ticks: 30 },
//!     Phase::Train { ticks: 60 },
//!     Phase::Tuned { ticks: 30, label: "tuned".into() },
//! ]);
//!
//! assert_eq!(report.sessions.len(), 3);
//! assert!(report.baseline().unwrap().mean_throughput() > 0.0);
//! assert!(report.improvement_over_baseline("tuned").is_some());
//! // Reports print as JSON for the figure binaries.
//! assert!(report.to_json().contains("\"label\": \"tuned\""));
//! ```

#![forbid(unsafe_code)]

pub mod adapter;
pub mod builder;
pub mod engine;
pub mod error;
pub mod experiment;
pub mod hyperparams;
pub mod knobs;
pub mod objective;
pub mod session;
pub mod system;
pub mod target;
pub mod tuners;

pub use adapter::SimulatedLustre;
pub use builder::{Capes, CapesBuilder};
pub use engine::{
    step_params, EngineContext, NullEngine, ProposedAction, SearchEngine, TuningEngine,
};
pub use error::CapesError;
pub use experiment::{ExperimentReport, Phase, PhaseKind};
pub use hyperparams::Hyperparameters;
pub use objective::Objective;
pub use session::SessionResult;
pub use system::{CapesSystem, SystemTick, TickMeasurement, Transport};
pub use target::{TargetSystem, TargetTick, TunableSpec};

// Replay-layer types that surface through the builder API (`replay_db`):
// re-exported so downstream crates need not depend on capes-replay directly
// to hand a system an arena stripe.
pub use capes_replay::{ReplayArena, SharedReplayDb};

/// Convenient glob import for examples, benchmarks and downstream crates.
///
/// Brings in the builder-first construction API ([`Capes`],
/// [`CapesBuilder`], [`CapesError`]), the declarative experiment API
/// ([`Phase`] plans for [`CapesSystem::run`], [`PhaseKind`],
/// [`ExperimentReport`], and [`SystemTick`] for observers), the unified
/// engine interface ([`TuningEngine`], [`SearchEngine`]), the comparator
/// tuners, the bundled simulator adapter, and the simulator's configuration
/// types.
pub mod prelude {
    pub use crate::adapter::SimulatedLustre;
    pub use crate::builder::{Capes, CapesBuilder};
    pub use crate::engine::{NullEngine, SearchEngine, TuningEngine};
    pub use crate::error::CapesError;
    pub use crate::experiment::{ExperimentReport, Phase, PhaseKind};
    pub use crate::hyperparams::Hyperparameters;
    pub use crate::objective::Objective;
    pub use crate::session::SessionResult;
    pub use crate::system::{CapesSystem, SystemTick, TickMeasurement, Transport};
    pub use crate::target::{TargetSystem, TargetTick, TunableSpec};
    pub use crate::tuners::{HillClimbing, RandomSearch, StaticBaseline};
    pub use capes_replay::{ReplayArena, SharedReplayDb};
    pub use capes_simstore::{ClusterConfig, PiMode, TunableParams, Workload};
}
