//! Umbrella crate for the CAPES reproduction workspace.
//!
//! This crate exists so that the repository-level `examples/` and `tests/`
//! directories have a host package; it simply re-exports the workspace crates
//! so examples and integration tests can reach every public API through one
//! dependency.
//!
//! The typical entry point is the [`capes`] crate's prelude, re-exported here
//! as [`prelude`]: the [`capes::builder::Capes`] builder assembles a system,
//! its [`capes::system::CapesSystem::run`] runs declarative
//! baseline/train/tuned [`capes::experiment::Phase`] plans, and
//! [`capes::engine::TuningEngine`] lets the DRL engine and the search
//! comparators share one driver.

pub use capes;
pub use capes_agents as agents;
pub use capes_drl as drl;
pub use capes_nn as nn;
pub use capes_replay as replay;
pub use capes_simstore as simstore;
pub use capes_stats as stats;
pub use capes_tensor as tensor;

/// The `capes` crate's prelude, re-exported for convenience.
pub use capes::prelude;
