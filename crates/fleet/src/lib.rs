//! # capes-fleet
//!
//! A multi-cluster CAPES tuning service: one [`FleetDaemon`] owns N tuning
//! sessions at once, each a full vertical slice of the paper's architecture
//! (seeded simulated cluster → Monitoring Agents → binary wire protocol →
//! per-cluster Interface Daemon → sharded Replay DB), while the *decisions*
//! for all clusters sharing an observation geometry collapse into a single
//! batched forward pass through one shared [`capes_drl::DqnAgent`]
//! ([`capes_drl::DqnAgent::decide_batch`]).
//!
//! The paper deploys CAPES one instance per storage cluster; the fleet layer
//! is what the ROADMAP's production-scale north star asks for instead — many
//! heterogeneous clusters (workload family, read/write mix, client count per
//! [`ScenarioSpec`]) tuned by one service, with the per-tick inference cost
//! amortised across the fleet (an N-row GEMM reuses the Q-network weights
//! N times, where N sequential decisions stream them from memory N times).
//!
//! On the socket transport actions cross each cluster's loopback connection
//! as cluster-enveloped frames (the [`encode_cluster_frame`] codec of
//! `capes_agents::wire`); on the wire transport the daemon hands each action
//! straight to its cluster, as a standalone system's engine does.
//!
//! ```
//! use capes::{Hyperparameters, Phase};
//! use capes_fleet::{Fleet, ScenarioSpec};
//! use capes_simstore::Workload;
//!
//! let mut daemon = Fleet::builder()
//!     .hyperparams(Hyperparameters::quick_test())
//!     .seed(7)
//!     .scenarios([
//!         ScenarioSpec::new("write-heavy", Workload::random_rw(0.1)).clients(2),
//!         ScenarioSpec::new("fileserver", Workload::fileserver()).clients(2),
//!     ])
//!     .build()
//!     .expect("valid fleet");
//! let report = daemon.run(&[Phase::Baseline { ticks: 15 }, Phase::Train { ticks: 30 }]);
//! assert_eq!(report.clusters.len(), 2);
//! assert_eq!(report.cluster_ticks, 2 * 45);
//! // Fleet reports print as JSON like experiment reports do.
//! assert!(report.to_json().contains("\"cluster_ticks\": 90"));
//! ```

#![forbid(unsafe_code)]

pub mod daemon;
pub mod report;
pub mod scenario;
pub mod sched;
mod socket;
pub mod traffic;

pub use capes_agents::wire::{decode_cluster_frame, encode_cluster_frame};
pub use daemon::{Fleet, FleetBuilder, FleetDaemon, FleetError};
pub use report::{
    ClusterReport, ExperienceSharing, FleetReport, NetReport, PersistReport, StripeOccupancy,
};
pub use scenario::ScenarioSpec;
pub use traffic::Replayer;
