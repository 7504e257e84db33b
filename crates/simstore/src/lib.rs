//! # capes-simstore
//!
//! A tick-based simulator of a Lustre-like striped distributed storage
//! cluster — the reproduction's stand-in for the physical 4-server / 5-client
//! testbed used in the CAPES paper's evaluation (§4.2).
//!
//! CAPES interacts with its target system only through
//!
//! 1. the per-client Performance Indicators of §4.1 (congestion window,
//!    read/write throughput, dirty bytes, write-cache size, ping latency,
//!    Ack EWMA, Send EWMA, and process-time ratio), and
//! 2. two tunable parameters: `max_rpcs_in_flight` (the Lustre congestion
//!    window) and the per-client I/O rate limit.
//!
//! The simulator exposes exactly those interfaces and reproduces the
//! qualitative response surface the paper's result relies on:
//!
//! * random **writes** benefit substantially from a larger congestion window
//!   because outstanding writes can be merged in the server's I/O queue;
//! * random **reads** are seek-bound and barely react to the window;
//! * pushing the window (or the offered load) too far causes congestion
//!   collapse at the servers and the network, so throughput has an interior
//!   optimum;
//! * the Lustre default (`max_rpcs_in_flight = 8`) is well below that optimum
//!   for write-heavy workloads at saturation, leaving the 30–45 % headroom
//!   that CAPES finds in Figure 2;
//! * measurements are noisy (the paper deliberately kept its testbed on a
//!   shared network).
//!
//! The three workload families of the evaluation are modelled: random
//! read/write mixes at configurable ratios, the Filebench "fileserver"
//! personality, and the five-stream sequential-write workload.
//!
//! Only the cluster's shape is configurable ([`ClusterConfig`]: servers,
//! clients and the PI set). The testbed's hardware — disks, network, stripe
//! and write-cache sizes, noise and interference — is one block of
//! constants in `config.rs`, each citing its paper value.
//!
//! One simulator tick corresponds to one second of simulated time; a "12-hour
//! training run" from the paper is 43 200 ticks, which the simulator executes
//! in seconds of wall-clock time.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod config;
mod disk;
pub mod indicators;
pub mod network;
mod osc;
pub mod params;
mod server;
pub mod workload;

pub use cluster::Cluster;
pub use config::{ClusterConfig, PiMode};
pub use indicators::pis_per_client;
pub use params::TunableParams;
pub use workload::{Workload, WorkloadKind};
