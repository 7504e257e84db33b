//! The fleet daemon: N tuning sessions, one batched decision path.
//!
//! Every member cluster is a full vertical CAPES slice — a seeded simulated
//! cluster, Monitoring Agents and a Control Agent speaking the binary wire
//! protocol through a per-cluster Interface Daemon into the cluster's own
//! replay shard. What the members do *not* own is a decision maker: per fleet
//! tick the daemon
//!
//! 1. runs every cluster's measurement stage on either transport
//!    ([`CapesSystem::measure_tick`], then — on the socket transport — the
//!    uplink of the monitoring traffic and its ingest, then
//!    [`CapesSystem::complete_measurement`]) and gathers the observation
//!    vectors into one matrix per *profile* (clusters sharing an
//!    observation geometry),
//! 2. runs **one batched forward pass** per profile through that profile's
//!    shared [`DqnAgent`] ([`DqnAgent::decide_batch`]) — the 1-row
//!    [`DqnAgent::decide`] widened into an N-row GEMM riding the pooled
//!    kernels,
//! 3. builds one action message per cluster from its decision (on the socket
//!    transport it travels over the cluster's loopback connection and back)
//!    and hands it to [`CapesSystem::apply_action`] — Action Checker and
//!    Replay DB record in the cluster's Interface Daemon, then its Control
//!    Agent, then the knob — and
//! 4. once every cluster has applied its action, round-robins training
//!    across the clusters: each training tick trains one cluster's profile
//!    agent on the profile's experience-sharing weights
//!    ([`crate::report::ExperienceSharing`], set with
//!    [`FleetDaemon::set_profile_sharing`]): that cluster's own arena stripe
//!    weighted `own`, the profile's other stripes `peers`.
//!
//! Measuring, applying and finishing touch one cluster each, so they run
//! cluster-parallel on the fleet pool:
//! [`WorkerPool::run_mut`](capes_tensor::WorkerPool::run_mut) hands every
//! worker a disjoint `&mut` chunk of the sessions, and each session carries
//! its own in-flight measurement and action. Deciding, moving actions through
//! the transport and training stay on the daemon thread; training consumes
//! the shared agent's RNG.
//!
//! Experience lives in **one** fleet-wide [`ReplayArena`] striped by
//! cluster: every member system is built over a stripe view of the shared
//! arena, so its monitoring pipeline — wire frames included — writes straight
//! into its stripe, and cross-cluster sampling needs no data movement at all.
//!
//! A fleet of one cluster is bit-identical to a standalone
//! [`CapesSystem::run`] under the same seeds — the integration tests hold
//! the two JSON reports equal — so the layer adds scale and transfer
//! learning without changing the algorithm.
//!
//! One job per file: assembly (`build.rs`), the tick and phase runner
//! (`tick.rs`), durability (`checkpoint.rs`), traffic recording
//! (`record.rs`) and registry handles (`telemetry.rs`); this module holds
//! the fleet's state, its accessors and its reports.

mod build;
mod checkpoint;
mod record;
mod telemetry;
mod tick;

pub use build::{Fleet, FleetBuilder};

use crate::report::{
    ClusterReport, ExperienceSharing, FleetReport, NetReport, PersistReport, StripeOccupancy,
};
use crate::sched::FleetPool;
use capes::{
    CapesError, CapesSystem, Hyperparameters, SessionResult, SimulatedLustre, TickMeasurement,
    Transport,
};
use capes_agents::ActionMessage;
use capes_drl::{ActionDecision, DqnAgent};
use capes_persist::{PersistError, RecordLogWriter, SnapshotSlot};
use capes_replay::ReplayArena;
use capes_tensor::Matrix;
use std::fmt;
use std::path::PathBuf;
use telemetry::{FleetTelemetry, PersistCounters};

/// Errors from assembling or running a fleet.
#[derive(Debug)]
pub enum FleetError {
    /// The fleet has no member clusters.
    EmptyFleet,
    /// The hyperparameters or a member system's configuration were
    /// rejected, or a snapshot disagrees with this fleet's geometry.
    Capes(CapesError),
    /// The socket front end failed to start (bind, epoll, or connect).
    Socket(std::io::Error),
    /// A checkpoint or record log could not be written, read or decoded.
    Persist(PersistError),
    /// Wire-traffic recording was requested on a transport that moves no
    /// socket traffic ([`FleetDaemon::record_to`] needs
    /// [`Transport::Socket`]).
    RecordUnsupported,
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::EmptyFleet => write!(f, "a fleet needs at least one scenario"),
            FleetError::Capes(e) => write!(f, "fleet configuration rejected: {e}"),
            FleetError::Socket(e) => write!(f, "socket front end failed to start: {e}"),
            FleetError::Persist(e) => write!(f, "checkpoint/record persistence failed: {e}"),
            FleetError::RecordUnsupported => {
                write!(f, "wire-traffic recording requires the socket transport")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Capes(e) => Some(e),
            FleetError::Socket(e) => Some(e),
            FleetError::Persist(e) => Some(e),
            FleetError::EmptyFleet | FleetError::RecordUnsupported => None,
        }
    }
}

impl From<CapesError> for FleetError {
    fn from(e: CapesError) -> Self {
        FleetError::Capes(e)
    }
}

impl From<PersistError> for FleetError {
    fn from(e: PersistError) -> Self {
        FleetError::Persist(e)
    }
}

/// One member cluster: a full CAPES vertical slice minus the decision maker.
struct ClusterSession {
    name: String,
    scenario: String,
    system: CapesSystem<SimulatedLustre>,
    /// Which profile (shared agent + batch buffers) this cluster belongs to.
    profile: usize,
    /// This cluster's row in the profile's observation batch.
    row: usize,
    /// The in-flight measurement: each tick's measure phase overwrites it,
    /// and `finish_tick` reads it.
    measurement: TickMeasurement,
    /// The in-flight action: each tick's scatter overwrites it, and
    /// `apply_action` takes its parameter vector.
    action: ActionMessage,
}

/// Fleet-wide sum of the member daemons' rejected monitoring reports.
fn reports_rejected(sessions: &[ClusterSession]) -> u64 {
    sessions
        .iter()
        .map(|s| s.system.daemon_stats().reports_rejected)
        .sum()
}

/// A group of clusters sharing one observation geometry and therefore one
/// DQN: their observations stack into `batch` and one
/// [`DqnAgent::decide_batch`] call decides for all of them.
struct Profile {
    observation_size: usize,
    num_params: usize,
    agent: DqnAgent,
    batch: Matrix,
    has_obs: Vec<bool>,
    decisions: Vec<ActionDecision>,
    /// Arena stripes (= cluster indices) of the member clusters, in row
    /// order — the stripe set experience sharing samples across.
    stripe_members: Vec<usize>,
}

/// The multi-cluster tuning service (see the module docs for the tick
/// pipeline).
pub struct FleetDaemon {
    hyperparams: Hyperparameters,
    sessions: Vec<ClusterSession>,
    profiles: Vec<Profile>,
    /// The fleet-wide replay arena; stripe `i` belongs to cluster `i`.
    arena: ReplayArena,
    /// Experience-sharing mode per profile (default: disabled).
    profile_sharing: Vec<ExperienceSharing>,
    /// Persistent stripe-weight buffer for the training draws.
    weights_buf: Vec<f64>,
    /// The fleet worker pool sharding member clusters across threads.
    sched: FleetPool,
    tick: u64,
    train_cursor: usize,
    cluster_ticks: u64,
    /// Durability counters (process lifetime; never part of a snapshot),
    /// published into the global registry under `persist.*`.
    persist: PersistCounters,
    /// Registry handles for tick-phase latencies, objective gauges and the
    /// windowed throughput gauge.
    telemetry: FleetTelemetry,
    /// Automatic checkpointing: every N fleet ticks, snapshot to the path.
    auto_checkpoint: Option<(u64, PathBuf)>,
    /// The destination of the latest [`FleetDaemon::checkpoint`] and its
    /// spare, the previous generation's file the next checkpoint to the
    /// same path overwrites. Replaced when the path changes; dropping it
    /// removes the spare.
    snapshot_slot: Option<SnapshotSlot>,
    /// Wire-traffic recorder tapping the socket ingest path.
    recorder: Option<RecordLogWriter>,
    /// The socket front end: `Some` exactly when the fleet runs on
    /// [`Transport::Socket`].
    socket: Option<crate::socket::SocketFront>,
}

impl FleetDaemon {
    /// Number of member clusters.
    pub fn num_clusters(&self) -> usize {
        self.sessions.len()
    }

    /// Number of profiles (distinct observation geometries, each with its own
    /// shared agent).
    pub fn num_profiles(&self) -> usize {
        self.profiles.len()
    }

    /// Member cluster names, in scenario order.
    pub fn cluster_names(&self) -> Vec<&str> {
        self.sessions.iter().map(|s| s.name.as_str()).collect()
    }

    /// Global fleet tick (every cluster has advanced this many seconds).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The transport the fleet was built with: only a socket fleet owns a
    /// socket front end.
    fn transport(&self) -> Transport {
        if self.socket.is_some() {
            Transport::Socket
        } else {
            Transport::Wire
        }
    }

    /// Fleet worker parallelism currently in force (1 = sequential).
    pub fn workers(&self) -> usize {
        self.sched.threads()
    }

    /// Re-sizes the fleet worker pool (1 = the sequential path). Worker
    /// count never changes results — only how clusters are sharded across
    /// threads — so this is safe to call between ticks of a live run.
    pub fn set_workers(&mut self, workers: usize) {
        let workers = workers.max(1);
        if workers != self.sched.threads() {
            self.sched = FleetPool::new(workers);
        }
    }

    /// Read access to a member system (diagnostics, tests).
    pub fn system(&self, cluster: usize) -> &CapesSystem<SimulatedLustre> {
        // In bounds: caller contract — `cluster` indexes the fleet.
        &self.sessions[cluster].system
    }

    /// The profile agent serving `cluster`.
    pub fn agent_for(&self, cluster: usize) -> &DqnAgent {
        // In bounds: caller contract on `cluster`; `session.profile` is
        // assigned from `profiles` positions at build time.
        &self.profiles[self.sessions[cluster].profile].agent
    }

    /// The fleet-wide replay arena (stripe `i` belongs to cluster `i`).
    pub fn arena(&self) -> &ReplayArena {
        &self.arena
    }

    /// Member clusters (= arena stripes) of `profile`, in row order.
    pub fn profile_members(&self, profile: usize) -> &[usize] {
        // In bounds: caller contract — `profile` indexes `profiles`.
        &self.profiles[profile].stripe_members
    }

    /// Sets the experience-sharing weights of one profile (see
    /// [`ExperienceSharing`]; every profile starts at
    /// [`ExperienceSharing::Disabled`]). The setting is daemon state: it holds
    /// for every later [`FleetDaemon::run`] and [`FleetDaemon::tick_all`]
    /// until set again, and checkpoints carry it.
    ///
    /// # Panics
    /// Panics if `profile` is out of range, or if a weight is negative or
    /// non-finite, both weights are zero, or `own` is zero on a one-member
    /// profile.
    pub fn set_profile_sharing(&mut self, profile: usize, mode: ExperienceSharing) {
        assert!(
            profile < self.profiles.len(),
            "profile {profile} out of range ({} profiles)",
            self.profiles.len()
        );
        // In bounds: the range assert above validated `profile`.
        let verdict = mode.validate(self.profiles[profile].stripe_members.len());
        assert!(verdict.is_ok(), "profile {profile}: {verdict:?}");
        // In bounds: the range assert above validated `profile`.
        self.profile_sharing[profile] = mode;
    }

    /// The experience-sharing mode of `profile`.
    pub fn profile_sharing(&self, profile: usize) -> ExperienceSharing {
        // In bounds: caller contract — `profile` indexes `profiles`.
        self.profile_sharing[profile]
    }

    /// The loopback address of the socket front end, when the fleet runs on
    /// [`Transport::Socket`] (diagnostics; extra monitoring connections may
    /// attach here).
    pub fn socket_addr(&self) -> Option<std::net::SocketAddr> {
        self.socket.as_ref().map(|front| front.addr())
    }

    /// Durability counters accumulated over this daemon's lifetime
    /// (checkpoints written, restores, recorded frames).
    pub fn persist_report(&self) -> PersistReport {
        self.persist.snapshot()
    }

    /// The [`FleetReport`] of a run: one report per cluster from its phase
    /// results, the arena occupancy per stripe, the run's throughput, and the
    /// daemon's net, persist and telemetry state.
    fn report(
        &self,
        per_cluster: Vec<Vec<SessionResult>>,
        cluster_ticks: u64,
        elapsed_seconds: f64,
    ) -> FleetReport {
        FleetReport {
            clusters: self
                .sessions
                .iter()
                .zip(per_cluster)
                .map(|(session, sessions)| ClusterReport {
                    name: session.name.clone(),
                    scenario: session.scenario.clone(),
                    report: capes::ExperimentReport { sessions },
                })
                .collect(),
            arena: self
                .sessions
                .iter()
                .enumerate()
                .map(|(i, session)| {
                    let stats = self.arena.stripe_stats(i);
                    StripeOccupancy {
                        cluster: session.name.clone(),
                        occupied_ticks: stats.occupied_ticks,
                        evicted_ticks: stats.evicted_ticks,
                        total_inserted: stats.total_inserted,
                    }
                })
                .collect(),
            cluster_ticks,
            elapsed_seconds,
            cluster_ticks_per_sec: if elapsed_seconds > 0.0 {
                cluster_ticks as f64 / elapsed_seconds
            } else {
                0.0
            },
            recent_cluster_ticks_per_sec: self.telemetry.recent_rate_value,
            net: self.net_report(),
            persist: self.persist.snapshot(),
            telemetry: capes_telemetry::global().snapshot(),
        }
    }

    /// Connection/ingest health for the report. Counters are zero (and
    /// `enabled` false) on the wire transport; `reports_rejected`
    /// aggregates the member daemons' ingest rejections on every transport.
    pub fn net_report(&self) -> NetReport {
        let reports_rejected = reports_rejected(&self.sessions);
        let Some(front) = &self.socket else {
            return NetReport {
                transport: "wire".to_string(),
                reports_rejected,
                ..NetReport::default()
            };
        };
        let stats = front.stats();
        // Per-tick rates are over the front end's lifetime, the span of its
        // counters: every run of this daemon, but not the ticks a restored
        // snapshot had carried before this process started.
        let ticks = front.ticks().max(1) as f64;
        NetReport {
            transport: "socket".to_string(),
            enabled: true,
            accepted: stats.accepted,
            active: stats.active,
            shed_backpressure: stats.shed_backpressure,
            shed_idle: stats.shed_idle,
            disconnects: stats.disconnects,
            decode_errors: stats.decode_errors,
            reports_rejected,
            frames_in: stats.frames_in,
            frames_out: stats.frames_out,
            bytes_in: stats.bytes_in,
            bytes_out: stats.bytes_out,
            bytes_in_per_tick: stats.bytes_in as f64 / ticks,
            bytes_out_per_tick: stats.bytes_out as f64 / ticks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioSpec;
    use capes_simstore::Workload;

    pub(super) fn quick_hp() -> Hyperparameters {
        Hyperparameters {
            sampling_ticks_per_observation: 3,
            exploration_period_ticks: 300,
            adam_learning_rate: 2e-3,
            ..Hyperparameters::quick_test()
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sharing_rejects_unknown_profiles() {
        let mut daemon = Fleet::builder()
            .hyperparams(quick_hp())
            .scenarios([ScenarioSpec::new("w", Workload::random_rw(0.1)).clients(2)])
            .build()
            .unwrap();
        daemon.set_profile_sharing(5, ExperienceSharing::Uniform);
    }
}
