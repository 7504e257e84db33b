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
//!    agent on the stripe weights of the profile's experience-sharing mode
//!    ([`crate::report::ExperienceSharing`]): that cluster's own arena
//!    stripe when sharing is disabled, a weighted set of the profile's
//!    stripes otherwise.
//!
//! Measuring, applying and finishing touch one cluster each, so they run
//! cluster-parallel on the fleet pool:
//! [`WorkerPool::run_mut`](capes_tensor::WorkerPool::run_mut) hands every
//! worker a disjoint `&mut` chunk of the sessions, and each session carries
//! its own in-flight measurement and action. Deciding, moving actions through
//! the transport and training stay on the daemon thread; training consumes
//! the shared agent's RNG.
//!
//! Experience lives in **one** fleet-wide [`ReplayArena`] striped by cluster
//! (replacing the per-cluster `SharedReplayDb` shards of the pre-arena
//! daemon): every member system is built over a stripe view of the shared
//! arena, so its monitoring pipeline — wire frames included — writes straight
//! into its stripe, and cross-cluster sampling needs no data movement at all.
//!
//! A fleet of one cluster is bit-identical to a standalone
//! [`capes::Experiment`] under the same seeds — the integration tests hold
//! the two JSON reports equal — and a fleet with sharing disabled is
//! bit-identical to the sharded pre-arena fleet, so the layer adds scale and
//! transfer learning without changing the algorithm.

use crate::report::{
    ClusterReport, ExperienceSharing, FleetPlan, FleetReport, NetReport, PersistReport,
    ProfileSharing, StripeOccupancy,
};
use crate::scenario::ScenarioSpec;
use crate::sched::FleetPool;
use capes::{
    step_params, Capes, CapesError, CapesSystem, Hyperparameters, NullEngine, PhaseKind,
    ProposedAction, SessionResult, SimulatedLustre, TickMeasurement, Transport,
};
use capes_agents::wire::encode_message;
use capes_agents::ActionMessage;
use capes_drl::{ActionDecision, DqnAgent};
use capes_persist::{Persist, PersistError, RecordLogWriter, SnapshotSlot};
use capes_replay::ReplayArena;
use capes_telemetry::{Counter, Gauge, Histogram};
use capes_tensor::Matrix;
use std::collections::VecDeque;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Errors from assembling or running a fleet.
#[derive(Debug)]
pub enum FleetError {
    /// The fleet has no member clusters.
    EmptyFleet,
    /// A member system failed to assemble.
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
            FleetError::Capes(e) => write!(f, "member system failed to assemble: {e}"),
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

fn checkpoint_mismatch(reason: impl Into<String>) -> FleetError {
    FleetError::Capes(CapesError::CheckpointMismatch {
        reason: reason.into(),
    })
}

/// Entry point for the fleet builder API (mirrors [`capes::Capes`]).
pub struct Fleet;

impl Fleet {
    /// Starts building a fleet daemon.
    pub fn builder() -> FleetBuilder {
        FleetBuilder {
            hyperparams: Hyperparameters::paper(),
            seed: 0,
            transport: Transport::Wire,
            scenarios: Vec::new(),
            workers: None,
        }
    }
}

/// Configures and assembles a [`FleetDaemon`].
pub struct FleetBuilder {
    hyperparams: Hyperparameters,
    seed: u64,
    transport: Transport,
    scenarios: Vec<ScenarioSpec>,
    workers: Option<usize>,
}

impl FleetBuilder {
    /// Sets the hyperparameters shared by every profile agent (default:
    /// [`Hyperparameters::paper`]).
    #[must_use]
    pub fn hyperparams(mut self, hyperparams: Hyperparameters) -> Self {
        self.hyperparams = hyperparams;
        self
    }

    /// Sets the fleet seed: profile agents and (unpinned) cluster simulations
    /// derive their seeds from it deterministically.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the transport (default: [`Transport::Wire`] — monitoring reports
    /// travel as binary frames into each member's Interface Daemon; with
    /// [`Transport::Socket`] they, and the actions, also cross real loopback
    /// TCP connections).
    #[must_use]
    pub fn transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the fleet worker parallelism: how many threads (including the
    /// daemon thread) tick member clusters in parallel. Defaults to the
    /// `CAPES_FLEET_THREADS` environment variable, or **1** — today's
    /// sequential path. Worker count never changes results: multi-worker
    /// fleets are bit-identical to sequential ones on every transport.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Appends one member cluster.
    #[must_use]
    pub fn scenario(mut self, spec: ScenarioSpec) -> Self {
        self.scenarios.push(spec);
        self
    }

    /// Appends many member clusters.
    #[must_use]
    pub fn scenarios<I: IntoIterator<Item = ScenarioSpec>>(mut self, specs: I) -> Self {
        self.scenarios.extend(specs);
        self
    }

    /// Validates and assembles the fleet.
    ///
    /// # Errors
    /// [`FleetError::EmptyFleet`] without scenarios; [`FleetError::Capes`]
    /// when a member system rejects the configuration.
    pub fn build(self) -> Result<FleetDaemon, FleetError> {
        if self.scenarios.is_empty() {
            return Err(FleetError::EmptyFleet);
        }
        // One fleet-wide replay arena, striped by cluster: stripe i carries
        // cluster i's geometry. Members are built over stripe views, so the
        // builder's config check guarantees each stripe matches what the
        // member would have derived for itself.
        let arena = ReplayArena::new(
            self.scenarios
                .iter()
                .map(|spec| {
                    self.hyperparams
                        .replay_config(spec.num_clients, spec.pis_per_client())
                })
                .collect::<Vec<_>>(),
        );
        let mut profiles: Vec<Profile> = Vec::new();
        let mut sessions: Vec<ClusterSession> = Vec::with_capacity(self.scenarios.len());
        for (index, spec) in self.scenarios.iter().enumerate() {
            let seed = spec.effective_seed(self.seed, index);
            let target = spec.build_target(self.seed, index);
            let system = Capes::builder(target)
                .hyperparams(self.hyperparams)
                .seed(seed)
                .engine(Box::new(NullEngine))
                .transport(self.transport)
                .replay_db(arena.stripe(index))
                .build()?;
            let observation_size = spec.observation_size(&self.hyperparams);
            let num_params = system.specs().len();
            let profile = match profiles
                .iter()
                .position(|p| p.observation_size == observation_size && p.num_params == num_params)
            {
                Some(existing) => existing,
                None => {
                    // Profile 0's agent seed matches the seed formula of the
                    // default single-system engine, which is what makes a
                    // one-cluster fleet bit-identical to an `Experiment`.
                    let agent_seed = (self.seed ^ 0x5eed)
                        .wrapping_add((profiles.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    let config = self.hyperparams.agent_config(observation_size, num_params);
                    profiles.push(Profile {
                        observation_size,
                        num_params,
                        agent: DqnAgent::new(config, agent_seed),
                        batch: Matrix::zeros(1, 1),
                        has_obs: Vec::new(),
                        decisions: Vec::new(),
                        stripe_members: Vec::new(),
                    });
                    profiles.len() - 1
                }
            };
            // In bounds: `profile` is either a hit from the dedup scan over
            // `profiles` or the index of the entry pushed just above.
            let row = profiles[profile].stripe_members.len();
            // In bounds: same `profile` as the line above.
            profiles[profile].stripe_members.push(index);
            let scenario = format!(
                "{} · {} clients × {} servers · seed {}",
                spec.workload_label(),
                spec.num_clients,
                spec.num_servers,
                seed
            );
            sessions.push(ClusterSession {
                name: spec.name.clone(),
                scenario,
                system,
                profile,
                row,
                series: Vec::new(),
                errors_before: 0,
                measurement: None,
                action: None,
            });
        }
        for profile in &mut profiles {
            let members = profile.stripe_members.len();
            profile.batch = Matrix::zeros(members, profile.observation_size);
            profile.has_obs = vec![false; members];
            profile.decisions = Vec::with_capacity(members);
        }
        // Socket transport: spawn the reactor server and one loopback client
        // per cluster. Per-tick uplink volume is two messages (report +
        // objective) per monitor.
        let socket = if self.transport == Transport::Socket {
            let expected: Vec<usize> = sessions
                .iter()
                .map(|s| 2 * s.system.num_monitors())
                .collect();
            Some(crate::socket::SocketFront::new(expected).map_err(FleetError::Socket)?)
        } else {
            None
        };
        let num_clusters = sessions.len();
        let num_profiles = profiles.len();
        // Observability wiring: the daemon's durability counters are scraped
        // under the `persist.*` names.
        let persist = PersistCounters::new();
        persist.publish(capes_telemetry::global());
        let names: Vec<&str> = sessions.iter().map(|s| s.name.as_str()).collect();
        let telemetry = FleetTelemetry::new(&names);
        let sched = FleetPool::new(
            self.workers
                .unwrap_or_else(crate::sched::configured_fleet_threads),
        );
        Ok(FleetDaemon {
            hyperparams: self.hyperparams,
            sessions,
            profiles,
            arena,
            profile_sharing: vec![ExperienceSharing::Disabled; num_profiles],
            weights_buf: vec![0.0; num_clusters],
            sched,
            tick: 0,
            train_cursor: 0,
            cluster_ticks: 0,
            persist,
            telemetry,
            auto_checkpoint: None,
            snapshot_slot: None,
            recorder: None,
            socket,
        })
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
    /// Throughput series of the in-progress phase.
    series: Vec<f64>,
    /// Prediction-error count at the start of the in-progress phase.
    errors_before: usize,
    /// This tick's measurement, from the measure phase to `finish_tick`
    /// (`None` between ticks).
    measurement: Option<TickMeasurement>,
    /// This tick's action message, from the decision to `apply_action`
    /// (`None` outside that stretch).
    action: Option<ActionMessage>,
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

/// Fleet ticks the windowed-throughput gauge averages over.
const TICK_WINDOW: usize = 32;

/// The daemon's handles into the global metrics registry: tick-phase
/// histograms, the per-cluster objective gauges, the windowed throughput
/// gauge, and the fleet-wide aggregates of the member daemons' ingest
/// rejection counters. Handles are interned once at build time, so recording
/// them on the tick path takes no locks and no allocation.
struct FleetTelemetry {
    tick_total: Histogram,
    tick_gather: Histogram,
    tick_decide: Histogram,
    tick_scatter: Histogram,
    tick_train: Histogram,
    /// `fleet.tick.recent_rate`: cluster-ticks/s over the last
    /// [`TICK_WINDOW`] fleet ticks — a mid-run stall shows here long before
    /// it dents the whole-run average.
    recent_rate: Gauge,
    /// `fleet.cluster.<name>.objective`, one per cluster in scenario order:
    /// the objective value (throughput MB/s) of the cluster's latest tick.
    objectives: Vec<Gauge>,
    /// Fleet-wide sums of the member daemons' rejection counters, refreshed
    /// every tick (N member daemons cannot alias one registry name, so the
    /// fleet stores the aggregate).
    reports_rejected: Counter,
    implausible_ticks: Counter,
    /// `persist.checkpoint.{encode,crc,write,fsync,dirsync}`: where one
    /// streamed checkpoint's time went, recorded from the
    /// `capes_persist::SnapshotStats` its writer returns; and
    /// `persist.checkpoint.writeback`, the early flushes that ran beside
    /// them.
    checkpoint_encode: Histogram,
    checkpoint_crc: Histogram,
    checkpoint_write: Histogram,
    checkpoint_fsync: Histogram,
    checkpoint_dirsync: Histogram,
    checkpoint_writeback: Histogram,
    /// `persist.checkpoint.bytes`: size of the latest snapshot file.
    checkpoint_bytes: Gauge,
    /// Completion instants of the last [`TICK_WINDOW`] fleet ticks.
    window: VecDeque<Instant>,
    /// Last computed windowed rate (mirrors the gauge for the report).
    recent_rate_value: f64,
}

impl FleetTelemetry {
    fn new(cluster_names: &[&str]) -> Self {
        let registry = capes_telemetry::global();
        FleetTelemetry {
            tick_total: registry.histogram("fleet.tick.total"),
            tick_gather: registry.histogram("fleet.tick.gather"),
            tick_decide: registry.histogram("fleet.tick.decide"),
            tick_scatter: registry.histogram("fleet.tick.scatter"),
            tick_train: registry.histogram("fleet.tick.train"),
            recent_rate: registry.gauge("fleet.tick.recent_rate"),
            objectives: cluster_names
                .iter()
                .map(|name| registry.gauge(&format!("fleet.cluster.{name}.objective")))
                .collect(),
            reports_rejected: registry.counter("daemon.reports_rejected"),
            implausible_ticks: registry.counter("daemon.implausible_ticks"),
            checkpoint_encode: registry.histogram("persist.checkpoint.encode"),
            checkpoint_crc: registry.histogram("persist.checkpoint.crc"),
            checkpoint_write: registry.histogram("persist.checkpoint.write"),
            checkpoint_fsync: registry.histogram("persist.checkpoint.fsync"),
            checkpoint_dirsync: registry.histogram("persist.checkpoint.dirsync"),
            checkpoint_writeback: registry.histogram("persist.checkpoint.writeback"),
            checkpoint_bytes: registry.gauge("persist.checkpoint.bytes"),
            window: VecDeque::with_capacity(TICK_WINDOW + 1),
            recent_rate_value: 0.0,
        }
    }

    /// Closes out one fleet tick: advances the throughput window and
    /// refreshes the windowed-rate gauge.
    fn finish_tick(&mut self, num_clusters: usize) {
        self.window.push_back(Instant::now());
        if self.window.len() > TICK_WINDOW {
            self.window.pop_front();
        }
        if let (Some(first), Some(last)) = (self.window.front(), self.window.back()) {
            let span = last.duration_since(*first).as_secs_f64();
            if self.window.len() >= 2 && span > 0.0 {
                let ticks = (self.window.len() - 1) as f64 * num_clusters as f64;
                self.recent_rate_value = ticks / span;
                self.recent_rate.set(self.recent_rate_value);
            }
        }
    }
}

/// Durability counters as registry-published telemetry: the daemon owns the
/// atomics (exact per-daemon values even with several fleets in one
/// process), the global registry scrapes the same storage under the
/// `persist.*` names, and [`PersistCounters::snapshot`] materialises the
/// [`PersistReport`] the fleet report carries.
struct PersistCounters {
    checkpoints_written: Counter,
    restores: Counter,
    auto_checkpoints: Counter,
    auto_checkpoint_failures: Counter,
    records_appended: Counter,
    record_failures: Counter,
}

impl PersistCounters {
    fn new() -> Self {
        PersistCounters {
            checkpoints_written: Counter::new(),
            restores: Counter::new(),
            auto_checkpoints: Counter::new(),
            auto_checkpoint_failures: Counter::new(),
            records_appended: Counter::new(),
            record_failures: Counter::new(),
        }
    }

    fn publish(&self, registry: &capes_telemetry::Registry) {
        registry.publish_counter("persist.checkpoints_written", &self.checkpoints_written);
        registry.publish_counter("persist.restores", &self.restores);
        registry.publish_counter("persist.auto_checkpoints", &self.auto_checkpoints);
        registry.publish_counter(
            "persist.auto_checkpoint_failures",
            &self.auto_checkpoint_failures,
        );
        registry.publish_counter("persist.records_appended", &self.records_appended);
        registry.publish_counter("persist.record_failures", &self.record_failures);
    }

    fn snapshot(&self) -> PersistReport {
        PersistReport {
            checkpoints_written: self.checkpoints_written.get(),
            restores: self.restores.get(),
            auto_checkpoints: self.auto_checkpoints.get(),
            auto_checkpoint_failures: self.auto_checkpoint_failures.get(),
            records_appended: self.records_appended.get(),
            record_failures: self.record_failures.get(),
        }
    }
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

    /// Cluster-ticks executed so far (clusters × ticks).
    pub fn cluster_ticks(&self) -> u64 {
        self.cluster_ticks
    }

    /// The hyperparameters in force.
    pub fn hyperparams(&self) -> &Hyperparameters {
        &self.hyperparams
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

    /// Sets the experience-sharing mode of one profile (see
    /// [`ExperienceSharing`]); [`FleetDaemon::run`] applies a plan's sharing
    /// table through this.
    ///
    /// # Panics
    /// Panics if `profile` is out of range, or if a
    /// [`ExperienceSharing::SelfBiased`] weight is negative or non-finite,
    /// both weights are zero, or `own` is zero on a one-member profile.
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

    /// The windowed fleet throughput: cluster-ticks/s over the last 32 fleet
    /// ticks (also published as the `fleet.tick.recent_rate` gauge). Zero
    /// until two ticks have completed.
    pub fn recent_cluster_ticks_per_sec(&self) -> f64 {
        self.telemetry.recent_rate_value
    }

    /// Serializes the complete mid-experiment state of the fleet into a
    /// crash-safe snapshot file: transport, tick counters, per-profile
    /// experience sharing and DQN agents (weights, Adam state, ε-schedule
    /// RNG), the whole replay arena, and every member system's state
    /// (simulated cluster RNGs, monitors, interface daemon, control-agent
    /// caches, tick bookkeeping). [`FleetDaemon::restore`] of the file into an
    /// identically-built fleet resumes bit-identically: the same future
    /// reports and the same final weights as the uninterrupted run.
    ///
    /// The write is atomic (temp file + fsync + rename), so a crash leaves
    /// the previous snapshot intact, and `Ok` means the new one is durable
    /// under `path`. The daemon keeps a [`SnapshotSlot`] for the path it
    /// last checkpointed to: from the second checkpoint to the same path
    /// on, the previous generation's file stays beside it as `<path>.tmp`
    /// and the next checkpoint overwrites it in place, which spares the
    /// filesystem a fresh file and the rename the eviction of a whole
    /// snapshot. Checkpointing to another path, or dropping the daemon,
    /// removes that spare. Durability counters themselves are not in the
    /// payload — a restored fleet's future snapshots stay byte-identical
    /// to the original's.
    pub fn checkpoint(&mut self, path: &Path) -> Result<(), FleetError> {
        // Five disjoint pieces of `persist.checkpoint.total`: `.encode`,
        // `.crc`, `.write`, `.fsync` and `.dirsync`. Encoding, checksumming
        // and writing interleave chunk by chunk as the snapshot streams into
        // its temporary file, so the writer accumulates them and reports
        // the sums (`capes-persist` is dependency-free and cannot record
        // them itself).
        // A slot for another path is dropped first, outside the span: that
        // removes its spare, and the kernel evicts and frees a whole
        // snapshot, which none of the five pieces would account for.
        if self
            .snapshot_slot
            .as_ref()
            .is_some_and(|slot| slot.path() != path)
        {
            self.snapshot_slot = None;
        }
        let _total = capes_telemetry::span!("persist.checkpoint.total");
        let transport = self.transport();
        let slot = self
            .snapshot_slot
            .get_or_insert_with(|| SnapshotSlot::new(path));
        let mut w = slot.writer()?;
        w.put_u8(transport.tag());
        w.put_u64(self.tick);
        w.put_usize(self.train_cursor);
        w.put_u64(self.cluster_ticks);
        self.profile_sharing.encode(&mut w);
        w.put_usize(self.profiles.len());
        for profile in &self.profiles {
            w.put_usize(profile.observation_size);
            w.put_usize(profile.num_params);
            profile.stripe_members.encode(&mut w);
            profile.agent.encode(&mut w);
        }
        self.arena.encode(&mut w);
        w.put_usize(self.sessions.len());
        for session in &self.sessions {
            w.put_str(&session.name);
            session.series.encode(&mut w);
            w.put_usize(session.errors_before);
            // Each member system's state rides as one length-prefixed blob,
            // so restore can collect and validate all of them before
            // touching any session. An open blob is held whole in the
            // writer's buffer; members run a `NullEngine` (their agents are
            // the profiles' above), so theirs stay far below the window.
            w.put_blob(|w| session.system.encode_state(w));
        }
        let stats = w.finish()?;
        // `.fsync` counts the data fsyncs issued, so it is never muted; the
        // others are spans in all but name and follow the span switch.
        self.telemetry.checkpoint_fsync.record_duration(stats.fsync);
        if capes_telemetry::recording() {
            self.telemetry
                .checkpoint_encode
                .record_duration(stats.encode);
            self.telemetry.checkpoint_crc.record_duration(stats.crc);
            self.telemetry.checkpoint_write.record_duration(stats.write);
            self.telemetry
                .checkpoint_dirsync
                .record_duration(stats.dirsync);
            self.telemetry
                .checkpoint_writeback
                .record_duration(stats.writeback);
        }
        self.telemetry.checkpoint_bytes.set(stats.bytes as f64);
        self.persist.checkpoints_written.inc();
        Ok(())
    }

    /// Restores a [`FleetDaemon::checkpoint`] snapshot into this fleet.
    ///
    /// The fleet must have been built with the same plan the snapshot was
    /// taken under: same transport, same scenarios (names and geometry in
    /// order), same replay configuration. Everything is decoded and
    /// validated *before* any state is overwritten, so configuration skew —
    /// wrong cluster count, wrong observation width, mismatched replay
    /// capacity — is a typed error that leaves the fleet untouched:
    /// [`CapesError::CheckpointMismatch`] for geometry disagreements,
    /// [`CapesError::ReplayConfigMismatch`] for arena-stripe disagreements,
    /// [`FleetError::Persist`] for corrupt or truncated files.
    ///
    /// One caveat: the per-session apply step runs after global validation,
    /// so a deliberately crafted payload that passes its CRC and every
    /// geometry check yet still fails mid-session leaves the daemon
    /// part-restored. Such a daemon must be discarded, not run.
    pub fn restore(&mut self, path: &Path) -> Result<(), FleetError> {
        let _span = capes_telemetry::span!("persist.restore");
        // Two passes over one open file. The first verifies the container —
        // magic, version, length against the file size, CRC — before any
        // payload byte is interpreted; the second streams the payload
        // through the codec's window, so the file image is never resident.
        let mut snapshot = {
            let _verify = capes_telemetry::span!("persist.restore.verify");
            capes_persist::SnapshotFile::open(path)?
        };
        let mut r = snapshot.reader()?;

        // Pure phase: decode and validate everything into locals.
        let tag = r.get_u8()?;
        if tag != self.transport().tag() {
            return Err(checkpoint_mismatch(format!(
                "snapshot transport tag {tag} disagrees with the fleet's {:?} transport",
                self.transport()
            )));
        }
        let tick = r.get_u64()?;
        let train_cursor = r.get_usize()?;
        let cluster_ticks = r.get_u64()?;
        let sharing = Vec::<ExperienceSharing>::decode(&mut r)?;
        if sharing.len() != self.profiles.len() {
            return Err(checkpoint_mismatch(format!(
                "snapshot holds sharing modes for {} profiles, this fleet has {}",
                sharing.len(),
                self.profiles.len()
            )));
        }
        for (mode, profile) in sharing.iter().zip(&self.profiles) {
            mode.validate(profile.stripe_members.len())
                .map_err(|what| PersistError::BadValue { what })?;
        }
        let num_profiles = r.get_count(1)?;
        if num_profiles != self.profiles.len() {
            return Err(checkpoint_mismatch(format!(
                "snapshot holds {num_profiles} profiles, this fleet has {}",
                self.profiles.len()
            )));
        }
        let mut agents = Vec::with_capacity(num_profiles);
        for (i, profile) in self.profiles.iter().enumerate() {
            let observation_size = r.get_usize()?;
            let num_params = r.get_usize()?;
            let stripe_members = Vec::<usize>::decode(&mut r)?;
            if observation_size != profile.observation_size
                || num_params != profile.num_params
                || stripe_members != profile.stripe_members
            {
                return Err(checkpoint_mismatch(format!(
                    "profile {i} geometry disagrees with the snapshot \
                     (snapshot: {observation_size}-wide × {num_params} params over \
                     {stripe_members:?}; fleet: {}-wide × {} params over {:?})",
                    profile.observation_size, profile.num_params, profile.stripe_members
                )));
            }
            let agent = DqnAgent::decode(&mut r)?;
            if agent.config().observation_size != profile.observation_size
                || agent.config().num_params != profile.num_params
            {
                return Err(checkpoint_mismatch(format!(
                    "profile {i}'s snapshot agent was trained for a different geometry"
                )));
            }
            agents.push(agent);
        }
        let arena = ReplayArena::decode(&mut r)?;
        let num_sessions = r.get_count(1)?;
        if num_sessions != self.sessions.len() {
            return Err(checkpoint_mismatch(format!(
                "snapshot holds {num_sessions} clusters, this fleet has {}",
                self.sessions.len()
            )));
        }
        let mut session_state = Vec::with_capacity(num_sessions);
        for session in &self.sessions {
            let name = r.get_str()?;
            if name != session.name {
                return Err(checkpoint_mismatch(format!(
                    "snapshot cluster '{name}' does not match fleet cluster '{}'",
                    session.name
                )));
            }
            let series = Vec::<f64>::decode(&mut r)?;
            let errors_before = r.get_usize()?;
            // The reader's window moves on; the member blob is detached.
            let blob = r.get_byte_vec()?;
            session_state.push((series, errors_before, blob));
        }
        r.finish()?;
        // Everything is decoded: release the window and the file before the
        // apply phase.
        drop(r);
        drop(snapshot);

        // Apply phase: nothing above touched `self`, and the arena checks
        // its stripe count and configurations before it swaps anything.
        self.arena
            .restore_from(arena)
            .map_err(|e| CapesError::ReplayConfigMismatch {
                reason: e.to_string(),
            })?;
        for (profile, agent) in self.profiles.iter_mut().zip(agents) {
            profile.agent = agent;
        }
        self.profile_sharing = sharing;
        for (session, (series, errors_before, blob)) in self.sessions.iter_mut().zip(session_state)
        {
            let mut sub = capes_persist::Reader::new(&blob);
            session.system.decode_state(&mut sub)?;
            sub.finish()?;
            session.series = series;
            session.errors_before = errors_before;
        }
        self.tick = tick;
        self.train_cursor = train_cursor;
        self.cluster_ticks = cluster_ticks;
        self.persist.restores.inc();
        Ok(())
    }

    /// Enables automatic checkpointing: after every `every`-th fleet tick
    /// the daemon snapshots itself to `path` with [`FleetDaemon::checkpoint`]
    /// (atomically replacing the previous snapshot, and from the second
    /// snapshot on overwriting the generation before it in place, so the
    /// directory holds `path` and `<path>.tmp` until the daemon checkpoints
    /// elsewhere or is dropped; [`FleetDaemon::disable_auto_checkpoint`]
    /// keeps the spare for the next enable). A failed automatic checkpoint
    /// is counted in the [`PersistReport`] and the run continues —
    /// durability must not take the experiment down.
    ///
    /// # Panics
    /// Panics if `every` is zero.
    pub fn auto_checkpoint_every(&mut self, every: u64, path: impl Into<PathBuf>) {
        assert!(every > 0, "auto-checkpoint interval must be positive");
        self.auto_checkpoint = Some((every, path.into()));
    }

    /// Disables automatic checkpointing.
    pub fn disable_auto_checkpoint(&mut self) {
        self.auto_checkpoint = None;
    }

    /// Starts recording the fleet's inbound wire traffic to an append-only
    /// log at `path`: every monitoring frame the socket front end delivers
    /// is captured as a `(tick, cluster, frame)` record before it is
    /// ingested. [`FleetDaemon::replay_traffic`] (or
    /// [`crate::Replayer`]) feeds the log back through the same ingest path
    /// deterministically. A log that is already open is finished first
    /// (as by [`FleetDaemon::stop_recording`]).
    ///
    /// # Errors
    /// [`FleetError::RecordUnsupported`] unless the fleet runs on
    /// [`Transport::Socket`] — the wire transport never crosses the socket
    /// ingest path; [`FleetError::Persist`] if the open log cannot be
    /// finished (the new one is then not started) or the new one cannot be
    /// created.
    pub fn record_to(&mut self, path: &Path) -> Result<(), FleetError> {
        if self.socket.is_none() {
            return Err(FleetError::RecordUnsupported);
        }
        self.stop_recording()?;
        self.recorder = Some(RecordLogWriter::create(path)?);
        Ok(())
    }

    /// Stops recording, flushes and fsyncs the log, and returns the number
    /// of records captured. Returns `Ok(0)` when no recording was active.
    pub fn stop_recording(&mut self) -> Result<u64, FleetError> {
        match self.recorder.take() {
            Some(recorder) => Ok(recorder.finish()?),
            None => Ok(0),
        }
    }

    /// Feeds a recorded wire-traffic log back through the member systems'
    /// ingest path ([`CapesSystem::ingest_message`]), in the captured
    /// arrival order, and returns how many messages were delivered. Replay
    /// reproduces the monitoring state a live socket fleet built from the
    /// same traffic: the stored observations and objectives, the daemon
    /// ingest statistics — without any socket in the loop.
    pub fn replay_traffic(&mut self, path: &Path) -> Result<u64, FleetError> {
        let mut replayer = crate::traffic::Replayer::open(path)?;
        let mut delivered = 0u64;
        while let Some((_tick, cluster, message)) = replayer.next_message()? {
            let cluster = cluster as usize;
            if cluster >= self.sessions.len() {
                return Err(PersistError::mismatch(format!(
                    "recorded frame addresses cluster {cluster}, this fleet has {}",
                    self.sessions.len()
                ))
                .into());
            }
            // In bounds: the range check above rejects out-of-range clusters.
            self.sessions[cluster].system.ingest_message(&message);
            delivered += 1;
        }
        Ok(delivered)
    }

    /// Advances the whole fleet by one tick of the given phase kind: measure
    /// everywhere, decide per profile in one batched forward pass, scatter
    /// actions, train round-robin, finish everywhere.
    pub fn tick_all(&mut self, kind: PhaseKind) {
        self.tick_inner(kind);
        // The setting is only moved out on a due tick, and put back after.
        let tick = self.tick;
        let due = self
            .auto_checkpoint
            .take_if(|(every, _)| tick.is_multiple_of(*every));
        if let Some((every, path)) = due {
            match self.checkpoint(&path) {
                Ok(()) => self.persist.auto_checkpoints.inc(),
                Err(_) => self.persist.auto_checkpoint_failures.inc(),
            }
            self.auto_checkpoint = Some((every, path));
        }
    }

    fn tick_inner(&mut self, kind: PhaseKind) {
        let FleetDaemon {
            sessions,
            profiles,
            arena,
            profile_sharing,
            weights_buf,
            sched,
            hyperparams,
            tick,
            train_cursor,
            cluster_ticks,
            persist,
            telemetry,
            recorder,
            socket,
            ..
        } = self;
        let recording = capes_telemetry::recording();
        let tick_started = Instant::now();
        let num_clusters = sessions.len();

        // 1. Measurement: every cluster steps, monitors report (as wire
        //    frames or over real sockets), observations gather into the
        //    profile batches. Clusters are independent here, so the work
        //    shards across the fleet pool: each chunk owns a contiguous
        //    cluster range and writes only those clusters' state.
        // 1a. Step every target cluster-parallel. On the wire transport the
        //     reports are already stored; on the socket transport they wait
        //     in each member's outbox and the measurement stays incomplete
        //     (no observation) until the traffic lands back in the daemon.
        sched.run_mut(sessions, 1, 1, |_, chunk| {
            for session in chunk {
                session.measurement = Some(session.system.measure_tick());
            }
        });
        if let Some(front) = socket.as_mut() {
            // 1b. Transmit each cluster's monitoring traffic on its loopback
            //     connection in cluster order: one write per member per tick
            //     (the front end's batch buffer is shared, so the uplink
            //     stays on this thread).
            for (i, session) in sessions.iter_mut().enumerate() {
                session
                    .system
                    .drain_outbox(|message| front.send_uplink(i, &message));
                if let Err(e) = front.flush_uplink(i) {
                    // capes-check: allow(boundary-panic) -- loopback pipe to our own server; failure means the daemon is torn.
                    panic!("socket uplink for cluster {i} failed: {e}");
                }
            }
            // 1c. Drain exactly one tick's worth of decoded messages from the
            //     server and ingest them in arrival order. The recorder taps
            //     the stream here, before ingest, so a replayed log walks the
            //     exact same path.
            let mut record_failed = false;
            front.drain_tick(|cluster, message| {
                if let Some(rec) = recorder.as_mut() {
                    match rec.append(*tick, cluster as u32, &encode_message(message)) {
                        Ok(()) => persist.records_appended.inc(),
                        Err(_) => {
                            persist.record_failures.inc();
                            record_failed = true;
                        }
                    }
                }
                // In bounds: the server routes only clusters that passed its
                // `num_clusters` decode validation.
                sessions[cluster].system.ingest_message(message);
            });
            if record_failed {
                // A log with a failed append can no longer promise the
                // complete stream; stop recording rather than persist a gap
                // silently.
                *recorder = None;
            }
        }
        // 1d. Commit snapshots and assemble observations, cluster-parallel
        //     again.
        sched.run_mut(sessions, 1, 1, |_, chunk| {
            for session in chunk {
                // capes-check: allow(boundary-panic) -- phase 1a measured every cluster this tick.
                let measurement = session.measurement.as_mut().expect("measured above");
                session.system.complete_measurement(kind, measurement);
            }
        });
        if kind != PhaseKind::Baseline {
            for session in sessions.iter() {
                // capes-check: allow(boundary-panic) -- the measure phase above measured every cluster this tick.
                let measurement = session.measurement.as_ref().expect("measured above");
                // In bounds: `session.profile` indexes `profiles` at build.
                let profile = &mut profiles[session.profile];
                match &measurement.observation {
                    Some(obs) => {
                        profile.batch.copy_row_from(session.row, &obs.features, 0);
                        // In bounds: `session.row` is this cluster's stripe
                        // row inside its profile, assigned at build.
                        profile.has_obs[session.row] = true;
                    }
                    // In bounds: same `session.row` invariant.
                    None => profile.has_obs[session.row] = false,
                }
            }
        }
        if recording {
            telemetry
                .tick_gather
                .record_duration(tick_started.elapsed());
        }

        // Outcome of the round-robin training step (shard index, mean
        // prediction error) and its duration, consumed by the feedback phase.
        let mut trained: Option<(usize, f64)> = None;
        let mut train_elapsed = std::time::Duration::ZERO;
        if kind != PhaseKind::Baseline {
            // 2. Decision: one batched forward pass per profile.
            let decide_started = Instant::now();
            let greedy = kind == PhaseKind::Tuned;
            for profile in profiles.iter_mut() {
                let Profile {
                    agent,
                    batch,
                    has_obs,
                    decisions,
                    ..
                } = profile;
                agent.decide_batch(batch, has_obs, *tick, greedy, decisions);
            }
            if recording {
                telemetry
                    .tick_decide
                    .record_duration(decide_started.elapsed());
            }
            let scatter_started = Instant::now();

            // 3. Scatter: map each decision onto absolute parameter values in
            //    one action message per cluster; on the socket transport the
            //    messages cross the loopback connections. This stays on this
            //    thread (the socket buffers are shared).
            for session in sessions.iter_mut() {
                // In bounds: `session.profile`/`session.row` are assigned
                // from `profiles` positions at build time.
                let profile = &profiles[session.profile];
                // In bounds: same build-time assignment.
                let decision = profile.decisions[session.row];
                session.action = Some(ActionMessage {
                    tick: session.system.tick(),
                    action_index: decision.action,
                    parameter_values: step_params(
                        &profile.agent.action_space(),
                        decision.action,
                        &session.system.current_params(),
                        session.system.specs(),
                    ),
                });
            }
            if let Some(front) = socket.as_mut() {
                // Queue every cluster's action on the server-side downlink
                // first (one reactor wake for the whole fan-out), then read
                // them back — the reactor flushes all connections
                // concurrently.
                front.send_actions(sessions.iter_mut().enumerate().map(|(i, session)| {
                    // capes-check: allow(boundary-panic) -- the loop above built one action per cluster.
                    (i, session.action.take().expect("built above"))
                }));
                for (i, session) in sessions.iter_mut().enumerate() {
                    session.action = Some(front.recv_action(i));
                }
            }

            // 3b. Apply, cluster-parallel: an action touches only its own
            //     cluster's state and replay stripe.
            let decided = &*profiles;
            sched.run_mut(sessions, 1, 1, |_, chunk| {
                for session in chunk {
                    // capes-check: allow(boundary-panic) -- the scatter above leaves one action per cluster.
                    let action = session.action.take().expect("delivered above");
                    // In bounds: `session.profile`/`session.row` are assigned
                    // from `profiles` positions at build time.
                    let decision = decided[session.profile].decisions[session.row];
                    session.system.apply_action(ProposedAction {
                        action_index: Some(action.action_index),
                        explored: decision.explored,
                        params: action.parameter_values,
                    });
                }
            });
            if recording {
                telemetry
                    .tick_scatter
                    .record_duration(scatter_started.elapsed());
            }

            // 4. Training, on this thread: it consumes the shared agent's
            //    RNG. Every stripe already holds this tick's transition.
            if kind == PhaseKind::Train {
                let train_started = Instant::now();
                let shard = *train_cursor % num_clusters;
                *train_cursor += 1;
                // In bounds: `shard < num_clusters == sessions.len()`.
                let index = sessions[shard].profile;
                // In bounds: `index` indexes both `profiles` and the
                // parallel `profile_sharing` table (assigned at build).
                let (profile, mode) = (&mut profiles[index], profile_sharing[index]);
                let weights = mode.stripe_weights(&profile.stripe_members, shard, weights_buf);
                let mut sum = 0.0;
                let mut count = 0usize;
                for _ in 0..hyperparams.train_steps_per_tick {
                    if let Ok(Some(report)) = profile.agent.train_weighted(arena, weights) {
                        sum += report.prediction_error;
                        count += 1;
                    }
                }
                if count > 0 {
                    trained = Some((shard, sum / count as f64));
                }
                train_elapsed = train_started.elapsed();
            }
        }
        if recording {
            telemetry.tick_train.record_duration(train_elapsed);
        }

        // 5. Feedback: finish every cluster's tick, cluster-parallel — each
        //    chunk writes only its own sessions, reads the (frozen)
        //    decisions, and the objective gauges are atomic cells.
        let objectives = &telemetry.objectives;
        let decided = &*profiles;
        sched.run_mut(sessions, 1, 1, |first, chunk| {
            for (i, session) in (first..).zip(chunk) {
                // capes-check: allow(boundary-panic) -- the measure phase measured every cluster this tick.
                let measurement = session.measurement.take().expect("measured above");
                let (action, explored) = if kind == PhaseKind::Baseline {
                    (None, false)
                } else {
                    // In bounds: `session.profile`/`session.row` are
                    // assigned from `profiles` positions at build.
                    let decision = decided[session.profile].decisions[session.row];
                    (Some(decision.action), decision.explored)
                };
                let error = trained.and_then(|(shard, e)| (shard == i).then_some(e));
                let system_tick =
                    session
                        .system
                        .finish_tick(kind, &measurement, action, explored, error);
                session.series.push(system_tick.throughput_mbps);
                // In bounds: one objective gauge per cluster.
                objectives[i].set(system_tick.throughput_mbps);
            }
        });
        *cluster_ticks += num_clusters as u64;
        *tick += 1;

        // The window advances on every tick, so its rate never spans ticks
        // it did not see.
        telemetry.finish_tick(num_clusters);
        if recording {
            telemetry.tick_total.record_duration(tick_started.elapsed());
            // Fleet-wide aggregates of the member daemons' ingest health —
            // a handful of relaxed loads per tick.
            telemetry.reports_rejected.store(reports_rejected(sessions));
            telemetry.implausible_ticks.store(
                sessions
                    .iter()
                    .map(|s| s.system.daemon_stats().implausible_ticks_rejected)
                    .sum(),
            );
        }
    }

    /// Runs a fleet plan to completion: every phase advances all clusters in
    /// lockstep, and every cluster contributes one
    /// [`capes::ExperimentReport`]-shaped aggregate to the returned
    /// [`FleetReport`]. Each member opens and closes its phases with
    /// [`CapesSystem::begin_phase`] and [`CapesSystem::end_phase`], the
    /// protocol a standalone [`capes::Experiment`] runs. The plan's
    /// experience-sharing table is applied to the profiles first: profiles
    /// the plan does not list are reset to
    /// [`ExperienceSharing::Disabled`] (a plan fully describes the sharing
    /// configuration of its run — state set through
    /// [`FleetDaemon::set_profile_sharing`] only outlives externally-driven
    /// [`FleetDaemon::tick_all`] loops, never a `run`).
    pub fn run(&mut self, plan: &FleetPlan) -> FleetReport {
        self.profile_sharing
            .iter_mut()
            .for_each(|mode| *mode = ExperienceSharing::Disabled);
        for &ProfileSharing { profile, mode } in &plan.sharing {
            self.set_profile_sharing(profile, mode);
        }
        let started = Instant::now();
        let ticks_before = self.cluster_ticks;
        let mut per_cluster: Vec<Vec<SessionResult>> =
            (0..self.sessions.len()).map(|_| Vec::new()).collect();
        for phase in &plan.phases {
            let kind = phase.kind();
            for session in &mut self.sessions {
                session.errors_before = session.system.begin_phase(kind);
                session.series.clear();
            }
            for _ in 0..phase.ticks() {
                self.tick_all(kind);
            }
            for (session, results) in self.sessions.iter_mut().zip(&mut per_cluster) {
                let series = std::mem::take(&mut session.series);
                results.push(
                    session
                        .system
                        .end_phase(phase, series, session.errors_before),
                );
            }
        }
        let elapsed_seconds = started.elapsed().as_secs_f64();
        let cluster_ticks = self.cluster_ticks - ticks_before;
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
        // Per-tick rates are over the fleet's whole lifetime — the counters
        // span every run of this daemon.
        let ticks = self.tick.max(1) as f64;
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
    use capes::Phase;
    use capes_simstore::Workload;
    use serde::{map_get, Serialize, Value};

    fn quick_hp() -> Hyperparameters {
        Hyperparameters {
            sampling_ticks_per_observation: 3,
            exploration_period_ticks: 300,
            adam_learning_rate: 2e-3,
            ..Hyperparameters::quick_test()
        }
    }

    #[test]
    fn empty_fleet_is_rejected() {
        assert!(matches!(
            Fleet::builder().build(),
            Err(FleetError::EmptyFleet)
        ));
    }

    #[test]
    fn heterogeneous_fleet_groups_profiles_by_geometry() {
        let daemon = Fleet::builder()
            .hyperparams(quick_hp())
            .seed(3)
            .scenarios([
                ScenarioSpec::new("a", Workload::random_rw(0.1)).clients(2),
                ScenarioSpec::new("b", Workload::fileserver()).clients(2),
                ScenarioSpec::new("c", Workload::sequential_write()).clients(3),
            ])
            .build()
            .expect("valid fleet");
        assert_eq!(daemon.num_clusters(), 3);
        // Two clusters share the 2-client geometry; the third has its own.
        assert_eq!(daemon.num_profiles(), 2);
        assert_eq!(daemon.cluster_names(), vec!["a", "b", "c"]);
        assert_eq!(
            daemon.agent_for(0).config().observation_size,
            daemon.agent_for(1).config().observation_size
        );
        assert_ne!(
            daemon.agent_for(0).config().observation_size,
            daemon.agent_for(2).config().observation_size
        );
    }

    #[test]
    fn fleet_run_produces_one_report_per_cluster() {
        let mut daemon = Fleet::builder()
            .hyperparams(quick_hp())
            .seed(11)
            .scenarios([
                ScenarioSpec::new("w", Workload::random_rw(0.1)).clients(2),
                ScenarioSpec::new("r", Workload::random_rw(0.9)).clients(2),
            ])
            .build()
            .unwrap();
        let plan = FleetPlan::new()
            .phase(Phase::Baseline { ticks: 10 })
            .phase(Phase::Train { ticks: 30 })
            .phase(Phase::Tuned {
                ticks: 10,
                label: "tuned".into(),
            });
        let report = daemon.run(&plan);
        assert_eq!(report.clusters.len(), 2);
        assert_eq!(report.cluster_ticks, 2 * 50);
        assert!(report.cluster_ticks_per_sec > 0.0);
        for cluster in &report.clusters {
            assert_eq!(cluster.report.sessions.len(), 3);
            assert_eq!(cluster.report.sessions[0].throughput_series.len(), 10);
            assert_eq!(cluster.report.sessions[1].throughput_series.len(), 30);
            assert!(cluster.report.baseline().is_some());
        }
        assert!(report.cluster("w").is_some());
        assert!(report.summary().contains("cluster-ticks"));
        // Training happened: the shared agent stepped, and prediction errors
        // were recorded against round-robin shards.
        assert!(daemon.agent_for(0).training_steps() > 0);
        // The printed report parses back to the in-memory clusters.
        let json: Value = serde_json::from_str(&report.to_json()).expect("valid JSON");
        let fields = json.as_map().unwrap();
        assert_eq!(
            map_get(fields, "clusters"),
            Some(&report.clusters.to_value())
        );
        assert_eq!(map_get(fields, "cluster_ticks"), Some(&Value::U64(2 * 50)));
    }

    #[test]
    fn one_member_profile_sharing_is_identical_to_disabled() {
        // A profile of one cluster has a single-stripe set; enabling sharing
        // must consume the RNG identically to the disabled path, so the runs
        // are bit-identical.
        let build = || {
            Fleet::builder()
                .hyperparams(quick_hp())
                .seed(13)
                .scenario(ScenarioSpec::new("solo", Workload::random_rw(0.1)).clients(2))
                .build()
                .unwrap()
        };
        let plan = |sharing: Option<ExperienceSharing>| {
            let mut plan = FleetPlan::new()
                .phase(Phase::Baseline { ticks: 10 })
                .phase(Phase::Train { ticks: 40 })
                .phase(Phase::Tuned {
                    ticks: 10,
                    label: "tuned".into(),
                });
            if let Some(mode) = sharing {
                plan = plan.share(0, mode);
            }
            plan
        };
        let disabled = build().run(&plan(None));
        let uniform = build().run(&plan(Some(ExperienceSharing::Uniform)));
        assert_eq!(
            disabled.clusters[0].report.to_json(),
            uniform.clusters[0].report.to_json(),
            "single-member sharing must be bit-identical to disabled"
        );
    }

    #[test]
    fn shared_profile_trains_across_member_stripes() {
        let mut daemon = Fleet::builder()
            .hyperparams(quick_hp())
            .seed(17)
            .scenarios([
                ScenarioSpec::new("w", Workload::random_rw(0.1)).clients(2),
                ScenarioSpec::new("r", Workload::random_rw(0.9)).clients(2),
                ScenarioSpec::new("f", Workload::fileserver()).clients(2),
            ])
            .build()
            .unwrap();
        assert_eq!(daemon.num_profiles(), 1, "equal geometry shares a profile");
        assert_eq!(daemon.profile_members(0), &[0, 1, 2]);
        assert_eq!(daemon.profile_sharing(0), ExperienceSharing::Disabled);
        let report = daemon.run(
            &FleetPlan::new()
                .phase(Phase::Baseline { ticks: 8 })
                .phase(Phase::Train { ticks: 40 })
                .phase(Phase::Tuned {
                    ticks: 8,
                    label: "tuned".into(),
                })
                .share(
                    0,
                    ExperienceSharing::SelfBiased {
                        own: 2.0,
                        peers: 1.0,
                    },
                ),
        );
        assert!(matches!(
            daemon.profile_sharing(0),
            ExperienceSharing::SelfBiased { .. }
        ));
        assert!(daemon.agent_for(0).training_steps() > 0);
        // Arena occupancy is reported per stripe, in cluster order.
        assert_eq!(report.arena.len(), 3);
        for (occ, name) in report.arena.iter().zip(["w", "r", "f"]) {
            assert_eq!(occ.cluster, name);
            assert_eq!(occ.occupied_ticks, 56, "every tick is retained");
            assert_eq!(occ.evicted_ticks, 0);
            assert!(occ.total_inserted >= 2 * 56);
        }
        assert!(report.summary().contains("arena: 3 stripes"));
        // The printed report carries the arena stats.
        let json: Value = serde_json::from_str(&report.to_json()).expect("valid JSON");
        assert_eq!(
            map_get(json.as_map().unwrap(), "arena"),
            Some(&report.arena.to_value())
        );
    }

    #[test]
    fn run_resets_sharing_for_profiles_the_plan_does_not_list() {
        let mut daemon = Fleet::builder()
            .hyperparams(quick_hp())
            .seed(29)
            .scenarios([
                ScenarioSpec::new("a", Workload::random_rw(0.1)).clients(2),
                ScenarioSpec::new("b", Workload::random_rw(0.9)).clients(2),
            ])
            .build()
            .unwrap();
        let shared_plan = FleetPlan::new()
            .phase(Phase::Train { ticks: 5 })
            .share(0, ExperienceSharing::Uniform);
        daemon.run(&shared_plan);
        assert_eq!(daemon.profile_sharing(0), ExperienceSharing::Uniform);
        // A later plan without a sharing table runs fully disabled again.
        daemon.run(&FleetPlan::new().phase(Phase::Train { ticks: 5 }));
        assert_eq!(daemon.profile_sharing(0), ExperienceSharing::Disabled);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sharing_rejects_unknown_profiles() {
        let mut daemon = Fleet::builder()
            .hyperparams(quick_hp())
            .scenario(ScenarioSpec::new("w", Workload::random_rw(0.1)).clients(2))
            .build()
            .unwrap();
        daemon.set_profile_sharing(5, ExperienceSharing::Uniform);
    }
}
