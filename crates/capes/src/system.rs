//! The assembled CAPES system (Figure 1): Monitoring Agents feeding an
//! Interface Daemon that writes the Replay DB, a pluggable [`TuningEngine`]
//! that proposes actions (and, for the DQN, trains on the Replay DB), an
//! Action Checker screening those actions, and a Control Agent applying them
//! to the target system.
//!
//! Systems are assembled through [`crate::builder::Capes::builder`].

use crate::engine::{EngineContext, ProposedAction, TuningEngine};
use crate::error::CapesError;
use crate::experiment::{ExperimentReport, Phase, PhaseKind};
use crate::hyperparams::Hyperparameters;
use crate::objective::Objective;
use crate::session::SessionResult;
use crate::target::{TargetSystem, TunableSpec};
use capes_agents::wire::{decode_message, encode_message};
use capes_agents::{
    ActionChecker, ActionMessage, ControlAgent, InterfaceDaemon, Message, MonitoringAgent,
};
use capes_drl::DqnAgent;
use capes_replay::{Observation, SharedReplayDb};
use std::path::Path;

/// How monitoring traffic travels from the agents to the Interface Daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Every message is encoded into its binary wire frame and decoded by the
    /// daemon — the paper's deployment shape. PI values round-trip through
    /// `f32` exactly as they would over the network, and the daemon's
    /// byte counters (Table 2) accumulate real frame sizes.
    #[default]
    Wire,
    /// Messages leave the system entirely: they are staged in an outbox for
    /// an external driver (the fleet daemon's socket front end) to transmit
    /// over real TCP connections, and the decoded replies come back through
    /// [`CapesSystem::ingest_message`]. A system on this transport must be
    /// driven through the staged [`CapesSystem::measure_tick`] /
    /// [`CapesSystem::complete_measurement`] API — the one-shot
    /// [`CapesSystem::begin_tick`] cannot complete a tick whose traffic is
    /// still in flight.
    Socket,
}

impl Transport {
    /// The transport's discriminant in snapshot payloads (stable across
    /// releases — snapshot compatibility depends on it). Tag 0 belonged to
    /// the retired in-process transport and decodes as a mismatch.
    pub fn tag(self) -> u8 {
        match self {
            Transport::Wire => 1,
            Transport::Socket => 2,
        }
    }
}

/// Everything that happened during one system tick.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemTick {
    /// Simulated tick index.
    pub tick: u64,
    /// Aggregate throughput achieved by the target system, MB/s.
    pub throughput_mbps: f64,
    /// Objective-function output (the reward source).
    pub objective: f64,
    /// Action index chosen this tick, if the engine reasons in the discrete
    /// `2P + 1` action space.
    pub action: Option<usize>,
    /// Whether the action was exploratory.
    pub explored: bool,
    /// Prediction error of the training step(s) run this tick, if any.
    pub prediction_error: Option<f64>,
}

/// The measurement half of one tick, produced by
/// [`CapesSystem::begin_tick`] and consumed by [`CapesSystem::finish_tick`].
///
/// External drivers (the fleet daemon) run many systems' measurement stages
/// first, decide for all of them in one batched forward pass, and only then
/// apply actions and finish the ticks.
#[derive(Debug, Clone, Default)]
pub struct TickMeasurement {
    /// The tick this measurement belongs to.
    pub tick: u64,
    /// Aggregate throughput achieved by the target system, MB/s.
    pub throughput_mbps: f64,
    /// Objective-function output (the reward source), before reward scaling.
    pub objective: f64,
    /// The flattened observation ending at this tick, if the Replay DB has
    /// enough history (`None` during baseline phases, which never decide).
    pub observation: Option<Observation>,
}

/// A per-tick observer registered through
/// [`crate::builder::CapesBuilder::observer`].
pub(crate) type Observer = Box<dyn FnMut(PhaseKind, &SystemTick) + Send>;

/// The CAPES system wired around a target system.
pub struct CapesSystem<T: TargetSystem> {
    target: T,
    hyperparams: Hyperparameters,
    objective: Objective,
    db: SharedReplayDb,
    daemon: InterfaceDaemon,
    monitors: Vec<MonitoringAgent>,
    control_agent: ControlAgent,
    engine: Box<dyn TuningEngine>,
    observers: Vec<Observer>,
    specs: Vec<TunableSpec>,
    transport: Transport,
    /// Messages staged for an external transmitter ([`Transport::Socket`]
    /// only); always empty on [`Transport::Wire`].
    outbox: Vec<Message>,
    tick: u64,
    /// The phase record: throughput of every tick, and `(tick, prediction
    /// error)` of every training tick, since the in-progress phase began
    /// (for ticks run outside a phase: since the last phase ended, or since
    /// assembly). [`CapesSystem::end_phase`] moves both into the phase's
    /// [`SessionResult`].
    phase_throughput: Vec<f64>,
    prediction_errors: Vec<(u64, f64)>,
}

impl<T: TargetSystem> CapesSystem<T> {
    /// Wires the deployment together. Called by the builder, which has
    /// already validated the hyperparameters, the tunable-spec list and (when
    /// supplied) the external replay stripe's configuration. `replay_db` is
    /// the arena stripe to write into; `None` builds a standalone one-stripe
    /// arena.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        target: T,
        hyperparams: Hyperparameters,
        objective: Objective,
        checker: ActionChecker,
        engine: Box<dyn TuningEngine>,
        observers: Vec<Observer>,
        transport: Transport,
        replay_db: Option<SharedReplayDb>,
    ) -> Self {
        let num_nodes = target.num_nodes();
        let pis_per_node = target.pis_per_node();
        let specs = target.tunable_specs();
        debug_assert!(!specs.is_empty(), "builder validates the spec list");

        let db = replay_db.unwrap_or_else(|| {
            SharedReplayDb::new(hyperparams.replay_config(num_nodes, pis_per_node))
        });
        let daemon = InterfaceDaemon::new(db.clone(), num_nodes, checker);
        let monitors = (0..num_nodes).map(MonitoringAgent::new).collect();

        CapesSystem {
            target,
            hyperparams,
            objective,
            db,
            daemon,
            monitors,
            control_agent: ControlAgent::default(),
            engine,
            observers,
            specs,
            transport,
            outbox: Vec::new(),
            tick: 0,
            phase_throughput: Vec::new(),
            prediction_errors: Vec::new(),
        }
    }

    /// The target system (read access).
    pub fn target(&self) -> &T {
        &self.target
    }

    /// The target system (mutable access, e.g. to change its workload).
    pub fn target_mut(&mut self) -> &mut T {
        &mut self.target
    }

    /// The shared replay database.
    pub fn replay_db(&self) -> &SharedReplayDb {
        &self.db
    }

    /// The tuning engine driving this system.
    pub fn engine(&self) -> &dyn TuningEngine {
        self.engine.as_ref()
    }

    /// The DQN agent, when the system runs the DRL engine (`None` for the
    /// search comparators).
    pub fn dqn_agent(&self) -> Option<&DqnAgent> {
        self.engine.dqn_agent()
    }

    /// Current tick (seconds since the system was assembled).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Throughput of every tick of the in-progress phase, MB/s.
    pub fn phase_throughput(&self) -> &[f64] {
        &self.phase_throughput
    }

    /// `(tick, prediction error)` of every training tick of the
    /// in-progress phase — the data behind Figure 5.
    pub fn prediction_errors(&self) -> &[(u64, f64)] {
        &self.prediction_errors
    }

    /// The tunable-parameter specifications of the target (validated at
    /// build time).
    pub fn specs(&self) -> &[TunableSpec] {
        &self.specs
    }

    /// The parameter values the target system is currently using.
    pub fn current_params(&self) -> Vec<f64> {
        self.target.current_params()
    }

    /// Resets every tunable parameter to its default value (used before
    /// baseline measurements).
    pub fn reset_params_to_defaults(&mut self) {
        let defaults: Vec<f64> = self.specs.iter().map(|s| s.default).collect();
        self.target.apply_params(&defaults);
        // The reset bypasses the control path, so the Control Agent's
        // deduplication cache no longer matches the target: without this, an
        // engine re-proposing its previous parameters after a baseline phase
        // would be deduplicated and the target would stay at the defaults.
        self.control_agent.invalidate_cache();
    }

    /// Signals a scheduled workload change: the engine is informed (the DQN
    /// bumps exploration back up, paper §3.6).
    pub fn notify_workload_change(&mut self) {
        self.engine
            .notify_workload_change(self.tick, self.hyperparams.workload_change_bump_ticks);
    }

    /// One training tick: measure, store, explore, train.
    pub fn training_tick(&mut self) -> SystemTick {
        self.run_tick(PhaseKind::Train)
    }

    /// Runs `phases` in order and returns one session result per phase —
    /// the paper's baseline/train/tuned evaluation workflow (Appendix A.4).
    /// Later calls continue on the same system (the Figure-2 "train 12 h,
    /// measure, train 12 h more, measure" protocol).
    pub fn run(&mut self, phases: &[Phase]) -> ExperimentReport {
        let sessions = phases
            .iter()
            .map(|phase| {
                let kind = phase.kind();
                self.begin_phase(kind);
                for _ in 0..phase.ticks() {
                    self.run_tick(kind);
                }
                self.end_phase(phase)
            })
            .collect();
        ExperimentReport { sessions }
    }

    /// Starts a phase of `kind`: a baseline first resets every knob to its
    /// default, and the phase record starts empty. Together with
    /// [`CapesSystem::end_phase`] this is the phase protocol of
    /// [`CapesSystem::run`] and of drivers that own the tick loop
    /// themselves (the fleet daemon ticks its members in lockstep).
    pub fn begin_phase(&mut self, kind: PhaseKind) {
        if kind == PhaseKind::Baseline {
            self.reset_params_to_defaults();
        }
        self.phase_throughput.clear();
        self.prediction_errors.clear();
    }

    /// Ends `phase`: its throughput series and prediction errors move out of
    /// the phase record into the session result, and the series gets the
    /// Pilot-style statistical analysis.
    pub fn end_phase(&mut self, phase: &Phase) -> SessionResult {
        SessionResult::from_series(
            phase.kind(),
            phase.label(),
            std::mem::take(&mut self.phase_throughput),
            std::mem::take(&mut self.prediction_errors),
            self.current_params(),
        )
    }

    /// Saves the engine's learned model to a checkpoint file (see
    /// [`capes_drl::checkpoint`] for the format).
    ///
    /// # Errors
    /// [`CapesError::EngineUnsupported`] if the engine has no persistable
    /// model; [`CapesError::Checkpoint`] if the file could not be written.
    pub fn save_checkpoint<P: AsRef<Path>>(&self, path: P) -> Result<(), CapesError> {
        let agent = self
            .dqn_agent()
            .ok_or_else(|| CapesError::EngineUnsupported {
                engine: self.engine.name().to_string(),
                operation: "checkpointing",
            })?;
        Ok(agent.save_checkpoint(path)?)
    }

    /// Replaces the DRL engine's agent with one restored from a checkpoint
    /// (the Figure-4 protocol: reuse a trained model in a later session). On
    /// any error the engine keeps the agent it had.
    ///
    /// # Errors
    /// [`CapesError::EngineUnsupported`] if the engine is not the DRL engine;
    /// [`CapesError::CheckpointMismatch`] if the checkpoint was trained for a
    /// different observation size or parameter count;
    /// [`CapesError::Checkpoint`] if the file is unreadable, corrupt or not a
    /// model checkpoint.
    pub fn restore_checkpoint<P: AsRef<Path>>(
        &mut self,
        path: P,
        seed: u64,
    ) -> Result<(), CapesError> {
        let restored = DqnAgent::load_checkpoint(path, seed)?;
        let engine_name = self.engine.name().to_string();
        let agent = self
            .engine
            .dqn_agent_mut()
            .ok_or(CapesError::EngineUnsupported {
                engine: engine_name,
                operation: "checkpoint restoration",
            })?;
        // Action indices map onto parameters by position, so a model for
        // another parameter count would tune the wrong knobs, or none.
        let (expected, actual) = (agent.config(), restored.config());
        if (expected.observation_size, expected.num_params)
            != (actual.observation_size, actual.num_params)
        {
            return Err(CapesError::CheckpointMismatch {
                reason: format!(
                    "checkpoint was trained for observation size {} and {} parameters, \
                     system uses {} and {}",
                    actual.observation_size,
                    actual.num_params,
                    expected.observation_size,
                    expected.num_params
                ),
            });
        }
        *agent = restored;
        Ok(())
    }

    /// Interface Daemon statistics (message counts and sizes, Table 2).
    pub fn daemon_stats(&self) -> capes_agents::InterfaceStats {
        self.daemon.stats()
    }

    /// Monitoring-agent statistics, per node (message sizes, Table 2).
    pub fn monitor_stats(&self) -> Vec<capes_agents::monitoring::MonitoringStats> {
        self.monitors.iter().map(|m| m.stats()).collect()
    }

    // -----------------------------------------------------------------------
    // Staged tick API.
    //
    // One tick = begin_tick (measure + store) → decide + apply_action
    // (skipped for baselines) → training → finish_tick (feedback +
    // bookkeeping). `apply_action` is a straight line of calls on this
    // thread: Action Checker + Replay DB record (Interface Daemon), staleness
    // and deduplication (Control Agent), then the target's `apply_params` —
    // nothing is left staged between ticks. `run_tick` composes the stages
    // with the in-system engine; external drivers such as the fleet daemon
    // interleave the stages of many systems so that all of their decisions
    // collapse into one batched forward pass.
    // -----------------------------------------------------------------------

    /// Measurement stage of one tick: lets the target run for one second,
    /// routes the Monitoring Agents' differential reports and the objective
    /// through the Interface Daemon into the Replay DB (over the configured
    /// [`Transport`]), and — except for baseline measurements, which never
    /// decide — assembles the observation ending at this tick.
    ///
    /// Must be paired with exactly one [`CapesSystem::finish_tick`] call.
    /// Not available on [`Transport::Socket`] — that transport's traffic is
    /// still in flight when this function would need it stored; socket
    /// drivers call [`CapesSystem::measure_tick`], deliver/ingest the
    /// traffic, then [`CapesSystem::complete_measurement`].
    pub fn begin_tick(&mut self, kind: PhaseKind) -> TickMeasurement {
        assert!(
            self.transport != Transport::Socket,
            "begin_tick cannot complete a socket tick; use measure_tick + complete_measurement"
        );
        let mut measurement = self.measure_tick();
        self.complete_measurement(kind, &mut measurement);
        measurement
    }

    /// First half of the measurement stage: lets the target run for one
    /// second and routes the Monitoring Agents' differential reports and the
    /// objective over the configured [`Transport`]. On [`Transport::Wire`]
    /// the frames are decoded into the daemon immediately; on
    /// [`Transport::Socket`] they are staged in the outbox
    /// ([`CapesSystem::drain_outbox`]) and the measurement is incomplete
    /// until every message has come back through
    /// [`CapesSystem::ingest_message`] and
    /// [`CapesSystem::complete_measurement`] has run.
    ///
    /// The returned measurement's `observation` is `None` until completed.
    pub fn measure_tick(&mut self) -> TickMeasurement {
        // 1. Let the target system run for one second and measure it.
        let tick_data = self.target.step();
        assert_eq!(
            tick_data.num_nodes(),
            self.monitors.len(),
            "target reported an unexpected number of nodes"
        );
        let objective_value = self.objective.evaluate(&tick_data);
        self.phase_throughput.push(tick_data.throughput_mbps);

        // 2. Monitoring Agents sample and report differentially; the Interface
        //    Daemon reconstructs and stores the snapshots and the reward.
        let scaled_objective = objective_value * self.hyperparams.reward_scale;
        let per_node_objective = scaled_objective / self.monitors.len() as f64;
        for (node, monitor) in self.monitors.iter_mut().enumerate() {
            let report = monitor.sample(self.tick, &tick_data.per_node_pis[node]);
            Self::route(
                self.transport,
                &mut self.daemon,
                &mut self.outbox,
                Message::Report(report),
            );
            Self::route(
                self.transport,
                &mut self.daemon,
                &mut self.outbox,
                Message::Objective {
                    tick: self.tick,
                    node,
                    value: per_node_objective,
                },
            );
        }
        TickMeasurement {
            tick: self.tick,
            throughput_mbps: tick_data.throughput_mbps,
            objective: objective_value,
            observation: None,
        }
    }

    /// Second half of the measurement stage: commits the tick's snapshots
    /// and — except for baseline measurements, which never decide — fills in
    /// the observation ending at this tick. On [`Transport::Socket`] call
    /// this only after every message of the tick has been ingested.
    pub fn complete_measurement(&mut self, kind: PhaseKind, measurement: &mut TickMeasurement) {
        // Commit the tick's staged snapshots in one group (normally a no-op:
        // the daemon flushes itself once the expected node count reports;
        // this covers targets where some nodes skipped the tick).
        self.daemon.flush_snapshots();
        measurement.observation = if kind == PhaseKind::Baseline {
            None
        } else {
            self.db.observation_at(measurement.tick)
        };
    }

    /// Hands a decoded message straight to the Interface Daemon — the return
    /// path for [`Transport::Socket`], whose traffic is decoded by the
    /// socket server rather than the daemon itself. The f32 wire rounding
    /// has already happened during encoding, so the stored values are
    /// bit-identical to [`Transport::Wire`]'s.
    pub fn ingest_message(&mut self, message: &Message) {
        self.daemon.ingest(message);
    }

    /// Drains the outbox of messages staged by [`Transport::Socket`]
    /// measurement ticks, in routing order.
    pub fn drain_outbox<F: FnMut(Message)>(&mut self, mut transmit: F) {
        for message in self.outbox.drain(..) {
            transmit(message);
        }
    }

    /// Number of monitoring agents (one per target node) — the per-tick
    /// socket traffic is two messages (report + objective) per monitor.
    pub fn num_monitors(&self) -> usize {
        self.monitors.len()
    }

    /// Hands a message to the daemon over the configured transport.
    fn route(
        transport: Transport,
        daemon: &mut InterfaceDaemon,
        outbox: &mut Vec<Message>,
        message: Message,
    ) {
        match transport {
            Transport::Wire => {
                let frame = encode_message(&message);
                daemon
                    .ingest_frame(&frame)
                    .expect("self-encoded frames always decode");
            }
            Transport::Socket => outbox.push(message),
        }
    }

    /// Action stage of one tick: the Interface Daemon screens the proposal
    /// (Action Checker) and records it, the Control Agent drops it if stale
    /// or unchanged, and whatever survives is applied to the target. Call
    /// between [`CapesSystem::begin_tick`] and [`CapesSystem::finish_tick`];
    /// baseline ticks skip it. Takes the proposal by value so its parameter
    /// vector moves through to the Control Agent's cache without a copy.
    pub fn apply_action(&mut self, proposal: ProposedAction) {
        let checked = self.daemon.broadcast_action(ActionMessage {
            tick: self.tick,
            // Engines that do not reason in the discrete space (the
            // search comparators) record the NULL action.
            action_index: proposal.action_index.unwrap_or(0),
            parameter_values: proposal.params,
        });
        if let Some(values) = checked.and_then(|action| self.control_agent.handle(action)) {
            self.target.apply_params(values);
        }
    }

    /// Training stage of one tick: runs the configured number of training
    /// steps against the Replay DB through the in-system engine, returning
    /// the mean prediction error of the steps that actually trained. Engines
    /// that do not learn (and databases still warming up) yield `None`.
    fn engine_train_tick(&mut self) -> Option<f64> {
        let mut sum = 0.0;
        let mut count = 0usize;
        for _ in 0..self.hyperparams.train_steps_per_tick {
            if let Some(error) = self.engine.train_step(&self.db) {
                sum += error;
                count += 1;
            }
        }
        (count > 0).then(|| sum / count as f64)
    }

    /// Feedback stage of one tick: records the prediction error, streams the
    /// assembled [`SystemTick`] to the engine (non-baseline) and every
    /// registered observer, and advances the tick counter.
    pub fn finish_tick(
        &mut self,
        kind: PhaseKind,
        measurement: &TickMeasurement,
        action: Option<usize>,
        explored: bool,
        prediction_error: Option<f64>,
    ) -> SystemTick {
        if let Some(error) = prediction_error {
            self.prediction_errors.push((measurement.tick, error));
        }
        let result = SystemTick {
            tick: measurement.tick,
            throughput_mbps: measurement.throughput_mbps,
            objective: measurement.objective,
            action,
            explored,
            prediction_error,
        };
        if kind != PhaseKind::Baseline {
            self.engine.observe(&result);
        }
        for observer in &mut self.observers {
            observer(kind, &result);
        }
        self.tick += 1;
        result
    }

    pub(crate) fn run_tick(&mut self, kind: PhaseKind) -> SystemTick {
        let measurement = self.begin_tick(kind);
        let mut chosen_action = None;
        let mut explored = false;
        if kind != PhaseKind::Baseline {
            let current = self.target.current_params();
            let engine = &mut self.engine;
            let proposal = engine.propose_action(&EngineContext {
                tick: measurement.tick,
                observation: measurement.observation.as_ref(),
                current_params: &current,
                specs: &self.specs,
                explore: kind == PhaseKind::Train,
            });
            chosen_action = proposal.action_index;
            explored = proposal.explored;
            self.apply_action(proposal);
        }
        let prediction_error = if kind == PhaseKind::Train {
            self.engine_train_tick()
        } else {
            None
        };
        self.finish_tick(
            kind,
            &measurement,
            chosen_action,
            explored,
            prediction_error,
        )
    }
}

impl<T: TargetSystem + capes_persist::Persist> CapesSystem<T> {
    /// Serializes the system's full mutable state — target simulation,
    /// Interface Daemon reconstruction/staging state, monitoring caches,
    /// Control Agent caches, staged socket traffic, the tick counter, the
    /// phase record (the in-progress phase's throughput and prediction
    /// errors), and (when the engine is the DRL engine) the complete agent
    /// including optimizer moments and RNG streams — so a freshly-built
    /// system of the same configuration resumes **bit-identically** after
    /// [`CapesSystem::decode_state`].
    ///
    /// The replay store is deliberately *not* part of this payload: stores
    /// may be stripes of a fleet-shared arena, so their owner (the fleet
    /// daemon's checkpoint, or a standalone caller) persists them exactly
    /// once alongside this state.
    pub fn encode_state(&self, w: &mut capes_persist::Writer) {
        use capes_persist::Persist;
        w.put_u8(self.transport.tag());
        w.put_u64(self.tick);
        self.target.encode(w);
        self.monitors.encode(w);
        // Reserved: once a staged-parameter slot, always empty at a tick
        // boundary (`apply_action` stages nothing).
        w.put_u8(0);
        // Socket traffic staged for an external transmitter rides along as
        // wire frames (empty at tick boundaries).
        w.put_usize(self.outbox.len());
        for message in &self.outbox {
            w.put_blob(|w| message.encode(w));
        }
        // The phase record.
        self.phase_throughput.encode(w);
        w.put_usize(self.prediction_errors.len());
        for &(tick, error) in &self.prediction_errors {
            w.put_u64(tick);
            w.put_f64(error);
        }
        match self.dqn_agent() {
            Some(agent) => {
                w.put_u8(1);
                agent.encode(w);
            }
            None => w.put_u8(0),
        }
        // The two subsystems whose decoders validate-then-assign internally
        // go last, so every pure decode above them can fail before anything
        // is mutated.
        self.control_agent.encode_state(w);
        self.daemon.encode_state(w);
    }

    /// Restores state captured by [`CapesSystem::encode_state`] into this
    /// system, which must have been assembled with the same configuration
    /// (transport, target geometry, hyperparameter-derived widths, engine
    /// kind). Configuration skew is rejected with a typed error before any
    /// state is overwritten; an error raised later (only possible for a
    /// payload that was deliberately crafted to pass the container CRC)
    /// leaves the system part-restored, and it must be discarded.
    pub fn decode_state(
        &mut self,
        r: &mut capes_persist::Reader<'_>,
    ) -> Result<(), capes_persist::PersistError> {
        use capes_persist::{Persist, PersistError};
        let tag = r.get_u8()?;
        if tag != self.transport.tag() {
            return Err(PersistError::BadValue {
                what: "snapshot transport disagrees with the deployment",
            });
        }
        let tick = r.get_u64()?;
        let target = T::decode(r)?;
        if target.num_nodes() != self.target.num_nodes()
            || target.pis_per_node() != self.target.pis_per_node()
        {
            return Err(PersistError::BadValue {
                what: "snapshot target geometry disagrees with the deployment",
            });
        }
        let monitors = Vec::<MonitoringAgent>::decode(r)?;
        if monitors.len() != self.monitors.len()
            || monitors.iter().enumerate().any(|(i, m)| m.node() != i)
        {
            return Err(PersistError::BadValue {
                what: "snapshot monitor set disagrees with the target geometry",
            });
        }
        // Anything but the reserved empty byte would be parameter values
        // that never passed the Action Checker.
        if r.get_u8()? != 0 {
            return Err(PersistError::BadValue {
                what: "reserved staged-parameter byte is not 0",
            });
        }
        let outbox_len = r.get_count(1)?;
        let mut outbox = Vec::with_capacity(outbox_len);
        for _ in 0..outbox_len {
            outbox.push(decode_message(r.get_bytes()?)?);
        }
        let phase_throughput = Vec::<f64>::decode(r)?;
        let errors_len = r.get_count(16)?;
        let mut prediction_errors = Vec::with_capacity(errors_len);
        for _ in 0..errors_len {
            prediction_errors.push((r.get_u64()?, r.get_f64()?));
        }
        let agent = match r.get_u8()? {
            0 => None,
            1 => Some(DqnAgent::decode(r)?),
            _ => {
                return Err(PersistError::BadValue {
                    what: "invalid engine-agent tag",
                })
            }
        };
        if agent.is_some() != self.dqn_agent().is_some() {
            return Err(PersistError::BadValue {
                what: "snapshot engine state disagrees with the deployment's engine",
            });
        }
        if let (Some(restored), Some(current)) = (&agent, self.dqn_agent()) {
            if restored.config().observation_size != current.config().observation_size
                || restored.config().num_params != current.config().num_params
            {
                return Err(PersistError::BadValue {
                    what: "snapshot agent geometry disagrees with the deployment",
                });
            }
        }
        // Everything pure decoded and validated; the two self-validating
        // subsystem restores run next, then plain assignments that cannot
        // fail.
        self.control_agent.decode_state(r)?;
        self.daemon.decode_state(r)?;
        self.tick = tick;
        self.target = target;
        self.monitors = monitors;
        self.outbox = outbox;
        self.phase_throughput = phase_throughput;
        self.prediction_errors = prediction_errors;
        if let (Some(restored), Some(current)) = (agent, self.engine.dqn_agent_mut()) {
            *current = restored;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Capes;
    use crate::engine::SearchEngine;
    use crate::target::test_target::QuadraticTarget;
    use crate::tuners::{HillClimbing, RandomSearch};

    fn quick_hyperparams() -> Hyperparameters {
        Hyperparameters {
            sampling_ticks_per_observation: 3,
            exploration_period_ticks: 200,
            adam_learning_rate: 2e-3,
            train_steps_per_tick: 2,
            ..Hyperparameters::quick_test()
        }
    }

    fn quick_system(optimum: f64, seed: u64) -> CapesSystem<QuadraticTarget> {
        Capes::builder(QuadraticTarget::new(optimum))
            .hyperparams(quick_hyperparams())
            .seed(seed)
            .build()
            .expect("valid configuration")
    }

    #[test]
    fn system_assembles_with_correct_dimensions() {
        let system = quick_system(60.0, 1);
        let agent = system.dqn_agent().expect("default engine is the DQN");
        // 3 sampling ticks × 1 node × 2 PIs per node.
        assert_eq!(agent.config().observation_size, 6);
        assert_eq!(agent.action_space().len(), 3);
        assert_eq!(system.current_params(), vec![10.0]);
        assert_eq!(system.tick(), 0);
        assert!(system.phase_throughput().is_empty());
        assert_eq!(system.engine().name(), "deep RL (DQN)");
    }

    #[test]
    fn baseline_ticks_never_touch_parameters() {
        let mut system = quick_system(60.0, 2);
        for _ in 0..50 {
            let t = system.run_tick(PhaseKind::Baseline);
            assert!(t.action.is_none());
            assert!(t.prediction_error.is_none());
        }
        assert_eq!(system.current_params(), vec![10.0]);
        assert_eq!(system.phase_throughput().len(), 50);
        // Baseline ticks still feed the replay DB (monitoring is always on).
        assert_eq!(system.replay_db().len(), 50);
    }

    #[test]
    fn training_ticks_record_actions_and_prediction_errors() {
        let mut system = quick_system(60.0, 3);
        let mut saw_training = false;
        for _ in 0..80 {
            let t = system.training_tick();
            assert!(t.action.is_some());
            if t.prediction_error.is_some() {
                saw_training = true;
            }
        }
        assert!(saw_training, "training steps should have run");
        assert!(!system.prediction_errors().is_empty());
        assert!(system.dqn_agent().unwrap().training_steps() > 0);
        // Actions were recorded in the replay DB.
        let recorded = system
            .replay_db()
            .with_read(|db| (0..80).filter(|&t| db.action_at(t).is_some()).count());
        assert!(recorded > 70);
    }

    #[test]
    fn training_moves_parameters_toward_the_optimum() {
        // The synthetic target peaks at 60 while the default is 10; after a
        // few thousand training ticks the policy should have pushed the knob
        // well above its default.
        let mut system = quick_system(60.0, 4);
        for _ in 0..4000 {
            system.training_tick();
        }
        let tuned = system.current_params()[0];
        assert!(
            tuned > 25.0,
            "expected the knob to move toward 60, got {tuned}"
        );
        // And tuned throughput beats the default-parameter throughput.
        let tuned_tp: f64 = {
            let mut sum = 0.0;
            for _ in 0..100 {
                sum += system.run_tick(PhaseKind::Tuned).throughput_mbps;
            }
            sum / 100.0
        };
        system.reset_params_to_defaults();
        let baseline_tp: f64 = {
            let mut sum = 0.0;
            for _ in 0..100 {
                sum += system.run_tick(PhaseKind::Baseline).throughput_mbps;
            }
            sum / 100.0
        };
        assert!(
            tuned_tp > baseline_tp,
            "tuned {tuned_tp:.1} should beat baseline {baseline_tp:.1}"
        );
    }

    #[test]
    fn workload_change_notification_raises_exploration() {
        let mut system = quick_system(60.0, 5);
        // Train long enough for ε to anneal to the floor.
        for _ in 0..600 {
            system.training_tick();
        }
        let explored_before: usize = (0..100)
            .map(|_| usize::from(system.training_tick().explored))
            .sum();
        system.notify_workload_change();
        let explored_after: usize = (0..100)
            .map(|_| usize::from(system.training_tick().explored))
            .sum();
        assert!(
            explored_after > explored_before,
            "exploration should rise after a workload change ({explored_before} → {explored_after})"
        );
    }

    #[test]
    fn checkpoint_round_trip_through_the_system() {
        let mut path = std::env::temp_dir();
        path.push(format!("capes-system-ckpt-{}.ckpt", std::process::id()));
        let mut system = quick_system(60.0, 6);
        for _ in 0..200 {
            system.training_tick();
        }
        system.save_checkpoint(&path).unwrap();
        let mut fresh = quick_system(60.0, 7);
        fresh.restore_checkpoint(&path, 8).unwrap();
        assert_eq!(
            fresh.dqn_agent().unwrap().q_network().observation_size(),
            system.dqn_agent().unwrap().q_network().observation_size()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpointing_a_search_engine_is_a_typed_error() {
        let mut system = Capes::builder(QuadraticTarget::new(60.0))
            .hyperparams(quick_hyperparams())
            .engine(Box::new(SearchEngine::new(HillClimbing::new(10), 5)))
            .build()
            .unwrap();
        let err = system
            .save_checkpoint("/tmp/never-written.ckpt")
            .unwrap_err();
        assert!(matches!(err, CapesError::EngineUnsupported { .. }));
        let err = system
            .restore_checkpoint("/tmp/never-read.ckpt", 1)
            .unwrap_err();
        // Load fails before the engine check (file missing) — either way a
        // typed error comes back.
        assert!(matches!(
            err,
            CapesError::Checkpoint(_) | CapesError::EngineUnsupported { .. }
        ));
    }

    #[test]
    fn wire_transport_runs_the_same_pipeline_through_the_codec() {
        let mut system = Capes::builder(QuadraticTarget::new(60.0))
            .hyperparams(quick_hyperparams())
            .seed(2)
            .transport(Transport::Wire)
            .build()
            .expect("valid configuration");
        assert_eq!(system.transport, Transport::Wire);
        for _ in 0..60 {
            let t = system.training_tick();
            assert!(t.action.is_some());
        }
        let stats = system.daemon_stats();
        assert_eq!(stats.reports_received, 60);
        assert!(stats.bytes_received > 0, "wire frames carry real bytes");
        assert_eq!(system.replay_db().len(), 60);
    }

    #[test]
    fn null_engine_system_monitors_without_tuning() {
        let mut system = Capes::builder(QuadraticTarget::new(60.0))
            .hyperparams(quick_hyperparams())
            .engine(Box::new(crate::engine::NullEngine))
            .build()
            .expect("valid configuration");
        assert_eq!(system.engine().name(), "external");
        for _ in 0..40 {
            let t = system.training_tick();
            assert!(t.action.is_none());
            assert!(!t.explored);
            assert!(t.prediction_error.is_none());
        }
        // Proposals hold the current parameters, so nothing ever moves …
        assert_eq!(system.current_params(), vec![10.0]);
        // … but the monitoring pipeline still fills the replay DB.
        assert_eq!(system.replay_db().len(), 40);
    }

    #[test]
    fn staged_tick_api_composes_like_run_tick() {
        // Drive one system through the staged API with an external decision
        // and verify the bookkeeping matches a run_tick-driven system.
        let mut system = Capes::builder(QuadraticTarget::new(60.0))
            .hyperparams(quick_hyperparams())
            .engine(Box::new(crate::engine::NullEngine))
            .seed(5)
            .build()
            .unwrap();
        let specs = system.specs().to_vec();
        for tick in 0..30u64 {
            let m = system.begin_tick(PhaseKind::Train);
            assert_eq!(m.tick, tick);
            // External decision: always push the knob up one step.
            let params = crate::engine::step_params(
                &capes_drl::ActionSpace::new(specs.len()),
                1,
                &system.current_params(),
                &specs,
            );
            let proposal = crate::engine::ProposedAction {
                action_index: Some(1),
                explored: false,
                params,
            };
            system.apply_action(proposal);
            let st = system.finish_tick(PhaseKind::Train, &m, Some(1), false, Some(0.25));
            assert_eq!(st.tick, tick);
            assert_eq!(st.prediction_error, Some(0.25));
        }
        assert_eq!(system.tick(), 30);
        assert_eq!(system.prediction_errors().len(), 30);
        // 30 up-steps of 2.0 from 10.0, clamped at 70 — the external actions
        // were applied through the daemon + control path.
        assert_eq!(system.current_params(), vec![70.0]);
    }

    #[test]
    fn state_round_trip_resumes_bit_identically() {
        use capes_persist::Persist;
        use capes_replay::ReplayArena;
        // Each system writes into an arena of its own, so the replay store
        // can be snapshot and restored exactly as the fleet checkpoint does.
        let with_arena = |seed| {
            let arena = ReplayArena::single(quick_hyperparams().replay_config(1, 2));
            let system = Capes::builder(QuadraticTarget::new(60.0))
                .hyperparams(quick_hyperparams())
                .seed(seed)
                .replay_db(arena.stripe(0))
                .build()
                .expect("valid configuration");
            (arena, system)
        };
        let (arena, mut original) = with_arena(11);
        for _ in 0..150 {
            original.training_tick();
        }
        let mut w = capes_persist::Writer::new();
        arena.with_read(0, |db| db.encode(&mut w));
        original.encode_state(&mut w);

        // A fresh same-geometry system under a *different* seed: every
        // divergent piece of state must be overwritten by the restore.
        let (restored_arena, mut restored) = with_arena(99);
        let bytes = w.into_vec();
        let mut r = capes_persist::Reader::new(&bytes);
        let stripe = capes_replay::ReplayDb::decode(&mut r).expect("store decodes");
        restored_arena
            .restore_stripe(0, stripe)
            .expect("same geometry restores");
        restored.decode_state(&mut r).expect("state decodes");
        r.finish().expect("no trailing bytes");

        assert_eq!(restored.tick(), original.tick());
        assert_eq!(restored.current_params(), original.current_params());
        for _ in 0..60 {
            let a = original.training_tick();
            let b = restored.training_tick();
            assert_eq!(a, b, "restored system diverged at tick {}", a.tick);
        }
        assert_eq!(
            original
                .dqn_agent()
                .unwrap()
                .q_network()
                .mlp()
                .parameter_distance(restored.dqn_agent().unwrap().q_network().mlp()),
            0.0,
            "weights must stay bit-identical after resumed training"
        );
        assert_eq!(restored.prediction_errors(), original.prediction_errors());
        assert_eq!(restored.daemon_stats(), original.daemon_stats());
    }

    #[test]
    fn state_restore_rejects_configuration_skew_untouched() {
        let mut original = quick_system(60.0, 12);
        for _ in 0..30 {
            original.training_tick();
        }
        let mut w = capes_persist::Writer::new();
        original.encode_state(&mut w);
        let bytes = w.into_vec();

        // Transport skew.
        let mut socket = Capes::builder(QuadraticTarget::new(60.0))
            .hyperparams(quick_hyperparams())
            .seed(1)
            .transport(Transport::Socket)
            .build()
            .unwrap();
        let mut r = capes_persist::Reader::new(&bytes);
        let err = socket.decode_state(&mut r).unwrap_err();
        assert!(err.to_string().contains("transport"), "got: {err}");
        assert_eq!(socket.tick(), 0, "nothing was overwritten");

        // A snapshot of the retired in-process transport (tag 0).
        let mut retired = bytes.clone();
        retired[0] = 0;
        let mut wire = quick_system(60.0, 1);
        let mut r = capes_persist::Reader::new(&retired);
        let err = wire.decode_state(&mut r).unwrap_err();
        assert!(err.to_string().contains("transport"), "got: {err}");
        assert_eq!(wire.tick(), 0, "nothing was overwritten");

        // Observation-width skew (different sampling window → different
        // agent geometry), detected before any assignment.
        let mut narrow = Capes::builder(QuadraticTarget::new(60.0))
            .hyperparams(Hyperparameters {
                sampling_ticks_per_observation: 4,
                ..quick_hyperparams()
            })
            .seed(1)
            .build()
            .unwrap();
        let mut r = capes_persist::Reader::new(&bytes);
        let err = narrow.decode_state(&mut r).unwrap_err();
        assert!(err.to_string().contains("agent geometry"), "got: {err}");
        assert_eq!(narrow.tick(), 0);
        assert_eq!(narrow.daemon_stats(), Default::default());

        // Engine skew: a search engine cannot absorb a DRL snapshot.
        let mut search = Capes::builder(QuadraticTarget::new(60.0))
            .hyperparams(quick_hyperparams())
            .engine(Box::new(SearchEngine::new(HillClimbing::new(10), 5)))
            .build()
            .unwrap();
        let mut r = capes_persist::Reader::new(&bytes);
        let err = search.decode_state(&mut r).unwrap_err();
        assert!(err.to_string().contains("engine"), "got: {err}");
    }

    #[test]
    fn snapshot_borne_parameters_are_rejected_untouched() {
        use capes_persist::{Persist, Reader, Writer};
        // A NullEngine re-proposes the current parameters, so its next action
        // is deduplicated by the Control Agent — the tick on which values
        // staged by a snapshot would reach the target unchecked.
        let build = || {
            Capes::builder(QuadraticTarget::new(60.0))
                .hyperparams(quick_hyperparams())
                .engine(Box::new(crate::engine::NullEngine))
                .build()
                .unwrap()
        };
        let mut original = build();
        for _ in 0..5 {
            original.training_tick();
        }
        let mut honest = Writer::new();
        original.encode_state(&mut honest);
        let honest = honest.into_vec();
        // Splice `Some([42.0])` over the reserved byte behind the monitors.
        let mut crafted = Writer::new();
        crafted.put_u8(original.transport.tag());
        crafted.put_u64(original.tick);
        original.target.encode(&mut crafted);
        original.monitors.encode(&mut crafted);
        let at = crafted.len();
        assert_eq!(honest[at], 0, "the reserved byte");
        Some(vec![42.0]).encode(&mut crafted);
        crafted.put_raw(&honest[at + 1..]);

        let mut restored = build();
        let err = restored
            .decode_state(&mut Reader::new(&crafted.into_vec()))
            .unwrap_err();
        assert!(err.to_string().contains("reserved"), "got: {err}");
        assert_eq!(restored.tick(), 0, "nothing was overwritten");
        assert_eq!(restored.daemon_stats(), Default::default());
        // The honest snapshot restores, and the deduplicated proposal leaves
        // the knob where it was.
        restored.decode_state(&mut Reader::new(&honest)).unwrap();
        restored.training_tick();
        assert_eq!(restored.current_params(), vec![10.0]);
    }

    #[test]
    fn daemon_and_monitor_stats_accumulate() {
        let mut system = quick_system(60.0, 9);
        for _ in 0..20 {
            system.training_tick();
        }
        let stats = system.daemon_stats();
        assert_eq!(stats.reports_received, 20);
        assert_eq!(stats.objectives_recorded, 20);
        assert!(stats.actions_broadcast > 0);
        let monitor_stats = system.monitor_stats();
        assert_eq!(monitor_stats.len(), 1);
        assert_eq!(monitor_stats[0].reports, 20);
        assert!(monitor_stats[0].mean_bytes_per_report() > 0.0);
    }

    #[test]
    fn tuned_phase_after_baseline_reapplies_the_engines_parameters() {
        // Regression test: `reset_params_to_defaults` bypasses the control
        // path, so a Train → Baseline → Tuned plan with an engine that
        // re-proposes its previous best must still get those parameters
        // applied during the tuned phase (the Control Agent's deduplication
        // cache is invalidated by the reset).
        let mut system = Capes::builder(QuadraticTarget::new(60.0))
            .hyperparams(quick_hyperparams())
            .engine(Box::new(SearchEngine::new(RandomSearch::new(20, 3), 10)))
            .build()
            .unwrap();
        for _ in 0..300 {
            system.training_tick();
        }
        assert!(system.engine().is_converged());
        system.run_tick(PhaseKind::Tuned);
        let best = system.current_params();
        assert_ne!(best, vec![10.0], "search should have moved off the default");
        // Baseline phase: parameters reset to defaults outside the control
        // path.
        let report = system.run(&[Phase::Baseline { ticks: 5 }]);
        assert_eq!(report.sessions[0].final_params, vec![10.0]);
        assert_eq!(system.current_params(), vec![10.0]);
        // Tuned: the engine re-proposes `best`; it must take effect again.
        system.run_tick(PhaseKind::Tuned);
        assert_eq!(
            system.current_params(),
            best,
            "tuned phase must re-apply the engine's parameters after a baseline reset"
        );
    }

    #[test]
    fn search_engine_drives_through_the_same_system_path() {
        // A search comparator plugged into the full pipeline: training ticks
        // walk its candidates through daemon + checker, tuned ticks exploit
        // the best candidate found.
        let mut system = Capes::builder(QuadraticTarget::new(60.0))
            .hyperparams(quick_hyperparams())
            .engine(Box::new(SearchEngine::new(RandomSearch::new(30, 5), 10)))
            .build()
            .unwrap();
        for _ in 0..400 {
            system.training_tick();
        }
        assert!(
            system.engine().is_converged(),
            "31 candidates × 10 ticks < 400"
        );
        let t = system.run_tick(PhaseKind::Tuned);
        assert!(!t.explored);
        let best = system.current_params();
        // The random search on an easy 1-D surface lands near the optimum.
        assert!(
            (best[0] - 60.0).abs() < 40.0,
            "best candidate {} should be near 60",
            best[0]
        );
    }
}
