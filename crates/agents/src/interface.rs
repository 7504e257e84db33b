//! The Interface Daemon (paper §3.3).
//!
//! The daemon is the only component that writes to the Replay DB. It receives
//! differential PI reports and objective measurements from the Monitoring
//! Agents, reconstructs the full per-node indicator vectors, stores them, and
//! screens the DRL engine's actions with the Action Checker, recording each
//! one that passes and handing it back for the Control Agent.

use crate::checker::{ActionChecker, CheckOutcome};
use crate::message::{ActionMessage, Message, PiReport};
use crate::wire::decode_message;
use capes_persist::{Persist, PersistError, Reader, Writer};
use capes_replay::SharedReplayDb;
use std::collections::HashMap;

/// Counters kept by the daemon (Table-2 style accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterfaceStats {
    /// PI reports ingested.
    pub reports_received: u64,
    /// PI reports and objectives dropped for naming an unknown node or (for
    /// reports) carrying the wrong indicator count — decodable frames whose
    /// *content* is inconsistent with the deployment (a misconfigured or
    /// corrupted sender must never crash the daemon or poison the store).
    pub reports_rejected: u64,
    /// Reports/objectives dropped for carrying a tick further than one
    /// retention window ahead of the newest tick seen — a corrupt far-future
    /// tick would otherwise poison the store's retention bookkeeping and
    /// its sampleable range permanently.
    pub implausible_ticks_rejected: u64,
    /// Objective messages ingested.
    pub objectives_received: u64,
    /// Total encoded bytes of all ingested messages.
    pub bytes_received: u64,
    /// Actions that passed the checker and were handed to the Control Agent.
    pub actions_broadcast: u64,
    /// Actions rejected by the Action Checker.
    pub actions_rejected: u64,
    /// Per-tick objective values aggregated and written to the Replay DB.
    pub objectives_recorded: u64,
}

impl Persist for InterfaceStats {
    const MIN_SIZE: usize = 8 * 8;

    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.reports_received);
        w.put_u64(self.reports_rejected);
        w.put_u64(self.implausible_ticks_rejected);
        w.put_u64(self.objectives_received);
        w.put_u64(self.bytes_received);
        w.put_u64(self.actions_broadcast);
        w.put_u64(self.actions_rejected);
        w.put_u64(self.objectives_recorded);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(InterfaceStats {
            reports_received: r.get_u64()?,
            reports_rejected: r.get_u64()?,
            implausible_ticks_rejected: r.get_u64()?,
            objectives_received: r.get_u64()?,
            bytes_received: r.get_u64()?,
            actions_broadcast: r.get_u64()?,
            actions_rejected: r.get_u64()?,
            objectives_recorded: r.get_u64()?,
        })
    }
}

/// The Interface Daemon.
pub struct InterfaceDaemon {
    db: SharedReplayDb,
    checker: ActionChecker,
    /// Last known full PI vector per node, for differential reconstruction.
    node_state: HashMap<usize, Vec<f64>>,
    /// Per-tick partial objective sums (node → value) awaiting aggregation.
    pending_objectives: HashMap<u64, HashMap<usize, f64>>,
    /// Number of nodes expected to report an objective each tick.
    expected_nodes: usize,
    /// Replay-store geometry, cached so corrupt reports can be screened
    /// without touching the stripe lock.
    db_nodes: usize,
    db_pis_per_node: usize,
    /// Retention window of the store, bounding how far ahead of the newest
    /// tick seen an incoming tick may plausibly be.
    db_capacity: u64,
    /// Newest tick seen on any accepted report/objective (the plausibility
    /// baseline; the first message pins it).
    newest_tick: Option<u64>,
    /// The tick whose snapshots are currently staged, if any.
    staged_tick: Option<u64>,
    /// Staged (node, reconstructed PI vector) entries of `staged_tick`;
    /// the first `staged_len` entries are live, the rest are retained
    /// buffers from earlier ticks awaiting reuse.
    staged: Vec<(usize, Vec<f64>)>,
    staged_len: usize,
    stats: InterfaceStats,
}

impl InterfaceDaemon {
    /// Creates a daemon writing into `db` and expecting `expected_nodes`
    /// monitored nodes. `checker` screens outgoing actions
    /// ([`ActionChecker::permissive`] reproduces the paper's evaluation setup).
    pub fn new(db: SharedReplayDb, expected_nodes: usize, checker: ActionChecker) -> Self {
        assert!(expected_nodes > 0, "need at least one monitored node");
        let (db_nodes, db_pis_per_node, db_capacity) = db.with_read(|db| {
            (
                db.config().num_nodes,
                db.config().pis_per_node,
                db.config().capacity_ticks as u64,
            )
        });
        InterfaceDaemon {
            db,
            checker,
            node_state: HashMap::new(),
            pending_objectives: HashMap::new(),
            expected_nodes,
            db_nodes,
            db_pis_per_node,
            db_capacity,
            newest_tick: None,
            staged_tick: None,
            staged: Vec::new(),
            staged_len: 0,
            stats: InterfaceStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> InterfaceStats {
        self.stats
    }

    /// Ingests an encoded wire frame (as received from a Monitoring Agent).
    pub fn ingest_frame(&mut self, frame: &[u8]) -> Result<(), PersistError> {
        let message = decode_message(frame)?;
        self.stats.bytes_received += frame.len() as u64;
        self.ingest(&message);
        Ok(())
    }

    /// Accepts `tick` if it is not implausibly far in the future — within
    /// one retention window of the newest tick seen (the first message pins
    /// the baseline) — advancing the baseline as ticks progress. A corrupt
    /// far-future tick that passed the codec would otherwise poison the
    /// store permanently: its record bricks a ring slot (every later tick
    /// mapping there looks "expired") and stretches the sampleable range so
    /// wide that minibatch draws essentially never land on real data.
    fn tick_plausible(&mut self, tick: u64) -> bool {
        match self.newest_tick {
            Some(newest) if tick > newest.saturating_add(self.db_capacity) => {
                self.stats.implausible_ticks_rejected += 1;
                false
            }
            Some(newest) => {
                if tick > newest {
                    self.newest_tick = Some(tick);
                    // A tick whose quorum never completed (a node skipped
                    // its objective) would otherwise stay pending forever;
                    // past the retention window the store could not hold
                    // its aggregate anyway.
                    let oldest = tick.saturating_sub(self.db_capacity);
                    self.pending_objectives.retain(|&t, _| t >= oldest);
                }
                true
            }
            None => {
                self.newest_tick = Some(tick);
                true
            }
        }
    }

    /// Ingests a decoded message.
    pub fn ingest(&mut self, message: &Message) {
        // Every transport (wire frames, socket server) funnels
        // decoded traffic through here, so this one span covers ingest
        // latency fleet-wide.
        let _span = capes_telemetry::span!("daemon.ingest");
        match message {
            Message::Report(report) => self.ingest_report(report),
            Message::Objective { tick, node, value } => {
                self.stats.objectives_received += 1;
                // Same content screening as reports: an objective from an
                // unknown node would otherwise count toward the expected
                // quorum and fold a bogus value into the tick's aggregate
                // reward while a real node's value is still outstanding.
                if *node >= self.db_nodes {
                    self.stats.reports_rejected += 1;
                    return;
                }
                if !self.tick_plausible(*tick) {
                    return;
                }
                self.pending_objectives
                    .entry(*tick)
                    .or_default()
                    .insert(*node, *value);
                self.flush_objective(*tick);
            }
            // Actions travel the other way; accept them silently so a shared
            // bus can be used for every message type.
            Message::Action(_) => {}
        }
    }

    /// Screens an action with the Action Checker and records the checked
    /// action in the Replay DB (for experience replay). Returns the action
    /// for the Control Agent, or `None` when the checker vetoed it.
    pub fn broadcast_action(&mut self, action: ActionMessage) -> Option<ActionMessage> {
        if let CheckOutcome::Rejected(_) = self.checker.check(&action.parameter_values) {
            self.stats.actions_rejected += 1;
            return None;
        }
        self.db.insert_action(action.tick, action.action_index);
        self.stats.actions_broadcast += 1;
        Some(action)
    }

    fn ingest_report(&mut self, report: &PiReport) {
        self.stats.reports_received += 1;
        // Content hardening: a decodable frame can still carry a node id or
        // indicator count the replay store was never configured for —
        // passing either through would panic inside the store. Corrupt or
        // misconfigured senders are dropped and counted instead.
        if report.node >= self.db_nodes || report.total_pis != self.db_pis_per_node {
            self.stats.reports_rejected += 1;
            return;
        }
        if !self.tick_plausible(report.tick) {
            return;
        }
        let state = self
            .node_state
            .entry(report.node)
            .or_insert_with(|| vec![0.0; report.total_pis]);
        for &(index, value) in &report.changed {
            if let Some(slot) = state.get_mut(index as usize) {
                *slot = value;
            }
        }
        // Group commit: snapshots stage per tick and flush to the replay
        // store under one write-lock acquisition — when the expected node
        // count has reported, when the tick changes, or when the driver
        // calls `flush_snapshots` at the end of its measurement stage.
        if self.staged_tick != Some(report.tick) {
            self.flush_snapshots();
            self.staged_tick = Some(report.tick);
        }
        let state = self
            .node_state
            .get(&report.node)
            .expect("node state created above");
        if self.staged_len == self.staged.len() {
            self.staged.push((report.node, state.clone()));
        } else {
            let entry = &mut self.staged[self.staged_len];
            entry.0 = report.node;
            entry.1.clear();
            entry.1.extend_from_slice(state);
        }
        self.staged_len += 1;
        if self.staged_len >= self.expected_nodes {
            self.flush_snapshots();
        }
    }

    /// Commits any staged snapshots to the replay store (one write-lock
    /// acquisition for the whole tick) and clears the stage. Drivers call
    /// this after routing a tick's monitoring traffic so partially-reporting
    /// ticks become visible before the observation is assembled; a no-op
    /// when nothing is staged.
    pub fn flush_snapshots(&mut self) {
        if let Some(tick) = self.staged_tick.take() {
            if self.staged_len > 0 {
                self.db.insert_tick_group(
                    tick,
                    self.staged[..self.staged_len]
                        .iter()
                        .map(|(node, pis)| (*node, pis.as_slice())),
                );
            }
            self.staged_len = 0;
        }
    }

    /// Serialises the daemon's mutable ingest state — differential
    /// reconstruction vectors, pending objective sums, tick plausibility
    /// baseline, staged group commit and counters. The replay store itself
    /// and the checker are deliberately excluded: they are wiring
    /// re-established by the host on restore, not state.
    pub fn encode_state(&self, w: &mut Writer) {
        // Geometry first, so a restore into a differently-shaped deployment
        // fails loudly instead of poisoning the store.
        w.put_usize(self.expected_nodes);
        w.put_usize(self.db_nodes);
        w.put_usize(self.db_pis_per_node);
        w.put_u64(self.db_capacity);
        self.node_state.encode(w);
        self.pending_objectives.encode(w);
        self.newest_tick.encode(w);
        self.staged_tick.encode(w);
        w.put_usize(self.staged_len);
        for (node, pis) in &self.staged[..self.staged_len] {
            w.put_usize(*node);
            pis.encode(w);
        }
        self.stats.encode(w);
    }

    /// Restores state written by [`InterfaceDaemon::encode_state`] into this
    /// daemon. The snapshot's geometry must match the daemon's replay store
    /// and expected node count; per-node vectors are re-validated against the
    /// store's indicator width before anything is overwritten.
    pub fn decode_state(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        let expected_nodes = r.get_usize()?;
        let db_nodes = r.get_usize()?;
        let db_pis_per_node = r.get_usize()?;
        let db_capacity = r.get_u64()?;
        if (expected_nodes, db_nodes, db_pis_per_node, db_capacity)
            != (
                self.expected_nodes,
                self.db_nodes,
                self.db_pis_per_node,
                self.db_capacity,
            )
        {
            return Err(PersistError::BadValue {
                what: "interface daemon snapshot geometry disagrees with the deployment",
            });
        }
        let node_state = HashMap::<usize, Vec<f64>>::decode(r)?;
        if node_state
            .iter()
            .any(|(node, pis)| *node >= db_nodes || pis.len() != db_pis_per_node)
        {
            return Err(PersistError::BadValue {
                what: "interface daemon node state outside the store geometry",
            });
        }
        let pending_objectives = HashMap::<u64, HashMap<usize, f64>>::decode(r)?;
        if pending_objectives
            .values()
            .any(|m| m.keys().any(|node| *node >= db_nodes))
        {
            return Err(PersistError::BadValue {
                what: "pending objective from a node outside the store geometry",
            });
        }
        let newest_tick = Option::<u64>::decode(r)?;
        let staged_tick = Option::<u64>::decode(r)?;
        let staged_len = r.get_count(8 + <Vec<f64> as Persist>::MIN_SIZE)?;
        let mut staged = Vec::with_capacity(staged_len);
        for _ in 0..staged_len {
            let node = r.get_usize()?;
            let pis = Vec::<f64>::decode(r)?;
            if node >= db_nodes || pis.len() != db_pis_per_node {
                return Err(PersistError::BadValue {
                    what: "staged snapshot outside the store geometry",
                });
            }
            staged.push((node, pis));
        }
        if staged_len > 0 && staged_tick.is_none() {
            return Err(PersistError::BadValue {
                what: "staged snapshots without a staged tick",
            });
        }
        let stats = InterfaceStats::decode(r)?;
        self.node_state = node_state;
        self.pending_objectives = pending_objectives;
        self.newest_tick = newest_tick;
        self.staged_tick = staged_tick;
        self.staged_len = staged.len();
        self.staged = staged;
        self.stats = stats;
        Ok(())
    }

    /// Writes the aggregate objective for `tick` once every node has reported
    /// (or immediately if only one node is expected).
    fn flush_objective(&mut self, tick: u64) {
        let ready = self
            .pending_objectives
            .get(&tick)
            .map(|m| m.len() >= self.expected_nodes)
            .unwrap_or(false);
        if ready {
            if let Some(values) = self.pending_objectives.remove(&tick) {
                let total: f64 = values.values().sum();
                self.db.insert_objective(tick, total);
                self.stats.objectives_recorded += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitoring::MonitoringAgent;
    use crate::wire::encode_message;
    use capes_replay::ReplayConfig;

    fn db(nodes: usize, pis: usize) -> SharedReplayDb {
        SharedReplayDb::new(ReplayConfig {
            num_nodes: nodes,
            pis_per_node: pis,
            ticks_per_observation: 2,
            missing_entry_tolerance: 0.2,
            capacity_ticks: 1000,
        })
    }

    #[test]
    fn differential_reports_are_reconstructed_into_full_snapshots() {
        let shared = db(1, 4);
        let mut daemon = InterfaceDaemon::new(shared.clone(), 1, ActionChecker::permissive());
        let mut agent = MonitoringAgent::new(0);

        daemon.ingest(&Message::Report(agent.sample(0, &[1.0, 2.0, 3.0, 4.0])));
        // Only one PI changes at tick 1; the daemon must still store the full
        // vector.
        daemon.ingest(&Message::Report(agent.sample(1, &[1.0, 9.0, 3.0, 4.0])));
        shared.with_read(|db| {
            let obs = db.observation_at(1).expect("both ticks stored");
            // Window of 2 ticks × 4 PIs.
            assert_eq!(
                obs.features.as_slice(),
                &[1.0, 2.0, 3.0, 4.0, 1.0, 9.0, 3.0, 4.0]
            );
        });
        assert_eq!(daemon.stats().reports_received, 2);
    }

    #[test]
    fn frames_round_trip_through_the_daemon() {
        let shared = db(1, 3);
        let mut daemon = InterfaceDaemon::new(shared.clone(), 1, ActionChecker::permissive());
        let mut agent = MonitoringAgent::new(0);
        let frame = encode_message(&Message::Report(agent.sample(0, &[5.0, 6.0, 7.0])));
        daemon.ingest_frame(&frame).unwrap();
        assert!(daemon.stats().bytes_received > 0);
        assert!(daemon.ingest_frame(&[0xff, 0x00]).is_err());
    }

    #[test]
    fn objectives_are_aggregated_across_nodes() {
        let shared = db(2, 3);
        let mut daemon = InterfaceDaemon::new(shared.clone(), 2, ActionChecker::permissive());
        daemon.ingest(&Message::Objective {
            tick: 5,
            node: 0,
            value: 100.0,
        });
        // Only one of two nodes has reported → nothing recorded yet.
        shared.with_read(|db| assert!(db.objective_at(5).is_none()));
        daemon.ingest(&Message::Objective {
            tick: 5,
            node: 1,
            value: 50.0,
        });
        shared.with_read(|db| assert_eq!(db.objective_at(5), Some(150.0)));
        assert_eq!(daemon.stats().objectives_recorded, 1);
    }

    #[test]
    fn actions_are_broadcast_recorded_and_checked() {
        let shared = db(1, 3);
        let mut daemon = InterfaceDaemon::new(
            shared.clone(),
            1,
            ActionChecker::new(vec![crate::checker::ParamBound {
                name: "window",
                min: 1.0,
                max: 256.0,
            }]),
        );
        let ok = ActionMessage {
            tick: 3,
            action_index: 1,
            parameter_values: vec![16.0],
        };
        assert_eq!(daemon.broadcast_action(ok.clone()), Some(ok.clone()));
        shared.with_read(|db| assert_eq!(db.action_at(3), Some(1)));

        let bad = ActionMessage {
            tick: 4,
            action_index: 2,
            parameter_values: vec![1e9],
        };
        assert_eq!(daemon.broadcast_action(bad), None, "checker must veto");
        assert_eq!(daemon.stats().actions_rejected, 1);
        assert_eq!(daemon.stats().actions_broadcast, 1);
        shared.with_read(|db| assert_eq!(db.action_at(4), None));
    }

    #[test]
    fn snapshots_group_commit_per_tick() {
        let shared = db(3, 2);
        let mut daemon = InterfaceDaemon::new(shared.clone(), 3, ActionChecker::permissive());
        let report = |tick: u64, node: usize| {
            Message::Report(PiReport {
                tick,
                node,
                total_pis: 2,
                changed: vec![(0, tick as f64), (1, node as f64)],
            })
        };
        // Two of three nodes report: the group stays staged (no store write
        // yet — the write lock has not been taken for this tick).
        daemon.ingest(&report(0, 0));
        daemon.ingest(&report(0, 1));
        shared.with_read(|db| assert_eq!(db.total_inserted(), 0, "staged, not committed"));
        // The third report completes the group and commits it in one go.
        daemon.ingest(&report(0, 2));
        shared.with_read(|db| {
            assert_eq!(db.total_inserted(), 3);
            assert_eq!(db.len(), 1);
        });
        // A partial tick flushes when the next tick's traffic arrives…
        daemon.ingest(&report(1, 0));
        daemon.ingest(&report(2, 0));
        shared.with_read(|db| assert_eq!(db.total_inserted(), 4, "tick 1 flushed by tick 2"));
        // …or when the driver flushes explicitly at the end of its stage.
        daemon.flush_snapshots();
        shared.with_read(|db| assert_eq!(db.total_inserted(), 5));
        // Flushing with nothing staged is a no-op.
        daemon.flush_snapshots();
        shared.with_read(|db| assert_eq!(db.total_inserted(), 5));
    }

    #[test]
    fn corrupt_report_content_is_dropped_not_panicking() {
        let shared = db(2, 3);
        let mut daemon = InterfaceDaemon::new(shared.clone(), 2, ActionChecker::permissive());
        // Node id beyond the store's configuration (a corrupt or misrouted
        // frame): dropped and counted, never a panic inside the store.
        daemon.ingest(&Message::Report(PiReport {
            tick: 0,
            node: 9,
            total_pis: 3,
            changed: vec![(0, 1.0)],
        }));
        // Indicator count that disagrees with the deployment: same.
        daemon.ingest(&Message::Report(PiReport {
            tick: 0,
            node: 0,
            total_pis: 4096,
            changed: vec![],
        }));
        assert_eq!(daemon.stats().reports_rejected, 2);
        assert_eq!(daemon.stats().reports_received, 2);
        daemon.flush_snapshots();
        shared.with_read(|db| assert_eq!(db.total_inserted(), 0));
        // A well-formed report afterwards still lands.
        daemon.ingest(&Message::Report(PiReport {
            tick: 0,
            node: 0,
            total_pis: 3,
            changed: vec![(0, 1.0)],
        }));
        daemon.flush_snapshots();
        shared.with_read(|db| assert_eq!(db.total_inserted(), 1));
    }

    #[test]
    fn implausible_future_ticks_are_dropped_not_stored() {
        // db() uses capacity_ticks = 1000, so anything more than 1000 ticks
        // ahead of the newest tick seen is implausible for a 1-tick/second
        // monitoring stream and must not reach the store (where it would
        // poison the retention bookkeeping and the sampleable range).
        let shared = db(1, 2);
        let mut daemon = InterfaceDaemon::new(shared.clone(), 1, ActionChecker::permissive());
        let report = |tick: u64| {
            Message::Report(PiReport {
                tick,
                node: 0,
                total_pis: 2,
                changed: vec![(0, 1.0)],
            })
        };
        daemon.ingest(&report(5)); // pins the baseline
        daemon.ingest(&report(5 + 1_000_000)); // corrupt far-future tick
        daemon.ingest(&Message::Objective {
            tick: 5 + 2_000_000,
            node: 0,
            value: 1.0,
        });
        assert_eq!(daemon.stats().implausible_ticks_rejected, 2);
        daemon.flush_snapshots();
        shared.with_read(|db| {
            assert_eq!(db.latest_tick(), Some(5), "future tick never stored");
            assert!(db.objective_at(5 + 2_000_000).is_none());
        });
        // Ticks within the window keep flowing and advance the baseline.
        daemon.ingest(&report(900));
        daemon.ingest(&report(1850));
        daemon.flush_snapshots();
        shared.with_read(|db| assert_eq!(db.latest_tick(), Some(1850)));
        assert_eq!(daemon.stats().implausible_ticks_rejected, 2);
    }

    #[test]
    fn incomplete_objective_quorums_expire_with_the_retention_window() {
        // Two nodes are expected, but node 1 never sends its objective: no
        // tick's quorum completes, and each would stay pending forever.
        let mut daemon = InterfaceDaemon::new(db(2, 3), 2, ActionChecker::permissive());
        let mut state_len = Vec::new();
        for tick in 0..3_000u64 {
            daemon.ingest(&Message::Objective {
                tick,
                node: 0,
                value: 1.0,
            });
            if tick % 1_000 == 999 {
                let mut w = Writer::new();
                daemon.encode_state(&mut w);
                state_len.push(w.len());
            }
        }
        // db() keeps 1 000 ticks: the newest tick and the window behind it.
        assert!(daemon.pending_objectives.len() <= 1_000 + 1);
        assert_eq!(daemon.stats().objectives_recorded, 0);
        assert_eq!(state_len[1], state_len[2], "snapshot size stays bounded");
    }

    #[test]
    fn state_round_trip_resumes_mid_tick() {
        // Freeze the daemon mid-tick — a partially-staged snapshot group and
        // a half-reported objective outstanding — and restore into a fresh
        // daemon over an equally-shaped store. The remaining traffic must
        // complete both exactly as it would have in the original.
        let shared_a = db(2, 3);
        let mut original = InterfaceDaemon::new(shared_a.clone(), 2, ActionChecker::permissive());
        let report = |tick: u64, node: usize| {
            Message::Report(PiReport {
                tick,
                node,
                total_pis: 3,
                changed: vec![(0, tick as f64), (2, node as f64 + 0.5)],
            })
        };
        original.ingest(&report(0, 0));
        original.ingest(&report(0, 1));
        original.ingest(&report(1, 0)); // tick 1: one of two nodes staged
        original.ingest(&Message::Objective {
            tick: 1,
            node: 0,
            value: 40.0,
        });

        // Snapshot the store and the daemon state together, as a checkpoint
        // does: the daemon state alone is only the in-flight ingest window.
        let mut w = Writer::new();
        shared_a.with_read(|db| db.encode(&mut w));
        original.encode_state(&mut w);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let db = capes_replay::ReplayDb::decode(&mut r).unwrap();
        let arena_b = capes_replay::ReplayArena::single(*db.config());
        arena_b.restore_stripe(0, db).unwrap();
        let shared_b = arena_b.stripe(0);
        let mut restored = InterfaceDaemon::new(shared_b.clone(), 2, ActionChecker::permissive());
        restored.decode_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.stats(), original.stats());

        for daemon in [&mut original, &mut restored] {
            daemon.ingest(&report(1, 1));
            daemon.ingest(&Message::Objective {
                tick: 1,
                node: 1,
                value: 2.0,
            });
            daemon.flush_snapshots();
        }
        assert_eq!(restored.stats(), original.stats());
        let read = |shared: &SharedReplayDb| {
            shared.with_read(|db| {
                assert_eq!(db.objective_at(1), Some(42.0));
                db.observation_at(1).expect("both ticks stored").features
            })
        };
        assert_eq!(read(&shared_a).as_slice(), read(&shared_b).as_slice());
    }

    #[test]
    fn state_restore_rejects_mismatched_geometry() {
        let mut original = InterfaceDaemon::new(db(2, 3), 2, ActionChecker::permissive());
        original.ingest(&Message::Objective {
            tick: 0,
            node: 0,
            value: 1.0,
        });
        let mut w = Writer::new();
        original.encode_state(&mut w);
        let bytes = w.into_vec();
        // Same node count, different indicator width: refused up front.
        let mut skewed = InterfaceDaemon::new(db(2, 4), 2, ActionChecker::permissive());
        let err = skewed.decode_state(&mut Reader::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("geometry"), "{err}");
        assert_eq!(skewed.stats(), InterfaceStats::default(), "nothing loaded");
    }

    #[test]
    fn non_ingest_messages_are_tolerated() {
        let shared = db(1, 3);
        let mut daemon = InterfaceDaemon::new(shared, 1, ActionChecker::permissive());
        daemon.ingest(&Message::Action(ActionMessage {
            tick: 1,
            action_index: 0,
            parameter_values: vec![],
        }));
        assert_eq!(daemon.stats().reports_received, 0);
    }
}
