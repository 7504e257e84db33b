//! Fleet plans and reports.

use capes::{ExperimentReport, Phase};
use capes_telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};

/// How the clusters of one profile share experience through the fleet's
/// replay arena.
///
/// Sharing shapes only the *training* draws of the profile's shared DQN;
/// monitoring, decisions and the per-cluster stripes themselves are
/// unaffected. With sharing disabled (the default) every training call
/// samples the round-robin cluster's own stripe exactly as the pre-arena
/// fleet did — bit-identical reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum ExperienceSharing {
    /// Each training call samples only the round-robin cluster's own stripe
    /// (the default; pre-arena behaviour).
    #[default]
    Disabled,
    /// Every member cluster's stripe is sampled with equal weight —
    /// full experience pooling across the profile.
    Uniform,
    /// The round-robin cluster's stripe is weighted `own`, every other
    /// member stripe `peers` — transfer learning that still favours local
    /// experience. `own` and `peers` must be non-negative, finite and not
    /// both zero.
    SelfBiased {
        /// Relative weight of the cluster currently being trained for.
        own: f64,
        /// Relative weight of each of its profile peers.
        peers: f64,
    },
}

/// One profile's experience-sharing setting inside a [`FleetPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfileSharing {
    /// Profile index (see [`crate::FleetDaemon::num_profiles`]).
    pub profile: usize,
    /// Sharing mode for that profile.
    pub mode: ExperienceSharing,
}

/// A declarative fleet run: the same ordered phase list an
/// [`capes::Experiment`] takes, executed on every member cluster in lockstep
/// (one fleet tick advances every cluster by one second), plus the
/// experience-sharing configuration of each profile.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetPlan {
    /// Phases, executed in order across the whole fleet.
    pub phases: Vec<Phase>,
    /// Per-profile experience-sharing settings; profiles not listed stay at
    /// [`ExperienceSharing::Disabled`].
    pub sharing: Vec<ProfileSharing>,
    /// Fleet worker parallelism (total threads ticking member clusters,
    /// including the daemon thread). `None` keeps the daemon's current pool —
    /// the `CAPES_FLEET_THREADS` / [`FleetBuilder`](crate::daemon::FleetBuilder)
    /// setting. Worker count never changes results: multi-worker runs are
    /// bit-identical to `workers = 1`.
    #[serde(default)]
    pub workers: Option<usize>,
}

impl FleetPlan {
    /// An empty plan (no phases, sharing disabled everywhere, worker count
    /// inherited from the daemon).
    pub fn new() -> Self {
        FleetPlan {
            phases: Vec::new(),
            sharing: Vec::new(),
            workers: None,
        }
    }

    /// Appends a phase.
    #[must_use]
    pub fn phase(mut self, phase: Phase) -> Self {
        self.phases.push(phase);
        self
    }

    /// Sets the experience-sharing mode of one profile.
    #[must_use]
    pub fn share(mut self, profile: usize, mode: ExperienceSharing) -> Self {
        self.sharing.push(ProfileSharing { profile, mode });
        self
    }

    /// Sets the fleet worker parallelism for this plan's run (1 = the
    /// sequential path).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Total ticks the plan will run per cluster.
    pub fn total_ticks(&self) -> u64 {
        self.phases.iter().map(Phase::ticks).sum()
    }
}

/// One member cluster's outcome within a [`FleetReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Cluster name from its [`crate::ScenarioSpec`].
    pub name: String,
    /// Human-readable scenario description (workload, geometry, seed).
    pub scenario: String,
    /// The cluster's per-phase sessions — the same aggregate a standalone
    /// [`capes::Experiment`] run produces.
    pub report: ExperimentReport,
}

/// Occupancy of one arena stripe at the end of a fleet run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StripeOccupancy {
    /// Name of the cluster the stripe belongs to.
    pub cluster: String,
    /// Ticks currently holding snapshot data.
    pub occupied_ticks: u64,
    /// Snapshot ticks retired by ring-slot collisions.
    pub evicted_ticks: u64,
    /// Snapshot rows ever inserted into the stripe.
    pub total_inserted: u64,
}

/// Connection and ingest health of the fleet's network front end (ISSUE 6).
///
/// Always present in a [`FleetReport`]; on the wire transport every counter
/// but `reports_rejected` is zero and `enabled` is false. Counters cover the
/// daemon's whole lifetime, not just the reported run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetReport {
    /// Which transport the fleet ran on (`"wire"` or `"socket"`). Only the socket transport measures connection counters,
    /// so consumers need this tag to tell "no traffic" from "not measured":
    /// a wire fleet moves real frames that never touch these counters.
    pub transport: String,
    /// Whether the fleet ran with the socket front end.
    pub enabled: bool,
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Connections open when the report was taken.
    pub active: u64,
    /// Slow clients shed for exceeding the outbound buffer cap.
    pub shed_backpressure: u64,
    /// Connections shed for idling past the timeout.
    pub shed_idle: u64,
    /// Connections closed or errored from the peer side.
    pub disconnects: u64,
    /// Connections closed for framing/decode/routing violations.
    pub decode_errors: u64,
    /// Reports/objectives the member Interface Daemons rejected after decode
    /// (unknown node, wrong indicator count) — transport-independent.
    pub reports_rejected: u64,
    /// Well-formed frames decoded and delivered to the ingest channel.
    pub frames_in: u64,
    /// Action frames queued for transmission.
    pub frames_out: u64,
    /// Raw bytes read off sockets.
    pub bytes_in: u64,
    /// Raw bytes written to sockets.
    pub bytes_out: u64,
    /// Mean inbound bytes per fleet tick.
    pub bytes_in_per_tick: f64,
    /// Mean outbound bytes per fleet tick.
    pub bytes_out_per_tick: f64,
}

/// Durability activity of one fleet daemon (ISSUE 7).
///
/// Counters cover the daemon's process lifetime. They are deliberately *not*
/// part of the checkpoint payload: a restored daemon's future snapshot files
/// must be byte-identical to the uninterrupted original's, and bookkeeping
/// about checkpointing itself would diverge between the two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PersistReport {
    /// Snapshot files written successfully (manual and automatic).
    pub checkpoints_written: u64,
    /// Snapshots restored successfully.
    pub restores: u64,
    /// Automatic interval checkpoints that succeeded.
    pub auto_checkpoints: u64,
    /// Automatic interval checkpoints that failed (the run continues).
    pub auto_checkpoint_failures: u64,
    /// Wire frames appended to the traffic record log.
    pub records_appended: u64,
    /// Record-log append failures (recording stops at the first one).
    pub record_failures: u64,
}

/// The aggregated outcome of one fleet run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    /// One entry per member cluster, in scenario order.
    pub clusters: Vec<ClusterReport>,
    /// Replay-arena occupancy, one entry per stripe in cluster order.
    pub arena: Vec<StripeOccupancy>,
    /// Cluster-ticks executed (clusters × plan ticks).
    pub cluster_ticks: u64,
    /// Wall-clock seconds the run took.
    pub elapsed_seconds: f64,
    /// Fleet throughput: cluster-ticks per wall-clock second.
    pub cluster_ticks_per_sec: f64,
    /// Windowed fleet throughput: cluster-ticks/s over the last 32 fleet
    /// ticks at the moment the report was taken. A mid-run stall (a slow
    /// cluster, a checkpoint spike) dents this long before it moves the
    /// whole-run average above.
    pub recent_cluster_ticks_per_sec: f64,
    /// Network front-end health (zeros on the wire transport).
    pub net: NetReport,
    /// Checkpoint/record activity (zeros when durability is unused).
    pub persist: PersistReport,
    /// Every metric in the global registry at report time (ISSUE 8) —
    /// tick-phase latency histograms, GEMM/arena/ingest/checkpoint timings,
    /// per-cluster objective gauges — the same numbers a live `/metrics`
    /// scrape would show, carried in the report so the wire transport gets
    /// them too.
    pub telemetry: TelemetrySnapshot,
}

impl FleetReport {
    /// The report of the cluster named `name`, if present.
    pub fn cluster(&self, name: &str) -> Option<&ClusterReport> {
        self.clusters.iter().find(|c| c.name == name)
    }

    /// `(cluster name, improvement of the labelled session over that
    /// cluster's baseline)` for every cluster that measured both.
    pub fn improvements_over_baseline(&self, label: &str) -> Vec<(String, f64)> {
        self.clusters
            .iter()
            .filter_map(|c| {
                c.report
                    .improvement_over_baseline(label)
                    .map(|imp| (c.name.clone(), imp))
            })
            .collect()
    }

    /// Multi-line, per-cluster summary plus the fleet throughput and arena
    /// occupancy lines.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for cluster in &self.clusters {
            out.push_str(&format!("=== {} ({})\n", cluster.name, cluster.scenario));
            out.push_str(&cluster.report.summary());
        }
        out.push_str(&format!(
            "fleet: {} cluster-ticks in {:.2}s ({:.0} cluster-ticks/s, {:.0} over the last window)\n",
            self.cluster_ticks,
            self.elapsed_seconds,
            self.cluster_ticks_per_sec,
            self.recent_cluster_ticks_per_sec
        ));
        let occupied: u64 = self.arena.iter().map(|s| s.occupied_ticks).sum();
        let evicted: u64 = self.arena.iter().map(|s| s.evicted_ticks).sum();
        out.push_str(&format!(
            "arena: {} stripes, {occupied} occupied ticks, {evicted} evictions\n",
            self.arena.len()
        ));
        if self.net.enabled {
            out.push_str(&format!(
                "net: {} accepted, {} active, {} shed (backpressure), {} rejected, \
                 {:.0}/{:.0} bytes per tick in/out\n",
                self.net.accepted,
                self.net.active,
                self.net.shed_backpressure,
                self.net.reports_rejected,
                self.net.bytes_in_per_tick,
                self.net.bytes_out_per_tick
            ));
        }
        if self.persist != PersistReport::default() {
            out.push_str(&format!(
                "persist: {} checkpoints ({} auto, {} failed), {} restores, \
                 {} frames recorded\n",
                self.persist.checkpoints_written,
                self.persist.auto_checkpoints,
                self.persist.auto_checkpoint_failures,
                self.persist.restores,
                self.persist.records_appended
            ));
        }
        if let Some(tick) = self.telemetry.histogram("fleet.tick.total") {
            if tick.count > 0 {
                out.push_str(&format!(
                    "telemetry: fleet tick p50 {:.2} ms, p99 {:.2} ms over {} ticks\n",
                    tick.p50_ns / 1e6,
                    tick.p99_ns / 1e6,
                    tick.count
                ));
            }
        }
        if let Some(line) = self.parallel_summary() {
            out.push_str(&line);
        }
        out
    }

    /// The "parallel:" summary line — estimated speedup of the multi-worker
    /// tick over a hypothetical sequential run, from the `fleet.worker.*.busy`
    /// histograms: total work (main-thread tick time + worker busy time)
    /// divided by wall-clock tick time. `None` when the run never published a
    /// `fleet.workers` gauge (telemetry off or no fleet pool built).
    fn parallel_summary(&self) -> Option<String> {
        let workers = self
            .telemetry
            .gauges
            .iter()
            .find(|g| g.name == "fleet.workers")?
            .value;
        let tick = self.telemetry.histogram("fleet.tick.total")?;
        if tick.count == 0 {
            return None;
        }
        let wall_ns = tick.mean_ns * tick.count as f64;
        let busy_ns: f64 = self
            .telemetry
            .histograms
            .iter()
            .filter(|h| h.name.starts_with("fleet.worker.") && h.name.ends_with(".busy"))
            .map(|h| h.mean_ns * h.count as f64)
            .sum();
        let speedup = if wall_ns > 0.0 {
            (wall_ns + busy_ns) / wall_ns
        } else {
            1.0
        };
        Some(format!(
            "parallel: {workers:.0} workers, estimated speedup {speedup:.2}x over sequential\n"
        ))
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// Parses a report back from [`FleetReport::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_accumulates_phases_and_ticks() {
        let plan = FleetPlan::new()
            .phase(Phase::Baseline { ticks: 10 })
            .phase(Phase::Train { ticks: 25 })
            .phase(Phase::Tuned {
                ticks: 5,
                label: "tuned".into(),
            });
        assert_eq!(plan.phases.len(), 3);
        assert_eq!(plan.total_ticks(), 40);
        assert!(plan.sharing.is_empty(), "sharing defaults to disabled");
        let json = serde_json::to_string(&plan).unwrap();
        let back: FleetPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn net_report_round_trips_through_json() {
        let net = NetReport {
            transport: "socket".into(),
            enabled: true,
            accepted: 1024,
            active: 1000,
            shed_backpressure: 3,
            shed_idle: 1,
            disconnects: 20,
            decode_errors: 2,
            reports_rejected: 7,
            frames_in: 123_456,
            frames_out: 60_000,
            bytes_in: 9_876_543,
            bytes_out: 2_345_678,
            bytes_in_per_tick: 1234.5,
            bytes_out_per_tick: 678.25,
        };
        let report = FleetReport {
            clusters: Vec::new(),
            arena: Vec::new(),
            cluster_ticks: 10,
            elapsed_seconds: 1.0,
            cluster_ticks_per_sec: 10.0,
            recent_cluster_ticks_per_sec: 12.5,
            net: net.clone(),
            persist: PersistReport::default(),
            telemetry: TelemetrySnapshot::default(),
        };
        let back = FleetReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(back.net, net);
        assert_eq!(back.recent_cluster_ticks_per_sec, 12.5);
        assert!(report.summary().contains("net: 1024 accepted"));
        assert!(report.summary().contains("12 over the last window"));
        // The transport tag survives the round trip even when no counter was
        // measured: a wire fleet reports "wire" with zeros, which consumers
        // must not read as "socket fleet saw no traffic".
        let quiet = FleetReport {
            net: NetReport {
                transport: "wire".into(),
                ..NetReport::default()
            },
            ..report
        };
        let back = FleetReport::from_json(&quiet.to_json()).expect("round trip");
        assert!(!back.net.enabled);
        assert_eq!(back.net.transport, "wire");
        assert_eq!(back.net.accepted, 0);
        assert!(!quiet.summary().contains("\nnet:"));
    }

    #[test]
    fn persist_report_round_trips_and_surfaces_in_summary() {
        let persist = PersistReport {
            checkpoints_written: 5,
            restores: 1,
            auto_checkpoints: 4,
            auto_checkpoint_failures: 0,
            records_appended: 2048,
            record_failures: 0,
        };
        let report = FleetReport {
            clusters: Vec::new(),
            arena: Vec::new(),
            cluster_ticks: 10,
            elapsed_seconds: 1.0,
            cluster_ticks_per_sec: 10.0,
            recent_cluster_ticks_per_sec: 0.0,
            net: NetReport::default(),
            persist,
            telemetry: TelemetrySnapshot::default(),
        };
        let back = FleetReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(back.persist, persist);
        assert!(report
            .summary()
            .contains("persist: 5 checkpoints (4 auto, 0 failed), 1 restores"));
        // A fleet that never touched durability stays silent about it.
        let quiet = FleetReport {
            persist: PersistReport::default(),
            ..report
        };
        assert!(!quiet.summary().contains("persist:"));
    }

    #[test]
    fn telemetry_section_round_trips_and_surfaces_in_summary() {
        let telemetry = TelemetrySnapshot {
            counters: vec![capes_telemetry::CounterSnapshot {
                name: "net.frames_in".into(),
                value: 460,
            }],
            gauges: vec![capes_telemetry::GaugeSnapshot {
                name: "fleet.tick.recent_rate".into(),
                value: 88.0,
            }],
            histograms: vec![capes_telemetry::HistogramSnapshot {
                name: "fleet.tick.total".into(),
                count: 46,
                mean_ns: 1_500_000.0,
                p50_ns: 1_400_000.0,
                p90_ns: 2_000_000.0,
                p99_ns: 2_500_000.0,
                max_ns: 3_000_000,
            }],
        };
        let report = FleetReport {
            clusters: Vec::new(),
            arena: Vec::new(),
            cluster_ticks: 10,
            elapsed_seconds: 1.0,
            cluster_ticks_per_sec: 10.0,
            recent_cluster_ticks_per_sec: 9.0,
            net: NetReport::default(),
            persist: PersistReport::default(),
            telemetry: telemetry.clone(),
        };
        let back = FleetReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(back.telemetry, telemetry);
        assert_eq!(back.telemetry.counter("net.frames_in"), Some(460));
        assert!(report
            .summary()
            .contains("telemetry: fleet tick p50 1.40 ms, p99 2.50 ms over 46 ticks"));
        // An empty registry snapshot stays out of the summary.
        let quiet = FleetReport {
            telemetry: TelemetrySnapshot::default(),
            ..report
        };
        assert!(!quiet.summary().contains("telemetry:"));
    }

    #[test]
    fn sharing_config_round_trips_through_json() {
        let plan = FleetPlan::new()
            .phase(Phase::Train { ticks: 10 })
            .share(0, ExperienceSharing::Uniform)
            .share(
                2,
                ExperienceSharing::SelfBiased {
                    own: 3.0,
                    peers: 1.0,
                },
            );
        assert_eq!(plan.sharing.len(), 2);
        assert_eq!(ExperienceSharing::default(), ExperienceSharing::Disabled);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FleetPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
