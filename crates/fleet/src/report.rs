//! Fleet reports and the per-profile experience-sharing weights.

use capes::ExperimentReport;
use capes_persist::{Persist, PersistError, Reader, Writer};
use capes_telemetry::TelemetrySnapshot;

/// How the clusters of one profile share experience through the fleet's
/// replay arena: the round-robin cluster's stripe is weighted `own`, every
/// other member stripe `peers`. Both must be non-negative, finite and not
/// both zero.
///
/// Sharing shapes only the *training* draws of the profile's shared DQN;
/// monitoring, decisions and the per-cluster stripes themselves are
/// unaffected. With sharing disabled (the default) every training call
/// samples the round-robin cluster's own stripe exactly as the pre-arena
/// fleet did — bit-identical reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperienceSharing {
    /// Relative weight of the cluster currently being trained for.
    pub own: f64,
    /// Relative weight of each of its profile peers.
    pub peers: f64,
}

// Capitalised like variants: callers match on these values as patterns.
#[allow(non_upper_case_globals)]
impl ExperienceSharing {
    /// Each training call samples only the round-robin cluster's own stripe
    /// (the default; pre-arena behaviour).
    pub const Disabled: ExperienceSharing = ExperienceSharing {
        own: 1.0,
        peers: 0.0,
    };
    /// Every member cluster's stripe is sampled with equal weight — full
    /// experience pooling across the profile.
    pub const Uniform: ExperienceSharing = ExperienceSharing {
        own: 1.0,
        peers: 1.0,
    };

    /// Checks the weights for a profile of `members` clusters: they must be
    /// finite, non-negative and not both zero, and a one-member profile
    /// needs a positive `own` weight (its only stripe).
    /// [`crate::FleetDaemon::set_profile_sharing`] asserts this, and restore
    /// rejects a snapshot that fails it.
    pub(crate) fn validate(self, members: usize) -> Result<(), &'static str> {
        let ExperienceSharing { own, peers } = self;
        if !(own.is_finite() && peers.is_finite() && own >= 0.0 && peers >= 0.0) {
            Err("non-finite or negative experience-sharing weight")
        } else if own + peers <= 0.0 {
            Err("all-zero experience-sharing weights")
        } else if own <= 0.0 && members <= 1 {
            Err("zero own-weight on a single-member profile")
        } else {
            Ok(())
        }
    }

    /// Fills `buf` (one weight per arena stripe) with the training draw's
    /// stripe weights when cluster `own` of a profile whose member stripes
    /// are `members` is trained: `own`'s stripe weighs `self.own`, the other
    /// members' `self.peers`, and stripes outside the profile 0.
    pub(crate) fn stripe_weights<'a>(
        &self,
        members: &[usize],
        own: usize,
        buf: &'a mut [f64],
    ) -> &'a [f64] {
        buf.fill(0.0);
        for &stripe in members {
            // In bounds: member stripes are cluster indices, one per stripe.
            buf[stripe] = self.peers;
        }
        // In bounds: `own` is one of `members`.
        buf[own] = self.own;
        buf
    }
}

impl Default for ExperienceSharing {
    fn default() -> Self {
        ExperienceSharing::Disabled
    }
}

/// Snapshot encoding: tag 0 ([`ExperienceSharing::Disabled`]), 1
/// ([`ExperienceSharing::Uniform`]) or 2 (any other pair, followed by `own`
/// and then `peers`). Decoding checks only the tag; the weights are checked
/// against the profile by the fleet's restore.
impl Persist for ExperienceSharing {
    fn encode(&self, w: &mut Writer) {
        if *self == ExperienceSharing::Disabled {
            w.put_u8(0);
        } else if *self == ExperienceSharing::Uniform {
            w.put_u8(1);
        } else {
            w.put_u8(2);
            w.put_f64(self.own);
            w.put_f64(self.peers);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(ExperienceSharing::Disabled),
            1 => Ok(ExperienceSharing::Uniform),
            2 => Ok(ExperienceSharing {
                own: r.get_f64()?,
                peers: r.get_f64()?,
            }),
            _ => Err(PersistError::BadValue {
                what: "invalid experience-sharing tag",
            }),
        }
    }
}

/// One member cluster's outcome within a [`FleetReport`].
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Cluster name from its [`crate::ScenarioSpec`].
    pub name: String,
    /// Human-readable scenario description (workload, geometry, seed).
    pub scenario: String,
    /// The cluster's per-phase sessions — the same aggregate a standalone
    /// [`CapesSystem::run`](capes::CapesSystem::run) produces.
    pub report: ExperimentReport,
}

serde::serialize_struct! { ClusterReport { name, scenario, report } }

/// Occupancy of one arena stripe at the end of a fleet run.
#[derive(Debug, Clone)]
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

serde::serialize_struct! { StripeOccupancy {
    cluster, occupied_ticks, evicted_ticks, total_inserted,
} }

/// Connection and ingest health of the fleet's network front end (ISSUE 6).
///
/// Always present in a [`FleetReport`]; on the wire transport every counter
/// but `reports_rejected` is zero and `enabled` is false. Counters cover the
/// daemon's whole lifetime, not just the reported run.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Mean inbound bytes per tick this process's front end carried.
    pub bytes_in_per_tick: f64,
    /// Mean outbound bytes per tick this process's front end carried.
    pub bytes_out_per_tick: f64,
}

serde::serialize_struct! { NetReport {
    transport, enabled, accepted, active, shed_backpressure, shed_idle, disconnects, decode_errors,
    reports_rejected, frames_in, frames_out, bytes_in, bytes_out, bytes_in_per_tick,
    bytes_out_per_tick,
} }

/// Durability activity of one fleet daemon (ISSUE 7).
///
/// Counters cover the daemon's process lifetime. They are deliberately *not*
/// part of the checkpoint payload: a restored daemon's future snapshot files
/// must be byte-identical to the uninterrupted original's, and bookkeeping
/// about checkpointing itself would diverge between the two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

serde::serialize_struct! { PersistReport {
    checkpoints_written, restores, auto_checkpoints, auto_checkpoint_failures, records_appended,
    record_failures,
} }

/// The aggregated outcome of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One entry per member cluster, in scenario order.
    pub clusters: Vec<ClusterReport>,
    /// Replay-arena occupancy, one entry per stripe in cluster order.
    pub arena: Vec<StripeOccupancy>,
    /// Cluster-ticks executed (clusters × phase ticks).
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

serde::serialize_struct! { FleetReport {
    clusters, arena, cluster_ticks, elapsed_seconds, cluster_ticks_per_sec,
    recent_cluster_ticks_per_sec, net, persist, telemetry,
} }

impl FleetReport {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{map_get, Serialize, Value};

    /// A hand-built report touching every section: one cluster, two arena
    /// stripes, a socket front end, durability counters and a telemetry
    /// snapshot with a NaN gauge.
    fn sample() -> FleetReport {
        FleetReport {
            clusters: vec![ClusterReport {
                name: "write-heavy".into(),
                scenario: "random 1:9 \"hot\"\t4 clients".into(),
                report: ExperimentReport {
                    sessions: Vec::new(),
                },
            }],
            arena: vec![
                StripeOccupancy {
                    cluster: "write-heavy".into(),
                    occupied_ticks: 56,
                    evicted_ticks: 0,
                    total_inserted: 112,
                },
                StripeOccupancy {
                    cluster: "read-heavy".into(),
                    occupied_ticks: 48,
                    evicted_ticks: 8,
                    total_inserted: 4096,
                },
            ],
            cluster_ticks: 10,
            elapsed_seconds: 1.0,
            cluster_ticks_per_sec: 10.0,
            recent_cluster_ticks_per_sec: 12.5,
            net: NetReport {
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
            },
            persist: PersistReport {
                checkpoints_written: 5,
                restores: 1,
                auto_checkpoints: 4,
                auto_checkpoint_failures: 0,
                records_appended: 2048,
                record_failures: 0,
            },
            telemetry: TelemetrySnapshot {
                counters: vec![capes_telemetry::CounterSnapshot {
                    name: "net.frames_in".into(),
                    value: 460,
                }],
                gauges: vec![capes_telemetry::GaugeSnapshot {
                    name: "fleet.cluster.write-heavy.objective".into(),
                    value: f64::NAN,
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
            },
        }
    }

    #[test]
    fn report_json_matches_the_golden() {
        let json = sample().to_json();
        assert_eq!(json, include_str!("../tests/fixtures/fleet_report.json"));
    }

    /// The named top-level section of `report.to_json()`, parsed back.
    fn json_section(report: &FleetReport, key: &str) -> Value {
        let json: Value = serde_json::from_str(&report.to_json()).expect("valid JSON");
        map_get(json.as_map().unwrap(), key).unwrap().clone()
    }

    #[test]
    fn net_section_parses_back_and_surfaces_in_summary() {
        let report = sample();
        assert_eq!(json_section(&report, "net"), report.net.to_value());
        assert!(report.summary().contains("net: 1024 accepted"));
        assert!(report.summary().contains("12 over the last window"));
        // The transport tag is printed even when no counter was measured: a
        // wire fleet reports "wire" with zeros, which consumers must not read
        // as "socket fleet saw no traffic".
        let quiet = FleetReport {
            net: NetReport {
                transport: "wire".into(),
                ..NetReport::default()
            },
            ..report
        };
        assert_eq!(json_section(&quiet, "net"), quiet.net.to_value());
        assert!(!quiet.summary().contains("\nnet:"));
    }

    #[test]
    fn persist_section_parses_back_and_surfaces_in_summary() {
        let report = sample();
        assert_eq!(json_section(&report, "persist"), report.persist.to_value());
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
    fn telemetry_section_parses_back_and_surfaces_in_summary() {
        let mut report = sample();
        // NaN prints as `null`, which parses back as no number at all.
        report.telemetry.gauges[0].value = 88.0;
        assert_eq!(
            json_section(&report, "telemetry"),
            report.telemetry.to_value()
        );
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

    const BIASED: ExperienceSharing = ExperienceSharing {
        own: 3.0,
        peers: 0.5,
    };

    #[test]
    fn stripe_weights_follow_the_sharing_mode() {
        // A profile of stripes 1, 2 and 4 in a five-stripe arena, training
        // the cluster on stripe 2; stripes 0 and 3 belong to other profiles.
        for (mode, expected) in [
            (ExperienceSharing::Disabled, [0.0, 0.0, 1.0, 0.0, 0.0]),
            (ExperienceSharing::Uniform, [0.0, 1.0, 1.0, 0.0, 1.0]),
            (BIASED, [0.0, 0.5, 3.0, 0.0, 0.5]),
        ] {
            let mut buf = [9.0; 5];
            assert_eq!(mode.stripe_weights(&[1, 2, 4], 2, &mut buf), expected);
        }
    }

    #[test]
    fn sharing_modes_persist_as_tagged_weights() {
        assert_eq!(ExperienceSharing::default(), ExperienceSharing::Disabled);
        let mut biased = vec![2];
        biased.extend([3.0f64, 0.5].iter().flat_map(|w| w.to_bits().to_le_bytes()));
        for (mode, bytes) in [
            (ExperienceSharing::Disabled, vec![0]),
            (ExperienceSharing::Uniform, vec![1]),
            (BIASED, biased),
        ] {
            let mut w = Writer::new();
            mode.encode(&mut w);
            assert_eq!(w.into_vec(), bytes, "{mode:?}");
            let mut r = Reader::new(&bytes);
            assert_eq!(ExperienceSharing::decode(&mut r).expect("decodes"), mode);
            r.finish().expect("consumes every byte");
        }
        // Field-built pairs equal to a named weight pair keep its short tag.
        for (own, peers, tag) in [(1.0, 0.0, 0), (1.0, 1.0, 1)] {
            let mut w = Writer::new();
            ExperienceSharing { own, peers }.encode(&mut w);
            assert_eq!(w.into_vec(), [tag]);
        }
        // Tag-2 bytes carrying (1, 0) load as the value `Disabled` is.
        let mut one_hot = vec![2];
        one_hot.extend([1.0f64, 0.0].iter().flat_map(|w| w.to_bits().to_le_bytes()));
        assert_eq!(
            ExperienceSharing::decode(&mut Reader::new(&one_hot)).expect("decodes"),
            ExperienceSharing::Disabled
        );
        assert!(matches!(
            ExperienceSharing::decode(&mut Reader::new(&[3])),
            Err(PersistError::BadValue { .. })
        ));
    }
}
