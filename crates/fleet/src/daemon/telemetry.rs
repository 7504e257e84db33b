//! The daemon's telemetry: registry handles for the tick phases, objective
//! gauges and checkpoint pieces, and the durability counters.

use crate::report::PersistReport;
use capes_persist::SnapshotStats;
use capes_telemetry::{names, Counter, Gauge, Histogram};
use std::collections::VecDeque;
use std::time::Instant;

/// Fleet ticks the windowed-throughput gauge averages over.
const TICK_WINDOW: usize = 32;

/// The daemon's handles into the global metrics registry: tick-phase
/// histograms, the per-cluster objective gauges, the windowed throughput
/// gauge, and the fleet-wide aggregates of the member daemons' ingest
/// rejection counters. Handles are interned once at build time, so recording
/// them on the tick path takes no locks and no allocation.
pub(super) struct FleetTelemetry {
    pub(super) tick_total: Histogram,
    pub(super) tick_gather: Histogram,
    pub(super) tick_decide: Histogram,
    pub(super) tick_scatter: Histogram,
    pub(super) tick_train: Histogram,
    /// `fleet.tick.recent_rate`: cluster-ticks/s over the last
    /// [`TICK_WINDOW`] fleet ticks — a mid-run stall shows here long before
    /// it dents the whole-run average.
    recent_rate: Gauge,
    /// `fleet.cluster.<name>.objective`, one per cluster in scenario order:
    /// the objective value (throughput MB/s) of the cluster's latest tick.
    pub(super) objectives: Vec<Gauge>,
    /// Fleet-wide sums of the member daemons' rejection counters, refreshed
    /// every tick (N member daemons cannot alias one registry name, so the
    /// fleet stores the aggregate).
    pub(super) reports_rejected: Counter,
    pub(super) implausible_ticks: Counter,
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
    pub(super) recent_rate_value: f64,
}

impl FleetTelemetry {
    pub(super) fn new(cluster_names: &[&str]) -> Self {
        let registry = capes_telemetry::global();
        FleetTelemetry {
            tick_total: registry.histogram(names::FLEET_TICK_TOTAL),
            tick_gather: registry.histogram(names::FLEET_TICK_GATHER),
            tick_decide: registry.histogram(names::FLEET_TICK_DECIDE),
            tick_scatter: registry.histogram(names::FLEET_TICK_SCATTER),
            tick_train: registry.histogram(names::FLEET_TICK_TRAIN),
            recent_rate: registry.gauge(names::FLEET_TICK_RECENT_RATE),
            objectives: cluster_names
                .iter()
                .map(|name| registry.gauge(&names::fleet_cluster_objective(name)))
                .collect(),
            reports_rejected: registry.counter(names::DAEMON_REPORTS_REJECTED),
            implausible_ticks: registry.counter(names::DAEMON_IMPLAUSIBLE_TICKS),
            checkpoint_encode: registry.histogram(names::PERSIST_CHECKPOINT_ENCODE),
            checkpoint_crc: registry.histogram(names::PERSIST_CHECKPOINT_CRC),
            checkpoint_write: registry.histogram(names::PERSIST_CHECKPOINT_WRITE),
            checkpoint_fsync: registry.histogram(names::PERSIST_CHECKPOINT_FSYNC),
            checkpoint_dirsync: registry.histogram(names::PERSIST_CHECKPOINT_DIRSYNC),
            checkpoint_writeback: registry.histogram(names::PERSIST_CHECKPOINT_WRITEBACK),
            checkpoint_bytes: registry.gauge(names::PERSIST_CHECKPOINT_BYTES),
            window: VecDeque::with_capacity(TICK_WINDOW + 1),
            recent_rate_value: 0.0,
        }
    }

    /// Closes out one fleet tick: advances the throughput window and
    /// refreshes the windowed-rate gauge.
    pub(super) fn finish_tick(&mut self, num_clusters: usize) {
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

    /// Records where one streamed checkpoint's time went, from the stats its
    /// writer returns, and the snapshot's size.
    pub(super) fn record_checkpoint(&self, stats: &SnapshotStats) {
        // `.fsync` counts the data fsyncs issued, so it is never muted; the
        // others are spans in all but name and follow the span switch.
        self.checkpoint_fsync.record_duration(stats.fsync);
        if capes_telemetry::recording() {
            self.checkpoint_encode.record_duration(stats.encode);
            self.checkpoint_crc.record_duration(stats.crc);
            self.checkpoint_write.record_duration(stats.write);
            self.checkpoint_dirsync.record_duration(stats.dirsync);
            self.checkpoint_writeback.record_duration(stats.writeback);
        }
        self.checkpoint_bytes.set(stats.bytes as f64);
    }
}

/// Durability counters as registry-published telemetry: the daemon owns the
/// atomics (exact per-daemon values even with several fleets in one
/// process), the global registry scrapes the same storage under the
/// `persist.*` names, and [`PersistCounters::snapshot`] materialises the
/// [`PersistReport`] the fleet report carries.
pub(super) struct PersistCounters {
    pub(super) checkpoints_written: Counter,
    pub(super) restores: Counter,
    pub(super) auto_checkpoints: Counter,
    pub(super) auto_checkpoint_failures: Counter,
    pub(super) records_appended: Counter,
    pub(super) record_failures: Counter,
}

impl PersistCounters {
    pub(super) fn new() -> Self {
        PersistCounters {
            checkpoints_written: Counter::new(),
            restores: Counter::new(),
            auto_checkpoints: Counter::new(),
            auto_checkpoint_failures: Counter::new(),
            records_appended: Counter::new(),
            record_failures: Counter::new(),
        }
    }

    pub(super) fn publish(&self, registry: &capes_telemetry::Registry) {
        registry.publish_counter(
            names::PERSIST_CHECKPOINTS_WRITTEN,
            &self.checkpoints_written,
        );
        registry.publish_counter(names::PERSIST_RESTORES, &self.restores);
        registry.publish_counter(names::PERSIST_AUTO_CHECKPOINTS, &self.auto_checkpoints);
        registry.publish_counter(
            names::PERSIST_AUTO_CHECKPOINT_FAILURES,
            &self.auto_checkpoint_failures,
        );
        registry.publish_counter(names::PERSIST_RECORDS_APPENDED, &self.records_appended);
        registry.publish_counter(names::PERSIST_RECORD_FAILURES, &self.record_failures);
    }

    pub(super) fn snapshot(&self) -> PersistReport {
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
