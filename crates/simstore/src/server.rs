//! Object storage server state and congestion behaviour.
//!
//! Each server owns one disk and a bounded pool of service threads. When the
//! number of outstanding RPCs at a server exceeds what its thread pool and
//! journal can absorb, per-request processing time rises sharply and effective
//! throughput drops — the server half of "congestion collapse" (paper §2).
//! Writes are hit harder than reads because every write holds journal and
//! allocation locks until it reaches the platter (the testbed uses
//! write-through caching).

use crate::config::SERVER_CONGESTION_KNEE;

/// Dynamic state of one object storage server.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ServerState {
    /// Queue depth (outstanding RPCs) observed during the last tick.
    pub queue_depth: f64,
    /// Per-request process time during the last tick, in milliseconds.
    pub process_time_ms: f64,
    /// Shortest process time observed so far (the denominator of the
    /// PT-ratio performance indicator).
    pub min_process_time_ms: f64,
    /// Read bytes served during the last tick (MB).
    pub read_served_mb: f64,
    /// Write bytes served during the last tick (MB).
    pub write_served_mb: f64,
}

impl ServerState {
    /// A freshly-booted server with no history.
    pub(crate) fn new() -> Self {
        ServerState {
            queue_depth: 0.0,
            process_time_ms: 0.0,
            min_process_time_ms: f64::INFINITY,
            read_served_mb: 0.0,
            write_served_mb: 0.0,
        }
    }

    /// Records the outcome of one tick.
    pub(crate) fn record_tick(
        &mut self,
        queue_depth: f64,
        process_time_ms: f64,
        read_served_mb: f64,
        write_served_mb: f64,
    ) {
        self.queue_depth = queue_depth;
        self.process_time_ms = process_time_ms;
        if process_time_ms > 0.0 {
            self.min_process_time_ms = self.min_process_time_ms.min(process_time_ms);
        }
        self.read_served_mb = read_served_mb;
        self.write_served_mb = write_served_mb;
    }

    /// The PT-ratio indicator: current process time divided by the shortest
    /// process time seen so far (≥ 1 whenever data exists).
    pub(crate) fn process_time_ratio(&self) -> f64 {
        if !self.min_process_time_ms.is_finite() || self.min_process_time_ms <= 0.0 {
            return 1.0;
        }
        (self.process_time_ms / self.min_process_time_ms).max(1.0)
    }
}

impl Default for ServerState {
    fn default() -> Self {
        Self::new()
    }
}

impl capes_persist::Persist for ServerState {
    const MIN_SIZE: usize = 40;

    fn encode(&self, w: &mut capes_persist::Writer) {
        w.put_f64(self.queue_depth);
        w.put_f64(self.process_time_ms);
        // `min_process_time_ms` is +∞ on a freshly-booted server — the binary
        // f64 encoding carries it exactly (JSON could not).
        w.put_f64(self.min_process_time_ms);
        w.put_f64(self.read_served_mb);
        w.put_f64(self.write_served_mb);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        Ok(ServerState {
            queue_depth: r.get_f64()?,
            process_time_ms: r.get_f64()?,
            min_process_time_ms: r.get_f64()?,
            read_served_mb: r.get_f64()?,
            write_served_mb: r.get_f64()?,
        })
    }
}

/// Efficiency multiplier for **writes** when `queue_depth` exceeds the
/// congestion knee (`SERVER_CONGESTION_KNEE`). At or below the knee the
/// server is fully efficient.
pub(crate) fn write_congestion_efficiency(queue_depth: f64) -> f64 {
    congestion_efficiency(queue_depth, 1.0)
}

/// Efficiency multiplier for **reads**: reads do not hold journal locks, so
/// the degradation is considerably milder.
pub(crate) fn read_congestion_efficiency(queue_depth: f64) -> f64 {
    congestion_efficiency(queue_depth, 0.15)
}

/// Extra service overhead caused by metadata operations (creates, deletes,
/// stats) sharing the server's threads: a fraction of capacity proportional to
/// the metadata rate, capped so data traffic is never starved completely.
pub(crate) fn metadata_overhead_factor(metadata_ops_per_sec: f64) -> f64 {
    let ops = metadata_ops_per_sec.max(0.0);
    // ~1000 metadata ops/s costs about 18 % of a server's capacity.
    (1.0 - 0.18 * (ops / 1000.0)).max(0.70)
}

fn congestion_efficiency(queue_depth: f64, severity: f64) -> f64 {
    let qd = queue_depth.max(0.0);
    if qd <= SERVER_CONGESTION_KNEE {
        return 1.0;
    }
    let overload = (qd - SERVER_CONGESTION_KNEE) / SERVER_CONGESTION_KNEE;
    1.0 / (1.0 + severity * overload.powf(1.3))
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNEE: f64 = SERVER_CONGESTION_KNEE;

    #[test]
    fn no_penalty_below_the_knee() {
        assert_eq!(write_congestion_efficiency(0.4 * KNEE), 1.0);
        assert_eq!(write_congestion_efficiency(KNEE), 1.0);
        assert_eq!(read_congestion_efficiency(0.7 * KNEE), 1.0);
    }

    #[test]
    fn writes_degrade_faster_than_reads() {
        for qd in [1.4, 2.2, 4.4, 17.8].map(|m| m * KNEE) {
            let w = write_congestion_efficiency(qd);
            let r = read_congestion_efficiency(qd);
            assert!(w < 1.0 && r < 1.0);
            assert!(w < r, "at qd {qd}: write {w} must be below read {r}");
        }
    }

    #[test]
    fn efficiency_is_monotonically_decreasing() {
        let mut prev = 1.0;
        for step in 0..120 {
            let e = write_congestion_efficiency(KNEE * (1.0 + 0.25 * step as f64));
            assert!(e <= prev + 1e-12);
            assert!(e > 0.0);
            prev = e;
        }
        // Extreme overload collapses to a small fraction of capacity.
        assert!(write_congestion_efficiency(17.8 * KNEE) < 0.1);
    }

    #[test]
    fn metadata_overhead_is_bounded() {
        assert_eq!(metadata_overhead_factor(0.0), 1.0);
        assert!(metadata_overhead_factor(500.0) < 1.0);
        assert!(metadata_overhead_factor(1e9) >= 0.70);
    }

    #[test]
    fn process_time_ratio_tracks_minimum() {
        let mut s = ServerState::new();
        assert_eq!(s.process_time_ratio(), 1.0, "no data yet");
        s.record_tick(10.0, 20.0, 50.0, 50.0);
        assert_eq!(
            s.process_time_ratio(),
            1.0,
            "first tick defines the minimum"
        );
        s.record_tick(40.0, 60.0, 30.0, 30.0);
        assert!((s.process_time_ratio() - 3.0).abs() < 1e-12);
        s.record_tick(10.0, 10.0, 60.0, 60.0);
        assert_eq!(s.process_time_ratio(), 1.0);
        assert_eq!(s.min_process_time_ms, 10.0);
    }
}
