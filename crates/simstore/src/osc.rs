//! Object Storage Client (OSC) state.
//!
//! Each Lustre client maintains one OSC per server it talks to; with the
//! paper's stripe count of four and four servers, every client has four OSCs
//! and the nine performance indicators of §4.1 are collected per OSC.

use crate::config::WRITE_CACHE_MB;
use capes_stats::Ewma;

/// Per-OSC dynamic state and the indicators derived from it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OscState {
    /// Congestion window currently configured (`max_rpcs_in_flight`).
    pub congestion_window: f64,
    /// Read throughput achieved during the last tick, MB/s.
    pub read_throughput: f64,
    /// Write throughput achieved during the last tick, MB/s.
    pub write_throughput: f64,
    /// Dirty bytes currently held in the client-side write cache, MB (at
    /// most the testbed's fixed write-cache size).
    pub dirty_bytes_mb: f64,
    /// Ping latency from this client to the OSC's server, ms.
    pub ping_latency_ms: f64,
    /// EWMA of gaps between server replies (ms).
    ack_ewma: Ewma,
    /// EWMA of gaps between the original send times of the requests whose
    /// replies were just received (ms).
    send_ewma: Ewma,
    /// Current process-time ratio reported by the server this OSC talks to.
    pub process_time_ratio: f64,
}

impl OscState {
    /// Creates an OSC with the given window and no traffic history.
    pub(crate) fn new(congestion_window: f64) -> Self {
        OscState {
            congestion_window,
            read_throughput: 0.0,
            write_throughput: 0.0,
            dirty_bytes_mb: 0.0,
            ping_latency_ms: 0.0,
            ack_ewma: Ewma::new(0.125),
            send_ewma: Ewma::new(0.125),
            process_time_ratio: 1.0,
        }
    }

    /// Updates the OSC after one tick of simulated traffic.
    ///
    /// `reply_gap_ms` and `send_gap_ms` are the average inter-reply and
    /// inter-send gaps observed during the tick; they feed the two EWMA
    /// indicators.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_tick(
        &mut self,
        congestion_window: f64,
        read_mb: f64,
        write_mb: f64,
        dirty_mb: f64,
        ping_latency_ms: f64,
        reply_gap_ms: f64,
        send_gap_ms: f64,
        process_time_ratio: f64,
    ) {
        self.congestion_window = congestion_window;
        self.read_throughput = read_mb;
        self.write_throughput = write_mb;
        self.dirty_bytes_mb = dirty_mb.clamp(0.0, WRITE_CACHE_MB);
        self.ping_latency_ms = ping_latency_ms;
        self.ack_ewma.update(reply_gap_ms);
        self.send_ewma.update(send_gap_ms);
        self.process_time_ratio = process_time_ratio;
    }

    /// Current Ack-EWMA value (0 before any traffic).
    pub(crate) fn ack_ewma_ms(&self) -> f64 {
        self.ack_ewma.value_or(0.0)
    }

    /// Current Send-EWMA value (0 before any traffic).
    pub(crate) fn send_ewma_ms(&self) -> f64 {
        self.send_ewma.value_or(0.0)
    }

    /// The nine per-OSC performance indicators of paper §4.1, in order:
    /// congestion window, read throughput, write throughput, dirty bytes,
    /// max write cache, ping latency, Ack EWMA, Send EWMA, PT ratio.
    pub(crate) fn performance_indicators(&self) -> [f64; 9] {
        [
            self.congestion_window,
            self.read_throughput,
            self.write_throughput,
            self.dirty_bytes_mb,
            WRITE_CACHE_MB,
            self.ping_latency_ms,
            self.ack_ewma_ms(),
            self.send_ewma_ms(),
            self.process_time_ratio,
        ]
    }
}

impl capes_persist::Persist for OscState {
    const MIN_SIZE: usize = 7 * 8 + 2 * 9; // seven f64s + two EWMAs

    fn encode(&self, w: &mut capes_persist::Writer) {
        w.put_f64(self.congestion_window);
        w.put_f64(self.read_throughput);
        w.put_f64(self.write_throughput);
        w.put_f64(self.dirty_bytes_mb);
        // v1 slot of the former per-OSC write-cache size.
        w.put_f64(WRITE_CACHE_MB);
        w.put_f64(self.ping_latency_ms);
        self.ack_ewma.encode(w);
        self.send_ewma.encode(w);
        w.put_f64(self.process_time_ratio);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        let congestion_window = r.get_f64()?;
        let read_throughput = r.get_f64()?;
        let write_throughput = r.get_f64()?;
        let dirty_bytes_mb = r.get_f64()?;
        // Any other cache size would be the bound `record_tick` clamps to:
        // a negative or NaN one panics the next tick.
        r.expect_f64(
            WRITE_CACHE_MB,
            "OSC write-cache slot is not the testbed constant",
        )?;
        Ok(OscState {
            congestion_window,
            read_throughput,
            write_throughput,
            dirty_bytes_mb,
            ping_latency_ms: r.get_f64()?,
            ack_ewma: Ewma::decode(r)?,
            send_ewma: Ewma::decode(r)?,
            process_time_ratio: r.get_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_osc_reports_defaults() {
        let o = OscState::new(8.0);
        let pis = o.performance_indicators();
        assert_eq!(pis[0], 8.0);
        assert_eq!(pis[4], 32.0);
        assert_eq!(pis[8], 1.0);
        assert_eq!(o.ack_ewma_ms(), 0.0);
    }

    #[test]
    fn record_tick_updates_indicators() {
        let mut o = OscState::new(8.0);
        o.record_tick(16.0, 12.5, 30.0, 10.0, 1.2, 0.8, 0.9, 1.5);
        let pis = o.performance_indicators();
        assert_eq!(pis[0], 16.0);
        assert_eq!(pis[1], 12.5);
        assert_eq!(pis[2], 30.0);
        assert_eq!(pis[3], 10.0);
        assert_eq!(pis[5], 1.2);
        assert_eq!(pis[6], 0.8, "first EWMA sample seeds the filter");
        assert_eq!(pis[8], 1.5);
    }

    #[test]
    fn dirty_bytes_clamped_to_cache_size() {
        let mut o = OscState::new(8.0);
        o.record_tick(8.0, 0.0, 0.0, 500.0, 1.0, 1.0, 1.0, 1.0);
        assert_eq!(o.dirty_bytes_mb, 32.0);
        o.record_tick(8.0, 0.0, 0.0, -3.0, 1.0, 1.0, 1.0, 1.0);
        assert_eq!(o.dirty_bytes_mb, 0.0);
    }

    #[test]
    fn ewmas_smooth_their_inputs() {
        let mut o = OscState::new(8.0);
        o.record_tick(8.0, 0.0, 0.0, 0.0, 1.0, 10.0, 10.0, 1.0);
        for _ in 0..100 {
            o.record_tick(8.0, 0.0, 0.0, 0.0, 1.0, 2.0, 4.0, 1.0);
        }
        assert!((o.ack_ewma_ms() - 2.0).abs() < 0.1);
        assert!((o.send_ewma_ms() - 4.0).abs() < 0.1);
    }

    #[test]
    fn indicator_array_has_paper_layout() {
        let o = OscState::new(10.0);
        assert_eq!(o.performance_indicators().len(), 9);
    }
}
