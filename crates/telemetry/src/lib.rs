//! # capes-telemetry
//!
//! The observability substrate for the CAPES reproduction (ISSUE 8): a
//! global metrics registry of atomic counters, gauges and log-linear latency
//! histograms, plus a lightweight span/tracing layer feeding them.
//!
//! CAPES is itself a monitoring-driven control loop, so its reproduction
//! gets the same treatment: every hot stage of the stack — fleet tick
//! phases, GEMM kernels, replay-arena sampling, daemon ingest, socket I/O,
//! checkpointing — records into this registry, and a running fleet can be
//! scraped Prometheus-style through the `capes-net` reactor's `/metrics`
//! endpoint or snapshotted into `FleetReport.telemetry` at the end of a run.
//!
//! Design rules, in order:
//!
//! 1. **Allocation-free on the record path.** Metric handles are interned
//!    once at registration (the only place the registry mutex is taken);
//!    recording a value is a handful of relaxed atomic adds into
//!    preallocated buckets. The PR 2 counting-allocator guarantee
//!    (`crates/drl/tests/zero_alloc.rs`) holds with instrumentation on.
//! 2. **Lock-free recording.** Counters and gauges are single `AtomicU64`s;
//!    histograms are arrays of them. Eight threads hammering one histogram
//!    lose no counts (`tests/concurrency.rs`).
//! 3. **Cheap when idle.** [`span!`] call sites cache their histogram in a
//!    function-local `OnceLock`; with recording disabled
//!    ([`set_recording`]) a span is one relaxed load, and the per-thread
//!    event journal only engages under `CAPES_TRACE=on`.
//!
//! ## Metric naming
//!
//! Dotted lowercase paths, component first:
//!
//! | family | metrics |
//! |---|---|
//! | fleet | `fleet.tick.{gather,decide,scatter,train,total}` (histograms), `fleet.tick.recent_rate` (gauge), `fleet.cluster.<name>.objective` (gauge) |
//! | drl, nn | `drl.train_step`, and inside it `nn.adam_step` (histograms) |
//! | gemm | `gemm.pool_dispatch`, `gemm.kernel.{avx512,avx2,scalar}` (histograms) |
//! | arena | `arena.lock_wait`, `arena.sample` (histograms) |
//! | daemon | `daemon.ingest` (histogram), `daemon.reports_rejected`, `daemon.implausible_ticks` (counters) |
//! | net | `net.read`, `net.decode`, `net.egress` (histograms), `net.ingress.depth` (gauge), plus the `net.*` counters mirroring `NetStats` |
//! | persist | `persist.checkpoint.{total,encode,crc,write,fsync,dirsync,writeback}`, `persist.restore`, `persist.restore.verify` (histograms), `persist.checkpoint.bytes` (gauge) plus `persist.*` counters |
//!
//! Exposition mangles dots to underscores (`fleet_tick_total`).
//!
//! ## Histogram layout
//!
//! Log-linear (HdrHistogram-style): values 0–31 are exact; above that each
//! power-of-two octave is split into 32 linear sub-buckets, so relative
//! quantile error is bounded at ~3% across the full `u64` range. Values are
//! nanoseconds everywhere a span records them.

#![forbid(unsafe_code)]

mod journal;
mod metric;
pub mod names;
mod registry;
mod snapshot;

pub use journal::{dump_journal, trace_enabled, Event};
pub use metric::{Counter, Gauge, Histogram};
pub use registry::{global, recording, set_recording, Registry};
pub use snapshot::{
    dump_metrics, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, TelemetrySnapshot,
};

use std::sync::OnceLock;
use std::time::Instant;

/// A `span!` call site: the metric name plus a lazily-interned handle to its
/// histogram in the global registry. Created by the [`span!`] macro; the
/// `OnceLock` makes every use after the first a single pointer load.
pub struct LazySpan {
    name: &'static str,
    slot: OnceLock<Histogram>,
}

impl LazySpan {
    /// A call site recording into the global histogram `name`.
    pub const fn new(name: &'static str) -> Self {
        LazySpan {
            name,
            slot: OnceLock::new(),
        }
    }

    /// The interned histogram handle (registered on first use).
    pub fn histogram(&self) -> &Histogram {
        self.slot.get_or_init(|| global().histogram(self.name))
    }

    /// Starts timing. The returned guard records the elapsed nanoseconds
    /// into the histogram when dropped (and into the trace journal under
    /// `CAPES_TRACE=on`). When recording is disabled this is one relaxed
    /// load and no clock read.
    #[inline]
    pub fn enter(&'static self) -> SpanGuard {
        if recording() {
            SpanGuard {
                live: Some((self.name, self.histogram(), Instant::now())),
            }
        } else {
            SpanGuard { live: None }
        }
    }
}

/// RAII timer produced by [`span!`]; records on drop.
pub struct SpanGuard {
    live: Option<(&'static str, &'static Histogram, Instant)>,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some((name, hist, start)) = self.live.take() {
            let nanos = start.elapsed().as_nanos() as u64;
            hist.record(nanos);
            if trace_enabled() {
                journal::push(name, start, nanos);
            }
        }
    }
}

/// Times the enclosing scope into a global histogram:
///
/// ```
/// fn train_step() {
///     let _span = capes_telemetry::span!("drl.train_step");
///     // ... work ...
/// } // recorded here
/// ```
///
/// The histogram handle is interned once per call site; steady-state cost is
/// two clock reads and three relaxed atomic RMWs.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static __CAPES_SPAN: $crate::LazySpan = $crate::LazySpan::new($name);
        __CAPES_SPAN.enter()
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_macro_records_into_the_named_histogram() {
        for _ in 0..10 {
            let _span = span!("test.span_macro");
            std::hint::black_box(0u64);
        }
        let hist = global().histogram("test.span_macro");
        assert_eq!(hist.count(), 10);
        assert!(hist.quantile(0.5) >= 0.0);
    }

    #[test]
    fn disabled_recording_skips_the_histogram() {
        {
            let _span = span!("test.span_disabled_probe");
        }
        let before = global().histogram("test.span_disabled_probe").count();
        set_recording(false);
        {
            let _span = span!("test.span_disabled_probe");
        }
        set_recording(true);
        {
            let _span = span!("test.span_disabled_probe");
        }
        let after = global().histogram("test.span_disabled_probe").count();
        assert_eq!(after, before + 1, "only the enabled span records");
    }
}
