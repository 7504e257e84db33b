//! The metrics registry: name → handle interning, plus the global instance
//! every `span!` call site and scrape endpoint reads.

use crate::metric::{Counter, Gauge, Histogram};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

#[derive(Default)]
struct Inner {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, Histogram)>,
}

impl Inner {
    fn find<T: Clone>(list: &[(String, T)], name: &str) -> Option<T> {
        list.iter().find(|(n, _)| n == name).map(|(_, m)| m.clone())
    }

    fn upsert<T: Clone>(list: &mut Vec<(String, T)>, name: &str, metric: T) {
        match list.iter_mut().find(|(n, _)| n == name) {
            Some((_, slot)) => *slot = metric,
            None => list.push((name.to_string(), metric)),
        }
    }
}

/// A set of named metrics. Registration (the only mutex) happens once per
/// name; the handles it returns record through relaxed atomics only.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry (tests; production code uses [`global`]).
    pub fn new() -> Self {
        Registry::default()
    }

    /// Interns (or retrieves) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        if let Some(c) = Inner::find(&inner.counters, name) {
            return c;
        }
        let c = Counter::new();
        inner.counters.push((name.to_string(), c.clone()));
        c
    }

    /// Interns (or retrieves) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().unwrap();
        if let Some(g) = Inner::find(&inner.gauges, name) {
            return g;
        }
        let g = Gauge::new();
        inner.gauges.push((name.to_string(), g.clone()));
        g
    }

    /// Interns (or retrieves) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().unwrap();
        if let Some(h) = Inner::find(&inner.histograms, name) {
            return h;
        }
        let h = Histogram::new();
        inner.histograms.push((name.to_string(), h.clone()));
        h
    }

    /// Links a component-owned counter under `name` (latest publisher wins,
    /// so a fresh fleet replaces a finished one's handles). The component's
    /// atomic stays the single source of truth; the registry just scrapes
    /// through another handle to it.
    pub fn publish_counter(&self, name: &str, counter: &Counter) {
        let mut inner = self.inner.lock().unwrap();
        Inner::upsert(&mut inner.counters, name, counter.clone());
    }

    /// Links a component-owned gauge under `name` (latest wins).
    pub fn publish_gauge(&self, name: &str, gauge: &Gauge) {
        let mut inner = self.inner.lock().unwrap();
        Inner::upsert(&mut inner.gauges, name, gauge.clone());
    }

    /// Links a component-owned histogram under `name` (latest wins).
    pub fn publish_histogram(&self, name: &str, histogram: &Histogram) {
        let mut inner = self.inner.lock().unwrap();
        Inner::upsert(&mut inner.histograms, name, histogram.clone());
    }

    /// Snapshot of every metric, sorted by name (deterministic JSON).
    pub fn snapshot(&self) -> crate::TelemetrySnapshot {
        let inner = self.inner.lock().unwrap();
        let mut counters: Vec<crate::CounterSnapshot> = inner
            .counters
            .iter()
            .map(|(name, c)| crate::CounterSnapshot {
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<crate::GaugeSnapshot> = inner
            .gauges
            .iter()
            .map(|(name, g)| crate::GaugeSnapshot {
                name: name.clone(),
                value: g.get(),
            })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<crate::HistogramSnapshot> = inner
            .histograms
            .iter()
            .map(|(name, h)| crate::HistogramSnapshot {
                name: name.clone(),
                count: h.count(),
                mean_ns: h.mean(),
                p50_ns: h.quantile(0.5),
                p90_ns: h.quantile(0.9),
                p99_ns: h.quantile(0.99),
                max_ns: h.max(),
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        crate::TelemetrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The process-wide registry (what [`crate::span!`] and the `/metrics`
/// endpoint use).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Master recording switch. On by default; the overhead test
/// (`crates/drl/tests/telemetry_overhead.rs`) flips it off to measure the
/// uninstrumented baseline in-process.
static RECORDING: AtomicBool = AtomicBool::new(true);

/// Whether spans record (one relaxed load on every span entry).
#[inline]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Enables or disables span recording process-wide.
pub fn set_recording(enabled: bool) {
    RECORDING.store(enabled, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_returns_the_same_storage() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.inc();
        assert_eq!(reg.counter("x").get(), 2);
        assert_eq!(reg.snapshot().counters.len(), 1);
    }

    #[test]
    fn publish_links_external_storage_latest_wins() {
        let reg = Registry::new();
        let first = Counter::new();
        first.add(7);
        reg.publish_counter("daemon.reports_rejected", &first);
        assert_eq!(reg.counter("daemon.reports_rejected").get(), 7);
        let second = Counter::new();
        second.add(1);
        reg.publish_counter("daemon.reports_rejected", &second);
        assert_eq!(reg.counter("daemon.reports_rejected").get(), 1);
        // Writes through the interned handle hit the publisher's atomic.
        reg.counter("daemon.reports_rejected").inc();
        assert_eq!(second.get(), 2);
        assert_eq!(first.get(), 7, "replaced handle untouched");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.counter("b.count").inc();
        reg.counter("a.count").add(3);
        reg.gauge("z.depth").set(4.5);
        let h = reg.histogram("m.latency");
        h.record(100);
        h.record(200);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            ["a.count", "b.count"]
        );
        assert_eq!(snap.counters[0].value, 3);
        assert_eq!(snap.gauges[0].value, 4.5);
        assert_eq!(snap.histograms[0].count, 2);
        assert_eq!(snap.histograms[0].max_ns, 200);
        assert!(snap.histograms[0].p50_ns > 0.0);
    }
}
