//! The three metric primitives: counter, gauge, log-linear histogram.
//!
//! Every handle is a cheap `Arc` clone over shared atomics, so a component
//! can own its metric (the single source of truth) while the global registry
//! holds another handle to the *same* storage for scraping — no
//! double-counting, no copy-back.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Monotonic event counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, detached counter (link it with [`crate::Registry::publish_counter`]).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value — for state restores, not for recording.
    pub fn store(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }
}

/// Last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh, detached gauge.
    pub(crate) fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Sub-buckets per power-of-two octave: 32 → ≤ ~3% relative quantile error.
const SUB_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range: 32 exact low buckets plus
/// 32 sub-buckets for each of the 59 octaves with a most-significant bit
/// in 5..=63.
const N_BUCKETS: usize = SUB_BUCKETS * 60;

struct HistogramInner {
    buckets: Box<[AtomicU64]>,
    /// Sum of recorded values (nanoseconds at the span call sites).
    sum: AtomicU64,
    max: AtomicU64,
}

/// Lock-free log-linear latency histogram.
///
/// Values 0–31 land in exact buckets; larger values keep their top five
/// mantissa bits, so each power-of-two octave is split into 32 linear
/// sub-buckets. Recording is three relaxed atomic RMWs into storage
/// preallocated at registration — no locks, no allocation, no torn state
/// under concurrent writers (the total count is the sum of the buckets, so
/// it is conserved by construction).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("max", &self.max())
            .finish()
    }
}

/// Bucket index of `value`.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros();
        let sub = ((value >> (msb - SUB_BITS)) as usize) & (SUB_BUCKETS - 1);
        (msb as usize + 1 - SUB_BITS as usize) * SUB_BUCKETS + sub
    }
}

/// Midpoint of the value range bucket `index` covers.
fn bucket_midpoint(index: usize) -> f64 {
    if index < SUB_BUCKETS {
        index as f64
    } else {
        let octave = index / SUB_BUCKETS - 1;
        let sub = index % SUB_BUCKETS;
        let lo = ((SUB_BUCKETS + sub) as u64) << octave;
        let width = 1u64 << octave;
        lo as f64 + width as f64 / 2.0
    }
}

impl Histogram {
    /// A fresh, detached histogram (~15 KiB of preallocated buckets).
    pub fn new() -> Self {
        let buckets: Box<[AtomicU64]> = (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            buckets,
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }

    /// Records one value (nanoseconds by convention at span call sites).
    #[inline]
    pub fn record(&self, value: u64) {
        let inner = &*self.0;
        inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds.
    #[inline]
    pub fn record_duration(&self, duration: Duration) {
        self.record(duration.as_nanos() as u64);
    }

    /// Total number of recorded values (sum over the buckets, so concurrent
    /// recorders can never tear it).
    pub fn count(&self) -> u64 {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (exact, via `fetch_max`).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded values, 0 when empty.
    pub(crate) fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the midpoint of the bucket the
    /// rank falls in — within ~3% of the true value. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, bucket) in self.0.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_midpoint(index);
            }
        }
        self.max() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let view = c.clone();
        view.inc();
        assert_eq!(c.get(), 6, "clones share storage");
        c.store(42);
        assert_eq!(view.get(), 42);

        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(-3.25);
        assert_eq!(g.get(), -3.25);
    }

    #[test]
    fn low_values_are_exact() {
        let h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.sum(), (0..32).sum::<u64>());
        assert_eq!(h.max(), 31);
        // Every value below 32 has its own bucket, so quantiles are exact.
        assert_eq!(h.quantile(1.0 / 32.0), 0.0);
        assert_eq!(h.quantile(1.0), 31.0);
    }

    #[test]
    fn bucket_index_is_monotonic_and_in_range() {
        let mut last = 0usize;
        let mut v = 0u64;
        while v < u64::MAX / 3 {
            let idx = bucket_index(v);
            assert!(idx < N_BUCKETS, "index {idx} out of range for {v}");
            assert!(idx >= last, "index not monotonic at {v}");
            last = idx;
            v = v * 2 + 1;
        }
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let h = Histogram::new();
        // Log-spaced values over six orders of magnitude.
        let mut v = 100u64;
        let mut values = Vec::new();
        while v < 100_000_000 {
            h.record(v);
            values.push(v);
            v = v * 21 / 20;
        }
        for &(q, _) in &[(0.5, ()), (0.9, ()), (0.99, ())] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
            let exact = values[rank] as f64;
            let approx = h.quantile(q);
            let rel = (approx - exact).abs() / exact;
            assert!(rel < 0.04, "q={q}: exact {exact}, approx {approx}");
        }
        assert_eq!(h.max(), *values.last().unwrap());
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
    }
}
