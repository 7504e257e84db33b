//! The fleet daemon's worker pool.
//!
//! The fleet daemon shards its member clusters across a fixed set of worker
//! threads: measuring, applying actions and finishing a tick run
//! cluster-parallel, each phase one [`WorkerPool::run_mut`] over the cluster
//! sessions, so every worker holds a disjoint `&mut` chunk of them. Between
//! the phases the daemon thread decides per profile, moves actions through
//! the transport and trains. [`FleetPool`] is
//! `capes-tensor`'s [`WorkerPool`] under the fleet's telemetry names:
//! per-worker busy histograms (`fleet.worker.<i>.busy`), a `fleet.workers`
//! gauge and the `fleet.pool_dispatch` span, so `/metrics` shows parallel
//! efficiency.
//!
//! Determinism does not depend on the pool: work is partitioned into fixed
//! contiguous chunks (never stolen), every chunk writes only its own
//! clusters' state, and the dispatcher blocks until all chunks acknowledge
//! before the tick proceeds. Worker count only changes *where* a cluster is
//! ticked, never *what* it computes or in which tick-relative order results
//! are merged.
//!
//! Worker count defaults to **1** (the sequential path) and is raised via
//! `FleetBuilder::workers`, `FleetDaemon::set_workers` or the
//! `CAPES_FLEET_THREADS` environment variable.

use capes_telemetry::{names, LazySpan};
use capes_tensor::pool::{PoolProfile, WorkerPool};

static DISPATCH: LazySpan = LazySpan::new(names::SPAN_FLEET_POOL_DISPATCH);

/// A fixed set of worker threads executing cluster-range jobs for the fleet
/// daemon.
#[derive(Debug)]
pub struct FleetPool(WorkerPool);

impl FleetPool {
    /// Creates a pool with `threads` total parallelism (the calling thread
    /// participates, so `threads - 1` workers are spawned; `threads <= 1`
    /// spawns none and [`WorkerPool::run`] executes inline).
    ///
    /// Each worker thread owns a `fleet.worker.<i>.busy` histogram recording
    /// the wall time it spends executing chunks, and the pool publishes a
    /// `fleet.workers` gauge with the total parallelism.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let registry = capes_telemetry::global();
        registry.gauge(names::FLEET_WORKERS).set(threads as f64);
        FleetPool(WorkerPool::with_profile(
            threads,
            PoolProfile {
                thread_prefix: "capes-fleet",
                dispatch_span: &DISPATCH,
                worker_busy: (0..threads - 1)
                    .map(|i| registry.histogram(&names::fleet_worker_busy(i)))
                    .collect(),
            },
        ))
    }
}

/// `threads`, `run` and `run_mut` are the shared pool's.
impl std::ops::Deref for FleetPool {
    type Target = WorkerPool;

    fn deref(&self) -> &WorkerPool {
        &self.0
    }
}

/// Fleet parallelism configured for this process: `CAPES_FLEET_THREADS` when
/// set to a positive integer, otherwise **1** — the fleet stays on the
/// sequential path unless parallelism is asked for (by this variable,
/// `FleetBuilder::workers` or `FleetDaemon::set_workers`).
pub(crate) fn configured_fleet_threads() -> usize {
    std::env::var("CAPES_FLEET_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configured_fleet_threads_defaults_to_one() {
        if std::env::var("CAPES_FLEET_THREADS").is_err() {
            assert_eq!(configured_fleet_threads(), 1);
        } else {
            assert!(configured_fleet_threads() >= 1);
        }
    }

    #[test]
    fn workers_gauge_is_published() {
        let _pool = FleetPool::new(5);
        let snapshot = capes_telemetry::global().snapshot();
        let gauge = snapshot
            .gauges
            .iter()
            .find(|g| g.name == "fleet.workers")
            .expect("fleet.workers gauge published");
        // Other tests create pools concurrently and the gauge is
        // last-write-wins, so only assert it holds some pool's size.
        assert!(gauge.value >= 1.0);
    }
}
