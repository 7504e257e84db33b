//! Dynamic workloads and the exploration bump.
//!
//! One of CAPES's selling points over one-time search methods is that it "can
//! run continuously to adapt to dynamically changing workloads" (§1), and §3.6
//! describes how the Interface Daemon bumps ε back up to 0.2 whenever the job
//! scheduler starts a new workload. This example alternates between a
//! write-heavy random workload and the sequential-write workload, notifying
//! CAPES at each switch, and reports per-phase throughput. A per-tick
//! observer closure registered on the builder streams exploration telemetry
//! as the run progresses.
//!
//! Run with `cargo run --release --example dynamic_workload`.

use capes::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Simulated seconds each workload runs before the next switch.
const PHASE_TICKS: u64 = 3_000;

fn main() {
    let target = SimulatedLustre::builder()
        .workload(Workload::random_rw(0.1))
        .seed(5)
        .build();

    // A per-tick observer counting exploratory actions: monitoring consumers
    // see the stream live instead of polling the system. Observers must be
    // `Send` (the fleet daemon shards member systems across worker threads),
    // so the counter is an atomic.
    let explored: Arc<AtomicU64> = Arc::new(AtomicU64::new(0));
    let sink = explored.clone();
    let mut system = Capes::builder(target)
        .hyperparams(Hyperparameters::quick_test())
        .seed(5)
        .observer(move |_kind: PhaseKind, tick: &SystemTick| {
            if tick.explored {
                sink.fetch_add(1, Ordering::Relaxed);
            }
        })
        .build()
        .expect("valid configuration");

    let phases = [
        ("random 1:9", Workload::random_rw(0.1)),
        ("sequential write", Workload::sequential_write()),
        ("random 1:9 (again)", Workload::random_rw(0.1)),
        ("fileserver", Workload::fileserver()),
    ];

    println!("alternating workloads, {PHASE_TICKS} ticks per phase\n");
    for (i, (label, workload)) in phases.into_iter().enumerate() {
        if i > 0 {
            // The job scheduler tells CAPES that a new workload is starting;
            // exploration is bumped so the policy adapts instead of being
            // stuck in the previous workload's local maximum.
            system.target_mut().cluster_mut().set_workload(workload);
            system.notify_workload_change();
        }
        let explored_before = explored.load(Ordering::Relaxed);
        let report = system.run(&[Phase::Train { ticks: PHASE_TICKS }]);
        let result = &report.sessions[0];
        let explored_in_phase = explored.load(Ordering::Relaxed) - explored_before;
        println!(
            "phase {:>20}: {:>7.1} ± {:.1} MB/s   (window = {:.0}, rate limit = {:.0}, {} exploratory ticks)",
            label,
            result.mean_throughput(),
            result.ci_half_width(),
            result.final_params[0],
            result.final_params[1],
            explored_in_phase,
        );
    }

    println!("\ntraining never stops: CAPES keeps adapting as the workload mix changes.");
}
