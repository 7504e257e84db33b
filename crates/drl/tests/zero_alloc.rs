//! Counting-allocator proof that the training hot path is allocation-free.
//!
//! This binary installs a `#[global_allocator]` that counts every allocation
//! and deallocation, warms up the full per-tick training path
//! (`DqnAgent::train_from_db`: Algorithm-1 sampling → batch encoding →
//! forward/backward → Adam → target soft-update) on the Table 2 shape
//! (600-feature observations, minibatch 32), and then asserts that further
//! steps perform **zero** heap allocations. This is the acceptance gate for
//! the zero-allocation tentpole: any accidental clone, temporary matrix or
//! per-dispatch boxing in the hot path fails this test.
//!
//! The test lives in its own integration-test binary so no concurrently
//! running test can perturb the counters.

#![deny(unsafe_op_in_unsafe_fn)]

use capes_drl::{ActionDecision, DqnAgent, DqnAgentConfig};
use capes_replay::{Observation, ReplayArena, ReplayConfig, SharedReplayDb};
use capes_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus a relaxed counter bump; every
// GlobalAlloc contract obligation is delegated unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same layout contract as the caller's.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's layout to System unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same ptr/layout contract as the caller's.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's ptr/layout to System unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same ptr/layout/new_size contract as the caller's.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's arguments to System unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Table 2 shape: 600-feature observations, one node reporting 600 PIs per
/// tick so each observation is a single snapshot row.
fn table2_db(ticks: u64) -> SharedReplayDb {
    let mut rng = StdRng::seed_from_u64(7);
    let db = SharedReplayDb::new(ReplayConfig {
        num_nodes: 1,
        pis_per_node: 600,
        ticks_per_observation: 1,
        missing_entry_tolerance: 0.2,
        capacity_ticks: ticks as usize + 10,
    });
    for t in 0..ticks {
        let pis: Vec<f64> = (0..600).map(|_| rng.gen_range(-1.0..1.0)).collect();
        db.insert_snapshot(t, 0, pis);
        db.insert_objective(t, rng.gen_range(0.5..1.5));
        db.insert_action(t, rng.gen_range(0..5));
    }
    db
}

#[test]
fn steady_state_train_step_performs_zero_heap_allocations() {
    // Exercise the pooled GEMM dispatch path even on single-core hosts: the
    // pool reads CAPES_THREADS once, on first use, which happens below during
    // warm-up. Channel-based dispatch must also be allocation-free.
    std::env::set_var("CAPES_THREADS", "2");

    let db = table2_db(300);
    let mut agent = DqnAgent::new(DqnAgentConfig::paper_default(600, 2), 1);

    // Warm-up: sizes the agent's ReplayBatch, the trainer's workspaces and
    // the worker pool. Everything after this must reuse those buffers.
    for _ in 0..3 {
        agent
            .train_from_db(&db)
            .expect("sampling must succeed")
            .expect("db has enough data to train");
    }

    // The steady-state window below runs fully instrumented: `span!` sites
    // (drl.train_step, arena.sample, gemm.*) record into interned global
    // histograms on every step, and the assertion on the span count proves
    // the instrumentation was live inside the allocation-free region.
    assert!(capes_telemetry::recording(), "telemetry must be on");
    let train_span = capes_telemetry::global().histogram("drl.train_step");
    let span_count_before = train_span.count();

    let allocs_before = ALLOCATIONS.load(Ordering::SeqCst);
    let deallocs_before = DEALLOCATIONS.load(Ordering::SeqCst);

    const STEPS: u64 = 10;
    let mut last_step = 0;
    for _ in 0..STEPS {
        let report = agent
            .train_from_db(&db)
            .expect("sampling must succeed")
            .expect("db has enough data to train");
        last_step = report.step;
    }

    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - allocs_before;
    let deallocs = DEALLOCATIONS.load(Ordering::SeqCst) - deallocs_before;

    assert_eq!(last_step, 3 + STEPS, "all steps must have trained");
    assert_eq!(
        train_span.count(),
        span_count_before + STEPS,
        "every measured step must have recorded its drl.train_step span"
    );
    assert_eq!(
        allocs, 0,
        "steady-state train_from_db must not allocate ({allocs} allocations over {STEPS} steps)"
    );
    assert_eq!(
        deallocs, 0,
        "steady-state train_from_db must not free ({deallocs} deallocations over {STEPS} steps)"
    );

    // --- Decision paths (same binary so the counters stay unperturbed) ---
    //
    // `decide` routes greedy evaluations through the agent's persistent
    // single-row inference workspace and `decide_batch` through the
    // fleet-sized one; after a warm-up call, both must be allocation-free for
    // every cold-start/greedy/ε-greedy arm.
    let mut rng = StdRng::seed_from_u64(11);
    let observation = Observation {
        tick: 0,
        features: Matrix::from_vec(1, 600, (0..600).map(|_| rng.gen_range(-1.0..1.0)).collect()),
    };
    let fleet_rows = 8usize;
    let mut stacked = Matrix::zeros(fleet_rows, 600);
    for r in 0..fleet_rows {
        stacked
            .row_mut(r)
            .copy_from_slice(observation.features.row(0));
    }
    let has_obs = vec![true, true, false, true, true, false, true, true];
    let mut decisions: Vec<ActionDecision> = Vec::with_capacity(fleet_rows);

    // Warm-up: sizes both inference workspaces and the decision buffer.
    let _ = agent.decide(Some(&observation), 10_000, true);
    let _ = agent.decide(Some(&observation), 10_000, false);
    agent.decide_batch(&stacked, &has_obs, 10_000, false, &mut decisions);

    let allocs_before = ALLOCATIONS.load(Ordering::SeqCst);
    let deallocs_before = DEALLOCATIONS.load(Ordering::SeqCst);

    for tick in 0..50u64 {
        let _ = agent.decide(Some(&observation), 10_000 + tick, tick % 2 == 0);
        let _ = agent.decide(None, tick, tick % 2 == 1);
        agent.decide_batch(
            &stacked,
            &has_obs,
            10_000 + tick,
            tick % 3 == 0,
            &mut decisions,
        );
    }

    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - allocs_before;
    let deallocs = DEALLOCATIONS.load(Ordering::SeqCst) - deallocs_before;
    assert_eq!(
        allocs, 0,
        "steady-state decide/decide_batch must not allocate ({allocs} allocations)"
    );
    assert_eq!(
        deallocs, 0,
        "steady-state decide/decide_batch must not free ({deallocs} deallocations)"
    );

    // --- Arena training paths (same binary, same reason) ---
    //
    // Training on a multi-stripe arena must stay allocation-free at steady
    // state both ways: `train_from_db` on one stripe view (single-stripe
    // sampling) and `train_weighted` over the arena (weighted stripe-set
    // sampling, which read-locks one stripe per candidate draw but
    // allocates nothing).
    let mut rng = StdRng::seed_from_u64(13);
    let arena = ReplayArena::uniform(
        ReplayConfig {
            num_nodes: 1,
            pis_per_node: 600,
            ticks_per_observation: 1,
            missing_entry_tolerance: 0.2,
            capacity_ticks: 400,
        },
        2,
    );
    for stripe in 0..2 {
        let view = arena.stripe(stripe);
        for t in 0..300u64 {
            let pis: Vec<f64> = (0..600).map(|_| rng.gen_range(-1.0..1.0)).collect();
            view.insert_snapshot(t, 0, pis);
            view.insert_objective(t, rng.gen_range(0.5..1.5));
            view.insert_action(t, rng.gen_range(0..5));
        }
    }
    let own_view = arena.stripe(0);
    let weights = [3.0, 1.0];
    let mut arena_agent = DqnAgent::new(DqnAgentConfig::paper_default(600, 2), 2);
    // Warm-up sizes the batch buffers and trainer workspaces for both paths.
    for _ in 0..2 {
        arena_agent
            .train_from_db(&own_view)
            .expect("sampling must succeed")
            .expect("stripe has enough data");
        arena_agent
            .train_weighted(&arena, &weights)
            .expect("sampling must succeed")
            .expect("arena has enough data");
    }

    let allocs_before = ALLOCATIONS.load(Ordering::SeqCst);
    let deallocs_before = DEALLOCATIONS.load(Ordering::SeqCst);
    let mut last_step = 0;
    for _ in 0..5 {
        arena_agent
            .train_from_db(&own_view)
            .expect("sampling must succeed")
            .expect("stripe has enough data");
        last_step = arena_agent
            .train_weighted(&arena, &weights)
            .expect("sampling must succeed")
            .expect("arena has enough data")
            .step;
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - allocs_before;
    let deallocs = DEALLOCATIONS.load(Ordering::SeqCst) - deallocs_before;
    assert_eq!(last_step, 4 + 10, "all arena steps must have trained");
    assert_eq!(
        allocs, 0,
        "steady-state arena training must not allocate ({allocs} allocations)"
    );
    assert_eq!(
        deallocs, 0,
        "steady-state arena training must not free ({deallocs} deallocations)"
    );

    // --- Telemetry record path (same binary, same reason) ---
    //
    // The training spans above prove instrumentation rides along for free;
    // this block holds the raw primitives to the same standard: once a
    // metric is interned, counter/gauge/histogram records and span
    // round-trips allocate nothing.
    const PROBE_SPAN: &str = "zero_alloc.probe.span";
    let registry = capes_telemetry::global();
    let hist = registry.histogram("zero_alloc.probe.hist");
    let counter = registry.counter("zero_alloc.probe.count");
    let gauge = registry.gauge("zero_alloc.probe.gauge");
    {
        // Warm-up: interns the span's histogram.
        let _span = capes_telemetry::span!(PROBE_SPAN);
    }

    let allocs_before = ALLOCATIONS.load(Ordering::SeqCst);
    let deallocs_before = DEALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..10_000u64 {
        hist.record(i * 1_000);
        counter.inc();
        gauge.set(i as f64);
        let _span = capes_telemetry::span!(PROBE_SPAN);
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - allocs_before;
    let deallocs = DEALLOCATIONS.load(Ordering::SeqCst) - deallocs_before;
    assert_eq!(
        allocs, 0,
        "telemetry record path must not allocate ({allocs} allocations)"
    );
    assert_eq!(
        deallocs, 0,
        "telemetry record path must not free ({deallocs} deallocations)"
    );
    assert_eq!(counter.get(), 10_000);
    assert_eq!(hist.count(), 10_000);
}
