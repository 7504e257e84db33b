//! Counting-allocator proofs that steady-state fleet-pool dispatch is
//! allocation-free, and that an armed auto-checkpoint costs a tick that is
//! not due no allocation.
//!
//! The fleet pool ([`capes_fleet::sched::FleetPool`]) carries the same
//! guarantee as the GEMM pool it is modelled on: after construction, a
//! dispatch is a `Copy` task pushed into pre-allocated bounded channels — no
//! boxing, no `Arc`, no per-call `Vec`. This binary installs a counting
//! `#[global_allocator]`, warms the pool (first dispatches may fault in
//! thread-local state), then asserts that further `run` and `run_mut`
//! dispatches perform **zero** heap allocations. This is the acceptance gate
//! for ISSUE 9's allocation-free parallel tick dispatch.
//!
//! Both checks run in sequence from the binary's one test, so neither
//! counts the other's allocations. Only the test's own thread and the
//! pool's workers are counted: the harness's main thread still allocates
//! for its own bookkeeping while the test starts, and the pool check's
//! window opens well within that.

#![deny(unsafe_op_in_unsafe_fn)]

use capes::{Hyperparameters, PhaseKind, Transport};
use capes_fleet::sched::FleetPool;
use capes_fleet::{Fleet, FleetDaemon, ScenarioSpec};
use capes_simstore::Workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether the current thread's allocations are counted. `const` and
    /// without a destructor, so the allocator may read it at any time.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Bumps `counter` if the current thread is counted.
fn bump(counter: &AtomicU64) {
    if COUNTED.get() {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: pure pass-through to `System` plus a relaxed counter bump; every
// GlobalAlloc contract obligation is delegated unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same layout contract as the caller's.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        // SAFETY: forwards the caller's layout to System unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same ptr/layout contract as the caller's.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&DEALLOCATIONS);
        // SAFETY: forwards the caller's ptr/layout to System unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same ptr/layout/new_size contract as the caller's.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCATIONS);
        // SAFETY: forwards the caller's arguments to System unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Allocations and deallocations made by counted threads while `f` runs.
fn count(f: impl FnOnce()) -> (u64, u64) {
    let allocs_before = ALLOCATIONS.load(Ordering::SeqCst);
    let deallocs_before = DEALLOCATIONS.load(Ordering::SeqCst);
    f();
    (
        ALLOCATIONS.load(Ordering::SeqCst) - allocs_before,
        DEALLOCATIONS.load(Ordering::SeqCst) - deallocs_before,
    )
}

#[test]
fn steady_state_dispatch_and_idle_auto_checkpoint_are_allocation_free() {
    COUNTED.set(true);
    steady_state_pool_dispatch_is_allocation_free();
    armed_auto_checkpoint_allocates_nothing_on_a_tick_that_is_not_due();
}

fn steady_state_pool_dispatch_is_allocation_free() {
    // 16 simulated clusters sharded over 4 threads, the bench fleet's shape.
    let pool = FleetPool::new(4);
    // Four chunks, one per thread: every worker is counted from here on.
    pool.run(16, 4, |_, _| COUNTED.set(true));
    let work: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
    let touch = |start: usize, end: usize| {
        for slot in &work[start..end] {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    };
    let mut rows = vec![0usize; 16];
    let bump = |_: usize, chunk: &mut [usize]| chunk.iter_mut().for_each(|row| *row += 1);

    // Warm-up: the first dispatches may fault in lazily-initialised state
    // (thread locals, panic machinery, telemetry interning).
    for _ in 0..32 {
        pool.run(16, 1, touch);
        pool.run_mut(&mut rows, 1, 1, bump);
    }

    let (allocs, deallocs) = count(|| {
        for _ in 0..100 {
            pool.run(16, 1, touch);
            pool.run_mut(&mut rows, 1, 1, bump);
        }
    });

    // Sanity: every row of both dispatch kinds ran once per round.
    assert!(
        work.iter().all(|s| s.load(Ordering::Relaxed) == 132) && rows.iter().all(|&r| r == 132),
        "chunks must have executed"
    );

    assert_eq!(
        (allocs, deallocs),
        (0, 0),
        "steady-state fleet dispatch must not touch the heap"
    );
}

fn wire_fleet() -> FleetDaemon {
    Fleet::builder()
        .hyperparams(Hyperparameters::quick_test())
        .seed(17)
        .transport(Transport::Wire)
        .scenarios([
            ScenarioSpec::new("write-heavy", Workload::random_rw(0.1)).clients(2),
            ScenarioSpec::new("read-heavy", Workload::random_rw(0.9)).clients(2),
        ])
        .build()
        .expect("valid fleet")
}

/// Two identical fleets tick in lockstep; one has auto-checkpointing armed
/// for a tick it never reaches. Each tick must allocate exactly as often on
/// both: testing the interval may not touch the snapshot path.
fn armed_auto_checkpoint_allocates_nothing_on_a_tick_that_is_not_due() {
    let mut plain = wire_fleet();
    let mut armed = wire_fleet();
    for _ in 0..16 {
        plain.tick_all(PhaseKind::Train);
        armed.tick_all(PhaseKind::Train);
    }
    armed.auto_checkpoint_every(
        u64::MAX,
        std::env::temp_dir().join("capes-fleet-zero-alloc-never-due.capes"),
    );
    for _ in 0..8 {
        let unarmed = count(|| plain.tick_all(PhaseKind::Train));
        let with_auto_checkpoint = count(|| armed.tick_all(PhaseKind::Train));
        assert_eq!(
            with_auto_checkpoint, unarmed,
            "(allocations, deallocations) of one tick, armed vs unarmed"
        );
    }
    assert_eq!(armed.persist_report().auto_checkpoints, 0);
}
