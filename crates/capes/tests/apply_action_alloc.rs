//! Counting-allocator proof that the action stage is allocation-free.
//!
//! `CapesSystem::apply_action` is the decision-to-knob path of every cluster
//! tick: Action Checker + Replay DB record, Control Agent staleness and
//! deduplication, `TargetSystem::apply_params`. The proposal's parameter
//! vector moves through by value, so after warm-up the stage must make
//! **zero** heap allocations — both when the values change and when the
//! Control Agent deduplicates them.
//!
//! The test lives in its own integration-test binary so no concurrently
//! running test can perturb the counter.

#![deny(unsafe_op_in_unsafe_fn)]

use capes::{Capes, Hyperparameters, NullEngine, PhaseKind, ProposedAction, SimulatedLustre};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

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

#[test]
fn steady_state_apply_action_performs_zero_heap_allocations() {
    let mut system = Capes::builder(SimulatedLustre::builder().seed(3).build())
        .hyperparams(Hyperparameters::quick_test())
        .engine(Box::new(NullEngine))
        .seed(3)
        .build()
        .expect("valid configuration");
    // Two knob settings, each proposed twice in a row: the first proposal
    // changes the values, the second is deduplicated.
    let settings = [[64.0, 100.0], [32.0, 400.0]];
    let (mut changed, mut deduplicated) = (0, 0);
    for tick in 0..64usize {
        let measurement = system.begin_tick(PhaseKind::Tuned);
        let proposal = ProposedAction {
            action_index: Some(tick % 5),
            explored: false,
            params: settings[tick / 2 % 2].to_vec(),
        };
        let before = system.current_params();
        let allocs_before = ALLOCATIONS.load(Ordering::SeqCst);
        system.apply_action(proposal);
        let allocs = ALLOCATIONS.load(Ordering::SeqCst) - allocs_before;
        // The first ticks size the replay ring and telemetry; measure after.
        if tick >= 16 {
            assert_eq!(
                allocs, 0,
                "apply_action allocated {allocs} times at tick {tick}"
            );
            if system.current_params() == before {
                deduplicated += 1;
            } else {
                changed += 1;
            }
        }
        system.finish_tick(PhaseKind::Tuned, &measurement, Some(tick % 5), false, None);
    }
    assert_eq!((changed, deduplicated), (24, 24), "both arms measured");
}
