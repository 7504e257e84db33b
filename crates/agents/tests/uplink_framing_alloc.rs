//! Counting-allocator proof that stream framing into a reused buffer is
//! allocation-free.
//!
//! A socket member frames its whole tick of monitoring messages into one
//! batch buffer with [`encode_cluster_frame_into`] and writes it out once.
//! After the buffer has grown to a tick's size, framing must make **zero**
//! heap allocations — the envelope, the message and the back-patched length
//! prefix all go straight into the buffer.
//!
//! The test lives in its own integration-test binary, and only its own
//! thread's allocations are counted, so neither another test nor the
//! harness's bookkeeping can perturb the counter.

#![deny(unsafe_op_in_unsafe_fn)]

use capes_agents::{encode_cluster_frame_into, ActionMessage, Message, PiReport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether the current thread's allocations are counted. `const` and
    /// without a destructor, so the allocator may read it at any time.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Bumps the counter if the current thread is counted.
fn bump() {
    if COUNTED.get() {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: pure pass-through to `System` plus a relaxed counter bump; every
// GlobalAlloc contract obligation is delegated unchanged.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same layout contract as the caller's.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
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
        bump();
        // SAFETY: forwards the caller's arguments to System unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

#[test]
fn framing_a_tick_into_a_reused_batch_allocates_nothing() {
    // One member's tick: a report and an objective per monitor (the fleet's
    // uplink shape), plus an action for good measure.
    let tick: Vec<Message> = (0..5)
        .flat_map(|node| {
            [
                Message::Report(PiReport {
                    tick: 1_000,
                    node,
                    total_pis: 44,
                    changed: (0..12).map(|i| (i * 3, f64::from(i) * 0.75)).collect(),
                }),
                Message::Objective {
                    tick: 1_000,
                    node,
                    value: 812.5,
                },
            ]
        })
        .chain([Message::Action(ActionMessage {
            tick: 1_000,
            action_index: 3,
            parameter_values: vec![64.0, 400.0],
        })])
        .collect();
    let mut batch = Vec::new();
    // Warm-up: the batch grows to one tick's size once.
    for (cluster, message) in tick.iter().enumerate() {
        encode_cluster_frame_into(&mut batch, cluster as u32, message);
    }
    let warm = batch.clone();
    batch.clear();

    COUNTED.set(true);
    for _ in 0..100 {
        batch.clear();
        for (cluster, message) in tick.iter().enumerate() {
            encode_cluster_frame_into(&mut batch, cluster as u32, message);
        }
    }
    COUNTED.set(false);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        allocations,
        0,
        "{allocations} allocations over {} frames",
        100 * tick.len()
    );
    assert_eq!(batch, warm, "every tick frames to the same bytes");
}
