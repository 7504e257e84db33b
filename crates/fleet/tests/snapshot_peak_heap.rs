//! Peak-tracking-allocator proof that checkpoint and restore stream: neither
//! ever holds the snapshot file image in memory, and restore holds no copy
//! of any section beside the live fleet.
//!
//! `FleetDaemon::checkpoint` encodes, checksums and writes through the
//! codec's fixed window, so its heap high-water mark sits a couple of windows
//! above steady state however large the snapshot is. `FleetDaemon::restore`
//! verifies the file through one window, then walks the payload twice
//! through another against the live fleet, one section at a time — one
//! profile's agent, one arena stripe, one member's state blob. The check
//! pass compares each section's stored shapes with the live ones and steps
//! over its bulk runs, building nothing; the apply pass writes each value
//! into the live agents' matrices and the stripes' own slot buffers. So a
//! restore's high-water mark is steady state plus a window and one member's
//! state blob, not plus the largest decoded section (before the in-place
//! walk), every decoded section (1.0–1.2 × the snapshot before the two
//! passes) or the file image as well (≈ 2.2 × the snapshot before the
//! streaming container). This binary installs a `#[global_allocator]` that
//! tracks live and peak bytes and holds both restores of its two fleets to
//! a window and a quarter:
//!
//! * one cluster on the Table 2 network, whose snapshot is over sixteen
//!   windows long and almost all one agent;
//! * eight clusters of five geometries, whose largest section alone is
//!   larger than that bound.
//!
//! (That no single `read`/`write` exceeds the window is asserted where the
//! sink and source can be substituted: the bounded sink/source wrappers of
//! `capes-persist`'s codec tests.)
//!
//! Both bounds rest on one assumption about the payload: the bulk of a
//! fleet snapshot — agents and replay stripes — sits outside the per-member
//! blobs. A blob is held whole on both paths (pinned in the writer's buffer
//! until its length is back-patched; detached into a vector of its own on
//! restore), which is harmless because `FleetBuilder` gives every member a
//! `NullEngine` and its blob is monitor and simulator state only. The first
//! test asserts that the blob fits in a quarter window; a member that
//! carried its own DQN agent would need the blob streamed too.
//!
//! The tests live in their own integration-test binary, and each holds one
//! lock for its whole run, so no concurrently running test can perturb the
//! counters.

#![deny(unsafe_op_in_unsafe_fn)]

use capes::{Hyperparameters, PhaseKind, Transport};
use capes_fleet::{Fleet, ScenarioSpec};
use capes_persist::Persist;
use capes_simstore::Workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The codec's streaming window (`capes_persist`'s crate-private `WINDOW`).
const WINDOW: usize = 1 << 20;

/// What a restore may raise the live heap by: its reading window, and room
/// for one member's state blob and the small values decoded beside it.
const RESTORE_BOUND: usize = WINDOW + WINDOW / 4;

struct PeakAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: pure pass-through to `System` plus relaxed counter updates; every
// GlobalAlloc contract obligation is delegated unchanged.
unsafe impl GlobalAlloc for PeakAllocator {
    // SAFETY: same layout contract as the caller's.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: forwards the caller's layout to System unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same ptr/layout contract as the caller's.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwards the caller's ptr/layout to System unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same ptr/layout/new_size contract as the caller's.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the worst case: old and new block live side by side.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwards the caller's arguments to System unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static TRACKER: PeakAllocator = PeakAllocator;

/// Held by each test for its whole run: the counters are process-wide.
static EXCLUSIVE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` and returns how far the live heap rose above its level on entry.
fn peak_above_entry(f: impl FnOnce()) -> usize {
    let entry = LIVE.load(Ordering::SeqCst);
    PEAK.store(entry, Ordering::SeqCst);
    f();
    PEAK.load(Ordering::SeqCst) - entry
}

#[test]
fn checkpoint_and_restore_never_hold_the_file_image() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    // One cluster on the 600-wide Table 2 network: weights, target weights
    // and both Adam moments make a ~23 MB snapshot after a handful of ticks.
    let hp = Hyperparameters {
        sampling_ticks_per_observation: 10,
        train_steps_per_tick: 1,
        ..Hyperparameters::quick_test()
    };
    let mut fleet = Fleet::builder()
        .hyperparams(hp)
        .seed(22)
        .transport(Transport::Wire)
        .scenarios([ScenarioSpec::new("table2", Workload::random_rw(0.1))])
        .build()
        .expect("valid fleet");
    for _ in 0..40 {
        fleet.tick_all(PhaseKind::Train);
    }

    let dir = std::env::temp_dir().join("capes-fleet-test-peak-heap");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("peak.snap");
    // Warm-up: first use may fault in lazily-initialised state (telemetry
    // interning, thread locals).
    fleet.checkpoint(&snap).expect("warm-up checkpoint");
    fleet.restore(&snap).expect("warm-up restore");
    let snapshot_len = std::fs::metadata(&snap).unwrap().len() as usize;
    assert!(
        snapshot_len > 16 * WINDOW,
        "the fleet must dwarf the window for the bounds to mean anything \
         ({snapshot_len} bytes)"
    );

    // The assumption the bounds rest on (see the module docs): the member
    // blob is small against the window, the snapshot's bulk is outside it.
    let mut blob = capes_persist::Writer::new();
    fleet.system(0).encode_state(&mut blob);
    assert!(
        blob.len() <= WINDOW / 4,
        "member blob of {} bytes: checkpoint and restore hold a blob whole",
        blob.len()
    );
    drop(blob);

    let checkpoint_peak = peak_above_entry(|| fleet.checkpoint(&snap).expect("checkpoint"));
    assert!(
        checkpoint_peak <= 2 * WINDOW,
        "checkpoint raised the live heap by {checkpoint_peak} bytes \
         (snapshot {snapshot_len}, window {WINDOW})"
    );

    let restore_peak = peak_above_entry(|| fleet.restore(&snap).expect("restore"));
    assert!(
        restore_peak <= RESTORE_BOUND,
        "restore raised the live heap by {restore_peak} bytes \
         (snapshot {snapshot_len}, window {WINDOW})"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The encoded size of the fleet's largest restore section: one profile's
/// agent, one arena stripe or one member's state blob.
fn largest_section(fleet: &capes_fleet::FleetDaemon) -> usize {
    let encoded = |f: &dyn Fn(&mut capes_persist::Writer)| {
        let mut w = capes_persist::Writer::new();
        f(&mut w);
        w.len()
    };
    (0..fleet.num_clusters())
        .flat_map(|i| {
            [
                encoded(&|w| fleet.agent_for(i).encode(w)),
                encoded(&|w| fleet.arena().with_read(i, |db| db.encode(w))),
                encoded(&|w| fleet.system(i).encode_state(w)),
            ]
        })
        .max()
        .unwrap_or(0)
}

#[test]
fn restore_holds_no_section_beside_the_live_fleet() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    // Eight clusters of five geometries: five agents and eight stripes,
    // none of them near the whole snapshot.
    let hp = Hyperparameters {
        sampling_ticks_per_observation: 3,
        replay_capacity_ticks: 2_000,
        ..Hyperparameters::quick_test()
    };
    let mut fleet = Fleet::builder()
        .hyperparams(hp)
        .seed(23)
        .transport(Transport::Wire)
        .scenarios(ScenarioSpec::heterogeneous_mix(8))
        .build()
        .expect("valid fleet");
    for _ in 0..600 {
        fleet.tick_all(PhaseKind::Train);
    }

    let dir = std::env::temp_dir().join("capes-fleet-test-peak-heap-mix");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("mix.snap");
    fleet.checkpoint(&snap).expect("warm-up checkpoint");
    fleet.restore(&snap).expect("warm-up restore");
    let snapshot_len = std::fs::metadata(&snap).unwrap().len() as usize;
    let largest = largest_section(&fleet);
    assert!(
        largest > RESTORE_BOUND,
        "the largest section must outgrow the bound for the bound to mean \
         anything (largest section {largest}, snapshot {snapshot_len})"
    );

    let restore_peak = peak_above_entry(|| fleet.restore(&snap).expect("restore"));
    assert!(
        restore_peak <= RESTORE_BOUND,
        "restore raised the live heap by {restore_peak} bytes (largest section \
         {largest}, snapshot {snapshot_len}, window {WINDOW})"
    );
    std::fs::remove_dir_all(&dir).ok();
}
