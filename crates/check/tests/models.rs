//! Bounded model checking of the workspace's concurrency cores.
//!
//! Each model here is a line-for-line port of a real protocol onto the
//! `interleave` shim's schedule-point primitives, so every sequentially
//! consistent interleaving (up to the CHESS-style preemption bound of 2) is
//! explored exhaustively:
//!
//! * the bounded ring channel from the crossbeam shim (the zero-allocation
//!   dispatch backbone of `WorkerPool`, which serves both the GEMM kernels
//!   and the fleet tick);
//! * the dispatch/acknowledge/panic-propagation protocol of the pool itself
//!   (`capes_tensor::pool`);
//! * the telemetry registry's lock-guarded interning and the histogram's
//!   relaxed read-modify-write recording path.
//!
//! A failing schedule panics with a replay seed (`"0-1-0-2"`); the final
//! test proves the harness actually catches a seeded protocol bug and that
//! its seed replays deterministically.

use interleave::sync::atomic::{AtomicUsize, Ordering};
use interleave::sync::{Condvar, Mutex};
use interleave::thread;
use std::collections::VecDeque;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Port of the crossbeam shim's bounded channel (State/Shared, two condvars).
// ---------------------------------------------------------------------------

struct RingState<T> {
    queue: VecDeque<T>,
    capacity: usize,
    senders: usize,
}

struct Ring<T> {
    state: Mutex<RingState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Ring<T> {
    fn new(capacity: usize) -> Self {
        Ring {
            state: Mutex::new(RingState {
                queue: VecDeque::with_capacity(capacity),
                capacity,
                senders: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Mirrors `Sender::send`: blocks while the ring is full.
    fn send(&self, value: T) {
        let mut state = self.state.lock().unwrap();
        loop {
            if state.queue.len() < state.capacity {
                state.queue.push_back(value);
                drop(state);
                self.not_empty.notify_one();
                return;
            }
            state = self.not_full.wait(state).unwrap();
        }
    }

    /// Mirrors `Receiver::recv`: blocks until a message or disconnection.
    fn recv(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(v) = state.queue.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(v);
            }
            if state.senders == 0 {
                return None;
            }
            state = self.not_empty.wait(state).unwrap();
        }
    }

    /// Mirrors dropping the last `Sender`.
    fn drop_sender(&self) {
        let mut state = self.state.lock().unwrap();
        state.senders -= 1;
        let disconnected = state.senders == 0;
        drop(state);
        if disconnected {
            self.not_empty.notify_all();
        }
    }
}

#[test]
fn ring_channel_is_fifo_and_lossless() {
    let report = interleave::model(|| {
        let ring = Arc::new(Ring::new(1));
        let tx = Arc::clone(&ring);
        let producer = thread::spawn(move || {
            // Capacity 1 forces the second send to block until the consumer
            // drains the first — the exact backpressure the pools rely on.
            tx.send(10u32);
            tx.send(20u32);
        });
        let first = ring.recv().expect("sender still connected");
        let second = ring.recv().expect("sender still connected");
        producer.join();
        assert_eq!((first, second), (10, 20), "FIFO order, no loss");
    });
    assert!(
        report.schedules > 1,
        "contention must branch the exploration"
    );
}

#[test]
fn ring_channel_disconnect_unblocks_the_receiver() {
    interleave::model(|| {
        let ring = Arc::new(Ring::new(1));
        let tx = Arc::clone(&ring);
        let producer = thread::spawn(move || {
            tx.send(7u32);
            tx.drop_sender();
        });
        // Whatever the interleaving, the receiver must see the message and
        // then the disconnect — never a hang, never a dropped message.
        assert_eq!(ring.recv(), Some(7));
        assert_eq!(ring.recv(), None, "disconnect after drain");
        producer.join();
    });
}

// ---------------------------------------------------------------------------
// Port of the WorkerPool dispatch protocol: single-slot task channels, an
// acknowledgement channel, panics contained on the worker and re-raised on
// the dispatcher after the ack barrier.
// ---------------------------------------------------------------------------

/// One dispatched chunk: which cell to bump, and whether the chunk "panics"
/// (the port of a panicking closure caught by `catch_unwind` on the worker).
#[derive(Clone, Copy)]
struct Chunk {
    cell: usize,
    poison: bool,
}

#[test]
fn pool_dispatch_covers_every_chunk_exactly_once() {
    let report = interleave::model(|| {
        let tasks: Arc<Ring<Chunk>> = Arc::new(Ring::new(1));
        let acks: Arc<Ring<bool>> = Arc::new(Ring::new(1));
        let cells: Arc<Vec<AtomicUsize>> = Arc::new((0..2).map(|_| AtomicUsize::new(0)).collect());

        let (task_rx, ack_tx, worker_cells) =
            (Arc::clone(&tasks), Arc::clone(&acks), Arc::clone(&cells));
        let worker = thread::spawn(move || {
            // Mirrors the worker loop: recv, execute, always ack.
            while let Some(chunk) = task_rx.recv() {
                worker_cells[chunk.cell].fetch_add(1, Ordering::SeqCst);
                ack_tx.send(false);
            }
        });

        // Dispatcher: one chunk to the worker, the tail chunk inline, then
        // the ack barrier — the order the real `run` uses.
        tasks.send(Chunk {
            cell: 0,
            poison: false,
        });
        cells[1].fetch_add(1, Ordering::SeqCst);
        let worker_panicked = acks.recv().expect("worker acks before exiting");
        assert!(!worker_panicked);
        tasks.drop_sender();
        worker.join();
        for cell in cells.iter() {
            assert_eq!(cell.load(Ordering::SeqCst), 1, "each chunk ran once");
        }
    });
    assert!(report.schedules > 1);
}

#[test]
fn pool_panic_propagates_through_the_ack_barrier() {
    interleave::model(|| {
        let tasks: Arc<Ring<Chunk>> = Arc::new(Ring::new(1));
        let acks: Arc<Ring<bool>> = Arc::new(Ring::new(1));

        let (task_rx, ack_tx) = (Arc::clone(&tasks), Arc::clone(&acks));
        let worker = thread::spawn(move || {
            while let Some(chunk) = task_rx.recv() {
                // A poisoned chunk is the port of `catch_unwind` trapping a
                // panicking closure: the work is abandoned but the ack MUST
                // still flow, or the dispatcher deadlocks.
                ack_tx.send(chunk.poison);
            }
        });

        tasks.send(Chunk {
            cell: 0,
            poison: true,
        });
        let worker_panicked = acks.recv().expect("ack arrives even for a panic");
        assert!(
            worker_panicked,
            "the panic flag must survive the ack barrier"
        );
        tasks.drop_sender();
        worker.join();
    });
}

#[test]
fn pool_shutdown_drains_pending_work_before_exit() {
    interleave::model(|| {
        let tasks: Arc<Ring<Chunk>> = Arc::new(Ring::new(2));
        let done = Arc::new(AtomicUsize::new(0));

        let (task_rx, worker_done) = (Arc::clone(&tasks), Arc::clone(&done));
        let worker = thread::spawn(move || {
            let mut processed = 0usize;
            while task_rx.recv().is_some() {
                processed += 1;
            }
            worker_done.store(processed, Ordering::SeqCst);
        });

        // Shutdown is "drop the sender": both queued tasks must still be
        // processed before the worker observes the disconnect and exits.
        tasks.send(Chunk {
            cell: 0,
            poison: false,
        });
        tasks.send(Chunk {
            cell: 1,
            poison: false,
        });
        tasks.drop_sender();
        worker.join();
        assert_eq!(done.load(Ordering::SeqCst), 2, "no task lost at shutdown");
    });
}

// ---------------------------------------------------------------------------
// Port of the telemetry registry's interning and the histogram's relaxed
// read-modify-write recording path.
// ---------------------------------------------------------------------------

/// Mirrors `capes_telemetry::Registry`: a mutex over `(name, handle)` pairs;
/// interning either finds the existing handle or registers a fresh one.
struct ModelRegistry {
    inner: Mutex<Vec<(&'static str, Arc<AtomicUsize>)>>,
}

impl ModelRegistry {
    fn new() -> Self {
        ModelRegistry {
            inner: Mutex::new(Vec::new()),
        }
    }

    fn intern(&self, name: &'static str) -> Arc<AtomicUsize> {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, handle)) = inner.iter().find(|(n, _)| *n == name) {
            return Arc::clone(handle);
        }
        let handle = Arc::new(AtomicUsize::new(0));
        inner.push((name, Arc::clone(&handle)));
        handle
    }

    fn entries(&self) -> usize {
        self.inner.lock().unwrap().len()
    }
}

#[test]
fn registry_interning_races_to_a_single_handle() {
    let report = interleave::model(|| {
        let registry = Arc::new(ModelRegistry::new());
        let r2 = Arc::clone(&registry);
        let other = thread::spawn(move || {
            r2.intern("fleet.ticks").fetch_add(1, Ordering::Relaxed);
        });
        registry
            .intern("fleet.ticks")
            .fetch_add(1, Ordering::Relaxed);
        other.join();
        // Both threads must land on the SAME storage: one entry, two counts.
        assert_eq!(registry.entries(), 1, "duplicate interning");
        let total = registry.intern("fleet.ticks").load(Ordering::Relaxed);
        assert_eq!(total, 2, "an increment was lost");
    });
    assert!(report.schedules > 1);
}

/// Mirrors `Histogram::record`: three relaxed RMWs (bucket, sum, max) with
/// `count()` derived from the bucket sum so concurrent recorders can never
/// tear the total.
struct ModelHistogram {
    buckets: [AtomicUsize; 2],
    sum: AtomicUsize,
    max: AtomicUsize,
}

impl ModelHistogram {
    fn new() -> Self {
        ModelHistogram {
            buckets: [AtomicUsize::new(0), AtomicUsize::new(0)],
            sum: AtomicUsize::new(0),
            max: AtomicUsize::new(0),
        }
    }

    fn record(&self, value: usize) {
        // Two-bucket stand-in for `bucket_index`: small values left, large
        // right — enough to explore cross-bucket interleavings.
        let bucket = usize::from(value >= 32);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn count(&self) -> usize {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

#[test]
fn histogram_concurrent_records_conserve_every_statistic() {
    let report = interleave::model(|| {
        let hist = Arc::new(ModelHistogram::new());
        let h2 = Arc::clone(&hist);
        let recorder = thread::spawn(move || {
            h2.record(40);
        });
        hist.record(3);
        recorder.join();
        assert_eq!(hist.count(), 2, "a bucket increment was lost");
        assert_eq!(hist.sum.load(Ordering::Relaxed), 43, "sum tore");
        assert_eq!(hist.max.load(Ordering::Relaxed), 40, "max regressed");
    });
    assert!(report.schedules > 1);
}

// ---------------------------------------------------------------------------
// The harness must actually catch bugs: seed a TOCTOU into the ring's send
// path and prove the checker finds it and the printed seed replays.
// ---------------------------------------------------------------------------

/// A deliberately broken send: checks fullness, DROPS the lock, then pushes.
/// Two producers can both observe "not full" and overflow a capacity-1 ring.
fn toctou_send(ring: &Ring<u32>, value: u32) {
    let full = {
        let state = ring.state.lock().unwrap();
        state.queue.len() >= state.capacity
    };
    if !full {
        ring.state.lock().unwrap().queue.push_back(value);
    }
}

fn toctou_model() {
    let ring = Arc::new(Ring::new(1));
    let r2 = Arc::clone(&ring);
    let other = thread::spawn(move || {
        toctou_send(&r2, 1);
    });
    toctou_send(&ring, 2);
    other.join();
    let len = ring.state.lock().unwrap().queue.len();
    assert!(len <= 1, "capacity-1 ring overflowed: len {len}");
}

#[test]
fn checker_finds_the_seeded_toctou_and_its_seed_replays() {
    let failure = std::panic::catch_unwind(|| interleave::model(toctou_model))
        .expect_err("the TOCTOU overflow must be discovered");
    let message = failure
        .downcast_ref::<String>()
        .cloned()
        .expect("model failures carry a message");
    assert!(message.contains("replay seed"), "got: {message}");
    let seed = message
        .split('"')
        .nth(1)
        .expect("the seed is quoted")
        .to_string();
    // Replaying the reported schedule must reproduce the same overflow —
    // the failure is deterministic, not a flaky race.
    let replayed = std::panic::catch_unwind(move || interleave::replay(&seed, toctou_model));
    assert!(replayed.is_err(), "the replay seed must reproduce the bug");
}
