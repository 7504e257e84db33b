//! Persistent worker pool shared by the GEMM kernels and the fleet tick.
//!
//! [`WorkerPool`] spawns its workers once and dispatches row-range jobs over
//! pre-allocated bounded channels (see the crossbeam shim), so the
//! steady-state dispatch path performs **zero heap allocations**: a job is a
//! `Copy` struct pushed into a fixed ring buffer. Work is partitioned into
//! fixed contiguous chunks (never stolen) and the dispatcher blocks until all
//! chunks acknowledge, so the thread count only changes *where* a row is
//! processed, never *what* is computed.
//!
//! Two entry points share that one partition. [`WorkerPool::run`] hands each
//! chunk a row range `start..end`. [`WorkerPool::run_mut`] hands each chunk
//! its rows of a caller's slice as a `&mut` borrow, so callers that write
//! per-row state (GEMM output rows, the fleet's cluster sessions) stay in
//! safe code. The pointer arithmetic behind those borrows lives here, beside
//! the partition that keeps them disjoint.
//!
//! What differs between the pools built on this core is data handed to
//! [`WorkerPool::with_profile`] (thread names, the dispatch span, optional
//! per-worker busy histograms), not code.
//!
//! The process-wide GEMM pool (`global`) sizes itself from the
//! `CAPES_THREADS` environment variable when set (total parallelism including
//! the calling thread), falling back to `std::thread::available_parallelism`.
//! With one thread the pool degenerates to running the job inline, so
//! single-core hosts pay nothing for the machinery.

use capes_telemetry::{Histogram, LazySpan};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A row-range job: an erased `Fn(usize, usize)` invoked as
/// `call(ctx, start, end)`. The dispatcher blocks until every job it sent has
/// been acknowledged, so `ctx` (a pointer to a caller-stack closure) never
/// outlives the closure it points to.
#[derive(Clone, Copy)]
struct Task {
    call: unsafe fn(*const (), usize, usize),
    ctx: *const (),
    start: usize,
    end: usize,
}

// SAFETY: the pointers inside a Task are only dereferenced while the
// dispatching thread is blocked in `WorkerPool::run`, which keeps
// the referents alive; the closure is required to be `Sync`.
unsafe impl Send for Task {}

/// # Safety
/// `ctx` must point to a live `F` for the duration of the call.
unsafe fn trampoline<F: Fn(usize, usize) + Sync>(ctx: *const (), start: usize, end: usize) {
    // SAFETY: the dispatcher passes a pointer to the closure it keeps alive
    // while blocked on the acks; `F: Sync` allows the shared call.
    let f = unsafe { &*(ctx as *const F) };
    f(start, end);
}

/// The data that tells one pool from another.
pub struct PoolProfile {
    /// Worker `i`'s thread is named `<thread_prefix>-<i>`.
    pub thread_prefix: &'static str,
    /// Times every multi-chunk dispatch end to end (send, chunk execution,
    /// acknowledgement barrier).
    pub dispatch_span: &'static LazySpan,
    /// Worker `i` records the wall time it spends executing chunks into
    /// `worker_busy[i]`; workers past the end of the list record nothing.
    pub worker_busy: Vec<Histogram>,
}

static GEMM_DISPATCH: LazySpan = LazySpan::new(capes_telemetry::names::SPAN_GEMM_POOL_DISPATCH);

/// A fixed set of worker threads executing row-range jobs.
pub struct WorkerPool {
    /// One single-slot channel per worker; a worker only ever holds one job.
    task_txs: Vec<Sender<Task>>,
    /// Acknowledgement channel; the payload is `true` if the chunk panicked.
    done_rx: Receiver<bool>,
    /// Serialises dispatches so concurrent callers (e.g. parallel tests)
    /// cannot interleave jobs and acknowledgements.
    dispatch: Mutex<()>,
    dispatch_span: &'static LazySpan,
    /// Total parallelism including the calling thread.
    threads: usize,
}

impl WorkerPool {
    /// Creates a GEMM pool with `threads` total parallelism (the calling
    /// thread participates, so `threads - 1` workers are spawned;
    /// `threads <= 1` spawns none and [`WorkerPool::run`] executes inline).
    pub fn new(threads: usize) -> Self {
        Self::with_profile(
            threads,
            PoolProfile {
                thread_prefix: "capes-gemm",
                dispatch_span: &GEMM_DISPATCH,
                worker_busy: Vec::new(),
            },
        )
    }

    /// Like [`WorkerPool::new`], with the caller's thread names, dispatch
    /// span and per-worker busy histograms.
    pub fn with_profile(threads: usize, profile: PoolProfile) -> Self {
        let threads = threads.max(1);
        let workers = threads - 1;
        let (done_tx, done_rx) = bounded::<bool>(workers.max(1));
        let mut task_txs = Vec::with_capacity(workers);
        let mut worker_busy = profile.worker_busy.into_iter();
        for i in 0..workers {
            let (tx, rx) = bounded::<Task>(1);
            let done = done_tx.clone();
            let busy = worker_busy.next();
            std::thread::Builder::new()
                .name(format!("{}-{i}", profile.thread_prefix))
                .spawn(move || {
                    while let Ok(task) = rx.recv() {
                        let started = busy
                            .as_ref()
                            .filter(|_| capes_telemetry::recording())
                            .map(|busy| (busy, Instant::now()));
                        // Contain panics so a failing chunk cannot kill the
                        // worker: the dispatcher must always receive its ack
                        // (otherwise it would block forever), and the worker
                        // must stay usable for the next dispatch. The panic
                        // flag travels back in the ack and is re-raised on
                        // the dispatching thread.
                        let result =
                            // SAFETY: the Task invariant (see `unsafe impl
                            // Send for Task`) keeps `ctx` alive until this
                            // worker acks; `call` is the matching trampoline.
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                                (task.call)(task.ctx, task.start, task.end)
                            }));
                        if let Some((busy, started)) = started {
                            busy.record_duration(started.elapsed());
                        }
                        if done.send(result.is_err()).is_err() {
                            break;
                        }
                    }
                })
                .expect("failed to spawn pool worker");
            task_txs.push(tx);
        }
        WorkerPool {
            task_txs,
            done_rx,
            dispatch: Mutex::new(()),
            dispatch_span: profile.dispatch_span,
            threads,
        }
    }

    /// Total parallelism of the pool (workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `0..rows` into contiguous chunks of at least `min_rows` and runs
    /// `f(start, end)` on each, using the pool's workers plus the calling
    /// thread. Blocks until every chunk has completed. Runs inline when the
    /// pool is single-threaded or the problem is too small to split.
    pub fn run<F: Fn(usize, usize) + Sync>(&self, rows: usize, min_rows: usize, f: F) {
        if rows == 0 {
            return;
        }
        let max_parts = rows.div_ceil(min_rows.max(1));
        let parts = self.threads.min(max_parts);
        if parts <= 1 {
            f(0, rows);
            return;
        }
        // Workers take `chunk`-sized pieces of `0..tail`; the calling thread
        // takes `tail..rows` meanwhile. The ranges are disjoint and cover
        // `0..rows` once, which is what `run_mut` relies on.
        let chunk = rows.div_ceil(parts);
        let tail = ((parts - 1) * chunk).min(rows);
        let _span = self.dispatch_span.enter();
        // The guard protects no data (the mutex only serialises dispatches),
        // so a poison left by a previous dispatch's propagated panic is
        // harmless — recover it.
        let _guard = self
            .dispatch
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // Checked before the first send: a chunk without a worker would be
        // silently skipped, and nothing may unwind once a worker holds `ctx`.
        assert!(
            tail.div_ceil(chunk) <= self.task_txs.len(),
            "more chunks than pool workers"
        );
        let ctx = &f as *const F as *const ();
        let mut dispatched = 0usize;
        let mut send_failed = false;
        for (tx, start) in self.task_txs.iter().zip((0..tail).step_by(chunk)) {
            let task = Task {
                call: trampoline::<F>,
                ctx,
                start,
                end: (start + chunk).min(tail),
            };
            if tx.send(task).is_err() {
                // Cannot happen while the pool is alive (workers contain
                // panics and never exit their loop), but if it ever did we
                // must still drain the already-dispatched acks below before
                // unwinding: workers hold a raw pointer into this frame.
                send_failed = true;
                break;
            }
            dispatched += 1;
        }
        // The calling thread does its share while workers run theirs. Its
        // panic (if any) must not unwind past this frame before every worker
        // has acknowledged: `f` lives on the caller's stack and workers hold
        // a raw pointer to it, so unwinding early would be a use-after-free.
        let caller_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if !send_failed && tail < rows {
                f(tail, rows);
            }
        }));
        let mut worker_panicked = false;
        for _ in 0..dispatched {
            worker_panicked |= self.done_rx.recv().expect("pool worker disappeared");
        }
        assert!(!send_failed, "pool worker disappeared");
        if let Err(payload) = caller_result {
            std::panic::resume_unwind(payload);
        }
        assert!(!worker_panicked, "a pool worker chunk panicked");
    }

    /// Cuts `data` into rows of `width` elements, splits the rows into the
    /// chunks [`WorkerPool::run`] would, and calls `f(first_row, chunk)` on
    /// each with exclusive access to that chunk's rows. Blocks until every
    /// chunk has completed.
    ///
    /// # Panics
    /// Panics, before any chunk runs, if `width` is zero or does not divide
    /// `data.len()`; and after every chunk has finished, if one of them
    /// panicked.
    pub fn run_mut<T, F>(&self, data: &mut [T], width: usize, min_rows: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(
            width > 0 && data.len().is_multiple_of(width),
            "run_mut: {} elements do not split into rows of width {width}",
            data.len()
        );
        let base = RowsPtr(data.as_mut_ptr());
        self.run(data.len() / width, min_rows, |start, end| {
            // SAFETY: `run` hands out disjoint row ranges inside
            // `0..data.len() / width`, each once, and returns only after all
            // of them finished, so every chunk is in bounds, aliases no other
            // chunk, and ends before the `&mut data` borrow does.
            let chunk = unsafe { base.rows(start * width, (end - start) * width) };
            f(start, chunk);
        });
    }
}

/// The base of the slice [`WorkerPool::run_mut`] cuts into chunks.
struct RowsPtr<T>(*mut T);

// SAFETY: a `RowsPtr` only reaches other threads inside `run_mut`, which
// turns it into disjoint `&mut [T]` chunks; sending those needs `T: Send`.
unsafe impl<T: Send> Sync for RowsPtr<T> {}

impl<T> RowsPtr<T> {
    /// # Safety
    /// `offset..offset + len` must lie inside the slice, and no other live
    /// reference may overlap it.
    #[allow(clippy::mut_from_ref)]
    unsafe fn rows(&self, offset: usize, len: usize) -> &mut [T] {
        // SAFETY: forwarded caller contract (see `# Safety` above).
        unsafe { std::slice::from_raw_parts_mut(self.0.add(offset), len) }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

/// Parallelism configured for this process: `CAPES_THREADS` when set to a
/// positive integer, otherwise the hardware thread count.
pub fn configured_threads() -> usize {
    std::env::var("CAPES_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(crate::matmul::available_threads)
}

/// The process-wide pool, created on first use with [`configured_threads`]
/// workers. `CAPES_THREADS` is read once, at initialisation — as is the SIMD
/// kernel level ([`crate::simd::active_level`], honouring `CAPES_SIMD`),
/// which is warmed here so both process-wide choices are pinned together
/// before the first dispatch.
pub(crate) fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let _ = crate::simd::active_level();
        WorkerPool::new(configured_threads())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn covers_every_row_exactly_once() {
        let pool = WorkerPool::new(4);
        let rows = 103;
        let hits: Vec<AtomicUsize> = (0..rows).map(|_| AtomicUsize::new(0)).collect();
        pool.run(rows, 1, |start, end| {
            for h in &hits[start..end] {
                h.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn run_mut_visits_every_element_once_in_the_chunks_run_uses() {
        let pools: Vec<WorkerPool> = [1, 2, 3, 4, 8].into_iter().map(WorkerPool::new).collect();
        for pool in &pools {
            for width in [1, 3, 7] {
                for rows in 0..40 {
                    for min_rows in [1, 4] {
                        let case = format!("{} threads, {rows} × {width}", pool.threads());
                        // (the index the chunk saw this element at, visits)
                        let mut data = vec![(usize::MAX, 0u32); rows * width];
                        let chunks = Mutex::new(Vec::new());
                        pool.run_mut(&mut data, width, min_rows, |first_row, chunk| {
                            assert_eq!(chunk.len() % width, 0, "{case}: whole rows");
                            for (j, slot) in chunk.iter_mut().enumerate() {
                                *slot = (first_row * width + j, slot.1 + 1);
                            }
                            let end = first_row + chunk.len() / width;
                            chunks.lock().unwrap().push((first_row, end));
                        });
                        for (i, &slot) in data.iter().enumerate() {
                            assert_eq!(slot, (i, 1), "{case}: element {i}");
                        }
                        let expected = Mutex::new(Vec::new());
                        pool.run(rows, min_rows, |start, end| {
                            expected.lock().unwrap().push((start, end));
                        });
                        let (mut got, mut want) =
                            (chunks.into_inner().unwrap(), expected.into_inner().unwrap());
                        got.sort_unstable();
                        want.sort_unstable();
                        assert_eq!(got, want, "{case}: the chunks `run` hands out");
                    }
                }
            }
        }
    }

    #[test]
    fn run_mut_rejects_a_bad_width_before_any_chunk_runs() {
        let pool = WorkerPool::new(3);
        for (len, width) in [(10, 0), (0, 0), (10, 3), (7, 2)] {
            let ran = AtomicBool::new(false);
            let mut data = vec![0u32; len];
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run_mut(&mut data, width, 1, |_, _| {
                    ran.store(true, Ordering::SeqCst)
                });
            }));
            assert!(result.is_err(), "{len} elements, width {width}");
            assert!(!ran.load(Ordering::SeqCst), "{len} elements, width {width}");
        }
        let mut data = vec![0u32; 30];
        pool.run_mut(&mut data, 5, 1, |_, chunk| {
            chunk.iter_mut().for_each(|x| *x += 1)
        });
        assert!(data.iter().all(|&x| x == 1), "the pool still dispatches");
    }

    #[test]
    fn run_mut_panicking_chunk_propagates_and_leaves_the_pool_usable() {
        let pool = WorkerPool::new(3);
        let mut data = vec![0u32; 30];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_mut(&mut data, 1, 1, |first_row, _| {
                if first_row == 0 {
                    panic!("chunk failure");
                }
            });
        }));
        assert!(result.is_err(), "the chunk panic must propagate");
        pool.run_mut(&mut data, 1, 1, |_, chunk| {
            chunk.iter_mut().for_each(|x| *x += 1)
        });
        assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let count = AtomicUsize::new(0);
        pool.run(10, 1, |start, end| {
            count.fetch_add(end - start, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn small_problems_are_not_split() {
        let pool = WorkerPool::new(8);
        let calls = AtomicUsize::new(0);
        pool.run(5, 8, |start, end| {
            calls.fetch_add(1, Ordering::SeqCst);
            assert_eq!((start, end), (0, 5));
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pool_is_reusable_across_dispatches() {
        let pool = WorkerPool::new(3);
        for round in 1..=20usize {
            let total = AtomicUsize::new(0);
            pool.run(round * 7, 1, |start, end| {
                total.fetch_add(end - start, Ordering::SeqCst);
            });
            assert_eq!(total.load(Ordering::SeqCst), round * 7);
        }
    }

    #[test]
    fn panicking_chunk_propagates_and_leaves_the_pool_usable() {
        let pool = WorkerPool::new(3);
        // A chunk panics on a worker (or the caller); run must surface the
        // panic on the dispatching thread without deadlocking or leaving a
        // dangling job behind.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(30, 1, |start, _end| {
                if start == 0 {
                    panic!("chunk failure");
                }
            });
        }));
        assert!(result.is_err(), "the chunk panic must propagate");
        // The pool must still dispatch correctly afterwards.
        let total = AtomicUsize::new(0);
        pool.run(30, 1, |start, end| {
            total.fetch_add(end - start, Ordering::SeqCst);
        });
        assert_eq!(total.load(Ordering::SeqCst), 30);
    }

    #[test]
    fn zero_rows_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.run(0, 1, |_, _| panic!("must not be called"));
    }

    #[test]
    fn global_pool_is_initialised_once() {
        let a = global() as *const WorkerPool;
        let b = global() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }
}
