//! Every metric and span name the workspace emits, written once.
//!
//! Call sites name these items instead of repeating the string: `span!`
//! takes a path, so a literal there does not compile, and `capes-check`
//! (rule `metric-registry`) reports a literal passed to
//! `Registry::{counter,gauge,histogram}`, `Registry::publish_*`, a
//! `TelemetrySnapshot` lookup or `LazySpan::new` in non-test code. An entry
//! that nothing emits is named by no other crate, which rule `dead-pub`
//! reports. The two names built at runtime, one per fleet worker and one
//! per cluster, are the functions [`fleet_worker_busy`] and
//! [`fleet_cluster_objective`].
//!
//! Keep names `lowercase.dot.separated`; the leading segment is the owning
//! subsystem.

/// Span: wall-time a replay-arena stripe waits for its lock.
pub const SPAN_ARENA_LOCK_WAIT: &str = "arena.lock_wait";
/// Span: drawing a minibatch sample from the replay arena.
pub const SPAN_ARENA_SAMPLE: &str = "arena.sample";
/// Span: daemon-side ingest of one agent report frame.
pub const SPAN_DAEMON_INGEST: &str = "daemon.ingest";
/// Span and histogram: one DRL optimizer step.
pub const DRL_TRAIN_STEP: &str = "drl.train_step";
/// Span: the parameter update inside `drl.train_step` — Adam **and** the
/// soft target update, which rides the same pass over the parameters (its
/// time is inside this span, not in the gap after it). With the forward and
/// backward passes it partitions the train step.
pub const SPAN_NN_ADAM_STEP: &str = "nn.adam_step";
/// Span: dispatching a fleet tick batch onto the shard pool.
pub const SPAN_FLEET_POOL_DISPATCH: &str = "fleet.pool_dispatch";
/// Span: dispatching a GEMM row range onto the worker pool.
pub const SPAN_GEMM_POOL_DISPATCH: &str = "gemm.pool_dispatch";
/// Span: one GEMM kernel call (or pool chunk) that ran the scalar arm.
pub const SPAN_GEMM_KERNEL_SCALAR: &str = "gemm.kernel.scalar";
/// Span: one GEMM kernel call (or pool chunk) that ran the AVX2+FMA arm.
pub const SPAN_GEMM_KERNEL_AVX2: &str = "gemm.kernel.avx2";
/// Span: one GEMM kernel call (or pool chunk) that ran at the AVX-512
/// level (512-bit panel tiles; the `a · bᵀ` kernel's 256-bit arm).
pub const SPAN_GEMM_KERNEL_AVX512: &str = "gemm.kernel.avx512";
/// Span: draining readable bytes from one connection.
pub const SPAN_NET_READ: &str = "net.read";
/// Span: decoding length-prefixed frames from a connection buffer.
pub const SPAN_NET_DECODE: &str = "net.decode";
/// Span: flushing queued egress bytes to a connection.
pub const SPAN_NET_EGRESS: &str = "net.egress";
/// Span: one whole durable checkpoint; the five
/// `persist.checkpoint.{encode,crc,write,fsync,dirsync}` histograms below
/// partition it.
pub const SPAN_PERSIST_CHECKPOINT_TOTAL: &str = "persist.checkpoint.total";
/// Span: restoring daemon state from a checkpoint.
pub const SPAN_PERSIST_RESTORE: &str = "persist.restore";
/// Span: a restore's verifying pass over the snapshot file — magic,
/// version, length and the CRC over every byte — before any decoding; its
/// share of `persist.restore` is the CRC's share of a restore.
pub const SPAN_PERSIST_RESTORE_VERIFY: &str = "persist.restore.verify";
/// Span: a restore's check pass — the payload decoded one section at a time
/// and every section checked against the fleet, then dropped — between the
/// verifying pass and the apply pass that moves the sections into place.
pub const SPAN_PERSIST_RESTORE_CHECK: &str = "persist.restore.check";

/// Histogram: whole fleet tick latency.
pub const FLEET_TICK_TOTAL: &str = "fleet.tick.total";
/// Histogram: gather phase of a fleet tick.
pub const FLEET_TICK_GATHER: &str = "fleet.tick.gather";
/// Histogram: decide phase of a fleet tick.
pub const FLEET_TICK_DECIDE: &str = "fleet.tick.decide";
/// Histogram: scatter phase of a fleet tick.
pub const FLEET_TICK_SCATTER: &str = "fleet.tick.scatter";
/// Histogram: train phase of a fleet tick.
pub const FLEET_TICK_TRAIN: &str = "fleet.tick.train";
/// Gauge: ticks/sec over the recent window.
pub const FLEET_TICK_RECENT_RATE: &str = "fleet.tick.recent_rate";
/// Gauge: configured shard-pool worker count.
pub const FLEET_WORKERS: &str = "fleet.workers";
/// Histogram: wall time shard-pool worker `i` spends executing chunks,
/// `fleet.worker.<i>.busy`.
pub fn fleet_worker_busy(i: usize) -> String {
    format!("fleet.worker.{i}.busy")
}
/// Whether `name` is one of the [`fleet_worker_busy`] histograms.
pub fn is_fleet_worker_busy(name: &str) -> bool {
    name.starts_with("fleet.worker.") && name.ends_with(".busy")
}
/// Gauge: objective value (throughput MB/s) of the latest tick of the fleet
/// cluster `name`, `fleet.cluster.<name>.objective`.
pub fn fleet_cluster_objective(name: &str) -> String {
    format!("fleet.cluster.{name}.objective")
}

/// Counter: agent reports rejected by daemon validation.
pub const DAEMON_REPORTS_REJECTED: &str = "daemon.reports_rejected";
/// Counter: ticks whose measurements failed plausibility checks.
pub const DAEMON_IMPLAUSIBLE_TICKS: &str = "daemon.implausible_ticks";

/// Counter: checkpoints written on request.
pub const PERSIST_CHECKPOINTS_WRITTEN: &str = "persist.checkpoints_written";
/// Counter: successful restores.
pub const PERSIST_RESTORES: &str = "persist.restores";
/// Counter: checkpoints written by the auto-checkpoint policy.
pub const PERSIST_AUTO_CHECKPOINTS: &str = "persist.auto_checkpoints";
/// Counter: wire records appended to the traffic log.
pub const PERSIST_RECORDS_APPENDED: &str = "persist.records_appended";
/// Counter: wire-record append failures.
pub const PERSIST_RECORD_FAILURES: &str = "persist.record_failures";
/// Counter: auto-checkpoint attempts that failed.
pub const PERSIST_AUTO_CHECKPOINT_FAILURES: &str = "persist.auto_checkpoint_failures";
/// Histogram: serializing fleet state into the snapshot window, summed over
/// one checkpoint's chunks.
pub const PERSIST_CHECKPOINT_ENCODE: &str = "persist.checkpoint.encode";
/// Histogram: folding the chunks into the snapshot's CRC-32, summed likewise.
pub const PERSIST_CHECKPOINT_CRC: &str = "persist.checkpoint.crc";
/// Histogram: creating the temporary file, writing the chunks and sealing
/// the header, summed likewise.
pub const PERSIST_CHECKPOINT_WRITE: &str = "persist.checkpoint.write";
/// Histogram: checkpoint data fsync latency, including the wait for the
/// early-writeback helper's last flush.
pub const PERSIST_CHECKPOINT_FSYNC: &str = "persist.checkpoint.fsync";
/// Histogram: keeping the replaced generation as the spare (a link and a
/// second rename), the rename over the destination, and the directory
/// fsync. Before the spare, the rename dropped the last link to the
/// previous snapshot and most of this was the kernel evicting and freeing
/// it.
pub const PERSIST_CHECKPOINT_DIRSYNC: &str = "persist.checkpoint.dirsync";
/// Histogram: the early-writeback helper's `sync_data` calls while one
/// checkpoint streamed, summed. They run beside the five parts above, so
/// this one lies outside their partition of `persist.checkpoint.total`.
pub const PERSIST_CHECKPOINT_WRITEBACK: &str = "persist.checkpoint.writeback";
/// Gauge: size in bytes of the latest snapshot file.
pub const PERSIST_CHECKPOINT_BYTES: &str = "persist.checkpoint.bytes";

/// Counter: connections accepted.
pub const NET_ACCEPTED: &str = "net.accepted";
/// Gauge: currently active connections.
pub const NET_ACTIVE: &str = "net.active";
/// Counter: connections shed under backpressure.
pub const NET_SHED_BACKPRESSURE: &str = "net.shed_backpressure";
/// Counter: idle connections reaped.
pub const NET_SHED_IDLE: &str = "net.shed_idle";
/// Counter: orderly disconnects.
pub const NET_DISCONNECTS: &str = "net.disconnects";
/// Counter: frames dropped by decode errors.
pub const NET_DECODE_ERRORS: &str = "net.decode_errors";
/// Counter: frames read off the wire.
pub const NET_FRAMES_IN: &str = "net.frames_in";
/// Counter: frames written to the wire.
pub const NET_FRAMES_OUT: &str = "net.frames_out";
/// Counter: bytes read off the wire.
pub const NET_BYTES_IN: &str = "net.bytes_in";
/// Counter: bytes written to the wire.
pub const NET_BYTES_OUT: &str = "net.bytes_out";
/// Counter: successful socket reads (`net.frames_in` ÷ this = frames per read).
pub const NET_READS: &str = "net.reads";
/// Gauge: frames queued for ingest, not yet consumed by the daemon.
pub const NET_INGRESS_DEPTH: &str = "net.ingress.depth";
