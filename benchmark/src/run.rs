//! One measured run: cold set-ups → identical rounds → checkpoint/restore
//! cycles → correctness checks. Fixed work (tick counts, not seconds), so the
//! final state is deterministic per (workload, seed, rounds) and checkable.

use crate::stats::{self, Better};
use crate::trace::Tracer;
use crate::workload::{Workload, WARMUP_TICKS};
use capes::{PhaseKind, Transport};
use capes_agents::{ActionMessage, Message};
use capes_fleet::{FleetDaemon, FleetError};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How much of everything one run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub rounds: usize,
    /// Consecutive cold builds (drop → rebuild) timed for `setup_s`.
    pub cold_builds: usize,
    /// Checkpoint → restore cycles after the last round.
    pub cycles: usize,
    /// Traced run: odd rounds run with the program's telemetry recording on,
    /// even rounds with it off, so both sample the same host regimes.
    pub alternate_recording: bool,
}

/// Operations attempted / failed, and why — the contract's failure count.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts `n` operations that completed (they panic or return otherwise).
    pub fn ops(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn expect_eq(&mut self, what: &str, got: u64, want: u64) {
        self.check(got == want, || {
            format!("{what}: got {got}, expected {want}")
        });
    }
}

/// Per-round block timings.
#[derive(Debug, Default, Clone)]
pub struct Rounds {
    pub train_s: Vec<f64>,
    pub tuned_s: Vec<f64>,
    /// Whether the program's telemetry recorded during the round.
    pub recorded: Vec<bool>,
}

/// Everything one run measured, before it is turned into named metrics.
pub struct Measured {
    pub daemon: FleetDaemon,
    pub setup_s: Vec<f64>,
    pub rounds: Rounds,
    pub train_tick_ms: Vec<f64>,
    pub tuned_tick_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    pub state_crc32: u32,
    /// The final snapshot file's bytes (also the persist probes' input).
    pub snapshot: Vec<u8>,
    pub wire_bytes_per_cluster_tick: f64,
    pub frames_in_per_tick: f64,
    pub bytes_in_per_tick: f64,
    pub bytes_out_per_tick: f64,
    pub train_steps: u64,
    pub peak_rss_mb: f64,
    pub steal_s: f64,
    pub files: RunFiles,
}

/// Scratch files of one run, all inside the benchmark's `out/` directory.
pub struct RunFiles {
    pub snap_a: PathBuf,
    pub snap_b: PathBuf,
    pub auto_snap: PathBuf,
    pub record_log: PathBuf,
}

impl RunFiles {
    pub fn new(out_dir: &Path, workload: &str, seed: u64) -> Self {
        let file = |kind: &str| out_dir.join(format!("{workload}-seed{seed}.{kind}"));
        RunFiles {
            snap_a: file("a.snap"),
            snap_b: file("b.snap"),
            auto_snap: file("auto.snap"),
            record_log: file("record.log"),
        }
    }

    /// Removes the (large) scratch files; records and traces stay.
    pub fn remove(&self) {
        for path in [
            &self.snap_a,
            &self.snap_b,
            &self.auto_snap,
            &self.record_log,
        ] {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Cold set-up: build + connect + warm-up train ticks.
fn setup(workload: &Workload, seed: u64, nproc: usize) -> Result<FleetDaemon, FleetError> {
    let mut daemon = workload.build(seed, nproc)?;
    for _ in 0..WARMUP_TICKS {
        daemon.tick_all(PhaseKind::Train);
    }
    Ok(daemon)
}

/// Runs one block of identical ticks; returns its wall time in seconds and
/// appends every tick's latency (ms) to `samples`.
fn run_block(
    daemon: &mut FleetDaemon,
    kind: PhaseKind,
    ticks: usize,
    samples: &mut Vec<f64>,
    tracer: &mut Tracer,
) -> f64 {
    let (block, tick) = match kind {
        PhaseKind::Train => ("bench.train_block", "fleet.tick_all.train"),
        _ => ("bench.tuned_block", "fleet.tick_all.tuned"),
    };
    let start = Instant::now();
    tracer.enter(block, start);
    let mut prev = start;
    for _ in 0..ticks {
        daemon.tick_all(kind);
        let now = Instant::now();
        samples.push((now - prev).as_secs_f64() * 1e3);
        tracer.leaf(tick, prev, now);
        prev = now;
    }
    tracer.exit(prev);
    (prev - start).as_secs_f64()
}

/// Training steps taken so far, summed over the profile agents.
fn training_steps(daemon: &FleetDaemon) -> u64 {
    (0..daemon.num_profiles())
        .map(|p| {
            daemon
                .agent_for(daemon.profile_members(p)[0])
                .training_steps()
        })
        .sum()
}

/// Codec bytes that crossed the uplink and downlink so far.
fn wire_bytes(daemon: &FleetDaemon, transport: Transport) -> u64 {
    if transport == Transport::Socket {
        let net = daemon.net_report();
        return net.bytes_in + net.bytes_out;
    }
    // The wire transport keeps no downlink counter: every broadcast action
    // is one cluster frame of the size the cluster's current action encodes
    // to.
    (0..daemon.num_clusters())
        .map(|i| {
            let system = daemon.system(i);
            let stats = system.daemon_stats();
            let action = capes_fleet::encode_cluster_frame(
                i as u32,
                &Message::Action(ActionMessage {
                    tick: system.tick(),
                    action_index: 0,
                    parameter_values: system.current_params(),
                }),
            );
            stats.bytes_received + stats.actions_broadcast * action.len() as u64
        })
        .sum()
}

fn steal_seconds() -> f64 {
    // /proc/stat "cpu" line, 8th value: ticks stolen by the hypervisor.
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

pub fn measure(
    workload: &Workload,
    seed: u64,
    plan: Plan,
    nproc: usize,
    out_dir: &Path,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<Measured, FleetError> {
    capes_telemetry::set_recording(false);
    let files = RunFiles::new(out_dir, workload.name, seed);
    let steal_before = steal_seconds();

    // Set-up, cold every time: the previous fleet (server thread, sockets,
    // arena) is dropped before the next build starts.
    let mut setup_s = Vec::with_capacity(plan.cold_builds);
    let mut daemon = None;
    for _ in 0..plan.cold_builds {
        drop(daemon.take());
        let started = Instant::now();
        tracer.enter("bench.setup", started);
        daemon = Some(setup(workload, seed, nproc)?);
        let ended = Instant::now();
        tracer.exit(ended);
        setup_s.push((ended - started).as_secs_f64());
        checks.ops(WARMUP_TICKS);
    }
    let mut daemon = daemon.expect("at least one build ran");
    if workload.durable() {
        daemon.record_to(&files.record_log)?;
    }

    // Rounds.
    let transport = workload.transport();
    let clusters = daemon.num_clusters();
    let steps_before = training_steps(&daemon);
    let wire_before = wire_bytes(&daemon, transport);
    let net_before = daemon.net_report();
    let ticks_before = daemon.tick();
    let mut rounds = Rounds::default();
    let per_round = workload.train_ticks + workload.tuned_ticks;
    let mut train_tick_ms = Vec::with_capacity(plan.rounds * workload.train_ticks);
    let mut tuned_tick_ms = Vec::with_capacity(plan.rounds * workload.tuned_ticks);
    for round in 0..plan.rounds {
        let recorded = plan.alternate_recording && round % 2 == 1;
        capes_telemetry::set_recording(recorded);
        tracer.set_round(Some(round));
        tracer.enter("bench.round", Instant::now());
        if workload.durable() {
            daemon.auto_checkpoint_every(workload.train_ticks as u64, files.auto_snap.clone());
        }
        let train_s = run_block(
            &mut daemon,
            PhaseKind::Train,
            workload.train_ticks,
            &mut train_tick_ms,
            tracer,
        );
        daemon.disable_auto_checkpoint();
        let tuned_s = run_block(
            &mut daemon,
            PhaseKind::Tuned,
            workload.tuned_ticks,
            &mut tuned_tick_ms,
            tracer,
        );
        tracer.exit(Instant::now());
        rounds.train_s.push(train_s);
        rounds.tuned_s.push(tuned_s);
        rounds.recorded.push(recorded);
    }
    capes_telemetry::set_recording(false);
    tracer.set_round(None);
    checks.ops(plan.rounds * per_round);

    let window_ticks = daemon.tick() - ticks_before;
    let cluster_ticks = (window_ticks * clusters as u64).max(1) as f64;
    let wire_bytes_per_cluster_tick =
        (wire_bytes(&daemon, transport) - wire_before) as f64 / cluster_ticks;
    let net = daemon.net_report();
    let per_tick = |after: u64, before: u64| (after - before) as f64 / window_ticks.max(1) as f64;
    let train_steps = training_steps(&daemon) - steps_before;

    // Schedule checks.
    let hp = workload.hyperparams();
    checks.expect_eq(
        "fleet ticks in the measured window",
        window_ticks,
        (plan.rounds * per_round) as u64,
    );
    checks.expect_eq(
        "drl.train_steps",
        train_steps,
        (plan.rounds * workload.train_ticks * hp.train_steps_per_tick) as u64,
    );
    for i in 0..clusters {
        let system = daemon.system(i);
        let last = system.prediction_errors().last().map(|&(_, e)| e);
        checks.check(last.is_some_and(f64::is_finite), || {
            format!("cluster {i}: last prediction error is {last:?}, not finite")
        });
        checks.check(daemon.agent_for(i).q_network().mlp().is_finite(), || {
            format!("cluster {i}: Q-network holds non-finite weights")
        });
        checks.expect_eq(
            "daemon.reports_rejected",
            system.daemon_stats().reports_rejected,
            0,
        );
    }
    checks.expect_eq("net.decode_errors", net.decode_errors, 0);
    checks.expect_eq("net.shed_backpressure", net.shed_backpressure, 0);
    checks.expect_eq("net.shed_idle", net.shed_idle, 0);
    // A torn uplink or downlink panics the tick; a lost one disconnects.
    checks.expect_eq("net.disconnects (uplink/downlink I/O)", net.disconnects, 0);
    if transport == Transport::Socket {
        checks.expect_eq("net.active connections", net.active, clusters as u64);
    }

    // Checkpoint → restore cycles; consecutive snapshots must be
    // byte-identical (checkpoint → restore → checkpoint).
    let mut checkpoint_ms = Vec::with_capacity(plan.cycles);
    let mut restore_ms = Vec::with_capacity(plan.cycles);
    let mut previous: Option<Vec<u8>> = None;
    let mut peak_rss_mb = 0.0;
    for cycle in 0..plan.cycles {
        let path = if cycle % 2 == 0 {
            &files.snap_a
        } else {
            &files.snap_b
        };
        let t0 = Instant::now();
        daemon.checkpoint(path)?;
        let t1 = Instant::now();
        daemon.restore(path)?;
        let t2 = Instant::now();
        tracer.leaf("fleet.checkpoint", t0, t1);
        tracer.leaf("fleet.restore", t1, t2);
        checkpoint_ms.push((t1 - t0).as_secs_f64() * 1e3);
        restore_ms.push((t2 - t1).as_secs_f64() * 1e3);
        checks.ops(2);
        if cycle == 0 {
            // Read before the benchmark holds snapshot-sized buffers of its
            // own, so the peak is the program's: build, rounds, one
            // checkpoint and one restore.
            peak_rss_mb = vm_hwm_mb();
        }
        let bytes = std::fs::read(path).map_err(|e| FleetError::Persist(e.into()))?;
        if let Some(before) = &previous {
            checks.check(*before == bytes, || {
                format!("cycle {cycle}: checkpoint → restore → checkpoint changed the snapshot")
            });
        }
        previous = Some(bytes);
    }
    let snapshot = previous.expect("at least one cycle ran");
    let payload = capes_persist::decode_snapshot(&snapshot).map_err(FleetError::Persist)?;
    let state_crc32 = capes_persist::crc32(payload);

    // Durability checks.
    let persist = daemon.persist_report();
    checks.expect_eq(
        "persist.auto_checkpoint_failures",
        persist.auto_checkpoint_failures,
        0,
    );
    checks.expect_eq("persist.record_failures", persist.record_failures, 0);
    if workload.durable() {
        checks.expect_eq(
            "persist.auto_checkpoints",
            persist.auto_checkpoints,
            plan.rounds as u64,
        );
        let frames_per_tick: u64 = (0..clusters)
            .map(|i| 2 * daemon.system(i).num_monitors() as u64)
            .sum();
        let recorded = daemon.stop_recording()?;
        checks.expect_eq("recorded frames", recorded, window_ticks * frames_per_tick);
        checks.expect_eq(
            "persist.records_appended",
            persist.records_appended,
            recorded,
        );
        // The log must replay, frame for frame, through a fresh fleet.
        let mut fresh = workload.build(seed, nproc)?;
        let replayed = fresh.replay_traffic(&files.record_log)?;
        checks.expect_eq("replay_traffic frames", replayed, recorded);
    }

    Ok(Measured {
        setup_s,
        rounds,
        train_tick_ms,
        tuned_tick_ms,
        checkpoint_ms,
        restore_ms,
        state_crc32,
        snapshot,
        wire_bytes_per_cluster_tick,
        frames_in_per_tick: per_tick(net.frames_in, net_before.frames_in),
        bytes_in_per_tick: per_tick(net.bytes_in, net_before.bytes_in),
        bytes_out_per_tick: per_tick(net.bytes_out, net_before.bytes_out),
        train_steps,
        peak_rss_mb,
        steal_s: steal_seconds() - steal_before,
        files,
        daemon,
    })
}

impl Measured {
    /// Per-round block throughputs in cluster-ticks/s.
    pub fn round_throughputs(&self, block_s: &[f64], ticks: usize) -> Vec<f64> {
        let work = (self.daemon.num_clusters() * ticks) as f64;
        block_s.iter().map(|&s| work / s).collect()
    }

    /// Whole-run mean throughput of a block kind (total work ÷ total time).
    pub fn mean_throughput(&self, block_s: &[f64], ticks: usize) -> f64 {
        let work = (self.daemon.num_clusters() * ticks * block_s.len()) as f64;
        work / block_s.iter().sum::<f64>()
    }

    /// Quiet latency (ms) of every train-block tick position, over the
    /// rounds whose recording flag matches (`None`: all rounds).
    pub fn quiet_train_ticks(&self, w: &Workload, recorded: Option<bool>) -> Vec<f64> {
        stats::quiet_positions(&self.train_tick_ms, w.train_ticks, |round| {
            recorded.is_none_or(|want| self.rounds.recorded[round] == want)
        })
    }

    pub fn quiet_tuned_ticks(&self, w: &Workload) -> Vec<f64> {
        stats::quiet_positions(&self.tuned_tick_ms, w.tuned_ticks, |_| true)
    }

    /// Cluster-ticks/s of a block whose every tick ran quiet.
    pub fn quiet_throughput(&self, quiet_ms: &[f64]) -> f64 {
        (self.daemon.num_clusters() * quiet_ms.len()) as f64 * 1e3 / quiet_ms.iter().sum::<f64>()
    }

    /// The end-to-end metrics, quiet estimators throughout.
    pub fn end_to_end(&self, workload: &Workload) -> Vec<(&'static str, f64)> {
        let train = self.quiet_train_ticks(workload, None);
        let tuned = self.quiet_tuned_ticks(workload);
        vec![
            ("setup_s", stats::best(&self.setup_s, Better::Lower)),
            ("train_cluster_ticks_per_s", self.quiet_throughput(&train)),
            ("tuned_cluster_ticks_per_s", self.quiet_throughput(&tuned)),
            ("train_tick_p50_ms", stats::median(&train)),
            ("tuned_tick_p50_ms", stats::median(&tuned)),
            ("checkpoint_mb", self.snapshot.len() as f64 / 1e6),
            (
                "wire_bytes_per_cluster_tick",
                self.wire_bytes_per_cluster_tick,
            ),
            ("peak_rss_mb", self.peak_rss_mb),
        ]
    }
}

/// `VmHWM` of this process, in MB.
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))?
                .split_whitespace()
                .next()?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}
