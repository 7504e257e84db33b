//! Criterion benchmark for the durability layer (ISSUE 7): full fleet
//! checkpoint writes, snapshot restores, and record-log append throughput.
//! Medians are recorded in `BENCH_checkpoint.json` at the repo root.
//!
//! Checkpointing rides the hot loop when auto-checkpointing is enabled, so
//! its cost per snapshot (serialize every agent, RNG stream and replay
//! stripe, checksum the buffer, then fsync twice) is what bounds how tight
//! an interval a fleet can afford.

use capes::{Hyperparameters, Phase, PhaseKind};
use capes_fleet::{Fleet, FleetDaemon, FleetPlan, ScenarioSpec};
use capes_persist::RecordLogWriter;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::PathBuf;

const FLEET_SIZE: usize = 8;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("capes-bench-checkpoint");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A warmed-up heterogeneous fleet with populated replay stripes, so the
/// snapshot carries realistic weight and replay payloads.
fn warmed_fleet() -> FleetDaemon {
    let hp = Hyperparameters {
        sampling_ticks_per_observation: 3,
        ..Hyperparameters::quick_test()
    };
    let mut daemon = Fleet::builder()
        .hyperparams(hp)
        .seed(9)
        .scenarios(ScenarioSpec::heterogeneous_mix(FLEET_SIZE))
        .build()
        .expect("valid fleet");
    daemon.run(&FleetPlan::new().phase(Phase::Train { ticks: 24 }));
    daemon
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut daemon = warmed_fleet();
    let path = temp_path("bench.snap");
    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(10);

    group.bench_function(format!("checkpoint_write_{FLEET_SIZE}_clusters"), |bench| {
        bench.iter(|| {
            daemon.checkpoint(&path).expect("checkpoint");
            black_box(daemon.persist_report().checkpoints_written)
        })
    });

    // The integrity check alone, over the snapshot just written: its time
    // against the file's size is the CRC's throughput, which bounds both
    // the write above and the restore below.
    let snapshot = std::fs::read(&path).expect("snapshot written above");
    group.bench_function(format!("crc32_snapshot_{FLEET_SIZE}_clusters"), |bench| {
        bench.iter(|| black_box(capes_persist::crc32(black_box(&snapshot))))
    });

    let mut target = warmed_fleet();
    group.bench_function(
        format!("checkpoint_restore_{FLEET_SIZE}_clusters"),
        |bench| {
            bench.iter(|| {
                target.restore(&path).expect("restore");
                black_box(target.tick())
            })
        },
    );

    // One tick between checkpoints approximates the tightest sensible
    // auto-checkpoint interval.
    group.bench_function(
        format!("tick_plus_auto_checkpoint_{FLEET_SIZE}_clusters"),
        |bench| {
            daemon.auto_checkpoint_every(1, &path);
            bench.iter(|| {
                daemon.tick_all(PhaseKind::Train);
                black_box(daemon.cluster_ticks())
            })
        },
    );
    daemon.disable_auto_checkpoint();
    group.finish();
    let _ = std::fs::remove_file(&path);
}

fn bench_record_log(c: &mut Criterion) {
    // A typical uplink frame: a 12-PI report message for one node.
    let frame = capes_agents::wire::encode_message(&capes_agents::Message::Report(
        capes_agents::PiReport {
            tick: 1000,
            node: 3,
            total_pis: 12,
            changed: (0..12).map(|i| (i as u16, 0.5 + i as f64)).collect(),
        },
    ));
    let path = temp_path("bench.log");
    let mut group = c.benchmark_group("checkpoint");
    let mut writer = RecordLogWriter::create(&path).expect("create log");
    group.bench_function("record_log_append_report_frame", |bench| {
        bench.iter(|| {
            writer.append(1000, 2, &frame).expect("append");
            black_box(writer.records())
        })
    });
    group.finish();
    drop(writer);
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_checkpoint, bench_record_log);
criterion_main!(benches);
