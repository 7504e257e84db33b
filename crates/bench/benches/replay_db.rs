//! Criterion benchmarks for the Replay Database: snapshot ingest, observation
//! assembly and Algorithm-1 minibatch construction (the data-plane costs
//! behind the Table-2 replay-DB rows).

use capes_replay::{ReplayBatch, ReplayConfig, ReplayDb};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn paper_config() -> ReplayConfig {
    // 5 clients × 44 PIs × 10-tick observations, as in the paper.
    ReplayConfig::default()
}

fn filled_db(ticks: u64) -> ReplayDb {
    let mut rng = StdRng::seed_from_u64(3);
    let config = paper_config();
    let mut db = ReplayDb::new(config);
    for t in 0..ticks {
        for n in 0..config.num_nodes {
            let pis: Vec<f64> = (0..config.pis_per_node)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            db.insert_snapshot(t, n, pis);
        }
        db.insert_objective(t, rng.gen_range(100.0..500.0));
        db.insert_action(t, rng.gen_range(0..5));
    }
    db
}

fn bench_ingest(c: &mut Criterion) {
    let config = paper_config();
    let mut rng = StdRng::seed_from_u64(4);
    let pis: Vec<f64> = (0..config.pis_per_node).map(|_| rng.gen()).collect();
    c.bench_function("replay_insert_snapshot", |b| {
        let mut db = ReplayDb::new(config);
        let mut t = 0u64;
        b.iter(|| {
            db.insert_snapshot(t, (t % 5) as usize, pis.clone());
            t += 1;
        })
    });
}

fn bench_observation(c: &mut Criterion) {
    let db = filled_db(2_000);
    c.bench_function("replay_observation_at", |b| {
        b.iter(|| black_box(db.observation_at(1_500).unwrap()))
    });
}

fn bench_minibatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_construct_minibatch");
    for &ticks in &[1_000u64, 10_000] {
        let db = filled_db(ticks);
        let mut rng = StdRng::seed_from_u64(5);
        let mut batch = ReplayBatch::new(32, db.config().observation_size());
        group.bench_with_input(BenchmarkId::from_parameter(ticks), &ticks, |b, _| {
            b.iter(|| {
                db.construct_minibatch_into(&mut batch, &mut rng).unwrap();
                black_box(batch.rewards()[0])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ingest, bench_observation, bench_minibatch);
criterion_main!(benches);
