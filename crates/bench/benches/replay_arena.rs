//! Criterion benchmarks for the striped replay arena: single-stripe
//! Algorithm-1 sampling through the arena vs the PR 3 sharded store
//! (ring snapshots + side `BTreeMap`s behind one `RwLock`), and shared-scope
//! (weighted stripe-set) vs own-scope sampling on an 8-stripe fleet arena.
//! Medians are recorded in `BENCH_replay_arena.json` at the repo root.
//!
//! The PR 3 comparison isolates what the flat slot records buy: its
//! transition check cost two B-tree probes plus two full observation builds
//! per candidate draw, where the arena's flat probes cost two slot reads and
//! build observations straight into the batch row.

use capes_replay::{ReplayArena, ReplayBatch, ReplayConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;

/// The ROADMAP's 600-feature shape: 5 clients × 12 compact PIs × 10 ticks.
fn config_600() -> ReplayConfig {
    ReplayConfig {
        num_nodes: 5,
        pis_per_node: 12,
        ticks_per_observation: 10,
        missing_entry_tolerance: 0.2,
        capacity_ticks: 250_000,
    }
}

fn fill_stripe(arena: &ReplayArena, stripe: usize, ticks: u64) {
    let mut rng = StdRng::seed_from_u64(7 + stripe as u64);
    let cfg = arena.stripe_config(stripe);
    let view = arena.stripe(stripe);
    for t in 0..ticks {
        for n in 0..cfg.num_nodes {
            let pis: Vec<f64> = (0..cfg.pis_per_node)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            view.insert_snapshot(t, n, pis);
        }
        view.insert_objective(t, rng.gen_range(100.0..500.0));
        view.insert_action(t, rng.gen_range(0..5));
    }
}

// ---------------------------------------------------------------------------
// The PR 3 store, reimplemented for comparison: flat snapshot ring plus side
// objectives/actions BTreeMaps behind one RwLock, sampled through the
// observation-building transition check it shipped with.
// ---------------------------------------------------------------------------

struct Pr3Db {
    config: ReplayConfig,
    slots: Vec<(Option<u64>, Vec<f64>, Vec<bool>)>,
    occupied: BTreeMap<u64, u32>,
    objectives: BTreeMap<u64, f64>,
    actions: BTreeMap<u64, usize>,
}

impl Pr3Db {
    fn new(config: ReplayConfig) -> Self {
        Pr3Db {
            config,
            slots: Vec::new(),
            occupied: BTreeMap::new(),
            objectives: BTreeMap::new(),
            actions: BTreeMap::new(),
        }
    }

    fn insert_snapshot(&mut self, tick: u64, node: usize, pis: &[f64]) {
        let idx = (tick % self.config.capacity_ticks as u64) as usize;
        if self.slots.len() <= idx {
            self.slots
                .resize_with(idx + 1, || (None, Vec::new(), Vec::new()));
        }
        let width = self.config.num_nodes * self.config.pis_per_node;
        let slot = &mut self.slots[idx];
        if slot.0 != Some(tick) {
            slot.0 = Some(tick);
            slot.1.resize(width, 0.0);
            slot.2.clear();
            slot.2.resize(self.config.num_nodes, false);
            self.occupied.insert(tick, 0);
        }
        slot.2[node] = true;
        slot.1[node * self.config.pis_per_node..][..self.config.pis_per_node].copy_from_slice(pis);
    }

    fn node_pis(&self, tick: u64, node: usize) -> Option<&[f64]> {
        let idx = (tick % self.config.capacity_ticks as u64) as usize;
        let slot = self.slots.get(idx).filter(|s| s.0 == Some(tick))?;
        slot.2[node].then(|| &slot.1[node * self.config.pis_per_node..][..self.config.pis_per_node])
    }

    fn write_observation(&self, tick: u64, out: &mut [f64]) -> bool {
        let s = self.config.ticks_per_observation as u64;
        if tick + 1 < s {
            return false;
        }
        let start = tick + 1 - s;
        let total = self.config.ticks_per_observation * self.config.num_nodes;
        let max_missing = (total as f64 * self.config.missing_entry_tolerance).floor() as usize;
        let width = self.config.num_nodes * self.config.pis_per_node;
        let pis = self.config.pis_per_node;
        let mut missing = 0usize;
        for (row, t) in (start..=tick).enumerate() {
            for node in 0..self.config.num_nodes {
                let values = match self.node_pis(t, node) {
                    Some(v) => Some(v),
                    None => {
                        missing += 1;
                        if missing > max_missing {
                            return false;
                        }
                        self.occupied
                            .range(..t)
                            .rev()
                            .find_map(|(&tt, _)| self.node_pis(tt, node))
                    }
                };
                let base = row * width + node * pis;
                match values {
                    Some(v) => out[base..base + pis].copy_from_slice(v),
                    None => out[base..base + pis].fill(0.0),
                }
            }
        }
        true
    }

    /// PR 3's sampler: the transition check builds both observations per
    /// candidate (into scratch), accepted candidates build them again into
    /// the batch rows.
    fn sample(&self, n: usize, rng: &mut StdRng, scratch: &mut [f64], out: &mut [f64]) -> usize {
        let earliest = *self.occupied.keys().next().unwrap();
        let latest = *self.occupied.keys().next_back().unwrap();
        let lo = earliest + self.config.ticks_per_observation as u64;
        let hi = latest - 1;
        let mut filled = 0usize;
        let mut drawn = 0usize;
        let budget = n * 200;
        while filled < n && drawn < budget {
            for _ in 0..(n - filled) {
                let t = rng.gen_range(lo..=hi);
                drawn += 1;
                if !(self.actions.contains_key(&t)
                    && self.objectives.contains_key(&(t + 1))
                    && self.write_observation(t, scratch)
                    && self.write_observation(t + 1, scratch))
                {
                    continue;
                }
                self.write_observation(t, out);
                self.write_observation(t + 1, scratch);
                filled += 1;
            }
        }
        filled
    }
}

fn bench_single_stripe(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_arena");
    let cfg = config_600();

    // Arena path: a one-stripe arena sampled through its stripe view.
    let arena = ReplayArena::single(cfg);
    fill_stripe(&arena, 0, 2_000);
    let view = arena.stripe(0);
    let mut batch = ReplayBatch::new(32, cfg.observation_size());
    let mut rng = StdRng::seed_from_u64(5);
    group.bench_function("arena_single_stripe_600", |b| {
        b.iter(|| {
            view.construct_minibatch_into(&mut batch, &mut rng).unwrap();
            black_box(batch.timestamps_drawn())
        })
    });

    // PR 3 sharded path: same trace through the side-map store + RwLock.
    let mut pr3 = Pr3Db::new(cfg);
    {
        let mut rng = StdRng::seed_from_u64(7);
        for t in 0..2_000u64 {
            for n in 0..cfg.num_nodes {
                let pis: Vec<f64> = (0..cfg.pis_per_node)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                pr3.insert_snapshot(t, n, &pis);
            }
            pr3.objectives.insert(t, rng.gen_range(100.0..500.0));
            pr3.actions.insert(t, rng.gen_range(0..5));
        }
    }
    let shard = RwLock::new(pr3);
    let mut scratch = vec![0.0; cfg.observation_size()];
    let mut row = vec![0.0; cfg.observation_size()];
    let mut rng = StdRng::seed_from_u64(5);
    group.bench_function("pr3_sharded_600", |b| {
        b.iter(|| {
            let db = shard.read();
            black_box(db.sample(32, &mut rng, &mut scratch, &mut row))
        })
    });
    group.finish();
}

fn bench_scopes(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_arena");
    let cfg = config_600();
    let arena = ReplayArena::uniform(cfg, 8);
    for stripe in 0..8 {
        fill_stripe(&arena, stripe, 1_000);
    }
    let mut batch = ReplayBatch::new(32, cfg.observation_size());

    let view = arena.stripe(0);
    let mut rng = StdRng::seed_from_u64(9);
    group.bench_function("own_scope_8x600", |b| {
        b.iter(|| {
            view.construct_minibatch_into(&mut batch, &mut rng).unwrap();
            black_box(batch.timestamps_drawn())
        })
    });

    let weights = [1.0f64; 8];
    let mut rng = StdRng::seed_from_u64(9);
    group.bench_function("shared_scope_8x600", |b| {
        b.iter(|| {
            arena
                .construct_minibatch_weighted_into(&weights, &mut batch, &mut rng)
                .unwrap();
            black_box(batch.timestamps_drawn())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_single_stripe, bench_scopes);
criterion_main!(benches);
