//! Equivalence proof for the fully-flat per-tick record store.
//!
//! Through PR 3 the `ReplayDb` kept snapshots in a flat ring but still held
//! objectives and actions in two side `BTreeMap`s. They are gone: every
//! record lives inline in its ring slot. This test re-implements the PR 3
//! store verbatim — ring snapshots, side maps and its allocation-free
//! Algorithm-1 sampler — and drives it and the flat store through randomized
//! workloads (partial node reports, missing objectives/actions, eviction past
//! capacity, expired late arrivals), asserting that every record lookup and
//! every sampled minibatch is identical, RNG stream included. Same pattern as
//! `ring_equivalence.rs`, one layer up.

use capes_replay::{ReplayBatch, ReplayConfig, ReplayDb};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The PR 3 store: flat snapshot ring plus side `objectives`/`actions` maps,
/// with the exact insert/evict/probe semantics that revision shipped.
struct Pr3Db {
    config: ReplayConfig,
    slots: Vec<Pr3Slot>,
    occupied: BTreeMap<u64, u32>,
    objectives: BTreeMap<u64, f64>,
    actions: BTreeMap<u64, usize>,
}

struct Pr3Slot {
    tick: Option<u64>,
    data: Vec<f64>,
    present: Vec<bool>,
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

    fn slot_index(&self, tick: u64) -> usize {
        (tick % self.config.capacity_ticks as u64) as usize
    }

    fn insert_snapshot(&mut self, tick: u64, node: usize, pis: Vec<f64>) {
        let idx = self.slot_index(tick);
        if self.slots.len() <= idx {
            self.slots.resize_with(idx + 1, || Pr3Slot {
                tick: None,
                data: Vec::new(),
                present: Vec::new(),
            });
        }
        if let Some(old) = self.slots[idx].tick {
            if old > tick {
                return;
            }
            if old < tick {
                self.occupied.remove(&old);
                self.objectives.remove(&old);
                self.actions.remove(&old);
                self.slots[idx].tick = None;
            }
        }
        let width = self.config.num_nodes * self.config.pis_per_node;
        let slot = &mut self.slots[idx];
        if slot.tick.is_none() {
            slot.tick = Some(tick);
            slot.data.resize(width, 0.0);
            slot.present.clear();
            slot.present.resize(self.config.num_nodes, false);
            self.occupied.insert(tick, 0);
        }
        if !slot.present[node] {
            slot.present[node] = true;
            *self.occupied.get_mut(&tick).unwrap() += 1;
        }
        slot.data[node * self.config.pis_per_node..][..self.config.pis_per_node]
            .copy_from_slice(&pis);
    }

    fn slot_for(&self, tick: u64) -> Option<&Pr3Slot> {
        self.slots
            .get(self.slot_index(tick))
            .filter(|s| s.tick == Some(tick))
    }

    fn node_pis(&self, tick: u64, node: usize) -> Option<&[f64]> {
        self.slot_for(tick).and_then(|s| {
            if s.present[node] {
                Some(&s.data[node * self.config.pis_per_node..][..self.config.pis_per_node])
            } else {
                None
            }
        })
    }

    fn latest_snapshot_before(&self, tick: u64, node: usize) -> Option<&[f64]> {
        self.occupied
            .range(..tick)
            .rev()
            .find_map(|(&t, _)| self.node_pis(t, node))
    }

    fn write_observation(&self, tick: u64, out: &mut [f64]) -> bool {
        let s = self.config.ticks_per_observation as u64;
        if tick + 1 < s {
            return false;
        }
        let start = tick + 1 - s;
        let total_slots = self.config.ticks_per_observation * self.config.num_nodes;
        let max_missing =
            (total_slots as f64 * self.config.missing_entry_tolerance).floor() as usize;
        let width = self.config.num_nodes * self.config.pis_per_node;
        let pis = self.config.pis_per_node;
        let mut missing = 0usize;
        for (row, t) in (start..=tick).enumerate() {
            for node in 0..self.config.num_nodes {
                let direct = self.node_pis(t, node);
                let values: Option<&[f64]> = match direct {
                    Some(v) => Some(v),
                    None => {
                        missing += 1;
                        if missing > max_missing {
                            return false;
                        }
                        self.latest_snapshot_before(t, node)
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

    fn sampleable_range(&self) -> Option<(u64, u64)> {
        let earliest = *self.occupied.keys().next()?;
        let latest = *self.occupied.keys().next_back()?;
        let min = earliest + self.config.ticks_per_observation as u64;
        if latest <= min {
            return None;
        }
        Some((min, latest.saturating_sub(1)))
    }
}

/// The reference sampler fills plain vectors; a tiny mirror of ReplayBatch.
struct RefBatch {
    states: Vec<Vec<f64>>,
    next_states: Vec<Vec<f64>>,
    ticks: Vec<u64>,
    actions: Vec<usize>,
    rewards: Vec<f64>,
    timestamps_drawn: usize,
}

impl RefBatch {
    fn new(n: usize, obs: usize) -> Self {
        RefBatch {
            states: vec![vec![0.0; obs]; n],
            next_states: vec![vec![0.0; obs]; n],
            ticks: vec![0; n],
            actions: vec![0; n],
            rewards: vec![0.0; n],
            timestamps_drawn: 0,
        }
    }
}

fn config(capacity: usize) -> ReplayConfig {
    ReplayConfig {
        num_nodes: 3,
        pis_per_node: 4,
        ticks_per_observation: 5,
        missing_entry_tolerance: 0.25,
        capacity_ticks: capacity,
    }
}

/// Drives both stores through one randomized trace and compares record
/// lookups and sampled minibatches.
///
/// `pin_node0` makes node 0 report every tick. Traces that evict (ticks >
/// capacity) need it: with *whole* ticks missing, a ring keyed by residue
/// class and side maps keyed by tick legitimately retain different record
/// sets once the occupied span exceeds the capacity — the same caveat
/// `ring_equivalence.rs` documents for its sparse traces. The monitoring
/// pipeline never produces such traces (every tick carries reports), so the
/// equivalence contract is per-node sparsity, not whole-tick gaps.
fn assert_equivalent_trace(
    seed: u64,
    capacity: usize,
    ticks: u64,
    report_probability: f64,
    pin_node0: bool,
) {
    let cfg = config(capacity);
    let mut flat = ReplayDb::new(cfg);
    let mut reference = Pr3Db::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed);

    for t in 0..ticks {
        for node in 0..cfg.num_nodes {
            if rng.gen::<f64>() < report_probability || (node == 0 && pin_node0) {
                let pis: Vec<f64> = (0..cfg.pis_per_node)
                    .map(|p| t as f64 + node as f64 * 0.1 + p as f64 * 0.01)
                    .collect();
                flat.insert_snapshot(t, node, pis.clone());
                reference.insert_snapshot(t, node, pis);
            }
        }
        if rng.gen::<f64>() < 0.9 {
            flat.insert_objective(t, 100.0 + (t % 13) as f64);
            reference.objectives.insert(t, 100.0 + (t % 13) as f64);
        }
        if rng.gen::<f64>() < 0.9 {
            flat.insert_action(t, (t % 5) as usize);
            reference.actions.insert(t, (t % 5) as usize);
        }
        // Occasional expired late arrivals (older than the ring): both
        // stores must drop the snapshot; the flat store also drops the
        // objective/action, which only ever differs outside the retained
        // window (asserted below by comparing the window only).
        if t > capacity as u64 + 2 && rng.gen::<f64>() < 0.05 {
            let stale = t - capacity as u64 - 1;
            flat.insert_snapshot(stale, 0, vec![-1.0; cfg.pis_per_node]);
            reference.insert_snapshot(stale, 0, vec![-1.0; cfg.pis_per_node]);
        }
    }

    let (Some(lo), Some(hi)) = (flat.earliest_tick(), flat.latest_tick()) else {
        return;
    };
    assert_eq!(reference.occupied.keys().next().copied(), Some(lo));
    assert_eq!(reference.occupied.keys().next_back().copied(), Some(hi));

    // Record lookups over the retained window.
    for t in lo..=hi {
        assert_eq!(
            flat.action_at(t),
            reference.actions.get(&t).copied(),
            "action_at differs at tick {t} (seed {seed})"
        );
        assert_eq!(
            flat.objective_at(t),
            reference.objectives.get(&t).copied(),
            "objective_at differs at tick {t} (seed {seed})"
        );
        assert_eq!(
            flat.reward_at(t),
            reference.objectives.get(&(t + 1)).copied(),
            "reward_at differs at tick {t} (seed {seed})"
        );
    }

    // Algorithm 1 sampling: identical draws under identical RNG streams.
    let mut flat_rng = StdRng::seed_from_u64(seed ^ 0xfeed);
    let mut ref_rng = StdRng::seed_from_u64(seed ^ 0xfeed);
    let mut flat_batch = ReplayBatch::new(16, cfg.observation_size());
    let mut ref_batch = RefBatch::new(16, cfg.observation_size());
    let flat_ok = flat
        .construct_minibatch_into(&mut flat_batch, &mut flat_rng)
        .is_ok();
    let ref_ok = reference.sample_into(&mut ref_batch, &mut ref_rng);
    assert_eq!(flat_ok, ref_ok, "sampling outcome differs (seed {seed})");
    if flat_ok {
        assert_eq!(flat_batch.timestamps_drawn(), ref_batch.timestamps_drawn);
        assert_eq!(flat_batch.ticks(), ref_batch.ticks.as_slice());
        assert_eq!(flat_batch.actions(), ref_batch.actions.as_slice());
        assert_eq!(flat_batch.rewards(), ref_batch.rewards.as_slice());
        for row in 0..16 {
            assert_eq!(
                flat_batch.states().row(row),
                ref_batch.states[row].as_slice()
            );
            assert_eq!(
                flat_batch.next_states().row(row),
                ref_batch.next_states[row].as_slice()
            );
        }
        assert_eq!(flat_rng, ref_rng, "RNG streams must stay aligned");
    }
}

impl Pr3Db {
    /// The verbatim PR 3 sampler writing into the reference batch.
    fn sample_into<R: Rng + ?Sized>(&self, batch: &mut RefBatch, rng: &mut R) -> bool {
        let n = batch.ticks.len();
        let Some((lo, hi)) = self.sampleable_range() else {
            return false;
        };
        if hi <= lo {
            return false;
        }
        let mut filled = 0usize;
        let mut drawn = 0usize;
        let budget = n * 200;
        while filled < n && drawn < budget {
            let samples_needed = n - filled;
            for _ in 0..samples_needed {
                let t = rng.gen_range(lo..=hi);
                drawn += 1;
                let (Some(&action), Some(&reward)) =
                    (self.actions.get(&t), self.objectives.get(&(t + 1)))
                else {
                    continue;
                };
                if !self.write_observation(t, &mut batch.states[filled]) {
                    continue;
                }
                if !self.write_observation(t + 1, &mut batch.next_states[filled]) {
                    continue;
                }
                batch.ticks[filled] = t;
                batch.actions[filled] = action;
                batch.rewards[filled] = reward;
                filled += 1;
            }
        }
        batch.timestamps_drawn = drawn;
        filled == n
    }
}

#[test]
fn flat_store_matches_pr3_store_on_dense_traces() {
    for seed in 0..4 {
        assert_equivalent_trace(seed, 400, 200, 1.0, false);
    }
}

#[test]
fn flat_store_matches_pr3_store_with_missing_reports() {
    for seed in 10..16 {
        assert_equivalent_trace(seed, 400, 200, 0.85, false);
    }
}

#[test]
fn flat_store_matches_pr3_store_across_eviction() {
    for seed in 20..26 {
        assert_equivalent_trace(seed, 64, 300, 0.9, true);
    }
}

#[test]
fn flat_store_matches_pr3_store_under_heavy_sparsity() {
    for seed in 30..34 {
        assert_equivalent_trace(seed, 256, 150, 0.55, false);
    }
}
