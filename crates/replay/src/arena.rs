//! The fleet-wide striped replay arena.
//!
//! A fleet of N clusters used to keep N independent `SharedReplayDb` shards,
//! each behind its own lock, with no way for clusters that share a DQN to
//! share experience. [`ReplayArena`] replaces those shards with **one**
//! fleet-wide store: a flat ring per *stripe* (one stripe per cluster), all
//! owned by a single cheaply-clonable arena handle.
//!
//! # Lock discipline
//!
//! Each stripe keeps the paper's single-writer / multi-reader arrangement
//! (§3.3: only the Interface Daemon writes, the DRL engine reads): a
//! per-stripe reader-writer lock, held for exactly one operation at a time.
//! Writers of different stripes never contend — a cluster's monitoring
//! pipeline touches only its own stripe — while any reader may sample across
//! stripes. Cross-stripe sampling acquires one stripe's read lock per
//! candidate draw and never holds two locks at once, so no lock-order cycle
//! can form.
//!
//! # Sampling
//!
//! [`SharedReplayDb`] (a one-stripe view of an arena) samples a single stripe
//! exactly as before. [`ReplayArena::construct_minibatch_weighted_into`]
//! generalises Algorithm 1 to a *stripe set*: each candidate draw first picks
//! a stripe in proportion to a caller-supplied weight vector, then draws a
//! timestamp uniformly from that stripe's sampleable range and applies the
//! usual "contains enough data" filter. When exactly one stripe carries
//! positive weight the stripe pick consumes **no** randomness and the call is
//! bit-identical (same RNG stream, same transitions) to single-stripe
//! sampling — which is what keeps sharing-disabled fleets equivalent to the
//! pre-arena behaviour.
//!
//! # Eviction
//!
//! Stripes evict independently: inserting tick `t` into an occupied ring slot
//! retires the record living there if and only if it is older (see
//! [`ReplayDb`]); arrivals delayed past the retention window are dropped.
//! Ticks never collide *across* stripes — a slot index is local to its
//! stripe — and per-stripe occupancy/eviction counters are exposed through
//! [`ReplayArena::stripe_stats`] for fleet reporting.

use crate::db::{ReplayConfig, ReplayDb};
use crate::minibatch::{MinibatchError, ReplayBatch};
use crate::shared::SharedReplayDb;
use capes_telemetry::names;
use rand::Rng;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Occupancy snapshot of one arena stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// capes-check: allow(dead-pub) -- returned by the public `ReplayArena::stripe_stats` and `ReplayArena::stats`
pub struct StripeStats {
    /// Ticks currently holding snapshot data.
    pub occupied_ticks: u64,
    /// Snapshot ticks retired by ring-slot collisions so far.
    pub evicted_ticks: u64,
    /// Snapshot rows ever inserted (including evicted and expired ones).
    pub total_inserted: u64,
}

/// A fleet-wide replay store: one flat ring per cluster stripe behind one
/// cheaply-clonable handle (see the module docs).
#[derive(Debug, Clone)]
pub struct ReplayArena {
    stripes: Arc<Vec<RwLock<ReplayDb>>>,
}

impl ReplayArena {
    /// Acquires stripe `index`'s read lock, timing the wait under
    /// `arena.lock_wait`. The span guard drops as soon as the lock is held,
    /// so the histogram sees contention, not hold time. A poisoned lock is
    /// recovered, so one panicked writer does not fail every later access
    /// to its stripe.
    fn read_stripe(&self, index: usize) -> RwLockReadGuard<'_, ReplayDb> {
        let _span = capes_telemetry::span!(names::SPAN_ARENA_LOCK_WAIT);
        self.stripes[index]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires stripe `index`'s write lock; same timing discipline as
    /// [`ReplayArena::read_stripe`].
    fn write_stripe(&self, index: usize) -> RwLockWriteGuard<'_, ReplayDb> {
        let _span = capes_telemetry::span!(names::SPAN_ARENA_LOCK_WAIT);
        self.stripes[index]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates an arena with one stripe per configuration (stripe `i` gets
    /// `configs[i]`; heterogeneous fleets pass one config per cluster).
    ///
    /// # Panics
    /// Panics if `configs` is empty or any configuration is invalid.
    pub fn new<I: IntoIterator<Item = ReplayConfig>>(configs: I) -> Self {
        let stripes: Vec<RwLock<ReplayDb>> = configs
            .into_iter()
            .map(|config| RwLock::new(ReplayDb::new(config)))
            .collect();
        assert!(!stripes.is_empty(), "an arena needs at least one stripe");
        ReplayArena {
            stripes: Arc::new(stripes),
        }
    }

    /// An arena of `n` stripes sharing one configuration.
    // capes-check: allow(dead-pub) -- the arenas of tests/arena_striping.rs, tests/group_commit.rs, capes-drl's tests/zero_alloc.rs and the unit tests of capes and capes-drl
    pub fn uniform(config: ReplayConfig, n: usize) -> Self {
        Self::new((0..n).map(|_| config))
    }

    /// A one-stripe arena — what a standalone deployment is.
    // capes-check: allow(dead-pub) -- the one-stripe store of capes-drl's tests/model_checkpoint.rs and the unit tests of capes-agents and capes
    pub fn single(config: ReplayConfig) -> Self {
        Self::uniform(config, 1)
    }

    /// Number of stripes (member clusters).
    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// A [`SharedReplayDb`] view of stripe `index` — the handle a cluster's
    /// Interface Daemon writes through and its engine samples from.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn stripe(&self, index: usize) -> SharedReplayDb {
        assert!(
            index < self.stripes.len(),
            "stripe {index} out of range ({} stripes)",
            self.stripes.len()
        );
        SharedReplayDb::from_arena(self.clone(), index)
    }

    /// The configuration of stripe `index`.
    pub fn stripe_config(&self, index: usize) -> ReplayConfig {
        *self.read_stripe(index).config()
    }

    /// Runs `f` with read access to stripe `index`.
    pub fn with_read<T>(&self, index: usize, f: impl FnOnce(&ReplayDb) -> T) -> T {
        f(&self.read_stripe(index))
    }

    /// Runs `f` with write access to stripe `index`.
    pub(crate) fn with_write<T>(&self, index: usize, f: impl FnOnce(&mut ReplayDb) -> T) -> T {
        f(&mut self.write_stripe(index))
    }

    /// Occupancy/eviction counters of stripe `index`.
    pub fn stripe_stats(&self, index: usize) -> StripeStats {
        let db = self.read_stripe(index);
        StripeStats {
            occupied_ticks: db.len() as u64,
            evicted_ticks: db.evicted_ticks(),
            total_inserted: db.total_inserted(),
        }
    }

    /// Occupancy/eviction counters of every stripe, in stripe order.
    pub fn stats(&self) -> Vec<StripeStats> {
        (0..self.num_stripes())
            .map(|i| self.stripe_stats(i))
            .collect()
    }

    /// Checks that `db` may replace stripe `index`: the stripe has `db`'s
    /// configuration. [`ReplayArena::restore_stripe`] runs the same check.
    ///
    /// # Errors
    /// [`capes_persist::PersistError::Mismatch`] when stripe `index`'s
    /// configuration disagrees with `db`'s.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn check_stripe(
        &self,
        index: usize,
        db: &ReplayDb,
    ) -> Result<(), capes_persist::PersistError> {
        if *db.config() != self.stripe_config(index) {
            return Err(capes_persist::PersistError::mismatch(format!(
                "replay configuration of arena stripe {index} disagrees with the snapshot"
            )));
        }
        Ok(())
    }

    /// Replaces stripe `index`'s contents with `db` — the restore path, one
    /// stripe at a time: existing [`SharedReplayDb`] views (and the member
    /// systems holding them) keep pointing at the same stripe lock and see
    /// the restored data, and the contents replaced are freed before this
    /// returns. Runs [`ReplayArena::check_stripe`] first, so a mismatching
    /// `db` leaves the stripe unchanged.
    ///
    /// # Errors
    /// As [`ReplayArena::check_stripe`].
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn restore_stripe(
        &self,
        index: usize,
        db: ReplayDb,
    ) -> Result<(), capes_persist::PersistError> {
        self.check_stripe(index, &db)?;
        *self.write_stripe(index) = db;
        Ok(())
    }

    /// Generalised Algorithm 1 over a stripe set: fills every row of `batch`
    /// with a transition sampled from the stripes carrying positive weight
    /// (see the module docs for the per-draw procedure and the single-stripe
    /// RNG guarantee). `weights[i]` is stripe `i`'s relative draw
    /// probability; zero excludes the stripe. Allocation-free at steady
    /// state.
    ///
    /// `batch.timestamps_drawn` counts candidate draws, like the
    /// single-stripe sampler.
    ///
    /// # Errors
    /// [`MinibatchError::NotEnoughData`] if no positively-weighted stripe
    /// spans a sampleable range; [`MinibatchError::TooSparse`] if the
    /// iteration budget runs out first.
    ///
    /// # Panics
    /// Panics if `weights` has the wrong length, contains a negative or
    /// non-finite entry or sums to zero, or if a positively-weighted stripe's
    /// observation width differs from the batch's.
    pub fn construct_minibatch_weighted_into<R: Rng + ?Sized>(
        &self,
        weights: &[f64],
        batch: &mut ReplayBatch,
        rng: &mut R,
    ) -> Result<(), MinibatchError> {
        // Times the whole weighted fill, including the per-draw stripe lock
        // traffic (which the nested `arena.lock_wait` spans break out).
        let _span = capes_telemetry::span!(names::SPAN_ARENA_SAMPLE);
        assert_eq!(
            weights.len(),
            self.stripes.len(),
            "one weight per arena stripe required ({} weights, {} stripes)",
            weights.len(),
            self.stripes.len()
        );
        let mut total_weight = 0.0;
        let mut effective = 0usize;
        let mut only = 0usize;
        for (i, &w) in weights.iter().enumerate() {
            assert!(
                w.is_finite() && w >= 0.0,
                "stripe weights must be finite and non-negative (weight {i} is {w})"
            );
            if w > 0.0 {
                total_weight += w;
                effective += 1;
                only = i;
            }
        }
        assert!(effective > 0, "at least one stripe weight must be positive");

        // One effective stripe: delegate so the RNG stream (and therefore the
        // sampled transitions) match single-stripe sampling exactly.
        if effective == 1 {
            return self.read_stripe(only).construct_minibatch_into(batch, rng);
        }

        let n = batch.len();
        // The batch must fit every stripe it may draw from, and at least one
        // stripe must already span a sampleable range.
        let mut any_range = false;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            let db = self.read_stripe(i);
            assert_eq!(
                batch.observation_size(),
                db.config().observation_size(),
                "batch observation width does not match stripe {i}"
            );
            if let Some((lo, hi)) = db.sampleable_range() {
                any_range |= hi > lo;
            }
        }
        if !any_range {
            return Err(MinibatchError::NotEnoughData);
        }

        let mut filled = 0usize;
        let mut drawn = 0usize;
        let budget = n * 200;
        while filled < n && drawn < budget {
            let samples_needed = n - filled;
            for _ in 0..samples_needed {
                // Stripe pick: one uniform deviate against the cumulative
                // weights (falls through to the last positive stripe on
                // floating-point round-off).
                let mut pick = rng.gen::<f64>() * total_weight;
                let mut stripe = only;
                for (i, &w) in weights.iter().enumerate() {
                    if w <= 0.0 {
                        continue;
                    }
                    stripe = i;
                    if pick < w {
                        break;
                    }
                    pick -= w;
                }
                drawn += 1;
                let db = self.read_stripe(stripe);
                let Some((lo, hi)) = db.sampleable_range() else {
                    continue;
                };
                if hi <= lo {
                    continue;
                }
                let t = rng.gen_range(lo..=hi);
                if db.fill_row(t, batch, filled) {
                    filled += 1;
                }
            }
        }

        batch.timestamps_drawn = drawn;
        if filled < n {
            return Err(MinibatchError::TooSparse {
                collected: filled,
                requested: n,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config() -> ReplayConfig {
        ReplayConfig {
            num_nodes: 2,
            pis_per_node: 3,
            ticks_per_observation: 4,
            missing_entry_tolerance: 0.2,
            capacity_ticks: 1000,
        }
    }

    fn fill_stripe(arena: &ReplayArena, stripe: usize, ticks: u64, offset: f64) {
        let view = arena.stripe(stripe);
        for t in 0..ticks {
            for n in 0..2 {
                view.insert_snapshot(t, n, vec![offset + t as f64, n as f64, 0.0]);
            }
            view.insert_objective(t, offset + t as f64);
            view.insert_action(t, (t % 5) as usize);
        }
    }

    #[test]
    fn arena_exposes_stripes_and_stats() {
        let arena = ReplayArena::uniform(config(), 3);
        assert_eq!(arena.num_stripes(), 3);
        fill_stripe(&arena, 1, 20, 100.0);
        assert_eq!(arena.stripe(1).len(), 20);
        assert!(arena.stripe(0).is_empty());
        let stats = arena.stats();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[1].occupied_ticks, 20);
        assert_eq!(stats[1].total_inserted, 40);
        assert_eq!(stats[0].occupied_ticks, 0);
        assert_eq!(arena.stripe_config(2), config());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_stripe_panics() {
        let arena = ReplayArena::single(config());
        let _ = arena.stripe(1);
    }

    #[test]
    fn restore_stripe_overlays_behind_live_views() {
        use capes_persist::Persist;
        let arena = ReplayArena::uniform(config(), 2);
        fill_stripe(&arena, 0, 30, 0.0);
        fill_stripe(&arena, 1, 30, 500.0);
        let encode = |i| {
            let mut w = capes_persist::Writer::new();
            arena.with_read(i, |db| db.encode(&mut w));
            w.into_vec()
        };
        let stripes = [encode(0), encode(1)];
        let decode = |bytes: &[u8]| {
            let mut r = capes_persist::Reader::new(bytes);
            ReplayDb::decode(&mut r).expect("stripe decodes")
        };
        // A live view taken *before* the restore must see the restored data.
        let view = arena.stripe(1);
        fill_stripe(&arena, 0, 50, 7.0);
        fill_stripe(&arena, 1, 50, 7.0);
        for (i, bytes) in stripes.iter().enumerate() {
            arena
                .restore_stripe(i, decode(bytes))
                .expect("same configuration restores");
        }
        assert_eq!(arena.stripe(0).len(), 30);
        assert_eq!(view.len(), 30, "pre-restore views track the overlay");
        assert_eq!(view.with_read(|db| db.objective_at(4)), Some(504.0));
        // A stripe of another configuration is rejected, untouched.
        fill_stripe(&arena, 0, 50, 7.0);
        let narrow = ReplayDb::new(ReplayConfig {
            capacity_ticks: 500,
            ..config()
        });
        let err = arena.restore_stripe(0, narrow).unwrap_err();
        assert!(err.to_string().contains("configuration"));
        assert_eq!(arena.stripe(0).len(), 50);
    }

    #[test]
    fn weighted_sampling_draws_from_every_positive_stripe() {
        let arena = ReplayArena::uniform(config(), 3);
        fill_stripe(&arena, 0, 200, 0.0);
        fill_stripe(&arena, 1, 200, 1000.0);
        fill_stripe(&arena, 2, 200, 2000.0);
        let mut batch = ReplayBatch::new(64, config().observation_size());
        let mut rng = StdRng::seed_from_u64(3);
        arena
            .construct_minibatch_weighted_into(&[1.0, 1.0, 0.0], &mut batch, &mut rng)
            .expect("two full stripes sample fine");
        // Rewards encode the stripe offset: both positive stripes must appear,
        // the zero-weighted stripe never.
        let mut seen = [false; 3];
        for &r in batch.rewards() {
            seen[(r / 1000.0) as usize] = true;
        }
        assert!(seen[0] && seen[1], "both weighted stripes should be drawn");
        assert!(!seen[2], "zero-weighted stripe must never be drawn");
    }

    #[test]
    fn weighted_sampling_tolerates_an_empty_member_stripe() {
        let arena = ReplayArena::uniform(config(), 2);
        fill_stripe(&arena, 0, 200, 0.0);
        // Stripe 1 is empty: draws landing on it are rejected, the batch
        // still fills from stripe 0.
        let mut batch = ReplayBatch::new(32, config().observation_size());
        let mut rng = StdRng::seed_from_u64(5);
        arena
            .construct_minibatch_weighted_into(&[1.0, 1.0], &mut batch, &mut rng)
            .expect("the non-empty stripe fills the batch");
        assert!(batch.rewards().iter().all(|&r| r < 300.0));
        assert!(batch.timestamps_drawn() > 32, "empty-stripe picks count");
    }

    #[test]
    fn weighted_sampling_reports_not_enough_data() {
        let arena = ReplayArena::uniform(config(), 2);
        let mut batch = ReplayBatch::new(8, config().observation_size());
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(
            arena
                .construct_minibatch_weighted_into(&[1.0, 1.0], &mut batch, &mut rng)
                .unwrap_err(),
            MinibatchError::NotEnoughData
        );
    }

    #[test]
    #[should_panic(expected = "one weight per arena stripe")]
    fn wrong_weight_count_panics() {
        let arena = ReplayArena::uniform(config(), 2);
        let mut batch = ReplayBatch::new(8, config().observation_size());
        let mut rng = StdRng::seed_from_u64(1);
        let _ = arena.construct_minibatch_weighted_into(&[1.0], &mut batch, &mut rng);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn all_zero_weights_panic() {
        let arena = ReplayArena::uniform(config(), 2);
        let mut batch = ReplayBatch::new(8, config().observation_size());
        let mut rng = StdRng::seed_from_u64(1);
        let _ = arena.construct_minibatch_weighted_into(&[0.0, 0.0], &mut batch, &mut rng);
    }
}
