//! Single-writer / multi-reader stripe view of the replay arena.
//!
//! In the paper's architecture only the Interface Daemon writes to the Replay
//! DB while the DRL Engine reads from it ("it is the only component that needs
//! to write to the Replay DB … greatly reducing the overhead of locking the
//! Replay DB", §3.3). [`SharedReplayDb`] encodes that arrangement as a view of
//! **one stripe** of a [`ReplayArena`]: a standalone deployment is simply a
//! one-stripe arena, while a fleet hands each cluster a view of its own stripe
//! of the shared arena. The handle clones cheaply across the daemon and engine
//! threads, exactly like the pre-arena lock wrapper it replaces.

use crate::arena::ReplayArena;
use crate::db::{ReplayConfig, ReplayDb};
use crate::minibatch::{MinibatchError, ReplayBatch};
use crate::record::{NodeId, Observation, Tick};
use rand::Rng;

/// A cheaply-clonable handle to one arena stripe, shared between the Interface
/// Daemon (writer) and the DRL Engine (reader).
#[derive(Debug, Clone)]
pub struct SharedReplayDb {
    arena: ReplayArena,
    stripe: usize,
}

impl SharedReplayDb {
    /// Creates a standalone shared database: a fresh one-stripe arena with
    /// the given configuration.
    pub fn new(config: ReplayConfig) -> Self {
        ReplayArena::single(config).stripe(0)
    }

    /// Internal constructor used by [`ReplayArena::stripe`].
    pub(crate) fn from_arena(arena: ReplayArena, stripe: usize) -> Self {
        SharedReplayDb { arena, stripe }
    }

    /// Writer-side: records a node's PI snapshot.
    pub fn insert_snapshot(&self, tick: Tick, node: NodeId, pis: Vec<f64>) {
        self.arena
            .with_write(self.stripe, |db| db.insert_snapshot(tick, node, pis));
    }

    /// Writer-side group commit: records one tick's snapshots for many nodes
    /// under a **single** write-lock acquisition. Store contents, eviction
    /// and counters are identical to one [`SharedReplayDb::insert_snapshot`]
    /// call per entry (in entry order); the difference is lock traffic — a
    /// monitoring pipeline covering N nodes takes 1 stripe write lock per
    /// tick instead of N. This is the path the Interface Daemon's per-tick
    /// ingest batching commits through.
    pub fn insert_tick_group<'a, I>(&self, tick: Tick, entries: I)
    where
        I: IntoIterator<Item = (NodeId, &'a [f64])>,
    {
        self.arena
            .with_write(self.stripe, |db| db.insert_tick_group(tick, entries));
    }

    /// Writer-side: records the objective value of a tick.
    pub fn insert_objective(&self, tick: Tick, value: f64) {
        self.arena
            .with_write(self.stripe, |db| db.insert_objective(tick, value));
    }

    /// Writer-side: records the action performed at a tick.
    pub fn insert_action(&self, tick: Tick, action: usize) {
        self.arena
            .with_write(self.stripe, |db| db.insert_action(tick, action));
    }

    /// Reader-side: builds the observation ending at `tick`.
    pub fn observation_at(&self, tick: Tick) -> Option<Observation> {
        self.arena
            .with_read(self.stripe, |db| db.observation_at(tick))
    }

    /// Reader-side: fills a caller-owned [`ReplayBatch`] per Algorithm 1
    /// without allocating (see
    /// [`crate::db::ReplayDb::construct_minibatch_into`]).
    pub fn construct_minibatch_into<R: Rng + ?Sized>(
        &self,
        batch: &mut ReplayBatch,
        rng: &mut R,
    ) -> Result<(), MinibatchError> {
        // Same metric as the weighted arena sampler, so `arena.sample`
        // covers minibatch construction on every sampling path.
        let _span = capes_telemetry::span!("arena.sample");
        self.arena
            .with_read(self.stripe, |db| db.construct_minibatch_into(batch, rng))
    }

    /// Reader-side: number of retained ticks.
    pub fn len(&self) -> usize {
        self.arena.with_read(self.stripe, |db| db.len())
    }

    /// Reader-side: `true` if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.arena.with_read(self.stripe, |db| db.is_empty())
    }

    /// Runs `f` with read access to the underlying stripe.
    pub fn with_read<T>(&self, f: impl FnOnce(&ReplayDb) -> T) -> T {
        self.arena.with_read(self.stripe, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::thread;

    fn config() -> ReplayConfig {
        ReplayConfig {
            num_nodes: 2,
            pis_per_node: 3,
            ticks_per_observation: 4,
            missing_entry_tolerance: 0.2,
            capacity_ticks: 10_000,
        }
    }

    #[test]
    fn basic_write_then_read() {
        let shared = SharedReplayDb::new(config());
        assert!(shared.is_empty());
        assert_eq!(shared.arena.num_stripes(), 1);
        assert_eq!(shared.stripe, 0);
        for t in 0..20u64 {
            for n in 0..2 {
                shared.insert_snapshot(t, n, vec![1.0, 2.0, 3.0]);
            }
            shared.insert_objective(t, 5.0);
            shared.insert_action(t, 1);
        }
        assert_eq!(shared.len(), 20);
        assert_eq!(shared.with_read(|db| db.latest_tick()), Some(19));
        assert!(shared.observation_at(10).is_some());
        let mut rng = StdRng::seed_from_u64(1);
        let mut batch = ReplayBatch::new(4, config().observation_size());
        assert!(shared
            .construct_minibatch_into(&mut batch, &mut rng)
            .is_ok());
    }

    #[test]
    fn concurrent_writer_and_readers() {
        let shared = SharedReplayDb::new(config());
        let writer = {
            let db = shared.clone();
            thread::spawn(move || {
                for t in 0..2000u64 {
                    for n in 0..2 {
                        db.insert_snapshot(t, n, vec![t as f64, n as f64, 0.0]);
                    }
                    db.insert_objective(t, t as f64);
                    db.insert_action(t, (t % 5) as usize);
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|seed| {
                let db = shared.clone();
                thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut batch = ReplayBatch::new(8, config().observation_size());
                    let mut batches = 0usize;
                    for _ in 0..50 {
                        if db.construct_minibatch_into(&mut batch, &mut rng).is_ok() {
                            batches += 1;
                        }
                    }
                    batches
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            // No panics/deadlocks; batch success depends on timing and is not asserted.
            let _ = r.join().unwrap();
        }
        assert_eq!(shared.len(), 2000);
        // After the writer finishes, sampling must succeed.
        let mut rng = StdRng::seed_from_u64(99);
        let mut batch = ReplayBatch::new(32, config().observation_size());
        assert!(shared
            .construct_minibatch_into(&mut batch, &mut rng)
            .is_ok());
    }

    #[test]
    fn stripe_views_of_one_arena_stay_independent() {
        let arena = ReplayArena::uniform(config(), 2);
        let a = arena.stripe(0);
        let b = arena.stripe(1);
        a.insert_snapshot(0, 0, vec![1.0, 1.0, 1.0]);
        assert_eq!(a.len(), 1);
        assert!(b.is_empty(), "writes to one stripe never leak into another");
        assert_eq!(b.stripe, 1);
    }

    #[test]
    fn with_read_sees_the_writes() {
        let shared = SharedReplayDb::new(config());
        shared.insert_snapshot(0, 0, vec![1.0, 1.0, 1.0]);
        let n = shared.with_read(|db| db.total_inserted());
        assert_eq!(n, 1);
    }
}
