//! The time-indexed Replay Database.

use crate::record::{NodeId, Observation, Tick};
use capes_tensor::Matrix;

/// Static configuration of a [`ReplayDb`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Number of monitored nodes (the paper's evaluation monitors 5 clients).
    pub num_nodes: usize,
    /// Performance indicators reported by each node per tick (paper: 44).
    pub pis_per_node: usize,
    /// Sampling ticks included in one observation (paper: 10).
    pub ticks_per_observation: usize,
    /// Fraction of missing per-node entries tolerated when assembling an
    /// observation (paper: 20 %). Missing entries are filled with the node's
    /// most recent earlier snapshot, or zeros if none exists.
    pub missing_entry_tolerance: f64,
    /// Maximum number of ticks retained; older ticks are evicted. The paper's
    /// replay DB holds 250 k one-second records (≈70 hours).
    pub capacity_ticks: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            num_nodes: 5,
            pis_per_node: 44,
            ticks_per_observation: 10,
            missing_entry_tolerance: 0.2,
            capacity_ticks: 250_000,
        }
    }
}

impl ReplayConfig {
    /// Width of the flattened observation vector
    /// (`ticks_per_observation × num_nodes × pis_per_node`).
    pub fn observation_size(&self) -> usize {
        self.ticks_per_observation * self.num_nodes * self.pis_per_node
    }

    /// Validates the configuration, panicking with a description of the first
    /// problem found. Called by [`ReplayDb::new`].
    pub(crate) fn validate(&self) {
        assert!(self.num_nodes > 0, "at least one node required");
        assert!(self.pis_per_node > 0, "at least one PI per node required");
        assert!(
            self.ticks_per_observation > 0,
            "at least one tick per observation required"
        );
        assert!(
            (0.0..1.0).contains(&self.missing_entry_tolerance),
            "missing-entry tolerance must be in [0, 1)"
        );
        assert!(
            self.capacity_ticks > self.ticks_per_observation,
            "capacity must exceed the observation window"
        );
    }
}

/// One ring slot: everything recorded for a single tick, flattened — the
/// per-node snapshots *and* the tick's objective value and action index.
///
/// `data` is laid out `node-major` (`node × pis_per_node`) and is allocated
/// the first time the slot is occupied; after that, re-occupying the slot for
/// a newer tick reuses the buffers, so at steady state the snapshot store
/// performs no per-tick allocation beyond the caller-provided PI vectors.
///
/// The objective and action records carry their own tick tags
/// (`objective_tick`/`action_tick`) independent of the snapshot tick: each of
/// the three record kinds occupies the slot on its own schedule, exactly as
/// the former side `BTreeMap`s held them under independent keys. A lookup is
/// therefore one index computation plus one tag comparison — no tree probes
/// anywhere on the sampling path.
#[derive(Debug, Clone)]
struct TickSlot {
    /// The tick whose snapshots are stored in this slot, if any.
    tick: Option<Tick>,
    /// Flattened per-node PI vectors (`num_nodes × pis_per_node`).
    data: Vec<f64>,
    /// Which nodes have reported for this tick.
    present: Vec<bool>,
    /// The tick whose objective value is stored in this slot, if any.
    objective_tick: Option<Tick>,
    /// Objective value of `objective_tick`.
    objective: f64,
    /// The tick whose action is stored in this slot, if any.
    action_tick: Option<Tick>,
    /// Action index performed at `action_tick`.
    action: usize,
}

impl TickSlot {
    fn empty() -> Self {
        TickSlot {
            tick: None,
            data: Vec::new(),
            present: Vec::new(),
            objective_tick: None,
            objective: 0.0,
            action_tick: None,
            action: 0,
        }
    }

    /// The PI slice `node` reported into this slot, if present.
    #[inline]
    fn node_pis(&self, node: NodeId, pis_per_node: usize) -> Option<&[f64]> {
        if self.present[node] {
            Some(&self.data[node * pis_per_node..][..pis_per_node])
        } else {
            None
        }
    }
}

/// In-memory, time-indexed replay store (paper §3.5).
///
/// Every per-tick record — node snapshots, objective value, action index —
/// lives in a single flat ring of `TickSlot`s keyed by
/// `tick % capacity_ticks`, so each lookup on the sampling path is one modulo
/// and one bounds check. The side `objectives`/`actions` maps the earlier
/// revisions kept are gone, so Algorithm 1's action/reward test for a
/// candidate is two flat slot probes. The `occupied` `BTreeMap` earlier
/// revisions kept for the ordered queries is gone too: earliest/latest tick
/// and the retained tick/row counts are plain maintained scalars, and the
/// backward fill of missing entries (`ReplayDb::latest_snapshot_before`)
/// runs on a per-node last-reported-tick index plus flat ring probes — the
/// store contains no tree at all.
///
/// Eviction is implicit: inserting tick `t` into an occupied slot retires the
/// record that lived there (`t − capacity` when ticks arrive densely),
/// exactly the retention window the explicit eviction loop used to enforce.
/// Retired snapshot ticks are counted in [`ReplayDb::evicted_ticks`].
#[derive(Debug, Clone)]
pub struct ReplayDb {
    config: ReplayConfig,
    /// Ring of per-tick slots, indexed by `tick % capacity_ticks`.
    /// Grown lazily up to `capacity_ticks` entries.
    slots: Vec<TickSlot>,
    /// Earliest snapshot tick still retained (kept exact on every insert and
    /// eviction; see [`ReplayDb::restore_earliest_after`]).
    earliest: Option<Tick>,
    /// Latest snapshot tick retained (eviction only ever retires older
    /// ticks, so this is monotone).
    latest: Option<Tick>,
    /// Number of ticks currently holding snapshot data.
    occupied_ticks: usize,
    /// Node snapshot rows currently present across all slots (memory
    /// accounting — the per-tick counts the old ordered index carried).
    snapshot_rows: usize,
    /// Per-node tick of the newest snapshot ever accepted (the flat backward
    /// fill's starting point; may point at since-evicted data, which the
    /// fill path re-validates against the ring).
    node_latest: Vec<Option<Tick>>,
    /// Objective records currently retained (memory accounting).
    num_objectives: usize,
    /// Action records currently retained (memory accounting).
    num_actions: usize,
    /// Snapshot ticks retired by ring-slot collisions.
    evicted_ticks: u64,
    /// Total snapshot rows ever inserted (for Table-2 style accounting).
    total_inserted: u64,
}

impl ReplayDb {
    /// Creates an empty database with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see `ReplayConfig::validate`).
    pub fn new(config: ReplayConfig) -> Self {
        config.validate();
        ReplayDb {
            config,
            slots: Vec::new(),
            earliest: None,
            latest: None,
            occupied_ticks: 0,
            snapshot_rows: 0,
            node_latest: vec![None; config.num_nodes],
            num_objectives: 0,
            num_actions: 0,
            evicted_ticks: 0,
            total_inserted: 0,
        }
    }

    /// The database configuration.
    pub fn config(&self) -> &ReplayConfig {
        &self.config
    }

    /// Records the performance indicators reported by `node` at `tick`.
    ///
    /// # Panics
    /// Panics if the node id or PI vector width does not match the
    /// configuration.
    pub fn insert_snapshot(&mut self, tick: Tick, node: NodeId, pis: Vec<f64>) {
        self.insert_snapshot_from(tick, node, &pis);
    }

    /// [`ReplayDb::insert_snapshot`] from a borrowed PI slice — the
    /// group-commit ingest path stages reconstructed vectors in reusable
    /// buffers and copies them straight into the ring, so nothing is moved
    /// or re-allocated per record.
    ///
    /// # Panics
    /// Panics if the node id or PI vector width does not match the
    /// configuration.
    pub(crate) fn insert_snapshot_from(&mut self, tick: Tick, node: NodeId, pis: &[f64]) {
        assert!(
            node < self.config.num_nodes,
            "node {node} out of range ({} nodes)",
            self.config.num_nodes
        );
        assert_eq!(
            pis.len(),
            self.config.pis_per_node,
            "expected {} PIs, got {}",
            self.config.pis_per_node,
            pis.len()
        );
        let idx = self.slot_index(tick);
        if self.slots.len() <= idx {
            self.slots.resize_with(idx + 1, TickSlot::empty);
        }
        // Implicit eviction: a slot collision with an *older* occupant means
        // that occupant has fallen out of the retention window. A collision
        // with a newer occupant means the incoming tick itself is expired —
        // a report delayed by more than `capacity` ticks — and is dropped,
        // exactly as the legacy store's oldest-first eviction would have
        // discarded it immediately after insertion.
        let mut evicted_earliest = None;
        if let Some(old) = self.slots[idx].tick {
            if old > tick {
                self.total_inserted += 1;
                return;
            }
            if old < tick {
                let slot = &mut self.slots[idx];
                slot.tick = None;
                self.occupied_ticks -= 1;
                self.snapshot_rows -= slot.present.iter().filter(|&&p| p).count();
                // The retired tick's objective/action share this slot (same
                // residue class); retire them with it, as the legacy store's
                // eviction loop pruned its side maps.
                if slot.objective_tick == Some(old) {
                    slot.objective_tick = None;
                    self.num_objectives -= 1;
                }
                if slot.action_tick == Some(old) {
                    slot.action_tick = None;
                    self.num_actions -= 1;
                }
                self.evicted_ticks += 1;
                if self.earliest == Some(old) {
                    evicted_earliest = Some(old);
                }
            }
        }
        let width = self.config.num_nodes * self.config.pis_per_node;
        let slot = &mut self.slots[idx];
        if slot.tick.is_none() {
            slot.tick = Some(tick);
            slot.data.resize(width, 0.0);
            slot.present.clear();
            slot.present.resize(self.config.num_nodes, false);
            self.occupied_ticks += 1;
        }
        if !slot.present[node] {
            slot.present[node] = true;
            self.snapshot_rows += 1;
        }
        slot.data[node * self.config.pis_per_node..][..self.config.pis_per_node]
            .copy_from_slice(pis);
        self.total_inserted += 1;
        // Ordered-index bookkeeping: latest is monotone, the per-node latest
        // seeds the flat backward fill, and earliest either extends downward
        // (a late-but-retained arrival) or needs restoring after its slot
        // was just retired.
        self.latest = Some(self.latest.map_or(tick, |l| l.max(tick)));
        if self.node_latest[node].is_none_or(|t| t < tick) {
            self.node_latest[node] = Some(tick);
        }
        match evicted_earliest {
            Some(old) => self.restore_earliest_after(old),
            None => self.earliest = Some(self.earliest.map_or(tick, |e| e.min(tick))),
        }
    }

    /// Group commit: records one tick's snapshots for many nodes in a single
    /// call. Behaviour (retention, eviction, counters) is identical to
    /// calling `ReplayDb::insert_snapshot_from` once per entry in order —
    /// the point is the *locking* layer above: a
    /// [`crate::SharedReplayDb::insert_tick_group`] takes the stripe write
    /// lock once per tick instead of once per (tick, node).
    ///
    /// # Panics
    /// Panics if any node id or PI width does not match the configuration.
    pub(crate) fn insert_tick_group<'a, I>(&mut self, tick: Tick, entries: I)
    where
        I: IntoIterator<Item = (NodeId, &'a [f64])>,
    {
        for (node, pis) in entries {
            self.insert_snapshot_from(tick, node, pis);
        }
    }

    /// How far [`ReplayDb::restore_earliest_after`] walks tick space before
    /// falling back to a full slot sweep. Dense histories (the operational
    /// case: one record per second per node) find the next retained tick on
    /// the first probe.
    const EARLIEST_SCAN_PROBES: u64 = 64;

    /// Recomputes `earliest` after the previous minimum was evicted: a short
    /// forward scan in tick space (flat ring probes, immediate hit for dense
    /// histories), then a one-pass sweep of the slot tags for pathological
    /// sparse histories — never a tree, cost bounded by the ring length.
    fn restore_earliest_after(&mut self, evicted: Tick) {
        if self.occupied_ticks == 0 {
            self.earliest = None;
            return;
        }
        let latest = self.latest.expect("occupied ring has a latest tick");
        let scan_end = evicted
            .saturating_add(Self::EARLIEST_SCAN_PROBES)
            .min(latest);
        let mut t = evicted + 1;
        while t <= scan_end {
            if self.slot_for(t).is_some() {
                self.earliest = Some(t);
                return;
            }
            t += 1;
        }
        self.earliest = self.slots.iter().filter_map(|s| s.tick).min();
    }

    #[inline]
    fn slot_index(&self, tick: Tick) -> usize {
        (tick % self.config.capacity_ticks as u64) as usize
    }

    /// The slot holding `tick`, if that tick is currently retained.
    #[inline]
    fn slot_for(&self, tick: Tick) -> Option<&TickSlot> {
        self.slots
            .get(self.slot_index(tick))
            .filter(|s| s.tick == Some(tick))
    }

    /// The PI vector `node` reported at `tick`, if retained.
    #[inline]
    fn node_pis(&self, tick: Tick, node: NodeId) -> Option<&[f64]> {
        self.slot_for(tick)
            .and_then(|s| s.node_pis(node, self.config.pis_per_node))
    }

    /// The slot at `tick`'s ring position, grown into existence if needed.
    fn slot_at_mut(&mut self, tick: Tick) -> &mut TickSlot {
        let idx = self.slot_index(tick);
        if self.slots.len() <= idx {
            self.slots.resize_with(idx + 1, TickSlot::empty);
        }
        &mut self.slots[idx]
    }

    /// Records the objective-function output (e.g. aggregate throughput) of
    /// `tick`. The reward of an action taken at `t` is the objective at
    /// `t + 1` (paper §3.2).
    ///
    /// The record lives inline in `tick`'s ring slot: an arrival more than
    /// `capacity` ticks late collides with a newer tick's record and is
    /// dropped (the retention window would have evicted it immediately
    /// anyway), while a collision with an older record retires that record.
    pub fn insert_objective(&mut self, tick: Tick, value: f64) {
        let slot = self.slot_at_mut(tick);
        match slot.objective_tick {
            Some(old) if old > tick => return,
            Some(_) => {}
            None => self.num_objectives += 1,
        }
        let slot = self.slot_at_mut(tick);
        slot.objective_tick = Some(tick);
        slot.objective = value;
    }

    /// Records the action index performed at `tick` (retention rules as in
    /// [`ReplayDb::insert_objective`]).
    pub fn insert_action(&mut self, tick: Tick, action: usize) {
        let slot = self.slot_at_mut(tick);
        match slot.action_tick {
            Some(old) if old > tick => return,
            Some(_) => {}
            None => self.num_actions += 1,
        }
        let slot = self.slot_at_mut(tick);
        slot.action_tick = Some(tick);
        slot.action = action;
    }

    /// The action recorded at `tick`, if retained — one index computation and
    /// one tag comparison.
    #[inline]
    // capes-check: allow(dead-pub) -- the history reads of tests/arena_striping.rs, tests/flat_store_equivalence.rs and the unit tests of capes-agents and capes
    pub fn action_at(&self, tick: Tick) -> Option<usize> {
        self.slots
            .get(self.slot_index(tick))
            .filter(|s| s.action_tick == Some(tick))
            .map(|s| s.action)
    }

    /// The objective value recorded at `tick`, if retained — one index
    /// computation and one tag comparison.
    #[inline]
    // capes-check: allow(dead-pub) -- the history reads of tests/arena_striping.rs, tests/flat_store_equivalence.rs, capes-fleet's tests/checkpoint_restore.rs and capes-agents' unit tests
    pub fn objective_at(&self, tick: Tick) -> Option<f64> {
        self.slots
            .get(self.slot_index(tick))
            .filter(|s| s.objective_tick == Some(tick))
            .map(|s| s.objective)
    }

    /// Reward of an action taken at `tick`: the objective value one tick
    /// later, which is how the paper defines the immediate reward.
    // capes-check: allow(dead-pub) -- the reward check of the floor test cluster_objective_reward_matches_paper_definition in tests/pipeline.rs
    pub fn reward_at(&self, tick: Tick) -> Option<f64> {
        self.objective_at(tick + 1)
    }

    /// Latest tick for which any snapshot has been recorded.
    // capes-check: allow(dead-pub) -- the replay-fill check of the floor test simulator_pis_flow_through_wire_daemon_and_replay_into_the_dqn in tests/pipeline.rs
    pub fn latest_tick(&self) -> Option<Tick> {
        self.latest
    }

    /// Earliest tick still retained.
    // capes-check: allow(dead-pub) -- the window checks of tests/arena_striping.rs, tests/backward_fill_equivalence.rs, tests/flat_store_equivalence.rs, tests/group_commit.rs and tests/ring_equivalence.rs
    pub fn earliest_tick(&self) -> Option<Tick> {
        self.earliest
    }

    /// Number of ticks currently retained.
    pub fn len(&self) -> usize {
        self.occupied_ticks
    }

    /// `true` if no snapshots have been recorded.
    pub fn is_empty(&self) -> bool {
        self.occupied_ticks == 0
    }

    /// Total snapshot rows ever inserted (including evicted ones).
    // capes-check: allow(dead-pub) -- the fill counts of tests/backward_fill_equivalence.rs, tests/group_commit.rs and capes-agents' unit tests
    pub fn total_inserted(&self) -> u64 {
        self.total_inserted
    }

    /// Snapshot ticks retired by ring-slot collisions (the implicit-eviction
    /// counter behind the arena's occupancy report).
    // capes-check: allow(dead-pub) -- the eviction counts of tests/arena_striping.rs, tests/backward_fill_equivalence.rs and tests/group_commit.rs
    pub fn evicted_ticks(&self) -> u64 {
        self.evicted_ticks
    }

    /// Approximate memory footprint of the retained data in bytes, reported
    /// the way Table 2 reports "total size of the Replay DB in memory".
    pub fn memory_bytes(&self) -> usize {
        let per_snapshot = self.config.pis_per_node * std::mem::size_of::<f64>();
        self.snapshot_rows * per_snapshot
            + self.num_objectives * std::mem::size_of::<(Tick, f64)>()
            + self.num_actions * std::mem::size_of::<(Tick, usize)>()
    }

    /// Builds the observation ending at `tick` (inclusive), following the
    /// paper's stacking rule: the last `ticks_per_observation` sampling ticks
    /// are concatenated oldest-first.
    ///
    /// Returns `None` if the observation window starts before tick 0, if more
    /// than `missing_entry_tolerance` of the per-node entries in the window
    /// are missing, or if the window reaches beyond the data currently stored.
    pub fn observation_at(&self, tick: Tick) -> Option<Observation> {
        let mut features = Matrix::zeros(1, self.config.observation_size());
        if self.write_observation(tick, features.as_mut_slice()) {
            Some(Observation { tick, features })
        } else {
            None
        }
    }

    /// Allocation-free variant of [`ReplayDb::observation_at`]: writes the
    /// flattened observation ending at `tick` into `out` and returns `true`,
    /// or returns `false` if no complete-enough observation exists. Every
    /// slot of `out` is overwritten on success, so the buffer may be reused
    /// across calls without clearing (this is what
    /// [`ReplayDb::construct_minibatch_into`] does with its batch rows).
    ///
    /// # Panics
    /// Panics if `out.len()` differs from the configured observation size.
    // capes-check: allow(dead-pub) -- the row reads of tests/arena_striping.rs, tests/backward_fill_equivalence.rs, tests/group_commit.rs and tests/ring_equivalence.rs
    pub fn write_observation(&self, tick: Tick, out: &mut [f64]) -> bool {
        assert_eq!(
            out.len(),
            self.config.observation_size(),
            "observation buffer width mismatch"
        );
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
            let tick_slot = self.slot_for(t);
            for node in 0..self.config.num_nodes {
                let direct = tick_slot.and_then(|s| s.node_pis(node, pis));
                let values: Option<&[f64]> = match direct {
                    Some(v) => Some(v),
                    None => {
                        missing += 1;
                        if missing > max_missing {
                            return false;
                        }
                        // Fill from the node's most recent earlier snapshot.
                        self.latest_snapshot_before(t, node)
                    }
                };
                let base = row * width + node * pis;
                match values {
                    Some(v) => out[base..base + pis].copy_from_slice(v),
                    // No earlier snapshot exists either: zero the slot.
                    None => out[base..base + pis].fill(0.0),
                }
            }
        }
        true
    }

    /// Ticks eligible for sampling: ticks with a recorded action whose
    /// observation window is complete.
    // capes-check: allow(dead-pub) -- the restored-window check of capes-fleet's tests/checkpoint_restore.rs
    pub fn sampleable_range(&self) -> Option<(Tick, Tick)> {
        let earliest = self.earliest_tick()?;
        let latest = self.latest_tick()?;
        let min = earliest + self.config.ticks_per_observation as u64;
        if latest <= min {
            return None;
        }
        Some((min, latest.saturating_sub(1)))
    }

    /// How far [`ReplayDb::latest_snapshot_before`] walks tick space before
    /// falling back to a one-pass slot sweep. Dense histories hit on the
    /// first probe; the cap keeps the fill bounded even when a corrupt or
    /// far-future tick poisoned the per-node index (ticks arrive off the
    /// wire, so a numeric gap of 2⁴⁰ must not become a 2⁴⁰-step walk).
    const FILL_SCAN_PROBES: u64 = 128;

    /// The node's most recent snapshot strictly before `tick`, used to
    /// backward-fill missing observation entries.
    ///
    /// Fully flat: the per-node last-reported tick bounds the search from
    /// above (a node that never reported answers in O(1), and in the common
    /// dense case the first ring probe hits), the walk down is a plain slot
    /// probe per step, and pathological gaps degrade to one sweep over the
    /// slot tags — cost is bounded by the ring length, never by the numeric
    /// tick distance, and the tree-walk over the old `occupied` map is gone.
    fn latest_snapshot_before(&self, tick: Tick, node: NodeId) -> Option<&[f64]> {
        let newest = self.node_latest[node]?;
        let earliest = self.earliest?;
        let upper = newest.min(tick.checked_sub(1)?);
        let scan_floor = upper.saturating_sub(Self::FILL_SCAN_PROBES);
        let mut t = upper;
        loop {
            if let Some(pis) = self.node_pis(t, node) {
                return Some(pis);
            }
            if t <= earliest {
                return None;
            }
            if t <= scan_floor {
                break;
            }
            t -= 1;
        }
        // Pathological gap (sparse history or a poisoned per-node index):
        // one pass over the slot tags finds the node's newest retained
        // snapshot at or below `upper` exactly.
        let best = self
            .slots
            .iter()
            .filter_map(|s| s.tick.filter(|&t| t <= upper && s.present[node]))
            .max()?;
        self.node_pis(best, node)
    }
}

impl capes_persist::Persist for ReplayConfig {
    const MIN_SIZE: usize = 4 * 8 + 8;

    fn encode(&self, w: &mut capes_persist::Writer) {
        w.put_usize(self.num_nodes);
        w.put_usize(self.pis_per_node);
        w.put_usize(self.ticks_per_observation);
        w.put_f64(self.missing_entry_tolerance);
        w.put_usize(self.capacity_ticks);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        let config = ReplayConfig {
            num_nodes: r.get_usize()?,
            pis_per_node: r.get_usize()?,
            ticks_per_observation: r.get_usize()?,
            missing_entry_tolerance: r.get_f64()?,
            capacity_ticks: r.get_usize()?,
        };
        // `validate`'s invariants as typed errors instead of panics.
        if config.num_nodes == 0
            || config.pis_per_node == 0
            || config.ticks_per_observation == 0
            || config.capacity_ticks <= config.ticks_per_observation
        {
            return Err(capes_persist::PersistError::BadValue {
                what: "replay configuration geometry invalid",
            });
        }
        if !(0.0..1.0).contains(&config.missing_entry_tolerance) {
            return Err(capes_persist::PersistError::BadValue {
                what: "missing-entry tolerance outside [0, 1)",
            });
        }
        Ok(config)
    }
}

impl capes_persist::Persist for TickSlot {
    const MIN_SIZE: usize = 1 + 8 + 8 + 1 + 8 + 1 + 8;

    fn encode(&self, w: &mut capes_persist::Writer) {
        self.tick.encode(w);
        self.data.encode(w);
        self.present.encode(w);
        self.objective_tick.encode(w);
        w.put_f64(self.objective);
        self.action_tick.encode(w);
        w.put_usize(self.action);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        Ok(TickSlot {
            tick: Option::<Tick>::decode(r)?,
            data: Vec::<f64>::decode(r)?,
            present: Vec::<bool>::decode(r)?,
            objective_tick: Option::<Tick>::decode(r)?,
            objective: r.get_f64()?,
            action_tick: Option::<Tick>::decode(r)?,
            action: r.get_usize()?,
        })
    }
}

impl capes_persist::Persist for ReplayDb {
    const MIN_SIZE: usize = ReplayConfig::MIN_SIZE;

    fn encode(&self, w: &mut capes_persist::Writer) {
        self.config.encode(w);
        self.slots.encode(w);
        self.earliest.encode(w);
        self.latest.encode(w);
        w.put_usize(self.occupied_ticks);
        w.put_usize(self.snapshot_rows);
        self.node_latest.encode(w);
        w.put_usize(self.num_objectives);
        w.put_usize(self.num_actions);
        w.put_u64(self.evicted_ticks);
        w.put_u64(self.total_inserted);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        use capes_persist::PersistError::BadValue;
        let config = ReplayConfig::decode(r)?;
        let slots = Vec::<TickSlot>::decode(r)?;
        let earliest = Option::<Tick>::decode(r)?;
        let latest = Option::<Tick>::decode(r)?;
        let occupied_ticks = r.get_usize()?;
        let snapshot_rows = r.get_usize()?;
        let node_latest = Vec::<Option<Tick>>::decode(r)?;
        let num_objectives = r.get_usize()?;
        let num_actions = r.get_usize()?;
        let evicted_ticks = r.get_u64()?;
        let total_inserted = r.get_u64()?;
        // The ring geometry must agree with the configuration before any
        // indexing arithmetic trusts it.
        if slots.len() > config.capacity_ticks {
            return Err(BadValue {
                what: "replay ring longer than its configured capacity",
            });
        }
        if node_latest.len() != config.num_nodes {
            return Err(BadValue {
                what: "per-node index disagrees with the replay configuration",
            });
        }
        // Every count and tick bound is a function of the slots: one that
        // disagrees would underflow or misdirect the next insert's
        // bookkeeping, so it is recomputed and compared, never trusted.
        let width = config.num_nodes * config.pis_per_node;
        let capacity = config.capacity_ticks as u64;
        let (mut occupied, mut rows, mut objectives, mut actions) = (0, 0, 0, 0);
        let (mut first, mut last): (Option<Tick>, Option<Tick>) = (None, None);
        for (index, slot) in slots.iter().enumerate() {
            let shaped = slot.data.len() == width && slot.present.len() == config.num_nodes;
            let empty = slot.data.is_empty() && slot.present.is_empty();
            if !(shaped || (empty && slot.tick.is_none())) {
                return Err(BadValue {
                    what: "replay slot shape disagrees with the configuration",
                });
            }
            let at_home = |t: Option<Tick>| t.is_none_or(|t| t % capacity == index as u64);
            if !(at_home(slot.tick) && at_home(slot.objective_tick) && at_home(slot.action_tick)) {
                return Err(BadValue {
                    what: "replay slot holds a tick of another ring position",
                });
            }
            objectives += usize::from(slot.objective_tick.is_some());
            actions += usize::from(slot.action_tick.is_some());
            if let Some(t) = slot.tick {
                occupied += 1;
                rows += slot.present.iter().filter(|&&p| p).count();
                first = Some(first.map_or(t, |f| f.min(t)));
                last = Some(last.map_or(t, |l| l.max(t)));
            }
        }
        let derived = (occupied, rows, objectives, actions, first, last);
        let stored = (
            occupied_ticks,
            snapshot_rows,
            num_objectives,
            num_actions,
            earliest,
            latest,
        );
        if derived != stored {
            return Err(BadValue {
                what: "replay counts or tick bounds disagree with the slots",
            });
        }
        Ok(ReplayDb {
            config,
            slots,
            earliest,
            latest,
            occupied_ticks,
            snapshot_rows,
            node_latest,
            num_objectives,
            num_actions,
            evicted_ticks,
            total_inserted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ReplayConfig {
        ReplayConfig {
            num_nodes: 2,
            pis_per_node: 3,
            ticks_per_observation: 4,
            missing_entry_tolerance: 0.2,
            capacity_ticks: 100,
        }
    }

    fn filled_db(ticks: u64) -> ReplayDb {
        let mut db = ReplayDb::new(small_config());
        for t in 0..ticks {
            for n in 0..2 {
                db.insert_snapshot(t, n, vec![t as f64, n as f64, t as f64 + n as f64]);
            }
            db.insert_objective(t, 100.0 + t as f64);
            db.insert_action(t, (t % 5) as usize);
        }
        db
    }

    #[test]
    fn default_config_matches_paper_table_2() {
        let c = ReplayConfig::default();
        assert_eq!(c.num_nodes, 5);
        assert_eq!(c.pis_per_node, 44);
        assert_eq!(c.ticks_per_observation, 10);
        assert_eq!(c.capacity_ticks, 250_000);
        // 5 clients × 44 PIs × 10 ticks = 2200 features; the paper reports
        // 1760 because its observation packs 8 ticks of the 44-PI vector —
        // both are derived from the same rule; our default follows Table 1's
        // "10 ticks per observation".
        assert_eq!(c.observation_size(), 2200);
    }

    #[test]
    fn insert_and_lookup() {
        let db = filled_db(20);
        assert_eq!(db.len(), 20);
        assert_eq!(db.latest_tick(), Some(19));
        assert_eq!(db.earliest_tick(), Some(0));
        assert_eq!(db.action_at(7), Some(2));
        assert_eq!(db.objective_at(3), Some(103.0));
        assert_eq!(db.reward_at(3), Some(104.0));
        assert_eq!(db.reward_at(19), None, "no objective for tick 20 yet");
        assert_eq!(db.total_inserted(), 40);
        assert!(db.memory_bytes() > 0);
    }

    #[test]
    fn observation_stacks_ticks_oldest_first() {
        let db = filled_db(20);
        let obs = db.observation_at(10).unwrap();
        assert_eq!(obs.features.len(), 4 * 2 * 3);
        // Row 0 of the stack is tick 7 (oldest), last row is tick 10.
        assert_eq!(
            obs.features[(0, 0)],
            7.0,
            "first feature is tick 7, node 0, PI 0"
        );
        let width = 2 * 3;
        assert_eq!(obs.features[(0, 3 * width)], 10.0, "last row is tick 10");
        // Node 1's PI 1 in the last row.
        assert_eq!(obs.features[(0, 3 * width + 3 + 1)], 1.0);
    }

    #[test]
    fn observation_requires_full_window() {
        let db = filled_db(20);
        assert!(
            db.observation_at(2).is_none(),
            "window would start before tick 0"
        );
        assert!(db.observation_at(3).is_some());
    }

    #[test]
    fn missing_entries_within_tolerance_are_filled() {
        let mut db = ReplayDb::new(small_config());
        for t in 0..10u64 {
            db.insert_snapshot(t, 0, vec![t as f64, 0.0, 0.0]);
            // Node 1 misses tick 7 only: 1 of 8 slots in the window = 12.5 % < 20 %.
            if t != 7 {
                db.insert_snapshot(t, 1, vec![t as f64 * 10.0, 1.0, 1.0]);
            }
        }
        let obs = db.observation_at(9).unwrap();
        // Tick 7's node-1 slot should be filled from tick 6 (value 60).
        let width = 2 * 3;
        let row_of_7 = 1; // window rows: 6,7,8,9
        assert_eq!(obs.features[(0, row_of_7 * width + 3)], 60.0);
    }

    #[test]
    fn too_many_missing_entries_rejected() {
        let mut db = ReplayDb::new(small_config());
        for t in 0..10u64 {
            db.insert_snapshot(t, 0, vec![t as f64, 0.0, 0.0]);
            // Node 1 never reports: 4 of 8 slots missing = 50 % > 20 %.
        }
        assert!(db.observation_at(9).is_none());
    }

    #[test]
    fn eviction_respects_capacity() {
        let mut db = ReplayDb::new(ReplayConfig {
            capacity_ticks: 50,
            ..small_config()
        });
        for t in 0..200u64 {
            db.insert_snapshot(t, 0, vec![1.0, 2.0, 3.0]);
            db.insert_snapshot(t, 1, vec![1.0, 2.0, 3.0]);
            db.insert_objective(t, 1.0);
            db.insert_action(t, 0);
        }
        assert_eq!(db.len(), 50);
        assert_eq!(db.earliest_tick(), Some(150));
        assert_eq!(db.total_inserted(), 400);
        // Old objectives/actions for evicted ticks are gone too.
        assert!(db.objective_at(10).is_none());
        assert!(db.action_at(10).is_none());
        // 200 dense ticks through a 50-slot ring retire 150 snapshot ticks.
        assert_eq!(db.evicted_ticks(), 150);
    }

    #[test]
    fn stale_objectives_and_actions_never_evict_newer_records() {
        let mut db = ReplayDb::new(ReplayConfig {
            capacity_ticks: 50,
            ..small_config()
        });
        for t in 0..120u64 {
            db.insert_objective(t, t as f64);
            db.insert_action(t, (t % 3) as usize);
        }
        // Tick 60 shares slot 10 with retained tick 110: the stale arrivals
        // must be dropped, not destroy the newer records.
        db.insert_objective(60, -1.0);
        db.insert_action(60, 9);
        assert_eq!(db.objective_at(110), Some(110.0));
        assert_eq!(db.action_at(110), Some(2));
        assert!(db.objective_at(60).is_none());
        assert!(db.action_at(60).is_none());
    }

    #[test]
    fn expired_late_arrivals_never_evict_newer_data() {
        // A report delayed by more than `capacity` ticks collides with the
        // slot of a newer tick; it must be dropped (as the legacy store's
        // oldest-first eviction would have done immediately), never destroy
        // the newer tick's data.
        let mut db = ReplayDb::new(ReplayConfig {
            capacity_ticks: 50,
            ..small_config()
        });
        for t in 0..120u64 {
            for n in 0..2 {
                db.insert_snapshot(t, n, vec![t as f64, n as f64, 0.0]);
            }
            db.insert_objective(t, t as f64);
            db.insert_action(t, 0);
        }
        // Tick 60 shares slot 60 % 50 = 10 with retained tick 110.
        db.insert_snapshot(60, 0, vec![-1.0, -1.0, -1.0]);
        assert_eq!(db.len(), 50, "stale insert must not change retention");
        assert_eq!(db.earliest_tick(), Some(70));
        assert_eq!(db.objective_at(110), Some(110.0), "newer data survives");
        assert_eq!(db.action_at(110), Some(0));
        let mut out = vec![0.0; db.config().observation_size()];
        assert!(db.write_observation(110, &mut out));
        assert!(
            out.iter().all(|&v| v >= 0.0),
            "stale PI values must not leak into observations"
        );
    }

    #[test]
    fn backward_fill_is_bounded_under_a_poisoned_node_index() {
        // Ticks arrive off the wire, so a corrupt far-future tick can pass
        // the daemon's content checks and poison `node_latest` before the
        // record itself is evicted. The fill must stay bounded by the ring
        // length — a 2⁴⁰-wide numeric gap must not become a 2⁴⁰-step walk —
        // and still find the node's genuinely retained older snapshot.
        let mut db = ReplayDb::new(ReplayConfig {
            capacity_ticks: 50,
            missing_entry_tolerance: 0.5,
            ..small_config()
        });
        for t in 0..8u64 {
            db.insert_snapshot(t, 0, vec![t as f64, 0.0, 0.0]);
            db.insert_snapshot(t, 1, vec![t as f64, 1.0, 1.0]);
        }
        let huge = 1u64 << 40; // multiple of 50 ⇒ slot 0, colliding with tick 0
        db.insert_snapshot(huge, 0, vec![-1.0, -1.0, -1.0]);
        // Node 1 keeps reporting in the same residue neighbourhood, evicting
        // node 0's huge-tick snapshot while node_latest[0] still points at
        // it; node 0 itself goes silent.
        for t in huge + 49..=huge + 52 {
            db.insert_snapshot(t, 1, vec![t as f64, 1.0, 1.0]);
        }
        // Node 0's entries for the whole window are missing; the fill must
        // complete (bounded by the ring, not the 2⁴⁰ tick gap) and reach
        // node 0's newest retained snapshot, tick 7.
        let obs = db
            .observation_at(huge + 52)
            .expect("within tolerance: only node 0's rows are missing");
        let width = 2 * 3;
        for row in 0..4 {
            assert_eq!(obs.features[(0, row * width)], 7.0, "filled from tick 7");
        }
    }

    #[test]
    fn sampleable_range_is_sensible() {
        let db = filled_db(30);
        let (lo, hi) = db.sampleable_range().unwrap();
        assert!(lo >= 4);
        assert!(hi <= 29);
        assert!(lo < hi);
        let empty = ReplayDb::new(small_config());
        assert!(empty.sampleable_range().is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_id_panics() {
        let mut db = ReplayDb::new(small_config());
        db.insert_snapshot(0, 9, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "expected 3 PIs")]
    fn bad_pi_width_panics() {
        let mut db = ReplayDb::new(small_config());
        db.insert_snapshot(0, 0, vec![1.0]);
    }

    #[test]
    fn decode_rejects_derived_state_that_disagrees_with_the_slots() {
        use capes_persist::{Persist, PersistError, Reader, Writer};
        let round_trip = |db: &ReplayDb| {
            let mut w = Writer::new();
            db.encode(&mut w);
            ReplayDb::decode(&mut Reader::new(&w.into_vec()))
        };
        // A full ring: the next insert evicts, which is where a wrong count
        // used to underflow.
        let honest = filled_db(100);
        let mut restored = round_trip(&honest).expect("an honest snapshot decodes");
        restored.insert_snapshot(100, 0, vec![0.0; 3]);
        assert_eq!((restored.len(), restored.earliest_tick()), (100, Some(1)));

        type Corrupt = fn(&mut ReplayDb);
        let corruptions: [(&str, Corrupt); 7] = [
            ("occupied ticks", |db| db.occupied_ticks = 0),
            ("snapshot rows", |db| db.snapshot_rows -= 1),
            ("objective count", |db| db.num_objectives += 1),
            ("action count", |db| db.num_actions = 0),
            ("earliest", |db| db.earliest = Some(1)),
            ("latest", |db| db.latest = None),
            ("slot tick", |db| db.slots[3].tick = Some(4)),
        ];
        for (what, corrupt) in corruptions {
            let mut db = honest.clone();
            corrupt(&mut db);
            let err = round_trip(&db).err();
            let rejected = matches!(err, Some(PersistError::BadValue { .. }));
            assert!(rejected, "{what}: {err:?}");
        }
    }
}
