//! Algorithm 1 of the paper: minibatch construction.
//!
//! A training step needs `w_t = (s_t, s_{t+1}, a_t, r_t)`. Algorithm 1 draws
//! timestamps uniformly at random, keeps those for which the Replay DB has
//! enough data, and repeats until the requested number of samples has been
//! collected.

use crate::db::ReplayDb;
use crate::record::Tick;
use capes_tensor::Matrix;
use rand::Rng;
use std::fmt;

/// Caller-owned, reusable batch buffers filled by
/// [`ReplayDb::construct_minibatch_into`]: a batch of transitions
/// (`minibatch size` of them, paper default 32) ready for one
/// stochastic-gradient-descent update.
///
/// The sampler encodes states and next-states straight from the ring buffer
/// into these matrices. A trainer allocates one `ReplayBatch` at start-up and
/// refills it every tick with zero allocator traffic.
#[derive(Debug, Clone)]
pub struct ReplayBatch {
    pub(crate) states: Matrix,
    pub(crate) next_states: Matrix,
    pub(crate) actions: Vec<usize>,
    pub(crate) rewards: Vec<f64>,
    pub(crate) ticks: Vec<Tick>,
    pub(crate) timestamps_drawn: usize,
}

impl ReplayBatch {
    /// Allocates buffers for `n` transitions of `observation_size` features.
    pub fn new(n: usize, observation_size: usize) -> Self {
        assert!(n > 0, "minibatch size must be positive");
        assert!(observation_size > 0, "observation size must be positive");
        ReplayBatch {
            states: Matrix::zeros(n, observation_size),
            next_states: Matrix::zeros(n, observation_size),
            actions: vec![0; n],
            rewards: vec![0.0; n],
            ticks: vec![0; n],
            timestamps_drawn: 0,
        }
    }

    /// Builds a batch from pre-stacked matrices — for synthetic training
    /// loops and tests that do not sample from a replay database.
    ///
    /// # Panics
    /// Panics if the row counts of the four parts disagree.
    pub fn from_parts(
        states: Matrix,
        next_states: Matrix,
        actions: Vec<usize>,
        rewards: Vec<f64>,
    ) -> Self {
        assert_eq!(states.shape(), next_states.shape(), "state shape mismatch");
        assert_eq!(states.rows(), actions.len(), "action count mismatch");
        assert_eq!(states.rows(), rewards.len(), "reward count mismatch");
        let n = states.rows();
        ReplayBatch {
            states,
            next_states,
            actions,
            rewards,
            ticks: vec![0; n],
            timestamps_drawn: 0,
        }
    }

    /// Number of transitions the batch holds.
    pub fn len(&self) -> usize {
        self.states.rows()
    }

    /// Always `false`: a batch cannot be constructed empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Observation width of each state row.
    pub fn observation_size(&self) -> usize {
        self.states.cols()
    }

    /// Sampled states, one per row.
    pub fn states(&self) -> &Matrix {
        &self.states
    }

    /// Sampled next-states, one per row.
    pub fn next_states(&self) -> &Matrix {
        &self.next_states
    }

    /// Action index of each sampled transition.
    pub fn actions(&self) -> &[usize] {
        &self.actions
    }

    /// Reward of each sampled transition.
    pub fn rewards(&self) -> &[f64] {
        &self.rewards
    }

    /// State tick of each sampled transition.
    pub fn ticks(&self) -> &[Tick] {
        &self.ticks
    }

    /// Candidate timestamps drawn by the last successful fill — a measure
    /// of how sparse the usable data still is.
    pub fn timestamps_drawn(&self) -> usize {
        self.timestamps_drawn
    }
}

/// Why a minibatch could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MinibatchError {
    /// The database does not yet span enough ticks to form even one
    /// observation window.
    NotEnoughData,
    /// The sampling loop hit its iteration budget before filling the batch —
    /// the DB spans enough ticks but almost none of them are usable (for
    /// example, no actions have been recorded yet).
    TooSparse {
        /// Transitions collected before giving up.
        collected: usize,
        /// Batch size that was requested.
        requested: usize,
    },
}

impl fmt::Display for MinibatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinibatchError::NotEnoughData => {
                write!(f, "replay database does not span a full observation window")
            }
            MinibatchError::TooSparse {
                collected,
                requested,
            } => write!(
                f,
                "could not fill minibatch: {collected}/{requested} usable transitions found"
            ),
        }
    }
}

impl std::error::Error for MinibatchError {}

impl ReplayDb {
    /// Allocation-free Algorithm 1: fills every row of `batch` with a sampled
    /// transition, encoding states and next-states straight from the ring
    /// buffer into the batch matrices.
    ///
    /// Timestamps are drawn uniformly from the sampleable range; a timestamp
    /// is kept only if the DB "contains enough data" at it (complete-enough
    /// observations at `t` and `t+1`, a recorded action at `t`, and an
    /// objective value at `t+1` for the reward). The loop keeps drawing until
    /// the batch is full or an iteration budget proportional to its size is
    /// exhausted.
    ///
    /// On error the batch contents are unspecified and must not be trained
    /// on.
    ///
    /// # Panics
    /// Panics if `batch`'s observation width differs from this database's.
    pub fn construct_minibatch_into<R: Rng + ?Sized>(
        &self,
        batch: &mut ReplayBatch,
        rng: &mut R,
    ) -> Result<(), MinibatchError> {
        assert_eq!(
            batch.observation_size(),
            self.config().observation_size(),
            "batch observation width does not match the database configuration"
        );
        let n = batch.len();
        let (lo, hi) = self
            .sampleable_range()
            .ok_or(MinibatchError::NotEnoughData)?;
        if hi <= lo {
            return Err(MinibatchError::NotEnoughData);
        }

        let mut filled = 0usize;
        let mut drawn = 0usize;
        // Generous budget: the paper's loop runs until filled; we bound it so a
        // DB with zero recorded actions cannot spin forever. It is checked
        // once per round of `n - filled` draws, so a round may overshoot it.
        let budget = n * 200;

        while filled < n && drawn < budget {
            let samples_needed = n - filled;
            for _ in 0..samples_needed {
                let t = rng.gen_range(lo..=hi);
                drawn += 1;
                if self.fill_row(t, batch, filled) {
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

    /// Algorithm 1's per-candidate body, shared by the single-stripe and the
    /// weighted arena sampler: keeps candidate `t` if the DB "contains enough
    /// data" at it — an action at `t`, a reward (the objective at `t + 1`)
    /// and complete-enough observations at `t` and `t + 1` — writing the
    /// transition into `batch` row `row`. Returns whether it was kept.
    pub(crate) fn fill_row(&self, t: Tick, batch: &mut ReplayBatch, row: usize) -> bool {
        let (Some(action), Some(reward)) = (self.action_at(t), self.reward_at(t)) else {
            return false;
        };
        // A rejected candidate may leave a partially written row behind; the
        // next candidate overwrites every slot of it.
        if !self.write_observation(t, batch.states.row_mut(row))
            || !self.write_observation(t + 1, batch.next_states.row_mut(row))
        {
            return false;
        }
        batch.actions[row] = action;
        batch.rewards[row] = reward;
        batch.ticks[row] = t;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::ReplayConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config() -> ReplayConfig {
        ReplayConfig {
            num_nodes: 2,
            pis_per_node: 4,
            ticks_per_observation: 5,
            missing_entry_tolerance: 0.2,
            capacity_ticks: 10_000,
        }
    }

    fn filled_db(ticks: u64) -> ReplayDb {
        let mut db = ReplayDb::new(config());
        for t in 0..ticks {
            for n in 0..2 {
                db.insert_snapshot(t, n, vec![t as f64, n as f64, 0.5, -0.5]);
            }
            db.insert_objective(t, 200.0 + (t % 17) as f64);
            db.insert_action(t, (t % 5) as usize);
        }
        db
    }

    fn sample(db: &ReplayDb, n: usize, seed: u64) -> ReplayBatch {
        let mut batch = ReplayBatch::new(n, config().observation_size());
        db.construct_minibatch_into(&mut batch, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        batch
    }

    #[test]
    fn fills_requested_batch() {
        let db = filled_db(300);
        let batch = sample(&db, 32, 1);
        assert_eq!(batch.len(), 32);
        assert!(batch.timestamps_drawn() >= 32);
        for (i, &tick) in batch.ticks().iter().enumerate() {
            let state = db.observation_at(tick).unwrap();
            let next_state = db.observation_at(tick + 1).unwrap();
            assert_eq!(batch.states().row(i), state.features.as_slice());
            assert_eq!(batch.next_states().row(i), next_state.features.as_slice());
            // Reward equals the stored objective of the next tick.
            assert_eq!(batch.rewards()[i], db.objective_at(tick + 1).unwrap());
            assert_eq!(batch.actions()[i], db.action_at(tick).unwrap());
        }
    }

    #[test]
    fn sampling_is_spread_over_time() {
        let db = filled_db(2000);
        let batch = sample(&db, 256, 2);
        let min = batch.ticks().iter().min().unwrap();
        let max = batch.ticks().iter().max().unwrap();
        assert!(
            max - min > 1000,
            "uniform sampling should span most of the DB ({min}..{max})"
        );
    }

    #[test]
    fn partially_sparse_db_still_fills_batch() {
        // No action on odd ticks; sampling must skip them.
        let mut db = ReplayDb::new(config());
        for t in 0..400u64 {
            for n in 0..2 {
                db.insert_snapshot(t, n, vec![t as f64, n as f64, 0.5, -0.5]);
            }
            db.insert_objective(t, 200.0);
            if t % 2 == 0 {
                db.insert_action(t, (t % 5) as usize);
            }
        }
        let batch = sample(&db, 64, 5);
        assert_eq!(batch.len(), 64);
        assert!(batch.timestamps_drawn() > 64, "rejected draws are counted");
        assert!(batch.ticks().iter().all(|t| t % 2 == 0));
        // Experience replay needs variety, not the same transition 64 times.
        let distinct: std::collections::HashSet<u64> = batch.ticks().iter().copied().collect();
        assert!(distinct.len() > 16);
    }

    #[test]
    fn into_path_overwrites_stale_buffer_contents() {
        let db = filled_db(300);
        let mut batch = ReplayBatch::new(8, config().observation_size());
        batch.states.as_mut_slice().fill(f64::NAN);
        batch.next_states.as_mut_slice().fill(f64::NAN);
        let mut rng = StdRng::seed_from_u64(10);
        db.construct_minibatch_into(&mut batch, &mut rng).unwrap();
        assert!(batch.states().all_finite());
        assert!(batch.next_states().all_finite());
    }

    #[test]
    fn into_path_reports_not_enough_data() {
        let db = ReplayDb::new(config());
        let mut batch = ReplayBatch::new(8, config().observation_size());
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(
            db.construct_minibatch_into(&mut batch, &mut rng)
                .unwrap_err(),
            MinibatchError::NotEnoughData
        );
    }

    #[test]
    fn into_path_reports_sparseness() {
        let mut db = ReplayDb::new(config());
        for t in 0..100u64 {
            for n in 0..2 {
                db.insert_snapshot(t, n, vec![1.0, 2.0, 3.0, 4.0]);
            }
            db.insert_objective(t, 1.0);
            // No actions recorded at all.
        }
        let mut batch = ReplayBatch::new(8, config().observation_size());
        let mut rng = StdRng::seed_from_u64(12);
        match db
            .construct_minibatch_into(&mut batch, &mut rng)
            .unwrap_err()
        {
            MinibatchError::TooSparse {
                collected,
                requested,
            } => {
                assert_eq!(collected, 0);
                assert_eq!(requested, 8);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "width does not match")]
    fn into_path_rejects_mismatched_batch_width() {
        let db = filled_db(50);
        let mut batch = ReplayBatch::new(4, 3);
        let mut rng = StdRng::seed_from_u64(13);
        let _ = db.construct_minibatch_into(&mut batch, &mut rng);
    }

    #[test]
    fn error_messages_are_descriptive() {
        assert!(MinibatchError::NotEnoughData.to_string().contains("window"));
        let e = MinibatchError::TooSparse {
            collected: 3,
            requested: 32,
        };
        assert!(e.to_string().contains("3/32"));
    }
}
