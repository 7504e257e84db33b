//! The DRL agent: action selection (ε-greedy) plus training.
//!
//! This corresponds to the paper's "DRL Engine" / "Deep Q-Learning Daemon":
//! it reads observations, suggests actions and trains on experience-replay
//! minibatches. Carrying the learned model between sessions is
//! [`crate::checkpoint`]'s job.

use crate::action::ActionSpace;
use crate::epsilon::EpsilonSchedule;
use crate::qnet::{best_action_in_row, QNetwork};
use crate::trainer::{TrainReport, Trainer, TrainerConfig};
use capes_nn::Workspace;
use capes_replay::{MinibatchError, Observation, ReplayArena, ReplayBatch, SharedReplayDb};
use capes_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Static configuration of a [`DqnAgent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DqnAgentConfig {
    /// Width of the flattened observation the agent consumes.
    pub observation_size: usize,
    /// Number of tunable parameters (the action space is `2 × this + 1`).
    pub num_params: usize,
    /// Size of the minibatch for each training step (paper: 32).
    pub minibatch_size: usize,
    /// Training hyperparameters.
    pub trainer: TrainerConfig,
    /// Exploration schedule.
    pub epsilon: EpsilonSchedule,
}

impl DqnAgentConfig {
    /// Paper-default agent for the given observation width and parameter
    /// count.
    pub fn paper_default(observation_size: usize, num_params: usize) -> Self {
        DqnAgentConfig {
            observation_size,
            num_params,
            minibatch_size: 32,
            trainer: TrainerConfig::default(),
            epsilon: EpsilonSchedule::paper_default(),
        }
    }

    /// `Ok` if `network` has the input width and the `2 × num_params + 1`
    /// outputs this configuration describes. Both sides come from a file;
    /// the network's are bounded by the bytes that were in it, the
    /// configuration's are not, hence the checked arithmetic.
    pub(crate) fn check_network(
        &self,
        network: &QNetwork,
    ) -> Result<(), capes_persist::PersistError> {
        let num_actions = self
            .num_params
            .checked_mul(2)
            .and_then(|n| n.checked_add(1));
        if network.observation_size() != self.observation_size
            || Some(network.num_actions()) != num_actions
        {
            return Err(capes_persist::PersistError::BadValue {
                what: "network width or action count disagrees with the agent configuration",
            });
        }
        Ok(())
    }
}

impl capes_persist::Persist for DqnAgentConfig {
    const MIN_SIZE: usize = 3 * 8
        + <TrainerConfig as capes_persist::Persist>::MIN_SIZE
        + <EpsilonSchedule as capes_persist::Persist>::MIN_SIZE;

    fn encode(&self, w: &mut capes_persist::Writer) {
        w.put_usize(self.observation_size);
        w.put_usize(self.num_params);
        w.put_usize(self.minibatch_size);
        self.trainer.encode(w);
        self.epsilon.encode(w);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        let observation_size = r.get_usize()?;
        let num_params = r.get_usize()?;
        let minibatch_size = r.get_usize()?;
        let trainer = TrainerConfig::decode(r)?;
        let epsilon = EpsilonSchedule::decode(r)?;
        if observation_size == 0 || num_params == 0 || minibatch_size == 0 {
            return Err(capes_persist::PersistError::BadValue {
                what: "zero observation size, parameter count or minibatch size",
            });
        }
        Ok(DqnAgentConfig {
            observation_size,
            num_params,
            minibatch_size,
            trainer,
            epsilon,
        })
    }
}

/// The decision made by [`DqnAgent::decide`] (one per row of
/// [`DqnAgent::decide_batch`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActionDecision {
    /// Index of the chosen action.
    pub action: usize,
    /// `true` if the action was chosen uniformly at random (exploration)
    /// rather than greedily from the Q-network.
    pub explored: bool,
    /// ε used for the decision.
    pub epsilon: f64,
}

/// The CAPES deep-Q-learning agent.
#[derive(Debug, Clone)]
pub struct DqnAgent {
    config: DqnAgentConfig,
    action_space: ActionSpace,
    trainer: Trainer,
    epsilon: EpsilonSchedule,
    rng: StdRng,
    /// Persistent minibatch buffers, allocated on the first training call and
    /// refilled in place every tick (see [`ReplayBatch`]).
    batch_buf: Option<ReplayBatch>,
    /// Persistent single-row inference workspace behind [`DqnAgent::decide`]:
    /// at steady state a greedy decision performs zero heap allocations.
    decide_ws: Option<Box<Workspace>>,
    /// Persistent fleet-sized inference workspace behind
    /// [`DqnAgent::decide_batch`]. Kept separate from `decide_ws` so
    /// interleaving single and batched decisions does not thrash either
    /// buffer set.
    fleet_ws: Option<Box<Workspace>>,
}

impl DqnAgent {
    /// Creates an agent with freshly-initialised networks.
    pub fn new(config: DqnAgentConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let action_space = ActionSpace::new(config.num_params);
        let online = QNetwork::new(config.observation_size, action_space.len(), &mut rng);
        Self::from_parts(config, Trainer::new(online, config.trainer), rng)
    }

    /// Assembles an agent at the start of its ε schedule around an
    /// already-built trainer, whose networks the caller has checked with
    /// [`DqnAgentConfig::check_network`].
    pub(crate) fn from_parts(config: DqnAgentConfig, trainer: Trainer, rng: StdRng) -> Self {
        DqnAgent {
            config,
            action_space: ActionSpace::new(config.num_params),
            trainer,
            epsilon: config.epsilon,
            rng,
            batch_buf: None,
            decide_ws: None,
            fleet_ws: None,
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &DqnAgentConfig {
        &self.config
    }

    /// The discrete action space.
    pub fn action_space(&self) -> ActionSpace {
        self.action_space
    }

    /// The online Q-network.
    pub fn q_network(&self) -> &QNetwork {
        self.trainer.online()
    }

    /// The slowly-updated target network.
    pub fn target_network(&self) -> &QNetwork {
        self.trainer.target()
    }

    /// Number of training steps performed so far.
    pub fn training_steps(&self) -> u64 {
        self.trainer.steps()
    }

    /// Full decision procedure for one action tick, covering the cold-start
    /// cases an engine otherwise has to special-case:
    ///
    /// * with an observation: ε-greedy selection (training) or the greedy
    ///   action (`greedy = true`, tuning);
    /// * without an observation (not enough history yet): a uniformly random
    ///   exploratory action while training, the NULL action while tuning.
    ///
    /// Greedy evaluations run through the agent's persistent inference
    /// workspace: after the first call, a decision performs zero heap
    /// allocations (the exploration branch never touches the network at all).
    pub fn decide(
        &mut self,
        observation: Option<&Observation>,
        tick: u64,
        greedy: bool,
    ) -> ActionDecision {
        let eps = self.epsilon.value_at(tick);
        let online = self.trainer.online();
        let decide_ws = &mut self.decide_ws;
        let greedy_action = observation.map(|obs| {
            move || {
                let ws = decide_ws
                    .get_or_insert_with(|| Box::new(Workspace::new_inference(online.mlp(), 1)));
                best_action_in_row(online.q_values_into(&obs.features, ws), 0)
            }
        });
        epsilon_greedy(&mut self.rng, eps, self.action_space, greedy, greedy_action)
    }

    /// Batched [`DqnAgent::decide`] for a fleet of deployments sharing this
    /// agent: one forward pass over all observation rows instead of one GEMM
    /// dispatch per cluster.
    ///
    /// `observations` stacks one row per cluster; row `i` is meaningful only
    /// when `has_obs[i]` is `true` (cold-start clusters keep whatever bytes
    /// the buffer held — they are forwarded but never read). Decisions are
    /// appended to `out` (cleared first), one per row, in row order, and each
    /// row replicates [`DqnAgent::decide`] exactly — same RNG consumption,
    /// same ε, same greedy tie-breaking — so a one-cluster fleet is
    /// bit-identical to the single-decision path. At steady state the call
    /// performs zero heap allocations (the workspace and `out`'s capacity
    /// persist).
    ///
    /// # Panics
    /// Panics if the row count differs from `has_obs.len()` or the column
    /// count differs from the configured observation size.
    pub fn decide_batch(
        &mut self,
        observations: &Matrix,
        has_obs: &[bool],
        tick: u64,
        greedy: bool,
        out: &mut Vec<ActionDecision>,
    ) {
        assert_eq!(
            observations.rows(),
            has_obs.len(),
            "one has_obs flag per observation row required"
        );
        assert_eq!(
            observations.cols(),
            self.config.observation_size,
            "observation width {} does not match the agent's {}",
            observations.cols(),
            self.config.observation_size
        );
        out.clear();
        let eps = self.epsilon.value_at(tick);
        // The forward pass consumes no randomness, so running it up front for
        // every row (even rows that will explore) leaves the RNG stream
        // identical to N sequential `decide` calls.
        let q = if has_obs.iter().any(|&b| b) {
            let online = self.trainer.online();
            let ws = self.fleet_ws.get_or_insert_with(|| {
                Box::new(Workspace::new_inference(online.mlp(), observations.rows()))
            });
            Some(online.q_values_into(observations, ws))
        } else {
            None
        };
        for (row, &has) in has_obs.iter().enumerate() {
            let greedy_action = q
                .filter(|_| has)
                .map(|q| move || best_action_in_row(q, row));
            out.push(epsilon_greedy(
                &mut self.rng,
                eps,
                self.action_space,
                greedy,
                greedy_action,
            ));
        }
    }

    /// Signals a scheduled workload change at `tick`; exploration is bumped
    /// back up for `duration_ticks` ticks (paper §3.6).
    pub fn notify_workload_change(&mut self, tick: u64, duration_ticks: u64) {
        self.epsilon.bump_for_workload_change(tick, duration_ticks);
    }

    /// Performs one training step on a minibatch drawn from the shared replay
    /// database. Returns `Ok(None)` silently if the database cannot yet
    /// produce a full minibatch (normal at the start of a training session).
    ///
    /// This is the system's hot path (one call per tick, forever): sampling
    /// encodes transitions straight into the agent's persistent
    /// [`ReplayBatch`] and the training step runs through the trainer's
    /// persistent workspaces, so at steady state the whole call performs zero
    /// heap allocations.
    pub fn train_from_db(
        &mut self,
        db: &SharedReplayDb,
    ) -> Result<Option<TrainReport>, MinibatchError> {
        let batch = self.batch_buf.get_or_insert_with(|| {
            ReplayBatch::new(self.config.minibatch_size, self.config.observation_size)
        });
        match db.construct_minibatch_into(batch, &mut self.rng) {
            Ok(()) => Ok(Some(self.trainer.train_step_batch(batch))),
            Err(MinibatchError::NotEnoughData) | Err(MinibatchError::TooSparse { .. }) => Ok(None),
        }
    }

    /// [`DqnAgent::train_from_db`] over a weighted stripe set of the replay
    /// arena: the minibatch is drawn across every positively-weighted stripe
    /// (see [`ReplayArena::construct_minibatch_weighted_into`]). Like
    /// `train_from_db`, the call is allocation-free at steady state and
    /// returns `Ok(None)` while the weighted stripes cannot yet fill a batch.
    pub fn train_weighted(
        &mut self,
        arena: &ReplayArena,
        weights: &[f64],
    ) -> Result<Option<TrainReport>, MinibatchError> {
        let batch = self.batch_buf.get_or_insert_with(|| {
            ReplayBatch::new(self.config.minibatch_size, self.config.observation_size)
        });
        match arena.construct_minibatch_weighted_into(weights, batch, &mut self.rng) {
            Ok(()) => Ok(Some(self.trainer.train_step_batch(batch))),
            Err(MinibatchError::NotEnoughData) | Err(MinibatchError::TooSparse { .. }) => Ok(None),
        }
    }
}

/// The ε-greedy rule behind one decision, shared by [`DqnAgent::decide`] and
/// every row of [`DqnAgent::decide_batch`] so both consume the RNG alike.
/// `greedy_action` is `Some` when the row has an observation; it is called
/// only when the rule picks the greedy action.
fn epsilon_greedy(
    rng: &mut StdRng,
    eps: f64,
    action_space: ActionSpace,
    greedy: bool,
    greedy_action: Option<impl FnOnce() -> usize>,
) -> ActionDecision {
    // Tuning never explores; training without an observation always does
    // and, with one, explores with probability ε.
    let explored = !greedy && (greedy_action.is_none() || rng.gen::<f64>() < eps);
    let action = match greedy_action {
        _ if explored => rng.gen_range(0..action_space.len()),
        Some(greedy_action) => greedy_action(),
        None => action_space.encode(crate::Action::Null),
    };
    ActionDecision {
        action,
        explored,
        epsilon: eps,
    }
}

impl capes_persist::Persist for DqnAgent {
    const MIN_SIZE: usize = <DqnAgentConfig as capes_persist::Persist>::MIN_SIZE
        + <Trainer as capes_persist::Persist>::MIN_SIZE
        + <EpsilonSchedule as capes_persist::Persist>::MIN_SIZE
        + 32;

    fn encode(&self, w: &mut capes_persist::Writer) {
        // Unlike the model checkpoint (which reseeds the RNG and resets the
        // optimizer), this carries the full mutable state: a restored agent's
        // future decisions and training steps are bit-identical.
        self.config.encode(w);
        self.trainer.encode(w);
        self.epsilon.encode(w);
        self.rng.state().encode(w);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        let config = DqnAgentConfig::decode(r)?;
        let trainer = Trainer::decode(r)?;
        let epsilon = EpsilonSchedule::decode(r)?;
        let rng_state = <[u64; 4]>::decode(r)?;
        config.check_network(trainer.online())?;
        if rng_state == [0u64; 4] {
            return Err(capes_persist::PersistError::BadValue {
                what: "all-zero agent RNG state",
            });
        }
        let mut agent = DqnAgent::from_parts(config, trainer, StdRng::from_state(rng_state));
        agent.epsilon = epsilon;
        Ok(agent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capes_replay::ReplayConfig;
    use capes_tensor::Matrix;

    fn obs(values: &[f64]) -> Observation {
        Observation {
            tick: 0,
            features: Matrix::row_vector(values),
        }
    }

    /// The greedy action for `o` read straight off the online network, on
    /// a fresh inference workspace.
    fn argmax_q(agent: &DqnAgent, o: &Observation) -> usize {
        let q = agent.q_network();
        let mut ws = Workspace::new_inference(q.mlp(), 1);
        best_action_in_row(q.q_values_into(&o.features, &mut ws), 0)
    }

    fn small_config() -> DqnAgentConfig {
        DqnAgentConfig {
            observation_size: 6,
            num_params: 2,
            minibatch_size: 8,
            trainer: TrainerConfig::default(),
            epsilon: EpsilonSchedule::new(1.0, 0.05, 100),
        }
    }

    #[test]
    fn paper_default_configuration() {
        let c = DqnAgentConfig::paper_default(2200, 2);
        assert_eq!(c.minibatch_size, 32);
        assert_eq!(c.trainer.discount_rate, 0.99);
        assert_eq!(c.epsilon.initial, 1.0);
        let agent = DqnAgent::new(
            DqnAgentConfig {
                observation_size: 20,
                ..c
            },
            1,
        );
        assert_eq!(agent.action_space().len(), 5);
    }

    #[test]
    fn early_training_is_mostly_random_late_training_mostly_greedy() {
        let mut agent = DqnAgent::new(small_config(), 2);
        let o = obs(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        let explored_early = (0..200)
            .filter(|_| agent.decide(Some(&o), 0, false).explored)
            .count();
        let explored_late = (0..200)
            .filter(|_| agent.decide(Some(&o), 10_000, false).explored)
            .count();
        assert!(explored_early > 150, "ε=1.0 should explore almost always");
        assert!(explored_late < 30, "ε=0.05 should rarely explore");
    }

    #[test]
    fn decide_covers_all_cold_start_cases() {
        let mut agent = DqnAgent::new(small_config(), 7);
        let o = obs(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        // Greedy with an observation takes the Q-network's argmax.
        let d = agent.decide(Some(&o), 10_000, true);
        assert!(!d.explored);
        assert_eq!(d.action, argmax_q(&agent, &o));
        // No observation while tuning: the NULL action (index 0), no
        // exploration.
        let d = agent.decide(None, 10_000, true);
        assert_eq!(d.action, 0);
        assert!(!d.explored);
        // No observation while training: uniformly random exploration.
        let d = agent.decide(None, 0, false);
        assert!(d.explored);
        assert!(d.action < agent.action_space().len());
        // With an observation while training: ε-greedy (ε=1 at tick 0 means
        // essentially always explored).
        let explored = (0..100)
            .filter(|_| agent.decide(Some(&o), 0, false).explored)
            .count();
        assert!(explored > 80);
    }

    #[test]
    fn decide_batch_matches_sequential_decides() {
        // A batched decision over N rows must replicate N sequential decides
        // on a cloned agent: same actions, same explored flags, same RNG
        // consumption afterwards.
        let mut batched = DqnAgent::new(small_config(), 11);
        let mut sequential = batched.clone();
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                (0..6)
                    .map(|j| ((i * 7 + j * 3) % 10) as f64 / 10.0 - 0.4)
                    .collect()
            })
            .collect();
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let stacked = Matrix::from_rows(&row_refs);
        let has_obs = [true, true, false, true, false, true];
        for (tick, greedy) in [(0u64, false), (500, false), (10_000, false), (10_000, true)] {
            let mut out = Vec::new();
            batched.decide_batch(&stacked, &has_obs, tick, greedy, &mut out);
            assert_eq!(out.len(), 6);
            for (i, d) in out.iter().enumerate() {
                let o = obs(&rows[i]);
                let observation = if has_obs[i] { Some(&o) } else { None };
                let expected = sequential.decide(observation, tick, greedy);
                assert_eq!(d.action, expected.action, "row {i} tick {tick}");
                assert_eq!(d.explored, expected.explored, "row {i} tick {tick}");
                assert_eq!(d.epsilon, expected.epsilon, "row {i} tick {tick}");
            }
        }
        // Both RNGs are in the same state: the next decisions still agree.
        let o = obs(&rows[0]);
        let mut out = Vec::new();
        batched.decide_batch(&stacked, &[true; 6], 50, false, &mut out);
        for (i, d) in out.iter().enumerate() {
            let o_i = obs(&rows[i]);
            let e = sequential.decide(Some(&o_i), 50, false);
            assert_eq!((d.action, d.explored), (e.action, e.explored));
        }
        assert_eq!(
            batched.decide(Some(&o), 99, true).action,
            sequential.decide(Some(&o), 99, true).action
        );
    }

    #[test]
    fn persistent_workspace_decide_matches_a_fresh_workspace() {
        let mut agent = DqnAgent::new(small_config(), 31);
        for i in 0..20 {
            let values: Vec<f64> = (0..6).map(|j| ((i + j) as f64).sin()).collect();
            let o = obs(&values);
            let via_workspace = agent.decide(Some(&o), 10_000, true).action;
            assert_eq!(via_workspace, argmax_q(&agent, &o));
        }
    }

    #[test]
    fn workload_change_bumps_exploration() {
        let mut agent = DqnAgent::new(small_config(), 4);
        let o = obs(&[0.0; 6]);
        // Long after annealing finished, exploration is rare…
        let before = (0..300)
            .filter(|_| agent.decide(Some(&o), 50_000, false).explored)
            .count();
        agent.notify_workload_change(50_000, 1_000);
        let after = (0..300)
            .filter(|_| agent.decide(Some(&o), 50_000, false).explored)
            .count();
        assert!(
            after > before,
            "bump must raise exploration ({before} → {after})"
        );
    }

    #[test]
    fn train_from_db_handles_empty_and_filled_databases() {
        let mut agent = DqnAgent::new(small_config(), 5);
        let db = SharedReplayDb::new(ReplayConfig {
            num_nodes: 2,
            pis_per_node: 3,
            ticks_per_observation: 1,
            missing_entry_tolerance: 0.2,
            capacity_ticks: 1000,
        });
        // Empty DB: no training happens, no error.
        assert!(agent.train_from_db(&db).unwrap().is_none());
        // Fill the DB with observations whose width matches 2 nodes × 3 PIs.
        for t in 0..200u64 {
            for n in 0..2 {
                db.insert_snapshot(t, n, vec![0.1 * t as f64 % 1.0, n as f64, 0.5]);
            }
            db.insert_objective(t, 100.0);
            db.insert_action(t, (t % 5) as usize);
        }
        let report = agent.train_from_db(&db).unwrap().expect("should train now");
        assert_eq!(report.step, 1);
        assert_eq!(agent.training_steps(), 1);
    }

    fn filled_arena(stripes: usize, ticks: u64) -> capes_replay::ReplayArena {
        let arena = capes_replay::ReplayArena::uniform(
            ReplayConfig {
                num_nodes: 2,
                pis_per_node: 3,
                ticks_per_observation: 1,
                missing_entry_tolerance: 0.2,
                capacity_ticks: 1000,
            },
            stripes,
        );
        for s in 0..stripes {
            let view = arena.stripe(s);
            for t in 0..ticks {
                for n in 0..2 {
                    view.insert_snapshot(t, n, vec![s as f64, n as f64, t as f64 % 7.0]);
                }
                view.insert_objective(t, 100.0 + s as f64);
                view.insert_action(t, (t % 5) as usize);
            }
        }
        arena
    }

    #[test]
    fn one_hot_weights_match_train_from_db() {
        let arena = filled_arena(3, 200);
        let db = arena.stripe(1);
        let mut own = DqnAgent::new(small_config(), 22);
        let mut weighted = own.clone();
        for _ in 0..5 {
            let a = own.train_from_db(&db).unwrap().unwrap();
            let b = weighted
                .train_weighted(&arena, &[0.0, 1.0, 0.0])
                .unwrap()
                .unwrap();
            assert_eq!(a.prediction_error, b.prediction_error);
            assert_eq!(a.loss, b.loss);
        }
    }

    #[test]
    fn weighted_training_spans_stripes() {
        let arena = filled_arena(2, 200);
        let mut agent = DqnAgent::new(small_config(), 23);
        let report = agent
            .train_weighted(&arena, &[1.0, 1.0])
            .unwrap()
            .expect("trains");
        assert_eq!(report.step, 1);
        // An empty arena yields no training step, like an empty DB.
        let empty = filled_arena(2, 0);
        assert!(agent.train_weighted(&empty, &[1.0, 1.0]).unwrap().is_none());
    }

    #[test]
    fn persist_round_trip_resumes_bit_identically() {
        use capes_persist::Persist;
        // Train an agent mid-experiment, snapshot it, and require that the
        // restored copy makes the same decisions AND takes the same Adam
        // steps — the property the model checkpoint (reset optimizer,
        // reseeded RNG) does not provide.
        let arena = filled_arena(2, 200);
        let db = arena.stripe(0);
        let mut original = DqnAgent::new(small_config(), 41);
        for _ in 0..6 {
            original.train_from_db(&db).unwrap().expect("trains");
        }
        let o = obs(&[0.3, 0.6, -0.4, 0.2, 0.0, 0.8]);
        let _ = original.decide(Some(&o), 30, false); // move the RNG off its seed

        let mut w = capes_persist::Writer::new();
        original.encode(&mut w);
        let bytes = w.into_vec();
        let mut r = capes_persist::Reader::new(&bytes);
        let mut restored = DqnAgent::decode(&mut r).unwrap();
        r.finish().unwrap();

        for tick in [35u64, 60, 90, 10_000] {
            let a = original.decide(Some(&o), tick, false);
            let b = restored.decide(Some(&o), tick, false);
            assert_eq!(
                (a.action, a.explored, a.epsilon),
                (b.action, b.explored, b.epsilon)
            );
        }
        for _ in 0..4 {
            let a = original.train_from_db(&db).unwrap().expect("trains");
            let b = restored.train_from_db(&db).unwrap().expect("trains");
            assert_eq!(a, b, "restored training must be bit-identical");
        }
        assert_eq!(original.q_network().distance_to(restored.q_network()), 0.0);
    }

    #[test]
    fn persist_rejects_network_that_disagrees_with_the_config() {
        use capes_persist::Persist;
        let agent = DqnAgent::new(small_config(), 42);
        let mut w = capes_persist::Writer::new();
        // Lie about the configured observation width: the decoded network no
        // longer matches.
        let mut config = *agent.config();
        config.observation_size = 7;
        config.encode(&mut w);
        agent.trainer.encode(&mut w);
        agent.epsilon.encode(&mut w);
        agent.rng.state().encode(&mut w);
        let bytes = w.into_vec();
        let err = DqnAgent::decode(&mut capes_persist::Reader::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("network width"), "{err}");
    }
}
