//! The unified tuning-engine interface.
//!
//! The paper's evaluation pits the DRL engine against search-based prior work
//! (random search, hill climbing, static defaults). Before this module each
//! comparator had its own driver loop; now every decision maker implements
//! [`TuningEngine`] and [`crate::system::CapesSystem`] drives whichever engine
//! it was built with through one generic per-tick code path — monitoring
//! agents, Interface Daemon, Action Checker and Replay DB stay identical
//! across engines, exactly as the paper's architecture intends.
//!
//! Two engine families ship with the crate:
//!
//! * [`capes_drl::DqnAgent`] — the deep-Q-network engine (paper §3.4–§3.6),
//!   which implements the trait itself;
//! * [`SearchEngine`] — an online evaluator for classic one-shot search
//!   methods; any [`SearchStrategy`] (the comparators in [`crate::tuners`])
//!   plugs into it.
//!
//! Because actions are proposed once per tick *after* the tick has been
//! measured, the first measurement attributed to a fresh search candidate
//! still reflects its predecessor's parameters; with evaluation windows of
//! tens of ticks the bias is negligible (and matches the paper's one-second
//! action loop).

use crate::system::SystemTick;
use crate::target::TunableSpec;
use capes_drl::{ActionSpace, DqnAgent};
use capes_replay::{Observation, SharedReplayDb};

/// Everything an engine may inspect when proposing an action for one tick.
#[derive(Debug)]
pub struct EngineContext<'a> {
    /// Current action tick.
    pub tick: u64,
    /// The flattened observation ending at this tick, if the replay DB has
    /// accumulated enough history to build one.
    pub observation: Option<&'a Observation>,
    /// Parameter values the target system is currently using.
    pub current_params: &'a [f64],
    /// The tunable-parameter specifications of the target.
    pub specs: &'a [TunableSpec],
    /// `true` during training/search phases (the engine may explore),
    /// `false` during tuned measurements (the engine should exploit).
    pub explore: bool,
}

/// An engine's decision for one tick.
#[derive(Debug, Clone, PartialEq)]
pub struct ProposedAction {
    /// Index in the `2P + 1` discrete action space, when the engine reasons
    /// in ±step actions (the DRL engine). Recorded in the Replay DB.
    pub action_index: Option<usize>,
    /// Whether the proposal was exploratory.
    pub explored: bool,
    /// Absolute parameter values the target should use next.
    pub params: Vec<f64>,
}

/// A decision maker the CAPES system can be built around.
///
/// Implemented by the DQN agent ([`DqnAgent`]) and by [`SearchEngine`] for
/// the three search comparators, so sessions, experiments and benches drive
/// any engine through a single generic code path.
///
/// Engines must be [`Send`]: the fleet daemon shards its member systems
/// (each of which owns a boxed engine) across worker threads, one cluster
/// owned by exactly one worker per tick phase.
pub trait TuningEngine: Send {
    /// Human-readable engine name used in logs and benchmark output.
    fn name(&self) -> &str;

    /// Proposes the parameter values for the next tick.
    fn propose_action(&mut self, ctx: &EngineContext<'_>) -> ProposedAction;

    /// Receives the measured outcome of a tick (called once per tick, after
    /// the measurement that the engine's previous proposal influenced).
    /// Default: ignored.
    fn observe(&mut self, _tick: &SystemTick) {}

    /// Runs one training step against the replay database, returning the
    /// step's prediction error. Default: `None`, for engines that do not learn.
    fn train_step(&mut self, _db: &SharedReplayDb) -> Option<f64> {
        None
    }

    /// Signals a scheduled workload change (paper §3.6). Default: ignored.
    fn notify_workload_change(&mut self, _tick: u64, _bump_ticks: u64) {}

    /// `true` once the engine has finished searching and further exploration
    /// ticks would not change its proposal. Always `false` for online
    /// learners.
    fn is_converged(&self) -> bool {
        false
    }

    /// Exploration ticks the engine actually consumed searching, when it
    /// tracks them (`None` for online learners, which use every training
    /// tick they are given).
    fn exploration_ticks_used(&self) -> Option<u64> {
        None
    }

    /// The DQN agent, when this engine is one (checkpointing and snapshots
    /// persist it). Default: `None`.
    fn dqn_agent(&self) -> Option<&DqnAgent> {
        None
    }

    /// Mutable access to the DQN agent (checkpoint and snapshot restore).
    /// Default: `None`.
    fn dqn_agent_mut(&mut self) -> Option<&mut DqnAgent> {
        None
    }
}

// ---------------------------------------------------------------------------
// The DRL engine.
// ---------------------------------------------------------------------------

/// Maps a discrete `2P + 1` action index onto the absolute parameter vector
/// the target should use next: ±one `step` on the touched parameter, clamped
/// into its spec range. Shared by the DQN's `propose_action` and the fleet
/// daemon's batched scatter path so both produce identical proposals.
pub fn step_params(
    space: &ActionSpace,
    action: usize,
    current: &[f64],
    specs: &[TunableSpec],
) -> Vec<f64> {
    let directions = space.direction_vector(action);
    current
        .iter()
        .zip(directions.iter())
        .zip(specs.iter())
        .map(|((&value, &dir), spec)| spec.clamp(value + dir * spec.step))
        .collect()
}

/// The deep-Q-network engine: ε-greedy ±step actions plus experience-replay
/// training (paper §3.4–§3.7) on the system's own replay stripe (experience
/// sharing across clusters is the fleet's business: the `own`/`peers` stripe
/// weights `capes_fleet::FleetDaemon::set_profile_sharing` sets per profile).
impl TuningEngine for DqnAgent {
    fn name(&self) -> &str {
        "deep RL (DQN)"
    }

    fn propose_action(&mut self, ctx: &EngineContext<'_>) -> ProposedAction {
        let decision = self.decide(ctx.observation, ctx.tick, !ctx.explore);
        ProposedAction {
            action_index: Some(decision.action),
            explored: decision.explored,
            params: step_params(
                &self.action_space(),
                decision.action,
                ctx.current_params,
                ctx.specs,
            ),
        }
    }

    fn train_step(&mut self, db: &SharedReplayDb) -> Option<f64> {
        match self.train_from_db(db) {
            Ok(Some(report)) => Some(report.prediction_error),
            _ => None,
        }
    }

    fn notify_workload_change(&mut self, tick: u64, bump_ticks: u64) {
        DqnAgent::notify_workload_change(self, tick, bump_ticks);
    }

    fn dqn_agent(&self) -> Option<&DqnAgent> {
        Some(self)
    }

    fn dqn_agent_mut(&mut self) -> Option<&mut DqnAgent> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// Search engines.
// ---------------------------------------------------------------------------

/// A candidate-proposing search method (the strategy half of
/// [`SearchEngine`]). Implemented by the comparators in [`crate::tuners`].
/// `Send` because the wrapping [`SearchEngine`] is a [`TuningEngine`], which
/// fleet worker threads may carry across threads.
pub trait SearchStrategy: Send {
    /// Name used in logs and benchmark output.
    fn name(&self) -> &'static str;

    /// Given the last candidate and its score, produces the next candidate to
    /// evaluate, or `None` when the search is done. The first candidate is
    /// always the target's defaults.
    fn next_candidate(
        &mut self,
        specs: &[TunableSpec],
        last: &[f64],
        last_score: f64,
        evaluations: usize,
    ) -> Option<Vec<f64>>;
}

/// Drives any [`SearchStrategy`] through the [`TuningEngine`] interface:
/// each candidate is held for a fixed evaluation window of exploration ticks,
/// scored by mean objective value, and the best candidate wins. Once the
/// strategy stops proposing candidates the engine is converged and proposes
/// the best parameters forever (its "tuned" policy).
#[derive(Debug, Clone)]
pub struct SearchEngine<S: SearchStrategy> {
    strategy: S,
    eval_ticks: u64,
    specs: Vec<TunableSpec>,
    current: Vec<f64>,
    started: bool,
    exploring: bool,
    ticks_in_candidate: u64,
    score_acc: f64,
    best: Option<(Vec<f64>, f64)>,
    evaluations: usize,
    ticks_used: u64,
    converged: bool,
}

impl<S: SearchStrategy> SearchEngine<S> {
    /// Wraps `strategy`, evaluating each candidate for `eval_ticks` ticks.
    ///
    /// # Panics
    /// Panics if `eval_ticks` is zero.
    pub fn new(strategy: S, eval_ticks: u64) -> Self {
        assert!(
            eval_ticks > 0,
            "evaluation window must be at least one tick"
        );
        SearchEngine {
            strategy,
            eval_ticks,
            specs: Vec::new(),
            current: Vec::new(),
            started: false,
            exploring: false,
            ticks_in_candidate: 0,
            score_acc: 0.0,
            best: None,
            evaluations: 0,
            ticks_used: 0,
            converged: false,
        }
    }

    fn finish_candidate(&mut self) {
        let score = self.score_acc / self.ticks_in_candidate.max(1) as f64;
        self.evaluations += 1;
        let improved = match &self.best {
            Some((_, best_score)) => score > *best_score,
            None => true,
        };
        if improved {
            self.best = Some((self.current.clone(), score));
        }
        match self
            .strategy
            .next_candidate(&self.specs, &self.current, score, self.evaluations)
        {
            Some(candidate) => {
                self.current = candidate;
                self.ticks_in_candidate = 0;
                self.score_acc = 0.0;
            }
            None => self.converged = true,
        }
    }
}

impl<S: SearchStrategy> TuningEngine for SearchEngine<S> {
    fn name(&self) -> &str {
        self.strategy.name()
    }

    fn propose_action(&mut self, ctx: &EngineContext<'_>) -> ProposedAction {
        if !self.started {
            self.specs = ctx.specs.to_vec();
            self.current = ctx.specs.iter().map(|s| s.default).collect();
            self.started = true;
        }
        self.exploring = ctx.explore && !self.converged;
        let params = if self.exploring {
            self.current.clone()
        } else {
            // Exploit: the best candidate found so far (or the current one if
            // nothing has finished evaluating yet).
            self.best
                .as_ref()
                .map(|(p, _)| p.clone())
                .unwrap_or_else(|| self.current.clone())
        };
        ProposedAction {
            action_index: None,
            explored: self.exploring,
            params,
        }
    }

    fn observe(&mut self, tick: &SystemTick) {
        if !self.exploring {
            return;
        }
        self.score_acc += tick.objective;
        self.ticks_in_candidate += 1;
        self.ticks_used += 1;
        if self.ticks_in_candidate >= self.eval_ticks {
            self.finish_candidate();
        }
    }

    fn is_converged(&self) -> bool {
        self.converged
    }

    fn exploration_ticks_used(&self) -> Option<u64> {
        Some(self.ticks_used)
    }
}

// ---------------------------------------------------------------------------
// The null engine.
// ---------------------------------------------------------------------------

/// An engine that never proposes a change and never trains: every proposal
/// holds the target's current parameters.
///
/// Use it for deployments whose decisions are made *outside* the system's
/// per-tick loop — the fleet daemon drives its member systems this way (one
/// shared DQN decides for every cluster in a single batched forward pass and
/// the resulting actions are applied through
/// [`crate::system::CapesSystem::apply_action`]) — or for pure monitoring
/// setups that want the agents/daemon/replay pipeline without any tuning.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullEngine;

impl TuningEngine for NullEngine {
    fn name(&self) -> &str {
        "external"
    }

    fn propose_action(&mut self, ctx: &EngineContext<'_>) -> ProposedAction {
        ProposedAction {
            action_index: None,
            explored: false,
            params: ctx.current_params.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::test_target::{system_with, train_until_converged};
    use crate::tuners::{RandomSearch, StaticBaseline};
    use capes_drl::DqnAgentConfig;

    #[test]
    fn drl_engine_proposes_step_actions_within_bounds() {
        let mut engine = DqnAgent::new(DqnAgentConfig::paper_default(6, 1), 3);
        let specs = vec![TunableSpec {
            name: "knob".into(),
            min: 0.0,
            max: 100.0,
            step: 2.0,
            default: 10.0,
        }];
        for tick in 0..50 {
            let proposal = engine.propose_action(&EngineContext {
                tick,
                observation: None,
                current_params: &[10.0],
                specs: &specs,
                explore: true,
            });
            assert!(proposal.action_index.is_some());
            let p = proposal.params[0];
            assert!(
                p == 8.0 || p == 10.0 || p == 12.0,
                "±one step from 10, got {p}"
            );
        }
        // Without an observation and without exploration, the engine holds.
        let proposal = engine.propose_action(&EngineContext {
            tick: 99,
            observation: None,
            current_params: &[10.0],
            specs: &specs,
            explore: false,
        });
        assert_eq!(proposal.params, vec![10.0]);
        assert!(!proposal.explored);
        assert_eq!(engine.name(), "deep RL (DQN)");
        assert!(!engine.is_converged());
    }

    #[test]
    fn search_engine_converges_and_reports_best() {
        let mut system = system_with(SearchEngine::new(RandomSearch::new(25, 9), 10), 60.0);
        train_until_converged(&mut system, 100_000);
        assert!(system.engine().is_converged());
        // Defaults + 25 candidates, 10 ticks each.
        assert_eq!(system.engine().exploration_ticks_used(), Some(26 * 10));
        assert_eq!(system.tick(), 26 * 10);
        // Once converged, training ticks exploit: the best candidate is
        // applied through the checker and the Control Agent, and stays.
        let t = system.training_tick();
        assert!(!t.explored);
        let best = system.current_params();
        system.training_tick();
        assert_eq!(system.current_params(), best);
        assert_eq!(system.engine().exploration_ticks_used(), Some(26 * 10));
    }

    #[test]
    fn static_baseline_engine_evaluates_once() {
        let mut system = system_with(SearchEngine::new(StaticBaseline, 20), 40.0);
        train_until_converged(&mut system, 100_000);
        assert_eq!(system.engine().exploration_ticks_used(), Some(20));
        system.training_tick();
        assert_eq!(system.current_params(), vec![10.0]);
        assert_eq!(system.engine().name(), "static defaults");
    }
}
