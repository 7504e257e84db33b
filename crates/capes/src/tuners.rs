//! Comparator tuners.
//!
//! The paper's related-work discussion (§5) groups prior automatic tuning
//! systems into model-based feedback controllers and model-less *search*
//! methods (hill climbing, evolutionary strategies) that sweep parameter
//! values against a repeatable workload. Its future work explicitly asks for a
//! comparison of CAPES against "the best results from other automatic tuning
//! methods". These tuners implement that comparison:
//!
//! * [`StaticBaseline`] — keep the defaults (the paper's baseline);
//! * [`RandomSearch`] — sample uniformly random parameter vectors and keep the
//!   best;
//! * [`HillClimbing`] — greedy coordinate steps from the defaults, the classic
//!   one-time search approach.
//!
//! Each comparator is a [`SearchStrategy`]: wrapped in
//! [`crate::engine::SearchEngine`] it implements the same
//! [`crate::engine::TuningEngine`] interface as the DRL engine, so a
//! [`crate::system::CapesSystem`] drives CAPES and all three comparators
//! through one per-tick path (monitoring, Interface Daemon, Action Checker,
//! Control Agent). Its training ticks are the search's "tweak-benchmark
//! cycle", which the paper argues is too slow; `capes_bench::compare_engines`
//! measures that cost next to the DQN's.

use crate::engine::SearchStrategy;
use crate::target::TunableSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Keeps the default parameter values (the untuned baseline of every figure).
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticBaseline;

impl SearchStrategy for StaticBaseline {
    fn name(&self) -> &'static str {
        "static defaults"
    }

    fn next_candidate(
        &mut self,
        _specs: &[TunableSpec],
        _last: &[f64],
        _last_score: f64,
        _evaluations: usize,
    ) -> Option<Vec<f64>> {
        // One evaluation of the defaults, then done.
        None
    }
}

/// Uniform random search over the parameter space.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    /// Number of random candidates to evaluate (on top of the defaults).
    pub candidates: usize,
    rng: StdRng,
}

impl RandomSearch {
    /// Creates a random search evaluating `candidates` configurations.
    ///
    /// # Panics
    /// Panics if `candidates` is zero.
    pub fn new(candidates: usize, seed: u64) -> Self {
        assert!(candidates > 0);
        RandomSearch {
            candidates,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn random_params(&mut self, specs: &[TunableSpec]) -> Vec<f64> {
        specs
            .iter()
            .map(|s| {
                let steps = ((s.max - s.min) / s.step).round() as u64;
                let k = self.rng.gen_range(0..=steps);
                s.clamp(s.min + k as f64 * s.step)
            })
            .collect()
    }
}

impl SearchStrategy for RandomSearch {
    fn name(&self) -> &'static str {
        "random search"
    }

    fn next_candidate(
        &mut self,
        specs: &[TunableSpec],
        _last: &[f64],
        _last_score: f64,
        evaluations: usize,
    ) -> Option<Vec<f64>> {
        // The first evaluation was the defaults; then `candidates` randoms.
        if evaluations <= self.candidates {
            Some(self.random_params(specs))
        } else {
            None
        }
    }
}

/// Greedy coordinate hill climbing from the defaults: repeatedly tries ± one
/// step on each parameter and moves to the best neighbour until no neighbour
/// improves or the evaluation budget is spent.
#[derive(Debug, Clone)]
pub struct HillClimbing {
    /// Maximum number of candidate evaluations.
    pub max_evaluations: usize,
    position: Option<HillPosition>,
}

#[derive(Debug, Clone)]
struct HillPosition {
    current: Vec<f64>,
    current_score: f64,
    queue: Vec<Vec<f64>>,
    round_best: Option<(Vec<f64>, f64)>,
}

impl HillClimbing {
    /// Creates a hill climber with the given evaluation budget.
    ///
    /// # Panics
    /// Panics if `max_evaluations` is zero.
    pub fn new(max_evaluations: usize) -> Self {
        assert!(max_evaluations > 0);
        HillClimbing {
            max_evaluations,
            position: None,
        }
    }

    /// Neighbours of `current` (± one step per parameter), in coordinate
    /// order, most-recently-generated last so `Vec::pop` walks them in order.
    fn neighbours(specs: &[TunableSpec], current: &[f64]) -> Vec<Vec<f64>> {
        let mut queue = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            for direction in [-1.0, 1.0] {
                let mut candidate = current.to_vec();
                candidate[i] = spec.clamp(candidate[i] + direction * spec.step);
                if candidate != current {
                    queue.push(candidate);
                }
            }
        }
        queue.reverse();
        queue
    }
}

impl SearchStrategy for HillClimbing {
    fn name(&self) -> &'static str {
        "hill climbing"
    }

    fn next_candidate(
        &mut self,
        specs: &[TunableSpec],
        last: &[f64],
        last_score: f64,
        evaluations: usize,
    ) -> Option<Vec<f64>> {
        let position = match &mut self.position {
            None => {
                // `last` was the starting position (the defaults).
                self.position = Some(HillPosition {
                    current: last.to_vec(),
                    current_score: last_score,
                    queue: Self::neighbours(specs, last),
                    round_best: None,
                });
                self.position.as_mut().expect("just set")
            }
            Some(position) => {
                // `last` was a neighbour; track the best of this round.
                let improves_round = position
                    .round_best
                    .as_ref()
                    .map(|(_, s)| last_score > *s)
                    .unwrap_or(true);
                if improves_round {
                    position.round_best = Some((last.to_vec(), last_score));
                }
                position
            }
        };

        loop {
            if evaluations >= self.max_evaluations {
                // Budget spent: stop proposing. The engine's global best
                // already covers any improving neighbour from the truncated
                // round, so the outcome matches the batch algorithm's
                // "move, then break".
                return None;
            }
            if let Some(candidate) = position.queue.pop() {
                return Some(candidate);
            }
            // Round complete: move or converge.
            match position.round_best.take() {
                Some((params, score)) if score > position.current_score => {
                    position.current = params;
                    position.current_score = score;
                    position.queue = Self::neighbours(specs, &position.current);
                    if position.queue.is_empty() {
                        return None;
                    }
                }
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchEngine;
    use crate::experiment::PhaseKind;
    use crate::target::test_target::{system_with, train_until_converged};

    #[test]
    fn static_baseline_keeps_defaults() {
        let mut system = system_with(SearchEngine::new(StaticBaseline, 20), 60.0);
        train_until_converged(&mut system, 20);
        assert!(system.engine().is_converged(), "one evaluation of 20 ticks");
        assert_eq!(system.engine().exploration_ticks_used(), Some(20));
        system.run_tick(PhaseKind::Tuned);
        assert_eq!(system.current_params(), vec![10.0]);
        assert_eq!(system.engine().name(), "static defaults");
    }

    #[test]
    fn random_search_beats_the_baseline_on_an_easy_surface() {
        let mut system = system_with(SearchEngine::new(RandomSearch::new(40, 7), 20), 60.0);
        let baseline = (0..20)
            .map(|_| system.run_tick(PhaseKind::Baseline).throughput_mbps)
            .sum::<f64>()
            / 20.0;
        train_until_converged(&mut system, 100_000);
        assert!(system.engine().is_converged());
        // Defaults + 40 candidates, 20 ticks each.
        assert_eq!(system.engine().exploration_ticks_used(), Some(41 * 20));
        // The first tuning tick applies the best candidate; the next ones
        // measure it.
        system.run_tick(PhaseKind::Tuned);
        let best = system.current_params();
        assert!(
            (best[0] - 60.0).abs() < 30.0,
            "best value {} should be near the optimum",
            best[0]
        );
        let tuned = (0..20)
            .map(|_| system.run_tick(PhaseKind::Tuned).throughput_mbps)
            .sum::<f64>()
            / 20.0;
        assert!(
            tuned > baseline,
            "tuned {tuned:.1} vs baseline {baseline:.1}"
        );
    }

    #[test]
    fn hill_climbing_walks_toward_the_optimum() {
        let mut system = system_with(SearchEngine::new(HillClimbing::new(200), 20), 40.0);
        train_until_converged(&mut system, 200 * 20);
        assert!(system.engine().is_converged());
        let used = system.engine().exploration_ticks_used();
        assert!(used.is_some_and(|ticks| ticks <= 200 * 20), "{used:?}");
        assert_eq!(system.engine().name(), "hill climbing");
        // Tuning ticks configure the target with the tuned value.
        system.run_tick(PhaseKind::Tuned);
        let best = system.current_params();
        assert!(
            best[0] > 25.0,
            "hill climbing stopped too early at {}",
            best[0]
        );
    }

    #[test]
    fn hill_climbing_respects_its_budget() {
        let mut system = system_with(SearchEngine::new(HillClimbing::new(5), 5), 90.0);
        train_until_converged(&mut system, 100);
        assert!(system.engine().is_converged());
        // At most 5 evaluations of 5 ticks each.
        let used = system.engine().exploration_ticks_used();
        assert!(used.is_some_and(|ticks| ticks <= 5 * 5), "{used:?}");
    }
}
