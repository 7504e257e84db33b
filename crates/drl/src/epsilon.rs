//! ε-greedy exploration schedule (paper §3.6).
//!
//! The initial training period anneals ε linearly from 1.0 (all actions
//! random) to 0.05 over the exploration period (Table 1: two hours). When the
//! Interface Daemon learns that a new workload has been scheduled it bumps ε
//! back up to 0.2 so the agent re-explores without discarding what it already
//! knows.

/// Linear ε-annealing schedule with workload-change bumps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonSchedule {
    /// ε at the start of training (paper: 1.0).
    pub initial: f64,
    /// ε after the exploration period (paper: 0.05).
    pub final_value: f64,
    /// Length of the annealing period in action ticks (paper: 2 h = 7200).
    pub exploration_ticks: u64,
    /// ε to jump to when a workload change is signalled (paper: 0.2).
    pub workload_change_value: f64,
    /// Current bump floor (decays back down along the schedule).
    bumped_until_tick: u64,
    bumped_value: f64,
}

impl EpsilonSchedule {
    /// The schedule used in the paper's evaluation (Table 1).
    pub fn paper_default() -> Self {
        EpsilonSchedule {
            initial: 1.0,
            final_value: 0.05,
            exploration_ticks: 7200,
            workload_change_value: 0.2,
            bumped_until_tick: 0,
            bumped_value: 0.0,
        }
    }

    /// Custom schedule.
    ///
    /// # Panics
    /// Panics unless `0 ≤ final ≤ initial ≤ 1` and the period is non-zero.
    pub fn new(initial: f64, final_value: f64, exploration_ticks: u64) -> Self {
        assert!((0.0..=1.0).contains(&initial) && (0.0..=1.0).contains(&final_value));
        assert!(final_value <= initial, "ε must anneal downward");
        assert!(exploration_ticks > 0, "exploration period must be non-zero");
        EpsilonSchedule {
            initial,
            final_value,
            exploration_ticks,
            workload_change_value: 0.2,
            bumped_until_tick: 0,
            bumped_value: 0.0,
        }
    }

    /// ε at the given action tick.
    pub fn value_at(&self, tick: u64) -> f64 {
        let annealed = if tick >= self.exploration_ticks {
            self.final_value
        } else {
            let progress = tick as f64 / self.exploration_ticks as f64;
            self.initial + (self.final_value - self.initial) * progress
        };
        if tick < self.bumped_until_tick {
            annealed.max(self.bumped_value)
        } else {
            annealed
        }
    }

    /// Signals that a new workload was started at `tick`: ε is held at no less
    /// than the workload-change value for the next `duration_ticks` ticks
    /// (the paper bumps it to 0.2 "so that the tuning agent can do some
    /// exploration while avoiding local maximums").
    pub fn bump_for_workload_change(&mut self, tick: u64, duration_ticks: u64) {
        self.bumped_until_tick = tick + duration_ticks;
        self.bumped_value = self.workload_change_value;
    }
}

impl capes_persist::Persist for EpsilonSchedule {
    const MIN_SIZE: usize = 4 * 8 + 2 * 8;

    fn encode(&self, w: &mut capes_persist::Writer) {
        w.put_f64(self.initial);
        w.put_f64(self.final_value);
        w.put_u64(self.exploration_ticks);
        w.put_f64(self.workload_change_value);
        w.put_u64(self.bumped_until_tick);
        w.put_f64(self.bumped_value);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        let initial = r.get_f64()?;
        let final_value = r.get_f64()?;
        let exploration_ticks = r.get_u64()?;
        let workload_change_value = r.get_f64()?;
        let bumped_until_tick = r.get_u64()?;
        let bumped_value = r.get_f64()?;
        // `new`'s invariants as typed errors (NaN fails every range check).
        if !((0.0..=1.0).contains(&initial)
            && (0.0..=1.0).contains(&final_value)
            && (0.0..=1.0).contains(&workload_change_value)
            && (0.0..=1.0).contains(&bumped_value)
            && final_value <= initial)
        {
            return Err(capes_persist::PersistError::BadValue {
                what: "epsilon schedule values outside [0, 1] or inverted",
            });
        }
        if exploration_ticks == 0 {
            return Err(capes_persist::PersistError::BadValue {
                what: "zero-length exploration period",
            });
        }
        Ok(EpsilonSchedule {
            initial,
            final_value,
            exploration_ticks,
            workload_change_value,
            bumped_until_tick,
            bumped_value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let s = EpsilonSchedule::paper_default();
        assert_eq!(s.initial, 1.0);
        assert_eq!(s.final_value, 0.05);
        assert_eq!(s.exploration_ticks, 7200);
        assert_eq!(s.workload_change_value, 0.2);
    }

    #[test]
    fn linear_annealing_endpoints_and_midpoint() {
        let s = EpsilonSchedule::new(1.0, 0.05, 1000);
        assert_eq!(s.value_at(0), 1.0);
        assert!((s.value_at(500) - 0.525).abs() < 1e-12);
        assert_eq!(s.value_at(1000), 0.05);
        assert_eq!(s.value_at(50_000), 0.05, "stays at the floor forever");
    }

    #[test]
    fn annealing_is_monotonic() {
        let s = EpsilonSchedule::paper_default();
        let mut prev = f64::INFINITY;
        for t in (0..10_000).step_by(50) {
            let e = s.value_at(t);
            assert!(e <= prev + 1e-12);
            assert!((0.0..=1.0).contains(&e));
            prev = e;
        }
    }

    #[test]
    fn workload_bump_raises_then_expires() {
        let mut s = EpsilonSchedule::new(1.0, 0.05, 100);
        // Past the exploration period ε is at the floor.
        assert_eq!(s.value_at(5000), 0.05);
        s.bump_for_workload_change(5000, 600);
        assert_eq!(s.value_at(5000), 0.2);
        assert_eq!(s.value_at(5599), 0.2);
        assert_eq!(s.value_at(5600), 0.05, "bump expires");
    }

    #[test]
    fn bump_never_lowers_epsilon_during_early_training() {
        let mut s = EpsilonSchedule::new(1.0, 0.05, 10_000);
        s.bump_for_workload_change(10, 1000);
        // At tick 10 the annealed value (≈1.0) is higher than the bump.
        assert!(s.value_at(10) > 0.9);
    }

    #[test]
    #[should_panic(expected = "anneal downward")]
    fn inverted_schedule_rejected() {
        let _ = EpsilonSchedule::new(0.05, 1.0, 100);
    }
}
