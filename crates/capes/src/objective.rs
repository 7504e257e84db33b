//! Objective (reward) functions — paper §3.2.
//!
//! CAPES "uses the output of an objective function as the reward", which makes
//! multi-objective tuning a matter of choosing a different function. The
//! paper's evaluation optimises aggregate throughput; tuning throughput and
//! latency together is listed as future work and is implemented here as
//! [`Objective::Weighted`].

use crate::target::TargetTick;

/// A reward function over one tick of target-system behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Objective {
    /// Reward = aggregate throughput in MB/s (the paper's evaluation).
    #[default]
    Throughput,
    /// Reward = −latency in ms (for latency-sensitive systems).
    NegativeLatency,
    /// Reward = `throughput_weight · throughput − latency_weight · latency`,
    /// the multi-objective combination the paper describes as future work.
    Weighted {
        /// Weight applied to throughput (MB/s).
        throughput_weight: f64,
        /// Weight applied to latency (ms), subtracted.
        latency_weight: f64,
    },
}

impl Objective {
    /// Evaluates the objective over one tick.
    pub fn evaluate(&self, tick: &TargetTick) -> f64 {
        match self {
            Objective::Throughput => tick.throughput_mbps,
            Objective::NegativeLatency => -tick.latency_ms,
            Objective::Weighted {
                throughput_weight,
                latency_weight,
            } => throughput_weight * tick.throughput_mbps - latency_weight * tick.latency_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(throughput: f64, latency: f64) -> TargetTick {
        TargetTick {
            per_node_pis: vec![vec![0.0]],
            throughput_mbps: throughput,
            latency_ms: latency,
        }
    }

    #[test]
    fn throughput_objective_is_identity_on_throughput() {
        assert_eq!(Objective::Throughput.evaluate(&tick(312.5, 9.0)), 312.5);
        assert_eq!(Objective::default(), Objective::Throughput);
    }

    #[test]
    fn latency_objective_prefers_lower_latency() {
        let fast = Objective::NegativeLatency.evaluate(&tick(100.0, 5.0));
        let slow = Objective::NegativeLatency.evaluate(&tick(100.0, 50.0));
        assert!(fast > slow);
    }

    #[test]
    fn weighted_objective_trades_off_both() {
        let obj = Objective::Weighted {
            throughput_weight: 1.0,
            latency_weight: 2.0,
        };
        let high_tp_high_lat = obj.evaluate(&tick(300.0, 100.0));
        let low_tp_low_lat = obj.evaluate(&tick(200.0, 10.0));
        assert!(low_tp_low_lat > high_tp_high_lat);
        assert_eq!(obj.evaluate(&tick(100.0, 0.0)), 100.0);
    }
}
