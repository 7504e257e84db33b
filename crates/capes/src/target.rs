//! The target-system adapter interface (paper Appendix A.2: "It can be used
//! to tune virtually any parameters as long as an adapter function is provided
//! for collecting the observation from the target system and for setting the
//! parameters to the target system").

/// Description of one tunable parameter exposed by a target system.
#[derive(Debug, Clone, PartialEq)]
pub struct TunableSpec {
    /// Human-readable parameter name.
    pub name: String,
    /// Smallest allowed value.
    pub min: f64,
    /// Largest allowed value.
    pub max: f64,
    /// Amount one tuning action adds or subtracts.
    pub step: f64,
    /// The untuned default value.
    pub default: f64,
}

impl TunableSpec {
    /// Clamps `value` into the valid range.
    pub fn clamp(&self, value: f64) -> f64 {
        value.clamp(self.min, self.max)
    }
}

/// Everything the target system reports for one sampling tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetTick {
    /// Per-node performance-indicator vectors (already normalised for the
    /// DNN; all nodes must report the same number of indicators).
    pub per_node_pis: Vec<Vec<f64>>,
    /// Aggregate throughput achieved during the tick, MB/s.
    pub throughput_mbps: f64,
    /// Mean request latency during the tick, ms.
    pub latency_ms: f64,
}

impl TargetTick {
    /// Number of reporting nodes.
    pub fn num_nodes(&self) -> usize {
        self.per_node_pis.len()
    }
}

/// A system CAPES can tune: it reports per-node performance indicators once a
/// second and accepts new values for its tunable parameters at any time.
pub trait TargetSystem {
    /// Number of monitored nodes (each runs a Monitoring Agent).
    fn num_nodes(&self) -> usize;

    /// Number of performance indicators each node reports per tick.
    fn pis_per_node(&self) -> usize;

    /// The tunable parameters and their ranges.
    fn tunable_specs(&self) -> Vec<TunableSpec>;

    /// Current values of the tunable parameters (same order as
    /// [`TargetSystem::tunable_specs`]).
    fn current_params(&self) -> Vec<f64>;

    /// Applies new parameter values (same order as the specs). Implementations
    /// should clamp out-of-range values rather than fail.
    fn apply_params(&mut self, values: &[f64]);

    /// Advances the system by one second of (possibly simulated) time and
    /// reports what happened.
    fn step(&mut self) -> TargetTick;

    /// Human-readable description of the system (used in logs and reports).
    fn describe(&self) -> String {
        format!(
            "{} nodes, {} PIs/node, {} tunable parameters",
            self.num_nodes(),
            self.pis_per_node(),
            self.tunable_specs().len()
        )
    }
}

#[cfg(test)]
pub(crate) mod test_target {
    use super::*;
    use crate::builder::Capes;
    use crate::engine::TuningEngine;
    use crate::hyperparams::Hyperparameters;
    use crate::system::CapesSystem;

    /// A deliberately simple synthetic target used by unit tests: throughput
    /// is a concave function of a single parameter, peaking away from the
    /// default, with additive noise.
    pub struct QuadraticTarget {
        pub value: f64,
        pub optimum: f64,
        pub noise: f64,
        pub rng_state: u64,
    }

    impl QuadraticTarget {
        pub fn new(optimum: f64) -> Self {
            QuadraticTarget {
                value: 10.0,
                optimum,
                noise: 0.5,
                rng_state: 1,
            }
        }

        fn next_noise(&mut self) -> f64 {
            // Small xorshift so the test target needs no external RNG.
            self.rng_state ^= self.rng_state << 13;
            self.rng_state ^= self.rng_state >> 7;
            self.rng_state ^= self.rng_state << 17;
            ((self.rng_state % 1000) as f64 / 1000.0 - 0.5) * 2.0 * self.noise
        }
    }

    impl TargetSystem for QuadraticTarget {
        fn num_nodes(&self) -> usize {
            1
        }

        fn pis_per_node(&self) -> usize {
            2
        }

        fn tunable_specs(&self) -> Vec<TunableSpec> {
            vec![TunableSpec {
                name: "knob".into(),
                min: 0.0,
                max: 100.0,
                step: 2.0,
                default: 10.0,
            }]
        }

        fn current_params(&self) -> Vec<f64> {
            vec![self.value]
        }

        fn apply_params(&mut self, values: &[f64]) {
            self.value = values[0].clamp(0.0, 100.0);
        }

        fn step(&mut self) -> TargetTick {
            let d = self.value - self.optimum;
            let throughput = (100.0 - 0.05 * d * d + self.next_noise()).max(1.0);
            TargetTick {
                per_node_pis: vec![vec![self.value / 100.0, throughput / 100.0]],
                throughput_mbps: throughput,
                latency_ms: 10.0 + 0.02 * d * d,
            }
        }
    }

    /// A system around `QuadraticTarget::new(optimum)` driven by `engine`:
    /// the search comparators' tests run through the same per-tick path as
    /// the DQN's.
    pub fn system_with(
        engine: impl TuningEngine + 'static,
        optimum: f64,
    ) -> CapesSystem<QuadraticTarget> {
        Capes::builder(QuadraticTarget::new(optimum))
            .hyperparams(Hyperparameters::quick_test())
            .engine(Box::new(engine))
            .build()
            .expect("valid configuration")
    }

    /// Runs training ticks until the engine converges or the system reaches
    /// tick `max_ticks`.
    pub fn train_until_converged(system: &mut CapesSystem<QuadraticTarget>, max_ticks: u64) {
        while !system.engine().is_converged() && system.tick() < max_ticks {
            system.training_tick();
        }
    }

    impl capes_persist::Persist for QuadraticTarget {
        const MIN_SIZE: usize = 3 * 8 + 8;

        fn encode(&self, w: &mut capes_persist::Writer) {
            w.put_f64(self.value);
            w.put_f64(self.optimum);
            w.put_f64(self.noise);
            w.put_u64(self.rng_state);
        }

        fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
            let value = r.get_f64()?;
            let optimum = r.get_f64()?;
            let noise = r.get_f64()?;
            let rng_state = r.get_u64()?;
            if rng_state == 0 {
                // xorshift sticks at zero forever.
                return Err(capes_persist::PersistError::BadValue {
                    what: "all-zero test-target RNG state",
                });
            }
            Ok(QuadraticTarget {
                value,
                optimum,
                noise,
                rng_state,
            })
        }
    }

    #[test]
    fn quadratic_target_peaks_at_its_optimum() {
        let mut t = QuadraticTarget::new(60.0);
        t.apply_params(&[60.0]);
        let at_optimum = t.step().throughput_mbps;
        t.apply_params(&[10.0]);
        let at_default = t.step().throughput_mbps;
        assert!(at_optimum > at_default + 50.0);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.pis_per_node(), 2);
        assert!(t.describe().contains("1 nodes"));
    }

    #[test]
    fn spec_clamp_works() {
        let spec = TunableSpec {
            name: "x".into(),
            min: 1.0,
            max: 5.0,
            step: 1.0,
            default: 2.0,
        };
        assert_eq!(spec.clamp(0.0), 1.0);
        assert_eq!(spec.clamp(9.0), 5.0);
        assert_eq!(spec.clamp(3.0), 3.0);
    }

    #[test]
    fn target_tick_counts_nodes() {
        let tick = TargetTick {
            per_node_pis: vec![vec![1.0], vec![2.0]],
            throughput_mbps: 5.0,
            latency_ms: 1.0,
        };
        assert_eq!(tick.num_nodes(), 2);
    }
}
