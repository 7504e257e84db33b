//! The bundled adapter: the simulated Lustre-like cluster as a
//! [`TargetSystem`]. This plays the role of the paper's Lustre adapter
//! (`conf.py` collector/controller functions, Appendix A.3.3).

use crate::target::{TargetSystem, TargetTick, TunableSpec};
use capes_simstore::{Cluster, ClusterConfig, TunableParams, Workload};

/// Builder for [`SimulatedLustre`].
#[derive(Debug, Clone)]
// capes-check: allow(dead-pub) -- returned by the public `SimulatedLustre::builder`
pub struct SimulatedLustreBuilder {
    config: ClusterConfig,
    workload: Workload,
    seed: u64,
}

impl SimulatedLustreBuilder {
    /// Overrides the cluster configuration (default: the paper's testbed
    /// geometry with the compact PI set).
    pub fn config(mut self, config: ClusterConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the workload (default: the 1:9 read:write random workload that
    /// shows the paper's headline result).
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the simulation RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the adapter.
    pub fn build(self) -> SimulatedLustre {
        SimulatedLustre {
            cluster: Cluster::new(self.config, self.workload, self.seed),
        }
    }
}

/// The simulated Lustre cluster wrapped as a CAPES target system.
#[derive(Debug, Clone)]
pub struct SimulatedLustre {
    cluster: Cluster,
}

impl SimulatedLustre {
    /// Starts building an adapter with default settings.
    pub fn builder() -> SimulatedLustreBuilder {
        SimulatedLustreBuilder {
            config: ClusterConfig::default(),
            workload: Workload::random_rw(0.1),
            seed: 42,
        }
    }

    /// Direct access to the underlying cluster (used by experiments that need
    /// to change the workload mid-run or perturb the session).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }
}

impl TargetSystem for SimulatedLustre {
    fn num_nodes(&self) -> usize {
        self.cluster.config().num_clients
    }

    fn pis_per_node(&self) -> usize {
        self.cluster.pis_per_client()
    }

    fn tunable_specs(&self) -> Vec<TunableSpec> {
        TunableParams::specs()
            .into_iter()
            .map(|s| TunableSpec {
                name: s.name.to_string(),
                min: s.min,
                max: s.max,
                step: s.step,
                default: s.default,
            })
            .collect()
    }

    fn current_params(&self) -> Vec<f64> {
        self.cluster.params().as_vec()
    }

    fn apply_params(&mut self, values: &[f64]) {
        self.cluster.set_params(TunableParams::from_vec(values));
    }

    fn step(&mut self) -> TargetTick {
        let stats = self.cluster.step();
        let per_node_pis = (0..self.num_nodes())
            .map(|n| self.cluster.normalized_indicators(n))
            .collect();
        TargetTick {
            per_node_pis,
            throughput_mbps: stats.aggregate_throughput(),
            latency_ms: stats.mean_latency_ms,
        }
    }

    fn describe(&self) -> String {
        format!(
            "simulated Lustre: {} servers, {} clients, workload '{}'",
            self.cluster.config().num_servers,
            self.cluster.config().num_clients,
            self.cluster.workload().kind().label()
        )
    }
}

impl capes_persist::Persist for SimulatedLustre {
    const MIN_SIZE: usize = <Cluster as capes_persist::Persist>::MIN_SIZE;

    fn encode(&self, w: &mut capes_persist::Writer) {
        self.cluster.encode(w);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        Ok(SimulatedLustre {
            cluster: Cluster::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capes_simstore::PiMode;

    #[test]
    fn adapter_exposes_paper_parameters() {
        let target = SimulatedLustre::builder().build();
        let specs = target.tunable_specs();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "max_rpcs_in_flight");
        assert_eq!(specs[0].default, 8.0);
        assert_eq!(specs[1].name, "io_rate_limit");
        assert_eq!(target.current_params(), vec![8.0, 2000.0]);
        assert_eq!(target.num_nodes(), 5);
        assert!(target.describe().contains("simulated Lustre"));
    }

    #[test]
    fn step_reports_normalised_pis_for_every_node() {
        let mut target = SimulatedLustre::builder().seed(3).build();
        let tick = target.step();
        assert_eq!(tick.num_nodes(), 5);
        for node in &tick.per_node_pis {
            assert_eq!(node.len(), target.pis_per_node());
            assert!(node.iter().all(|v| v.is_finite()));
            // Normalised indicators stay in a small range.
            assert!(node.iter().all(|v| v.abs() < 20.0));
        }
        assert!(tick.throughput_mbps > 0.0);
        assert!(tick.latency_ms > 0.0);
    }

    #[test]
    fn apply_params_clamps_and_takes_effect() {
        let mut target = SimulatedLustre::builder().seed(4).build();
        target.apply_params(&[64.0, 100.0]);
        assert_eq!(target.current_params(), vec![64.0, 100.0]);
        target.apply_params(&[1e9, -5.0]);
        assert_eq!(target.current_params(), vec![256.0, 50.0]);
    }

    #[test]
    fn full_pi_mode_reports_44_indicators() {
        let config = ClusterConfig {
            pi_mode: PiMode::Full,
            ..Default::default()
        };
        let target = SimulatedLustre::builder().config(config).build();
        assert_eq!(target.pis_per_node(), 44);
    }

    #[test]
    fn workload_selection_is_respected() {
        let target = SimulatedLustre::builder()
            .workload(Workload::fileserver())
            .build();
        assert!(target.describe().contains("fileserver"));
    }
}
