//! Scenario specifications: what each cluster of a fleet looks like.
//!
//! The paper deploys one CAPES instance per storage cluster; a fleet run
//! instead assigns every member cluster its own *scenario* — workload family,
//! read/write mix, client count, PI mode — so a single run exercises many
//! operating points at once; each cluster's seed is derived from the fleet
//! seed and its index ([`ScenarioSpec::derive_seed`]). Clusters whose
//! observation geometry coincides share one DQN (a *profile*, see
//! [`crate::daemon::FleetDaemon`]); clusters with different geometries get
//! their own per-profile agent automatically.

use capes::Hyperparameters;
use capes::SimulatedLustre;
use capes_simstore::{ClusterConfig, PiMode, Workload, WorkloadKind};

/// Specification of one member cluster of a fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable cluster name (reported in the [`crate::FleetReport`]).
    pub name: String,
    /// The workload family this cluster serves.
    pub workload: WorkloadKind,
    /// Client nodes (each runs a Monitoring Agent; the paper's testbed has 5).
    pub num_clients: usize,
    /// Object storage servers (paper: 4).
    pub num_servers: usize,
    /// Which performance-indicator set the cluster reports.
    pub pi_mode: PiMode,
}

impl ScenarioSpec {
    /// A scenario with the paper's testbed geometry (5 clients, 4 servers,
    /// compact PIs) serving `workload`.
    pub fn new(name: impl Into<String>, workload: Workload) -> Self {
        ScenarioSpec {
            name: name.into(),
            workload: workload.kind(),
            num_clients: 5,
            num_servers: 4,
            pi_mode: PiMode::Compact,
        }
    }

    /// Overrides the client count.
    #[must_use]
    // capes-check: allow(dead-pub) -- the scenario shapes of the fleet's integration tests (tests/golden_tick.rs, tests/checkpoint_restore.rs and the rest)
    pub fn clients(mut self, num_clients: usize) -> Self {
        self.num_clients = num_clients;
        self
    }

    /// Deterministic per-cluster seed: a SplitMix64 mix of the fleet seed and
    /// the cluster index, so re-running a fleet with the same seed reproduces
    /// every cluster's trace regardless of how the scenario table is
    /// reordered elsewhere.
    // capes-check: allow(dead-pub) -- the per-cluster seeds of tests/fleet_equivalence.rs
    pub fn derive_seed(fleet_seed: u64, cluster_index: usize) -> u64 {
        let mut z = fleet_seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(cluster_index as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Observation width a system built from this spec will feed the DQN
    /// (clusters with equal widths share a profile agent).
    pub fn observation_size(&self, hyperparams: &Hyperparameters) -> usize {
        hyperparams.observation_size(self.num_clients, self.pis_per_client())
    }

    /// Performance indicators each client of this cluster reports per tick.
    pub fn pis_per_client(&self) -> usize {
        // Mirrors `Cluster::pis_per_client`: one OSC per server.
        capes_simstore::pis_per_client(self.pi_mode, self.num_servers)
    }

    /// Short label of the workload family (e.g. `"random 1:9"`).
    pub(crate) fn workload_label(&self) -> String {
        self.workload.label()
    }

    /// Builds the simulated-Lustre target for this scenario, simulated from
    /// `seed`.
    pub(crate) fn build_target(&self, seed: u64) -> SimulatedLustre {
        let config = ClusterConfig {
            num_clients: self.num_clients,
            num_servers: self.num_servers,
            pi_mode: self.pi_mode,
        };
        SimulatedLustre::builder()
            .config(config)
            .workload(Workload::from_kind(self.workload))
            .seed(seed)
            .build()
    }

    /// A heterogeneous scenario table cycling through the paper's workload
    /// families and read/write mixes with varying client counts — the shape
    /// used by the fleet example and benches. `n` may exceed the template
    /// length; entries repeat with distinct names (and distinct derived
    /// seeds).
    pub fn heterogeneous_mix(n: usize) -> Vec<ScenarioSpec> {
        let template: [(&str, Workload, usize); 8] = [
            ("write-heavy-1:9", Workload::random_rw(0.1), 5),
            ("read-heavy-9:1", Workload::random_rw(0.9), 5),
            ("balanced-5:5", Workload::random_rw(0.5), 4),
            ("fileserver", Workload::fileserver(), 5),
            ("seq-write", Workload::sequential_write(), 3),
            ("write-leaning-2:8", Workload::random_rw(0.2), 6),
            ("fileserver-wide", Workload::fileserver(), 7),
            ("read-leaning-8:2", Workload::random_rw(0.8), 4),
        ];
        (0..n)
            .map(|i| {
                let (name, workload, clients) = &template[i % template.len()];
                let suffix = i / template.len();
                let name = if suffix == 0 {
                    (*name).to_string()
                } else {
                    format!("{name}-{suffix}")
                };
                ScenarioSpec::new(name, workload.clone()).clients(*clients)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_testbed() {
        let spec = ScenarioSpec::new("w", Workload::random_rw(0.1));
        assert_eq!(spec.num_clients, 5);
        assert_eq!(spec.num_servers, 4);
        assert_eq!(spec.pi_mode, PiMode::Compact);
        assert_eq!(spec.pis_per_client(), 12);
        let hp = Hyperparameters::quick_test();
        assert_eq!(spec.observation_size(&hp), 4 * 5 * 12);
    }

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        let a = ScenarioSpec::derive_seed(7, 0);
        assert_eq!(a, ScenarioSpec::derive_seed(7, 0));
        assert_ne!(a, ScenarioSpec::derive_seed(7, 1));
        assert_ne!(a, ScenarioSpec::derive_seed(8, 0));
    }

    #[test]
    fn heterogeneous_mix_varies_workloads_and_geometry() {
        let mix = ScenarioSpec::heterogeneous_mix(8);
        assert_eq!(mix.len(), 8);
        let client_counts: std::collections::BTreeSet<usize> =
            mix.iter().map(|s| s.num_clients).collect();
        assert!(client_counts.len() > 2, "client counts should vary");
        let names: std::collections::BTreeSet<&str> = mix.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), 8, "names must be unique");
        // Overflow entries get suffixed names.
        let big = ScenarioSpec::heterogeneous_mix(10);
        assert_eq!(big[8].name, "write-heavy-1:9-1");
    }
}
