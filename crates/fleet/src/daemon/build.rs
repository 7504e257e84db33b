//! Fleet assembly: [`Fleet`] and [`FleetBuilder`].

use super::telemetry::{FleetTelemetry, PersistCounters};
use super::{ClusterSession, FleetDaemon, FleetError, Profile};
use crate::report::ExperienceSharing;
use crate::scenario::ScenarioSpec;
use crate::sched::FleetPool;
use capes::{Capes, Hyperparameters, NullEngine, TickMeasurement, Transport};
use capes_agents::ActionMessage;
use capes_drl::DqnAgent;
use capes_replay::ReplayArena;
use capes_tensor::Matrix;

/// Entry point for the fleet builder API (mirrors [`capes::Capes`]).
pub struct Fleet;

impl Fleet {
    /// Starts building a fleet daemon.
    pub fn builder() -> FleetBuilder {
        FleetBuilder {
            hyperparams: Hyperparameters::paper(),
            seed: 0,
            transport: Transport::Wire,
            scenarios: Vec::new(),
            workers: None,
        }
    }
}

/// Configures and assembles a [`FleetDaemon`].
// capes-check: allow(dead-pub) -- returned by the public `Fleet::builder`
pub struct FleetBuilder {
    hyperparams: Hyperparameters,
    seed: u64,
    transport: Transport,
    scenarios: Vec<ScenarioSpec>,
    workers: Option<usize>,
}

impl FleetBuilder {
    /// Sets the hyperparameters shared by every profile agent (default:
    /// [`Hyperparameters::paper`]).
    #[must_use]
    pub fn hyperparams(mut self, hyperparams: Hyperparameters) -> Self {
        self.hyperparams = hyperparams;
        self
    }

    /// Sets the fleet seed: profile agents and (unpinned) cluster simulations
    /// derive their seeds from it deterministically.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the transport (default: [`Transport::Wire`] — monitoring reports
    /// travel as binary frames into each member's Interface Daemon; with
    /// [`Transport::Socket`] they, and the actions, also cross real loopback
    /// TCP connections).
    #[must_use]
    pub fn transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the fleet worker parallelism: how many threads (including the
    /// daemon thread) tick member clusters in parallel. Defaults to the
    /// `CAPES_FLEET_THREADS` environment variable, or **1** — today's
    /// sequential path. Worker count never changes results: multi-worker
    /// fleets are bit-identical to sequential ones on every transport.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Appends many member clusters.
    #[must_use]
    pub fn scenarios<I: IntoIterator<Item = ScenarioSpec>>(mut self, specs: I) -> Self {
        self.scenarios.extend(specs);
        self
    }

    /// Validates and assembles the fleet.
    ///
    /// # Errors
    /// [`FleetError::Capes`] when a hyperparameter is invalid or a member
    /// system rejects the configuration; [`FleetError::EmptyFleet`] without
    /// scenarios.
    pub fn build(self) -> Result<FleetDaemon, FleetError> {
        // Before the arena: its stripe configurations assert what the
        // hyperparameters only validate.
        self.hyperparams.validate()?;
        if self.scenarios.is_empty() {
            return Err(FleetError::EmptyFleet);
        }
        // One fleet-wide replay arena, striped by cluster: stripe i carries
        // cluster i's geometry. Members are built over stripe views, so the
        // builder's config check guarantees each stripe matches what the
        // member would have derived for itself.
        let arena = ReplayArena::new(
            self.scenarios
                .iter()
                .map(|spec| {
                    self.hyperparams
                        .replay_config(spec.num_clients, spec.pis_per_client())
                })
                .collect::<Vec<_>>(),
        );
        let mut profiles: Vec<Profile> = Vec::new();
        let mut sessions: Vec<ClusterSession> = Vec::with_capacity(self.scenarios.len());
        for (index, spec) in self.scenarios.iter().enumerate() {
            let seed = ScenarioSpec::derive_seed(self.seed, index);
            let target = spec.build_target(seed);
            let system = Capes::builder(target)
                .hyperparams(self.hyperparams)
                .seed(seed)
                .engine(Box::new(NullEngine))
                .transport(self.transport)
                .replay_db(arena.stripe(index))
                .build()?;
            let observation_size = spec.observation_size(&self.hyperparams);
            let num_params = system.specs().len();
            let profile = match profiles
                .iter()
                .position(|p| p.observation_size == observation_size && p.num_params == num_params)
            {
                Some(existing) => existing,
                None => {
                    // Profile 0's agent seed matches the seed formula of the
                    // default single-system engine, which is what makes a
                    // one-cluster fleet bit-identical to a standalone system.
                    let agent_seed = (self.seed ^ 0x5eed)
                        .wrapping_add((profiles.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    let config = self.hyperparams.agent_config(observation_size, num_params);
                    profiles.push(Profile {
                        observation_size,
                        num_params,
                        agent: DqnAgent::new(config, agent_seed),
                        batch: Matrix::zeros(1, 1),
                        has_obs: Vec::new(),
                        decisions: Vec::new(),
                        stripe_members: Vec::new(),
                    });
                    profiles.len() - 1
                }
            };
            // In bounds: `profile` is either a hit from the dedup scan over
            // `profiles` or the index of the entry pushed just above.
            let row = profiles[profile].stripe_members.len();
            // In bounds: same `profile` as the line above.
            profiles[profile].stripe_members.push(index);
            let scenario = format!(
                "{} · {} clients × {} servers · seed {}",
                spec.workload_label(),
                spec.num_clients,
                spec.num_servers,
                seed
            );
            sessions.push(ClusterSession {
                name: spec.name.clone(),
                scenario,
                system,
                profile,
                row,
                measurement: TickMeasurement::default(),
                action: ActionMessage::default(),
            });
        }
        for profile in &mut profiles {
            let members = profile.stripe_members.len();
            profile.batch = Matrix::zeros(members, profile.observation_size);
            profile.has_obs = vec![false; members];
            profile.decisions = Vec::with_capacity(members);
        }
        // Socket transport: spawn the reactor server and one loopback client
        // per cluster. Per-tick uplink volume is two messages (report +
        // objective) per monitor.
        let socket = if self.transport == Transport::Socket {
            let expected: Vec<usize> = sessions
                .iter()
                .map(|s| 2 * s.system.num_monitors())
                .collect();
            Some(crate::socket::SocketFront::new(expected).map_err(FleetError::Socket)?)
        } else {
            None
        };
        let num_clusters = sessions.len();
        let num_profiles = profiles.len();
        // Observability wiring: the daemon's durability counters are scraped
        // under the `persist.*` names.
        let persist = PersistCounters::new();
        persist.publish(capes_telemetry::global());
        let names: Vec<&str> = sessions.iter().map(|s| s.name.as_str()).collect();
        let telemetry = FleetTelemetry::new(&names);
        let sched = FleetPool::new(
            self.workers
                .unwrap_or_else(crate::sched::configured_fleet_threads),
        );
        Ok(FleetDaemon {
            hyperparams: self.hyperparams,
            sessions,
            profiles,
            arena,
            profile_sharing: vec![ExperienceSharing::default(); num_profiles],
            weights_buf: vec![0.0; num_clusters],
            sched,
            tick: 0,
            train_cursor: 0,
            cluster_ticks: 0,
            persist,
            telemetry,
            auto_checkpoint: None,
            snapshot_slot: None,
            recorder: None,
            socket,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::tests::quick_hp;
    use capes::CapesError;
    use capes_simstore::Workload;

    #[test]
    fn empty_fleet_is_rejected() {
        assert!(matches!(
            Fleet::builder().build(),
            Err(FleetError::EmptyFleet)
        ));
    }

    #[test]
    fn invalid_hyperparameters_are_a_typed_error() {
        let mut tolerance = Hyperparameters::quick_test();
        tolerance.missing_entry_tolerance = 1.5;
        let mut capacity = Hyperparameters::quick_test();
        capacity.replay_capacity_ticks = capacity.sampling_ticks_per_observation;
        for hyperparams in [tolerance, capacity] {
            let built = Fleet::builder()
                .hyperparams(hyperparams)
                .scenarios([ScenarioSpec::new("w", Workload::random_rw(0.1)).clients(2)])
                .build();
            let invalid = matches!(
                built,
                Err(FleetError::Capes(CapesError::InvalidHyperparameter { .. }))
            );
            assert!(invalid, "{:?}", built.err());
        }
    }

    #[test]
    fn heterogeneous_fleet_groups_profiles_by_geometry() {
        let daemon = Fleet::builder()
            .hyperparams(quick_hp())
            .seed(3)
            .scenarios([
                ScenarioSpec::new("a", Workload::random_rw(0.1)).clients(2),
                ScenarioSpec::new("b", Workload::fileserver()).clients(2),
                ScenarioSpec::new("c", Workload::sequential_write()).clients(3),
            ])
            .build()
            .expect("valid fleet");
        assert_eq!(daemon.num_clusters(), 3);
        // Two clusters share the 2-client geometry; the third has its own.
        assert_eq!(daemon.num_profiles(), 2);
        assert_eq!(daemon.cluster_names(), vec!["a", "b", "c"]);
        assert_eq!(
            daemon.agent_for(0).config().observation_size,
            daemon.agent_for(1).config().observation_size
        );
        assert_ne!(
            daemon.agent_for(0).config().observation_size,
            daemon.agent_for(2).config().observation_size
        );
    }
}
