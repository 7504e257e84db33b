//! A fleet of one is exactly an experiment of one.
//!
//! The fleet daemon re-architects the per-tick loop — measurement barriers,
//! batched decisions, scattered actions, round-robin training — so the
//! strongest possible regression guard is exact equivalence at N = 1: under
//! the same seeds and transport, a single-cluster fleet must produce a
//! per-cluster report *bit-identical* (equal JSON) to a standalone
//! [`capes::Experiment`] over the same simulated cluster. Every divergence in
//! RNG consumption, stage ordering, reward scaling or report assembly shows
//! up here.

use capes::{Capes, Experiment, Hyperparameters, Phase, SimulatedLustre, Transport};
use capes_fleet::{Fleet, FleetPlan, ScenarioSpec};
use capes_simstore::{ClusterConfig, PiMode, Workload};
use serde::{map_get, Serialize, Value};

fn quick_hp() -> Hyperparameters {
    Hyperparameters {
        sampling_ticks_per_observation: 3,
        exploration_period_ticks: 400,
        adam_learning_rate: 2e-3,
        train_steps_per_tick: 2,
        ..Hyperparameters::quick_test()
    }
}

fn phases() -> Vec<Phase> {
    vec![
        Phase::Baseline { ticks: 25 },
        Phase::Train { ticks: 90 },
        Phase::Tuned {
            ticks: 25,
            label: "tuned".into(),
        },
        // A second round exercises post-baseline cache invalidation and
        // continued training of the same agent.
        Phase::Train { ticks: 30 },
        Phase::Tuned {
            ticks: 15,
            label: "tuned after more training".into(),
        },
    ]
}

#[test]
fn one_cluster_fleet_is_bit_identical_to_experiment_over_wire_frames() {
    const FLEET_SEED: u64 = 7;
    const CLUSTER_SEED: u64 = 4242;
    let workload = Workload::random_rw(0.1);
    let num_clients = 2;

    // --- Standalone experiment -------------------------------------------
    let target = SimulatedLustre::builder()
        .config(ClusterConfig {
            num_clients,
            pi_mode: PiMode::Compact,
            ..ClusterConfig::default()
        })
        .workload(workload.clone())
        .seed(CLUSTER_SEED)
        .build();
    let system = Capes::builder(target)
        .hyperparams(quick_hp())
        .seed(FLEET_SEED)
        .transport(Transport::Wire)
        .build()
        .expect("valid system");
    let mut experiment = Experiment::new(system);
    for phase in phases() {
        experiment = experiment.phase(phase);
    }
    let standalone = experiment.run();

    // --- One-cluster fleet -----------------------------------------------
    let mut daemon = Fleet::builder()
        .hyperparams(quick_hp())
        .seed(FLEET_SEED)
        .transport(Transport::Wire)
        .scenarios([ScenarioSpec::new("solo", workload)
            .clients(num_clients)
            .seed(CLUSTER_SEED)])
        .build()
        .expect("valid fleet");
    let mut plan = FleetPlan::new();
    for phase in phases() {
        plan = plan.phase(phase);
    }
    let fleet = daemon.run(&plan);

    // --- Bit-identical reports -------------------------------------------
    assert_eq!(fleet.clusters.len(), 1);
    let fleet_json = fleet.clusters[0].report.to_json();
    let standalone_json = standalone.to_json();
    if fleet_json != standalone_json {
        // Locate the first divergence for a readable failure message.
        let byte = fleet_json
            .bytes()
            .zip(standalone_json.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| fleet_json.len().min(standalone_json.len()));
        let lo = byte.saturating_sub(80);
        panic!(
            "fleet N=1 report diverges from the standalone experiment at byte {byte}:\n \
             fleet: …{}…\n solo:  …{}…",
            &fleet_json[lo..(byte + 40).min(fleet_json.len())],
            &standalone_json[lo..(byte + 40).min(standalone_json.len())],
        );
    }
}

#[test]
fn heterogeneous_fleet_runs_end_to_end_and_prints_json() {
    // The acceptance-criteria shape: 8 clusters, mixed workload families and
    // client counts (multiple profiles), full baseline→train→tuned plan over
    // wire transport, printed as JSON.
    let mut daemon = Fleet::builder()
        .hyperparams(Hyperparameters {
            sampling_ticks_per_observation: 3,
            exploration_period_ticks: 300,
            ..Hyperparameters::quick_test()
        })
        .seed(23)
        .scenarios(ScenarioSpec::heterogeneous_mix(8).into_iter().map(
            // Shrink the geometry so the test stays fast; heterogeneity in
            // client counts (and therefore profiles) is preserved.
            |s| {
                let clients = 2 + s.num_clients % 3;
                s.clients(clients)
            },
        ))
        .build()
        .expect("valid fleet");
    assert_eq!(daemon.num_clusters(), 8);
    assert!(
        daemon.num_profiles() >= 2,
        "mixed client counts must produce multiple profiles, got {}",
        daemon.num_profiles()
    );
    let report = daemon.run(
        &FleetPlan::new()
            .phase(Phase::Baseline { ticks: 12 })
            .phase(Phase::Train { ticks: 40 })
            .phase(Phase::Tuned {
                ticks: 12,
                label: "tuned".into(),
            }),
    );
    assert_eq!(report.clusters.len(), 8);
    assert_eq!(report.cluster_ticks, 8 * 64);
    let names: std::collections::BTreeSet<&str> =
        report.clusters.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names.len(), 8, "every cluster reports under its own name");
    for cluster in &report.clusters {
        assert_eq!(cluster.report.sessions.len(), 3);
        assert!(cluster.report.baseline().is_some());
        assert!(cluster.report.session("tuned").is_some());
    }
    // The printed report parses back to the in-memory clusters.
    let json: Value = serde_json::from_str(&report.to_json()).expect("valid JSON");
    let fields = json.as_map().unwrap();
    assert_eq!(
        map_get(fields, "clusters"),
        Some(&report.clusters.to_value())
    );
    assert_eq!(map_get(fields, "cluster_ticks"), Some(&Value::U64(8 * 64)));
}
