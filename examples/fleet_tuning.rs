//! Fleet mode: eight heterogeneous clusters tuned by one daemon, then eight
//! same-profile clusters sharing experience through the replay arena.
//!
//! The paper deploys one CAPES instance per storage cluster; the fleet daemon
//! scales that out — every member cluster keeps its own monitoring agents,
//! wire-framed reports and Interface Daemon writing into its own stripe of
//! **one** fleet-wide replay arena, while all clusters sharing an observation
//! geometry are decided by **one** shared DQN in a single batched forward
//! pass per tick. Clusters with different geometries (here: different client
//! counts) automatically get their own per-profile agent.
//!
//! The second stage shows the arena's transfer-learning path: eight clusters
//! of one profile (equal geometry, different workloads) train their shared
//! DQN on a self-biased weighted set of all eight stripes
//! ([`capes_fleet::ExperienceSharing`]), so every cluster learns from the
//! whole profile's experience.
//!
//! Run with `cargo run --release --example fleet_tuning`. Ticks can be scaled
//! with `CAPES_FLEET_TRAIN_TICKS` / `CAPES_FLEET_MEASURE_TICKS`, and
//! `CAPES_FLEET_THREADS` shards the member ticks across that many fleet
//! workers (default 1).

use capes::{Hyperparameters, Phase};
use capes_fleet::{ExperienceSharing, Fleet, ScenarioSpec};
use capes_simstore::Workload;

fn env_ticks(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let train_ticks = env_ticks("CAPES_FLEET_TRAIN_TICKS", 2_500);
    let measure_ticks = env_ticks("CAPES_FLEET_MEASURE_TICKS", 300);

    // Eight clusters cycling the paper's workload families and read/write
    // mixes with varying client counts — one run exercises many scenarios.
    // The builder takes its worker count from CAPES_FLEET_THREADS; any worker
    // count is bit-identical to sequential, so it only changes wall-clock on
    // multi-core hosts, never results.
    let scenarios = ScenarioSpec::heterogeneous_mix(8);
    let mut daemon = Fleet::builder()
        .hyperparams(Hyperparameters::quick_test())
        .seed(7)
        .scenarios(scenarios)
        .build()
        .expect("valid fleet");
    println!(
        "fleet: {} clusters across {} profiles (shared DQN per profile), \
         {} fleet workers",
        daemon.num_clusters(),
        daemon.num_profiles(),
        daemon.workers()
    );
    for name in daemon.cluster_names() {
        println!("  · {name}");
    }

    println!(
        "\nrunning baseline {measure_ticks} / train {train_ticks} / tuned {measure_ticks} \
         ticks across the fleet…"
    );
    let phases = [
        Phase::Baseline {
            ticks: measure_ticks,
        },
        Phase::Train { ticks: train_ticks },
        Phase::Tuned {
            ticks: measure_ticks,
            label: "tuned".into(),
        },
    ];
    let report = daemon.run(&phases);

    println!("\n{}", report.summary());
    println!("improvements over each cluster's baseline:");
    for (name, improvement) in report.improvements_over_baseline("tuned") {
        println!("  {name:<22} {:+.1} %", improvement * 100.0);
    }

    // Fleet reports serialize like experiment reports; drop one next to the
    // binary for the figure tooling.
    let path = std::env::temp_dir().join("capes-fleet-report.json");
    std::fs::write(&path, report.to_json()).expect("report write");
    println!("\nfleet report written to {}", path.display());

    // ------------------------------------------------------------------
    // Stage 2: one profile, eight clusters, experience sharing enabled.
    //
    // Equal geometry puts all eight clusters into a single profile (one
    // shared DQN); setting the profile's sharing weights to own 3, peers 1
    // makes every training draw sample the trained cluster's own stripe at
    // 3× the weight of each of its seven peers.
    // ------------------------------------------------------------------
    let mixes = [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9];
    let mut shared = Fleet::builder()
        .hyperparams(Hyperparameters::quick_test())
        .seed(11)
        .scenarios(
            mixes
                .iter()
                .map(|&rw| ScenarioSpec::new(format!("rw-{rw:.1}"), Workload::random_rw(rw))),
        )
        .build()
        .expect("valid fleet");
    assert_eq!(shared.num_profiles(), 1, "equal geometry is one profile");
    println!(
        "\nshared-experience fleet: {} clusters in one profile, self-biased sampling",
        shared.num_clusters()
    );
    shared.set_profile_sharing(
        0,
        ExperienceSharing {
            own: 3.0,
            peers: 1.0,
        },
    );
    let shared_report = shared.run(&phases);
    println!("\n{}", shared_report.summary());
    println!("improvements over each cluster's baseline (shared experience):");
    for (name, improvement) in shared_report.improvements_over_baseline("tuned") {
        println!("  {name:<22} {:+.1} %", improvement * 100.0);
    }
}
