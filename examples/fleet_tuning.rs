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
//! Run with `cargo run --release --example fleet_tuning`.
//! `CAPES_FLEET_THREADS` shards the member ticks across that many fleet
//! workers (default 1).

use capes::{Hyperparameters, Phase};
use capes_fleet::{ExperienceSharing, Fleet, ScenarioSpec};
use capes_simstore::Workload;

/// Fleet ticks of online training.
const TRAIN_TICKS: u64 = 2_500;
/// Fleet ticks of each measurement phase.
const MEASURE_TICKS: u64 = 300;

fn main() {
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
        "\nrunning baseline {MEASURE_TICKS} / train {TRAIN_TICKS} / tuned {MEASURE_TICKS} \
         ticks across the fleet…"
    );
    let phases = [
        Phase::Baseline {
            ticks: MEASURE_TICKS,
        },
        Phase::Train { ticks: TRAIN_TICKS },
        Phase::Tuned {
            ticks: MEASURE_TICKS,
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
