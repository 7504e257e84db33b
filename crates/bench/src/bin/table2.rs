//! Table 2 — technical measurements of the CAPES evaluation.
//!
//! Reproduces every row of the paper's Table 2 on the simulated cluster:
//! training-step duration (single-threaded and multi-threaded CPU), replay-DB
//! record counts and sizes, DNN model size, performance indicators per client,
//! observation size, and the average monitoring-message size per client —
//! then compares the DRL engine against the three search comparators through
//! the unified `TuningEngine` experiment path (the paper's future-work
//! comparison).
//!
//! Run with `cargo run --release -p capes-bench --bin table2`.

use capes::prelude::*;
use capes_bench::{build_system, compare_engines, print_engine_comparison, write_json, Scale};
use capes_drl::{DqnAgent, DqnAgentConfig};
use capes_persist::Persist;
use capes_replay::ReplayConfig;
use std::time::Instant;

fn main() {
    let scale = Scale::from_env();

    // Run a short training segment to populate the replay DB, agents and
    // monitoring statistics.
    let ticks = match scale {
        Scale::Quick => 2_000u64,
        Scale::Full => 20_000,
    };
    eprintln!("[table2] running {ticks} instrumented ticks…");
    let mut system = build_system(Workload::random_rw(0.1), scale, 7000);
    for _ in 0..ticks {
        system.training_tick();
    }

    // Training-step duration on the paper-sized network (44 PIs × 5 clients ×
    // 10 ticks = 2200 inputs) and on the compact network actually used above.
    let agent = system.dqn_agent().expect("default engine is the DQN");
    let compact_obs = agent.config().observation_size;
    let paper_obs = ReplayConfig::default().observation_size();
    let step_compact = time_training_step(compact_obs, 800);
    let step_paper = time_training_step(paper_obs, 30);

    let db_records = system.replay_db().len();
    let (db_memory, db_disk, obs_size) = system.replay_db().with_read(|db| {
        // What a snapshot stores for this stripe: its `Persist` encoding.
        let mut encoded = capes_persist::Writer::new();
        db.encode(&mut encoded);
        (
            db.memory_bytes(),
            encoded.len(),
            db.config().observation_size(),
        )
    });
    let model_bytes = agent.q_network().model_size_bytes();
    let monitor_stats = system.monitor_stats();
    let mean_msg: f64 = monitor_stats
        .iter()
        .map(|s| s.mean_bytes_per_report())
        .sum::<f64>()
        / monitor_stats.len() as f64;

    println!(
        "\n=== Table 2: technical measurements ({} monitoring agents) ===\n",
        monitor_stats.len()
    );
    println!("{:<46}{:>18}   paper reported", "measurement", "value");
    println!(
        "{:<46}{:>15.4} s   ≈0.1 s (CPU)",
        format!("duration of training step ({}-input DNN)", paper_obs),
        step_paper
    );
    println!(
        "{:<46}{:>15.4} s   (compact network used in quick runs)",
        format!("duration of training step ({}-input DNN)", compact_obs),
        step_compact
    );
    println!(
        "{:<46}{:>18}   250 k (70 hours)",
        "number of records in the Replay DB", db_records
    );
    println!(
        "{:<46}{:>15.1} MB   84 MB",
        "size of the DNN model in memory",
        mb(model_size_for(paper_obs))
    );
    println!(
        "{:<46}{:>15.1} MB   (compact network)",
        "size of the compact DNN model in memory",
        mb(model_bytes)
    );
    println!(
        "{:<46}{:>15.1} MB   1.5 GB (250 k records)",
        "size of the Replay DB in memory",
        mb(db_memory)
    );
    println!(
        "{:<46}{:>15.1} MB   0.5 GB (250 k records)",
        "size of the Replay DB in a snapshot (binary)",
        mb(db_disk)
    );
    println!(
        "{:<46}{:>18}   44",
        "performance indicators per client",
        system.target().pis_per_node()
    );
    println!("{:<46}{:>18}   1760", "observation size (floats)", obs_size);
    println!(
        "{:<46}{:>15.1} B   ≈186 B",
        "average message size per client per second", mean_msg
    );

    let daemon = system.daemon_stats();
    println!(
        "{:<46}{:>18}   (not reported)",
        "actions broadcast during the run", daemon.actions_broadcast
    );

    // Engine comparison through the single TuningEngine code path: same
    // cluster, same experiment plan, four engines.
    let (train_ticks, measure_ticks) = match scale {
        Scale::Quick => (2_000, 400),
        Scale::Full => (scale.twelve_hours(), scale.measurement_ticks()),
    };
    eprintln!("\n[table2] engine comparison ({train_ticks} training ticks per engine)…");
    let rows = compare_engines(
        Workload::random_rw(0.1),
        scale,
        7100,
        train_ticks,
        measure_ticks,
    );
    print_engine_comparison(
        "engine comparison (random 1:9, one generic experiment plan per engine)",
        &rows,
    );
    write_json("table2_engines", &rows);
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Size of a paper-architecture Q-network with the given observation width.
fn model_size_for(observation_size: usize) -> usize {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(1);
    capes_drl::QNetwork::new(observation_size, 5, &mut rng).model_size_bytes()
}

/// Mean wall-clock duration of one 32-observation training step for a network
/// with the given observation width.
fn time_training_step(observation_size: usize, iterations: usize) -> f64 {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(2);
    let config = ReplayConfig {
        num_nodes: 1,
        pis_per_node: observation_size,
        ticks_per_observation: 1,
        missing_entry_tolerance: 0.2,
        capacity_ticks: 2_000,
    };
    let db = capes_replay::SharedReplayDb::new(config);
    for t in 0..300u64 {
        let pis: Vec<f64> = (0..observation_size)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        db.insert_snapshot(t, 0, pis);
        db.insert_objective(t, rng.gen_range(0.5..1.5));
        db.insert_action(t, rng.gen_range(0..5));
    }
    let mut agent = DqnAgent::new(DqnAgentConfig::paper_default(observation_size, 2), 3);
    // Warm up once (first minibatch pays allocation costs).
    let _ = agent.train_from_db(&db);
    let start = Instant::now();
    for _ in 0..iterations {
        let _ = agent.train_from_db(&db);
    }
    start.elapsed().as_secs_f64() / iterations as f64
}
