//! Table 1 — the hyperparameters used in the CAPES evaluation.
//!
//! Prints the hyperparameters in force (paper values, and the scaled-down
//! quick-run values used by the default benchmark configuration) in the same
//! layout as the paper's table, then demonstrates the hyperparameters in
//! action by driving the DRL engine and the three search comparators through
//! the unified `TuningEngine` experiment path on a short run.
//!
//! Run with `cargo run --release -p capes-bench --bin table1`.

use capes::prelude::*;
use capes_bench::{compare_engines, print_engine_comparison, write_json, Scale};
use capes_drl::QNetwork;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn row(name: &str, paper: String, quick: String, description: &str) {
    println!("{name:<34}{paper:>14}{quick:>14}   {description}");
}

fn main() {
    let paper = Hyperparameters::paper();
    let quick = Hyperparameters::quick_test();

    println!("=== Table 1: hyperparameters (paper values vs. quick-run values) ===\n");
    println!(
        "{:<34}{:>14}{:>14}   description",
        "hyperparameter", "paper", "quick"
    );
    // The simulator steps one second per tick, so both tick lengths are
    // fixed at the paper's 1 s rather than configurable.
    row(
        "action tick length",
        "1 s".into(),
        "1 s".into(),
        "one action is performed every second",
    );
    row(
        "epsilon initial value",
        format!("{}", paper.epsilon_initial),
        format!("{}", quick.epsilon_initial),
        "all actions random at the start of training",
    );
    row(
        "epsilon final value",
        format!("{}", paper.epsilon_final),
        format!("{}", quick.epsilon_final),
        "5% random actions after the exploration period",
    );
    row(
        "discount rate (gamma)",
        format!("{}", paper.discount_rate),
        format!("{}", quick.discount_rate),
        "as used in Equation 1",
    );
    row(
        "initial exploration period",
        format!("{} s", paper.exploration_period_ticks),
        format!("{} s", quick.exploration_period_ticks),
        "epsilon anneals linearly over this period",
    );
    row(
        "minibatch size",
        format!("{}", paper.minibatch_size),
        format!("{}", quick.minibatch_size),
        "observations per SGD update",
    );
    row(
        "missing entry tolerance",
        format!("{}%", paper.missing_entry_tolerance * 100.0),
        format!("{}%", quick.missing_entry_tolerance * 100.0),
        "missing data tolerated per observation",
    );
    // The depth is fixed by the architecture, not configured: count the
    // hidden layers of the Q-network the DRL engine builds.
    let hidden_layers = QNetwork::new(1, 1, &mut StdRng::seed_from_u64(0))
        .mlp()
        .layers()
        .len()
        - 1;
    row(
        "number of hidden layers",
        format!("{hidden_layers}"),
        format!("{hidden_layers}"),
        "hidden layers are the same width as the input",
    );
    row(
        "Adam learning rate",
        format!("{}", paper.adam_learning_rate),
        format!("{}", quick.adam_learning_rate),
        "learning rate of the Adam optimizer",
    );
    row(
        "sampling tick length",
        "1 s".into(),
        "1 s".into(),
        "one sample per second",
    );
    row(
        "sampling ticks per observation",
        format!("{}", paper.sampling_ticks_per_observation),
        format!("{}", quick.sampling_ticks_per_observation),
        "seconds of history packed into one observation",
    );
    row(
        "target network update rate (alpha)",
        format!("{}", paper.target_update_rate),
        format!("{}", quick.target_update_rate),
        "theta_target = theta_target*(1-alpha) + theta*alpha",
    );
    row(
        "reward scale (reproduction only)",
        format!("{}", paper.reward_scale),
        format!("{:.4}", quick.reward_scale),
        "objective value multiplier before storage as reward",
    );

    // The hidden-layer width of the paper (600) derives from the observation
    // size; show the corresponding value for the bundled simulator.
    let target = SimulatedLustre::builder().build();
    let obs = quick.observation_size(target.num_nodes(), target.pis_per_node());
    println!(
        "\nhidden layer size: equals the observation width — {} for the default \
         (compact-PI) simulator configuration, {} for the full 44-PI configuration \
         (paper: 600).",
        obs,
        paper.observation_size(5, 44)
    );

    // The hyperparameters in action: every engine — the DQN and the three
    // search comparators — driven through the same builder +
    // `CapesSystem::run` code path on a short write-heavy run.
    let scale = Scale::from_env();
    let (train_ticks, measure_ticks) = match scale {
        Scale::Quick => (1_500, 300),
        Scale::Full => (scale.twelve_hours(), scale.measurement_ticks()),
    };
    eprintln!("\n[table1] engine line-up ({train_ticks} training ticks per engine)…");
    let rows = compare_engines(
        Workload::random_rw(0.1),
        scale,
        1000,
        train_ticks,
        measure_ticks,
    );
    print_engine_comparison(
        "engine line-up under these hyperparameters (random 1:9, short run)",
        &rows,
    );
    write_json("table1_engines", &rows);
}
