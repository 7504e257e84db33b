//! Quickstart: tune the simulated Lustre cluster's congestion window and I/O
//! rate limit with CAPES and compare against the untuned baseline.
//!
//! This follows the paper's evaluation workflow (Appendix A.4), expressed as
//! a declarative plan of `Phase`s that `CapesSystem::run` executes:
//!
//! 1. set up the target system (here: the bundled cluster simulator running
//!    the write-heavy 1:9 random read/write workload);
//! 2. assemble CAPES around it with the fallible builder;
//! 3. run an online training phase, then measure the default-parameter
//!    baseline and the tuned performance.
//!
//! Run with `cargo run --release --example quickstart`. Raise `TRAIN_TICKS`
//! to lengthen the training session (43 200 reproduces the paper's 12-hour
//! run).

use capes::prelude::*;

/// Simulated seconds of online training.
const TRAIN_TICKS: u64 = 6_000;
/// Simulated seconds of each measurement phase.
const MEASURE_TICKS: u64 = 600;

fn main() {
    // 1. The target system: the paper's 4-server / 5-client cluster at
    //    saturation under a 1:9 read:write random workload.
    let target = SimulatedLustre::builder()
        .workload(Workload::random_rw(0.1))
        .seed(2017)
        .build();
    println!("target system : {}", target.describe());

    // 2. Assemble CAPES around it. `quick_test()` keeps the paper's algorithmic
    //    hyperparameters (γ, α, minibatch size, ε schedule shape) but shortens
    //    the exploration period so a laptop-scale run converges. Invalid
    //    configurations come back as typed `CapesError`s instead of panics.
    let mut system = Capes::builder(target)
        .hyperparams(Hyperparameters::quick_test())
        .seed(2017)
        .build()
        .expect("valid configuration");

    // 3. The paper's workflow as one declarative plan.
    println!("training for {TRAIN_TICKS} simulated seconds…");
    let report = system.run(&[
        Phase::Train { ticks: TRAIN_TICKS },
        Phase::Baseline {
            ticks: MEASURE_TICKS,
        },
        Phase::Tuned {
            ticks: MEASURE_TICKS,
            label: "tuned (CAPES)".into(),
        },
    ]);

    let training = &report.sessions[0];
    println!(
        "  training session mean throughput: {:.1} MB/s (overall, including exploration)",
        training.mean_throughput()
    );
    let baseline = report.baseline().expect("baseline phase ran");
    println!("  {}", baseline.summary());
    let tuned = report.session("tuned (CAPES)").expect("tuned phase ran");
    println!("  {}", tuned.summary());
    println!(
        "  final parameter values: max_rpcs_in_flight = {:.0}, io_rate_limit = {:.0}",
        tuned.final_params[0], tuned.final_params[1]
    );
    println!(
        "  improvement over baseline: {:+.1}%",
        report
            .improvement_over_baseline("tuned (CAPES)")
            .unwrap_or(0.0)
            * 100.0
    );
}
