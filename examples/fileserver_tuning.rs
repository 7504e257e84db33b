//! Fileserver tuning and the overfitting check of Figure 4.
//!
//! The Filebench "fileserver" personality is the hardest workload in the
//! paper's evaluation: it mixes reads, writes and metadata operations, so the
//! reward signal is noisy and the paper needed ~24 hours of training for a
//! 17 % gain. This example trains on the fileserver workload, then reuses the
//! trained model in later sessions after the cluster state has drifted
//! (simulated file fragmentation and a shifted clock), mirroring the paper's
//! three sessions spread over two weeks.
//!
//! Run with `cargo run --release --example fileserver_tuning`.

use capes::prelude::*;

/// Simulated seconds of online training.
const TRAIN_TICKS: u64 = 8_000;
/// Simulated seconds of each measurement phase.
const MEASURE_TICKS: u64 = 600;

fn main() {
    let checkpoint = std::env::temp_dir().join("capes-fileserver-model.ckpt");

    let target = SimulatedLustre::builder()
        .workload(Workload::fileserver())
        .seed(99)
        .build();
    println!("target system : {}", target.describe());

    let mut system = Capes::builder(target)
        .hyperparams(Hyperparameters::quick_test())
        .seed(99)
        .build()
        .expect("valid configuration");

    println!("training on the fileserver workload for {TRAIN_TICKS} simulated seconds…");
    let report = system.run(&[Phase::Train { ticks: TRAIN_TICKS }]);
    println!(
        "  training mean throughput: {:.1} MB/s",
        report.sessions[0].mean_throughput()
    );
    system
        .save_checkpoint(&checkpoint)
        .expect("checkpoint save");
    println!("  model checkpoint written to {}", checkpoint.display());

    // Three later sessions, each with drifted cluster state, as in Figure 4.
    for (i, fragmentation) in [0.0, 0.5, 1.0].into_iter().enumerate() {
        println!("\nsession {} (fragmentation {:.1}):", i + 1, fragmentation);
        system
            .target_mut()
            .cluster_mut()
            .perturb_session(fragmentation, 60 * 24 * (i as u64 + 1));
        // Each session: two hours of baseline, two hours of tuned measurement
        // in the paper; scaled down here.
        let report = system.run(&[
            Phase::Baseline {
                ticks: MEASURE_TICKS,
            },
            Phase::Tuned {
                ticks: MEASURE_TICKS,
                label: "tuned".into(),
            },
        ]);
        let baseline = report.baseline().expect("baseline ran");
        let tuned = report.session("tuned").expect("tuned ran");
        println!("  {}", baseline.summary());
        println!("  {}", tuned.summary());
        println!(
            "  improvement: {:+.1}%  (window = {:.0}, rate limit = {:.0})",
            report.improvement_over_baseline("tuned").unwrap_or(0.0) * 100.0,
            tuned.final_params[0],
            tuned.final_params[1]
        );
    }

    std::fs::remove_file(&checkpoint).ok();
}
