//! Figure 5 — prediction error over the training session.
//!
//! The prediction error is the difference between the Q-network's predicted
//! performance and the measured performance one second later; the paper shows
//! it decreasing steadily after an initial warm-up.
//!
//! Run with `cargo run --release -p capes-bench --bin fig5`.

use capes::prelude::*;
use capes_bench::{build_system, write_json, Bar, FigureRow, Scale};

fn main() {
    let scale = Scale::from_env();
    eprintln!("[fig5] training…");
    let report = build_system(Workload::random_rw(0.1), scale, 5000).run(&[Phase::Train {
        ticks: scale.twelve_hours(),
    }]);
    let result = &report.sessions[0];

    // Bucket the prediction errors into a fixed number of bins over time (the
    // figure's x axis) and report the mean error per bin.
    let errors = &result.prediction_errors;
    let bins = 24usize.min(errors.len().max(1));
    let per_bin = errors.len().div_ceil(bins).max(1);
    println!("\n=== Figure 5: prediction error during the training session ===");
    println!("{:<24}{:>20}", "training progress", "mean prediction error");
    let mut rows = Vec::new();
    for (b, chunk) in errors.chunks(per_bin).enumerate() {
        let mean = chunk.iter().map(|(_, e)| *e).sum::<f64>() / chunk.len() as f64;
        let progress = (b + 1) as f64 / bins as f64 * 100.0;
        println!("{:>20.0}%   {:>20.4}", progress, mean);
        rows.push(FigureRow {
            workload: format!("{progress:.0}%"),
            bars: vec![Bar {
                label: "prediction error".into(),
                mean,
                ci: 0.0,
            }],
        });
    }
    write_json("fig5", &rows);

    if rows.len() >= 4 {
        let early = rows[1].bars[0].mean;
        let late = rows.last().unwrap().bars[0].mean;
        println!(
            "\nearly-training error {early:.4} → late-training error {late:.4} ({})",
            if late < early {
                "decreasing, as in the paper"
            } else {
                "NOT decreasing — inspect the run"
            }
        );
    }
}
