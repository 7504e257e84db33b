//! Figure 6 — the training session's impact on the workload.
//!
//! Training performs random (exploratory) actions on the production system,
//! so the paper checks that the overall throughput of a long training session
//! is comparable to baseline throughput measured at three different times.
//!
//! Run with `cargo run --release -p capes-bench --bin fig6`.

use capes::prelude::*;
use capes_bench::{build_system, print_figure, write_json, Bar, FigureRow, Scale};

fn main() {
    let scale = Scale::from_env();

    // Three baseline measurements taken at different times (different seeds /
    // cluster drift), as in the paper.
    let mut rows = Vec::new();
    for i in 0..3u64 {
        eprintln!("[fig6] baseline measurement {}…", i + 1);
        let mut system = build_system(Workload::random_rw(0.1), scale, 6000 + i);
        system
            .target_mut()
            .cluster_mut()
            .perturb_session(0.2 * i as f64, 60 * 24 * i);
        let report = system.run(&[Phase::Baseline {
            ticks: scale.measurement_ticks() * 2,
        }]);
        rows.push(FigureRow {
            workload: format!("baseline {}", i + 1),
            bars: vec![Bar::from_session_labelled(
                format!("baseline {}", i + 1),
                &report.sessions[0],
            )],
        });
    }

    // One long training session ("70 hours" in the paper; scaled here).
    let training_ticks = match scale {
        Scale::Quick => 3 * scale.twelve_hours(),
        Scale::Full => 70 * 3600,
    };
    eprintln!("[fig6] training session ({training_ticks} ticks)…");
    let report = build_system(Workload::random_rw(0.1), scale, 6100).run(&[Phase::Train {
        ticks: training_ticks,
    }]);
    rows.push(FigureRow {
        workload: "training session".into(),
        bars: vec![Bar::from_session_labelled(
            "overall throughput",
            &report.sessions[0],
        )],
    });

    print_figure(
        "Figure 6: baseline throughputs vs. training-session overall throughput",
        &rows,
    );
    write_json("fig6", &rows);

    let baselines: Vec<f64> = rows[..3].iter().map(|r| r.bars[0].mean).collect();
    let training_mean = rows[3].bars[0].mean;
    let min_baseline = baselines.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "\ntraining-session throughput is {:.1}% of the lowest baseline \
         (paper: comparable to the baselines)",
        training_mean / min_baseline * 100.0
    );
}
