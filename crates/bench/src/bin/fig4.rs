//! Figure 4 — the overfitting check: one trained model reused in three
//! sessions spread out over "two weeks", with unrelated file operations
//! (fragmentation, layout drift) in between. Each session measures two hours
//! of baseline and two hours of tuned throughput.
//!
//! The paper reports gains of 13–36 % across the three sessions and concludes
//! there is no obvious overfitting.
//!
//! Run with `cargo run --release -p capes-bench --bin fig4`.

use capes::prelude::*;
use capes_bench::{build_system, print_figure, write_json, Bar, FigureRow, Scale};

fn main() {
    let scale = Scale::from_env();
    let checkpoint = std::env::temp_dir().join("capes-fig4-model.ckpt");

    // Train once on the fileserver workload and checkpoint the model.
    eprintln!("[fig4] initial training…");
    let mut trainer = build_system(Workload::fileserver(), scale, 4000);
    trainer.run(&[Phase::Train {
        ticks: scale.twenty_four_hours(),
    }]);
    trainer
        .save_checkpoint(&checkpoint)
        .expect("checkpoint save failed");

    // Three later sessions with drifted cluster state.
    let mut rows = Vec::new();
    for session in 0..3u64 {
        eprintln!("[fig4] session {}…", session + 1);
        let mut system = build_system(Workload::fileserver(), scale, 4100 + session);
        // Unrelated file operations between sessions: fragmentation grows and
        // the simulated clock moves by multiple days.
        let fragmentation = 0.3 + 0.35 * session as f64;
        system
            .target_mut()
            .cluster_mut()
            .perturb_session(fragmentation.min(1.0), 60 * 24 * (4 * session + 3));
        system
            .restore_checkpoint(&checkpoint, 4200 + session)
            .expect("checkpoint restore failed");

        let report = system.run(&[
            Phase::Baseline {
                ticks: scale.measurement_ticks(),
            },
            Phase::Tuned {
                ticks: scale.measurement_ticks(),
                label: "tuned".into(),
            },
        ]);
        rows.push(FigureRow {
            workload: format!("session {}", session + 1),
            bars: report.sessions.iter().map(Bar::from_session).collect(),
        });
    }

    print_figure(
        "Figure 4: fileserver throughput with and without CAPES tuning, three sessions",
        &rows,
    );
    write_json("fig4", &rows);
    println!("\npaper: +13% to +36% across the three sessions (no obvious overfitting)");
    std::fs::remove_file(&checkpoint).ok();
}
