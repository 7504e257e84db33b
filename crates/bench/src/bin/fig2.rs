//! Figure 2 — random read/write workloads: throughput before tuning (default
//! Lustre settings), after "12 hours" of training and after "24 hours" of
//! training, at read:write ratios 9:1, 4:1, 1:1, 1:4 and 1:9.
//!
//! The paper's headline numbers: write-heavy mixes gain the most (up to 45 %
//! at 1:9), read-heavy mixes see little change, and 24 h of training helps
//! mainly on the noisier read-heavy mixes.
//!
//! Run with `cargo run --release -p capes-bench --bin fig2`
//! (`CAPES_FULL=1` for paper-scale training durations).

use capes::prelude::*;
use capes_bench::{build_system, print_figure, write_json, Bar, FigureRow, Scale};

fn main() {
    let scale = Scale::from_env();
    let ratios = [0.9, 0.8, 0.5, 0.2, 0.1];
    let mut rows = Vec::new();

    for (i, &read_fraction) in ratios.iter().enumerate() {
        let workload = Workload::random_rw(read_fraction);
        let label = workload.kind().label();
        eprintln!("[fig2] workload {label}: training ({scale:?} scale)…");
        let seed = 2000 + i as u64;

        // One experiment plan covers the whole 12 h → 24 h protocol: train to
        // the 12-hour mark, measure baseline and tuned, train the remaining
        // 12 hours on the same system, measure tuned again.
        let report = build_system(workload, scale, seed).run(&[
            Phase::Train {
                ticks: scale.twelve_hours(),
            },
            Phase::Baseline {
                ticks: scale.measurement_ticks(),
            },
            Phase::Tuned {
                ticks: scale.measurement_ticks(),
                label: "after 12h".into(),
            },
            Phase::Train {
                ticks: scale.twenty_four_hours() - scale.twelve_hours(),
            },
            Phase::Tuned {
                ticks: scale.measurement_ticks(),
                label: "after 24h".into(),
            },
        ]);

        rows.push(FigureRow {
            workload: label,
            bars: vec![
                Bar::from_session(report.baseline().expect("baseline phase ran")),
                Bar::from_session(report.session("after 12h").expect("12h phase ran")),
                Bar::from_session(report.session("after 24h").expect("24h phase ran")),
            ],
        });
    }

    print_figure(
        "Figure 2: random read/write workloads, baseline vs. 12h vs. 24h training",
        &rows,
    );
    write_json("fig2", &rows);

    // Qualitative check mirroring the paper's reading of the figure.
    let write_heavy_gain = rows.last().map(|r| r.improvement_pct(2)).unwrap_or(0.0);
    let read_heavy_gain = rows.first().map(|r| r.improvement_pct(2)).unwrap_or(0.0);
    println!(
        "\nwrite-heavy (1:9) gain: {write_heavy_gain:+.1}%   read-heavy (9:1) gain: {read_heavy_gain:+.1}%"
    );
    println!("paper: +45% at 1:9, no obvious effect at 9:1");
}
