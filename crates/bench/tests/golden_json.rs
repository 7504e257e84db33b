//! The figure and engine rows the `fig*`/`table*` binaries write, pinned byte
//! for byte against a committed fixture.

use capes_bench::{Bar, EngineRow, FigureRow};

#[test]
fn figure_and_engine_rows_json_matches_the_golden() {
    let bar = |label: &str, mean: f64, ci: f64| Bar {
        label: label.into(),
        mean,
        ci,
    };
    let figure = FigureRow {
        workload: "random 1:9".into(),
        bars: vec![
            bar("baseline", 100.0, 2.5),
            bar("12 h", 145.25, f64::INFINITY),
        ],
    };
    let engine = EngineRow {
        engine: "hill-climbing".into(),
        baseline_mean: 100.0,
        tuned_mean: 145.25,
        improvement_pct: 45.25,
        train_ticks: 6000,
        final_params: Vec::new(),
    };
    let json = serde_json::to_string_pretty(&(vec![figure], vec![engine])).unwrap();
    assert_eq!(json, include_str!("fixtures/rows.json"));
}
