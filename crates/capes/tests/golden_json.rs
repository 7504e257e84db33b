//! `ExperimentReport::to_json` pinned byte for byte: a hand-built report with
//! a NaN, an empty series, `(tick, error)` pairs and a label that needs
//! escaping must print exactly the committed fixture.

use capes::{ExperimentReport, PhaseKind, SessionResult};
use capes_stats::{AnalysisReport, ConfidenceInterval};

fn session(kind: PhaseKind, label: &str, mean: f64) -> SessionResult {
    SessionResult {
        kind,
        label: label.into(),
        throughput_series: vec![mean - 1.5, mean, mean + 1.5],
        prediction_errors: Vec::new(),
        analysis: AnalysisReport {
            interval: ConfidenceInterval {
                mean,
                half_width: 1.25,
                confidence: 0.95,
                samples: 3,
            },
            raw_autocorrelation: -0.125,
            merge_factor: 1,
            warmup_removed: 0,
            cooldown_removed: 2,
            converged: true,
            raw_samples: 5,
        },
        final_params: vec![8.0, 16.0],
    }
}

#[test]
fn experiment_report_json_matches_the_golden() {
    let mut train = session(PhaseKind::Train, "training", 250.0);
    train.prediction_errors = vec![(3, 0.5), (6, 1e-7)];
    train.analysis.raw_autocorrelation = f64::NAN;
    train.analysis.converged = false;
    let mut tuned = session(PhaseKind::Tuned, "tuned \"12 h\"\\\n\t\u{1}é", 312.5);
    tuned.throughput_series.clear();
    let report = ExperimentReport {
        sessions: vec![
            session(PhaseKind::Baseline, "baseline", 200.0),
            train,
            tuned,
        ],
    };
    assert_eq!(
        report.to_json(),
        include_str!("fixtures/experiment_report.json")
    );
}
