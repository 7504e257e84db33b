//! The windowed fleet rate advances on every tick, recorded or not: with
//! span recording switched off, the report field and the
//! `fleet.tick.recent_rate` gauge still read a positive rate after three
//! ticks. The recording switch is process-wide, so this test has its own
//! binary.

use capes::{Hyperparameters, Phase, Transport};
use capes_fleet::{Fleet, ScenarioSpec};
use capes_simstore::Workload;

#[test]
fn recent_rate_advances_with_recording_off() {
    capes_telemetry::set_recording(false);
    let mut fleet = Fleet::builder()
        .hyperparams(Hyperparameters::quick_test())
        .seed(5)
        .transport(Transport::Wire)
        .scenarios([
            ScenarioSpec::new("w", Workload::random_rw(0.1)).clients(2),
            ScenarioSpec::new("r", Workload::random_rw(0.9)).clients(2),
        ])
        .build()
        .expect("valid fleet");
    let report = fleet.run(&[Phase::Baseline { ticks: 3 }]);

    assert!(report.recent_cluster_ticks_per_sec > 0.0);
    let snapshot = capes_telemetry::global().snapshot();
    let gauge = snapshot
        .gauges
        .iter()
        .find(|g| g.name == "fleet.tick.recent_rate")
        .map(|g| g.value);
    assert!(gauge.is_some_and(|rate| rate > 0.0), "gauge {gauge:?}");
}
