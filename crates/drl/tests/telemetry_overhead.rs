//! The instrumentation budget: the Table 2 training step (600-wide
//! `paper_default` agent, minibatch 32) with its spans recording must take
//! at most 3 % longer than the same step with
//! `capes_telemetry::set_recording(false)`.
//!
//! Both arms run the same warmed agent on the same replay database; only the
//! process-wide recording switch differs. Steps alternate between the arms in
//! ABBA order (off, on, on, off, …), so every step sits next to a step of the
//! other arm, half of them before it and half after. The overhead is the
//! median of those adjacent on/off ratios: host drift (frequency changes, a
//! neighbour waking up) moves both steps of a pair alike, and a burst of
//! descheduled steps spoils a few pairs, not the median. Best-of-trials,
//! per-arm minima and per-arm medians all read past the bound on noise alone:
//! slow bursts span several consecutive steps and need not land on both arms
//! equally.
//!
//! The switch is global, so the test lives in its own integration-test
//! binary: no concurrently running test can record into either arm.

use capes_drl::{DqnAgent, DqnAgentConfig};
use capes_replay::{ReplayConfig, SharedReplayDb};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Observation width of the Table 2 network.
const OBSERVATION: usize = 600;
/// Timed steps per arm.
const STEPS_PER_ARM: usize = 60;
/// Largest allowed recording-on / recording-off ratio of the median steps.
const MAX_OVERHEAD: f64 = 1.03;

fn filled_db(ticks: u64) -> SharedReplayDb {
    let mut rng = StdRng::seed_from_u64(7);
    let db = SharedReplayDb::new(ReplayConfig {
        num_nodes: 1,
        pis_per_node: OBSERVATION,
        ticks_per_observation: 1,
        missing_entry_tolerance: 0.2,
        capacity_ticks: ticks as usize + 10,
    });
    for t in 0..ticks {
        let pis: Vec<f64> = (0..OBSERVATION).map(|_| rng.gen_range(-1.0..1.0)).collect();
        db.insert_snapshot(t, 0, pis);
        db.insert_objective(t, rng.gen_range(0.5..1.5));
        db.insert_action(t, rng.gen_range(0..5));
    }
    db
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

#[test]
fn recording_spans_costs_at_most_three_percent_of_a_train_step() {
    let db = filled_db(500);
    let mut agent = DqnAgent::new(DqnAgentConfig::paper_default(OBSERVATION, 2), 1);
    let mut step = |recording: bool| {
        capes_telemetry::set_recording(recording);
        let start = Instant::now();
        let report = agent.train_from_db(&db).expect("sampling succeeds");
        let elapsed = start.elapsed().as_secs_f64();
        assert!(report.is_some(), "the database holds enough to train");
        elapsed
    };

    // Warm-up: sizes the workspaces, the worker pool and both span paths.
    for i in 0..8 {
        step(i % 2 == 1);
    }

    let train_span = capes_telemetry::global().histogram("drl.train_step");
    let spans_before = train_span.count();

    // ABBA: each pair of adjacent steps is one step per arm, recording off
    // first in even pairs and on first in odd ones.
    let (mut off, mut on, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..STEPS_PER_ARM {
        let on_first = pair % 2 == 1;
        let first = step(on_first);
        let second = step(!on_first);
        let (off_step, on_step) = if on_first {
            (second, first)
        } else {
            (first, second)
        };
        off.push(off_step);
        on.push(on_step);
        ratios.push(on_step / off_step);
    }
    capes_telemetry::set_recording(true);
    assert_eq!(
        train_span.count(),
        spans_before + STEPS_PER_ARM as u64,
        "exactly the recording arm's steps record their drl.train_step span"
    );

    let ratio = median(ratios);
    let (off, on) = (median(off) * 1e3, median(on) * 1e3);
    println!(
        "train step median: recording off {off:.3} ms, on {on:.3} ms; paired ratio {ratio:.4}"
    );
    assert!(
        ratio <= MAX_OVERHEAD,
        "recording spans costs more than 3 % of a train step: median paired ratio {ratio:.4} \
         (median step off {off:.3} ms, on {on:.3} ms)"
    );
}
