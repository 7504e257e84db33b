//! End-to-end integration tests: the full CAPES pipeline (simulator →
//! monitoring agents → interface daemon → replay DB → tuning engine → control
//! agent → simulator) on scaled-down versions of the paper's experiments,
//! driven through the builder-first construction API and declarative
//! `Phase` plans run by `CapesSystem::run`.

use capes::prelude::*;
use serde::{map_get, Serialize, Value};

fn quick_hyperparams() -> Hyperparameters {
    Hyperparameters {
        sampling_ticks_per_observation: 4,
        exploration_period_ticks: 1500,
        adam_learning_rate: 1e-3,
        train_steps_per_tick: 2,
        ..Hyperparameters::quick_test()
    }
}

fn build_system(workload: Workload, seed: u64) -> CapesSystem<SimulatedLustre> {
    let target = SimulatedLustre::builder()
        .workload(workload)
        .seed(seed)
        .build();
    Capes::builder(target)
        .hyperparams(quick_hyperparams())
        .seed(seed)
        .build()
        .expect("valid configuration")
}

#[test]
fn training_improves_write_heavy_throughput_over_baseline() {
    // Scaled-down Figure 2 (1:9 column): after training, tuned throughput must
    // beat the default-settings baseline by a clear margin.
    let report = build_system(Workload::random_rw(0.1), 20170).run(&[
        Phase::Baseline { ticks: 400 },
        Phase::Train { ticks: 6_000 },
        Phase::Tuned {
            ticks: 400,
            label: "tuned".into(),
        },
    ]);
    let improvement = report
        .improvement_over_baseline("tuned")
        .expect("baseline and tuned sessions ran");
    assert!(
        improvement > 0.10,
        "expected ≥10% improvement on the write-heavy workload, got {:.1}% ({} vs {})",
        improvement * 100.0,
        report.session("tuned").unwrap().summary(),
        report.baseline().unwrap().summary()
    );
}

#[test]
fn tuned_parameters_move_away_from_the_defaults() {
    let mut system = build_system(Workload::random_rw(0.1), 77);
    system.run(&[Phase::Train { ticks: 5_000 }]);
    let params = system.current_params();
    let defaults: Vec<f64> = system
        .target()
        .tunable_specs()
        .iter()
        .map(|s| s.default)
        .collect();
    assert_ne!(
        params, defaults,
        "after thousands of training ticks the parameters should have moved"
    );
}

#[test]
fn prediction_error_decreases_during_training() {
    // Scaled-down Figure 5: the mean prediction error late in training must be
    // below the mean error right after the warm-up.
    let report = build_system(Workload::random_rw(0.1), 31).run(&[Phase::Train { ticks: 4_000 }]);
    let errors: Vec<f64> = report.sessions[0]
        .prediction_errors
        .iter()
        .map(|(_, e)| *e)
        .collect();
    assert!(errors.len() > 1_000, "training steps should have run");
    let early: f64 = errors[50..250].iter().sum::<f64>() / 200.0;
    let late: f64 = errors[errors.len() - 200..].iter().sum::<f64>() / 200.0;
    assert!(
        late < early,
        "prediction error should fall during training (early {early:.3}, late {late:.3})"
    );
}

#[test]
fn replay_db_fills_and_monitoring_traffic_stays_small() {
    // Scaled-down Table 2: after N ticks the replay DB holds N records and the
    // differential protocol keeps per-report sizes small.
    let mut system = build_system(Workload::fileserver(), 8);
    system.run(&[Phase::Train { ticks: 300 }]);
    assert_eq!(system.replay_db().len(), 300);
    let daemon = system.daemon_stats();
    assert_eq!(daemon.reports_received, 300 * 5, "5 clients × 300 ticks");
    assert_eq!(daemon.objectives_recorded, 300);
    assert!(daemon.actions_broadcast > 250);
    for stats in system.monitor_stats() {
        assert_eq!(stats.reports, 300);
        assert!(
            stats.mean_bytes_per_report() < 200.0,
            "differential reports should stay compact, got {:.0} B",
            stats.mean_bytes_per_report()
        );
    }
}

#[test]
fn checkpointed_model_keeps_its_gains_in_a_later_session() {
    // Scaled-down Figure 4: train, checkpoint, perturb the cluster (simulating
    // two weeks of unrelated file operations), restore the model, and check the
    // tuned run still beats the baseline.
    let checkpoint =
        std::env::temp_dir().join(format!("capes-integration-{}.ckpt", std::process::id()));
    let mut system = build_system(Workload::random_rw(0.1), 404);
    system.run(&[Phase::Train { ticks: 6_000 }]);
    system.save_checkpoint(&checkpoint).unwrap();

    // A later session: perturbed cluster, fresh CAPES deployment, restored model.
    let mut later = build_system(Workload::random_rw(0.1), 405);
    later
        .target_mut()
        .cluster_mut()
        .perturb_session(0.8, 60 * 24 * 14);
    later.restore_checkpoint(&checkpoint, 406).unwrap();

    let report = later.run(&[
        Phase::Baseline { ticks: 400 },
        Phase::Tuned {
            ticks: 400,
            label: "tuned".into(),
        },
    ]);
    assert!(
        report.improvement_over_baseline("tuned").unwrap() > 0.05,
        "restored model should still help: {} vs {}",
        report.session("tuned").unwrap().summary(),
        report.baseline().unwrap().summary()
    );
    std::fs::remove_file(&checkpoint).ok();
}

#[test]
fn multi_objective_tuning_runs_and_reports() {
    // The future-work multi-objective reward (§6): throughput and latency
    // combined. Verifies the pipeline accepts a non-default objective through
    // the builder.
    let target = SimulatedLustre::builder()
        .workload(Workload::random_rw(0.5))
        .seed(55)
        .build();
    let mut system = Capes::builder(target)
        .hyperparams(quick_hyperparams())
        .objective(Objective::Weighted {
            throughput_weight: 1.0,
            latency_weight: 0.5,
        })
        .seed(55)
        .build()
        .expect("valid configuration");
    let report = system.run(&[Phase::Train { ticks: 600 }]);
    assert!(report.sessions[0].mean_throughput() > 0.0);
    assert!(!report.sessions[0].prediction_errors.is_empty());
}

#[test]
fn action_checker_keeps_vetoed_regions_untouched() {
    // Appendix A.4: operators can declare that the congestion window must
    // never drop below 8. With the checker in place, no training action may
    // ever leave the window below that bound.
    use capes_agents::{checker::ParamBound, ActionChecker};

    let target = SimulatedLustre::builder()
        .workload(Workload::random_rw(0.1))
        .seed(66)
        .build();
    let checker = ActionChecker::new(vec![
        ParamBound {
            name: "max_rpcs_in_flight",
            min: 8.0,
            max: 256.0,
        },
        ParamBound {
            name: "io_rate_limit",
            min: 50.0,
            max: 2000.0,
        },
    ]);
    let mut system = Capes::builder(target)
        .hyperparams(quick_hyperparams())
        .objective(Objective::Throughput)
        .checker(checker)
        .seed(66)
        .build()
        .expect("valid configuration");
    for _ in 0..800 {
        system.training_tick();
        let params = system.current_params();
        assert!(
            params[0] >= 8.0,
            "the action checker must keep the window at or above 8, got {}",
            params[0]
        );
    }
}

#[test]
fn builder_surfaces_invalid_configurations_as_typed_errors() {
    // Invalid hyperparameters: a typed error, not a panic.
    let target = SimulatedLustre::builder().seed(1).build();
    let result = Capes::builder(target)
        .hyperparams(Hyperparameters {
            discount_rate: 2.0,
            ..Hyperparameters::paper()
        })
        .build();
    assert!(matches!(
        result.err().expect("must fail"),
        CapesError::InvalidHyperparameter {
            name: "discount_rate",
            ..
        }
    ));
}

#[test]
fn experiment_reports_round_trip_through_json() {
    let report = build_system(Workload::random_rw(0.5), 12).run(&[
        Phase::Baseline { ticks: 60 },
        Phase::Train { ticks: 120 },
        Phase::Tuned {
            ticks: 60,
            label: "tuned".into(),
        },
    ]);
    // JSON is write-only: the printed report must parse back to exactly the
    // in-memory sessions, labels and counts included.
    let json: Value = serde_json::from_str(&report.to_json()).expect("valid JSON");
    let sessions = map_get(json.as_map().unwrap(), "sessions").unwrap();
    assert_eq!(sessions, &report.sessions.to_value());
    let labels: Vec<_> = sessions
        .as_seq()
        .unwrap()
        .iter()
        .map(|s| map_get(s.as_map().unwrap(), "label").and_then(Value::as_str))
        .collect();
    assert_eq!(labels, [Some("baseline"), Some("training"), Some("tuned")]);
}

#[test]
fn per_tick_observers_stream_during_every_phase() {
    use std::sync::Arc;
    use std::sync::Mutex;

    // Observers are `Send` (fleet members shard across worker threads), so
    // the tallies live behind an Arc<Mutex> rather than an Rc<RefCell>.
    let counts: Arc<Mutex<(u64, u64, u64)>> = Arc::new(Mutex::new((0, 0, 0)));
    let sink = counts.clone();
    let target = SimulatedLustre::builder()
        .workload(Workload::random_rw(0.1))
        .seed(9)
        .build();
    let mut system = Capes::builder(target)
        .hyperparams(quick_hyperparams())
        .seed(9)
        .observer(move |kind: PhaseKind, _tick: &SystemTick| {
            let mut counts = sink.lock().unwrap();
            match kind {
                PhaseKind::Baseline => counts.0 += 1,
                PhaseKind::Train => counts.1 += 1,
                PhaseKind::Tuned => counts.2 += 1,
            }
        })
        .build()
        .expect("valid configuration");
    system.run(&[
        Phase::Baseline { ticks: 40 },
        Phase::Train { ticks: 70 },
        Phase::Tuned {
            ticks: 25,
            label: "t".into(),
        },
    ]);
    assert_eq!(*counts.lock().unwrap(), (40, 70, 25));
}

#[test]
fn capes_is_competitive_with_search_tuners_on_the_simulator() {
    // The paper's future-work comparison, driven through the unified
    // TuningEngine code path: hill climbing and CAPES each get the same
    // simulated cluster and the same baseline → train → tuned plan.
    let target = SimulatedLustre::builder()
        .workload(Workload::random_rw(0.1))
        .seed(88)
        .build();
    let mut search_system = Capes::builder(target)
        .hyperparams(quick_hyperparams())
        .engine(Box::new(SearchEngine::new(HillClimbing::new(40), 60)))
        .seed(88)
        .build()
        .expect("valid configuration");
    let search_report = search_system.run(&[
        Phase::Train { ticks: 40 * 60 },
        Phase::Tuned {
            ticks: 400,
            label: "hill climbing".into(),
        },
    ]);
    let hill_tuned = search_report.session("hill climbing").unwrap();
    assert!(
        search_system.engine().is_converged(),
        "the hill climb should finish within its tick budget"
    );

    let report = build_system(Workload::random_rw(0.1), 88).run(&[
        Phase::Train { ticks: 6_000 },
        Phase::Baseline { ticks: 400 },
        Phase::Tuned {
            ticks: 400,
            label: "capes".into(),
        },
    ]);
    let baseline = report.baseline().unwrap();
    let tuned = report.session("capes").unwrap();

    // Hill climbing with a repeatable workload and a generous evaluation
    // budget is close to an oracle on this two-parameter surface; the paper's
    // point is that CAPES reaches a useful configuration *without* a
    // repeatable offline search. At the scaled-down training length the DQN's
    // seed-to-seed variance is large, so the guards here are deliberately
    // loose: CAPES must not lose to the untuned defaults and must stay within
    // a factor of the offline-search result.
    assert!(
        tuned.mean_throughput() >= baseline.mean_throughput() * 0.98,
        "CAPES ({:.1} MB/s) must not lose to the baseline ({:.1} MB/s)",
        tuned.mean_throughput(),
        baseline.mean_throughput()
    );
    assert!(
        tuned.mean_throughput() > hill_tuned.mean_throughput() * 0.6,
        "CAPES ({:.1} MB/s) should be within range of hill climbing ({:.1} MB/s)",
        tuned.mean_throughput(),
        hill_tuned.mean_throughput()
    );
}
