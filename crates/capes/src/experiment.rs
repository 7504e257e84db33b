//! Declarative experiment plans.
//!
//! The paper's evaluation workflow (Appendix A.4) is always some arrangement
//! of three phases: *train* (CAPES on, ε-greedy actions, 12–24 h), *baseline*
//! (CAPES off, default parameters) and *tuned* (trained policy acting
//! greedily). A plan is a slice of [`Phase`]s, run by
//! [`CapesSystem::run`](crate::system::CapesSystem::run):
//!
//! ```
//! use capes::prelude::*;
//!
//! let target = SimulatedLustre::builder().seed(7).build();
//! let mut system = Capes::builder(target)
//!     .hyperparams(Hyperparameters::quick_test())
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let report = system.run(&[
//!     Phase::Baseline { ticks: 40 },
//!     Phase::Train { ticks: 60 },
//!     Phase::Tuned { ticks: 40, label: "tuned".into() },
//! ]);
//! assert_eq!(report.sessions.len(), 3);
//! ```
//!
//! The resulting [`ExperimentReport`] aggregates the per-phase
//! [`SessionResult`]s, computes improvements over the baseline and serializes
//! to JSON for the figure binaries.

use crate::session::SessionResult;

/// The kind of work a phase performs (also tags every [`SessionResult`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Parameters reset to defaults; no engine involvement.
    Baseline,
    /// The engine explores/learns while the system serves the workload.
    Train,
    /// The engine exploits what it has learnt; no training.
    Tuned,
}

serde::serialize_unit_enum! { PhaseKind { Baseline, Train, Tuned } }

impl PhaseKind {
    /// Lower-case label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            PhaseKind::Baseline => "baseline",
            PhaseKind::Train => "training",
            PhaseKind::Tuned => "tuned",
        }
    }
}

/// One phase of an experiment plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// Reset parameters to their defaults and measure without tuning.
    Baseline {
        /// Phase length in ticks (simulated seconds).
        ticks: u64,
    },
    /// Online training/search: exploratory actions plus training steps.
    Train {
        /// Phase length in ticks.
        ticks: u64,
    },
    /// Measure with the engine exploiting (greedy policy / best candidate).
    Tuned {
        /// Phase length in ticks.
        ticks: u64,
        /// Label attached to the resulting session (e.g. `"after 12h"`).
        label: String,
    },
}

impl Phase {
    /// The phase's kind.
    pub fn kind(&self) -> PhaseKind {
        match self {
            Phase::Baseline { .. } => PhaseKind::Baseline,
            Phase::Train { .. } => PhaseKind::Train,
            Phase::Tuned { .. } => PhaseKind::Tuned,
        }
    }

    /// The phase's length in ticks.
    pub fn ticks(&self) -> u64 {
        match self {
            Phase::Baseline { ticks } | Phase::Train { ticks } | Phase::Tuned { ticks, .. } => {
                *ticks
            }
        }
    }

    /// The label the phase's session will carry.
    pub fn label(&self) -> String {
        match self {
            Phase::Tuned { label, .. } => label.clone(),
            other => other.kind().label().to_string(),
        }
    }
}

/// The aggregated outcome of an experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// One session result per executed phase, in plan order.
    pub sessions: Vec<SessionResult>,
}

serde::serialize_struct! { ExperimentReport { sessions } }

impl ExperimentReport {
    /// The first baseline session, if the plan had one.
    pub fn baseline(&self) -> Option<&SessionResult> {
        self.sessions.iter().find(|s| s.kind == PhaseKind::Baseline)
    }

    /// The session with the given label.
    pub fn session(&self, label: &str) -> Option<&SessionResult> {
        self.sessions.iter().find(|s| s.label == label)
    }

    /// Relative improvement of the labelled session over the baseline
    /// (`Some(0.45)` means 45 % faster). `None` if either session is missing.
    pub fn improvement_over_baseline(&self, label: &str) -> Option<f64> {
        let baseline = self.baseline()?;
        let session = self.session(label)?;
        Some(session.improvement_over(baseline))
    }

    /// Paper-style multi-line summary of every session.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for session in &self.sessions {
            out.push_str(&session.summary());
            if let Some(baseline) = self.baseline() {
                if session.kind != PhaseKind::Baseline {
                    out.push_str(&format!(
                        "  ({:+.1}% vs baseline)",
                        session.improvement_over(baseline) * 100.0
                    ));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Capes;
    use crate::hyperparams::Hyperparameters;
    use crate::system::{CapesSystem, SystemTick};
    use crate::target::test_target::QuadraticTarget;
    use std::sync::{Arc, Mutex};

    fn quick_system() -> CapesSystem<QuadraticTarget> {
        Capes::builder(QuadraticTarget::new(55.0))
            .hyperparams(Hyperparameters {
                sampling_ticks_per_observation: 3,
                exploration_period_ticks: 200,
                adam_learning_rate: 2e-3,
                train_steps_per_tick: 2,
                ..Hyperparameters::quick_test()
            })
            .seed(11)
            .build()
            .expect("valid system")
    }

    #[test]
    fn phases_run_in_order_and_fill_the_report() {
        let mut system = quick_system();
        let report = system.run(&[
            Phase::Baseline { ticks: 50 },
            Phase::Train { ticks: 120 },
            Phase::Tuned {
                ticks: 50,
                label: "tuned".into(),
            },
        ]);
        assert_eq!(report.sessions.len(), 3);
        assert_eq!(report.sessions[0].kind, PhaseKind::Baseline);
        assert_eq!(report.sessions[1].kind, PhaseKind::Train);
        assert_eq!(report.sessions[2].kind, PhaseKind::Tuned);
        assert_eq!(report.sessions[0].throughput_series.len(), 50);
        assert_eq!(report.sessions[1].throughput_series.len(), 120);
        assert!(report.baseline().is_some());
        assert!(report.session("tuned").is_some());
        assert!(report.improvement_over_baseline("tuned").is_some());
        assert!(report.summary().contains("baseline"));
        // Each phase's record moved into its session; a second run
        // continues on the same system.
        assert!(system.phase_throughput().is_empty());
        assert!(system.prediction_errors().is_empty());
        let report2 = system.run(&[Phase::Train { ticks: 30 }]);
        assert_eq!(report2.sessions.len(), 1);
        assert_eq!(report2.sessions[0].throughput_series.len(), 30);
        assert_eq!(system.tick(), 250);
    }

    #[test]
    fn phase_accessors() {
        assert_eq!(Phase::Baseline { ticks: 5 }.kind(), PhaseKind::Baseline);
        assert_eq!(Phase::Train { ticks: 7 }.ticks(), 7);
        let tuned = Phase::Tuned {
            ticks: 9,
            label: "after 12h".into(),
        };
        assert_eq!(tuned.label(), "after 12h");
        assert_eq!(Phase::Train { ticks: 1 }.label(), "training");
        assert_eq!(PhaseKind::Tuned.label(), "tuned");
    }

    #[test]
    fn report_json_parses_back_to_its_sessions() {
        use serde::{map_get, Serialize, Value};
        let report = quick_system().run(&[
            Phase::Baseline { ticks: 30 },
            Phase::Tuned {
                ticks: 30,
                label: "t".into(),
            },
        ]);
        let json: Value = serde_json::from_str(&report.to_json()).expect("valid JSON");
        let sessions = map_get(json.as_map().unwrap(), "sessions").unwrap();
        assert_eq!(sessions, &report.sessions.to_value());
        assert_eq!(sessions.as_seq().unwrap().len(), 2);
    }

    #[test]
    fn observers_stream_every_tick() {
        // Observers are `Send` (fleet members shard across worker threads),
        // so the stream is collected behind an Arc<Mutex>.
        let seen: Arc<Mutex<Vec<(PhaseKind, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let mut system = Capes::builder(QuadraticTarget::new(50.0))
            .hyperparams(Hyperparameters::quick_test())
            .seed(3)
            .observer(move |kind: PhaseKind, tick: &SystemTick| {
                sink.lock().unwrap().push((kind, tick.tick));
            })
            .build()
            .expect("valid system");
        system.run(&[Phase::Baseline { ticks: 10 }, Phase::Train { ticks: 15 }]);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 25);
        assert!(seen[..10].iter().all(|(k, _)| *k == PhaseKind::Baseline));
        assert!(seen[10..].iter().all(|(k, _)| *k == PhaseKind::Train));
        // Ticks are globally monotonic across phases.
        assert!(seen.windows(2).all(|w| w[1].1 == w[0].1 + 1));
    }
}
