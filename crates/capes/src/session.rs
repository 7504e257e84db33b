//! Session results.
//!
//! The paper's evaluation workflow (Appendix A.4) is "turn on CAPES and train
//! for 12–24 hours, turn it off and measure the baseline, turn it on and
//! measure the tuned performance". Those phases are expressed declaratively
//! as [`crate::experiment::Phase`]s, run by
//! [`CapesSystem::run`](crate::system::CapesSystem::run); each produces one
//! [`SessionResult`].

use crate::experiment::PhaseKind;
use capes_stats::{analyze, AnalysisReport};

/// The outcome of one measurement or training session.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// The kind of phase that produced this session.
    pub kind: PhaseKind,
    /// Human-readable label ("baseline", "tuned after 12 h", …).
    pub label: String,
    /// Per-second aggregate throughput, MB/s.
    pub throughput_series: Vec<f64>,
    /// `(tick, prediction error)` pairs from training steps run during the
    /// session (empty for baseline/tuning sessions).
    pub prediction_errors: Vec<(u64, f64)>,
    /// Pilot-style statistical analysis of the throughput series.
    pub analysis: AnalysisReport,
    /// Parameter values in force at the end of the session.
    pub final_params: Vec<f64>,
}

serde::serialize_struct! { SessionResult {
    kind, label, throughput_series, prediction_errors, analysis, final_params,
} }

impl SessionResult {
    /// Mean steady-state throughput (after transient removal and subsession
    /// analysis), MB/s.
    pub fn mean_throughput(&self) -> f64 {
        self.analysis.interval.mean
    }

    /// Half-width of the 95 % confidence interval on the mean throughput.
    pub fn ci_half_width(&self) -> f64 {
        self.analysis.interval.half_width
    }

    /// Relative improvement of this session over `baseline`
    /// (`0.45` means 45 % faster).
    pub fn improvement_over(&self, baseline: &SessionResult) -> f64 {
        if baseline.mean_throughput() <= 0.0 {
            return 0.0;
        }
        self.mean_throughput() / baseline.mean_throughput() - 1.0
    }

    /// Paper-style one-line summary, e.g. `"tuned: 312.4 ± 5.1 MB/s"`.
    pub fn summary(&self) -> String {
        format!(
            "{}: {:.1} ± {:.1} MB/s",
            self.label,
            self.mean_throughput(),
            self.ci_half_width()
        )
    }

    /// Builds a session result from a phase's measured throughput series and
    /// prediction errors, running the Pilot-style statistical analysis. Its
    /// one caller is [`CapesSystem::end_phase`](crate::system::CapesSystem::end_phase),
    /// which moves the system's phase record in.
    pub(crate) fn from_series(
        kind: PhaseKind,
        label: impl Into<String>,
        series: Vec<f64>,
        prediction_errors: Vec<(u64, f64)>,
        final_params: Vec<f64>,
    ) -> Self {
        let analysis = analyze(&series);
        SessionResult {
            kind,
            label: label.into(),
            throughput_series: series,
            prediction_errors,
            analysis,
            final_params,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Capes;
    use crate::experiment::Phase;
    use crate::hyperparams::Hyperparameters;
    use crate::system::CapesSystem;
    use crate::target::test_target::QuadraticTarget;
    use crate::target::TargetSystem;

    fn system() -> CapesSystem<QuadraticTarget> {
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
            .expect("valid configuration")
    }

    #[test]
    fn phases_produce_series_and_statistics() {
        let mut sys = system();
        let [baseline, training, tuned] = sys
            .run(&[
                Phase::Baseline { ticks: 120 },
                Phase::Train { ticks: 300 },
                Phase::Tuned {
                    ticks: 120,
                    label: "tuned".into(),
                },
            ])
            .sessions
            .try_into()
            .expect("one session per phase");
        assert_eq!(baseline.kind, PhaseKind::Baseline);
        assert_eq!(baseline.throughput_series.len(), 120);
        assert!(baseline.mean_throughput() > 0.0);
        assert!(baseline.prediction_errors.is_empty());
        assert!(baseline.summary().contains("baseline"));
        assert_eq!(baseline.final_params, vec![10.0]);

        assert_eq!(training.kind, PhaseKind::Train);
        assert_eq!(training.throughput_series.len(), 300);
        assert!(!training.prediction_errors.is_empty());

        assert_eq!(tuned.kind, PhaseKind::Tuned);
        assert_eq!(tuned.throughput_series.len(), 120);
        assert!(tuned.label == "tuned");
    }

    #[test]
    fn improvement_is_relative_to_baseline() {
        let base = SessionResult::from_series(
            PhaseKind::Baseline,
            "b",
            vec![100.0; 64],
            Vec::new(),
            vec![],
        );
        let better =
            SessionResult::from_series(PhaseKind::Tuned, "t", vec![145.0; 64], Vec::new(), vec![]);
        let improvement = better.improvement_over(&base);
        assert!((improvement - 0.45).abs() < 1e-9);
        assert_eq!(base.improvement_over(&base), 0.0);
    }

    #[test]
    fn baseline_phase_resets_parameters() {
        let mut sys = system();
        sys.target_mut().apply_params(&[90.0]);
        let report = sys.run(&[Phase::Baseline { ticks: 30 }]);
        assert_eq!(
            report.sessions[0].final_params,
            vec![10.0],
            "defaults restored first"
        );
    }

    #[test]
    fn json_parses_back_to_the_in_memory_value() {
        use serde::{Serialize, Value};
        let r = SessionResult::from_series(
            PhaseKind::Train,
            "x",
            vec![1.0, 2.0, 3.0, 4.0],
            vec![(0, 0.5)],
            vec![8.0],
        );
        let json: Value = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(json, r.to_value());
    }
}
