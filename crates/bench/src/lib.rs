//! # capes-bench
//!
//! The benchmark harness: regenerates every table and figure of the CAPES
//! paper's evaluation on the simulated cluster.
//!
//! Each `fig*` / `table*` binary in `src/bin/` reproduces one artifact:
//!
//! | binary   | paper artifact | content |
//! |----------|----------------|---------|
//! | `fig2`   | Figure 2 | random R/W mixes: baseline vs. 12 h vs. 24 h training |
//! | `fig3`   | Figure 3 | fileserver & sequential write: baseline vs. CAPES |
//! | `fig4`   | Figure 4 | overfitting check: three later sessions reusing one model |
//! | `fig5`   | Figure 5 | prediction error over the training session |
//! | `fig6`   | Figure 6 | training-session throughput vs. the baselines |
//! | `table1` | Table 1  | hyperparameters in force + engine line-up |
//! | `table2` | Table 2  | technical measurements (training-step time, DB sizes, message sizes, engine comparison) |
//!
//! All binaries run a scaled-down configuration by default so the whole set
//! finishes in minutes; set `CAPES_FULL=1` to run paper-scale durations
//! (12 h / 24 h training = 43 200 / 86 400 simulated seconds).
//!
//! Everything is driven through the `capes` crate's builder +
//! `CapesSystem::run` API; [`compare_engines`] runs the DRL engine and the three search
//! comparators through one generic [`TuningEngine`] code path (the paper's
//! future-work comparison).
//!
//! Timing lives elsewhere: the detached `benchmark/` workspace times the
//! kernels behind Table 2 (GEMM, forward/backward, Adam, the training step)
//! and every fleet layer, and writes a machine-readable record per run.

#![forbid(unsafe_code)]

use capes::prelude::*;

/// Experiment scale selected through the `CAPES_FULL` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-long scaled-down runs (default).
    Quick,
    /// Paper-scale durations (hours of simulated time).
    Full,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Self {
        match std::env::var("CAPES_FULL") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Simulated seconds corresponding to the paper's 12-hour training run.
    pub fn twelve_hours(&self) -> u64 {
        match self {
            Scale::Quick => 6_000,
            Scale::Full => 43_200,
        }
    }

    /// Simulated seconds corresponding to the paper's 24-hour training run.
    pub fn twenty_four_hours(&self) -> u64 {
        match self {
            Scale::Quick => 10_000,
            Scale::Full => 86_400,
        }
    }

    /// Length of each baseline / tuned measurement phase.
    pub fn measurement_ticks(&self) -> u64 {
        match self {
            Scale::Quick => 600,
            Scale::Full => 7_200,
        }
    }

    /// Hyperparameters appropriate for the scale: the paper's values for the
    /// full scale, the compressed exploration schedule for the quick scale.
    pub fn hyperparameters(&self) -> Hyperparameters {
        match self {
            Scale::Quick => Hyperparameters::quick_test(),
            Scale::Full => Hyperparameters::paper(),
        }
    }
}

/// One measured bar of a figure: a label plus mean ± CI throughput.
#[derive(Debug, Clone)]
pub struct Bar {
    /// Bar label (e.g. "baseline", "12 h").
    pub label: String,
    /// Mean steady-state throughput, MB/s.
    pub mean: f64,
    /// Half-width of the 95 % confidence interval.
    pub ci: f64,
}

serde::serialize_struct! { Bar { label, mean, ci } }

impl Bar {
    /// Builds a bar from a session result.
    pub fn from_session(result: &SessionResult) -> Self {
        Bar {
            label: result.label.clone(),
            mean: result.mean_throughput(),
            ci: result.ci_half_width(),
        }
    }

    /// Builds a bar from a session result with an overriding label.
    pub fn from_session_labelled(label: impl Into<String>, result: &SessionResult) -> Self {
        Bar {
            label: label.into(),
            mean: result.mean_throughput(),
            ci: result.ci_half_width(),
        }
    }
}

/// One row of a figure: a workload plus its bars.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// Workload label (e.g. "random 1:9").
    pub workload: String,
    /// The bars, in presentation order.
    pub bars: Vec<Bar>,
}

serde::serialize_struct! { FigureRow { workload, bars } }

impl FigureRow {
    /// Relative change of bar `index` over bar 0 (the baseline), in percent.
    pub fn improvement_pct(&self, index: usize) -> f64 {
        if self.bars[0].mean <= 0.0 {
            return 0.0;
        }
        (self.bars[index].mean / self.bars[0].mean - 1.0) * 100.0
    }
}

/// Prints a figure as an aligned text table (the same rows/series the paper
/// plots).
pub fn print_figure(title: &str, rows: &[FigureRow]) {
    println!("\n=== {title} ===");
    if rows.is_empty() {
        return;
    }
    print!("{:<22}", "workload");
    for bar in &rows[0].bars {
        print!("{:>24}", bar.label);
    }
    println!();
    for row in rows {
        print!("{:<22}", row.workload);
        for bar in &row.bars {
            print!("{:>16.1} ± {:<5.1}", bar.mean, bar.ci);
        }
        for i in 1..row.bars.len() {
            print!("  [{:+.1}%]", row.improvement_pct(i));
        }
        println!();
    }
}

/// Writes experiment output as pretty JSON to
/// `target/capes-results/<name>.json`, relative to the working directory.
/// A failure is reported on stderr.
pub fn write_json<T: serde::Serialize>(name: &str, rows: &T) {
    let dir = std::path::Path::new("target").join("capes-results");
    let path = dir.join(format!("{name}.json"));
    let write = || -> Result<(), Box<dyn std::error::Error>> {
        std::fs::create_dir_all(&dir)?;
        std::fs::write(&path, serde_json::to_string_pretty(rows)?)?;
        Ok(())
    };
    match write() {
        Ok(()) => println!("(results written to {})", path.display()),
        Err(e) => eprintln!("error: results not written to {}: {e}", path.display()),
    }
}

/// Builds a CAPES system around the simulated cluster for one workload,
/// using the default (DQN) engine.
pub fn build_system(workload: Workload, scale: Scale, seed: u64) -> CapesSystem<SimulatedLustre> {
    let target = SimulatedLustre::builder()
        .workload(workload)
        .seed(seed)
        .build();
    Capes::builder(target)
        .hyperparams(scale.hyperparameters())
        .seed(seed)
        .build()
        .expect("benchmark configuration is valid")
}

/// Runs the paper's standard experiment workflow for one workload: train for
/// `train_ticks`, then measure baseline and tuned throughput — expressed as a
/// declarative [`Phase`] plan.
pub fn train_then_measure(
    workload: Workload,
    train_ticks: u64,
    scale: Scale,
    seed: u64,
) -> (SessionResult, SessionResult, CapesSystem<SimulatedLustre>) {
    let mut system = build_system(workload, scale, seed);
    let mut report = system.run(&[
        Phase::Train { ticks: train_ticks },
        Phase::Baseline {
            ticks: scale.measurement_ticks(),
        },
        Phase::Tuned {
            ticks: scale.measurement_ticks(),
            label: "tuned".into(),
        },
    ]);
    let tuned = report.sessions.pop().expect("tuned phase ran");
    let baseline = report.sessions.pop().expect("baseline phase ran");
    (baseline, tuned, system)
}

/// One engine's outcome in the unified comparison.
#[derive(Debug, Clone)]
pub struct EngineRow {
    /// Engine name as reported by [`TuningEngine::name`].
    pub engine: String,
    /// Mean baseline throughput, MB/s (defaults, engine off).
    pub baseline_mean: f64,
    /// Mean tuned throughput, MB/s (engine exploiting).
    pub tuned_mean: f64,
    /// Tuned improvement over baseline, percent.
    pub improvement_pct: f64,
    /// Exploration/training ticks the engine actually consumed: the training
    /// phase length for the online DRL engine, the measured search cost for
    /// comparators that converge early.
    pub train_ticks: u64,
    /// Parameter values the engine settled on.
    pub final_params: Vec<f64>,
}

serde::serialize_struct! { EngineRow {
    engine, baseline_mean, tuned_mean, improvement_pct, train_ticks, final_params,
} }

/// The engine line-up of the paper's future-work comparison: the DRL engine
/// (`None` = the builder's default) plus the three search comparators wrapped
/// as [`TuningEngine`]s.
pub fn engine_lineup(seed: u64, eval_ticks: u64) -> Vec<Option<Box<dyn TuningEngine>>> {
    vec![
        None,
        Some(Box::new(SearchEngine::new(StaticBaseline, eval_ticks))),
        Some(Box::new(SearchEngine::new(
            RandomSearch::new(40, seed ^ 0xface),
            eval_ticks,
        ))),
        Some(Box::new(SearchEngine::new(
            HillClimbing::new(40),
            eval_ticks,
        ))),
    ]
}

/// Drives the DRL engine and the three search comparators through one
/// generic baseline → train → tuned [`Phase`] plan — the single
/// [`TuningEngine`] code path used by `table1` and `table2`.
pub fn compare_engines(
    workload: Workload,
    scale: Scale,
    seed: u64,
    train_ticks: u64,
    measure_ticks: u64,
) -> Vec<EngineRow> {
    engine_lineup(seed, (measure_ticks / 8).max(10))
        .into_iter()
        .map(|engine| {
            let target = SimulatedLustre::builder()
                .workload(workload.clone())
                .seed(seed)
                .build();
            let mut builder = Capes::builder(target)
                .hyperparams(scale.hyperparameters())
                .seed(seed);
            if let Some(engine) = engine {
                builder = builder.engine(engine);
            }
            let mut system = builder.build().expect("benchmark configuration is valid");
            let name = system.engine().name().to_string();
            let report = system.run(&[
                Phase::Baseline {
                    ticks: measure_ticks,
                },
                Phase::Train { ticks: train_ticks },
                Phase::Tuned {
                    ticks: measure_ticks,
                    label: "tuned".into(),
                },
            ]);
            let ticks_consumed = system
                .engine()
                .exploration_ticks_used()
                .unwrap_or(train_ticks);
            let baseline = report.baseline().expect("baseline phase ran");
            let tuned = report.session("tuned").expect("tuned phase ran");
            EngineRow {
                engine: name,
                baseline_mean: baseline.mean_throughput(),
                tuned_mean: tuned.mean_throughput(),
                improvement_pct: tuned.improvement_over(baseline) * 100.0,
                train_ticks: ticks_consumed,
                final_params: tuned.final_params.clone(),
            }
        })
        .collect()
}

/// Prints an engine comparison as an aligned text table.
pub fn print_engine_comparison(title: &str, rows: &[EngineRow]) {
    println!("\n=== {title} ===");
    println!(
        "{:<22}{:>16}{:>14}{:>14}{:>14}",
        "engine", "baseline MB/s", "tuned MB/s", "improvement", "train ticks"
    );
    for row in rows {
        println!(
            "{:<22}{:>16.1}{:>14.1}{:>13.1}%{:>14}",
            row.engine, row.baseline_mean, row.tuned_mean, row.improvement_pct, row.train_ticks
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_to_quick() {
        // Note: relies on CAPES_FULL not being set in the test environment.
        if std::env::var("CAPES_FULL").is_err() {
            assert_eq!(Scale::from_env(), Scale::Quick);
        }
        assert_eq!(Scale::Full.twelve_hours(), 43_200);
        assert_eq!(Scale::Full.twenty_four_hours(), 86_400);
        assert!(Scale::Quick.twelve_hours() < Scale::Full.twelve_hours());
        assert_eq!(Scale::Full.hyperparameters(), Hyperparameters::paper());
    }

    #[test]
    fn figure_row_improvement() {
        let row = FigureRow {
            workload: "x".into(),
            bars: vec![
                Bar {
                    label: "baseline".into(),
                    mean: 200.0,
                    ci: 5.0,
                },
                Bar {
                    label: "tuned".into(),
                    mean: 290.0,
                    ci: 5.0,
                },
            ],
        };
        assert!((row.improvement_pct(1) - 45.0).abs() < 1e-9);
    }

    #[test]
    fn compare_engines_drives_all_four_through_one_path() {
        let rows = compare_engines(Workload::random_rw(0.1), Scale::Quick, 42, 400, 120);
        assert_eq!(rows.len(), 4);
        let names: Vec<&str> = rows.iter().map(|r| r.engine.as_str()).collect();
        assert!(names.contains(&"deep RL (DQN)"));
        assert!(names.contains(&"static defaults"));
        assert!(names.contains(&"random search"));
        assert!(names.contains(&"hill climbing"));
        for row in &rows {
            assert!(row.baseline_mean > 0.0, "{}: no baseline", row.engine);
            assert!(row.tuned_mean > 0.0, "{}: no tuned mean", row.engine);
            assert_eq!(row.final_params.len(), 2);
        }
    }
}
