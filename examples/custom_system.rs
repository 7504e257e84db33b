//! Tuning a user-defined target system.
//!
//! The paper stresses that CAPES "can be used to tune virtually any
//! parameters as long as an adapter function is provided" (Appendix A.2).
//! This example writes such an adapter for a small synthetic system that is
//! *not* the bundled cluster simulator: a key-value cache server whose
//! throughput depends on two knobs (cache size and worker threads) with an
//! interior optimum and noisy measurements. The same system is then tuned by
//! the DRL engine and by the hill-climbing comparator — both driven through
//! the unified `TuningEngine` experiment path.
//!
//! Run with `cargo run --release --example custom_system`.

use capes::prelude::*;

/// A toy key-value cache server with two tunable parameters.
///
/// * Larger caches raise the hit rate (diminishing returns) but past the
///   point where the working set fits, extra cache only adds GC pressure.
/// * More worker threads add concurrency until lock contention wins.
struct CacheServer {
    cache_mb: f64,
    workers: f64,
    rng_state: u64,
}

impl CacheServer {
    fn new() -> Self {
        CacheServer {
            cache_mb: 64.0,
            workers: 4.0,
            rng_state: 0x1234_5678,
        }
    }

    fn noise(&mut self) -> f64 {
        self.rng_state ^= self.rng_state << 13;
        self.rng_state ^= self.rng_state >> 7;
        self.rng_state ^= self.rng_state << 17;
        ((self.rng_state % 1000) as f64 / 1000.0 - 0.5) * 6.0
    }

    fn ops_per_sec(&mut self) -> f64 {
        // Hit rate saturates around a 400 MB working set.
        let hit_rate = 1.0 - (-self.cache_mb / 220.0).exp();
        let gc_penalty = 1.0 / (1.0 + (self.cache_mb / 900.0).powi(2));
        // Concurrency helps until ~12 workers, then contention dominates.
        let concurrency = self.workers / (1.0 + (self.workers / 12.0).powi(2));
        (900.0 * hit_rate * gc_penalty * concurrency / 8.0 + self.noise()).max(1.0)
    }
}

impl TargetSystem for CacheServer {
    fn num_nodes(&self) -> usize {
        1
    }

    fn pis_per_node(&self) -> usize {
        3
    }

    fn tunable_specs(&self) -> Vec<TunableSpec> {
        vec![
            TunableSpec {
                name: "cache_mb".into(),
                min: 16.0,
                max: 2048.0,
                step: 32.0,
                default: 64.0,
            },
            TunableSpec {
                name: "worker_threads".into(),
                min: 1.0,
                max: 64.0,
                step: 1.0,
                default: 4.0,
            },
        ]
    }

    fn current_params(&self) -> Vec<f64> {
        vec![self.cache_mb, self.workers]
    }

    fn apply_params(&mut self, values: &[f64]) {
        self.cache_mb = values[0].clamp(16.0, 2048.0);
        self.workers = values[1].clamp(1.0, 64.0);
    }

    fn step(&mut self) -> TargetTick {
        let ops = self.ops_per_sec();
        TargetTick {
            // Normalised indicators: the two knobs and the achieved rate.
            per_node_pis: vec![vec![
                self.cache_mb / 2048.0,
                self.workers / 64.0,
                ops / 1000.0,
            ]],
            throughput_mbps: ops,
            latency_ms: 1000.0 / ops.max(1.0),
        }
    }

    fn describe(&self) -> String {
        "toy key-value cache server (2 tunable parameters)".into()
    }
}

/// Baseline → train → tuned on the cache server with the given engine
/// (`None` = the default DRL engine): one generic code path for every engine.
fn tune_with(engine: Option<Box<dyn TuningEngine>>, train_ticks: u64) -> ExperimentReport {
    let mut builder = Capes::builder(CacheServer::new())
        .hyperparams(Hyperparameters::quick_test())
        .seed(7);
    if let Some(engine) = engine {
        builder = builder.engine(engine);
    }
    let mut system = builder.build().expect("valid configuration");
    system.run(&[
        Phase::Baseline { ticks: 400 },
        Phase::Train { ticks: train_ticks },
        Phase::Tuned {
            ticks: 400,
            label: "tuned".into(),
        },
    ])
}

/// Simulated seconds of online training per engine.
const TRAIN_TICKS: u64 = 8_000;

fn main() {
    println!("target system : {}", CacheServer::new().describe());

    // CAPES with the DRL engine.
    println!("training the DRL engine for {TRAIN_TICKS} ticks…");
    let report = tune_with(None, TRAIN_TICKS);
    let baseline = report.baseline().expect("baseline ran");
    let tuned = report.session("tuned").expect("tuned ran");
    println!("  {}", baseline.summary());
    println!("  {}", tuned.summary());
    println!(
        "  tuned knobs: cache = {:.0} MB, workers = {:.0}",
        tuned.final_params[0], tuned.final_params[1]
    );
    println!(
        "  improvement over baseline: {:+.1}%",
        report.improvement_over_baseline("tuned").unwrap_or(0.0) * 100.0
    );

    // For comparison, the classic search-based tuner on the same system and
    // through the same experiment plan (the "one-time search" prior-work
    // class discussed in §5 of the paper).
    let search_report = tune_with(
        Some(Box::new(SearchEngine::new(HillClimbing::new(60), 30))),
        60 * 30,
    );
    let search_tuned = search_report.session("tuned").expect("tuned ran");
    println!(
        "  hill climbing reached {:.0} ops/s with cache = {:.0} MB, workers = {:.0} ({:+.1}% vs its baseline)",
        search_tuned.mean_throughput(),
        search_tuned.final_params[0],
        search_tuned.final_params[1],
        search_report.improvement_over_baseline("tuned").unwrap_or(0.0) * 100.0
    );
}
