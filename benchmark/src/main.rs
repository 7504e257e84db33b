//! `capes-benchmark`: the repository's one benchmark. README.md has the
//! metric and workload catalogue, the estimator rationale and the usage.

mod aa;
mod host;
mod metrics;
mod probes;
mod run;
mod stats;
mod trace;
mod workload;

use host::Host;
use run::{Checks, Measured, Plan};
use serde::Value;
use stats::Better;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;
use workload::{Workload, WORKLOADS};

const USAGE: &str = "usage:
  capes-benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
  capes-benchmark --aa [--runs N] [--workload <name>] [--seed N] [--seconds S]
  capes-benchmark --smoke
workloads: fleet8_mix_socket fleet64_shared_socket table2_600_wire fleet8_mix_durable";

type Failure = Box<dyn std::error::Error>;

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub aa: bool,
    pub runs: usize,
    pub smoke: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 12,
        trace: false,
        aa: false,
        runs: 5,
        smoke: false,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        let number = |text: &str| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: `{text}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let found = workload::by_name(name);
                args.workload = Some(found.ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = number(value("a number")?)?,
            "--seconds" => args.seconds = number(value("a number")?)?.clamp(1, 60),
            "--runs" => args.runs = number(value("a number")?)? as usize,
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--aa" => args.aa = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.aa && args.runs < 3 {
        return Err("--aa needs --runs of at least 3 per set".into());
    }
    if !args.aa && !args.smoke && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Everything the benchmark writes lands here: `benchmark/out` from the
/// repository root, `out` from inside the package (`cargo test`).
fn out_dir() -> std::io::Result<PathBuf> {
    let dir = if Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    };
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn metric_map(values: &[(&'static str, f64)]) -> Value {
    Value::Map(
        values
            .iter()
            .map(|&(name, value)| {
                let unit = metrics::find(name).map_or("", |d| d.unit);
                let entry = vec![
                    ("value".to_string(), Value::F64(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ];
                (name.to_string(), Value::Map(entry))
            })
            .collect(),
    )
}

/// The contract's result object: exactly these four keys.
fn result_line(checks: &Checks, values: &[(&'static str, f64)]) -> String {
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(checks.failed == 0)),
        ("attempted".into(), Value::U64(checks.attempted.max(1))),
        ("failed".into(), Value::U64(checks.failed)),
        ("metrics".into(), metric_map(values)),
    ]);
    serde_json::to_string(&result).expect("result serializes")
}

fn print_metrics(title: &str, values: &[(&'static str, f64)]) {
    println!("{title}");
    for &(name, value) in values {
        let unit = metrics::find(name).map_or("", |d| d.unit);
        println!("  {name:<36} {value:>16.4} {unit}");
    }
}

fn value_of(values: &[(&'static str, f64)], name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| v)
}

/// Whole-run diagnostics printed beside the quiet figures, so a change
/// that slows the typical round but not the best one stays visible.
fn diagnostics(w: &Workload, m: &Measured) -> Vec<(&'static str, f64)> {
    let train = m.round_throughputs(&m.rounds.train_s, w.train_ticks);
    let best = stats::best(&train, Better::Higher);
    let slow = train.iter().filter(|&&t| t < 0.85 * best).count();
    vec![
        (
            "fleet.train_ticks_per_s_mean",
            m.mean_throughput(&m.rounds.train_s, w.train_ticks),
        ),
        (
            "fleet.tuned_ticks_per_s_mean",
            m.mean_throughput(&m.rounds.tuned_s, w.tuned_ticks),
        ),
        (
            "fleet.train_tick_p99_ms",
            stats::quantile(&m.train_tick_ms, 0.99),
        ),
        (
            "fleet.tuned_tick_p99_ms",
            stats::quantile(&m.tuned_tick_ms, 0.99),
        ),
        (
            "fleet.tick_samples",
            (m.train_tick_ms.len() + m.tuned_tick_ms.len()) as f64,
        ),
        (
            "fleet.checkpoint_ms",
            stats::best(&m.checkpoint_ms, Better::Lower),
        ),
        (
            "fleet.restore_ms",
            stats::best(&m.restore_ms, Better::Lower),
        ),
        ("host.steal_s", m.steal_s),
        ("host.round_spread_pct", 100.0 * stats::iqr_share(&train)),
        (
            "host.slow_round_share",
            slow as f64 / train.len().max(1) as f64,
        ),
    ]
}

/// The traced run's per-layer numbers: the program's own phase histograms
/// and counters, the outside probes, and the tick model built from them.
fn per_layer(
    w: &Workload,
    seed: u64,
    m: &mut Measured,
    diag: &[(&'static str, f64)],
    out: &Path,
    tracer: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>, Failure> {
    use capes_telemetry::names;
    // Counters the program keeps, read before the probes add their own.
    let telemetry = capes_telemetry::global().snapshot();
    let persist = m.daemon.persist_report();
    let net = m.daemon.net_report();
    let probed = probes::run(w, seed, m, out, tracer)?;
    let phase_us = |name: &str| telemetry.histogram(name).map_or(0.0, |h| h.mean_ns / 1e3);
    let fsyncs = telemetry
        .histogram(names::PERSIST_CHECKPOINT_FSYNC)
        .map_or(0, |h| h.count);
    let measured_ms = stats::mean(&m.quiet_train_ticks(w, None));
    let modelled_ms = probed.modelled_ms();
    let unattributed_pct = 100.0 * (measured_ms - modelled_ms) / measured_ms;
    let untraced = m.quiet_throughput(&m.quiet_train_ticks(w, Some(false)));
    let traced = m.quiet_throughput(&m.quiet_train_ticks(w, Some(true)));
    let mut layer = vec![
        ("fleet.tick.gather_us", phase_us(names::FLEET_TICK_GATHER)),
        ("fleet.tick.decide_us", phase_us(names::FLEET_TICK_DECIDE)),
        ("fleet.tick.scatter_us", phase_us(names::FLEET_TICK_SCATTER)),
        ("fleet.tick.train_us", phase_us(names::FLEET_TICK_TRAIN)),
        ("fleet.tick.modelled_ms", modelled_ms),
        ("fleet.tick.unattributed_pct", unattributed_pct),
        ("net.frames_in_per_tick", m.frames_in_per_tick),
        ("net.bytes_in_per_tick", m.bytes_in_per_tick),
        ("net.bytes_out_per_tick", m.bytes_out_per_tick),
        ("net.decode_errors", net.decode_errors as f64),
        ("net.shed_backpressure", net.shed_backpressure as f64),
        (
            "persist.fsyncs_per_checkpoint",
            fsyncs as f64 / persist.checkpoints_written.max(1) as f64,
        ),
        (
            "persist.auto_checkpoint_failures",
            persist.auto_checkpoint_failures as f64,
        ),
        ("telemetry.overhead_ratio", untraced / traced),
    ];
    layer.extend_from_slice(diag);
    layer.extend_from_slice(&probed.metrics);

    println!("layer table: one train tick, {measured_ms:.4} ms measured (mean of the quiet ticks)");
    println!(
        "  {:<58} {:>10} {:>12} {:>10} {:>7}",
        "call", "calls/tick", "us/call", "ms/tick", "share"
    );
    let row = |call: &str, calls: String, us: String, ms: f64| {
        let share = 100.0 * ms / measured_ms;
        println!("  {call:<58} {calls:>10} {us:>12} {ms:>10.4} {share:>6.1}%");
    };
    for &(call, calls, us) in &probed.model {
        row(
            call,
            format!("{calls:.2}"),
            format!("{us:.3}"),
            calls * us / 1e3,
        );
    }
    row("modelled", String::new(), String::new(), modelled_ms);
    row(
        "unattributed",
        String::new(),
        String::new(),
        measured_ms - modelled_ms,
    );
    Ok(metrics::PER_LAYER
        .iter()
        .map(|d| (d.name, value_of(&layer, d.name)))
        .collect())
}

struct RunReport {
    checks: Checks,
    shown: Vec<(&'static str, f64)>,
}

/// One run of one workload: measures, checks, prints, writes the record.
fn run_workload(
    w: &Workload,
    args: &Args,
    plan: Plan,
    out: &Path,
    host: &Host,
) -> Result<RunReport, Failure> {
    let mut checks = Checks::default();
    let spans_per_round = w.train_ticks + w.tuned_ticks + 3;
    let mut tracer = Tracer::new(args.trace, plan.rounds * spans_per_round + 4096);
    let mut m = run::measure(
        w,
        args.seed,
        plan,
        host.nproc,
        out,
        &mut tracer,
        &mut checks,
    )?;
    let workers = m.daemon.workers();
    println!(
        "workload {} · seed {} · {} rounds of {} train + {} tuned ticks · {} clusters, {} profiles",
        w.name,
        args.seed,
        plan.rounds,
        w.train_ticks,
        w.tuned_ticks,
        m.daemon.num_clusters(),
        m.daemon.num_profiles()
    );
    println!("{}", host.line(workers));
    println!("state_crc32 {:08x}", m.state_crc32);

    let end_to_end = m.end_to_end(w);
    let diag = diagnostics(w, &m);
    let shown = if args.trace {
        let layer = per_layer(w, args.seed, &mut m, &diag, out, &mut tracer)?;
        print_metrics("per-layer metrics (traced run)", &layer);
        print_metrics(
            "end-to-end metrics of the traced run (diagnostic only)",
            &end_to_end,
        );
        let trace_path = out.join(format!("trace-{}.json", w.name));
        tracer.write_json(&trace_path, w.name, args.seed)?;
        println!("{} spans written to {}", tracer.len(), trace_path.display());
        layer
    } else {
        print_metrics("end-to-end metrics (quiet estimators)", &end_to_end);
        print_metrics("whole-run diagnostics", &diag);
        end_to_end.clone()
    };
    if value_of(&diag, "host.slow_round_share") > 0.5 {
        println!(
            "warning: more than half the rounds ran below 85 % of the best round — the host interfered with this run"
        );
    }
    for failure in &checks.failures {
        println!("FAILED check: {failure}");
    }

    let record = Value::Map(vec![
        ("workload".into(), Value::Str(w.name.into())),
        ("seed".into(), Value::U64(args.seed)),
        ("rounds".into(), Value::U64(plan.rounds as u64)),
        ("traced".into(), Value::Bool(args.trace)),
        ("host".into(), host.to_value(workers)),
        (
            "state_crc32".into(),
            Value::Str(format!("{:08x}", m.state_crc32)),
        ),
        ("attempted".into(), Value::U64(checks.attempted)),
        ("failed".into(), Value::U64(checks.failed)),
        ("metrics".into(), metric_map(&shown)),
        ("end_to_end_of_this_run".into(), metric_map(&end_to_end)),
        ("diagnostics".into(), metric_map(&diag)),
    ]);
    let kind = if args.trace { "trace" } else { "e2e" };
    let record_path = out.join(format!("record-{}-seed{}-{kind}.json", w.name, args.seed));
    std::fs::write(&record_path, serde_json::to_string_pretty(&record)?)?;
    m.files.remove();
    Ok(RunReport { checks, shown })
}

fn exit_code(failed: u64) -> ExitCode {
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn single(args: &Args, out: &Path) -> Result<ExitCode, Failure> {
    let w = args.workload.expect("checked by parse_args");
    let rounds = w.rounds_for(args.seconds);
    let plan = if args.trace {
        // Half the rounds, alternating recorded and unrecorded: a quarter of
        // an end-to-end run's rounds each.
        Plan {
            rounds: (rounds / 2).max(4),
            cold_builds: 1,
            cycles: 3,
            alternate_recording: true,
        }
    } else {
        Plan {
            rounds,
            cold_builds: 3,
            cycles: 7,
            alternate_recording: false,
        }
    };
    let report = run_workload(&w, args, plan, out, &Host::detect(out))?;
    println!("{}", result_line(&report.checks, &report.shown));
    Ok(exit_code(report.checks.failed))
}

/// All four workloads at three rounds with every check: the `cargo test` gate.
fn smoke(args: &Args, out: &Path) -> Result<ExitCode, Failure> {
    let host = Host::detect(out);
    let plan = Plan {
        rounds: 3,
        cold_builds: 1,
        cycles: 2,
        alternate_recording: false,
    };
    let mut failed = 0;
    for w in WORKLOADS {
        let report = run_workload(&w, args, plan, out, &host)?;
        println!(
            "smoke {}: {} of {} operations failed",
            w.name, report.checks.failed, report.checks.attempted
        );
        failed += report.checks.failed;
    }
    Ok(exit_code(failed))
}

/// Pins the GEMM pool to one thread unless the caller chose a count. On a
/// shared host the second vCPU comes and goes, and a pool sized to `nproc`
/// turns every GEMM-bound metric into a measurement of that (README, "GEMM
/// threads"). Runs before the pool's first use reads the variable, while the
/// process is still single-threaded; `--aa` children inherit it.
fn pin_gemm_threads() {
    if std::env::var_os(capes::knobs::ENV_THREADS).is_none() {
        std::env::set_var(capes::knobs::ENV_THREADS, "1");
    }
}

fn main() -> ExitCode {
    pin_gemm_threads();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.aa {
        aa::run(&args)
    } else {
        out_dir().map_err(Failure::from).and_then(|out| {
            if args.smoke {
                smoke(&args, &out)
            } else {
                single(&args, &out)
            }
        })
    };
    outcome.unwrap_or_else(|error| {
        eprintln!("capes-benchmark: {error}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Args, String> {
        let raw: Vec<String> = text.split_whitespace().map(String::from).collect();
        parse_args(&raw)
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse("--workload table2_600_wire --seed 3 --seconds 12 --trace 0").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 12, false));
        assert_eq!(a.workload.unwrap().name, "table2_600_wire");
        assert!(
            parse("--workload fleet8_mix_socket --trace 1")
                .unwrap()
                .trace
        );
        assert!(parse("--workload fleet8_mix_socket --trace").unwrap().trace);
        assert!(parse("--trace --workload fleet8_mix_socket").unwrap().trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload fleet8_mix_socket --seed x").is_err());
        assert!(parse("--aa --runs 2").is_err());
        assert!(parse("--aa --runs 3").is_ok());
        assert!(parse("--smoke").is_ok());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut checks = Checks::default();
        checks.ops(10);
        let line = result_line(&checks, &[("setup_s", 1.25)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
