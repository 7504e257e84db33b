//! A/A mode: two interleaved sets of runs of the same binary (A B A B …) per
//! workload; pair `i` of a set runs seed `--seed + i` on both sides, so the
//! sets see the seeds the acceptance runs vary and every pair can be held to
//! exact repeats. Shows what the benchmark's own run-to-run spread is, derives the
//! regression bound from it, and holds the exact-repeat claims (counts and
//! the final state's CRC) to account.

use crate::metrics::{Def, END_TO_END};
use crate::stats;
use crate::workload::WORKLOADS;
use crate::{exit_code, Args, Failure};
use serde::{map_get, Value};
use std::process::{Command, ExitCode};

/// One child run's end-to-end values and final-state CRC.
struct Child {
    values: Vec<f64>,
    state_crc32: String,
}

fn run_child(workload: &str, seed: u64, seconds: u64) -> Result<Child, Failure> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()?;
    let stdout = String::from_utf8(output.stdout)?;
    if !output.status.success() {
        return Err(format!("run of {workload} seed {seed} failed:\n{stdout}").into());
    }
    let state_crc32 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("state_crc32 "))
        .ok_or("run printed no state_crc32")?
        .to_string();
    let result: Value = serde_json::from_str(stdout.lines().last().ok_or("run printed nothing")?)?;
    let metrics = result
        .as_map()
        .and_then(|m| map_get(m, "metrics"))
        .and_then(Value::as_map)
        .ok_or("result line has no metrics")?;
    let values = END_TO_END
        .iter()
        .map(|d| {
            map_get(metrics, d.name)
                .and_then(Value::as_map)
                .and_then(|m| map_get(m, "value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("result line lacks {}", d.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Child {
        values,
        state_crc32,
    })
}

/// Bounds recorded in `BENCHMARK.json` (working directory), by metric name.
fn recorded_bounds() -> Vec<(String, f64)> {
    let parsed = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok());
    let Some(entries) = parsed
        .as_ref()
        .and_then(Value::as_map)
        .and_then(|m| map_get(m, "end_to_end"))
        .and_then(Value::as_seq)
    else {
        return Vec::new();
    };
    entries
        .iter()
        .filter_map(|e| {
            let e = e.as_map()?;
            Some((
                map_get(e, "name")?.as_str()?.to_string(),
                map_get(e, "bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// The bound a metric's A/A spread asks for. A count repeats exactly on one
/// (workload, seed) — held separately — so its spread is what the seeds do.
fn suggested_bound(def: &Def, larger_iqr: f64) -> f64 {
    let floor = if def.count {
        stats::MIN_COUNT_BOUND
    } else {
        stats::MIN_TIMING_BOUND
    };
    stats::bound_from_spread(larger_iqr, floor)
}

pub fn run(args: &Args) -> Result<ExitCode, Failure> {
    let recorded = recorded_bounds();
    let mut differs = 0u64;
    for w in WORKLOADS
        .iter()
        .filter(|w| args.workload.is_none_or(|only| only.name == w.name))
    {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..args.runs {
            let seed = args.seed + i as u64;
            a.push(run_child(w.name, seed, args.seconds)?);
            b.push(run_child(w.name, seed, args.seconds)?);
        }
        println!(
            "A/A {} · {} runs per set, interleaved · seeds {}..{} · {} s",
            w.name,
            args.runs,
            args.seed,
            args.seed + args.runs as u64 - 1,
            args.seconds
        );
        println!(
            "  {:<30} {:>12} {:>12} {:>7} {:>7} {:>7} {:>9}  verdict",
            "metric", "median A", "median B", "IQR A", "IQR B", "bound", "suggested"
        );
        for (k, def) in END_TO_END.iter().enumerate() {
            let column = |set: &[Child]| set.iter().map(|c| c.values[k]).collect::<Vec<f64>>();
            let (va, vb) = (column(&a), column(&b));
            let larger = stats::iqr_share(&va).max(stats::iqr_share(&vb));
            let suggested = suggested_bound(def, larger);
            let bound = recorded
                .iter()
                .find(|(name, _)| name == def.name)
                .map_or(suggested, |&(_, bound)| bound);
            // As in the acceptance rule, set-up time answers for its medians
            // only: three cold builds cannot steady a spread.
            let spread_exempt = def.name == "setup_s";
            let verdict = stats::aa_verdict(&va, &vb, bound, def.better, spread_exempt);
            // Counts must also repeat exactly within every (workload, seed).
            let exact = !def.count || va == vb;
            let pass = verdict.pass && exact;
            differs += u64::from(!pass);
            println!(
                "  {:<30} {:>12.4} {:>12.4} {:>6.2}% {:>6.2}% {:>6.1}% {:>8.1}%  {}{}",
                def.name,
                verdict.median_a,
                verdict.median_b,
                100.0 * verdict.iqr_a,
                100.0 * verdict.iqr_b,
                100.0 * bound,
                100.0 * suggested,
                if pass { "PASS" } else { "DIFFERS" },
                if stats::demoted(&[larger]) && !def.count && !spread_exempt {
                    "  (spread > 10 % of the median: demotion candidate)"
                } else {
                    ""
                }
            );
        }
        let crc_equal = a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.state_crc32 == y.state_crc32);
        differs += u64::from(!crc_equal);
        println!(
            "  state_crc32 per seed: {}  {}",
            a.iter()
                .map(|c| c.state_crc32.as_str())
                .collect::<Vec<_>>()
                .join(" "),
            if crc_equal {
                "PASS (A = B on every seed)"
            } else {
                "DIFFERS"
            }
        );
    }
    Ok(exit_code(differs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    #[test]
    fn bounds_are_three_spreads_with_a_floor_per_kind() {
        assert_eq!(suggested_bound(find("checkpoint_mb").unwrap(), 0.0), 0.001);
        assert_eq!(suggested_bound(find("setup_s").unwrap(), 0.01), 0.05);
        assert!((suggested_bound(find("setup_s").unwrap(), 0.06) - 0.18).abs() < 1e-12);
    }
}
