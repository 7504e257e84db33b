//! Estimators and verdicts: quantiles, the quiet-tick and fastest-round
//! estimators, IQR shares, the A/A verdict, the bound rule and the demotion
//! rule. Everything here is pure so it can be unit-tested without a fleet.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linearly interpolated quantile `q ∈ [0, 1]` (inclusive method); 0 for an
/// empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method) gives
/// them — the acceptance rule is phrased in those terms. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median (the "spread" of the
/// acceptance rule). Zero when the median is zero (a constant count).
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// The quiet-round estimator: interference only ever slows a round, so the
/// best round is the program's own cost (as with `timeit`'s min).
pub fn best(values: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Higher => values.iter().copied().max_by(f64::total_cmp),
        Better::Lower => values.iter().copied().min_by(f64::total_cmp),
    };
    pick.unwrap_or(0.0)
}

/// The quiet-tick estimator. `ticks` holds `rounds × positions` latencies in
/// run order; every round repeats identical work, so the tick at position `j`
/// costs what the fastest of its repetitions took (interference only ever
/// slows a tick, as with `timeit`'s min). A whole quiet round is rare on a
/// shared host; one quiet repetition of each tick is not. Returns the
/// per-position minima over the rounds `keep` selects.
pub fn quiet_positions(ticks: &[f64], positions: usize, keep: impl Fn(usize) -> bool) -> Vec<f64> {
    let mut quiet = vec![f64::INFINITY; positions];
    for (round, repetition) in ticks.chunks_exact(positions).enumerate() {
        if keep(round) {
            for (q, &t) in quiet.iter_mut().zip(repetition) {
                *q = q.min(t);
            }
        }
    }
    quiet
}

/// Mean of the fastest tenth of the sample (at least one value) — the probe
/// estimator: robust to a single lucky reading, blind to interference.
pub fn fastest_decile_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    let keep = (v.len() / 10).max(1).min(v.len());
    mean(&v[..keep])
}

/// Share by which `candidate` is worse than `reference` (negative = better).
pub fn worse_by(reference: f64, candidate: f64, better: Better) -> f64 {
    if reference == 0.0 {
        return if candidate == reference {
            0.0
        } else {
            f64::INFINITY
        };
    }
    match better {
        Better::Higher => (reference - candidate) / reference.abs(),
        Better::Lower => (candidate - reference) / reference.abs(),
    }
}

/// Outcome of comparing two sets of runs of the same binary.
#[derive(Debug, Clone, PartialEq)]
pub struct AaVerdict {
    pub median_a: f64,
    pub median_b: f64,
    pub iqr_a: f64,
    pub iqr_b: f64,
    pub pass: bool,
}

/// A/A verdict under the acceptance rule: both spreads stay within `bound`
/// (unless the metric's spread is exempt, as set-up time's is) and neither
/// median is worse than the other by more than `bound`.
pub fn aa_verdict(
    a: &[f64],
    b: &[f64],
    bound: f64,
    better: Better,
    spread_exempt: bool,
) -> AaVerdict {
    let (median_a, median_b) = (median(a), median(b));
    let (iqr_a, iqr_b) = (iqr_share(a), iqr_share(b));
    let drift = worse_by(median_a, median_b, better).max(worse_by(median_b, median_a, better));
    AaVerdict {
        median_a,
        median_b,
        iqr_a,
        iqr_b,
        pass: drift <= bound && (spread_exempt || (iqr_a <= bound && iqr_b <= bound)),
    }
}

/// The largest bound the contract allows.
pub const MAX_BOUND: f64 = 0.25;
/// Floor for a timing's bound: smaller run-to-run spreads than this are luck.
pub const MIN_TIMING_BOUND: f64 = 0.05;
/// Floor for a count's bound: counts repeat exactly on one (workload, seed)
/// and move only with the seed, so they get next to no slack.
pub const MIN_COUNT_BOUND: f64 = 0.001;

/// Regression bound from the larger A/A spread: three times the spread (the
/// acceptance rule wants every spread below a third of its bound), at least
/// `floor`, at most [`MAX_BOUND`].
pub fn bound_from_spread(larger_iqr_share: f64, floor: f64) -> f64 {
    (3.0 * larger_iqr_share).clamp(floor, MAX_BOUND)
}

/// Demotion rule: a timing metric whose A/A spread exceeds a tenth of its
/// median on any workload is reported as a per-layer diagnostic instead of
/// being shipped as an end-to-end metric.
pub fn demoted(spreads_per_workload: &[f64]) -> bool {
    spreads_per_workload.iter().any(|&s| s > 0.10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&v), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 12.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), (2.5, 5.5));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0; 10]), 0.0);
        assert_eq!(iqr_share(&[0.0; 3]), 0.0);
    }

    #[test]
    fn fastest_round_ignores_slow_rounds() {
        let throughput = [1700.0, 1300.0, 1900.0, 1250.0];
        assert_eq!(best(&throughput, Better::Higher), 1900.0);
        let latency = [1.4, 1.2, 1.9];
        assert_eq!(best(&latency, Better::Lower), 1.2);
        assert_eq!(best(&[], Better::Lower), 0.0);
    }

    #[test]
    fn quiet_positions_take_each_ticks_fastest_repetition() {
        // Three rounds of two positions; no round is quiet throughout.
        let ticks = [1.0, 9.0, 5.0, 2.0, 1.5, 2.5];
        assert_eq!(quiet_positions(&ticks, 2, |_| true), [1.0, 2.0]);
        // Only odd rounds (the traced ones of a traced run).
        assert_eq!(quiet_positions(&ticks, 2, |r| r % 2 == 1), [5.0, 2.0]);
        assert!(quiet_positions(&[], 2, |_| true)[0].is_infinite());
    }

    #[test]
    fn fastest_decile_mean_keeps_a_tenth() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(fastest_decile_mean(&v), 10.5);
        assert_eq!(fastest_decile_mean(&[5.0, 3.0]), 3.0);
    }

    #[test]
    fn aa_verdict_passes_equal_sets_and_flags_drift_or_spread() {
        let a = [100.0, 101.0, 99.0, 100.5];
        let b = [100.2, 100.8, 99.4, 100.1];
        assert!(aa_verdict(&a, &b, 0.05, Better::Higher, false).pass);
        let slower = [80.0, 81.0, 79.0, 80.5];
        let v = aa_verdict(&a, &slower, 0.05, Better::Higher, false);
        assert!(!v.pass);
        // Symmetric: it does not matter which set drifted.
        assert!(!aa_verdict(&slower, &a, 0.05, Better::Higher, false).pass);
        let noisy = [60.0, 140.0, 100.0, 100.0];
        assert!(!aa_verdict(&a, &noisy, 0.05, Better::Lower, false).pass);
        // Set-up time is held to its medians only.
        assert!(aa_verdict(&a, &noisy, 0.05, Better::Lower, true).pass);
        // Counts repeat exactly and pass with bound 0.
        assert!(aa_verdict(&[3.0; 3], &[3.0; 3], 0.0, Better::Lower, false).pass);
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(100.0, 90.0, Better::Higher) - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, Better::Lower) + 0.1).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, Better::Lower), 0.0);
    }

    #[test]
    fn bound_rule_and_demotion_rule() {
        assert_eq!(bound_from_spread(0.01, MIN_TIMING_BOUND), 0.05);
        assert!((bound_from_spread(0.04, MIN_TIMING_BOUND) - 0.12).abs() < 1e-12);
        assert_eq!(bound_from_spread(0.4, MIN_TIMING_BOUND), 0.25);
        assert_eq!(bound_from_spread(0.0, MIN_COUNT_BOUND), 0.001);
        assert!(!demoted(&[0.02, 0.10]));
        assert!(demoted(&[0.02, 0.11]));
    }
}
