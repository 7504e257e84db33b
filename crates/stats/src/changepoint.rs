//! Warm-up / cool-down (transient) detection and removal.
//!
//! The paper removes the unstable phases at the beginning and end of each
//! measurement session before computing statistics ("We used a changepoint
//! detection algorithm to detect these non-stable phases and removes them from
//! the result calculation", Appendix B.2).
//!
//! This module implements the MSER (Marginal Standard Error Rule) truncation
//! heuristic, applied forward for the warm-up and on the reversed series for
//! the cool-down. MSER picks the truncation point that minimises the standard
//! error of the remaining samples, which is exactly the "drop the transient,
//! keep the steady state" behaviour required here.

/// Result of trimming transients from a sample series.
#[derive(Debug, Clone)]
pub(crate) struct TransientTrim {
    /// Number of samples removed from the front (warm-up).
    pub warmup_removed: usize,
    /// Number of samples removed from the back (cool-down).
    pub cooldown_removed: usize,
    /// The retained steady-state samples.
    pub steady_state: Vec<f64>,
}

/// MSER truncation point: the prefix length `d` (bounded to at most
/// `max_fraction` of the series) that minimises
/// `variance(samples[d..]) / (n - d)`.
fn mser_truncation_point(samples: &[f64], max_fraction: f64) -> usize {
    let n = samples.len();
    if n < 8 {
        return 0;
    }
    let max_d = ((n as f64) * max_fraction).floor() as usize;
    // Suffix sums allow O(1) mean/variance of each suffix.
    let mut suffix_sum = vec![0.0f64; n + 1];
    let mut suffix_sq = vec![0.0f64; n + 1];
    for i in (0..n).rev() {
        suffix_sum[i] = suffix_sum[i + 1] + samples[i];
        suffix_sq[i] = suffix_sq[i + 1] + samples[i] * samples[i];
    }
    let mut best_d = 0usize;
    let mut best_score = f64::INFINITY;
    for d in 0..=max_d {
        let m = (n - d) as f64;
        if m < 2.0 {
            break;
        }
        let mean = suffix_sum[d] / m;
        let var = (suffix_sq[d] / m - mean * mean).max(0.0);
        let score = var / m;
        if score < best_score {
            best_score = score;
            best_d = d;
        }
    }
    best_d
}

/// Removes warm-up and cool-down transients from `samples`.
///
/// `max_fraction` bounds how much can be removed from *each* end (the paper's
/// sessions are long compared to their transients; 0.25 is a safe default).
/// Series shorter than 8 samples are returned untouched.
pub(crate) fn trim_transients(samples: &[f64], max_fraction: f64) -> TransientTrim {
    assert!(
        (0.0..0.5).contains(&max_fraction),
        "max_fraction must be in [0, 0.5)"
    );
    let warmup = mser_truncation_point(samples, max_fraction);
    let after_warmup = &samples[warmup..];
    let reversed: Vec<f64> = after_warmup.iter().rev().copied().collect();
    let cooldown = mser_truncation_point(&reversed, max_fraction);
    let steady: Vec<f64> = after_warmup[..after_warmup.len() - cooldown].to_vec();
    TransientTrim {
        warmup_removed: warmup,
        cooldown_removed: cooldown,
        steady_state: steady,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noisy(base: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| base + rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn stable_series_is_untouched_or_barely_trimmed() {
        let xs = noisy(100.0, 1000, 1);
        let t = trim_transients(&xs, 0.25);
        assert!(t.steady_state.len() * 10 > xs.len() * 9, "over 90 % kept");
        assert!((crate::summary::mean(&t.steady_state) - 100.0).abs() < 0.5);
    }

    #[test]
    fn warmup_ramp_is_removed() {
        // 200 samples ramping up from 0, then 800 steady at 100.
        let mut xs: Vec<f64> = (0..200).map(|i| i as f64 / 2.0).collect();
        xs.extend(noisy(100.0, 800, 2));
        let t = trim_transients(&xs, 0.3);
        assert!(
            t.warmup_removed >= 150,
            "most of the ramp should be removed, removed {}",
            t.warmup_removed
        );
        let m = crate::summary::mean(&t.steady_state);
        assert!(
            (m - 100.0).abs() < 2.0,
            "steady-state mean {m} should be ~100"
        );
    }

    #[test]
    fn cooldown_drop_is_removed() {
        let mut xs = noisy(100.0, 800, 3);
        // Cool-down: cache flush tails off to zero.
        xs.extend((0..150).map(|i| 100.0 - i as f64 * 0.6));
        let t = trim_transients(&xs, 0.3);
        assert!(
            t.cooldown_removed >= 100,
            "cool-down should be removed, removed {}",
            t.cooldown_removed
        );
        assert!((crate::summary::mean(&t.steady_state) - 100.0).abs() < 2.0);
    }

    #[test]
    fn both_transients_removed() {
        let mut xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        xs.extend(noisy(100.0, 600, 4));
        xs.extend((0..100).map(|i| 100.0 - i as f64));
        let t = trim_transients(&xs, 0.3);
        assert!(t.warmup_removed > 50);
        assert!(t.cooldown_removed > 50);
        let m = crate::summary::mean(&t.steady_state);
        assert!((m - 100.0).abs() < 3.0);
    }

    #[test]
    fn short_series_untouched() {
        let xs = [1.0, 2.0, 3.0];
        let t = trim_transients(&xs, 0.25);
        assert_eq!(t.steady_state, xs);
        assert_eq!(t.warmup_removed, 0);
        assert_eq!(t.cooldown_removed, 0);
    }

    #[test]
    fn trimming_is_bounded_by_max_fraction() {
        // A pure ramp: MSER would love to throw everything away, but the bound
        // must hold.
        let xs: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let t = trim_transients(&xs, 0.2);
        assert!(t.warmup_removed <= 200);
        assert!(t.cooldown_removed <= 200);
        assert!(t.steady_state.len() >= 600);
    }

    #[test]
    #[should_panic(expected = "max_fraction")]
    fn invalid_fraction_panics() {
        let _ = trim_transients(&[1.0; 100], 0.9);
    }
}
