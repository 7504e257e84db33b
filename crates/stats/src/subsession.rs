//! Subsession (batch-means) analysis from Appendix B.
//!
//! When throughput samples taken once per second are autocorrelated, the paper
//! merges adjacent samples by taking their mean and repeats the merge until the
//! lag-1 autocorrelation magnitude falls below 0.1, then computes the
//! confidence interval over the merged samples.

use crate::autocorr::{autocorrelation, IID_AUTOCORRELATION_THRESHOLD};
use crate::summary::{confidence_interval, ConfidenceInterval};

/// Outcome of the subsession analysis.
#[derive(Debug, Clone)]
pub struct SubsessionResult {
    /// The merged (batch-means) series the confidence interval was computed from.
    pub merged: Vec<f64>,
    /// How many adjacent raw samples were merged into each output sample.
    pub merge_factor: usize,
    /// Lag-1 autocorrelation of the merged series.
    pub final_autocorrelation: f64,
    /// Confidence interval of the mean computed from the merged series.
    pub interval: ConfidenceInterval,
    /// `true` if the autocorrelation threshold was reached before running out
    /// of samples; `false` means the interval should be treated with caution.
    pub converged: bool,
}

/// Merges adjacent samples (batch means) until the lag-1 autocorrelation is
/// below the paper's 0.1 threshold, then computes a student-t confidence
/// interval at `confidence`.
///
/// Each merge round halves the number of samples by averaging pairs. Merging
/// stops early (with `converged == false`) if fewer than `min_samples` merged
/// samples would remain, because a CI over a handful of points is meaningless.
pub fn subsession_analysis(
    samples: &[f64],
    confidence: f64,
    min_samples: usize,
) -> SubsessionResult {
    assert!(
        min_samples >= 2,
        "need at least two samples for an interval"
    );
    let mut merged: Vec<f64> = samples.to_vec();
    let mut merge_factor = 1usize;

    loop {
        let r1 = autocorrelation(&merged, 1);
        if r1.abs() <= IID_AUTOCORRELATION_THRESHOLD {
            return SubsessionResult {
                interval: confidence_interval(&merged, confidence),
                final_autocorrelation: r1,
                merged,
                merge_factor,
                converged: true,
            };
        }
        if merged.len() / 2 < min_samples {
            return SubsessionResult {
                interval: confidence_interval(&merged, confidence),
                final_autocorrelation: r1,
                merged,
                merge_factor,
                converged: false,
            };
        }
        merged = merge_pairs(&merged);
        merge_factor *= 2;
    }
}

/// Averages adjacent pairs; an odd trailing element is dropped (matching the
/// usual batch-means treatment of a ragged tail).
fn merge_pairs(xs: &[f64]) -> Vec<f64> {
    xs.chunks_exact(2).map(|c| (c[0] + c[1]) / 2.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn iid_series_needs_no_merging() {
        let mut rng = StdRng::seed_from_u64(3);
        let xs: Vec<f64> = (0..2000)
            .map(|_| 100.0 + rng.gen_range(-5.0..5.0))
            .collect();
        let r = subsession_analysis(&xs, 0.95, 10);
        assert!(r.converged);
        assert_eq!(r.merge_factor, 1);
        assert_eq!(r.merged.len(), xs.len());
        assert!((r.interval.mean - 100.0).abs() < 1.0);
    }

    #[test]
    fn correlated_series_gets_merged() {
        // Strongly autocorrelated AR(1) series.
        let mut rng = StdRng::seed_from_u64(4);
        let mut xs = vec![50.0f64];
        for _ in 0..8191 {
            let prev = *xs.last().unwrap();
            xs.push(50.0 + 0.95 * (prev - 50.0) + rng.gen_range(-1.0..1.0));
        }
        let r = subsession_analysis(&xs, 0.95, 8);
        assert!(r.merge_factor > 1, "merging should have happened");
        assert!(
            r.final_autocorrelation.abs() < autocorrelation(&xs, 1).abs(),
            "merging should reduce autocorrelation"
        );
        // The mean itself is preserved by batch means (up to dropped tail).
        assert!((r.interval.mean - crate::summary::mean(&xs)).abs() < 1.0);
    }

    #[test]
    fn merging_preserves_mean_exactly_for_power_of_two() {
        let xs: Vec<f64> = (0..1024).map(|i| i as f64).collect();
        let r = subsession_analysis(&xs, 0.95, 2);
        let original_mean = crate::summary::mean(&xs);
        assert!((r.interval.mean - original_mean).abs() < 1e-9);
    }

    #[test]
    fn gives_up_when_too_few_samples() {
        // Ramp: autocorrelation stays ~1 no matter how much we merge.
        let xs: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let r = subsession_analysis(&xs, 0.95, 8);
        assert!(!r.converged);
        assert!(r.merged.len() >= 8);
    }

    #[test]
    fn merged_interval_is_wider_than_naive_for_correlated_data() {
        // The whole point of the methodology: naive CIs on autocorrelated data
        // are falsely tight.
        let mut rng = StdRng::seed_from_u64(5);
        let mut xs = vec![0.0f64];
        for _ in 0..4095 {
            let prev = *xs.last().unwrap();
            xs.push(0.98 * prev + rng.gen_range(-1.0..1.0));
        }
        let naive = confidence_interval(&xs, 0.95);
        let sub = subsession_analysis(&xs, 0.95, 8);
        assert!(
            sub.interval.half_width > naive.half_width,
            "subsession CI ({}) should be wider than the naive CI ({})",
            sub.interval.half_width,
            naive.half_width
        );
    }
}
