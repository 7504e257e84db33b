//! The full Pilot-style analysis pipeline used to report every number in the
//! reproduction's figures: trim transients → check i.i.d. → subsession
//! analysis → student-t confidence interval.

use crate::autocorr::autocorrelation;
use crate::changepoint::trim_transients;
use crate::subsession::subsession_analysis;
use crate::summary::ConfidenceInterval;

/// Confidence level of the final interval (the paper's 95 %).
const CONFIDENCE: f64 = 0.95;
/// Maximum fraction of the series that may be trimmed from each end as a
/// warm-up / cool-down transient.
const MAX_TRANSIENT_FRACTION: f64 = 0.25;
/// Minimum number of merged samples the subsession analysis must keep.
const MIN_SUBSESSION_SAMPLES: usize = 8;

/// Result of running the full analysis pipeline over one measurement series.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Confidence interval of the steady-state mean.
    pub interval: ConfidenceInterval,
    /// Lag-1 autocorrelation of the raw (trimmed) series before merging.
    pub raw_autocorrelation: f64,
    /// How many adjacent samples had to be merged to reach i.i.d. samples.
    pub merge_factor: usize,
    /// Samples dropped from the front as warm-up.
    pub warmup_removed: usize,
    /// Samples dropped from the back as cool-down.
    pub cooldown_removed: usize,
    /// Whether the subsession analysis reached the i.i.d. threshold.
    pub converged: bool,
    /// Number of raw samples provided.
    pub raw_samples: usize,
}

serde::serialize_struct! { AnalysisReport {
    interval, raw_autocorrelation, merge_factor, warmup_removed, cooldown_removed, converged,
    raw_samples,
} }

/// Runs the full Appendix-B pipeline over a series of per-second measurements.
pub fn analyze(samples: &[f64]) -> AnalysisReport {
    let trim = trim_transients(samples, MAX_TRANSIENT_FRACTION);
    let raw_r1 = autocorrelation(&trim.steady_state, 1);
    let sub = subsession_analysis(&trim.steady_state, CONFIDENCE, MIN_SUBSESSION_SAMPLES);
    AnalysisReport {
        interval: sub.interval,
        raw_autocorrelation: raw_r1,
        merge_factor: sub.merge_factor,
        warmup_removed: trim.warmup_removed,
        cooldown_removed: trim.cooldown_removed,
        converged: sub.converged,
        raw_samples: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pipeline_reports_the_steady_state_mean() {
        let mut rng = StdRng::seed_from_u64(9);
        // Warm-up ramp, steady phase around 400 MB/s, cool-down tail.
        let mut xs: Vec<f64> = (0..120).map(|i| i as f64 * 3.0).collect();
        xs.extend((0..2000).map(|_| 400.0 + rng.gen_range(-20.0..20.0)));
        xs.extend((0..120).map(|i| 360.0 - i as f64 * 3.0));
        let report = analyze(&xs);
        assert!((report.interval.mean - 400.0).abs() < 10.0);
        assert!(report.warmup_removed > 0);
        assert!(report.cooldown_removed > 0);
        assert!(report.converged);
        assert_eq!(report.raw_samples, xs.len());
    }

    #[test]
    fn correlated_measurements_widen_the_interval() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut correlated = vec![300.0f64];
        for _ in 0..4095 {
            let prev = *correlated.last().unwrap();
            correlated.push(300.0 + 0.97 * (prev - 300.0) + rng.gen_range(-2.0..2.0));
        }
        let independent: Vec<f64> = (0..4096)
            .map(|_| 300.0 + rng.gen_range(-10.0..10.0))
            .collect();
        let corr_report = analyze(&correlated);
        let indep_report = analyze(&independent);
        assert!(corr_report.merge_factor > indep_report.merge_factor);
        assert!(corr_report.interval.half_width > indep_report.interval.half_width);
    }
}
