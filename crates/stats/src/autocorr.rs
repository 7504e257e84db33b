//! Sample autocorrelation and the i.i.d. check of Appendix B.

/// The autocorrelation magnitude above which the paper's methodology treats a
/// sample series as *not* independent and identically distributed.
pub const IID_AUTOCORRELATION_THRESHOLD: f64 = 0.1;

/// Lag-`k` sample autocorrelation of `samples`.
///
/// Returns 0 when the series is too short (fewer than `k + 2` samples) or has
/// zero variance, both of which the calling code treats as "no evidence of
/// correlation".
pub fn autocorrelation(samples: &[f64], lag: usize) -> f64 {
    if samples.len() < lag + 2 {
        return 0.0;
    }
    let n = samples.len();
    let m = crate::summary::mean(samples);
    let denom: f64 = samples.iter().map(|x| (x - m) * (x - m)).sum();
    if denom == 0.0 {
        return 0.0;
    }
    let num: f64 = (0..n - lag)
        .map(|i| (samples[i] - m) * (samples[i + lag] - m))
        .sum();
    num / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn white_noise_has_low_autocorrelation() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..5000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        assert!(autocorrelation(&xs, 1).abs() < 0.05);
        assert!(autocorrelation(&xs, 1).abs() <= IID_AUTOCORRELATION_THRESHOLD);
    }

    #[test]
    fn strongly_correlated_series_detected() {
        // AR(1) process with coefficient 0.9.
        let mut rng = StdRng::seed_from_u64(2);
        let mut xs = vec![0.0f64];
        for _ in 0..3000 {
            let prev = *xs.last().unwrap();
            xs.push(0.9 * prev + rng.gen_range(-1.0..1.0));
        }
        let r1 = autocorrelation(&xs, 1);
        assert!(r1 > 0.8, "expected high lag-1 autocorrelation, got {r1}");
        assert!(r1.abs() > IID_AUTOCORRELATION_THRESHOLD);
    }

    #[test]
    fn alternating_series_has_negative_autocorrelation() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let r1 = autocorrelation(&xs, 1);
        assert!(r1 < -0.9);
    }

    #[test]
    fn lag_zero_is_one() {
        let xs = [1.0, 5.0, 2.0, 8.0, 3.0];
        assert!((autocorrelation(&xs, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(autocorrelation(&[], 1), 0.0);
        assert_eq!(autocorrelation(&[1.0, 2.0], 5), 0.0);
        // Constant series has zero variance → defined as uncorrelated.
        assert_eq!(autocorrelation(&[3.0; 100], 1), 0.0);
    }

    #[test]
    fn periodic_signal_shows_up_at_its_period() {
        let xs: Vec<f64> = (0..1200)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 10.0).sin())
            .collect();
        assert!(
            autocorrelation(&xs, 10) > 0.9,
            "strong correlation at the period"
        );
        assert!(
            autocorrelation(&xs, 5) < -0.9,
            "anti-correlation at half period"
        );
    }
}
