//! Basic summary statistics and student-t confidence intervals.

/// A symmetric confidence interval around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the interval (the mean is reported as `mean ± half_width`).
    pub half_width: f64,
    /// Confidence level used (e.g. 0.95).
    pub confidence: f64,
    /// Number of samples the interval was computed from.
    pub samples: usize,
}

serde::serialize_struct! { ConfidenceInterval { mean, half_width, confidence, samples } }

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Unbiased sample variance (n − 1 denominator). Returns 0 for fewer than two
/// samples.
pub fn sample_variance(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples);
    samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (samples.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(samples: &[f64]) -> f64 {
    sample_variance(samples).sqrt()
}

/// Two-sided critical value of the student-t distribution with `df` degrees of
/// freedom at the given confidence level (e.g. `0.95`).
///
/// Exact closed forms are used for 1 and 2 degrees of freedom; larger values
/// use the Cornish–Fisher expansion around the normal quantile, which is
/// accurate to well under 1 % for df ≥ 3.
///
/// # Panics
/// Panics if `df == 0` or `confidence` is not strictly between 0 and 1.
pub fn t_critical(df: usize, confidence: f64) -> f64 {
    assert!(df > 0, "degrees of freedom must be positive");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    // Upper-tail probability for a two-sided interval.
    let p = 1.0 - (1.0 - confidence) / 2.0;
    match df {
        1 => (std::f64::consts::PI * (p - 0.5)).tan(),
        2 => {
            let x = 2.0 * p - 1.0;
            x * (2.0 / (1.0 - x * x)).sqrt()
        }
        _ => {
            let z = normal_quantile(p);
            let d = df as f64;
            let z3 = z.powi(3);
            let z5 = z.powi(5);
            let z7 = z.powi(7);
            let z9 = z.powi(9);
            z + (z3 + z) / (4.0 * d)
                + (5.0 * z5 + 16.0 * z3 + 3.0 * z) / (96.0 * d * d)
                + (3.0 * z7 + 19.0 * z5 + 17.0 * z3 - 15.0 * z) / (384.0 * d.powi(3))
                + (79.0 * z9 + 776.0 * z7 + 1482.0 * z5 - 1920.0 * z3 - 945.0 * z)
                    / (92160.0 * d.powi(4))
        }
    }
}

/// Standard-normal quantile function (inverse CDF) using Acklam's rational
/// approximation (relative error below 1.15e-9 over the full range).
#[allow(clippy::excessive_precision)] // Acklam's published coefficients, verbatim
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must be in (0, 1)");
    // Coefficients for the central and tail regions.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Student-t confidence interval of the mean of `samples` at the given
/// confidence level (e.g. 0.95 for the paper's 95 % level).
///
/// For fewer than two samples the half-width is reported as 0.
pub fn confidence_interval(samples: &[f64], confidence: f64) -> ConfidenceInterval {
    let m = mean(samples);
    if samples.len() < 2 {
        return ConfidenceInterval {
            mean: m,
            half_width: 0.0,
            confidence,
            samples: samples.len(),
        };
    }
    let sem = std_dev(samples) / (samples.len() as f64).sqrt();
    let t = t_critical(samples.len() - 1, confidence);
    ConfidenceInterval {
        mean: m,
        half_width: t * sem,
        confidence,
        samples: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_stddev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((sample_variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(sample_variance(&[1.0]), 0.0);
    }

    #[test]
    fn normal_quantile_known_values() {
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.995) - 2.575829).abs() < 1e-4);
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-4);
    }

    #[test]
    fn t_critical_matches_tables() {
        // Two-sided 95 % critical values from standard t tables.
        let cases = [
            (1, 12.706),
            (2, 4.303),
            (3, 3.182),
            (4, 2.776),
            (5, 2.571),
            (10, 2.228),
            (20, 2.086),
            (30, 2.042),
            (100, 1.984),
        ];
        for (df, expected) in cases {
            let got = t_critical(df, 0.95);
            let rel = (got - expected).abs() / expected;
            assert!(rel < 0.01, "df={df}: got {got}, expected {expected}");
        }
        // 99 % values.
        assert!((t_critical(10, 0.99) - 3.169).abs() / 3.169 < 0.01);
        assert!((t_critical(2, 0.99) - 9.925).abs() / 9.925 < 0.01);
    }

    #[test]
    fn t_critical_decreases_with_df() {
        let mut prev = f64::INFINITY;
        for df in 1..200 {
            let t = t_critical(df, 0.95);
            assert!(t < prev + 1e-9, "t must not increase with df (df={df})");
            assert!(t > 1.95, "t must stay above the normal quantile");
            prev = t;
        }
    }

    #[test]
    fn confidence_interval_behaviour() {
        let xs: Vec<f64> = (0..100).map(|i| 100.0 + (i % 10) as f64).collect();
        let ci = confidence_interval(&xs, 0.95);
        assert!((ci.mean - 104.5).abs() < 1e-9);
        assert!(ci.half_width > 0.0);
        assert!(ci.mean - ci.half_width < ci.mean && ci.mean + ci.half_width > ci.mean);
        assert_eq!(ci.samples, 100);

        // Wider confidence level → wider interval.
        let ci99 = confidence_interval(&xs, 0.99);
        assert!(ci99.half_width > ci.half_width);

        // More samples → narrower interval (same distribution).
        let more: Vec<f64> = (0..1000).map(|i| 100.0 + (i % 10) as f64).collect();
        let ci_more = confidence_interval(&more, 0.95);
        assert!(ci_more.half_width < ci.half_width);
    }

    #[test]
    fn degenerate_interval() {
        let ci = confidence_interval(&[5.0], 0.95);
        assert_eq!(ci.mean, 5.0);
        assert_eq!(ci.half_width, 0.0);
        let constant = confidence_interval(&[3.0; 50], 0.95);
        assert_eq!(constant.half_width, 0.0);
    }

    #[test]
    fn significance_test_uses_overlap() {
        // The paper's example: 150 ± 50 vs 180 ± 5 cannot be distinguished.
        let a = ConfidenceInterval {
            mean: 150.0,
            half_width: 50.0,
            confidence: 0.95,
            samples: 10,
        };
        let b = ConfidenceInterval {
            mean: 180.0,
            half_width: 5.0,
            confidence: 0.95,
            samples: 10,
        };
        assert!(
            a.mean - a.half_width <= b.mean + b.half_width
                && b.mean - b.half_width <= a.mean + a.half_width,
            "overlap"
        );
        let c = ConfidenceInterval {
            mean: 120.0,
            half_width: 5.0,
            confidence: 0.95,
            samples: 10,
        };
        assert!(c.mean + c.half_width < b.mean - b.half_width, "disjoint");
    }

    #[test]
    #[should_panic(expected = "degrees of freedom")]
    fn zero_df_panics() {
        let _ = t_critical(0, 0.95);
    }
}
