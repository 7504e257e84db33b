//! # capes-stats
//!
//! Benchmark statistics in the style of the Pilot framework used by the CAPES
//! paper (Appendix B, "Computational Results Analysis").
//!
//! The paper's evaluation methodology is:
//!
//! 1. measure throughput once per second;
//! 2. detect and remove warm-up / cool-down phases (changepoint detection);
//! 3. check that the remaining samples are independent and identically
//!    distributed by computing their lag-1 autocorrelation;
//! 4. if |autocorrelation| > 0.1, merge adjacent samples (subsession /
//!    batch-means analysis) until it drops below the threshold;
//! 5. report the mean with a student-t confidence interval at the 95 %
//!    confidence level.
//!
//! Every module here implements one of those steps; [`analysis::analyze`] runs
//! the whole pipeline, and is what the figure-regeneration binaries use to
//! attach error bars to their results.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod autocorr;
pub mod changepoint;
pub mod ewma;
pub mod subsession;
pub mod summary;

pub use analysis::{analyze, AnalysisReport};
pub use autocorr::autocorrelation;
pub use changepoint::{trim_transients, TransientTrim};
pub use ewma::Ewma;
pub use subsession::{subsession_analysis, SubsessionResult};
pub use summary::{
    confidence_interval, mean, sample_variance, std_dev, t_critical, ConfidenceInterval,
};
