//! Performance-indicator layout and normalisation scales.
//!
//! The paper's prototype reports 44 floating-point indicators per client per
//! second (Table 2): the nine §4.1 indicators for each of the four OSCs plus
//! a handful of client-level values (the paper recommends feeding date/time
//! components separately when workloads are cyclical, §3.1).
//!
//! Neural networks train poorly on raw values spanning five orders of
//! magnitude, so `pi_scales` provides a per-indicator divisor that the
//! monitoring layer applies before observations enter the Replay DB. The
//! scales are fixed constants (not data-dependent), so normalisation never
//! leaks information between training and tuning sessions.

use crate::config::PiMode;

/// Number of per-OSC indicators (paper §4.1).
pub(crate) const PIS_PER_OSC: usize = 9;

/// Number of client-level indicators appended in [`PiMode::Full`] mode.
pub(crate) const CLIENT_LEVEL_PIS_FULL: usize = 8;

/// Number of client-level indicators appended in [`PiMode::Compact`] mode.
pub(crate) const CLIENT_LEVEL_PIS_COMPACT: usize = 3;

/// Number of indicators reported by one client per tick in the given mode.
///
/// `Full` with four OSCs gives the paper's 44 indicators per client.
pub fn pis_per_client(mode: PiMode, oscs_per_client: usize) -> usize {
    match mode {
        PiMode::Full => oscs_per_client * PIS_PER_OSC + CLIENT_LEVEL_PIS_FULL,
        PiMode::Compact => PIS_PER_OSC + CLIENT_LEVEL_PIS_COMPACT,
    }
}

/// Per-indicator divisor bringing every indicator roughly into `[0, a few]`,
/// in the order of the per-client PI vector.
pub(crate) fn pi_scales(mode: PiMode, oscs_per_client: usize) -> Vec<f64> {
    // window, read, write, dirty, cache, ping, ack, send, pt_ratio
    const OSC_SCALES: [f64; 9] = [64.0, 50.0, 50.0, 32.0, 32.0, 100.0, 100.0, 100.0, 5.0];
    match mode {
        PiMode::Full => {
            let mut scales = Vec::new();
            for _ in 0..oscs_per_client {
                scales.extend_from_slice(&OSC_SCALES);
            }
            // month, dow, hour, minute, threads, rate limit, client read, client write
            scales.extend_from_slice(&[12.0, 7.0, 24.0, 60.0, 32.0, 2000.0, 150.0, 150.0]);
            scales
        }
        PiMode::Compact => {
            let mut scales = Vec::new();
            // Aggregated throughput over 4 OSCs is ~4x one OSC's. Then the
            // rate limit, active threads, hour.
            scales.extend_from_slice(&[64.0, 150.0, 150.0, 128.0, 128.0, 100.0, 100.0, 100.0, 5.0]);
            scales.extend_from_slice(&[2000.0, 32.0, 24.0]);
            scales
        }
    }
}

/// Normalises a raw PI vector in place using [`pi_scales`].
///
/// # Panics
/// Panics if the vector length does not match the mode.
pub(crate) fn normalize_pis(pis: &mut [f64], mode: PiMode, oscs_per_client: usize) {
    let scales = pi_scales(mode, oscs_per_client);
    assert_eq!(
        pis.len(),
        scales.len(),
        "PI vector length {} does not match mode ({} expected)",
        pis.len(),
        scales.len()
    );
    for (v, s) in pis.iter_mut().zip(scales) {
        *v /= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mode_matches_paper_44_pis() {
        assert_eq!(pis_per_client(PiMode::Full, 4), 44);
        assert_eq!(pi_scales(PiMode::Full, 4).len(), 44);
    }

    #[test]
    fn compact_mode_is_twelve_wide() {
        assert_eq!(pis_per_client(PiMode::Compact, 4), 12);
        assert_eq!(pi_scales(PiMode::Compact, 4).len(), 12);
    }

    #[test]
    fn scales_are_positive() {
        for mode in [PiMode::Full, PiMode::Compact] {
            assert!(pi_scales(mode, 4).iter().all(|&s| s > 0.0));
        }
    }

    #[test]
    fn normalisation_brings_values_near_unit_range() {
        let mut pis = vec![
            8.0, 40.0, 80.0, 16.0, 32.0, 5.0, 3.0, 2.0, 1.2, 2000.0, 5.0, 13.0,
        ];
        normalize_pis(&mut pis, PiMode::Compact, 4);
        assert!(pis.iter().all(|&v| (0.0..=2.0).contains(&v)), "{pis:?}");
    }

    #[test]
    #[should_panic(expected = "does not match mode")]
    fn wrong_width_panics() {
        let mut pis = vec![1.0; 5];
        normalize_pis(&mut pis, PiMode::Compact, 4);
    }
}
