//! Shared-network model.
//!
//! The testbed uses gigabit Ethernet with a measured aggregate throughput of
//! about 500 MB/s across the four servers (paper §4.2). The model enforces the
//! aggregate bandwidth cap (the per-client cap is applied by the cluster) and
//! produces the latency figures reported through the ping-latency /
//! Ack-EWMA / Send-EWMA performance indicators. When too much data is in
//! flight the effective bandwidth degrades — the network half of "congestion
//! collapse". The fabric is the testbed's, so the curves are functions over
//! the constants in [`crate::config`].

use crate::config::{NETWORK_AGGREGATE_MBPS, NETWORK_BASE_LATENCY_MS, NETWORK_CONGESTION_KNEE_MB};

/// Efficiency factor in `(0, 1]` given the total number of in-flight
/// megabytes. Below the knee the network runs at full efficiency; beyond it,
/// retransmissions and switch-buffer overruns eat into goodput.
pub fn efficiency(in_flight_mb: f64) -> f64 {
    let x = in_flight_mb.max(0.0);
    if x <= NETWORK_CONGESTION_KNEE_MB {
        return 1.0;
    }
    let overload = (x - NETWORK_CONGESTION_KNEE_MB) / NETWORK_CONGESTION_KNEE_MB;
    1.0 / (1.0 + overload.powf(1.5))
}

/// Usable aggregate bandwidth (MB/s) given the in-flight volume and any
/// bandwidth stolen by external interference (`interference_mbps`).
pub fn usable_aggregate(in_flight_mb: f64, interference_mbps: f64) -> f64 {
    ((NETWORK_AGGREGATE_MBPS - interference_mbps.max(0.0)) * efficiency(in_flight_mb)).max(1.0)
}

/// Round-trip latency (ms) seen by a client when `in_flight_mb` megabytes are
/// queued in the fabric.
pub fn latency_ms(in_flight_mb: f64) -> f64 {
    // Queueing delay: the in-flight data has to drain at the aggregate rate.
    NETWORK_BASE_LATENCY_MS + in_flight_mb.max(0.0) / NETWORK_AGGREGATE_MBPS * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_is_one_below_the_knee() {
        assert_eq!(efficiency(0.0), 1.0);
        assert_eq!(efficiency(119.9), 1.0);
    }

    #[test]
    fn efficiency_degrades_beyond_the_knee() {
        let just_past = efficiency(150.0);
        let far_past = efficiency(600.0);
        assert!(just_past < 1.0);
        assert!(far_past < just_past);
        assert!(far_past > 0.0, "efficiency never reaches zero");
        // Deep congestion collapse loses most of the bandwidth.
        assert!(far_past < 0.25, "got {far_past}");
    }

    #[test]
    fn usable_aggregate_accounts_for_interference() {
        assert_eq!(usable_aggregate(0.0, 0.0), 500.0);
        assert_eq!(usable_aggregate(0.0, 100.0), 400.0);
        assert!(usable_aggregate(0.0, 1e6) >= 1.0, "never drops to zero");
        assert!(usable_aggregate(300.0, 0.0) < 500.0);
    }

    #[test]
    fn latency_grows_with_in_flight_data() {
        let idle = latency_ms(0.0);
        let busy = latency_ms(100.0);
        let collapsed = latency_ms(400.0);
        assert_eq!(idle, 0.3);
        assert!(busy > idle);
        assert!(collapsed > busy);
        // 400 MB queued at 500 MB/s ≈ 800 ms of queueing delay.
        assert!((collapsed - 800.3).abs() < 1.0);
    }
}
