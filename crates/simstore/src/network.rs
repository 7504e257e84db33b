//! Shared-network model.
//!
//! The testbed uses gigabit Ethernet with a measured aggregate throughput of
//! about 500 MB/s across the four servers (paper §4.2). The model enforces the
//! per-client and aggregate bandwidth caps and produces the latency figures
//! reported through the ping-latency / Ack-EWMA / Send-EWMA performance
//! indicators. When too much data is in flight the effective bandwidth
//! degrades — the network half of "congestion collapse".

/// Bandwidth and latency model of the shared cluster network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Aggregate bandwidth across all links in MB/s.
    pub aggregate_mbps: f64,
    /// Per-client link bandwidth in MB/s.
    pub per_client_mbps: f64,
    /// Unloaded round-trip latency in milliseconds.
    pub base_latency_ms: f64,
    /// Total in-flight megabytes beyond which efficiency starts to drop.
    pub congestion_knee_mb: f64,
}

impl NetworkModel {
    /// Creates a network model, validating the inputs.
    pub fn new(
        aggregate_mbps: f64,
        per_client_mbps: f64,
        base_latency_ms: f64,
        congestion_knee_mb: f64,
    ) -> Self {
        assert!(aggregate_mbps > 0.0 && per_client_mbps > 0.0);
        assert!(base_latency_ms >= 0.0 && congestion_knee_mb > 0.0);
        NetworkModel {
            aggregate_mbps,
            per_client_mbps,
            base_latency_ms,
            congestion_knee_mb,
        }
    }

    /// Efficiency factor in `(0, 1]` given the total number of in-flight
    /// megabytes. Below the knee the network runs at full efficiency; beyond
    /// it, retransmissions and switch-buffer overruns eat into goodput.
    pub fn efficiency(&self, in_flight_mb: f64) -> f64 {
        let x = in_flight_mb.max(0.0);
        if x <= self.congestion_knee_mb {
            return 1.0;
        }
        let overload = (x - self.congestion_knee_mb) / self.congestion_knee_mb;
        1.0 / (1.0 + overload.powf(1.5))
    }

    /// Usable aggregate bandwidth (MB/s) given the in-flight volume and any
    /// bandwidth stolen by external interference (`interference_mbps`).
    pub fn usable_aggregate(&self, in_flight_mb: f64, interference_mbps: f64) -> f64 {
        ((self.aggregate_mbps - interference_mbps.max(0.0)) * self.efficiency(in_flight_mb))
            .max(1.0)
    }

    /// Round-trip latency (ms) seen by a client when `in_flight_mb` megabytes
    /// are queued in the fabric.
    pub fn latency_ms(&self, in_flight_mb: f64) -> f64 {
        // Queueing delay: the in-flight data has to drain at the aggregate rate.
        self.base_latency_ms + in_flight_mb.max(0.0) / self.aggregate_mbps * 1000.0
    }
}

impl capes_persist::Persist for NetworkModel {
    const MIN_SIZE: usize = 32;

    fn encode(&self, w: &mut capes_persist::Writer) {
        w.put_f64(self.aggregate_mbps);
        w.put_f64(self.per_client_mbps);
        w.put_f64(self.base_latency_ms);
        w.put_f64(self.congestion_knee_mb);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        let aggregate_mbps = r.get_f64()?;
        let per_client_mbps = r.get_f64()?;
        let base_latency_ms = r.get_f64()?;
        let congestion_knee_mb = r.get_f64()?;
        if !(aggregate_mbps > 0.0
            && per_client_mbps > 0.0
            && base_latency_ms >= 0.0
            && congestion_knee_mb > 0.0)
        {
            return Err(capes_persist::PersistError::BadValue {
                what: "network model constants outside their ranges",
            });
        }
        Ok(NetworkModel {
            aggregate_mbps,
            per_client_mbps,
            base_latency_ms,
            congestion_knee_mb,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetworkModel {
        NetworkModel::new(500.0, 117.0, 0.3, 120.0)
    }

    #[test]
    fn efficiency_is_one_below_the_knee() {
        let n = net();
        assert_eq!(n.efficiency(0.0), 1.0);
        assert_eq!(n.efficiency(119.9), 1.0);
    }

    #[test]
    fn efficiency_degrades_beyond_the_knee() {
        let n = net();
        let just_past = n.efficiency(150.0);
        let far_past = n.efficiency(600.0);
        assert!(just_past < 1.0);
        assert!(far_past < just_past);
        assert!(far_past > 0.0, "efficiency never reaches zero");
        // Deep congestion collapse loses most of the bandwidth.
        assert!(far_past < 0.25, "got {far_past}");
    }

    #[test]
    fn usable_aggregate_accounts_for_interference() {
        let n = net();
        assert_eq!(n.usable_aggregate(0.0, 0.0), 500.0);
        assert_eq!(n.usable_aggregate(0.0, 100.0), 400.0);
        assert!(n.usable_aggregate(0.0, 1e6) >= 1.0, "never drops to zero");
        assert!(n.usable_aggregate(300.0, 0.0) < 500.0);
    }

    #[test]
    fn latency_grows_with_in_flight_data() {
        let n = net();
        let idle = n.latency_ms(0.0);
        let busy = n.latency_ms(100.0);
        let collapsed = n.latency_ms(400.0);
        assert_eq!(idle, 0.3);
        assert!(busy > idle);
        assert!(collapsed > busy);
        // 400 MB queued at 500 MB/s ≈ 800 ms of queueing delay.
        assert!((collapsed - 800.3).abs() < 1.0);
    }

    #[test]
    #[should_panic]
    fn invalid_network_rejected() {
        let _ = NetworkModel::new(500.0, 0.0, 0.3, 120.0);
    }
}
