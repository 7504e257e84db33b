//! Cluster geometry and hardware constants (paper §4.2).

/// How many Performance Indicators each client reports per sampling tick.
///
/// The paper's prototype reports 44 floats per client per second (Table 2).
/// Training a Q-network whose input is `44 PIs × 5 clients × 10 ticks` is
/// perfectly feasible but slow on a laptop-class CPU, so the simulator also
/// offers a compact PI set that keeps the indicators the paper's analysis
/// identifies as informative while shrinking the observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PiMode {
    /// Full 44-indicator set: 9 PIs for each of the 4 OSCs plus 8 client-level
    /// indicators (date/time features, thread count, rate limit, client-level
    /// read and write throughput).
    Full,
    /// Compact 12-indicator set: the 9 OSC indicators aggregated over the
    /// client's OSCs plus rate limit and client-level read/write throughput.
    Compact,
}

/// Static description of the simulated cluster.
///
/// Defaults reproduce the paper's testbed: 4 object storage servers, 5
/// clients, one OSC per client per server (stripe count 4, 1 MB stripes),
/// 7200-RPM HGST disks (113 MB/s sequential read, 106 MB/s sequential write),
/// gigabit Ethernet with ≈500 MB/s measured aggregate throughput, and a
/// write-through server cache.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of object storage servers (paper: 4).
    pub num_servers: usize,
    /// Number of client nodes (paper: 5).
    pub num_clients: usize,
    /// Stripe size in MB (paper: 1 MB). This is also the RPC transfer size.
    pub stripe_size_mb: f64,
    /// Per-disk sequential read bandwidth in MB/s (paper: 113).
    pub disk_seq_read_mbps: f64,
    /// Per-disk sequential write bandwidth in MB/s (paper: 106).
    pub disk_seq_write_mbps: f64,
    /// Average seek + rotational latency of the disk in milliseconds.
    pub disk_seek_ms: f64,
    /// Aggregate network bandwidth in MB/s (paper: ≈500).
    pub network_aggregate_mbps: f64,
    /// Per-client link bandwidth in MB/s (gigabit Ethernet ≈ 117).
    pub network_per_client_mbps: f64,
    /// Unloaded round-trip latency between a client and a server, in ms.
    pub network_base_latency_ms: f64,
    /// Per-OSC write cache (dirty-bytes) limit in MB (Lustre default: 32).
    pub write_cache_mb: f64,
    /// Queue depth at which a server's efficiency starts to degrade
    /// (thread-pool exhaustion / lock contention — the "congestion collapse"
    /// knee).
    pub server_congestion_knee: f64,
    /// Total in-flight megabytes at which the shared network starts to
    /// collapse.
    pub network_congestion_knee_mb: f64,
    /// Relative standard deviation of the multiplicative measurement noise
    /// (the paper's testbed shares a departmental network; ~4 % is typical).
    pub noise_level: f64,
    /// Probability per tick of an external interference event (IT-department
    /// scans in the paper) that temporarily steals network bandwidth.
    pub interference_probability: f64,
    /// Which Performance-Indicator set the cluster reports.
    pub pi_mode: PiMode,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_servers: 4,
            num_clients: 5,
            stripe_size_mb: 1.0,
            disk_seq_read_mbps: 113.0,
            disk_seq_write_mbps: 106.0,
            disk_seek_ms: 8.5,
            network_aggregate_mbps: 500.0,
            network_per_client_mbps: 117.0,
            network_base_latency_ms: 0.3,
            write_cache_mb: 32.0,
            server_congestion_knee: 24.0,
            network_congestion_knee_mb: 120.0,
            noise_level: 0.04,
            interference_probability: 0.01,
            pi_mode: PiMode::Compact,
        }
    }
}

impl ClusterConfig {
    /// Number of OSCs per client — with the paper's stripe count of 4, each
    /// client maintains one Object Storage Client per server.
    pub fn oscs_per_client(&self) -> usize {
        self.num_servers
    }

    /// Validates the configuration, panicking on the first inconsistency.
    pub fn validate(&self) {
        assert!(self.num_servers > 0, "need at least one server");
        assert!(self.num_clients > 0, "need at least one client");
        assert!(self.stripe_size_mb > 0.0, "stripe size must be positive");
        assert!(
            self.disk_seq_read_mbps > 0.0 && self.disk_seq_write_mbps > 0.0,
            "disk bandwidths must be positive"
        );
        assert!(
            self.network_aggregate_mbps > 0.0 && self.network_per_client_mbps > 0.0,
            "network bandwidths must be positive"
        );
        assert!(
            (0.0..0.5).contains(&self.noise_level),
            "noise level must be in [0, 0.5)"
        );
        assert!(
            (0.0..1.0).contains(&self.interference_probability),
            "interference probability must be in [0, 1)"
        );
    }
}

impl capes_persist::Persist for PiMode {
    const MIN_SIZE: usize = 1;

    fn encode(&self, w: &mut capes_persist::Writer) {
        w.put_u8(match self {
            PiMode::Full => 0,
            PiMode::Compact => 1,
        });
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        match r.get_u8()? {
            0 => Ok(PiMode::Full),
            1 => Ok(PiMode::Compact),
            _ => Err(capes_persist::PersistError::BadValue {
                what: "unknown PI-mode tag",
            }),
        }
    }
}

impl capes_persist::Persist for ClusterConfig {
    const MIN_SIZE: usize = 2 * 8 + 12 * 8 + 1;

    fn encode(&self, w: &mut capes_persist::Writer) {
        w.put_usize(self.num_servers);
        w.put_usize(self.num_clients);
        w.put_f64(self.stripe_size_mb);
        w.put_f64(self.disk_seq_read_mbps);
        w.put_f64(self.disk_seq_write_mbps);
        w.put_f64(self.disk_seek_ms);
        w.put_f64(self.network_aggregate_mbps);
        w.put_f64(self.network_per_client_mbps);
        w.put_f64(self.network_base_latency_ms);
        w.put_f64(self.write_cache_mb);
        w.put_f64(self.server_congestion_knee);
        w.put_f64(self.network_congestion_knee_mb);
        w.put_f64(self.noise_level);
        w.put_f64(self.interference_probability);
        self.pi_mode.encode(w);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        let config = ClusterConfig {
            num_servers: r.get_usize()?,
            num_clients: r.get_usize()?,
            stripe_size_mb: r.get_f64()?,
            disk_seq_read_mbps: r.get_f64()?,
            disk_seq_write_mbps: r.get_f64()?,
            disk_seek_ms: r.get_f64()?,
            network_aggregate_mbps: r.get_f64()?,
            network_per_client_mbps: r.get_f64()?,
            network_base_latency_ms: r.get_f64()?,
            write_cache_mb: r.get_f64()?,
            server_congestion_knee: r.get_f64()?,
            network_congestion_knee_mb: r.get_f64()?,
            noise_level: r.get_f64()?,
            interference_probability: r.get_f64()?,
            pi_mode: PiMode::decode(r)?,
        };
        // `validate`'s invariants as typed errors instead of panics.
        if config.num_servers == 0 || config.num_clients == 0 {
            return Err(capes_persist::PersistError::BadValue {
                what: "cluster with zero servers or clients",
            });
        }
        if !(config.stripe_size_mb > 0.0
            && config.disk_seq_read_mbps > 0.0
            && config.disk_seq_write_mbps > 0.0
            && config.network_aggregate_mbps > 0.0
            && config.network_per_client_mbps > 0.0)
        {
            return Err(capes_persist::PersistError::BadValue {
                what: "cluster bandwidth or stripe size not positive",
            });
        }
        if !((0.0..0.5).contains(&config.noise_level)
            && (0.0..1.0).contains(&config.interference_probability))
        {
            return Err(capes_persist::PersistError::BadValue {
                what: "cluster noise or interference outside its range",
            });
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_testbed() {
        let c = ClusterConfig::default();
        c.validate();
        assert_eq!(c.num_servers, 4);
        assert_eq!(c.num_clients, 5);
        assert_eq!(c.oscs_per_client(), 4);
        assert_eq!(c.disk_seq_read_mbps, 113.0);
        assert_eq!(c.disk_seq_write_mbps, 106.0);
        assert_eq!(c.network_aggregate_mbps, 500.0);
        assert_eq!(c.stripe_size_mb, 1.0);
        assert_eq!(c.pi_mode, PiMode::Compact);
        // The paper chose hardware with a ~1:1 network-to-storage bandwidth
        // ratio; verify the defaults preserve that property.
        let ratio = c.network_aggregate_mbps / (c.disk_seq_write_mbps * c.num_servers as f64);
        assert!((0.8..1.4).contains(&ratio), "network:storage ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn invalid_config_rejected() {
        let c = ClusterConfig {
            num_servers: 0,
            ..Default::default()
        };
        c.validate();
    }
}
