//! Cluster geometry and the testbed's hardware constants (paper §4.2).

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

/// Stripe size in MB (paper: 1 MB). This is also the RPC transfer size.
pub(crate) const STRIPE_SIZE_MB: f64 = 1.0;
/// Per-disk sequential read bandwidth in MB/s (paper §4.2: the HGST
/// Travelstar Z7K500 reads at 113 MB/s).
pub(crate) const DISK_SEQ_READ_MBPS: f64 = 113.0;
/// Per-disk sequential write bandwidth in MB/s (paper §4.2: 106 MB/s).
pub(crate) const DISK_SEQ_WRITE_MBPS: f64 = 106.0;
/// Average seek + rotational latency of the 7200-RPM disk in milliseconds.
pub(crate) const DISK_SEEK_MS: f64 = 8.5;
/// Aggregate network bandwidth in MB/s (paper §4.2: gigabit Ethernet with
/// ≈500 MB/s measured across the four servers, a ~1:1 network-to-storage
/// ratio).
pub(crate) const NETWORK_AGGREGATE_MBPS: f64 = 500.0;
/// Per-client link bandwidth in MB/s (gigabit Ethernet ≈ 117).
pub(crate) const NETWORK_PER_CLIENT_MBPS: f64 = 117.0;
/// Unloaded round-trip latency between a client and a server, in ms.
pub(crate) const NETWORK_BASE_LATENCY_MS: f64 = 0.3;
/// Per-OSC write cache (dirty-bytes) limit in MB (Lustre default: 32).
pub(crate) const WRITE_CACHE_MB: f64 = 32.0;
/// Queue depth at which a server's efficiency starts to degrade
/// (thread-pool exhaustion / lock contention — the "congestion collapse"
/// knee).
pub(crate) const SERVER_CONGESTION_KNEE: f64 = 24.0;
/// Total in-flight megabytes at which the shared network starts to
/// collapse.
pub(crate) const NETWORK_CONGESTION_KNEE_MB: f64 = 120.0;
/// Relative half-width of the multiplicative measurement noise (the paper's
/// testbed shares a departmental network; ~4 % is typical).
pub(crate) const NOISE_LEVEL: f64 = 0.04;
/// Probability per tick of an external interference event (IT-department
/// scans in the paper) that temporarily steals network bandwidth.
pub(crate) const INTERFERENCE_PROBABILITY: f64 = 0.01;

/// The v1 snapshot slots that held the twelve hardware values above when
/// they were `ClusterConfig` fields, in their encoding order. Encode writes
/// the constants; decode accepts nothing else.
const V1_CONFIG_SLOTS: [f64; 12] = [
    STRIPE_SIZE_MB,
    DISK_SEQ_READ_MBPS,
    DISK_SEQ_WRITE_MBPS,
    DISK_SEEK_MS,
    NETWORK_AGGREGATE_MBPS,
    NETWORK_PER_CLIENT_MBPS,
    NETWORK_BASE_LATENCY_MS,
    WRITE_CACHE_MB,
    SERVER_CONGESTION_KNEE,
    NETWORK_CONGESTION_KNEE_MB,
    NOISE_LEVEL,
    INTERFERENCE_PROBABILITY,
];

/// The v1 snapshot slots of the former disk and network models, which each
/// cluster encoded after its configuration: the disk's read and write
/// bandwidths, seek time and transfer unit, then the network's aggregate and
/// per-client bandwidths, base latency and congestion knee.
pub(crate) const V1_MODEL_SLOTS: [f64; 8] = [
    DISK_SEQ_READ_MBPS,
    DISK_SEQ_WRITE_MBPS,
    DISK_SEEK_MS,
    STRIPE_SIZE_MB,
    NETWORK_AGGREGATE_MBPS,
    NETWORK_PER_CLIENT_MBPS,
    NETWORK_BASE_LATENCY_MS,
    NETWORK_CONGESTION_KNEE_MB,
];

/// The shape of the simulated cluster.
///
/// Defaults reproduce the paper's testbed: 4 object storage servers and 5
/// clients, one OSC per client per server (stripe count 4). The testbed's
/// hardware — 1 MB stripes, 7200-RPM HGST disks, gigabit Ethernet with
/// ≈500 MB/s aggregate throughput, the 32 MB Lustre write cache — is fixed:
/// it is the constant block above.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of object storage servers (paper: 4).
    pub num_servers: usize,
    /// Number of client nodes (paper: 5).
    pub num_clients: usize,
    /// Which Performance-Indicator set the cluster reports.
    pub pi_mode: PiMode,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_servers: 4,
            num_clients: 5,
            pi_mode: PiMode::Compact,
        }
    }
}

impl ClusterConfig {
    /// Number of OSCs per client — with the paper's stripe count of 4, each
    /// client maintains one Object Storage Client per server.
    // capes-check: allow(dead-pub) -- the PI-width check of tests/pipeline.rs
    pub fn oscs_per_client(&self) -> usize {
        self.num_servers
    }

    /// Validates the configuration, panicking on the first inconsistency.
    pub(crate) fn validate(&self) {
        assert!(self.num_servers > 0, "need at least one server");
        assert!(self.num_clients > 0, "need at least one client");
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
        for value in V1_CONFIG_SLOTS {
            w.put_f64(value);
        }
        self.pi_mode.encode(w);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        let num_servers = r.get_usize()?;
        let num_clients = r.get_usize()?;
        for value in V1_CONFIG_SLOTS {
            r.expect_f64(value, "cluster hardware slot is not the testbed constant")?;
        }
        let config = ClusterConfig {
            num_servers,
            num_clients,
            pi_mode: PiMode::decode(r)?,
        };
        // `validate`'s invariants as typed errors instead of panics.
        if config.num_servers == 0 || config.num_clients == 0 {
            return Err(capes_persist::PersistError::BadValue {
                what: "cluster with zero servers or clients",
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
        assert_eq!(c.pi_mode, PiMode::Compact);
        // The paper chose hardware with a ~1:1 network-to-storage bandwidth
        // ratio; verify the constants preserve that property.
        let ratio = NETWORK_AGGREGATE_MBPS / (DISK_SEQ_WRITE_MBPS * c.num_servers as f64);
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
