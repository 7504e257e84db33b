//! Disk service model.
//!
//! Each object storage server owns one 7200-RPM hard drive (paper §4.2:
//! HGST Travelstar Z7K500, 113 MB/s sequential read, 106 MB/s sequential
//! write). The model captures the two properties the paper's analysis leans
//! on:
//!
//! * random reads are dominated by seeks and gain very little from having
//!   more requests outstanding, while
//! * random writes can be merged and reordered in the I/O queue, so their
//!   efficiency rises markedly with queue depth ("outstanding random write
//!   requests can be merged and handled more efficiently if there are more
//!   requests in the I/O queue", §4.3).

/// Efficiency model of a single server disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Sequential read bandwidth in MB/s.
    pub seq_read_mbps: f64,
    /// Sequential write bandwidth in MB/s.
    pub seq_write_mbps: f64,
    /// Average seek + rotational latency in milliseconds.
    pub seek_ms: f64,
    /// Transfer unit (stripe / RPC size) in MB.
    pub io_size_mb: f64,
}

impl DiskModel {
    /// Builds the model from the cluster configuration.
    pub fn new(seq_read_mbps: f64, seq_write_mbps: f64, seek_ms: f64, io_size_mb: f64) -> Self {
        assert!(seq_read_mbps > 0.0 && seq_write_mbps > 0.0 && io_size_mb > 0.0);
        assert!(seek_ms >= 0.0);
        DiskModel {
            seq_read_mbps,
            seq_write_mbps,
            seek_ms,
            io_size_mb,
        }
    }

    /// Fraction of the sequential read bandwidth achievable for random reads
    /// at the given queue depth. Seek-bound: the elevator can shorten seeks a
    /// little when it has more requests to sort, but the effect is small.
    pub fn random_read_efficiency(&self, queue_depth: f64) -> f64 {
        let qd = queue_depth.max(0.0);
        (0.48 + 0.02 * (1.0 + qd).ln()).min(0.62)
    }

    /// Fraction of the sequential write bandwidth achievable for random
    /// writes at the given queue depth. Write merging in the I/O queue makes
    /// this rise substantially with queue depth.
    pub fn random_write_efficiency(&self, queue_depth: f64) -> f64 {
        let qd = queue_depth.max(0.0);
        (0.55 + 0.11 * (1.0 + qd).ln()).min(0.90)
    }

    /// Read capacity in MB/s for a mix of sequential and random reads at the
    /// given queue depth. `sequential_fraction` is the fraction of read bytes
    /// that are sequential.
    pub fn read_capacity(&self, queue_depth: f64, sequential_fraction: f64) -> f64 {
        let f = sequential_fraction.clamp(0.0, 1.0);
        self.seq_read_mbps * (f * 0.95 + (1.0 - f) * self.random_read_efficiency(queue_depth))
    }

    /// Write capacity in MB/s for a mix of sequential and random writes at
    /// the given queue depth.
    pub fn write_capacity(&self, queue_depth: f64, sequential_fraction: f64) -> f64 {
        let f = sequential_fraction.clamp(0.0, 1.0);
        self.seq_write_mbps * (f * 0.93 + (1.0 - f) * self.random_write_efficiency(queue_depth))
    }

    /// Service time in milliseconds for one random I/O of the transfer unit
    /// at queue depth 1 — used to seed the process-time indicators.
    pub fn base_service_time_ms(&self, is_write: bool) -> f64 {
        let bw = if is_write {
            self.seq_write_mbps
        } else {
            self.seq_read_mbps
        };
        self.seek_ms + self.io_size_mb / bw * 1000.0
    }
}

impl capes_persist::Persist for DiskModel {
    const MIN_SIZE: usize = 32;

    fn encode(&self, w: &mut capes_persist::Writer) {
        w.put_f64(self.seq_read_mbps);
        w.put_f64(self.seq_write_mbps);
        w.put_f64(self.seek_ms);
        w.put_f64(self.io_size_mb);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        let seq_read_mbps = r.get_f64()?;
        let seq_write_mbps = r.get_f64()?;
        let seek_ms = r.get_f64()?;
        let io_size_mb = r.get_f64()?;
        if !(seq_read_mbps > 0.0 && seq_write_mbps > 0.0 && io_size_mb > 0.0 && seek_ms >= 0.0) {
            return Err(capes_persist::PersistError::BadValue {
                what: "disk model constants outside their ranges",
            });
        }
        Ok(DiskModel {
            seq_read_mbps,
            seq_write_mbps,
            seek_ms,
            io_size_mb,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> DiskModel {
        DiskModel::new(113.0, 106.0, 8.5, 1.0)
    }

    #[test]
    fn write_efficiency_rises_with_queue_depth() {
        let d = disk();
        let shallow = d.random_write_efficiency(2.0);
        let medium = d.random_write_efficiency(20.0);
        let deep = d.random_write_efficiency(120.0);
        assert!(shallow < medium && medium < deep);
        assert!(deep <= 0.90);
        // The deep-queue gain over a shallow queue must be substantial —
        // this is what makes congestion-window tuning worthwhile for writes.
        assert!(deep / shallow > 1.2, "gain {}", deep / shallow);
    }

    #[test]
    fn read_efficiency_is_nearly_flat() {
        let d = disk();
        let shallow = d.random_read_efficiency(2.0);
        let deep = d.random_read_efficiency(120.0);
        assert!(deep >= shallow);
        assert!(
            deep / shallow < 1.15,
            "random reads must stay seek-bound (gain {})",
            deep / shallow
        );
    }

    #[test]
    fn sequential_io_is_faster_than_random() {
        let d = disk();
        assert!(d.read_capacity(8.0, 1.0) > d.read_capacity(8.0, 0.0));
        assert!(d.write_capacity(8.0, 1.0) > d.write_capacity(8.0, 0.0));
        // Sequential capacity approaches the raw disk bandwidth.
        assert!(d.read_capacity(8.0, 1.0) > 0.9 * 113.0);
        assert!(d.write_capacity(8.0, 1.0) > 0.9 * 106.0);
    }

    #[test]
    fn capacities_are_bounded_by_raw_bandwidth() {
        let d = disk();
        for qd in [0.0, 1.0, 8.0, 64.0, 1024.0] {
            for f in [0.0, 0.5, 1.0] {
                assert!(d.read_capacity(qd, f) <= 113.0 + 1e-9);
                assert!(d.write_capacity(qd, f) <= 106.0 + 1e-9);
                assert!(d.read_capacity(qd, f) > 0.0);
                assert!(d.write_capacity(qd, f) > 0.0);
            }
        }
    }

    #[test]
    fn base_service_time_includes_seek_and_transfer() {
        let d = disk();
        let t_read = d.base_service_time_ms(false);
        let t_write = d.base_service_time_ms(true);
        assert!(t_read > 8.5, "must include the seek");
        assert!(t_write > t_read, "writes transfer slower than reads");
        assert!(t_write < 30.0);
    }

    #[test]
    #[should_panic]
    fn invalid_model_rejected() {
        let _ = DiskModel::new(0.0, 106.0, 8.5, 1.0);
    }
}
