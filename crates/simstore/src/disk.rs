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
//!
//! The drive is the testbed's, so the curves are functions over the
//! constants in [`crate::config`].

use crate::config::{DISK_SEEK_MS, DISK_SEQ_READ_MBPS, DISK_SEQ_WRITE_MBPS, STRIPE_SIZE_MB};

/// Fraction of the sequential read bandwidth achievable for random reads at
/// the given queue depth. Seek-bound: the elevator can shorten seeks a little
/// when it has more requests to sort, but the effect is small.
pub fn random_read_efficiency(queue_depth: f64) -> f64 {
    let qd = queue_depth.max(0.0);
    (0.48 + 0.02 * (1.0 + qd).ln()).min(0.62)
}

/// Fraction of the sequential write bandwidth achievable for random writes
/// at the given queue depth. Write merging in the I/O queue makes this rise
/// substantially with queue depth.
pub fn random_write_efficiency(queue_depth: f64) -> f64 {
    let qd = queue_depth.max(0.0);
    (0.55 + 0.11 * (1.0 + qd).ln()).min(0.90)
}

/// Read capacity in MB/s for a mix of sequential and random reads at the
/// given queue depth. `sequential_fraction` is the fraction of read bytes
/// that are sequential.
pub fn read_capacity(queue_depth: f64, sequential_fraction: f64) -> f64 {
    let f = sequential_fraction.clamp(0.0, 1.0);
    DISK_SEQ_READ_MBPS * (f * 0.95 + (1.0 - f) * random_read_efficiency(queue_depth))
}

/// Write capacity in MB/s for a mix of sequential and random writes at the
/// given queue depth.
pub fn write_capacity(queue_depth: f64, sequential_fraction: f64) -> f64 {
    let f = sequential_fraction.clamp(0.0, 1.0);
    DISK_SEQ_WRITE_MBPS * (f * 0.93 + (1.0 - f) * random_write_efficiency(queue_depth))
}

/// Service time in milliseconds for one random I/O of the transfer unit at
/// queue depth 1 — used to seed the process-time indicators.
pub fn base_service_time_ms(is_write: bool) -> f64 {
    let bw = if is_write {
        DISK_SEQ_WRITE_MBPS
    } else {
        DISK_SEQ_READ_MBPS
    };
    DISK_SEEK_MS + STRIPE_SIZE_MB / bw * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_efficiency_rises_with_queue_depth() {
        let shallow = random_write_efficiency(2.0);
        let medium = random_write_efficiency(20.0);
        let deep = random_write_efficiency(120.0);
        assert!(shallow < medium && medium < deep);
        assert!(deep <= 0.90);
        // The deep-queue gain over a shallow queue must be substantial —
        // this is what makes congestion-window tuning worthwhile for writes.
        assert!(deep / shallow > 1.2, "gain {}", deep / shallow);
    }

    #[test]
    fn read_efficiency_is_nearly_flat() {
        let shallow = random_read_efficiency(2.0);
        let deep = random_read_efficiency(120.0);
        assert!(deep >= shallow);
        assert!(
            deep / shallow < 1.15,
            "random reads must stay seek-bound (gain {})",
            deep / shallow
        );
    }

    #[test]
    fn sequential_io_is_faster_than_random() {
        assert!(read_capacity(8.0, 1.0) > read_capacity(8.0, 0.0));
        assert!(write_capacity(8.0, 1.0) > write_capacity(8.0, 0.0));
        // Sequential capacity approaches the raw disk bandwidth.
        assert!(read_capacity(8.0, 1.0) > 0.9 * 113.0);
        assert!(write_capacity(8.0, 1.0) > 0.9 * 106.0);
    }

    #[test]
    fn capacities_are_bounded_by_raw_bandwidth() {
        for qd in [0.0, 1.0, 8.0, 64.0, 1024.0] {
            for f in [0.0, 0.5, 1.0] {
                assert!(read_capacity(qd, f) <= 113.0 + 1e-9);
                assert!(write_capacity(qd, f) <= 106.0 + 1e-9);
                assert!(read_capacity(qd, f) > 0.0);
                assert!(write_capacity(qd, f) > 0.0);
            }
        }
    }

    #[test]
    fn base_service_time_includes_seek_and_transfer() {
        let t_read = base_service_time_ms(false);
        let t_write = base_service_time_ms(true);
        assert!(t_read > 8.5, "must include the seek");
        assert!(t_write > t_read, "writes transfer slower than reads");
        assert!(t_write < 30.0);
    }
}
