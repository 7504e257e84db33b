//! Monitoring Agent: samples performance indicators on one client node and
//! produces differential reports for the Interface Daemon (paper §3.3).

use crate::message::PiReport;
use crate::wire::{FRAME_CAPACITY, TAG_REPORT};
use capes_persist::Persist;

/// Byte- and message-count statistics kept by a monitoring agent, used to
/// reproduce the "average message size per client" row of Table 2.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MonitoringStats {
    /// Reports produced so far.
    pub reports: u64,
    /// Total encoded bytes of those reports.
    pub bytes_sent: u64,
    /// Total indicators transmitted (after differential suppression).
    pub indicators_sent: u64,
}

impl MonitoringStats {
    /// Average encoded bytes per report (0 if none were sent).
    pub fn mean_bytes_per_report(&self) -> f64 {
        if self.reports == 0 {
            0.0
        } else {
            self.bytes_sent as f64 / self.reports as f64
        }
    }
}

/// A Monitoring Agent running on one client node.
///
/// It reports a PI only when its value differs from the previous tick's,
/// the paper's exact-equality rule, so the values the Interface Daemon
/// reconstructs are always exactly the values sampled.
#[derive(Debug, Clone)]
pub struct MonitoringAgent {
    node: usize,
    /// Values as of the previous sampling tick; indicators equal to their
    /// previous value are suppressed from the report.
    last_values: Option<Vec<f64>>,
    stats: MonitoringStats,
}

impl MonitoringAgent {
    /// Creates an agent for client `node`.
    pub fn new(node: usize) -> Self {
        MonitoringAgent {
            node,
            last_values: None,
            stats: MonitoringStats::default(),
        }
    }

    /// The node this agent monitors.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Accumulated transmission statistics.
    pub fn stats(&self) -> MonitoringStats {
        self.stats
    }

    /// Produces the differential report for this sampling tick. The first
    /// report after start-up always contains every indicator.
    pub fn sample(&mut self, tick: u64, pis: &[f64]) -> PiReport {
        let changed: Vec<(u16, f64)> = match &self.last_values {
            None => pis
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as u16, v))
                .collect(),
            Some(prev) => {
                assert_eq!(
                    prev.len(),
                    pis.len(),
                    "indicator count changed between ticks"
                );
                pis.iter()
                    .enumerate()
                    .filter(|(i, &v)| prev[*i] != v)
                    .map(|(i, &v)| (i as u16, v))
                    .collect()
            }
        };
        self.last_values = Some(pis.to_vec());
        let report = PiReport {
            tick,
            node: self.node,
            total_pis: pis.len(),
            changed,
        };
        // The report's frame: its tag byte, then its `Persist` encoding.
        let mut frame = capes_persist::Writer::with_capacity(FRAME_CAPACITY);
        frame.put_u8(TAG_REPORT);
        report.encode(&mut frame);
        self.stats.reports += 1;
        self.stats.bytes_sent += frame.len() as u64;
        self.stats.indicators_sent += report.changed.len() as u64;
        report
    }
}

impl capes_persist::Persist for MonitoringStats {
    const MIN_SIZE: usize = 3 * 8;

    fn encode(&self, w: &mut capes_persist::Writer) {
        w.put_u64(self.reports);
        w.put_u64(self.bytes_sent);
        w.put_u64(self.indicators_sent);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        Ok(MonitoringStats {
            reports: r.get_u64()?,
            bytes_sent: r.get_u64()?,
            indicators_sent: r.get_u64()?,
        })
    }
}

impl capes_persist::Persist for MonitoringAgent {
    const MIN_SIZE: usize = 8 + 1 + 8 + <MonitoringStats as capes_persist::Persist>::MIN_SIZE;

    fn encode(&self, w: &mut capes_persist::Writer) {
        w.put_usize(self.node);
        self.last_values.encode(w);
        // Reserved: once a relative change threshold, always 0.0.
        w.put_f64(0.0);
        self.stats.encode(w);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        let node = r.get_usize()?;
        let last_values = Option::<Vec<f64>>::decode(r)?;
        // Anything but the reserved 0.0 would ask for a suppression rule
        // this agent no longer has.
        r.expect_f64(0.0, "reserved monitoring threshold is not 0.0")?;
        let stats = MonitoringStats::decode(r)?;
        Ok(MonitoringAgent {
            node,
            last_values,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_report_contains_every_indicator() {
        let mut agent = MonitoringAgent::new(2);
        let report = agent.sample(0, &[1.0, 2.0, 3.0]);
        assert_eq!(report.node, 2);
        assert_eq!(report.total_pis, 3);
        assert_eq!(report.changed.len(), 3);
    }

    #[test]
    fn unchanged_indicators_are_suppressed() {
        let mut agent = MonitoringAgent::new(0);
        agent.sample(0, &[1.0, 2.0, 3.0, 4.0]);
        let report = agent.sample(1, &[1.0, 2.5, 3.0, 4.0]);
        assert_eq!(report.changed, vec![(1, 2.5)]);
        // Nothing changed at all → empty report (but still a report, so the
        // daemon knows the node is alive).
        let empty = agent.sample(2, &[1.0, 2.5, 3.0, 4.0]);
        assert!(empty.changed.is_empty());
    }

    #[test]
    fn stats_accumulate_and_reflect_compression() {
        let mut agent = MonitoringAgent::new(1);
        let pis: Vec<f64> = (0..44).map(|i| i as f64).collect();
        agent.sample(0, &pis);
        for t in 1..100u64 {
            // Only two PIs change per tick after the first.
            let mut next = pis.clone();
            next[3] = t as f64;
            next[7] = t as f64 * 2.0;
            agent.sample(t, &next);
        }
        let stats = agent.stats();
        assert_eq!(stats.reports, 100);
        assert!(stats.indicators_sent < 44 + 99 * 5);
        // Differential reports must average far below a full 44-PI frame.
        assert!(stats.mean_bytes_per_report() < 60.0);
    }

    #[test]
    fn snapshot_keeps_a_reserved_zero_threshold_slot() {
        use capes_persist::{Reader, Writer};
        let mut agent = MonitoringAgent::new(3);
        agent.sample(0, &[1.0, 2.0]);
        let mut w = Writer::new();
        agent.encode(&mut w);
        let bytes = w.as_slice().to_vec();
        // The slot sits between the cached values and the 24 stats bytes.
        let slot = bytes.len() - 32..bytes.len() - 24;
        assert_eq!(bytes[slot.clone()], 0.0f64.to_le_bytes());
        let restored = MonitoringAgent::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(restored.node(), 3);
        assert_eq!(restored.stats(), agent.stats());
        for value in [0.01, f64::NAN, -0.0] {
            let mut crafted = bytes.clone();
            crafted[slot.clone()].copy_from_slice(&value.to_le_bytes());
            let err = MonitoringAgent::decode(&mut Reader::new(&crafted)).unwrap_err();
            assert!(err.to_string().contains("reserved"), "got: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "indicator count changed")]
    fn inconsistent_width_panics() {
        let mut agent = MonitoringAgent::new(0);
        agent.sample(0, &[1.0, 2.0]);
        agent.sample(1, &[1.0, 2.0, 3.0]);
    }
}
