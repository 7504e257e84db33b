//! Control Agent: receives Action Messages and decides which parameter
//! changes its node must apply (paper §3.7). Messages arrive by value from
//! [`crate::InterfaceDaemon::broadcast_action`]; [`ControlAgent::handle`]
//! returns the values to set, and the caller sets them.

use crate::message::ActionMessage;
use capes_persist::Persist;

/// Statistics kept by a control agent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Action messages received.
    pub received: u64,
    /// Action messages that actually changed at least one parameter value.
    pub applied: u64,
    /// Stale messages ignored because a newer action had already been applied.
    pub ignored_stale: u64,
}

/// A Control Agent running on one client node.
///
/// The agent screens incoming actions for staleness and duplicates and hands
/// back the parameter vector its node should switch to; the caller sets the
/// values. For the simulated cluster that is `TargetSystem::apply_params`; a
/// real deployment would shell out to `lctl set_param`, exactly like the
/// paper's Lustre adapter.
#[derive(Debug, Default)]
pub struct ControlAgent {
    last_applied_tick: Option<u64>,
    last_values: Option<Vec<f64>>,
    stats: ControlStats,
}

impl ControlAgent {
    /// Accumulated statistics.
    pub fn stats(&self) -> ControlStats {
        self.stats
    }

    /// Forgets the cached last-applied values, so the next action message is
    /// applied even if it matches them. Callers that change the target's
    /// parameters outside the control path (e.g. resetting to defaults for a
    /// baseline measurement) must invalidate the cache or identical
    /// subsequent proposals would be deduplicated against stale state.
    pub fn invalidate_cache(&mut self) {
        self.last_values = None;
    }

    /// Handles an incoming action message. Messages older than the most
    /// recently applied one are ignored (they can arrive out of order when the
    /// control network is congested); identical values are not re-applied.
    /// Returns the values the node must now use — moved out of the message
    /// into the deduplication cache — or `None` if there is nothing to set.
    pub fn handle(&mut self, message: ActionMessage) -> Option<&[f64]> {
        self.stats.received += 1;
        if let Some(last) = self.last_applied_tick {
            if message.tick < last {
                self.stats.ignored_stale += 1;
                return None;
            }
        }
        self.last_applied_tick = Some(message.tick);
        if self.last_values.as_ref() == Some(&message.parameter_values) {
            return None;
        }
        self.stats.applied += 1;
        Some(self.last_values.insert(message.parameter_values).as_slice())
    }

    /// Serializes the agent's mutable state: the staleness/deduplication
    /// caches and the counters. Without the caches a restored agent
    /// would re-apply (or wrongly accept stale) actions the original would
    /// have deduplicated, and its statistics would diverge.
    pub fn encode_state(&self, w: &mut capes_persist::Writer) {
        self.last_applied_tick.encode(w);
        self.last_values.encode(w);
        self.stats.encode(w);
    }

    /// Restores state captured by [`ControlAgent::encode_state`] into this
    /// agent. On error nothing is overwritten.
    pub fn decode_state(
        &mut self,
        r: &mut capes_persist::Reader<'_>,
    ) -> Result<(), capes_persist::PersistError> {
        let last_applied_tick = Option::<u64>::decode(r)?;
        let last_values = Option::<Vec<f64>>::decode(r)?;
        let stats = ControlStats::decode(r)?;
        self.last_applied_tick = last_applied_tick;
        self.last_values = last_values;
        self.stats = stats;
        Ok(())
    }
}

impl Persist for ControlStats {
    const MIN_SIZE: usize = 3 * 8;

    fn encode(&self, w: &mut capes_persist::Writer) {
        w.put_u64(self.received);
        w.put_u64(self.applied);
        w.put_u64(self.ignored_stale);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        Ok(ControlStats {
            received: r.get_u64()?,
            applied: r.get_u64()?,
            ignored_stale: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn action(tick: u64, values: &[f64]) -> ActionMessage {
        ActionMessage {
            tick,
            action_index: 0,
            parameter_values: values.to_vec(),
        }
    }

    #[test]
    fn applies_new_parameter_values() {
        let mut agent = ControlAgent::default();
        assert_eq!(
            agent.handle(action(1, &[8.0, 2000.0])),
            Some(&[8.0, 2000.0][..])
        );
        assert_eq!(
            agent.handle(action(2, &[10.0, 2000.0])),
            Some(&[10.0, 2000.0][..])
        );
        assert_eq!(agent.last_values.as_deref(), Some(&[10.0, 2000.0][..]));
        assert_eq!(agent.stats().applied, 2);
    }

    #[test]
    fn identical_values_are_not_reapplied() {
        let mut agent = ControlAgent::default();
        assert!(agent.handle(action(1, &[8.0])).is_some());
        assert!(
            agent.handle(action(2, &[8.0])).is_none(),
            "same values → no syscall"
        );
        assert_eq!(agent.stats().received, 2);
        assert_eq!(agent.stats().applied, 1);
    }

    #[test]
    fn state_round_trip_preserves_dedup_and_stats() {
        let mut agent = ControlAgent::default();
        agent.handle(action(3, &[8.0, 2000.0]));
        agent.handle(action(5, &[8.0, 2000.0])); // deduplicated
        agent.handle(action(1, &[9.0])); // stale
        let mut w = capes_persist::Writer::new();
        agent.encode_state(&mut w);
        let mut restored = ControlAgent::default();
        let bytes = w.into_vec();
        let mut r = capes_persist::Reader::new(&bytes);
        restored.decode_state(&mut r).expect("state decodes");
        r.finish().expect("nothing trails");
        assert_eq!(restored.stats(), agent.stats());
        assert_eq!(restored.last_values.as_deref(), Some(&[8.0, 2000.0][..]));
        // The restored dedup cache suppresses the re-proposal the original
        // would have suppressed, and still drops stale ticks.
        assert!(restored.handle(action(6, &[8.0, 2000.0])).is_none());
        assert!(restored.handle(action(2, &[1.0])).is_none());
        assert_eq!(restored.stats().applied, agent.stats().applied);
        assert_eq!(restored.stats().ignored_stale, 2);
    }

    #[test]
    fn stale_messages_are_ignored() {
        let mut agent = ControlAgent::default();
        assert!(agent.handle(action(10, &[8.0])).is_some());
        assert!(
            agent.handle(action(5, &[16.0])).is_none(),
            "older tick must be dropped"
        );
        assert_eq!(agent.stats().ignored_stale, 1);
        assert_eq!(agent.last_values.as_deref(), Some(&[8.0][..]));
    }
}
