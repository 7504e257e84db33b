//! Message types exchanged between the agents and the Interface Daemon.
//! Their binary encoding is in [`crate::wire`].

/// A differential performance-indicator report from one Monitoring Agent.
///
/// Only indicators whose value changed since the previous sampling tick are
/// included ("a differential communication protocol designed to only send out
/// a performance indicator when its data is different from the value of the
/// previous sampling tick", §3.3).
#[derive(Debug, Clone, PartialEq)]
pub struct PiReport {
    /// Sampling tick the report describes.
    pub tick: u64,
    /// Reporting node (client) id.
    pub node: usize,
    /// Total number of indicators the node tracks (so the receiver can
    /// reconstruct the full vector).
    pub total_pis: usize,
    /// `(indicator index, new value)` pairs for the indicators that changed.
    pub changed: Vec<(u16, f64)>,
}

/// An action broadcast from the Interface Daemon to the Control Agents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActionMessage {
    /// Action tick the decision belongs to.
    pub tick: u64,
    /// Index of the action in the DRL engine's action space.
    pub action_index: usize,
    /// The full parameter vector the target system should now use. Sending
    /// absolute values (rather than deltas) makes application idempotent.
    pub parameter_values: Vec<f64>,
}

/// Everything that can travel between CAPES components.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Monitoring Agent → Interface Daemon.
    Report(PiReport),
    /// Monitoring Agent → Interface Daemon: the per-tick objective value
    /// (reward input) measured on the reporting node.
    Objective {
        /// Sampling tick.
        tick: u64,
        /// Reporting node.
        node: usize,
        /// Objective-function output (e.g. the node's throughput in MB/s).
        value: f64,
    },
    /// Interface Daemon → Control Agents.
    Action(ActionMessage),
}
