//! Record types stored in (or produced from) the Replay Database.

use capes_tensor::Matrix;

/// Identifier of a monitored node (client) in the target system.
pub type NodeId = usize;

/// A sampling / action tick. The paper uses one-second ticks, so a tick count
/// is also a duration in seconds.
pub type Tick = u64;

/// An observation as defined in paper §3.4: the performance indicators of all
/// nodes over the last `S` sampling ticks, flattened into a single row vector
/// suitable for feeding the Q-network.
///
/// The paper constructs the observation at time `t` as an `S × N` matrix of
/// per-node values; with `P` performance indicators per node the reproduction
/// uses an `S × (N · P)` matrix, flattened row-major (oldest tick first).
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// The tick this observation describes (the last tick included in it).
    pub tick: Tick,
    /// Flattened `1 × (S · N · P)` feature vector.
    pub features: Matrix,
}

impl Observation {
    /// Number of scalar features in the observation (the paper's evaluation
    /// reports 1 760 for its 5-client setup — Table 2, "observation size").
    pub fn size(&self) -> usize {
        self.features.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_size() {
        let o = Observation {
            tick: 5,
            features: Matrix::zeros(1, 30),
        };
        assert_eq!(o.size(), 30);
    }
}
