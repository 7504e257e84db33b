//! Per-connection ingest state, decoupled from any socket.
//!
//! [`ConnState`] owns the byte→message half of a connection: a
//! [`FrameReassembler`] feeding each completed frame through the hardened
//! cluster-envelope decoder ([`capes_agents::wire::decode_cluster_frame`],
//! which reports every fault as a typed [`PersistError`]) and checking the
//! frame's cluster id against the fleet size. Keeping it socket-free means
//! the partial-read and corruption property tests can drive it with raw
//! byte chunks, exactly as the reactor does.

use std::ops::ControlFlow;

use capes_agents::wire::decode_cluster_frame;
use capes_agents::Message;
use capes_persist::PersistError;

use crate::framing::{FrameReassembler, FramingError};

/// Why a connection's ingest stream was rejected.
#[derive(Debug)]
// capes-check: allow(dead-pub) -- the reassembly properties of tests/reassembly_props.rs
pub enum ConnError {
    /// The byte stream violated framing (only oversized prefixes can).
    Framing(FramingError),
    /// A complete frame failed the envelope or message decoder.
    Wire(PersistError),
    /// A well-formed frame named a cluster outside the configured range.
    UnknownCluster {
        /// The cluster id the frame carried.
        cluster: u32,
        /// The exclusive upper bound on valid ids.
        num_clusters: usize,
    },
}

impl std::fmt::Display for ConnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnError::Framing(e) => write!(f, "framing violation: {e}"),
            ConnError::Wire(e) => write!(f, "frame decode failed: {e}"),
            ConnError::UnknownCluster {
                cluster,
                num_clusters,
            } => write!(
                f,
                "frame addressed to cluster {cluster}, server owns {num_clusters}"
            ),
        }
    }
}

impl std::error::Error for ConnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConnError::Framing(e) => Some(e),
            ConnError::Wire(e) => Some(e),
            ConnError::UnknownCluster { .. } => None,
        }
    }
}

impl From<FramingError> for ConnError {
    fn from(e: FramingError) -> Self {
        ConnError::Framing(e)
    }
}

/// Byte-stream → decoded-message state for one connection.
// capes-check: allow(dead-pub) -- the reassembly properties of tests/reassembly_props.rs
pub struct ConnState {
    reassembler: FrameReassembler,
}

impl ConnState {
    /// Fresh state with the given per-frame cap.
    pub fn new(max_frame_len: usize) -> Self {
        ConnState {
            reassembler: FrameReassembler::new(max_frame_len),
        }
    }

    /// Feeds one raw chunk. Every frame that completes is decoded as a
    /// cluster-enveloped message and handed to `sink(cluster, message)`.
    /// When `num_clusters` is set, frames naming a cluster at or beyond it
    /// are rejected. Returns the number of messages delivered from this
    /// chunk.
    ///
    /// # Errors
    /// The first framing/decode/routing failure aborts the chunk; the
    /// connection is unrecoverable after an error (a byte stream cannot be
    /// resynchronised) and should be closed.
    pub fn ingest<F>(
        &mut self,
        chunk: &[u8],
        num_clusters: Option<usize>,
        mut sink: F,
    ) -> Result<usize, ConnError>
    where
        F: FnMut(u32, Message),
    {
        let reassembler = &mut self.reassembler;
        let mut delivered = 0usize;
        let mut failure: Option<ConnError> = None;
        reassembler.push(chunk, |frame| match decode_cluster_frame(frame) {
            Ok((cluster, message)) => {
                if let Some(n) = num_clusters {
                    if cluster as usize >= n {
                        failure = Some(ConnError::UnknownCluster {
                            cluster,
                            num_clusters: n,
                        });
                        return ControlFlow::Break(());
                    }
                }
                delivered += 1;
                sink(cluster, message);
                ControlFlow::Continue(())
            }
            Err(e) => {
                failure = Some(ConnError::Wire(e));
                ControlFlow::Break(())
            }
        })?;
        match failure {
            Some(e) => Err(e),
            None => Ok(delivered),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capes_agents::message::ActionMessage;
    use capes_agents::wire::encode_cluster_frame;

    fn framed(cluster: u32, tick: u64) -> Vec<u8> {
        let inner = encode_cluster_frame(
            cluster,
            &Message::Action(ActionMessage {
                tick,
                action_index: 1,
                parameter_values: vec![4.0],
            }),
        );
        let mut out = Vec::new();
        crate::framing::encode_frame_into(&mut out, &inner);
        out
    }

    #[test]
    fn decodes_across_chunk_boundaries() {
        let mut buf = framed(0, 1);
        buf.extend_from_slice(&framed(1, 2));
        let mut state = ConnState::new(1024);
        let mut seen = Vec::new();
        // Split in the middle of the second frame's envelope.
        let cut = framed(0, 1).len() + 3;
        state
            .ingest(&buf[..cut], Some(2), |c, m| seen.push((c, m)))
            .unwrap();
        state
            .ingest(&buf[cut..], Some(2), |c, m| seen.push((c, m)))
            .unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!((seen[0].0, seen[1].0), (0, 1));
    }

    #[test]
    fn out_of_range_cluster_is_rejected_with_context() {
        let buf = framed(9, 1);
        let mut state = ConnState::new(1024);
        let err = state.ingest(&buf, Some(4), |_, _| {}).unwrap_err();
        assert!(matches!(
            err,
            ConnError::UnknownCluster {
                cluster: 9,
                num_clusters: 4
            }
        ));
    }

    #[test]
    fn garbage_payload_reports_wire_error_not_panic() {
        let mut buf = Vec::new();
        crate::framing::encode_frame_into(&mut buf, &[0xAB, 0xCD, 0xEF]);
        let mut state = ConnState::new(1024);
        assert!(matches!(
            state.ingest(&buf, None, |_, _| {}),
            Err(ConnError::Wire(_))
        ));
    }
}
