//! Length-prefixed stream framing with incremental reassembly.
//!
//! A TCP stream delivers bytes, not messages: one `read` may return half a
//! frame, three frames, or a frame and a half. The [`FrameReassembler`] turns
//! that byte soup back into whole frames without ever trusting the peer —
//! the length prefix is validated against a hard cap *before* any allocation,
//! so a hostile 4-byte header cannot make the server reserve gigabytes.
//!
//! ```text
//! stream := frame*
//! frame  := u32_be(len) payload[len]
//! ```
//!
//! The payload buffer is reused across frames, so a long-lived connection
//! settles at one allocation of at most `max_frame_len` bytes.

use std::ops::ControlFlow;

/// Bytes of length prefix in front of every frame.
pub const LENGTH_PREFIX_BYTES: usize = 4;

/// Default cap on a single frame's payload (1 MiB). A full 1024-node PI
/// report is under 10 KiB, so this leaves two orders of magnitude of slack
/// while still bounding what a corrupt prefix can demand.
pub const DEFAULT_MAX_FRAME_LEN: usize = 1 << 20;

/// Errors from frame reassembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramingError {
    /// A length prefix exceeded the configured cap. Raised before any
    /// allocation, so oversized claims cost nothing.
    Oversized {
        /// The length the prefix claimed.
        len: usize,
        /// The configured cap it exceeded.
        max: usize,
    },
}

impl std::fmt::Display for FramingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FramingError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
        }
    }
}

impl std::error::Error for FramingError {}

/// Appends `payload` to `out` as one length-prefixed frame.
pub fn encode_frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    assert!(
        payload.len() <= u32::MAX as usize,
        "frame payload exceeds u32 length prefix"
    );
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
}

/// Incremental reassembly of length-prefixed frames from arbitrary chunks.
pub struct FrameReassembler {
    max_frame_len: usize,
    header: [u8; LENGTH_PREFIX_BYTES],
    header_filled: usize,
    payload: Vec<u8>,
    expecting: Option<usize>,
}

impl FrameReassembler {
    /// A reassembler that rejects any frame longer than `max_frame_len`.
    pub fn new(max_frame_len: usize) -> Self {
        FrameReassembler {
            max_frame_len,
            header: [0; LENGTH_PREFIX_BYTES],
            header_filled: 0,
            payload: Vec::new(),
            expecting: None,
        }
    }

    /// Bytes currently held for a frame still in flight. The payload buffer
    /// itself is retained across frames (it is reused), but its bytes only
    /// count while a frame is incomplete.
    // capes-check: allow(dead-pub) -- the frame-cap bound of tests/reassembly_props.rs
    pub fn buffered(&self) -> usize {
        let mid_payload = if self.expecting.is_some() {
            self.payload.len()
        } else {
            0
        };
        self.header_filled + mid_payload
    }

    /// Feeds one chunk of stream bytes, invoking `sink` once per completed
    /// frame. `sink` may return [`ControlFlow::Break`] to stop consuming
    /// (the rest of `chunk` is dropped — used when shedding a connection).
    /// Returns the number of frames completed from this chunk.
    ///
    /// # Errors
    /// [`FramingError::Oversized`] the moment a length prefix exceeds the
    /// cap; the reassembler is poisoned-in-place and the connection should
    /// be closed (resynchronising inside a byte stream is not possible).
    pub fn push<F>(&mut self, mut chunk: &[u8], mut sink: F) -> Result<usize, FramingError>
    where
        F: FnMut(&[u8]) -> ControlFlow<()>,
    {
        let mut frames = 0usize;
        while !chunk.is_empty() {
            match self.expecting {
                None => {
                    let need = LENGTH_PREFIX_BYTES - self.header_filled;
                    let take = need.min(chunk.len());
                    // In bounds: `take <= chunk.len()` and
                    // `header_filled + take <= LENGTH_PREFIX_BYTES` by
                    // construction of `need`.
                    self.header[self.header_filled..self.header_filled + take]
                        .copy_from_slice(&chunk[..take]); // In bounds: see above.
                    self.header_filled += take;
                    // In bounds: `take <= chunk.len()`.
                    chunk = &chunk[take..];
                    if self.header_filled == LENGTH_PREFIX_BYTES {
                        let len = u32::from_be_bytes(self.header) as usize;
                        if len > self.max_frame_len {
                            return Err(FramingError::Oversized {
                                len,
                                max: self.max_frame_len,
                            });
                        }
                        self.header_filled = 0;
                        self.payload.clear();
                        // Validated against the cap above, so this reserve is
                        // bounded by max_frame_len no matter what the peer sent.
                        self.payload.reserve(len);
                        if len == 0 {
                            // Zero-length frames complete without a payload
                            // byte ever arriving.
                            frames += 1;
                            if sink(&[]).is_break() {
                                return Ok(frames);
                            }
                        } else {
                            self.expecting = Some(len);
                        }
                    }
                }
                Some(len) => {
                    let need = len - self.payload.len();
                    let take = need.min(chunk.len());
                    // In bounds: `take <= chunk.len()` by construction.
                    self.payload.extend_from_slice(&chunk[..take]);
                    // In bounds: `take <= chunk.len()`.
                    chunk = &chunk[take..];
                    if self.payload.len() == len {
                        self.expecting = None;
                        frames += 1;
                        if sink(&self.payload).is_break() {
                            return Ok(frames);
                        }
                    }
                }
            }
        }
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(r: &mut FrameReassembler, chunk: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        r.push(chunk, |f| {
            out.push(f.to_vec());
            ControlFlow::Continue(())
        })
        .unwrap();
        out
    }

    #[test]
    fn whole_frames_pass_through() {
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, b"alpha");
        encode_frame_into(&mut buf, b"");
        encode_frame_into(&mut buf, b"bravo");
        let mut r = FrameReassembler::new(64);
        assert_eq!(
            collect(&mut r, &buf),
            vec![b"alpha".to_vec(), vec![], b"bravo".to_vec()]
        );
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn single_byte_dribble_reassembles() {
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, b"slow loris");
        let mut r = FrameReassembler::new(64);
        let mut out = Vec::new();
        for b in &buf {
            r.push(std::slice::from_ref(b), |f| {
                out.push(f.to_vec());
                ControlFlow::Continue(())
            })
            .unwrap();
        }
        assert_eq!(out, vec![b"slow loris".to_vec()]);
    }

    #[test]
    fn oversized_prefix_errors_before_allocating() {
        let mut r = FrameReassembler::new(1024);
        let bad = u32::MAX.to_be_bytes();
        let err = r.push(&bad, |_| ControlFlow::Continue(())).unwrap_err();
        assert_eq!(
            err,
            FramingError::Oversized {
                len: u32::MAX as usize,
                max: 1024
            }
        );
        // The payload buffer never grew toward the claimed 4 GiB.
        assert!(r.payload.capacity() <= 1024);
    }

    #[test]
    fn break_from_sink_stops_mid_chunk() {
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, b"one");
        encode_frame_into(&mut buf, b"two");
        let mut r = FrameReassembler::new(64);
        let mut seen = 0;
        let frames = r
            .push(&buf, |_| {
                seen += 1;
                ControlFlow::Break(())
            })
            .unwrap();
        assert_eq!((frames, seen), (1, 1));
    }
}
