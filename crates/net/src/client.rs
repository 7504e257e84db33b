//! Blocking client-side frame I/O.
//!
//! The fleet's loopback clients are simple blocking writers: they already
//! pace themselves on the tick schedule, so async machinery on the client
//! side would buy nothing. These helpers put the
//! length prefix on outbound frames and strip it from inbound ones, with the
//! same pre-allocation length check the server enforces.

use std::io::{self, Read, Write};

use crate::framing::{encode_frame_into, LENGTH_PREFIX_BYTES};

/// Writes `payload` to `w` as one length-prefixed frame.
///
/// Prefix and payload are coalesced and handed to the writer together: on a
/// `TCP_NODELAY` stream every `write` is its own syscall and its own
/// segment, so a frame written as prefix-then-payload costs the peer two
/// wake-ups. A caller with several frames ready should go one step further
/// and batch them — [`encode_frame_into`] a reused buffer, then one
/// `write_all`.
///
/// # Errors
/// Any I/O error from the underlying writer.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(LENGTH_PREFIX_BYTES + payload.len());
    encode_frame_into(&mut frame, payload);
    w.write_all(&frame)
}

/// Reads one length-prefixed frame from `r` into `buf` (cleared first).
///
/// # Errors
/// `InvalidData` if the prefix exceeds `max_frame_len` (checked before any
/// allocation); otherwise any I/O error, including `UnexpectedEof` on a
/// stream that ends mid-frame.
pub fn read_frame<R: Read>(r: &mut R, max_frame_len: usize, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut prefix = [0u8; LENGTH_PREFIX_BYTES];
    r.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len > max_frame_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {max_frame_len}"),
        ));
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_a_cursor() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"ping").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cursor = &wire[..];
        let mut buf = Vec::new();
        read_frame(&mut cursor, 64, &mut buf).unwrap();
        assert_eq!(buf, b"ping");
        read_frame(&mut cursor, 64, &mut buf).unwrap();
        assert!(buf.is_empty());
    }

    /// Accepts everything it is given and counts the `write` calls, the way
    /// a `TCP_NODELAY` stream counts segments.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_reaches_the_writer_in_a_single_write() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, b"ping").unwrap();
        assert_eq!(w.writes, 1, "prefix and payload must not be split");
        write_frame(&mut w, &[]).unwrap();
        write_frame(&mut w, &[7u8; 70_000]).unwrap();
        assert_eq!(w.writes, 3);

        let mut cursor = &w.bytes[..];
        let mut buf = Vec::new();
        for expected in [&b"ping"[..], &[], &[7u8; 70_000]] {
            read_frame(&mut cursor, 1 << 20, &mut buf).unwrap();
            assert_eq!(buf, expected);
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn oversized_inbound_prefix_is_invalid_data() {
        let wire = u32::MAX.to_be_bytes();
        let mut cursor = &wire[..];
        let mut buf = Vec::new();
        let err = read_frame(&mut cursor, 1024, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(buf.capacity() < 1024 * 1024);
    }
}
