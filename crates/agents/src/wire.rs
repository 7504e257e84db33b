//! Compact binary wire format.
//!
//! The paper compresses all monitoring traffic and reports an average of
//! ≈186 bytes per client per second for 44 indicators (Table 2). The
//! reproduction's frame format reaches a similar density by combining the
//! differential encoding (only changed indicators are present) with
//! variable-length integers and 32-bit floats:
//!
//! ```text
//! frame   := tag(u8) payload
//! report  := varint(tick) varint(node) varint(total_pis) varint(count)
//!            { varint(index) f32(value) }*
//! objective := varint(tick) varint(node) f64(value)
//! action  := varint(tick) varint(action) varint(count) { f64(value) }*
//! fleet_frame := 0xF7 varint(cluster_id) frame
//! stream_frame := u32_be(len) fleet_frame
//! ```
//!
//! The single-cluster protocol has no notion of *which* cluster a frame
//! belongs to — the paper never needed one. Multi-cluster carriers (the fleet
//! daemon's wire transport, the socket server's ingest path) wrap every frame
//! in the `fleet_frame` envelope, whose tag is outside the message tags, so a
//! stray un-enveloped frame is rejected rather than mis-routed.
//!
//! Varints are LEB128 and floats are big-endian. [`PiReport`],
//! [`ActionMessage`] and [`Message`] implement [`Persist`] with exactly this
//! layout, so frames are written by `capes-persist`'s [`Writer`] and read by
//! its bounds-checked [`Reader`]. Every fault is a typed [`PersistError`]:
//!
//! - a frame that ends early: `UnexpectedEof`;
//! - a count the remaining bytes cannot hold (5 bytes per report entry, 8 per
//!   action value): `CountTooLarge`, raised before anything is allocated;
//! - an unknown tag, a varint that overflows 64 bits or is not in its
//!   minimal form, a PI index beyond 16 bits or a cluster id beyond 32:
//!   `BadValue`;
//! - bytes left over after a complete message: `TrailingBytes`.

use crate::message::{ActionMessage, Message, PiReport};
use capes_persist::{Persist, PersistError, Reader, Writer};

/// Leading byte of a report frame.
pub(crate) const TAG_REPORT: u8 = 0x01;
const TAG_OBJECTIVE: u8 = 0x02;
const TAG_ACTION: u8 = 0x03;
const FLEET_FRAME_TAG: u8 = 0xF7;

/// Initial buffer of an encoded frame; anything but a large report fits.
pub(crate) const FRAME_CAPACITY: usize = 64;

/// Bytes of the big-endian length prefix in front of every frame on a
/// stream (`capes_net`'s `LENGTH_PREFIX_BYTES`).
const STREAM_PREFIX_BYTES: usize = 4;

/// Reads a varint element count, rejecting one the remaining bytes cannot
/// hold at `min_size` bytes per element before the caller sizes anything
/// from it.
fn get_count(r: &mut Reader<'_>, min_size: usize) -> Result<usize, PersistError> {
    let count = r.get_varint()?;
    let max = (r.remaining() / min_size) as u64;
    if count > max {
        return Err(PersistError::CountTooLarge { count, max });
    }
    Ok(count as usize)
}

/// Reads the `N` raw bytes of a big-endian float.
fn get_be<const N: usize>(r: &mut Reader<'_>) -> Result<[u8; N], PersistError> {
    let mut bytes = [0; N];
    // In bounds: `take(N)` returned exactly `N` bytes.
    bytes.copy_from_slice(r.take(N)?);
    Ok(bytes)
}

impl Persist for PiReport {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.tick);
        w.put_varint(self.node as u64);
        w.put_varint(self.total_pis as u64);
        w.put_varint(self.changed.len() as u64);
        for &(index, value) in &self.changed {
            w.put_varint(index.into());
            w.put_raw(&(value as f32).to_be_bytes());
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let tick = r.get_varint()?;
        let node = r.get_varint()? as usize;
        let total_pis = r.get_varint()? as usize;
        // An entry is at least a one-byte index varint and an f32.
        let count = get_count(r, 5)?;
        let mut changed = Vec::with_capacity(count);
        for _ in 0..count {
            // A wider index must not be truncated onto another indicator.
            let index = u16::try_from(r.get_varint()?).map_err(|_| PersistError::BadValue {
                what: "pi index beyond 16 bits",
            })?;
            changed.push((index, f32::from_be_bytes(get_be(r)?) as f64));
        }
        Ok(PiReport {
            tick,
            node,
            total_pis,
            changed,
        })
    }
}

impl Persist for ActionMessage {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.tick);
        w.put_varint(self.action_index as u64);
        w.put_varint(self.parameter_values.len() as u64);
        for v in &self.parameter_values {
            w.put_raw(&v.to_be_bytes());
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let tick = r.get_varint()?;
        let action_index = r.get_varint()? as usize;
        let count = get_count(r, 8)?;
        let parameter_values = (0..count)
            .map(|_| Ok(f64::from_be_bytes(get_be(r)?)))
            .collect::<Result<_, PersistError>>()?;
        Ok(ActionMessage {
            tick,
            action_index,
            parameter_values,
        })
    }
}

impl Persist for Message {
    fn encode(&self, w: &mut Writer) {
        match self {
            Message::Report(report) => {
                w.put_u8(TAG_REPORT);
                report.encode(w);
            }
            Message::Objective { tick, node, value } => {
                w.put_u8(TAG_OBJECTIVE);
                w.put_varint(*tick);
                w.put_varint(*node as u64);
                w.put_raw(&value.to_be_bytes());
            }
            Message::Action(action) => {
                w.put_u8(TAG_ACTION);
                action.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            TAG_REPORT => PiReport::decode(r).map(Message::Report),
            TAG_OBJECTIVE => Ok(Message::Objective {
                tick: r.get_varint()?,
                node: r.get_varint()? as usize,
                value: f64::from_be_bytes(get_be(r)?),
            }),
            TAG_ACTION => ActionMessage::decode(r).map(Message::Action),
            _ => Err(PersistError::BadValue {
                what: "unknown message tag",
            }),
        }
    }
}

/// Encodes a message into its binary frame.
pub fn encode_message(message: &Message) -> Vec<u8> {
    let mut w = Writer::with_capacity(FRAME_CAPACITY);
    message.encode(&mut w);
    w.into_vec()
}

/// Decodes a binary frame that holds exactly one [`Message`].
pub fn decode_message(frame: &[u8]) -> Result<Message, PersistError> {
    let mut r = Reader::new(frame);
    let message = Message::decode(&mut r)?;
    r.finish()?;
    Ok(message)
}

/// Encodes `message` as a fleet frame addressed to/from `cluster`: envelope
/// and message go into one buffer.
pub fn encode_cluster_frame(cluster: u32, message: &Message) -> Vec<u8> {
    let mut w = Writer::with_capacity(FRAME_CAPACITY);
    put_cluster_frame(&mut w, cluster, message);
    w.into_vec()
}

/// Appends `message` to `out` as one stream frame: the `u32_be(len)` prefix
/// the socket transport puts in front of every frame, then exactly the bytes
/// [`encode_cluster_frame`] returns. The frame is encoded straight into
/// `out` and the prefix back-patched once its length is known, so a reused
/// buffer (the socket uplink's per-member batch) allocates nothing.
///
/// # Panics
/// If the frame exceeds `u32::MAX` bytes, which no length prefix can carry.
pub fn encode_cluster_frame_into(out: &mut Vec<u8>, cluster: u32, message: &Message) {
    let slot = out.len();
    let mut w = Writer::appending(std::mem::take(out));
    w.put_raw(&[0; STREAM_PREFIX_BYTES]);
    put_cluster_frame(&mut w, cluster, message);
    *out = w.into_vec();
    let len = out.len() - slot - STREAM_PREFIX_BYTES;
    assert!(
        len <= u32::MAX as usize,
        "frame payload exceeds u32 length prefix"
    );
    // In bounds: the prefix slot was appended at `slot` above, and the
    // writer only appended behind it.
    out[slot..slot + STREAM_PREFIX_BYTES].copy_from_slice(&(len as u32).to_be_bytes());
}

/// The `fleet_frame` envelope, then `message`.
fn put_cluster_frame(w: &mut Writer, cluster: u32, message: &Message) {
    w.put_u8(FLEET_FRAME_TAG);
    w.put_varint(cluster.into());
    message.encode(w);
}

/// Decodes a fleet frame that holds exactly one message back into its
/// cluster id and message.
pub fn decode_cluster_frame(frame: &[u8]) -> Result<(u32, Message), PersistError> {
    let mut r = Reader::new(frame);
    if r.get_u8()? != FLEET_FRAME_TAG {
        return Err(PersistError::BadValue {
            what: "frame tag is not the cluster envelope",
        });
    }
    let cluster = u32::try_from(r.get_varint()?).map_err(|_| PersistError::BadValue {
        what: "cluster id beyond 32 bits",
    })?;
    let message = Message::decode(&mut r)?;
    r.finish()?;
    Ok((cluster, message))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(changed: usize) -> Message {
        Message::Report(PiReport {
            tick: 123_456,
            node: 4,
            total_pis: 44,
            changed: (0..changed).map(|i| (i as u16, i as f64 * 1.5)).collect(),
        })
    }

    fn action(tick: u64) -> Message {
        Message::Action(ActionMessage {
            tick,
            action_index: 3,
            parameter_values: vec![12.0, 1500.0],
        })
    }

    /// One of every message kind; every value is exact in f32.
    fn messages() -> Vec<Message> {
        let objective = Message::Objective {
            tick: 7,
            node: 2,
            value: 350.25,
        };
        vec![report(44), report(0), objective, action(9)]
    }

    /// A frame of `tag` and `varints`, for crafting corrupt input.
    fn crafted(tag: u8, varints: &[u64]) -> Writer {
        let mut w = Writer::new();
        w.put_u8(tag);
        varints.iter().for_each(|&v| w.put_varint(v));
        w
    }

    #[test]
    fn round_trip_every_message_type() {
        for m in messages() {
            assert_eq!(decode_message(&encode_message(&m)).unwrap(), m);
        }
    }

    #[test]
    fn full_report_is_compact() {
        // A full 44-indicator report must land in the same ballpark as the
        // paper's measured ≈186 bytes per client per second.
        let len = encode_message(&report(44)).len();
        assert!((44 * 5..=280).contains(&len), "44-PI report is {len} bytes");
    }

    #[test]
    fn differential_reports_shrink_with_fewer_changes() {
        let full = encode_message(&report(44)).len();
        let sparse = encode_message(&report(5)).len();
        let empty = encode_message(&report(0)).len();
        assert!(sparse < full / 3);
        assert!(empty < 16);
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let encoded = encode_message(&report(10));
        for cut in [0usize, 1, 3, encoded.len() - 1] {
            let err = decode_message(&encoded[..cut]);
            assert!(err.is_err(), "cut at {cut} should fail");
        }
        let empty = decode_message(&[]).unwrap_err().to_string();
        assert!(empty.contains("end of input"), "{empty}");
    }

    #[test]
    fn unknown_tag_is_rejected() {
        // 0x04 was the retired workload-change message.
        for tag in [0x7f, 0x04] {
            let err = decode_message(&[tag, 0, 0]).unwrap_err();
            assert!(matches!(err, PersistError::BadValue { .. }), "{err}");
            assert!(err.to_string().contains("tag"));
        }
    }

    #[test]
    fn huge_counts_are_rejected_before_allocation() {
        // A corrupt count must fail fast, not attempt a giant Vec (which
        // would abort the process — a remote-triggerable crash).
        let report = crafted(TAG_REPORT, &[1, 1, 1, u64::MAX]);
        let action = crafted(TAG_ACTION, &[1, 0, u64::MAX / 2]);
        for frame in [report, action] {
            let err = decode_message(&frame.into_vec()).unwrap_err();
            assert!(matches!(err, PersistError::CountTooLarge { .. }), "{err}");
        }
    }

    #[test]
    fn oversized_pi_index_is_rejected() {
        // tick, node, total_pis, count, then an index out of range.
        let mut frame = crafted(TAG_REPORT, &[1, 0, 44, 1, u16::MAX as u64 + 7]);
        frame.put_raw(&1.5f32.to_be_bytes());
        let err = decode_message(&frame.into_vec()).unwrap_err();
        assert!(matches!(err, PersistError::BadValue { .. }), "{err}");
        assert!(err.to_string().contains("pi index"));
    }

    #[test]
    fn trailing_bytes_are_rejected_bare_and_enveloped() {
        // An appended byte (garbage, or a field from a newer sender) must
        // not be accepted silently and counted as received.
        for m in messages() {
            let mut bare = encode_message(&m);
            let mut enveloped = encode_cluster_frame(7, &m);
            bare.push(0);
            enveloped.push(0);
            for err in [
                decode_message(&bare).err(),
                decode_cluster_frame(&enveloped).err(),
            ] {
                let trailing = matches!(err, Some(PersistError::TrailingBytes { count: 1 }));
                assert!(trailing, "{m:?}: {err:?}");
            }
        }
    }

    #[test]
    fn cluster_frame_with_an_overflowing_tick_is_rejected() {
        // Shifting out its high bits would read the tick `[0xff; 9] ++ [0x7f]`
        // as u64::MAX.
        let frame = [
            &[FLEET_FRAME_TAG, 3, TAG_OBJECTIVE][..],
            &[0xff; 9],
            &[0x7f],
        ]
        .concat();
        let err = decode_cluster_frame(&frame).unwrap_err();
        assert!(matches!(err, PersistError::BadValue { .. }), "{err}");
    }

    /// One frame, one byte string: a varint padded with `0x80 … 0x00` would
    /// decode to the same message as its minimal form.
    #[test]
    fn overlong_varints_are_rejected_in_reports_and_envelopes() {
        let minimal = encode_message(&report(0));
        // The report's tick 123 456 is three varint bytes; the third is last.
        let tick = [0xc0, 0xc4, 0x87, 0x00];
        let overlong = [&[TAG_REPORT][..], &tick, &minimal[4..]].concat();
        assert_eq!(&minimal[1..3], &tick[..2]);
        let frames = [
            overlong,
            [&[FLEET_FRAME_TAG, 0x83, 0x00][..], &minimal].concat(),
            [&[FLEET_FRAME_TAG, 0x80, 0x00][..], &minimal].concat(),
        ];
        let errs = [
            decode_message(&frames[0]).unwrap_err(),
            decode_cluster_frame(&frames[1]).unwrap_err(),
            decode_cluster_frame(&frames[2]).unwrap_err(),
        ];
        for err in errs {
            let overlong = matches!(
                err,
                PersistError::BadValue {
                    what: "varint not minimally encoded"
                }
            );
            assert!(overlong, "{err}");
        }
        assert_eq!(
            decode_cluster_frame(&[&[FLEET_FRAME_TAG, 0x03][..], &minimal].concat()).unwrap(),
            (3, report(0))
        );
    }

    #[test]
    fn envelope_round_trips_every_cluster_id_width() {
        for cluster in [0u32, 1, 127, 128, 300, 65_535, u32::MAX] {
            let frame = encode_cluster_frame(cluster, &action(42));
            assert_eq!(decode_cluster_frame(&frame).unwrap(), (cluster, action(42)));
        }
    }

    #[test]
    fn stream_frames_append_prefix_and_envelope_bytes() {
        let mut out = b"earlier".to_vec();
        let mut expected = out.clone();
        for (cluster, message) in [(3u32, report(44)), (300, action(9)), (0, report(0))] {
            encode_cluster_frame_into(&mut out, cluster, &message);
            let frame = encode_cluster_frame(cluster, &message);
            expected.extend_from_slice(&(frame.len() as u32).to_be_bytes());
            expected.extend_from_slice(&frame);
        }
        assert_eq!(out, expected);
    }

    #[test]
    fn inner_frames_without_envelope_are_rejected_not_misrouted() {
        let err = decode_cluster_frame(&encode_message(&action(1))).unwrap_err();
        assert!(matches!(err, PersistError::BadValue { .. }), "{err}");
    }
}
