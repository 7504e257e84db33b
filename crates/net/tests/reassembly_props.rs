//! Property tests: socket frame reassembly is transparent.
//!
//! Whatever way the kernel slices a TCP stream into `read` chunks — every
//! byte boundary, random fragment sizes, interleaved across connections —
//! the messages coming out of [`ConnState`] must be exactly the messages
//! that whole-buffer decoding would produce. And the PR 5 corruption suite
//! (flipped bytes, huge length prefixes, overflowing counts) must stay
//! panic-free and allocation-bounded when it arrives one fragment at a time.

use capes_agents::message::{ActionMessage, Message, PiReport};
use capes_agents::wire::{decode_cluster_frame, encode_cluster_frame};
use capes_net::{encode_frame_into, ConnState, FrameReassembler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;

/// A random message of any protocol type (mirrors the fleet wire suite).
fn random_message(rng: &mut StdRng) -> Message {
    match rng.gen_range(0..3u32) {
        0 => {
            let total_pis = rng.gen_range(1..50usize);
            let changed_count = rng.gen_range(0..=total_pis);
            Message::Report(PiReport {
                tick: rng.gen_range(0..u32::MAX as u64),
                node: rng.gen_range(0..16),
                total_pis,
                changed: (0..changed_count)
                    .map(|i| (i as u16, rng.gen_range(-1e3..1e3)))
                    .collect(),
            })
        }
        1 => Message::Objective {
            tick: rng.gen_range(0..u32::MAX as u64),
            node: rng.gen_range(0..16),
            value: rng.gen_range(-1e6..1e6),
        },
        _ => Message::Action(ActionMessage {
            tick: rng.gen_range(0..u32::MAX as u64),
            action_index: rng.gen_range(0..64),
            parameter_values: (0..rng.gen_range(0..5usize))
                .map(|_| rng.gen_range(-1e4..1e4))
                .collect(),
        }),
    }
}

/// Length-prefixes a batch of cluster-enveloped messages into one stream,
/// returning the stream and the whole-buffer decodes it should produce.
fn framed_stream(rng: &mut StdRng, clusters: u32, count: usize) -> (Vec<u8>, Vec<(u32, Message)>) {
    let mut stream = Vec::new();
    let mut expected = Vec::new();
    for _ in 0..count {
        let cluster = rng.gen_range(0..clusters);
        let message = random_message(rng);
        let frame = encode_cluster_frame(cluster, &message);
        // The reference decode is the *whole-buffer* path: what the fleet's
        // wire transport sees, with no socket in between.
        let reference = decode_cluster_frame(&frame).expect("clean frame decodes");
        encode_frame_into(&mut stream, &frame);
        expected.push(reference);
    }
    (stream, expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Splitting the stream at EVERY byte boundary yields the same decoded
    /// messages as whole-buffer decoding. (Quadratic in stream length, so
    /// the batch is kept small; the random-chunking test covers scale.)
    #[test]
    fn every_split_point_reassembles_identically(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (stream, expected) = framed_stream(&mut rng, 4, 3);
        for cut in 0..=stream.len() {
            let mut state = ConnState::new(1 << 20);
            let mut got = Vec::new();
            state
                .ingest(&stream[..cut], Some(4), |c, m| got.push((c, m)))
                .expect("clean prefix");
            state
                .ingest(&stream[cut..], Some(4), |c, m| got.push((c, m)))
                .expect("clean suffix");
            prop_assert_eq!(&got, &expected, "split at byte {} diverged", cut);
        }
    }

    /// Random fragment sizes (including empty and one-byte reads) across a
    /// larger batch reassemble to the whole-buffer decode.
    #[test]
    fn random_chunking_reassembles_identically(
        seed in any::<u64>(),
        count in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (stream, expected) = framed_stream(&mut rng, 8, count);
        let mut state = ConnState::new(1 << 20);
        let mut got = Vec::new();
        let mut offset = 0;
        while offset < stream.len() {
            let take = rng.gen_range(0..=64usize).min(stream.len() - offset);
            state
                .ingest(&stream[offset..offset + take], Some(8), |c, m| got.push((c, m)))
                .expect("clean stream");
            offset += take;
        }
        prop_assert_eq!(got, expected);
    }

    /// Frames interleaved across several connections: each connection's
    /// stream is chunked independently and fed in round-robin, and each must
    /// produce exactly its own whole-buffer decode, in order.
    #[test]
    fn interleaved_connections_do_not_cross_contaminate(
        seed in any::<u64>(),
        num_conns in 2usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let per_conn: Vec<_> = (0..num_conns)
            .map(|_| {
                let count = rng.gen_range(1..12usize);
                framed_stream(&mut rng, 4, count)
            })
            .collect();
        let mut states: Vec<_> = (0..num_conns).map(|_| ConnState::new(1 << 20)).collect();
        let mut got: Vec<Vec<(u32, Message)>> = vec![Vec::new(); num_conns];
        let mut offsets = vec![0usize; num_conns];
        // Round-robin until every stream is drained, random chunk per turn.
        loop {
            let mut progressed = false;
            for i in 0..num_conns {
                let stream = &per_conn[i].0;
                if offsets[i] >= stream.len() {
                    continue;
                }
                progressed = true;
                let take = rng.gen_range(1..=32usize).min(stream.len() - offsets[i]);
                let sink = &mut got[i];
                states[i]
                    .ingest(&stream[offsets[i]..offsets[i] + take], Some(4), |c, m| {
                        sink.push((c, m))
                    })
                    .expect("clean stream");
                offsets[i] += take;
            }
            if !progressed {
                break;
            }
        }
        for i in 0..num_conns {
            prop_assert_eq!(&got[i], &per_conn[i].1, "connection {} diverged", i);
        }
    }

    /// The corruption suite, one fragment at a time: random byte flips
    /// anywhere in a framed stream must never panic, never deliver to an
    /// out-of-range cluster, and never buffer beyond the frame cap. After
    /// the first error the connection is dead — exactly the server's
    /// close-on-protocol-error behaviour.
    #[test]
    fn flipped_bytes_through_fragments_never_panic_or_overbuffer(
        seed in any::<u64>(),
        flips in prop::collection::vec((any::<u32>(), any::<u32>()), 4),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut stream, _) = framed_stream(&mut rng, 4, 3);
        let len = stream.len();
        for &(pos, xor) in &flips {
            stream[pos as usize % len] ^= (xor & 0xff) as u8;
        }
        const CAP: usize = 1 << 16;
        let mut state = ConnState::new(CAP);
        // The framing layer a connection runs, fed the same chunks.
        let mut framing = FrameReassembler::new(CAP);
        let mut offset = 0;
        let mut dead = false;
        while offset < len && !dead {
            let take = rng.gen_range(1..=7usize).min(len - offset);
            let chunk = &stream[offset..offset + take];
            let result = state.ingest(chunk, Some(4), |c, _| {
                // Deliveries that happen before corruption bites must still
                // be range-checked.
                assert!(c < 4, "delivered to out-of-range cluster");
            });
            dead = result.is_err();
            let _ = framing.push(chunk, |_| ControlFlow::Continue(()));
            offset += take;
            prop_assert!(framing.buffered() <= CAP + 4, "buffered past the frame cap");
        }
    }

    /// Hostile length prefixes arriving byte-by-byte: the reassembler must
    /// reject the length the moment the 4th header byte lands, without
    /// having allocated anything toward the claimed size.
    #[test]
    fn huge_length_prefix_in_fragments_errors_before_allocating(claimed in 1u64<<21..1u64<<32) {
        const CAP: usize = 1 << 20;
        let mut r = FrameReassembler::new(CAP);
        let prefix = (claimed as u32).to_be_bytes();
        let mut result = Ok(0);
        for b in prefix {
            result = r.push(&[b], |_| ControlFlow::Continue(()));
            if result.is_err() {
                break;
            }
        }
        prop_assert!(result.is_err(), "oversized prefix accepted");
        prop_assert!(r.buffered() <= 4);
    }
}

/// The PR 5 "huge inner count" frame — a report claiming `u64::MAX` changed
/// entries — fed through socket reassembly one byte at a time: the framing
/// layer passes it (its outer length is honest) and the wire decoder rejects
/// it before sizing any allocation, as a clean `ConnError::Wire`.
#[test]
fn huge_inner_count_through_reassembly_is_a_clean_wire_error() {
    let mut inner = capes_persist::Writer::new();
    inner.put_u8(0xF7); // fleet envelope tag
    inner.put_varint(3); // cluster id
    inner.put_u8(0x01); // inner TAG_REPORT
    inner.put_varint(9); // tick
    inner.put_varint(0); // node
    inner.put_varint(44); // total_pis
    inner.put_varint(u64::MAX); // corrupt count
    let mut stream = Vec::new();
    encode_frame_into(&mut stream, &inner.into_vec());

    let mut state = ConnState::new(1 << 20);
    let mut outcome = Ok(0);
    for b in &stream {
        outcome = state.ingest(std::slice::from_ref(b), Some(8), |_, _| {
            panic!("corrupt frame must not deliver")
        });
        if outcome.is_err() {
            break;
        }
    }
    assert!(
        matches!(outcome, Err(capes_net::ConnError::Wire(_))),
        "expected a wire error, got {outcome:?}"
    );
}
