//! Property tests: interleaved multi-cluster wire traffic round-trips and
//! demultiplexes correctly.
//!
//! A fleet bus carries frames from many clusters in arbitrary interleavings.
//! For random message mixes (differential PI reports, objectives, actions,
//! workload changes) across random cluster counts, every fleet-enveloped
//! frame must decode to its original cluster id and payload (modulo the
//! protocol's documented f32 precision for PI values), and demultiplexing
//! on the decoded cluster id must hand each message to exactly the right
//! cluster in arrival order.

use capes_agents::message::{ActionMessage, Message, PiReport};
use capes_fleet::{decode_cluster_frame, encode_cluster_frame};
use capes_persist::PersistError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random message of any protocol type, addressed from/to `cluster`.
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

/// Equality modulo the wire protocol's f32 precision for PI report values.
fn assert_wire_equal(sent: &Message, received: &Message) {
    match (sent, received) {
        (Message::Report(a), Message::Report(b)) => {
            assert_eq!(a.tick, b.tick);
            assert_eq!(a.node, b.node);
            assert_eq!(a.total_pis, b.total_pis);
            assert_eq!(a.changed.len(), b.changed.len());
            for ((ia, va), (ib, vb)) in a.changed.iter().zip(b.changed.iter()) {
                assert_eq!(ia, ib);
                assert_eq!(*vb, *va as f32 as f64, "values travel as f32");
            }
        }
        _ => assert_eq!(sent, received),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interleaved_fleet_frames_round_trip_and_demux(
        seed in any::<u64>(),
        num_clusters in 1usize..12,
        num_messages in 1usize..120,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Random interleaving: each message picks its cluster independently.
        let traffic: Vec<(usize, Message)> = (0..num_messages)
            .map(|_| (rng.gen_range(0..num_clusters), random_message(&mut rng)))
            .collect();
        let frames: Vec<_> = traffic
            .iter()
            .map(|(cluster, message)| encode_cluster_frame(*cluster as u32, message))
            .collect();

        // Round trip: every frame decodes to its cluster and payload.
        for ((cluster, message), frame) in traffic.iter().zip(&frames) {
            let (decoded_cluster, decoded) = decode_cluster_frame(frame).expect("decodes");
            prop_assert_eq!(decoded_cluster as usize, *cluster);
            assert_wire_equal(message, &decoded);
        }

        // Demux: the decoded cluster ids deliver per-cluster subsequences in
        // order.
        let mut delivered: Vec<Vec<Message>> = vec![Vec::new(); num_clusters];
        for frame in &frames {
            let (cluster, message) = decode_cluster_frame(frame).expect("decodes");
            delivered[cluster as usize].push(message);
        }
        prop_assert_eq!(delivered.iter().map(Vec::len).sum::<usize>(), num_messages);
        let mut expected: Vec<Vec<&Message>> = vec![Vec::new(); num_clusters];
        for (cluster, message) in &traffic {
            expected[*cluster].push(message);
        }
        for cluster in 0..num_clusters {
            prop_assert_eq!(delivered[cluster].len(), expected[cluster].len());
            for (got, sent) in delivered[cluster].iter().zip(&expected[cluster]) {
                assert_wire_equal(sent, got);
            }
        }
    }

    #[test]
    fn corrupted_envelopes_never_misroute(
        seed in any::<u64>(),
        cluster in 0u32..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = encode_cluster_frame(cluster, &random_message(&mut rng));
        // Truncations at every prefix length must error, never decode.
        for cut in 0..frame.len() {
            prop_assert!(decode_cluster_frame(&frame[..cut]).is_err());
        }
        // A flipped envelope tag is rejected.
        let mut bad = frame.to_vec();
        bad[0] ^= 0xff;
        prop_assert!(decode_cluster_frame(&bad).is_err());
    }

    /// Arbitrary byte corruption anywhere in a fleet frame must never panic
    /// or abort (e.g. by allocating from a corrupt length prefix): every
    /// outcome is a clean `Ok` (the corruption landed in a payload value or
    /// the cluster id) or a typed `PersistError`. Corruption behind the
    /// envelope never readdresses the frame.
    #[test]
    fn flipped_bytes_never_panic_or_readdress(
        seed in any::<u64>(),
        cluster in 0u32..8,
        flips in prop::collection::vec((any::<u32>(), any::<u32>()), 3),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = encode_cluster_frame(cluster, &random_message(&mut rng));
        let mut bad = frame.to_vec();
        let len = bad.len();
        for &(pos, xor) in &flips {
            bad[pos as usize % len] ^= (xor & 0xff) as u8;
        }
        let result = decode_cluster_frame(&bad);
        // Clusters below 128 make a two-byte envelope. A flipped cluster id
        // is the consumer's to reject (the socket server's `ConnState`
        // checks it against the fleet size).
        if bad[..2] == frame[..2] {
            if let Ok((decoded, _)) = result {
                prop_assert_eq!(decoded, cluster, "payload corruption readdressed");
            }
        }
    }
}

/// A fleet frame whose inner report claims a gigantic changed-entry count
/// must fail as a decode error before any allocation is sized from it — the
/// pre-hardening decoder passed the count straight to
/// `Vec::with_capacity`, an abort a single corrupt frame could trigger.
#[test]
fn huge_inner_count_is_a_clean_wire_error() {
    let mut w = capes_persist::Writer::new();
    w.put_u8(0xF7); // fleet envelope tag
    w.put_varint(3); // cluster id
    w.put_u8(0x01); // inner TAG_REPORT
    w.put_varint(9); // tick
    w.put_varint(0); // node
    w.put_varint(44); // total_pis
    w.put_varint(u64::MAX); // corrupt count
    assert!(
        matches!(
            decode_cluster_frame(&w.into_vec()),
            Err(PersistError::CountTooLarge { .. })
        ),
        "corrupt counts must be detected before allocation"
    );
}
