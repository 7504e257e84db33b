//! Golden wire frames: the exact bytes of every message kind and of one
//! cluster-enveloped frame.
//!
//! The frame layout is a protocol, not an implementation detail: a member
//! built from one revision must talk to a daemon built from another, Table 2's
//! message sizes are measured on these bytes, and record logs store them.
//! Each literal below is the frame as the codec writes it today; a change to
//! the codec that moves a single byte fails here.

use capes_agents::{
    decode_cluster_frame, decode_message, encode_cluster_frame, encode_message, ActionMessage,
    Message, PiReport,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex literal"))
        .collect()
}

/// Three changed PIs, including the last Table 2 index (43) and a negative
/// value; every value is exact in f32, so the round trip is exact too.
fn report() -> Message {
    Message::Report(PiReport {
        tick: 300,
        node: 2,
        total_pis: 44,
        changed: vec![(0, 1.5), (7, -2.25), (43, 350.0)],
    })
}

fn objective() -> Message {
    Message::Objective {
        tick: 7,
        node: 2,
        value: 350.25,
    }
}

fn action() -> Message {
    Message::Action(ActionMessage {
        tick: 9,
        action_index: 3,
        parameter_values: vec![12.0, 1500.0],
    })
}

// tag 01, tick 300 (ac 02), node 2, total 44 (2c), count 3,
// then (index, f32 big-endian) × 3.
const REPORT: &str = "01ac02022c03003fc0000007c01000002b43af0000";
// tag 02, tick 7, node 2, f64 big-endian 350.25.
const OBJECTIVE: &str = "0207024075e40000000000";
// tag 03, tick 9, action 3, count 2, f64 big-endian 12.0 and 1500.0.
const ACTION: &str = "0309030240280000000000004097700000000000";
// tag 04, tick u64::MAX as a 10-byte varint: the retired workload-change
// message, which must no longer decode.
const WORKLOAD_CHANGE: &str = "04ffffffffffffffffff01";
// envelope tag f7, cluster 300 (ac 02), then the bare action frame.
const CLUSTER_300_ACTION: &str = "f7ac020309030240280000000000004097700000000000";

#[test]
fn every_message_kind_encodes_to_its_golden_bytes() {
    for (message, golden) in [
        (report(), REPORT),
        (objective(), OBJECTIVE),
        (action(), ACTION),
    ] {
        assert_eq!(hex(&encode_message(&message)), golden, "{message:?}");
    }
}

#[test]
fn every_golden_frame_decodes_to_its_message() {
    for (golden, message) in [
        (REPORT, report()),
        (OBJECTIVE, objective()),
        (ACTION, action()),
    ] {
        assert_eq!(decode_message(&unhex(golden)).unwrap(), message, "{golden}");
    }
    let retired = decode_message(&unhex(WORKLOAD_CHANGE)).unwrap_err();
    assert!(
        retired.to_string().contains("unknown message tag"),
        "{retired}"
    );
}

#[test]
fn cluster_frame_encodes_and_decodes_its_golden_bytes() {
    assert_eq!(
        hex(&encode_cluster_frame(300, &action())),
        CLUSTER_300_ACTION
    );
    assert_eq!(
        decode_cluster_frame(&unhex(CLUSTER_300_ACTION)).unwrap(),
        (300, action())
    );
}
