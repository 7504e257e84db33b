//! Socket-transport integration tests: a fleet whose member clusters
//! connect over real loopback TCP must be bit-identical to the same fleet on
//! the wire transport, and rogue/stalled connections must be counted and
//! shed without touching the members.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use capes::{Hyperparameters, Phase, PhaseKind, Transport};
use capes_fleet::{encode_cluster_frame, Fleet, FleetDaemon, FleetPlan, Replayer, ScenarioSpec};
use capes_simstore::Workload;

fn quick_hp() -> Hyperparameters {
    Hyperparameters {
        sampling_ticks_per_observation: 3,
        exploration_period_ticks: 300,
        adam_learning_rate: 2e-3,
        ..Hyperparameters::quick_test()
    }
}

fn build(transport: Transport) -> FleetDaemon {
    Fleet::builder()
        .hyperparams(quick_hp())
        .seed(23)
        .transport(transport)
        .scenarios([
            ScenarioSpec::new("write-heavy", Workload::random_rw(0.1)).clients(2),
            ScenarioSpec::new("read-heavy", Workload::random_rw(0.9)).clients(3),
        ])
        .build()
        .expect("valid fleet")
}

fn plan() -> FleetPlan {
    FleetPlan::new()
        .phase(Phase::Baseline { ticks: 8 })
        .phase(Phase::Train { ticks: 30 })
        .phase(Phase::Tuned {
            ticks: 8,
            label: "tuned".into(),
        })
}

#[test]
fn socket_fleet_is_bit_identical_to_wire_fleet() {
    let mut wire = build(Transport::Wire);
    let mut socket = build(Transport::Socket);
    // Tap the socket ingest path: the log is the list of frames the members
    // sent, which the byte accounting below is held against.
    let log = std::env::temp_dir().join(format!(
        "capes-fleet-socket-loopback-{}.log",
        std::process::id()
    ));
    socket.record_to(&log).expect("socket fleets record");
    let wire_report = wire.run(&plan());
    let socket_report = socket.run(&plan());
    let recorded = socket.stop_recording().expect("log flushes");

    // The deterministic sections — every cluster's full result series and
    // the arena occupancy — must match byte for byte. (Wall-clock fields
    // and the net section legitimately differ.)
    assert_eq!(
        serde_json::to_string(&wire_report.clusters).unwrap(),
        serde_json::to_string(&socket_report.clusters).unwrap(),
        "socket transport diverged from wire"
    );
    assert_eq!(
        serde_json::to_string(&wire_report.arena).unwrap(),
        serde_json::to_string(&socket_report.arena).unwrap(),
    );

    // The socket run really went over sockets…
    let net = socket_report.net.clone();
    assert!(net.enabled);
    assert_eq!(net.accepted, 2, "one connection per cluster");
    assert_eq!(net.active, 2);
    // Per tick: 2 messages per monitor, 2 + 3 monitors, 46 ticks.
    assert_eq!(net.frames_in, 2 * 5 * 46);
    // Every byte read is a length prefix or an enveloped frame, whatever
    // write pattern carried it: `wire_bytes_per_cluster_tick` cannot drift.
    assert_eq!(recorded, net.frames_in);
    let mut replayer = Replayer::open(&log).expect("log opens");
    let mut sent_bytes = 0u64;
    while let Some((_tick, cluster, message)) = replayer.next_message().expect("clean log") {
        let frame = encode_cluster_frame(cluster, &message);
        sent_bytes += (capes_net::LENGTH_PREFIX_BYTES + frame.len()) as u64;
    }
    std::fs::remove_file(&log).expect("remove log");
    assert_eq!(net.bytes_in, sent_bytes);
    // Actions go out on non-baseline ticks only.
    assert_eq!(net.frames_out, 2 * 38);
    assert!(net.bytes_in > 0 && net.bytes_out > 0);
    assert!(net.bytes_in_per_tick > 0.0);
    assert_eq!(net.shed_backpressure, 0);
    assert_eq!(net.decode_errors, 0);
    assert_eq!(net.reports_rejected, 0);
    // …and the wire run did not.
    assert!(!wire_report.net.enabled);
    assert_eq!(wire_report.net.frames_in, 0);

    // The full report (net section included) round-trips through JSON.
    let back = capes_fleet::FleetReport::from_json(&socket_report.to_json()).expect("round trip");
    assert_eq!(back.net, socket_report.net);
}

#[test]
fn rogue_connection_is_counted_and_does_not_disturb_the_fleet() {
    let mut fleet = build(Transport::Socket);
    let addr = fleet
        .socket_addr()
        .expect("socket transport has an address");

    // A few ticks of normal operation first.
    for _ in 0..5 {
        fleet.tick_all(PhaseKind::Train);
    }

    // A rogue monitoring console connects and sends a hostile length prefix.
    let mut rogue = TcpStream::connect(addr).expect("connect rogue");
    rogue.write_all(&u32::MAX.to_be_bytes()).unwrap();

    // The server sheds it as a decode error, while member ingest continues.
    let deadline = Instant::now() + Duration::from_secs(2);
    while fleet.net_report().decode_errors == 0 {
        assert!(Instant::now() < deadline, "rogue connection never shed");
        fleet.tick_all(PhaseKind::Train);
    }
    for _ in 0..5 {
        fleet.tick_all(PhaseKind::Train);
    }

    let net = fleet.net_report();
    assert_eq!(net.accepted, 3, "two members + one rogue");
    assert_eq!(net.active, 2, "only the members survive");
    assert_eq!(net.decode_errors, 1);
    // No member frame was lost: 2 per monitor (5 monitors) per tick.
    assert_eq!(net.frames_in, 2 * 5 * fleet.tick());
    assert_eq!(net.reports_rejected, 0);
}

#[test]
fn only_socket_fleets_expose_a_loopback_address() {
    assert!(build(Transport::Socket).socket_addr().is_some());
    assert!(build(Transport::Wire).socket_addr().is_none());
}
