//! End-to-end exercises of the reactor server over real loopback sockets.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use capes_agents::message::{ActionMessage, PiReport};
use capes_agents::wire::encode_cluster_frame;
use capes_agents::Message;
use capes_net::{read_frame, write_frame, FleetServer, NetConfig, READ_CHUNK};

fn report(cluster: u32, tick: u64, node: usize) -> (Message, Vec<u8>) {
    let message = Message::Report(PiReport {
        tick,
        node,
        total_pis: 8,
        changed: vec![(0, 1.25), (3, -0.5), (7, 1024.0)],
    });
    let frame = encode_cluster_frame(cluster, &message).to_vec();
    (message, frame)
}

/// Waits until `cond` holds or panics after two seconds.
fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn frames_flow_client_to_ingress_and_back() {
    let (handle, ingress) =
        FleetServer::spawn("127.0.0.1:0", NetConfig::default()).expect("spawn server");
    let mut client = TcpStream::connect(handle.local_addr()).expect("connect");
    client.set_nodelay(true).unwrap();

    // Two frames in one write, a third split across two writes.
    let (m0, f0) = report(0, 1, 0);
    let (m1, f1) = report(0, 1, 1);
    let (m2, f2) = report(0, 2, 0);
    let mut buf = Vec::new();
    capes_net::encode_frame_into(&mut buf, &f0);
    capes_net::encode_frame_into(&mut buf, &f1);
    let mut third = Vec::new();
    capes_net::encode_frame_into(&mut third, &f2);
    client.write_all(&buf).unwrap();
    client.write_all(&third[..3]).unwrap();
    client.flush().unwrap();
    std::thread::sleep(Duration::from_millis(20));
    client.write_all(&third[3..]).unwrap();

    let mut got = Vec::new();
    for _ in 0..3 {
        got.push(ingress.recv_timeout_or_panic());
    }
    assert_eq!(got, vec![(0, m0), (0, m1), (0, m2)]);

    // Downlink: the server learned cluster 0 lives on this connection.
    let action = Message::Action(ActionMessage {
        tick: 2,
        action_index: 5,
        parameter_values: vec![16.0, 4000.0],
    });
    assert!(handle.send(0, &action));
    let mut frame = Vec::new();
    read_frame(&mut client, 1 << 20, &mut frame).unwrap();
    let (cluster, decoded) = capes_agents::wire::decode_cluster_frame(&frame).unwrap();
    assert_eq!((cluster, decoded), (0, action));

    let stats = handle.shutdown();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.frames_in, 3);
    assert_eq!(stats.frames_out, 1);
    assert_eq!(stats.decode_errors, 0);
}

#[test]
fn corrupt_frame_closes_only_the_guilty_connection() {
    let config = NetConfig {
        num_clusters: Some(2),
        ..NetConfig::default()
    };
    let (handle, ingress) = FleetServer::spawn("127.0.0.1:0", config).expect("spawn server");
    let mut good = TcpStream::connect(handle.local_addr()).unwrap();
    let mut evil = TcpStream::connect(handle.local_addr()).unwrap();
    wait_for(|| handle.stats().accepted == 2, "both connections accepted");

    // An oversized length prefix: rejected before allocation, connection
    // closed, counted as a decode error.
    evil.write_all(&u32::MAX.to_be_bytes()).unwrap();
    wait_for(
        || handle.stats().decode_errors == 1,
        "evil connection closed",
    );

    // The good connection is unaffected.
    let (m, f) = report(1, 7, 0);
    write_frame(&mut good, &f).unwrap();
    assert_eq!(ingress.recv_timeout_or_panic(), (1, m));

    // The evil socket reads EOF (server closed it).
    let mut probe = [0u8; 1];
    evil.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    assert_eq!(evil.read(&mut probe).unwrap_or(0), 0);

    let stats = handle.shutdown();
    assert_eq!(stats.decode_errors, 1);
    assert_eq!(stats.frames_in, 1);
}

#[test]
fn out_of_range_cluster_is_a_counted_protocol_error() {
    let config = NetConfig {
        num_clusters: Some(2),
        ..NetConfig::default()
    };
    let (handle, _ingress) = FleetServer::spawn("127.0.0.1:0", config).unwrap();
    let mut client = TcpStream::connect(handle.local_addr()).unwrap();
    let (_, f) = report(9, 1, 0);
    write_frame(&mut client, &f).unwrap();
    wait_for(|| handle.stats().decode_errors == 1, "bad cluster rejected");
    let stats = handle.shutdown();
    assert_eq!(stats.frames_in, 0);
}

#[test]
fn slow_client_is_shed_for_backpressure_without_hurting_others() {
    let config = NetConfig {
        // Tiny outbound cap so a non-reading client trips it quickly.
        max_conn_buffered: 512,
        ..NetConfig::default()
    };
    let (handle, ingress) = FleetServer::spawn("127.0.0.1:0", config).unwrap();
    let mut stalled = TcpStream::connect(handle.local_addr()).unwrap();
    let mut healthy = TcpStream::connect(handle.local_addr()).unwrap();
    wait_for(|| handle.stats().accepted == 2, "both connections accepted");

    // Each client identifies its cluster.
    let (_, f0) = report(0, 1, 0);
    let (_, f1) = report(1, 1, 0);
    stalled
        .write_all(&{
            let mut b = Vec::new();
            capes_net::encode_frame_into(&mut b, &f0);
            b
        })
        .unwrap();
    write_frame(&mut healthy, &f1).unwrap();
    for _ in 0..2 {
        ingress.recv_timeout_or_panic();
    }

    // The stalled client never reads. Pump action frames at it until the
    // outbound cap (512 bytes) trips. Each frame is ~40 bytes, and loopback
    // socket buffers absorb the first few hundred KiB or more, so keep
    // sending until a deadline rather than for a fixed count: `send` only
    // queues for the reactor, which may trip the cap long after the frame
    // that overflows it was queued.
    let action = Message::Action(ActionMessage {
        tick: 1,
        action_index: 0,
        parameter_values: vec![1.0; 8],
    });
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut sheds = 0;
    while Instant::now() < deadline {
        handle.send(0, &action);
        if handle.stats().shed_backpressure == 1 {
            sheds = 1;
            break;
        }
    }
    assert_eq!(sheds, 1, "stalled client was never shed");

    // The healthy connection still round-trips.
    let (m, f) = report(1, 2, 0);
    write_frame(&mut healthy, &f).unwrap();
    assert_eq!(ingress.recv_timeout_or_panic(), (1, m));
    assert!(handle.send(1, &action));
    let mut frame = Vec::new();
    read_frame(&mut healthy, 1 << 20, &mut frame).unwrap();
    let (cluster, decoded) = capes_agents::wire::decode_cluster_frame(&frame).unwrap();
    assert_eq!((cluster, decoded), (1, action));

    // And the stalled socket sees EOF once its kernel buffer drains.
    drop(stalled);
    handle.shutdown();
}

#[test]
fn idle_connections_are_swept() {
    let config = NetConfig {
        idle_timeout: Some(Duration::from_millis(50)),
        ..NetConfig::default()
    };
    let (handle, _ingress) = FleetServer::spawn("127.0.0.1:0", config).unwrap();
    let _client = TcpStream::connect(handle.local_addr()).unwrap();
    wait_for(|| handle.stats().accepted == 1, "connection accepted");
    wait_for(|| handle.stats().shed_idle == 1, "idle connection swept");
    let stats = handle.shutdown();
    assert_eq!(stats.active, 0);
}

#[test]
fn the_last_connection_to_speak_for_a_cluster_owns_its_downlink() {
    let (handle, ingress) =
        FleetServer::spawn("127.0.0.1:0", NetConfig::default()).expect("spawn server");
    let mut first = TcpStream::connect(handle.local_addr()).unwrap();
    let mut second = TcpStream::connect(handle.local_addr()).unwrap();
    let action = |tick| {
        Message::Action(ActionMessage {
            tick,
            action_index: 1,
            parameter_values: vec![8.0],
        })
    };
    // `speaker` reports for cluster 0, then the action sent to cluster 0
    // must come out of that same connection.
    let mut tick = 0;
    let mut speak_and_expect_action = |speaker: &mut TcpStream| {
        tick += 1;
        let (m, f) = report(0, tick, 0);
        write_frame(speaker, &f).unwrap();
        assert_eq!(ingress.recv_timeout_or_panic(), (0, m));
        assert!(handle.send(0, &action(tick)));
        speaker
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut frame = Vec::new();
        read_frame(speaker, 1 << 20, &mut frame).expect("action arrives on the speaker");
        let decoded = capes_agents::wire::decode_cluster_frame(&frame).unwrap();
        assert_eq!(decoded, (0, action(tick)));
    };

    // Repeating yourself keeps the route; a takeover moves it; the earlier
    // connection takes it back by speaking again…
    speak_and_expect_action(&mut first);
    speak_and_expect_action(&mut first);
    speak_and_expect_action(&mut second);
    speak_and_expect_action(&mut first);
    // …including after the connection that took it over has gone away.
    speak_and_expect_action(&mut second);
    drop(second);
    wait_for(|| handle.stats().disconnects == 1, "second closed");
    speak_and_expect_action(&mut first);

    let stats = handle.shutdown();
    assert_eq!((stats.frames_in, stats.frames_out), (6, 6));
}

/// One member's oversized tick: full-width reports (every PI changed),
/// length-prefixed back to back until the batch passes `min_bytes`.
fn wide_batch(cluster: u32, min_bytes: usize) -> (Vec<(u32, Message)>, Vec<u8>) {
    let mut messages = Vec::new();
    let mut batch = Vec::new();
    while batch.len() <= min_bytes {
        let message = Message::Report(PiReport {
            tick: 1,
            node: messages.len(),
            total_pis: 1024,
            changed: (0..1024u16).map(|pi| (pi, f64::from(pi) * 0.5)).collect(),
        });
        capes_net::encode_frame_into(&mut batch, &encode_cluster_frame(cluster, &message));
        messages.push((cluster, message));
    }
    (messages, batch)
}

/// Spawns a server whose ingress channel holds exactly `messages`, delivers
/// `batch` with `deliver` from this thread *before* receiving anything — the
/// single-threaded driver's order — and returns what came out and the final
/// counters.
fn deliver_before_draining(
    messages: usize,
    batch: &[u8],
    deliver: impl FnOnce(&mut TcpStream, &[u8]),
) -> (Vec<(u32, Message)>, capes_net::NetStatsSnapshot) {
    let config = NetConfig {
        ingress_capacity: messages,
        ..NetConfig::default()
    };
    assert!(batch.len() > READ_CHUNK);
    let (handle, ingress) = FleetServer::spawn("127.0.0.1:0", config).expect("spawn server");
    let mut client = TcpStream::connect(handle.local_addr()).expect("connect");
    client.set_nodelay(true).unwrap();
    // A deadlock must fail the test, not hang the suite.
    client
        .set_write_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    deliver(&mut client, batch);
    let got = (0..messages)
        .map(|_| ingress.recv_timeout_or_panic())
        .collect();
    (got, handle.shutdown())
}

#[test]
fn a_tick_batch_larger_than_the_send_buffer_completes_on_one_thread() {
    // Past 4 MiB: more than Linux's default `tcp_wmem` ceiling lets a send
    // buffer hold, and 256 reads' worth of `READ_CHUNK`. The blocking write
    // runs to completion with nobody draining the channel, because the
    // reactor keeps reading into a channel with room for the whole tick.
    let (sent, batch) = wide_batch(3, 4 << 20);
    let (got, stats) = deliver_before_draining(sent.len(), &batch, |client, batch| {
        client.write_all(batch).expect("whole batch written");
    });
    assert_eq!(got, sent);
    assert_eq!(stats.frames_in, sent.len() as u64);
    assert_eq!(stats.bytes_in, batch.len() as u64);
    assert_eq!((stats.decode_errors, stats.disconnects), (0, 0));
}

#[test]
fn one_write_and_a_byte_drip_deliver_the_same_sequence() {
    // Four `READ_CHUNK`s, not the 4 MiB of the test above: the reassembler
    // sees the same one-byte chunks either way, and 4 Mi one-byte writes are
    // 14 s of syscalls.
    let (sent, batch) = wide_batch(0, 64 << 10);
    let (whole, whole_stats) = deliver_before_draining(sent.len(), &batch, |client, batch| {
        client.write_all(batch).expect("whole batch written");
    });
    let (dripped, drip_stats) = deliver_before_draining(sent.len(), &batch, |client, batch| {
        for byte in batch.chunks(1) {
            client.write_all(byte).expect("byte written");
        }
    });
    assert_eq!(whole, sent);
    assert_eq!(dripped, sent);
    assert_eq!(whole_stats.frames_in, drip_stats.frames_in);
    assert_eq!(whole_stats.bytes_in, drip_stats.bytes_in);
    assert_eq!(drip_stats.bytes_in, batch.len() as u64);
}

/// Zero-drop soak: 1 024 concurrent connections, one per cluster, each
/// sending 8 report frames, written by 8 threads while this thread drains the
/// ingress channel. Every well-formed frame arrives, in order per cluster,
/// and nothing is shed, fails to decode or disconnects.
#[test]
fn a_thousand_connections_deliver_every_frame() {
    const CONNS: usize = 1024;
    const FRAMES_PER_CONN: u64 = 8;
    const WRITERS: usize = 8;
    let config = NetConfig {
        num_clusters: Some(CONNS),
        ingress_capacity: 2 * CONNS * FRAMES_PER_CONN as usize,
        ..NetConfig::default()
    };
    let (handle, ingress) = FleetServer::spawn("127.0.0.1:0", config).expect("spawn server");
    let mut clients: Vec<(TcpStream, Vec<u8>)> = (0..CONNS)
        .map(|cluster| {
            let stream = TcpStream::connect(handle.local_addr()).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            let mut burst = Vec::new();
            for tick in 0..FRAMES_PER_CONN {
                let message = Message::Report(PiReport {
                    tick,
                    node: cluster,
                    total_pis: 12,
                    changed: (0..12u16).map(|pi| (pi, 0.25 + f64::from(pi))).collect(),
                });
                let frame = encode_cluster_frame(cluster as u32, &message);
                capes_net::encode_frame_into(&mut burst, &frame);
            }
            (stream, burst)
        })
        .collect();

    let mut next_tick = vec![0u64; CONNS];
    std::thread::scope(|scope| {
        for shard in clients.chunks_mut(CONNS / WRITERS) {
            scope.spawn(move || {
                for (stream, burst) in shard {
                    stream.write_all(burst).expect("burst write");
                }
            });
        }
        // Drain while the writers push, as the fleet tick does.
        for _ in 0..CONNS as u64 * FRAMES_PER_CONN {
            let (cluster, message) = ingress.recv_timeout_or_panic();
            let Message::Report(report) = message else {
                panic!("cluster {cluster} sent a report, got {message:?}");
            };
            let expected = &mut next_tick[cluster as usize];
            assert_eq!(report.tick, *expected, "cluster {cluster} out of order");
            *expected += 1;
        }
    });

    let stats = handle.stats();
    assert_eq!(stats.accepted, CONNS as u64, "all connections accepted");
    assert_eq!(stats.active, CONNS as u64, "no connection lost");
    assert_eq!(
        stats.frames_in,
        CONNS as u64 * FRAMES_PER_CONN,
        "dropped well-formed frames"
    );
    assert_eq!(stats.decode_errors, 0);
    assert_eq!(stats.shed_backpressure, 0);
    assert_eq!(stats.shed_idle, 0);
    assert_eq!(stats.disconnects, 0);
}

/// `recv` with a deadline, panicking with context on timeout — keeps the
/// individual tests free of unwrap-noise.
trait RecvTimeout {
    fn recv_timeout_or_panic(&self) -> (u32, Message);
}

impl RecvTimeout for crossbeam::channel::Receiver<(u32, Message)> {
    fn recv_timeout_or_panic(&self) -> (u32, Message) {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            match self.try_recv() {
                Ok(v) => return v,
                Err(_) => {
                    assert!(Instant::now() < deadline, "timed out waiting for ingress");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }
}
