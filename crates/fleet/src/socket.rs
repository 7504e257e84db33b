//! The fleet's socket front end: member clusters talk to the daemon over
//! real loopback TCP through the [`capes_net`] reactor server.
//!
//! One blocking [`TcpStream`] per cluster plays the member's network stack:
//! the daemon's tick loop writes the cluster's monitoring frames into it,
//! the reactor server on the other end reassembles and decodes them, and the
//! decoded messages come back through the bounded ingress channel in arrival
//! order. Actions travel the other way — queued on the server by cluster id,
//! read back off the client socket with a blocking frame read.
//!
//! Write pattern: the uplink is tick-batched. A member's monitors report
//! once per sampling tick, so [`SocketFront::send_uplink`] only frames each
//! message into a reused buffer (length prefix back-patched in place, no
//! allocation per frame) and [`SocketFront::flush_uplink`] hands the
//! member's whole tick to its connection in **one `write_all`** — one
//! syscall, and on these `TCP_NODELAY` streams one reactor wake-up, per
//! member per tick instead of one per frame. The batch buffer is shared by
//! all members (each is flushed before the next is framed), which is why the
//! uplink stays on the tick thread, in cluster order.
//!
//! Downlink pattern: [`SocketFront::send_actions`] queues the whole action
//! fan-out on the server and wakes its reactor **once**, not once per
//! cluster. Each member reads through a small [`BufReader`] that holds a
//! whole action frame, so the frame's length prefix and payload cost one
//! `recv` together instead of one each; the reactor, for its part, ends a
//! connection's drain on a short read instead of reading again for
//! `EAGAIN`. A tick's socket traffic is thus one `send` and one reactor
//! `recv` per member up, one waker write for the fan-out, and one `send`
//! and one member `recv` per member down.
//!
//! Determinism: each cluster's traffic rides its own connection, so its
//! per-cluster ingest order is exactly its send order — the same order the
//! wire transport uses. Cross-cluster arrival interleaving varies run
//! to run, but clusters do not share daemon state, so the fleet's results
//! are bit-identical to [`capes::Transport::Wire`] (the integration tests
//! hold the report JSON equal).
//!
//! Backpressure sizing: the ingress channel is provisioned for (at least)
//! one full fleet tick of messages, and the tick loop fully drains it every
//! tick, so the reactor thread never stalls mid-tick against the channel
//! while the tick loop is still writing uplink batches — the pairing that
//! would otherwise deadlock a single-threaded driver. That is also what
//! makes a blocking `write_all` of a batch larger than the socket's send
//! buffer safe: the reactor keeps reading (a `READ_CHUNK` at a time) into a
//! channel that has room for everything in flight, so the write always
//! completes without the tick thread having to drain in between.

use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;

use capes_agents::wire::{decode_cluster_frame, encode_cluster_frame_into};
use capes_agents::{ActionMessage, Message};
use capes_net::{
    read_frame, FleetServer, NetConfig, NetStatsSnapshot, ServerHandle, DEFAULT_MAX_FRAME_LEN,
};
use crossbeam::channel::Receiver;

/// Read buffer of a member connection: an action frame (a few dozen bytes
/// for the simulator's knobs) fits whole, so one `recv` fetches prefix and
/// payload together, while 64 members hold 16 KiB rather than the 512 KiB
/// of std's default 8 KiB buffers. A larger frame still reads correctly,
/// its payload straight into the caller's buffer.
const MEMBER_READ_CAPACITY: usize = 256;

/// Wraps a member's downlink in its small read buffer.
fn member_reader<R: Read>(inner: R) -> BufReader<R> {
    BufReader::with_capacity(MEMBER_READ_CAPACITY, inner)
}

/// The server plus the member clusters' loopback connections.
pub(crate) struct SocketFront {
    handle: ServerHandle,
    ingress: Receiver<(u32, Message)>,
    /// One blocking connection per cluster, index = cluster id; reads go
    /// through the buffer, writes straight to the stream.
    clients: Vec<BufReader<TcpStream>>,
    /// Messages each cluster sends per measurement tick (2 × its monitors).
    expected_per_tick: Vec<usize>,
    /// Length-prefixed uplink frames of the member being gathered, not yet
    /// written; reused across members and ticks.
    uplink: Vec<u8>,
    /// Scratch for per-tick arrival counting.
    counts: Vec<usize>,
    /// Scratch for blocking frame reads.
    read_buf: Vec<u8>,
    /// Ticks this front end has carried since it started: the span of the
    /// server's counters, which a restored tick number does not reset.
    ticks: u64,
}

impl SocketFront {
    /// Spawns the reactor server on an ephemeral loopback port and connects
    /// one client stream per cluster. `expected_per_tick[i]` is cluster
    /// `i`'s per-tick uplink message count; the ingress channel is sized to
    /// hold a full tick with slack.
    pub(crate) fn new(expected_per_tick: Vec<usize>) -> io::Result<Self> {
        let num_clusters = expected_per_tick.len();
        let tick_volume: usize = expected_per_tick.iter().sum();
        let config = NetConfig {
            num_clusters: Some(num_clusters),
            ingress_capacity: (2 * tick_volume).max(1024),
            // A socket fleet answers Prometheus-style `/metrics` scrapes on
            // its listening port mid-run (plain GET, the framed clusters are
            // unaffected).
            expose_metrics: true,
            ..NetConfig::default()
        };
        let (handle, ingress) = FleetServer::spawn("127.0.0.1:0", config)?;
        let clients = (0..num_clusters)
            .map(|_| {
                let stream = TcpStream::connect(handle.local_addr())?;
                stream.set_nodelay(true)?;
                Ok(member_reader(stream))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(SocketFront {
            handle,
            ingress,
            clients,
            uplink: Vec::new(),
            counts: vec![0; num_clusters],
            expected_per_tick,
            read_buf: Vec::new(),
            ticks: 0,
        })
    }

    /// Current server-side counters.
    pub(crate) fn stats(&self) -> NetStatsSnapshot {
        self.handle.stats()
    }

    /// Ticks drained since this front end started.
    pub(crate) fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The loopback address the server listens on.
    pub(crate) fn addr(&self) -> std::net::SocketAddr {
        self.handle.local_addr()
    }

    /// Frames one uplink message from `cluster` into the pending batch.
    /// Nothing reaches the socket until [`flush_uplink`](Self::flush_uplink).
    pub(crate) fn send_uplink(&mut self, cluster: usize, message: &Message) {
        encode_cluster_frame_into(&mut self.uplink, cluster as u32, message);
    }

    /// Writes the pending batch on `cluster`'s connection in one `write_all`
    /// (blocking; the reactor drains continuously, so loopback writes
    /// complete promptly) and empties it for the next member.
    pub(crate) fn flush_uplink(&mut self, cluster: usize) -> io::Result<()> {
        write_batch(self.clients[cluster].get_mut(), &mut self.uplink)
    }

    /// Receives exactly one measurement tick's traffic from the server's
    /// ingress channel and hands each decoded message to
    /// `deliver(cluster, message)` in arrival order, returning once every
    /// cluster has produced its expected count.
    ///
    /// # Panics
    /// Panics if the server thread died (the channel disconnects) — the
    /// fleet cannot continue without its ingest path.
    pub(crate) fn drain_tick<F: FnMut(usize, &Message)>(&mut self, mut deliver: F) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        let mut remaining: usize = self.expected_per_tick.iter().sum();
        while remaining > 0 {
            let (cluster, message) = self
                .ingress
                .recv()
                .expect("socket server died mid-tick; ingest path lost");
            let cluster = cluster as usize;
            assert!(
                self.counts[cluster] < self.expected_per_tick[cluster],
                "cluster {cluster} sent more messages than one tick expects"
            );
            self.counts[cluster] += 1;
            remaining -= 1;
            deliver(cluster, &message);
        }
        self.ticks += 1;
    }

    /// Queues every `(cluster, action)` of a fan-out on the server-side
    /// downlink and wakes the reactor once for all of them.
    pub(crate) fn send_actions(&self, actions: impl IntoIterator<Item = (usize, ActionMessage)>) {
        let messages = actions
            .into_iter()
            .map(|(cluster, action)| (cluster as u32, Message::Action(action)));
        assert!(
            self.handle.send_all(messages),
            "socket server died before the action downlink"
        );
    }

    /// Blocks until `cluster`'s connection delivers its action frame and
    /// decodes it: one `recv` for a frame that fits the member's buffer.
    ///
    /// # Panics
    /// Panics on I/O failure, on a frame that does not decode, or on a frame
    /// addressed to a different cluster — all impossible without a server
    /// bug, and unrecoverable mid-tick.
    pub(crate) fn recv_action(&mut self, cluster: usize) -> ActionMessage {
        read_frame(
            &mut self.clients[cluster],
            DEFAULT_MAX_FRAME_LEN,
            &mut self.read_buf,
        )
        .expect("action downlink read failed");
        let (from, message) =
            decode_cluster_frame(&self.read_buf).expect("self-encoded action frames decode");
        assert_eq!(from as usize, cluster, "action frame crossed connections");
        match message {
            Message::Action(action) => action,
            other => panic!("expected an action on the downlink, got {other:?}"),
        }
    }
}

/// Hands `batch` to `w` whole and clears it, whatever the outcome — a batch
/// must never leak into the next member's connection.
fn write_batch<W: Write>(w: &mut W, batch: &mut Vec<u8>) -> io::Result<()> {
    let written = w.write_all(batch);
    batch.clear();
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use capes_agents::PiReport;

    /// Accepts everything it is given and counts the `write` calls.
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

    /// Serves one queued segment per `read` at most (the way a socket
    /// returns what has arrived so far) and counts the `read` calls.
    struct CountingReader {
        segments: std::collections::VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Read for CountingReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(segment) = self.segments.front_mut() else {
                return Ok(0);
            };
            let n = segment.len().min(buf.len());
            buf[..n].copy_from_slice(&segment[..n]);
            segment.drain(..n);
            if segment.is_empty() {
                self.segments.pop_front();
            }
            Ok(n)
        }
    }

    fn action(tick: u64) -> Message {
        Message::Action(ActionMessage {
            tick,
            action_index: 5,
            parameter_values: vec![64.0, 400.0, 1.5, 8.0],
        })
    }

    /// Three ticks' action frames, each arriving as its own segment.
    fn action_segments() -> std::collections::VecDeque<Vec<u8>> {
        (0..3)
            .map(|tick| {
                let mut frame = Vec::new();
                encode_cluster_frame_into(&mut frame, 2, &action(tick));
                assert!(frame.len() <= MEMBER_READ_CAPACITY);
                frame
            })
            .collect()
    }

    #[test]
    fn an_action_frame_costs_the_member_exactly_one_read() {
        let mut member = member_reader(CountingReader {
            segments: action_segments(),
            reads: 0,
        });
        let mut buf = Vec::new();
        for tick in 0..3 {
            read_frame(&mut member, DEFAULT_MAX_FRAME_LEN, &mut buf).unwrap();
            assert_eq!(decode_cluster_frame(&buf).unwrap(), (2, action(tick)));
            assert_eq!(
                member.get_ref().reads,
                tick as usize + 1,
                "one read per frame"
            );
        }

        // Unbuffered, the same frames cost a read for the prefix and one
        // for the payload.
        let mut raw = CountingReader {
            segments: action_segments(),
            reads: 0,
        };
        for _ in 0..3 {
            read_frame(&mut raw, DEFAULT_MAX_FRAME_LEN, &mut buf).unwrap();
        }
        assert_eq!(raw.reads, 6);
    }

    fn report(tick: u64, node: usize) -> Message {
        Message::Report(PiReport {
            tick,
            node,
            total_pis: 8,
            changed: vec![(0, 1.25), (3, -0.5), (7, 1024.0)],
        })
    }

    #[test]
    fn a_member_tick_is_flushed_in_exactly_one_write() {
        let mut front = SocketFront::new(vec![4, 4]).expect("loopback front");
        let sent: Vec<Message> = (0..4).map(|node| report(9, node)).collect();
        for message in &sent {
            front.send_uplink(1, message);
        }
        let mut w = CountingWriter::default();
        write_batch(&mut w, &mut front.uplink).unwrap();
        assert_eq!(w.writes, 1, "one write per member per tick");
        assert!(
            front.uplink.is_empty(),
            "batch must not leak into the next member"
        );

        // The one write carried the member's frames whole and in send order.
        let mut cursor = &w.bytes[..];
        let mut buf = Vec::new();
        for message in &sent {
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN, &mut buf).unwrap();
            assert_eq!(decode_cluster_frame(&buf).unwrap(), (1, message.clone()));
        }
        assert!(cursor.is_empty());

        // A member with nothing to say costs no syscall at all.
        write_batch(&mut w, &mut front.uplink).unwrap();
        assert_eq!(w.writes, 1);
    }
}
