//! The fleet socket server: one reactor thread multiplexing every
//! monitoring/control connection over epoll.
//!
//! Design rules (ISSUE 6):
//!
//! - **Never block the training thread.** Decoded messages flow through a
//!   *bounded* crossbeam channel; the training side drains it between steps.
//!   If the channel fills, the reactor thread itself blocks on `send` — that
//!   is the global backpressure valve, and it propagates to clients as TCP
//!   flow control because the reactor stops reading.
//! - **Never buffer a slow client without bound.** Outbound bytes per
//!   connection are capped; a client that cannot drain its action frames is
//!   shed with a counted disconnect instead of growing a queue.
//! - **Never trust a length prefix.** All reassembly goes through
//!   [`FrameReassembler`](crate::framing::FrameReassembler), which validates
//!   against [`DEFAULT_MAX_FRAME_LEN`] before allocating, and every frame decodes via
//!   the hardened [`capes_agents::wire`] path.
//! - **Cross into the kernel only to move bytes.** A fan-out of frames
//!   ([`ServerHandle::send_all`]) costs one waker write, not one per frame.
//!   A read shorter than [`READ_CHUNK`] ends a connection's drain: epoll is
//!   level-triggered, so bytes that land afterwards are reported again on
//!   the next poll, and the `EAGAIN` read that would only confirm an empty
//!   socket is never issued.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use capes_agents::wire::encode_cluster_frame;
use capes_agents::Message;
use capes_telemetry::{Counter, Gauge};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use reactor::{Events, Interest, Poll, TimerQueue, Token, Waker};

use crate::conn::ConnState;
use crate::framing::{encode_frame_into, DEFAULT_MAX_FRAME_LEN, LENGTH_PREFIX_BYTES};

/// Size of the reactor's read scratch buffer: one `read` syscall's worth.
pub const READ_CHUNK: usize = 16 * 1024;

/// Tuning knobs for a [`FleetServer`]. A frame's payload is capped at
/// [`DEFAULT_MAX_FRAME_LEN`]: an oversized prefix closes the connection
/// before any allocation.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Cap on *outbound* bytes buffered per connection. A client further
    /// behind than this is shed (counted in `shed_backpressure`).
    pub max_conn_buffered: usize,
    /// Capacity of the bounded ingress channel handed to the consumer. Size
    /// it to at least one tick's worth of traffic (2 × total monitors) or
    /// the reactor will stall mid-tick waiting for the consumer.
    pub ingress_capacity: usize,
    /// When set, frames naming a cluster `>= num_clusters` are rejected and
    /// the sending connection closed.
    pub num_clusters: Option<usize>,
    /// When set, connections silent for this long are shed
    /// (counted in `shed_idle`).
    pub idle_timeout: Option<Duration>,
    /// When `true`, a connection whose first byte is `G` is treated as an
    /// HTTP/1.x client and answered with one Prometheus-style `/metrics`
    /// exposition of the process's telemetry registry, then closed. Framed
    /// traffic is unambiguous: `G` as the top byte of a length prefix would
    /// claim a frame of ≥ 1.1 GiB, far beyond [`DEFAULT_MAX_FRAME_LEN`].
    pub expose_metrics: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_conn_buffered: 256 * 1024,
            ingress_capacity: 4096,
            num_clusters: None,
            idle_timeout: None,
            expose_metrics: false,
        }
    }
}

/// Counters maintained by the reactor thread, readable from any thread.
/// Every field is a telemetry handle, so the fleet links the *same* atomics
/// into the global metrics registry under `net.*` (see [`NetStats::publish`])
/// instead of copying values across. `active` and `ingress_depth` are
/// gauges (they go down); everything else only grows.
#[derive(Debug, Default)]
pub struct NetStats {
    accepted: Counter,
    active: Gauge,
    shed_backpressure: Counter,
    shed_idle: Counter,
    disconnects: Counter,
    decode_errors: Counter,
    frames_in: Counter,
    frames_out: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    /// Successful non-empty socket reads. `frames_in ÷ reads` is how well the
    /// members batch: 0.5 for a peer that writes prefix and payload apart,
    /// a member's whole tick per read for one that writes it at once.
    reads: Counter,
    /// Decoded messages sitting in the ingress channel, refreshed by the
    /// reactor after every delivery and before every `/metrics` scrape.
    ingress_depth: Gauge,
}

macro_rules! bump {
    ($stats:expr, $field:ident) => {
        $stats.$field.inc()
    };
    ($stats:expr, $field:ident, $n:expr) => {
        $stats.$field.add($n as u64)
    };
}

impl NetStats {
    /// A consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            accepted: self.accepted.get(),
            active: self.active.get() as u64,
            shed_backpressure: self.shed_backpressure.get(),
            shed_idle: self.shed_idle.get(),
            disconnects: self.disconnects.get(),
            decode_errors: self.decode_errors.get(),
            frames_in: self.frames_in.get(),
            frames_out: self.frames_out.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
        }
    }

    /// Links every counter into `registry` under `net.*` names (latest
    /// server wins). The handles share storage with the reactor, so a
    /// mid-run scrape always reads live values.
    pub fn publish(&self, registry: &capes_telemetry::Registry) {
        registry.publish_counter("net.accepted", &self.accepted);
        registry.publish_gauge("net.active", &self.active);
        registry.publish_counter("net.shed_backpressure", &self.shed_backpressure);
        registry.publish_counter("net.shed_idle", &self.shed_idle);
        registry.publish_counter("net.disconnects", &self.disconnects);
        registry.publish_counter("net.decode_errors", &self.decode_errors);
        registry.publish_counter("net.frames_in", &self.frames_in);
        registry.publish_counter("net.frames_out", &self.frames_out);
        registry.publish_counter("net.bytes_in", &self.bytes_in);
        registry.publish_counter("net.bytes_out", &self.bytes_out);
        registry.publish_counter("net.reads", &self.reads);
        registry.publish_gauge("net.ingress.depth", &self.ingress_depth);
    }
}

/// Plain-value copy of [`NetStats`], serialisable into reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Connections currently open.
    pub active: u64,
    /// Connections shed because their outbound buffer exceeded the cap.
    pub shed_backpressure: u64,
    /// Connections shed for exceeding the idle timeout.
    pub shed_idle: u64,
    /// Connections that closed or errored from the peer side.
    pub disconnects: u64,
    /// Connections closed for framing/decode/routing violations.
    pub decode_errors: u64,
    /// Well-formed frames decoded and delivered to the ingress channel.
    pub frames_in: u64,
    /// Frames queued for transmission to clients.
    pub frames_out: u64,
    /// Raw bytes read off sockets.
    pub bytes_in: u64,
    /// Raw bytes written to sockets.
    pub bytes_out: u64,
}

/// Commands from the owning thread to the reactor.
enum ServerCmd {
    /// Queue `frame` (already cluster-enveloped, not yet length-prefixed)
    /// for the connection currently serving `cluster`.
    Send { cluster: u32, frame: Vec<u8> },
    /// Stop the reactor and close every connection.
    Shutdown,
}

/// Owner-side handle to a running [`FleetServer`]. Dropping it shuts the
/// server down and joins the reactor thread.
pub struct ServerHandle {
    addr: SocketAddr,
    cmds: Sender<ServerCmd>,
    waker: Arc<Waker>,
    stats: Arc<NetStats>,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener is bound to (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counter values.
    pub fn stats(&self) -> NetStatsSnapshot {
        self.stats.snapshot()
    }

    /// Queues `message` for the connection serving `cluster`. Returns
    /// `false` if the reactor has already stopped. Delivery is best-effort:
    /// if no connection has identified itself with that cluster id yet, the
    /// frame is dropped by the reactor.
    pub fn send(&self, cluster: u32, message: &Message) -> bool {
        self.send_all([(cluster, message)])
    }

    /// Queues every `(cluster, message)` pair, in order, as [`send`] would,
    /// and wakes the reactor once for the lot: one waker write per fan-out
    /// instead of one per frame. Returns `false` if the reactor has already
    /// stopped.
    ///
    /// [`send`]: ServerHandle::send
    pub fn send_all<M: Borrow<Message>>(
        &self,
        messages: impl IntoIterator<Item = (u32, M)>,
    ) -> bool {
        for (cluster, message) in messages {
            let frame = encode_cluster_frame(cluster, message.borrow());
            if self.cmds.send(ServerCmd::Send { cluster, frame }).is_err() {
                return false;
            }
        }
        self.waker.wake().is_ok()
    }

    /// Stops the reactor, joins its thread, and returns the final counters.
    pub fn shutdown(mut self) -> NetStatsSnapshot {
        self.stop();
        self.stats.snapshot()
    }

    fn stop(&mut self) {
        if let Some(join) = self.join.take() {
            let _ = self.cmds.send(ServerCmd::Shutdown);
            let _ = self.waker.wake();
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The socket front end. See the module docs for the design rules.
pub struct FleetServer;

impl FleetServer {
    /// Binds `addr`, spawns the reactor thread, and returns the owner handle
    /// plus the bounded ingress channel of decoded `(cluster, message)`
    /// pairs.
    ///
    /// # Errors
    /// Any I/O error from binding the listener or creating the epoll set.
    pub fn spawn<A: ToSocketAddrs>(
        addr: A,
        config: NetConfig,
    ) -> io::Result<(ServerHandle, Receiver<(u32, Message)>)> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let poll = Poll::new()?;
        let waker = Arc::new(Waker::new(&poll, WAKER)?);
        poll.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;

        let (ingress_tx, ingress_rx) = bounded(config.ingress_capacity);
        let (cmd_tx, cmd_rx) = unbounded();
        let stats = Arc::new(NetStats::default());
        // Link this server's counters into the process registry (latest
        // server wins) so `/metrics` and `dump_metrics()` see live values.
        stats.publish(capes_telemetry::global());

        let mut reactor_loop = ServerLoop {
            poll,
            listener,
            conns: Vec::new(),
            free: Vec::new(),
            routes: HashMap::new(),
            routes_epoch: 0,
            read_buf: vec![0; READ_CHUNK],
            ingress: ingress_tx,
            cmds: cmd_rx,
            waker: Arc::clone(&waker),
            stats: Arc::clone(&stats),
            config,
            timers: TimerQueue::default(),
        };
        let join = std::thread::Builder::new()
            .name("capes-net-reactor".into())
            .spawn(move || reactor_loop.run())?;

        Ok((
            ServerHandle {
                addr,
                cmds: cmd_tx,
                waker,
                stats,
                join: Some(join),
            },
            ingress_rx,
        ))
    }
}

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
const IDLE_SWEEP: Token = Token(2);
const CONN_BASE: usize = 3;

/// Why the reactor closed a connection; selects the counter to bump.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    PeerClosed,
    ShedBackpressure,
    ShedIdle,
    Protocol,
}

/// What a connection turned out to speak, decided by its first byte.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnMode {
    /// Nothing read yet.
    Fresh,
    /// Length-prefixed CAPES frames (the normal case).
    Framed,
    /// An HTTP client scraping `/metrics` (only with
    /// [`NetConfig::expose_metrics`]).
    Http,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    mode: ConnMode,
    /// Request bytes of an HTTP scrape, held until the blank line arrives.
    http_buf: Vec<u8>,
    /// Close the connection once `out` drains (HTTP response served).
    close_after_flush: bool,
    /// Outbound bytes not yet written; `out[out_cursor..]` is pending.
    out: Vec<u8>,
    out_cursor: usize,
    /// Whether the fd is currently registered with WRITABLE interest.
    want_write: bool,
    last_activity: Instant,
    /// The cluster this connection last claimed in `routes`, and the
    /// `routes_epoch` at which that entry was known to point here. While the
    /// epoch stands, frames for the same cluster skip the map entirely.
    routed: Option<(u32, u64)>,
}

struct ServerLoop {
    poll: Poll,
    listener: TcpListener,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// cluster id → slab index of the connection that last spoke for it.
    routes: HashMap<u32, usize>,
    /// Bumped whenever a connection claims a cluster or takes one over;
    /// invalidates every `Conn::routed`. (Closing a connection only removes
    /// routes that pointed at it, and its own `routed` dies with it.)
    routes_epoch: u64,
    /// One `read` syscall's worth of scratch, shared by every connection.
    read_buf: Vec<u8>,
    ingress: Sender<(u32, Message)>,
    cmds: Receiver<ServerCmd>,
    waker: Arc<Waker>,
    stats: Arc<NetStats>,
    config: NetConfig,
    timers: TimerQueue,
}

impl ServerLoop {
    fn run(&mut self) {
        if let Some(idle) = self.config.idle_timeout {
            self.timers
                .schedule_after(idle.min(IDLE_SWEEP_MAX), IDLE_SWEEP);
        }
        let mut events = Events::with_capacity(1024);
        loop {
            let timeout = self.timers.next_timeout(Instant::now());
            if self.poll.poll(&mut events, timeout).is_err() {
                // Only unrecoverable epoll failures land here (EINTR is
                // retried inside poll); nothing to do but stop serving.
                return;
            }
            for event in events.iter() {
                match event.token() {
                    LISTENER => self.accept_ready(),
                    WAKER => self.waker.drain(),
                    Token(t) => {
                        let idx = t - CONN_BASE;
                        if event.is_readable() && !self.conn_readable(idx) {
                            continue;
                        }
                        if event.is_writable() {
                            self.conn_flush(idx);
                        }
                        if event.is_error() {
                            self.close(idx, CloseReason::PeerClosed);
                        }
                    }
                }
            }
            // Commands are drained every iteration, not only on wake: a
            // wake that raced with a poll timeout must not strand a Send.
            loop {
                match self.cmds.try_recv() {
                    Ok(ServerCmd::Send { cluster, frame }) => self.queue_frame(cluster, &frame),
                    Ok(ServerCmd::Shutdown) => return,
                    Err(_) => break,
                }
            }
            let now = Instant::now();
            while let Some(token) = self.timers.pop_expired(now) {
                if token == IDLE_SWEEP {
                    self.sweep_idle(now);
                    if let Some(idle) = self.config.idle_timeout {
                        self.timers
                            .schedule_after(idle.min(IDLE_SWEEP_MAX), IDLE_SWEEP);
                    }
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Action frames are latency-critical (they gate the next
                    // tick); never let Nagle hold them.
                    let _ = stream.set_nodelay(true);
                    let idx = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    if self
                        .poll
                        .register(
                            stream.as_raw_fd(),
                            Token(CONN_BASE + idx),
                            Interest::READABLE,
                        )
                        .is_err()
                    {
                        self.free.push(idx);
                        continue;
                    }
                    // In bounds: `idx` came off the free list, which only
                    // holds slot indices already carved out of `conns`.
                    self.conns[idx] = Some(Conn {
                        stream,
                        state: ConnState::new(DEFAULT_MAX_FRAME_LEN),
                        mode: ConnMode::Fresh,
                        http_buf: Vec::new(),
                        close_after_flush: false,
                        out: Vec::new(),
                        out_cursor: 0,
                        want_write: false,
                        last_activity: Instant::now(),
                        routed: None,
                    });
                    bump!(self.stats, accepted);
                    // Only the reactor thread updates `active`, so the
                    // read-modify-write on the gauge is race-free.
                    self.stats.active.set(self.stats.active.get() + 1.0);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (EMFILE, aborted handshakes):
                // drop this readiness round, the listener stays registered.
                Err(_) => return,
            }
        }
    }

    /// Drains readable bytes from connection `idx`, stopping at the first
    /// read shorter than [`READ_CHUNK`] (the socket is then empty; anything
    /// arriving later is reported again, epoll being level-triggered).
    /// Returns `false` if the connection was closed (its slab slot is gone).
    fn conn_readable(&mut self, idx: usize) -> bool {
        loop {
            let ServerLoop {
                conns,
                routes,
                routes_epoch,
                read_buf: chunk,
                ingress,
                stats,
                config,
                ..
            } = self;
            let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
                return false;
            };
            let read_result = {
                // Times the read syscall alone; the decode work below has
                // its own span.
                let _span = capes_telemetry::span!("net.read");
                conn.stream.read(chunk)
            };
            match read_result {
                Ok(0) => {
                    self.close(idx, CloseReason::PeerClosed);
                    return false;
                }
                Ok(n) => {
                    bump!(stats, reads);
                    bump!(stats, bytes_in, n);
                    conn.last_activity = Instant::now();
                    if conn.mode == ConnMode::Fresh {
                        // In bounds: the Ok(0) arm above already returned,
                        // so at least one byte was read into `chunk`.
                        conn.mode = if config.expose_metrics && chunk[0] == b'G' {
                            ConnMode::Http
                        } else {
                            ConnMode::Framed
                        };
                    }
                    let drained = n < chunk.len();
                    if conn.mode == ConnMode::Http {
                        // Once the response is queued, trailing bytes are
                        // discarded.
                        if !conn.close_after_flush {
                            // In bounds: `read` wrote exactly `n <= chunk.len()`.
                            conn.http_buf.extend_from_slice(&chunk[..n]);
                            if conn.http_buf.len() > MAX_HTTP_REQUEST {
                                self.close(idx, CloseReason::Protocol);
                                return false;
                            }
                            // Headers complete (we ignore their content —
                            // every GET gets the same exposition) → answer
                            // and close.
                            if conn.http_buf.windows(4).any(|w| w == b"\r\n\r\n")
                                && !self.respond_metrics(idx)
                            {
                                return false;
                            }
                        }
                        if drained {
                            return true;
                        }
                        continue;
                    }
                    let mut consumer_gone = false;
                    let routed = &mut conn.routed;
                    let ingested = {
                        let _span = capes_telemetry::span!("net.decode");
                        conn.state
                            // In bounds: `read` wrote exactly `n <= chunk.len()`.
                            .ingest(&chunk[..n], config.num_clusters, |cluster, message| {
                                bump!(stats, frames_in);
                                // The last connection to speak for a cluster
                                // owns its downlink. A member says the same
                                // thing on every frame, so it pays the map
                                // only when some route has moved since.
                                if *routed != Some((cluster, *routes_epoch)) {
                                    if routes.insert(cluster, idx) != Some(idx) {
                                        *routes_epoch += 1;
                                    }
                                    *routed = Some((cluster, *routes_epoch));
                                }
                                // A full channel blocks us here — that *is*
                                // the backpressure valve. Err means the
                                // consumer dropped the receiver: shut down.
                                if ingress.send((cluster, message)).is_err() {
                                    consumer_gone = true;
                                }
                            })
                    };
                    stats.ingress_depth.set(ingress.len() as f64);
                    if consumer_gone || ingested.is_err() {
                        let reason = if consumer_gone {
                            CloseReason::PeerClosed
                        } else {
                            CloseReason::Protocol
                        };
                        self.close(idx, reason);
                        return false;
                    }
                    if drained {
                        return true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx, CloseReason::PeerClosed);
                    return false;
                }
            }
        }
    }

    /// Serves one `/metrics` scrape on connection `idx`: refreshes the
    /// reactor-owned gauges, renders the global registry as Prometheus text
    /// and queues an HTTP/1.0 response that closes after flushing. Returns
    /// `false` if the connection is gone afterwards.
    fn respond_metrics(&mut self, idx: usize) -> bool {
        self.stats.ingress_depth.set(self.ingress.len() as f64);
        let body = capes_telemetry::dump_metrics();
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return false;
        };
        let header = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        conn.out.extend_from_slice(header.as_bytes());
        conn.out.extend_from_slice(body.as_bytes());
        conn.http_buf.clear();
        conn.close_after_flush = true;
        self.conn_flush(idx);
        self.conns.get(idx).is_some_and(|slot| slot.is_some())
    }

    fn queue_frame(&mut self, cluster: u32, frame: &[u8]) {
        let Some(&idx) = self.routes.get(&cluster) else {
            // No connection has spoken for this cluster yet; the caller's
            // contract says delivery is best-effort, so drop silently.
            return;
        };
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let pending = conn.out.len() - conn.out_cursor;
        if pending + LENGTH_PREFIX_BYTES + frame.len() > self.config.max_conn_buffered {
            self.close(idx, CloseReason::ShedBackpressure);
            return;
        }
        // Reclaim consumed prefix before growing; keeps the buffer from
        // creeping even when the client is only slightly behind.
        if conn.out_cursor > 0 && conn.out_cursor == conn.out.len() {
            conn.out.clear();
            conn.out_cursor = 0;
        } else if conn.out_cursor >= 4096 {
            conn.out.drain(..conn.out_cursor);
            conn.out_cursor = 0;
        }
        encode_frame_into(&mut conn.out, frame);
        bump!(self.stats, frames_out);
        self.conn_flush(idx);
    }

    /// Writes as much pending output as the socket accepts; registers for
    /// WRITABLE readiness when the socket pushes back.
    fn conn_flush(&mut self, idx: usize) {
        // One egress span per flush call: covers every write syscall the
        // socket accepts in this round.
        let _span = capes_telemetry::span!("net.egress");
        loop {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            // In bounds: `out_cursor` only advances by written byte counts
            // and is reset whenever `out` is cleared, so it never passes
            // `out.len()`.
            let pending = &conn.out[conn.out_cursor..];
            if pending.is_empty() {
                conn.out.clear();
                conn.out_cursor = 0;
                if conn.close_after_flush {
                    // HTTP response fully written: close our side so the
                    // scraper sees EOF (HTTP/1.0 framing).
                    self.close(idx, CloseReason::PeerClosed);
                    return;
                }
                if conn.want_write {
                    conn.want_write = false;
                    let _ = self.poll.reregister(
                        conn.stream.as_raw_fd(),
                        Token(CONN_BASE + idx),
                        Interest::READABLE,
                    );
                }
                return;
            }
            match conn.stream.write(pending) {
                Ok(0) => {
                    self.close(idx, CloseReason::PeerClosed);
                    return;
                }
                Ok(n) => {
                    conn.out_cursor += n;
                    conn.last_activity = Instant::now();
                    bump!(self.stats, bytes_out, n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !conn.want_write {
                        conn.want_write = true;
                        let _ = self.poll.reregister(
                            conn.stream.as_raw_fd(),
                            Token(CONN_BASE + idx),
                            Interest::READABLE.add(Interest::WRITABLE),
                        );
                    }
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx, CloseReason::PeerClosed);
                    return;
                }
            }
        }
    }

    fn sweep_idle(&mut self, now: Instant) {
        let Some(idle) = self.config.idle_timeout else {
            return;
        };
        let stale: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| {
                let conn = slot.as_ref()?;
                (now.duration_since(conn.last_activity) >= idle).then_some(idx)
            })
            .collect();
        for idx in stale {
            self.close(idx, CloseReason::ShedIdle);
        }
    }

    fn close(&mut self, idx: usize, reason: CloseReason) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        let _ = self.poll.deregister(conn.stream.as_raw_fd());
        self.routes.retain(|_, &mut v| v != idx);
        self.free.push(idx);
        self.stats.active.set(self.stats.active.get() - 1.0);
        match reason {
            CloseReason::PeerClosed => bump!(self.stats, disconnects),
            CloseReason::ShedBackpressure => bump!(self.stats, shed_backpressure),
            CloseReason::ShedIdle => bump!(self.stats, shed_idle),
            CloseReason::Protocol => bump!(self.stats, decode_errors),
        };
        // Closing the socket last: a peer that sees EOF already sees the
        // connection counted as closed.
        drop(conn);
    }
}

/// Idle sweeps run at least this often so a freshly-stale connection is
/// noticed within one period even if traffic keeps the poll loop busy.
const IDLE_SWEEP_MAX: Duration = Duration::from_millis(500);

/// Cap on buffered HTTP request bytes before the scraper is shed — far more
/// than any real `GET /metrics` request, far less than a hostile stream.
const MAX_HTTP_REQUEST: usize = 8 * 1024;
