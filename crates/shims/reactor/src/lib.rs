//! Offline subset of the `mio` crate: a level-triggered epoll reactor.
//!
//! The container this workspace builds in has no crates.io access, so the
//! async-I/O layer `capes-net` needs is provided as a shim with the same
//! shape as `mio`'s core: a [`Poll`] instance that file descriptors are
//! registered with under a caller-chosen [`Token`], an [`Events`] buffer
//! filled by [`Poll::poll`], a cross-thread [`Waker`], and a [`TimerQueue`]
//! that turns deadlines into poll timeouts.
//!
//! The implementation talks to the kernel directly through `extern "C"`
//! declarations (std already links libc; the `libc` crate is not vendored).
//! Everything is **level-triggered**: an fd keeps reporting readiness until
//! the condition is drained, which is the simplest semantics for the frame
//! reassembly loop layered on top. Linux-only, like the container.

#![deny(unsafe_op_in_unsafe_fn)]
#![cfg(target_os = "linux")]

use std::collections::BinaryHeap;
use std::io;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

mod ffi {
    use std::os::raw::c_int;

    /// Matches the kernel/glibc x86-64 layout: `epoll_event` is packed so the
    /// 64-bit data member sits directly after the 32-bit mask.
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const O_NONBLOCK: c_int = 0o4000;
    pub const O_CLOEXEC: c_int = 0o2000000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn pipe2(pipefd: *mut c_int, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    }
}

/// Caller-chosen identifier attached to a registration; echoed back in every
/// readiness [`Event`] for that fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub usize);

/// Which readiness conditions a registration watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u32);

impl Interest {
    /// Readable data (or a peer close — `EPOLLRDHUP` is always watched so
    /// half-closed connections surface as readable-with-`is_read_closed`).
    pub const READABLE: Interest = Interest(ffi::EPOLLIN | ffi::EPOLLRDHUP);
    /// Writable without blocking.
    pub const WRITABLE: Interest = Interest(ffi::EPOLLOUT);

    /// Combines two interests. The name mirrors `mio::Interest::add`,
    /// which is likewise an inherent method rather than `std::ops::Add`.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// `true` if this interest includes readability.
    pub fn is_readable(self) -> bool {
        self.0 & ffi::EPOLLIN != 0
    }

    /// `true` if this interest includes writability.
    pub fn is_writable(self) -> bool {
        self.0 & ffi::EPOLLOUT != 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;

    fn bitor(self, rhs: Interest) -> Interest {
        self.add(rhs)
    }
}

/// One readiness notification: which [`Token`] and which conditions.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    bits: u32,
    token: Token,
}

impl Event {
    /// The token the fd was registered under.
    pub fn token(&self) -> Token {
        self.token
    }

    /// The fd has readable data (or the peer closed; see
    /// [`Event::is_read_closed`]).
    pub fn is_readable(&self) -> bool {
        self.bits & (ffi::EPOLLIN | ffi::EPOLLRDHUP | ffi::EPOLLHUP) != 0
    }

    /// The fd can be written without blocking.
    pub fn is_writable(&self) -> bool {
        self.bits & ffi::EPOLLOUT != 0
    }

    /// An error condition is pending on the fd (read it out with
    /// `take_error`, or just close).
    pub fn is_error(&self) -> bool {
        self.bits & ffi::EPOLLERR != 0
    }

    /// The peer closed its write half (or the whole connection); a read will
    /// drain whatever is buffered and then return 0.
    pub fn is_read_closed(&self) -> bool {
        self.bits & (ffi::EPOLLRDHUP | ffi::EPOLLHUP) != 0
    }
}

/// Buffer of readiness notifications filled by [`Poll::poll`].
pub struct Events {
    raw: Vec<ffi::EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer that can carry up to `capacity` events per poll call.
    pub fn with_capacity(capacity: usize) -> Events {
        let capacity = capacity.max(1);
        Events {
            raw: vec![ffi::EpollEvent { events: 0, data: 0 }; capacity],
            len: 0,
        }
    }

    /// Events delivered by the last poll.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the last poll delivered nothing (timeout).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the events of the last poll.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.raw[..self.len].iter().map(|raw| {
            // Copy the packed fields out before use (unaligned reads).
            let bits = raw.events;
            let data = raw.data;
            Event {
                bits,
                token: Token(data as usize),
            }
        })
    }
}

/// The reactor core: an epoll instance fds are registered with.
pub struct Poll {
    epfd: RawFd,
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

impl Poll {
    /// Creates a new reactor.
    pub fn new() -> io::Result<Poll> {
        // SAFETY: epoll_create1 takes no pointers; flags are valid constants.
        let epfd = cvt(unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) })?;
        Ok(Poll { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        let mut event = ffi::EpollEvent {
            events: interest.0,
            data: token.0 as u64,
        };
        // SAFETY: `event` is a live, properly initialized EpollEvent for the
        // duration of the call; the kernel validates the fds.
        cvt(unsafe { ffi::epoll_ctl(self.epfd, op, fd, &mut event) }).map(|_| ())
    }

    /// Starts watching `fd` (which must be non-blocking) for `interest`,
    /// tagging its events with `token`.
    pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest set (and/or token) of an already-registered fd.
    pub fn reregister(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stops watching `fd`.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        // A non-null event pointer keeps pre-2.6.9 kernel semantics happy.
        let mut event = ffi::EpollEvent { events: 0, data: 0 };
        // SAFETY: `event` is live across the call; DEL ignores its contents.
        cvt(unsafe { ffi::epoll_ctl(self.epfd, ffi::EPOLL_CTL_DEL, fd, &mut event) }).map(|_| ())
    }

    /// Blocks until at least one registered fd is ready, the timeout elapses
    /// (`None` waits indefinitely), or a [`Waker`] fires. Returns the number
    /// of events written into `events`. `EINTR` is retried internally.
    pub fn poll(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let millis: i32 = match timeout {
            None => -1,
            Some(d) => {
                // Round up so a 100µs deadline does not spin at timeout 0.
                let ms = d.as_millis() + u128::from(d.subsec_nanos() % 1_000_000 != 0);
                ms.try_into().unwrap_or(i32::MAX)
            }
        };
        loop {
            // SAFETY: the out-pointer and capacity describe `events.raw`,
            // which lives across the call.
            let ret = unsafe {
                ffi::epoll_wait(
                    self.epfd,
                    events.raw.as_mut_ptr(),
                    events.raw.len() as i32,
                    millis,
                )
            };
            match cvt(ret) {
                Ok(n) => {
                    events.len = n as usize;
                    return Ok(events.len);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Poll {
    fn drop(&mut self) {
        // SAFETY: we own `epfd` and never use it after drop.
        unsafe { ffi::close(self.epfd) };
    }
}

/// Cross-thread wake-up for a blocked [`Poll::poll`], built on a non-blocking
/// self-pipe registered with the poll under a caller-chosen token.
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Waker {
    /// Creates a waker and registers its read end with `poll` under `token`;
    /// when another thread calls [`Waker::wake`], the poll returns with a
    /// readable event for that token, which the owner should [`Waker::drain`].
    pub fn new(poll: &Poll, token: Token) -> io::Result<Waker> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a live 2-slot array, exactly what pipe2 writes.
        cvt(unsafe { ffi::pipe2(fds.as_mut_ptr(), ffi::O_NONBLOCK | ffi::O_CLOEXEC) })?;
        let waker = Waker {
            read_fd: fds[0],
            write_fd: fds[1],
        };
        poll.register(waker.read_fd, token, Interest::READABLE)?;
        Ok(waker)
    }

    /// Wakes the poll. Safe to call from any thread, any number of times; a
    /// full pipe means a wake is already pending, which is success.
    pub fn wake(&self) -> io::Result<()> {
        let byte = [1u8];
        // SAFETY: writes one byte from a live one-byte buffer.
        let ret = unsafe { ffi::write(self.write_fd, byte.as_ptr(), 1) };
        if ret == 1 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::WouldBlock {
            Ok(()) // a wake-up is already queued
        } else {
            Err(err)
        }
    }

    /// Drains queued wake-up bytes so the (level-triggered) readiness clears.
    /// Call when a poll event carries the waker's token. A short read means
    /// the pipe is empty, so it ends the drain without a read that could
    /// only return `EAGAIN`; a byte that lands later re-arms the readiness.
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        loop {
            // SAFETY: reads at most `sink.len()` bytes into the live buffer.
            let ret = unsafe { ffi::read(self.read_fd, sink.as_mut_ptr(), sink.len()) };
            if ret < sink.len() as isize {
                return;
            }
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: we own both pipe fds and never use them after drop.
        unsafe {
            ffi::close(self.read_fd);
            ffi::close(self.write_fd);
        }
    }
}

// SAFETY: a waker is only written from other threads and read from the poll
// thread; both fds are process-global resources.
unsafe impl Send for Waker {}
// SAFETY: as above — `write(2)` on a pipe is thread-safe.
unsafe impl Sync for Waker {}

/// A min-heap of `(deadline, token)` pairs that converts pending deadlines
/// into [`Poll::poll`] timeouts — the "timers" half of the reactor.
#[derive(Default)]
pub struct TimerQueue {
    heap: BinaryHeap<std::cmp::Reverse<(Instant, Token)>>,
}

impl TimerQueue {
    /// An empty timer queue.
    pub fn new() -> TimerQueue {
        TimerQueue::default()
    }

    /// Schedules `token` to fire at `deadline`.
    pub fn schedule(&mut self, deadline: Instant, token: Token) {
        self.heap.push(std::cmp::Reverse((deadline, token)));
    }

    /// Schedules `token` to fire `delay` from now.
    pub fn schedule_after(&mut self, delay: Duration, token: Token) {
        self.schedule(Instant::now() + delay, token);
    }

    /// The poll timeout that honours the earliest pending deadline: zero if
    /// it already passed, `None` if the queue is empty (wait indefinitely).
    pub fn next_timeout(&self, now: Instant) -> Option<Duration> {
        self.heap
            .peek()
            .map(|std::cmp::Reverse((deadline, _))| deadline.saturating_duration_since(now))
    }

    /// Pops the earliest timer if its deadline has passed.
    pub fn pop_expired(&mut self, now: Instant) -> Option<Token> {
        match self.heap.peek() {
            Some(std::cmp::Reverse((deadline, _))) if *deadline <= now => {
                self.heap.pop().map(|std::cmp::Reverse((_, token))| token)
            }
            _ => None,
        }
    }

    /// Pending timers.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::thread;

    const LISTENER: Token = Token(0);
    const CLIENT: Token = Token(1);
    const WAKER: Token = Token(2);

    #[test]
    fn listener_becomes_readable_on_connect() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poll.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)
            .unwrap();

        let mut events = Events::with_capacity(8);
        // Nothing pending yet: a short poll times out empty.
        poll.poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let event = events.iter().next().expect("accept readiness");
        assert_eq!(event.token(), LISTENER);
        assert!(event.is_readable());
        assert!(listener.accept().is_ok());
    }

    #[test]
    fn stream_readability_is_level_triggered_until_drained() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poll.register(server.as_raw_fd(), CLIENT, Interest::READABLE)
            .unwrap();

        client.write_all(b"ping").unwrap();
        let mut events = Events::with_capacity(8);
        // Two polls in a row both report readiness (level-triggered) …
        for _ in 0..2 {
            poll.poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(events
                .iter()
                .any(|e| e.token() == CLIENT && e.is_readable()));
        }
        // … until the data is drained.
        let mut buf = [0u8; 16];
        let mut server = &server;
        assert_eq!(server.read(&mut buf).unwrap(), 4);
        poll.poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(!events.iter().any(|e| e.token() == CLIENT));
    }

    #[test]
    fn writable_interest_and_reregister() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nonblocking(true).unwrap();
        poll.register(client.as_raw_fd(), CLIENT, Interest::READABLE)
            .unwrap();
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(!events.iter().any(|e| e.is_writable()));
        // An idle connected socket is writable the moment we ask about it.
        poll.reregister(
            client.as_raw_fd(),
            CLIENT,
            Interest::READABLE | Interest::WRITABLE,
        )
        .unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events
            .iter()
            .any(|e| e.token() == CLIENT && e.is_writable()));
        // Deregistered fds go silent.
        poll.deregister(client.as_raw_fd()).unwrap();
        poll.poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn peer_close_reports_read_closed() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poll.register(server.as_raw_fd(), CLIENT, Interest::READABLE)
            .unwrap();
        drop(client);
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let event = events.iter().find(|e| e.token() == CLIENT).unwrap();
        assert!(event.is_readable());
        assert!(event.is_read_closed());
    }

    #[test]
    fn waker_interrupts_an_indefinite_poll() {
        let poll = Poll::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new(&poll, WAKER).unwrap());
        let remote = waker.clone();
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(50));
            remote.wake().unwrap();
        });
        let mut events = Events::with_capacity(8);
        // No timeout: only the waker can end this poll.
        poll.poll(&mut events, None).unwrap();
        let event = events.iter().next().expect("waker event");
        assert_eq!(event.token(), WAKER);
        waker.drain();
        handle.join().unwrap();
        // Drained: the next poll times out quietly.
        poll.poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
        // Double wake coalesces into (at least) one event, never an error.
        waker.wake().unwrap();
        waker.wake().unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.iter().next().unwrap().token(), WAKER);
        waker.drain();
    }

    #[test]
    fn timer_queue_orders_deadlines_and_computes_timeouts() {
        let mut timers = TimerQueue::new();
        assert!(timers.is_empty());
        let now = Instant::now();
        timers.schedule(now + Duration::from_millis(30), Token(3));
        timers.schedule(now + Duration::from_millis(10), Token(1));
        timers.schedule(now + Duration::from_millis(20), Token(2));
        assert_eq!(timers.len(), 3);
        // The nearest deadline bounds the poll timeout.
        let timeout = timers.next_timeout(now).unwrap();
        assert!(timeout <= Duration::from_millis(10));
        // Nothing has expired yet.
        assert_eq!(timers.pop_expired(now), None);
        // Advance past two deadlines: they pop in order.
        let later = now + Duration::from_millis(25);
        assert_eq!(timers.pop_expired(later), Some(Token(1)));
        assert_eq!(timers.pop_expired(later), Some(Token(2)));
        assert_eq!(timers.pop_expired(later), None);
        assert_eq!(timers.len(), 1);
        // An expired deadline yields a zero timeout, not a negative panic.
        assert_eq!(
            timers.next_timeout(now + Duration::from_secs(1)),
            Some(Duration::ZERO)
        );
    }
}
