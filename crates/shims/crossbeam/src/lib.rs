//! Offline subset of `crossbeam`: multi-producer multi-consumer channels.
//!
//! Two flavors mirror `crossbeam-channel`:
//!
//! * [`channel::unbounded`] — a growable FIFO; `send` never blocks.
//! * [`channel::bounded`] — a fixed-capacity ring buffer pre-allocated at
//!   construction; `send` blocks while the channel is full and performs **no
//!   heap allocation**, which is what the persistent GEMM worker pool in
//!   `capes-tensor` relies on for its allocation-free dispatch path.
//!
//! Both halves are cloneable (MPMC), matching the upstream crate.
//!
//! Wake-ups cost a syscall only when someone is asleep. std's futex
//! `Condvar::notify_one` issues a `FUTEX_WAKE` syscall whether or not a
//! thread waits on it, roughly ten times the cost of the uncontended lock
//! the message itself needs. So the channel counts, under its mutex, the
//! receivers parked on `not_empty` and the senders parked on `not_full`
//! (bumped before `wait`, dropped after it returns): `send` notifies only
//! when a receiver is parked, `recv`/`try_recv` only when a sender is. A
//! zero count seen under the lock means the peer has not parked yet, and it
//! re-checks the queue under that same lock before it does, so no wake-up
//! is lost. Disconnects still `notify_all` unconditionally. The `models`
//! test of `capes-check` explores the protocol, including a seeded
//! lost-wakeup variant the checker must report.

#![forbid(unsafe_code)]

/// MPMC channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};

    struct State<T> {
        queue: VecDeque<T>,
        /// `Some(cap)` for bounded channels; `None` for unbounded.
        capacity: Option<usize>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked in `not_empty.wait`.
        parked_receivers: usize,
        /// Senders blocked in `not_full.wait`.
        parked_senders: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        /// `notify_one` calls issued, for the crossing-count tests.
        #[cfg(test)]
        notifies: std::sync::atomic::AtomicUsize,
    }

    impl<T> Shared<T> {
        /// Wakes one thread parked on `condvar`; the caller has seen, under
        /// the lock, that one is.
        fn wake_one(&self, condvar: &Condvar) {
            #[cfg(test)]
            self.notifies
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            condvar.notify_one();
        }
    }

    /// Sending half of a channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half of a channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Error returned when every receiver has been dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// All senders have been dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv`] when all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    fn new_channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: match capacity {
                    // The ring never grows past `cap`, so this is the only
                    // allocation the channel ever performs.
                    Some(cap) => VecDeque::with_capacity(cap.max(1)),
                    None => VecDeque::new(),
                },
                capacity,
                senders: 1,
                receivers: 1,
                parked_receivers: 0,
                parked_senders: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            #[cfg(test)]
            notifies: std::sync::atomic::AtomicUsize::new(0),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_channel(None)
    }

    /// Creates a bounded channel whose buffer is allocated once, up front.
    /// Sending blocks while `cap` messages are in flight. A capacity of zero
    /// is rounded up to one (the shim has no rendezvous mode).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        new_channel(Some(cap.max(1)))
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.state.lock().unwrap();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.shared.state.lock().unwrap();
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Messages currently queued (matches `crossbeam-channel`; a
        /// snapshot — other threads may change it immediately).
        pub fn len(&self) -> usize {
            self.shared.state.lock().unwrap().queue.len()
        }

        /// `true` when no message is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Sends a message, blocking while a bounded channel is full. Fails
        /// only if every receiver was dropped.
        pub fn send(&self, message: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.state.lock().unwrap();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(message));
                }
                let full = state.capacity.is_some_and(|cap| state.queue.len() >= cap);
                if !full {
                    state.queue.push_back(message);
                    let wake = state.parked_receivers > 0;
                    drop(state);
                    if wake {
                        self.shared.wake_one(&self.shared.not_empty);
                    }
                    return Ok(());
                }
                state.parked_senders += 1;
                state = self.shared.not_full.wait(state).unwrap();
                state.parked_senders -= 1;
            }
        }
    }

    impl<T> Receiver<T> {
        /// Messages currently queued (snapshot, like [`Sender::len`]).
        pub fn len(&self) -> usize {
            self.shared.state.lock().unwrap().queue.len()
        }

        /// `true` when no message is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Receives without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.state.lock().unwrap();
            match state.queue.pop_front() {
                Some(v) => {
                    self.popped(state);
                    Ok(v)
                }
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.state.lock().unwrap();
            loop {
                if let Some(v) = state.queue.pop_front() {
                    self.popped(state);
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state.parked_receivers += 1;
                state = self.shared.not_empty.wait(state).unwrap();
                state.parked_receivers -= 1;
            }
        }

        /// Releases the lock after a pop, waking one parked sender if any:
        /// the pop freed the slot it is waiting for.
        fn popped(&self, state: MutexGuard<'_, State<T>>) {
            let wake = state.parked_senders > 0;
            drop(state);
            if wake {
                self.shared.wake_one(&self.shared.not_full);
            }
        }

        /// Drains currently queued messages without blocking.
        pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.try_recv().ok())
        }
    }

    /// Test probes into the wake-up protocol.
    #[cfg(test)]
    impl<T> Sender<T> {
        /// `notify_one` calls this channel has issued so far.
        pub(crate) fn notifies(&self) -> usize {
            self.shared
                .notifies
                .load(std::sync::atomic::Ordering::Relaxed)
        }

        /// `(parked receivers, parked senders)` right now.
        pub(crate) fn parked(&self) -> (usize, usize) {
            let state = self.shared.state.lock().unwrap();
            (state.parked_receivers, state.parked_senders)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, TryRecvError};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn round_trip_and_clone() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.try_recv().unwrap(), 2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        drop(tx2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn bounded_round_trip() {
        let (tx, rx) = bounded(2);
        tx.send(10).unwrap();
        tx.send(20).unwrap();
        assert_eq!(rx.recv().unwrap(), 10);
        assert_eq!(rx.recv().unwrap(), 20);
        drop(tx);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn bounded_send_blocks_until_capacity_frees() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let sender = thread::spawn(move || {
            // Blocks until the main thread drains the first message.
            tx.send(2).unwrap();
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        sender.join().unwrap();
    }

    #[test]
    fn receiver_clone_is_mpmc() {
        let (tx, rx) = bounded(8);
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let a = rx.recv().unwrap();
        let b = rx2.recv().unwrap();
        assert_eq!(a + b, 3);
    }

    #[test]
    fn send_fails_when_receivers_gone() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert!(tx.send(7).is_err());
    }

    /// Spins until `probe` holds; the parked counts are set under the lock
    /// just before `wait`, so this observes a peer that is (about to be)
    /// asleep.
    fn until(probe: impl Fn() -> bool) {
        while !probe() {
            thread::yield_now();
        }
    }

    #[test]
    fn no_parked_peer_means_no_notify() {
        for (tx, rx) in [bounded(4), unbounded()] {
            for i in 0..3u32 {
                tx.send(i).unwrap();
            }
            assert_eq!(rx.recv().unwrap(), 0);
            assert_eq!(rx.try_recv().unwrap(), 1);
            assert_eq!(rx.try_iter().collect::<Vec<_>>(), [2]);
            assert_eq!(tx.notifies(), 0, "nobody was asleep to wake");
        }
    }

    #[test]
    fn send_to_a_parked_receiver_notifies_exactly_once() {
        let (tx, rx) = bounded(4);
        let receiver = thread::spawn(move || rx.recv().unwrap());
        until(|| tx.parked() == (1, 0));
        tx.send(42u32).unwrap();
        assert_eq!(receiver.join().unwrap(), 42);
        // The woken receiver's pop finds no parked sender: one wake total.
        assert_eq!(tx.notifies(), 1);
        assert_eq!(tx.parked(), (0, 0));
    }

    #[test]
    fn recv_from_a_full_ring_wakes_its_parked_sender_once() {
        let (tx, rx) = bounded(1);
        tx.send(1u32).unwrap();
        let probe = tx.clone();
        let sender = thread::spawn(move || tx.send(2).unwrap());
        until(|| probe.parked() == (0, 1));
        assert_eq!(rx.recv().unwrap(), 1);
        sender.join().unwrap();
        assert_eq!(probe.notifies(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(probe.notifies(), 1);
    }

    #[test]
    fn cross_thread_ping_pong() {
        let (tx, rx) = bounded(4);
        let worker = thread::spawn(move || {
            let mut total = 0u64;
            while let Ok(v) = rx.recv() {
                total += v;
            }
            total
        });
        for i in 0..100u64 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(worker.join().unwrap(), 4950);
    }
}
