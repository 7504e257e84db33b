//! The trace journal: per-thread bounded ring buffers of span events,
//! engaged only under `CAPES_TRACE=on` and dumpable as JSON lines for
//! offline flame-style analysis.
//!
//! Each thread owns one preallocated ring (registered globally on first
//! use); pushing an event overwrites the oldest entry once the ring is
//! full, so a runaway fleet can never grow the journal. The push path
//! allocates nothing after the ring exists — the zero-alloc train-step test
//! runs with `CAPES_TRACE=on` to hold that.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events retained per thread before overwrite-oldest kicks in.
const RING_CAPACITY: usize = 4096;

/// One recorded span occurrence.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Span name (the `span!` literal).
    pub name: &'static str,
    /// Start time, nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

struct Ring {
    thread: u64,
    events: Vec<Event>,
    /// Next write position; `events.len() < RING_CAPACITY` until first wrap.
    head: usize,
    /// Total pushes ever (so dumps can report how many were overwritten).
    pushed: u64,
}

impl Ring {
    fn push(&mut self, event: Event) {
        if self.events.len() < RING_CAPACITY {
            self.events.push(event);
        } else {
            self.events[self.head % RING_CAPACITY] = event;
        }
        self.head = (self.head + 1) % RING_CAPACITY;
        self.pushed += 1;
    }
}

fn rings() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static THREAD_RING: Arc<Mutex<Ring>> = {
        static NEXT_THREAD: std::sync::atomic::AtomicU64 =
            std::sync::atomic::AtomicU64::new(0);
        let ring = Arc::new(Mutex::new(Ring {
            thread: NEXT_THREAD.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            events: Vec::with_capacity(RING_CAPACITY),
            head: 0,
            pushed: 0,
        }));
        rings().lock().unwrap().push(ring.clone());
        ring
    };
}

/// Whether `CAPES_TRACE` asked for the journal (`on`/`1`/`true`,
/// case-insensitive; read once per process).
#[inline]
pub fn trace_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        std::env::var("CAPES_TRACE")
            .map(|v| {
                let v = v.to_ascii_lowercase();
                v == "on" || v == "1" || v == "true"
            })
            .unwrap_or(false)
    })
}

/// Appends one event to the calling thread's ring.
pub(crate) fn push(name: &'static str, start: Instant, dur_ns: u64) {
    let start_ns = start.duration_since(epoch()).as_nanos() as u64;
    THREAD_RING.with(|ring| {
        ring.lock().unwrap().push(Event {
            name,
            start_ns,
            dur_ns,
        });
    });
}

/// Dumps every thread's retained events as JSON lines sorted by start time:
/// `{"name":"...","thread":N,"start_ns":...,"dur_ns":...}`. Returns the
/// empty string when nothing was traced (e.g. `CAPES_TRACE` off).
// capes-check: allow(dead-pub) -- the journal's one reader; push_and_dump_round_trip tests it
pub fn dump_journal() -> String {
    let mut events: Vec<(u64, Event)> = Vec::new();
    for ring in rings().lock().unwrap().iter() {
        let ring = ring.lock().unwrap();
        for event in &ring.events {
            events.push((ring.thread, *event));
        }
    }
    events.sort_by_key(|(_, e)| e.start_ns);
    let mut out = String::new();
    for (thread, event) in events {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"dur_ns\":{}}}\n",
            event.name, thread, event.start_ns, event.dur_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_beyond_capacity() {
        let mut ring = Ring {
            thread: 0,
            events: Vec::with_capacity(RING_CAPACITY),
            head: 0,
            pushed: 0,
        };
        for i in 0..(RING_CAPACITY as u64 + 10) {
            ring.push(Event {
                name: "x",
                start_ns: i,
                dur_ns: 1,
            });
        }
        assert_eq!(ring.events.len(), RING_CAPACITY);
        assert_eq!(ring.pushed, RING_CAPACITY as u64 + 10);
        let oldest = ring.events.iter().map(|e| e.start_ns).min().unwrap();
        assert_eq!(oldest, 10, "the first ten events were overwritten");
    }

    #[test]
    fn push_and_dump_round_trip() {
        push("test.journal", Instant::now(), 42);
        let dump = dump_journal();
        assert!(dump.contains("\"name\":\"test.journal\""), "{dump}");
        assert!(dump.contains("\"dur_ns\":42"));
        // Every line is self-contained JSON.
        for line in dump.lines().filter(|l| l.contains("test.journal")) {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }
}
