//! Benchmark-owned spans around every call the benchmark makes into the
//! program: kept in memory during the run, written out once at exit.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marks a span without a parent or outside any round.
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    round: u32,
}

/// Span recorder. Disabled (the end-to-end runs) it records nothing, so the
/// measured loop is the same code with and without tracing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
}

impl Tracer {
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            open: Vec::new(),
            round: NONE,
        }
    }

    pub fn set_round(&mut self, round: Option<usize>) {
        self.round = round.map_or(NONE, |r| r as u32);
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that later spans nest under, until [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, at: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(at),
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NONE),
            round: self.round,
        };
        self.open.push(self.spans.len() as u32);
        self.spans.push(span);
    }

    pub fn exit(&mut self, at: Instant) {
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = self.ns(at);
        }
    }

    /// Records a finished leaf span from instants the caller already took.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.enter(name, start);
            self.exit(end);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: u32| {
                if v == NONE {
                    "null".to_string()
                } else {
                    v.to_string()
                }
            };
            write!(
                out,
                "{}\n{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"round\":{}}}",
                if id == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.round),
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut t = Tracer::new(true, 8);
        t.set_round(Some(3));
        let now = Instant::now();
        t.enter("bench.round", now);
        t.leaf("fleet.tick_all.train", now, now);
        t.exit(Instant::now());
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[1].round, 3);
        assert_eq!(t.spans[0].parent, NONE);
        assert!(t.spans[0].end_ns >= t.spans[0].start_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 8);
        t.enter("bench.round", Instant::now());
        t.leaf("fleet.tick_all.train", Instant::now(), Instant::now());
        t.exit(Instant::now());
        assert_eq!(t.len(), 0);
    }
}
