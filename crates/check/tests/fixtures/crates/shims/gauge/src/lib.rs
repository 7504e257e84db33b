//! Fixture: rule `dead-pub`. A shim stands in for an external crate, which
//! cannot name a workspace item: its `.reading()` call below keeps
//! `Counter::reading` in `crates/dead/src/lib.rs` no more alive than the
//! external crate's own method would.

pub struct Gauge;

impl Gauge {
    pub fn reading(&self) -> u64 {
        0
    }
}

pub fn sample(gauge: &Gauge) -> u64 {
    gauge.reading()
}
