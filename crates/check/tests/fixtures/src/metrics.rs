//! Fixture: `metric-registry` rule. Violations at lines 9 and 15.

/// A telemetry-ish sink used to exercise the method-call patterns.
pub struct Sink;

impl Sink {
    pub fn tick(&self, t: &Sink) {
        t.counter(names::KNOWN_COUNTER);
        t.counter("fixture.rogue_counter");
    }

    pub fn trace(&self) {
        static KNOWN: LazySpan = LazySpan::new(names::KNOWN_SPAN);
        let _span = span!(names::KNOWN_SPAN);
        static ROGUE: LazySpan = LazySpan::new("fixture.rogue_span");
    }

    pub fn counter(&self, _name: &str) {}
}
