//! Fixture env-knob registry: the only CAPES_* names the corpus may use.

/// A knob the fixtures are allowed to read.
pub const KNOWN: &str = "CAPES_FIXTURE_KNOWN";

/// A knob only a test reads: flagged as unread (line 7).
pub const STALE: &str = "CAPES_FIXTURE_STALE";

/// A knob nothing reads, waived: the waiver in the registry file is live.
// capes-check: allow(env-registry) -- the fixture's live registry waiver.
pub const WAIVED: &str = "CAPES_FIXTURE_WAIVED";
