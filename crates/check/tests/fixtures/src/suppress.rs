//! Fixture: `bad-suppression` at lines 5, 7 and 9; `stale-suppression` at 16.

/// Each malformed marker below is itself a finding.
pub fn malformed() -> u32 {
    // capes-check: allow(boundary-panic)
    let without_reason = 1;
    // capes-check: allow(not-a-real-rule) -- the rule id is unknown.
    let unknown_rule = 2;
    // capes-check: disable everything please
    let wrong_shape = 3;
    without_reason + unknown_rule + wrong_shape
}

/// A well-formed waiver with no finding to waive is stale.
pub fn stale() -> u32 {
    // capes-check: allow(boundary-panic) -- suppress.rs is no boundary file.
    4
}
