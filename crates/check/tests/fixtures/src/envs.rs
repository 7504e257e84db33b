//! Fixture: `env-registry` rule. The violation is at line 10.

/// Reads a knob that IS in the fixture registry: no finding.
pub fn known() -> Option<String> {
    std::env::var("CAPES_FIXTURE_KNOWN").ok()
}

/// Reads a knob missing from the registry: flagged.
pub fn unknown() -> Option<String> {
    std::env::var("CAPES_FIXTURE_ROGUE").ok()
}

/// `CAPES_FIXTURE_STALE` is read only here, inside tests, so its registry
/// line in `registry_env.rs` is flagged as unread.
#[cfg(test)]
mod tests {
    #[test]
    fn stale() {
        let _ = std::env::var("CAPES_FIXTURE_STALE");
    }
}
