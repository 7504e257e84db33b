//! Fixture: rule `dead-pub`. It fires at lines 10, 13, 16, 20, 24, 27, 35,
//! 61, 70, 90 and 95; the reasonless waiver at line 69 is a
//! `bad-suppression`. Everything else is named by the non-test code of
//! another crate (`crates/client`, `src/bin/tool.rs`) or waived.

mod user;

pub use self::inner::Reexported;

pub fn unreferenced() {}

/// Only the test module below calls it.
pub fn test_only() {}

/// Only the `pub(crate)` test-support module below calls it.
pub fn support_only() {}

mod inner {
    /// A re-export does not name it; `crates/client` only re-exports it too.
    pub struct Reexported;
}

/// Only `tests/it.rs`, comments and strings name it.
pub const ONLY_IN_TESTS_DIR: u32 = 1;

/// Only `user.rs`, a file of this crate, calls it.
pub fn crate_local() {}

/// Only `src/bin/tool.rs`, a crate of its own, calls it.
pub fn for_the_binary() {}

pub struct Agent;

impl Agent {
    pub fn greedy_action(&self) -> usize {
        0
    }

    /// `crates/client` calls it; the local binding and closure call named
    /// `greedy_action` below are not `.greedy_action`/`::greedy_action`.
    pub fn decide(&self) -> usize {
        let greedy_action = || 1;
        greedy_action()
    }
}

/// `crates/client` calls it.
pub fn shared_helper() {}

/// `crates/client` imports it for its method and names it nowhere else.
pub trait Stepper {
    fn step(&self);
}

pub struct Counter {
    count: u64,
}

impl Counter {
    /// Only field reads (`self.count`) share its name.
    pub fn count(&self) -> u64 {
        self.count
    }
}

// capes-check: allow(dead-pub) -- the harness of tests/it.rs
pub fn waived_helper() {}

// capes-check: allow(dead-pub)
pub fn unexplained() {}

#[cfg(test)]
mod tests {
    #[test]
    fn calls() {
        super::test_only();
    }
}

#[cfg(test)]
pub(crate) mod support {
    pub fn call() {
        super::support_only();
    }
}

impl Counter {
    /// Only the module path `dead::tally::ZERO` in `crates/client` shares
    /// its name.
    pub fn tally(&self) -> u64 {
        self.count
    }

    /// Only a shim (`crates/shims/gauge`) calls a `.reading()`, its own.
    pub fn reading(&self) -> u64 {
        self.count
    }
}

pub mod tally {
    pub const ZERO: u64 = 0;
}

impl Counter {
    /// `crates/client` bounds it (`Counter::Tick: Copy`), a path that ends
    /// at it.
    pub type Tick = u64;
}
