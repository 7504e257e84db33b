//! Fixture: rule `dead-pub`. A second crate naming items of `crates/dead`;
//! the comment and string below name `unreferenced`, which does not count.

pub use dead::Reexported;
use dead::{shared_helper, Agent, Counter, Stepper};

/// Calls `unreferenced` in prose only.
fn run() -> usize {
    let label = "unreferenced";
    shared_helper();
    Agent.decide() + label.len() + dead::tally::ZERO as usize
}

/// A bound ends its path at `Tick`: one `:` after a name is no segment.
fn bounded()
where
    Counter::Tick: Copy,
{
}
