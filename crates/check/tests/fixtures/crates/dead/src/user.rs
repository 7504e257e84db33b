//! Fixture: rule `dead-pub`. Names items of `lib.rs` from a second file;
//! the comment and string below name `unreferenced`, which does not count.

use crate::{shared_helper, Agent, Counter};

/// Calls `unreferenced` in prose only.
fn run() -> usize {
    let label = "unreferenced";
    shared_helper();
    Agent.decide() + label.len() + crate::tally::ZERO as usize
}

/// A bound ends its path at `Tick`: one `:` after a name is no segment.
fn bounded()
where
    Counter::Tick: Copy,
{
}
