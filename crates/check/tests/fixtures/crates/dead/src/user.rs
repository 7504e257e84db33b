//! Fixture: rule `dead-pub`. Names items of `lib.rs` from a second file;
//! the comment and string below name `unreferenced`, which does not count.

use crate::{shared_helper, Agent};

/// Calls `unreferenced` in prose only.
fn run() -> usize {
    let label = "unreferenced";
    shared_helper();
    Agent.decide() + label.len()
}
