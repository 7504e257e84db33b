//! # capes-replay
//!
//! The Replay Database of CAPES (paper §3.5).
//!
//! The original prototype stores system status and actions "in two tables that
//! are indexed by t" inside a SQLite database with write-ahead logging, and
//! caches the whole database in memory during training. This crate is the
//! reproduction's equivalent: an in-memory, time-indexed store of
//!
//! * per-node Performance-Indicator snapshots (one row per node per sampling
//!   tick),
//! * the scalar objective value of each tick (from which rewards are derived),
//!   and
//! * the action performed at each action tick,
//!
//! plus the minibatch-construction procedure of Algorithm 1, including the
//! paper's 20 % missing-entry tolerance. The store is carried between
//! sessions inside a `capes-persist` snapshot (every type here that holds
//! experience implements [`capes_persist::Persist`]).
//!
//! Storage is organised as a [`ReplayArena`]: a fleet-wide store striped by
//! cluster, where every per-tick record (snapshots, objective, action) lives
//! inline in a flat ring slot. Only each cluster's Interface Daemon writes to
//! its stripe; DRL engines read from one stripe ([`SharedReplayDb`], a stripe
//! view — a standalone deployment is a one-stripe arena) or sample across a
//! weighted stripe set
//! ([`ReplayArena::construct_minibatch_weighted_into`], the transfer-learning
//! path for clusters sharing one DQN).

#![forbid(unsafe_code)]

pub mod arena;
pub mod db;
pub mod minibatch;
pub mod record;
pub mod shared;

pub use arena::ReplayArena;
pub use db::{ReplayConfig, ReplayDb};
pub use minibatch::{MinibatchError, ReplayBatch};
pub use record::Observation;
pub use shared::SharedReplayDb;
