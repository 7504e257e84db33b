//! # capes-net
//!
//! The socket front end for the CAPES fleet daemon (ISSUE 6): an
//! epoll-reactor TCP server that accepts thousands of concurrent
//! monitoring/control connections, reassembles length-prefixed frames from
//! partial reads, decodes them through the hardened
//! [`capes_agents::wire`] path, and hands `(cluster, message)` pairs to the
//! training side over a *bounded* channel so network I/O can never block a
//! train step.
//!
//! The crate splits into layers that are each testable in isolation:
//!
//! | module | role |
//! |---|---|
//! | [`framing`] | length-prefixed reassembly; allocation-safe against hostile prefixes |
//! | [`conn`] | byte-stream → decoded-message state for one connection, socket-free |
//! | [`server`] | the reactor loop: accept, readiness, backpressure, shedding, stats |
//! | [`client`] | blocking helpers for loopback clients and tests |
//!
//! Backpressure has exactly two rules, both enforced with counters rather
//! than unbounded memory: a slow *consumer* (the trainer) blocks the reactor
//! on the bounded ingress channel, which TCP flow control propagates to every
//! client; a slow *client* that cannot drain its action frames past
//! `max_conn_buffered` outbound bytes is shed with a counted disconnect.

#![forbid(unsafe_code)]
#![cfg(target_os = "linux")]

pub mod client;
pub mod conn;
pub mod framing;
pub mod server;

pub use client::{read_frame, write_frame};
pub use conn::{ConnError, ConnState};
pub use framing::{
    encode_frame_into, FrameReassembler, FramingError, DEFAULT_MAX_FRAME_LEN, LENGTH_PREFIX_BYTES,
};
pub use server::{FleetServer, NetConfig, NetStats, NetStatsSnapshot, ServerHandle, READ_CHUNK};
