//! # capes-agents
//!
//! The distributed plumbing of CAPES (paper §3.3 and Figure 1): Monitoring
//! Agents that sample performance indicators on every client, Control Agents
//! that apply parameter changes, the Interface Daemon that sits between them
//! and the Replay DB / DRL engine, and the optional Action Checker that vetoes
//! obviously bad actions.
//!
//! In the paper these components are separate processes talking over the
//! cluster's control network with a differential, compressed protocol; in the
//! reproduction they are objects called synchronously on one thread, which
//! keeps experiments deterministic: an action passes by value from the
//! Interface Daemon (checker verdict, Replay DB record) to the Control Agent
//! (staleness and deduplication) to the caller that sets the parameters. The
//! wire format is implemented for real — every PI report is differentially
//! encoded and serialised to a compact binary frame — so the per-client
//! message sizes of Table 2 can be measured. The messages implement
//! `capes_persist::Persist` with that frame layout: frames go through the
//! same bounds-checked codec as snapshots, and decode failures are typed
//! `PersistError`s.

#![forbid(unsafe_code)]

pub mod checker;
pub mod control;
pub mod interface;
pub mod message;
pub mod monitoring;
pub mod wire;

pub use checker::ActionChecker;
pub use control::ControlAgent;
pub use interface::{InterfaceDaemon, InterfaceStats};
pub use message::{ActionMessage, Message, PiReport};
pub use monitoring::MonitoringAgent;
pub use wire::{
    decode_cluster_frame, decode_message, encode_cluster_frame, encode_cluster_frame_into,
    encode_message,
};
