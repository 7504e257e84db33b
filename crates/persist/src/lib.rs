//! Durable binary persistence for CAPES checkpoints and wire-traffic logs,
//! and the workspace's one binary codec.
//!
//! This crate is the trust boundary between the process and the disk, and
//! its codec is the one the network input decodes through too. It provides:
//!
//! * a binary codec ([`Writer`] / [`Reader`]: little-endian words plus
//!   LEB128 varints) whose decoding side validates every length and count
//!   against the bytes actually present **before** allocating, and whose two
//!   ends work either on a whole buffer or, streaming, through a fixed 1 MiB
//!   window;
//! * a [`Persist`] trait implemented by every checkpointable type in the
//!   workspace and by the wire messages (`capes_agents::wire` keeps their
//!   frame layout);
//! * a versioned, CRC-guarded snapshot container
//!   (`CAPESNAP` magic + version + payload length + payload + CRC32),
//!   streamed to disk by [`SnapshotWriter`] and back by [`SnapshotFile`]
//!   without either ever holding the file image (an incremental [`Crc32`]
//!   folds each window as it passes), with
//!   crash-safe atomic writes (write-to-temp + fsync + rename + directory
//!   fsync) — a torn or truncated snapshot is detected and rejected, never
//!   half-loaded — and a [`SnapshotSlot`] that recycles the previous
//!   generation's file as the next temporary file; and
//! * an append-only record log (`CAPESLOG`) of `(tick, cluster, frame)`
//!   entries, each individually CRC-guarded, used to capture live socket
//!   ingest traffic for deterministic offline replay.
//!
//! The format contains no timestamps or other ambient state: encoding the
//! same logical state twice yields byte-identical output, which is what lets
//! the equivalence suite compare whole checkpoints with `==`.

#![deny(unsafe_code)]

mod codec;
mod crc32;
mod error;
mod record;
mod snapshot;

pub use codec::{Persist, Reader, Writer};
pub use crc32::{combine, crc32, Crc32};
pub use error::PersistError;
pub use record::{
    RecordEntry, RecordLogReader, RecordLogWriter, RECORD_LOG_MAGIC, RECORD_LOG_VERSION,
};
pub use snapshot::{
    decode_snapshot, encode_snapshot, read_snapshot_file, write_atomic, SnapshotFile, SnapshotSlot,
    SnapshotStats, SnapshotWriter, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
