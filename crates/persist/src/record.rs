//! Append-only record log for wire-traffic capture.
//!
//! ```text
//! log    := magic[8] version:u32 record*
//! record := len:u32 payload[len] crc:u32        (crc over payload)
//! payload := tick:u64 cluster:u32 frame[..]
//! ```
//!
//! Each record carries its own CRC so a flipped bit is pinned to one record,
//! and its own length prefix validated against a hard cap and against the
//! bytes actually present **before** anything is interpreted. A torn tail —
//! the usual aftermath of a crash mid-append — surfaces as a typed
//! truncation error, never a partial record.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;

use crate::crc32::crc32;
use crate::error::PersistError;
use crate::snapshot::sync_dir;

/// First eight bytes of every record log.
pub const RECORD_LOG_MAGIC: [u8; 8] = *b"CAPESLOG";

/// Record-log format version written and accepted by this build.
pub const RECORD_LOG_VERSION: u32 = 1;

/// Cap on one record's payload. A wire frame is capped at 1 MiB by the
/// stream framing; the 16-byte tick/cluster header rides on top.
pub const MAX_RECORD_LEN: usize = (1 << 20) + 16;

/// One captured ingest event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordEntry {
    /// Fleet tick during which the frame arrived.
    pub tick: u64,
    /// Index of the cluster whose connection delivered it.
    pub cluster: u32,
    /// The canonical encoding of the message the ingest path decoded,
    /// without its cluster envelope: the recorder re-encodes the message
    /// rather than keeping the bytes that arrived.
    pub frame: Vec<u8>,
}

/// Streaming writer for a record log.
pub struct RecordLogWriter {
    out: BufWriter<File>,
    records: u64,
    /// The record being assembled; reused so a steady-state append allocates
    /// nothing.
    scratch: Vec<u8>,
}

impl RecordLogWriter {
    /// Creates (or truncates) the log at `path` and writes the header. The
    /// directory is fsynced once the file exists, so the log's name is
    /// durable from here on and every later [`RecordLogWriter::sync`] only
    /// needs to fsync the file.
    pub fn create(path: &Path) -> Result<Self, PersistError> {
        let mut out = BufWriter::new(File::create(path)?);
        sync_dir(path);
        out.write_all(&RECORD_LOG_MAGIC)?;
        out.write_all(&RECORD_LOG_VERSION.to_le_bytes())?;
        Ok(RecordLogWriter {
            out,
            records: 0,
            scratch: Vec::new(),
        })
    }

    /// Appends one `(tick, cluster, frame)` record.
    pub fn append(&mut self, tick: u64, cluster: u32, frame: &[u8]) -> Result<(), PersistError> {
        let len = 8 + 4 + frame.len();
        assert!(len <= MAX_RECORD_LEN, "frame exceeds the record cap");
        let record = &mut self.scratch;
        record.clear();
        record.extend_from_slice(&(len as u32).to_le_bytes());
        record.extend_from_slice(&tick.to_le_bytes());
        record.extend_from_slice(&cluster.to_le_bytes());
        record.extend_from_slice(frame);
        // In bounds: the four length bytes were pushed just above; the CRC
        // covers the payload behind them.
        let crc = crc32(&record[4..]);
        record.extend_from_slice(&crc.to_le_bytes());
        self.out.write_all(record)?;
        self.records += 1;
        Ok(())
    }

    /// Number of records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Flushes buffered records and fsyncs the file.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        Ok(())
    }

    /// Flushes, fsyncs and closes the log. `Ok` means every record and the
    /// log's directory entry are durable: a crash after it returns loses
    /// neither.
    pub fn finish(mut self) -> Result<u64, PersistError> {
        self.sync()?;
        Ok(self.records)
    }
}

/// In-memory reader over a complete record log.
pub struct RecordLogReader {
    bytes: Vec<u8>,
    pos: usize,
}

impl RecordLogReader {
    /// Validates the header of an in-memory log.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, PersistError> {
        if bytes.len() < 12 {
            return Err(PersistError::UnexpectedEof {
                needed: 12,
                remaining: bytes.len(),
            });
        }
        let mut magic = [0u8; 8];
        // In bounds: `bytes.len() >= 12` was checked above.
        magic.copy_from_slice(&bytes[..8]);
        if magic != RECORD_LOG_MAGIC {
            return Err(PersistError::BadMagic {
                expected: RECORD_LOG_MAGIC,
                found: magic,
            });
        }
        // In bounds: `bytes.len() >= 12` was checked above.
        let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        if version != RECORD_LOG_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: RECORD_LOG_VERSION,
            });
        }
        Ok(RecordLogReader { bytes, pos: 12 })
    }

    /// Reads and validates the log at `path`.
    pub fn open(path: &Path) -> Result<Self, PersistError> {
        Self::from_bytes(std::fs::read(path)?)
    }

    /// Returns the next record, `Ok(None)` at a clean end of log, or a typed
    /// error on a torn tail, oversized length or checksum failure.
    pub fn next_record(&mut self) -> Result<Option<RecordEntry>, PersistError> {
        let remaining = self.bytes.len() - self.pos;
        if remaining == 0 {
            return Ok(None);
        }
        if remaining < 4 {
            return Err(PersistError::UnexpectedEof {
                needed: 4,
                remaining,
            });
        }
        // In bounds: `remaining >= 4` was checked above.
        let len = u32::from_le_bytes([
            self.bytes[self.pos],
            self.bytes[self.pos + 1],
            self.bytes[self.pos + 2],
            self.bytes[self.pos + 3],
        ]) as usize;
        if len > MAX_RECORD_LEN {
            return Err(PersistError::CountTooLarge {
                count: len as u64,
                max: MAX_RECORD_LEN as u64,
            });
        }
        if len < 12 {
            return Err(PersistError::BadValue {
                what: "record shorter than its tick/cluster header",
            });
        }
        let body_start = self.pos + 4;
        let needed = len + 4;
        if self.bytes.len() - body_start < needed {
            return Err(PersistError::UnexpectedEof {
                needed,
                remaining: self.bytes.len() - body_start,
            });
        }
        // In bounds: `len + 4` bytes past `body_start` were checked above,
        // covering both the payload and the four CRC bytes at `crc_at`.
        let payload = &self.bytes[body_start..body_start + len];
        let crc_at = body_start + len;
        // In bounds: the same check covers the CRC word at `crc_at`.
        let stored = u32::from_le_bytes([
            self.bytes[crc_at],
            self.bytes[crc_at + 1],
            self.bytes[crc_at + 2],
            self.bytes[crc_at + 3],
        ]);
        let computed = crc32(payload);
        if stored != computed {
            return Err(PersistError::CrcMismatch { stored, computed });
        }
        // In bounds: `len >= 12` was checked above, so the payload holds the
        // 8-byte tick, the 4-byte cluster, and a possibly-empty frame tail.
        let tick = u64::from_le_bytes([
            payload[0], payload[1], payload[2], payload[3], payload[4], payload[5], payload[6],
            payload[7],
        ]);
        // In bounds: `len >= 12` was checked above.
        let cluster = u32::from_le_bytes([payload[8], payload[9], payload[10], payload[11]]);
        // In bounds: `len >= 12` was checked above.
        let frame = payload[12..].to_vec();
        self.pos = crc_at + 4;
        Ok(Some(RecordEntry {
            tick,
            cluster,
            frame,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("capes-persist-test-record");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Drains the log with `next_record`, failing on the first bad record.
    fn drain(r: &mut RecordLogReader) -> Result<Vec<RecordEntry>, PersistError> {
        std::iter::from_fn(|| r.next_record().transpose()).collect()
    }

    #[test]
    fn log_round_trips() {
        let path = temp_path("roundtrip.log");
        let mut w = RecordLogWriter::create(&path).unwrap();
        w.append(1, 0, b"alpha").unwrap();
        w.append(1, 1, b"").unwrap();
        w.append(2, 0, b"bravo").unwrap();
        assert_eq!(w.finish().unwrap(), 3);

        let entries = drain(&mut RecordLogReader::open(&path).unwrap()).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].tick, 1);
        assert_eq!(entries[0].frame, b"alpha");
        assert_eq!(entries[1].cluster, 1);
        assert_eq!(entries[2].frame, b"bravo");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appended_bytes_match_a_hand_assembled_record() {
        let path = temp_path("golden.log");
        let mut w = RecordLogWriter::create(&path).unwrap();
        w.append(0x0102_0304_0506_0708, 0x0A0B_0C0D, b"frame")
            .unwrap();
        // A shorter record after a longer one: nothing of the first may
        // linger in the reused scratch buffer.
        w.append(2, 1, b"").unwrap();
        w.finish().unwrap();

        let mut expected = b"CAPESLOG".to_vec();
        expected.extend_from_slice(&1u32.to_le_bytes());
        for (tick, cluster, frame) in [
            (0x0102_0304_0506_0708u64, 0x0A0B_0C0Du32, &b"frame"[..]),
            (2, 1, &b""[..]),
        ] {
            let mut payload = tick.to_le_bytes().to_vec();
            payload.extend_from_slice(&cluster.to_le_bytes());
            payload.extend_from_slice(frame);
            expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            expected.extend_from_slice(&payload);
            expected.extend_from_slice(&crc32(&payload).to_le_bytes());
        }
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_a_typed_error_at_every_cut() {
        let path = temp_path("torn.log");
        let mut w = RecordLogWriter::create(&path).unwrap();
        w.append(5, 2, b"payload bytes").unwrap();
        w.append(6, 3, b"more").unwrap();
        w.finish().unwrap();
        let full = std::fs::read(&path).unwrap();
        // Record boundaries: header, then 4+len+4 per record.
        let first_end = 12 + 4 + (8 + 4 + 13) + 4;
        for cut in 12..full.len() - 1 {
            let mut r = RecordLogReader::from_bytes(full[..cut].to_vec()).unwrap();
            let result = drain(&mut r);
            if cut == 12 || cut == first_end {
                // A cut exactly between records is a clean, shorter log.
                assert!(result.unwrap().len() <= 1);
            } else {
                assert!(result.is_err(), "cut at {cut} read cleanly");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipped_bits_are_caught() {
        let path = temp_path("flip.log");
        let mut w = RecordLogWriter::create(&path).unwrap();
        w.append(9, 1, b"precious frame").unwrap();
        w.finish().unwrap();
        let full = std::fs::read(&path).unwrap();
        // Flip each payload/crc byte; header flips hit magic/version checks.
        for byte in 12..full.len() {
            let mut corrupt = full.clone();
            corrupt[byte] ^= 0x10;
            let r = RecordLogReader::from_bytes(corrupt).and_then(|mut r| drain(&mut r));
            assert!(r.is_err(), "flip at byte {byte} accepted");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversized_length_rejected_before_use() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&RECORD_LOG_MAGIC);
        bytes.extend_from_slice(&RECORD_LOG_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = RecordLogReader::from_bytes(bytes).unwrap();
        assert!(matches!(
            r.next_record(),
            Err(PersistError::CountTooLarge { .. })
        ));
    }
}
