//! The snapshot container and crash-safe file writes.
//!
//! ```text
//! snapshot := magic[8] version:u32 payload_len:u64 payload[payload_len] crc:u32
//! ```
//!
//! The CRC covers everything before it (magic, header and payload), so a bit
//! flip anywhere in the file is detected. `payload_len` must agree exactly
//! with the file size, so truncation and tacked-on garbage are both rejected
//! before the payload is even looked at.
//!
//! Files are written via [`write_atomic`]: the bytes go to a temporary file
//! in the same directory, are fsynced, and are renamed over the destination,
//! followed by an fsync of the directory. A crash at any point leaves either
//! the old snapshot or the new one — never a torn hybrid.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::ops::{Deref, DerefMut};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::codec::Writer;
use crate::crc32::crc32;
use crate::error::PersistError;

/// First eight bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CAPESNAP";

/// Snapshot format version written and accepted by this build.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Bytes of framing ahead of the payload: magic + version + length.
const HEADER: usize = 8 + 4 + 8;

/// Bytes of framing around the payload: the header plus the CRC.
const OVERHEAD: usize = HEADER + 4;

/// A [`Writer`] that builds the snapshot container in place: it starts out
/// holding the header, the payload is encoded straight behind it (the type
/// derefs to [`Writer`]), and [`SnapshotWriter::finish`] patches the payload
/// length and appends the CRC — no second buffer, no whole-payload copy.
#[derive(Debug)]
pub struct SnapshotWriter(Writer);

impl SnapshotWriter {
    /// A snapshot under construction with room for `payload_hint` payload
    /// bytes (plus the framing) already reserved. A hint that is too small
    /// only costs a reallocation.
    pub fn with_capacity(payload_hint: usize) -> Self {
        let mut w = Writer::with_capacity(payload_hint.saturating_add(OVERHEAD));
        w.put_raw(&SNAPSHOT_MAGIC);
        w.put_u32(SNAPSHOT_VERSION);
        w.put_u64(0);
        SnapshotWriter(w)
    }

    /// Seals the container and returns the complete snapshot file bytes.
    pub fn finish(self) -> Vec<u8> {
        let mut out = self.0.into_vec();
        let payload_len = (out.len() - HEADER) as u64;
        // In bounds: `with_capacity` wrote the `HEADER` bytes and a writer
        // only ever appends; the length word is the header's last eight.
        out[HEADER - 8..HEADER].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }
}

impl Deref for SnapshotWriter {
    type Target = Writer;
    fn deref(&self) -> &Writer {
        &self.0
    }
}

impl DerefMut for SnapshotWriter {
    fn deref_mut(&mut self) -> &mut Writer {
        &mut self.0
    }
}

/// Wraps `payload` in the versioned, CRC-guarded snapshot container.
pub fn encode_snapshot(payload: &[u8]) -> Vec<u8> {
    let mut w = SnapshotWriter::with_capacity(payload.len());
    w.put_raw(payload);
    w.finish()
}

/// Validates a snapshot container and returns its payload slice.
///
/// Magic, version, length agreement and CRC are all checked before a single
/// payload byte is interpreted; any failure is a typed [`PersistError`].
pub fn decode_snapshot(bytes: &[u8]) -> Result<&[u8], PersistError> {
    if bytes.len() < OVERHEAD {
        return Err(PersistError::UnexpectedEof {
            needed: OVERHEAD,
            remaining: bytes.len(),
        });
    }
    let mut magic = [0u8; 8];
    // In bounds: `bytes.len() >= OVERHEAD` (24) was checked above; the magic,
    // version and length words below all sit inside that fixed header.
    magic.copy_from_slice(&bytes[..8]);
    if magic != SNAPSHOT_MAGIC {
        return Err(PersistError::BadMagic {
            expected: SNAPSHOT_MAGIC,
            found: magic,
        });
    }
    // In bounds: inside the length-checked fixed header.
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != SNAPSHOT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    // In bounds: inside the length-checked fixed header.
    let claimed = u64::from_le_bytes([
        bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
    ]);
    let actual = (bytes.len() - OVERHEAD) as u64;
    if claimed != actual {
        return Err(PersistError::CorruptLength { claimed, actual });
    }
    let body_end = bytes.len() - 4;
    // In bounds: `bytes.len() >= OVERHEAD > 4`, so the four CRC bytes exist.
    let stored = u32::from_le_bytes([
        bytes[body_end],
        bytes[body_end + 1],
        bytes[body_end + 2],
        bytes[body_end + 3],
    ]);
    // In bounds: `body_end <= bytes.len()`.
    let computed = crc32(&bytes[..body_end]);
    if stored != computed {
        return Err(PersistError::CrcMismatch { stored, computed });
    }
    // In bounds: `HEADER = OVERHEAD - 4 <= body_end` by the length check.
    Ok(&bytes[HEADER..body_end])
}

/// Writes `bytes` to `path` crash-safely: temp file in the same directory,
/// fsync, atomic rename, directory fsync. On any failure the temp file is
/// removed and whatever `path` held before is left untouched.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    write_atomic_timed(path, bytes).map(drop)
}

/// [`write_atomic`], returning how long the data-file fsync took — usually
/// the largest single cost of the write, and the one a host wants to watch.
pub fn write_atomic_timed(path: &Path, bytes: &[u8]) -> Result<Duration, PersistError> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => Path::new(".").to_path_buf(),
    };
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let fsync = write_and_sync(&tmp, bytes)
        .and_then(|fsync| std::fs::rename(&tmp, path).map(|()| fsync))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;
    // Persist the rename itself: fsync the containing directory. Some
    // filesystems refuse to fsync a directory handle; that is not a torn
    // write, so such errors are ignored.
    if let Ok(d) = File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(fsync)
}

/// Creates (or truncates) `tmp`, writes `bytes` and fsyncs; returns the
/// fsync's duration.
fn write_and_sync(tmp: &Path, bytes: &[u8]) -> std::io::Result<Duration> {
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(tmp)?;
    f.write_all(bytes)?;
    let start = Instant::now();
    f.sync_all()?;
    Ok(start.elapsed())
}

/// Reads a snapshot file and returns its validated payload.
pub fn read_snapshot_file(path: &Path) -> Result<Vec<u8>, PersistError> {
    let mut bytes = std::fs::read(path)?;
    let payload_len = decode_snapshot(&bytes)?.len();
    // The container is valid, so the payload sits at `HEADER..HEADER +
    // payload_len`: trim the CRC and the header off the buffer already read
    // instead of copying the payload out of it.
    bytes.truncate(HEADER + payload_len);
    bytes.drain(..HEADER);
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_round_trips() {
        let payload = b"agent state goes here".to_vec();
        let file = encode_snapshot(&payload);
        assert_eq!(decode_snapshot(&file).unwrap(), &payload[..]);
        assert_eq!(
            decode_snapshot(&encode_snapshot(&[])).unwrap(),
            &[] as &[u8]
        );
    }

    #[test]
    fn every_truncation_is_rejected() {
        let file = encode_snapshot(b"0123456789abcdef");
        for cut in 0..file.len() {
            let err = decode_snapshot(&file[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes accepted");
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let file = encode_snapshot(b"sensitive checkpoint bytes");
        for byte in 0..file.len() {
            for bit in 0..8 {
                let mut corrupt = file.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    decode_snapshot(&corrupt).is_err(),
                    "flip at {byte}:{bit} accepted"
                );
            }
        }
    }

    #[test]
    fn wrong_version_and_magic_are_typed() {
        let file = encode_snapshot(b"x");
        let mut wrong_magic = file.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            decode_snapshot(&wrong_magic),
            Err(PersistError::BadMagic { .. })
        ));
        let mut wrong_version = file.clone();
        wrong_version[8] = 0xFF;
        // Re-CRC so the version check (not the CRC) is what fires.
        let body_end = wrong_version.len() - 4;
        let crc = crc32(&wrong_version[..body_end]).to_le_bytes();
        wrong_version[body_end..].copy_from_slice(&crc);
        assert!(matches!(
            decode_snapshot(&wrong_version),
            Err(PersistError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn atomic_write_round_trips_and_cleans_up() {
        let dir = std::env::temp_dir().join("capes-persist-test-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        write_atomic(&path, &encode_snapshot(b"first")).unwrap();
        assert_eq!(read_snapshot_file(&path).unwrap(), b"first");
        write_atomic(&path, &encode_snapshot(b"second")).unwrap();
        assert_eq!(read_snapshot_file(&path).unwrap(), b"second");
        assert!(!dir.join("snap.bin.tmp").exists(), "temp file left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `<path>.tmp` resolves to `/dev/full`, so the temp file opens but its
    /// first write fails with ENOSPC: the error must surface, the temp entry
    /// must be gone and the previous snapshot must still read back.
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_write_removes_the_temp_file_and_keeps_the_old_snapshot() {
        let dir = std::env::temp_dir().join("capes-persist-test-atomic-fail");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        write_atomic(&path, &encode_snapshot(b"old")).unwrap();
        let tmp = dir.join("snap.bin.tmp");
        std::os::unix::fs::symlink("/dev/full", &tmp).unwrap();

        let err = write_atomic(&path, &encode_snapshot(b"new")).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)), "{err}");
        assert!(
            std::fs::symlink_metadata(&tmp).is_err(),
            "temp entry left behind after a failed write"
        );
        assert_eq!(read_snapshot_file(&path).unwrap(), b"old");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_place_container_matches_the_wrapping_encoder() {
        // Too-small, exact and generous hints all yield the same bytes.
        for hint in [0, 13, 4096] {
            let mut w = SnapshotWriter::with_capacity(hint);
            w.put_u64(7);
            w.put_blob(|w| w.put_str("blob"));
            let mut payload = Writer::new();
            payload.put_u64(7);
            let mut sub = Writer::new();
            sub.put_str("blob");
            payload.put_bytes(sub.as_slice());
            assert_eq!(w.finish(), encode_snapshot(payload.as_slice()));
        }
        let empty = SnapshotWriter::with_capacity(0).finish();
        assert_eq!(decode_snapshot(&empty).unwrap(), &[] as &[u8]);
    }
}
