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
//! Neither direction holds the file image in memory. [`SnapshotWriter`]
//! streams the payload into the temporary file through the codec's fixed
//! window — each chunk is encoded, folded into the CRC and written while it
//! is cache-resident — under a placeholder header whose length word is
//! patched by seek at the end; `crc(header ‖ payload)` then comes from
//! [`combine`]. [`SnapshotFile`] reads in two passes over one open file:
//! the first verifies magic, version, length and CRC, and only then does the
//! second hand the payload to a windowed [`Reader`].
//!
//! Files replace their destination atomically: the bytes go to a temporary
//! file in the same directory, are fsynced, and are renamed over the
//! destination, followed by an fsync of the directory. A crash at any point
//! leaves either the old snapshot or the new one — never a torn hybrid.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::codec::{Reader, Writer, WINDOW};
use crate::crc32::{combine, crc32, Crc32};
use crate::error::PersistError;

/// First eight bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CAPESNAP";

/// Snapshot format version written and accepted by this build.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Bytes of framing ahead of the payload: magic + version + length.
const HEADER: usize = 8 + 4 + 8;

/// Offset of the length word inside the header.
const LEN_AT: usize = HEADER - 8;

/// Bytes of framing around the payload: the header plus the CRC.
const OVERHEAD: usize = HEADER + 4;

/// The header of a snapshot holding `payload_len` payload bytes.
fn header(payload_len: u64) -> [u8; HEADER] {
    let mut out = [0u8; HEADER];
    // In bounds: the three constant ranges tile the `HEADER`-byte array.
    out[..8].copy_from_slice(&SNAPSHOT_MAGIC);
    // In bounds: as above.
    out[8..LEN_AT].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    // In bounds: as above.
    out[LEN_AT..].copy_from_slice(&payload_len.to_le_bytes());
    out
}

/// Checks magic, version and the length word of `header` against the
/// payload bytes actually present; returns the payload length.
fn check_header(header: &[u8; HEADER], actual: u64) -> Result<u64, PersistError> {
    let mut magic = [0u8; 8];
    // In bounds: constant ranges inside the `HEADER`-byte array, here and
    // for the version and length words below.
    magic.copy_from_slice(&header[..8]);
    if magic != SNAPSHOT_MAGIC {
        return Err(PersistError::BadMagic {
            expected: SNAPSHOT_MAGIC,
            found: magic,
        });
    }
    // In bounds: inside the fixed header.
    let version = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if version != SNAPSHOT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    // In bounds: inside the fixed header.
    let claimed = u64::from_le_bytes([
        header[12], header[13], header[14], header[15], header[16], header[17], header[18],
        header[19],
    ]);
    if claimed != actual {
        return Err(PersistError::CorruptLength { claimed, actual });
    }
    Ok(claimed)
}

/// The temporary-file half of an atomic replace. Dropped uncommitted — an
/// error anywhere between [`AtomicFile::create`] and [`AtomicFile::commit`]
/// — it removes the temporary file, and whatever the destination held before
/// is left untouched.
#[derive(Debug)]
struct AtomicFile {
    file: File,
    tmp: PathBuf,
    dest: PathBuf,
    committed: bool,
}

impl AtomicFile {
    /// Creates (or truncates) `<path>.tmp`.
    fn create(path: &Path) -> std::io::Result<Self> {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .inspect_err(|_| {
                let _ = std::fs::remove_file(&tmp);
            })?;
        Ok(AtomicFile {
            file,
            tmp,
            dest: path.to_path_buf(),
            committed: false,
        })
    }

    /// The one data fsync, the rename over the destination and the directory
    /// fsync; returns how long the data fsync took, and the other two.
    fn commit(mut self) -> std::io::Result<(Duration, Duration)> {
        let started = Instant::now();
        self.file.sync_all()?;
        let fsync = started.elapsed();
        let started = Instant::now();
        std::fs::rename(&self.tmp, &self.dest)?;
        self.committed = true;
        // Persist the rename itself: fsync the containing directory. Some
        // filesystems refuse to fsync a directory handle; that is not a torn
        // write, so such errors are ignored.
        let dir = match self.dest.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        Ok((fsync, started.elapsed()))
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.committed {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Where one streamed snapshot's time went. The five durations are disjoint
/// and together cover [`SnapshotWriter::create`] to the end of
/// [`SnapshotWriter::finish`].
#[derive(Debug, Clone, Copy)]
pub struct SnapshotStats {
    /// Size of the snapshot file.
    pub bytes: u64,
    /// Encoding the payload into the window (everything the caller did
    /// between `create` and `finish`, minus the two rows below).
    pub encode: Duration,
    /// Folding the chunks into the CRC.
    pub crc: Duration,
    /// Creating the temporary file, writing the chunks, sealing the header.
    pub write: Duration,
    /// The data fsync.
    pub fsync: Duration,
    /// The rename over the destination and the directory fsync.
    pub dirsync: Duration,
}

/// A [`Writer`] that streams the snapshot container into `<path>.tmp` as the
/// payload is encoded (the type derefs to [`Writer`]): no buffer ever holds
/// more than the codec's window. [`SnapshotWriter::finish`] seals the
/// container and atomically replaces the destination; dropping the writer
/// instead — or any I/O error on the way — removes the temporary file.
#[derive(Debug)]
pub struct SnapshotWriter {
    writer: Writer,
    file: AtomicFile,
    created: Instant,
    /// Time spent creating the temporary file and its placeholder header.
    open_time: Duration,
}

impl SnapshotWriter {
    /// Starts a snapshot that will replace `path`.
    pub fn create(path: &Path) -> Result<Self, PersistError> {
        let created = Instant::now();
        let mut file = AtomicFile::create(path)?;
        // The length word is not known yet; it is patched in `finish`.
        file.file.write_all(&header(0))?;
        // A second handle on the same open file: the two share one offset,
        // so the writer's chunks land behind the header.
        let sink = file.file.try_clone()?;
        Ok(SnapshotWriter {
            writer: Writer::streaming(Box::new(sink)),
            file,
            created,
            open_time: created.elapsed(),
        })
    }

    /// Flushes the last chunk, appends the CRC, patches the payload length,
    /// then fsync + rename + directory fsync. `Ok` means the snapshot is
    /// durable at its destination; the first I/O error any chunk met
    /// surfaces here.
    pub fn finish(self) -> Result<SnapshotStats, PersistError> {
        let SnapshotWriter {
            writer,
            mut file,
            created,
            open_time,
        } = self;
        let encode = created
            .elapsed()
            .saturating_sub(open_time + writer.sink_time());
        let payload = writer.close()?;
        let started = Instant::now();
        let header = header(payload.len);
        let crc = combine(crc32(&header), payload.crc, payload.len);
        file.file.write_all(&crc.to_le_bytes())?;
        file.file.seek(SeekFrom::Start(LEN_AT as u64))?;
        // In bounds: `LEN_AT < HEADER`, the array's length.
        file.file.write_all(&header[LEN_AT..])?;
        let seal_time = started.elapsed();
        let (fsync, dirsync) = file.commit()?;
        Ok(SnapshotStats {
            bytes: payload.len + OVERHEAD as u64,
            encode,
            crc: payload.crc_time,
            write: open_time + payload.write_time + seal_time,
            fsync,
            dirsync,
        })
    }
}

impl Deref for SnapshotWriter {
    type Target = Writer;
    fn deref(&self) -> &Writer {
        &self.writer
    }
}

impl DerefMut for SnapshotWriter {
    fn deref_mut(&mut self) -> &mut Writer {
        &mut self.writer
    }
}

/// Wraps `payload` in the versioned, CRC-guarded snapshot container.
pub fn encode_snapshot(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + OVERHEAD);
    out.extend_from_slice(&header(payload.len() as u64));
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validates a snapshot container and returns its payload slice.
///
/// Magic, version, length agreement and CRC are all checked before a single
/// payload byte is interpreted; any failure is a typed [`PersistError`].
pub fn decode_snapshot(bytes: &[u8]) -> Result<&[u8], PersistError> {
    let Some((header, rest)) = bytes.split_first_chunk::<HEADER>() else {
        return Err(too_short(bytes.len() as u64));
    };
    let Some((payload, stored)) = rest.split_last_chunk::<4>() else {
        return Err(too_short(bytes.len() as u64));
    };
    check_header(header, payload.len() as u64)?;
    let mut crc = Crc32::new();
    crc.update(header);
    crc.update(payload);
    check_crc(*stored, crc)?;
    Ok(payload)
}

/// The error for an input too short to hold even an empty container.
fn too_short(len: u64) -> PersistError {
    PersistError::UnexpectedEof {
        needed: OVERHEAD,
        remaining: len as usize,
    }
}

fn check_crc(stored: [u8; 4], computed: Crc32) -> Result<(), PersistError> {
    let (stored, computed) = (u32::from_le_bytes(stored), computed.finish());
    if stored != computed {
        return Err(PersistError::CrcMismatch { stored, computed });
    }
    Ok(())
}

/// A snapshot file whose container has been verified, open for decoding.
#[derive(Debug)]
pub struct SnapshotFile {
    file: File,
    payload_len: usize,
}

impl SnapshotFile {
    /// Opens `path` and makes the verifying pass: magic, version, the length
    /// word against the file size, then the CRC over header and payload,
    /// streamed through one window. No payload byte is interpreted here, and
    /// none can be reached unless all four checks pass.
    pub fn open(path: &Path) -> Result<Self, PersistError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < OVERHEAD as u64 {
            return Err(too_short(file_len));
        }
        let mut header = [0u8; HEADER];
        file.read_exact(&mut header)?;
        let payload_len = check_header(&header, file_len - OVERHEAD as u64)?;
        let payload_len = usize::try_from(payload_len).map_err(|_| PersistError::BadValue {
            what: "snapshot larger than this platform's address space",
        })?;
        let mut crc = Crc32::new();
        crc.update(&header);
        let mut window = vec![0u8; WINDOW.min(payload_len)];
        let mut left = payload_len;
        while left > 0 {
            let n = left.min(window.len());
            // In bounds: `n <= window.len()` by the `min` above.
            let chunk = &mut window[..n];
            file.read_exact(chunk)?;
            crc.update(chunk);
            left -= n;
        }
        let mut stored = [0u8; 4];
        file.read_exact(&mut stored)?;
        check_crc(stored, crc)?;
        Ok(SnapshotFile { file, payload_len })
    }

    /// The decoding pass: a windowed [`Reader`] over the payload.
    pub fn reader(&mut self) -> Result<Reader<'_>, PersistError> {
        self.file.seek(SeekFrom::Start(HEADER as u64))?;
        Ok(Reader::streaming(&mut self.file, self.payload_len))
    }
}

/// Writes `bytes` to `path` crash-safely: temp file in the same directory,
/// fsync, atomic rename, directory fsync. On any failure the temp file is
/// removed and whatever `path` held before is left untouched.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let mut file = AtomicFile::create(path)?;
    file.file.write_all(bytes)?;
    file.commit()?;
    Ok(())
}

/// Reads a snapshot file whole and returns its validated payload.
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
    use crate::codec::Persist;

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

    /// A fresh scratch directory per test: tests run on parallel threads.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("capes-persist-test-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A payload several windows long with a blob in the middle, written by
    /// whichever writer is passed in.
    fn encode_sample(w: &mut Writer, floats: &[f64]) {
        w.put_u64(7);
        floats.to_vec().encode(w);
        w.put_blob(|w| {
            w.put_str("blob");
            floats[..100].to_vec().encode(w);
        });
        w.put_u8(9);
    }

    #[test]
    fn streamed_container_matches_the_wrapping_encoder() {
        let dir = scratch_dir("streamed");
        let path = dir.join("snap.bin");
        let floats: Vec<f64> = (0..(3 * WINDOW / 8 + 5)).map(|i| i as f64 * 0.5).collect();

        let mut w = SnapshotWriter::create(&path).unwrap();
        encode_sample(&mut w, &floats);
        let stats = w.finish().unwrap();
        let mut payload = Writer::new();
        encode_sample(&mut payload, &floats);
        let expected = encode_snapshot(payload.as_slice());
        assert!(
            std::fs::read(&path).unwrap() == expected,
            "streamed bytes differ"
        );
        assert_eq!(stats.bytes, expected.len() as u64);
        assert!(!dir.join("snap.bin.tmp").exists(), "temp file left behind");

        // … and streams back: verified first, then decoded window by window.
        let mut snapshot = SnapshotFile::open(&path).unwrap();
        assert_eq!(snapshot.payload_len, payload.len());
        let mut r = snapshot.reader().unwrap();
        assert_eq!(r.get_u64().unwrap(), 7);
        assert!(Vec::<f64>::decode(&mut r).unwrap() == floats);
        let blob = r.get_bytes().unwrap().to_vec();
        assert_eq!(r.get_u8().unwrap(), 9);
        r.finish().unwrap();
        let mut sub = Reader::new(&blob);
        assert_eq!(sub.get_str().unwrap(), "blob");
        assert!(Vec::<f64>::decode(&mut sub).unwrap() == floats[..100]);
        assert!(read_snapshot_file(&path).unwrap() == payload.as_slice());

        // An empty payload is a valid container too.
        SnapshotWriter::create(&path).unwrap().finish().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), encode_snapshot(&[]));
        assert_eq!(SnapshotFile::open(&path).unwrap().payload_len, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The file verifier and the slice verifier are one set of checks: they
    /// reject every truncation and every flipped bit with the same error.
    #[test]
    fn file_and_slice_verification_agree() {
        let dir = scratch_dir("verify");
        let path = dir.join("snap.bin");
        let file = encode_snapshot(b"sensitive checkpoint bytes");
        let verdict = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            let from_file = SnapshotFile::open(&path).map(|s| s.payload_len);
            let from_slice = decode_snapshot(bytes).map(|p| p.len());
            match (from_file, from_slice) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("file {a:?} vs slice {b:?}"),
            }
            decode_snapshot(bytes).is_ok()
        };
        assert!(verdict(&file));
        for cut in 0..file.len() {
            assert!(!verdict(&file[..cut]), "prefix of {cut} bytes accepted");
        }
        for byte in 0..file.len() {
            let mut corrupt = file.clone();
            corrupt[byte] ^= 1 << (byte % 8);
            assert!(!verdict(&corrupt), "flip in byte {byte} accepted");
        }
        let mut padded = file.clone();
        padded.push(0);
        assert!(!verdict(&padded), "tacked-on byte accepted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Abandoning a streamed snapshot — here by dropping the writer, as every
    /// `?` in a caller's encode path does — removes the temporary file and
    /// leaves the previous snapshot in place.
    #[test]
    fn abandoned_stream_removes_the_temp_file_and_keeps_the_old_snapshot() {
        let dir = scratch_dir("abandoned");
        let path = dir.join("snap.bin");
        write_atomic(&path, &encode_snapshot(b"old")).unwrap();
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.put_raw(&vec![1u8; 2 * WINDOW]);
        assert!(dir.join("snap.bin.tmp").exists());
        drop(w);
        assert!(!dir.join("snap.bin.tmp").exists(), "temp file left behind");
        assert_eq!(read_snapshot_file(&path).unwrap(), b"old");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The streamed counterpart of the `/dev/full` test above: the sink
    /// fails, the error surfaces, the temp entry is gone, the old snapshot
    /// still reads back.
    #[cfg(target_os = "linux")]
    #[test]
    fn failing_sink_removes_the_temp_file_and_keeps_the_old_snapshot() {
        let dir = scratch_dir("stream-fail");
        let path = dir.join("snap.bin");
        write_atomic(&path, &encode_snapshot(b"old")).unwrap();
        let tmp = dir.join("snap.bin.tmp");
        std::os::unix::fs::symlink("/dev/full", &tmp).unwrap();

        let err = SnapshotWriter::create(&path)
            .and_then(|mut w| {
                w.put_raw(&vec![1u8; 2 * WINDOW]);
                w.finish()
            })
            .unwrap_err();
        assert!(matches!(err, PersistError::Io(_)), "{err}");
        assert!(
            std::fs::symlink_metadata(&tmp).is_err(),
            "temp entry left behind after a failed write"
        );
        assert_eq!(read_snapshot_file(&path).unwrap(), b"old");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
