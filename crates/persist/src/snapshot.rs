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
//! [`combine`]. [`SnapshotFile`] reads in passes over one open file: the
//! first verifies magic, version, length and CRC, and only then does each
//! later pass hand the payload to a windowed [`Reader`].
//!
//! Files replace their destination atomically: the bytes go to a temporary
//! file in the same directory, are fsynced, and are renamed over the
//! destination, followed by an fsync of the directory. A crash at any point
//! leaves either the old snapshot or the new one — never a torn hybrid.
//!
//! # The spare
//!
//! A [`SnapshotSlot`] owns one destination `<path>` and its spare
//! `<path>.tmp`: the file of the generation before the current one, kept so
//! the next snapshot overwrites an inode whose pages are cached and whose
//! blocks are allocated instead of creating a new one, and so the rename
//! never drops the last link to a snapshot (which would make the kernel
//! evict and free a whole snapshot inside the call). One round:
//!
//! 1. remove a stale `<path>.old`;
//! 2. open the spare without truncating it — only if it is a regular file
//!    with no other name, before and after the open, and no reader holds a
//!    lock on it (below); otherwise remove it and create it afresh — stream
//!    the snapshot into it, and `set_len` it to the new length (a reused
//!    spare may be longer);
//! 3. fsync it;
//! 4. `link(<path>, <path>.old)` — only if `<path>` is a regular file with
//!    no other name, so neither a symlink's target nor a hard-linked backup
//!    is ever recycled — then `rename(<path>.tmp, <path>)`, then
//!    `rename(<path>.old, <path>.tmp)`, then fsync the directory.
//!
//! If the link fails, that round keeps no spare and the next one creates a
//! fresh `<path>.tmp`. Dropping the slot removes the spare; the one-shot
//! [`SnapshotWriter::create`] and [`write_atomic`] drop theirs at the end,
//! so they leave nothing behind. A crash leaves one of these states, and
//! `<path>` is one complete snapshot in every one:
//!
//! | crash after | `<path>` | `<path>.tmp` | `<path>.old` | next round |
//! |---|---|---|---|---|
//! | step 2 or 3 | previous | partial new | — | overwrites `.tmp` |
//! | the link | previous | new | previous | removes `.old`, overwrites `.tmp` |
//! | the first rename | new | — | previous | removes `.old`, creates `.tmp` |
//! | the second rename | new | previous | — | overwrites `.tmp` |
//!
//! A reader may still hold the file a round turns into the spare: it opened
//! `<path>` before the rename. [`SnapshotFile`] and [`read_snapshot_file`]
//! therefore hold a shared lock on the file they read, and a slot writes a
//! spare in place only once it holds the exclusive lock on it — otherwise
//! it removes it and creates a fresh one — so the bytes a reader verified
//! are the bytes it decodes. The writer keeps that lock until its handles
//! close after the commit; a reader that opened the file meanwhile waits
//! for it and then reads the new snapshot whole. Readers that open a
//! snapshot by other means take no lock, and a file they hold across two
//! rounds may change under them.
//!
//! # Early writeback
//!
//! Every `FLUSH_EVERY` (4 MiB) bytes the streaming sink nudges a helper thread,
//! which `sync_data`s a second handle of the temporary file, so writeback
//! runs while the payload still streams. Nudges coalesce: one may wait while
//! a flush runs. The helper is joined before the final fsync, which then
//! finds little left to write, and its first error fails the snapshot: an
//! fsync error may already have marked the failed pages clean, so a later
//! fsync that succeeds proves nothing about them. Nothing returns early —
//! [`SnapshotWriter::finish`] still returns only after the final fsync and
//! the directory fsync, so `Ok` still means durable under `<path>`.

use std::fs::{File, Metadata, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write};
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, SyncSender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::codec::{Reader, Writer, WINDOW};
use crate::crc32::{combine, crc32, Crc32};
use crate::error::PersistError;

/// First eight bytes of every snapshot file.
pub(crate) const SNAPSHOT_MAGIC: [u8; 8] = *b"CAPESNAP";

/// Snapshot format version written and accepted by this build.
pub(crate) const SNAPSHOT_VERSION: u32 = 1;

/// Bytes of framing ahead of the payload: magic + version + length.
const HEADER: usize = 8 + 4 + 8;

/// Offset of the length word inside the header.
const LEN_AT: usize = HEADER - 8;

/// Bytes of framing around the payload: the header plus the CRC.
const OVERHEAD: usize = HEADER + 4;

/// Bytes a streamed snapshot writes between two early-writeback nudges.
const FLUSH_EVERY: u64 = 4 << 20;

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

/// Makes the latest change to `path`'s directory entry durable by fsyncing
/// the directory that holds it. Some filesystems refuse to fsync a
/// directory handle; that is not a torn write, so such errors are ignored.
pub(crate) fn sync_dir(path: &Path) {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// The identity (device, inode) of the file `meta` describes if a slot may
/// overwrite or recycle it: a regular file (not a symlink) with no other
/// name.
fn reusable_id(meta: std::io::Result<Metadata>) -> Option<(u64, u64)> {
    let meta = meta.ok()?;
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt as _;
        (meta.file_type().is_file() && meta.nlink() == 1).then(|| (meta.dev(), meta.ino()))
    }
    #[cfg(not(unix))]
    {
        let _ = meta;
        None
    }
}

/// Opens `path` for reading under a shared lock, held until the file is
/// closed: while it is held, no [`SnapshotSlot`] writes the file in place,
/// so the bytes verified are the bytes decoded. Waits while a slot is
/// writing the file. A filesystem without locks is read unlocked; a slot
/// there never writes in place either, since it cannot lock.
fn open_shared(path: &Path) -> std::io::Result<File> {
    let file = File::open(path)?;
    match file.lock_shared() {
        Err(e) if e.kind() != std::io::ErrorKind::Unsupported => Err(e),
        _ => Ok(file),
    }
}

/// A snapshot destination `<path>` and its spare `<path>.tmp`. Every
/// [`SnapshotSlot::writer`] replaces `<path>` atomically and keeps the
/// replaced generation's file as the next round's temporary file, which is
/// overwritten in place instead of created afresh: the rename never drops
/// the last link to a snapshot, and the new one lands on pages and blocks
/// that already exist. Only a regular file with no other name is ever
/// recycled, so a symlink's target or a hard-linked backup keeps its bytes.
/// A crash at any step leaves `<path>` one complete snapshot, the old or
/// the new. Dropping the slot removes the spare.
#[derive(Debug)]
pub struct SnapshotSlot {
    dest: PathBuf,
    tmp: PathBuf,
    old: PathBuf,
}

impl SnapshotSlot {
    /// A slot for `path`. Touches no file: a spare left by an earlier slot
    /// for the same path is picked up by the first [`SnapshotSlot::writer`].
    pub fn new(path: &Path) -> Self {
        let sibling = |suffix: &str| {
            let mut name = path.as_os_str().to_os_string();
            name.push(suffix);
            PathBuf::from(name)
        };
        SnapshotSlot {
            dest: path.to_path_buf(),
            tmp: sibling(".tmp"),
            old: sibling(".old"),
        }
    }

    /// The destination every snapshot of this slot replaces.
    pub fn path(&self) -> &Path {
        &self.dest
    }

    /// Starts a snapshot that will replace [`SnapshotSlot::path`], streamed
    /// into the spare.
    pub fn writer(&mut self) -> Result<SnapshotWriter<'_>, PersistError> {
        SnapshotWriter::start(SlotRef::Borrowed(self), Streaming::DEFAULT)
    }

    /// Removes a stale `<path>.old`, then opens the spare for writing from
    /// offset 0. It is written in place only if it is a regular file with
    /// no other name — checked on the name before the open, so nothing but
    /// a regular file is opened, and again after it, so a name swapped for
    /// a symlink in between is caught — and no reader holds a lock on it.
    /// Otherwise it is removed and created afresh.
    fn open_spare(&self) -> std::io::Result<File> {
        let _ = std::fs::remove_file(&self.old);
        if reusable_id(std::fs::symlink_metadata(&self.tmp)).is_some() {
            if let Ok(file) = OpenOptions::new().write(true).open(&self.tmp) {
                let opened = reusable_id(file.metadata());
                let named = reusable_id(std::fs::symlink_metadata(&self.tmp));
                // Held until the writer's handles close, after the commit.
                if opened.is_some() && opened == named && file.try_lock().is_ok() {
                    return Ok(file);
                }
            }
        }
        let _ = std::fs::remove_file(&self.tmp);
        OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&self.tmp)
    }
}

impl Drop for SnapshotSlot {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.tmp);
        let _ = std::fs::remove_file(&self.old);
    }
}

/// The slot behind an [`AtomicFile`]: borrowed from its owner, or owned by
/// a one-shot write and dropped with it.
#[derive(Debug)]
enum SlotRef<'a> {
    Owned(SnapshotSlot),
    Borrowed(&'a mut SnapshotSlot),
}

impl Deref for SlotRef<'_> {
    type Target = SnapshotSlot;
    fn deref(&self) -> &SnapshotSlot {
        match self {
            SlotRef::Owned(slot) => slot,
            SlotRef::Borrowed(slot) => slot,
        }
    }
}

/// The temporary-file half of an atomic replace. Dropped uncommitted — an
/// error anywhere between [`AtomicFile::create`] and [`AtomicFile::commit`]
/// — it removes the temporary file, and whatever the destination held before
/// is left untouched.
#[derive(Debug)]
struct AtomicFile<'a> {
    file: File,
    slot: SlotRef<'a>,
    committed: bool,
}

impl<'a> AtomicFile<'a> {
    /// Opens the slot's spare (see [`SnapshotSlot::open_spare`]).
    fn create(slot: SlotRef<'a>) -> std::io::Result<Self> {
        let file = slot.open_spare()?;
        Ok(AtomicFile {
            file,
            slot,
            committed: false,
        })
    }

    /// The one data fsync, then link → rename → rename and the directory
    /// fsync; returns how long the data fsync took, and the rest.
    fn commit(mut self) -> std::io::Result<(Duration, Duration)> {
        let started = Instant::now();
        self.file.sync_all()?;
        let fsync = started.elapsed();
        let started = Instant::now();
        let slot = &*self.slot;
        // A second name keeps the generation being replaced alive past the
        // rename, as the next round's spare.
        let keep = reusable_id(std::fs::symlink_metadata(&slot.dest)).is_some()
            && std::fs::hard_link(&slot.dest, &slot.old).is_ok();
        std::fs::rename(&slot.tmp, &slot.dest)?;
        self.committed = true;
        if keep {
            // On failure `.old` stays behind, and the next round removes it.
            let _ = std::fs::rename(&slot.old, &slot.tmp);
        }
        sync_dir(&slot.dest);
        Ok((fsync, started.elapsed()))
    }
}

impl Drop for AtomicFile<'_> {
    fn drop(&mut self) {
        if !self.committed {
            let _ = std::fs::remove_file(&self.slot.tmp);
        }
    }
}

/// How a [`SnapshotWriter`] streams: the codec window, the bytes between two
/// early-writeback nudges, the step that writes a chunk into the temporary
/// file, and the flush step the helper runs. Tests shrink the first two and
/// inject failing write and flush steps.
#[derive(Debug, Clone, Copy)]
struct Streaming {
    window: usize,
    flush_every: u64,
    write: fn(&mut File, &[u8]) -> std::io::Result<()>,
    flush: fn(&File) -> std::io::Result<()>,
}

impl Streaming {
    const DEFAULT: Streaming = Streaming {
        window: WINDOW,
        flush_every: FLUSH_EVERY,
        write: <File as Write>::write_all,
        flush: File::sync_data,
    };
}

/// The streaming sink of a [`SnapshotWriter`]: writes the chunks into the
/// temporary file and nudges the writeback helper every `every` bytes.
struct EarlyFlush {
    file: File,
    write: fn(&mut File, &[u8]) -> std::io::Result<()>,
    every: u64,
    unflushed: u64,
    nudge: SyncSender<()>,
}

impl Write for EarlyFlush {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        (self.write)(&mut self.file, buf)?;
        self.unflushed += buf.len() as u64;
        if self.unflushed >= self.every {
            self.unflushed = 0;
            // Full: a nudge is already waiting. Disconnected: the helper
            // failed, and `finish` reports why.
            let _ = self.nudge.try_send(());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

/// The early-writeback helper thread. It runs until every nudge sender is
/// gone or a flush fails; dropping the handle joins it.
#[derive(Debug)]
struct Writeback {
    helper: Option<JoinHandle<std::io::Result<Duration>>>,
}

impl Writeback {
    /// Starts the helper on `file`; returns it and the sender that nudges
    /// it.
    fn spawn(
        file: File,
        flush: fn(&File) -> std::io::Result<()>,
    ) -> std::io::Result<(Self, SyncSender<()>)> {
        let (nudge, nudged) = mpsc::sync_channel(1);
        let helper = std::thread::Builder::new()
            .name("capes-writeback".into())
            .spawn(move || {
                let mut spent = Duration::ZERO;
                while nudged.recv().is_ok() {
                    let started = Instant::now();
                    flush(&file)?;
                    spent += started.elapsed();
                }
                Ok(spent)
            })?;
        Ok((
            Writeback {
                helper: Some(helper),
            },
            nudge,
        ))
    }

    /// Waits for the helper, whose nudge sender must be gone; returns the
    /// time its flushes took, or its first error.
    fn join(&mut self) -> std::io::Result<Duration> {
        match self.helper.take() {
            Some(helper) => helper
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("writeback helper panicked"))),
            None => Ok(Duration::ZERO),
        }
    }
}

impl Drop for Writeback {
    fn drop(&mut self) {
        let _ = self.join();
    }
}

/// Where one streamed snapshot's time went. The five durations `encode`
/// to `dirsync` are disjoint and together cover the start of the write
/// ([`SnapshotWriter::create`] or [`SnapshotSlot::writer`]) to the end of
/// [`SnapshotWriter::finish`].
#[derive(Debug, Clone, Copy)]
pub struct SnapshotStats {
    /// Size of the snapshot file.
    pub bytes: u64,
    /// Encoding the payload into the window (everything the caller did
    /// between the start and `finish`, minus the two rows below).
    pub encode: Duration,
    /// Folding the chunks into the CRC.
    pub crc: Duration,
    /// Opening the temporary file, writing the chunks, sealing the header
    /// and cutting the file to length.
    pub write: Duration,
    /// Waiting for the early-writeback helper, then the data fsync.
    pub fsync: Duration,
    /// The link, the two renames and the directory fsync. Before the spare
    /// existed, the rename dropped the last link to the previous snapshot,
    /// and most of this was the kernel evicting and freeing it.
    pub dirsync: Duration,
    /// The helper's `sync_data` calls while the payload streamed. They run
    /// concurrently with the rows above, so this lies outside the partition.
    pub writeback: Duration,
}

/// A [`Writer`] that streams the snapshot container into `<path>.tmp` as the
/// payload is encoded (the type derefs to [`Writer`]): no buffer ever holds
/// more than the codec's window. [`SnapshotWriter::finish`] seals the
/// container and atomically replaces the destination; dropping the writer
/// instead — or any I/O error on the way — removes the temporary file.
#[derive(Debug)]
pub struct SnapshotWriter<'a> {
    // Drop order matters: the writer owns the sink and with it the nudge
    // sender, so it goes first and the writeback join below can finish.
    writer: Writer,
    writeback: Writeback,
    file: AtomicFile<'a>,
    started: Instant,
    /// Time spent opening the temporary file and writing its placeholder
    /// header.
    open_time: Duration,
}

impl SnapshotWriter<'static> {
    /// Starts a one-shot snapshot that will replace `path`: the write goes
    /// through a [`SnapshotSlot`] of its own, dropped by `finish`, so no
    /// spare is left behind.
    pub fn create(path: &Path) -> Result<Self, PersistError> {
        Self::start(SlotRef::Owned(SnapshotSlot::new(path)), Streaming::DEFAULT)
    }
}

impl<'a> SnapshotWriter<'a> {
    fn start(slot: SlotRef<'a>, streaming: Streaming) -> Result<Self, PersistError> {
        let started = Instant::now();
        let mut file = AtomicFile::create(slot)?;
        // The length word is not known yet; it is patched in `finish`.
        file.file.write_all(&header(0))?;
        let (writeback, nudge) = Writeback::spawn(file.file.try_clone()?, streaming.flush)?;
        // A second handle on the same open file: the two share one offset,
        // so the writer's chunks land behind the header.
        let sink = EarlyFlush {
            file: file.file.try_clone()?,
            write: streaming.write,
            every: streaming.flush_every,
            unflushed: 0,
            nudge,
        };
        Ok(SnapshotWriter {
            writer: Writer::streaming_with_window(Box::new(sink), streaming.window),
            writeback,
            file,
            started,
            open_time: started.elapsed(),
        })
    }

    /// Flushes the last chunk, appends the CRC, patches the payload length,
    /// cuts the file to length, joins the early-writeback helper, then
    /// fsync + link + renames + directory fsync. `Ok` means the snapshot is
    /// durable at its destination; the first I/O error any chunk or early
    /// flush met surfaces here.
    pub fn finish(self) -> Result<SnapshotStats, PersistError> {
        let SnapshotWriter {
            writer,
            mut writeback,
            mut file,
            started,
            open_time,
        } = self;
        let encode = started
            .elapsed()
            .saturating_sub(open_time + writer.sink_time());
        // Closing drops the sink, and with it the helper's nudge sender.
        let payload = writer.close()?;
        let sealing = Instant::now();
        let header = header(payload.len);
        let crc = combine(crc32(&header), payload.crc, payload.len);
        file.file.write_all(&crc.to_le_bytes())?;
        file.file.seek(SeekFrom::Start(LEN_AT as u64))?;
        // In bounds: `LEN_AT < HEADER`, the array's length.
        file.file.write_all(&header[LEN_AT..])?;
        let bytes = payload.len + OVERHEAD as u64;
        // A reused spare may be longer than this snapshot.
        file.file.set_len(bytes)?;
        let seal_time = sealing.elapsed();
        let joining = Instant::now();
        let writeback_time = writeback.join()?;
        let join_time = joining.elapsed();
        let (fsync, dirsync) = file.commit()?;
        Ok(SnapshotStats {
            bytes,
            encode,
            crc: payload.crc_time,
            write: open_time + payload.write_time + seal_time,
            fsync: join_time + fsync,
            dirsync,
            writeback: writeback_time,
        })
    }
}

impl Deref for SnapshotWriter<'_> {
    type Target = Writer;
    fn deref(&self) -> &Writer {
        &self.writer
    }
}

impl DerefMut for SnapshotWriter<'_> {
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
    ///
    /// The file stays under a shared lock until this value drops, so no
    /// [`SnapshotSlot`] overwrites it between the verifying pass and the
    /// decoding passes.
    pub fn open(path: &Path) -> Result<Self, PersistError> {
        let mut file = open_shared(path)?;
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

    /// A decoding pass: a windowed [`Reader`] over the payload, from its
    /// first byte. Each call starts a new pass over the same verified bytes,
    /// so a caller can check a payload whole before it applies any of it.
    pub fn reader(&mut self) -> Result<Reader<'_>, PersistError> {
        self.file.seek(SeekFrom::Start(HEADER as u64))?;
        Ok(Reader::streaming(&mut self.file, self.payload_len))
    }
}

/// Writes `bytes` to `path` crash-safely: temp file in the same directory,
/// fsync, atomic rename, directory fsync, like a one-shot
/// [`SnapshotWriter::create`]. On any failure the temp file is removed and
/// whatever `path` held before is left untouched.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    write_atomic_with(path, bytes, Streaming::DEFAULT.write)
}

/// [`write_atomic`] with its write step replaced, so tests can fail it.
fn write_atomic_with(
    path: &Path,
    bytes: &[u8],
    write: fn(&mut File, &[u8]) -> std::io::Result<()>,
) -> Result<(), PersistError> {
    let mut file = AtomicFile::create(SlotRef::Owned(SnapshotSlot::new(path)))?;
    write(&mut file.file, bytes)?;
    file.file.set_len(bytes.len() as u64)?;
    file.commit()?;
    Ok(())
}

/// Reads a snapshot file whole, under the shared lock [`SnapshotFile`]
/// takes, and returns its validated payload.
pub fn read_snapshot_file(path: &Path) -> Result<Vec<u8>, PersistError> {
    let mut bytes = Vec::new();
    open_shared(path)?.read_to_end(&mut bytes)?;
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
        let payload = payload.into_vec();
        let expected = encode_snapshot(&payload);
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
        assert!(read_snapshot_file(&path).unwrap() == payload);

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

    /// The test constructor: a slot writer with its window, nudge interval
    /// and flush step replaced.
    impl SnapshotSlot {
        fn writer_with(
            &mut self,
            streaming: Streaming,
        ) -> Result<SnapshotWriter<'_>, PersistError> {
            SnapshotWriter::start(SlotRef::Borrowed(self), streaming)
        }
    }

    /// One snapshot of `payload` through `slot`.
    fn write_with(slot: &mut SnapshotSlot, payload: &[u8]) -> SnapshotStats {
        let mut w = slot.writer().unwrap();
        w.put_raw(payload);
        w.finish().unwrap()
    }

    /// `<path>`, `<path>.tmp` and `<path>.old` inside a fresh directory.
    fn slot_paths(name: &str) -> (PathBuf, PathBuf, PathBuf, PathBuf) {
        let dir = scratch_dir(name);
        let path = dir.join("snap.bin");
        (
            path,
            dir.join("snap.bin.tmp"),
            dir.join("snap.bin.old"),
            dir,
        )
    }

    #[cfg(unix)]
    fn inode(path: &Path) -> u64 {
        std::os::unix::fs::MetadataExt::ino(&std::fs::symlink_metadata(path).unwrap())
    }

    /// From the second round on, the spare holds the generation before the
    /// current one, and the round after that overwrites its inode.
    #[cfg(unix)]
    #[test]
    fn slot_rounds_recycle_the_previous_generation() {
        let (path, tmp, old, dir) = slot_paths("slot-rounds");
        let mut slot = SnapshotSlot::new(&path);
        assert_eq!(slot.path(), path);
        let payloads: [&[u8]; 4] = [b"first", b"second, longer", b"third", b"4"];
        let mut inodes = Vec::new();
        for (round, payload) in payloads.iter().enumerate() {
            let stats = write_with(&mut slot, payload);
            let expected = encode_snapshot(payload);
            assert_eq!(std::fs::read(&path).unwrap(), expected);
            assert_eq!(stats.bytes, expected.len() as u64);
            assert!(!old.exists(), "round {round} left `.old` behind");
            if round == 0 {
                assert!(!tmp.exists(), "no previous generation to keep");
            } else {
                let previous = encode_snapshot(payloads[round - 1]);
                assert_eq!(std::fs::read(&tmp).unwrap(), previous);
            }
            inodes.push(inode(&path));
        }
        assert_eq!(inodes[2], inodes[0], "round 3 did not reuse round 1's file");
        assert_eq!(inodes[3], inodes[1], "round 4 did not reuse round 2's file");
        drop(slot);
        assert!(
            !tmp.exists() && !old.exists(),
            "the slot's drop left a file"
        );
        assert_eq!(read_snapshot_file(&path).unwrap(), b"4");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A spare that gained a second name is never written in place, and
    /// neither is a destination that did: the other name keeps its bytes.
    #[cfg(unix)]
    #[test]
    fn spare_with_another_name_is_never_written_in_place() {
        let (path, tmp, _old, dir) = slot_paths("slot-nlink");
        let mut slot = SnapshotSlot::new(&path);
        write_with(&mut slot, b"gen 1");
        write_with(&mut slot, b"gen 2");
        let backup = dir.join("backup-of-spare");
        std::fs::hard_link(&tmp, &backup).unwrap();
        write_with(&mut slot, b"gen 3");
        assert_eq!(std::fs::read(&backup).unwrap(), encode_snapshot(b"gen 1"));
        assert_eq!(read_snapshot_file(&path).unwrap(), b"gen 3");

        // A hard-linked snapshot is not recycled at all.
        let kept = dir.join("backup-of-snapshot");
        std::fs::hard_link(&path, &kept).unwrap();
        write_with(&mut slot, b"gen 4");
        for payload in [&b"gen 5"[..], b"gen 6"] {
            write_with(&mut slot, payload);
            assert_eq!(std::fs::read(&kept).unwrap(), encode_snapshot(b"gen 3"));
            assert_eq!(read_snapshot_file(&path).unwrap(), payload);
        }
        assert_eq!(std::fs::read(&backup).unwrap(), encode_snapshot(b"gen 1"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A symlinked `<path>`: the rename replaces the link, its target is
    /// never written, and `.tmp` never becomes a symlink.
    #[cfg(unix)]
    #[test]
    fn symlinked_destination_target_is_never_written() {
        let (path, tmp, _old, dir) = slot_paths("slot-symlink-dest");
        let target = dir.join("target");
        std::fs::write(&target, b"target bytes").unwrap();
        std::os::unix::fs::symlink(&target, &path).unwrap();
        let mut slot = SnapshotSlot::new(&path);
        for payload in [&b"one"[..], b"two", b"three"] {
            write_with(&mut slot, payload);
            assert_eq!(std::fs::read(&target).unwrap(), b"target bytes");
            assert!(std::fs::symlink_metadata(&path).unwrap().is_file());
            assert_eq!(read_snapshot_file(&path).unwrap(), payload);
            if let Ok(meta) = std::fs::symlink_metadata(&tmp) {
                assert!(meta.is_file(), "`.tmp` became {:?}", meta.file_type());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A `.tmp` that is a symlink — here to a file that must keep its
    /// bytes — is removed and created afresh, never written through.
    #[cfg(unix)]
    #[test]
    fn symlinked_spare_is_replaced_not_followed() {
        let (path, tmp, _old, dir) = slot_paths("slot-symlink-tmp");
        write_atomic(&path, &encode_snapshot(b"old")).unwrap();
        let victim = dir.join("victim");
        std::fs::write(&victim, b"keep me").unwrap();
        std::os::unix::fs::symlink(&victim, &tmp).unwrap();
        write_atomic(&path, &encode_snapshot(b"new")).unwrap();
        assert_eq!(std::fs::read(&victim).unwrap(), b"keep me");
        assert_eq!(read_snapshot_file(&path).unwrap(), b"new");
        assert!(
            std::fs::symlink_metadata(&tmp).is_err(),
            "a one-shot write left its temp entry"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A shorter snapshot streamed into a longer spare verifies: `set_len`
    /// cut the old generation's tail. And a longer one grows a short spare.
    #[test]
    fn shorter_snapshot_in_a_longer_spare_verifies() {
        let (path, _tmp, _old, dir) = slot_paths("slot-shorter");
        let long = vec![0xA5u8; 3 * WINDOW + 17];
        let mut slot = SnapshotSlot::new(&path);
        write_with(&mut slot, &long);
        write_with(&mut slot, &long);
        for payload in [&b"short"[..], &long, b"", &long[..WINDOW]] {
            write_with(&mut slot, payload);
            assert!(SnapshotFile::open(&path).is_ok());
            assert!(std::fs::read(&path).unwrap() == encode_snapshot(payload));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A stale `<path>.old` — an unrelated file, or a second name of
    /// `<path>` — is removed before anything is written.
    #[test]
    fn stale_old_is_removed_first() {
        let (path, tmp, old, dir) = slot_paths("slot-stale-old");
        let mut slot = SnapshotSlot::new(&path);
        write_with(&mut slot, b"first");
        std::fs::write(&old, b"junk").unwrap();
        let w = slot.writer().unwrap();
        assert!(!old.exists(), "stale `.old` survived the start of a round");
        w.finish().unwrap();

        std::fs::hard_link(&path, &old).unwrap();
        write_with(&mut slot, b"third");
        assert!(!old.exists());
        // With the stale name gone, `<path>` had one name again and was
        // kept as the spare.
        assert_eq!(std::fs::read(&tmp).unwrap(), encode_snapshot(b""));
        assert_eq!(read_snapshot_file(&path).unwrap(), b"third");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash — a slot dropped without running its destructor — after a
    /// torn write or after every prefix of link → rename → rename, done by
    /// hand: `<path>` verifies as the previous or the new snapshot, and the
    /// next round succeeds with the same bytes as a one-shot write.
    #[test]
    fn every_crash_point_leaves_a_complete_snapshot() {
        let new = encode_snapshot(b"new");
        for steps in 0..=4usize {
            let (path, tmp, old, dir) = slot_paths(&format!("slot-crash-{steps}"));
            let mut slot = SnapshotSlot::new(&path);
            write_with(&mut slot, b"first");
            write_with(&mut slot, b"previous");
            std::mem::forget(slot);

            // Step 0 is a torn write; the others write `.tmp` whole first.
            let written = if steps == 0 { &new[..7] } else { &new[..] };
            std::fs::write(&tmp, written).unwrap();
            let commit: [&dyn Fn() -> std::io::Result<()>; 3] = [
                &|| std::fs::hard_link(&path, &old),
                &|| std::fs::rename(&tmp, &path),
                &|| std::fs::rename(&old, &tmp),
            ];
            for step in commit.iter().take(steps.saturating_sub(1)) {
                step().unwrap();
            }
            assert!(SnapshotFile::open(&path).is_ok(), "after {steps} steps");
            let expected: &[u8] = if steps >= 3 { b"new" } else { b"previous" };
            assert_eq!(read_snapshot_file(&path).unwrap(), expected);

            let mut slot = SnapshotSlot::new(&path);
            write_with(&mut slot, b"after");
            assert_eq!(std::fs::read(&path).unwrap(), encode_snapshot(b"after"));
            assert!(!old.exists(), "after {steps} steps: `.old` survived");
            drop(slot);
            assert!(!tmp.exists() && !old.exists());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// The early flush runs while the payload streams, and the bytes are
    /// the same as without it.
    #[test]
    fn early_flush_runs_while_the_payload_streams() {
        static FLUSHES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let (path, _tmp, _old, dir) = slot_paths("slot-flush");
        let payload: Vec<u8> = (0..64 * 1024).map(|i| (i * 7 % 251) as u8).collect();
        let mut slot = SnapshotSlot::new(&path);
        let mut w = slot
            .writer_with(Streaming {
                window: 64,
                flush_every: 4096,
                flush: |file| {
                    FLUSHES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    file.sync_data()
                },
                ..Streaming::DEFAULT
            })
            .unwrap();
        w.put_raw(&payload);
        w.finish().unwrap();
        let flushes = FLUSHES.load(std::sync::atomic::Ordering::Relaxed);
        assert!((1..=16).contains(&flushes), "{flushes} early flushes");
        assert!(std::fs::read(&path).unwrap() == encode_snapshot(&payload));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A failing early flush fails `finish`: the error surfaces, the temp
    /// entry is gone, the old snapshot still reads back.
    #[test]
    fn failing_early_flush_fails_finish_and_removes_the_temp_file() {
        let (path, tmp, _old, dir) = slot_paths("slot-flush-fail");
        write_atomic(&path, &encode_snapshot(b"old")).unwrap();
        let mut slot = SnapshotSlot::new(&path);
        let mut w = slot
            .writer_with(Streaming {
                window: 64,
                flush_every: 256,
                flush: |_| Err(std::io::Error::other("injected writeback failure")),
                ..Streaming::DEFAULT
            })
            .unwrap();
        w.put_raw(&[7u8; 4096]);
        let err = w.finish().unwrap_err();
        assert!(matches!(err, PersistError::Io(_)), "{err}");
        assert!(err.to_string().contains("injected"), "{err}");
        assert!(
            std::fs::symlink_metadata(&tmp).is_err(),
            "temp entry left behind after a failed flush"
        );
        assert_eq!(read_snapshot_file(&path).unwrap(), b"old");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A write step that fails like a full disk once the file would grow
    /// past 4 KiB.
    fn full_disk(file: &mut File, buf: &[u8]) -> std::io::Result<()> {
        if file.stream_position()? + buf.len() as u64 > 4096 {
            return Err(std::io::ErrorKind::StorageFull.into());
        }
        file.write_all(buf)
    }

    /// After a failed write: the error was an I/O error, neither `.tmp` nor
    /// `.old` is left, `<path>` still reads back as `old`, and the next
    /// round succeeds.
    fn assert_failed_write_left_old(err: PersistError, (path, tmp, old): (&Path, &Path, &Path)) {
        assert!(
            matches!(&err, PersistError::Io(e) if e.kind() == std::io::ErrorKind::StorageFull),
            "{err}"
        );
        assert!(
            std::fs::symlink_metadata(tmp).is_err(),
            "temp entry left behind after a failed write"
        );
        assert!(
            std::fs::symlink_metadata(old).is_err(),
            "`.old` left behind"
        );
        assert_eq!(read_snapshot_file(path).unwrap(), b"old");
        write_atomic(path, &encode_snapshot(b"next")).unwrap();
        assert_eq!(read_snapshot_file(path).unwrap(), b"next");
    }

    /// `write_atomic` into a reused spare whose write fails part-way: the
    /// error surfaces and the temp file is removed, the old snapshot kept.
    #[test]
    fn failed_write_removes_the_temp_file_and_keeps_the_old_snapshot() {
        let (path, tmp, old, dir) = slot_paths("atomic-fail");
        let mut slot = SnapshotSlot::new(&path);
        write_with(&mut slot, &[1u8; 8192]);
        write_with(&mut slot, b"old");
        std::mem::forget(slot);
        assert!(tmp.exists(), "no spare to write into");

        let err = write_atomic_with(&path, &encode_snapshot(&[2u8; 8192]), full_disk).unwrap_err();
        assert_failed_write_left_old(err, (&path, &tmp, &old));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A streamed snapshot whose sink fails part-way, in a fresh temp file
    /// and in a reused spare: the latched error comes out of `finish`, the
    /// temp file is removed, and the old snapshot is kept.
    #[test]
    fn failing_sink_removes_the_temp_file_and_keeps_the_old_snapshot() {
        for reused in [false, true] {
            let (path, tmp, old, dir) = slot_paths(&format!("stream-fail-{reused}"));
            let mut slot = SnapshotSlot::new(&path);
            if reused {
                write_with(&mut slot, &[1u8; 8192]);
            }
            write_with(&mut slot, b"old");
            assert_eq!(tmp.exists(), reused);
            let mut w = slot
                .writer_with(Streaming {
                    window: 64,
                    write: full_disk,
                    ..Streaming::DEFAULT
                })
                .unwrap();
            w.put_raw(&[2u8; 8192]);
            let err = w.finish().unwrap_err();
            assert_failed_write_left_old(err, (&path, &tmp, &old));
            drop(slot);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A snapshot opened and verified, then held across the round that
    /// makes its file the spare and the round that would overwrite it,
    /// decodes as the bytes it verified: the reader's lock kept the slot
    /// off the file, and recycling resumes once the reader is gone.
    #[cfg(unix)]
    #[test]
    fn open_reader_keeps_its_file_from_being_recycled() {
        let (path, tmp, _old, dir) = slot_paths("slot-reader");
        let mut slot = SnapshotSlot::new(&path);
        write_with(&mut slot, b"gen 1");
        write_with(&mut slot, b"gen 2");
        let mut held = SnapshotFile::open(&path).unwrap();
        let held_inode = inode(&path);
        write_with(&mut slot, b"gen 3");
        assert_eq!(inode(&tmp), held_inode, "gen 2 is not the spare");
        let gen3_inode = inode(&path);
        write_with(&mut slot, b"gen 4");
        assert_ne!(inode(&path), held_inode, "a held file was written in place");

        let mut r = held.reader().unwrap();
        let bytes: Vec<u8> = (0..5).map(|_| r.get_u8().unwrap()).collect();
        r.finish().unwrap();
        assert_eq!(bytes, b"gen 2");
        drop(held);

        write_with(&mut slot, b"gen 5");
        assert_eq!(inode(&path), gen3_inode, "recycling did not resume");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
