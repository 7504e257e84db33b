//! The binary codec underneath snapshots, record logs and wire frames.
//!
//! Fixed-width integers are little-endian; [`Writer::put_varint`] writes
//! minimal LEB128 varints (1–10 bytes), which the wire frames use for ticks,
//! ids and counts, and [`Reader::get_varint`] accepts no other form.
//!
//! Encoding is infallible appends to a byte vector. Decoding treats the
//! input as hostile: every read is bounds-checked, every collection count is
//! validated against the bytes that remain **before** any allocation, floats
//! travel as raw IEEE-754 bits (so infinities, NaNs and signed zeros
//! round-trip exactly), and booleans and enum tags reject values outside
//! their encoding. Iteration-order-dependent containers are written in
//! sorted key order so that encoding the same logical state twice yields
//! byte-identical output.
//!
//! Both ends also work **in pieces**, through a fixed window, so a snapshot
//! never has to exist in memory as one file image. A [`Writer`] given a sink
//! hands its buffer over (CRC folded in on the way, while the bytes are
//! still cache-resident) whenever the next value would overflow the window;
//! a [`Reader`] given a source refills its window as values are consumed.
//! The bytes are the same either way: a value that straddles a window edge
//! is assembled before it leaves the buffer or is interpreted.

use std::collections::HashMap;
use std::hash::Hash;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

use crate::crc32::Crc32;
use crate::error::PersistError;

/// Bytes a streaming [`Writer`] or [`Reader`] holds at a time, and the
/// largest single `write`/`read` either issues. Sized to stay L2-resident, so
/// a chunk is encoded, checksummed and written (or read, checksummed and
/// decoded) without a round trip to memory.
pub(crate) const WINDOW: usize = 1 << 20;

/// Smallest window the crate-private constructors accept: one 8-byte word
/// must fit.
const MIN_WINDOW: usize = 16;

/// Where a streaming [`Writer`] drains to, and what it learns on the way.
struct Sink {
    out: Box<dyn Write>,
    /// CRC of every byte handed to `out` so far.
    crc: Crc32,
    /// The first I/O error; once set, later chunks are dropped unwritten.
    error: Option<std::io::Error>,
    /// Time spent checksumming and writing, accumulated chunk by chunk.
    crc_time: Duration,
    write_time: Duration,
}

/// What a streaming [`Writer`] reports when it is closed.
pub(crate) struct Drained {
    /// Bytes written to the sink.
    pub len: u64,
    /// CRC-32 of those bytes.
    pub crc: u32,
    /// Time spent checksumming, summed over the chunks.
    pub crc_time: Duration,
    /// Time spent in the sink's `write`, summed over the chunks.
    pub write_time: Duration,
}

/// Append-only encoder: into memory, or through a fixed window into a sink.
pub struct Writer {
    buf: Vec<u8>,
    /// Bytes `buf` may hold before it is drained; `usize::MAX` without a
    /// sink, so an in-memory writer never drains.
    window: usize,
    /// Bytes already handed to the sink: `drained + buf.len()` is the
    /// position in the encoded stream.
    drained: u64,
    /// Stream position of the outermost open [`Writer::put_blob`]'s length
    /// slot. Nothing from there on may leave the buffer until the slot has
    /// been back-patched.
    pin: Option<u64>,
    sink: Option<Sink>,
}

impl std::fmt::Debug for Writer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Writer")
            .field("buffered", &self.buf.len())
            .field("drained", &self.drained)
            .field("streaming", &self.sink.is_some())
            .finish()
    }
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer {
    /// An empty in-memory writer.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty in-memory writer whose buffer already holds room for
    /// `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::appending(Vec::with_capacity(capacity))
    }

    /// An in-memory writer that appends after `buf`'s bytes, reusing its
    /// capacity: a caller framing many messages into one reused buffer
    /// hands it in and takes it back with [`Writer::into_vec`], and once the
    /// buffer has grown to its working size nothing allocates. Positions
    /// ([`Writer::len`]) count `buf`'s bytes too.
    pub fn appending(buf: Vec<u8>) -> Self {
        Writer {
            buf,
            window: usize::MAX,
            drained: 0,
            pin: None,
            sink: None,
        }
    }

    /// A writer that streams into `out` through a `window`-byte buffer:
    /// [`WINDOW`] for snapshots, shrunk in tests so every value straddles a
    /// drain.
    pub(crate) fn streaming_with_window(out: Box<dyn Write>, window: usize) -> Self {
        assert!(window >= MIN_WINDOW, "window must hold one word");
        Writer {
            buf: Vec::with_capacity(window),
            window,
            drained: 0,
            pin: None,
            sink: Some(Sink {
                out,
                crc: Crc32::new(),
                error: None,
                crc_time: Duration::ZERO,
                write_time: Duration::ZERO,
            }),
        }
    }

    /// Consumes the writer, returning the bytes still buffered — all of them
    /// for an in-memory writer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes encoded so far.
    pub fn len(&self) -> usize {
        self.position() as usize
    }

    /// `true` if nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.position() == 0
    }

    /// Position in the encoded stream: bytes drained plus bytes buffered.
    fn position(&self) -> u64 {
        self.drained + self.buf.len() as u64
    }

    /// Makes sure `n` more bytes fit under the window, draining first if
    /// they would not. One compare on the in-memory path.
    #[inline(always)]
    fn make_room(&mut self, n: usize) {
        if self.window.saturating_sub(self.buf.len()) < n {
            self.drain();
        }
    }

    /// Hands everything ahead of the pin to the sink: CRC first, while the
    /// chunk is cache-resident, then the write. Whatever is pinned moves to
    /// the front of the buffer.
    #[cold]
    fn drain(&mut self) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let upto = match self.pin {
            // The pin is a stream position at or past `drained`, inside the
            // buffer.
            Some(pin) => (pin - self.drained) as usize,
            None => self.buf.len(),
        };
        if upto == 0 {
            return;
        }
        // In bounds: `upto <= buf.len()` by the match above.
        let ready = &self.buf[..upto];
        if sink.error.is_none() {
            let started = Instant::now();
            sink.crc.update(ready);
            let checksummed = Instant::now();
            // No single `write` is larger than the window, even when a blob
            // that outgrew it is released at once.
            for chunk in ready.chunks(self.window) {
                if let Err(e) = sink.out.write_all(chunk) {
                    sink.error = Some(e);
                    break;
                }
            }
            sink.crc_time += checksummed - started;
            sink.write_time += checksummed.elapsed();
        }
        self.drained += upto as u64;
        self.buf.drain(..upto);
    }

    /// Drains what is left and closes the sink: the first I/O error any
    /// chunk met, or the totals. In-memory writers have nothing to close.
    pub(crate) fn close(mut self) -> Result<Drained, PersistError> {
        self.drain();
        let Some(mut sink) = self.sink.take() else {
            return Err(PersistError::BadValue {
                what: "close() on an in-memory writer",
            });
        };
        if let Some(e) = sink.error.take() {
            return Err(e.into());
        }
        let started = Instant::now();
        sink.out.flush()?;
        Ok(Drained {
            len: self.drained,
            crc: sink.crc.finish(),
            crc_time: sink.crc_time,
            write_time: sink.write_time + started.elapsed(),
        })
    }

    /// Checksumming and write time accumulated so far (zero in memory).
    pub(crate) fn sink_time(&self) -> Duration {
        self.sink
            .as_ref()
            .map_or(Duration::ZERO, |sink| sink.crc_time + sink.write_time)
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.make_room(1);
        self.buf.push(v);
    }

    /// Appends a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.make_room(4);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.make_room(8);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a usize as a u64.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an f64 as its raw IEEE-754 bits.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a u64 as an LEB128 varint: seven bits per byte, low group
    /// first, the high bit set on every byte but the last — 1 to 10 bytes.
    pub fn put_varint(&mut self, mut v: u64) {
        self.make_room(10);
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a bool as a single 0/1 byte.
    pub(crate) fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends raw bytes with a u64 length prefix.
    pub(crate) fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.put_raw(v);
    }

    /// Appends a string as length-prefixed UTF-8.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends raw bytes with no length prefix (for fixed-size fields).
    pub fn put_raw(&mut self, v: &[u8]) {
        // One piece in memory; window-sized pieces when streaming.
        for piece in v.chunks(self.window) {
            self.make_room(piece.len());
            self.buf.extend_from_slice(piece);
        }
    }

    /// Appends whatever `fill` encodes as one length-prefixed blob — the same
    /// bytes `Writer::put_bytes` writes for that content — without a second
    /// writer: the length slot is reserved first and back-patched after.
    /// While the outermost blob is open its slot is pinned in the buffer, so
    /// a streaming writer holds a blob whole, however large.
    pub fn put_blob(&mut self, fill: impl FnOnce(&mut Writer)) {
        self.make_room(8);
        let slot = self.position();
        let outermost = self.pin.is_none();
        if outermost {
            self.pin = Some(slot);
        }
        self.put_u64(0);
        fill(self);
        let len = self.position() - slot - 8;
        // The slot is at or behind the pin, so it has not been drained.
        let at = (slot - self.drained) as usize;
        // In bounds: the eight bytes reserved at `slot` are still buffered
        // (pinned), and a writer only ever appends behind them.
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
        if outermost {
            self.pin = None;
        }
    }

    /// Appends a count-prefixed run of 8-byte little-endian words, one
    /// resize per window: the copy loop has no capacity check per element
    /// and compiles to a memcpy.
    fn put_words<T: Copy>(&mut self, run: &[T], to_le: impl Fn(T) -> [u8; 8]) {
        self.put_usize(run.len());
        for piece in run.chunks(self.window / 8) {
            self.make_room(piece.len() * 8);
            let start = self.buf.len();
            self.buf.resize(start + piece.len() * 8, 0);
            // In bounds: `start` is the length before the resize above.
            let (words, _) = self.buf[start..].as_chunks_mut::<8>();
            for (word, v) in words.iter_mut().zip(piece) {
                *word = to_le(*v);
            }
        }
    }

    /// Appends a count-prefixed run of 0/1 bytes.
    fn put_bools(&mut self, run: &[bool]) {
        self.put_usize(run.len());
        for piece in run.chunks(self.window) {
            self.make_room(piece.len());
            self.buf.extend(piece.iter().map(|&v| v as u8));
        }
    }
}

/// A refillable window over a byte source of known length.
struct Stream<'a> {
    input: &'a mut dyn Read,
    /// The window; `window[..filled]` holds bytes read but not all consumed.
    window: Vec<u8>,
    filled: usize,
    /// Bytes of the source not yet read into the window.
    unread: usize,
    /// Holds a single value larger than the window while it is handed out.
    spill: Vec<u8>,
}

enum Source<'a> {
    /// The whole input, in memory.
    Slice(&'a [u8]),
    Stream(Stream<'a>),
}

/// Bounds-checked decoder over a byte slice, or over a byte source read
/// through a fixed window.
pub struct Reader<'a> {
    source: Source<'a>,
    /// Cursor into the slice, or into the stream's window.
    pos: usize,
}

impl std::fmt::Debug for Reader<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reader")
            .field("remaining", &self.remaining())
            .field("streaming", &matches!(self.source, Source::Stream(_)))
            .finish()
    }
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            source: Source::Slice(buf),
            pos: 0,
        }
    }

    /// A reader over the next `len` bytes of `input`, fetched through a
    /// [`WINDOW`]-byte buffer as they are consumed.
    pub(crate) fn streaming(input: &'a mut dyn Read, len: usize) -> Self {
        Self::streaming_with_window(input, len, WINDOW)
    }

    /// [`Reader::streaming`] with the window shrunk, so tests can make every
    /// value straddle a refill.
    pub(crate) fn streaming_with_window(
        input: &'a mut dyn Read,
        len: usize,
        window: usize,
    ) -> Self {
        assert!(window >= MIN_WINDOW, "window must hold one word");
        Reader {
            source: Source::Stream(Stream {
                input,
                window: vec![0; window.min(len.max(MIN_WINDOW))],
                filled: 0,
                unread: len,
                spill: Vec::new(),
            }),
            pos: 0,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        match &self.source {
            Source::Slice(buf) => buf.len() - self.pos,
            Source::Stream(s) => s.filled - self.pos + s.unread,
        }
    }

    /// Consumes exactly `n` bytes, or fails without consuming anything. The
    /// slice is only good until the next call: a streaming reader hands out
    /// pieces of its window.
    pub fn take(&mut self, n: usize) -> Result<&[u8], PersistError> {
        if n > self.remaining() {
            return Err(PersistError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let start = self.pos;
        match &mut self.source {
            Source::Slice(buf) => {
                self.pos += n;
                // In bounds: `n <= remaining()` was checked above.
                Ok(&buf[start..start + n])
            }
            Source::Stream(s) => {
                if n > s.filled - start {
                    // A value larger than the window leaves through the
                    // spill buffer and empties the window.
                    self.pos = if n > s.window.len() { 0 } else { n };
                    return s.refill(start, n);
                }
                self.pos += n;
                // In bounds: `start + n <= filled` was checked just above.
                Ok(&s.window[start..start + n])
            }
        }
    }

    /// How many of the next `left` bytes of a bulk run to convert at once:
    /// all of them from a slice; from a stream, what the window already
    /// holds, or a whole window once that is used up. Always a multiple of
    /// `elem`, and non-zero while `left` is.
    fn run_piece(&self, left: usize, elem: usize) -> usize {
        match &self.source {
            Source::Slice(_) => left,
            Source::Stream(s) => {
                let held = s.filled - self.pos;
                let piece = if held >= elem { held } else { s.window.len() };
                left.min(piece - piece % elem)
            }
        }
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, PersistError> {
        // In bounds: `take(1)` returned exactly one byte.
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        // In bounds: `take(4)` returned exactly four bytes.
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        // In bounds: `take(8)` returned exactly eight bytes.
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a usize stored as a u64, rejecting values this platform cannot
    /// represent.
    pub fn get_usize(&mut self) -> Result<usize, PersistError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| PersistError::BadValue {
            what: "usize out of platform range",
        })
    }

    /// Reads an f64 from its raw IEEE-754 bits.
    pub fn get_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an f64 slot that may hold only `expected`: the reserved slot of
    /// a value that is now a constant. The comparison is by bits, so a NaN
    /// never matches and `-0.0` is not `0.0`; anything else is `BadValue`
    /// with `what`.
    pub fn expect_f64(&mut self, expected: f64, what: &'static str) -> Result<(), PersistError> {
        if self.get_u64()? == expected.to_bits() {
            Ok(())
        } else {
            Err(PersistError::BadValue { what })
        }
    }

    /// Reads a varint written by [`Writer::put_varint`], and only in the
    /// minimal form it writes, so one value has one encoding: a last byte of
    /// `0x00` after a continuation byte is rejected. Nine bytes carry 63
    /// bits, so a tenth may only be `0x01`: anything larger would shift bits
    /// out of the u64 or run past ten bytes.
    pub fn get_varint(&mut self) -> Result<u64, PersistError> {
        const OVERLONG: PersistError = PersistError::BadValue {
            what: "varint not minimally encoded",
        };
        let mut value = 0u64;
        for shift in (0..63).step_by(7) {
            let byte = self.get_u8()?;
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return if byte == 0 && shift > 0 {
                    Err(OVERLONG)
                } else {
                    Ok(value)
                };
            }
        }
        match self.get_u8()? {
            0 => Err(OVERLONG),
            1 => Ok(value | 1 << 63),
            _ => Err(PersistError::BadValue {
                what: "varint overflows 64 bits",
            }),
        }
    }

    /// Reads a bool, rejecting any byte other than 0 or 1.
    pub(crate) fn get_bool(&mut self) -> Result<bool, PersistError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PersistError::BadValue {
                what: "bool byte not 0 or 1",
            }),
        }
    }

    /// Reads a collection count and validates that `count * min_elem_size`
    /// bytes could actually be present, **before** the caller allocates.
    pub fn get_count(&mut self, min_elem_size: usize) -> Result<usize, PersistError> {
        let count = self.get_u64()?;
        let per = min_elem_size.max(1) as u64;
        let max = self.remaining() as u64 / per;
        if count > max {
            return Err(PersistError::CountTooLarge { count, max });
        }
        Ok(count as usize)
    }

    /// Reads length-prefixed raw bytes, validating the length against the
    /// input before slicing. Like [`Reader::take`], the slice is only good
    /// until the next call.
    pub fn get_bytes(&mut self) -> Result<&[u8], PersistError> {
        let len = self.get_count(1)?;
        self.take(len)
    }

    /// Reads length-prefixed raw bytes into a vector of their own: one
    /// allocation, made only after the length has been validated against the
    /// input, filled from the slice or window by window — a streaming reader
    /// never assembles the value anywhere else first.
    pub fn get_byte_vec(&mut self) -> Result<Vec<u8>, PersistError> {
        let len = self.get_count(1)?;
        let mut out = Vec::with_capacity(len);
        let mut left = len;
        while left > 0 {
            let piece = self.run_piece(left, 1);
            out.extend_from_slice(self.take(piece)?);
            left -= piece;
        }
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, PersistError> {
        String::from_utf8(self.get_byte_vec()?).map_err(|_| PersistError::BadValue {
            what: "string is not valid UTF-8",
        })
    }

    /// Reads a count-prefixed run of 8-byte little-endian words into one
    /// allocation, made only after `get_count` has proven that `count * 8`
    /// bytes are present; the words move window → destination, one bounds
    /// check per piece.
    fn get_words<T>(&mut self, from_le: impl Fn([u8; 8]) -> T) -> Result<Vec<T>, PersistError> {
        let count = self.get_count(8)?;
        let mut out = Vec::with_capacity(count);
        let mut left = count * 8;
        while left > 0 {
            let piece = self.run_piece(left, 8);
            let (words, _) = self.take(piece)?.as_chunks::<8>();
            out.extend(words.iter().map(|word| from_le(*word)));
            left -= piece;
        }
        Ok(out)
    }

    /// Reads a count-prefixed run of 0/1 bytes, rejecting any other byte.
    fn get_bools(&mut self) -> Result<Vec<bool>, PersistError> {
        let count = self.get_count(1)?;
        let mut out = Vec::with_capacity(count);
        let mut left = count;
        while left > 0 {
            let piece = self.run_piece(left, 1);
            let bytes = self.take(piece)?;
            if bytes.iter().any(|&b| b > 1) {
                return Err(PersistError::BadValue {
                    what: "bool byte not 0 or 1",
                });
            }
            out.extend(bytes.iter().map(|&b| b == 1));
            left -= piece;
        }
        Ok(out)
    }

    /// Succeeds only if every input byte has been consumed.
    pub fn finish(&self) -> Result<(), PersistError> {
        if self.remaining() != 0 {
            return Err(PersistError::TrailingBytes {
                count: self.remaining(),
            });
        }
        Ok(())
    }
}

impl Stream<'_> {
    /// Serves a `take(n)` the window's held bytes (`window[from..filled]`)
    /// cannot: moves them to the front, tops the window up from the source
    /// and hands out its first `n` bytes — or, for a value larger than the
    /// window, assembles it in the spill buffer and leaves the window empty.
    /// The caller has checked `n` against the bytes that remain, so the
    /// spill is bounded by the input.
    #[cold]
    fn refill(&mut self, from: usize, n: usize) -> Result<&[u8], PersistError> {
        self.window.copy_within(from..self.filled, 0);
        self.filled -= from;
        if n > self.window.len() {
            self.spill.clear();
            // In bounds: `filled <= window.len()` always.
            self.spill.extend_from_slice(&self.window[..self.filled]);
            self.spill.resize(n, 0);
            // In bounds: the spill was just resized to `n > filled`.
            for piece in self.spill[self.filled..].chunks_mut(self.window.len()) {
                self.input.read_exact(piece)?;
            }
            self.unread -= n - self.filled;
            self.filled = 0;
            return Ok(&self.spill);
        }
        let more = self.unread.min(self.window.len() - self.filled);
        // In bounds: `filled + more <= window.len()` by the `min` above.
        let room = &mut self.window[self.filled..self.filled + more];
        self.input.read_exact(room)?;
        self.filled += more;
        self.unread -= more;
        // In bounds: `n <= filled` now — the caller checked `n` against the
        // bytes that remain, and the window took as many of those as fit.
        Ok(&self.window[..n])
    }
}

/// A type that can round-trip through the binary checkpoint codec.
pub trait Persist: Sized {
    /// Minimum bytes one encoded value occupies — lets collection decoders
    /// bound a stored count against the remaining input before allocating.
    const MIN_SIZE: usize = 1;

    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Decodes one value, consuming exactly the bytes `encode` produced.
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError>;

    /// Appends a count-prefixed run of values: the encoding of `Vec<Self>`.
    /// Types whose runs can move in bulk (`f64`, `u64`, `bool`) override
    /// this; the bytes must equal this element-by-element form.
    fn encode_slice(run: &[Self], w: &mut Writer) {
        w.put_usize(run.len());
        for v in run {
            v.encode(w);
        }
    }

    /// Decodes what [`Persist::encode_slice`] wrote. The stored count is
    /// validated against the remaining input before anything is allocated.
    fn decode_vec(r: &mut Reader<'_>) -> Result<Vec<Self>, PersistError> {
        let count = r.get_count(Self::MIN_SIZE)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }
}

impl Persist for u8 {
    const MIN_SIZE: usize = 1;
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_u8()
    }
}

impl Persist for u32 {
    const MIN_SIZE: usize = 4;
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_u32()
    }
}

impl Persist for u64 {
    const MIN_SIZE: usize = 8;
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_u64()
    }
    fn encode_slice(run: &[Self], w: &mut Writer) {
        w.put_words(run, u64::to_le_bytes);
    }
    fn decode_vec(r: &mut Reader<'_>) -> Result<Vec<Self>, PersistError> {
        r.get_words(u64::from_le_bytes)
    }
}

impl Persist for usize {
    const MIN_SIZE: usize = 8;
    fn encode(&self, w: &mut Writer) {
        w.put_usize(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_usize()
    }
}

impl Persist for f64 {
    const MIN_SIZE: usize = 8;
    fn encode(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_f64()
    }
    fn encode_slice(run: &[Self], w: &mut Writer) {
        w.put_words(run, |v| v.to_bits().to_le_bytes());
    }
    fn decode_vec(r: &mut Reader<'_>) -> Result<Vec<Self>, PersistError> {
        r.get_words(|word| f64::from_bits(u64::from_le_bytes(word)))
    }
}

impl Persist for bool {
    const MIN_SIZE: usize = 1;
    fn encode(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_bool()
    }
    fn encode_slice(run: &[Self], w: &mut Writer) {
        w.put_bools(run);
    }
    fn decode_vec(r: &mut Reader<'_>) -> Result<Vec<Self>, PersistError> {
        r.get_bools()
    }
}

impl Persist for String {
    const MIN_SIZE: usize = 8;
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_str()
    }
}

impl Persist for [u64; 4] {
    const MIN_SIZE: usize = 32;
    fn encode(&self, w: &mut Writer) {
        for v in self {
            w.put_u64(*v);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok([r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?])
    }
}

impl<T: Persist> Persist for Vec<T> {
    const MIN_SIZE: usize = 8;
    fn encode(&self, w: &mut Writer) {
        T::encode_slice(self, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        T::decode_vec(r)
    }
}

impl<T: Persist> Persist for Option<T> {
    const MIN_SIZE: usize = 1;
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(PersistError::BadValue {
                what: "Option tag not 0 or 1",
            }),
        }
    }
}

impl<K, V> Persist for HashMap<K, V>
where
    K: Persist + Ord + Hash + Clone,
    V: Persist,
{
    const MIN_SIZE: usize = 8;
    fn encode(&self, w: &mut Writer) {
        // Sorted key order: HashMap iteration order is randomized per
        // process, and identical state must encode to identical bytes.
        let mut keys: Vec<&K> = self.keys().collect();
        keys.sort();
        w.put_usize(keys.len());
        for k in keys {
            k.encode(w);
            // In bounds: `k` was collected from this map's own keys.
            self[k].encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let count = r.get_count(K::MIN_SIZE + V::MIN_SIZE)?;
        let mut out = HashMap::with_capacity(count);
        for _ in 0..count {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32::crc32;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Windows small enough that every multi-byte value of the tests below
    /// straddles a drain on the way out and a refill on the way in.
    const TINY_WINDOWS: [usize; 5] = [16, 17, 24, 33, 64];

    /// A sink that collects what it is given and holds every single `write`
    /// to the window.
    struct BoundedSink {
        out: Rc<RefCell<Vec<u8>>>,
        window: usize,
    }

    impl Write for BoundedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            assert!(buf.len() <= self.window, "{}-byte write", buf.len());
            self.out.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A source that holds every single `read` to the window.
    struct BoundedSource<'a> {
        bytes: &'a [u8],
        window: usize,
    }

    impl Read for BoundedSource<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            assert!(buf.len() <= self.window, "{}-byte read", buf.len());
            self.bytes.read(buf)
        }
    }

    /// What `fill` encodes, streamed through a `window`-byte writer whose
    /// buffer must not outgrow the window; the writer's own length and CRC
    /// must describe exactly those bytes.
    fn stream_out(window: usize, fill: impl FnOnce(&mut Writer)) -> Vec<u8> {
        stream_out_unbounded(window, |w| {
            fill(w);
            assert!(w.buf.len() <= window, "buffer outgrew the window");
        })
    }

    /// [`stream_out`] without the buffer bound: an open blob may outgrow the
    /// window (single writes still may not).
    fn stream_out_unbounded(window: usize, fill: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let out = Rc::new(RefCell::new(Vec::new()));
        let sink = BoundedSink {
            out: Rc::clone(&out),
            window,
        };
        let mut w = Writer::streaming_with_window(Box::new(sink), window);
        fill(&mut w);
        let drained = w.close().expect("sink never fails");
        let bytes = out.take();
        assert_eq!(drained.len, bytes.len() as u64);
        assert_eq!(drained.crc, crc32(&bytes));
        bytes
    }

    /// `decode` run over `bytes` through a `window`-byte streaming reader.
    fn stream_in<T>(
        window: usize,
        bytes: &[u8],
        decode: impl FnOnce(&mut Reader<'_>) -> Result<T, PersistError>,
    ) -> Result<T, PersistError> {
        let mut source = BoundedSource { bytes, window };
        let mut r = Reader::streaming_with_window(&mut source, bytes.len(), window);
        let value = decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    /// In memory, and streamed through every tiny window: same bytes out,
    /// same value back.
    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = Writer::new();
        v.encode(&mut w);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let back = T::decode(&mut r).expect("decode");
        r.finish().expect("no trailing bytes");
        assert_eq!(&back, v);
        for window in TINY_WINDOWS {
            assert_eq!(
                stream_out(window, |w| v.encode(w)),
                bytes,
                "window {window}"
            );
            let back = stream_in(window, &bytes, T::decode).expect("streamed decode");
            assert_eq!(&back, v, "window {window}");
        }
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&u32::MAX);
        round_trip(&u64::MAX);
        round_trip(&usize::MAX);
        round_trip(&true);
        round_trip(&false);
        round_trip(&String::from("checkpoint"));
        // Longer than every tiny window: collected window by window.
        round_trip(&"a string longer than the largest of the tiny windows ".repeat(3));
        round_trip(&[1u64, 2, 3, 4]);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::EPSILON,
        ] {
            round_trip(&v);
        }
        // NaN compares unequal to itself, so check the bits directly.
        let mut w = Writer::new();
        f64::NAN.encode(&mut w);
        let bytes = w.into_vec();
        let back = f64::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&vec![1.0f64, f64::INFINITY, -0.0]);
        round_trip(&Vec::<u64>::new());
        round_trip(&Some(vec![3u64, 4]));
        round_trip(&Option::<u64>::None);
        let mut m = HashMap::new();
        m.insert(7usize, vec![1.0f64, 2.0]);
        m.insert(3usize, vec![]);
        round_trip(&m);
    }

    #[test]
    fn hashmap_encoding_is_order_independent() {
        let mut a = HashMap::new();
        let mut b = HashMap::new();
        for i in 0..64u64 {
            a.insert(i, i * 3);
        }
        for i in (0..64u64).rev() {
            b.insert(i, i * 3);
        }
        let (mut wa, mut wb) = (Writer::new(), Writer::new());
        a.encode(&mut wa);
        b.encode(&mut wb);
        assert_eq!(wa.into_vec(), wb.into_vec());
    }

    #[test]
    fn corrupt_count_rejected_before_allocation() {
        fn rejects<T: Persist + std::fmt::Debug>(bytes: &[u8]) {
            let err = Vec::<T>::decode(&mut Reader::new(bytes)).unwrap_err();
            assert!(matches!(err, PersistError::CountTooLarge { .. }), "{err}");
            // A streaming reader bounds the count by the bytes the source
            // still holds, not by what its window happens to contain.
            for window in TINY_WINDOWS {
                let err = stream_in(window, bytes, Vec::<T>::decode).unwrap_err();
                assert!(matches!(err, PersistError::CountTooLarge { .. }), "{err}");
            }
        }
        // A vector claiming u64::MAX elements with 0 payload bytes: honouring
        // the count would abort on allocation, bulk path or not.
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_vec();
        rejects::<f64>(&bytes);
        rejects::<u64>(&bytes);
        rejects::<bool>(&bytes);
        rejects::<String>(&bytes);
        // One element more than the bytes present can hold.
        let mut w = Writer::new();
        w.put_u64(4);
        w.put_raw(&[0; 31]);
        let bytes = w.into_vec();
        rejects::<f64>(&bytes);
        rejects::<u64>(&bytes);
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let mut w = Writer::new();
        vec![1.0f64; 8].encode(&mut w);
        let bytes = w.into_vec();
        for cut in 0..bytes.len() - 1 {
            let err = Vec::<f64>::decode(&mut Reader::new(&bytes[..cut]));
            assert!(err.is_err(), "decode of {cut}-byte prefix succeeded");
            let err = stream_in(16, &bytes[..cut], Vec::<f64>::decode);
            assert!(
                err.is_err(),
                "streamed decode of {cut}-byte prefix succeeded"
            );
        }
    }

    /// The element-by-element form of a run — the `Persist` defaults, which
    /// `f64`, `u64` and `bool` override with bulk moves.
    fn encode_per_element<T: Persist>(run: &[T]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_usize(run.len());
        for v in run {
            v.encode(&mut w);
        }
        w.into_vec()
    }

    fn decode_per_element<T: Persist>(bytes: &[u8]) -> Result<Vec<T>, PersistError> {
        let mut r = Reader::new(bytes);
        let count = r.get_count(T::MIN_SIZE)?;
        (0..count).map(|_| T::decode(&mut r)).collect()
    }

    /// Bulk and per-element agree on the encoded bytes, on the decoded
    /// values (compared through `key`, so NaNs count) and, for every
    /// truncation of the run, on the typed error — in memory and streamed
    /// through a window the run does not fit.
    fn assert_bulk_matches_per_element<T, K>(run: &[T], key: impl Fn(&T) -> K)
    where
        T: Persist,
        K: PartialEq + std::fmt::Debug,
    {
        let mut w = Writer::new();
        T::encode_slice(run, &mut w);
        let bytes = w.into_vec();
        assert_eq!(bytes, encode_per_element(run));

        let mut r = Reader::new(&bytes);
        let back = T::decode_vec(&mut r).expect("bulk decode");
        r.finish().expect("bulk decode consumed the run exactly");
        let keys = |vs: &[T]| vs.iter().map(&key).collect::<Vec<K>>();
        assert_eq!(keys(&back), keys(run));
        assert_eq!(keys(&decode_per_element::<T>(&bytes).unwrap()), keys(run));
        for window in TINY_WINDOWS {
            let streamed = stream_out(window, |w| T::encode_slice(run, w));
            assert_eq!(streamed, bytes, "window {window}");
            let back = stream_in(window, &bytes, T::decode_vec).expect("streamed bulk decode");
            assert_eq!(keys(&back), keys(run), "window {window}");
        }

        for cut in 0..bytes.len() {
            let reference = decode_per_element::<T>(&bytes[..cut]).map(|v| keys(&v));
            let bulk = T::decode_vec(&mut Reader::new(&bytes[..cut])).map(|v| keys(&v));
            let streamed = stream_in(24, &bytes[..cut], T::decode_vec).map(|v| keys(&v));
            for (path, got) in [("bulk", bulk), ("streamed", streamed)] {
                match (got, &reference) {
                    (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "cut {cut}"),
                    (a, b) => panic!("cut {cut}: {path} {a:?} vs per-element {b:?}"),
                }
            }
        }
    }

    #[test]
    fn bulk_runs_match_per_element_on_special_values() {
        let quiet_nan_payload = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let signalling_nan = f64::from_bits(0x7FF0_0000_0000_0001);
        let negative_nan = f64::from_bits(0xFFF8_0000_0000_0000);
        let floats = [
            quiet_nan_payload,
            signalling_nan,
            negative_nan,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0,
            f64::MAX,
        ];
        assert_bulk_matches_per_element(&floats, |v| v.to_bits());
        assert_bulk_matches_per_element(&[] as &[f64], |v| v.to_bits());
        assert_bulk_matches_per_element(&[0u64, 1, u64::MAX], |v| *v);
        assert_bulk_matches_per_element(&[] as &[u64], |v| *v);
        assert_bulk_matches_per_element(&[true, false, false, true], |v| *v);
        assert_bulk_matches_per_element(&[] as &[bool], |v| *v);
    }

    #[test]
    fn bulk_bool_run_rejects_a_stray_byte_like_the_scalar_path() {
        let mut bytes = encode_per_element(&[true, false, true]);
        *bytes.last_mut().unwrap() = 2;
        let bulk = Vec::<bool>::decode(&mut Reader::new(&bytes)).unwrap_err();
        let reference = decode_per_element::<bool>(&bytes).unwrap_err();
        assert!(matches!(bulk, PersistError::BadValue { .. }), "{bulk}");
        assert_eq!(bulk.to_string(), reference.to_string());
    }

    #[test]
    fn blob_is_byte_identical_to_a_sub_writer() {
        let mut sub = Writer::new();
        vec![1.5f64, -2.0].encode(&mut sub);
        sub.put_str("tail");
        let mut expected = Writer::new();
        expected.put_u8(9);
        expected.put_bytes(&sub.buf);
        expected.put_bytes(&[]);

        let fill = |w: &mut Writer| {
            w.put_u8(9);
            w.put_blob(|w| {
                vec![1.5f64, -2.0].encode(w);
                w.put_str("tail");
            });
            w.put_blob(|_| {});
        };
        let mut w = Writer::new();
        fill(&mut w);
        assert_eq!(w.buf, expected.buf);
        // The first blob (36 bytes) is larger than the smallest windows: it
        // stays pinned until its length slot is patched, then leaves whole.
        for window in TINY_WINDOWS {
            assert_eq!(stream_out_unbounded(window, fill), expected.buf);
        }
    }

    #[test]
    fn nested_blobs_back_patch_across_drains() {
        let fill = |w: &mut Writer| {
            vec![7u64; 9].encode(w);
            w.put_blob(|w| {
                w.put_str("outer");
                w.put_blob(|w| vec![true; 70].encode(w));
                vec![0.25f64; 11].encode(w);
            });
            w.put_u32(3);
        };
        let mut inner = Writer::new();
        vec![true; 70].encode(&mut inner);
        let mut outer = Writer::new();
        outer.put_str("outer");
        outer.put_bytes(&inner.buf);
        vec![0.25f64; 11].encode(&mut outer);
        let mut expected = Writer::new();
        vec![7u64; 9].encode(&mut expected);
        expected.put_bytes(&outer.buf);
        expected.put_u32(3);

        let mut w = Writer::new();
        fill(&mut w);
        assert_eq!(w.buf, expected.buf);
        for window in TINY_WINDOWS {
            let bytes = stream_out_unbounded(window, fill);
            assert_eq!(bytes, expected.buf, "window {window}");
            // … and the blob comes back whole through a window it dwarfs:
            // borrowed (via the spill buffer) and owned (window by window).
            let borrowed = stream_in(window, &bytes, |r| {
                Vec::<u64>::decode(r)?;
                let blob = r.get_bytes()?.to_vec();
                r.get_u32()?;
                Ok(blob)
            })
            .unwrap();
            assert_eq!(borrowed, outer.buf);
            let owned = stream_in(window, &bytes, |r| {
                Vec::<u64>::decode(r)?;
                let blob = r.get_byte_vec()?;
                r.get_u32()?;
                Ok(blob)
            })
            .unwrap();
            assert_eq!(owned, outer.buf);
        }
    }

    /// A sink that accepts `budget` bytes, then fails every write.
    struct FailingSink {
        budget: usize,
        writes_after_failure: Rc<RefCell<usize>>,
    }

    impl Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.len() > self.budget {
                if self.budget == 0 {
                    *self.writes_after_failure.borrow_mut() += 1;
                }
                self.budget = 0;
                return Err(std::io::Error::other("sink full"));
            }
            self.budget -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn first_sink_error_is_latched_and_surfaces_on_close() {
        let writes_after_failure = Rc::new(RefCell::new(0));
        let sink = FailingSink {
            budget: 100,
            writes_after_failure: Rc::clone(&writes_after_failure),
        };
        let mut w = Writer::streaming_with_window(Box::new(sink), 32);
        // Encoding stays infallible and bounded long after the sink died.
        for i in 0..1000u64 {
            w.put_u64(i);
            assert!(w.buf.len() <= 32);
        }
        let err = w.close().map(|d| d.len).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)), "{err}");
        assert_eq!(*writes_after_failure.borrow(), 0, "wrote past the error");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Raw bit patterns, so NaN payloads, infinities and subnormals all
        /// turn up; lengths 0..40 cover the empty run and odd tails.
        #[test]
        fn bulk_runs_match_per_element(
            bits in prop::collection::vec(any::<u64>(), 40),
            flags in prop::collection::vec(any::<bool>(), 40),
            len in 0usize..=40,
        ) {
            let floats: Vec<f64> = bits[..len].iter().map(|&b| f64::from_bits(b)).collect();
            assert_bulk_matches_per_element(&floats, |v| v.to_bits());
            assert_bulk_matches_per_element(&bits[..len], |v| *v);
            assert_bulk_matches_per_element(&flags[..len], |v| *v);
        }
    }

    #[test]
    fn strict_bool_and_option_tags() {
        assert!(matches!(
            bool::decode(&mut Reader::new(&[2])),
            Err(PersistError::BadValue { .. })
        ));
        assert!(matches!(
            Option::<u8>::decode(&mut Reader::new(&[9, 0])),
            Err(PersistError::BadValue { .. })
        ));
    }

    #[test]
    fn varints_round_trip_at_every_width_and_reject_every_cut() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, 1 << 63, u64::MAX] {
            let mut w = Writer::new();
            w.put_varint(v);
            let bytes = w.into_vec();
            assert_eq!(
                bytes.len(),
                (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
            );
            assert_eq!(stream_out(16, |w| w.put_varint(v)), bytes);
            assert_eq!(stream_in(16, &bytes, |r| r.get_varint()).unwrap(), v);
            for cut in 0..bytes.len() {
                let err = Reader::new(&bytes[..cut]).get_varint().unwrap_err();
                assert!(matches!(err, PersistError::UnexpectedEof { .. }), "{err}");
            }
        }
    }

    #[test]
    fn varint_overflowing_64_bits_is_rejected() {
        // Nine groups carry 63 bits; shifting out the high bits of a tenth
        // byte above 0x01 would read `[0xff; 9] ++ [0x7f]` as u64::MAX.
        let mut overflow = [0xff; 10];
        for last in [0x02, 0x7f, 0x80, 0xff] {
            overflow[9] = last;
            let err = Reader::new(&overflow).get_varint().unwrap_err();
            assert!(matches!(err, PersistError::BadValue { .. }), "{err}");
        }
        overflow[9] = 0x01;
        assert_eq!(Reader::new(&overflow).get_varint().unwrap(), u64::MAX);
    }

    #[test]
    fn overlong_varints_are_rejected() {
        let overlong: [(u64, &[u8]); 7] = [
            (0, &[0x80, 0x00]),
            (0, &[0x80, 0x80, 0x00]),
            (
                0,
                &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00],
            ),
            (1, &[0x81, 0x00]),
            (1, &[0x81, 0x80, 0x00]),
            (127, &[0xff, 0x00]),
            (127, &[0xff, 0x80, 0x80, 0x00]),
        ];
        for (v, bytes) in overlong {
            let mut minimal = Writer::new();
            minimal.put_varint(v);
            assert_ne!(minimal.buf, bytes);
            let err = Reader::new(bytes).get_varint().unwrap_err();
            assert!(
                matches!(
                    err,
                    PersistError::BadValue {
                        what: "varint not minimally encoded"
                    }
                ),
                "{v} as {bytes:02x?}: {err}"
            );
            let err = stream_in(16, bytes, |r| r.get_varint()).unwrap_err();
            assert!(matches!(err, PersistError::BadValue { .. }), "{err}");
        }
        // u64::MAX already takes all ten bytes: any longer form carries a
        // continuation bit in the tenth, which overflows.
        let mut longer = [0xff; 11];
        longer[9] = 0x81;
        longer[10] = 0x00;
        let err = Reader::new(&longer).get_varint().unwrap_err();
        assert!(matches!(err, PersistError::BadValue { .. }), "{err}");
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = Reader::new(&[0, 1, 2]);
        assert!(matches!(
            r.finish(),
            Err(PersistError::TrailingBytes { count: 3 })
        ));
    }
}
