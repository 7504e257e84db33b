//! The little-endian binary codec underneath snapshots and record logs.
//!
//! Encoding is infallible appends to a byte vector. Decoding treats the
//! input as hostile: every read is bounds-checked, every collection count is
//! validated against the bytes that remain **before** any allocation, floats
//! travel as raw IEEE-754 bits (so infinities, NaNs and signed zeros
//! round-trip exactly), and booleans and enum tags reject values outside
//! their encoding. Iteration-order-dependent containers are written in
//! sorted key order so that encoding the same logical state twice yields
//! byte-identical output.

use std::collections::HashMap;
use std::hash::Hash;

use crate::error::PersistError;

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// An empty writer whose buffer already holds room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes encoded so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
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

    /// Appends a bool as a single 0/1 byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends raw bytes with a u64 length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a string as length-prefixed UTF-8.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends raw bytes with no length prefix (for fixed-size fields).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends whatever `fill` encodes as one length-prefixed blob — the same
    /// bytes [`Writer::put_bytes`] writes for that content — without a second
    /// writer: the length slot is reserved first and back-patched after.
    pub fn put_blob(&mut self, fill: impl FnOnce(&mut Writer)) {
        let slot = self.buf.len();
        self.put_u64(0);
        let start = self.buf.len();
        fill(self);
        let len = (self.buf.len() - start) as u64;
        // In bounds: the writer only ever appends, so the eight bytes
        // reserved at `slot..start` are still there.
        self.buf[slot..start].copy_from_slice(&len.to_le_bytes());
    }

    /// Appends a count-prefixed run of 8-byte little-endian words in one
    /// resize: the copy loop has no capacity check per element and compiles
    /// to a memcpy.
    fn put_words<T: Copy>(&mut self, run: &[T], to_le: impl Fn(T) -> [u8; 8]) {
        self.put_usize(run.len());
        let start = self.buf.len();
        self.buf.resize(start + run.len() * 8, 0);
        // In bounds: `start` is the length before the resize above.
        let (words, _) = self.buf[start..].as_chunks_mut::<8>();
        for (word, v) in words.iter_mut().zip(run) {
            *word = to_le(*v);
        }
    }
}

/// Bounds-checked decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes, or fails without consuming anything.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if n > self.remaining() {
            return Err(PersistError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        // In bounds: `n <= remaining()` was checked above.
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, PersistError> {
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

    /// Reads a bool, rejecting any byte other than 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, PersistError> {
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
    /// input before slicing.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let len = self.get_count(1)?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, PersistError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::BadValue {
            what: "string is not valid UTF-8",
        })
    }

    /// Reads a count-prefixed run of 8-byte little-endian words with one
    /// bounds check and one allocation, made only after `get_count` has
    /// proven that `count * 8` bytes are present.
    fn get_words<T>(&mut self, from_le: impl Fn([u8; 8]) -> T) -> Result<Vec<T>, PersistError> {
        let count = self.get_count(8)?;
        let (words, _) = self.take(count * 8)?.as_chunks::<8>();
        Ok(words.iter().map(|word| from_le(*word)).collect())
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
        w.put_usize(run.len());
        w.buf.extend(run.iter().map(|&v| v as u8));
    }
    fn decode_vec(r: &mut Reader<'_>) -> Result<Vec<Self>, PersistError> {
        let count = r.get_count(Self::MIN_SIZE)?;
        let bytes = r.take(count)?;
        if bytes.iter().any(|&b| b > 1) {
            return Err(PersistError::BadValue {
                what: "bool byte not 0 or 1",
            });
        }
        Ok(bytes.iter().map(|&b| b == 1).collect())
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
    use proptest::prelude::*;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = Writer::new();
        v.encode(&mut w);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let back = T::decode(&mut r).expect("decode");
        r.finish().expect("no trailing bytes");
        assert_eq!(&back, v);
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
    /// truncation of the run, on the typed error.
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

        for cut in 0..bytes.len() {
            let bulk = T::decode_vec(&mut Reader::new(&bytes[..cut])).map(|v| keys(&v));
            let reference = decode_per_element::<T>(&bytes[..cut]).map(|v| keys(&v));
            match (bulk, reference) {
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "cut {cut}"),
                (a, b) => panic!("cut {cut}: bulk {a:?} vs per-element {b:?}"),
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
        expected.put_bytes(sub.as_slice());
        expected.put_bytes(&[]);

        let mut w = Writer::new();
        w.put_u8(9);
        w.put_blob(|w| {
            vec![1.5f64, -2.0].encode(w);
            w.put_str("tail");
        });
        w.put_blob(|_| {});
        assert_eq!(w.into_vec(), expected.into_vec());
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
    fn trailing_bytes_detected() {
        let r = Reader::new(&[0, 1, 2]);
        assert!(matches!(
            r.finish(),
            Err(PersistError::TrailingBytes { count: 3 })
        ));
    }
}
