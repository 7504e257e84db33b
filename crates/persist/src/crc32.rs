//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): incremental,
//! folded by carry-less multiplication where the CPU has it, slicing-by-16
//! everywhere else, with a GF(2) [`combine`].
//!
//! Hand-rolled so the integrity check owes nothing to any shim. Two arms
//! compute the same value, bit for bit the classic byte-at-a-time CRC,
//! which survives as the test oracle:
//!
//! - **Carry-less multiplication** (x86-64 with PCLMULQDQ and SSE4.1, inputs
//!   of at least 64 bytes). The whole 16-byte blocks fold four 128-bit lanes
//!   at a time with the constants of Gopal et al., "Fast CRC Computation
//!   for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009),
//!   then reduce to the 32-bit register by Barrett reduction; the last
//!   `len % 16` bytes go through the slicing loop's byte tail. The
//!   intrinsics are safe inside the `#[target_feature]` function, so the
//!   crate's one `unsafe` is the call into it, made only after
//!   `is_x86_feature_detected!` has confirmed both features. The CPU and
//!   the input length choose the arm; there is no knob.
//! - **Slicing-by-16**, the portable arm and the arm for short inputs —
//!   every record-log frame among them. Sixteen 256-entry tables are built
//!   at compile time; the loop consumes 16 input bytes per iteration with
//!   sixteen independent lookups, and a byte-at-a-time tail finishes the
//!   last `len % 16` bytes.
//!
//! What sets the slicing loop's speed is the register's dependency chain:
//! only four of an iteration's sixteen lookups depend on the previous
//! register. They are XORed in last. XORed in first, they put the other
//! twelve's serial XORs on the chain, and the loop ran at 1.8–1.9 GB/s
//! instead of 3.5–3.8 on the snapshot writer's 1 MiB windows.
//!
//! The fold replaced the slicing loop on the streamed snapshot path, where
//! the benchmark's traced pass over a whole checkpoint
//! (`persist.crc32_gbps`) read 2.4–3.5 GB/s and now reads 14.3–16.4
//! (three traced runs per side on `fleet64_shared_socket` and on
//! `fleet8_mix_durable`). Interleaving three slicing streams joined with
//! [`combine`]'s arithmetic (4.3–4.5 GB/s on 1 MiB windows) was tried
//! before the fold and left out: over 12 alternating `fleet8_mix_durable`
//! pairs it moved train cluster-ticks/s by +0.4 %.
//!
//! [`Crc32`] carries the register between `update` calls, so a snapshot is
//! checksummed window by window while each window is still cache-resident,
//! and [`combine`] joins the CRCs of two adjacent byte ranges — which is how
//! the streamed container gets `crc(header ‖ payload)` although the header's
//! length word is only known once the payload has been written.
//!
//! The checksum is **not** free next to the fsync. Measured on the 21.3 MB
//! snapshot of the 8-cluster durable benchmark fleet (`fleet8_mix_durable`,
//! 2-vCPU shared host, ext4), one `FleetDaemon::checkpoint` split as:
//!
//! | layer                          | byte-at-a-time            | slicing-by-16, whole buffer | slicing-by-16, streamed     | register XORed in last, streamed |
//! |--------------------------------|---------------------------|-----------------------------|-----------------------------|----------------------------------|
//! | CRC-32 over the snapshot       | 56–61 ms (0.35–0.39 GB/s) | 12.5–13.9 ms (1.5–1.7 GB/s) | 10.3–12.4 ms (1.7–2.1 GB/s) | 5.0–5.7 ms (3.8–4.3 GB/s)        |
//! | encode (+ container copies)    | 25–30 ms                  | 4.2–6.5 ms                  | 3.1–4.2 ms                  | 2.0–2.6 ms                       |
//! | write + rename + dir fsync     | 15–17 ms with the fsync   | 17.8–22.9 ms                | 5.3–8.3 + 12.0–15.2 ms      | 3.4–4.2 + 0.1–5.9 ms             |
//! | data fsync                     | (in the row above)        | 21–32 ms                    | 21–33 ms                    | 6.9–12.3 ms                      |
//! | whole checkpoint               | 100–107 ms                | 57.7–70.7 ms                | 47.4–62.8 ms                | 22.3–26.7 ms                     |
//!
//! (Each column is the five fastest of 25–30 checkpoints in each of four
//! processes, read off the `persist.checkpoint.*` histograms. The middle two
//! were taken alternately on one day; the first is the record of the day
//! slicing-by-16 landed, when the same loop read 2.0–2.1 GB/s and the fsync
//! ~10 ms. The last was taken in rotation with the previous XOR order,
//! which read CRC 9.8–12.0 ms (1.8–2.2 GB/s) and whole checkpoint
//! 25.5–32.5 ms that day — compare columns taken together.) The streamed
//! columns fold each window while it is still cache-resident instead of
//! making one pass over a cold 21 MB buffer. A restore's verifying pass
//! (`persist.restore.verify`) fell the same way, 11.0–14.7 → 6.1–6.9 ms,
//! and the whole restore 15.7–21.0 → 10.7–11.9 ms.
//!
//! The encode row moved with the bulk codec runs of `codec.rs`, not with
//! this file; the streamed columns also stopped building the file image in
//! memory — see `snapshot.rs`.
//!
//! The carry-less fold, against the last column's loop on the same fleet
//! (21.4 MB snapshot; medians of 30 checkpoints in each of three processes
//! per side, run alternately): `persist.checkpoint.crc` 7.5–8.8 →
//! 1.3–1.4 ms (2.4–2.9 → 15–16 GB/s), `persist.checkpoint.total`
//! 16.7–19.3 → 12.4–13.4 ms, and the verifying pass
//! `persist.restore.verify` 11.1–11.8 → 4.0–4.6 ms. What is left of a
//! checkpoint is mostly the disk: the early-writeback helper's
//! `sync_data`s (`.writeback`, 9.1–9.6 ms) now outlast the encoding,
//! checksumming and writing beside them (medians summing to 8.4–10.1 ms), and the final fsync
//! waits 3.2–3.6 ms for them (1.3–1.5 ms before).

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, which is what lets sixteen input
/// bytes be folded with sixteen independent lookups.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        // In bounds: the loop runs `i` over 0..256, each table's length.
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            // In bounds: `k` runs over 1..16 and `i` over 0..256, the two
            // dimensions; the inner index is masked to 0..=255.
            let prev = tables[k - 1][i];
            // In bounds: as above.
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// `a · b mod P` over GF(2), both operands and the product in the reflected
/// representation the register uses (bit 31 is `x⁰`).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut mask = 1u32 << 31;
    while mask != 0 {
        if a & mask != 0 {
            product ^= b;
        }
        mask >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    product
}

/// `X2N[n]` is `x^(2ⁿ) mod P`.
const fn build_x2n() -> [u32; 32] {
    let mut table = [0u32; 32];
    // In bounds: a constant index into a 32-entry table.
    table[0] = 1 << 30;
    let mut n = 1;
    while n < 32 {
        // In bounds: `n` runs over 1..32, the table's length.
        table[n] = mul_mod_p(table[n - 1], table[n - 1]);
        n += 1;
    }
    table
}

const X2N: [u32; 32] = build_x2n();

/// `x^(8·len) mod P`: multiplying a register by it advances the register
/// over `len` zero bytes. Square-and-multiply over [`X2N`]; the order of `x`
/// divides `2³² − 1`, so the exponents of two wrap at 32.
const fn x_pow_bytes(mut len: u64) -> u32 {
    let mut power = 1u32 << 31;
    let mut k = 3;
    while len != 0 {
        if len & 1 != 0 {
            // In bounds: the index is masked to 0..=31.
            power = mul_mod_p(X2N[k & 31], power);
        }
        len >>= 1;
        k += 1;
    }
    power
}

/// Folds one 32-bit word of input through the four tables `T[base + 3]`
/// (lowest byte) down to `T[base]` (highest byte).
#[inline(always)]
fn fold_word(word: u32, base: usize) -> u32 {
    let b = word.to_le_bytes();
    // In bounds: callers pass `base` in {0, 4, 8, 12} so `base + 3 <= 15`,
    // `b` has four bytes, and a `u8` always indexes inside a 256-entry table.
    let lanes = [
        TABLES[base + 3][b[0] as usize],
        TABLES[base + 2][b[1] as usize],
        TABLES[base + 1][b[2] as usize],
        TABLES[base][b[3] as usize],
    ];
    // In bounds: `lanes` has exactly four entries.
    lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3]
}

/// An incremental CRC-32: feeding an input to [`Crc32::update`] in any
/// number of pieces yields the value [`crc32`] gives for the whole.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    /// The shift register (the running value before the final inversion).
    register: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The CRC of no bytes.
    pub fn new() -> Self {
        Crc32 {
            register: 0xFFFF_FFFF,
        }
    }

    /// Absorbs `bytes`: inputs of 64 bytes or more fold their whole 16-byte
    /// blocks by carry-less multiplication on CPUs with PCLMULQDQ and
    /// SSE4.1; the rest of the input, shorter inputs, and everything on
    /// other CPUs, go through the slicing-by-16 loop.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            let (blocks, tail) = bytes.as_chunks::<16>();
            // SAFETY: `clmul::available` has just confirmed that this CPU
            // runs PCLMULQDQ and SSE4.1, the features `fold` is compiled
            // for; it has no other precondition.
            #[allow(unsafe_code)]
            let register = unsafe { clmul::fold(self.register, blocks) };
            self.register = slice_by_16(register, tail);
            return;
        }
        self.register = slice_by_16(self.register, bytes);
    }

    /// The CRC-32 of everything absorbed so far.
    pub fn finish(&self) -> u32 {
        !self.register
    }
}

/// The portable arm: advances `register` over `bytes` sixteen bytes per step
/// with sixteen table lookups, then byte by byte over the last `len % 16`.
fn slice_by_16(mut register: u32, bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<16>();
    for b in blocks {
        // In bounds: `b` is a `[u8; 16]` and every index is a constant < 16.
        let w0 = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ register;
        // In bounds: as above.
        let w1 = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        // In bounds: as above.
        let w2 = u32::from_le_bytes([b[8], b[9], b[10], b[11]]);
        // In bounds: as above.
        let w3 = u32::from_le_bytes([b[12], b[13], b[14], b[15]]);
        // Only `w0`'s four lookups wait on the previous register; XORed
        // in last, they leave the other twelve off its dependency chain.
        register = fold_word(w3, 0) ^ fold_word(w2, 4) ^ fold_word(w1, 8) ^ fold_word(w0, 12);
    }
    for &b in tail {
        // In bounds: the index is masked to 0..=255 and each table has
        // 256 slots.
        register = (register >> 8) ^ TABLES[0][((register ^ b as u32) & 0xFF) as usize];
    }
    register
}

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// `crc32(a ‖ b)` from `crc32(a)`, `crc32(b)` and `b`'s length, in
/// `O(log len_b)` register multiplications and without touching a byte.
pub fn combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    mul_mod_p(x_pow_bytes(len_b), crc_a) ^ crc_b
}

/// The carry-less-multiplication arm (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), in
/// the bit-reflected form the register uses.
///
/// Four 128-bit lanes each hold the running remainder of every fourth
/// 16-byte block. One step multiplies a lane's two 64-bit halves by
/// `x^(4·128+32)` and `x^(4·128−32)` modulo P and XORs in the block 64
/// bytes on, so the four lanes' multiplications run side by side. The lanes
/// then fold into one with the 128-bit distances, the remaining whole
/// blocks fold one at a time, and the 128-bit remainder is reduced to 64
/// bits and then, by Barrett reduction, to the 32-bit register.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// `x^(4·128+32) mod P`, reflected and shifted left one bit, as every
    /// constant below: the low half's distance in a four-lane step.
    pub(super) const K1: i64 = 0x1_5444_2BD4;
    /// `x^(4·128−32) mod P`: the high half's distance in a four-lane step.
    pub(super) const K2: i64 = 0x1_C6E4_1596;
    /// `x^(128+32) mod P`: the low half's distance in a one-lane step.
    pub(super) const K3: i64 = 0x1_7519_97D0;
    /// `x^(128−32) mod P`: the high half's distance in a one-lane step.
    pub(super) const K4: i64 = 0x0_CCAA_009E;
    /// `x^64 mod P`: the 96 → 64-bit step.
    pub(super) const K5: i64 = 0x1_63CD_6124;
    /// P itself, all 33 coefficients, reflected.
    pub(super) const P_X: i64 = 0x1_DB71_0641;
    /// `⌊x^64 / P⌋`, reflected: Barrett's μ.
    pub(super) const MU: i64 = 0x1_F701_1641;

    /// Whether this CPU runs the instructions [`fold`] is compiled for.
    #[inline]
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// One 16-byte block as a lane, little-endian like the register.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as u64 as i64, v as u64 as i64)
    }

    /// `lane · distance ⊕ next`, both halves of `lane` carried by the
    /// halves of `keys` (low half by the low key, high by the high).
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn step(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128(lane, keys, 0x00);
        let high = _mm_clmulepi64_si128(lane, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, low), high)
    }

    /// Advances `register` over `blocks`. Fewer than four blocks (an input
    /// under 64 bytes) leave the lanes empty, so they go to the portable
    /// arm.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(register: u32, blocks: &[[u8; 16]]) -> u32 {
        let Some(([b0, b1, b2, b3], rest)) = blocks.split_first_chunk::<4>() else {
            return super::slice_by_16(register, blocks.as_flattened());
        };
        let mut l0 = _mm_xor_si128(load(b0), _mm_cvtsi32_si128(register as i32));
        let (mut l1, mut l2, mut l3) = (load(b1), load(b2), load(b3));
        let (quads, singles) = rest.as_chunks::<4>();
        let four = _mm_set_epi64x(K2, K1);
        for [c0, c1, c2, c3] in quads {
            l0 = step(l0, load(c0), four);
            l1 = step(l1, load(c1), four);
            l2 = step(l2, load(c2), four);
            l3 = step(l3, load(c3), four);
        }
        let one = _mm_set_epi64x(K4, K3);
        let mut x = step(step(step(l0, l1, one), l2, one), l3, one);
        for block in singles {
            x = step(x, load(block), one);
        }

        // 128 → 96 bits: the low half times `x^(128−32)` onto the high half.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, one, 0x10), _mm_srli_si128(x, 8));
        // 96 → 64 bits: the low word times `x^64` onto the upper three.
        let low_word = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low_word), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
        // register is the upper word of R ⊕ T2.
        let barrett = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low_word), barrett, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low_word), barrett, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The classic byte-at-a-time loop: the oracle the sliced form must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// A deterministic pseudo-random buffer.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The catalogue check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = b"checkpoint payload".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&flipped),
                    reference,
                    "flip at {byte}:{bit} undetected"
                );
            }
        }
    }

    #[test]
    fn combine_handles_empty_halves() {
        let a = crc32(b"left half");
        assert_eq!(combine(a, crc32(b""), 0), a);
        assert_eq!(combine(crc32(b""), a, 9), a);
        assert_eq!(combine(0, 0, 0), 0);
    }

    /// The portable arm alone, whatever the CPU.
    fn crc32_sliced(bytes: &[u8]) -> u32 {
        !slice_by_16(0xFFFF_FFFF, bytes)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_are_the_powers_of_x_they_name() {
        use clmul::{K1, K2, K3, K4, K5, MU, P_X};
        // Each distance is `x^bits mod P`, reflected, shifted left one bit.
        let distance = |bits: u64| (x_pow_bytes(bits / 8) as i64) << 1;
        assert_eq!(K1, distance(4 * 128 + 32));
        assert_eq!(K2, distance(4 * 128 - 32));
        assert_eq!(K3, distance(128 + 32));
        assert_eq!(K4, distance(128 - 32));
        assert_eq!(K5, distance(64));
        assert_eq!(P_X, ((POLY as i64) << 1) | 1);
        // μ = ⌊x^64 / P⌋ by long division over GF(2), unreflected (bit k
        // is x^k), then reflected over its 33 coefficients.
        let p = (1u128 << 32) | POLY.reverse_bits() as u128;
        let (mut remainder, mut mu) = (1u128 << 64, 0u128);
        for shift in (0..=32).rev() {
            if remainder >> (32 + shift) & 1 != 0 {
                remainder ^= p << shift;
                mu |= 1 << shift;
            }
        }
        assert_eq!(MU as u128, mu.reverse_bits() >> (128 - 33));
    }

    proptest! {
        /// Every length 0..=600 at every start offset 0..16: all block/tail
        /// splits, every alignment of the input against the 16-byte step,
        /// both sides of the fold threshold and every count of single
        /// blocks after the four-lane steps. Both arms answer to the oracle.
        #[test]
        fn both_arms_match_bytewise_at_every_length_and_offset(
            pool in prop::collection::vec(0u8..=255, 616),
        ) {
            for offset in 0..16 {
                for len in 0..=600 {
                    let input = &pool[offset..offset + len];
                    let oracle = crc32_bytewise(input);
                    prop_assert_eq!(crc32(input), oracle, "offset {} len {}", offset, len);
                    prop_assert_eq!(
                        crc32_sliced(input),
                        oracle,
                        "sliced: offset {} len {}", offset, len
                    );
                }
            }
        }

        #[test]
        fn both_arms_match_bytewise_on_multi_kib_inputs(
            pool in prop::collection::vec(0u8..=255, 8192),
            len in 2048usize..=8192,
        ) {
            let input = &pool[..len];
            prop_assert_eq!(crc32(input), crc32_bytewise(input));
            prop_assert_eq!(crc32_sliced(input), crc32_bytewise(input));
        }

        /// Any split of any input into `update` calls — each piece through
        /// the sliced steps and the byte tail — equals the one-shot value
        /// and the byte-wise oracle.
        #[test]
        fn any_split_into_updates_matches_one_shot(
            seed in any::<u64>(),
            len in 0usize..=4096,
            cuts in prop::collection::vec(0usize..=4096, 6),
        ) {
            let input = noise(len, seed);
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(len)).collect();
            cuts.push(len);
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for cut in cuts {
                crc.update(&input[from..cut]);
                from = cut;
            }
            prop_assert_eq!(crc.finish(), crc32(&input));
            prop_assert_eq!(crc.finish(), crc32_bytewise(&input));
        }

        /// `combine(crc(a), crc(b), |b|) == crc(a ‖ b)` at every split point
        /// class, empty halves included.
        #[test]
        fn combine_matches_the_crc_of_the_concatenation(
            seed in any::<u64>(),
            len in 0usize..=4096,
            split in 0usize..=4096,
        ) {
            let input = noise(len, seed);
            let (a, b) = input.split_at(split.min(len));
            prop_assert_eq!(
                combine(crc32(a), crc32(b), b.len() as u64),
                crc32_bytewise(&input)
            );
        }
    }
}
