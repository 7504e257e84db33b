//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): incremental,
//! slicing-by-16, with a GF(2) [`combine`].
//!
//! Hand-rolled so the integrity check owes nothing to any shim, and in safe
//! code only. Sixteen 256-entry tables are built at compile time; the loop
//! consumes 16 input bytes per iteration with sixteen independent lookups,
//! and a byte-at-a-time tail finishes the last `len % 16` bytes. The value
//! is bit-for-bit the classic byte-at-a-time CRC, which survives as the
//! test oracle.
//!
//! What sets the loop's speed is the register's dependency chain: only four
//! of an iteration's sixteen lookups depend on the previous register. They
//! are XORed in last. XORed in first, they put the other twelve's serial
//! XORs on the chain, and the loop ran at 1.8–1.9 GB/s instead of 3.5–3.8
//! on the snapshot writer's 1 MiB windows.
//!
//! Two faster forms are left out:
//!
//! - **Interleaved lanes.** Three independent streams folded side by side
//!   and joined with [`combine`]'s arithmetic read 4.3–4.5 GB/s on 1 MiB
//!   windows. End to end they did not pay for the second code path: over
//!   12 alternating `fleet8_mix_durable` pairs against this loop, train
//!   cluster-ticks/s went 1 536 → 1 542 (+0.4 %), ahead in only 7.
//! - **PCLMULQDQ.** Carry-less-multiply folding would be faster still, but
//!   it needs `core::arch` intrinsics, i.e. `unsafe`, and this crate is the
//!   disk boundary.
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

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut register = self.register;
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
        self.register = register;
    }

    /// The CRC-32 of everything absorbed so far.
    pub fn finish(&self) -> u32 {
        !self.register
    }
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

    proptest! {
        /// Every length 0..=80 at every start offset 0..16: all block/tail
        /// splits and every alignment of the input against the 16-byte step.
        #[test]
        fn sliced_matches_bytewise_at_every_length_and_offset(
            pool in prop::collection::vec(0u8..=255, 96),
        ) {
            for offset in 0..16 {
                for len in 0..=80 {
                    let input = &pool[offset..offset + len];
                    prop_assert_eq!(
                        crc32(input),
                        crc32_bytewise(input),
                        "offset {} len {}", offset, len
                    );
                }
            }
        }

        #[test]
        fn sliced_matches_bytewise_on_multi_kib_inputs(
            pool in prop::collection::vec(0u8..=255, 8192),
            len in 2048usize..=8192,
        ) {
            let input = &pool[..len];
            prop_assert_eq!(crc32(input), crc32_bytewise(input));
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
