//! Property tests for the explicit SIMD kernels (`capes_tensor::simd`).
//!
//! Four families of guarantees:
//!
//! 1. **Reference equivalence** — at every runnable [`SimdLevel`], each
//!    kernel matches a naive triple-loop reference within 1e-9 across
//!    odd/prime shapes (remainder rows and columns included) and on
//!    sub-slices taken at odd element offsets (8-byte-aligned but not
//!    32-byte-aligned, which is what the unaligned `loadu`/`storeu` paths
//!    must absorb).
//! 2. **Non-finite propagation** — `NaN`/`±∞` operands (including `0 · NaN`)
//!    land exactly where the naive reference puts them, at every level.
//! 3. **Chunking invariance** — splitting the output rows across a real
//!    multi-threaded worker pool produces bit-for-bit the same output as one
//!    single-threaded call, at every level (the pooled dispatch only moves
//!    row boundaries around, and every element's FMA chain is
//!    boundary-independent by construction).
//! 4. **Level invariance** — every level's GEMMs are bit-for-bit the scalar
//!    arm's on shapes that hit every tile seam (a NaN only has to stay a
//!    NaN against the scalar arm; the 512-bit kernels match the 256-bit
//!    ones with NaN payloads included), and the Adam update carrying the
//!    soft target update is bit-for-bit the plain update followed by
//!    `Matrix::blend`, at every level.
//!
//! The `CAPES_SIMD=off` arm of CI runs this whole suite (and everything
//! else) with the scalar kernels dispatched, so both sides of the runtime
//! switch stay covered; `runnable_levels` additionally pins every level the
//! host can run in-process — on a 512-bit runner that proves `Avx2Fma`
//! explicitly, without a `CAPES_SIMD=avx2` pass. The suite prints which
//! levels ran.

#![forbid(unsafe_code)]

use capes_tensor::simd::{
    active_level, adam_update_with, bellman_targets, detected_level, gemm_rows_with,
    gemm_ta_rows_with, gemm_tb_rows_with, runnable_levels, tanh_backward, tanh_forward_with,
    tanh_value, AdamStep, SimdLevel, SoftTarget,
};
use capes_tensor::{Matrix, WorkerPool};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_vec(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

/// A buffer whose payload starts `offset` elements in, so the payload slice
/// is 8-byte-aligned but (for odd offsets) not 32-byte-aligned.
fn offset_vec(rng: &mut StdRng, len: usize, offset: usize) -> Vec<f64> {
    random_vec(rng, len + offset)
}

fn naive_gemm(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
    let mut out = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Within 1e-9, or both NaN, or exactly equal (matching infinities).
fn approx(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a == b || (a - b).abs() <= 1e-9
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `out += a · b` at every runnable level vs the naive reference, on
    /// unaligned sub-slices and shapes that exercise every remainder lane
    /// (rows % 4, cols % 8, cols % 4, k % 4).
    #[test]
    fn gemm_rows_matches_naive_at_every_level(
        (m, k, n) in (1usize..23, 1usize..80, 1usize..37),
        (off_a, off_b, off_out) in (0usize..3, 0usize..3, 0usize..3),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = offset_vec(&mut rng, m * k, off_a);
        let b = offset_vec(&mut rng, k * n, off_b);
        let reference = naive_gemm(&a[off_a..], &b[off_b..], m, k, n);
        for &level in runnable_levels() {
            let mut out = offset_vec(&mut rng, m * n, off_out);
            out[off_out..].fill(0.0);
            gemm_rows_with(level, &a[off_a..], &b[off_b..], &mut out[off_out..], m, k, n);
            for (got, want) in out[off_out..].iter().zip(&reference) {
                prop_assert!(approx(*got, *want), "{level} {m}x{k}x{n}: {got} vs {want}");
            }
        }
    }

    /// `out = aᵀ · b` at every runnable level vs the naive reference, from a
    /// NaN-poisoned `out`: the kernel overwrites and never reads it.
    #[test]
    fn gemm_ta_rows_matches_naive_at_every_level(
        (n, m, p) in (1usize..40, 1usize..23, 1usize..37),
        off in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = offset_vec(&mut rng, n * m, off); // a is n × m, read transposed
        let b = random_vec(&mut rng, n * p);
        // Reference: aᵀ (m × n) · b (n × p).
        let mut at = vec![0.0; m * n];
        for r in 0..n {
            for c in 0..m {
                at[c * n + r] = a[off + r * m + c];
            }
        }
        let reference = naive_gemm(&at, &b, m, n, p);
        for &level in runnable_levels() {
            let mut out = vec![f64::NAN; m * p];
            gemm_ta_rows_with(level, &a[off..], &b, &mut out, 0, m, n, m, p);
            for (got, want) in out.iter().zip(&reference) {
                prop_assert!(approx(*got, *want), "{level} ta {n}x{m}x{p}: {got} vs {want}");
            }
        }
    }

    /// `out = a · bᵀ` at every runnable level vs the naive reference, across
    /// panel boundaries of the two-level blocking (k up to 200 spans 1–4
    /// panels with ragged tails).
    #[test]
    fn gemm_tb_rows_matches_naive_at_every_level(
        (m, k, n) in (1usize..14, 1usize..200, 1usize..90),
        off in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = offset_vec(&mut rng, m * k, off);
        let b = random_vec(&mut rng, n * k); // b is n × k, read transposed
        let mut bt = vec![0.0; k * n];
        for r in 0..n {
            for c in 0..k {
                bt[c * n + r] = b[r * k + c];
            }
        }
        let reference = naive_gemm(&a[off..], &bt, m, k, n);
        for &level in runnable_levels() {
            let mut out = vec![f64::NAN; m * n];
            gemm_tb_rows_with(level, &a[off..], &b, &mut out, m, k, n);
            for (got, want) in out.iter().zip(&reference) {
                prop_assert!(approx(*got, *want), "{level} tb {m}x{k}x{n}: {got} vs {want}");
            }
        }
    }

    /// `out += a · b` at every runnable level is **bit-identical** to the
    /// scalar arm — stronger than reference-equivalence — on random shapes
    /// that span 1–4 k-panels with ragged tails, hit every `cols % 8`
    /// remainder class, read `b` at unaligned offsets and accumulate onto a
    /// non-zero seed.
    #[test]
    fn gemm_rows_is_bit_identical_to_scalar_at_every_level(
        (m, k, n) in (1usize..24, 1usize..200, 1usize..160),
        off_b in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_vec(&mut rng, m * k);
        let b = offset_vec(&mut rng, k * n, off_b);
        let seed_out = random_vec(&mut rng, m * n);
        let mut scalar = seed_out.clone();
        gemm_rows_with(SimdLevel::Scalar, &a, &b[off_b..], &mut scalar, m, k, n);
        for &level in runnable_levels() {
            let mut out = seed_out.clone();
            gemm_rows_with(level, &a, &b[off_b..], &mut out, m, k, n);
            prop_assert!(
                bits_equal(&out, &scalar),
                "{level} {m}x{k}x{n}: diverged from the scalar arm"
            );
        }
    }

    /// Non-finite operands (NaN, ±∞, and `0 · NaN` in particular) propagate
    /// exactly like the naive reference at every level: no kernel may skip a
    /// product or lose a poison value in any remainder lane.
    #[test]
    fn non_finite_operands_propagate_at_every_level(
        (m, k, n) in (1usize..10, 1usize..40, 1usize..20),
        poisons in prop::collection::vec((0usize..400, 0usize..3), 4),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = random_vec(&mut rng, m * k);
        let mut b = random_vec(&mut rng, k * n);
        // Sprinkle NaN/∞ and matching zeros so 0 · NaN paths exist.
        for &(pos, kind) in &poisons {
            let poison = match kind {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => f64::NEG_INFINITY,
            };
            let b_pos = pos % (k * n);
            b[b_pos] = poison;
            let row = b_pos / n; // b row = reduction index
            a[(pos % m) * k + row] = 0.0; // force a 0 · poison product
        }
        let reference = naive_gemm(&a, &b, m, k, n);
        for &level in runnable_levels() {
            let mut out = vec![0.0; m * n];
            gemm_rows_with(level, &a, &b, &mut out, m, k, n);
            for (got, want) in out.iter().zip(&reference) {
                prop_assert!(
                    approx(*got, *want),
                    "{level} {m}x{k}x{n} non-finite: {got} vs {want}"
                );
            }
        }
    }

    /// The fused Adam update at every runnable level is **bit-identical** to
    /// an independently-written scalar reference of the textbook recurrence
    /// ([`textbook_adam`]: no FMA, IEEE `/` for the bias corrections the
    /// vector arm takes off the divider). Lengths cross the 4-lane boundary
    /// in every residue class, `t` exercises early (large-bias-correction) steps and
    /// the later era in which `bias1` has rounded to exactly 1.0 and the
    /// kernels stop dividing by it (the reference always divides).
    #[test]
    fn adam_update_is_bit_identical_at_every_level(
        len in 1usize..130,
        t in 1i32..60,
        late in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let t = if late { t + 355 } else { t };
        let mut rng = StdRng::seed_from_u64(seed);
        let p0 = random_vec(&mut rng, len);
        let grads = random_vec(&mut rng, len);
        let m0 = random_vec(&mut rng, len);
        let v0: Vec<f64> = (0..len).map(|_| rng.gen_range(0.0..2.0)).collect();
        let (b1, b2) = (0.9, 0.999);
        let step = AdamStep {
            learning_rate: 1e-3,
            beta1: b1,
            beta2: b2,
            epsilon: 1e-8,
            bias1: 1.0 - b1.powi(t),
            bias2: 1.0 - b2.powi(t),
        };

        let (mut p_ref, mut m_ref, mut v_ref) = (p0.clone(), m0.clone(), v0.clone());
        textbook_adam(&step, &mut p_ref, &grads, &mut m_ref, &mut v_ref);

        for &level in runnable_levels() {
            let mut p = p0.clone();
            let mut m = m0.clone();
            let mut v = v0.clone();
            adam_update_with(level, &mut p, &grads, &mut m, &mut v, &step, None);
            prop_assert!(bits_equal(&p, &p_ref), "{level} len={len} t={t}: params diverged");
            prop_assert!(bits_equal(&m, &m_ref), "{level} len={len} t={t}: m diverged");
            prop_assert!(bits_equal(&v, &v_ref), "{level} len={len} t={t}: v diverged");
        }
    }

    /// The tanh forward kernel at every runnable level is **bit-identical**
    /// to the scalar [`tanh_value`] sequence (FMA-free in every arm), on lengths
    /// crossing the 4-, 8- and 16-lane boundaries in every residue class, at
    /// unaligned offsets, with inputs spanning both approximation branches,
    /// the saturation clamp, non-finite values, NaN payloads and subnormals —
    /// and it tracks the libm `tanh` within 1e-14 relative.
    #[test]
    fn tanh_forward_is_bit_identical_at_every_level(
        len in 1usize..130,
        (off_src, off_dst) in (0usize..3, 0usize..3),
        poisons in prop::collection::vec((0usize..130, 0usize..6), 3),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Span both branches (|x| ≷ 0.625) and the |x| ≥ 20 saturation.
        let mut src: Vec<f64> = (0..len + off_src)
            .map(|_| rng.gen_range(-25.0..25.0))
            .collect();
        for &(pos, kind) in &poisons {
            src[off_src + pos % len] = match kind {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                // A negative NaN with a payload: every lane must hand back
                // the input bits, not a default NaN.
                4 => f64::from_bits(0xFFF8_0000_0000_0000 | (pos as u64 + 1)),
                _ => -f64::MIN_POSITIVE / (pos as f64 + 2.0),
            };
        }
        let reference: Vec<f64> = src[off_src..].iter().map(|&x| tanh_value(x)).collect();
        for (&x, &y) in src[off_src..].iter().zip(&reference) {
            let want = x.tanh();
            if want.is_nan() {
                prop_assert!(y.is_nan());
            } else {
                prop_assert!(
                    (y - want).abs() <= 1e-14 * want.abs().max(1e-300),
                    "tanh({x}) = {y}, libm says {want}"
                );
            }
        }
        for &level in runnable_levels() {
            let mut dst = vec![f64::NAN; len + off_dst];
            tanh_forward_with(level, &src[off_src..], &mut dst[off_dst..]);
            prop_assert!(bits_equal(&dst[off_dst..], &reference), "{level} len={len} diverged");
        }
    }

    /// The tanh backward kernel (`g *= 1 − y²`) is bit-identical to an
    /// independently-written scalar loop, on unaligned sub-slices.
    #[test]
    fn tanh_backward_matches_an_independent_loop_bitwise(
        len in 1usize..130,
        off in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let output: Vec<f64> = (0..len + off).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let grads0 = random_vec(&mut rng, len + off);
        let mut reference = grads0[off..].to_vec();
        for (g, &y) in reference.iter_mut().zip(&output[off..]) {
            *g *= 1.0 - y * y;
        }
        let mut grads = grads0.clone();
        tanh_backward(&output[off..], &mut grads[off..]);
        prop_assert!(bits_equal(&grads[off..], &reference), "len={len} diverged");
    }

    /// The fused Bellman-target kernel is bit-identical to an
    /// independently-written reference of the recurrence (`if v > m` row
    /// max, then `r + γ·m`), across row and column counts and NaN poison in
    /// the Q matrix (a NaN candidate must never displace the running max; a
    /// NaN row seed must poison that row's target).
    #[test]
    fn bellman_targets_matches_an_independent_reference_bitwise(
        (rows, cols) in (1usize..30, 1usize..12),
        discount in 0.0f64..1.0,
        poisons in prop::collection::vec(0usize..360, 2),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rewards = random_vec(&mut rng, rows);
        let mut next_q = random_vec(&mut rng, rows * cols);
        for &pos in &poisons {
            next_q[pos % (rows * cols)] = f64::NAN;
        }
        let mut reference = vec![0.0; rows];
        for i in 0..rows {
            let row = &next_q[i * cols..(i + 1) * cols];
            let mut m = row[0];
            for &v in &row[1..] {
                if v > m {
                    m = v;
                }
            }
            reference[i] = rewards[i] + discount * m;
        }
        let mut out = vec![0.0; rows];
        bellman_targets(&rewards, &next_q, cols, discount, &mut out);
        prop_assert!(bits_equal(&out, &reference), "{rows}x{cols} diverged");
    }

    /// Chunking the output rows across a real 4-thread pool is bit-for-bit
    /// identical to one single-threaded call, at every runnable level and
    /// for every kernel — the pooled dispatch must not perturb a single ulp.
    #[test]
    fn pooled_chunking_is_bit_identical_at_every_level(
        (m, k, n) in (2usize..24, 1usize..70, 1usize..30),
        seed in any::<u64>(),
    ) {
        let pool = WorkerPool::new(4);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_vec(&mut rng, m * k);
        let b = random_vec(&mut rng, k * n);
        for &level in runnable_levels() {
            // Single-threaded reference run.
            let mut whole = vec![0.0; m * n];
            gemm_rows_with(level, &a, &b, &mut whole, m, k, n);
            // Chunked run over the pool (min 1 row per chunk → maximal
            // boundary movement).
            let mut chunked = vec![0.0; m * n];
            pool.run_mut(&mut chunked, n, 1, |start, chunk| {
                let rows = chunk.len() / n;
                let end = start + rows;
                gemm_rows_with(level, &a[start * k..end * k], &b, chunk, rows, k, n);
            });
            prop_assert!(bits_equal(&whole, &chunked), "{level} gemm_rows chunked");

            // Transpose-A: chunk the output rows of the m × p product, which
            // overwrites its NaN-poisoned buffers.
            let ta_a = random_vec(&mut StdRng::seed_from_u64(seed ^ 1), k * m);
            let mut ta_whole = vec![f64::NAN; m * n];
            gemm_ta_rows_with(level, &ta_a, &b[..k * n], &mut ta_whole, 0, m, k, m, n);
            let mut ta_chunked = vec![f64::NAN; m * n];
            pool.run_mut(&mut ta_chunked, n, 1, |start, chunk| {
                let end = start + chunk.len() / n;
                gemm_ta_rows_with(level, &ta_a, &b[..k * n], chunk, start, end, k, m, n);
            });
            prop_assert!(bits_equal(&ta_whole, &ta_chunked), "{level} gemm_ta chunked");

            // Transpose-B: chunk a's rows.
            let tb_b = random_vec(&mut StdRng::seed_from_u64(seed ^ 2), n * k);
            let mut tb_whole = vec![0.0; m * n];
            gemm_tb_rows_with(level, &a, &tb_b, &mut tb_whole, m, k, n);
            let mut tb_chunked = vec![0.0; m * n];
            pool.run_mut(&mut tb_chunked, n, 1, |start, chunk| {
                let rows = chunk.len() / n;
                let end = start + rows;
                gemm_tb_rows_with(level, &a[start * k..end * k], &tb_b, chunk, rows, k, n);
            });
            prop_assert!(bits_equal(&tb_whole, &tb_chunked), "{level} gemm_tb chunked");
        }
    }
}

/// Every runnable level's `out += a · b` and `out = aᵀ · b` against the
/// scalar arm, **bit for bit**, on shapes that hit every seam of the 4 × 8
/// and 8 × 24 tiles: no full row tile, exactly one, one plus a remainder,
/// the training batch and one past it, and a panel tall enough to flip the
/// 512-bit tile order (`72 · 64` elements of `a` outgrow the L1-resident
/// block, so the row tiles go outer); no full column tile, one short of one,
/// exactly one, one past, the 600-wide network and one past it; a single
/// step, half a k-panel, and both sides of the 64-step panel edge. `out` is
/// seeded non-zero for `gemm_rows` (the chains start from it) and
/// NaN-poisoned for `gemm_ta_rows` (which overwrites), and `gemm_ta_rows`
/// additionally runs over sub-ranges
/// the way the pool chunks its output rows. An `∞` in `a` and a zero a-row
/// over `−0.0` seeds put infinities and signed zeros on the chains; a
/// product `∞ · 0` may turn an element NaN, and such an element only has to
/// be NaN at every level. The 512-bit tiles also match the 256-bit ones with
/// NaN payloads included.
#[test]
fn gemm_panel_is_bit_identical_to_scalar_at_every_level_on_every_seam() {
    eprintln!(
        "simd_properties: levels run on this host: {:?}",
        runnable_levels()
    );
    let mut rng = StdRng::seed_from_u64(512);
    for &rows in &[1usize, 7, 8, 9, 32, 33, 72] {
        for &cols in &[5usize, 23, 24, 25, 600, 601] {
            for &k in &[1usize, 32, 63, 64, 65, 600] {
                let shape = format!("{rows}x{k}x{cols}");
                let mut a = random_vec(&mut rng, rows * k);
                let b = random_vec(&mut rng, k * cols);
                let mut seed_out = random_vec(&mut rng, rows * cols);
                a[k / 2] = f64::INFINITY;
                if rows > 1 {
                    a[(rows - 1) * k..].fill(0.0);
                    seed_out[(rows - 1) * cols..].fill(-0.0);
                }
                let per_level = runnable_levels().iter().map(|&level| {
                    let mut out = seed_out.clone();
                    gemm_rows_with(level, &a, &b, &mut out, rows, k, cols);
                    out
                });
                assert_levels_agree(per_level.collect(), &format!("gemm_rows {shape}"));

                // aᵀ · b: `a` is k × rows read transposed, `b` is k × cols.
                // It overwrites, so every buffer starts NaN-poisoned.
                let mut per_level = Vec::new();
                for &level in runnable_levels() {
                    let mut whole = vec![f64::NAN; rows * cols];
                    gemm_ta_rows_with(level, &a, &b, &mut whole, 0, rows, k, rows, cols);
                    // Row sub-ranges, as `WorkerPool::run_mut` would hand them out.
                    let mut chunked = vec![f64::NAN; rows * cols];
                    for chunk in [
                        0..rows / 3,
                        rows / 3..rows - rows / 2,
                        rows - rows / 2..rows,
                    ] {
                        let (start, end) = (chunk.start, chunk.end);
                        let out = &mut chunked[start * cols..end * cols];
                        gemm_ta_rows_with(level, &a, &b, out, start, end, k, rows, cols);
                    }
                    assert!(
                        bits_equal(&chunked, &whole),
                        "{level} gemm_ta_rows chunked {shape}"
                    );
                    per_level.push(whole);
                }
                assert_levels_agree(per_level, &format!("gemm_ta_rows {shape}"));
            }
        }
    }
}

/// Every runnable level's `a · bᵀ` against the scalar arm, **bit for bit**,
/// on shapes that hit every seam of the 2 × 4 and 8 × 4 tiles: a-rows below,
/// at and past a tile and a pair; a reduction of one step, a scalar tail
/// alone, one 4-lane step with and without a tail, both sides of the
/// 64-step panel edge and the 600-wide network; b-rows below, at and past a
/// tile and a panel. `out` starts NaN-poisoned, and the rows also run
/// chunked over a real pool at every level.
///
/// The inputs carry the values a wrong join would show: a-row 0 and b-row 0
/// are tiny enough that their products round to `−0.0` (the panel sum is
/// added onto `+0.0`, which makes it `+0.0`), the last a-row carries an `∞`,
/// and the dot of a-row 1 with b-row 1 meets two NaNs with different
/// payloads in different lanes, so the horizontal sum's operand order
/// decides which payload survives. The vector arms pin that order; a scalar
/// `+` does not pin which payload it keeps, so against the scalar arm a NaN
/// only has to be a NaN.
#[test]
fn gemm_tb_is_bit_identical_to_scalar_at_every_level_on_every_seam() {
    let pool = WorkerPool::new(4);
    let mut rng = StdRng::seed_from_u64(4096);
    let nan = |payload: u64| f64::from_bits(0x7FF8_0000_0000_0000 | payload);
    for &rows_a in &[1usize, 2, 7, 8, 9, 16, 32, 33] {
        for &k in &[1usize, 3, 4, 5, 63, 64, 65, 600, 601] {
            for &rows_b in &[1usize, 3, 4, 5, 63, 64, 65, 600] {
                let shape = format!("{rows_a}x{k}x{rows_b}");
                let mut a = random_vec(&mut rng, rows_a * k);
                let mut b = random_vec(&mut rng, rows_b * k);
                for (x, y) in a[..k].iter_mut().zip(&mut b[..k]) {
                    *x = -1e-200 * x.abs();
                    *y = 1e-200 * y.abs();
                }
                if rows_a > 1 && rows_b > 1 && k > 1 {
                    a[k] = nan(1);
                    b[k + 1] = nan(2);
                }
                if rows_a > 2 {
                    a[(rows_a - 1) * k + k / 2] = f64::NEG_INFINITY;
                }
                let mut per_level = Vec::new();
                for &level in runnable_levels() {
                    let mut whole = vec![f64::NAN; rows_a * rows_b];
                    gemm_tb_rows_with(level, &a, &b, &mut whole, rows_a, k, rows_b);
                    assert_eq!(
                        whole[0].to_bits(),
                        0.0f64.to_bits(),
                        "{level} −0.0 dot {shape}"
                    );
                    // Chunking moves rows between tiles, pairs and single dots.
                    let mut chunked = vec![f64::NAN; rows_a * rows_b];
                    pool.run_mut(&mut chunked, rows_b, 1, |start, chunk| {
                        let rows = chunk.len() / rows_b;
                        let a_rows = &a[start * k..(start + rows) * k];
                        gemm_tb_rows_with(level, a_rows, &b, chunk, rows, k, rows_b);
                    });
                    assert!(bits_equal(&chunked, &whole), "{level} chunked {shape}");
                    per_level.push(whole);
                }
                assert_levels_agree(per_level, &format!("gemm_tb_rows {shape}"));
            }
        }
    }
}

/// Asserts that `per_level` — one output per [`runnable_levels`] entry,
/// lowest (scalar) first — agrees bit for bit: every vector level with the
/// scalar arm, up to the payload where both are NaN, and the 512-bit arm
/// with the 256-bit one exactly, NaN payloads included.
fn assert_levels_agree(per_level: Vec<Vec<f64>>, what: &str) {
    let (scalar, vector) = per_level.split_first().expect("scalar always runs");
    for (level, out) in runnable_levels()[1..].iter().zip(vector) {
        let same = out.len() == scalar.len()
            && out
                .iter()
                .zip(scalar)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()));
        assert!(same, "{level} vs scalar: {what}");
    }
    if let [avx2, avx512] = vector {
        assert!(bits_equal(avx512, avx2), "avx512 vs avx2: {what}");
    }
}

/// The Adam update carrying the soft target update equals the plain update
/// followed by `Matrix::blend` — the oracle the deleted `blend_from` chain
/// bottomed out in — bit for bit at every runnable level: every length
/// around the 4-lane boundary plus a large ragged one, the α edge cases (0
/// leaves the target alone, 1 snaps it onto the online parameters), and
/// NaN / ±0 / subnormal moments and targets.
#[test]
fn adam_with_target_is_adam_then_blend_at_every_level() {
    let mut rng = StdRng::seed_from_u64(77);
    let specials = [
        f64::NAN,
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 4.0,
        -f64::MIN_POSITIVE / 1024.0,
        5e-324,
    ];
    let (b1, b2) = (0.9, 0.999);
    let step = AdamStep {
        learning_rate: 1e-3,
        beta1: b1,
        beta2: b2,
        epsilon: 1e-8,
        bias1: 1.0 - b1.powi(3),
        bias2: 1.0 - b2.powi(3),
    };
    for len in (0..=9).chain([1031]) {
        let p0 = random_vec(&mut rng, len);
        let grads = random_vec(&mut rng, len);
        let mut m0 = random_vec(&mut rng, len);
        let mut v0: Vec<f64> = (0..len).map(|_| rng.gen_range(0.0..2.0)).collect();
        let mut t0 = random_vec(&mut rng, len);
        // Specials at rotating positions of each state vector.
        for (i, &special) in specials.iter().enumerate() {
            if len > 0 {
                m0[i % len] = special;
                v0[(i + 1) % len] = special.abs();
                t0[(i + 2) % len] = special;
            }
        }
        for alpha in [0.0, 0.01, 1.0] {
            for &level in runnable_levels() {
                let (mut p_ref, mut m_ref, mut v_ref) = (p0.clone(), m0.clone(), v0.clone());
                adam_update_with(
                    level, &mut p_ref, &grads, &mut m_ref, &mut v_ref, &step, None,
                );
                // `Matrix` has no empty shape; an empty target stays empty.
                let mut t_ref = t0.clone();
                if len > 0 {
                    let mut oracle = Matrix::from_vec(1, len, t_ref);
                    oracle.blend(alpha, &Matrix::from_vec(1, len, p_ref.clone()));
                    t_ref = oracle.as_slice().to_vec();
                }

                let (mut p, mut m, mut v, mut t) = (p0.clone(), m0.clone(), v0.clone(), t0.clone());
                let target = Some(SoftTarget {
                    params: &mut t,
                    alpha,
                });
                adam_update_with(level, &mut p, &grads, &mut m, &mut v, &step, target);
                let case = format!("{level} len={len} α={alpha}");
                assert!(bits_equal(&p, &p_ref), "{case}: params diverged");
                assert!(bits_equal(&m, &m_ref), "{case}: m diverged");
                assert!(bits_equal(&v, &v_ref), "{case}: v diverged");
                assert!(bits_equal(&t, &t_ref), "{case}: target diverged");
            }
        }
    }
}

/// A `bias1` of exactly 1.0 is not divided by. The always-dividing textbook
/// loop is the oracle: every arm, with and without a target riding along,
/// lands on its bits with `bias1` at 1.0 and (the control) below it — on NaN,
/// ±0, subnormal and ±∞ moments and gradients too, where `x / 1.0 == x` has
/// to hold for the payload and the sign, not just the value.
#[test]
fn adam_skipped_bias_division_changes_no_bit() {
    let mut rng = StdRng::seed_from_u64(356);
    let specials = [
        f64::NAN,
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 4.0,
        -f64::MIN_POSITIVE / 1024.0,
        5e-324,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let (b1, b2) = (0.9f64, 0.999f64);
    assert_eq!(1.0 - b1.powi(356), 1.0, "bias1 is exactly 1.0 from t = 356");
    assert!(1.0 - b1.powi(355) < 1.0);
    let len = 3 * specials.len() + 5;
    for (bias1, bias2) in [(1.0, 1.0 - b2.powi(356)), (0.75, 1.0 - b2.powi(356))] {
        let step = AdamStep {
            learning_rate: 1e-3,
            beta1: b1,
            beta2: b2,
            epsilon: 1e-8,
            bias1: std::hint::black_box(bias1),
            bias2: std::hint::black_box(bias2),
        };
        let p0 = random_vec(&mut rng, len);
        let mut grads = random_vec(&mut rng, len);
        let mut m0 = random_vec(&mut rng, len);
        let mut v0: Vec<f64> = (0..len).map(|_| rng.gen_range(0.0..2.0)).collect();
        let t0 = random_vec(&mut rng, len);
        // One special per element at most, so no lane has two NaN payloads
        // to choose between.
        for (i, &special) in specials.iter().enumerate() {
            m0[3 * i] = special;
            v0[3 * i + 1] = special.abs();
            grads[3 * i + 2] = special;
        }

        let (mut p_ref, mut m_ref, mut v_ref) = (p0.clone(), m0.clone(), v0.clone());
        textbook_adam(&step, &mut p_ref, &grads, &mut m_ref, &mut v_ref);

        for &level in runnable_levels() {
            for blend in [false, true] {
                let (mut p, mut m, mut v, mut t) = (p0.clone(), m0.clone(), v0.clone(), t0.clone());
                let target = blend.then_some(SoftTarget {
                    params: &mut t,
                    alpha: 0.01,
                });
                adam_update_with(level, &mut p, &grads, &mut m, &mut v, &step, target);
                let case = format!("{level} bias=({bias1}, {bias2}) blend={blend}");
                assert!(bits_equal(&p, &p_ref), "{case}: params diverged");
                assert!(bits_equal(&m, &m_ref), "{case}: m diverged");
                assert!(bits_equal(&v, &v_ref), "{case}: v diverged");
            }
        }
    }
}

/// The textbook Adam recurrence, written independently of the kernel's own
/// scalar arm: no FMA, and IEEE `/` for both bias corrections, always.
fn textbook_adam(step: &AdamStep, p: &mut [f64], grads: &[f64], m: &mut [f64], v: &mut [f64]) {
    let (b1, b2) = (step.beta1, step.beta2);
    for i in 0..p.len() {
        let g = grads[i];
        m[i] = b1 * m[i] + (1.0 - b1) * g;
        v[i] = b2 * v[i] + (1.0 - b2) * g * g;
        let m_hat = m[i] / step.bias1;
        let v_hat = v[i] / step.bias2;
        p[i] -= step.learning_rate * m_hat / (v_hat.sqrt() + step.epsilon);
    }
}

/// The vector arm divides by the bias corrections `b = 1 − βᵗ` without the
/// divider (a reciprocal and two FMA corrections, Markstein's theorem);
/// this is the proof's test: at every runnable level the kernel lands on
/// [`textbook_adam`]'s IEEE quotients bit for bit for **every** step
/// constant a training run reaches — `1 − 0.999ᵗ` for t = 1…40 000 (it is
/// exactly 1.0 long before the end), `1 − 0.9ᵗ` for t = 1…355, and a β just
/// below 1, where `b` falls to 2⁻⁵³ and `1/b` rises to 2⁵³ — plus a few
/// constants outside that range, which a hand-built [`AdamStep`] can carry
/// and the kernel must divide by.
///
/// The dividends are adversarial: all-zeros and all-ones significands and
/// binade edges from 2⁻⁹⁰⁰ to 2⁹⁰⁰, the guard edges `2^±900` with one ulp
/// either side, ±0, negative `v`, and — outside the guard, where the kernel
/// divides — all-ones significands below 2⁻⁹⁷⁰, the smallest normal,
/// subnormals, `f64::MAX`, ±∞ and NaN.
/// Rotating them by the step index moves each through every lane and
/// between pure and mixed vectors, and the lengths run through every
/// residue mod 4, so the scalar tail takes a share too. The test fails if
/// the guard's lower edge drops to 2⁻¹⁰⁰⁰ or its upper edge to ∞, if a
/// `−0` lane comes out as `+0`, if the bias corrections swap places, or if
/// an out-of-range `b` skips the divider. It passes with the second
/// correction dropped: on the inputs tried one correction already lands on
/// the IEEE bits, but only the second is covered by the theorem.
///
/// Two calls per constant make each quotient visible. With `β₁ = 0`,
/// `β₂ = 1`, `lr = 1`, `ε = 0` and `p = −0`: the first puts the dividend in
/// `m` (the gradient, exactly) with `v = b`, so `√(v/b) = 1` and `p` comes
/// out as `−(m/b)`, every bit of the first quotient; the second puts it in
/// `v` (exactly) with `bias1 = 1`, so `p = −1/√(v/b)` checks the second
/// quotient's wiring.
#[test]
fn adam_bias_corrections_divide_bit_exactly_at_every_step_of_a_run() {
    let below_one = 1.0 - f64::EPSILON / 2.0;
    let mut divisors: Vec<f64> = (1..=40_000).map(|t| 1.0 - 0.999f64.powi(t)).collect();
    divisors.extend((1..=355).map(|t| 1.0 - 0.9f64.powi(t)));
    divisors.extend((1..=1000).map(|t| 1.0 - below_one.powi(t)));
    assert_eq!(divisors[40_355], f64::EPSILON / 2.0, "1/b = 2⁵³");
    // Outside the proof's `[2⁻⁵³, 1]`, where the kernel divides.
    divisors.extend([f64::EPSILON / 4.0, 1.0f64.next_up(), 4.0, 1e-300]);

    let (lo, hi) = (2f64.powi(-900), 2f64.powi(900));
    let mut inside = vec![0.0, -0.0, lo, hi, lo.next_up(), hi.next_down()];
    for e in [-900, -899, -537, -54, -53, -1, 0, 1, 52, 53, 511, 899] {
        // The binade's first value (all-zeros significand) and last (all
        // ones), each with its inward neighbour; consecutive exponents put
        // both sides of a binade edge in.
        let (first, last) = (2f64.powi(e), 2f64.powi(e + 1).next_down());
        inside.extend([first, first.next_up(), last, last.next_down()]);
    }
    let mut rng = StdRng::seed_from_u64(39);
    inside.extend((0..24).map(|_| rng.gen_range(-2.0..2.0)));
    inside.extend((0..24).map(|_| rng.gen_range(1.0..2.0) * 2f64.powi(rng.gen_range(-900..900))));
    let negated: Vec<f64> = inside.iter().map(|x| -x).collect();
    inside.extend(negated);
    // Below about 2⁻⁹⁷⁰ the corrections' residuals lose bits to underflow
    // and the sequence misses the IEEE quotient for many `b` (most often
    // on all-ones significands), which is what the guard is for: with
    // these in, a guard loosened to 2⁻¹⁰⁰⁰ or below shows.
    let outside = [
        lo.next_down(),
        hi.next_up(),
        2f64.powi(-999).next_down(),
        -(4.0 * f64::MIN_POSITIVE).next_down(),
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE.next_down(),
        -f64::MIN_POSITIVE / 4.0,
        5e-324,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    let mut xs = Vec::new();
    for (k, &b) in divisors.iter().enumerate() {
        xs.clear();
        let rotation = k % inside.len();
        let mut fill = inside[rotation..].iter().chain(&inside[..rotation]);
        // Four in-guard dividends between out-of-guard ones, so no vector
        // holds two of the latter and each one alone decides its fallback.
        for &x in &outside {
            xs.extend(fill.by_ref().take(4));
            xs.push(x);
        }
        xs.extend(fill);
        xs.truncate(xs.len() - k % 4);
        let len = xs.len();
        let quotient_in_m = AdamStep {
            learning_rate: 1.0,
            beta1: 0.0,
            beta2: 1.0,
            epsilon: 0.0,
            bias1: b,
            bias2: b,
        };
        let quotient_in_v = AdamStep {
            bias1: 1.0,
            ..quotient_in_m
        };
        for (step, grads, m0, v0) in [
            (&quotient_in_m, xs.clone(), vec![-0.0; len], vec![b; len]),
            (&quotient_in_v, vec![1.0; len], vec![-0.0; len], xs.clone()),
        ] {
            let (mut p_ref, mut m_ref, mut v_ref) = (vec![-0.0; len], m0.clone(), v0.clone());
            textbook_adam(step, &mut p_ref, &grads, &mut m_ref, &mut v_ref);
            for &level in runnable_levels() {
                let (mut p, mut m, mut v) = (vec![-0.0; len], m0.clone(), v0.clone());
                adam_update_with(level, &mut p, &grads, &mut m, &mut v, step, None);
                let case = format!("{level} b={b:e} (#{k}) bias1={}", step.bias1);
                assert!(bits_equal(&p, &p_ref), "{case}: params diverged");
                assert!(bits_equal(&m, &m_ref), "{case}: m diverged");
                assert!(bits_equal(&v, &v_ref), "{case}: v diverged");
            }
        }
    }
}

/// Exact bitwise equality (NaNs compare equal to themselves by bit pattern).
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The dispatched Matrix-level kernels and the level-explicit slice kernels
/// must agree bit-for-bit: whatever `active_level()` resolved to (auto-detect
/// normally, scalar under `CAPES_SIMD=off` in the dedicated CI pass) is
/// exactly what `matmul_into` runs, on one thread below the pool threshold and
/// split across the pool above it (under `CAPES_THREADS=2` in CI).
#[test]
fn dispatched_matrix_kernels_match_the_active_level_bitwise() {
    let mut rng = StdRng::seed_from_u64(99);
    let level = active_level();
    for (m, k, n) in [(13, 77, 21), (160, 160, 161)] {
        let a = Matrix::from_vec(m, k, random_vec(&mut rng, m * k));
        let b = Matrix::from_vec(k, n, random_vec(&mut rng, k * n));
        let mut expected = vec![0.0; m * n];
        gemm_rows_with(level, a.as_slice(), b.as_slice(), &mut expected, m, k, n);
        let mut got = Matrix::zeros(m, n);
        a.matmul_into(&b, &mut got);
        assert!(
            bits_equal(got.as_slice(), &expected),
            "{m}x{k}x{n} must dispatch to the active SIMD level ({level})"
        );
    }

    // Under CAPES_SIMD=off the active level must be scalar even on AVX2
    // hosts, `avx2` caps it there on a 512-bit host; otherwise it must be
    // whatever detection found.
    match std::env::var("CAPES_SIMD").as_deref() {
        Ok("off") | Ok("scalar") | Ok("0") | Ok("false") => {
            assert_eq!(level, SimdLevel::Scalar, "CAPES_SIMD=off must force scalar");
        }
        Ok("avx2") | Ok("fma") => {
            assert_eq!(level, detected_level().min(SimdLevel::Avx2Fma));
        }
        _ => assert_eq!(level, detected_level()),
    }
}

/// The fused affine kernel rides `gemm_rows`, so it must match
/// bias-broadcast + explicit-level GEMM bit-for-bit at the active level.
#[test]
fn affine_into_rides_the_active_level_bitwise() {
    let mut rng = StdRng::seed_from_u64(7);
    let (m, k, n) = (9, 33, 14);
    let x = Matrix::from_vec(m, k, random_vec(&mut rng, m * k));
    let w = Matrix::from_vec(k, n, random_vec(&mut rng, k * n));
    let bias = Matrix::from_vec(1, n, random_vec(&mut rng, n));
    let mut out = Matrix::filled(m, n, f64::NAN);
    x.affine_into(&w, &bias, &mut out);

    let mut expected = vec![0.0; m * n];
    for r in 0..m {
        expected[r * n..(r + 1) * n].copy_from_slice(bias.as_slice());
    }
    gemm_rows_with(
        active_level(),
        x.as_slice(),
        w.as_slice(),
        &mut expected,
        m,
        k,
        n,
    );
    assert!(bits_equal(out.as_slice(), &expected));
}
