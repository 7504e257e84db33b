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
//! 4. **Width invariance** — the 512-bit GEMM panel is bit-for-bit the
//!    256-bit one on shapes that hit every tile seam, and the Adam update
//!    carrying the soft target update is bit-for-bit the plain update
//!    followed by `Matrix::blend`, at every level.
//!
//! The `CAPES_SIMD=off` arm of CI runs this whole suite (and everything
//! else) with the scalar kernels dispatched, so both sides of the runtime
//! switch stay covered; `runnable_levels` additionally pins every level the
//! host can run in-process — on a 512-bit runner that proves `Avx2Fma`
//! explicitly, without a `CAPES_SIMD=avx2` pass. The 512-bit cases skip (not
//! fail) on hosts without `avx512f`, and the suite prints which levels ran.

#![forbid(unsafe_code)]

use capes_tensor::simd::{
    active_level, adam_update_with, bellman_targets_with, detected_level, gemm_rows_packed_with,
    gemm_rows_unpacked_with, gemm_rows_with, gemm_ta_rows_with, gemm_tb_rows_with, runnable_levels,
    tanh_backward_with, tanh_forward_with, tanh_value, AdamStep, SimdLevel, SoftTarget,
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

fn approx(a: f64, b: f64) -> bool {
    capes_tensor::approx_eq(a, b, 1e-9)
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

    /// `out += aᵀ · b` at every runnable level vs the naive reference.
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
            let mut out = vec![0.0; m * p];
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

    /// The packed-B GEMM is **bit-identical** to the streaming kernel at
    /// every runnable level — stronger than reference-equivalence: packing
    /// only relocates the `b` fragments, every output element's FMA chain is
    /// unchanged. Shapes cross the auto gate (`rows ≥ 8 && cols ≥ 128`) in
    /// both directions, span 1–4 k-panels with ragged tails, hit every
    /// `cols % 8` remainder class, and accumulate onto a non-zero seed; the
    /// auto-dispatched entry must match both (the gate is invisible).
    #[test]
    fn packed_gemm_is_bit_identical_to_unpacked_at_every_level(
        (m, k, n) in (1usize..24, 1usize..200, 1usize..160),
        off_b in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_vec(&mut rng, m * k);
        let b = offset_vec(&mut rng, k * n, off_b);
        let seed_out = random_vec(&mut rng, m * n);
        for &level in runnable_levels() {
            let mut unpacked = seed_out.clone();
            let mut packed = seed_out.clone();
            let mut auto = seed_out.clone();
            gemm_rows_unpacked_with(level, &a, &b[off_b..], &mut unpacked, m, k, n);
            gemm_rows_packed_with(level, &a, &b[off_b..], &mut packed, m, k, n);
            gemm_rows_with(level, &a, &b[off_b..], &mut auto, m, k, n);
            prop_assert!(
                bits_equal(&packed, &unpacked),
                "{level} {m}x{k}x{n}: packed kernel diverged from streaming"
            );
            prop_assert!(
                bits_equal(&auto, &unpacked),
                "{level} {m}x{k}x{n}: auto gate perturbed the result"
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
    /// an independently-written scalar reference of the textbook recurrence —
    /// stronger than the GEMM guarantee (ulp-close), because the vector arm
    /// deliberately forgoes FMA. Lengths cross the 4-lane boundary in every
    /// residue class, `t` exercises early (large-bias-correction) steps and
    /// the later era in which `bias1` has rounded to exactly 1.0 and the
    /// kernels stop dividing by it (the reference always divides), and
    /// `scale` covers clipped and unclipped gradients.
    #[test]
    fn adam_update_is_bit_identical_at_every_level(
        len in 1usize..130,
        t in 1i32..60,
        late in any::<bool>(),
        clip in any::<bool>(),
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
            scale: if clip { 0.37 } else { 1.0 },
        };

        // Independent scalar reference (not the kernel's own scalar arm).
        let mut p_ref = p0.clone();
        let mut m_ref = m0.clone();
        let mut v_ref = v0.clone();
        for i in 0..len {
            let g = grads[i] * step.scale;
            m_ref[i] = b1 * m_ref[i] + (1.0 - b1) * g;
            v_ref[i] = b2 * v_ref[i] + (1.0 - b2) * g * g;
            let m_hat = m_ref[i] / step.bias1;
            let v_hat = v_ref[i] / step.bias2;
            p_ref[i] -= step.learning_rate * m_hat / (v_hat.sqrt() + step.epsilon);
        }

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
    /// to the scalar [`tanh_value`] sequence (FMA-free like Adam), on lengths
    /// crossing the 4-lane boundary in every residue class, at unaligned
    /// offsets, with inputs spanning both approximation branches, the
    /// saturation clamp and non-finite values — and it tracks the libm
    /// `tanh` within 1e-14 relative.
    #[test]
    fn tanh_forward_is_bit_identical_at_every_level(
        len in 1usize..130,
        (off_src, off_dst) in (0usize..3, 0usize..3),
        poisons in prop::collection::vec((0usize..130, 0usize..4), 3),
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
                _ => -0.0,
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

    /// The tanh backward kernel (`g *= 1 − y²`) at every runnable level is
    /// bit-identical to an independently-written scalar loop.
    #[test]
    fn tanh_backward_is_bit_identical_at_every_level(
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
        for &level in runnable_levels() {
            let mut grads = grads0.clone();
            tanh_backward_with(level, &output[off..], &mut grads[off..]);
            prop_assert!(bits_equal(&grads[off..], &reference), "{level} len={len} diverged");
        }
    }

    /// The fused Bellman-target kernel at every runnable level is
    /// bit-identical to an independently-written reference of the scalar
    /// recurrence (`if v > m` row max, then `r + γ·m`), across row counts in
    /// every 4-lane residue class, ragged column counts, and NaN poison in
    /// the Q matrix (a NaN candidate must never displace the running max; a
    /// NaN row seed must poison that row's target).
    #[test]
    fn bellman_targets_is_bit_identical_at_every_level(
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
        for &level in runnable_levels() {
            let mut out = vec![0.0; rows];
            bellman_targets_with(level, &rewards, &next_q, cols, discount, &mut out);
            prop_assert!(bits_equal(&out, &reference), "{level} {rows}x{cols} diverged");
        }
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

            // Transpose-A: chunk the output rows of the m × p product.
            let ta_a = random_vec(&mut StdRng::seed_from_u64(seed ^ 1), k * m);
            let mut ta_whole = vec![0.0; m * n];
            gemm_ta_rows_with(level, &ta_a, &b[..k * n], &mut ta_whole, 0, m, k, m, n);
            let mut ta_chunked = vec![0.0; m * n];
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

/// The 512-bit GEMM panel against the 256-bit one, **bit for bit**, on shapes
/// that hit every seam of the 8 × 24 tile: no full row tile, exactly one, one
/// plus a remainder, the training batch and one past it, and a panel tall
/// enough to flip the tile order and the pack gate; no full column
/// tile, one short of one, exactly one, one past, the 600-wide network and
/// one past it; a single step, half a k-panel, and both sides of the
/// 64-step panel edge. `out` is seeded non-zero (the chains start from it),
/// all three `gemm_rows` entries are pinned, and `gemm_ta_rows` additionally
/// runs over sub-ranges the way the pool chunks its output rows.
#[test]
fn avx512_panel_is_bit_identical_to_avx2_on_every_seam() {
    eprintln!(
        "simd_properties: levels run on this host: {:?}",
        runnable_levels()
    );
    if detected_level() < SimdLevel::Avx512 {
        eprintln!("simd_properties: no avx512f on this host — 512-bit cases skipped");
        return;
    }
    let (narrow, wide) = (SimdLevel::Avx2Fma, SimdLevel::Avx512);
    let mut rng = StdRng::seed_from_u64(512);
    for &rows in &[1usize, 7, 8, 9, 32, 33, 72] {
        for &cols in &[5usize, 23, 24, 25, 600, 601] {
            for &k in &[1usize, 32, 63, 64, 65, 600] {
                let shape = format!("{rows}x{k}x{cols}");
                let a = random_vec(&mut rng, rows * k);
                let b = random_vec(&mut rng, k * cols);
                let seed_out = random_vec(&mut rng, rows * cols);
                type Gemm = fn(SimdLevel, &[f64], &[f64], &mut [f64], usize, usize, usize);
                let entries: [(&str, Gemm); 3] = [
                    ("auto", gemm_rows_with),
                    ("packed", gemm_rows_packed_with),
                    ("unpacked", gemm_rows_unpacked_with),
                ];
                for (name, gemm) in entries {
                    let mut want = seed_out.clone();
                    let mut got = seed_out.clone();
                    gemm(narrow, &a, &b, &mut want, rows, k, cols);
                    gemm(wide, &a, &b, &mut got, rows, k, cols);
                    assert!(bits_equal(&got, &want), "gemm_rows {name} {shape}");
                }

                // aᵀ · b: `a` is k × rows read transposed, `b` is k × cols.
                let mut want = seed_out.clone();
                gemm_ta_rows_with(narrow, &a, &b, &mut want, 0, rows, k, rows, cols);
                let mut whole = seed_out.clone();
                gemm_ta_rows_with(wide, &a, &b, &mut whole, 0, rows, k, rows, cols);
                assert!(bits_equal(&whole, &want), "gemm_ta_rows {shape}");
                // Row sub-ranges, as `WorkerPool::run` would hand them out.
                let mut chunked = seed_out.clone();
                for chunk in [
                    0..rows / 3,
                    rows / 3..rows - rows / 2,
                    rows - rows / 2..rows,
                ] {
                    let (start, end) = (chunk.start, chunk.end);
                    let out = &mut chunked[start * cols..end * cols];
                    gemm_ta_rows_with(wide, &a, &b, out, start, end, k, rows, cols);
                }
                assert!(bits_equal(&chunked, &want), "gemm_ta_rows chunked {shape}");
            }
        }
    }
}

/// The Adam update carrying the soft target update equals the plain update
/// followed by `Matrix::blend` — the oracle the deleted `blend_from` chain
/// bottomed out in — bit for bit at every runnable level: every length
/// around the 4-lane boundary plus a large ragged one, a clip scale ≠ 1, the
/// α edge cases (0 leaves the target alone, 1 snaps it onto the online
/// parameters), and NaN / ±0 / subnormal moments and targets.
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
        scale: 0.37,
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
            scale: 0.37,
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
        for i in 0..len {
            let g = grads[i] * step.scale;
            m_ref[i] = b1 * m_ref[i] + (1.0 - b1) * g;
            v_ref[i] = b2 * v_ref[i] + (1.0 - b2) * g * g;
            let m_hat = m_ref[i] / step.bias1;
            let v_hat = v_ref[i] / step.bias2;
            p_ref[i] -= step.learning_rate * m_hat / (v_hat.sqrt() + step.epsilon);
        }

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

/// Exact bitwise equality (NaNs compare equal to themselves by bit pattern).
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The dispatched Matrix-level kernels and the level-explicit slice kernels
/// must agree bit-for-bit: whatever `active_level()` resolved to (auto-detect
/// normally, scalar under `CAPES_SIMD=off` in the dedicated CI pass) is
/// exactly what `MatmulStrategy::Blocked`/`Pooled` run.
#[test]
fn dispatched_matrix_kernels_match_the_active_level_bitwise() {
    use capes_tensor::MatmulStrategy;
    let mut rng = StdRng::seed_from_u64(99);
    let (m, k, n) = (13, 77, 21);
    let a = Matrix::from_vec(m, k, random_vec(&mut rng, m * k));
    let b = Matrix::from_vec(k, n, random_vec(&mut rng, k * n));
    let level = active_level();

    let mut expected = vec![0.0; m * n];
    gemm_rows_with(level, a.as_slice(), b.as_slice(), &mut expected, m, k, n);
    for strategy in [MatmulStrategy::Blocked, MatmulStrategy::Pooled] {
        let got = a.matmul_with(&b, strategy);
        assert!(
            bits_equal(got.as_slice(), &expected),
            "{strategy:?} must dispatch to the active SIMD level ({level})"
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
