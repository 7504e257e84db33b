//! Explicit SIMD GEMM inner kernels with runtime dispatch.
//!
//! The blocked kernels in [`crate::matmul`] are bounds-check-free and rank-4
//! unrolled, but at the x86-64 *baseline* target (SSE2) the autovectorizer
//! can only emit 2-wide f64 arithmetic and no fused multiply-adds. This
//! module provides hand-written vector inner kernels for all three GEMM
//! shapes the training step uses —
//!
//! * `out += a · b` ([`gemm_rows_with`], also the fused-affine kernel:
//!   `affine_into` seeds `out` with the bias and accumulates on top),
//! * `out[i_start..i_end] += (aᵀ · b)[i_start..i_end]`
//!   ([`gemm_ta_rows_with`], the weight-gradient product), and
//! * `out = a · bᵀ` ([`gemm_tb_rows_with`], the input-gradient product)
//!
//! — at three totally ordered levels ([`SimdLevel`]), `Scalar < Avx2Fma <
//! Avx512`:
//!
//! | level     | what it vectorises                                              |
//! |-----------|-----------------------------------------------------------------|
//! | `Scalar`  | nothing by hand — the portable rank-4 kernels                   |
//! | `Avx2Fma` | everything below: 4 × 8 `ymm` GEMM tiles, the `a · bᵀ` dot kernel, Adam, tanh, Bellman targets |
//! | `Avx512`  | **only** the shared GEMM panel of `out += a · b` / `out += aᵀ · b` (8 × 24 `zmm` tiles, remainders on the `ymm` tiles); every other kernel runs its `Avx2Fma` arm unchanged |
//!
//! The 512-bit level is deliberately that narrow. The panel's per-element
//! FMA chain is the same at any lane width, so widening it is
//! **bit-identical** to `Avx2Fma`; the `a · bᵀ` dot kernel's horizontal sum
//! `(l0 + l2) + (l1 + l3)` fixes its summation order to four lanes (eight
//! would change bits), Adam is bound by the divider (`vdivpd zmm` has the
//! same per-element throughput as `ymm`), and tanh/Bellman are a rounding
//! error of a training step.
//!
//! The level is selected **once per process** and cached: the first dispatch
//! (the worker-pool initialisation warms it) probes the CPU via
//! `is_x86_feature_detected!` and honours the `CAPES_SIMD` environment
//! variable:
//!
//! | `CAPES_SIMD`                  | effect                                   |
//! |-------------------------------|------------------------------------------|
//! | unset / `auto` / `on`         | the highest level the CPU supports       |
//! | `off` / `scalar` / `0`        | always use the portable scalar kernels   |
//! | `avx2` / `fma`                | **cap** the level at `Avx2Fma` (clamped to what the CPU supports — never unsound); on a 512-bit host this pins the 256-bit kernels |
//! | anything else                 | scalar kernels + a one-time warning (a typo in the kill switch fails safe) |
//!
//! Every `_with(level, ..)` entry clamps a request the CPU cannot run *down*
//! to the highest level it can ([`detected_level`]), so any level is safe to
//! pass anywhere.
//!
//! The scalar arm is byte-for-byte the pre-SIMD blocked kernel, so forcing
//! `CAPES_SIMD=off` reproduces the previous releases' results bit-for-bit.
//! The vector arms contract each multiply-add into one FMA (one rounding
//! instead of two), so their results can differ from the scalar arm in the
//! final ulp — the property tests bound the difference against the naive
//! reference — while `Avx512` and `Avx2Fma` agree bit-for-bit
//! (property-tested). Non-finite operands propagate exactly like the naive
//! kernel in every arm: every product is computed, `0 · NaN` is `NaN`, never
//! skipped. Remainder columns/rows that do not fill a vector are handled
//! with narrower tiles and scalar-FMA tails inside the vector arms, and every
//! load/store is unaligned (`loadu`/`storeu`), so kernels accept arbitrary
//! sub-slices.
//!
//! All three kernels chunk by *output rows* only, and every output element is
//! computed by exactly one in-order FMA chain regardless of the chunking or
//! of which tile shape covered it — which is why the pooled (multi-threaded)
//! and single-threaded dispatch, and the 256- and 512-bit tiles, agree
//! bit-for-bit (property-tested).
//!
//! Besides the GEMMs, the module carries the element-wise training kernels.
//! The fused Adam parameter update ([`adam_update_with`]) optionally carries
//! the DQN soft target update in the same pass (its [`SoftTarget`]
//! argument): after `θ[i]` is stored,
//! `θ⁻[i] = θ⁻[i]·(1−α) + θ[i]·α`. Unlike the GEMM vector arms, its AVX2 arm
//! uses **no FMA contraction** — every operation (mul, add, div, sqrt, sub)
//! is individually correctly rounded, in the same order as the scalar arm —
//! so the arms are **bit-identical**, not merely ulp-close (property-tested),
//! and the blend lands on the bits of `Matrix::blend`. Toggling `CAPES_SIMD`
//! therefore never perturbs an optimizer trajectory on its own.

use std::fmt;
use std::sync::OnceLock;

/// Which inner-kernel implementation the kernels run. Totally ordered,
/// lowest first: a level runs everything the levels below it run, so "can
/// run AVX2" is `level >= SimdLevel::Avx2Fma`, never `==`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar kernels (rank-4 unrolled, autovectorized at whatever
    /// baseline the build targets). Bit-identical to the pre-SIMD kernels.
    Scalar,
    /// Hand-written AVX2 kernels with FMA contraction (x86-64 only).
    Avx2Fma,
    /// [`SimdLevel::Avx2Fma`] with the shared GEMM panel on 512-bit tiles
    /// (x86-64 with `avx512f`); bit-identical to `Avx2Fma` everywhere.
    Avx512,
}

impl SimdLevel {
    /// Every level, lowest first.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2Fma, SimdLevel::Avx512];
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimdLevel::Scalar => write!(f, "scalar"),
            SimdLevel::Avx2Fma => write!(f, "avx2+fma"),
            SimdLevel::Avx512 => write!(f, "avx512"),
        }
    }
}

/// Block edge (in elements) over the inner dimension for the cache-blocked
/// kernels: a 64-row panel of a 600-wide B matrix is ~300 KiB, which stays
/// resident in L2 while the panel is swept once per output row.
pub(crate) const BLOCK: usize = 64;

/// The highest level this CPU can run, probed with
/// `is_x86_feature_detected!`. Non-x86-64 targets always report
/// [`SimdLevel::Scalar`].
pub fn detected_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
            if std::is_x86_feature_detected!("avx512f") {
                return SimdLevel::Avx512;
            }
            return SimdLevel::Avx2Fma;
        }
    }
    SimdLevel::Scalar
}

/// Every level this CPU can run, lowest first — what the level-explicit
/// tests and benches iterate.
pub fn runnable_levels() -> &'static [SimdLevel] {
    &SimdLevel::ALL[..=detected_level() as usize]
}

/// The arm a request for `level` runs on this CPU: the request itself when
/// the CPU supports it, otherwise the highest level it does support.
#[inline]
fn runnable(level: SimdLevel) -> SimdLevel {
    level.min(detected_level())
}

/// The level every auto-dispatching kernel in this process uses, selected on
/// first call (the GEMM pool initialisation warms it) and cached for the
/// process lifetime: the `CAPES_SIMD` override when set (see the module
/// docs), otherwise [`detected_level`]. Requests for a level the CPU cannot
/// run are clamped down to one it can, never dispatched unsoundly — and a
/// value the switch does not recognise degrades to the scalar kernels
/// (with a one-time warning) rather than silently enabling the vector path:
/// the override exists as a kill switch, so a typo must fail safe.
pub fn active_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        match std::env::var("CAPES_SIMD")
            .map(|v| v.to_ascii_lowercase())
            .as_deref()
        {
            Ok("off" | "scalar" | "0" | "false") => SimdLevel::Scalar,
            // An explicit vector request still goes through detection: a
            // level the CPU cannot run must never be dispatched. `avx2` is a
            // cap, so a 512-bit host can pin the 256-bit kernels.
            Ok("avx2" | "fma") => runnable(SimdLevel::Avx2Fma),
            Ok("on" | "1" | "true" | "auto") | Err(_) => detected_level(),
            Ok(other) => {
                eprintln!(
                    "capes-tensor: unrecognised CAPES_SIMD value {other:?}; \
                     falling back to the scalar kernels (use off/scalar, avx2 or auto)"
                );
                SimdLevel::Scalar
            }
        }
    })
}

/// Cache-blocked accumulating kernel `out += a · b` over raw slices, at an
/// explicit [`SimdLevel`]: `a` is `rows_a × cols_a`, `b` is
/// `cols_a × cols_b`, `out` holds exactly `rows_a × cols_b` elements (callers
/// seed it with zeros or, for the fused affine path, with the broadcast
/// bias).
///
/// A request for a level this build or CPU cannot run (non-x86-64, or
/// x86-64 without the features) silently degrades to the highest level it
/// can, mirroring [`active_level`]'s clamping — the function is safe to call
/// with any level anywhere.
///
/// Wide-and-tall products take the packed-B variant — bit-identical to the
/// streaming kernel (see [`gemm_rows_packed_with`]), so the gate can never
/// perturb a result, only the memory traffic. Below the gate the pack cost
/// is not amortised (few output rows reuse each packed panel) and the
/// streaming kernel already runs at full speed.
///
/// # Panics
/// Panics if any slice length disagrees with the dimensions (the vector arms
/// rely on the exact lengths for memory safety).
pub fn gemm_rows_with(
    level: SimdLevel,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    rows_a: usize,
    cols_a: usize,
    cols_b: usize,
) {
    gemm_rows_dispatch(level, None, a, b, out, rows_a, cols_a, cols_b);
}

/// Auto-dispatch gate for the packed-B `gemm_rows` variant: packing a
/// k-panel costs one pass over it, so it only pays when at least this many
/// output rows re-sweep the panel …
#[cfg(target_arch = "x86_64")]
const PACK_MIN_ROWS: usize = 8;
/// … and the panel is wide enough that the strided tile walk of the
/// streaming kernel actually leaves cache-line locality on the table. The
/// training-step shapes (32 × 600 · 600 × 600 and 600³) clear both bounds.
#[cfg(target_arch = "x86_64")]
const PACK_MIN_COLS: usize = 128;

/// Whether the auto gate packs `b` for this shape at this (runnable) level.
/// The 512-bit microkernel sweeps a k-panel of `b` exactly once while the
/// panel's `a` block stays L1-resident (see `avx512::panel`), so there is no
/// re-sweep for packing to speed up until the block outgrows L1: measured on
/// 32 × 600 · 600 × 600, streaming 47.7 GFLOP/s against packed 38.
#[cfg(target_arch = "x86_64")]
fn pack_gate(level: SimdLevel, rows_a: usize, cols_a: usize, cols_b: usize) -> bool {
    let a_resident =
        level == SimdLevel::Avx512 && rows_a * BLOCK.min(cols_a) <= avx512::A_RESIDENT_ELEMS;
    rows_a >= PACK_MIN_ROWS && cols_b >= PACK_MIN_COLS && !a_resident
}

/// [`gemm_rows_with`] through the **packed-B** vector kernel unconditionally:
/// each k-panel of `b` is repacked into contiguous tile-major storage (a
/// thread-local, grow-only scratch buffer — allocation-free at steady state)
/// before the register-tiled sweep, so the inner loop reads `b` fragments
/// from consecutive cache lines instead of `cols_b`-strided ones.
///
/// The packed kernel issues **the same FMA chain per output element** as the
/// streaming kernel — only the addresses the `b` fragments are loaded from
/// change — so its results are bit-identical to [`gemm_rows_unpacked_with`]
/// at every level (property-tested). The scalar arm has no packed variant
/// (packing buys nothing without the tile sweep) and delegates to the scalar
/// kernel, which keeps this entry safe to call at any level anywhere.
///
/// [`gemm_rows_with`] auto-selects this variant for large shapes; this
/// explicit entry exists so tests and benches can pin the packed path on
/// both sides of the gate.
///
/// # Panics
/// As in [`gemm_rows_with`].
pub fn gemm_rows_packed_with(
    level: SimdLevel,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    rows_a: usize,
    cols_a: usize,
    cols_b: usize,
) {
    gemm_rows_dispatch(level, Some(true), a, b, out, rows_a, cols_a, cols_b);
}

/// [`gemm_rows_with`] through the **streaming** (non-packing) vector kernel
/// unconditionally, bypassing the packed-B gate. This is the pre-packing
/// dispatch, kept public so the bit-equality property tests and the `gemm`
/// benches can pin the unpacked path on shapes the auto gate would pack.
///
/// # Panics
/// As in [`gemm_rows_with`].
pub fn gemm_rows_unpacked_with(
    level: SimdLevel,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    rows_a: usize,
    cols_a: usize,
    cols_b: usize,
) {
    gemm_rows_dispatch(level, Some(false), a, b, out, rows_a, cols_a, cols_b);
}

/// The one `out += a · b` dispatch behind the three public entries, which
/// differ only in `packed`: pinned, or `None` for the auto gate.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn gemm_rows_dispatch(
    level: SimdLevel,
    packed: Option<bool>,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    rows_a: usize,
    cols_a: usize,
    cols_b: usize,
) {
    assert_eq!(a.len(), rows_a * cols_a, "gemm_rows: a length mismatch");
    assert_eq!(b.len(), cols_a * cols_b, "gemm_rows: b length mismatch");
    assert_eq!(out.len(), rows_a * cols_b, "gemm_rows: out length mismatch");
    let level = runnable(level);
    let _kernel = kernel_span(level);
    match level {
        // SAFETY: `runnable` confirmed the CPU runs AVX2+FMA — and `avx512f`
        // when `wide` is set (std caches the probes); lengths were asserted
        // above.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma | SimdLevel::Avx512 => unsafe {
            let wide = level == SimdLevel::Avx512;
            if packed.unwrap_or_else(|| pack_gate(level, rows_a, cols_a, cols_b)) {
                avx2::gemm_rows_packed(wide, a, b, out, rows_a, cols_a, cols_b)
            } else {
                avx2::gemm_rows(wide, a, b, out, rows_a, cols_a, cols_b)
            }
        },
        _ => gemm_rows_scalar(a, b, out, rows_a, cols_a, cols_b),
    }
}

/// Accumulating `out[i_start..i_end] += (aᵀ · b)[i_start..i_end]` over raw
/// slices at an explicit [`SimdLevel`], where `a` is `n × m` and `b` is
/// `n × p`; `out` holds the rows `i_start..i_end` of the `m × p` product.
///
/// Unrunnable level requests are clamped down as in [`gemm_rows_with`].
///
/// # Panics
/// Panics if any slice length disagrees with the dimensions or the row range
/// is out of bounds.
#[allow(clippy::too_many_arguments)]
pub fn gemm_ta_rows_with(
    level: SimdLevel,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    i_start: usize,
    i_end: usize,
    n: usize,
    m: usize,
    p: usize,
) {
    assert!(
        i_start <= i_end && i_end <= m,
        "gemm_ta_rows: bad row range"
    );
    assert_eq!(a.len(), n * m, "gemm_ta_rows: a length mismatch");
    assert_eq!(b.len(), n * p, "gemm_ta_rows: b length mismatch");
    assert_eq!(
        out.len(),
        (i_end - i_start) * p,
        "gemm_ta_rows: out length mismatch"
    );
    let level = runnable(level);
    let _kernel = kernel_span(level);
    match level {
        // SAFETY: as in `gemm_rows_dispatch`.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma | SimdLevel::Avx512 => unsafe {
            let wide = level == SimdLevel::Avx512;
            avx2::gemm_ta_rows(wide, a, b, out, i_start, i_end, n, m, p)
        },
        _ => gemm_ta_rows_scalar(a, b, out, i_start, i_end, n, m, p),
    }
}

/// `out = a · bᵀ` over raw slices at an explicit [`SimdLevel`]: row `i` of
/// `out` holds the dot products of row `i` of `a` with every row of `b`
/// (`out` is zeroed and accumulated into, panel by panel).
///
/// [`SimdLevel::Avx512`] runs the `Avx2Fma` arm: the dot kernel's horizontal
/// sum fixes the per-element summation order to four lanes, so a wider one
/// would change bits. Unrunnable level requests are clamped down as in
/// [`gemm_rows_with`].
///
/// # Panics
/// Panics if any slice length disagrees with the dimensions.
pub fn gemm_tb_rows_with(
    level: SimdLevel,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    rows_a: usize,
    cols: usize,
    rows_b: usize,
) {
    assert_eq!(a.len(), rows_a * cols, "gemm_tb_rows: a length mismatch");
    assert_eq!(b.len(), rows_b * cols, "gemm_tb_rows: b length mismatch");
    assert_eq!(
        out.len(),
        rows_a * rows_b,
        "gemm_tb_rows: out length mismatch"
    );
    let level = runnable(level);
    let _kernel = kernel_span(level);
    match level {
        // SAFETY: `runnable` confirmed the CPU runs AVX2+FMA; lengths were
        // asserted above.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma | SimdLevel::Avx512 => unsafe {
            avx2::gemm_tb_rows(a, b, out, rows_a, cols, rows_b)
        },
        _ => gemm_tb_rows_scalar(a, b, out, rows_a, cols, rows_b),
    }
}

/// Per-step constants of one Adam update, shared by every element the step
/// touches: the optimizer computes the bias corrections and the clip scale
/// once per step and the kernel applies them element-wise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamStep {
    /// Step size `lr`.
    pub learning_rate: f64,
    /// First-moment decay `β₁`.
    pub beta1: f64,
    /// Second-moment decay `β₂`.
    pub beta2: f64,
    /// Numerical-stability constant `ε`.
    pub epsilon: f64,
    /// First-moment bias correction `1 − β₁ᵗ` for the current step `t`.
    pub bias1: f64,
    /// Second-moment bias correction `1 − β₂ᵗ` for the current step `t`.
    pub bias2: f64,
    /// Gradient scale applied before the update (`clip / ‖g‖` when gradient
    /// clipping engages, `1.0` otherwise).
    pub scale: f64,
}

/// The DQN soft target update riding an Adam pass: the target network's
/// copy of the tensor being stepped, and the update rate `α`.
#[derive(Debug)]
pub struct SoftTarget<'a> {
    /// The target parameters `θ⁻`, as long as the online parameters.
    pub params: &'a mut [f64],
    /// Update rate `α` of `θ⁻ ← θ⁻·(1−α) + θ·α`.
    pub alpha: f64,
}

/// Fused element-wise Adam update at an explicit [`SimdLevel`], optionally
/// carrying the soft target update in the same pass:
///
/// ```text
/// g   = grad[i] · scale
/// m[i] = β₁·m[i] + (1 − β₁)·g
/// v[i] = β₂·v[i] + (1 − β₂)·g·g
/// params[i] −= lr · (m[i] / bias1) / (√(v[i] / bias2) + ε)
/// target[i] = target[i]·(1 − α) + params[i]·α        (with a target only)
/// ```
///
/// Every arm produces **bit-identical** results: the AVX2 arm uses only
/// individually-rounded operations (no FMA contraction) in the scalar arm's
/// exact evaluation order, and the blend is `Matrix::blend`'s mul, mul, add
/// on the freshly stored parameter — so one call with a target equals a call
/// without one followed by `Matrix::blend` (property-tested). The update is
/// bound by the divider (three divisions and a square root per element) and,
/// behind it, by its nine parameter streams, so the blend's loads and
/// multiplies hide under it, and a 512-bit arm would buy nothing:
/// [`SimdLevel::Avx512`] runs the `Avx2Fma` arm. A `bias1` that has rounded
/// to exactly `1.0` is not divided by (same bits, one division fewer;
/// property-tested against the always-dividing formula). Unrunnable
/// level requests are clamped down as in [`gemm_rows_with`].
///
/// # Panics
/// Panics if `grads`, `m`, `v` or the target disagree with `params` in
/// length.
pub fn adam_update_with(
    level: SimdLevel,
    params: &mut [f64],
    grads: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    step: &AdamStep,
    target: Option<SoftTarget<'_>>,
) {
    assert_eq!(
        grads.len(),
        params.len(),
        "adam_update: grads length mismatch"
    );
    assert_eq!(m.len(), params.len(), "adam_update: m length mismatch");
    assert_eq!(v.len(), params.len(), "adam_update: v length mismatch");
    match target {
        Some(t) => {
            assert_eq!(
                t.params.len(),
                params.len(),
                "adam_update: target length mismatch"
            );
            adam_update_arm::<true>(level, params, grads, m, v, step, t.params, t.alpha);
        }
        None => adam_update_arm::<false>(level, params, grads, m, v, step, &mut [], 0.0),
    }
}

/// Per-step dispatch of [`adam_update_with`], monomorphised over whether a
/// target rides along (`target` is empty and unread when `BLEND` is false)
/// and over whether the step still divides by `bias1`: once `1 − 0.9ᵗ` has
/// rounded to exactly `1.0` (from `t = 356`) it is not divided by, and since
/// `x / 1.0 == x` for every bit pattern an arithmetic result can take, the
/// bits do not depend on the choice.
#[allow(clippy::too_many_arguments)]
fn adam_update_arm<const BLEND: bool>(
    level: SimdLevel,
    params: &mut [f64],
    grads: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    step: &AdamStep,
    target: &mut [f64],
    alpha: f64,
) {
    if step.bias1 != 1.0 {
        adam_update_level::<BLEND, true>(level, params, grads, m, v, step, target, alpha)
    } else {
        adam_update_level::<BLEND, false>(level, params, grads, m, v, step, target, alpha)
    }
}

/// Level dispatch of one [`adam_update_arm`] variant (`DIV1`: divide by
/// `bias1`).
#[allow(clippy::too_many_arguments)]
fn adam_update_level<const BLEND: bool, const DIV1: bool>(
    level: SimdLevel,
    params: &mut [f64],
    grads: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    step: &AdamStep,
    target: &mut [f64],
    alpha: f64,
) {
    match runnable(level) {
        // SAFETY: `runnable` confirmed the CPU (the kernel only needs AVX2;
        // both levels imply it); lengths were asserted by the caller.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma | SimdLevel::Avx512 => unsafe {
            avx2::adam_update::<BLEND, DIV1>(params, grads, m, v, step, target, alpha)
        },
        _ => adam_update_scalar::<BLEND, DIV1>(params, grads, m, v, step, target, alpha),
    }
}

/// Auto-dispatching [`adam_update_with`] at [`active_level`] — what the
/// `capes-nn` Adam optimizer calls.
pub fn adam_update(
    params: &mut [f64],
    grads: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    step: &AdamStep,
    target: Option<SoftTarget<'_>>,
) {
    adam_update_with(active_level(), params, grads, m, v, step, target);
}

/// Element-wise `tanh` forward pass at an explicit [`SimdLevel`]:
/// `dst[i] = tanh(src[i])`.
///
/// Every arm evaluates the same two-branch rational/exp approximation
/// ([`tanh_value`]) with identical, individually-rounded operation sequences
/// (no FMA), so the levels are **bit-identical** — toggling `CAPES_SIMD`
/// never perturbs a forward pass. Accuracy against the libm `tanh` is a few
/// ulp (property-tested at 1e-14 relative). [`SimdLevel::Avx512`] runs the
/// `Avx2Fma` arm.
///
/// # Panics
/// Panics if `src` and `dst` disagree in length.
pub fn tanh_forward_with(level: SimdLevel, src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "tanh_forward: length mismatch");
    match runnable(level) {
        // SAFETY: `runnable` confirmed the CPU; lengths were asserted.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma | SimdLevel::Avx512 => unsafe { avx2::tanh_forward(src, dst) },
        _ => tanh_forward_scalar(src, dst),
    }
}

/// Auto-dispatching [`tanh_forward_with`] at [`active_level`] — what the
/// `capes-nn` Tanh activation calls.
pub fn tanh_forward(src: &[f64], dst: &mut [f64]) {
    tanh_forward_with(active_level(), src, dst);
}

/// Element-wise `tanh` backward pass at an explicit [`SimdLevel`]:
/// `grads[i] *= 1 − output[i]²` (the derivative expressed in terms of the
/// forward output). Bit-identical across levels like [`tanh_forward_with`].
///
/// # Panics
/// Panics if `output` and `grads` disagree in length.
pub fn tanh_backward_with(level: SimdLevel, output: &[f64], grads: &mut [f64]) {
    assert_eq!(output.len(), grads.len(), "tanh_backward: length mismatch");
    match runnable(level) {
        // SAFETY: `runnable` confirmed the CPU; lengths were asserted.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma | SimdLevel::Avx512 => unsafe { avx2::tanh_backward(output, grads) },
        _ => tanh_backward_scalar(output, grads),
    }
}

/// Auto-dispatching [`tanh_backward_with`] at [`active_level`].
pub fn tanh_backward(output: &[f64], grads: &mut [f64]) {
    tanh_backward_with(active_level(), output, grads);
}

/// Fused Bellman-target kernel at an explicit [`SimdLevel`]:
///
/// ```text
/// out[i] = rewards[i] + discount · max_j next_q[i · cols + j]
/// ```
///
/// The row maximum uses the strict `v > m` update of the scalar reference
/// (first element wins ties; a `NaN` never displaces the running maximum,
/// and a leading `NaN` poisons the row), and the vector arm mirrors it with
/// an ordered greater-than compare plus blend — so the levels are
/// **bit-identical**, no FMA anywhere. [`SimdLevel::Avx512`] runs the
/// `Avx2Fma` arm.
///
/// # Panics
/// Panics if `cols` is zero, `next_q` is not `rewards.len() · cols` long, or
/// `out` disagrees with `rewards` in length.
pub fn bellman_targets_with(
    level: SimdLevel,
    rewards: &[f64],
    next_q: &[f64],
    cols: usize,
    discount: f64,
    out: &mut [f64],
) {
    assert!(cols > 0, "bellman_targets: cols must be nonzero");
    assert_eq!(
        next_q.len(),
        rewards.len() * cols,
        "bellman_targets: next_q shape mismatch"
    );
    assert_eq!(
        out.len(),
        rewards.len(),
        "bellman_targets: out length mismatch"
    );
    match runnable(level) {
        // SAFETY: `runnable` confirmed the CPU; shapes were asserted.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma | SimdLevel::Avx512 => unsafe {
            avx2::bellman_targets(rewards, next_q, cols, discount, out)
        },
        _ => bellman_targets_scalar(rewards, next_q, cols, discount, out),
    }
}

/// Auto-dispatching [`bellman_targets_with`] at [`active_level`] — what the
/// `capes-drl` trainer calls.
pub fn bellman_targets(
    rewards: &[f64],
    next_q: &[f64],
    cols: usize,
    discount: f64,
    out: &mut [f64],
) {
    bellman_targets_with(active_level(), rewards, next_q, cols, discount, out);
}

// ---------------------------------------------------------------------------
// Auto-dispatching crate-internal entry points (what `matmul.rs` calls).
// ---------------------------------------------------------------------------

/// Per-level kernel timing: one `gemm.kernel.<level>` histogram per SIMD
/// level, recorded by every GEMM dispatch under the level it actually ran
/// (after clamping), so a scrape shows which kernels ran and at what
/// latency. Chunked pool dispatches record once per chunk.
#[inline]
fn kernel_span(level: SimdLevel) -> capes_telemetry::SpanGuard {
    use capes_telemetry::LazySpan;
    static AVX512: LazySpan = LazySpan::new("gemm.kernel.avx512");
    static AVX2: LazySpan = LazySpan::new("gemm.kernel.avx2");
    static SCALAR: LazySpan = LazySpan::new("gemm.kernel.scalar");
    match level {
        SimdLevel::Avx512 => AVX512.enter(),
        SimdLevel::Avx2Fma => AVX2.enter(),
        SimdLevel::Scalar => SCALAR.enter(),
    }
}

#[inline]
pub(crate) fn gemm_rows(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    rows_a: usize,
    cols_a: usize,
    cols_b: usize,
) {
    gemm_rows_with(active_level(), a, b, out, rows_a, cols_a, cols_b);
}

#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn gemm_ta_rows(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    i_start: usize,
    i_end: usize,
    n: usize,
    m: usize,
    p: usize,
) {
    gemm_ta_rows_with(active_level(), a, b, out, i_start, i_end, n, m, p);
}

#[inline]
pub(crate) fn gemm_tb_rows(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    rows_a: usize,
    cols: usize,
    rows_b: usize,
) {
    gemm_tb_rows_with(active_level(), a, b, out, rows_a, cols, rows_b);
}

// ---------------------------------------------------------------------------
// Scalar arm — byte-for-byte the pre-SIMD blocked kernels.
// ---------------------------------------------------------------------------

/// The inner update is rank-4: four rows of `b` are combined per sweep of the
/// output row, which quarters the traffic on `out` and gives the
/// autovectorizer four independent streams. All subslices carry exact lengths
/// so the inner loops compile without bounds checks.
fn gemm_rows_scalar(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    rows_a: usize,
    cols_a: usize,
    cols_b: usize,
) {
    for kk in (0..cols_a).step_by(BLOCK) {
        let k_end = (kk + BLOCK).min(cols_a);
        for i in 0..rows_a {
            let a_row = &a[i * cols_a..][..cols_a];
            let out_row = &mut out[i * cols_b..][..cols_b];
            let mut p = kk;
            while p + 4 <= k_end {
                let (v0, v1, v2, v3) = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
                let b0 = &b[p * cols_b..][..cols_b];
                let b1 = &b[(p + 1) * cols_b..][..cols_b];
                let b2 = &b[(p + 2) * cols_b..][..cols_b];
                let b3 = &b[(p + 3) * cols_b..][..cols_b];
                for j in 0..cols_b {
                    out_row[j] += v0 * b0[j] + v1 * b1[j] + v2 * b2[j] + v3 * b3[j];
                }
                p += 4;
            }
            while p < k_end {
                let v = a_row[p];
                let b_row = &b[p * cols_b..][..cols_b];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += v * bv;
                }
                p += 1;
            }
        }
    }
}

/// The reduction dimension `n` is unrolled by 4, keeping the output row
/// resident while four `b` rows stream.
#[allow(clippy::too_many_arguments)]
fn gemm_ta_rows_scalar(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    i_start: usize,
    i_end: usize,
    n: usize,
    m: usize,
    p: usize,
) {
    for i in i_start..i_end {
        let out_row = &mut out[(i - i_start) * p..][..p];
        let mut r = 0;
        while r + 4 <= n {
            let (v0, v1, v2, v3) = (
                a[r * m + i],
                a[(r + 1) * m + i],
                a[(r + 2) * m + i],
                a[(r + 3) * m + i],
            );
            let b0 = &b[r * p..][..p];
            let b1 = &b[(r + 1) * p..][..p];
            let b2 = &b[(r + 2) * p..][..p];
            let b3 = &b[(r + 3) * p..][..p];
            for j in 0..p {
                out_row[j] += v0 * b0[j] + v1 * b1[j] + v2 * b2[j] + v3 * b3[j];
            }
            r += 4;
        }
        while r < n {
            let v = a[r * m + i];
            let b_row = &b[r * p..][..p];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += v * bv;
            }
            r += 1;
        }
    }
}

/// Scalar arm of the Adam update — the reference evaluation order the vector
/// arm reproduces bit-for-bit (and verbatim the loop the pre-SIMD optimizer
/// ran), followed under `BLEND` by `Matrix::blend`'s expression on the
/// parameter just stored. `DIV1` is false only when `bias1` is exactly
/// `1.0`, where dividing changes no bit.
fn adam_update_scalar<const BLEND: bool, const DIV1: bool>(
    params: &mut [f64],
    grads: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    s: &AdamStep,
    target: &mut [f64],
    alpha: f64,
) {
    let (b1, b2) = (s.beta1, s.beta2);
    for (i, (((p, &raw_g), m_e), v_e)) in params
        .iter_mut()
        .zip(grads)
        .zip(m.iter_mut())
        .zip(v.iter_mut())
        .enumerate()
    {
        let g = raw_g * s.scale;
        *m_e = b1 * *m_e + (1.0 - b1) * g;
        *v_e = b2 * *v_e + (1.0 - b2) * g * g;
        let m_hat = if DIV1 { *m_e / s.bias1 } else { *m_e };
        let v_hat = *v_e / s.bias2;
        *p -= s.learning_rate * m_hat / (v_hat.sqrt() + s.epsilon);
        if BLEND {
            target[i] = target[i] * (1.0 - alpha) + *p * alpha;
        }
    }
}

// --- tanh: shared two-branch approximation ---------------------------------
//
// Cephes-style: |x| < 0.625 uses an odd rational x + x·s·P(s)/Q(s) with
// s = x²; larger |x| goes through 1 − 2/(e^{2|x|} + 1) with a hand-rolled
// exp (Cody–Waite range reduction + degree-13 Taylor + exponent bit-stuff).
// Every operation below is individually rounded (no FMA, no libm), and the
// AVX2 arm executes the exact same sequence 4 lanes at a time — that is what
// makes the levels bit-identical. |x| ≥ 20 saturates: 2/(e^{40}+1) is below
// half an ulp of 1.0, so the subtraction rounds to exactly 1.0.

// The Cephes coefficients are quoted at their published precision; the
// doubled digits document the source even though f64 rounds them.
#[allow(clippy::excessive_precision)]
const TANH_P0: f64 = -9.64399179425052238628e-1;
#[allow(clippy::excessive_precision)]
const TANH_P1: f64 = -9.92877231001918586564e1;
#[allow(clippy::excessive_precision)]
const TANH_P2: f64 = -1.61468768441708447952e3;
#[allow(clippy::excessive_precision)]
const TANH_Q0: f64 = 1.12811678491632931402e2;
#[allow(clippy::excessive_precision)]
const TANH_Q1: f64 = 2.23548839060100448583e3;
#[allow(clippy::excessive_precision)]
const TANH_Q2: f64 = 4.84406305325125486048e3;

/// log₂(e) for the exp range reduction `2|x| = k·ln2 + r`.
const EXP_LOG2E: f64 = std::f64::consts::LOG2_E;
/// ln2 split into a 32-bit-exact head and a tail, so `z − k·LN2_HI` is exact
/// for every k this kernel produces and the reduced `r` keeps full precision.
const EXP_LN2_HI: f64 = 6.931_457_519_531_25e-1;
const EXP_LN2_LO: f64 = 1.428_606_820_309_417_2e-6;
/// 2⁵² — adding it to a small non-negative integer-valued f64 parks that
/// integer in the low mantissa bits, turning float→int into bit surgery that
/// the vector arm can replicate without AVX-512 conversions.
const EXP_SHIFTER: f64 = 4_503_599_627_370_496.0;
/// Taylor coefficients 1/i! for e^r on r ∈ [−ln2/2, ln2/2]; degree 13 puts
/// the series truncation error near 4e-18, below the rounding noise.
const EXP_C: [f64; 14] = [
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// Scalar `tanh(x)` — the reference sequence both arms execute.
///
/// `tanh(0) = 0` and `tanh(-0.0) = -0.0` exactly (the rational branch is
/// odd), `tanh(±∞) = ±1.0` exactly, `NaN` returns unchanged (same bits).
pub fn tanh_value(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    let bits = x.to_bits();
    let sign = bits & 0x8000_0000_0000_0000;
    let a = f64::from_bits(bits & 0x7FFF_FFFF_FFFF_FFFF);
    let t = if a < 0.625 {
        let s = a * a;
        let p = (TANH_P0 * s + TANH_P1) * s + TANH_P2;
        let q = ((s + TANH_Q0) * s + TANH_Q1) * s + TANH_Q2;
        let pq = p / q;
        a + a * (s * pq)
    } else {
        let a = if a > 20.0 { 20.0 } else { a };
        let z = a + a;
        let k = (z * EXP_LOG2E + 0.5).floor();
        let r = (z - k * EXP_LN2_HI) - k * EXP_LN2_LO;
        let mut e = EXP_C[13];
        let mut j = 13;
        while j > 0 {
            j -= 1;
            e = e * r + EXP_C[j];
        }
        let ik = (k + EXP_SHIFTER).to_bits() & 0x000F_FFFF_FFFF_FFFF;
        let two_k = f64::from_bits((ik + 1023) << 52);
        let ez = e * two_k;
        1.0 - 2.0 / (ez + 1.0)
    };
    f64::from_bits(t.to_bits() | sign)
}

/// Scalar arm of the tanh forward pass.
fn tanh_forward_scalar(src: &[f64], dst: &mut [f64]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = tanh_value(x);
    }
}

/// Scalar arm of the tanh backward pass: `g *= 1 − y²`.
fn tanh_backward_scalar(output: &[f64], grads: &mut [f64]) {
    for (g, &y) in grads.iter_mut().zip(output) {
        *g *= 1.0 - y * y;
    }
}

/// Scalar arm of the Bellman-target kernel — the reference row-max order
/// (`if v > m`, first element seeds) the vector arm reproduces bit-for-bit.
fn bellman_targets_scalar(
    rewards: &[f64],
    next_q: &[f64],
    cols: usize,
    discount: f64,
    out: &mut [f64],
) {
    for (i, (o, &reward)) in out.iter_mut().zip(rewards).enumerate() {
        let row = &next_q[i * cols..][..cols];
        let mut m = row[0];
        for &v in &row[1..] {
            if v > m {
                m = v;
            }
        }
        *o = reward + discount * m;
    }
}

/// Dot product with four independent accumulators (ILP + vectorization).
#[inline]
fn dot4(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut c0 = 0.0;
    let mut c1 = 0.0;
    let mut c2 = 0.0;
    let mut c3 = 0.0;
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        c0 += xa[0] * xb[0];
        c1 += xa[1] * xb[1];
        c2 += xa[2] * xb[2];
        c3 += xa[3] * xb[3];
    }
    let mut tail = 0.0;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    (c0 + c2) + (c1 + c3) + tail
}

/// Blocked in both the reduction dimension and `b`'s rows: each
/// [`BLOCK`] × [`BLOCK`] panel of `b` (~32 KiB, resident in L1/L2) is reused
/// across every row of `a` before the kernel moves on.
fn gemm_tb_rows_scalar(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    rows_a: usize,
    cols: usize,
    rows_b: usize,
) {
    out.fill(0.0);
    for kk in (0..cols).step_by(BLOCK) {
        let k_end = (kk + BLOCK).min(cols);
        for jj in (0..rows_b).step_by(BLOCK) {
            let j_end = (jj + BLOCK).min(rows_b);
            for i in 0..rows_a {
                let a_seg = &a[i * cols + kk..i * cols + k_end];
                let out_seg = &mut out[i * rows_b + jj..i * rows_b + j_end];
                for (j, o) in (jj..j_end).zip(out_seg.iter_mut()) {
                    *o += dot4(a_seg, &b[j * cols + kk..j * cols + k_end]);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2+FMA arm.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::BLOCK;
    use std::arch::x86_64::*;

    /// Scalar fused multiply-add `a * b + c` via the FMA unit (one rounding),
    /// used for remainder lanes so every column of a row gets identical
    /// contraction semantics.
    ///
    /// # Safety
    /// The CPU must support FMA.
    #[target_feature(enable = "fma")]
    #[inline]
    unsafe fn fmadd_sd(a: f64, b: f64, c: f64) -> f64 {
        _mm_cvtsd_f64(_mm_fmadd_sd(_mm_set_sd(a), _mm_set_sd(b), _mm_set_sd(c)))
    }

    /// One register-tiled panel product — the unit of work every GEMM driver
    /// below hands to a microkernel ([`panel`], or [`super::avx512::panel`]
    /// at [`super::SimdLevel::Avx512`]):
    ///
    /// `out[t][j] += Σ_q a_elem(t, q) · b[q][j]` for `t` in `0..rows`, `j` in
    /// `0..cols` and `q` in `0..steps`, where
    /// `a_elem(t, q) = *a.add(t * a_row_stride + q * a_step)` and `out` rows
    /// are `cols_out` apart. The `out += a · b` and `out += aᵀ · b` kernels
    /// differ only in how the broadcast operand walks `a`.
    ///
    /// The microkernels' `PACKED` const parameter says how `b` is addressed:
    /// **streaming** — row `q` of the panel starts at `b.add(q * b_stride)`;
    /// **packed** — `b` is a [`pack_b_panel`] buffer over exactly these
    /// `cols` columns and `steps` rows, so the 8-column tile at column `j`
    /// starts at `b.add(j * steps)` with its rows 8 apart (`b_stride` is
    /// unused). Everything else about a microkernel is the same either way.
    #[derive(Clone, Copy)]
    pub(super) struct Panel {
        pub a: *const f64,
        pub a_row_stride: usize,
        pub a_step: usize,
        pub b: *const f64,
        pub b_stride: usize,
        pub out: *mut f64,
        pub cols_out: usize,
        pub rows: usize,
        pub cols: usize,
        pub steps: usize,
    }

    impl Panel {
        /// The sub-panel of output rows `t0..t0 + rows` and columns
        /// `j0..j0 + cols`. An output element's FMA chain does not depend on
        /// which (sub-)panel computes it, so a microkernel may split its
        /// panel freely.
        ///
        /// # Safety
        /// The rectangle must lie inside `self`. For a packed `b`, `j0` must
        /// be a multiple of 8 and the rectangle must reach `self`'s right
        /// edge (the packed remainder tile is found from the column count).
        pub(super) unsafe fn sub<const PACKED: bool>(
            self,
            t0: usize,
            rows: usize,
            j0: usize,
            cols: usize,
        ) -> Panel {
            debug_assert!(t0 + rows <= self.rows && j0 + cols <= self.cols);
            debug_assert!(!PACKED || (j0.is_multiple_of(8) && j0 + cols == self.cols));
            // SAFETY: the caller upholds this function's `# Safety` contract.
            unsafe {
                Panel {
                    a: self.a.add(t0 * self.a_row_stride),
                    b: self.b.add(if PACKED { j0 * self.steps } else { j0 }),
                    out: self.out.add(t0 * self.cols_out + j0),
                    rows,
                    cols,
                    ..self
                }
            }
        }
    }

    /// The 256-bit microkernel over one [`Panel`], streaming or packed `b`.
    ///
    /// The tile shape is 4 output rows × 8 columns: the eight accumulators
    /// live in registers for the whole reduction sweep and every 64-byte
    /// b-row fragment loaded is reused across all four output rows, which
    /// quarters the L2 traffic per FMA compared with a row-at-a-time sweep —
    /// that traffic, not the ALUs, is what bounds the un-tiled kernel.
    /// Remainder columns go through [`row_tail`] (4-wide and scalar-FMA
    /// lanes) and remainder rows through single-row sweeps, so every shape
    /// is handled and every output element is produced by one in-order FMA
    /// chain regardless of how callers chunk the rows (this is what keeps
    /// pooled and single-threaded dispatch bit-identical).
    ///
    /// Per output element the FMA chain is **instruction-for-instruction the
    /// same** for both `b` addressings — same broadcast, same 4-wide
    /// fragment loads, same step order — only the addresses the fragments
    /// come from differ. That is the whole packed ≡ streaming bit-identity
    /// argument: equal operands through equal operations in equal order.
    ///
    /// # Safety
    /// The CPU must support AVX2+FMA, and every `a`/`b`/`out` index reachable
    /// from the panel's dimensions must be in bounds of the allocations the
    /// pointers came from (for `PACKED`, `b` must hold the `steps × cols`
    /// panel in [`pack_b_panel`] layout).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn panel<const PACKED: bool>(p: Panel) {
        let Panel {
            a,
            a_row_stride,
            a_step,
            b,
            b_stride,
            out,
            cols_out,
            rows,
            cols,
            steps,
        } = p;
        // SAFETY: the caller upholds this function's `# Safety` contract.
        unsafe {
            // Step 0 of the 8-column tile at column `j`, and the distance
            // between consecutive steps' fragment rows.
            let tile = |j: usize| if PACKED { b.add(j * steps) } else { b.add(j) };
            let b_step = if PACKED { 8 } else { b_stride };
            // The `w = cols % 8` remainder columns: a `w`-wide packed tile
            // after the full ones, or simply the columns from `full` on.
            let full = cols / 8 * 8;
            let w = cols - full;
            let tail_step = if PACKED { w } else { b_stride };
            let mut t = 0usize;
            while t + 4 <= rows {
                let a0 = a.add(t * a_row_stride);
                let a1 = a.add((t + 1) * a_row_stride);
                let a2 = a.add((t + 2) * a_row_stride);
                let a3 = a.add((t + 3) * a_row_stride);
                let o0 = out.add(t * cols_out);
                let o1 = out.add((t + 1) * cols_out);
                let o2 = out.add((t + 2) * cols_out);
                let o3 = out.add((t + 3) * cols_out);
                let mut j = 0usize;
                while j + 8 <= cols {
                    let mut acc00 = _mm256_loadu_pd(o0.add(j));
                    let mut acc01 = _mm256_loadu_pd(o0.add(j + 4));
                    let mut acc10 = _mm256_loadu_pd(o1.add(j));
                    let mut acc11 = _mm256_loadu_pd(o1.add(j + 4));
                    let mut acc20 = _mm256_loadu_pd(o2.add(j));
                    let mut acc21 = _mm256_loadu_pd(o2.add(j + 4));
                    let mut acc30 = _mm256_loadu_pd(o3.add(j));
                    let mut acc31 = _mm256_loadu_pd(o3.add(j + 4));
                    let mut bp = tile(j);
                    let mut off = 0usize;
                    for _ in 0..steps {
                        let bv0 = _mm256_loadu_pd(bp);
                        let bv1 = _mm256_loadu_pd(bp.add(4));
                        let v0 = _mm256_broadcast_sd(&*a0.add(off));
                        acc00 = _mm256_fmadd_pd(v0, bv0, acc00);
                        acc01 = _mm256_fmadd_pd(v0, bv1, acc01);
                        let v1 = _mm256_broadcast_sd(&*a1.add(off));
                        acc10 = _mm256_fmadd_pd(v1, bv0, acc10);
                        acc11 = _mm256_fmadd_pd(v1, bv1, acc11);
                        let v2 = _mm256_broadcast_sd(&*a2.add(off));
                        acc20 = _mm256_fmadd_pd(v2, bv0, acc20);
                        acc21 = _mm256_fmadd_pd(v2, bv1, acc21);
                        let v3 = _mm256_broadcast_sd(&*a3.add(off));
                        acc30 = _mm256_fmadd_pd(v3, bv0, acc30);
                        acc31 = _mm256_fmadd_pd(v3, bv1, acc31);
                        bp = bp.add(b_step);
                        off += a_step;
                    }
                    _mm256_storeu_pd(o0.add(j), acc00);
                    _mm256_storeu_pd(o0.add(j + 4), acc01);
                    _mm256_storeu_pd(o1.add(j), acc10);
                    _mm256_storeu_pd(o1.add(j + 4), acc11);
                    _mm256_storeu_pd(o2.add(j), acc20);
                    _mm256_storeu_pd(o2.add(j + 4), acc21);
                    _mm256_storeu_pd(o3.add(j), acc30);
                    _mm256_storeu_pd(o3.add(j + 4), acc31);
                    j += 8;
                }
                if w > 0 {
                    row_tail(a0, a_step, tile(full), tail_step, o0.add(full), w, steps);
                    row_tail(a1, a_step, tile(full), tail_step, o1.add(full), w, steps);
                    row_tail(a2, a_step, tile(full), tail_step, o2.add(full), w, steps);
                    row_tail(a3, a_step, tile(full), tail_step, o3.add(full), w, steps);
                }
                t += 4;
            }
            while t < rows {
                let a_row = a.add(t * a_row_stride);
                let o_row = out.add(t * cols_out);
                if PACKED {
                    // 1×8 tiles down the packed tile rows.
                    let mut j = 0usize;
                    while j + 8 <= cols {
                        let mut acc0 = _mm256_loadu_pd(o_row.add(j));
                        let mut acc1 = _mm256_loadu_pd(o_row.add(j + 4));
                        let mut bp = tile(j);
                        let mut off = 0usize;
                        for _ in 0..steps {
                            let v = _mm256_broadcast_sd(&*a_row.add(off));
                            acc0 = _mm256_fmadd_pd(v, _mm256_loadu_pd(bp), acc0);
                            acc1 = _mm256_fmadd_pd(v, _mm256_loadu_pd(bp.add(4)), acc1);
                            bp = bp.add(8);
                            off += a_step;
                        }
                        _mm256_storeu_pd(o_row.add(j), acc0);
                        _mm256_storeu_pd(o_row.add(j + 4), acc1);
                        j += 8;
                    }
                    if w > 0 {
                        row_tail(a_row, a_step, tile(full), w, o_row.add(full), w, steps);
                    }
                } else {
                    // A streaming remainder row sweeps each b-row
                    // contiguously (broadcast-sweep like the scalar kernel)
                    // instead of walking b_stride-strided column strips: a
                    // lone row — the 1-row inference forward pass — has no
                    // register reuse to win, and the strided walk defeats
                    // the hardware prefetcher on large matrices. The
                    // per-element FMA chain is the same step-ordered
                    // sequence either way, so results stay bit-identical to
                    // the tiled path regardless of where row chunking lands.
                    let mut bp = b;
                    let mut off = 0usize;
                    for _ in 0..steps {
                        let v = _mm256_broadcast_sd(&*a_row.add(off));
                        let mut j = 0usize;
                        while j + 8 <= cols {
                            let acc0 = _mm256_fmadd_pd(
                                v,
                                _mm256_loadu_pd(bp.add(j)),
                                _mm256_loadu_pd(o_row.add(j)),
                            );
                            let acc1 = _mm256_fmadd_pd(
                                v,
                                _mm256_loadu_pd(bp.add(j + 4)),
                                _mm256_loadu_pd(o_row.add(j + 4)),
                            );
                            _mm256_storeu_pd(o_row.add(j), acc0);
                            _mm256_storeu_pd(o_row.add(j + 4), acc1);
                            j += 8;
                        }
                        if j + 4 <= cols {
                            let acc = _mm256_fmadd_pd(
                                v,
                                _mm256_loadu_pd(bp.add(j)),
                                _mm256_loadu_pd(o_row.add(j)),
                            );
                            _mm256_storeu_pd(o_row.add(j), acc);
                            j += 4;
                        }
                        while j < cols {
                            *o_row.add(j) = fmadd_sd(*a_row.add(off), *bp.add(j), *o_row.add(j));
                            j += 1;
                        }
                        bp = bp.add(b_stride);
                        off += a_step;
                    }
                }
                t += 1;
            }
        }
    }

    /// The `cols < 8` remainder columns of one output row, `b` rows
    /// `b_stride` apart: a 4-wide vector lane while one fits, then
    /// scalar-FMA lanes.
    ///
    /// # Safety
    /// As in [`panel`].
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn row_tail(
        a_row: *const f64,
        a_step: usize,
        b: *const f64,
        b_stride: usize,
        out_row: *mut f64,
        cols: usize,
        steps: usize,
    ) {
        // SAFETY: the caller upholds this function's `# Safety` contract.
        unsafe {
            let mut j = 0usize;
            if j + 4 <= cols {
                let mut acc = _mm256_loadu_pd(out_row.add(j));
                let mut bp = b.add(j);
                let mut off = 0usize;
                for _ in 0..steps {
                    let v = _mm256_broadcast_sd(&*a_row.add(off));
                    acc = _mm256_fmadd_pd(v, _mm256_loadu_pd(bp), acc);
                    bp = bp.add(b_stride);
                    off += a_step;
                }
                _mm256_storeu_pd(out_row.add(j), acc);
                j += 4;
            }
            while j < cols {
                let mut acc = *out_row.add(j);
                let mut bp = b.add(j);
                let mut off = 0usize;
                for _ in 0..steps {
                    acc = fmadd_sd(*a_row.add(off), *bp, acc);
                    bp = bp.add(b_stride);
                    off += a_step;
                }
                *out_row.add(j) = acc;
                j += 1;
            }
        }
    }

    /// Hands one panel to the widest microkernel the level allows: the
    /// 512-bit tiles when `wide`, else the 256-bit ones.
    ///
    /// # Safety
    /// As in [`panel`]; `wide` additionally requires `avx512f`.
    #[inline]
    unsafe fn run_panel<const PACKED: bool>(wide: bool, p: Panel) {
        // SAFETY: the caller upholds this function's `# Safety` contract.
        unsafe {
            if wide {
                super::avx512::panel::<PACKED>(p)
            } else {
                panel::<PACKED>(p)
            }
        }
    }

    /// Vector arm of [`super::gemm_rows_unpacked_with`]: the scalar kernel's
    /// k-panel blocking with a register-tiled microkernel inside (the
    /// broadcast operand walks row `i` of `a`, one element per step).
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA — and `avx512f` when `wide`; slice
    /// lengths must match the dimensions exactly (asserted by the caller).
    pub(super) unsafe fn gemm_rows(
        wide: bool,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        rows_a: usize,
        cols_a: usize,
        cols_b: usize,
    ) {
        for kk in (0..cols_a).step_by(BLOCK) {
            // SAFETY: the caller upholds this function's `# Safety`
            // contract; `kk < cols_a` keeps both offsets in bounds.
            unsafe {
                run_panel::<false>(
                    wide,
                    Panel {
                        a: a.as_ptr().add(kk),
                        a_row_stride: cols_a,
                        a_step: 1,
                        b: b.as_ptr().add(kk * cols_b),
                        b_stride: cols_b,
                        out: out.as_mut_ptr(),
                        cols_out: cols_b,
                        rows: rows_a,
                        cols: cols_b,
                        steps: (kk + BLOCK).min(cols_a) - kk,
                    },
                );
            }
        }
    }

    // Thread-local scratch for the packed-B kernel: grow-only, so after the
    // first call at a given panel size every repack reuses the allocation
    // and the steady-state dispatch stays allocation-free (the same
    // guarantee the worker pool carries).
    std::thread_local! {
        static PACK_BUF: std::cell::RefCell<Vec<f64>> =
            // capes-check: allow(hot-path-alloc) -- const-evaluated empty Vec: no heap allocation.
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// Packed-B arm of [`super::gemm_rows_packed_with`] (and of the
    /// [`super::gemm_rows_with`] auto gate): identical k-panel blocking to
    /// [`gemm_rows`], but each panel of `b` is first copied into tile-major
    /// scratch so the register-tiled sweep reads consecutive cache lines.
    ///
    /// # Safety
    /// As in [`gemm_rows`].
    pub(super) unsafe fn gemm_rows_packed(
        wide: bool,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        rows_a: usize,
        cols_a: usize,
        cols_b: usize,
    ) {
        PACK_BUF.with(|cell| {
            let mut buf = cell.borrow_mut();
            let needed = BLOCK.min(cols_a) * cols_b;
            if buf.len() < needed {
                buf.resize(needed, 0.0);
            }
            for kk in (0..cols_a).step_by(BLOCK) {
                let steps = (kk + BLOCK).min(cols_a) - kk;
                // SAFETY: forwarded from the caller; the scratch buffer holds
                // at least `steps * cols_b` elements by the resize above.
                unsafe {
                    pack_b_panel(
                        b.as_ptr().add(kk * cols_b),
                        cols_b,
                        cols_b,
                        steps,
                        buf.as_mut_ptr(),
                    );
                    run_panel::<true>(
                        wide,
                        Panel {
                            a: a.as_ptr().add(kk),
                            a_row_stride: cols_a,
                            a_step: 1,
                            b: buf.as_ptr(),
                            b_stride: 0,
                            out: out.as_mut_ptr(),
                            cols_out: cols_b,
                            rows: rows_a,
                            cols: cols_b,
                            steps,
                        },
                    );
                }
            }
        });
    }

    /// Copies the `steps × cols` k-panel at `b` (rows `b_stride` apart) into
    /// `dst` in **tile-major** order: each full 8-column tile is stored as
    /// `steps` consecutive 8-element rows (so the microkernel's per-step
    /// fragment loads walk `dst` with stride 8 — one cache line — instead of
    /// stride `b_stride`), followed by the `w = cols % 8` remainder tile
    /// stored as `steps` rows of `w` elements. Total footprint is exactly
    /// `steps * cols` elements.
    ///
    /// # Safety
    /// The CPU must support AVX2; `b` must be valid for the panel reads and
    /// `dst` for `steps * cols` writes.
    #[target_feature(enable = "avx2")]
    unsafe fn pack_b_panel(
        b: *const f64,
        b_stride: usize,
        cols: usize,
        steps: usize,
        dst: *mut f64,
    ) {
        // SAFETY: the caller upholds this function's `# Safety` contract.
        unsafe {
            let full = cols / 8 * 8;
            let w = cols - full;
            let mut j = 0usize;
            while j < full {
                let tile = dst.add((j / 8) * steps * 8);
                for s in 0..steps {
                    let src = b.add(s * b_stride + j);
                    _mm256_storeu_pd(tile.add(s * 8), _mm256_loadu_pd(src));
                    _mm256_storeu_pd(tile.add(s * 8 + 4), _mm256_loadu_pd(src.add(4)));
                }
                j += 8;
            }
            if w > 0 {
                let rem = dst.add((full / 8) * steps * 8);
                for s in 0..steps {
                    let src = b.add(s * b_stride + full);
                    for c in 0..w {
                        *rem.add(s * w + c) = *src.add(c);
                    }
                }
            }
        }
    }

    /// Vector arm of [`super::gemm_ta_rows_with`]: the same microkernels
    /// with the broadcast operand walking a *column* of `a` (stride `m` per
    /// reduction step, stride 1 between output rows).
    ///
    /// # Safety
    /// As in [`gemm_rows`]; additionally `i_start..i_end` must lie within
    /// `0..m`.
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn gemm_ta_rows(
        wide: bool,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        i_start: usize,
        i_end: usize,
        n: usize,
        m: usize,
        p: usize,
    ) {
        // SAFETY: the caller upholds this function's `# Safety` contract.
        unsafe {
            run_panel::<false>(
                wide,
                Panel {
                    a: a.as_ptr().add(i_start),
                    a_row_stride: 1,
                    a_step: m,
                    b: b.as_ptr(),
                    b_stride: p,
                    out: out.as_mut_ptr(),
                    cols_out: p,
                    rows: i_end - i_start,
                    cols: p,
                    steps: n,
                },
            );
        }
    }

    /// FMA dot product over `len` doubles: one 256-bit accumulator chain,
    /// horizontal sum, scalar-FMA tail. Deliberately the *same* per-element
    /// accumulation order as [`dot_2x4`], so an output element lands on the
    /// same bits whether its row happened to be tiled in a pair or fell into
    /// a remainder lane — row chunking (the pooled dispatch) moves that
    /// boundary around.
    ///
    /// # Safety
    /// `a` and `b` must be valid for `len` reads; CPU must support AVX2+FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn dot(a: *const f64, b: *const f64, len: usize) -> f64 {
        // SAFETY: the caller upholds this function's `# Safety` contract.
        unsafe {
            let mut acc = _mm256_setzero_pd();
            let mut i = 0usize;
            while i + 4 <= len {
                acc = _mm256_fmadd_pd(_mm256_loadu_pd(a.add(i)), _mm256_loadu_pd(b.add(i)), acc);
                i += 4;
            }
            let mut sum = hsum(acc);
            while i < len {
                sum = fmadd_sd(*a.add(i), *b.add(i), sum);
                i += 1;
            }
            sum
        }
    }

    /// Horizontal sum of a 256-bit accumulator: `(l0 + l2) + (l1 + l3)`.
    ///
    /// # Safety
    /// CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn hsum(acc: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(acc);
        let hi = _mm256_extractf128_pd(acc, 1);
        let pair = _mm_add_pd(lo, hi);
        _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)))
    }

    /// AVX2+FMA arm of [`super::gemm_tb_rows_with`]: identical panel blocking
    /// to the scalar kernel, with the per-panel work register-tiled 2 a-rows
    /// × 4 b-rows — eight dot-product accumulators whose a/b segment loads
    /// are shared pairwise, lifting the kernel off the load ports. Remainder
    /// a-rows and b-rows run the plain segment [`dot`].
    ///
    /// # Safety
    /// As in [`gemm_rows`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gemm_tb_rows(
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        rows_a: usize,
        cols: usize,
        rows_b: usize,
    ) {
        // SAFETY: the caller upholds this function's `# Safety` contract.
        unsafe {
            out.fill(0.0);
            let a_ptr = a.as_ptr();
            let b_ptr = b.as_ptr();
            let out_ptr = out.as_mut_ptr();
            for kk in (0..cols).step_by(BLOCK) {
                let k_end = (kk + BLOCK).min(cols);
                let seg = k_end - kk;
                for jj in (0..rows_b).step_by(BLOCK) {
                    let j_end = (jj + BLOCK).min(rows_b);
                    let mut i = 0usize;
                    while i + 2 <= rows_a {
                        let a0 = a_ptr.add(i * cols + kk);
                        let a1 = a_ptr.add((i + 1) * cols + kk);
                        let o0 = out_ptr.add(i * rows_b);
                        let o1 = out_ptr.add((i + 1) * rows_b);
                        let mut j = jj;
                        while j + 4 <= j_end {
                            dot_2x4(
                                a0,
                                a1,
                                b_ptr.add(j * cols + kk),
                                cols,
                                seg,
                                o0.add(j),
                                o1.add(j),
                            );
                            j += 4;
                        }
                        while j < j_end {
                            let bj = b_ptr.add(j * cols + kk);
                            *o0.add(j) += dot(a0, bj, seg);
                            *o1.add(j) += dot(a1, bj, seg);
                            j += 1;
                        }
                        i += 2;
                    }
                    if i < rows_a {
                        let a0 = a_ptr.add(i * cols + kk);
                        let o0 = out_ptr.add(i * rows_b);
                        for j in jj..j_end {
                            *o0.add(j) += dot(a0, b_ptr.add(j * cols + kk), seg);
                        }
                    }
                }
            }
        }
    }

    /// AVX2 arm of [`super::adam_update_with`]: 4-wide lanes over the
    /// element-wise update, remainder handed to the scalar arm.
    ///
    /// Deliberately **FMA-free**: mul, add, div, sqrt and sub are each
    /// correctly rounded (IEEE 754), and the lane sequence is the scalar
    /// arm's evaluation order operation for operation — `(1 − β)·g` products
    /// first, then the add; `(lr·m̂)` before the divide; under `BLEND` the
    /// two blend products before their add — so every element lands on the
    /// same bits the scalar arm produces. An FMA here would save one
    /// rounding and break that equality. `DIV1` as in the scalar arm.
    ///
    /// # Safety
    /// The CPU must support AVX2; the four slices — and `target` under
    /// `BLEND` — must be equal-length (asserted by the caller).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn adam_update<const BLEND: bool, const DIV1: bool>(
        params: &mut [f64],
        grads: &[f64],
        m: &mut [f64],
        v: &mut [f64],
        s: &super::AdamStep,
        target: &mut [f64],
        alpha: f64,
    ) {
        // SAFETY: the caller upholds this function's `# Safety` contract.
        unsafe {
            let n = params.len();
            let lanes = n - n % 4;
            let b1 = _mm256_set1_pd(s.beta1);
            let b2 = _mm256_set1_pd(s.beta2);
            let omb1 = _mm256_set1_pd(1.0 - s.beta1);
            let omb2 = _mm256_set1_pd(1.0 - s.beta2);
            let bias1 = _mm256_set1_pd(s.bias1);
            let bias2 = _mm256_set1_pd(s.bias2);
            let lr = _mm256_set1_pd(s.learning_rate);
            let eps = _mm256_set1_pd(s.epsilon);
            let scale = _mm256_set1_pd(s.scale);
            let keep = _mm256_set1_pd(1.0 - alpha);
            let take = _mm256_set1_pd(alpha);
            let p_ptr = params.as_mut_ptr();
            let g_ptr = grads.as_ptr();
            let m_ptr = m.as_mut_ptr();
            let v_ptr = v.as_mut_ptr();
            let t_ptr = target.as_mut_ptr();
            let mut i = 0usize;
            while i + 4 <= n {
                let g = _mm256_mul_pd(_mm256_loadu_pd(g_ptr.add(i)), scale);
                let mv = _mm256_add_pd(
                    _mm256_mul_pd(b1, _mm256_loadu_pd(m_ptr.add(i))),
                    _mm256_mul_pd(omb1, g),
                );
                let vv = _mm256_add_pd(
                    _mm256_mul_pd(b2, _mm256_loadu_pd(v_ptr.add(i))),
                    _mm256_mul_pd(_mm256_mul_pd(omb2, g), g),
                );
                _mm256_storeu_pd(m_ptr.add(i), mv);
                _mm256_storeu_pd(v_ptr.add(i), vv);
                let m_hat = if DIV1 { _mm256_div_pd(mv, bias1) } else { mv };
                let v_hat = _mm256_div_pd(vv, bias2);
                let delta = _mm256_div_pd(
                    _mm256_mul_pd(lr, m_hat),
                    _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps),
                );
                let p = _mm256_sub_pd(_mm256_loadu_pd(p_ptr.add(i)), delta);
                _mm256_storeu_pd(p_ptr.add(i), p);
                if BLEND {
                    let t = _mm256_loadu_pd(t_ptr.add(i));
                    _mm256_storeu_pd(
                        t_ptr.add(i),
                        _mm256_add_pd(_mm256_mul_pd(t, keep), _mm256_mul_pd(p, take)),
                    );
                }
                i += 4;
            }
            super::adam_update_scalar::<BLEND, DIV1>(
                &mut params[lanes..],
                &grads[lanes..],
                &mut m[lanes..],
                &mut v[lanes..],
                s,
                if BLEND { &mut target[lanes..] } else { target },
                alpha,
            );
        }
    }

    /// Four-lane `tanh`, executing [`super::tanh_value`]'s exact operation
    /// sequence: both branches are computed on every lane (no side effects,
    /// non-selected lanes may produce NaN/∞ and are discarded), the blend
    /// picks the rational branch where `|x| < 0.625` — the same strict
    /// compare the scalar `if` uses — the sign bit is OR-ed back, and NaN
    /// lanes are restored to their original input bits last, mirroring the
    /// scalar early return. FMA-free throughout.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tanh_pd(x: __m256d) -> __m256d {
        let sign_mask = _mm256_set1_pd(-0.0);
        let sign = _mm256_and_pd(x, sign_mask);
        let a = _mm256_andnot_pd(sign_mask, x);

        // Rational branch: a + a·(s·(P(s)/Q(s))), s = a².
        let s = _mm256_mul_pd(a, a);
        let p = _mm256_add_pd(
            _mm256_mul_pd(
                _mm256_add_pd(
                    _mm256_mul_pd(_mm256_set1_pd(super::TANH_P0), s),
                    _mm256_set1_pd(super::TANH_P1),
                ),
                s,
            ),
            _mm256_set1_pd(super::TANH_P2),
        );
        let q = _mm256_add_pd(
            _mm256_mul_pd(
                _mm256_add_pd(
                    _mm256_mul_pd(_mm256_add_pd(s, _mm256_set1_pd(super::TANH_Q0)), s),
                    _mm256_set1_pd(super::TANH_Q1),
                ),
                s,
            ),
            _mm256_set1_pd(super::TANH_Q2),
        );
        let pq = _mm256_div_pd(p, q);
        let rational = _mm256_add_pd(a, _mm256_mul_pd(a, _mm256_mul_pd(s, pq)));

        // Exp branch: 1 − 2/(e^{2·min(a,20)} + 1). `min_pd(a, 20)` returns 20
        // for NaN lanes, matching nothing in the scalar arm — those lanes are
        // overwritten by the final unordered blend.
        let ac = _mm256_min_pd(a, _mm256_set1_pd(20.0));
        let z = _mm256_add_pd(ac, ac);
        let k = _mm256_floor_pd(_mm256_add_pd(
            _mm256_mul_pd(z, _mm256_set1_pd(super::EXP_LOG2E)),
            _mm256_set1_pd(0.5),
        ));
        let r = _mm256_sub_pd(
            _mm256_sub_pd(z, _mm256_mul_pd(k, _mm256_set1_pd(super::EXP_LN2_HI))),
            _mm256_mul_pd(k, _mm256_set1_pd(super::EXP_LN2_LO)),
        );
        let mut e = _mm256_set1_pd(super::EXP_C[13]);
        let mut j = 13;
        while j > 0 {
            j -= 1;
            e = _mm256_add_pd(_mm256_mul_pd(e, r), _mm256_set1_pd(super::EXP_C[j]));
        }
        // 2^k by exponent bit-stuffing, lane for lane the scalar bit trick.
        let ik = _mm256_and_si256(
            _mm256_castpd_si256(_mm256_add_pd(k, _mm256_set1_pd(super::EXP_SHIFTER))),
            _mm256_set1_epi64x(0x000F_FFFF_FFFF_FFFF),
        );
        let two_k = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_add_epi64(
            ik,
            _mm256_set1_epi64x(1023),
        )));
        let ez = _mm256_mul_pd(e, two_k);
        let expo = _mm256_sub_pd(
            _mm256_set1_pd(1.0),
            _mm256_div_pd(_mm256_set1_pd(2.0), _mm256_add_pd(ez, _mm256_set1_pd(1.0))),
        );

        let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(a, _mm256_set1_pd(0.625));
        let t = _mm256_blendv_pd(expo, rational, lt);
        let signed = _mm256_or_pd(t, sign);
        let unord = _mm256_cmp_pd::<_CMP_UNORD_Q>(x, x);
        _mm256_blendv_pd(signed, x, unord)
    }

    /// AVX2 arm of [`super::tanh_forward_with`]: 4-wide [`tanh_pd`] lanes,
    /// remainder handed to the scalar arm.
    ///
    /// # Safety
    /// The CPU must support AVX2; slice lengths must match (asserted by the
    /// caller).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tanh_forward(src: &[f64], dst: &mut [f64]) {
        // SAFETY: the caller upholds this function's `# Safety` contract.
        unsafe {
            let n = src.len();
            let lanes = n - n % 4;
            let s_ptr = src.as_ptr();
            let d_ptr = dst.as_mut_ptr();
            let mut i = 0usize;
            while i + 4 <= n {
                _mm256_storeu_pd(d_ptr.add(i), tanh_pd(_mm256_loadu_pd(s_ptr.add(i))));
                i += 4;
            }
            super::tanh_forward_scalar(&src[lanes..], &mut dst[lanes..]);
        }
    }

    /// AVX2 arm of [`super::tanh_backward_with`]: `g *= 1 − y²` with
    /// individually-rounded mul/sub/mul in the scalar order.
    ///
    /// # Safety
    /// The CPU must support AVX2; slice lengths must match (asserted by the
    /// caller).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tanh_backward(output: &[f64], grads: &mut [f64]) {
        // SAFETY: the caller upholds this function's `# Safety` contract.
        unsafe {
            let n = output.len();
            let lanes = n - n % 4;
            let one = _mm256_set1_pd(1.0);
            let y_ptr = output.as_ptr();
            let g_ptr = grads.as_mut_ptr();
            let mut i = 0usize;
            while i + 4 <= n {
                let y = _mm256_loadu_pd(y_ptr.add(i));
                let g = _mm256_loadu_pd(g_ptr.add(i));
                let d = _mm256_sub_pd(one, _mm256_mul_pd(y, y));
                _mm256_storeu_pd(g_ptr.add(i), _mm256_mul_pd(g, d));
                i += 4;
            }
            super::tanh_backward_scalar(&output[lanes..], &mut grads[lanes..]);
        }
    }

    /// AVX2 arm of [`super::bellman_targets_with`]: four output rows per
    /// sweep, lanes gathered with strided `set_pd` loads. The running-max
    /// update is `blendv(m, v, v > m)` with an ordered greater-than — the
    /// exact truth table of the scalar `if v > m { m = v }` including NaN
    /// behaviour (a NaN candidate never displaces `m`; a NaN seed sticks).
    /// The final `r + γ·m` is mul-then-add, no FMA. Remainder rows fall to
    /// the scalar arm on subslices.
    ///
    /// # Safety
    /// The CPU must support AVX2; shapes must satisfy the caller's asserts.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn bellman_targets(
        rewards: &[f64],
        next_q: &[f64],
        cols: usize,
        discount: f64,
        out: &mut [f64],
    ) {
        // SAFETY: the caller upholds this function's `# Safety` contract.
        unsafe {
            let rows = rewards.len();
            let quads = rows - rows % 4;
            let gamma = _mm256_set1_pd(discount);
            let q_ptr = next_q.as_ptr();
            let r_ptr = rewards.as_ptr();
            let o_ptr = out.as_mut_ptr();
            let mut i = 0usize;
            while i + 4 <= rows {
                let r0 = q_ptr.add(i * cols);
                let r1 = q_ptr.add((i + 1) * cols);
                let r2 = q_ptr.add((i + 2) * cols);
                let r3 = q_ptr.add((i + 3) * cols);
                let mut m = _mm256_set_pd(*r3, *r2, *r1, *r0);
                for j in 1..cols {
                    let v = _mm256_set_pd(*r3.add(j), *r2.add(j), *r1.add(j), *r0.add(j));
                    let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(v, m);
                    m = _mm256_blendv_pd(m, v, gt);
                }
                let reward = _mm256_loadu_pd(r_ptr.add(i));
                _mm256_storeu_pd(o_ptr.add(i), _mm256_add_pd(reward, _mm256_mul_pd(gamma, m)));
                i += 4;
            }
            super::bellman_targets_scalar(
                &rewards[quads..],
                &next_q[quads * cols..],
                cols,
                discount,
                &mut out[quads..],
            );
        }
    }

    /// Eight simultaneous segment dots: a-rows `a0`/`a1` against four
    /// consecutive b-rows (`b0` plus `b_stride` apart), each pair sharing its
    /// operand loads. Accumulates the horizontal sums into
    /// `o0[0..4]`/`o1[0..4]`.
    ///
    /// # Safety
    /// As in [`panel`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn dot_2x4(
        a0: *const f64,
        a1: *const f64,
        b0: *const f64,
        b_stride: usize,
        len: usize,
        o0: *mut f64,
        o1: *mut f64,
    ) {
        // SAFETY: the caller upholds this function's `# Safety` contract.
        unsafe {
            let b1 = b0.add(b_stride);
            let b2 = b0.add(2 * b_stride);
            let b3 = b0.add(3 * b_stride);
            let mut acc00 = _mm256_setzero_pd();
            let mut acc01 = _mm256_setzero_pd();
            let mut acc02 = _mm256_setzero_pd();
            let mut acc03 = _mm256_setzero_pd();
            let mut acc10 = _mm256_setzero_pd();
            let mut acc11 = _mm256_setzero_pd();
            let mut acc12 = _mm256_setzero_pd();
            let mut acc13 = _mm256_setzero_pd();
            let mut i = 0usize;
            while i + 4 <= len {
                let va0 = _mm256_loadu_pd(a0.add(i));
                let va1 = _mm256_loadu_pd(a1.add(i));
                let vb0 = _mm256_loadu_pd(b0.add(i));
                acc00 = _mm256_fmadd_pd(va0, vb0, acc00);
                acc10 = _mm256_fmadd_pd(va1, vb0, acc10);
                let vb1 = _mm256_loadu_pd(b1.add(i));
                acc01 = _mm256_fmadd_pd(va0, vb1, acc01);
                acc11 = _mm256_fmadd_pd(va1, vb1, acc11);
                let vb2 = _mm256_loadu_pd(b2.add(i));
                acc02 = _mm256_fmadd_pd(va0, vb2, acc02);
                acc12 = _mm256_fmadd_pd(va1, vb2, acc12);
                let vb3 = _mm256_loadu_pd(b3.add(i));
                acc03 = _mm256_fmadd_pd(va0, vb3, acc03);
                acc13 = _mm256_fmadd_pd(va1, vb3, acc13);
                i += 4;
            }
            let mut s00 = hsum(acc00);
            let mut s01 = hsum(acc01);
            let mut s02 = hsum(acc02);
            let mut s03 = hsum(acc03);
            let mut s10 = hsum(acc10);
            let mut s11 = hsum(acc11);
            let mut s12 = hsum(acc12);
            let mut s13 = hsum(acc13);
            while i < len {
                let x0 = *a0.add(i);
                let x1 = *a1.add(i);
                s00 = fmadd_sd(x0, *b0.add(i), s00);
                s01 = fmadd_sd(x0, *b1.add(i), s01);
                s02 = fmadd_sd(x0, *b2.add(i), s02);
                s03 = fmadd_sd(x0, *b3.add(i), s03);
                s10 = fmadd_sd(x1, *b0.add(i), s10);
                s11 = fmadd_sd(x1, *b1.add(i), s11);
                s12 = fmadd_sd(x1, *b2.add(i), s12);
                s13 = fmadd_sd(x1, *b3.add(i), s13);
                i += 1;
            }
            *o0 += s00;
            *o0.add(1) += s01;
            *o0.add(2) += s02;
            *o0.add(3) += s03;
            *o1 += s10;
            *o1.add(1) += s11;
            *o1.add(2) += s12;
            *o1.add(3) += s13;
        }
    }
}

// ---------------------------------------------------------------------------
// AVX-512 arm — the shared GEMM panel only.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::avx2::{self, Panel};
    use std::arch::x86_64::*;

    /// Output rows per 512-bit tile.
    const TILE_ROWS: usize = 8;
    /// 8-lane fragments per tile row: 8 × 3 accumulators, three `b`
    /// fragments and one broadcast occupy 28 of the 32 `zmm` registers.
    const TILE_FRAGS: usize = 3;
    /// Output columns per 512-bit tile.
    const TILE_COLS: usize = 8 * TILE_FRAGS;
    /// How many column tiles ahead the streaming kernel prefetches `b`
    /// (measured on cold 600 × 600 weights: none 675–710 µs, one tile 596,
    /// two 495–521, four 529–557 per 32-row product).
    const PREFETCH_TILES: usize = 2;
    /// Largest `a` block (output rows × reduction steps, in elements) the
    /// microkernel treats as L1-resident: 32 KiB of a 48 KiB L1d, leaving
    /// room for one 12 KiB `b` tile.
    pub(super) const A_RESIDENT_ELEMS: usize = 4096;

    /// The 512-bit microkernel over one [`Panel`], streaming or packed `b`:
    /// 8 output rows × 24 columns per tile, so each `b` fragment loaded is
    /// reused across eight rows (half the L2 traffic per FMA of the 4 × 8
    /// `ymm` tile) at twice the lane width. A packed panel's 8-column tile
    /// rows are exactly one 64-byte fragment, so the [`avx2::pack_b_panel`]
    /// layout serves both widths.
    ///
    /// Every accumulator lane is seeded from `out` and runs the same
    /// step-ordered `fmadd` chain as the 256-bit tiles — lane width is
    /// invisible to an element's chain — so the result is **bit-identical**
    /// to [`avx2::panel`]. That also makes the seams free: the
    /// `rows % 8` bottom rows and `cols % 24` right-hand columns (and every
    /// panel smaller than one tile) are handed to the 256-bit microkernel as
    /// sub-panels.
    ///
    /// # Safety
    /// As in [`avx2::panel`]; the CPU must additionally support `avx512f`.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub(super) unsafe fn panel<const PACKED: bool>(p: Panel) {
        let Panel {
            a,
            a_row_stride,
            a_step,
            b,
            b_stride,
            out,
            cols_out,
            rows,
            cols,
            steps,
        } = p;
        let tiled_rows = rows / TILE_ROWS * TILE_ROWS;
        let tiled_cols = cols / TILE_COLS * TILE_COLS;
        // SAFETY: the caller upholds this function's `# Safety` contract;
        // both sub-panels reach the panel's right edge and start on a
        // multiple of 24 (hence 8) columns.
        unsafe {
            // Distance between neighbouring 8-column fragments of one step,
            // and between consecutive steps' fragment rows.
            let (frag_gap, b_step) = if PACKED {
                (8 * steps, 8)
            } else {
                (8, b_stride)
            };
            // Tile order. Whichever operand the inner loop re-reads should
            // stay in L1: while the panel's `a` block fits there, walk down
            // the rows inside each column tile — the `b` tile is then read
            // from L2 exactly once per panel; a taller panel walks along
            // each row tile instead, which re-streams `b` per row tile but
            // visits `out` row-contiguously. Either order runs the same
            // tiles, so the choice cannot change a bit of the result.
            let (row_tiles, col_tiles) = (tiled_rows / TILE_ROWS, tiled_cols / TILE_COLS);
            let rows_inner = tiled_rows * steps <= A_RESIDENT_ELEMS;
            for tile in 0..row_tiles * col_tiles {
                let (t, j) = if rows_inner {
                    (tile % row_tiles * TILE_ROWS, tile / row_tiles * TILE_COLS)
                } else {
                    (tile / col_tiles * TILE_ROWS, tile % col_tiles * TILE_COLS)
                };
                let o_t = out.add(t * cols_out + j);
                let mut acc = [[_mm512_setzero_pd(); TILE_FRAGS]; TILE_ROWS];
                for (r, row) in acc.iter_mut().enumerate() {
                    for (c, lane) in row.iter_mut().enumerate() {
                        *lane = _mm512_loadu_pd(o_t.add(r * cols_out + 8 * c));
                    }
                }
                let mut bp = if PACKED { b.add(j * steps) } else { b.add(j) };
                let mut ap = a.add(t * a_row_stride);
                for _ in 0..steps {
                    let bv = [
                        _mm512_loadu_pd(bp),
                        _mm512_loadu_pd(bp.add(frag_gap)),
                        _mm512_loadu_pd(bp.add(2 * frag_gap)),
                    ];
                    for (r, row) in acc.iter_mut().enumerate() {
                        let v = _mm512_set1_pd(*ap.add(r * a_row_stride));
                        for (lane, &frag) in row.iter_mut().zip(&bv) {
                            *lane = _mm512_fmadd_pd(v, frag, *lane);
                        }
                    }
                    if !PACKED {
                        // A streamed `b` arrives in `b_stride`-strided
                        // 192-byte pieces the hardware prefetcher cannot
                        // follow (the stride crosses a page per step), and
                        // the weights are far larger than L2: fetch this
                        // row's piece for the tile two to the right. The
                        // address is never dereferenced, so running past
                        // the row (or the allocation) is harmless.
                        let ahead = bp.wrapping_add(PREFETCH_TILES * TILE_COLS);
                        _mm_prefetch::<_MM_HINT_T0>(ahead as *const i8);
                        _mm_prefetch::<_MM_HINT_T0>(ahead.wrapping_add(8) as *const i8);
                        _mm_prefetch::<_MM_HINT_T0>(ahead.wrapping_add(16) as *const i8);
                    }
                    // Wrapping: after the last step these point past the
                    // operands (and are not read again).
                    bp = bp.wrapping_add(b_step);
                    ap = ap.wrapping_add(a_step);
                }
                for (r, row) in acc.iter().enumerate() {
                    for (c, &lane) in row.iter().enumerate() {
                        _mm512_storeu_pd(o_t.add(r * cols_out + 8 * c), lane);
                    }
                }
            }
            if tiled_cols < cols {
                avx2::panel::<PACKED>(p.sub::<PACKED>(
                    0,
                    tiled_rows,
                    tiled_cols,
                    cols - tiled_cols,
                ));
            }
            if tiled_rows < rows {
                avx2::panel::<PACKED>(p.sub::<PACKED>(tiled_rows, rows - tiled_rows, 0, cols));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_level_is_cached_and_runnable() {
        let level = active_level();
        assert_eq!(level, active_level(), "selection happens once");
        // Whatever was selected must actually run.
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0.0; 4];
        gemm_rows_with(level, &a, &b, &mut out, 2, 2, 2);
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn detected_level_never_exceeds_the_cpu() {
        // On x86-64 this asserts the probe agrees with std's detection macro;
        // elsewhere it must be scalar.
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 =
                std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma");
            assert_eq!(detected_level() >= SimdLevel::Avx2Fma, avx2);
            assert_eq!(
                detected_level() == SimdLevel::Avx512,
                avx2 && std::is_x86_feature_detected!("avx512f")
            );
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(detected_level(), SimdLevel::Scalar);
    }

    #[test]
    fn levels_display_for_diagnostics() {
        assert_eq!(SimdLevel::Scalar.to_string(), "scalar");
        assert_eq!(SimdLevel::Avx2Fma.to_string(), "avx2+fma");
        assert_eq!(SimdLevel::Avx512.to_string(), "avx512");
    }

    #[test]
    fn scalar_kernels_handle_degenerate_shapes() {
        // 1×1×1 and empty-ish edges through every public kernel.
        let mut out = [0.0];
        gemm_rows_with(SimdLevel::Scalar, &[3.0], &[4.0], &mut out, 1, 1, 1);
        assert_eq!(out, [12.0]);
        let mut out_ta = [0.0];
        gemm_ta_rows_with(
            SimdLevel::Scalar,
            &[3.0],
            &[4.0],
            &mut out_ta,
            0,
            1,
            1,
            1,
            1,
        );
        assert_eq!(out_ta, [12.0]);
        let mut out_tb = [f64::NAN];
        gemm_tb_rows_with(SimdLevel::Scalar, &[3.0], &[4.0], &mut out_tb, 1, 1, 1);
        assert_eq!(out_tb, [12.0]);
    }

    #[test]
    fn packed_gemm_handles_degenerate_and_gate_straddling_shapes() {
        // Shapes on both sides of the auto gate, including ones with no full
        // 8-column tile (pure remainder), no remainder (cols % 8 == 0), and
        // multiple k-panels; packed, unpacked and auto dispatch must agree
        // bitwise at every runnable level.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 64, 8),
            (5, 65, 9),
            (9, 130, 140),
            (8, 40, 128),
            (7, 40, 128),
            (8, 40, 127),
        ] {
            let a: Vec<f64> = (0..m * k).map(|i| (i as f64).sin()).collect();
            let b: Vec<f64> = (0..k * n).map(|i| (i as f64).cos()).collect();
            for &level in runnable_levels() {
                let mut unpacked = vec![0.1; m * n];
                let mut packed = vec![0.1; m * n];
                let mut auto = vec![0.1; m * n];
                gemm_rows_unpacked_with(level, &a, &b, &mut unpacked, m, k, n);
                gemm_rows_packed_with(level, &a, &b, &mut packed, m, k, n);
                gemm_rows_with(level, &a, &b, &mut auto, m, k, n);
                for i in 0..m * n {
                    assert_eq!(
                        packed[i].to_bits(),
                        unpacked[i].to_bits(),
                        "{level} {m}x{k}x{n}: packed diverged at {i}"
                    );
                    assert_eq!(
                        auto[i].to_bits(),
                        unpacked[i].to_bits(),
                        "{level} {m}x{k}x{n}: auto gate diverged at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn adam_update_applies_the_textbook_formula() {
        // One element, first step, no clipping: hand-check the update.
        let (lr, b1, b2, eps) = (0.1, 0.9, 0.999, 1e-8);
        let step = AdamStep {
            learning_rate: lr,
            beta1: b1,
            beta2: b2,
            epsilon: eps,
            bias1: 1.0 - b1,
            bias2: 1.0 - b2,
            scale: 1.0,
        };
        let mut p = [1.0];
        let mut m = [0.0];
        let mut v = [0.0];
        adam_update_with(
            SimdLevel::Scalar,
            &mut p,
            &[0.5],
            &mut m,
            &mut v,
            &step,
            None,
        );
        // m = (1−β₁)·g, v = (1−β₂)·g²; bias corrections cancel on step 1, so
        // m̂ = g, v̂ = g² and the update is lr·g/(|g|+ε) ≈ lr.
        assert!((m[0] - (1.0 - b1) * 0.5).abs() < 1e-15);
        assert!((v[0] - (1.0 - b2) * 0.25).abs() < 1e-15);
        assert!((p[0] - (1.0 - lr)).abs() < 1e-8, "p = {}", p[0]);
    }

    #[test]
    fn adam_update_gradient_scale_folds_in() {
        let step = AdamStep {
            learning_rate: 1e-2,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            bias1: 0.1,
            bias2: 1e-3,
            scale: 0.5,
        };
        let grads = [2.0, -4.0, 8.0];
        let mut p_scaled = [0.0; 3];
        let mut m_scaled = [0.0; 3];
        let mut v_scaled = [0.0; 3];
        adam_update_with(
            SimdLevel::Scalar,
            &mut p_scaled,
            &grads,
            &mut m_scaled,
            &mut v_scaled,
            &step,
            None,
        );
        // Same update on pre-scaled gradients with scale = 1.
        let pre_scaled: Vec<f64> = grads.iter().map(|g| g * 0.5).collect();
        let mut p_ref = [0.0; 3];
        let mut m_ref = [0.0; 3];
        let mut v_ref = [0.0; 3];
        let unit = AdamStep { scale: 1.0, ..step };
        adam_update_with(
            SimdLevel::Scalar,
            &mut p_ref,
            &pre_scaled,
            &mut m_ref,
            &mut v_ref,
            &unit,
            None,
        );
        assert_eq!(p_scaled, p_ref);
        assert_eq!(m_scaled, m_ref);
        assert_eq!(v_scaled, v_ref);
    }

    #[test]
    #[should_panic(expected = "adam_update: m length mismatch")]
    fn adam_update_rejects_mismatched_state() {
        let step = AdamStep {
            learning_rate: 0.1,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            bias1: 0.1,
            bias2: 1e-3,
            scale: 1.0,
        };
        let mut p = [0.0; 2];
        let mut m = [0.0; 1];
        let mut v = [0.0; 2];
        adam_update_with(
            SimdLevel::Scalar,
            &mut p,
            &[0.0; 2],
            &mut m,
            &mut v,
            &step,
            None,
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_lengths_panic_before_any_unsafe_code() {
        let mut out = [0.0; 3];
        gemm_rows_with(
            SimdLevel::Scalar,
            &[1.0, 2.0],
            &[1.0, 2.0],
            &mut out,
            2,
            2,
            2,
        );
    }

    #[test]
    fn tanh_value_matches_libm_closely() {
        // Dense sweep across both branches plus the hand-picked edges.
        let mut xs: Vec<f64> = (-4000..=4000).map(|i| i as f64 * 0.01).collect();
        xs.extend_from_slice(&[
            0.624999999,
            0.625,
            0.625000001,
            1e-300,
            -1e-300,
            19.999,
            20.0,
            20.001,
            700.0,
            1e308,
        ]);
        for &x in &xs {
            let got = tanh_value(x);
            let want = x.tanh();
            let tol = 1e-14 * want.abs().max(1e-300);
            assert!(
                (got - want).abs() <= tol,
                "tanh({x}) = {got}, libm says {want}"
            );
        }
    }

    #[test]
    fn tanh_value_edge_cases_are_exact() {
        assert_eq!(tanh_value(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(tanh_value(-0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(tanh_value(f64::INFINITY), 1.0);
        assert_eq!(tanh_value(f64::NEG_INFINITY), -1.0);
        assert_eq!(tanh_value(25.0), 1.0);
        assert_eq!(tanh_value(-25.0), -1.0);
        assert!(tanh_value(f64::NAN).is_nan());
        // Oddness is exact: both branches flip only the sign bit.
        for x in [0.1, 0.625, 3.0, 15.0] {
            assert_eq!(tanh_value(-x).to_bits(), (-tanh_value(x)).to_bits());
        }
        // Tiny inputs stay monotone through the rational branch (no
        // catastrophic cancellation): tanh(x) ≈ x.
        assert_eq!(tanh_value(1e-300), 1e-300);
    }

    #[test]
    fn tanh_forward_is_bit_identical_across_levels() {
        let src: Vec<f64> = (0..257)
            .map(|i| (i as f64 - 128.0) * 0.17)
            .chain([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.625])
            .collect();
        let mut reference = vec![0.0; src.len()];
        tanh_forward_with(SimdLevel::Scalar, &src, &mut reference);
        for (&x, &y) in src.iter().zip(&reference) {
            assert_eq!(y.to_bits(), tanh_value(x).to_bits());
        }
        for &level in runnable_levels() {
            let mut dst = vec![f64::NAN; src.len()];
            tanh_forward_with(level, &src, &mut dst);
            for (i, (got, want)) in dst.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{level} diverged at {i} (x = {})",
                    src[i]
                );
            }
        }
    }

    #[test]
    fn tanh_backward_is_bit_identical_across_levels() {
        let output: Vec<f64> = (0..101).map(|i| (i as f64 - 50.0) * 0.019).collect();
        let grads0: Vec<f64> = (0..101).map(|i| (i as f64) * 0.3 - 11.0).collect();
        let mut reference = grads0.clone();
        tanh_backward_with(SimdLevel::Scalar, &output, &mut reference);
        for &level in runnable_levels() {
            let mut grads = grads0.clone();
            tanh_backward_with(level, &output, &mut grads);
            for (got, want) in grads.iter().zip(&reference) {
                assert_eq!(got.to_bits(), want.to_bits(), "{level} backward diverged");
            }
        }
    }

    #[test]
    fn bellman_targets_takes_the_row_max() {
        // 3 rows × 4 cols with the max in a different column each row.
        let next_q = [
            9.0, 1.0, 2.0, 3.0, //
            1.0, 2.0, 8.0, 3.0, //
            1.0, 2.0, 3.0, 7.0,
        ];
        let rewards = [10.0, 20.0, 30.0];
        for &level in runnable_levels() {
            let mut out = [f64::NAN; 3];
            bellman_targets_with(level, &rewards, &next_q, 4, 0.5, &mut out);
            assert_eq!(out, [10.0 + 0.5 * 9.0, 20.0 + 0.5 * 8.0, 30.0 + 0.5 * 7.0]);
        }
    }

    #[test]
    fn bellman_nan_semantics_match_the_scalar_if() {
        // A NaN candidate never displaces the running max; a NaN seed sticks.
        let next_q = [
            1.0,
            f64::NAN,
            2.0, //
            f64::NAN,
            5.0,
            6.0,
        ];
        let rewards = [0.0, 0.0];
        let mut reference = [0.0; 2];
        bellman_targets_with(SimdLevel::Scalar, &rewards, &next_q, 3, 1.0, &mut reference);
        assert_eq!(reference[0], 2.0);
        assert!(reference[1].is_nan());
        for &level in runnable_levels() {
            let mut out = [0.0; 2];
            bellman_targets_with(level, &rewards, &next_q, 3, 1.0, &mut out);
            assert_eq!(out[0].to_bits(), reference[0].to_bits(), "{level}");
            assert_eq!(out[1].to_bits(), reference[1].to_bits(), "{level}");
        }
    }

    #[test]
    #[should_panic(expected = "bellman_targets: next_q shape mismatch")]
    fn bellman_rejects_bad_shapes_before_any_unsafe_code() {
        let mut out = [0.0; 2];
        bellman_targets_with(SimdLevel::Scalar, &[0.0; 2], &[0.0; 5], 3, 0.9, &mut out);
    }
}
