//! Explicit SIMD GEMM inner kernels with runtime dispatch.
//!
//! At the x86-64 *baseline* target (SSE2) the autovectorizer can only emit
//! 2-wide f64 arithmetic and no fused multiply-adds. This module provides
//! hand-written vector inner kernels for all three GEMM shapes the training
//! step uses —
//!
//! * `out += a · b` ([`gemm_rows_with`], also the fused-affine kernel:
//!   `affine_into` seeds `out` with the bias and accumulates on top),
//! * `out[i_start..i_end] = (aᵀ · b)[i_start..i_end]`
//!   ([`gemm_ta_rows_with`], the weight-gradient product, which overwrites:
//!   its chains start from `+0.0`, so nobody zero-fills `out` first), and
//! * `out = a · bᵀ` ([`gemm_tb_rows_with`], the input-gradient product)
//!
//! — at three totally ordered levels ([`SimdLevel`]), `Scalar < Avx2Fma <
//! Avx512`:
//!
//! | level     | what it vectorises                                              |
//! |-----------|-----------------------------------------------------------------|
//! | `Scalar`  | nothing by hand — portable kernels running the vector arms' FMA chains one element at a time |
//! | `Avx2Fma` | everything below: 4 × 8 `ymm` GEMM tiles, the `a · bᵀ` dot kernel, Adam, the tanh forward pass |
//! | `Avx512`  | the shared GEMM panel of `out += a · b` and of the zero-seeded `out = aᵀ · b` (8 × 24 `zmm` tiles), `a · bᵀ` (8 a-rows × 4 b-rows, two a-rows per `zmm`) and the tanh forward pass (8 lanes); remainders run the 256-bit code, and Adam runs its `Avx2Fma` arm |
//!
//! Every 512-bit arm is **bit-identical** to `Avx2Fma`, because each output
//! element keeps its exact operation chain. The panel's per-element FMA
//! chain is the same at any lane width. The `a · bᵀ` dot's horizontal sum
//! `(l0 + l2) + (l1 + l3)` fixes its summation order to four lanes (eight
//! would change bits), so the 512-bit tile keeps four lanes per dot and puts
//! two a-rows in one register instead. tanh is a fixed sequence of
//! individually rounded operations, whatever the width; at 4 × 83 µs per
//! Table 2 step it is ≈ 6 % of the step. Adam stays 256-bit: it is bound by
//! its one division and one square root per element and its nine parameter
//! streams (`vdivpd zmm` has the same per-element throughput as `ymm`). The
//! Bellman targets and tanh backward have one portable loop and no level:
//! on the DQN's 32-row minibatch a vector arm saved at most ~2 µs a call,
//! under 0.1 % of a Table 2 step.
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
//! **Every level computes the same bits.** The scalar arm runs each output
//! element's exact FMA chain (`f64::mul_add`, one rounding per
//! multiply-add) in the vector arms' order, so `CAPES_SIMD` and the host CPU
//! select speed, never results: a checkpoint trained at one level is
//! bit-identical to one trained at any other (property-tested on every tile
//! seam; a NaN only has to stay a NaN, because a scalar `+` does not pin
//! which payload it keeps). On x86-64 the scalar GEMMs are compiled a second
//! time with the `fma` target feature and picked when the CPU has it;
//! without it `mul_add` is a correctly rounded libm call, so both give the
//! same bits. Non-finite operands propagate exactly like the naive kernel in
//! every arm: every product is computed, `0 · NaN` is `NaN`, never
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
//! `θ⁻[i] = θ⁻[i]·(1−α) + θ[i]·α`. Unlike the GEMMs, it contracts **no
//! operation into an FMA** in any arm — every mul, add, div, sqrt and sub is
//! individually correctly rounded, in the same order in every arm — so the
//! arms are bit-identical (property-tested), and the blend lands on the bits
//! of `Matrix::blend`. The vector arm's one use of FMA is not a contraction:
//! it divides by the two bias corrections, constant for the whole step,
//! through a reciprocal and two FMA corrections that return the IEEE
//! quotient's bits (Markstein's theorem; the scalar arm's `/` is the
//! oracle, swept over every bias correction a training run reaches).

use std::fmt;
use std::sync::OnceLock;

/// Which inner-kernel implementation the kernels run. Totally ordered,
/// lowest first: a level runs everything the levels below it run, so "can
/// run AVX2" is `level >= SimdLevel::Avx2Fma`, never `==`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
// capes-check: allow(dead-pub) -- the level argument of the level-explicit kernels tests/simd_properties.rs and tests/simd_dispatch.rs pin
pub enum SimdLevel {
    /// Portable scalar kernels: the vector arms' per-element FMA chains, one
    /// element at a time, so bit-identical to every other level.
    Scalar,
    /// Hand-written AVX2 kernels with FMA contraction (x86-64 only).
    Avx2Fma,
    /// [`SimdLevel::Avx2Fma`] with the GEMM panel, `a · bᵀ` and the tanh
    /// forward pass on 512-bit registers (x86-64 with `avx512f`);
    /// bit-identical to `Avx2Fma` everywhere.
    Avx512,
}

impl SimdLevel {
    /// Every level, lowest first.
    // capes-check: allow(dead-pub) -- the level loop of tests/simd_dispatch.rs
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
/// tests iterate.
// capes-check: allow(dead-pub) -- the level loop of tests/simd_properties.rs
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
// capes-check: allow(dead-pub) -- the level check of tests/simd_properties.rs and capes-nn's tests/simd_determinism.rs
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
/// The vector arms read `b` where it lies; nothing repacks it. Packing a
/// k-panel of `b` into tile order pays only when many row tiles re-sweep
/// it, and the training step's minibatch and the fleet's batched decide
/// have at most 64 rows.
///
/// # Panics
/// Panics if any slice length disagrees with the dimensions (the vector arms
/// rely on the exact lengths for memory safety).
// capes-check: allow(dead-pub) -- the level-explicit kernel of tests/simd_properties.rs and tests/simd_dispatch.rs
pub fn gemm_rows_with(
    level: SimdLevel,
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
            avx2::gemm_rows(wide, a, b, out, rows_a, cols_a, cols_b)
        },
        _ => scalar::gemm_rows(a, b, out, rows_a, cols_a, cols_b),
    }
}

/// Overwriting `out = (aᵀ · b)[i_start..i_end]` over raw slices at an
/// explicit [`SimdLevel`], where `a` is `n × m` and `b` is `n × p`; `out`
/// holds the rows `i_start..i_end` of the `m × p` product, and its previous
/// contents are never read.
///
/// Every element's FMA chain starts from a `+0.0` register rather than from
/// `out`, which is bit for bit what accumulating onto a zeroed `out` gave,
/// without the pass that zeroed it (a 600 × 600 weight gradient is 2.9 MB).
/// The 512-bit tiles seed the same way as the 256-bit ones, so
/// [`SimdLevel::Avx512`] stays bit-identical to [`SimdLevel::Avx2Fma`].
/// Unrunnable level requests are clamped down as in [`gemm_rows_with`].
///
/// # Panics
/// Panics if any slice length disagrees with the dimensions or the row range
/// is out of bounds.
#[allow(clippy::too_many_arguments)]
// capes-check: allow(dead-pub) -- the level-explicit kernel of tests/simd_properties.rs and tests/simd_dispatch.rs
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
        // SAFETY: as in `gemm_rows_with`.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma | SimdLevel::Avx512 => unsafe {
            let wide = level == SimdLevel::Avx512;
            avx2::gemm_ta_rows(wide, a, b, out, i_start, i_end, n, m, p)
        },
        _ => scalar::gemm_ta_rows(a, b, out, i_start, i_end, n, m, p),
    }
}

/// `out = a · bᵀ` over raw slices at an explicit [`SimdLevel`]: row `i` of
/// `out` holds the dot products of row `i` of `a` with every row of `b`
/// (`out` is zeroed and accumulated into, panel by panel).
///
/// Every arm computes each panel's dot as four lane accumulators joined
/// `(l0 + l2) + (l1 + l3)`, then a scalar-FMA tail. [`SimdLevel::Avx512`]
/// keeps that four-lane chain and widens the tile instead: one `zmm` holds
/// two a-rows' four lanes side by side, so it is **bit-identical** to
/// [`SimdLevel::Avx2Fma`]. Unrunnable level requests are clamped down as in
/// [`gemm_rows_with`].
///
/// # Panics
/// Panics if any slice length disagrees with the dimensions.
// capes-check: allow(dead-pub) -- the level-explicit kernel of tests/simd_properties.rs and tests/simd_dispatch.rs
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
        SimdLevel::Avx2Fma => unsafe { avx2::gemm_tb_rows(a, b, out, rows_a, cols, rows_b) },
        // SAFETY: as above, and `runnable` confirmed `avx512f`.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { avx512::gemm_tb_rows(a, b, out, rows_a, cols, rows_b) },
        _ => scalar::gemm_tb_rows(a, b, out, rows_a, cols, rows_b),
    }
}

/// Per-step constants of one Adam update, shared by every element the step
/// touches: the optimizer computes the bias corrections once per step and
/// the kernel applies them element-wise.
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
/// g   = grad[i]
/// m[i] = β₁·m[i] + (1 − β₁)·g
/// v[i] = β₂·v[i] + (1 − β₂)·g·g
/// params[i] −= lr · (m[i] / bias1) / (√(v[i] / bias2) + ε)
/// target[i] = target[i]·(1 − α) + params[i]·α        (with a target only)
/// ```
///
/// Every arm produces **bit-identical** results: the AVX2 arm runs the
/// scalar arm's exact evaluation order and contracts no multiply-add into
/// an FMA, and the blend is `Matrix::blend`'s mul, mul, add
/// on the freshly stored parameter — so one call with a target equals a call
/// without one followed by `Matrix::blend` (property-tested). Its divisions
/// by `bias1` and `bias2`, constant for the whole call, run as one scalar
/// reciprocal per call and, per vector, a multiply and two FMA corrections
/// that return the IEEE quotient's bits (Markstein's theorem). A vector
/// with a nonzero lane outside `[2⁻⁹⁰⁰, 2⁹⁰⁰]` in magnitude, or a bias
/// correction outside `[2⁻⁵³, 1]`, divides instead. The update is bound by
/// its one division and one square root per element and by its nine
/// parameter streams, so the blend's loads and multiplies hide under them,
/// and a 512-bit arm would buy nothing: [`SimdLevel::Avx512`] runs the
/// `Avx2Fma` arm. A `bias1` that has rounded to exactly `1.0` is not
/// divided by (same bits, one quotient fewer; property-tested against the
/// always-dividing formula). Unrunnable level requests are clamped down as
/// in [`gemm_rows_with`].
///
/// # Panics
/// Panics if `grads`, `m`, `v` or the target disagree with `params` in
/// length.
// capes-check: allow(dead-pub) -- the level-explicit kernel of tests/simd_properties.rs
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
        // SAFETY: `runnable` confirmed the CPU (the kernel needs AVX2+FMA;
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
/// sequence eight lanes at a time, two vectors per iteration so their
/// polynomial chains overlap.
///
/// # Panics
/// Panics if `src` and `dst` disagree in length.
// capes-check: allow(dead-pub) -- the level-explicit kernel of tests/simd_properties.rs
pub fn tanh_forward_with(level: SimdLevel, src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "tanh_forward: length mismatch");
    match runnable(level) {
        // SAFETY: `runnable` confirmed the CPU; lengths were asserted.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { avx2::tanh_forward(src, dst) },
        // SAFETY: as above, and `runnable` confirmed `avx512f`.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { avx512::tanh_forward(src, dst) },
        _ => tanh_forward_scalar(src, dst),
    }
}

/// Auto-dispatching [`tanh_forward_with`] at [`active_level`] — what the
/// `capes-nn` Tanh activation calls.
pub fn tanh_forward(src: &[f64], dst: &mut [f64]) {
    tanh_forward_with(active_level(), src, dst);
}

/// Element-wise `tanh` backward pass: `grads[i] *= 1 − output[i]²` (the
/// derivative expressed in terms of the forward output).
///
/// One portable loop serves every level: on the DQN's 32 × 600 layers a
/// 4-lane arm saved at most ~2 µs a call. Each element is an individually
/// rounded mul, sub, mul, so the result does not depend on the CPU.
///
/// # Panics
/// Panics if `output` and `grads` disagree in length.
pub fn tanh_backward(output: &[f64], grads: &mut [f64]) {
    assert_eq!(output.len(), grads.len(), "tanh_backward: length mismatch");
    for (g, &y) in grads.iter_mut().zip(output) {
        *g *= 1.0 - y * y;
    }
}

/// Fused Bellman-target kernel — what the `capes-drl` trainer calls:
///
/// ```text
/// out[i] = rewards[i] + discount · max_j next_q[i · cols + j]
/// ```
///
/// The row maximum uses the strict `v > m` update (first element wins ties;
/// a `NaN` never displaces the running maximum, and a leading `NaN` poisons
/// the row), and the target is mul-then-add, no FMA. One portable loop
/// serves every level: on a 32-row minibatch a 4-row vector arm was no
/// faster.
///
/// # Panics
/// Panics if `cols` is zero, `next_q` is not `rewards.len() · cols` long, or
/// `out` disagrees with `rewards` in length.
pub fn bellman_targets(
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
    for (o, (&reward, row)) in out
        .iter_mut()
        .zip(rewards.iter().zip(next_q.chunks_exact(cols)))
    {
        let mut m = row[0];
        for &v in &row[1..] {
            if v > m {
                m = v;
            }
        }
        *o = reward + discount * m;
    }
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
    use capes_telemetry::{names, LazySpan};
    static AVX512: LazySpan = LazySpan::new(names::SPAN_GEMM_KERNEL_AVX512);
    static AVX2: LazySpan = LazySpan::new(names::SPAN_GEMM_KERNEL_AVX2);
    static SCALAR: LazySpan = LazySpan::new(names::SPAN_GEMM_KERNEL_SCALAR);
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
// Scalar arm — the vector arms' FMA chains, one element at a time.
// ---------------------------------------------------------------------------

/// `out += a · b`: each output element is one in-order `mul_add` chain over
/// the reduction index, seeded from `out` — the chain every vector tile runs,
/// whatever its k-panel and tile boundaries. The `i → k → j` order sweeps
/// each `b` row contiguously; every subslice carries its exact length, so
/// the inner loop compiles without bounds checks.
#[inline(always)]
fn gemm_rows_chain(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    rows_a: usize,
    cols_a: usize,
    cols_b: usize,
) {
    for i in 0..rows_a {
        let a_row = &a[i * cols_a..][..cols_a];
        let out_row = &mut out[i * cols_b..][..cols_b];
        for (k, &v) in a_row.iter().enumerate() {
            let b_row = &b[k * cols_b..][..cols_b];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o = v.mul_add(bv, *o);
            }
        }
    }
}

/// `out = (aᵀ · b)[i_start..i_end]`: [`gemm_rows_chain`]'s chain over the
/// rows of `a`, each seeded from `+0.0` like the vector arms' overwriting
/// tiles.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gemm_ta_rows_chain(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    i_start: usize,
    i_end: usize,
    n: usize,
    m: usize,
    p: usize,
) {
    out.fill(0.0);
    for i in i_start..i_end {
        let out_row = &mut out[(i - i_start) * p..][..p];
        for r in 0..n {
            let v = a[r * m + i];
            let b_row = &b[r * p..][..p];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o = v.mul_add(bv, *o);
            }
        }
    }
}

/// One k-panel segment dot in the vector arms' order: four lane chains
/// `c_q = x.mul_add(y, c_q)` from `0.0`, joined `(c0 + c2) + (c1 + c3)`,
/// then the `len % 4` tail folded in with `mul_add` — `avx2::dot`.
#[inline(always)]
fn dot4(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut c = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for ((lane, &x), &y) in c.iter_mut().zip(xa).zip(xb) {
            *lane = x.mul_add(y, *lane);
        }
    }
    let mut sum = (c[0] + c[2]) + (c[1] + c[3]);
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        sum = x.mul_add(y, sum);
    }
    sum
}

/// `out = a · bᵀ`: every [`BLOCK`]-step k-panel's [`dot4`] is added onto
/// `out` in panel order, as in the vector arms. Blocked over `b`'s rows as
/// well, so each [`BLOCK`] × [`BLOCK`] panel of `b` (~32 KiB) is reused
/// across every row of `a`; that blocking does not touch any element's
/// chain.
#[inline(always)]
fn gemm_tb_rows_chain(
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

/// The scalar GEMM entries. Without the `fma` target feature `f64::mul_add`
/// is a libm call per multiply-add, which made the `CAPES_SIMD=off` test
/// suite more than 2.4× slower on a 2-vCPU AVX-512 Xeon, so on x86-64 each
/// kernel is compiled a second time with the feature and picked when the
/// CPU has FMA. `fma` is correctly rounded either way, so both copies
/// compute the same bits.
mod scalar {
    /// Defines the entry `$name`, which runs `$kernel` as the FMA copy when
    /// the CPU has FMA and as the portable copy otherwise.
    macro_rules! fma_dispatch {
        ($name:ident => $kernel:ident($($arg:ident: $ty:ty),*)) => {
            #[allow(clippy::too_many_arguments)]
            pub(super) fn $name($($arg: $ty),*) {
                #[cfg(target_arch = "x86_64")]
                if std::is_x86_feature_detected!("fma") {
                    /// The kernel compiled with hardware FMA.
                    ///
                    /// # Safety
                    /// The CPU must support FMA.
                    #[allow(clippy::too_many_arguments)]
                    #[target_feature(enable = "fma")]
                    unsafe fn with_fma($($arg: $ty),*) {
                        super::$kernel($($arg),*)
                    }
                    // SAFETY: the CPU supports FMA (probed just above).
                    return unsafe { with_fma($($arg),*) };
                }
                super::$kernel($($arg),*)
            }
        };
    }

    fma_dispatch!(gemm_rows => gemm_rows_chain(
        a: &[f64], b: &[f64], out: &mut [f64], rows_a: usize, cols_a: usize, cols_b: usize
    ));
    fma_dispatch!(gemm_ta_rows => gemm_ta_rows_chain(
        a: &[f64], b: &[f64], out: &mut [f64], i_start: usize, i_end: usize, n: usize, m: usize,
        p: usize
    ));
    fma_dispatch!(gemm_tb_rows => gemm_tb_rows_chain(
        a: &[f64], b: &[f64], out: &mut [f64], rows_a: usize, cols: usize, rows_b: usize
    ));
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
    for (i, (((p, &g), m_e), v_e)) in params
        .iter_mut()
        .zip(grads)
        .zip(m.iter_mut())
        .zip(v.iter_mut())
        .enumerate()
    {
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
// AVX2 and AVX-512 arms execute the exact same sequence 4 and 8 lanes at a
// time — that is what makes the levels bit-identical. |x| ≥ 20 saturates:
// 2/(e^{40}+1) is below half an ulp of 1.0, so the subtraction rounds to
// exactly 1.0.

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
// capes-check: allow(dead-pub) -- the scalar reference of tests/simd_properties.rs and capes-nn's unit tests
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
    /// differ only in how the broadcast operand walks `a`. Row `q` of the
    /// panel's `b` starts at `b.add(q * b_stride)`.
    ///
    /// The microkernels' `OVERWRITE` const parameter says where each chain
    /// starts: from `out` (the `+=` above), or from a `+0.0` register, so
    /// that `out[t][j] = Σ …` without `out` ever being read. Everything else
    /// about a microkernel is the same either way.
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
        /// The rectangle must lie inside `self`.
        pub(super) unsafe fn sub(self, t0: usize, rows: usize, j0: usize, cols: usize) -> Panel {
            debug_assert!(t0 + rows <= self.rows && j0 + cols <= self.cols);
            // SAFETY: the caller upholds this function's `# Safety` contract.
            unsafe {
                Panel {
                    a: self.a.add(t0 * self.a_row_stride),
                    b: self.b.add(j0),
                    out: self.out.add(t0 * self.cols_out + j0),
                    rows,
                    cols,
                    ..self
                }
            }
        }
    }

    /// The 256-bit microkernel over one [`Panel`].
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
    /// # Safety
    /// The CPU must support AVX2+FMA, and every `a`/`b`/`out` index reachable
    /// from the panel's dimensions must be in bounds of the allocations the
    /// pointers came from.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn panel<const OVERWRITE: bool>(p: Panel) {
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
            // The `w = cols % 8` remainder columns, from `full` on.
            let full = cols / 8 * 8;
            let w = cols - full;
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
                    let mut acc00 = seed::<OVERWRITE>(o0.add(j));
                    let mut acc01 = seed::<OVERWRITE>(o0.add(j + 4));
                    let mut acc10 = seed::<OVERWRITE>(o1.add(j));
                    let mut acc11 = seed::<OVERWRITE>(o1.add(j + 4));
                    let mut acc20 = seed::<OVERWRITE>(o2.add(j));
                    let mut acc21 = seed::<OVERWRITE>(o2.add(j + 4));
                    let mut acc30 = seed::<OVERWRITE>(o3.add(j));
                    let mut acc31 = seed::<OVERWRITE>(o3.add(j + 4));
                    let mut bp = b.add(j);
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
                        bp = bp.add(b_stride);
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
                    for (a_row, o_row) in [(a0, o0), (a1, o1), (a2, o2), (a3, o3)] {
                        let o_tail = o_row.add(full);
                        row_tail::<OVERWRITE>(
                            a_row,
                            a_step,
                            b.add(full),
                            b_stride,
                            o_tail,
                            w,
                            steps,
                        );
                    }
                }
                t += 4;
            }
            while t < rows {
                let a_row = a.add(t * a_row_stride);
                let o_row = out.add(t * cols_out);
                // A remainder row sweeps each b-row contiguously
                // (broadcast-sweep like the scalar kernel) instead of
                // walking b_stride-strided column strips: a lone row — the
                // 1-row inference forward pass — has no register reuse to
                // win, and the strided walk defeats the hardware prefetcher
                // on large matrices. The per-element FMA chain is the same
                // step-ordered sequence either way, so results stay
                // bit-identical to the tiled path regardless of where row
                // chunking lands. An overwriting sweep zeroes its row
                // first: every chain then starts from `+0.0`, as in the
                // tiles.
                if OVERWRITE {
                    o_row.write_bytes(0, cols);
                }
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
                t += 1;
            }
        }
    }

    /// A 4-lane accumulator's starting value: the `out` lanes at `out`, or
    /// `+0.0` when the microkernel overwrites (`out` is then not read).
    ///
    /// # Safety
    /// The CPU must support AVX; without `OVERWRITE`, `out` must be valid
    /// for four reads.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn seed<const OVERWRITE: bool>(out: *const f64) -> __m256d {
        if OVERWRITE {
            _mm256_setzero_pd()
        } else {
            // SAFETY: the caller upholds this function's `# Safety` contract.
            unsafe { _mm256_loadu_pd(out) }
        }
    }

    /// The `cols < 8` remainder columns of one output row, `b` rows
    /// `b_stride` apart: a 4-wide vector lane while one fits, then
    /// scalar-FMA lanes, each seeded as [`panel`]'s `OVERWRITE` says.
    ///
    /// # Safety
    /// As in [`panel`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn row_tail<const OVERWRITE: bool>(
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
                let mut acc = seed::<OVERWRITE>(out_row.add(j));
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
                let mut acc = if OVERWRITE { 0.0 } else { *out_row.add(j) };
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
    unsafe fn run_panel<const OVERWRITE: bool>(wide: bool, p: Panel) {
        // SAFETY: the caller upholds this function's `# Safety` contract.
        unsafe {
            if wide {
                super::avx512::panel::<OVERWRITE>(p)
            } else {
                panel::<OVERWRITE>(p)
            }
        }
    }

    /// Vector arm of [`super::gemm_rows_with`]: the scalar kernel's
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
            run_panel::<true>(
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
    pub(super) unsafe fn dot(a: *const f64, b: *const f64, len: usize) -> f64 {
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
        out.fill(0.0);
        let (a_ptr, b_ptr, out_ptr) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        for kk in (0..cols).step_by(BLOCK) {
            // SAFETY: the caller upholds this function's `# Safety`
            // contract, and `kk < cols`.
            unsafe { tb_panel(a_ptr, b_ptr, out_ptr, 0, rows_a, cols, rows_b, kk) };
        }
    }

    /// The k-panel `kk..kk + BLOCK` of [`gemm_tb_rows`] for the a-rows
    /// `i0..rows_a`: each panel sum is added onto `out`. `a`, `b` and `out`
    /// are the whole operands (`rows_a × cols`, `rows_b × cols`,
    /// `rows_a × rows_b`).
    ///
    /// # Safety
    /// As in [`gemm_rows`], with `i0 <= rows_a` and `kk < cols`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn tb_panel(
        a_ptr: *const f64,
        b_ptr: *const f64,
        out_ptr: *mut f64,
        i0: usize,
        rows_a: usize,
        cols: usize,
        rows_b: usize,
        kk: usize,
    ) {
        // SAFETY: the caller upholds this function's `# Safety` contract.
        unsafe {
            let seg = (kk + BLOCK).min(cols) - kk;
            for jj in (0..rows_b).step_by(BLOCK) {
                let j_end = (jj + BLOCK).min(rows_b);
                let mut i = i0;
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

    /// A per-step constant divisor of the Adam bias corrections, broadcast,
    /// with its reciprocal, for [`div_by_step_constant`].
    #[derive(Clone, Copy)]
    struct StepDivisor {
        b: __m256d,
        /// `RN(1/b)`: one IEEE division per call.
        y: __m256d,
        /// `b ∈ [2⁻⁵³, 1]`, the range [`div_by_step_constant`]'s proof covers.
        exact: bool,
    }

    impl StepDivisor {
        /// Broadcasts `b` and `RN(1/b)` and checks `b`'s range.
        ///
        /// # Safety
        /// The CPU must support AVX2.
        #[target_feature(enable = "avx2")]
        unsafe fn new(b: f64) -> Self {
            StepDivisor {
                b: _mm256_set1_pd(b),
                y: _mm256_set1_pd(1.0 / b),
                exact: (f64::EPSILON / 2.0..=1.0).contains(&b),
            }
        }
    }

    /// `2⁻⁹⁰⁰` and `2⁹⁰⁰`: the nonzero dividends [`div_by_step_constant`]
    /// takes off the divider lie between them in magnitude.
    const STEP_DIVIDEND_MIN: f64 = f64::from_bits((1023 - 900) << 52);
    const STEP_DIVIDEND_MAX: f64 = f64::from_bits((1023 + 900) << 52);

    /// `x / b` for a bias correction `b = 1 − βᵗ`, constant for the whole
    /// step, with the bits of `_mm256_div_pd` but no divider: with
    /// `y = RN(1/b)`,
    ///
    /// ```text
    /// q₀ = RN(x·y)
    /// q₁ = RN(q₀ − RN(b·q₀ − x)·y)      (fmsub, then fnmadd)
    /// q₂ = RN(q₁ − RN(b·q₁ − x)·y)
    /// ```
    ///
    /// `y` and `q₀` carry one rounding each, so `q₀ = (x/b)(1 + δ)` with
    /// `|δ| ≤ 2⁻⁵² + 2⁻¹⁰⁶`; the first correction cancels `δ` up to the
    /// roundings of the residual and of `y`, leaving `≈ 2⁻¹⁰⁴·|x/b|` before
    /// its own rounding, so `q₁` is within one ulp of `x/b`. Markstein's
    /// theorem (IBM J. Res. Dev. 34(1), 1990; Muller et al., *Handbook of
    /// Floating-Point Arithmetic*, Newton–Raphson-based division with an
    /// FMA): if `y` is within half an ulp of `1/b` and `q` within one ulp of
    /// `x/b`, the residual `r = x − b·q` is exact in one FMA and
    /// `RN(q + r·y)` is `RN(x/b)`, provided nothing overflows or underflows.
    /// So `q₂` is the IEEE quotient, bit for bit. The sequence carries the
    /// residual negated (`b·q − x`, subtracted): round-to-nearest is
    /// symmetric, so every nonzero lane gets the same values, and a `±0`
    /// lane keeps its sign (`b·(±0) − (±0)` is `+0` and `±0 − (+0)·y` is
    /// `±0`, where `x − b·q` would turn `−0` into `+0`).
    ///
    /// The guard keeps the theorem's conditions true. `b ∈ [2⁻⁵³, 1]`
    /// (every `1 − βᵗ` with `β ∈ [0, 1)`; checked once per call as
    /// [`StepDivisor::exact`]) and every nonzero lane's
    /// `2⁻⁹⁰⁰ ≤ |x| ≤ 2⁹⁰⁰` put the quotients and `x·y` in
    /// `[2⁻⁹⁰⁰, 2⁹⁵⁴)`, far from overflow, and the exact residual, a
    /// multiple of `ulp(b)·ulp(q) ≥ 2^(e_x − 105)`, is normal whenever it is
    /// not zero. A vector with any other lane — NaN, ±∞, subnormal, tiny or
    /// huge — or a `b` outside the range divides, so those keep
    /// `_mm256_div_pd`'s bits, NaN payloads included.
    ///
    /// # Safety
    /// The CPU must support AVX2+FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn div_by_step_constant(x: __m256d, d: StepDivisor) -> __m256d {
        let abs = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
        // NaN compares unordered: outside, and nonzero.
        let outside = _mm256_or_pd(
            _mm256_cmp_pd::<_CMP_NGE_UQ>(abs, _mm256_set1_pd(STEP_DIVIDEND_MIN)),
            _mm256_cmp_pd::<_CMP_GT_OQ>(abs, _mm256_set1_pd(STEP_DIVIDEND_MAX)),
        );
        let nonzero = _mm256_cmp_pd::<_CMP_NEQ_UQ>(abs, _mm256_setzero_pd());
        if !d.exact || _mm256_testz_pd(outside, nonzero) == 0 {
            return _mm256_div_pd(x, d.b);
        }
        let q0 = _mm256_mul_pd(x, d.y);
        let q1 = _mm256_fnmadd_pd(_mm256_fmsub_pd(d.b, q0, x), d.y, q0);
        _mm256_fnmadd_pd(_mm256_fmsub_pd(d.b, q1, x), d.y, q1)
    }

    /// AVX2 arm of [`super::adam_update_with`]: 4-wide lanes over the
    /// element-wise update, remainder handed to the scalar arm.
    ///
    /// Every element lands on the bits the scalar arm produces. The two
    /// bias corrections go through [`div_by_step_constant`], which returns
    /// the IEEE quotient's bits from one reciprocal per call and FMA
    /// corrections. Everything else is FMA-free: mul, add, div, sqrt and sub
    /// are each correctly rounded (IEEE 754), and the lane sequence is the
    /// scalar arm's evaluation order operation for operation — `(1 − β)·g`
    /// products first, then the add; `(lr·m̂)` before the divide; under
    /// `BLEND` the two blend products before their add. Contracting any of
    /// those into an FMA would save one rounding and break that equality.
    /// The one division left per element, by `√v̂ + ε`, has a divisor that
    /// changes per element. `DIV1` as in the scalar arm.
    ///
    /// # Safety
    /// The CPU must support AVX2+FMA; the four slices — and `target` under
    /// `BLEND` — must be equal-length (asserted by the caller).
    #[target_feature(enable = "avx2", enable = "fma")]
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
            let bias1 = StepDivisor::new(s.bias1);
            let bias2 = StepDivisor::new(s.bias2);
            let lr = _mm256_set1_pd(s.learning_rate);
            let eps = _mm256_set1_pd(s.epsilon);
            let keep = _mm256_set1_pd(1.0 - alpha);
            let take = _mm256_set1_pd(alpha);
            let p_ptr = params.as_mut_ptr();
            let g_ptr = grads.as_ptr();
            let m_ptr = m.as_mut_ptr();
            let v_ptr = v.as_mut_ptr();
            let t_ptr = target.as_mut_ptr();
            let mut i = 0usize;
            while i + 4 <= n {
                let g = _mm256_loadu_pd(g_ptr.add(i));
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
                let m_hat = if DIV1 {
                    div_by_step_constant(mv, bias1)
                } else {
                    mv
                };
                let v_hat = div_by_step_constant(vv, bias2);
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
            let mut s0 = hsum4(acc00, acc01, acc02, acc03);
            let mut s1 = hsum4(acc10, acc11, acc12, acc13);
            while i < len {
                // Lane q: the scalar tail's `fmadd(x, b_q[i], s)`.
                let bv = _mm256_set_pd(*b3.add(i), *b2.add(i), *b1.add(i), *b0.add(i));
                s0 = _mm256_fmadd_pd(_mm256_set1_pd(*a0.add(i)), bv, s0);
                s1 = _mm256_fmadd_pd(_mm256_set1_pd(*a1.add(i)), bv, s1);
                i += 1;
            }
            _mm256_storeu_pd(o0, _mm256_add_pd(_mm256_loadu_pd(o0), s0));
            _mm256_storeu_pd(o1, _mm256_add_pd(_mm256_loadu_pd(o1), s1));
        }
    }

    /// [`hsum`] of four accumulators at once, as `[s(a), s(b), s(c), s(d)]`:
    /// the same `(l0 + l2) + (l1 + l3)` per accumulator, each add's first
    /// operand the lower lane. Eight scalar [`hsum`]s in a row get fused by
    /// the compiler into `vhaddpd`, which kept the `(l1 + l3)` NaN where
    /// [`dot`] keeps the `(l0 + l2)` one when both are NaN; spelling the
    /// reduction out keeps every `a · bᵀ` path on one NaN payload.
    ///
    /// # Safety
    /// CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn hsum4(a: __m256d, b: __m256d, c: __m256d, d: __m256d) -> __m256d {
        // [a: l0 + l2, l1 + l3 | c: l0 + l2, l1 + l3], and likewise b/d.
        let ac = _mm256_add_pd(
            _mm256_permute2f128_pd::<0x20>(a, c),
            _mm256_permute2f128_pd::<0x31>(a, c),
        );
        let bd = _mm256_add_pd(
            _mm256_permute2f128_pd::<0x20>(b, d),
            _mm256_permute2f128_pd::<0x31>(b, d),
        );
        _mm256_add_pd(_mm256_unpacklo_pd(ac, bd), _mm256_unpackhi_pd(ac, bd))
    }
}

// ---------------------------------------------------------------------------
// AVX-512 arm — the shared GEMM panel, `a · bᵀ` and the tanh forward pass.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::avx2::{self, Panel};
    use super::BLOCK;
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
    const A_RESIDENT_ELEMS: usize = 4096;

    /// The 512-bit microkernel over one [`Panel`]: 8 output rows × 24
    /// columns per tile, so each `b` fragment loaded is reused across eight
    /// rows (half the L2 traffic per FMA of the 4 × 8 `ymm` tile) at twice
    /// the lane width.
    ///
    /// Every accumulator lane is seeded as `OVERWRITE` says (from `out`, or
    /// `+0.0`) and runs the same step-ordered `fmadd` chain as the 256-bit
    /// tiles — lane width is invisible to an element's chain — so the result
    /// is **bit-identical** to [`avx2::panel`]. That also makes the seams
    /// free: the `rows % 8` bottom rows and `cols % 24` right-hand columns
    /// (and every panel smaller than one tile) are handed to the 256-bit
    /// microkernel as sub-panels.
    ///
    /// # Safety
    /// As in [`avx2::panel`]; the CPU must additionally support `avx512f`.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub(super) unsafe fn panel<const OVERWRITE: bool>(p: Panel) {
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
        // both sub-panels lie inside the panel.
        unsafe {
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
                if !OVERWRITE {
                    for (r, row) in acc.iter_mut().enumerate() {
                        for (c, lane) in row.iter_mut().enumerate() {
                            *lane = _mm512_loadu_pd(o_t.add(r * cols_out + 8 * c));
                        }
                    }
                }
                let mut bp = b.add(j);
                let mut ap = a.add(t * a_row_stride);
                for _ in 0..steps {
                    let bv = [
                        _mm512_loadu_pd(bp),
                        _mm512_loadu_pd(bp.add(8)),
                        _mm512_loadu_pd(bp.add(16)),
                    ];
                    for (r, row) in acc.iter_mut().enumerate() {
                        let v = _mm512_set1_pd(*ap.add(r * a_row_stride));
                        for (lane, &frag) in row.iter_mut().zip(&bv) {
                            *lane = _mm512_fmadd_pd(v, frag, *lane);
                        }
                    }
                    // `b` arrives in `b_stride`-strided 192-byte pieces the
                    // hardware prefetcher cannot follow (the stride crosses
                    // a page per step), and the weights are far larger than
                    // L2: fetch this row's piece for the tile two to the
                    // right. The address is never dereferenced, so running
                    // past the row (or the allocation) is harmless.
                    let ahead = bp.wrapping_add(PREFETCH_TILES * TILE_COLS);
                    _mm_prefetch::<_MM_HINT_T0>(ahead as *const i8);
                    _mm_prefetch::<_MM_HINT_T0>(ahead.wrapping_add(8) as *const i8);
                    _mm_prefetch::<_MM_HINT_T0>(ahead.wrapping_add(16) as *const i8);
                    // Wrapping: after the last step these point past the
                    // operands (and are not read again).
                    bp = bp.wrapping_add(b_stride);
                    ap = ap.wrapping_add(a_step);
                }
                for (r, row) in acc.iter().enumerate() {
                    for (c, &lane) in row.iter().enumerate() {
                        _mm512_storeu_pd(o_t.add(r * cols_out + 8 * c), lane);
                    }
                }
            }
            if tiled_cols < cols {
                let right = p.sub(0, tiled_rows, tiled_cols, cols - tiled_cols);
                avx2::panel::<OVERWRITE>(right);
            }
            if tiled_rows < rows {
                let bottom = p.sub(tiled_rows, rows - tiled_rows, 0, cols);
                avx2::panel::<OVERWRITE>(bottom);
            }
        }
    }

    /// a-rows per 512-bit `a · bᵀ` tile: four pairs, each sharing a `zmm`.
    const TB_ROWS: usize = 8;
    /// b-rows per 512-bit `a · bᵀ` tile: 4 pairs × 4 b-rows = 16
    /// accumulators, plus four a-pair and four b vectors per step.
    const TB_COLS: usize = 4;

    /// 512-bit arm of [`super::gemm_tb_rows_with`], bit-identical to
    /// [`avx2::gemm_tb_rows`]: the same k-panels, and per output element the
    /// same chain — four lane accumulators from `+0.0` over the panel's
    /// 4-element steps, joined `(l0 + l2) + (l1 + l3)`, then added onto
    /// `out`.
    ///
    /// What widens is the tile. A `zmm` holds a-row `i`'s four lanes in
    /// lanes 0–3 and row `i + 1`'s in lanes 4–7; each b-row segment is
    /// broadcast to both halves. A tile is 8 a-rows × 4 b-rows, with the
    /// 8-row block of `a` packed pairwise into a 4 KiB stack buffer once per
    /// k-panel and row tile, then swept against every b-row. The seams run
    /// the 256-bit code on the same chain:
    /// [`avx2::dot`] for the `rows_b % 4` b-rows of a tiled block, and
    /// [`avx2::tb_panel`] for the `rows_a % 8` a-rows — and for a whole
    /// panel whose segment ends in a scalar-FMA tail, which only the last
    /// panel of a `cols % 4 ≠ 0` product has.
    ///
    /// # Safety
    /// As in [`avx2::gemm_tb_rows`]; the CPU must additionally support
    /// `avx512f`.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gemm_tb_rows(
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
        rows_a: usize,
        cols: usize,
        rows_b: usize,
    ) {
        out.fill(0.0);
        let mut pack = [0.0f64; TB_ROWS * BLOCK];
        let (a_ptr, b_ptr, out_ptr) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        let tiled_b_rows = rows_b / TB_COLS * TB_COLS;
        for kk in (0..cols).step_by(BLOCK) {
            let seg = (kk + BLOCK).min(cols) - kk;
            let tiled_rows = if seg.is_multiple_of(4) {
                rows_a / TB_ROWS * TB_ROWS
            } else {
                0
            };
            // SAFETY: the caller upholds this function's `# Safety`
            // contract; every row index stays below `rows_a`/`rows_b`, and
            // `pack` holds `TB_ROWS * seg` elements.
            unsafe {
                for i in (0..tiled_rows).step_by(TB_ROWS) {
                    let a_blk = a_ptr.add(i * cols + kk);
                    pack_pairs(a_blk, cols, seg, pack.as_mut_ptr());
                    let o_blk = out_ptr.add(i * rows_b);
                    for j in (0..tiled_b_rows).step_by(TB_COLS) {
                        let b_blk = b_ptr.add(j * cols + kk);
                        tb_tile(pack.as_ptr(), b_blk, cols, seg, o_blk.add(j), rows_b);
                    }
                    for j in tiled_b_rows..rows_b {
                        let bj = b_ptr.add(j * cols + kk);
                        for r in 0..TB_ROWS {
                            *o_blk.add(r * rows_b + j) += avx2::dot(a_blk.add(r * cols), bj, seg);
                        }
                    }
                }
                avx2::tb_panel(a_ptr, b_ptr, out_ptr, tiled_rows, rows_a, cols, rows_b, kk);
            }
        }
    }

    /// Copies the `TB_ROWS × seg` block at `a` (rows `stride` apart) into
    /// `dst` pairwise: for each 4-element step, four 8-element groups, group
    /// `p` holding rows `2p` and `2p + 1`'s step side by side — exactly the
    /// `zmm` [`tb_tile`] multiplies.
    ///
    /// # Safety
    /// The CPU must support AVX; `seg` must be a multiple of 4, `a` valid
    /// for the block's reads and `dst` for `TB_ROWS * seg` writes.
    #[target_feature(enable = "avx2")]
    unsafe fn pack_pairs(a: *const f64, stride: usize, seg: usize, dst: *mut f64) {
        // SAFETY: the caller upholds this function's `# Safety` contract.
        unsafe {
            let mut d = dst;
            for k in (0..seg).step_by(4) {
                for pair in 0..TB_ROWS / 2 {
                    let row = a.add(2 * pair * stride + k);
                    _mm256_storeu_pd(d, _mm256_loadu_pd(row));
                    _mm256_storeu_pd(d.add(4), _mm256_loadu_pd(row.add(stride)));
                    d = d.add(8);
                }
            }
        }
    }

    /// One 8 × 4 tile of [`gemm_tb_rows`]: the dots of the packed a-rows
    /// against the 4 b-rows at `b` (`b_stride` apart), over `seg` steps,
    /// added onto the 8 × 4 block at `out` (rows `out_stride` apart).
    ///
    /// # Safety
    /// As in [`pack_pairs`]; `pack` must hold a [`pack_pairs`] block of
    /// `seg` steps, `b` be valid for the four segments' reads and `out` for
    /// the block's reads and writes; the CPU must support `avx512f`.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    unsafe fn tb_tile(
        pack: *const f64,
        b: *const f64,
        b_stride: usize,
        seg: usize,
        out: *mut f64,
        out_stride: usize,
    ) {
        // SAFETY: the caller upholds this function's `# Safety` contract.
        unsafe {
            // acc[pair][q]: b-row q's four lanes for a-rows 2·pair and
            // 2·pair + 1.
            let mut acc = [[_mm512_setzero_pd(); TB_COLS]; TB_ROWS / 2];
            let mut ap = pack;
            for k in (0..seg).step_by(4) {
                let mut bv = [_mm512_setzero_pd(); TB_COLS];
                for (q, v) in bv.iter_mut().enumerate() {
                    *v = _mm512_broadcast_f64x4(_mm256_loadu_pd(b.add(q * b_stride + k)));
                }
                for (pair, row) in acc.iter_mut().enumerate() {
                    let av = _mm512_loadu_pd(ap.add(8 * pair));
                    for (lane, &bq) in row.iter_mut().zip(&bv) {
                        *lane = _mm512_fmadd_pd(av, bq, *lane);
                    }
                }
                ap = ap.add(4 * TB_ROWS);
            }
            for (pair, row) in acc.iter().enumerate() {
                let sums = hsum_pair(row);
                let o0 = out.add(2 * pair * out_stride);
                let o1 = o0.add(out_stride);
                let lo = _mm512_castpd512_pd256(sums);
                let hi = _mm512_extractf64x4_pd::<1>(sums);
                _mm256_storeu_pd(o0, _mm256_add_pd(_mm256_loadu_pd(o0), lo));
                _mm256_storeu_pd(o1, _mm256_add_pd(_mm256_loadu_pd(o1), hi));
            }
        }
    }

    /// The horizontal sums of four pair accumulators `acc[q]` (lanes 0–3:
    /// row `r`'s lanes `l0..l3` for b-row `q`; lanes 4–7: row `r + 1`'s), as
    /// `[s(r, 0..4), s(r + 1, 0..4)]` with `s = (l0 + l2) + (l1 + l3)` —
    /// [`avx2::dot`]'s order, each add's first operand the lower lane.
    ///
    /// # Safety
    /// The CPU must support `avx512f`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn hsum_pair(acc: &[__m512d; TB_COLS]) -> __m512d {
        // Lanes `l0 l1` / `l2 l3` of two accumulators, side by side per row
        // (indices 8.. pick from the second operand).
        let low = _mm512_set_epi64(13, 12, 5, 4, 9, 8, 1, 0);
        let high = _mm512_set_epi64(15, 14, 7, 6, 11, 10, 3, 2);
        let half = |x: __m512d, y: __m512d| {
            // [x: l0+l2, l1+l3 | y: …] for row r, then for row r + 1.
            _mm512_add_pd(
                _mm512_permutex2var_pd(x, low, y),
                _mm512_permutex2var_pd(x, high, y),
            )
        };
        let ac = half(acc[0], acc[2]);
        let bd = half(acc[1], acc[3]);
        // unpacklo: (l0 + l2) of b-rows 0, 1, 2, 3 per row; unpackhi: (l1 + l3).
        _mm512_add_pd(_mm512_unpacklo_pd(ac, bd), _mm512_unpackhi_pd(ac, bd))
    }

    /// Eight-lane `tanh`, [`avx2::tanh_pd`]'s operation sequence (and so
    /// [`super::tanh_value`]'s) with the floor as a round-down `roundscale`,
    /// and compares, blends and the NaN restore on mask registers.
    ///
    /// # Safety
    /// The CPU must support `avx512f`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn tanh_pd(x: __m512d) -> __m512d {
        let bits = _mm512_castpd_si512(x);
        let sign_bit = _mm512_set1_epi64(i64::MIN);
        let sign = _mm512_and_si512(bits, sign_bit);
        let a = _mm512_castsi512_pd(_mm512_andnot_si512(sign_bit, bits));

        // Rational branch: a + a·(s·(P(s)/Q(s))), s = a².
        let s = _mm512_mul_pd(a, a);
        let p = _mm512_add_pd(
            _mm512_mul_pd(
                _mm512_add_pd(
                    _mm512_mul_pd(_mm512_set1_pd(super::TANH_P0), s),
                    _mm512_set1_pd(super::TANH_P1),
                ),
                s,
            ),
            _mm512_set1_pd(super::TANH_P2),
        );
        let q = _mm512_add_pd(
            _mm512_mul_pd(
                _mm512_add_pd(
                    _mm512_mul_pd(_mm512_add_pd(s, _mm512_set1_pd(super::TANH_Q0)), s),
                    _mm512_set1_pd(super::TANH_Q1),
                ),
                s,
            ),
            _mm512_set1_pd(super::TANH_Q2),
        );
        let pq = _mm512_div_pd(p, q);
        let rational = _mm512_add_pd(a, _mm512_mul_pd(a, _mm512_mul_pd(s, pq)));

        // Exp branch: 1 − 2/(e^{2·min(a,20)} + 1); NaN lanes as in the
        // 256-bit arm, overwritten by the final blend.
        let ac = _mm512_min_pd(a, _mm512_set1_pd(20.0));
        let z = _mm512_add_pd(ac, ac);
        const FLOOR: i32 = _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC;
        let k = _mm512_roundscale_pd::<FLOOR>(_mm512_add_pd(
            _mm512_mul_pd(z, _mm512_set1_pd(super::EXP_LOG2E)),
            _mm512_set1_pd(0.5),
        ));
        let r = _mm512_sub_pd(
            _mm512_sub_pd(z, _mm512_mul_pd(k, _mm512_set1_pd(super::EXP_LN2_HI))),
            _mm512_mul_pd(k, _mm512_set1_pd(super::EXP_LN2_LO)),
        );
        let mut e = _mm512_set1_pd(super::EXP_C[13]);
        let mut j = 13;
        while j > 0 {
            j -= 1;
            e = _mm512_add_pd(_mm512_mul_pd(e, r), _mm512_set1_pd(super::EXP_C[j]));
        }
        let ik = _mm512_and_si512(
            _mm512_castpd_si512(_mm512_add_pd(k, _mm512_set1_pd(super::EXP_SHIFTER))),
            _mm512_set1_epi64(0x000F_FFFF_FFFF_FFFF),
        );
        let two_k = _mm512_castsi512_pd(_mm512_slli_epi64::<52>(_mm512_add_epi64(
            ik,
            _mm512_set1_epi64(1023),
        )));
        let ez = _mm512_mul_pd(e, two_k);
        let expo = _mm512_sub_pd(
            _mm512_set1_pd(1.0),
            _mm512_div_pd(_mm512_set1_pd(2.0), _mm512_add_pd(ez, _mm512_set1_pd(1.0))),
        );

        let lt = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(a, _mm512_set1_pd(0.625));
        let t = _mm512_mask_blend_pd(lt, expo, rational);
        let signed = _mm512_castsi512_pd(_mm512_or_si512(_mm512_castpd_si512(t), sign));
        let unord = _mm512_cmp_pd_mask::<_CMP_UNORD_Q>(x, x);
        _mm512_mask_blend_pd(unord, signed, x)
    }

    /// 512-bit arm of [`super::tanh_forward_with`]: two [`tanh_pd`] vectors
    /// per iteration, so their Horner chains overlap; the last `< 16`
    /// elements go to [`avx2::tanh_forward`], on the same sequence.
    ///
    /// # Safety
    /// The CPU must support `avx512f` and AVX2; slice lengths must match
    /// (asserted by the caller).
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub(super) unsafe fn tanh_forward(src: &[f64], dst: &mut [f64]) {
        let n = src.len();
        let lanes = n - n % 16;
        // SAFETY: the caller upholds this function's `# Safety` contract;
        // every vector ends at or before `lanes <= n`.
        unsafe {
            let s_ptr = src.as_ptr();
            let d_ptr = dst.as_mut_ptr();
            for i in (0..lanes).step_by(16) {
                let y0 = tanh_pd(_mm512_loadu_pd(s_ptr.add(i)));
                let y1 = tanh_pd(_mm512_loadu_pd(s_ptr.add(i + 8)));
                _mm512_storeu_pd(d_ptr.add(i), y0);
                _mm512_storeu_pd(d_ptr.add(i + 8), y1);
            }
            avx2::tanh_forward(&src[lanes..], &mut dst[lanes..]);
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
    fn gemm_rows_handles_degenerate_and_remainder_shapes() {
        // Shapes with no full 8-column tile (pure remainder), no remainder
        // (cols % 8 == 0), fewer rows than a tile and several k-panels:
        // every runnable level must agree bitwise with the scalar arm.
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
            let mut scalar = vec![0.1; m * n];
            gemm_rows_with(SimdLevel::Scalar, &a, &b, &mut scalar, m, k, n);
            for &level in runnable_levels() {
                let mut out = vec![0.1; m * n];
                gemm_rows_with(level, &a, &b, &mut out, m, k, n);
                for i in 0..m * n {
                    assert_eq!(
                        out[i].to_bits(),
                        scalar[i].to_bits(),
                        "{level} {m}x{k}x{n}: diverged from scalar at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn adam_update_applies_the_textbook_formula() {
        // One element, first step: hand-check the update.
        let (lr, b1, b2, eps) = (0.1, 0.9, 0.999, 1e-8);
        let step = AdamStep {
            learning_rate: lr,
            beta1: b1,
            beta2: b2,
            epsilon: eps,
            bias1: 1.0 - b1,
            bias2: 1.0 - b2,
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
    #[should_panic(expected = "adam_update: m length mismatch")]
    fn adam_update_rejects_mismatched_state() {
        let step = AdamStep {
            learning_rate: 0.1,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            bias1: 0.1,
            bias2: 1e-3,
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
    fn bellman_targets_takes_the_row_max() {
        // 3 rows × 4 cols with the max in a different column each row.
        let next_q = [
            9.0, 1.0, 2.0, 3.0, //
            1.0, 2.0, 8.0, 3.0, //
            1.0, 2.0, 3.0, 7.0,
        ];
        let rewards = [10.0, 20.0, 30.0];
        let mut out = [f64::NAN; 3];
        bellman_targets(&rewards, &next_q, 4, 0.5, &mut out);
        assert_eq!(out, [10.0 + 0.5 * 9.0, 20.0 + 0.5 * 8.0, 30.0 + 0.5 * 7.0]);
    }

    #[test]
    fn bellman_nan_candidates_never_win_and_a_nan_seed_sticks() {
        // A NaN candidate never displaces the running max; a NaN seed sticks.
        let next_q = [
            1.0,
            f64::NAN,
            2.0, //
            f64::NAN,
            5.0,
            6.0,
        ];
        let mut out = [0.0; 2];
        bellman_targets(&[0.0, 0.0], &next_q, 3, 1.0, &mut out);
        assert_eq!(out[0], 2.0);
        assert!(out[1].is_nan());
    }

    #[test]
    #[should_panic(expected = "bellman_targets: next_q shape mismatch")]
    fn bellman_rejects_bad_shapes() {
        let mut out = [0.0; 2];
        bellman_targets(&[0.0; 2], &[0.0; 5], 3, 0.9, &mut out);
    }
}
