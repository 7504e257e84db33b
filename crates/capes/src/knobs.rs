//! Central registry of every `CAPES_*` environment knob.
//!
//! `capes-check` (rule `env-registry`) requires each `CAPES_*` string
//! literal in non-test code to appear as a string literal in this module,
//! so the tuning surface the process reads from its environment is
//! documented in exactly one place. The examples' phase lengths are
//! constants in each example, not knobs.

/// SIMD kernel level. Unset, `auto` or `1/on/true`: the highest level
/// runtime detection finds (scalar < AVX2+FMA < AVX-512). `avx2` (or `fma`)
/// is a **cap**: at most the AVX2+FMA kernels, so a 512-bit host can pin the
/// 256-bit ones — still clamped to what the CPU supports. `0/off/false` (or
/// `scalar`) forces the scalar fallback; any other value does too, with a
/// one-time warning. It selects speed, never bits: every level computes the
/// same result.
pub const ENV_SIMD: &str = "CAPES_SIMD";

/// Worker-thread count for the GEMM worker pool. Unset or `0`: derived from
/// available parallelism.
pub const ENV_THREADS: &str = "CAPES_THREADS";

/// Shard-worker count for the fleet daemon's tick pool. Unset, `0` or
/// unparsable: 1, the sequential tick. `FleetBuilder::workers` overrides it.
pub const ENV_FLEET_THREADS: &str = "CAPES_FLEET_THREADS";

/// `1/on/true` runs the full-length experiment schedules instead of the CI
/// quick profile.
pub const ENV_FULL: &str = "CAPES_FULL";
