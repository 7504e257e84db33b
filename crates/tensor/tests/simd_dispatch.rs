//! Which arm does a level request actually run? One test, alone in its
//! process, so the global `gemm.kernel.*` histograms count only its calls.
//!
//! Guards the bug a third level made live: every "can this CPU run AVX2"
//! check used to be `detected_level() == Avx2Fma`, which is false on a
//! 512-bit host — where every kernel without a 512-bit arm would then have
//! silently run its **scalar** code.

use capes_tensor::simd::{
    detected_level, gemm_rows_with, gemm_ta_rows_with, gemm_tb_rows_with, SimdLevel,
};

/// Recorded calls per level, indexed like [`SimdLevel::ALL`].
fn kernel_counts() -> [u64; 3] {
    [
        "gemm.kernel.scalar",
        "gemm.kernel.avx2",
        "gemm.kernel.avx512",
    ]
    .map(|name| capes_telemetry::global().histogram(name).count())
}

#[test]
fn every_level_request_dispatches_the_arm_it_names() {
    // Square operands, so one pair serves all three products.
    const S: usize = 40;
    let a: Vec<f64> = (0..S * S).map(|i| (i as f64 * 0.37).sin()).collect();
    let b: Vec<f64> = (0..S * S).map(|i| (i as f64 * 0.11).cos()).collect();
    type Kernel = fn(SimdLevel, &[f64], &[f64], &mut [f64]);
    let kernels: [(&str, Kernel); 3] = [
        ("gemm_rows", |l, a, b, o| {
            gemm_rows_with(l, a, b, o, S, S, S)
        }),
        ("gemm_ta_rows", |l, a, b, o| {
            gemm_ta_rows_with(l, a, b, o, 0, S, S, S, S)
        }),
        ("gemm_tb_rows", |l, a, b, o| {
            gemm_tb_rows_with(l, a, b, o, S, S, S)
        }),
    ];
    let mut tb_by_level = Vec::new();
    for &requested in &SimdLevel::ALL {
        // A request above the CPU clamps down to the highest runnable level.
        let expected = requested.min(detected_level());
        let mut out = vec![0.0; S * S];
        for (name, kernel) in kernels {
            let before = kernel_counts();
            kernel(requested, &a, &b, &mut out);
            let after = kernel_counts();
            for (level, (&was, &is)) in SimdLevel::ALL.iter().zip(before.iter().zip(&after)) {
                assert_eq!(
                    is - was,
                    u64::from(*level == expected),
                    "{name} at {requested} (expected arm {expected}): gemm.kernel count of {level}"
                );
            }
        }
        // `gemm_tb_rows` ran last and overwrites `out`.
        tb_by_level.push(out);
    }

    // Every arm runs the same per-element chain of the a · bᵀ kernel, so
    // every request lands on the same bits; the counts above say which arm
    // produced them.
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&tb_by_level[1]), bits(&tb_by_level[0]));
    assert_eq!(bits(&tb_by_level[2]), bits(&tb_by_level[0]));
}
