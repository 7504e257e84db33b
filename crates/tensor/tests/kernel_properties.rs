//! Property tests: every `_into` kernel and the fused affine path must match
//! the naive reference within 1e-9 across random shapes.

use capes_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(seed: u64, r: usize, c: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_vec(r, c, (0..r * c).map(|_| rng.gen_range(-2.0..2.0)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_into_matches_naive(
        (m, k, n) in (1usize..40, 1usize..70, 1usize..40),
        seed in any::<u64>(),
    ) {
        let a = random_matrix(seed, m, k);
        let b = random_matrix(seed.wrapping_add(1), k, n);
        let reference = a.matmul_naive(&b);
        let mut out = Matrix::filled(m, n, f64::NAN);
        a.matmul_into(&b, &mut out);
        prop_assert!(out.approx_eq(&reference, 1e-9), "{m}x{k}x{n}");
    }

    #[test]
    fn affine_into_matches_naive_matmul_plus_broadcast(
        (m, k, n) in (1usize..40, 1usize..70, 1usize..40),
        seed in any::<u64>(),
    ) {
        let x = random_matrix(seed, m, k);
        let w = random_matrix(seed.wrapping_add(1), k, n);
        let bias = random_matrix(seed.wrapping_add(2), 1, n);
        let mut out = Matrix::filled(m, n, f64::NAN);
        x.affine_into(&w, &bias, &mut out);
        let broadcast = Matrix::from_vec(m, n, bias.as_slice().repeat(m));
        let reference = x.matmul_naive(&w).zip_map(&broadcast, |a, b| a + b);
        prop_assert!(out.approx_eq(&reference, 1e-9), "affine {m}x{k}x{n}");
    }

    #[test]
    fn transpose_b_into_matches_explicit_transpose(
        (m, k, n) in (1usize..40, 1usize..70, 1usize..40),
        seed in any::<u64>(),
    ) {
        let a = random_matrix(seed, m, k);
        let b = random_matrix(seed.wrapping_add(1), n, k);
        let mut out = Matrix::filled(m, n, f64::NAN);
        a.matmul_transpose_b_into(&b, &mut out);
        let reference = a.matmul_naive(&b.transpose());
        prop_assert!(out.approx_eq(&reference, 1e-9), "tb {m}x{k}x{n}");
    }

    #[test]
    fn k_blocked_transpose_b_matches_naive_across_block_boundaries(
        (m, k, n) in (1usize..12, 1usize..300, 1usize..12),
        seed in any::<u64>(),
    ) {
        // The k-blocked kernel sweeps the reduction dimension in 64-wide
        // panels; `k` up to 300 exercises 1–5 panels including ragged tails,
        // so every accumulate-across-panels path is compared against the
        // naive reference.
        let a = random_matrix(seed, m, k);
        let b = random_matrix(seed.wrapping_add(1), n, k);
        let mut out = Matrix::filled(m, n, f64::NAN);
        a.matmul_transpose_b_into(&b, &mut out);
        let reference = a.matmul_naive(&b.transpose());
        prop_assert!(out.approx_eq(&reference, 1e-9), "blocked tb {m}x{k}x{n}");
    }

    #[test]
    fn transpose_a_into_matches_explicit_transpose(
        (m, k, n) in (1usize..40, 1usize..70, 1usize..40),
        seed in any::<u64>(),
    ) {
        let a = random_matrix(seed, k, m);
        let b = random_matrix(seed.wrapping_add(1), k, n);
        let mut out = Matrix::filled(m, n, f64::NAN);
        a.matmul_transpose_a_into(&b, &mut out);
        let reference = a.transpose().matmul_naive(&b);
        prop_assert!(out.approx_eq(&reference, 1e-9), "ta {m}x{k}x{n}");
    }

    #[test]
    fn sum_rows_into_matches_a_per_column_loop(
        (m, n) in (1usize..30, 1usize..30),
        seed in any::<u64>(),
    ) {
        let a = random_matrix(seed, m, n);
        let mut out = Matrix::filled(1, n, f64::NAN);
        a.sum_rows_into(&mut out);
        for c in 0..n {
            let mut expected = 0.0;
            for r in 0..m {
                expected += a.get(r, c);
            }
            prop_assert_eq!(out.get(0, c), expected, "column {c}");
        }
    }
}
