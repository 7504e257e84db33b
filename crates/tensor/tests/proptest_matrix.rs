//! Property-based tests for the matrix algebra kernels.

use capes_persist::{Persist, Reader, Writer};
use capes_tensor::Matrix;
use proptest::prelude::*;

/// Strategy producing a matrix of the given shape with bounded entries.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-100.0f64..100.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// `a · b` through the dispatching kernel.
fn product(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    a.matmul_into(b, &mut out);
    out
}

/// Strategy producing (m, k, n) matmul-compatible shapes.
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..12, 1usize..12, 1usize..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scale_distributes_over_sub(m in matrix(4, 3), n in matrix(4, 3), k in -10.0f64..10.0) {
        let lhs = m.sub(&n).scale(k);
        let rhs = m.scale(k).sub(&n.scale(k));
        prop_assert!(lhs.approx_eq(&rhs, 1e-7));
    }

    #[test]
    fn transpose_is_involution(m in matrix(5, 7)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_agrees_with_naive((m, k, n) in dims(), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_vec(m, k, (0..m*k).map(|_| rng.gen_range(-5.0..5.0)).collect());
        let b = Matrix::from_vec(k, n, (0..k*n).map(|_| rng.gen_range(-5.0..5.0)).collect());
        prop_assert!(a.matmul_naive(&b).approx_eq(&product(&a, &b), 1e-8));
    }

    #[test]
    fn matmul_transpose_identities((m, k, n) in dims(), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_vec(m, k, (0..m*k).map(|_| rng.gen_range(-5.0..5.0)).collect());
        let b = Matrix::from_vec(n, k, (0..k*n).map(|_| rng.gen_range(-5.0..5.0)).collect());
        // a · bᵀ computed directly vs. explicitly.
        let mut direct = Matrix::zeros(m, n);
        a.matmul_transpose_b_into(&b, &mut direct);
        let explicit = a.matmul_naive(&b.transpose());
        prop_assert!(direct.approx_eq(&explicit, 1e-8));
    }

    #[test]
    fn matmul_transpose_a_identity((m, k, n) in dims(), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_vec(k, m, (0..m*k).map(|_| rng.gen_range(-5.0..5.0)).collect());
        let b = Matrix::from_vec(k, n, (0..k*n).map(|_| rng.gen_range(-5.0..5.0)).collect());
        let mut direct = Matrix::zeros(m, n);
        a.matmul_transpose_a_into(&b, &mut direct);
        let explicit = a.transpose().matmul_naive(&b);
        prop_assert!(direct.approx_eq(&explicit, 1e-8));
    }

    #[test]
    fn matmul_distributes_over_sub((m, k, n) in dims(), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut gen = |r: usize, c: usize| {
            Matrix::from_vec(r, c, (0..r*c).map(|_| rng.gen_range(-3.0..3.0)).collect())
        };
        let a = gen(m, k);
        let b = gen(k, n);
        let c = gen(k, n);
        let lhs = product(&a, &b.sub(&c));
        let rhs = product(&a, &b).sub(&product(&a, &c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-6));
    }

    #[test]
    fn blend_stays_within_bounds(m in matrix(3, 3), n in matrix(3, 3), alpha in 0.0f64..=1.0) {
        let mut blended = m.clone();
        blended.blend(alpha, &n);
        for i in 0..3 {
            for j in 0..3 {
                let lo = m[(i, j)].min(n[(i, j)]) - 1e-9;
                let hi = m[(i, j)].max(n[(i, j)]) + 1e-9;
                prop_assert!(blended[(i, j)] >= lo && blended[(i, j)] <= hi);
            }
        }
    }

    #[test]
    fn persist_round_trip(m in matrix(3, 5)) {
        let mut w = Writer::new();
        m.encode(&mut w);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(Matrix::decode(&mut r).unwrap(), m);
        prop_assert!(r.finish().is_ok());
    }
}
