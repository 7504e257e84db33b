//! General matrix multiplication kernels.
//!
//! The four products — [`Matrix::matmul_into`], [`Matrix::affine_into`],
//! [`Matrix::matmul_transpose_b_into`] and [`Matrix::matmul_transpose_a_into`]
//! — run one cache-blocked kernel per shape on their output rows, split
//! across the persistent worker pool ([`crate::pool`]) once a product is
//! large enough to pay for the dispatch. No spawn cost and no heap allocation
//! per call. [`Matrix::matmul_naive`], the textbook triple loop, is the
//! reference the tests compare every kernel against.
//!
//! Every product also has an `_into` variant that writes into a caller-owned
//! output matrix, so steady-state callers (the DQN training step) never touch
//! the allocator. [`Matrix::affine_into`] fuses the GEMM with a bias-row
//! broadcast by seeding the output with the bias instead of zeros.
//!
//! The kernels propagate non-finite values exactly like the naive reference:
//! `0 · NaN` is `NaN`, never silently skipped.
//!
//! The inner kernels themselves live in [`crate::simd`]: single-threaded and
//! pool-chunked products alike call the runtime-dispatched entry points
//! there, so they run the widest vector kernels the CPU supports (AVX2+FMA,
//! with 512-bit GEMM tiles under `avx512f`; the portable scalar kernels
//! otherwise, or under `CAPES_SIMD=off`). Every level computes the same
//! bits.

use crate::pool::{self, WorkerPool};
use crate::simd::{gemm_rows, gemm_ta_rows, gemm_tb_rows};
use crate::Matrix;

/// FLOP threshold above which the dispatcher parallelises across the pool.
const PARALLEL_FLOP_THRESHOLD: usize = 4_000_000;

/// Minimum output rows per pool chunk; splitting finer than this costs more
/// in dispatch than it recovers in parallelism.
const MIN_ROWS_PER_CHUNK: usize = 4;

/// The global pool when a product of `flops` multiply-adds is worth splitting
/// across it.
fn pool_for(flops: usize) -> Option<&'static WorkerPool> {
    (flops >= PARALLEL_FLOP_THRESHOLD && pool::global().threads() > 1).then(pool::global)
}

/// Calls `kernel(start, end, chunk)` with `chunk` the output rows
/// `start..end` of `out`, covering every row once: split across `pool` when
/// there is one, in a single call on this thread otherwise.
fn for_row_chunks<K>(pool: Option<&WorkerPool>, out: &mut Matrix, kernel: K)
where
    K: Fn(usize, usize, &mut [f64]) + Sync,
{
    let (rows, width) = out.shape();
    let Some(pool) = pool else {
        kernel(0, rows, out.as_mut_slice());
        return;
    };
    // `Matrix` dimensions are never zero, so the rows are `width` wide.
    pool.run_mut(
        out.as_mut_slice(),
        width,
        MIN_ROWS_PER_CHUNK,
        |start, chunk| {
            kernel(start, start + chunk.len() / width, chunk);
        },
    );
}

impl Matrix {
    /// `self · other` written into `out` (shape `self.rows × other.cols`).
    /// Allocation-free; parallelised over the pool for large problems.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not agree or `out` has the wrong
    /// shape.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul dimension mismatch: {:?} · {:?}",
            self.shape(),
            other.shape()
        );
        assert_eq!(
            out.shape(),
            (self.rows(), other.cols()),
            "matmul output shape mismatch"
        );
        let (m, k) = self.shape();
        let n = other.cols();
        out.as_mut_slice().fill(0.0);
        let (a_s, b_s) = (self.as_slice(), other.as_slice());
        for_row_chunks(pool_for(m * k * n), out, |start, end, chunk| {
            gemm_rows(&a_s[start * k..end * k], b_s, chunk, end - start, k, n);
        });
    }

    /// `self · other` by the textbook triple loop: the reference every
    /// kernel in this module is tested against, never used on a hot path.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not agree.
    // capes-check: allow(dead-pub) -- the reference kernel of tests/kernel_properties.rs
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul dimension mismatch: {:?} · {:?}",
            self.shape(),
            other.shape()
        );
        let (m, k) = self.shape();
        let n = other.cols();
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += self.get(i, p) * other.get(p, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Fused affine map `self · w + bias` (bias broadcast over rows) written
    /// into `out` — the dense-layer forward pass in one kernel. The fusion is
    /// free: the GEMM accumulates into an output seeded with the bias instead
    /// of zeros.
    ///
    /// # Panics
    /// Panics on any dimension mismatch; `bias` must be `1 × w.cols()`.
    pub fn affine_into(&self, w: &Matrix, bias: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols(),
            w.rows(),
            "affine dimension mismatch: {:?} · {:?}",
            self.shape(),
            w.shape()
        );
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), w.cols(), "bias width mismatch");
        assert_eq!(
            out.shape(),
            (self.rows(), w.cols()),
            "affine output shape mismatch"
        );
        let (m, k) = self.shape();
        let n = w.cols();
        // Seed every output row with the bias; the GEMM accumulates on top.
        let bias_row = bias.as_slice();
        for r in 0..m {
            out.row_mut(r).copy_from_slice(bias_row);
        }
        let (a_s, b_s) = (self.as_slice(), w.as_slice());
        for_row_chunks(pool_for(m * k * n), out, |start, end, chunk| {
            gemm_rows(&a_s[start * k..end * k], b_s, chunk, end - start, k, n);
        });
    }

    /// `self · otherᵀ` written into `out` (shape `self.rows × other.rows`),
    /// without materialising the transpose: backpropagation through a dense
    /// layer needs `dY · Wᵀ`, and computing it directly keeps both operands
    /// in row-major order. Allocation-free; parallelised over the pool for
    /// large problems.
    pub fn matmul_transpose_b_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols(),
            other.cols(),
            "matmul_transpose_b dimension mismatch: {:?} · {:?}ᵀ",
            self.shape(),
            other.shape()
        );
        assert_eq!(
            out.shape(),
            (self.rows(), other.rows()),
            "matmul_transpose_b output shape mismatch"
        );
        let (m, k) = self.shape();
        let n = other.rows();
        let a_s = self.as_slice();
        let b_s = other.as_slice();
        for_row_chunks(pool_for(m * k * n), out, |start, end, chunk| {
            gemm_tb_rows(&a_s[start * k..end * k], b_s, chunk, end - start, k, n);
        });
    }

    /// `selfᵀ · other` written into `out` (shape `self.cols × other.cols`),
    /// without materialising the transpose: backpropagation needs `Xᵀ · dY`
    /// for the weight gradient. Allocation-free; parallelised over the pool
    /// for large problems.
    pub fn matmul_transpose_a_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows(),
            other.rows(),
            "matmul_transpose_a dimension mismatch: {:?}ᵀ · {:?}",
            self.shape(),
            other.shape()
        );
        assert_eq!(
            out.shape(),
            (self.cols(), other.cols()),
            "matmul_transpose_a output shape mismatch"
        );
        let (n, m) = self.shape();
        let p = other.cols();
        let a_s = self.as_slice();
        let b_s = other.as_slice();
        for_row_chunks(pool_for(n * m * p), out, |start, end, chunk| {
            gemm_ta_rows(a_s, b_s, chunk, start, end, n, m, p);
        });
    }
}

/// Number of hardware threads available to this process.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
        Matrix::from_vec(r, c, (0..r * c).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    /// `a · b` through the dispatching kernel.
    fn product(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        a.matmul_into(b, &mut out);
        out
    }

    #[test]
    fn small_known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let expected = Matrix::from_vec(2, 2, vec![19.0, 22.0, 43.0, 50.0]);
        assert!(a.matmul_naive(&b).approx_eq(&expected, 1e-12));
        assert!(product(&a, &b).approx_eq(&expected, 1e-12));
    }

    #[test]
    fn matmul_agrees_with_the_naive_reference_on_odd_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (17, 65, 9),
            (64, 64, 64),
            (70, 130, 33),
        ] {
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let got = product(&a, &b);
            assert!(got.approx_eq(&a.matmul_naive(&b), 1e-9), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_into_reuses_output_buffer() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = random_matrix(&mut rng, 9, 14);
        let b = random_matrix(&mut rng, 14, 6);
        // Poisoned output: the kernel must fully overwrite it.
        let mut out = Matrix::filled(9, 6, f64::NAN);
        a.matmul_into(&b, &mut out);
        assert!(out.approx_eq(&a.matmul_naive(&b), 1e-9));
    }

    #[test]
    fn affine_into_matches_matmul_plus_broadcast() {
        let mut rng = StdRng::seed_from_u64(13);
        let x = random_matrix(&mut rng, 5, 11);
        let w = random_matrix(&mut rng, 11, 7);
        let bias = random_matrix(&mut rng, 1, 7);
        let mut out = Matrix::filled(5, 7, f64::NAN);
        x.affine_into(&w, &bias, &mut out);
        let broadcast = Matrix::from_vec(5, 7, bias.as_slice().repeat(5));
        let reference = x.matmul_naive(&w).zip_map(&broadcast, |a, b| a + b);
        assert!(out.approx_eq(&reference, 1e-9));
    }

    #[test]
    fn non_finite_operands_propagate_like_the_naive_kernel() {
        // Regression: the blocked kernels used to skip `a == 0.0` entries,
        // silently turning `0 · NaN` and `0 · ∞` into `0` and diverging from
        // the reference implementation on poisoned inputs.
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 2.0, 0.0]);
        let b = Matrix::from_vec(2, 2, vec![f64::NAN, 3.0, 4.0, f64::INFINITY]);
        let reference = a.matmul_naive(&b);
        assert!(reference[(0, 0)].is_nan(), "0·NaN + 1·4 must be NaN");
        assert!(product(&a, &b).approx_eq(&reference, 1e-9));
        // And the transpose-A kernel, which had the same skip.
        let mut direct = Matrix::zeros(2, 2);
        a.matmul_transpose_a_into(&b, &mut direct);
        let explicit = a.transpose().matmul_naive(&b);
        assert!(direct.approx_eq(&explicit, 1e-9));
    }

    #[test]
    fn transpose_into_variants_overwrite_poisoned_buffers() {
        let mut rng = StdRng::seed_from_u64(14);
        let a = random_matrix(&mut rng, 8, 13);
        let b = random_matrix(&mut rng, 5, 13);
        let mut out = Matrix::filled(8, 5, f64::NAN);
        a.matmul_transpose_b_into(&b, &mut out);
        assert!(out.approx_eq(&a.matmul_naive(&b.transpose()), 1e-9));

        let c = random_matrix(&mut rng, 8, 4);
        let mut out_a = Matrix::filled(13, 4, f64::NAN);
        a.matmul_transpose_a_into(&c, &mut out_a);
        assert!(out_a.approx_eq(&a.transpose().matmul_naive(&c), 1e-9));
    }

    #[test]
    fn pooled_chunks_agree_with_reference_on_a_multithreaded_pool() {
        // The global pool may be single-threaded on small hosts; drive the
        // chunked kernels through a local 4-way pool to exercise real
        // cross-thread dispatch.
        let pool = WorkerPool::new(4);
        let mut rng = StdRng::seed_from_u64(15);
        let (m, k, n) = (37, 23, 19);
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        let mut out = Matrix::zeros(m, n);
        let (a_s, b_s) = (a.as_slice(), b.as_slice());
        for_row_chunks(Some(&pool), &mut out, |start, end, chunk| {
            gemm_rows(&a_s[start * k..end * k], b_s, chunk, end - start, k, n);
        });
        assert!(out.approx_eq(&a.matmul_naive(&b), 1e-9));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = product(&a, &b);
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn wrong_output_shape_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut out = Matrix::zeros(2, 3);
        a.matmul_into(&b, &mut out);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
