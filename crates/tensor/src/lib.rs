//! # capes-tensor
//!
//! Dense matrix and vector kernels used by the CAPES neural-network stack.
//!
//! The CAPES paper implements its deep Q-network with TensorFlow; this crate is
//! the corresponding substrate for the Rust reproduction. It provides a
//! row-major [`Matrix`] of `f64`, element-wise operations, reductions, several
//! GEMM implementations (naive, cache-blocked, and multi-threaded), and the
//! weight-initialisation schemes used by the network.
//!
//! The crate is deliberately small: CAPES only needs dense 2-D arrays (the
//! observation matrices of §3.4 of the paper are `S sampling ticks × N nodes`
//! matrices flattened into network inputs), so no general N-dimensional tensor
//! machinery is provided.
//!
//! ## Example
//!
//! ```
//! use capes_tensor::Matrix;
//!
//! let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
//! let b = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
//! let mut c = Matrix::zeros(2, 2);
//! a.matmul_into(&b, &mut c);
//! assert_eq!(c, a);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod init;
pub mod matmul;
pub mod matrix;
pub mod ops;
pub mod pool;
pub mod simd;

pub use init::WeightInit;
pub use matrix::Matrix;
pub use pool::WorkerPool;

/// Returns `true` if `a` and `b` are within `tol` of each other.
///
/// Handles the case where both values are non-finite in the same way
/// (`NaN == NaN` is considered equal here so that tests can compare
/// intentionally-poisoned matrices).
fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    if a.is_nan() && b.is_nan() {
        return true;
    }
    // Exact equality also covers matching infinities, where `a - b` is NaN.
    a == b || (a - b).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
        assert!(approx_eq(f64::NAN, f64::NAN, 1e-9));
    }
}
