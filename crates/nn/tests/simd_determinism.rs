//! Determinism of the workspace forward/backward paths under the runtime
//! SIMD dispatch (`capes_tensor::simd`).
//!
//! The vector kernels absorb remainder rows/columns with dedicated tail
//! lanes; a bug there (an uninitialised lane, a stale accumulator, an
//! out-of-tile read) typically shows up as *run-to-run nondeterminism* or as
//! batch-size-dependent results rather than a loud failure. This suite pins
//! the two properties the DQN trainer relies on, at whatever level the host
//! dispatches (CI runs it again with `CAPES_SIMD=off` for the scalar arm,
//! which computes the same bits as the vector arms):
//!
//! 1. identical inputs through identical (but distinct) workspaces produce
//!    bit-identical activations and gradients, across odd batch sizes and
//!    layer widths that exercise every remainder lane;
//! 2. a row of a batched forward pass is bit-identical to the same row
//!    pushed through a batch-1 forward pass (the single decide path and the
//!    batched fleet decide path ride this).

use capes_nn::{Mlp, MseLoss, Workspace};
use capes_tensor::{simd, Matrix, WeightInit};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn forward_and_backward_are_bit_deterministic_across_workspaces() {
    // Widths chosen to hit 8-wide tiles, the 4-wide tail and scalar lanes
    // (61 = 7×8 + 4 + 1), and batches to hit 4-row tiles plus remainders.
    for &(batch, hidden) in &[(1usize, 61usize), (3, 61), (5, 33), (8, 9)] {
        let mut rng = StdRng::seed_from_u64(42);
        let net = Mlp::new(&[23, hidden, 7], &mut rng);
        let x = Matrix::random_init(batch, 23, WeightInit::Uniform { limit: 1.0 }, &mut rng);
        let t = Matrix::random_init(batch, 7, WeightInit::Uniform { limit: 1.0 }, &mut rng);

        let run = |ws: &mut Workspace| {
            let out = net.forward_into(&x, ws).clone();
            let delta = MseLoss.grad(&out, &t);
            ws.output_delta_mut().copy_from(&delta);
            net.backward_into(&x, ws);
            out
        };

        let mut ws_a = Workspace::new(&net, batch);
        let mut ws_b = Workspace::new(&net, batch);
        let out_a = run(&mut ws_a);
        let out_b = run(&mut ws_b);
        assert!(
            bits_equal(&out_a, &out_b),
            "forward must be bit-deterministic at level {} (batch {batch}, hidden {hidden})",
            simd::active_level()
        );
        for (ga, gb) in ws_a.grads().iter().zip(ws_b.grads().iter()) {
            assert!(
                bits_equal(&ga.d_weights, &gb.d_weights) && bits_equal(&ga.d_bias, &gb.d_bias),
                "gradients must be bit-deterministic at level {}",
                simd::active_level()
            );
        }
    }
}

#[test]
fn batched_rows_match_single_row_forwards_bitwise() {
    let mut rng = StdRng::seed_from_u64(7);
    let net = Mlp::new(&[19, 45, 5], &mut rng);
    let batch = 6usize;
    let x = Matrix::random_init(batch, 19, WeightInit::Uniform { limit: 1.0 }, &mut rng);

    let mut ws_batch = Workspace::new(&net, batch);
    let batched = net.forward_into(&x, &mut ws_batch).clone();

    let mut ws_one = Workspace::new(&net, 1);
    for r in 0..batch {
        let row = Matrix::from_vec(1, 19, x.row(r).to_vec());
        let single = net.forward_into(&row, &mut ws_one);
        for (a, b) in batched.row(r).iter().zip(single.as_slice()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "row {r} of a batched forward must equal the batch-1 forward at level {}",
                simd::active_level()
            );
        }
    }
}
