//! Finite-difference gradient checks: the workspace-based backward path (the
//! allocation-free kernels the training hot loop runs) produces gradients
//! that agree with central finite differences, for a fixed network and
//! across random hidden widths and batch sizes. `check_gradients`
//! differentiates the mean-squared error through `Mlp::backward_into` and
//! evaluates its finite differences through `Mlp::forward_into`, so both
//! sides are the production path.

use capes_nn::{Mlp, MseLoss, Workspace};
use capes_tensor::{Matrix, WeightInit};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of a gradient check.
#[derive(Debug, Clone)]
struct GradCheckReport {
    /// Largest relative difference (|a−n| / max(|a|, |n|, 1e-6)).
    max_rel_error: f64,
    /// Number of parameters checked.
    checked: usize,
}

/// Compares the analytic gradients of the mean-squared error of `network`
/// against central finite differences for the given input/target batch.
///
/// Both sides run the production kernels: the analytic gradients come from
/// [`Mlp::backward_into`], the path the training hot loop runs, and every
/// finite-difference loss from [`Mlp::forward_into`] on an inference
/// [`Workspace`], the path action selection runs.
///
/// `max_params_per_matrix` bounds how many entries of each parameter matrix
/// are probed (probing all 600×600 entries of a CAPES-sized layer would be
/// needlessly slow); entries are sampled deterministically with a stride.
fn check_gradients(
    network: &mut Mlp,
    x: &Matrix,
    target: &Matrix,
    max_params_per_matrix: usize,
) -> GradCheckReport {
    assert!(max_params_per_matrix > 0);
    let h = 1e-5;

    let mut ws = Workspace::new(network, x.rows());
    network.forward_into(x, &mut ws);
    let (pred, dloss_buf) = ws.output_and_delta_mut();
    dloss_buf.copy_from(&MseLoss.grad(pred, target));
    network.backward_into(x, &mut ws);
    let grads = ws.grads();
    let mut probe = Workspace::new_inference(network, x.rows());

    let mut max_rel: f64 = 0.0;
    let mut checked = 0usize;

    #[allow(clippy::needless_range_loop)] // indices address both `layers()` and `grads`
    for layer_idx in 0..network.layers().len() {
        // Check weights then bias of this layer.
        for param_kind in 0..2 {
            let (rows, cols) = {
                let l = &network.layers()[layer_idx];
                if param_kind == 0 {
                    l.weights.shape()
                } else {
                    l.bias.shape()
                }
            };
            let total = rows * cols;
            let stride = total.div_ceil(max_params_per_matrix).max(1);
            for flat in (0..total).step_by(stride) {
                let (r, c) = (flat / cols, flat % cols);
                let analytic = if param_kind == 0 {
                    grads[layer_idx].d_weights[(r, c)]
                } else {
                    grads[layer_idx].d_bias[(r, c)]
                };

                let orig = get_param(network, layer_idx, param_kind, r, c);
                set_param(network, layer_idx, param_kind, r, c, orig + h);
                let plus = MseLoss.loss(network.forward_into(x, &mut probe), target);
                set_param(network, layer_idx, param_kind, r, c, orig - h);
                let minus = MseLoss.loss(network.forward_into(x, &mut probe), target);
                set_param(network, layer_idx, param_kind, r, c, orig);

                let numeric = (plus - minus) / (2.0 * h);
                let abs_err = (analytic - numeric).abs();
                // The denominator floor keeps micro-scale gradients (where
                // central differences with h = 1e-5 are noise-dominated) from
                // inflating the relative error: an absolute error of 1e-11 on
                // a 1e-8 gradient is agreement, not failure.
                let rel_err = abs_err / analytic.abs().max(numeric.abs()).max(1e-6);
                max_rel = max_rel.max(rel_err);
                checked += 1;
            }
        }
    }

    GradCheckReport {
        max_rel_error: max_rel,
        checked,
    }
}

fn get_param(net: &Mlp, layer: usize, kind: usize, r: usize, c: usize) -> f64 {
    let l = &net.layers()[layer];
    if kind == 0 {
        l.weights[(r, c)]
    } else {
        l.bias[(r, c)]
    }
}

fn set_param(net: &mut Mlp, layer: usize, kind: usize, r: usize, c: usize, value: f64) {
    let l = &mut net.layers_mut()[layer];
    if kind == 0 {
        l.weights[(r, c)] = value;
    } else {
        l.bias[(r, c)] = value;
    }
}

#[test]
fn mlp_gradients_are_correct_for_mse() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut net = Mlp::new(&[6, 10, 10, 4], &mut rng);
    let x = Matrix::random_init(3, 6, WeightInit::Uniform { limit: 1.0 }, &mut rng);
    let t = Matrix::random_init(3, 4, WeightInit::Uniform { limit: 1.0 }, &mut rng);
    let report = check_gradients(&mut net, &x, &t, 40);
    assert!(report.checked > 50);
    assert!(
        report.max_rel_error < 1e-4,
        "gradient check failed: {report:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn workspace_backward_passes_gradcheck(
        (hidden1, hidden2) in (2usize..9, 2usize..9),
        batch in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Mlp::new(&[5, hidden1, hidden2, 3], &mut rng);
        let x = Matrix::random_init(batch, 5, WeightInit::Uniform { limit: 1.0 }, &mut rng);
        let t = Matrix::random_init(batch, 3, WeightInit::Uniform { limit: 2.0 }, &mut rng);
        let report = check_gradients(&mut net, &x, &t, 25);
        prop_assert!(report.checked > 10);
        prop_assert!(
            report.max_rel_error < 1e-3,
            "workspace gradcheck failed: {report:?} (hidden {hidden1}/{hidden2}, batch {batch})"
        );
    }
}
