//! Property test: the workspace-based backward path (the allocation-free
//! kernels the training hot loop runs) produces gradients that pass the
//! finite-difference check across random hidden widths and batch sizes.
//! `nn::gradcheck::check_gradients` differentiates the mean-squared error
//! through `Mlp::backward_into` and evaluates its finite differences through
//! `Mlp::forward_into`, so both sides are the production path.

use capes_nn::gradcheck::check_gradients;
use capes_nn::Mlp;
use capes_tensor::{Matrix, WeightInit};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
            report.passes(1e-3),
            "workspace gradcheck failed: {report:?} (hidden {hidden1}/{hidden2}, batch {batch})"
        );
    }
}
