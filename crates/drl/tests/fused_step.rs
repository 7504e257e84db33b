//! System proof of the one-pass parameter update: `Trainer::train_step_batch`
//! applies Adam and the soft target update in a single streaming pass over
//! the parameters, and must land on the bits of the step it replaced —
//! `Optimizer::step` followed by `Matrix::blend` on every target tensor —
//! for the online weights, the target weights and both Adam moments.

use capes_drl::{QNetwork, Trainer, TrainerConfig};
use capes_nn::{Adam, Mlp, Optimizer, Workspace};
use capes_persist::{Persist, Writer};
use capes_replay::ReplayBatch;
use capes_tensor::{simd, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// Odd widths: tensors of 169, 13, 65 and 5 elements cross the 4-lane
// boundary of the update kernel in several residue classes.
const OBS: usize = 13;
const ACTIONS: usize = 5;
const BATCH: usize = 16;

fn random_batch(rng: &mut StdRng) -> ReplayBatch {
    let mut matrix = |rows, cols| {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    };
    let states = matrix(BATCH, OBS);
    let next_states = matrix(BATCH, OBS);
    let actions = (0..BATCH).map(|_| rng.gen_range(0..ACTIONS)).collect();
    let rewards = (0..BATCH).map(|_| rng.gen_range(0.0..2.0)).collect();
    ReplayBatch::from_parts(states, next_states, actions, rewards)
}

/// The training step as it was before the fusion, spelled out on public
/// pieces: both forward passes, Bellman targets, the sparse MSE gradient,
/// backprop, `Optimizer::step`, then `Matrix::blend` tensor by tensor.
struct Reference {
    online: Mlp,
    target: Mlp,
    adam: Adam,
    ws_online: Workspace,
    ws_target: Workspace,
}

impl Reference {
    fn new(online: &QNetwork, config: &TrainerConfig) -> Self {
        let mlp = online.mlp().clone();
        Reference {
            adam: Adam::new(config.learning_rate, mlp.parameter_shapes()),
            ws_online: Workspace::new(&mlp, BATCH),
            ws_target: Workspace::new(&mlp, BATCH),
            target: mlp.clone(),
            online: mlp,
        }
    }

    fn step(&mut self, batch: &ReplayBatch, config: &TrainerConfig) {
        self.target
            .forward_into(batch.next_states(), &mut self.ws_target);
        self.online
            .forward_into(batch.states(), &mut self.ws_online);
        let mut targets = vec![0.0; BATCH];
        simd::bellman_targets(
            batch.rewards(),
            self.ws_target.output().as_slice(),
            ACTIONS,
            config.discount_rate,
            &mut targets,
        );
        let (predictions, delta) = self.ws_online.output_and_delta_mut();
        delta.as_mut_slice().fill(0.0);
        let denom = (BATCH * ACTIONS) as f64;
        for (i, &action) in batch.actions().iter().enumerate() {
            let error = predictions[(i, action)] - targets[i];
            delta[(i, action)] = 2.0 * error / denom;
        }
        self.online
            .backward_into(batch.states(), &mut self.ws_online);
        self.adam.step(&mut self.online, self.ws_online.grads());
        let alpha = config.target_update_rate;
        for (t, o) in self
            .target
            .layers_mut()
            .iter_mut()
            .zip(self.online.layers())
        {
            t.weights.blend(alpha, &o.weights);
            t.bias.blend(alpha, &o.bias);
        }
    }

    /// The reference state in `Trainer`'s snapshot encoding: online network,
    /// target network, optimizer (step count and both moments), config,
    /// steps.
    fn encode(&self, config: &TrainerConfig, steps: u64) -> Vec<u8> {
        let mut w = Writer::new();
        // A `QNetwork` encodes as its MLP.
        self.online.encode(&mut w);
        self.target.encode(&mut w);
        self.adam.encode(&mut w);
        config.encode(&mut w);
        w.put_u64(steps);
        w.into_vec()
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn assert_networks_bit_equal(got: &Mlp, want: &Mlp, what: &str) {
    for (i, (g, w)) in got.layers().iter().zip(want.layers()).enumerate() {
        assert_eq!(
            bits(&g.weights),
            bits(&w.weights),
            "{what}: layer {i} weights"
        );
        assert_eq!(bits(&g.bias), bits(&w.bias), "{what}: layer {i} bias");
    }
}

#[test]
fn fused_step_matches_optimizer_step_then_blend_bitwise() {
    let config = TrainerConfig {
        learning_rate: 1e-3,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(2117);
    let mut trainer = Trainer::new(QNetwork::new(OBS, ACTIONS, &mut rng), config);
    let mut reference = Reference::new(trainer.online(), &config);
    for step in 1..=25u64 {
        let batch = random_batch(&mut rng);
        let target_before = trainer.target().clone();
        trainer.train_step_batch(&batch);
        reference.step(&batch, &config);
        let case = format!("step {step}");
        assert_networks_bit_equal(trainer.online().mlp(), &reference.online, &case);
        assert_networks_bit_equal(trainer.target().mlp(), &reference.target, &case);
        // Whole trainer state, Adam's step count and moments included.
        let mut w = Writer::new();
        trainer.encode(&mut w);
        assert!(
            w.into_vec() == reference.encode(&config, step),
            "{case}: trainer snapshot (Adam moments) diverged from the reference"
        );
        // The target lags, and each step moves it toward where the online
        // network now is.
        let lag = trainer
            .target()
            .mlp()
            .parameter_distance(trainer.online().mlp());
        assert!(lag > 0.0, "{case}: target must lag the online network");
        assert!(
            lag < target_before
                .mlp()
                .parameter_distance(trainer.online().mlp()),
            "{case}: soft update must shrink the distance to the online network"
        );
    }
}

#[test]
fn unit_update_rate_snaps_the_target_onto_the_online_network() {
    let config = TrainerConfig {
        target_update_rate: 1.0,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(2118);
    let mut trainer = Trainer::new(QNetwork::new(OBS, ACTIONS, &mut rng), config);
    for step in 1..=3 {
        trainer.train_step_batch(&random_batch(&mut rng));
        assert_networks_bit_equal(
            trainer.target().mlp(),
            trainer.online().mlp(),
            &format!("α = 1, step {step}"),
        );
    }
}
