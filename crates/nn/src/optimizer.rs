//! Gradient-descent optimizers.
//!
//! The CAPES paper trains its Q-network with Adam at a learning rate of
//! `1e-4` (Table 1).

use crate::{Mlp, MlpGrads};
use capes_tensor::simd::{adam_update, AdamStep, SoftTarget};
use capes_tensor::Matrix;

/// An optimizer that updates an [`Mlp`] in place from a set of gradients.
pub trait Optimizer {
    /// Applies one update step. `grads` must come from `network.backward`.
    fn step(&mut self, network: &mut Mlp, grads: &MlpGrads);
}

/// The Adam optimizer (Kingma & Ba, 2015) — the paper's choice (§3.4).
/// Table 1 sets only its learning rate; β₁, β₂ and ε are Kingma & Ba's
/// defaults, and gradients are used unclipped.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Step size (paper default: `1e-4`).
    pub learning_rate: f64,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Exponential decay of the first-moment estimate.
    pub(crate) const BETA1: f64 = 0.9;
    /// Exponential decay of the second-moment estimate.
    pub(crate) const BETA2: f64 = 0.999;
    /// Numerical-stability constant.
    pub(crate) const EPSILON: f64 = 1e-8;

    /// Creates an Adam optimizer for parameters of the given shapes.
    ///
    /// # Panics
    /// Panics unless `learning_rate` is finite and positive.
    pub fn new(learning_rate: f64, parameter_shapes: Vec<(usize, usize)>) -> Self {
        let m: Vec<Matrix> = parameter_shapes
            .iter()
            .map(|&(r, c)| Matrix::zeros(r, c))
            .collect();
        let v = m.clone();
        let adam = Adam {
            learning_rate,
            t: 0,
            m,
            v,
        };
        if let Err(what) = adam.check() {
            panic!("invalid Adam configuration: {what}");
        }
        adam
    }

    /// The invariants [`Adam::new`] asserts and `decode` returns as typed
    /// errors (NaN fails every one of them).
    fn check(&self) -> Result<(), &'static str> {
        let (m, v) = (&self.m, &self.v);
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            Err("Adam learning rate not finite and positive")
        } else if m.len() != v.len() || m.iter().zip(v).any(|(a, b)| a.shape() != b.shape()) {
            Err("Adam moment vectors disagree in shape")
        } else {
            Ok(())
        }
    }

    /// `true` if the optimizer's moment estimates are shaped for a network
    /// with the given [`Mlp::parameter_shapes`] — the compatibility check a
    /// checkpoint restore performs before trusting loaded optimizer state.
    pub fn matches_shapes(&self, parameter_shapes: &[(usize, usize)]) -> bool {
        self.m.len() == parameter_shapes.len()
            && self
                .m
                .iter()
                .zip(parameter_shapes)
                .all(|(m, &shape)| m.shape() == shape)
    }
}

impl capes_persist::Persist for Adam {
    const MIN_SIZE: usize = 57; // 4 f64s + clip tag + t + two Vec lengths

    fn encode(&self, w: &mut capes_persist::Writer) {
        w.put_f64(self.learning_rate);
        // v1 slots of the former β₁, β₂, ε and gradient-clip fields.
        w.put_f64(Self::BETA1);
        w.put_f64(Self::BETA2);
        w.put_f64(Self::EPSILON);
        w.put_u8(0); // `None`
        w.put_u64(self.t);
        self.m.encode(w);
        self.v.encode(w);
    }

    fn decode(r: &mut capes_persist::Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        let learning_rate = r.get_f64()?;
        r.expect_f64(Self::BETA1, "Adam β₁ slot is not the constant")?;
        r.expect_f64(Self::BETA2, "Adam β₂ slot is not the constant")?;
        r.expect_f64(Self::EPSILON, "Adam ε slot is not the constant")?;
        if r.get_u8()? != 0 {
            return Err(capes_persist::PersistError::BadValue {
                what: "Adam gradient-clip slot is not `None`",
            });
        }
        let adam = Adam {
            learning_rate,
            t: r.get_u64()?,
            m: Vec::<Matrix>::decode(r)?,
            v: Vec::<Matrix>::decode(r)?,
        };
        adam.check()
            .map_err(|what| capes_persist::PersistError::BadValue { what })?;
        Ok(adam)
    }
}

impl Adam {
    /// One Adam step on `network` with the DQN soft target update riding in
    /// the same pass over the parameters: tensor by tensor, right after
    /// `θ[i]` is stored, `θ⁻[i] = θ⁻[i]·(1−α) + θ[i]·α` on `target`'s copy.
    /// Bit-identical to [`Optimizer::step`] followed by `Matrix::blend` on
    /// every tensor of `target`.
    ///
    /// # Panics
    /// Panics if `α` is outside `[0, 1]` or `target` differs from `network`
    /// in depth or in any tensor's length.
    pub fn step_with_target(
        &mut self,
        network: &mut Mlp,
        grads: &MlpGrads,
        target: &mut Mlp,
        alpha: f64,
    ) {
        assert!((0.0..=1.0).contains(&alpha), "α must be in [0, 1]");
        assert_eq!(
            target.layers().len(),
            network.layers().len(),
            "target network depth does not match the online network"
        );
        self.step_tensors(network, grads, Some(target), alpha);
    }

    /// The update loop behind both entry points.
    fn step_tensors(
        &mut self,
        network: &mut Mlp,
        grads: &MlpGrads,
        target: Option<&mut Mlp>,
        alpha: f64,
    ) {
        assert_eq!(
            grads.len() * 2,
            self.m.len(),
            "gradient count does not match optimizer state"
        );
        self.t = self.t.saturating_add(1);
        // A restored snapshot may carry any `t`: saturate the exponent
        // instead of letting the cast wrap negative (a negative power makes
        // `bias2` negative and the step NaN). Both powers are exactly 0.0
        // long before `i32::MAX`, so no reachable step changes.
        let t = i32::try_from(self.t).unwrap_or(i32::MAX);
        let step = AdamStep {
            learning_rate: self.learning_rate,
            beta1: Self::BETA1,
            beta2: Self::BETA2,
            epsilon: Self::EPSILON,
            bias1: 1.0 - Self::BETA1.powi(t),
            bias2: 1.0 - Self::BETA2.powi(t),
        };

        let mut target_layers = target.map(|net| net.layers_mut().iter_mut());
        for (i, (layer, g)) in network
            .layers_mut()
            .iter_mut()
            .zip(grads.iter())
            .enumerate()
        {
            let (target_weights, target_bias) =
                match target_layers.as_mut().and_then(Iterator::next) {
                    Some(l) => (Some(&mut l.weights), Some(&mut l.bias)),
                    None => (None, None),
                };
            for (param, grad, idx, target_param) in [
                (&mut layer.weights, &g.d_weights, 2 * i, target_weights),
                (&mut layer.bias, &g.d_bias, 2 * i + 1, target_bias),
            ] {
                // The fused element-wise kernel dispatches through the
                // CAPES_SIMD runtime switch; every arm is bit-identical to
                // the loop this replaced, so optimizer trajectories are
                // unchanged at every level.
                adam_update(
                    param.as_mut_slice(),
                    grad.as_slice(),
                    self.m[idx].as_mut_slice(),
                    self.v[idx].as_mut_slice(),
                    &step,
                    target_param.map(|t| SoftTarget {
                        params: t.as_mut_slice(),
                        alpha,
                    }),
                );
            }
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, network: &mut Mlp, grads: &MlpGrads) {
        self.step_tensors(network, grads, None, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MseLoss, Workspace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// MSE loss of `net(x)` against `t` and its parameter gradients.
    fn mse_grads(net: &Mlp, x: &Matrix, t: &Matrix) -> (f64, MlpGrads) {
        let mut ws = Workspace::new(net, x.rows());
        net.forward_into(x, &mut ws);
        let (pred, delta) = ws.output_and_delta_mut();
        let loss = MseLoss.loss(pred, t);
        delta.copy_from(&MseLoss.grad(pred, t));
        net.backward_into(x, &mut ws);
        (loss, ws.grads().clone())
    }

    /// All-zero gradients shaped like `net`'s parameters.
    fn zero_grads(net: &Mlp) -> MlpGrads {
        Workspace::new(net, 1).grads().clone()
    }

    /// Trains a tiny regression problem and returns the final loss.
    fn train<O: Optimizer>(mut opt: O, net: &mut Mlp, iterations: usize) -> f64 {
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        // XOR-like target — nonlinear, so the hidden layer must be used.
        let t = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let mut last = f64::MAX;
        for _ in 0..iterations {
            let (loss, grads) = mse_grads(net, &x, &t);
            opt.step(net, &grads);
            last = loss;
        }
        last
    }

    #[test]
    fn adam_learns_xor() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut net = Mlp::new(&[2, 8, 1], &mut rng);
        let adam = Adam::new(0.02, net.parameter_shapes());
        let loss = train(adam, &mut net, 800);
        assert!(loss < 1e-2, "Adam failed to fit XOR, final loss {loss}");
        assert!(net.is_finite());
    }

    #[test]
    fn adam_step_counter_increments() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Mlp::new(&[2, 2, 1], &mut rng);
        let mut adam = Adam::new(0.01, net.parameter_shapes());
        assert_eq!(adam.t, 0);
        let x = Matrix::filled(1, 2, 1.0);
        let t = Matrix::filled(1, 1, 1.0);
        for i in 1..=5 {
            let (_, grads) = mse_grads(&net, &x, &t);
            adam.step(&mut net, &grads);
            assert_eq!(adam.t, i);
        }
    }

    #[test]
    fn adam_step_matches_the_reference_recurrence_bitwise() {
        // Guard on the SIMD-kernel rewiring: one dispatched step must equal
        // the textbook recurrence bit for bit (the kernel promises
        // bit-identity at every CAPES_SIMD level).
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Mlp::new(&[3, 4, 2], &mut rng);
        let mut reference = net.clone();
        let (lr, b1, b2, eps) = (0.01, 0.9, 0.999, 1e-8);
        let mut adam = Adam::new(lr, net.parameter_shapes());

        let x = Matrix::filled(2, 3, 0.7);
        let t = Matrix::zeros(2, 2);
        let (_, grads) = mse_grads(&net, &x, &t);
        adam.step(&mut net, &grads);

        let (bias1, bias2) = (1.0 - b1, 1.0 - b2); // t = 1
        for (layer, g) in reference.layers_mut().iter_mut().zip(grads.iter()) {
            for (param, grad) in [
                (&mut layer.weights, &g.d_weights),
                (&mut layer.bias, &g.d_bias),
            ] {
                for (p, &g) in param.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                    // Fresh state (m = v = 0) written in the kernel's exact
                    // evaluation order so ±0 signs match too.
                    let m = b1 * 0.0 + (1.0 - b1) * g;
                    let v = b2 * 0.0 + (1.0 - b2) * g * g;
                    *p -= lr * (m / bias1) / ((v / bias2).sqrt() + eps);
                }
            }
        }
        for (got, want) in net.layers().iter().zip(reference.layers()) {
            for (a, b) in [
                (got.weights.as_slice(), want.weights.as_slice()),
                (got.bias.as_slice(), want.bias.as_slice()),
            ] {
                assert!(
                    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "dispatched Adam step diverged from the reference recurrence"
                );
            }
        }
    }

    #[test]
    fn restored_step_count_past_i32_does_not_poison_the_next_step() {
        // `Adam::decode` accepts any u64 step count. `t as i32` used to wrap
        // 2³¹ to a negative exponent: β₂ᵗ > 1 → bias2 < 0 → √(negative) →
        // NaN weights on the first step after such a restore.
        use capes_persist::{Persist, Reader, Writer};
        let mut rng = StdRng::seed_from_u64(9);
        let net = Mlp::new(&[3, 4, 2], &mut rng);
        let (_, grads) = mse_grads(&net, &Matrix::filled(2, 3, 0.7), &Matrix::zeros(2, 2));
        let step_from = |t: u64| {
            let mut adam = Adam::new(0.01, net.parameter_shapes());
            adam.t = t;
            let mut w = Writer::new();
            adam.encode(&mut w);
            let mut restored = Adam::decode(&mut Reader::new(&w.into_vec())).expect("decodes");
            let mut stepped = net.clone();
            restored.step(&mut stepped, &grads);
            (stepped, restored.t)
        };
        // Both β powers are exactly 0.0 long before i32::MAX, so every step
        // from there on — saturated exponent or not — is the same step.
        let (reference, _) = step_from(i32::MAX as u64 - 1);
        assert!(reference.is_finite());
        for t in [i32::MAX as u64, 1 << 31, 1 << 40, u64::MAX - 1] {
            let (stepped, steps) = step_from(t);
            assert!(stepped.is_finite(), "t = {t}: NaN weights after restore");
            assert_eq!(stepped.parameter_distance(&reference), 0.0, "t = {t}");
            assert_eq!(steps, t + 1);
        }
        // The counter itself saturates instead of overflowing.
        assert_eq!(step_from(u64::MAX).1, u64::MAX);
    }

    #[test]
    fn step_with_target_is_step_then_blend_and_converges() {
        // Zero gradients leave θ where it is (m = v = 0 → a zero update), so
        // the target's walk toward a fixed θ is observable on its own: the
        // distance never grows and converges — what the deleted
        // `blend_from` tests checked — and every step equals
        // `Optimizer::step` followed by `Matrix::blend`, bit for bit.
        let mut rng = StdRng::seed_from_u64(5);
        let mut online = Mlp::new(&[4, 6, 2], &mut rng);
        let mut target = Mlp::new(&[4, 6, 2], &mut rng);
        let frozen = online.clone();
        let zero_grads = zero_grads(&online);
        let mut adam = Adam::new(0.01, online.parameter_shapes());
        let mut prev = target.parameter_distance(&online);
        assert!(prev > 0.0);
        for _ in 0..400 {
            let mut reference = target.clone();
            for (t, o) in reference.layers_mut().iter_mut().zip(online.layers()) {
                t.weights.blend(0.05, &o.weights);
                t.bias.blend(0.05, &o.bias);
            }
            adam.step_with_target(&mut online, &zero_grads, &mut target, 0.05);
            assert_eq!(online.parameter_distance(&frozen), 0.0, "θ must not move");
            assert_eq!(target.parameter_distance(&reference), 0.0, "blend diverged");
            let d = target.parameter_distance(&online);
            assert!(d <= prev + 1e-12, "distance must be non-increasing");
            prev = d;
        }
        assert!(prev < 1e-3, "target should have converged, distance {prev}");
        // α = 1 snaps the target onto the online network.
        let mut snapped = Mlp::new(&[4, 6, 2], &mut rng);
        adam.step_with_target(&mut online, &zero_grads, &mut snapped, 1.0);
        assert_eq!(snapped.parameter_distance(&online), 0.0);
    }

    #[test]
    #[should_panic(expected = "depth does not match")]
    fn step_with_target_rejects_a_shallower_target() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut online = Mlp::new(&[4, 6, 2], &mut rng);
        let mut target = Mlp::new(&[4, 2], &mut rng);
        let grads = zero_grads(&online);
        let mut adam = Adam::new(0.01, online.parameter_shapes());
        adam.step_with_target(&mut online, &grads, &mut target, 0.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_learning_rate_rejected() {
        let _ = Adam::new(0.0, vec![(2, 2)]);
    }

    #[test]
    fn infinite_learning_rate_or_a_non_constant_slot_does_not_decode() {
        use capes_persist::{Persist, PersistError, Reader, Writer};
        let mut w = Writer::new();
        Adam::new(0.01, vec![(2, 2)]).encode(&mut w);
        let valid = w.into_vec();
        assert!(Adam::decode(&mut Reader::new(&valid)).is_ok());
        // The learning rate is the first f64 of the encoding; β₁, β₂ and ε
        // the reserved slots after it, then the gradient clip's `None` tag.
        let f64_at = |offset: usize, value: f64| {
            let mut patched = valid.clone();
            patched[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
            (format!("{value} at byte {offset}"), patched)
        };
        let mut clip = valid.clone();
        clip[32] = 1;
        for (case, patched) in [
            f64_at(0, f64::INFINITY),
            f64_at(8, 0.5),
            f64_at(16, 0.99),
            f64_at(24, 1e-7),
            f64_at(24, f64::INFINITY),
            ("a `Some` clip tag".to_string(), clip),
        ] {
            assert!(
                matches!(
                    Adam::decode(&mut Reader::new(&patched)),
                    Err(PersistError::BadValue { .. })
                ),
                "{case} must not decode"
            );
        }
    }
}
