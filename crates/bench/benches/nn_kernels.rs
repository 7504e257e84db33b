//! Criterion micro-benchmarks for the neural-network kernels behind the
//! Table-2 training-step measurements: the blocked GEMM, inference forward
//! passes and the Adam update at the paper's network sizes.

use capes_nn::{Adam, Loss, Mlp, MseLoss, Optimizer, Workspace};
use capes_tensor::simd::{adam_update_with, detected_level, AdamStep, SimdLevel};
use capes_tensor::{MatmulStrategy, Matrix};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = StdRng::seed_from_u64(1);
    for &n in &[64usize, 240, 600] {
        let a = Matrix::random_init(32, n, capes_tensor::WeightInit::XavierUniform, &mut rng);
        let b = Matrix::random_init(n, n, capes_tensor::WeightInit::XavierUniform, &mut rng);
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul_with(&b, MatmulStrategy::Blocked)))
        });
    }
    group.finish();
}

fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("q_network_forward");
    let mut rng = StdRng::seed_from_u64(2);
    // Compact (quick-run) network and the paper-sized 2200-input network.
    for &(label, input) in &[("compact_240", 240usize), ("paper_2200", 2200usize)] {
        let net = Mlp::capes_q_network(input, 5, &mut rng);
        let x = Matrix::random_init(1, input, capes_tensor::WeightInit::XavierUniform, &mut rng);
        group.bench_function(label, |bench| {
            bench.iter(|| black_box(net.forward_inference(&x)))
        });
    }
    group.finish();
}

fn bench_adam(c: &mut Criterion) {
    let mut group = c.benchmark_group("adam_update");
    let mut rng = StdRng::seed_from_u64(4);
    // Both SIMD arms of the raw slice kernel at the paper network's largest
    // parameter tensor (2200 × 400 first-layer weights), then the full
    // optimizer step end-to-end.
    let len = 2200 * 400;
    let grads: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let step = AdamStep {
        learning_rate: 1e-4,
        beta1: 0.9,
        beta2: 0.999,
        epsilon: 1e-8,
        bias1: 1.0 - 0.9f64.powi(10),
        bias2: 1.0 - 0.999f64.powi(10),
        scale: 1.0,
    };
    // Adam has no 512-bit arm (`Avx512` runs the AVX2 one): two labels cover it.
    let levels = [("scalar", SimdLevel::Scalar), ("avx2", SimdLevel::Avx2Fma)];
    for (label, level) in levels.into_iter().filter(|&(_, l)| l <= detected_level()) {
        let mut params = vec![0.0f64; len];
        let mut m = vec![0.0f64; len];
        let mut v = vec![0.0f64; len];
        group.bench_with_input(BenchmarkId::new(label, "880k"), &level, |bench, &level| {
            bench.iter(|| {
                adam_update_with(level, &mut params, &grads, &mut m, &mut v, &step, None);
                black_box(params.last());
            })
        });
    }
    let mut net = Mlp::capes_q_network(2200, 5, &mut rng);
    let mut adam = Adam::new(1e-4, net.parameter_shapes());
    let x = Matrix::random_init(32, 2200, capes_tensor::WeightInit::XavierUniform, &mut rng);
    let t = Matrix::zeros(32, 5);
    let mut ws = Workspace::new(&net, 32);
    net.forward_into(&x, &mut ws);
    let (pred, delta) = ws.output_and_delta_mut();
    delta.copy_from(&MseLoss.grad(pred, &t));
    net.backward_into(&x, &mut ws);
    let net_grads = ws.grads().clone();
    group.bench_function("optimizer_step_paper_2200", |bench| {
        bench.iter(|| {
            adam.step(&mut net, &net_grads);
            black_box(adam.steps());
        })
    });
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_forward, bench_adam);
criterion_main!(benches);
