//! Criterion benchmark for the full DQN training step (minibatch sampling +
//! Bellman targets + backpropagation + Adam + target-network update) — the
//! "duration of training step" row of Table 2 — plus action-selection
//! latency and GEMM kernel strategies (persistent pool vs single-threaded).
//! Medians are recorded in `BENCH_train_step.json` at the repo root.

use capes_drl::{DqnAgent, DqnAgentConfig};
use capes_replay::{ReplayConfig, SharedReplayDb};
use capes_tensor::simd::{self, SimdLevel};
use capes_tensor::{MatmulStrategy, Matrix};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn filled_db(observation_size: usize, ticks: u64) -> SharedReplayDb {
    let mut rng = StdRng::seed_from_u64(7);
    let db = SharedReplayDb::new(ReplayConfig {
        num_nodes: 1,
        pis_per_node: observation_size,
        ticks_per_observation: 1,
        missing_entry_tolerance: 0.2,
        capacity_ticks: ticks as usize + 10,
    });
    for t in 0..ticks {
        let pis: Vec<f64> = (0..observation_size)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        db.insert_snapshot(t, 0, pis);
        db.insert_objective(t, rng.gen_range(0.5..1.5));
        db.insert_action(t, rng.gen_range(0..5));
    }
    db
}

fn bench_training_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("dqn_training_step");
    group.sample_size(10);
    for &(label, obs) in &[
        ("compact_240", 240usize),
        ("table2_600", 600usize),
        ("paper_2200", 2200usize),
    ] {
        let db = filled_db(obs, 500);
        let mut agent = DqnAgent::new(DqnAgentConfig::paper_default(obs, 2), 1);
        group.bench_with_input(BenchmarkId::new("minibatch_32", label), &obs, |bench, _| {
            bench.iter(|| black_box(agent.train_from_db(&db).unwrap()))
        });
    }
    group.finish();
}

/// Pooled-vs-blocked GEMM on the training-step shapes: the batch forward
/// product (32 × 600 · 600 × 600) and a square hidden-layer-sized product. On
/// single-core hosts the pooled strategy degenerates to the blocked kernel.
fn bench_gemm_strategies(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut group = c.benchmark_group("gemm");
    for &(label, m, k, n) in &[
        ("batch_32x600x600", 32usize, 600usize, 600usize),
        ("square_600x600x600", 600, 600, 600),
    ] {
        let a = Matrix::from_vec(m, k, (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let b = Matrix::from_vec(k, n, (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let mut out = Matrix::zeros(m, n);
        for (name, strategy) in [
            ("blocked", MatmulStrategy::Blocked),
            ("pooled", MatmulStrategy::Pooled),
        ] {
            group.bench_function(BenchmarkId::new(name, label), |bench| {
                bench.iter(|| {
                    a.matmul_into_with(&b, &mut out, strategy);
                    black_box(out.get(0, 0))
                })
            });
        }
    }
    // The explicit SIMD inner kernels against the portable scalar fallback,
    // on raw slices at a pinned level (no dispatch threshold, no pool):
    // `gemm/simd/*` is the highest detected level — 512-bit panel tiles,
    // AVX2+FMA, or (degenerating to equal entries) the scalar kernel —
    // `gemm/simd_avx2/*` pins the 256-bit kernels on a 512-bit host (what
    // `CAPES_SIMD=avx2` dispatches), and `gemm/simd_scalar/*` pins the
    // fallback on the same shapes (what `CAPES_SIMD=off` dispatches).
    for &(label, m, k, n) in &[
        ("batch_32x600x600", 32usize, 600usize, 600usize),
        ("square_600x600x600", 600, 600, 600),
    ] {
        let a: Vec<f64> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut out = vec![0.0; m * n];
        for (name, level) in [
            ("simd", simd::detected_level()),
            ("simd_avx2", SimdLevel::Avx2Fma),
            ("simd_scalar", SimdLevel::Scalar),
        ] {
            // Only a 512-bit host has a 256-bit level distinct from `simd`.
            if name == "simd_avx2" && simd::detected_level() <= level {
                continue;
            }
            group.bench_function(BenchmarkId::new(name, label), |bench| {
                bench.iter(|| {
                    out.fill(0.0);
                    simd::gemm_rows_with(level, &a, &b, &mut out, m, k, n);
                    black_box(out[0])
                })
            });
        }
        // The packed-B kernel against the streaming kernel it is bit-identical
        // to, pinned on both sides of the auto gate: packing each 64 × n
        // k-panel into tile-major scratch trades one extra pass over the panel
        // for contiguous fragment loads in the register-tiled sweep.
        let level = simd::detected_level();
        group.bench_function(BenchmarkId::new("simd_packed", label), |bench| {
            bench.iter(|| {
                out.fill(0.0);
                simd::gemm_rows_packed_with(level, &a, &b, &mut out, m, k, n);
                black_box(out[0])
            })
        });
        group.bench_function(BenchmarkId::new("simd_unpacked", label), |bench| {
            bench.iter(|| {
                out.fill(0.0);
                simd::gemm_rows_unpacked_with(level, &a, &b, &mut out, m, k, n);
                black_box(out[0])
            })
        });
    }
    {
        // And the transpose-B kernel (the backward input-gradient product),
        // plus the tanh forward pass over a batch-by-hidden-layer activation;
        // `simd_avx2` again pins the 256-bit arms on a 512-bit host.
        let (m, k) = (32usize, 600usize);
        let a: Vec<f64> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let w: Vec<f64> = (0..k * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let z: Vec<f64> = (0..m * k).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let mut out = vec![0.0; m * k];
        for (name, level) in [
            ("simd", simd::detected_level()),
            ("simd_avx2", SimdLevel::Avx2Fma),
            ("simd_scalar", SimdLevel::Scalar),
        ] {
            if name == "simd_avx2" && simd::detected_level() <= level {
                continue;
            }
            group.bench_function(BenchmarkId::new(name, "transpose_b_32x600x600"), |bench| {
                bench.iter(|| {
                    simd::gemm_tb_rows_with(level, &a, &w, &mut out, m, k, k);
                    black_box(out[0])
                })
            });
            if name != "simd_scalar" {
                group.bench_function(BenchmarkId::new(name, "tanh_forward_32x600"), |bench| {
                    bench.iter(|| {
                        simd::tanh_forward_with(level, &z, &mut out);
                        black_box(out[0])
                    })
                });
            }
        }
    }

    // The k-blocked `a · bᵀ` kernel on the backward-pass shapes: dY (32 × n)
    // against a square weight matrix (n × n) read as its transpose, compared
    // with the pre-blocking kernel (one full-width dot product per output
    // element — it streamed the whole weight matrix once per output row; on
    // the paper_2200 shape that is a 38 MB matrix re-read 32 times).
    for &(label, m, k) in &[
        ("transpose_b_32x600x600", 32usize, 600usize),
        ("transpose_b_32x2200x2200", 32, 2200),
    ] {
        let a = Matrix::from_vec(m, k, (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let w = Matrix::from_vec(k, k, (0..k * k).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let mut out = Matrix::zeros(m, k);
        group.bench_function(BenchmarkId::new("k_blocked", label), |bench| {
            bench.iter(|| {
                a.matmul_transpose_b_into(&w, &mut out);
                black_box(out.get(0, 0))
            })
        });
        group.bench_function(BenchmarkId::new("unblocked_reference", label), |bench| {
            bench.iter(|| {
                unblocked_tb(a.as_slice(), w.as_slice(), out.as_mut_slice(), m, k, k);
                black_box(out.get(0, 0))
            })
        });
    }
    group.finish();
}

/// The pre-blocking `a · bᵀ` kernel, kept as the bench baseline: one
/// four-accumulator dot product over the full reduction dimension per output
/// element.
fn unblocked_tb(a: &[f64], b: &[f64], out: &mut [f64], rows_a: usize, cols: usize, rows_b: usize) {
    for i in 0..rows_a {
        let a_row = &a[i * cols..][..cols];
        let out_row = &mut out[i * rows_b..][..rows_b];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &b[j * cols..][..cols];
            let (mut c0, mut c1, mut c2, mut c3) = (0.0, 0.0, 0.0, 0.0);
            let mut ca = a_row.chunks_exact(4);
            let mut cb = b_row.chunks_exact(4);
            for (xa, xb) in (&mut ca).zip(&mut cb) {
                c0 += xa[0] * xb[0];
                c1 += xa[1] * xb[1];
                c2 += xa[2] * xb[2];
                c3 += xa[3] * xb[3];
            }
            let mut tail = 0.0;
            for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
                tail += x * y;
            }
            *o = (c0 + c2) + (c1 + c3) + tail;
        }
    }
}

fn bench_action_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("action_selection");
    for &(label, obs) in &[("compact_240", 240usize), ("paper_2200", 2200usize)] {
        let db = filled_db(obs, 50);
        let mut agent = DqnAgent::new(DqnAgentConfig::paper_default(obs, 2), 2);
        let observation = db.observation_at(30).unwrap();
        group.bench_function(label, |bench| {
            bench.iter(|| black_box(agent.select_action(&observation, 100_000)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_training_step,
    bench_gemm_strategies,
    bench_action_selection
);
criterion_main!(benches);
