//! Kernel microbenchmarks.
//!
//! Complements `batctl bench` (which emits the tracked JSON summary) with
//! per-kernel timings under the criterion harness: the register-blocked
//! matmul, `matmul_nt` over a pre-transposed operand, and dense vs
//! sparse-aware matrix–vector products.
//! (The attention kernel's rows are `attend_group_*` in `batctl bench`.)

use bat_tensor::Matrix;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::random(rows, cols, 1.0, &mut SmallRng::seed_from_u64(seed))
}

fn bench_matmul(c: &mut Criterion) {
    let a = mat(128, 128, 1);
    let b = mat(128, 128, 2);
    let bt = b.transpose();
    let mut g = c.benchmark_group("matmul_128");
    g.sample_size(20);
    g.bench_function("blocked", |bch| {
        bch.iter(|| black_box(black_box(&a).matmul(&b)))
    });
    g.bench_function("nt_pretransposed", |bch| {
        bch.iter(|| black_box(black_box(&a).matmul_nt(&bt)))
    });
    g.finish();
}

fn bench_vecmul(c: &mut Criterion) {
    let m = mat(256, 256, 3);
    let x: Vec<f32> = (0..256).map(|i| (i as f32 * 0.37).sin()).collect();
    let mut g = c.benchmark_group("vecmul_256");
    g.bench_function("dense_unrolled", |bch| {
        bch.iter(|| black_box(black_box(&m).vecmul(&x)))
    });
    g.bench_function("sparse_aware_seed", |bch| {
        bch.iter(|| black_box(black_box(&m).vecmul_sparse(&x)))
    });
    g.finish();
}

criterion_group!(benches, bench_matmul, bench_vecmul);
criterion_main!(benches);
