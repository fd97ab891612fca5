//! Criterion: GEMM kernels (tiled vs naive, masked).
//!
//! `gemm_512` measures the tiled micro-kernel parallel, single-threaded and
//! through the allocation-free `_into` entry point.

use criterion::{criterion_group, criterion_main, Criterion};
use defa_tensor::matmul::{matmul, matmul_into, matmul_naive, matmul_row_masked};
use defa_tensor::rng::TensorRng;
use defa_tensor::{Scratch, Tensor};

fn bench_gemm(c: &mut Criterion) {
    let mut rng = TensorRng::seed_from(3);
    let a = rng.uniform([256, 256], -1.0, 1.0);
    let b = rng.uniform([256, 256], -1.0, 1.0);
    let mask: Vec<bool> = (0..256).map(|i| i % 2 == 0).collect();

    let mut group = c.benchmark_group("gemm_256");
    group.bench_function("tiled_parallel", |bch| {
        bch.iter(|| matmul(std::hint::black_box(&a), std::hint::black_box(&b)).unwrap())
    });
    group.bench_function("naive", |bch| {
        bch.iter(|| matmul_naive(std::hint::black_box(&a), std::hint::black_box(&b)).unwrap())
    });
    group.bench_function("row_masked_half", |bch| {
        bch.iter(|| {
            matmul_row_masked(std::hint::black_box(&a), std::hint::black_box(&b), &mask).unwrap()
        })
    });
    group.finish();
}

fn bench_gemm_512(c: &mut Criterion) {
    let mut rng = TensorRng::seed_from(5);
    let a = rng.uniform([512, 512], -1.0, 1.0);
    let b = rng.uniform([512, 512], -1.0, 1.0);

    let mut group = c.benchmark_group("gemm_512");
    group.bench_function("tiled_parallel", |bch| {
        bch.iter(|| matmul(std::hint::black_box(&a), std::hint::black_box(&b)).unwrap())
    });
    group.bench_function("tiled_single_thread", |bch| {
        defa_parallel::with_num_threads(1, || {
            bch.iter(|| matmul(std::hint::black_box(&a), std::hint::black_box(&b)).unwrap())
        })
    });
    group.bench_function("tiled_into_scratch", |bch| {
        let mut scratch = Scratch::new();
        let mut out = Tensor::zeros([512, 512]);
        bch.iter(|| {
            matmul_into(std::hint::black_box(&a), std::hint::black_box(&b), &mut out, &mut scratch)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_gemm_512);
criterion_main!(benches);
