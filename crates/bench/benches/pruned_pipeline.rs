//! Criterion: pruned encoder pipeline vs exact encoder.

use criterion::{criterion_group, criterion_main, Criterion};
use defa_model::encoder::run_encoder;
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::MsdaConfig;
use defa_prune::pipeline::{run_pruned_encoder, PruneSettings};

fn bench_pipeline(c: &mut Criterion) {
    let cfg = MsdaConfig::tiny();
    let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 1).unwrap();
    let mut group = c.benchmark_group("encoder");
    group.bench_function("exact", |b| b.iter(|| run_encoder(std::hint::black_box(&wl)).unwrap()));
    group.bench_function("pruned_paper_defaults", |b| {
        b.iter(|| {
            run_pruned_encoder(std::hint::black_box(&wl), &PruneSettings::paper_defaults()).unwrap()
        })
    });
    group.bench_function("pruned_disabled", |b| {
        b.iter(|| {
            run_pruned_encoder(std::hint::black_box(&wl), &PruneSettings::disabled()).unwrap()
        })
    });
    group.finish();

    // At small scale the masked stages, not fixed per-call costs, decide
    // whether pruning beats the exact encoder.
    let small =
        SyntheticWorkload::generate(Benchmark::DeformableDetr, &MsdaConfig::small(), 1).unwrap();
    let mut group = c.benchmark_group("encoder_small");
    group
        .bench_function("exact", |b| b.iter(|| run_encoder(std::hint::black_box(&small)).unwrap()));
    group.bench_function("pruned_paper_defaults", |b| {
        b.iter(|| {
            run_pruned_encoder(std::hint::black_box(&small), &PruneSettings::paper_defaults())
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
