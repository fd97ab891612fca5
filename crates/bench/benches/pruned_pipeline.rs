//! Criterion: pruned encoder pipeline vs exact encoder.

use criterion::{criterion_group, criterion_main, Criterion};
use defa_model::encoder::run_encoder;
use defa_model::reference::{generate_kept_locations, generate_locations};
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::MsdaConfig;
use defa_prune::pap::{point_mask, PapConfig};
use defa_prune::pipeline::{run_pruned_encoder, PruneSettings};
use defa_prune::range::{clamp_locations, RangeConfig};
use defa_tensor::matmul::matmul;
use defa_tensor::QuantParams;
use std::hint::black_box;

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

    // Stage 2 of one small block: the all-slot location table and clamp
    // against the fused pass over a real PAP mask's kept slots, plus the
    // INT12 fake-quantization a pruned request applies to each fmap.
    let cfg = small.config();
    let layer = small.layer(0).unwrap();
    let x = small.initial_fmap();
    let refs = layer.references();
    let offsets = matmul(x.tensor(), &layer.weights().w_offset).unwrap();
    let (_, probs) = layer.attention_probs(x).unwrap();
    let pap = point_mask(&probs, PapConfig::paper_default()).unwrap();
    let ranges = RangeConfig::paper_defaults(cfg);
    let half_extents = ranges.half_extents(cfg).unwrap();
    let mut group = c.benchmark_group("stage2_small");
    group.bench_function("all_slot_generate_clamp", |b| {
        b.iter(|| {
            let mut locs =
                generate_locations(cfg, refs, black_box(&offsets), Some(small.warp())).unwrap();
            clamp_locations(cfg, &ranges, refs, &mut locs).unwrap();
            locs
        })
    });
    group.bench_function("fused_kept_pap", |b| {
        b.iter(|| {
            generate_kept_locations(
                cfg,
                refs,
                black_box(&offsets),
                Some(small.warp()),
                pap.as_bools(),
                Some(&half_extents),
            )
            .unwrap()
        })
    });
    group.bench_function("fit_fake_quantize", |b| {
        b.iter(|| {
            let t = black_box(x.tensor());
            QuantParams::fit(t, 12).unwrap().fake_quantize(t)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
