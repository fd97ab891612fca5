//! Criterion: pruned encoder pipeline vs exact encoder.

use criterion::{criterion_group, criterion_main, Criterion};
use defa_core::runner::DefaAccelerator;
use defa_model::encoder::{run_encoder, run_encoder_observed_from};
use defa_model::reference::{generate_kept_locations, generate_locations, recycle_layer_buffers};
use defa_model::workload::{Benchmark, RequestGenerator, SyntheticWorkload};
use defa_model::MsdaConfig;
use defa_prune::pap::{point_mask, PapConfig};
use defa_prune::pipeline::{run_pruned_encoder, run_pruned_encoder_from, PruneSettings};
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

/// Consecutive *different* standard-generator requests (all three
/// scenarios, so the layer buffers change size between requests) through
/// the served entry points on one thread, as a pool worker runs them:
/// `fresh` allocates every request's layer buffers anew, `recycled` runs
/// inside one `recycle_layer_buffers` scope, as the serving runtime runs
/// a batch.
fn bench_served(c: &mut Criterion) {
    let gen = RequestGenerator::standard(&MsdaConfig::small(), 42).unwrap();
    let reqs: Vec<_> = (0..12).map(|id| gen.request(id)).collect();
    let settings = PruneSettings::paper_defaults();
    let accel = DefaAccelerator { measure_fidelity: false, ..DefaAccelerator::paper_default() };
    let entries: [(&str, &dyn Fn(usize) -> defa_tensor::Tensor); 3] = [
        ("dense", &|i| {
            let wl = gen.scenario(reqs[i].scenario).unwrap();
            run_encoder_observed_from(wl, &reqs[i].fmap, |_, _| {}).unwrap()
        }),
        ("pruned", &|i| {
            let wl = gen.scenario(reqs[i].scenario).unwrap();
            run_pruned_encoder_from(wl, &settings, &reqs[i].fmap).unwrap().final_features
        }),
        ("accel", &|i| {
            let wl = gen.scenario(reqs[i].scenario).unwrap();
            accel.run_workload_from(wl, &reqs[i].fmap, &settings).unwrap().final_features
        }),
    ];
    let mut group = c.benchmark_group("served_small");
    for (name, run) in entries {
        for recycled in [false, true] {
            let label = format!("{name}_{}", if recycled { "recycled" } else { "fresh" });
            group.bench_function(&label, |b| {
                defa_parallel::with_num_threads(1, || {
                    let mut next = 0;
                    let mut serve = || {
                        b.iter(|| {
                            next = (next + 1) % reqs.len();
                            run(black_box(next))
                        })
                    };
                    if recycled {
                        recycle_layer_buffers(serve);
                    } else {
                        serve();
                    }
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_served);
criterion_main!(benches);
