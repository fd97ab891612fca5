//! Criterion: functional MSDeformAttn layer evaluation throughput, and the
//! MSGS + aggregation kernel alone on a small layer's real inputs.

use criterion::{criterion_group, criterion_main, Criterion};
use defa_model::reference::generate_locations;
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::MsdaConfig;
use defa_prune::pap::{point_mask, PapConfig};
use defa_tensor::matmul::matmul;
use std::hint::black_box;

fn bench_reference_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("reference_layer");
    for (label, cfg) in [("tiny", MsdaConfig::tiny()), ("small", MsdaConfig::small())] {
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 1).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                wl.layer(0).unwrap().forward(black_box(wl.initial_fmap()), Some(wl.warp())).unwrap()
            })
        });
    }
    group.finish();

    // `sample_and_aggregate` on layer 0 of a small Deformable DETR
    // workload: every point (the dense forward), then the kept points of
    // its PAP mask (the pruned pipeline).
    let cfg = MsdaConfig::small();
    let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 1).unwrap();
    let layer = wl.layer(0).unwrap();
    let x = wl.initial_fmap();
    let (_, probs) = layer.attention_probs(x).unwrap();
    let offsets = matmul(x.tensor(), &layer.weights().w_offset).unwrap();
    let locations =
        generate_locations(&cfg, layer.references(), &offsets, Some(wl.warp())).unwrap();
    let value = matmul(x.tensor(), &layer.weights().w_value).unwrap();
    let pap = point_mask(&probs, PapConfig::paper_default()).unwrap();
    let mut group = c.benchmark_group("msgs_agg_small");
    group.bench_function("dense", |b| {
        b.iter(|| layer.sample_and_aggregate(black_box(&probs), &locations, &value, None).unwrap())
    });
    group.bench_function("pap_masked", |b| {
        b.iter(|| {
            layer
                .sample_and_aggregate(black_box(&probs), &locations, &value, Some(pap.as_bools()))
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_reference_layer);
criterion_main!(benches);
