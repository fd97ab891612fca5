//! Criterion: functional MSDeformAttn layer evaluation throughput, stage
//! 1 (softmax + PAP) and the MSGS + aggregation kernel alone on a small
//! layer's real inputs.

use criterion::{criterion_group, criterion_main, Criterion};
use defa_model::reference::generate_locations;
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::MsdaConfig;
use defa_prune::pap::{point_mask, retained_mass, PapConfig};
use defa_prune::BitMask;
use defa_tensor::matmul::matmul;
use defa_tensor::softmax::{softmax_heads_thresholded, Thresholded};
use defa_tensor::Tensor;
use std::hint::black_box;

/// Stage 1 after the logits GEMM, as three passes: a copy of the logits,
/// a per-head softmax per query row over the C library's `expf`, then the
/// reference mask and mass passes.
fn stage1_three_passes(logits: &Tensor, head_len: usize, pap: PapConfig) -> (Tensor, BitMask, f64) {
    let mut probs = logits.clone();
    let row_len = probs.shape().dims()[1];
    defa_parallel::par_chunks_mut(probs.as_mut_slice(), row_len, |_, row| {
        for head in row.chunks_exact_mut(head_len) {
            let max = head.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            let mut sum = 0.0f32;
            for v in head.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                head.iter_mut().for_each(|v| *v /= sum);
            }
        }
    });
    let mask = point_mask(&probs, pap).unwrap();
    let mass = retained_mass(&probs, &mask).unwrap();
    (probs, mask, mass)
}

/// The same stage as one pass per query row over the copy.
fn stage1_one_pass(logits: &Tensor, head_len: usize, pap: PapConfig) -> (Tensor, Thresholded) {
    let mut probs = logits.clone();
    let mask = softmax_heads_thresholded(&mut probs, head_len, pap.threshold).unwrap();
    (probs, mask)
}

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

    // Stage 1 on the same layer's logits: the three passes over the C
    // library's `expf` against the one-pass row walk.
    let logits = matmul(x.tensor(), &layer.weights().w_attn).unwrap();
    let lp = cfg.points_per_head();
    let pap_cfg = PapConfig::paper_default();
    let mut group = c.benchmark_group("stage1_small");
    group.bench_function("three_passes_libm", |b| {
        b.iter(|| stage1_three_passes(black_box(&logits), lp, pap_cfg))
    });
    group.bench_function("one_pass", |b| {
        b.iter(|| stage1_one_pass(black_box(&logits), lp, pap_cfg))
    });
    group.finish();

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
