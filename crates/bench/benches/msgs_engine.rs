//! Criterion: MSGS engine simulation, inter- vs intra-level banking on an
//! all-kept mask, and the paper design point on the PAP keep mask serving
//! runs; then stage 4 of that block on one thread, as three standalone
//! calls (aggregation, FWP counting, engine) against the pipeline's one
//! kept-slot walk feeding all three.

use criterion::{criterion_group, criterion_main, Criterion};
use defa_arch::{BankMapping, EventCounters};
use defa_core::{MsgsEngine, MsgsSettings};
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::MsdaConfig;
use defa_prune::fwp::SampleFrequency;
use defa_prune::pipeline::{run_pruned_encoder_observed_from, PruneSettings};
use defa_tensor::Tensor;
use std::hint::black_box;

fn bench_msgs(c: &mut Criterion) {
    let cfg = MsdaConfig::small();
    let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 1).unwrap();
    let out = wl.layer(0).unwrap().forward(wl.initial_fmap(), Some(wl.warp())).unwrap();
    let keep = vec![true; out.locations.len()];
    // The last block of a pruned run: its layer, outputs, PAP keep mask
    // and FWP keep fraction, as the accelerator backend simulates them.
    let mut last = None;
    run_pruned_encoder_observed_from(
        &wl,
        &PruneSettings::paper_defaults(),
        wl.initial_fmap(),
        |k, block, info| {
            last = Some((
                k,
                block.clone(),
                info.point_mask.as_bools().to_vec(),
                info.fmap_mask.keep_fraction(),
            ));
        },
    )
    .unwrap();
    let (k, block, pap_keep, pixel_keep) = last.unwrap();

    let mut group = c.benchmark_group("msgs_engine");
    let cases = [
        ("inter_level", BankMapping::InterLevel, &out.locations, &keep, 1.0),
        ("intra_level", BankMapping::IntraLevel, &out.locations, &keep, 1.0),
        ("pap_mask", BankMapping::InterLevel, &block.locations, &pap_keep, pixel_keep),
    ];
    for (label, mapping, locations, keep, pixel_keep) in cases {
        let engine =
            MsgsEngine::new(&cfg, MsgsSettings { mapping, ..MsgsSettings::paper_default() })
                .unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut counters = EventCounters::new();
                engine
                    .run_block(black_box(locations), black_box(keep), pixel_keep, &mut counters)
                    .unwrap()
            })
        });
    }
    group.finish();

    let layer = &wl.quantized_layers(12).unwrap()[k];
    let engine = MsgsEngine::new(&cfg, MsgsSettings::paper_default()).unwrap();
    let (probs, locations, value) = (&block.probs, &block.locations, &block.value);
    let keep = &pap_keep;
    let mut group = c.benchmark_group("stage4_small");
    group.bench_function("three_calls", |b| {
        defa_parallel::with_num_threads(1, || {
            b.iter(|| {
                let output =
                    layer.sample_and_aggregate(black_box(probs), locations, value, Some(keep));
                let mut freq = SampleFrequency::new(&cfg).unwrap();
                freq.record_all(&cfg, locations, Some(keep)).unwrap();
                let mut counters = EventCounters::new();
                let stats = engine.run_block(locations, keep, pixel_keep, &mut counters);
                (output.unwrap(), freq, stats.unwrap())
            })
        })
    });
    group.bench_function("one_walk", |b| {
        defa_parallel::with_num_threads(1, || {
            b.iter(|| {
                let mut freq = SampleFrequency::new(&cfg).unwrap();
                let mut sampler = engine.sampler();
                let mut output = Tensor::zeros([0]);
                layer
                    .sample_and_aggregate_into(
                        black_box(probs),
                        locations,
                        value,
                        Some(keep),
                        &mut (&mut freq, &mut sampler),
                        &mut output,
                    )
                    .unwrap();
                let mut counters = EventCounters::new();
                let stats = sampler.settle(cfg.n_in(), keep, pixel_keep, &mut counters);
                (output, freq, stats.unwrap())
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bench_msgs);
criterion_main!(benches);
