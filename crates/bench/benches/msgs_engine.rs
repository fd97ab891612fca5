//! Criterion: MSGS engine simulation, inter- vs intra-level banking on an
//! all-kept mask, and the paper design point on the PAP keep mask serving
//! runs.

use criterion::{criterion_group, criterion_main, Criterion};
use defa_arch::{BankMapping, EventCounters};
use defa_core::{MsgsEngine, MsgsSettings};
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::MsdaConfig;
use defa_prune::pipeline::{run_pruned_encoder_observed_from, PruneSettings};

fn bench_msgs(c: &mut Criterion) {
    let cfg = MsdaConfig::small();
    let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 1).unwrap();
    let out = wl.layer(0).unwrap().forward(wl.initial_fmap(), Some(wl.warp())).unwrap();
    let keep = vec![true; out.locations.len()];
    // The last block of a pruned run: clamped locations, PAP keep mask and
    // the FWP keep fraction, as the accelerator backend simulates them.
    let mut pap = None;
    run_pruned_encoder_observed_from(
        &wl,
        &PruneSettings::paper_defaults(),
        wl.initial_fmap(),
        |_, block, info| {
            pap = Some((
                block.locations.clone(),
                info.point_mask.as_bools().to_vec(),
                info.fmap_mask.keep_fraction(),
            ));
        },
    )
    .unwrap();
    let (pap_locations, pap_keep, pixel_keep) = pap.unwrap();

    let mut group = c.benchmark_group("msgs_engine");
    let cases = [
        ("inter_level", BankMapping::InterLevel, &out.locations, &keep, 1.0),
        ("intra_level", BankMapping::IntraLevel, &out.locations, &keep, 1.0),
        ("pap_mask", BankMapping::InterLevel, &pap_locations, &pap_keep, pixel_keep),
    ];
    for (label, mapping, locations, keep, pixel_keep) in cases {
        let engine =
            MsgsEngine::new(&cfg, MsgsSettings { mapping, ..MsgsSettings::paper_default() })
                .unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut counters = EventCounters::new();
                engine
                    .run_block(
                        std::hint::black_box(locations),
                        std::hint::black_box(keep),
                        pixel_keep,
                        &mut counters,
                    )
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_msgs);
criterion_main!(benches);
