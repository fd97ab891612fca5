//! Golden-path equivalences between independent implementations.
//!
//! The memoized and kept-only compute paths (the warp table, hoisted clamp
//! windows, memoized INT-N weights and the kept-point iteration of the
//! masked stages) must reproduce their per-point references exactly, not
//! approximately. So must the MSGS engine's kept-point cycle simulation
//! against its per-group, every-slot reference.

use defa_arch::{
    BankMapping, BankedSram, Dram, EventCounters, PeArray, BA_CHANNELS_PER_BEAT, N_BANKS,
    PRECISION_BITS,
};
use defa_core::{MsgsEngine, MsgsSettings, MsgsStats};
use defa_model::bilinear::Footprint;
use defa_model::encoder::run_encoder;
use defa_model::reference::{generate_locations, LayerMasks};
use defa_model::sampling::{point_slot, query_sample_points_into};
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::{ModelError, MsdaConfig, SamplePoint};
use defa_parallel::with_num_threads;
use defa_prune::fwp::SampleFrequency;
use defa_prune::pap::{point_mask, PapConfig};
use defa_prune::pipeline::{run_pruned_encoder, run_pruned_encoder_observed, PruneSettings};
use defa_prune::range::clamp_locations;
use defa_prune::RangeConfig;
use defa_tensor::matmul::{matmul, matmul_naive};
use defa_tensor::rng::{splitmix64, TensorRng};
use defa_tensor::{QuantParams, Tensor};

/// The pruned pipeline with everything off is the exact encoder: two
/// completely different code paths (per-stage driver vs. monolithic
/// forward) must agree bit-for-bit up to float associativity.
#[test]
fn pipeline_disabled_equals_encoder() {
    for bench in Benchmark::all() {
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(bench, &cfg, 11).unwrap();
        let a = run_encoder(&wl).unwrap();
        let b = run_pruned_encoder(&wl, &PruneSettings::disabled()).unwrap();
        let err = b.final_features.relative_l2_error(&a.final_features).unwrap();
        assert!(err < 1e-6, "{bench}: {err}");
    }
}

/// `forward` equals `attention_probs` + `forward_precomputed`.
#[test]
fn staged_forward_equals_monolithic() {
    let cfg = MsdaConfig::tiny();
    let wl = SyntheticWorkload::generate(Benchmark::DnDetr, &cfg, 12).unwrap();
    let layer = wl.layer(0).unwrap();
    let x = wl.initial_fmap();
    let mono = layer.forward(x, Some(wl.warp())).unwrap();
    let (logits, probs) = layer.attention_probs(x).unwrap();
    let staged = layer
        .forward_precomputed(x, logits, probs, Some(wl.warp()), &LayerMasks::default())
        .unwrap();
    assert_eq!(mono.output, staged.output);
    assert_eq!(mono.locations, staged.locations);
}

/// Blocked GEMM agrees with the naive reference at model-relevant shapes.
#[test]
fn gemm_agrees_at_model_shapes() {
    let mut rng = TensorRng::seed_from(9);
    let cfg = MsdaConfig::tiny();
    let shapes = [
        (cfg.n_in(), cfg.d_model, cfg.points_per_query()),
        (cfg.n_in(), cfg.d_model, 2 * cfg.points_per_query()),
        (cfg.n_in(), cfg.d_model, cfg.d_model),
    ];
    for (m, k, n) in shapes {
        let a = rng.uniform([m, k], -1.0, 1.0);
        let b = rng.uniform([k, n], -1.0, 1.0);
        let fast = matmul(&a, &b).unwrap();
        let gold = matmul_naive(&a, &b).unwrap();
        assert!(fast.relative_l2_error(&gold).unwrap() < 1e-5);
    }
}

/// Sampling locations of the same workload are identical between the
/// monolithic forward and the pruned pipeline (before clamping): the two
/// drivers must generate the same geometry.
#[test]
fn pipelines_agree_on_sampling_geometry() {
    let cfg = MsdaConfig::tiny();
    let wl = SyntheticWorkload::generate(Benchmark::Dino, &cfg, 13).unwrap();
    let mono = wl.layer(0).unwrap().forward(wl.initial_fmap(), Some(wl.warp())).unwrap();
    let mut first_block_locations = None;
    defa_prune::pipeline::run_pruned_encoder_observed(
        &wl,
        &PruneSettings { range_narrowing: false, ..PruneSettings::disabled() },
        |k, out, _| {
            if k == 0 {
                first_block_locations = Some(out.locations.clone());
            }
        },
    )
    .unwrap();
    assert_eq!(first_block_locations.unwrap(), mono.locations);
}

fn bits(pts: &[SamplePoint]) -> Vec<(u8, u32, u32)> {
    pts.iter().map(|p| (p.level, p.x.to_bits(), p.y.to_bits())).collect()
}

/// Layer 0's offsets for the workload's own input.
fn offsets(wl: &SyntheticWorkload) -> Tensor {
    matmul(wl.initial_fmap().tensor(), &wl.layer(0).unwrap().weights().w_offset).unwrap()
}

/// Locations computed point by point: projection, then `SaliencyWarp::apply`.
fn per_point_locations(wl: &SyntheticWorkload, offsets: &Tensor) -> Vec<SamplePoint> {
    let cfg = wl.config();
    let ppq = cfg.points_per_query();
    let mut out = vec![SamplePoint::new(0, 0.0, 0.0); cfg.n_in() * ppq];
    for (i, (pts, reference)) in
        out.chunks_mut(ppq).zip(wl.layer(0).unwrap().references()).enumerate()
    {
        query_sample_points_into(cfg, *reference, offsets.row(i).unwrap(), pts);
        for (slot, pt) in pts.iter_mut().enumerate() {
            wl.warp().apply(i, slot, pt);
        }
    }
    out
}

#[test]
fn generate_locations_equals_per_point_warp() {
    for (cfg, seeds) in [(MsdaConfig::tiny(), &[1u64, 7, 42][..]), (MsdaConfig::small(), &[3, 42])]
    {
        for bench in Benchmark::all() {
            for &seed in seeds {
                let wl = SyntheticWorkload::generate(bench, &cfg, seed).unwrap();
                let off = offsets(&wl);
                let expect = bits(&per_point_locations(&wl, &off));
                for threads in [1, 4] {
                    let got = with_num_threads(threads, || {
                        let refs = wl.layer(0).unwrap().references();
                        generate_locations(&cfg, refs, &off, Some(wl.warp())).unwrap()
                    });
                    assert_eq!(bits(&got), expect, "{bench} seed {seed}, {threads} threads");
                }
            }
        }
    }
}

#[test]
fn warp_bound_to_another_config_is_a_shape_mismatch() {
    let tiny = SyntheticWorkload::generate(Benchmark::Dino, &MsdaConfig::tiny(), 5).unwrap();
    let small = SyntheticWorkload::generate(Benchmark::Dino, &MsdaConfig::small(), 5).unwrap();
    let refs = small.layer(0).unwrap().references();
    let err = generate_locations(small.config(), refs, &offsets(&small), Some(tiny.warp()));
    assert!(matches!(err, Err(ModelError::ShapeMismatch(_))), "{err:?}");
    // The right config with a different query count is rejected too.
    let cfg = tiny.config();
    let half = &tiny.layer(0).unwrap().references()[..cfg.n_in() / 2];
    let off = Tensor::zeros([half.len(), 2 * cfg.points_per_query()]);
    let err = generate_locations(cfg, half, &off, Some(tiny.warp()));
    assert!(matches!(err, Err(ModelError::ShapeMismatch(_))), "{err:?}");
    // Without a warp any query count is fine.
    assert!(generate_locations(cfg, half, &off, None).is_ok());
}

#[test]
fn clamp_locations_equals_per_point_clamp() {
    for cfg in [MsdaConfig::tiny(), MsdaConfig::small()] {
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 9).unwrap();
        let layer = wl.layer(0).unwrap();
        let refs = layer.references();
        let mut locs = generate_locations(&cfg, refs, &offsets(&wl), Some(wl.warp())).unwrap();
        // Far out-of-range points, in every direction, among the real ones.
        let far = [1e6, -1e6, 3.5e4, -0.75, f32::INFINITY, f32::NEG_INFINITY];
        let mut h = 17u64;
        for pt in locs.iter_mut().step_by(7) {
            h = splitmix64(h);
            pt.x = far[(h % 6) as usize];
            pt.y = far[((h >> 8) % 6) as usize];
        }
        let ranges = RangeConfig::paper_defaults(&cfg);
        let ppq = cfg.points_per_query();
        let mut expect = locs.clone();
        let mut expect_moved = 0u64;
        for (g, pt) in expect.iter_mut().enumerate() {
            let (clamped, moved) = ranges.clamp(&cfg, refs[g / ppq], *pt).unwrap();
            *pt = clamped;
            expect_moved += u64::from(moved);
        }
        let moved = clamp_locations(&cfg, &ranges, refs, &mut locs).unwrap();
        assert_eq!(moved, expect_moved);
        assert_eq!(bits(&locs), bits(&expect));
    }
}

/// A random keep mask with roughly `keep_percent` % of entries set.
fn random_mask(len: usize, keep_percent: u64, seed: u64) -> Vec<bool> {
    let mut h = seed;
    (0..len)
        .map(|_| {
            h = splitmix64(h);
            h % 100 < keep_percent
        })
        .collect()
}

#[test]
fn masked_aggregation_equals_zeroed_probabilities() {
    for cfg in [MsdaConfig::tiny(), MsdaConfig::small()] {
        let wl = SyntheticWorkload::generate(Benchmark::DnDetr, &cfg, 13).unwrap();
        let layer = wl.layer(0).unwrap();
        let x = wl.initial_fmap();
        let (_, probs) = layer.attention_probs(x).unwrap();
        let locs =
            generate_locations(&cfg, layer.references(), &offsets(&wl), Some(wl.warp())).unwrap();
        let value = matmul(x.tensor(), &layer.weights().w_value).unwrap();
        let pap = point_mask(&probs, PapConfig::paper_default()).unwrap();
        let masks = [
            pap.as_bools().to_vec(),
            random_mask(locs.len(), 20, 1),
            random_mask(locs.len(), 97, 2),
            vec![false; locs.len()],
        ];
        for mask in &masks {
            let mut zeroed = probs.clone();
            for (p, &keep) in zeroed.as_mut_slice().iter_mut().zip(mask) {
                if !keep {
                    *p = 0.0;
                }
            }
            let expect = layer.sample_and_aggregate(&zeroed, &locs, &value, None).unwrap();
            for threads in [1, 4] {
                let got = with_num_threads(threads, || {
                    layer.sample_and_aggregate(&probs, &locs, &value, Some(mask)).unwrap()
                });
                assert_eq!(got.as_slice().len(), expect.as_slice().len());
                assert!(got
                    .as_slice()
                    .iter()
                    .zip(expect.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
        // A mask of the wrong length is a typed error, not a panic.
        let short = vec![true; locs.len() - 1];
        assert!(matches!(
            layer.sample_and_aggregate(&probs, &locs, &value, Some(&short)),
            Err(ModelError::ShapeMismatch(_))
        ));
    }
}

#[test]
fn masked_record_all_equals_record_over_kept_points() {
    let cfg = MsdaConfig::small();
    let wl = SyntheticWorkload::generate(Benchmark::Dino, &cfg, 21).unwrap();
    let layer = wl.layer(0).unwrap();
    let locs =
        generate_locations(&cfg, layer.references(), &offsets(&wl), Some(wl.warp())).unwrap();
    // Mask lengths that are not a multiple of 64 exercise the tail word.
    for (len, keep_percent) in [(locs.len(), 20), (locs.len() - 37, 50), (61, 80), (0, 50)] {
        let pts = &locs[..len];
        let mask = random_mask(len, keep_percent, len as u64);
        let mut expect = SampleFrequency::new(&cfg).unwrap();
        for (pt, _) in pts.iter().zip(&mask).filter(|(_, k)| **k) {
            expect.record(&cfg, *pt);
        }
        let mut got = SampleFrequency::new(&cfg).unwrap();
        got.record_all(&cfg, pts, Some(&mask)).unwrap();
        assert_eq!(got, expect, "{len} points");
    }
}

#[test]
fn memoized_quantized_layers_equal_a_fresh_fit() {
    let wl =
        SyntheticWorkload::generate(Benchmark::DeformableDetr, &MsdaConfig::small(), 4).unwrap();
    for bits in [8u8, 12, 16, 2] {
        let layers = wl.quantized_layers(bits).unwrap();
        assert_eq!(layers.len(), wl.layers().len());
        for (q, layer) in layers.iter().zip(wl.layers()) {
            let fresh = |t: &Tensor| QuantParams::fit(t, bits).unwrap().fake_quantize(t);
            let w = layer.weights();
            assert_eq!(q.weights().w_attn, fresh(&w.w_attn));
            assert_eq!(q.weights().w_offset, fresh(&w.w_offset));
            assert_eq!(q.weights().w_value, fresh(&w.w_value));
            assert_eq!(q.references(), layer.references());
        }
        // The second call hands out the memo, not a rebuild.
        assert!(std::ptr::eq(layers, wl.quantized_layers(bits).unwrap()));
    }
    for bits in [0u8, 1, 17, u8::MAX] {
        assert!(wl.quantized_layers(bits).is_err(), "{bits} bits");
    }
}

/// The MSGS engine's block simulation as a plain sequential reference.
///
/// Every slot of every `(query, head)` group is visited; a group's kept
/// points list their footprint banks, which one `read_group` serves. The
/// block-level streams (fmap fetch, spill, output) follow as documented on
/// `MsgsEngine::run_block`.
fn reference_msgs_block(
    cfg: &MsdaConfig,
    settings: MsgsSettings,
    locations: &[SamplePoint],
    keep: &[bool],
    pixel_keep: f64,
) -> (MsgsStats, EventCounters) {
    let word_bits = BA_CHANNELS_PER_BEAT * PRECISION_BITS;
    let pe = PeArray::new();
    let mut sram = BankedSram::new(N_BANKS, word_bits).unwrap();
    let mut dram = Dram::hbm2();
    let mut counters = EventCounters::new();
    let mut stats = MsgsStats::default();
    let (ppq, n_levels, n_points, dh) =
        (cfg.points_per_query(), cfg.n_levels(), cfg.n_points, cfg.head_dim());
    let n = locations.len() / ppq;
    let beats = (dh as u64).div_ceil(BA_CHANNELS_PER_BEAT);
    let (n_groups, n_members) = match settings.mapping {
        BankMapping::InterLevel => (n_points, n_levels),
        BankMapping::IntraLevel => (n_levels, n_points),
    };
    for q in 0..n {
        for h in 0..cfg.n_heads {
            for g in 0..n_groups {
                let mut banks = Vec::new();
                for m in 0..n_members {
                    let (l, p) = match settings.mapping {
                        BankMapping::InterLevel => (m, g),
                        BankMapping::IntraLevel => (g, m),
                    };
                    let slot = q * ppq + point_slot(cfg, h, l, p);
                    if keep[slot] {
                        let pt = locations[slot];
                        let n0 = Footprint::at(pt.x, pt.y).neighbors[0];
                        let fp = settings.mapping.footprint_banks(pt.level as usize, n0.y, n0.x);
                        banks.extend(fp.unwrap());
                    }
                }
                if banks.is_empty() {
                    continue;
                }
                let points = banks.len() / 4;
                let service = sram.read_group(&banks).unwrap();
                stats.cycles += pe.run_ba_group(points, dh, service, &mut counters);
                stats.groups += 1;
                stats.points += points as u64;
                sram.read_stream((beats - 1) * banks.len() as u64);
            }
        }
    }
    stats.conflicts = sram.conflicts();

    let fetch_bits = if settings.fmap_reuse {
        (cfg.n_in() as f64 * pixel_keep).round() as u64 * cfg.d_model as u64 * PRECISION_BITS
    } else {
        let ranges = RangeConfig::paper_defaults(cfg);
        let mut fetches = 0u64;
        for q in 0..n {
            for h in 0..cfg.n_heads {
                for (l, range) in ranges.ranges().iter().enumerate() {
                    if (0..n_points).any(|p| keep[q * ppq + point_slot(cfg, h, l, p)]) {
                        fetches += (2 * range.half_h as u64 + 2) * dh as u64;
                    }
                }
            }
        }
        fetches * PRECISION_BITS
    };
    dram.read(fetch_bits);
    sram.write_stream(fetch_bits / word_bits);
    stats.fmap_fetch_bits = fetch_bits;
    if !settings.fused {
        let bits = stats.points * dh as u64 * PRECISION_BITS;
        sram.write_stream(bits / word_bits);
        sram.read_stream(bits / word_bits);
        dram.write(bits);
        dram.read(bits);
        stats.spill_bits = 2 * bits;
    }
    let out_bits = (n * cfg.d_model) as u64 * PRECISION_BITS;
    sram.write_stream(out_bits / word_bits);
    dram.write(out_bits);
    sram.drain_into(&mut counters);
    dram.drain_into(&mut counters);
    (stats, counters)
}

#[test]
fn msgs_engine_equals_per_group_reference() {
    for cfg in [MsdaConfig::tiny(), MsdaConfig::small()] {
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 9).unwrap();
        // The last block of a pruned run: its real PAP mask, its clamped
        // locations and the FWP keep fraction of its value projection.
        let mut block = None;
        run_pruned_encoder_observed(&wl, &PruneSettings::paper_defaults(), |_, out, info| {
            block = Some((
                out.locations.clone(),
                info.point_mask.as_bools().to_vec(),
                info.fmap_mask.keep_fraction(),
            ));
        })
        .unwrap();
        let (locs, pap, pixel_keep) = block.unwrap();
        assert!(pixel_keep < 1.0);
        let masks = [
            ("all", vec![true; locs.len()]),
            ("none", vec![false; locs.len()]),
            ("pap", pap),
            ("random", random_mask(locs.len(), 19, 7)),
        ];
        for mapping in [BankMapping::InterLevel, BankMapping::IntraLevel] {
            for fused in [true, false] {
                for fmap_reuse in [true, false] {
                    let settings = MsgsSettings { mapping, fused, fmap_reuse };
                    let engine = MsgsEngine::new(&cfg, settings).unwrap();
                    for (label, keep) in &masks {
                        let expect = reference_msgs_block(&cfg, settings, &locs, keep, pixel_keep);
                        for threads in [1, 4] {
                            let mut counters = EventCounters::new();
                            let stats = with_num_threads(threads, || {
                                engine.run_block(&locs, keep, pixel_keep, &mut counters).unwrap()
                            });
                            let at = format!("{settings:?} {label} mask, {threads} threads");
                            assert_eq!((stats, counters), expect, "{at}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn footprint_anchor_is_the_top_left_neighbor() {
    let edges = [
        0.0f32,
        -0.0,
        0.5,
        -0.5,
        -1.0,
        -1.5,
        8_388_607.5,
        -8_388_607.5,
        8_388_608.0,
        -8_388_608.0,
        -8_388_609.0,
        3e9,
        -3e9,
        f32::MAX,
        f32::MIN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    let mut state = 0xA7C4_0B5Eu64;
    let mut random = || {
        state = splitmix64(state);
        f32::from_bits(state as u32)
    };
    let pairs: Vec<(f32, f32)> = edges
        .iter()
        .flat_map(|&x| edges.iter().map(move |&y| (x, y)))
        .chain((0..20_000).map(|_| (random(), random())))
        .chain((-300..300).map(|i| (i as f32 / 16.0, -(i as f32) / 7.0)))
        .collect();
    for (x, y) in pairs {
        let n0 = Footprint::at(x, y).neighbors[0];
        assert_eq!(Footprint::anchor(x, y), (n0.x, n0.y), "anchor({x:e}, {y:e})");
    }
}
