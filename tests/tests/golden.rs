//! Golden-path equivalences between independent implementations.
//!
//! The memoized and kept-only compute paths (the warp table, hoisted clamp
//! windows, memoized INT-N weights and the kept-point iteration of the
//! masked stages) must reproduce their per-point references exactly, not
//! approximately.

use defa_model::encoder::run_encoder;
use defa_model::reference::{generate_locations, LayerMasks};
use defa_model::sampling::query_sample_points_into;
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::{ModelError, MsdaConfig, SamplePoint};
use defa_parallel::with_num_threads;
use defa_prune::fwp::SampleFrequency;
use defa_prune::pap::{point_mask, PapConfig};
use defa_prune::pipeline::{run_pruned_encoder, PruneSettings};
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
