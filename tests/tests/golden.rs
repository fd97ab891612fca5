//! Golden-path equivalences between independent implementations.
//!
//! The memoized and kept-only compute paths (the warp table, hoisted clamp
//! windows, memoized INT-N weights and the kept-point iteration of the
//! masked stages) must reproduce their per-point references exactly, not
//! approximately. So must the MSGS engine's kept-point cycle simulation
//! against its per-group, every-slot reference, and the one-pass stage 1
//! against a softmax over the C library's `expf` followed by the PAP mask.

use defa_arch::{
    ArchError, BankMapping, BankedSram, Dram, EventCounters, PeArray, BA_CHANNELS_PER_BEAT,
    N_BANKS, PRECISION_BITS,
};
use defa_core::dataflow::{simulate_block, BlockPruning};
use defa_core::{CoreError, DefaAccelerator, MsgsEngine, MsgsSettings, MsgsStats, StageCycles};
use defa_model::bilinear::Footprint;
use defa_model::decoder::{DecoderConfig, DecoderWorkload};
use defa_model::encoder::run_encoder;
use defa_model::reference::{generate_kept_locations, generate_locations};
use defa_model::sampling::{point_slot, query_sample_points_into};
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::{ModelError, MsdaConfig, MsdaLayer, SamplePoint};
use defa_parallel::with_num_threads;
use defa_prune::fwp::SampleFrequency;
use defa_prune::pap::{point_mask, probs_and_mask, retained_mass, PapConfig};
use defa_prune::pipeline::{run_pruned_encoder, run_pruned_encoder_observed_from, PruneSettings};
use defa_prune::range::clamp_locations;
use defa_prune::{BoundedRange, PruneError, RangeConfig};
use defa_tensor::matmul::{matmul, matmul_naive};
use defa_tensor::qlinear::quantized_matmul;
use defa_tensor::rng::{splitmix64, TensorRng};
use defa_tensor::softmax::{softmax_heads, softmax_heads_thresholded};
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

/// The tiled GEMM agrees with the naive reference at model-relevant shapes.
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
    run_pruned_encoder_observed_from(
        &wl,
        &PruneSettings { range_narrowing: false, ..PruneSettings::disabled() },
        wl.initial_fmap(),
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

/// The pruned pipeline's fused kept-slot pass equals the all-slot
/// `generate_locations` + `clamp_locations` on every kept slot, leaves
/// pruned slots zeroed and counts exactly the kept points the clamp moves.
#[test]
fn kept_locations_equal_all_slot_generate_and_clamp() {
    let far = [1e6, -1e6, 3.5e4, -0.75, f32::INFINITY, f32::NEG_INFINITY];
    for cfg in [MsdaConfig::tiny(), MsdaConfig::small()] {
        let ppq = cfg.points_per_query();
        let len = cfg.n_in() * ppq;
        let ranges = RangeConfig::paper_defaults(&cfg);
        let half_extents = ranges.half_extents(&cfg).unwrap();
        for bench in Benchmark::all() {
            let wl = SyntheticWorkload::generate(bench, &cfg, 31).unwrap();
            let layer = wl.layer(0).unwrap();
            let refs = layer.references();
            // Real offsets with far out-of-range ones mixed in.
            let mut off = offsets(&wl);
            for (j, o) in off.as_mut_slice().iter_mut().enumerate().step_by(11) {
                *o = far[j % far.len()];
            }
            let (_, probs) = layer.attention_probs(wl.initial_fmap()).unwrap();
            let pap = point_mask(&probs, PapConfig::paper_default()).unwrap();
            let masks = [
                ("all", vec![true; len]),
                ("none", vec![false; len]),
                ("pap", pap.as_bools().to_vec()),
                ("random", random_mask(len, 19, 5)),
            ];
            let unclamped = generate_locations(&cfg, refs, &off, Some(wl.warp())).unwrap();
            let mut clamped = unclamped.clone();
            clamp_locations(&cfg, &ranges, refs, &mut clamped).unwrap();
            for (all_slot, half) in [(&unclamped, None), (&clamped, Some(&half_extents[..]))] {
                for (label, keep) in &masks {
                    let expect: Vec<SamplePoint> = all_slot
                        .iter()
                        .zip(keep)
                        .map(|(&pt, &k)| if k { pt } else { SamplePoint::new(0, 0.0, 0.0) })
                        .collect();
                    let expect_moved = match half {
                        Some(_) => (0..len)
                            .filter(|&g| keep[g])
                            .filter(|&g| ranges.clamp(&cfg, refs[g / ppq], unclamped[g]).unwrap().1)
                            .count() as u64,
                        None => 0,
                    };
                    for threads in [1, 4] {
                        let (got, moved) = with_num_threads(threads, || {
                            generate_kept_locations(&cfg, refs, &off, Some(wl.warp()), keep, half)
                                .unwrap()
                        });
                        let at = format!(
                            "{bench} {:?}, {label} mask, clamp {}, {threads} threads",
                            cfg.levels,
                            half.is_some()
                        );
                        assert_eq!(bits(&got), bits(&expect), "{at}");
                        assert_eq!(moved, expect_moved, "{at}");
                    }
                }
            }
            // A keep mask of the wrong length is a typed error.
            let short = vec![true; len - 1];
            let err = generate_kept_locations(&cfg, refs, &off, Some(wl.warp()), &short, None);
            assert!(matches!(err, Err(ModelError::ShapeMismatch(_))), "{err:?}");
        }
        // Fewer ranges than levels is a typed error, on both sides.
        let one = RangeConfig::new(vec![BoundedRange::new(2, 2)]).unwrap();
        let err = one.half_extents(&cfg);
        assert!(matches!(err, Err(PruneError::ShapeMismatch(_))), "{err:?}");
        let wl = SyntheticWorkload::generate(Benchmark::Dino, &cfg, 31).unwrap();
        let refs = wl.layer(0).unwrap().references();
        let keep = vec![true; len];
        let err =
            generate_kept_locations(&cfg, refs, &offsets(&wl), None, &keep, Some(&[[2, 2]][..]));
        assert!(matches!(err, Err(ModelError::ShapeMismatch(_))), "{err:?}");
    }
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

/// The per-point aggregation loop `MsdaLayer::sample_and_aggregate` ran
/// before its lane-parallel kernel, kept as the kernel's oracle: slots in
/// increasing order, kept slots only, a zero probability skips the slot,
/// and `Footprint::at(..).in_bounds(..)` neighbours with a zero weight are
/// skipped.
fn aggregate_per_point(
    cfg: &MsdaConfig,
    probs: &Tensor,
    locations: &[SamplePoint],
    value: &Tensor,
    point_mask: Option<&[bool]>,
) -> Vec<f32> {
    let (d, dh, lp, ppq) =
        (cfg.d_model, cfg.head_dim(), cfg.points_per_head(), cfg.points_per_query());
    let (pdata, vdata) = (probs.as_slice(), value.as_slice());
    let mut out = vec![0f32; probs.shape().dims()[0] * d];
    for (i, orow_all) in out.chunks_mut(d).enumerate() {
        for slot in 0..ppq {
            if point_mask.is_some_and(|m| !m[i * ppq + slot]) {
                continue;
            }
            let w = pdata[i * ppq + slot];
            if w == 0.0 {
                continue;
            }
            let chan0 = slot / lp * dh;
            let orow = &mut orow_all[chan0..chan0 + dh];
            let pt = locations[i * ppq + slot];
            let shape = cfg.levels[pt.level as usize];
            let base = cfg.level_offset(pt.level as usize).unwrap();
            for nb in Footprint::at(pt.x, pt.y).in_bounds(shape) {
                if nb.weight == 0.0 {
                    continue;
                }
                let token = base + nb.y as usize * shape.w + nb.x as usize;
                let px = &vdata[token * d + chan0..token * d + chan0 + dh];
                let ww = w * nb.weight;
                for (o, &v) in orow.iter_mut().zip(px) {
                    *o += ww * v;
                }
            }
        }
    }
    out
}

/// Bit equality, except that any NaN equals any NaN: Rust leaves the
/// payload of a NaN result unspecified, so it may differ between two
/// compilations of the same expression.
fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan())
}

/// `locs` with every third location moved onto or beyond an edge of its
/// level, per axis: −1, −0.5, ±0, w−1, w−0.5, w, ±2²³, ±2³¹, ±∞, NaN or
/// 0.25 (with w the level's extent on that axis).
fn edge_locations(cfg: &MsdaConfig, locs: &[SamplePoint]) -> Vec<SamplePoint> {
    let edges = |e: f32| {
        [
            -1.0,
            -0.5,
            -0.0,
            0.0,
            e - 1.0,
            e - 0.5,
            e,
            8_388_608.0,
            -8_388_608.0,
            2_147_483_648.0,
            -2_147_483_648.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            0.25,
        ]
    };
    let mut out = locs.to_vec();
    let mut h = 23u64;
    for pt in out.iter_mut().step_by(3) {
        h = splitmix64(h);
        let shape = cfg.levels[pt.level as usize];
        let (xs, ys) = (edges(shape.w as f32), edges(shape.h as f32));
        pt.x = xs[h as usize % xs.len()];
        pt.y = ys[(h >> 32) as usize % ys.len()];
    }
    out
}

/// The lane-parallel aggregation kernel equals the per-point loop bit for
/// bit: on real layers of every benchmark at two scales, and at a shape
/// with a head dimension that is not a multiple of 8 (a scalar channel
/// tail) and more points per head than one footprint pass holds, under no mask,
/// all-keep, all-drop, PAP and random masks, at 1 and 4 threads, for a
/// decoder-shaped query count, and at locations on and beyond every edge
/// of a level (including ±2²³, ±2³¹, ±∞ and NaN) with some probabilities
/// exactly zero, over finite and partly infinite values.
#[test]
fn lane_parallel_aggregation_equals_per_point_loop() {
    let check = |layer: &MsdaLayer,
                 probs: &Tensor,
                 locs: &[SamplePoint],
                 value: &Tensor,
                 mask: Option<&[bool]>,
                 what: &str| {
        let want = aggregate_per_point(layer.config(), probs, locs, value, mask);
        for threads in [1, 4] {
            let got = with_num_threads(threads, || {
                layer.sample_and_aggregate(probs, locs, value, mask).unwrap()
            });
            assert!(same_bits(got.as_slice(), &want), "{what}, {threads} thread(s)");
        }
    };
    let odd = MsdaConfig { d_model: 24, n_heads: 2, n_points: 17, ..MsdaConfig::tiny() };
    for cfg in [MsdaConfig::tiny(), MsdaConfig::small(), odd] {
        for bench in Benchmark::all() {
            let wl = SyntheticWorkload::generate(bench, &cfg, 17).unwrap();
            let layer = wl.layer(0).unwrap();
            let x = wl.initial_fmap();
            let (_, probs) = layer.attention_probs(x).unwrap();
            let locs = generate_locations(&cfg, layer.references(), &offsets(&wl), Some(wl.warp()))
                .unwrap();
            let value = matmul(x.tensor(), &layer.weights().w_value).unwrap();
            let len = locs.len();
            let pap = point_mask(&probs, PapConfig::paper_default()).unwrap();
            let masks = [
                ("no mask", None),
                ("all-keep", Some(vec![true; len])),
                ("all-drop", Some(vec![false; len])),
                ("PAP", Some(pap.as_bools().to_vec())),
                ("random 19%", Some(random_mask(len, 19, 5))),
            ];
            for (name, mask) in &masks {
                let what = format!("{bench} {cfg:?}, {name}");
                check(layer, &probs, &locs, &value, mask.as_deref(), &what);
            }

            // Decoder-shaped: fewer query rows than tokens.
            let ppq = cfg.points_per_query();
            let nq = 7;
            let dec_probs =
                Tensor::from_vec(probs.as_slice()[..nq * ppq].to_vec(), [nq, ppq]).unwrap();
            check(layer, &dec_probs, &locs[..nq * ppq], &value, None, "decoder-shaped");

            // Edge and non-finite locations, with some probabilities zero.
            let edge_locs = edge_locations(&cfg, &locs);
            let mut edge_probs = probs.clone();
            for p in edge_probs.as_mut_slice().iter_mut().step_by(15) {
                *p = 0.0;
            }
            for (name, mask) in &masks {
                let what = format!("{bench} {cfg:?}, edges, {name}");
                check(layer, &edge_probs, &edge_locs, &value, mask.as_deref(), &what);
            }
            // An infinite value makes a skipped tap visible: a zero weight
            // or probability times ±∞ is NaN. Salt each head's first
            // channel of every third token.
            let mut salted = value.clone();
            for (t, row) in salted.as_mut_slice().chunks_mut(cfg.d_model).enumerate().step_by(3) {
                for c in (0..cfg.d_model).step_by(cfg.head_dim()) {
                    row[c] = if t % 2 == 0 { f32::INFINITY } else { f32::NEG_INFINITY };
                }
            }
            for (name, mask) in &masks {
                let what = format!("{bench} {cfg:?}, edges, ±inf values, {name}");
                check(layer, &edge_probs, &edge_locs, &salted, mask.as_deref(), &what);
            }
        }
    }
}

/// FWP's walk-based `record_all` counts exactly what the per-point
/// `record` counts over the kept points: on real locations and on edge and
/// non-finite ones with a kept slot naming a missing level (ignored by
/// both), for lengths that are not a whole number of queries, at 1 and 4
/// threads.
#[test]
fn masked_record_all_equals_record_over_kept_points() {
    let cfg = MsdaConfig::small();
    let wl = SyntheticWorkload::generate(Benchmark::Dino, &cfg, 21).unwrap();
    let layer = wl.layer(0).unwrap();
    let locs =
        generate_locations(&cfg, layer.references(), &offsets(&wl), Some(wl.warp())).unwrap();
    let mut edges = edge_locations(&cfg, &locs);
    edges[7].level = cfg.n_levels() as u8;
    for (name, locs) in [("real", &locs), ("edges", &edges)] {
        // Mask lengths that are not a multiple of 64 exercise the tail word.
        for (len, keep_percent) in [(locs.len(), 20), (locs.len() - 37, 50), (61, 80), (0, 50)] {
            let pts = &locs[..len];
            let mut mask = random_mask(len, keep_percent, len as u64);
            if let Some(k) = mask.get_mut(7) {
                *k = true;
            }
            let mut expect = SampleFrequency::new(&cfg).unwrap();
            for (pt, _) in pts.iter().zip(&mask).filter(|(_, k)| **k) {
                expect.record(&cfg, *pt);
            }
            for threads in [1, 4] {
                let mut got = SampleFrequency::new(&cfg).unwrap();
                with_num_threads(threads, || got.record_all(&cfg, pts, Some(&mask))).unwrap();
                assert_eq!(got, expect, "{name}, {len} points, {threads} threads");
            }
        }
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

/// The integer-datapath golden (INT-N codes, `i64` accumulation, one
/// output scale) equals the pipeline's INT-N emulation — fake-quantized
/// activations times the memoized fake-quantized weights it runs — up to
/// `f32` accumulation rounding, for every projection of every layer.
#[test]
fn integer_gemm_equals_fake_quantized_pipeline_weights() {
    for bench in Benchmark::all() {
        for cfg in [MsdaConfig::tiny(), MsdaConfig::small()] {
            let wl = SyntheticWorkload::generate(bench, &cfg, 5).unwrap();
            let x = wl.initial_fmap().tensor();
            for bits in [8u8, 12] {
                let xq = QuantParams::fit(x, bits).unwrap().fake_quantize(x);
                let quantized = wl.quantized_layers(bits).unwrap();
                for (k, (layer, q)) in wl.layers().iter().zip(quantized).enumerate() {
                    let (w, qw) = (layer.weights(), q.weights());
                    for (name, w, qw) in [
                        ("attn", &w.w_attn, &qw.w_attn),
                        ("offset", &w.w_offset, &qw.w_offset),
                        ("value", &w.w_value, &qw.w_value),
                    ] {
                        let integer = quantized_matmul(x, w, bits).unwrap();
                        let emulated = matmul(&xq, qw).unwrap();
                        let err = integer.relative_l2_error(&emulated).unwrap();
                        assert!(err < 1e-5, "{bench} {bits}-bit layer {k} {name}: {err}");
                    }
                }
            }
        }
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
        // The last block of a run: its clamped locations, its PAP mask and
        // the FWP keep fraction of its value projection.
        let last_block = |settings: &PruneSettings| {
            let mut block = None;
            run_pruned_encoder_observed_from(&wl, settings, wl.initial_fmap(), |_, out, info| {
                block = Some((
                    out.locations.clone(),
                    info.point_mask.as_bools().to_vec(),
                    info.fmap_mask.keep_fraction(),
                ));
            })
            .unwrap();
            block.unwrap()
        };
        let (pruned_locs, pap, pixel_keep) = last_block(&PruneSettings::paper_defaults());
        assert!(pixel_keep < 1.0);
        // A pruned run locates kept slots only, so the other masks run over
        // the same block with PAP off, where every slot is located.
        let (locs, _, _) =
            last_block(&PruneSettings { pap: None, ..PruneSettings::paper_defaults() });
        // Edge and non-finite anchors (±2³¹ and ±∞ saturate the anchor's
        // integer cast), and a kept slot naming a missing level.
        let edges = edge_locations(&cfg, &locs);
        let mut missing = edges.clone();
        missing[5].level = cfg.n_levels() as u8;
        let masks = [
            ("all", &locs, vec![true; locs.len()]),
            ("none", &locs, vec![false; locs.len()]),
            ("pap", &pruned_locs, pap),
            ("random", &locs, random_mask(locs.len(), 19, 7)),
            ("edges, all", &edges, vec![true; locs.len()]),
            ("edges, random", &edges, random_mask(locs.len(), 19, 7)),
            ("missing level", &missing, vec![true; locs.len()]),
        ];
        for mapping in [BankMapping::InterLevel, BankMapping::IntraLevel] {
            for fused in [true, false] {
                for fmap_reuse in [true, false] {
                    let settings = MsgsSettings { mapping, fused, fmap_reuse };
                    let engine = MsgsEngine::new(&cfg, settings).unwrap();
                    for (label, locs, keep) in &masks {
                        // Inter-level mapping has bank groups for 4 levels.
                        let no_banks = mapping == BankMapping::InterLevel
                            && locs.iter().any(|pt| pt.level >= 4);
                        let expect = (!no_banks)
                            .then(|| reference_msgs_block(&cfg, settings, locs, keep, pixel_keep));
                        for threads in [1, 4] {
                            let mut counters = EventCounters::new();
                            let got = with_num_threads(threads, || {
                                engine.run_block(locs, keep, pixel_keep, &mut counters)
                            });
                            let at = format!("{settings:?} {label} mask, {threads} threads");
                            match &expect {
                                Some(expect) => {
                                    assert_eq!((got.unwrap(), counters), *expect, "{at}")
                                }
                                None => assert!(
                                    matches!(
                                        got,
                                        Err(CoreError::Arch(ArchError::OutOfRange { .. }))
                                    ),
                                    "{at}: {got:?}"
                                ),
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Stage 4 as the pruned pipeline runs it — one walk feeding the
/// aggregation, FWP counting and the MSGS engine — equals the three
/// standalone calls: `sample_and_aggregate` bit for bit, `record` over the
/// kept points, and the per-group engine reference; on all, none, PAP and
/// random masks, both bank mappings, at 1 and 4 threads, including a
/// shape whose heads span two keep words and three passes. The
/// accelerator's run, which prices each block from that walk, equals
/// replaying every block through `simulate_block`.
#[test]
fn fused_stage4_equals_standalone_calls() {
    let wide = MsdaConfig { n_points: 40, ..MsdaConfig::tiny() };
    for cfg in [MsdaConfig::tiny(), MsdaConfig::small(), wide] {
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 12).unwrap();
        let last_block = |settings: &PruneSettings| {
            let mut block = None;
            run_pruned_encoder_observed_from(&wl, settings, wl.initial_fmap(), |k, out, info| {
                block = Some((k, out.clone(), info.point_mask.as_bools().to_vec()));
            })
            .unwrap();
            block.unwrap()
        };
        let (k, pruned, pap) = last_block(&PruneSettings::paper_defaults());
        let (_, dense, _) =
            last_block(&PruneSettings { pap: None, ..PruneSettings::paper_defaults() });
        let layer = &wl.quantized_layers(12).unwrap()[k];
        let len = dense.locations.len();
        let masks = [
            ("all", &dense, vec![true; len]),
            ("none", &dense, vec![false; len]),
            ("pap", &pruned, pap),
            ("random", &dense, random_mask(len, 19, 3)),
        ];
        for mapping in [BankMapping::InterLevel, BankMapping::IntraLevel] {
            let settings = MsgsSettings { mapping, ..MsgsSettings::paper_default() };
            let engine = MsgsEngine::new(&cfg, settings).unwrap();
            for (label, out, keep) in &masks {
                let (probs, locs, value) = (&out.probs, &out.locations, &out.value);
                let want_out = layer.sample_and_aggregate(probs, locs, value, Some(keep)).unwrap();
                let mut want_freq = SampleFrequency::new(&cfg).unwrap();
                for (pt, _) in locs.iter().zip(keep.iter()).filter(|(_, k)| **k) {
                    want_freq.record(&cfg, *pt);
                }
                let want_msgs = reference_msgs_block(&cfg, settings, locs, keep, 0.5);
                for threads in [1, 4] {
                    let mut freq = SampleFrequency::new(&cfg).unwrap();
                    let mut sampler = engine.sampler();
                    let mut counters = EventCounters::new();
                    let (got_out, stats) = with_num_threads(threads, || {
                        // A stale, wrongly shaped buffer: the walk must
                        // resize and zero it before accumulating.
                        let mut got = Tensor::full([3, 5], 7.0);
                        layer
                            .sample_and_aggregate_into(
                                probs,
                                locs,
                                value,
                                Some(keep),
                                &mut (Some(&mut freq), &mut sampler),
                                &mut got,
                            )
                            .unwrap();
                        (got, sampler.settle(cfg.n_in(), keep, 0.5, &mut counters).unwrap())
                    });
                    let at =
                        format!("{:?} {mapping:?} {label} mask, {threads} threads", cfg.levels);
                    assert!(same_bits(got_out.as_slice(), want_out.as_slice()), "{at}");
                    assert_eq!(freq, want_freq, "{at}");
                    assert_eq!((stats, counters), want_msgs, "{at}");
                }
            }
        }
        let accel = DefaAccelerator { measure_fidelity: false, ..DefaAccelerator::paper_default() };
        let prune = PruneSettings::paper_defaults();
        let fused = accel.run_workload(&wl, &prune).unwrap();
        let engine = MsgsEngine::new(&cfg, accel.msgs).unwrap();
        let mut counters = EventCounters::new();
        let mut stages = StageCycles::default();
        let mut msgs = MsgsStats::default();
        run_pruned_encoder_observed_from(&wl, &prune, wl.initial_fmap(), |_, out, info| {
            let pruning = BlockPruning {
                point_keep: info.point_mask.keep_fraction(),
                pixel_keep: info.fmap_mask.keep_fraction(),
            };
            let keep = info.point_mask.as_bools();
            let (s, st) = simulate_block(
                &cfg,
                &engine,
                &accel.pe,
                &out.locations,
                keep,
                pruning,
                &mut counters,
            )
            .unwrap();
            stages += st;
            msgs.groups += s.groups;
            msgs.points += s.points;
            msgs.cycles += s.cycles;
            msgs.conflicts += s.conflicts;
            msgs.fmap_fetch_bits += s.fmap_fetch_bits;
            msgs.spill_bits += s.spill_bits;
        })
        .unwrap();
        assert_eq!((fused.counters, fused.msgs, fused.stages), (counters, msgs, stages));
    }
}

/// A per-head softmax over the C library's `expf`: how every softmax in
/// the workspace computed its probabilities before it owned its `exp`.
fn libm_softmax_heads(logits: &Tensor, head_len: usize) -> Tensor {
    let mut probs = logits.clone();
    for head in probs.as_mut_slice().chunks_exact_mut(head_len) {
        let max = head.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let mut sum = 0.0f32;
        for x in head.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        if sum > 0.0 {
            head.iter_mut().for_each(|x| *x /= sum);
        }
    }
    probs
}

/// The one-pass stage 1 (`softmax_heads_thresholded`, and through it
/// `probs_and_mask`, `attention_probs` and the decoder's cross-attention)
/// equals a libm softmax followed by `point_mask` bit for bit, with masses
/// within 1e-12 of `retained_mass`: on the logits of every benchmark at two
/// scales, on a decoder-shaped query tensor, and on rows with equal, ±∞,
/// NaN and far-spread logits, at 1 and 4 threads.
#[test]
fn one_pass_stage1_equals_libm_softmax_and_point_mask() {
    let pap = PapConfig::paper_default();
    let check = |label: &str, logits: &Tensor, head_len: usize| {
        let want = libm_softmax_heads(logits, head_len);
        let mask = point_mask(&want, pap).unwrap();
        let mass = retained_mass(&want, &mask).unwrap();
        let mut probs = logits.clone();
        softmax_heads(&mut probs, head_len).unwrap();
        assert!(same_bits(probs.as_slice(), want.as_slice()), "{label}: softmax_heads");
        let mut probs = logits.clone();
        let got = softmax_heads_thresholded(&mut probs, head_len, pap.threshold).unwrap();
        assert!(same_bits(probs.as_slice(), want.as_slice()), "{label}: thresholded probs");
        assert_eq!(got.keep, mask.as_bools(), "{label}: keep bits");
        let ratio = got.kept_mass / got.total_mass;
        if mass.is_nan() {
            assert!(ratio.is_nan(), "{label}: mass {ratio} against NaN");
        } else {
            assert!((ratio - mass).abs() <= 1e-12 * mass, "{label}: mass {ratio} against {mass}");
        }
    };
    let mut cases: Vec<(String, Tensor, usize)> = Vec::new();
    for bench in Benchmark::all() {
        for cfg in [MsdaConfig::tiny(), MsdaConfig::small()] {
            let wl = SyntheticWorkload::generate(bench, &cfg, 42).unwrap();
            let x = wl.initial_fmap();
            let lp = cfg.points_per_head();
            for k in 0..cfg.n_layers {
                let layer = wl.layer(k).unwrap();
                let logits = matmul(x.tensor(), &layer.weights().w_attn).unwrap();
                let want = libm_softmax_heads(&logits, lp);
                let want_mask = point_mask(&want, pap).unwrap();
                let (_, probs) = layer.attention_probs(x).unwrap();
                assert_eq!(bits_of(&probs), bits_of(&want), "{bench} layer {k}: attention_probs");
                let (probs, mask, mass) = probs_and_mask(layer, x, pap).unwrap();
                assert_eq!(bits_of(&probs), bits_of(&want), "{bench} layer {k}: probs_and_mask");
                assert_eq!(mask, want_mask, "{bench} layer {k}: probs_and_mask mask");
                let want_mass = retained_mass(&want, &want_mask).unwrap();
                assert!((mass - want_mass).abs() <= 1e-12 * want_mass, "{mass} vs {want_mass}");
                cases.push((format!("{bench} {} layer {k}", cfg.n_in()), logits, lp));
            }
            // Object queries cross-attending into the encoder's input.
            let dec =
                DecoderWorkload::generate(bench, &cfg, DecoderConfig::for_benchmark(bench), 42)
                    .unwrap();
            let layer = &dec.layers()[0];
            let logits = matmul(dec.initial_queries(), &layer.inner().weights().w_attn).unwrap();
            let out = layer.forward(dec.initial_queries(), x, None, None).unwrap();
            assert_eq!(bits_of(&out.probs), bits_of(&libm_softmax_heads(&logits, lp)), "{bench}");
            cases.push((format!("{bench} {} decoder", cfg.n_in()), logits, lp));
        }
    }
    // Injected rows on the last case's logits, one edge case per head.
    let (_, logits, lp) = cases.last().cloned().unwrap();
    let mut edges = logits;
    let row = edges.row_mut(0).unwrap();
    row[..lp].fill(2.5);
    row[lp + 3] = f32::NEG_INFINITY;
    row[2 * lp + 5] = f32::INFINITY;
    row[3 * lp..4 * lp].fill(f32::NEG_INFINITY);
    row[4 * lp + 1] = 150.0;
    row[4 * lp + 2] = -300.0;
    row[5 * lp + 7] = -1e30;
    row[6 * lp] = 103.97208;
    row[6 * lp + 1] = -0.0;
    cases.push(("injected edges".into(), edges.clone(), lp));
    edges.row_mut(1).unwrap()[7 * lp + 2] = f32::NAN;
    cases.push(("injected NaN".into(), edges, lp));
    for threads in [1, 4] {
        with_num_threads(threads, || {
            for (label, logits, lp) in &cases {
                check(&format!("{label}, {threads} threads"), logits, *lp);
            }
        });
    }
}

fn bits_of(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}
