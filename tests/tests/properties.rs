//! Cross-crate property-based tests.
//!
//! Formerly written with `proptest`; the build container has no registry
//! access, so each property now runs over seeded randomized cases via
//! [`defa_tests::run_cases`] — deterministic, reproducible, and checking
//! the same invariants over comparable input spaces.

use defa_model::bilinear::{sample, Footprint};
use defa_model::sampling::RefPoint;
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::{LevelShape, MsdaConfig, SamplePoint};
use defa_prune::fwp::{FwpConfig, SampleFrequency};
use defa_prune::pap::{point_mask, PapConfig};
use defa_prune::{BitMask, RangeConfig};
use defa_tensor::matmul::{matmul, matmul_naive, matmul_row_masked};
use defa_tensor::rng::TensorRng;
use defa_tensor::softmax::softmax;
use defa_tensor::{QuantParams, Tensor};
use defa_tests::run_cases;

/// Bilinear interpolation of an in-range point is a convex combination:
/// the result lies within [min, max] of the level's values.
#[test]
fn bilinear_is_convex_inside() {
    run_cases(256, 0xB111, |rng| {
        let vals: Vec<f32> = (0..12).map(|_| rng.uniform_value(-10.0, 10.0)).collect();
        let x = rng.uniform_value(0.0, 3.0);
        let y = rng.uniform_value(0.0, 2.0);
        let shape = LevelShape::new(3, 4);
        let s = sample(&vals, shape, 1, x, y)[0];
        let lo = vals.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert!(s >= lo - 1e-4 && s <= hi + 1e-4, "{s} outside [{lo}, {hi}]");
    });
}

/// Footprint weights always sum to 1 and are non-negative.
#[test]
fn footprint_weights_are_a_partition() {
    run_cases(512, 0xF007, |rng| {
        let x = rng.uniform_value(-5.0, 25.0);
        let y = rng.uniform_value(-5.0, 25.0);
        let fp = Footprint::at(x, y);
        let sum: f32 = fp.neighbors.iter().map(|n| n.weight).sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(fp.neighbors.iter().all(|n| n.weight >= -1e-7));
    });
}

/// Softmax output is a probability distribution for any finite input.
#[test]
fn softmax_is_a_distribution() {
    run_cases(256, 0x50F7, |rng| {
        let len = 1 + rng.index(39);
        let row: Vec<f32> = (0..len).map(|_| rng.uniform_value(-30.0, 30.0)).collect();
        let p = softmax(&row);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
    });
}

/// Quantization round trip never errs by more than half a step.
#[test]
fn quantization_error_is_half_step() {
    run_cases(128, 0x0AA7, |rng| {
        let len = 1 + rng.index(63);
        let vals: Vec<f32> = (0..len).map(|_| rng.uniform_value(-100.0, 100.0)).collect();
        let bits = 4 + rng.index(11) as u8;
        let t = Tensor::from_vec(vals, [len]).unwrap();
        let q = QuantParams::fit(&t, bits).unwrap();
        let back = q.fake_quantize(&t);
        for (&a, &b) in t.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= q.scale() * 0.5 + 1e-5);
        }
    });
}

/// A larger FWP threshold multiplier never keeps more pixels.
#[test]
fn fwp_is_monotone_in_k() {
    run_cases(24, 0xF3B, |rng| {
        let seed = rng.index(50) as u64;
        let k1 = rng.uniform_value(0.0, 2.0);
        let k2 = rng.uniform_value(0.0, 2.0);
        let (lo, hi) = if k1 <= k2 { (k1, k2) } else { (k2, k1) };
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, seed).unwrap();
        let out = wl.layer(0).unwrap().forward(wl.initial_fmap(), Some(wl.warp())).unwrap();
        let mut f = SampleFrequency::new(&cfg).unwrap();
        f.record_all(&cfg, &out.locations, None).unwrap();
        let m_lo = f.fmap_mask(FwpConfig::new(lo).unwrap()).unwrap();
        let m_hi = f.fmap_mask(FwpConfig::new(hi).unwrap()).unwrap();
        assert!(m_lo.kept() >= m_hi.kept());
    });
}

/// A larger PAP threshold never keeps more points, and every kept
/// probability is at least the threshold.
#[test]
fn pap_is_monotone_and_sound() {
    run_cases(24, 0x9A9, |rng| {
        let seed = rng.index(50) as u64;
        let t1 = rng.uniform_value(0.0, 0.5);
        let t2 = rng.uniform_value(0.0, 0.5);
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::Dino, &cfg, seed).unwrap();
        let (_, probs) = wl.layer(0).unwrap().attention_probs(wl.initial_fmap()).unwrap();
        let m_lo = point_mask(&probs, PapConfig::new(lo).unwrap()).unwrap();
        let m_hi = point_mask(&probs, PapConfig::new(hi).unwrap()).unwrap();
        assert!(m_lo.kept() >= m_hi.kept());
        for (i, &p) in probs.as_slice().iter().enumerate() {
            if m_hi.is_kept(i).unwrap() {
                assert!(p >= hi);
            }
        }
    });
}

/// Range clamping is idempotent and never moves a point outside its
/// level's bounded window.
#[test]
fn range_clamp_is_idempotent() {
    run_cases(256, 0xC1A3, |rng| {
        let x = rng.uniform_value(-100.0, 100.0);
        let y = rng.uniform_value(-100.0, 100.0);
        let rx = rng.uniform_value(0.1, 0.9);
        let ry = rng.uniform_value(0.1, 0.9);
        let cfg = MsdaConfig::tiny();
        let rc = RangeConfig::paper_defaults(&cfg);
        let reference = RefPoint { x: rx, y: ry };
        let pt = SamplePoint::new(0, x, y);
        let (once, _) = rc.clamp(&cfg, reference, pt).unwrap();
        let (twice, moved_again) = rc.clamp(&cfg, reference, once).unwrap();
        assert_eq!(once, twice);
        assert!(!moved_again);
        let range = rc.level(0).unwrap();
        let (cx, cy) = reference.to_level(cfg.levels[0]);
        assert!((once.x - cx).abs() <= range.half_w as f32 + 1e-4);
        assert!((once.y - cy).abs() <= range.half_h as f32 + 1e-4);
    });
}

/// Mask intersection keeps at most what either side keeps.
#[test]
fn mask_and_is_an_intersection() {
    run_cases(128, 0xAAD, |rng| {
        let len = 1 + rng.index(63);
        let a: Vec<bool> = (0..len).map(|_| rng.chance(0.5)).collect();
        let b: Vec<bool> = a.iter().map(|&x| !x).collect();
        let ma = BitMask::from_bools(a);
        let mb = BitMask::from_bools(b);
        let both = ma.and(&mb).unwrap();
        assert_eq!(both.kept(), 0);
        let same = ma.and(&ma).unwrap();
        assert_eq!(same.kept(), ma.kept());
    });
}

/// The fixed-point BI datapath tracks the real-arithmetic bilinear form
/// within its quantization grid for arbitrary operands.
#[test]
fn bi_datapath_tracks_reference() {
    run_cases(512, 0xB1DA, |rng| {
        use defa_arch::bi_datapath::interpolate_f32;
        let n: Vec<f32> = (0..4).map(|_| rng.uniform_value(-8.0, 8.0)).collect();
        let t0 = rng.uniform_value(0.0, 1.0);
        let t1 = rng.uniform_value(0.0, 1.0);
        let hw = interpolate_f32([n[0], n[1], n[2], n[3]], t0, t1, 10);
        let sw = n[0] * (1.0 - t1) * (1.0 - t0)
            + n[1] * t1 * (1.0 - t0)
            + n[2] * (1.0 - t1) * t0
            + n[3] * t1 * t0;
        // Value grid 2^-10, coefficient grid 2^-8, a few ops of rounding.
        assert!((hw - sw).abs() < 0.2, "hw {hw} sw {sw}");
    });
}

/// The saliency warp is a pure function of (query, slot).
#[test]
fn warp_is_deterministic() {
    let cfg = MsdaConfig::tiny();
    let wl = SyntheticWorkload::generate(Benchmark::DnDetr, &cfg, 99).unwrap();
    run_cases(128, 0x3A3B, |rng| {
        let q = rng.index(5000);
        let slot = rng.index(16);
        let mut a = SamplePoint::new(0, 3.0, 2.0);
        let mut b = SamplePoint::new(0, 3.0, 2.0);
        wl.warp().apply(q, slot, &mut a);
        wl.warp().apply(q, slot, &mut b);
        assert_eq!(a, b);
        // Redirected points stay within the level plus jitter margin.
        let shape = cfg.levels[0];
        assert!(a.x > -4.0 && a.x < shape.w as f32 + 4.0);
        assert!(a.y > -4.0 && a.y < shape.h as f32 + 4.0);
    });
}

/// Integer GEMM error shrinks as bit width grows.
#[test]
fn quantized_gemm_error_is_monotone_in_bits() {
    run_cases(20, 0x6E3, |rng| {
        use defa_tensor::qlinear::quantized_matmul;
        let a = rng.uniform([12, 12], -1.0, 1.0);
        let b = rng.uniform([12, 12], -1.0, 1.0);
        let exact = matmul(&a, &b).unwrap();
        let mut last = f32::INFINITY;
        for bits in [6u8, 9, 12, 15] {
            let q = quantized_matmul(&a, &b, bits).unwrap();
            let err = q.relative_l2_error(&exact).unwrap();
            assert!(err <= last * 1.5 + 1e-6, "bits {bits}: {err} vs {last}");
            last = err;
        }
    });
}

/// The parallel tiled GEMM agrees with the naive golden kernel across
/// random shapes — including ragged edges that exercise every partial-tile
/// path of the micro-kernel — and so does the row-masked variant.
#[test]
fn tiled_gemm_matches_naive_across_shapes() {
    // Pinned ragged shapes first (the classic awkward cases), then fuzz.
    let check = |rng: &mut TensorRng, m: usize, k: usize, n: usize| {
        let a = rng.uniform([m, k], -1.0, 1.0);
        let b = rng.uniform([k, n], -1.0, 1.0);
        let fast = matmul(&a, &b).unwrap();
        let gold = matmul_naive(&a, &b).unwrap();
        let err = fast.relative_l2_error(&gold).unwrap();
        assert!(err < 1e-5, "({m},{k},{n}) err={err}");
        let mask: Vec<bool> = (0..m).map(|i| i % 3 != 1).collect();
        let masked = matmul_row_masked(&a, &b, &mask).unwrap();
        for (r, &keep) in mask.iter().enumerate() {
            if keep {
                assert_eq!(masked.row(r).unwrap(), fast.row(r).unwrap(), "row {r}");
            } else {
                assert!(masked.row(r).unwrap().iter().all(|&x| x == 0.0));
            }
        }
    };
    let mut rng = TensorRng::seed_from(0x6E44);
    for &(m, k, n) in &[(65, 70, 67), (1, 1, 1), (4, 8, 8), (129, 65, 7)] {
        check(&mut rng, m, k, n);
    }
    run_cases(24, 0x6E45, |rng| {
        let m = 1 + rng.index(96);
        let k = 1 + rng.index(96);
        let n = 1 + rng.index(96);
        let mut case_rng = rng.clone();
        check(&mut case_rng, m, k, n);
    });
}

/// Inter-level banking is conflict-free for arbitrary sampling points —
/// the §4.2 guarantee, checked exhaustively over a coordinate grid.
#[test]
fn inter_level_banking_never_conflicts() {
    use defa_arch::BankMapping;
    let m = BankMapping::InterLevel;
    for level in 0..4 {
        for y in -2i64..20 {
            for x in -2i64..20 {
                let banks = m.footprint_banks(level, y, x).unwrap();
                let mut sorted = banks.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), 4, "level {level} ({y},{x})");
            }
        }
    }
}
