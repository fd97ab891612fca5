//! Failure injection: the stack must reject malformed inputs with errors,
//! never wrong numbers or panics.

use defa_core::runner::DefaAccelerator;
use defa_core::{MsgsEngine, MsgsSettings};
use defa_model::decoder::{CrossMsdaLayer, DecoderConfig};
use defa_model::reference::{MsdaLayer, MsdaWeights};
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::{FmapPyramid, LevelShape, MsdaConfig};
use defa_prune::pipeline::PruneSettings;
use defa_prune::{FwpConfig, PapConfig};
use defa_tensor::matmul::matmul_row_masked;
use defa_tensor::{QuantParams, Tensor};

#[test]
fn degenerate_configs_are_rejected_everywhere() {
    // Too many levels for the bank groups.
    let mut cfg = MsdaConfig::tiny();
    cfg.levels = (0..9).map(|_| LevelShape::new(2, 2)).collect();
    assert!(cfg.validate().is_err());

    // Indivisible head split.
    let mut cfg = MsdaConfig::tiny();
    cfg.d_model = 10;
    cfg.n_heads = 3;
    assert!(cfg.validate().is_err());
    assert!(SyntheticWorkload::generate(Benchmark::Dino, &cfg, 1).is_err());
    assert!(MsgsEngine::new(&cfg, MsgsSettings::paper_default()).is_err());
}

#[test]
fn five_level_config_overflows_inter_level_banking() {
    // A 5-level pyramid validates at the model level but cannot map onto
    // 16 banks in 4-bank groups; the engine must fail loudly at run time,
    // not alias banks.
    let cfg = MsdaConfig {
        levels: vec![
            LevelShape::new(8, 8),
            LevelShape::new(4, 4),
            LevelShape::new(2, 2),
            LevelShape::new(2, 2),
            LevelShape::new(2, 2),
        ],
        d_model: 16,
        n_heads: 2,
        n_points: 2,
        n_layers: 1,
    };
    cfg.validate().unwrap();
    let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 1).unwrap();
    let out = wl.layer(0).unwrap().forward(wl.initial_fmap(), None).unwrap();
    let keep = vec![true; out.locations.len()];
    let engine = MsgsEngine::new(&cfg, MsgsSettings::paper_default()).unwrap();
    let mut counters = defa_arch::EventCounters::new();
    assert!(engine.run_block(&out.locations, &keep, 1.0, &mut counters).is_err());
}

#[test]
fn invalid_hyperparameters_never_construct() {
    assert!(FwpConfig::new(f32::INFINITY).is_err());
    assert!(PapConfig::new(f32::NAN).is_err());
    assert!(QuantParams::new(-1.0, 12).is_err());
}

#[test]
fn wrong_shape_weights_are_caught_at_layer_construction() {
    let cfg = MsdaConfig::tiny();
    let weights = MsdaWeights {
        w_attn: Tensor::zeros([cfg.d_model, cfg.points_per_query()]),
        w_offset: Tensor::zeros([cfg.d_model + 1, 2 * cfg.points_per_query()]),
        w_value: Tensor::zeros([cfg.d_model, cfg.d_model]),
    };
    assert!(MsdaLayer::new(cfg, weights).is_err());
}

#[test]
fn cross_layer_rejects_empty_references() {
    let cfg = MsdaConfig::tiny();
    let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 1).unwrap();
    let w = wl.layer(0).unwrap().weights().clone();
    assert!(CrossMsdaLayer::new(cfg, w, vec![]).is_err());
}

#[test]
fn mask_length_mismatches_error_not_panic() {
    let cfg = MsdaConfig::tiny();
    let wl = SyntheticWorkload::generate(Benchmark::DnDetr, &cfg, 2).unwrap();
    let layer = wl.layer(0).unwrap();
    let x = wl.initial_fmap();
    let out = layer.forward(x, None).unwrap();
    let bogus = vec![true; 1];
    assert!(matmul_row_masked(x.tensor(), &layer.weights().w_value, &bogus).is_err());
    assert!(layer
        .sample_and_aggregate(&out.probs, &out.locations, &out.value, Some(&bogus))
        .is_err());
}

#[test]
fn accelerator_survives_extreme_prune_settings() {
    // Thresholds at the aggressive edge must still produce a coherent
    // report (possibly with everything pruned), not a crash.
    let cfg = MsdaConfig::tiny();
    let wl = SyntheticWorkload::generate(Benchmark::Dino, &cfg, 3).unwrap();
    let accel = DefaAccelerator { measure_fidelity: false, ..DefaAccelerator::paper_default() };
    let settings = PruneSettings {
        fwp: Some(FwpConfig::new(100.0).unwrap()),
        pap: Some(PapConfig::new(0.999).unwrap()),
        range_narrowing: true,
        quant_bits: Some(2),
    };
    let report = accel.run_workload(&wl, &settings).unwrap();
    assert!(report.reduction.point_reduction() > 0.9);
    assert!(report.counters.total_cycles() > 0);
}

#[test]
fn zero_sized_pyramid_tensor_is_rejected() {
    let cfg = MsdaConfig::tiny();
    assert!(FmapPyramid::from_tensor(&cfg, Tensor::zeros([1, 1])).is_err());
}

#[test]
fn decoder_with_zero_layers_is_invalid() {
    let dec = DecoderConfig { n_queries: 4, n_layers: 0 };
    assert!(dec.validate().is_err());
}
