//! The pruned-encoder pipeline: DEFA's dataflow at the algorithm level.
//!
//! §4.1 rearranges the MSDeformAttn operators so both pruning methods can
//! act before the expensive work:
//!
//! 1. attention probabilities are computed and the **point mask** (PAP) is
//!    generated;
//! 2. the masked sampling offsets are produced: the offset projection is
//!    dense, then one pass over each query's kept slots builds, warps and
//!    range-clamps their locations, leaving pruned slots zeroed;
//! 3. the value projection runs under the **fmap mask** that the *previous*
//!    block's frequency counters produced (FWP);
//! 4. MSGS + aggregation run over surviving points only, while the fmap
//!    mask generator counts frequencies for the *next* block: one walk over
//!    the kept slots builds each footprint once for both (and for the
//!    accelerator model's MSGS engine, when it rides along).
//!
//! This module reproduces that schedule functionally (bit-accurate masks and
//! outputs); `defa-core` replays the same schedule on the cycle-level
//! hardware model. Every block writes its intermediates into one set of
//! layer buffers ([`defa_model::reference::with_layer_buffers`]), which
//! the observer reads and the next block overwrites.

use crate::fwp::{FwpConfig, SampleFrequency};
use crate::pap::{probs_and_mask_into, PapConfig};
use crate::range::RangeConfig;
use crate::stats::ReductionStats;
use crate::{BitMask, PruneError};
use defa_model::encoder::block_update;
use defa_model::flops::BlockFlops;
use defa_model::reference::{
    generate_kept_locations_into, with_layer_buffers, LayerOutput, Stage4Visitor,
};
use defa_model::workload::SyntheticWorkload;
use defa_model::{FmapPyramid, MsdaConfig};
use defa_tensor::matmul::{matmul_into, matmul_row_masked_into};
use defa_tensor::scratch::with_thread_scratch;
use defa_tensor::{QuantParams, Tensor};

/// Which pruning/compression techniques a run enables.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneSettings {
    /// Frequency-weighted fmap pruning; `None` disables it.
    pub fwp: Option<FwpConfig>,
    /// Probability-aware point pruning; `None` disables it.
    pub pap: Option<PapConfig>,
    /// Level-wise range narrowing of sampling offsets.
    pub range_narrowing: bool,
    /// Fake-quantize weights and activations to this bit width.
    pub quant_bits: Option<u8>,
}

impl PruneSettings {
    /// Everything enabled at the paper's operating point
    /// (FWP `k = 1`, PAP threshold 0.02, level-wise ranges, INT12).
    pub fn paper_defaults() -> Self {
        PruneSettings {
            fwp: Some(FwpConfig::paper_default()),
            pap: Some(PapConfig::paper_default()),
            range_narrowing: true,
            quant_bits: Some(12),
        }
    }

    /// Everything disabled: the exact reference computation.
    pub fn disabled() -> Self {
        PruneSettings { fwp: None, pap: None, range_narrowing: false, quant_bits: None }
    }
}

impl Default for PruneSettings {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Per-block pruning outcome.
#[derive(Debug, Clone)]
pub struct BlockPruneInfo {
    /// PAP decision per sampling point of this block.
    pub point_mask: BitMask,
    /// FWP mask this block's value projection ran under (from the previous
    /// block; all-keep for block 0).
    pub fmap_mask: BitMask,
    /// Kept sampling points moved by range narrowing (pruned points are
    /// never located, so never clamped).
    pub clamped_points: u64,
    /// Probability mass surviving PAP.
    pub retained_mass: f64,
}

/// Result of a pruned encoder run.
#[derive(Debug, Clone)]
pub struct PrunedRun {
    /// Feature tensor after the last residual update.
    pub final_features: Tensor,
    /// Accumulated reduction statistics.
    pub stats: ReductionStats,
    /// Per-block masks and counters.
    pub blocks: Vec<BlockPruneInfo>,
}

fn fake_quantize_features(x: &Tensor, bits: u8) -> Result<Tensor, PruneError> {
    let params =
        QuantParams::fit(x, bits).map_err(|e| PruneError::InvalidParameter(e.to_string()))?;
    Ok(params.fake_quantize(x))
}

/// Runs the pruned encoder, discarding per-block layer outputs.
///
/// # Errors
///
/// Propagates model and mask errors.
pub fn run_pruned_encoder(
    wl: &SyntheticWorkload,
    settings: &PruneSettings,
) -> Result<PrunedRun, PruneError> {
    run_pruned_encoder_from(wl, settings, wl.initial_fmap())
}

/// [`run_pruned_encoder`] over a caller-provided initial feature pyramid —
/// the serving entry point: one workload (weights, warp, ranges) handles a
/// stream of requests, each with its own backbone features.
///
/// # Errors
///
/// Propagates model and mask errors.
pub fn run_pruned_encoder_from(
    wl: &SyntheticWorkload,
    settings: &PruneSettings,
    initial: &FmapPyramid,
) -> Result<PrunedRun, PruneError> {
    run_pruned_encoder_observed_from(wl, settings, initial, |_, _, _| {})
}

/// [`run_pruned_encoder_from`], invoking `observe(block_index,
/// layer_output, prune_info)` after each block — the hook the accelerator
/// model uses to replay every block on hardware without keeping all
/// outputs in memory.
///
/// # Errors
///
/// Propagates model and mask errors.
pub fn run_pruned_encoder_observed_from<F>(
    wl: &SyntheticWorkload,
    settings: &PruneSettings,
    initial: &FmapPyramid,
    mut observe: F,
) -> Result<PrunedRun, PruneError>
where
    F: FnMut(usize, &LayerOutput, &BlockPruneInfo),
{
    run_pruned_encoder_visited_from(wl, settings, initial, &mut (), |k, out, info, _| {
        observe(k, out, info)
    })
}

/// [`run_pruned_encoder_observed_from`] with one more visitor on stage 4's
/// kept-slot walk: `stage4` sees every block's footprints beside the
/// aggregation and FWP counting, and `observe` receives it after each
/// block. The accelerator model passes its MSGS engine here, so the
/// engine's bank sets come from the same walk instead of a second one.
///
/// # Errors
///
/// Propagates model and mask errors.
pub fn run_pruned_encoder_visited_from<V, F>(
    wl: &SyntheticWorkload,
    settings: &PruneSettings,
    initial: &FmapPyramid,
    stage4: &mut V,
    mut observe: F,
) -> Result<PrunedRun, PruneError>
where
    V: Stage4Visitor,
    F: FnMut(usize, &LayerOutput, &BlockPruneInfo, &mut V),
{
    let cfg: &MsdaConfig = wl.config();
    let n = cfg.n_in();
    let ppq = cfg.points_per_query();
    let flops = BlockFlops::for_config(cfg);
    let half_extents = settings
        .range_narrowing
        .then(|| RangeConfig::paper_defaults(cfg).half_extents(cfg))
        .transpose()?;

    let quant_layers = settings.quant_bits.map(|bits| wl.quantized_layers(bits)).transpose()?;

    // Block 0 reads `initial` in place unless INT-N mode quantizes it.
    let mut x = match settings.quant_bits {
        Some(bits) => {
            Some(FmapPyramid::from_tensor(cfg, fake_quantize_features(initial.tensor(), bits)?)?)
        }
        None => None,
    };

    let mut stats = ReductionStats::new();
    let mut blocks = Vec::with_capacity(cfg.n_layers);
    // FWP mask produced by the previous block; block 0 keeps everything.
    let mut next_fmap_mask = BitMask::keep_all(n);

    // Every block refills one set of layer buffers in place: this
    // thread's recycled ones inside a `recycle_layer_buffers` scope.
    with_layer_buffers(|out| {
        for k in 0..cfg.n_layers {
            let layer = match &quant_layers {
                Some(ls) => &ls[k],
                None => wl.layer(k)?,
            };
            let cur = x.as_ref().unwrap_or(initial);

            // Stage 1: probabilities and the PAP point mask, in one pass.
            let (pmask, mass) = match settings.pap {
                Some(pap) => probs_and_mask_into(layer, cur, pap, &mut out.probs)?,
                None => {
                    layer.attention_probs_into(cur, &mut out.probs)?;
                    (BitMask::keep_all(n * ppq), 1.0)
                }
            };

            // Stage 2+3: masked offsets, locations (warp + range clamp),
            // masked value projection. The offset projection stays dense;
            // locations are built for kept slots only, bit-identical to the
            // all-slot `generate_locations` + `clamp_locations` there
            // (pinned by the golden tests), and pruned slots stay zeroed.
            with_thread_scratch(|s| {
                matmul_into(cur.tensor(), &layer.weights().w_offset, &mut out.offsets, s)
            })
            .map_err(defa_model::ModelError::from)?;
            let clamped = generate_kept_locations_into(
                cfg,
                layer.references(),
                &out.offsets,
                Some(wl.warp()),
                pmask.as_bools(),
                half_extents.as_deref(),
                &mut out.locations,
            )?;

            let fmap_mask = std::mem::replace(&mut next_fmap_mask, BitMask::keep_all(n));
            with_thread_scratch(|s| {
                matmul_row_masked_into(
                    cur.tensor(),
                    &layer.weights().w_value,
                    fmap_mask.as_bools(),
                    &mut out.value,
                    s,
                )
            })
            .map_err(defa_model::ModelError::from)?;

            // Stage 4: one walk over the surviving points builds each
            // footprint once; the aggregation, FWP's frequency counting for
            // the next block and the caller's visitor all read it.
            let mut freq = settings.fwp.map(|_| SampleFrequency::new(cfg)).transpose()?;
            layer.sample_and_aggregate_into(
                &out.probs,
                &out.locations,
                &out.value,
                Some(pmask.as_bools()),
                &mut (freq.as_mut(), &mut *stage4),
                &mut out.output,
            )?;
            if let (Some(fwp), Some(freq)) = (settings.fwp, &freq) {
                next_fmap_mask = freq.fmap_mask(fwp)?;
            }

            stats.record_block(
                &flops,
                (n * ppq) as u64,
                pmask.kept() as u64,
                n as u64,
                fmap_mask.kept() as u64,
                k > 0 && settings.fwp.is_some(),
                clamped,
                mass,
            );

            let info = BlockPruneInfo {
                point_mask: pmask,
                fmap_mask,
                clamped_points: clamped,
                retained_mass: mass,
            };
            observe(k, out, &info, stage4);
            blocks.push(info);

            // Residual + normalization into the next block, re-quantized if
            // the module is running in INT-N mode.
            let mut next = block_update(cur.tensor(), &out.output)?;
            if let Some(bits) = settings.quant_bits {
                next = fake_quantize_features(&next, bits)?;
            }
            x = Some(FmapPyramid::from_tensor(cfg, next)?);
        }
        Ok::<_, PruneError>(())
    })?;

    let final_features = x.map_or_else(|| initial.tensor().clone(), FmapPyramid::into_tensor);
    Ok(PrunedRun { final_features, stats, blocks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use defa_model::encoder::run_encoder;
    use defa_model::workload::Benchmark;

    fn workload() -> SyntheticWorkload {
        SyntheticWorkload::generate(Benchmark::DeformableDetr, &MsdaConfig::tiny(), 21).unwrap()
    }

    #[test]
    fn disabled_settings_match_exact_encoder() {
        let wl = workload();
        let exact = run_encoder(&wl).unwrap();
        let run = run_pruned_encoder(&wl, &PruneSettings::disabled()).unwrap();
        let err = run.final_features.relative_l2_error(&exact.final_features).unwrap();
        assert!(err < 1e-6, "err={err}");
        assert_eq!(run.stats.point_reduction(), 0.0);
    }

    #[test]
    fn paper_defaults_prune_points_and_pixels() {
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &MsdaConfig::small(), 22)
            .unwrap();
        let run = run_pruned_encoder(&wl, &PruneSettings::paper_defaults()).unwrap();
        assert!(run.stats.point_reduction() > 0.6, "{}", run.stats.point_reduction());
        assert!(run.stats.pixel_reduction() > 0.1, "{}", run.stats.pixel_reduction());
        assert!(run.stats.flop_reduction() > 0.3, "{}", run.stats.flop_reduction());
    }

    #[test]
    fn pruned_output_stays_close_to_exact() {
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &MsdaConfig::small(), 23)
            .unwrap();
        let exact = run_encoder(&wl).unwrap();
        let run = run_pruned_encoder(&wl, &PruneSettings::paper_defaults()).unwrap();
        // End-to-end error compounds across blocks (offsets depend on the
        // previous block's features), so it is much larger than any single
        // block's approximation error — but must stay bounded.
        let err = run.final_features.relative_l2_error(&exact.final_features).unwrap();
        assert!(err < 1.2, "fidelity error {err} unexpectedly large");
    }

    #[test]
    fn observer_sees_every_block() {
        let wl = workload();
        let mut seen = Vec::new();
        run_pruned_encoder_observed_from(
            &wl,
            &PruneSettings::paper_defaults(),
            wl.initial_fmap(),
            |k, out, info| {
                seen.push(k);
                assert_eq!(out.locations.len(), info.point_mask.len());
            },
        )
        .unwrap();
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn explicit_initial_fmap_matches_and_diverges() {
        let wl = workload();
        let own = run_pruned_encoder_from(&wl, &PruneSettings::paper_defaults(), wl.initial_fmap())
            .unwrap();
        let plain = run_pruned_encoder(&wl, &PruneSettings::paper_defaults()).unwrap();
        assert_eq!(own.final_features, plain.final_features);
        let gen = defa_model::RequestGenerator::new(
            vec![defa_model::RequestScenario::from_workload(wl.clone())],
            11,
        )
        .unwrap();
        let req = gen.request(4);
        let other =
            run_pruned_encoder_from(&wl, &PruneSettings::paper_defaults(), &req.fmap).unwrap();
        assert!(other.final_features.relative_l2_error(&plain.final_features).unwrap() > 1e-3);
    }

    #[test]
    fn block_zero_runs_without_fmap_mask() {
        let wl = workload();
        let run = run_pruned_encoder(&wl, &PruneSettings::paper_defaults()).unwrap();
        assert_eq!(run.blocks[0].fmap_mask.kept(), wl.config().n_in());
        // Block 1 receives a real mask on a skewed workload.
        assert!(run.blocks[1].fmap_mask.kept() < wl.config().n_in());
    }

    #[test]
    fn range_narrowing_reports_clamps() {
        let wl = workload();
        let with = run_pruned_encoder(
            &wl,
            &PruneSettings { range_narrowing: true, ..PruneSettings::disabled() },
        )
        .unwrap();
        let without = run_pruned_encoder(&wl, &PruneSettings::disabled()).unwrap();
        assert!(with.stats.clamped_points > 0);
        assert_eq!(without.stats.clamped_points, 0);
    }

    #[test]
    fn quantization_alone_changes_output_slightly() {
        let wl = workload();
        let exact = run_pruned_encoder(&wl, &PruneSettings::disabled()).unwrap();
        let quant = run_pruned_encoder(
            &wl,
            &PruneSettings { quant_bits: Some(12), ..PruneSettings::disabled() },
        )
        .unwrap();
        let err = quant.final_features.relative_l2_error(&exact.final_features).unwrap();
        assert!(err > 0.0 && err < 0.05, "INT12 error {err}");
        // INT8 must hurt noticeably more (the paper's 9.7-AP finding).
        let q8 = run_pruned_encoder(
            &wl,
            &PruneSettings { quant_bits: Some(8), ..PruneSettings::disabled() },
        )
        .unwrap();
        let err8 = q8.final_features.relative_l2_error(&exact.final_features).unwrap();
        assert!(err8 > err * 2.0, "INT8 {err8} vs INT12 {err}");
    }

    #[test]
    fn retained_mass_is_high_at_paper_threshold() {
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &MsdaConfig::small(), 24)
            .unwrap();
        let run = run_pruned_encoder(&wl, &PruneSettings::paper_defaults()).unwrap();
        assert!(run.stats.mean_retained_mass() > 0.85);
    }
}
