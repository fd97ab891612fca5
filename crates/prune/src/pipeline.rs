//! The pruned pipeline: DEFA's dataflow at the algorithm level.
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
//! hardware model. One per-block body runs it for queries, references and
//! memory as separate inputs: the encoder's self-attention passes `Q = X`
//! ([`run_pruned_encoder_visited_from`]), the decoder's cross-attention its
//! object queries over the fixed encoder memory
//! ([`run_pruned_decoder_visited`]). Every block writes its intermediates
//! into one set of layer buffers
//! ([`defa_model::reference::with_layer_buffers`]), which the observer
//! reads and the next block overwrites.

use crate::fwp::{FwpConfig, SampleFrequency};
use crate::pap::{probs_and_mask_into, PapConfig};
use crate::range::RangeConfig;
use crate::stats::ReductionStats;
use crate::{BitMask, PruneError};
use defa_model::decoder::DecoderWorkload;
use defa_model::encoder::block_update;
use defa_model::flops::BlockFlops;
use defa_model::reference::{
    generate_kept_locations_into, with_layer_buffers, LayerOutput, Stage4Visitor,
};
use defa_model::workload::{SaliencyWarp, SyntheticWorkload};
use defa_model::{FmapPyramid, MsdaConfig, MsdaLayer};
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
    let half_extents = settings
        .range_narrowing
        .then(|| RangeConfig::paper_defaults(cfg).half_extents(cfg))
        .transpose()?;
    let mut schedule = Schedule::new(cfg, settings, Some(wl.warp()), half_extents);

    let quant_layers = settings.quant_bits.map(|bits| wl.quantized_layers(bits)).transpose()?;

    // Block 0 reads `initial` in place unless INT-N mode quantizes it.
    let mut x = match settings.quant_bits {
        Some(bits) => {
            Some(FmapPyramid::from_tensor(cfg, fake_quantize_features(initial.tensor(), bits)?)?)
        }
        None => None,
    };

    let mut blocks = Vec::with_capacity(cfg.n_layers);
    // Every block refills one set of layer buffers in place: this
    // thread's recycled ones inside a `recycle_layer_buffers` scope.
    with_layer_buffers(|out| {
        for k in 0..cfg.n_layers {
            let layer = match &quant_layers {
                Some(ls) => &ls[k],
                None => wl.layer(k)?,
            };
            let cur = x.as_ref().unwrap_or(initial);
            // Self-attention: the queries are the memory's own tokens.
            let info = schedule.block(k, layer, cur.tensor(), cur, stage4, out)?;
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
    Ok(PrunedRun { final_features, stats: schedule.stats, blocks })
}

/// Runs the decoder's cross-attention through the encoder's per-block
/// schedule: each layer's object queries attend into the fixed encoder
/// `memory`, PAP masks the layer's points and FWP the next layer's memory
/// pixels, and both reach the features. `observe` and `stage4` work as in
/// [`run_pruned_encoder_visited_from`]; `final_features` are the final
/// query embeddings. The decoder has no saliency warp, and
/// `settings.range_narrowing` and `settings.quant_bits` do not apply to it.
///
/// # Errors
///
/// Propagates model and mask errors, such as a `memory` that does not
/// have the decoder's configured shape.
pub fn run_pruned_decoder_visited<V, F>(
    dec: &DecoderWorkload,
    settings: &PruneSettings,
    memory: &FmapPyramid,
    stage4: &mut V,
    mut observe: F,
) -> Result<PrunedRun, PruneError>
where
    V: Stage4Visitor,
    F: FnMut(usize, &LayerOutput, &BlockPruneInfo, &mut V),
{
    let mut schedule = Schedule::new(dec.config(), settings, None, None);
    let mut blocks = Vec::with_capacity(dec.layers().len());
    let mut q = dec.initial_queries().clone();
    with_layer_buffers(|out| {
        for (k, layer) in dec.layers().iter().enumerate() {
            let info = schedule.block(k, layer, &q, memory, stage4, out)?;
            observe(k, out, &info, stage4);
            blocks.push(info);
            q = block_update(&q, &out.output)?;
        }
        Ok::<_, PruneError>(())
    })?;
    Ok(PrunedRun { final_features: q, stats: schedule.stats, blocks })
}

/// The per-block schedule both drivers run, and what it carries from one
/// block to the next: the FWP mask for the next block's value projection
/// and the reduction statistics.
struct Schedule<'a> {
    settings: &'a PruneSettings,
    /// The encoder's saliency warp; the decoder has none.
    warp: Option<&'a SaliencyWarp>,
    /// Per-level range-narrowing windows, when locations are clamped.
    half_extents: Option<Vec<[u32; 2]>>,
    /// FWP mask produced by the previous block; block 0 keeps everything.
    fmap_mask: BitMask,
    stats: ReductionStats,
}

impl<'a> Schedule<'a> {
    fn new(
        cfg: &MsdaConfig,
        settings: &'a PruneSettings,
        warp: Option<&'a SaliencyWarp>,
        half_extents: Option<Vec<[u32; 2]>>,
    ) -> Self {
        Schedule {
            settings,
            warp,
            half_extents,
            fmap_mask: BitMask::keep_all(cfg.n_in()),
            stats: ReductionStats::new(),
        }
    }

    /// Runs block `k` into `out`: `layer`'s `queries` (one row per
    /// reference point of the layer) attend into `memory`, and the block's
    /// masks and counters are recorded and returned.
    fn block<V: Stage4Visitor>(
        &mut self,
        k: usize,
        layer: &MsdaLayer,
        queries: &Tensor,
        memory: &FmapPyramid,
        stage4: &mut V,
        out: &mut LayerOutput,
    ) -> Result<BlockPruneInfo, PruneError> {
        let cfg = layer.config();
        let n = cfg.n_in();
        let slots = layer.references().len() * cfg.points_per_query();

        // Stage 1: probabilities and the PAP point mask, in one pass.
        let (pmask, mass) = match self.settings.pap {
            Some(pap) => probs_and_mask_into(layer, queries, pap, &mut out.probs)?,
            None => {
                layer.attention_probs_into(queries, &mut out.probs)?;
                (BitMask::keep_all(slots), 1.0)
            }
        };

        // Stage 2+3: masked offsets, locations (warp + range clamp),
        // masked value projection. The offset projection stays dense;
        // locations are built for kept slots only, bit-identical to the
        // all-slot `generate_locations` + `clamp_locations` there
        // (pinned by the golden tests), and pruned slots stay zeroed.
        with_thread_scratch(|s| {
            matmul_into(queries, &layer.weights().w_offset, &mut out.offsets, s)
        })
        .map_err(defa_model::ModelError::from)?;
        let clamped = generate_kept_locations_into(
            cfg,
            layer.references(),
            &out.offsets,
            self.warp,
            pmask.as_bools(),
            self.half_extents.as_deref(),
            &mut out.locations,
        )?;

        let fmap_mask = std::mem::replace(&mut self.fmap_mask, BitMask::keep_all(n));
        with_thread_scratch(|s| {
            matmul_row_masked_into(
                memory.tensor(),
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
        let mut freq = self.settings.fwp.map(|_| SampleFrequency::new(cfg)).transpose()?;
        layer.sample_and_aggregate_into(
            &out.probs,
            &out.locations,
            &out.value,
            Some(pmask.as_bools()),
            &mut (freq.as_mut(), &mut *stage4),
            &mut out.output,
        )?;
        if let (Some(fwp), Some(freq)) = (self.settings.fwp, &freq) {
            self.fmap_mask = freq.fmap_mask(fwp)?;
        }

        self.stats.record_block(
            &BlockFlops::for_config(cfg),
            slots as u64,
            pmask.kept() as u64,
            n as u64,
            fmap_mask.kept() as u64,
            k > 0 && self.settings.fwp.is_some(),
            clamped,
            mass,
        );
        Ok(BlockPruneInfo {
            point_mask: pmask,
            fmap_mask,
            clamped_points: clamped,
            retained_mass: mass,
        })
    }
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

    fn decoder() -> (DecoderWorkload, FmapPyramid) {
        let wl = workload();
        let shape = defa_model::decoder::DecoderConfig::tiny();
        let dec = DecoderWorkload::generate(Benchmark::DeformableDetr, wl.config(), shape, 21);
        (dec.unwrap(), wl.initial_fmap().clone())
    }

    /// PAP and FWP reach the decoder's features: each block's output is
    /// the aggregation of its own intermediates under its point mask, not
    /// the unmasked aggregation over every slot's location.
    #[test]
    fn pruned_decoder_blocks_aggregate_under_their_point_mask() {
        use defa_model::reference::generate_locations;
        let (dec, memory) = decoder();
        let settings = PruneSettings::paper_defaults();
        let mut fmap_kept = Vec::new();
        let run =
            run_pruned_decoder_visited(&dec, &settings, &memory, &mut (), |k, out, info, _| {
                let (layer, keep) = (&dec.layers()[k], info.point_mask.as_bools());
                assert!(info.point_mask.kept() < keep.len(), "block {k} prunes no point");
                let masked =
                    layer.sample_and_aggregate(&out.probs, &out.locations, &out.value, Some(keep));
                assert_eq!(masked.unwrap(), out.output, "block {k}");
                let all =
                    generate_locations(layer.config(), layer.references(), &out.offsets, None);
                let unmasked =
                    layer.sample_and_aggregate(&out.probs, &all.unwrap(), &out.value, None);
                assert!(
                    unmasked.unwrap().relative_l2_error(&out.output).unwrap() > 1e-4,
                    "block {k}"
                );
                fmap_kept.push(info.fmap_mask.kept());
            })
            .unwrap();
        // Only block 1 runs under an FWP mask, and only it is counted.
        let n = dec.config().n_in();
        assert!(fmap_kept[0] == n && fmap_kept[1] < n, "{fmap_kept:?}");
        let pixels = (run.stats.pixels_total, run.stats.pixels_kept);
        assert_eq!(pixels, (n as u64, fmap_kept[1] as u64));
    }

    #[test]
    fn disabled_decoder_matches_exact_decoder_bit_for_bit() {
        let (dec, memory) = decoder();
        let settings = PruneSettings::disabled();
        let run = run_pruned_decoder_visited(&dec, &settings, &memory, &mut (), |_, _, _, _| {});
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&run.unwrap().final_features), bits(&dec.run(&memory).unwrap()));
        let other = MsdaConfig::small();
        let wrong = FmapPyramid::from_tensor(&other, Tensor::zeros([other.n_in(), other.d_model]));
        let run =
            run_pruned_decoder_visited(&dec, &settings, &wrong.unwrap(), &mut (), |_, _, _, _| {});
        assert!(run.is_err(), "memory of another shape");
    }

    #[test]
    fn retained_mass_is_high_at_paper_threshold() {
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &MsdaConfig::small(), 24)
            .unwrap();
        let run = run_pruned_encoder(&wl, &PruneSettings::paper_defaults()).unwrap();
        assert!(run.stats.mean_retained_mass() > 0.85);
    }
}
