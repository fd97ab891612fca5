//! Functional reference implementation of one MSDeformAttn layer (Eq. 1).

use crate::bilinear::Footprint;
use crate::config::MAX_LEVELS;
use crate::sampling::{
    for_each_kept, query_sample_points_into, reference_points, RefPoint, SamplePoint,
};
use crate::workload::SaliencyWarp;
use crate::{FmapPyramid, ModelError, MsdaConfig};
use defa_tensor::matmul::matmul;
use defa_tensor::softmax::softmax_inplace;
use defa_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};

/// Below this many per-query sampling points / probability elements the
/// per-query loops run sequentially: the scoped-thread helpers have no
/// pool, so a spawn only pays off with real work behind it. Results are
/// identical either way.
const PAR_MIN_ELEMS: usize = 1 << 12;

/// Builds the full sampling-location table for `offsets` (`[n, 2·ppq]`),
/// one query per row, applying the optional saliency warp — the
/// per-query-parallel generation of the monolithic forward, and the
/// all-slot reference for [`generate_kept_locations`].
///
/// Queries are independent, so the table is filled in disjoint
/// `points_per_query` windows in parallel; results are bit-identical for
/// any thread count. The warp's snapped slots come from its table of snap
/// decisions, memoized on first use and equal to [`SaliencyWarp::apply`]
/// on every point.
///
/// # Errors
///
/// Returns [`ModelError::ShapeMismatch`] if `offsets` does not have one
/// row of `2·points_per_query` offsets per reference point, or if `warp`
/// was generated for a configuration other than `cfg` or for a different
/// query count.
pub fn generate_locations(
    cfg: &MsdaConfig,
    references: &[RefPoint],
    offsets: &Tensor,
    warp: Option<&SaliencyWarp>,
) -> Result<Vec<SamplePoint>, ModelError> {
    check_location_inputs(cfg, references, offsets, warp)?;
    let n = references.len();
    let ppq = cfg.points_per_query();
    let table = warp.map(SaliencyWarp::table);
    let odata = offsets.as_slice();
    let mut locations = vec![SamplePoint::new(0, 0.0, 0.0); n * ppq];
    defa_parallel::par_chunks_mut_if(n * ppq >= PAR_MIN_ELEMS, &mut locations, ppq, |i, pts| {
        query_sample_points_into(cfg, references[i], &odata[i * 2 * ppq..(i + 1) * 2 * ppq], pts);
        if let Some(t) = table {
            t.overwrite(i, pts);
        }
    });
    Ok(locations)
}

/// Stage 2 of the pruned dataflow on kept slots only: one pass per query
/// that, for every slot with `keep` set, projects `center + offset`,
/// applies the warp's memoized snap and clamps to the slot's level window.
///
/// `half_extents[l]` is level `l`'s range-narrowing window `[half_w,
/// half_h]` in pixels; `None` leaves the points unclamped. Each kept slot
/// is bit-identical to [`generate_locations`] followed by the all-slot
/// clamp with the same windows (the windows use the same f32 expressions,
/// computed once per query). Pruned slots are left as
/// `SamplePoint::new(0, 0.0, 0.0)`, so the table keeps the
/// `[n · points_per_query]` layout every consumer indexes. Returns the
/// table and the number of kept points the clamp moved.
///
/// # Errors
///
/// As [`generate_locations`]; also [`ModelError::ShapeMismatch`] if `keep`
/// does not have one entry per slot or `half_extents` has fewer entries
/// than `cfg` has levels, and [`ModelError::InvalidConfig`] if `cfg` fails
/// validation.
pub fn generate_kept_locations(
    cfg: &MsdaConfig,
    references: &[RefPoint],
    offsets: &Tensor,
    warp: Option<&SaliencyWarp>,
    keep: &[bool],
    half_extents: Option<&[[u32; 2]]>,
) -> Result<(Vec<SamplePoint>, u64), ModelError> {
    cfg.validate()?;
    check_location_inputs(cfg, references, offsets, warp)?;
    let n = references.len();
    let ppq = cfg.points_per_query();
    if keep.len() != n * ppq {
        return Err(ModelError::ShapeMismatch(format!(
            "keep mask of {} for {} slots",
            keep.len(),
            n * ppq
        )));
    }
    if let Some(h) = half_extents {
        if h.len() < cfg.n_levels() {
            return Err(ModelError::ShapeMismatch(format!(
                "{} clamp windows for {} levels",
                h.len(),
                cfg.n_levels()
            )));
        }
    }
    let table = warp.map(SaliencyWarp::table);
    let odata = offsets.as_slice();
    let slot_level: Vec<u8> =
        (0..ppq).map(|s| ((s / cfg.n_points) % cfg.n_levels()) as u8).collect();
    let moved = AtomicU64::new(0);
    let mut locations = vec![SamplePoint::new(0, 0.0, 0.0); n * ppq];
    defa_parallel::par_chunks_mut_if(n * ppq >= PAR_MIN_ELEMS, &mut locations, ppq, |i, pts| {
        // Per level: center, then the clamp window [x0, x1, y0, y1].
        let mut geo = [[0f32; 6]; MAX_LEVELS];
        for (l, (g, &shape)) in geo.iter_mut().zip(&cfg.levels).enumerate() {
            let (cx, cy) = references[i].to_level(shape);
            let [hw, hh] = half_extents.map_or([0, 0], |h| h[l]);
            *g = [cx, cy, cx - hw as f32, cx + hw as f32, cy - hh as f32, cy + hh as f32];
        }
        let off = &odata[i * 2 * ppq..(i + 1) * 2 * ppq];
        let snaps = table.map(|t| t.query(i));
        let mut count = 0u64;
        for_each_kept(&keep[i * ppq..(i + 1) * ppq], |s| {
            let level = slot_level[s];
            let [cx, cy, x0, x1, y0, y1] = geo[level as usize];
            let mut pt = [cx + off[2 * s], cy + off[2 * s + 1]];
            if let Some(q) = snaps {
                pt = q.warp(s, pt);
            }
            let [mut x, mut y] = pt;
            if half_extents.is_some() {
                let (clamped_x, clamped_y) = (x.clamp(x0, x1), y.clamp(y0, y1));
                count += u64::from(clamped_x != x || clamped_y != y);
                (x, y) = (clamped_x, clamped_y);
            }
            pts[s] = SamplePoint::new(level, x, y);
        });
        // A statistic read only after the workers join, so `Relaxed`
        // suffices; integer sums commute, so it is the same for any split.
        moved.fetch_add(count, Ordering::Relaxed);
    });
    Ok((locations, moved.into_inner()))
}

/// Shape checks shared by the location generators.
fn check_location_inputs(
    cfg: &MsdaConfig,
    references: &[RefPoint],
    offsets: &Tensor,
    warp: Option<&SaliencyWarp>,
) -> Result<(), ModelError> {
    let n = references.len();
    let ppq = cfg.points_per_query();
    if offsets.shape().dims() != [n, 2 * ppq] {
        return Err(ModelError::ShapeMismatch(format!(
            "offsets {} expected [{n}, {}]",
            offsets.shape(),
            2 * ppq
        )));
    }
    if let Some(w) = warp {
        if w.config() != cfg || n != cfg.n_in() {
            return Err(ModelError::ShapeMismatch(format!(
                "warp generated for {:?} applied to {n} queries of {:?}",
                w.config().levels,
                cfg.levels
            )));
        }
    }
    Ok(())
}

/// Learnable weights of one MSDeformAttn layer.
///
/// Following the official Deformable DETR implementation, attention logits
/// and sampling offsets are linear projections of the query:
/// `Wᴬ: [D, N_h·N_l·N_p]`, `Wˢ: [D, 2·N_h·N_l·N_p]`, `Wᵥ: [D, D]`.
#[derive(Debug, Clone, PartialEq)]
pub struct MsdaWeights {
    /// Attention-logit projection.
    pub w_attn: Tensor,
    /// Sampling-offset projection.
    pub w_offset: Tensor,
    /// Value projection.
    pub w_value: Tensor,
}

impl MsdaWeights {
    /// Validates weight shapes against a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] on any disagreement.
    pub fn validate(&self, cfg: &MsdaConfig) -> Result<(), ModelError> {
        let ppq = cfg.points_per_query();
        if self.w_attn.shape().dims() != [cfg.d_model, ppq] {
            return Err(ModelError::ShapeMismatch(format!(
                "w_attn {} expected [{}, {ppq}]",
                self.w_attn.shape(),
                cfg.d_model
            )));
        }
        if self.w_offset.shape().dims() != [cfg.d_model, 2 * ppq] {
            return Err(ModelError::ShapeMismatch(format!(
                "w_offset {} expected [{}, {}]",
                self.w_offset.shape(),
                cfg.d_model,
                2 * ppq
            )));
        }
        if self.w_value.shape().dims() != [cfg.d_model, cfg.d_model] {
            return Err(ModelError::ShapeMismatch(format!(
                "w_value {} expected [{0}, {0}]",
                self.w_value.shape()
            )));
        }
        Ok(())
    }
}

/// Everything one layer evaluation produces.
///
/// Intermediates are exposed deliberately (C-INTERMEDIATE): the pruning
/// algorithms consume `probs` and `locations`, the accelerator model
/// consumes `value` and `locations`, and the tests compare `output`.
#[derive(Debug, Clone)]
pub struct LayerOutput {
    /// Raw attention logits, `[N_in, N_h·N_l·N_p]`.
    pub logits: Tensor,
    /// Per-head softmax probabilities, same shape as `logits`.
    pub probs: Tensor,
    /// Sampling offsets, `[N_in, 2·N_h·N_l·N_p]`. Dense in every run,
    /// pruned or not.
    pub offsets: Tensor,
    /// Sampling locations, one per `(query, head, level, point)` in
    /// [`crate::sampling::point_slot`] order. In a pruned run only the
    /// point mask's kept slots are located; pruned slots hold
    /// `SamplePoint::new(0, 0.0, 0.0)`.
    pub locations: Vec<SamplePoint>,
    /// Projected values `V = X·Wᵥ`, `[N_in, D]`.
    pub value: Tensor,
    /// Attention output, `[N_in, D]`.
    pub output: Tensor,
}

/// One MSDeformAttn layer: configuration plus weights.
#[derive(Debug, Clone)]
pub struct MsdaLayer {
    cfg: MsdaConfig,
    weights: MsdaWeights,
    references: Vec<RefPoint>,
}

impl MsdaLayer {
    /// Creates a layer after validating configuration and weight shapes.
    ///
    /// # Errors
    ///
    /// Propagates validation failures from [`MsdaConfig::validate`] and
    /// [`MsdaWeights::validate`].
    pub fn new(cfg: MsdaConfig, weights: MsdaWeights) -> Result<Self, ModelError> {
        cfg.validate()?;
        weights.validate(&cfg)?;
        let references = reference_points(&cfg)?;
        Ok(MsdaLayer { cfg, weights, references })
    }

    /// The layer's configuration.
    pub fn config(&self) -> &MsdaConfig {
        &self.cfg
    }

    /// The layer's weights.
    pub fn weights(&self) -> &MsdaWeights {
        &self.weights
    }

    /// Normalized reference points, one per query.
    pub fn references(&self) -> &[RefPoint] {
        &self.references
    }

    /// Evaluates the layer exactly (no pruning).
    ///
    /// In the encoder, queries and feature map coincide: `Q = X`. The
    /// stages run in the DEFA dataflow order (§4.1): probabilities, offset
    /// projection and locations, value projection, then MSGS +
    /// aggregation.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] on any shape disagreement.
    pub fn forward(
        &self,
        x: &FmapPyramid,
        warp: Option<&SaliencyWarp>,
    ) -> Result<LayerOutput, ModelError> {
        let (logits, probs) = self.attention_probs(x)?;
        let q = x.tensor();
        let offsets = matmul(q, &self.weights.w_offset)?;
        let locations = generate_locations(&self.cfg, &self.references, &offsets, warp)?;
        let value = matmul(q, &self.weights.w_value)?;
        let output = self.sample_and_aggregate(&probs, &locations, &value, None)?;
        Ok(LayerOutput { logits, probs, offsets, locations, value, output })
    }

    /// Computes only the attention logits and per-head probabilities.
    ///
    /// In the DEFA dataflow (§4.1) this is the *first* stage of the block:
    /// the probabilities feed the point-mask generator (PAP) before the
    /// offset projection and MSGS run, so callers that prune want the
    /// probabilities without the rest of the layer.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] if the pyramid disagrees with
    /// the configuration.
    pub fn attention_probs(&self, x: &FmapPyramid) -> Result<(Tensor, Tensor), ModelError> {
        let cfg = &self.cfg;
        let n = cfg.n_in();
        if x.n_in() != n || x.d() != cfg.d_model {
            return Err(ModelError::ShapeMismatch(format!(
                "pyramid [{} x {}] does not match config [{} x {}]",
                x.n_in(),
                x.d(),
                n,
                cfg.d_model
            )));
        }
        let logits = matmul(x.tensor(), &self.weights.w_attn)?;
        let mut probs = logits.clone();
        let lp = cfg.points_per_head();
        let n_heads = cfg.n_heads;
        let ppq = cfg.points_per_query();
        // Rows are independent distributions: normalize them in parallel.
        defa_parallel::par_chunks_mut_if(
            n * ppq >= PAR_MIN_ELEMS,
            probs.as_mut_slice(),
            ppq,
            |_, row| {
                for h in 0..n_heads {
                    softmax_inplace(&mut row[h * lp..(h + 1) * lp]);
                }
            },
        );
        Ok((logits, probs))
    }

    /// MSGS + aggregation: bilinear-samples `value` at every surviving
    /// location and sums probability-weighted samples per head.
    ///
    /// Exposed so external drivers (pruned pipelines, the accelerator
    /// model) can substitute their own location tables — e.g. after range
    /// clamping — while reusing the golden sampling/aggregation kernel.
    ///
    /// `point_mask[query · points_per_query + slot]` keeps or drops a
    /// sampling point (PAP). Dropped points are skipped entirely and the
    /// surviving probabilities are *not* renormalized, matching the paper's
    /// PAP description; an FWP-pruned pixel reads zero because the caller's
    /// row-masked value projection left its `value` row zero.
    ///
    /// Queries are independent, so their output rows are computed in
    /// parallel; each row's neighbor accumulation runs in the same fixed
    /// order regardless of thread count, so results are bit-identical to
    /// the sequential evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if tensor shapes disagree with the
    /// configuration, or [`ModelError::ShapeMismatch`] if `point_mask` does
    /// not have one entry per location.
    pub fn sample_and_aggregate(
        &self,
        probs: &Tensor,
        locations: &[SamplePoint],
        value: &Tensor,
        point_mask: Option<&[bool]>,
    ) -> Result<Tensor, ModelError> {
        let cfg = &self.cfg;
        // The number of queries is the probability tensor's row count:
        // it equals `n_in` for encoder self-attention but is the object
        // query count for decoder cross-attention. The column count must
        // be exactly points_per_query — the parallel loop below indexes
        // rows by that stride.
        if probs.shape().rank() != 2 || probs.shape().dims()[1] != cfg.points_per_query() {
            return Err(ModelError::ShapeMismatch(format!(
                "probs {} expected [n, {}]",
                probs.shape(),
                cfg.points_per_query()
            )));
        }
        let n = probs.shape().dims()[0];
        if locations.len() != n * cfg.points_per_query() {
            return Err(ModelError::ShapeMismatch(format!(
                "{} locations for {} queries x {} points",
                locations.len(),
                n,
                cfg.points_per_query()
            )));
        }
        let d = cfg.d_model;
        let dh = cfg.head_dim();
        let ppq = cfg.points_per_query();
        let lp = cfg.points_per_head();
        let vdata = value.as_slice();
        let pdata = probs.as_slice();

        // Per-level base token offsets for direct indexing into `value`.
        let mut level_base = Vec::with_capacity(cfg.n_levels());
        for l in 0..cfg.n_levels() {
            level_base.push(cfg.level_offset(l)?);
        }
        let level_base = &level_base[..];
        // First output channel of each slot's head.
        let slot_chan: Vec<usize> = (0..ppq).map(|slot| slot / lp * dh).collect();
        let slot_chan = &slot_chan[..];

        if let Some(pm) = point_mask {
            if pm.len() != locations.len() {
                return Err(ModelError::ShapeMismatch(format!(
                    "point mask length {} expected {}",
                    pm.len(),
                    locations.len()
                )));
            }
        }

        let mut output = Tensor::zeros([n, d]);
        // Each query's aggregation walks ppq points x 4 neighbors x dh
        // channels — substantial, so the gate is on the point count alone.
        let parallel = n * ppq >= PAR_MIN_ELEMS / 4;
        defa_parallel::par_chunks_mut_if(parallel, output.as_mut_slice(), d, |i, orow_all| {
            let prow = &pdata[i * ppq..(i + 1) * ppq];
            let qlocs = &locations[i * ppq..(i + 1) * ppq];
            // Slots in increasing order: every head accumulates its own
            // channels in the order of the unmasked loop, restricted to
            // kept points.
            let accumulate = |slot: usize| {
                let w = prow[slot];
                if w == 0.0 {
                    return;
                }
                let chan0 = slot_chan[slot];
                let orow = &mut orow_all[chan0..chan0 + dh];
                let pt = qlocs[slot];
                let shape = cfg.levels[pt.level as usize];
                let base = level_base[pt.level as usize];
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
            };
            match point_mask {
                Some(pm) => for_each_kept(&pm[i * ppq..(i + 1) * ppq], accumulate),
                None => (0..ppq).for_each(accumulate),
            }
        });
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Benchmark, SyntheticWorkload};
    use defa_tensor::matmul::matmul_row_masked;
    use defa_tensor::rng::TensorRng;

    fn tiny_layer(seed: u64) -> (MsdaConfig, MsdaLayer, FmapPyramid) {
        let cfg = MsdaConfig::tiny();
        let mut rng = TensorRng::seed_from(seed);
        let weights = MsdaWeights {
            w_attn: rng.normal([cfg.d_model, cfg.points_per_query()], 0.0, 0.5),
            w_offset: rng.normal([cfg.d_model, 2 * cfg.points_per_query()], 0.0, 0.3),
            w_value: rng.normal([cfg.d_model, cfg.d_model], 0.0, 0.2),
        };
        let layer = MsdaLayer::new(cfg.clone(), weights).unwrap();
        let x = rng.uniform([cfg.n_in(), cfg.d_model], -1.0, 1.0);
        let pyramid = FmapPyramid::from_tensor(&cfg, x).unwrap();
        (cfg, layer, pyramid)
    }

    #[test]
    fn output_shapes_are_correct() {
        let (cfg, layer, x) = tiny_layer(1);
        let out = layer.forward(&x, None).unwrap();
        assert_eq!(out.output.shape().dims(), &[cfg.n_in(), cfg.d_model]);
        assert_eq!(out.probs.shape().dims(), &[cfg.n_in(), cfg.points_per_query()]);
        assert_eq!(out.locations.len(), cfg.n_in() * cfg.points_per_query());
    }

    #[test]
    fn per_head_probabilities_sum_to_one() {
        let (cfg, layer, x) = tiny_layer(2);
        let out = layer.forward(&x, None).unwrap();
        let lp = cfg.points_per_head();
        for i in [0usize, 7, cfg.n_in() - 1] {
            let row = out.probs.row(i).unwrap();
            for h in 0..cfg.n_heads {
                let s: f32 = row[h * lp..(h + 1) * lp].iter().sum();
                assert!((s - 1.0).abs() < 1e-5, "query {i} head {h}: {s}");
            }
        }
    }

    #[test]
    fn weight_validation_catches_mismatches() {
        let cfg = MsdaConfig::tiny();
        let bad = MsdaWeights {
            w_attn: Tensor::zeros([cfg.d_model, 3]),
            w_offset: Tensor::zeros([cfg.d_model, 2 * cfg.points_per_query()]),
            w_value: Tensor::zeros([cfg.d_model, cfg.d_model]),
        };
        assert!(MsdaLayer::new(cfg, bad).is_err());
    }

    #[test]
    fn all_true_masks_match_unmasked_forward() {
        let (cfg, layer, x) = tiny_layer(3);
        let exact = layer.forward(&x, None).unwrap();
        let fmap_mask = vec![true; cfg.n_in()];
        let point_mask = vec![true; cfg.n_in() * cfg.points_per_query()];
        let value = matmul_row_masked(x.tensor(), &layer.weights().w_value, &fmap_mask).unwrap();
        assert_eq!(value, exact.value);
        let output = layer
            .sample_and_aggregate(&exact.probs, &exact.locations, &value, Some(&point_mask))
            .unwrap();
        assert_eq!(output, exact.output);
    }

    #[test]
    fn all_false_point_mask_zeroes_output() {
        let (cfg, layer, x) = tiny_layer(4);
        let exact = layer.forward(&x, None).unwrap();
        let point_mask = vec![false; cfg.n_in() * cfg.points_per_query()];
        let output = layer
            .sample_and_aggregate(&exact.probs, &exact.locations, &exact.value, Some(&point_mask))
            .unwrap();
        assert_eq!(output.max_abs(), 0.0);
    }

    #[test]
    fn masking_low_probability_points_changes_little() {
        let (_, layer, x) = tiny_layer(5);
        let exact = layer.forward(&x, None).unwrap();
        // Drop points with probability < 1%: output should barely move.
        let mask: Vec<bool> = exact.probs.as_slice().iter().map(|&p| p >= 0.01).collect();
        let pruned = layer
            .sample_and_aggregate(&exact.probs, &exact.locations, &exact.value, Some(&mask))
            .unwrap();
        let err = pruned.relative_l2_error(&exact.output).unwrap();
        assert!(err < 0.05, "err={err}");
    }

    #[test]
    fn mask_length_is_validated() {
        let (_, layer, x) = tiny_layer(6);
        let exact = layer.forward(&x, None).unwrap();
        let short = vec![true; 3];
        assert!(matmul_row_masked(x.tensor(), &layer.weights().w_value, &short).is_err());
        assert!(layer
            .sample_and_aggregate(&exact.probs, &exact.locations, &exact.value, Some(&short))
            .is_err());
    }

    #[test]
    fn warp_changes_sampling_locations() {
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 9).unwrap();
        let layer = wl.layer(0).unwrap();
        let plain = layer.forward(wl.initial_fmap(), None).unwrap();
        let warped = layer.forward(wl.initial_fmap(), Some(wl.warp())).unwrap();
        assert_ne!(plain.locations, warped.locations);
    }

    #[test]
    fn pyramid_shape_mismatch_is_rejected() {
        let (_, layer, _) = tiny_layer(7);
        let other_cfg = MsdaConfig::small();
        let x = FmapPyramid::from_tensor(
            &other_cfg,
            Tensor::zeros([other_cfg.n_in(), other_cfg.d_model]),
        )
        .unwrap();
        assert!(layer.forward(&x, None).is_err());
    }
}
