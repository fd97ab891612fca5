//! Functional reference implementation of one MSDeformAttn layer (Eq. 1).

use crate::bilinear::floor;
use crate::config::MAX_LEVELS;
use crate::sampling::{
    for_each_kept, pack_keep, query_sample_points_into, reference_points, RefPoint, SamplePoint,
};
use crate::workload::SaliencyWarp;
use crate::{FmapPyramid, ModelError, MsdaConfig};
use defa_tensor::matmul::matmul_into;
use defa_tensor::scratch::with_thread_scratch;
use defa_tensor::softmax::{softmax_heads, softmax_heads_thresholded, Thresholded};
use defa_tensor::Tensor;
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Below this many sampling points the per-query loops run sequentially:
/// the scoped-thread helpers have no pool, so a spawn only pays off with
/// real work behind it. Results are identical either way.
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
    let mut locations = Vec::new();
    generate_locations_into(cfg, references, offsets, warp, &mut locations)?;
    Ok(locations)
}

/// [`generate_locations`] into a caller-provided table, resized to
/// `n · points_per_query` reusing its allocation; every slot is
/// overwritten.
fn generate_locations_into(
    cfg: &MsdaConfig,
    references: &[RefPoint],
    offsets: &Tensor,
    warp: Option<&SaliencyWarp>,
    locations: &mut Vec<SamplePoint>,
) -> Result<(), ModelError> {
    check_location_inputs(cfg, references, offsets, warp)?;
    let n = references.len();
    let ppq = cfg.points_per_query();
    let table = warp.map(SaliencyWarp::table);
    let odata = offsets.as_slice();
    locations.resize(n * ppq, SamplePoint::new(0, 0.0, 0.0));
    defa_parallel::par_chunks_mut_if(n * ppq >= PAR_MIN_ELEMS, locations, ppq, |i, pts| {
        query_sample_points_into(cfg, references[i], &odata[i * 2 * ppq..(i + 1) * 2 * ppq], pts);
        if let Some(t) = table {
            t.overwrite(i, pts);
        }
    });
    Ok(())
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
    let mut locations = Vec::new();
    let moved = generate_kept_locations_into(
        cfg,
        references,
        offsets,
        warp,
        keep,
        half_extents,
        &mut locations,
    )?;
    Ok((locations, moved))
}

/// [`generate_kept_locations`] into a caller-provided table, resized to
/// `n · points_per_query` reusing its allocation; returns the number of
/// kept points the clamp moved. Every pruned slot is reset to
/// `SamplePoint::new(0, 0.0, 0.0)`, whatever the table held before.
///
/// # Errors
///
/// As [`generate_kept_locations`].
pub fn generate_kept_locations_into(
    cfg: &MsdaConfig,
    references: &[RefPoint],
    offsets: &Tensor,
    warp: Option<&SaliencyWarp>,
    keep: &[bool],
    half_extents: Option<&[[u32; 2]]>,
    locations: &mut Vec<SamplePoint>,
) -> Result<u64, ModelError> {
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
    locations.resize(n * ppq, SamplePoint::new(0, 0.0, 0.0));
    defa_parallel::par_chunks_mut_if(n * ppq >= PAR_MIN_ELEMS, locations, ppq, |i, pts| {
        pts.fill(SamplePoint::new(0, 0.0, 0.0));
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
    Ok(moved.into_inner())
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
    /// Per-head softmax probabilities, `[N_in, N_h·N_l·N_p]`.
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

impl LayerOutput {
    /// Empty buffers, for the `_into` evaluations to size and fill.
    pub(crate) fn empty() -> Self {
        LayerOutput {
            probs: Tensor::zeros([0]),
            offsets: Tensor::zeros([0]),
            locations: Vec::new(),
            value: Tensor::zeros([0]),
            output: Tensor::zeros([0]),
        }
    }
}

thread_local! {
    /// The layer buffers a [`recycle_layer_buffers`] scope keeps between
    /// encoder runs on this thread.
    static RECYCLED: Cell<Option<LayerOutput>> = const { Cell::new(None) };
    /// Whether this thread is inside a [`recycle_layer_buffers`] scope.
    static RECYCLING: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with this thread's encoder runs sharing one set of layer
/// buffers: each run inside the scope refills the buffers the run before
/// it left, block after block and request after request, instead of
/// allocating — and faulting in — its intermediates afresh. The buffers
/// are freed when the outermost scope returns, so an idle thread holds
/// none. The serving runtime runs each pool job — one worker's share of
/// a batch — in one scope.
pub fn recycle_layer_buffers<R>(f: impl FnOnce() -> R) -> R {
    /// Restores the enclosing scope's state, also when `f` panics.
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            RECYCLING.set(self.0);
            if !self.0 {
                drop(RECYCLED.take());
            }
        }
    }
    let _restore = Restore(RECYCLING.replace(true));
    f()
}

/// Runs `f` with the layer buffers of one encoder run: inside a
/// [`recycle_layer_buffers`] scope, this thread's recycled buffers,
/// holding whatever the last run left (every `_into` evaluation resizes
/// and overwrites what it fills); outside one, fresh buffers, freed after
/// `f`. The buffers are taken out of the thread-local for the call and
/// put back after it, so a reentrant call runs with fresh buffers instead
/// of panicking.
pub fn with_layer_buffers<R>(f: impl FnOnce(&mut LayerOutput) -> R) -> R {
    let mut out = RECYCLED.take().unwrap_or_else(LayerOutput::empty);
    let r = f(&mut out);
    if RECYCLING.get() {
        RECYCLED.set(Some(out));
    }
    r
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
        let mut out = LayerOutput::empty();
        self.forward_into(x, warp, &mut out)?;
        Ok(out)
    }

    /// [`forward`](Self::forward) into caller-provided buffers (such as
    /// [`with_layer_buffers`]'s), each resized reusing its allocation
    /// and overwritten.
    ///
    /// # Errors
    ///
    /// As [`forward`](Self::forward).
    pub fn forward_into(
        &self,
        x: &FmapPyramid,
        warp: Option<&SaliencyWarp>,
        out: &mut LayerOutput,
    ) -> Result<(), ModelError> {
        self.attention_probs_into(x, &mut out.probs)?;
        let q = x.tensor();
        with_thread_scratch(|s| matmul_into(q, &self.weights.w_offset, &mut out.offsets, s))?;
        generate_locations_into(
            &self.cfg,
            &self.references,
            &out.offsets,
            warp,
            &mut out.locations,
        )?;
        with_thread_scratch(|s| matmul_into(q, &self.weights.w_value, &mut out.value, s))?;
        self.sample_and_aggregate_into(
            &out.probs,
            &out.locations,
            &out.value,
            None,
            &mut (),
            &mut out.output,
        )
    }

    /// Computes only the per-head attention probabilities.
    ///
    /// In the DEFA dataflow (§4.1) this is the *first* stage of the block:
    /// the probabilities feed the point-mask generator (PAP) before the
    /// offset projection and MSGS run, so callers that prune want the
    /// probabilities without the rest of the layer. The logits `X·Wᴬ` are
    /// normalized in place by [`softmax_heads`].
    ///
    /// The first element of the pair is empty: it held the raw logits,
    /// which nothing read. The pair stays until the staged stage-by-stage
    /// copy of the pipeline that destructures it is retired (ROADMAP item
    /// 4).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] if the pyramid disagrees with
    /// the configuration.
    pub fn attention_probs(&self, x: &FmapPyramid) -> Result<((), Tensor), ModelError> {
        let mut probs = Tensor::zeros([0]);
        self.attention_probs_into(x, &mut probs)?;
        Ok(((), probs))
    }

    /// [`attention_probs`](Self::attention_probs) into a caller-provided
    /// tensor, resized reusing its allocation and overwritten.
    ///
    /// # Errors
    ///
    /// As [`attention_probs`](Self::attention_probs).
    pub fn attention_probs_into(
        &self,
        x: &FmapPyramid,
        probs: &mut Tensor,
    ) -> Result<(), ModelError> {
        self.attention_logits_into(x, probs)?;
        softmax_heads(probs, self.cfg.points_per_head())?;
        Ok(())
    }

    /// [`attention_probs_into`](Self::attention_probs_into) and the PAP
    /// compare in one pass per query row ([`softmax_heads_thresholded`]):
    /// the same probabilities, written to `probs`, and `keep = p >=
    /// threshold` per sampling point with the kept and total probability
    /// mass.
    ///
    /// # Errors
    ///
    /// As [`attention_probs`](Self::attention_probs).
    pub fn attention_probs_thresholded_into(
        &self,
        x: &FmapPyramid,
        threshold: f32,
        probs: &mut Tensor,
    ) -> Result<Thresholded, ModelError> {
        self.attention_logits_into(x, probs)?;
        Ok(softmax_heads_thresholded(probs, self.cfg.points_per_head(), threshold)?)
    }

    /// Writes the attention logits `X·Wᴬ` to `logits`, after checking `x`
    /// against the configuration.
    fn attention_logits_into(
        &self,
        x: &FmapPyramid,
        logits: &mut Tensor,
    ) -> Result<(), ModelError> {
        let cfg = &self.cfg;
        if x.n_in() != cfg.n_in() || x.d() != cfg.d_model {
            return Err(ModelError::ShapeMismatch(format!(
                "pyramid [{} x {}] does not match config [{} x {}]",
                x.n_in(),
                x.d(),
                cfg.n_in(),
                cfg.d_model
            )));
        }
        with_thread_scratch(|s| matmul_into(x.tensor(), &self.weights.w_attn, logits, s))?;
        Ok(())
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
    /// This is stage 4's kept-slot walk ([`walk_kept_points`]) with the
    /// aggregation as its only visitor. The walk builds the kept slots'
    /// footprints in SoA lanes ([`KeptLanes`]); the aggregation then turns
    /// each `(query, head)` slice's lanes into a tap list and sums it:
    ///
    /// 1. *Taps.* The lanes are walked in slot order, `N0..N3` within a
    ///    slot, into a tap list of `(token, probability × weight)`. A
    ///    neighbour becomes a tap only when it is inside its level, its
    ///    weight is nonzero and the slot's probability is nonzero: the
    ///    per-point reference's skip rules.
    /// 2. *Accumulation.* For each 8-channel block of the head, the taps
    ///    are summed into registers seeded from the output, which is
    ///    stored once; a head dimension that is not a multiple of 8 ends
    ///    with a scalar tail.
    ///
    /// The bits do not depend on the instruction set the kernel is compiled
    /// for or on the thread count: every output channel adds the same
    /// products `probability × weight × value` in the same slot order as
    /// the sequential per-point loop, with separate multiplies and adds
    /// (no fused multiply–add), and query ranges — walked in parallel —
    /// write disjoint output rows.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] if `probs`, `locations` or
    /// `value` disagree with the configuration or with each other, if
    /// `point_mask` does not have one entry per location, or if a location
    /// the mask keeps names a level the configuration does not have.
    pub fn sample_and_aggregate(
        &self,
        probs: &Tensor,
        locations: &[SamplePoint],
        value: &Tensor,
        point_mask: Option<&[bool]>,
    ) -> Result<Tensor, ModelError> {
        let mut output = Tensor::zeros([0]);
        self.sample_and_aggregate_into(probs, locations, value, point_mask, &mut (), &mut output)?;
        Ok(output)
    }

    /// [`sample_and_aggregate`](Self::sample_and_aggregate) into a
    /// caller-provided `output` (resized reusing its allocation and zeroed
    /// first, since the aggregation accumulates into it), with another
    /// stage-4 visitor on the same walk: `visitor` sees every pass of
    /// footprint lanes the aggregation sees, so FWP counting and the MSGS
    /// engine share each footprint with it instead of walking the kept
    /// slots again. With `()` this is exactly `sample_and_aggregate`.
    ///
    /// # Errors
    ///
    /// As [`sample_and_aggregate`](Self::sample_and_aggregate). The visitor
    /// has seen the whole walk when a kept slot names a missing level.
    pub fn sample_and_aggregate_into<V: Stage4Visitor>(
        &self,
        probs: &Tensor,
        locations: &[SamplePoint],
        value: &Tensor,
        point_mask: Option<&[bool]>,
        visitor: &mut V,
        output: &mut Tensor,
    ) -> Result<(), ModelError> {
        let cfg = &self.cfg;
        let ppq = cfg.points_per_query();
        // The number of queries is the probability tensor's row count:
        // it equals `n_in` for encoder self-attention but is the object
        // query count for decoder cross-attention. The column count must
        // be exactly points_per_query — the walk indexes rows by that
        // stride.
        if probs.shape().rank() != 2 || probs.shape().dims()[1] != ppq {
            return Err(ModelError::ShapeMismatch(format!(
                "probs {} expected [n, {ppq}]",
                probs.shape()
            )));
        }
        let n = probs.shape().dims()[0];
        if locations.len() != n * ppq {
            return Err(ModelError::ShapeMismatch(format!(
                "{} locations for {n} queries x {ppq} points",
                locations.len()
            )));
        }
        let d = cfg.d_model;
        if value.shape().dims() != [cfg.n_in(), d] {
            return Err(ModelError::ShapeMismatch(format!(
                "value {} expected [{}, {d}]",
                value.shape(),
                cfg.n_in()
            )));
        }
        if let Some(pm) = point_mask {
            if pm.len() != locations.len() {
                return Err(ModelError::ShapeMismatch(format!(
                    "point mask length {} expected {}",
                    pm.len(),
                    locations.len()
                )));
            }
        }
        let walk = KeptWalk::new(cfg, locations, Some(probs.as_slice()), point_mask);
        // Each query's aggregation walks ppq points x 4 neighbors x dh
        // channels — substantial, so the gate is on the point count alone.
        let ranges = query_ranges(n, n * ppq >= PAR_MIN_ELEMS / 4);
        output.resize_reuse([n, d]);
        output.as_mut_slice().fill(0.0);
        let mut rows = output.as_mut_slice();
        let mut parts = Vec::with_capacity(ranges.len());
        for (range, extra) in ranges.iter().zip(visitor.split(&ranges)) {
            let (out, rest) = std::mem::take(&mut rows).split_at_mut(range.len() * d);
            rows = rest;
            let agg = AggPart {
                value: value.as_slice(),
                d,
                dh: cfg.head_dim(),
                heads: cfg.n_heads,
                slice0: range.start * cfg.n_heads,
                last: (range.start * cfg.n_heads, 0),
                out,
                taps: [(0, 0.0); 4 * LANES],
                tap_ends: [0; LANES],
            };
            parts.push((agg, extra));
        }
        let (parts, bad) = walk.run(&ranges, parts);
        visitor.join(parts.into_iter().map(|(_, extra)| extra).collect());
        if bad {
            return Err(ModelError::ShapeMismatch(format!(
                "a kept location samples a level outside the {} configured",
                cfg.n_levels()
            )));
        }
        Ok(())
    }
}

/// Stage 4's kept-slot walk over one block, without the aggregation: the
/// kept slots in slot order, 32 at a time, as passes of footprint lanes
/// handed to `visitor` — FWP's frequency counting and the MSGS engine's
/// bank sets walk the block this way when they run on their own.
///
/// `locations` holds the block's sampling points in slot order; its length
/// need not be a whole number of queries (a short last query has only the
/// slots given). `keep` selects the slots to walk (all when `None`). The
/// walk runs over contiguous query ranges, in parallel when the block is
/// large, and `visitor` reduces its ranges' state in range order.
///
/// Returns whether a kept slot names a level `cfg` does not have. Such a
/// slot still reaches the visitor, with every neighbour outside.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] if `cfg` fails validation and
/// [`ModelError::ShapeMismatch`] if `keep` does not have one entry per
/// location.
pub fn walk_kept_points<V: Stage4Visitor>(
    cfg: &MsdaConfig,
    locations: &[SamplePoint],
    keep: Option<&[bool]>,
    visitor: &mut V,
) -> Result<bool, ModelError> {
    cfg.validate()?;
    if let Some(k) = keep {
        if k.len() != locations.len() {
            return Err(ModelError::ShapeMismatch(format!(
                "keep mask of {} for {} locations",
                k.len(),
                locations.len()
            )));
        }
    }
    let n = locations.len().div_ceil(cfg.points_per_query());
    let walk = KeptWalk::new(cfg, locations, None, keep);
    let ranges = query_ranges(n, locations.len() >= PAR_MIN_ELEMS / 4);
    let parts = visitor.split(&ranges);
    let (parts, bad) = walk.run(&ranges, parts);
    visitor.join(parts);
    Ok(bad)
}

/// A consumer of stage 4's footprint lanes over one contiguous range of
/// queries.
pub trait LaneVisitor {
    /// Whether the visitor reads [`KeptLanes::offsets`],
    /// [`KeptLanes::levels`] and [`KeptLanes::anchor_residues`]. The walk
    /// computes them only for a visitor that does.
    const READS_SLOTS: bool = false;

    /// Whether the visitor reads [`KeptLanes::tokens`]. The walk computes
    /// them only for a visitor that does.
    const READS_TOKENS: bool = false;

    /// Sees one pass of the walk: the next (up to 32) kept slots of the
    /// range, in slot order.
    fn visit(&mut self, lanes: &KeptLanes);
}

/// A stage-4 visitor: state that the kept-slot walk splits over its
/// contiguous query ranges and reduces back in range order.
///
/// `()` is the empty visitor; a pair visits with both halves, `Some` with
/// its content and `None` with nothing.
pub trait Stage4Visitor {
    /// One query range's share of the state.
    type Part: LaneVisitor + Send;

    /// One part per range, in range order.
    fn split(&mut self, ranges: &[Range<usize>]) -> Vec<Self::Part>;

    /// Folds the parts back, in range order.
    fn join(&mut self, parts: Vec<Self::Part>);
}

impl LaneVisitor for () {
    #[inline]
    fn visit(&mut self, _: &KeptLanes) {}
}

impl<A: LaneVisitor, B: LaneVisitor> LaneVisitor for (A, B) {
    const READS_SLOTS: bool = A::READS_SLOTS || B::READS_SLOTS;
    const READS_TOKENS: bool = A::READS_TOKENS || B::READS_TOKENS;

    #[inline(always)]
    fn visit(&mut self, lanes: &KeptLanes) {
        self.0.visit(lanes);
        self.1.visit(lanes);
    }
}

impl<V: LaneVisitor> LaneVisitor for Option<V> {
    const READS_SLOTS: bool = V::READS_SLOTS;
    const READS_TOKENS: bool = V::READS_TOKENS;

    #[inline(always)]
    fn visit(&mut self, lanes: &KeptLanes) {
        if let Some(v) = self {
            v.visit(lanes);
        }
    }
}

impl Stage4Visitor for () {
    type Part = ();

    fn split(&mut self, ranges: &[Range<usize>]) -> Vec<()> {
        vec![(); ranges.len()]
    }

    fn join(&mut self, _: Vec<()>) {}
}

impl<A: Stage4Visitor, B: Stage4Visitor> Stage4Visitor for (A, B) {
    type Part = (A::Part, B::Part);

    fn split(&mut self, ranges: &[Range<usize>]) -> Vec<Self::Part> {
        self.0.split(ranges).into_iter().zip(self.1.split(ranges)).collect()
    }

    fn join(&mut self, parts: Vec<Self::Part>) {
        let (a, b) = parts.into_iter().unzip();
        self.0.join(a);
        self.1.join(b);
    }
}

impl<V: Stage4Visitor> Stage4Visitor for Option<V> {
    type Part = Option<V::Part>;

    fn split(&mut self, ranges: &[Range<usize>]) -> Vec<Self::Part> {
        match self {
            Some(v) => v.split(ranges).into_iter().map(Some).collect(),
            None => ranges.iter().map(|_| None).collect(),
        }
    }

    fn join(&mut self, parts: Vec<Self::Part>) {
        if let Some(v) = self {
            v.join(parts.into_iter().flatten().collect());
        }
    }
}

impl<V: Stage4Visitor + ?Sized> Stage4Visitor for &mut V {
    type Part = V::Part;

    fn split(&mut self, ranges: &[Range<usize>]) -> Vec<Self::Part> {
        (**self).split(ranges)
    }

    fn join(&mut self, parts: Vec<Self::Part>) {
        (**self).join(parts);
    }
}

/// `n` queries in contiguous near-equal ranges: one per helper thread when
/// `parallel`, else one.
fn query_ranges(n: usize, parallel: bool) -> Vec<Range<usize>> {
    let t = if parallel { defa_parallel::current_num_threads().clamp(1, n.max(1)) } else { 1 };
    (0..t).map(|k| n * k / t..n * (k + 1) / t).collect()
}

/// Slots one footprint pass holds. A head with more points runs in several
/// passes, each continuing the sums of the one before, in slot order.
const LANES: usize = 32;

/// Lanes per footprint block. The footprint loop runs whole blocks, so
/// it vectorizes without a scalar epilogue.
const LANE_BLOCK: usize = 8;

/// Footprint blocks per pass.
const BLOCKS: usize = LANES / LANE_BLOCK;

/// Channels one accumulator block holds in registers.
const CHANNEL_BLOCK: usize = 8;

/// One value per lane, in blocks of [`LANE_BLOCK`].
type Lanes<T> = [[T; LANE_BLOCK]; BLOCKS];

/// One pyramid level as the walk's lanes read it.
#[derive(Debug, Clone, Copy, Default)]
struct LevelGeom {
    /// Width and height as `f32`, exact below [`crate::config::MAX_EXTENT`].
    wf: f32,
    hf: f32,
    w: u32,
    /// Flat token index of the level's first pixel.
    base: u32,
}

/// One pass of stage 4's kept-slot walk: the bilinear footprints of up to
/// 32 kept slots, in slot order, as SoA lanes. A pass fills its lanes
/// across `(query, head)` slices — numbered `query · n_heads + head` — so
/// a sparsely kept block still computes whole blocks of lanes; its
/// [`runs`](Self::runs) say which lanes belong to which slice.
///
/// The walk gathers the slots into the lanes and computes, a whole block
/// of 8 lanes at a time and only as far as its visitors read them, the
/// floored coordinates (reading NaN as 0, as the reference's saturating
/// cast does) and their residues modulo 4, the in-bounds tests as `f32`
/// compares on them, the four neighbours' tokens and — when aggregating —
/// the bilinear weights with
/// [`Footprint::at`](crate::bilinear::Footprint::at)'s exact `f32`
/// expressions. All of it is float adds, compares and selects, so it
/// vectorizes; a float-to-int `as` cast would not.
#[derive(Debug, Default)]
pub struct KeptLanes {
    len: usize,
    /// Each run's slice and first lane, in lane order.
    runs: [(usize, usize); LANES],
    n_runs: usize,
    // Gathered per slot: its offset in its slice and its level (for the
    // visitors that read them), the point, its probability and its
    // level's geometry.
    offset: Lanes<u32>,
    level: Lanes<u8>,
    xs: Lanes<f32>,
    ys: Lanes<f32>,
    ps: Lanes<f32>,
    wfs: Lanes<f32>,
    hfs: Lanes<f32>,
    ws: Lanes<u32>,
    bases: Lanes<u32>,
    /// The top-left neighbour's coordinates modulo 4, `(y0 & 3) · 4 +
    /// (x0 & 3)`.
    residue: Lanes<u32>,
    // Per neighbour N0..N3: token, probability × weight, and whether it
    // becomes an aggregation tap.
    token: [Lanes<u32>; 4],
    ww: [Lanes<f32>; 4],
    live: [Lanes<u32>; 4],
}

impl KeptLanes {
    /// The pass's slices in lane order, each with the range of its lanes.
    /// A slice's kept slots are consecutive lanes, slices only move
    /// forward, and a slice split across two passes ends the first and
    /// starts the second.
    pub fn runs(&self) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let runs = &self.runs[..self.n_runs];
        let ends = runs.iter().skip(1).map(|&(_, start)| start).chain([self.len]);
        runs.iter().zip(ends).map(|(&(slice, start), end)| (slice, start..end))
    }

    /// Starts slice `slice`'s run at lane `start`, the lane its next kept
    /// slot takes.
    #[inline]
    fn open_run(&mut self, slice: usize, start: usize) {
        self.runs[self.n_runs] = (slice, start);
        self.n_runs += 1;
    }

    /// Each lane's slot offset within its slice, in `0..points_per_head`.
    /// Gathered for a visitor with [`LaneVisitor::READS_SLOTS`].
    pub fn offsets(&self) -> &[u32] {
        &self.offset.as_flattened()[..self.len]
    }

    /// Each lane's level index, as its location names it. Gathered for a
    /// visitor with [`LaneVisitor::READS_SLOTS`].
    pub fn levels(&self) -> &[u8] {
        &self.level.as_flattened()[..self.len]
    }

    /// Each lane's top-left neighbour `N0 = (x0, y0)` modulo 4, as
    /// `(y0 & 3) · 4 + (x0 & 3)` of `Footprint::at(x, y).neighbors[0]`'s
    /// saturated integer coordinates (NaN reads as 0, ±∞ as `i64::MAX`
    /// and `i64::MIN`). Computed for a visitor with
    /// [`LaneVisitor::READS_SLOTS`].
    pub fn anchor_residues(&self) -> &[u32] {
        &self.residue.as_flattened()[..self.len]
    }

    /// Neighbour `k`'s flat pyramid token per lane (`N0..N3` for `k` in
    /// `0..4`). A neighbour outside its level reads the pyramid's token
    /// count, one past the last token. Computed for a visitor with
    /// [`LaneVisitor::READS_TOKENS`].
    pub fn tokens(&self, k: usize) -> &[u32] {
        &self.token[k].as_flattened()[..self.len]
    }

    /// Computes the footprints of the first `len` lanes, a whole block of
    /// lanes at a time (lanes past `len` hold stale values and are never
    /// read back): what visitor `P` reads, plus the aggregation's weights
    /// and taps when `WEIGHTS`. `outside` is the token of a neighbour
    /// outside its level.
    #[inline(always)]
    fn footprints<P: LaneVisitor, const WEIGHTS: bool>(&mut self, outside: u32) {
        // The least `f32` that the saturating `as i64` clamps to `i64::MAX`.
        const TWO_63: f32 = 9_223_372_036_854_775_808.0;
        for b in 0..self.len.div_ceil(LANE_BLOCK) {
            for j in 0..LANE_BLOCK {
                let (x, y) = (self.xs[b][j], self.ys[b][j]);
                let (fx, fy) = (floor(x), floor(y));
                // The reference's saturating integer cast reads NaN as 0;
                // every other floor is an integer or ±∞, compared exactly.
                let xn = if fx.is_nan() { 0.0 } else { fx };
                let yn = if fy.is_nan() { 0.0 } else { fy };
                if P::READS_SLOTS {
                    // `c - 4·⌊c/4⌋` is exact for every finite integer `c`:
                    // the saturating cast's `c & 3`, except that `c ≥ 2⁶³`
                    // (and +∞) saturate to 3 and −∞ (NaN here) to 0.
                    let residue = |c: f32| {
                        let r = c - 4.0 * floor(c * 0.25);
                        if c >= TWO_63 {
                            3.0
                        } else if r >= 0.0 {
                            r
                        } else {
                            0.0
                        }
                    };
                    let key = residue(yn) * 4.0 + residue(xn);
                    self.residue[b][j] = (key + 8_388_608.0).to_bits().wrapping_sub(0x4B00_0000);
                }
                if !(P::READS_TOKENS || WEIGHTS) {
                    continue;
                }
                let (wf, hf) = (self.wfs[b][j], self.hfs[b][j]);
                let x_in = [(xn >= 0.0) & (xn < wf), (xn >= -1.0) & (xn < wf - 1.0)];
                let y_in = [(yn >= 0.0) & (yn < hf), (yn >= -1.0) & (yn < hf - 1.0)];
                let inside =
                    [x_in[0] & y_in[0], x_in[1] & y_in[0], x_in[0] & y_in[1], x_in[1] & y_in[1]];
                // Integer coordinates, exact whenever a neighbour is in
                // bounds: clamped to [-1, extent], `c + 2²³ + 1` is an
                // integer in [2²³, 2²⁴) whose low mantissa bits are `c + 1`.
                let to_int = |c: f32, extent: f32| {
                    let c = if c < -1.0 { -1.0 } else { c };
                    let c = if c > extent { extent } else { c };
                    (c + 8_388_609.0).to_bits().wrapping_sub(0x4B00_0001)
                };
                let w = self.ws[b][j];
                let t = self.bases[b][j]
                    .wrapping_add(to_int(yn, hf).wrapping_mul(w))
                    .wrapping_add(to_int(xn, wf));
                let tokens = [t, t.wrapping_add(1), t.wrapping_add(w), t.wrapping_add(w + 1)];
                // The aggregation reads only the tokens of its taps, which
                // are inside; the out-of-level token is for visitors.
                for k in 0..4 {
                    self.token[k][b][j] =
                        if P::READS_TOKENS && !inside[k] { outside } else { tokens[k] };
                }
                if WEIGHTS {
                    let p = self.ps[b][j];
                    let t1 = x - fx;
                    let t0 = y - fy;
                    let weights =
                        [(1.0 - t1) * (1.0 - t0), t1 * (1.0 - t0), (1.0 - t1) * t0, t1 * t0];
                    for k in 0..4 {
                        self.ww[k][b][j] = p * weights[k];
                        self.live[k][b][j] =
                            u32::from(inside[k] & (weights[k] != 0.0) & (p != 0.0));
                    }
                }
            }
        }
    }

    /// Writes the pass's aggregation taps, in slot order and `N0..N3`
    /// within a slot, and after each lane `i` the number written so far to
    /// `ends[i]`.
    fn taps(&self, taps: &mut [(u32, f32); 4 * LANES], ends: &mut [usize; LANES]) {
        let n = self.len;
        let token: [&[u32]; 4] = std::array::from_fn(|k| &self.token[k].as_flattened()[..n]);
        let ww: [&[f32]; 4] = std::array::from_fn(|k| &self.ww[k].as_flattened()[..n]);
        let live: [&[u32]; 4] = std::array::from_fn(|k| &self.live[k].as_flattened()[..n]);
        let mut nt = 0;
        for (i, end) in ends.iter_mut().enumerate().take(n) {
            for k in 0..4 {
                taps[nt] = (token[k][i], ww[k][i]);
                nt += live[k][i] as usize;
            }
            *end = nt;
        }
    }
}

/// The read-only inputs of stage 4's walk, shared by every query range.
struct KeptWalk<'a> {
    /// One entry per possible `u8` level: levels the configuration does
    /// not have keep zero extents, so their neighbours are never in
    /// bounds. `validate` bounds extents by 2²² and the token count by
    /// 2³¹, so both are exact in the lanes' `f32` and 32-bit integers.
    levels: [LevelGeom; 256],
    n_levels: u8,
    /// The pyramid's token count: the token of a neighbour outside.
    n_tokens: u32,
    lp: usize,
    ppq: usize,
    locations: &'a [SamplePoint],
    /// Slot probabilities; every slot reads 1 without them.
    probs: Option<&'a [f32]>,
    keep: Option<&'a [bool]>,
}

impl<'a> KeptWalk<'a> {
    fn new(
        cfg: &MsdaConfig,
        locations: &'a [SamplePoint],
        probs: Option<&'a [f32]>,
        keep: Option<&'a [bool]>,
    ) -> Self {
        let mut levels = [LevelGeom::default(); 256];
        let mut base = 0u32;
        for (g, shape) in levels.iter_mut().zip(&cfg.levels) {
            *g = LevelGeom { wf: shape.w as f32, hf: shape.h as f32, w: shape.w as u32, base };
            base += shape.pixels() as u32;
        }
        KeptWalk {
            levels,
            n_levels: cfg.n_levels() as u8,
            n_tokens: base,
            lp: cfg.points_per_head(),
            ppq: cfg.points_per_query(),
            locations,
            probs,
            keep,
        }
    }

    /// Walks each range with its part, in parallel when there are several,
    /// and returns the parts in range order and whether a kept slot named
    /// a missing level.
    fn run<P: LaneVisitor + Send>(&self, ranges: &[Range<usize>], parts: Vec<P>) -> (Vec<P>, bool) {
        let mut jobs: Vec<_> =
            ranges.iter().cloned().zip(parts).map(|(range, part)| (range, part, false)).collect();
        defa_parallel::par_chunks_mut_if(jobs.len() > 1, &mut jobs, 1, |_, job| {
            for (queries, part, bad) in job {
                *bad = match self.probs {
                    Some(probs) => self.walk::<P, true>(queries.clone(), probs, part),
                    None => self.walk::<P, false>(queries.clone(), &[], part),
                };
            }
        });
        let bad = jobs.iter().any(|&(_, _, bad)| bad);
        (jobs.into_iter().map(|(_, part, _)| part).collect(), bad)
    }

    /// Walks the kept slots of `queries` in slot order, handing each full
    /// pass of lanes (and the last, partial one) to `part`. Returns whether
    /// a kept slot named a level the configuration does not have.
    fn walk<P: LaneVisitor, const PROBS: bool>(
        &self,
        queries: Range<usize>,
        probs: &[f32],
        part: &mut P,
    ) -> bool {
        let mut lanes = KeptLanes::default();
        let mut bad = false;
        let lp = self.lp;
        let lo = queries.start * self.ppq;
        let hi = (queries.end * self.ppq).min(self.locations.len());
        let mut cnt = 0;
        // Slices start every `lp` slots, and `lo` is a query's first slot.
        for (slice, start) in (lo / lp..).zip((lo..hi).step_by(lp)) {
            let end = (start + lp).min(hi);
            let mut opened = false;
            for w0 in (start..end).step_by(64) {
                let m = 64.min(end - w0);
                let mut kept =
                    self.keep.map_or(u64::MAX >> (64 - m), |k| pack_keep(&k[w0..w0 + m]));
                if kept != 0 && !opened {
                    lanes.open_run(slice, cnt);
                    opened = true;
                }
                while kept != 0 {
                    let s = w0 + kept.trailing_zeros() as usize;
                    kept &= kept - 1;
                    let pt = self.locations[s];
                    bad |= pt.level >= self.n_levels;
                    let (b, j) = (cnt / LANE_BLOCK, cnt % LANE_BLOCK);
                    if P::READS_SLOTS {
                        lanes.offset[b][j] = (s - start) as u32;
                        lanes.level[b][j] = pt.level;
                    }
                    lanes.xs[b][j] = pt.x;
                    lanes.ys[b][j] = pt.y;
                    if PROBS {
                        lanes.ps[b][j] = probs[s];
                    }
                    if P::READS_TOKENS || PROBS {
                        let g = self.levels[pt.level as usize];
                        lanes.wfs[b][j] = g.wf;
                        lanes.hfs[b][j] = g.hf;
                        lanes.ws[b][j] = g.w;
                        lanes.bases[b][j] = g.base;
                    }
                    cnt += 1;
                    if cnt == LANES {
                        Self::pass::<P, PROBS>(&mut lanes, cnt, self.n_tokens, part);
                        cnt = 0;
                        // The slice's remaining kept slots continue in the
                        // next pass; a later word reopens it otherwise.
                        opened = kept != 0;
                        if opened {
                            lanes.open_run(slice, 0);
                        }
                    }
                }
            }
        }
        if cnt > 0 {
            Self::pass::<P, PROBS>(&mut lanes, cnt, self.n_tokens, part);
        }
        bad
    }

    /// Computes the footprints of the first `cnt` lanes — with the
    /// aggregation's weights when the walk has probabilities — and hands
    /// them to `part`.
    fn pass<P: LaneVisitor, const PROBS: bool>(
        lanes: &mut KeptLanes,
        cnt: usize,
        n_tokens: u32,
        part: &mut P,
    ) {
        lanes.len = cnt;
        lanes.footprints::<P, PROBS>(n_tokens);
        part.visit(lanes);
        lanes.n_runs = 0;
    }
}

/// The aggregation's share of one query range: the range's output rows.
struct AggPart<'a> {
    value: &'a [f32],
    d: usize,
    dh: usize,
    heads: usize,
    /// The range's first slice.
    slice0: usize,
    /// The last slice summed and its head.
    last: (usize, usize),
    out: &'a mut [f32],
    /// The tap list, value token and weight, and where each lane's taps
    /// end in it.
    taps: [(u32, f32); 4 * LANES],
    tap_ends: [usize; LANES],
}

impl LaneVisitor for AggPart<'_> {
    /// Sums each slice's taps into its head's channels; a slice split over
    /// two passes continues its sums in slot order.
    #[inline(always)]
    fn visit(&mut self, lanes: &KeptLanes) {
        lanes.taps(&mut self.taps, &mut self.tap_ends);
        for (slice, run) in lanes.runs() {
            let t0 = run.start.checked_sub(1).map_or(0, |i| self.tap_ends[i]);
            let taps = &self.taps[t0..self.tap_ends[run.end - 1]];
            // Slices only move forward; the head wraps once per query.
            let (last, head) = self.last;
            let mut head = head + (slice - last);
            if head >= self.heads {
                head %= self.heads;
            }
            self.last = (slice, head);
            let row = (slice - self.slice0) * self.dh;
            let chan0 = head * self.dh;
            let out = &mut self.out[row..row + self.dh];
            accumulate(self.value, self.d, chan0, taps, out);
        }
    }
}

/// Adds `w · value[token, chan0 + c]` over the taps, in tap order, to
/// every channel `c` of `out`, holding 8-channel blocks in registers.
#[inline(always)]
fn accumulate(value: &[f32], d: usize, chan0: usize, taps: &[(u32, f32)], out: &mut [f32]) {
    let tail0 = out.len() / CHANNEL_BLOCK * CHANNEL_BLOCK;
    let mut blocks = out.chunks_exact_mut(CHANNEL_BLOCK);
    for (b, ob) in blocks.by_ref().enumerate() {
        let c = chan0 + b * CHANNEL_BLOCK;
        let mut acc = [0f32; CHANNEL_BLOCK];
        acc.copy_from_slice(ob);
        for &(t, w) in taps {
            let off = t as usize * d + c;
            for (a, &v) in acc.iter_mut().zip(&value[off..off + CHANNEL_BLOCK]) {
                *a += w * v;
            }
        }
        ob.copy_from_slice(&acc);
    }
    for (c, o) in blocks.into_remainder().iter_mut().enumerate() {
        let mut a = *o;
        for &(t, w) in taps {
            a += w * value[t as usize * d + chan0 + tail0 + c];
        }
        *o = a;
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
    fn value_and_level_mismatches_are_typed_errors() {
        let (cfg, layer, x) = tiny_layer(8);
        let exact = layer.forward(&x, None).unwrap();
        let short = Tensor::zeros([cfg.n_in() - 1, cfg.d_model]);
        assert!(matches!(
            layer.sample_and_aggregate(&exact.probs, &exact.locations, &short, None),
            Err(ModelError::ShapeMismatch(_))
        ));
        let mut locations = exact.locations.clone();
        locations[5].level = cfg.n_levels() as u8;
        assert!(matches!(
            layer.sample_and_aggregate(&exact.probs, &locations, &exact.value, None),
            Err(ModelError::ShapeMismatch(_))
        ));
        // A pruned slot is never read, whatever it holds.
        let mut mask = vec![true; locations.len()];
        mask[5] = false;
        layer.sample_and_aggregate(&exact.probs, &locations, &exact.value, Some(&mask)).unwrap();
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
