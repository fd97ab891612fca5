//! Synthetic benchmark workload generation.
//!
//! The paper evaluates on the encoders of Deformable DETR, DN-DETR and DINO
//! over COCO 2017. A Rust systems reproduction cannot ship trained
//! checkpoints, so this module generates synthetic workloads that are
//! *statistically faithful* in the two properties the DEFA algorithms
//! exploit:
//!
//! 1. **Skewed attention probabilities** — §3.2 observes that near-zero
//!    probabilities constitute over 80 % of all sampling points. We size the
//!    logit variance so the per-head softmax reproduces that skew.
//! 2. **Non-uniform, temporally persistent pixel popularity** — §3.1
//!    observes that a small proportion of pixels is sampled far more often
//!    than the rest, and FWP relies on block *k*'s statistics predicting
//!    block *k+1*'s accesses. We superimpose per-level *hotspots*
//!    (synthetic salient objects, fixed for the whole workload) that attract
//!    a configurable fraction of sampling points via [`SaliencyWarp`].

use std::sync::OnceLock;

use crate::reference::{MsdaLayer, MsdaWeights};
use crate::sampling::SamplePoint;
use crate::{FmapPyramid, ModelError, MsdaConfig};
use defa_tensor::rng::{splitmix64 as mix64, TensorRng};
use defa_tensor::{QuantParams, Tensor};

/// The three DAC-24 evaluation networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Deformable DETR (ICLR'21).
    DeformableDetr,
    /// DN-DETR (CVPR'22).
    DnDetr,
    /// DINO (ICLR'22).
    Dino,
}

impl Benchmark {
    /// All benchmarks in the paper's presentation order.
    pub fn all() -> [Benchmark; 3] {
        [Benchmark::DeformableDetr, Benchmark::DnDetr, Benchmark::Dino]
    }

    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::DeformableDetr => "De DETR",
            Benchmark::DnDetr => "DN-DETR",
            Benchmark::Dino => "DINO",
        }
    }

    /// Baseline detection AP on COCO reported in Fig. 6(a).
    pub fn baseline_ap(&self) -> f32 {
        match self {
            Benchmark::DeformableDetr => 46.9,
            Benchmark::DnDetr => 49.4,
            Benchmark::Dino => 50.8,
        }
    }

    /// DEFA (pruned + quantized) detection AP reported in Fig. 6(a).
    pub fn defa_ap(&self) -> f32 {
        match self {
            Benchmark::DeformableDetr => 45.5,
            Benchmark::DnDetr => 47.9,
            Benchmark::Dino => 49.4,
        }
    }

    /// Fraction of MSDeformAttn latency spent in MSGS + aggregation on the
    /// RTX 3090Ti, from Fig. 1(b).
    pub fn msgs_latency_fraction(&self) -> f64 {
        match self {
            Benchmark::DeformableDetr => 0.6328,
            Benchmark::DnDetr => 0.6036,
            Benchmark::Dino => 0.6331,
        }
    }

    /// Workload statistics: `(logit_std, hotspot_fraction, offset_std)`.
    ///
    /// `logit_std` controls attention-probability skew, `hotspot_fraction`
    /// the share of sampling points attracted to persistent hotspots and
    /// `offset_std` the dispersion (in pixels) of free sampling offsets.
    /// The three networks behave similarly; DINO's denoising queries make
    /// its sampling marginally more dispersed, DN-DETR's marginally less
    /// peaked, consistent with the slightly different reduction ratios of
    /// Fig. 6(b).
    pub fn workload_stats(&self) -> (f32, f32, f32) {
        match self {
            Benchmark::DeformableDetr => (3.6, 0.62, 2.0),
            Benchmark::DnDetr => (3.3, 0.60, 2.2),
            Benchmark::Dino => (3.2, 0.58, 2.4),
        }
    }

    /// Seed offset so each benchmark gets distinct but reproducible data.
    fn seed_salt(&self) -> u64 {
        match self {
            Benchmark::DeformableDetr => 0x00D0,
            Benchmark::DnDetr => 0x0D0D,
            Benchmark::Dino => 0xD1D0,
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A persistent attractor for sampling points in one pyramid level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hotspot {
    /// Column in level pixel coordinates.
    pub x: f32,
    /// Row in level pixel coordinates.
    pub y: f32,
}

/// Deterministic redirection of sampling points toward level hotspots.
///
/// For each `(query, slot)` pair the warp decides — via a pure hash, so the
/// warp is `Sync` and reproducible — whether the point snaps to a hotspot
/// (plus jitter) or keeps its projected location. Hotspots are Zipf-weighted
/// so a few of them dominate, reproducing the paper's skewed pixel-access
/// frequency.
///
/// A warp is bound to the configuration it was generated for: the snap
/// decision and snapped position of every `(query, slot)` of that
/// configuration are memoized in a table built on first use.
#[derive(Debug, Clone)]
pub struct SaliencyWarp {
    cfg: MsdaConfig,
    hotspots: Vec<Vec<Hotspot>>,
    hotspot_fraction: f32,
    jitter: f32,
    seed: u64,
    table: OnceLock<WarpTable>,
}

/// Every snap decision of one [`SaliencyWarp`] over its configuration.
///
/// Decisions depend only on `(seed, query, slot)`, never on the offsets, so
/// they are computed once per workload instead of once per point per
/// request. Storage is one bit per slot plus the snapped `(x, y)` of each
/// snapped slot in `(query, slot)` order — about 5 bytes per slot at the
/// benchmarks' hotspot fractions.
#[derive(Debug, Clone)]
pub(crate) struct WarpTable {
    /// `u64` words of snap bits per query.
    words: usize,
    /// Snap bits: slot `s` of query `i` is bit `s % 64` of word
    /// `i · words + s / 64`.
    snapped: Vec<u64>,
    /// Index into `pos` of the first snapped slot of each snap-bit word,
    /// in `snapped` order: a slot's rank is its word's entry plus the set
    /// bits below it in the word.
    word_rank: Vec<usize>,
    /// Snapped positions in `(query, slot)` order.
    pos: Vec<[f32; 2]>,
}

impl WarpTable {
    fn build(warp: &SaliencyWarp) -> Self {
        let cfg = &warp.cfg;
        let (n, ppq) = (cfg.n_in(), cfg.points_per_query());
        let words = ppq.div_ceil(64);
        let level = |s: usize| (s / cfg.n_points) % cfg.n_levels();
        // Decisions first, so the positions are allocated at their exact
        // size: the table lives as long as the workload.
        let mut snapped = vec![0u64; n * words];
        for (i, qbits) in snapped.chunks_mut(words).enumerate() {
            for s in 0..ppq {
                qbits[s / 64] |= u64::from(warp.snaps(i, s, level(s))) << (s % 64);
            }
        }
        let total = snapped.iter().map(|w| w.count_ones() as usize).sum();
        let mut word_rank = Vec::with_capacity(n * words);
        let mut pos = Vec::with_capacity(total);
        for (i, qbits) in snapped.chunks(words).enumerate() {
            for (w, &word) in qbits.iter().enumerate() {
                word_rank.push(pos.len());
                let mut bits = word;
                while bits != 0 {
                    let s = w * 64 + bits.trailing_zeros() as usize;
                    pos.extend(warp.snap(i, s, level(s)));
                    bits &= bits - 1;
                }
            }
        }
        WarpTable { words, snapped, word_rank, pos }
    }

    /// Overwrites the snapped slots of query `query`'s points.
    ///
    /// `pts` is the query's `points_per_query` window in slot order; the
    /// result equals [`SaliencyWarp::apply`] on every slot.
    #[inline]
    pub(crate) fn overwrite(&self, query: usize, pts: &mut [SamplePoint]) {
        let words = &self.snapped[query * self.words..(query + 1) * self.words];
        let mut k = self.word_rank[query * self.words];
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let [x, y] = self.pos[k];
                let pt = &mut pts[w * 64 + bits.trailing_zeros() as usize];
                pt.x = x;
                pt.y = y;
                k += 1;
                bits &= bits - 1;
            }
        }
    }

    /// Query `query`'s snap decisions, for lookups by slot.
    #[inline]
    pub(crate) fn query(&self, query: usize) -> QuerySnaps<'_> {
        let words = query * self.words..(query + 1) * self.words;
        QuerySnaps {
            words: &self.snapped[words.clone()],
            word_rank: &self.word_rank[words],
            pos: &self.pos,
        }
    }
}

/// One query's snap bits and their per-word ranks: a slot's snapped
/// position is found in O(1) with a bit test and a count of the set bits
/// below it in its word.
#[derive(Clone, Copy)]
pub(crate) struct QuerySnaps<'a> {
    words: &'a [u64],
    word_rank: &'a [usize],
    pos: &'a [[f32; 2]],
}

impl QuerySnaps<'_> {
    /// `pt` warped: the snapped position of `slot`, or `pt` itself if the
    /// slot keeps its projected location.
    ///
    /// The snap bit selects the result through a bit mask instead of a
    /// branch: the decisions are random, so a branch would mispredict.
    #[inline]
    pub(crate) fn warp(self, slot: usize, pt: [f32; 2]) -> [f32; 2] {
        let (w, b) = (slot / 64, slot % 64);
        let bits = self.words[w];
        let rank = self.word_rank[w] + (bits & ((1u64 << b) - 1)).count_ones() as usize;
        // Past the last snapped slot the lookup misses; the mask is zero then.
        let snapped = self.pos.get(rank).copied().unwrap_or(pt);
        let take = 0u32.wrapping_sub(((bits >> b) & 1) as u32);
        std::array::from_fn(|j| {
            f32::from_bits(snapped[j].to_bits() & take | pt[j].to_bits() & !take)
        })
    }
}

impl SaliencyWarp {
    /// Generates hotspots for a configuration: a handful per level,
    /// positioned uniformly at random.
    pub fn generate(
        cfg: &MsdaConfig,
        fraction: f32,
        jitter: f32,
        rng: &mut TensorRng,
        seed: u64,
    ) -> Self {
        let mut hotspots = Vec::with_capacity(cfg.n_levels());
        for shape in &cfg.levels {
            let count = ((shape.pixels() as f32).sqrt() / 3.0).ceil().max(1.0) as usize;
            let mut level = Vec::with_capacity(count);
            for _ in 0..count {
                level.push(Hotspot {
                    x: rng.uniform_value(0.0, shape.w as f32 - 1.0),
                    y: rng.uniform_value(0.0, shape.h as f32 - 1.0),
                });
            }
            hotspots.push(level);
        }
        SaliencyWarp {
            cfg: cfg.clone(),
            hotspots,
            hotspot_fraction: fraction,
            jitter,
            seed,
            table: OnceLock::new(),
        }
    }

    /// The configuration the warp was generated for.
    pub(crate) fn config(&self) -> &MsdaConfig {
        &self.cfg
    }

    /// Hotspot lists per level.
    pub fn hotspots(&self) -> &[Vec<Hotspot>] {
        &self.hotspots
    }

    /// Every snap decision over the warp's configuration, built on the
    /// first call and memoized for the warp's lifetime.
    pub(crate) fn table(&self) -> &WarpTable {
        self.table.get_or_init(|| WarpTable::build(self))
    }

    fn unit(&self, query: usize, slot: usize, stream: u64) -> f32 {
        let h = mix64(
            self.seed
                ^ (query as u64).wrapping_mul(0xA24BAED4963EE407)
                ^ (slot as u64).wrapping_mul(0x9FB21C651E98DF25)
                ^ stream.wrapping_mul(0xD6E8FEB86659FD93),
        );
        (h >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Possibly redirects a sampling point toward a hotspot of its level.
    ///
    /// Deterministic in `(query, slot)`; the same pair always makes the
    /// same decision across encoder blocks, which is what gives FWP its
    /// inter-block predictive power. This is the per-point reference the
    /// memoized snap table reproduces.
    pub fn apply(&self, query: usize, slot: usize, pt: &mut SamplePoint) {
        if let Some([x, y]) = self.snap(query, slot, pt.level as usize) {
            pt.x = x;
            pt.y = y;
        }
    }

    /// Whether `(query, slot)` in `level` snaps to a hotspot.
    fn snaps(&self, query: usize, slot: usize, level: usize) -> bool {
        self.hotspots.get(level).is_some_and(|s| !s.is_empty())
            && self.unit(query, slot, 0) < self.hotspot_fraction
    }

    /// The snapped position of `(query, slot)` in `level`, or `None` if the
    /// point keeps its projected location.
    fn snap(&self, query: usize, slot: usize, level: usize) -> Option<[f32; 2]> {
        if !self.snaps(query, slot, level) {
            return None;
        }
        let spots = self.hotspots.get(level)?;
        // Zipf-weighted hotspot choice: weight of spot k is 1/(k+1).
        let total: f32 = (0..spots.len()).map(|k| 1.0 / (k + 1) as f32).sum();
        let mut u = self.unit(query, slot, 1) * total;
        let mut chosen = spots.len() - 1;
        for k in 0..spots.len() {
            let w = 1.0 / (k + 1) as f32;
            if u < w {
                chosen = k;
                break;
            }
            u -= w;
        }
        let spot = spots[chosen];
        let jx = (self.unit(query, slot, 2) - 0.5) * 2.0 * self.jitter;
        let jy = (self.unit(query, slot, 3) - 0.5) * 2.0 * self.jitter;
        Some([spot.x + jx, spot.y + jy])
    }
}

/// A complete, reproducible benchmark instance: per-layer weights, initial
/// feature pyramid and saliency warp.
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    benchmark: Benchmark,
    cfg: MsdaConfig,
    layers: Vec<MsdaLayer>,
    initial: FmapPyramid,
    warp: SaliencyWarp,
    seed: u64,
    /// Fake-quantized layers per supported bit width, indexed by
    /// `bits - MIN_QUANT_BITS` and built on first use.
    quantized: [OnceLock<Result<Vec<MsdaLayer>, ModelError>>; QUANT_WIDTHS],
}

/// Smallest bit width [`QuantParams`] supports.
const MIN_QUANT_BITS: u8 = 2;
/// Number of supported bit widths (`2..=16`).
const QUANT_WIDTHS: usize = 15;

impl SyntheticWorkload {
    /// Generates a workload for one benchmark and configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if `cfg` fails validation.
    pub fn generate(benchmark: Benchmark, cfg: &MsdaConfig, seed: u64) -> Result<Self, ModelError> {
        cfg.validate()?;
        let (logit_std, hotspot_fraction, offset_std) = benchmark.workload_stats();
        let mut rng = TensorRng::seed_from(seed ^ benchmark.seed_salt());
        let d = cfg.d_model;
        // Q entries are ~U(-1,1): variance 1/3. A projection column with
        // weight std s yields logit std s·sqrt(d/3); invert for the target.
        let attn_w_std = logit_std / (d as f32 / 3.0).sqrt();
        let offset_w_std = offset_std / (d as f32 / 3.0).sqrt();
        let value_w_std = 1.0 / (d as f32).sqrt();

        let mut layers = Vec::with_capacity(cfg.n_layers);
        for _ in 0..cfg.n_layers {
            let weights = MsdaWeights {
                w_attn: rng.normal([d, cfg.points_per_query()], 0.0, attn_w_std),
                w_offset: rng.normal([d, 2 * cfg.points_per_query()], 0.0, offset_w_std),
                w_value: rng.normal([d, d], 0.0, value_w_std),
            };
            layers.push(MsdaLayer::new(cfg.clone(), weights)?);
        }

        let initial = FmapPyramid::from_tensor(cfg, rng.uniform([cfg.n_in(), d], -1.0, 1.0))?;
        let warp = SaliencyWarp::generate(cfg, hotspot_fraction, 1.5, &mut rng, seed);
        Ok(SyntheticWorkload {
            benchmark,
            cfg: cfg.clone(),
            layers,
            initial,
            warp,
            seed,
            quantized: std::array::from_fn(|_| OnceLock::new()),
        })
    }

    /// The benchmark this workload models.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The shared configuration.
    pub fn config(&self) -> &MsdaConfig {
        &self.cfg
    }

    /// The seed the workload was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All encoder layers.
    pub fn layers(&self) -> &[MsdaLayer] {
        &self.layers
    }

    /// Layer `i`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::IndexOutOfRange`] if `i >= n_layers`.
    pub fn layer(&self, i: usize) -> Result<&MsdaLayer, ModelError> {
        self.layers.get(i).ok_or(ModelError::IndexOutOfRange {
            what: "layer",
            index: i,
            len: self.layers.len(),
        })
    }

    /// The initial (backbone) feature pyramid.
    pub fn initial_fmap(&self) -> &FmapPyramid {
        &self.initial
    }

    /// The saliency warp applied to all layers.
    pub fn warp(&self) -> &SaliencyWarp {
        &self.warp
    }

    /// All encoder layers with INT-`bits` fake-quantized weights (a fitted
    /// symmetric scale per weight tensor), built on the first call for
    /// each bit width and memoized for the workload's lifetime.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Tensor`] for a bit width outside `2..=16`.
    pub fn quantized_layers(&self, bits: u8) -> Result<&[MsdaLayer], ModelError> {
        // The quantizer's own check rejects unsupported widths.
        QuantParams::new(1.0, bits)?;
        let slot = &self.quantized[usize::from(bits - MIN_QUANT_BITS)];
        slot.get_or_init(|| self.layers.iter().map(|l| quantize_layer(l, bits)).collect())
            .as_deref()
            .map_err(Clone::clone)
    }
}

/// One layer with INT-`bits` fake-quantized weights.
fn quantize_layer(layer: &MsdaLayer, bits: u8) -> Result<MsdaLayer, ModelError> {
    let q = |t: &Tensor| -> Result<Tensor, ModelError> {
        Ok(QuantParams::fit(t, bits)?.fake_quantize(t))
    };
    let w = layer.weights();
    let weights =
        MsdaWeights { w_attn: q(&w.w_attn)?, w_offset: q(&w.w_offset)?, w_value: q(&w.w_value)? };
    MsdaLayer::new(layer.config().clone(), weights)
}

/// Service-level objective class of one request.
///
/// A production stream is never latency-uniform: some requests sit on an
/// interactive path (a user is waiting), most are ordinary, and some are
/// offline re-processing that only cares about throughput. The class
/// carries the end-to-end latency budget a request is held to and a
/// coarse priority; deadline-aware schedulers (EDF in `defa-serve`) order
/// batches by `arrival + deadline_ns()` and reports count budget misses
/// per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SloClass {
    /// A user is blocked on the response: tight budget, top priority.
    Interactive,
    /// The default service class.
    Standard,
    /// Offline/bulk work: generous budget, lowest priority.
    Batch,
}

/// Salt for the SLO-class hash stream, independent of the scenario and
/// payload streams so attaching SLOs never perturbs existing traces.
const SLO_SALT: u64 = 0x510C_1A55_0000_0001;

impl SloClass {
    /// All classes, tightest budget first.
    pub fn all() -> [SloClass; 3] {
        [SloClass::Interactive, SloClass::Standard, SloClass::Batch]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Standard => "standard",
            SloClass::Batch => "batch",
        }
    }

    /// End-to-end (queue + service) latency budget in virtual nanoseconds.
    pub fn deadline_ns(&self) -> u64 {
        match self {
            SloClass::Interactive => 2_000_000, // 2 ms
            SloClass::Standard => 10_000_000,   // 10 ms
            SloClass::Batch => 100_000_000,     // 100 ms
        }
    }

    /// Scheduling priority: lower is more urgent.
    pub fn priority(&self) -> u8 {
        match self {
            SloClass::Interactive => 0,
            SloClass::Standard => 1,
            SloClass::Batch => 2,
        }
    }

    /// The class request `id` draws under generator seed `seed`: a pure
    /// hash, 25 % interactive / 50 % standard / 25 % batch.
    ///
    /// Drawn from its own salted stream so the scenario pick and payload
    /// bits of pre-SLO traces are unchanged.
    pub fn derive(seed: u64, id: u64) -> SloClass {
        let h = mix64(seed ^ SLO_SALT ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        match h % 4 {
            0 => SloClass::Interactive,
            1 | 2 => SloClass::Standard,
            _ => SloClass::Batch,
        }
    }

    /// Streaming (per-iteration) latency budgets for session serving.
    ///
    /// The first iteration of a session is held to the full end-to-end
    /// deadline (time-to-first-token covers queueing and prefill); every
    /// later iteration only decodes against resident state, so its
    /// time-between-tokens budget is a tenth of the class deadline.
    #[inline]
    pub fn streaming_budgets(&self) -> StreamingBudget {
        StreamingBudget { ttft_ns: self.deadline_ns(), tbt_ns: self.deadline_ns() / 10 }
    }
}

impl std::fmt::Display for SloClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The single source of truth for class labels is `name()`; the
        // `Display` impl only delegates so tables and logs can never
        // drift from the accessor.
        f.write_str(self.name())
    }
}

/// Streaming latency budgets of one [`SloClass`]: the time-to-first-token
/// and time-between-tokens deadlines session serving holds each iteration
/// to. See [`SloClass::streaming_budgets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamingBudget {
    /// Budget from session arrival to its first settled iteration.
    pub ttft_ns: u64,
    /// Budget from an iteration becoming ready (think time elapsed) to its
    /// settle.
    pub tbt_ns: u64,
}

/// Salt for the session-length hash stream, independent of the scenario,
/// payload, SLO and arrival streams so attaching session shapes never
/// perturbs existing traces.
const SESSION_LEN_SALT: u64 = 0x5E55_10A1_0000_0001;

/// Salt for the think-time hash stream (one draw per session iteration).
const THINK_SALT: u64 = 0x7417_0C1A_0000_0001;

/// Seeded shape of multi-turn sessions: how many iterations a session
/// runs and how long the client "thinks" between them.
///
/// A session is the serving unit of multi-turn streaming traffic: request
/// `id` becomes the *prefill* (iteration 0) of a session whose length and
/// inter-iteration gaps are pure functions of `(generator seed, id)`,
/// exactly like the payload/scenario/SLO streams — any shard can derive a
/// session's shape without coordination. [`SessionProfile::ONE_SHOT`]
/// (length 1, no think time) reproduces the legacy one-request path
/// byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionProfile {
    /// Minimum iterations per session (≥ 1).
    pub min_len: u32,
    /// Maximum iterations per session (inclusive; ≥ `min_len`).
    pub max_len: u32,
    /// Mean think time between consecutive iterations, in virtual
    /// microseconds (0 disables think time: iterations chain immediately).
    pub think_mean_us: u64,
}

impl SessionProfile {
    /// The legacy shape: every session is a single prefill iteration.
    pub const ONE_SHOT: SessionProfile =
        SessionProfile { min_len: 1, max_len: 1, think_mean_us: 0 };

    /// Whether every session has exactly one iteration (the legacy
    /// one-shot request path).
    pub fn is_one_shot(&self) -> bool {
        self.max_len <= 1
    }

    /// Iterations session `id` runs under generator seed `seed`: uniform
    /// in `[min_len, max_len]` from its own salted hash stream.
    #[inline]
    pub fn session_len(&self, seed: u64, id: u64) -> u32 {
        let lo = self.min_len.max(1);
        if self.max_len <= lo {
            return lo;
        }
        let span = (self.max_len - lo) as u64 + 1;
        let h = mix64(seed ^ SESSION_LEN_SALT ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        lo + (h % span) as u32
    }

    /// Think time before iteration `iter` of session `id` becomes ready,
    /// in virtual nanoseconds: exponential with mean `think_mean_us`,
    /// drawn from its own salted stream (the same inverse-CDF scheme the
    /// load generator uses for Poisson gaps). Iteration 0 has no think
    /// time by construction; a zero mean disables it for all iterations.
    #[inline]
    pub fn think_ns(&self, seed: u64, id: u64, iter: u32) -> u64 {
        if self.think_mean_us == 0 || iter == 0 {
            return 0;
        }
        let h = mix64(
            seed ^ THINK_SALT
                ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (iter as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
        );
        // Top 53 bits → u ∈ (0, 1], then the exponential inverse CDF.
        let u = ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        (-(u.ln()) * self.think_mean_us as f64 * 1_000.0) as u64
    }
}

impl Default for SessionProfile {
    fn default() -> Self {
        SessionProfile::ONE_SHOT
    }
}

/// One serving scenario: a named benchmark workload at one shape point.
///
/// Scenarios own the expensive, request-independent state (layer weights,
/// saliency warp); individual requests only carry a fresh feature pyramid.
#[derive(Debug, Clone)]
pub struct RequestScenario {
    /// Display name, e.g. `"De DETR 24x32"`.
    pub name: String,
    /// The benchmark workload evaluated for requests of this scenario.
    pub workload: SyntheticWorkload,
}

impl RequestScenario {
    /// Wraps a workload, deriving the display name from its benchmark and
    /// finest-level shape.
    pub fn from_workload(workload: SyntheticWorkload) -> Self {
        let l0 = workload.config().levels[0];
        let name = format!("{} {}x{}", workload.benchmark().name(), l0.h, l0.w);
        RequestScenario { name, workload }
    }
}

/// One inference request drawn from a [`RequestGenerator`].
///
/// The payload is a backbone feature pyramid shaped by the request's
/// scenario; the id doubles as the derivation key, so the same `(generator
/// seed, id)` pair always reproduces the same request.
#[derive(Debug, Clone)]
pub struct InferenceRequest {
    /// Stream position (and derivation key) of this request.
    pub id: u64,
    /// Index into the generator's scenario list.
    pub scenario: usize,
    /// Service-level objective class of this request.
    pub slo: SloClass,
    /// The request's input feature pyramid.
    pub fmap: FmapPyramid,
}

/// Seeded multi-scenario request generator for serving and benchmarks.
///
/// A production detector serves a *stream* of heterogeneous queries —
/// different networks, different input resolutions — not one hand-built
/// workload per binary. The generator models that stream: it owns a set of
/// [`RequestScenario`]s (each a full [`SyntheticWorkload`] with its own
/// feature-map shapes and query count) and derives request `i` purely from
/// `(seed, i)`: a hash picks the scenario, a per-request RNG fills a fresh
/// input pyramid. Requests are therefore independent of generation order —
/// any shard can materialize any request without coordination, which is
/// what keeps batched serving bit-deterministic.
///
/// # Example
///
/// ```
/// use defa_model::workload::RequestGenerator;
/// use defa_model::MsdaConfig;
///
/// # fn main() -> Result<(), defa_model::ModelError> {
/// let gen = RequestGenerator::standard(&MsdaConfig::tiny(), 42)?;
/// let a = gen.request(3);
/// let b = gen.request(3);
/// assert_eq!(a.scenario, b.scenario);
/// assert_eq!(a.fmap.tensor(), b.fmap.tensor());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RequestGenerator {
    scenarios: Vec<RequestScenario>,
    seed: u64,
}

impl RequestGenerator {
    /// Creates a generator over explicit scenarios.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if `scenarios` is empty.
    pub fn new(scenarios: Vec<RequestScenario>, seed: u64) -> Result<Self, ModelError> {
        if scenarios.is_empty() {
            return Err(ModelError::InvalidConfig(
                "request generator needs at least one scenario".into(),
            ));
        }
        Ok(RequestGenerator { scenarios, seed })
    }

    /// The three input scales used by the multi-scenario streams: the base
    /// pyramid and its 3/4 and 1/2 downscales.
    pub const INPUT_SCALES: [f64; 3] = [1.0, 0.75, 0.5];

    /// Scales every pyramid level of `base` by `scale` (each side, floored
    /// at one pixel).
    fn scaled_config(base: &MsdaConfig, scale: f64) -> MsdaConfig {
        let mut cfg = base.clone();
        for level in &mut cfg.levels {
            level.h = ((level.h as f64 * scale).round() as usize).max(1);
            level.w = ((level.w as f64 * scale).round() as usize).max(1);
        }
        cfg
    }

    /// The standard three-scenario mix derived from a base configuration:
    /// each DAC-24 benchmark at a different input scale (1, 3/4 and 1/2 of
    /// the base pyramid), so the stream varies both weights and shapes.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if `base` fails validation.
    pub fn standard(base: &MsdaConfig, seed: u64) -> Result<Self, ModelError> {
        let mut scenarios = Vec::with_capacity(3);
        for (benchmark, scale) in Benchmark::all().into_iter().zip(Self::INPUT_SCALES) {
            let cfg = Self::scaled_config(base, scale);
            let wl = SyntheticWorkload::generate(benchmark, &cfg, seed)?;
            scenarios.push(RequestScenario::from_workload(wl));
        }
        Self::new(scenarios, seed)
    }

    /// The full nine-scenario grid: every DAC-24 benchmark × every input
    /// scale ([`Self::INPUT_SCALES`]), benchmark-major. This is the stream
    /// the efficiency tables sweep — it exercises each network at each
    /// shape point instead of pairing them off as [`Self::standard`] does.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if `base` fails validation.
    pub fn grid(base: &MsdaConfig, seed: u64) -> Result<Self, ModelError> {
        let mut scenarios = Vec::with_capacity(9);
        for benchmark in Benchmark::all() {
            for scale in Self::INPUT_SCALES {
                let cfg = Self::scaled_config(base, scale);
                let wl = SyntheticWorkload::generate(benchmark, &cfg, seed)?;
                scenarios.push(RequestScenario::from_workload(wl));
            }
        }
        Self::new(scenarios, seed)
    }

    /// The scenario list.
    pub fn scenarios(&self) -> &[RequestScenario] {
        &self.scenarios
    }

    /// The workload behind scenario `i`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::IndexOutOfRange`] for an invalid index.
    pub fn scenario(&self, i: usize) -> Result<&SyntheticWorkload, ModelError> {
        self.scenarios.get(i).map(|s| &s.workload).ok_or(ModelError::IndexOutOfRange {
            what: "scenario",
            index: i,
            len: self.scenarios.len(),
        })
    }

    /// The generator's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Scenario request `id` will draw — the cheap half of [`Self::request`],
    /// for callers that need routing/accounting without the payload.
    pub fn request_scenario(&self, id: u64) -> usize {
        let h = mix64(self.seed ^ id.wrapping_mul(0xA24BAED4963EE407));
        // A constant modulus lowers to multiply-shift instead of a
        // hardware divide, which matters on the admission hot path;
        // `standard` ships 3 scenarios and `grid` 9.
        let n = self.scenarios.len() as u64;
        (match n {
            3 => h % 3,
            9 => h % 9,
            _ => h % n,
        }) as usize
    }

    /// SLO class request `id` will draw — like [`Self::request_scenario`],
    /// cheap enough for admission-time accounting.
    pub fn request_slo(&self, id: u64) -> SloClass {
        SloClass::derive(self.seed, id)
    }

    /// Materializes request `id` — a pure function of `(seed, id)`.
    ///
    /// The scenario pick, SLO class and payload each come from their own
    /// salted hash stream, so adding a stream leaves the others untouched
    /// (the SLO stream was added without moving a single payload bit).
    pub fn request(&self, id: u64) -> InferenceRequest {
        let scenario = self.request_scenario(id);
        let cfg = self.scenarios[scenario].workload.config();
        let mut rng = TensorRng::seed_from(mix64(self.seed.rotate_left(17) ^ id));
        let fmap = FmapPyramid::from_tensor(cfg, rng.uniform([cfg.n_in(), cfg.d_model], -1.0, 1.0))
            .expect("scenario config validated at construction");
        InferenceRequest { id, scenario, slo: self.request_slo(id), fmap }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = MsdaConfig::tiny();
        let a = SyntheticWorkload::generate(Benchmark::Dino, &cfg, 5).unwrap();
        let b = SyntheticWorkload::generate(Benchmark::Dino, &cfg, 5).unwrap();
        assert_eq!(a.initial_fmap().tensor(), b.initial_fmap().tensor());
        assert_eq!(a.layer(0).unwrap().weights().w_attn, b.layer(0).unwrap().weights().w_attn);
    }

    #[test]
    fn benchmarks_produce_distinct_workloads() {
        let cfg = MsdaConfig::tiny();
        let a = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 5).unwrap();
        let b = SyntheticWorkload::generate(Benchmark::DnDetr, &cfg, 5).unwrap();
        assert_ne!(a.initial_fmap().tensor(), b.initial_fmap().tensor());
    }

    #[test]
    fn attention_probabilities_are_skewed_like_the_paper() {
        // §3.2: near-zero probabilities are >80% of points in De DETR. This
        // needs the realistic 16 points per head (4 levels x 4 points) of
        // the small config; the tiny config only has 4 points per head.
        let cfg = MsdaConfig::small();
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 7).unwrap();
        let out = wl.layer(0).unwrap().forward(wl.initial_fmap(), Some(wl.warp())).unwrap();
        let total = out.probs.len();
        let near_zero = out.probs.as_slice().iter().filter(|&&p| p < 0.02).count();
        let frac = near_zero as f32 / total as f32;
        assert!(frac > 0.75, "near-zero fraction {frac} too low for a skewed workload");
    }

    #[test]
    fn warp_is_deterministic_and_respects_fraction() {
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 3).unwrap();
        let mut p1 = SamplePoint::new(0, 2.0, 2.0);
        let mut p2 = SamplePoint::new(0, 2.0, 2.0);
        wl.warp().apply(10, 3, &mut p1);
        wl.warp().apply(10, 3, &mut p2);
        assert_eq!(p1, p2);
        // Count how many (query, slot) pairs get redirected.
        let mut redirected = 0;
        let trials = 2000;
        for q in 0..trials {
            let mut p = SamplePoint::new(0, 2.0, 2.0);
            wl.warp().apply(q, 0, &mut p);
            if (p.x, p.y) != (2.0, 2.0) {
                redirected += 1;
            }
        }
        let frac = redirected as f32 / trials as f32;
        let expect = wl.benchmark().workload_stats().1;
        assert!((frac - expect).abs() < 0.1, "redirect fraction {frac} vs {expect}");
    }

    #[test]
    fn hotspot_accesses_are_head_heavy() {
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 11).unwrap();
        let spots = wl.warp().hotspots();
        assert_eq!(spots.len(), cfg.n_levels());
        assert!(spots.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn paper_constants_are_anchored() {
        assert_eq!(Benchmark::DeformableDetr.baseline_ap(), 46.9);
        assert_eq!(Benchmark::Dino.defa_ap(), 49.4);
        assert!(Benchmark::DnDetr.msgs_latency_fraction() > 0.6);
        for b in Benchmark::all() {
            assert!(b.baseline_ap() > b.defa_ap());
            assert!(b.name().len() >= 4);
        }
    }

    #[test]
    fn layer_index_is_validated() {
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::Dino, &cfg, 1).unwrap();
        assert!(wl.layer(cfg.n_layers).is_err());
    }

    #[test]
    fn request_generator_is_pure_in_seed_and_id() {
        let gen = RequestGenerator::standard(&MsdaConfig::tiny(), 9).unwrap();
        let other = RequestGenerator::standard(&MsdaConfig::tiny(), 9).unwrap();
        for id in [0u64, 1, 17, 1000] {
            let a = gen.request(id);
            let b = other.request(id);
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.fmap.tensor(), b.fmap.tensor());
        }
        // A different seed moves both the scenario mix and the payloads.
        let reseeded = RequestGenerator::standard(&MsdaConfig::tiny(), 10).unwrap();
        assert!((0..32).any(|id| {
            let a = gen.request(id);
            let b = reseeded.request(id);
            a.scenario != b.scenario || a.fmap.tensor() != b.fmap.tensor()
        }));
    }

    #[test]
    fn standard_scenarios_vary_shapes_and_benchmarks() {
        let base = MsdaConfig::tiny();
        let gen = RequestGenerator::standard(&base, 5).unwrap();
        assert_eq!(gen.scenarios().len(), 3);
        let n_ins: Vec<usize> =
            gen.scenarios().iter().map(|s| s.workload.config().n_in()).collect();
        assert_eq!(n_ins[0], base.n_in());
        assert!(n_ins[1] < n_ins[0] && n_ins[2] < n_ins[1], "shapes must shrink: {n_ins:?}");
        let names: Vec<_> = gen.scenarios().iter().map(|s| s.name.as_str()).collect();
        assert!(names[0].starts_with("De DETR"));
        assert!(names[2].starts_with("DINO"));
    }

    #[test]
    fn grid_covers_every_benchmark_at_every_scale() {
        let base = MsdaConfig::tiny();
        let gen = RequestGenerator::grid(&base, 5).unwrap();
        assert_eq!(gen.scenarios().len(), 9);
        // Benchmark-major: three consecutive scenarios per network, shapes
        // shrinking within each triple.
        for (b, benchmark) in Benchmark::all().into_iter().enumerate() {
            let triple = &gen.scenarios()[3 * b..3 * b + 3];
            let n_ins: Vec<usize> = triple.iter().map(|s| s.workload.config().n_in()).collect();
            assert!(triple.iter().all(|s| s.workload.benchmark() == benchmark));
            assert_eq!(n_ins[0], base.n_in());
            assert!(n_ins[1] < n_ins[0] && n_ins[2] < n_ins[1], "shapes must shrink: {n_ins:?}");
        }
        // Names are distinct (benchmark + finest-level shape).
        let mut names: Vec<_> = gen.scenarios().iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 9);
        // A long-enough stream hits all nine scenarios.
        let mut seen = [0usize; 9];
        for id in 0..180 {
            seen[gen.request(id).scenario] += 1;
        }
        assert!(seen.iter().all(|&c| c > 0), "scenario mix missed a cell: {seen:?}");
    }

    #[test]
    fn slo_classes_are_deterministic_and_mixed() {
        let gen = RequestGenerator::standard(&MsdaConfig::tiny(), 9).unwrap();
        let mut seen = [0usize; 3];
        for id in 0..200 {
            let slo = gen.request_slo(id);
            assert_eq!(slo, gen.request(id).slo, "accessor and payload must agree");
            assert_eq!(slo, SloClass::derive(9, id));
            seen[slo.priority() as usize] += 1;
        }
        // 25/50/25 mix: every class present, standard the plurality.
        assert!(seen.iter().all(|&c| c > 20), "class mix too skewed: {seen:?}");
        assert!(seen[1] > seen[0] && seen[1] > seen[2], "standard must dominate: {seen:?}");
        // Budgets are ordered with priority.
        let [i, s, b] = SloClass::all();
        assert!(i.deadline_ns() < s.deadline_ns() && s.deadline_ns() < b.deadline_ns());
        assert!(i.priority() < s.priority() && s.priority() < b.priority());
        assert_eq!(i.to_string(), "interactive");
    }

    #[test]
    fn streaming_budgets_scale_with_class_deadlines() {
        for class in SloClass::all() {
            let b = class.streaming_budgets();
            assert_eq!(b.ttft_ns, class.deadline_ns());
            assert_eq!(b.tbt_ns, class.deadline_ns() / 10);
            assert!(b.tbt_ns < b.ttft_ns);
        }
    }

    #[test]
    fn one_shot_profile_pins_the_legacy_shape() {
        let p = SessionProfile::ONE_SHOT;
        assert!(p.is_one_shot());
        assert_eq!(p, SessionProfile::default());
        for id in 0..64 {
            assert_eq!(p.session_len(9, id), 1);
            for iter in 0..4 {
                assert_eq!(p.think_ns(9, id, iter), 0);
            }
        }
    }

    #[test]
    fn session_lengths_are_seeded_uniform_in_range() {
        let p = SessionProfile { min_len: 2, max_len: 5, think_mean_us: 100 };
        assert!(!p.is_one_shot());
        let mut seen = [0usize; 6];
        for id in 0..400 {
            let len = p.session_len(42, id);
            assert_eq!(len, p.session_len(42, id), "pure in (seed, id)");
            assert!((2..=5).contains(&len), "length {len} out of range");
            seen[len as usize] += 1;
        }
        assert!(seen[2..=5].iter().all(|&c| c > 40), "length mix too skewed: {seen:?}");
        // A different seed reshuffles lengths.
        assert!((0..64).any(|id| p.session_len(42, id) != p.session_len(43, id)));
        // A degenerate min > max range clamps to min.
        let bad = SessionProfile { min_len: 4, max_len: 2, think_mean_us: 0 };
        assert_eq!(bad.session_len(1, 7), 4);
        // min_len 0 is clamped to one iteration.
        let zero = SessionProfile { min_len: 0, max_len: 0, think_mean_us: 0 };
        assert_eq!(zero.session_len(1, 7), 1);
    }

    #[test]
    fn think_times_are_seeded_exponential_gaps() {
        let p = SessionProfile { min_len: 2, max_len: 4, think_mean_us: 200 };
        // Iteration 0 never waits; later iterations draw their own stream.
        assert_eq!(p.think_ns(7, 3, 0), 0);
        assert_eq!(p.think_ns(7, 3, 1), p.think_ns(7, 3, 1), "pure in (seed, id, iter)");
        assert!((1..6u32).any(|i| p.think_ns(7, 3, i) != p.think_ns(7, 4, i)));
        // The empirical mean lands near think_mean_us.
        let n = 4000u64;
        let total: u64 = (0..n).map(|id| p.think_ns(7, id, 1)).sum();
        let mean_us = total as f64 / n as f64 / 1_000.0;
        assert!(
            (mean_us - 200.0).abs() < 20.0,
            "think-time mean {mean_us:.1} µs too far from 200 µs"
        );
    }

    #[test]
    fn slo_stream_does_not_perturb_payloads() {
        // The SLO hash draws from its own salted stream: scenario picks and
        // payload tensors must match a generator that never asks for SLOs.
        let gen = RequestGenerator::standard(&MsdaConfig::tiny(), 9).unwrap();
        let other = RequestGenerator::standard(&MsdaConfig::tiny(), 9).unwrap();
        for id in 0..8 {
            let _ = other.request_slo(id); // consume the SLO stream first…
            let a = gen.request(id);
            let b = other.request(id);
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.fmap.tensor(), b.fmap.tensor()); // …payload unmoved
        }
    }

    #[test]
    fn request_stream_mixes_scenarios() {
        let gen = RequestGenerator::standard(&MsdaConfig::tiny(), 7).unwrap();
        let mut seen = [0usize; 3];
        for id in 0..60 {
            seen[gen.request(id).scenario] += 1;
        }
        assert!(seen.iter().all(|&c| c > 5), "scenario mix too skewed: {seen:?}");
    }

    #[test]
    fn request_fmap_matches_its_scenario_shape() {
        let gen = RequestGenerator::standard(&MsdaConfig::tiny(), 3).unwrap();
        for id in 0..12 {
            let req = gen.request(id);
            let cfg = gen.scenario(req.scenario).unwrap().config();
            assert_eq!(req.fmap.tensor().shape().dims(), &[cfg.n_in(), cfg.d_model]);
        }
        assert!(gen.scenario(3).is_err());
        assert!(RequestGenerator::new(Vec::new(), 1).is_err());
    }
}
