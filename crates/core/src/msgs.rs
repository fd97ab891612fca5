//! The multi-scale grid-sampling engine.
//!
//! Schedules one block's surviving sampling points onto the BA-mode
//! pipeline. The natural hardware schedule groups the points of one
//! `(query, head)` pair:
//!
//! * **inter-level** (§4.2, Fig. 5b): group `p` holds point `p` of *every*
//!   level — up to 4 points from 4 different levels, whose Neighbor-Window
//!   banks are disjoint by construction → one SRAM service cycle per
//!   channel.
//! * **intra-level** (Fig. 5a): group `l` holds the `N_p` points of level
//!   `l` — same-level footprints collide in the 4×4 interleaving, and each
//!   conflict serializes every channel cycle of the group.
//!
//! The engine also accounts the feature's memory policies: fine-grained
//! operator fusion (sampling values never round-trip through SRAM/DRAM)
//! and fmap reuse (bounded-range row buffers instead of per-query window
//! refetch).
//!
//! The simulation rides on stage 4's kept-slot walk
//! ([`defa_model::reference::walk_kept_points`]) as a visitor,
//! [`BlockSampler`]: its cost follows the kept points, not the slots. A
//! footprint's banks depend only on its level and its top-left anchor
//! modulo 4, so they come from a per-engine table as a 16-bit set, and each
//! group keeps the union of its points' sets. Per-bank loads are counted
//! only for a group whose sets overlap — never under inter-level mapping;
//! every conflict-free group costs one service cycle per beat, so those are
//! settled in bulk.

use crate::CoreError;
use defa_arch::{
    ArchError, BankMapping, BankedSram, Dram, EventCounters, PeArray, N_BANKS, PRECISION_BITS,
};
use defa_model::reference::{walk_kept_points, KeptLanes, LaneVisitor, Stage4Visitor};
use defa_model::sampling::for_each_kept;
use defa_model::{MsdaConfig, SamplePoint};
use defa_prune::RangeConfig;
use std::ops::{AddAssign, Range};

// A footprint's banks are a `u16` set.
const _: () = assert!(N_BANKS <= 16);

/// Rows of [`MsgsEngine`]'s bank-set table. A level's banks depend on the
/// level only through inter-level mapping's group check, which every level
/// from `N_BANKS / 4` on fails alike, so levels past the last row read it.
const BANK_LEVELS: usize = N_BANKS / 4 + 1;

/// Feature switches of the MSGS engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgsSettings {
    /// Bank mapping / parallelization scheme.
    pub mapping: BankMapping,
    /// Fine-grained operator fusion of MSGS and aggregation (§4.3).
    pub fused: bool,
    /// Fmap reuse between overlapping bounded ranges (§4.1, Fig. 4 right).
    pub fmap_reuse: bool,
}

impl MsgsSettings {
    /// The full DEFA design point.
    pub fn paper_default() -> Self {
        MsgsSettings { mapping: BankMapping::InterLevel, fused: true, fmap_reuse: true }
    }
}

impl Default for MsgsSettings {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Statistics of one MSGS run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MsgsStats {
    /// Point groups issued to the pipeline.
    pub groups: u64,
    /// Surviving sampling points processed.
    pub points: u64,
    /// Cycles spent in the BA pipeline (including conflict serialization).
    pub cycles: u64,
    /// Bank conflicts observed.
    pub conflicts: u64,
    /// Fmap pixels fetched from DRAM for sampling.
    pub fmap_fetch_bits: u64,
    /// Sampling-value round-trip bits (zero when fused).
    pub spill_bits: u64,
}

impl AddAssign for MsgsStats {
    fn add_assign(&mut self, rhs: Self) {
        self.groups += rhs.groups;
        self.points += rhs.points;
        self.cycles += rhs.cycles;
        self.conflicts += rhs.conflicts;
        self.fmap_fetch_bits += rhs.fmap_fetch_bits;
        self.spill_bits += rhs.spill_bits;
    }
}

impl MsgsStats {
    /// Throughput in points per cycle.
    pub fn points_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.points as f64 / self.cycles as f64
        }
    }
}

/// The grid-sampling engine bound to one configuration.
#[derive(Debug, Clone)]
pub struct MsgsEngine {
    cfg: MsdaConfig,
    ranges: RangeConfig,
    settings: MsgsSettings,
    /// An idle SRAM model, copied by every query range's simulation.
    sram: BankedSram,
    /// Banks a footprint reads (bit `b` for bank `b`), by level (capped at
    /// the last row) and anchor `(y0 & 3) · 4 + (x0 & 3)`; 0 where the
    /// mapping has no bank group for the level.
    bank_sets: [[u16; 16]; BANK_LEVELS],
    /// Group of each slot offset within a `(query, head)` slice:
    /// inter-level groups take point `p` of every level, intra-level groups
    /// the `N_p` points of level `l`.
    group_of: Vec<u32>,
    n_groups: usize,
    /// Beats per group: the head's channels over the channels per beat.
    beats: u64,
}

impl MsgsEngine {
    /// Creates an engine for a model configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] if the configuration is invalid.
    pub fn new(cfg: &MsdaConfig, settings: MsgsSettings) -> Result<Self, CoreError> {
        cfg.validate()?;
        let mapping = settings.mapping;
        let mut bank_sets = [[0u16; 16]; BANK_LEVELS];
        for (level, row) in bank_sets.iter_mut().enumerate() {
            for (anchor, set) in row.iter_mut().enumerate() {
                let (y0, x0) = ((anchor / 4) as i64, (anchor % 4) as i64);
                if let Ok(banks) = mapping.footprint_banks(level, y0, x0) {
                    *set = banks.iter().fold(0, |set, &b| set | 1 << b);
                }
            }
        }
        let n_points = cfg.n_points;
        let group_of = (0..cfg.points_per_head())
            .map(|o| match mapping {
                BankMapping::InterLevel => (o % n_points) as u32,
                BankMapping::IntraLevel => (o / n_points) as u32,
            })
            .collect();
        let n_groups = match mapping {
            BankMapping::InterLevel => n_points,
            BankMapping::IntraLevel => cfg.n_levels(),
        };
        Ok(MsgsEngine {
            ranges: RangeConfig::paper_defaults(cfg),
            cfg: cfg.clone(),
            settings,
            sram: BankedSram::new(N_BANKS, word_bits())?,
            bank_sets,
            group_of,
            n_groups,
            beats: (cfg.head_dim() as u64).div_ceil(defa_arch::BA_CHANNELS_PER_BEAT),
        })
    }

    /// The engine's settings.
    pub fn settings(&self) -> MsgsSettings {
        self.settings
    }

    /// A stage-4 visitor that simulates the sampling pipeline of each
    /// block it walks; [`BlockSampler::settle`] completes the block.
    pub fn sampler(&self) -> BlockSampler<'_> {
        BlockSampler {
            engine: self,
            stats: MsgsStats::default(),
            counters: EventCounters::new(),
            error: None,
        }
    }

    /// Simulates one block's MSGS + aggregation.
    ///
    /// `locations` holds all `n_in · points_per_query` sampling points in
    /// layer order; `keep` the PAP survival of each. Counters receive the
    /// cycle and traffic activity; the returned stats summarize the run.
    ///
    /// This is stage 4's kept-slot walk with the engine's [`BlockSampler`]
    /// as its one visitor, then [`BlockSampler::settle`]. The walk runs
    /// over contiguous query ranges in parallel; each range accumulates its
    /// own [`MsgsStats`] and [`EventCounters`] against a private
    /// [`BankedSram`] model, and the partial results are reduced in range
    /// order. Every per-group quantity (service cycles, conflicts,
    /// traffic) depends only on that group's own sampling points, so the
    /// reduction is exact: stats and counters are **bit-identical** to the
    /// sequential simulation for any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Inconsistent`] on length mismatches and
    /// [`CoreError::Arch`] if a kept point's level has no bank group (more
    /// levels than bank groups in inter-level mode).
    pub fn run_block(
        &self,
        locations: &[SamplePoint],
        keep: &[bool],
        pixel_keep_fraction: f64,
        counters: &mut EventCounters,
    ) -> Result<MsgsStats, CoreError> {
        let ppq = self.cfg.points_per_query();
        if locations.is_empty()
            || !locations.len().is_multiple_of(ppq)
            || keep.len() != locations.len()
        {
            return Err(CoreError::Inconsistent(format!(
                "locations ({}) must be a non-empty multiple of {ppq} and match keep bits ({})",
                locations.len(),
                keep.len()
            )));
        }
        let mut sampler = self.sampler();
        walk_kept_points(&self.cfg, locations, Some(keep), &mut sampler)?;
        // Queries = N_in for encoder self-attention; the object-query
        // count for decoder cross-attention.
        sampler.settle(locations.len() / ppq, keep, pixel_keep_fraction, counters)
    }

    /// DRAM bits fetched to feed MSGS with fmap pixels.
    ///
    /// * With fmap reuse, each level keeps a row buffer of its bounded rows
    ///   and sweeps it across the level once per head: every surviving
    ///   pixel channel is fetched once → `kept_pixels · D` channels.
    /// * Without reuse, every query whose level has surviving points
    ///   fetches the fresh bounded-range columns (`window_h` pixels, `D_h`
    ///   channels, per head) because nothing is retained between
    ///   consecutive reference points.
    fn fmap_fetch_bits(&self, n_queries: usize, keep: &[bool], pixel_keep_fraction: f64) -> u64 {
        let cfg = &self.cfg;
        let d = cfg.d_model as u64;
        if self.settings.fmap_reuse {
            // Pixels fetched belong to the *memory*, not the query set.
            let kept_pixels = (cfg.n_in() as f64 * pixel_keep_fraction).round() as u64;
            return kept_pixels * d * PRECISION_BITS;
        }
        let dh = cfg.head_dim() as u64;
        let n_points = cfg.n_points;
        let n_levels = cfg.n_levels();
        let window: Vec<u64> =
            self.ranges.ranges().iter().map(|range| (2 * range.half_h as u64 + 2) * dh).collect();
        // Kept points arrive in slot order, so the points of one
        // (query, head, level) run are consecutive: count each run once.
        let mut fetches = 0u64;
        let mut last_run = usize::MAX;
        for_each_kept(&keep[..n_queries * cfg.points_per_query()], |i| {
            let run = i / n_points;
            if run != last_run {
                last_run = run;
                fetches += window.get(run % n_levels).copied().unwrap_or(0);
            }
        });
        fetches * PRECISION_BITS
    }
}

/// Bits per SRAM word: one beat of channels.
fn word_bits() -> u64 {
    defa_arch::BA_CHANNELS_PER_BEAT * PRECISION_BITS
}

/// The MSGS engine as a stage-4 visitor: it simulates the BA pipeline of
/// every block walked since the last [`settle`](Self::settle).
///
/// [`MsgsEngine::run_block`] walks a block with it alone; the accelerator
/// model hands it to the pruned pipeline, whose stage-4 walk also
/// aggregates and counts FWP frequencies from the same footprints.
#[derive(Debug)]
pub struct BlockSampler<'e> {
    engine: &'e MsgsEngine,
    stats: MsgsStats,
    counters: EventCounters,
    /// The first point, in slot order, whose level has no bank group.
    error: Option<ArchError>,
}

impl BlockSampler<'_> {
    /// Completes the block walked since the last call: adds its sampling
    /// pipeline's counters and the block-level streams — fmap fetch, the
    /// spill round trip when unfused, the aggregated output — to
    /// `counters` and returns the block's stats.
    ///
    /// `n_queries` and `keep` are the walked block's query count and keep
    /// bits (the fetch without fmap reuse follows the kept runs).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Arch`] if a kept point's level had no bank
    /// group, and [`CoreError::Inconsistent`] if `keep` has fewer than
    /// `n_queries` queries' bits.
    pub fn settle(
        &mut self,
        n_queries: usize,
        keep: &[bool],
        pixel_keep_fraction: f64,
        counters: &mut EventCounters,
    ) -> Result<MsgsStats, CoreError> {
        let mut stats = std::mem::take(&mut self.stats);
        let sampled = std::mem::take(&mut self.counters);
        if let Some(e) = self.error.take() {
            return Err(e.into());
        }
        let engine = self.engine;
        let cfg = &engine.cfg;
        if keep.len() < n_queries * cfg.points_per_query() {
            return Err(CoreError::Inconsistent(format!(
                "{} keep bits for {n_queries} queries",
                keep.len()
            )));
        }
        *counters += sampled;
        let word_bits = word_bits();
        let mut sram = engine.sram.clone();
        let mut dram = Dram::hbm2();

        // --- Fmap fetch traffic (DRAM -> SRAM row buffers) ---------------
        let fetch_bits = engine.fmap_fetch_bits(n_queries, keep, pixel_keep_fraction);
        dram.read(fetch_bits);
        sram.write_stream(fetch_bits / word_bits);
        stats.fmap_fetch_bits = fetch_bits;

        // --- Operator fusion --------------------------------------------
        if !engine.settings.fused {
            // Sampling values round-trip: SRAM write + DRAM write, then
            // DRAM read + SRAM read before aggregation.
            let bits = stats.points * cfg.head_dim() as u64 * PRECISION_BITS;
            sram.write_stream(bits / word_bits);
            sram.read_stream(bits / word_bits);
            dram.write(bits);
            dram.read(bits);
            stats.spill_bits = 2 * bits;
        }

        // --- Aggregated output ------------------------------------------
        let out_bits = (n_queries * cfg.d_model) as u64 * PRECISION_BITS;
        sram.write_stream(out_bits / word_bits);
        dram.write(out_bits);

        sram.drain_into(counters);
        dram.drain_into(counters);
        Ok(stats)
    }
}

impl<'e> Stage4Visitor for BlockSampler<'e> {
    type Part = SamplerPart<'e>;

    fn split(&mut self, ranges: &[Range<usize>]) -> Vec<SamplerPart<'e>> {
        let engine = self.engine;
        ranges
            .iter()
            .map(|_| SamplerPart {
                engine,
                sram: engine.sram.clone(),
                counters: EventCounters::new(),
                stats: MsgsStats::default(),
                slice: usize::MAX,
                slice_points: 0,
                sets: vec![0; engine.n_groups],
                loads: vec![[0; N_BANKS]; engine.n_groups],
                overlapping: vec![false; engine.n_groups],
                slice_overlaps: false,
                free_groups: 0,
                free_points: 0,
                error: None,
            })
            .collect()
    }

    fn join(&mut self, parts: Vec<SamplerPart<'e>>) {
        for part in parts {
            let (error, stats, counters) = part.finish();
            if self.error.is_none() {
                self.error = error;
            }
            self.stats += stats;
            self.counters += counters;
        }
    }
}

/// One query range's BA-pipeline simulation: a private SRAM and counter
/// model, plus the groups of the current `(query, head)` slice, issued
/// when the walk moves past it.
#[derive(Debug)]
pub struct SamplerPart<'e> {
    engine: &'e MsgsEngine,
    sram: BankedSram,
    counters: EventCounters,
    stats: MsgsStats,
    /// The slice whose groups are being filled.
    slice: usize,
    /// Kept points in the slice.
    slice_points: u64,
    /// Union of the bank sets of each group's points; all banks once the
    /// group overlaps, so its later points take the counting path too.
    /// Each footprint reads 4 distinct banks, so a group that never
    /// overlapped holds a quarter as many points as its set has banks.
    sets: Vec<u16>,
    /// Per-bank loads of each overlapping group; zero for the others.
    loads: Vec<[u32; N_BANKS]>,
    /// Whether each group overlaps.
    overlapping: Vec<bool>,
    /// Whether a group of the slice overlaps.
    slice_overlaps: bool,
    /// Conflict-free groups and their points, settled in bulk.
    free_groups: u64,
    free_points: u64,
    error: Option<ArchError>,
}

impl LaneVisitor for SamplerPart<'_> {
    const READS_SLOTS: bool = true;

    #[inline]
    fn visit(&mut self, lanes: &KeptLanes) {
        let engine = self.engine;
        let (offsets, levels, anchors) = (lanes.offsets(), lanes.levels(), lanes.anchor_residues());
        for (slice, run) in lanes.runs() {
            if slice != self.slice {
                self.issue();
                self.slice = slice;
            }
            for ((&o, &level), &anchor) in
                offsets[run.clone()].iter().zip(&levels[run.clone()]).zip(&anchors[run])
            {
                let set =
                    engine.bank_sets[(level as usize).min(BANK_LEVELS - 1)][anchor as usize % 16];
                if set == 0 {
                    if self.error.is_none() {
                        self.error =
                            engine.settings.mapping.footprint_banks(level.into(), 0, 0).err();
                    }
                    continue;
                }
                let g = engine.group_of[o as usize] as usize;
                self.slice_points += 1;
                if self.sets[g] & set == 0 {
                    self.sets[g] |= set;
                } else {
                    self.overlap(g, set);
                }
            }
        }
    }
}

impl SamplerPart<'_> {
    /// Adds a point whose banks `set` overlap group `g`'s: the group's
    /// per-bank loads start from its disjoint sets so far.
    fn overlap(&mut self, g: usize, set: u16) {
        if !self.overlapping[g] {
            self.overlapping[g] = true;
            add_loads(&mut self.loads[g], self.sets[g]);
            self.sets[g] = u16::MAX;
            self.slice_overlaps = true;
        }
        add_loads(&mut self.loads[g], set);
    }

    /// Issues the current slice's non-empty groups: the conflict-free ones
    /// join the bulk count, an overlapping one is served by its per-bank
    /// loads.
    fn issue(&mut self) {
        let points = std::mem::take(&mut self.slice_points);
        if !std::mem::take(&mut self.slice_overlaps) {
            self.free_groups += self.sets.iter().filter(|&&set| set != 0).count() as u64;
            self.free_points += points;
            self.sets.fill(0);
            return;
        }
        let (beats, dh) = (self.engine.beats, self.engine.cfg.head_dim());
        let groups = self.sets.iter_mut().zip(&mut self.loads).zip(&mut self.overlapping);
        for ((set, loads), overlapping) in groups {
            if !std::mem::take(overlapping) {
                self.free_groups += u64::from(*set != 0);
                self.free_points += u64::from(set.count_ones() / 4);
                *set = 0;
                continue;
            }
            *set = 0;
            let loads = std::mem::replace(loads, [0; N_BANKS]);
            let requests: u64 = loads.iter().map(|&l| u64::from(l)).sum();
            let points = requests / 4;
            let service = self.sram.read_loads(&loads, requests);
            let pe = PeArray::new();
            self.stats.cycles += pe.run_ba_group(points as usize, dh, service, &mut self.counters);
            self.stats.groups += 1;
            self.stats.points += points;
            // The group's reads repeat every beat; the first beat was
            // charged by read_loads.
            self.sram.read_stream((beats - 1) * requests);
        }
    }

    /// Issues the last slice, settles the conflict-free groups — one
    /// service cycle per beat, four reads per point per beat, as
    /// [`PeArray::run_ba_group`] and [`BankedSram::read_loads`] charge a
    /// group without conflicts — and returns the range's first error,
    /// stats and counters.
    fn finish(mut self) -> (Option<ArchError>, MsgsStats, EventCounters) {
        self.issue();
        let (beats, dh) = (self.engine.beats, self.engine.cfg.head_dim() as u64);
        let cycles = beats * self.free_groups;
        self.stats.cycles += cycles;
        self.stats.groups += self.free_groups;
        self.stats.points += self.free_points;
        self.counters.msgs_cycles += cycles;
        self.counters.ba_channel_ops += self.free_points * dh;
        self.sram.read_stream(beats * 4 * self.free_points);
        self.stats.conflicts = self.sram.conflicts();
        self.sram.drain_into(&mut self.counters);
        (self.error, self.stats, self.counters)
    }
}

/// Adds one load on each bank of `set`.
fn add_loads(loads: &mut [u32; N_BANKS], set: u16) {
    let mut bits = set;
    while bits != 0 {
        loads[bits.trailing_zeros() as usize] += 1;
        bits &= bits - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defa_model::workload::{Benchmark, SyntheticWorkload};

    fn block_inputs(cfg: &MsdaConfig, seed: u64) -> (Vec<SamplePoint>, Vec<bool>) {
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, cfg, seed).unwrap();
        let out = wl.layer(0).unwrap().forward(wl.initial_fmap(), Some(wl.warp())).unwrap();
        let keep = vec![true; out.locations.len()];
        (out.locations, keep)
    }

    #[test]
    fn inter_level_is_conflict_free() {
        let cfg = MsdaConfig::small(); // 4 levels
        let (locs, keep) = block_inputs(&cfg, 1);
        let engine = MsgsEngine::new(&cfg, MsgsSettings::paper_default()).unwrap();
        let mut c = EventCounters::new();
        let stats = engine.run_block(&locs, &keep, 1.0, &mut c).unwrap();
        assert_eq!(stats.conflicts, 0);
        assert_eq!(c.bank_conflicts, 0);
        assert!(stats.points > 0);
    }

    #[test]
    fn intra_level_suffers_conflicts_and_runs_slower() {
        let cfg = MsdaConfig::small();
        let (locs, keep) = block_inputs(&cfg, 2);
        let inter = MsgsEngine::new(&cfg, MsgsSettings::paper_default()).unwrap();
        let intra = MsgsEngine::new(
            &cfg,
            MsgsSettings { mapping: BankMapping::IntraLevel, ..MsgsSettings::paper_default() },
        )
        .unwrap();
        let mut ci = EventCounters::new();
        let si = inter.run_block(&locs, &keep, 1.0, &mut ci).unwrap();
        let mut ca = EventCounters::new();
        let sa = intra.run_block(&locs, &keep, 1.0, &mut ca).unwrap();
        assert!(sa.conflicts > 0, "intra-level should conflict");
        let boost = sa.cycles as f64 / si.cycles as f64;
        assert!(boost > 1.5, "throughput boost {boost} too small");
    }

    #[test]
    fn fusion_eliminates_spill_traffic() {
        let cfg = MsdaConfig::tiny();
        let (locs, keep) = block_inputs(&cfg, 3);
        let fused = MsgsEngine::new(&cfg, MsgsSettings::paper_default()).unwrap();
        let unfused =
            MsgsEngine::new(&cfg, MsgsSettings { fused: false, ..MsgsSettings::paper_default() })
                .unwrap();
        let mut cf = EventCounters::new();
        let sf = fused.run_block(&locs, &keep, 1.0, &mut cf).unwrap();
        let mut cu = EventCounters::new();
        let su = unfused.run_block(&locs, &keep, 1.0, &mut cu).unwrap();
        assert_eq!(sf.spill_bits, 0);
        assert!(su.spill_bits > 0);
        assert!(cu.dram_bits() > cf.dram_bits());
        assert!(cu.sram_bits() > cf.sram_bits());
    }

    #[test]
    fn reuse_cuts_fmap_fetch_traffic() {
        let cfg = MsdaConfig::tiny();
        let (locs, keep) = block_inputs(&cfg, 4);
        let reuse = MsgsEngine::new(&cfg, MsgsSettings::paper_default()).unwrap();
        let no_reuse = MsgsEngine::new(
            &cfg,
            MsgsSettings { fmap_reuse: false, ..MsgsSettings::paper_default() },
        )
        .unwrap();
        let mut cr = EventCounters::new();
        let sr = reuse.run_block(&locs, &keep, 1.0, &mut cr).unwrap();
        let mut cn = EventCounters::new();
        let sn = no_reuse.run_block(&locs, &keep, 1.0, &mut cn).unwrap();
        assert!(
            sn.fmap_fetch_bits > 2 * sr.fmap_fetch_bits,
            "no-reuse {} vs reuse {}",
            sn.fmap_fetch_bits,
            sr.fmap_fetch_bits
        );
    }

    #[test]
    fn pruned_points_are_skipped() {
        let cfg = MsdaConfig::tiny();
        let (locs, _) = block_inputs(&cfg, 5);
        let engine = MsgsEngine::new(&cfg, MsgsSettings::paper_default()).unwrap();
        let all = vec![true; locs.len()];
        let none = vec![false; locs.len()];
        let mut c1 = EventCounters::new();
        let s_all = engine.run_block(&locs, &all, 1.0, &mut c1).unwrap();
        let mut c2 = EventCounters::new();
        let s_none = engine.run_block(&locs, &none, 1.0, &mut c2).unwrap();
        assert_eq!(s_none.points, 0);
        assert_eq!(s_none.groups, 0);
        assert!(s_all.cycles > s_none.cycles);
    }

    /// The bank-set table, capped at its last row, is `footprint_banks`
    /// for every `u8` level and anchor residue, in both mappings: the same
    /// set, or 0 where the mapping has no bank group for the level.
    #[test]
    fn bank_set_table_equals_footprint_banks() {
        let cfg = MsdaConfig::tiny();
        for mapping in [BankMapping::InterLevel, BankMapping::IntraLevel] {
            let engine =
                MsgsEngine::new(&cfg, MsgsSettings { mapping, ..MsgsSettings::paper_default() })
                    .unwrap();
            for level in 0..=u8::MAX {
                let row = engine.bank_sets[(level as usize).min(BANK_LEVELS - 1)];
                for (y0, x0) in [(0i64, 0i64), (1, 2), (3, 3), (-1, -6), (i64::MAX, i64::MIN)] {
                    let want = mapping
                        .footprint_banks(level.into(), y0, x0)
                        .map_or(0, |banks| banks.iter().fold(0u16, |set, &b| set | 1 << b));
                    let got = row[((y0 & 3) * 4 + (x0 & 3)) as usize];
                    assert_eq!(got, want, "{mapping:?} level {level} anchor ({y0}, {x0})");
                }
            }
        }
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let cfg = MsdaConfig::tiny();
        let engine = MsgsEngine::new(&cfg, MsgsSettings::paper_default()).unwrap();
        let mut c = EventCounters::new();
        assert!(engine.run_block(&[], &[], 1.0, &mut c).is_err());
    }

    #[test]
    fn points_per_cycle_peaks_near_group_parallelism() {
        // With 4 levels, no pruning and conflict-free banking, the engine
        // approaches n_levels points per head_dim-cycle group.
        let cfg = MsdaConfig::small();
        let (locs, keep) = block_inputs(&cfg, 6);
        let engine = MsgsEngine::new(&cfg, MsgsSettings::paper_default()).unwrap();
        let mut c = EventCounters::new();
        let stats = engine.run_block(&locs, &keep, 1.0, &mut c).unwrap();
        let per_group = stats.points as f64 / stats.groups as f64;
        assert!(per_group > 3.9, "avg points per group {per_group}");
    }
}
