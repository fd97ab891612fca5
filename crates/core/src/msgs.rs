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
//! The simulation's host cost follows the kept points and the groups they
//! fill, not the slots: each query tile's keep mask is walked as packed
//! bits, every kept point adds its footprint to its group's per-bank
//! request counts, and only non-empty groups are issued.

use crate::CoreError;
use defa_arch::{BankMapping, BankedSram, Dram, EventCounters, PeArray, N_BANKS, PRECISION_BITS};
use defa_model::bilinear::Footprint;
use defa_model::sampling::for_each_kept;
use defa_model::{MsdaConfig, SamplePoint};
use defa_prune::RangeConfig;

/// Queries per parallel simulation tile of [`MsgsEngine::run_block`].
///
/// Tiles are simulated concurrently with private SRAM/counter models and
/// reduced in tile order; the value trades scheduling granularity against
/// per-tile setup and does not affect results (which are bit-identical for
/// any tile size or thread count).
const QUERY_TILE: usize = 64;

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
}

impl MsgsEngine {
    /// Creates an engine for a model configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] if the configuration is invalid.
    pub fn new(cfg: &MsdaConfig, settings: MsgsSettings) -> Result<Self, CoreError> {
        cfg.validate()?;
        Ok(MsgsEngine { ranges: RangeConfig::paper_defaults(cfg), cfg: cfg.clone(), settings })
    }

    /// The engine's settings.
    pub fn settings(&self) -> MsgsSettings {
        self.settings
    }

    /// Simulates one block's MSGS + aggregation.
    ///
    /// `locations` holds all `n_in · points_per_query` sampling points in
    /// layer order; `keep` the PAP survival of each. Counters receive the
    /// cycle and traffic activity; the returned stats summarize the run.
    ///
    /// The sampling-point pipeline is simulated in parallel over
    /// contiguous *query tiles*: each tile accumulates its own
    /// [`MsgsStats`] and [`EventCounters`] against a private
    /// [`BankedSram`] model, and the partial results are reduced in tile
    /// order. Every per-group quantity (service cycles, conflicts,
    /// traffic) depends only on that group's own sampling points, so the
    /// reduction is exact: stats and counters are **bit-identical** to the
    /// sequential simulation for any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Inconsistent`] on length mismatches and
    /// [`CoreError::Arch`] if a bank index cannot be computed (more levels
    /// than bank groups in inter-level mode).
    pub fn run_block(
        &self,
        locations: &[SamplePoint],
        keep: &[bool],
        pixel_keep_fraction: f64,
        counters: &mut EventCounters,
    ) -> Result<MsgsStats, CoreError> {
        let cfg = &self.cfg;
        let ppq = cfg.points_per_query();
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
        // Queries = N_in for encoder self-attention; the object-query
        // count for decoder cross-attention.
        let n = locations.len() / ppq;

        let word_bits = defa_arch::BA_CHANNELS_PER_BEAT * PRECISION_BITS;
        let dh = cfg.head_dim();

        // --- Sampling-point pipeline (query-tile parallel) ----------------
        // Group of each slot within a (query, head) slice: inter-level
        // groups take point `p` of every level, intra-level groups the
        // `N_p` points of level `l`.
        let n_points = cfg.n_points;
        let group_of: Vec<usize> = (0..cfg.points_per_head())
            .map(|o| match self.settings.mapping {
                BankMapping::InterLevel => o % n_points,
                BankMapping::IntraLevel => o / n_points,
            })
            .collect();
        let n_tiles = n.div_ceil(QUERY_TILE);
        let tiles = defa_parallel::par_map_collect(n_tiles, |t| {
            let q0 = t * QUERY_TILE;
            let q1 = ((t + 1) * QUERY_TILE).min(n);
            self.run_query_tile(locations, keep, &group_of, q0, q1)
        });
        let mut stats = MsgsStats::default();
        let mut sram = BankedSram::new(N_BANKS, word_bits)?;
        let mut dram = Dram::hbm2();
        for tile in tiles {
            let (tile_stats, tile_counters) = tile?;
            stats.cycles += tile_stats.cycles;
            stats.groups += tile_stats.groups;
            stats.points += tile_stats.points;
            stats.conflicts += tile_stats.conflicts;
            *counters += tile_counters;
        }

        // --- Fmap fetch traffic (DRAM -> SRAM row buffers) ---------------
        let fetch_bits = self.fmap_fetch_bits(n, keep, pixel_keep_fraction);
        dram.read(fetch_bits);
        sram.write_stream(fetch_bits / word_bits);
        stats.fmap_fetch_bits = fetch_bits;

        // --- Operator fusion --------------------------------------------
        if !self.settings.fused {
            // Sampling values round-trip: SRAM write + DRAM write, then
            // DRAM read + SRAM read before aggregation.
            let bits = stats.points * dh as u64 * PRECISION_BITS;
            sram.write_stream(bits / word_bits);
            sram.read_stream(bits / word_bits);
            dram.write(bits);
            dram.read(bits);
            stats.spill_bits = 2 * bits;
        }

        // --- Aggregated output ------------------------------------------
        let out_bits = (n * cfg.d_model) as u64 * PRECISION_BITS;
        sram.write_stream(out_bits / word_bits);
        dram.write(out_bits);

        sram.drain_into(counters);
        dram.drain_into(counters);
        Ok(stats)
    }

    /// Simulates the BA-pipeline groups of queries `q0..q1` against a
    /// tile-private SRAM model, returning the tile's stats and counter
    /// deltas (SRAM activity already drained into the counters).
    ///
    /// Kept points are visited in slot order; each adds its footprint's
    /// banks to its group (`group_of`, indexed by the slot's offset in its
    /// `(query, head)` slice). When the walk leaves a slice, that slice's
    /// non-empty groups are issued in group order.
    fn run_query_tile(
        &self,
        locations: &[SamplePoint],
        keep: &[bool],
        group_of: &[usize],
        q0: usize,
        q1: usize,
    ) -> Result<(MsgsStats, EventCounters), CoreError> {
        let cfg = &self.cfg;
        let ppq = cfg.points_per_query();
        let per_head = group_of.len();
        let mapping = self.settings.mapping;
        let n_groups = match mapping {
            BankMapping::InterLevel => cfg.n_points,
            BankMapping::IntraLevel => cfg.n_levels(),
        };
        let word_bits = defa_arch::BA_CHANNELS_PER_BEAT * PRECISION_BITS;
        let mut tile = TileGroups {
            pe: PeArray::new(),
            sram: BankedSram::new(N_BANKS, word_bits)?,
            counters: EventCounters::new(),
            stats: MsgsStats::default(),
            head_dim: cfg.head_dim(),
            loads: vec![[0; N_BANKS]; n_groups],
            members: vec![0; n_groups],
            live: vec![0; n_groups.div_ceil(64)],
        };
        let lo = q0 * ppq;
        let mut slice_end = lo + per_head;
        let mut bad_bank = None;
        for_each_kept(&keep[lo..q1 * ppq], |k| {
            let slot = lo + k;
            if slot >= slice_end {
                tile.issue();
                while slot >= slice_end {
                    slice_end += per_head;
                }
            }
            let pt = locations[slot];
            let (x0, y0) = Footprint::anchor(pt.x, pt.y);
            match mapping.footprint_banks(pt.level as usize, y0, x0) {
                Ok(banks) => tile.add(group_of[slot + per_head - slice_end], banks),
                Err(e) => {
                    bad_bank.get_or_insert(e);
                }
            }
        });
        if let Some(e) = bad_bank {
            return Err(e.into());
        }
        tile.issue();
        let TileGroups { mut sram, mut counters, mut stats, .. } = tile;
        stats.conflicts = sram.conflicts();
        sram.drain_into(&mut counters);
        Ok((stats, counters))
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

/// One query tile's simulation state: the SRAM and counter models plus
/// the per-bank request counts of the current `(query, head)` slice's
/// groups, reused from slice to slice.
struct TileGroups {
    pe: PeArray,
    sram: BankedSram,
    counters: EventCounters,
    stats: MsgsStats,
    head_dim: usize,
    /// Per-bank request counts of each group.
    loads: Vec<[u32; N_BANKS]>,
    /// Kept points in each group.
    members: Vec<u32>,
    /// Bit `g` set when group `g` has a member.
    live: Vec<u64>,
}

impl TileGroups {
    /// Adds one kept point, whose footprint reads `banks`, to group `g`.
    #[inline]
    fn add(&mut self, g: usize, banks: [usize; 4]) {
        let loads = &mut self.loads[g];
        for b in banks {
            loads[b] += 1;
        }
        self.members[g] += 1;
        self.live[g / 64] |= 1 << (g % 64);
    }

    /// Issues the slice's non-empty groups in group order and clears them.
    fn issue(&mut self) {
        let beats = (self.head_dim as u64).div_ceil(defa_arch::BA_CHANNELS_PER_BEAT);
        for w in 0..self.live.len() {
            let mut bits = std::mem::take(&mut self.live[w]);
            while bits != 0 {
                let g = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let points = std::mem::take(&mut self.members[g]);
                let requests = 4 * u64::from(points);
                let service = self.sram.read_loads(&self.loads[g], requests);
                self.loads[g] = [0; N_BANKS];
                let cycles = self.pe.run_ba_group(
                    points as usize,
                    self.head_dim,
                    service,
                    &mut self.counters,
                );
                self.stats.cycles += cycles;
                self.stats.groups += 1;
                self.stats.points += u64::from(points);
                // The group's reads repeat every beat; the first beat was
                // charged by read_loads.
                self.sram.read_stream((beats - 1) * requests);
            }
        }
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
