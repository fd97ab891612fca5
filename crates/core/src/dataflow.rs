//! One MSDeformAttn block on the DEFA hardware (§4.1 dataflow).
//!
//! The paper rearranges the block so both masks act before the heavy work:
//!
//! 1. `Q·Wᴬ` (MM mode) → softmax unit → **point mask** (PAP);
//! 2. masked `ΔP = Q·Wˢ` (MM mode);
//! 3. `V = X·Wᵥ` under the previous block's **fmap mask** (MM mode), with
//!    the compression unit shrinking the masked DRAM traffic;
//! 4. fused MSGS + aggregation (BA mode) while the fmap mask generator
//!    counts frequencies for the next block.
//!
//! DRAM transfers overlap with compute; only the excess shows up as stall
//! cycles.

use crate::msgs::{MsgsEngine, MsgsStats};
use crate::trace::StageCycles;
use crate::CoreError;
use defa_arch::compress::compressed_bits;
use defa_arch::maskgen::{FmapMaskGenerator, PointMaskGenerator};
use defa_arch::softmax_unit::SoftmaxUnit;
use defa_arch::{Dram, EventCounters, PeArray, PRECISION_BITS};
use defa_model::{MsdaConfig, SamplePoint};

/// Pruning fractions steering one block's simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockPruning {
    /// Fraction of sampling points surviving PAP.
    pub point_keep: f64,
    /// Fraction of fmap pixels surviving FWP (this block's input mask).
    pub pixel_keep: f64,
}

impl BlockPruning {
    /// No pruning.
    pub fn dense() -> Self {
        BlockPruning { point_keep: 1.0, pixel_keep: 1.0 }
    }
}

/// Simulates one block, returning the MSGS statistics and the per-stage
/// cycle timeline.
///
/// `locations`/`keep` describe the block's sampling points after range
/// clamping; `pruning` carries the keep fractions for the matrix stages.
/// Stage 4 is [`MsgsEngine::run_block`]: the kept-slot walk with the
/// engine as its one visitor, parallel over query ranges with a
/// deterministic reduction, so the returned stats and counters are
/// identical for any thread count. The accelerator model's pruned runs
/// price the block with the same rules, but take stage 4 from the
/// pipeline's own walk instead of walking the locations again.
///
/// # Errors
///
/// Propagates engine errors; returns [`CoreError::Inconsistent`] on length
/// mismatches.
pub fn simulate_block(
    cfg: &MsdaConfig,
    engine: &MsgsEngine,
    pe: &PeArray,
    locations: &[SamplePoint],
    keep: &[bool],
    pruning: BlockPruning,
    counters: &mut EventCounters,
) -> Result<(MsgsStats, StageCycles), CoreError> {
    price_block(cfg, pe, pruning, counters, |c| {
        engine.run_block(locations, keep, pruning.pixel_keep, c)
    })
}

/// [`simulate_block`] with stage 4's MSGS simulation supplied by `msgs`,
/// which adds its activity to the counters it is given and returns the
/// block's stats.
pub(crate) fn price_block(
    cfg: &MsdaConfig,
    pe: &PeArray,
    pruning: BlockPruning,
    counters: &mut EventCounters,
    msgs: impl FnOnce(&mut EventCounters) -> Result<MsgsStats, CoreError>,
) -> Result<(MsgsStats, StageCycles), CoreError> {
    let mut stages = StageCycles::default();
    let n = cfg.n_in() as u64;
    let d = cfg.d_model as u64;
    let ppq = cfg.points_per_query() as u64;
    let softmax = SoftmaxUnit::new();
    let mut dram = Dram::hbm2();
    let start = *counters;

    // ---- DRAM input streams -------------------------------------------
    // Weights for the three projections. The weight buffer holds one
    // 16-column tile (reused across all N_in rows), so each weight matrix
    // streams exactly once per block.
    let weight_bits = (d * ppq + d * 2 * ppq + d * d) * PRECISION_BITS;
    dram.read(weight_bits);
    // Input features: X (N_in × D at INT12 ≈ megabytes) exceeds on-chip
    // capacity, so the output-stationary MM re-streams it once per
    // 16-column output tile — the "large data transfer in MM" that makes
    // DRAM dominate the paper's energy breakdown (Fig. 8). The value
    // projection streams only FWP-surviving rows, compressed (mask +
    // payload) by the compression unit.
    let kept_pixels = (n as f64 * pruning.pixel_keep).round() as u64;
    // The activation re-stream granularity: the weight buffer holds two
    // 16-column tiles, so X streams once per 32 output columns.
    let tile = 32u64;
    let x_row_bits = n * d * PRECISION_BITS;
    // Stage-1 stream: attention-logit projection reads all rows.
    dram.read(x_row_bits * ppq.div_ceil(tile));
    // Stage-2 stream: offset projection; PAP prunes output columns, which
    // skips whole tiles in proportion.
    let offset_tiles = ((2 * ppq).div_ceil(tile) as f64 * pruning.point_keep).ceil() as u64;
    dram.read(x_row_bits * offset_tiles.max(1));
    // Stage-3 stream: value projection reads surviving rows per tile.
    let x_masked_bits = compressed_bits(n, kept_pixels * d, PRECISION_BITS);
    dram.read(x_masked_bits * d.div_ceil(tile));

    // ---- Stage 1: attention logits + softmax + PAP ----------------------
    let mm1 = n * d * ppq;
    stages.attn_proj = pe.run_matmul(mm1, counters);
    counters.sram_read_bits += (n * d * ppq.div_ceil(tile) + d * ppq) * PRECISION_BITS;
    counters.sram_write_bits += (n * d * ppq.div_ceil(tile) + n * ppq) * PRECISION_BITS;
    stages.softmax = softmax.run(n * ppq, counters);
    PointMaskGenerator::new().run(n * ppq, counters);

    // ---- Stage 2: masked sampling offsets -------------------------------
    let mm2 = ((n * d * 2 * ppq) as f64 * pruning.point_keep).round() as u64;
    stages.offset_proj = pe.run_matmul(mm2, counters);
    counters.sram_read_bits += (n * d * offset_tiles.max(1) + d * 2 * ppq) * PRECISION_BITS;
    counters.sram_write_bits += (n * d * offset_tiles.max(1)) * PRECISION_BITS
        + ((n * 2 * ppq) as f64 * pruning.point_keep).round() as u64 * PRECISION_BITS;

    // ---- Stage 3: masked value projection -------------------------------
    let mm3 = ((n * d * d) as f64 * pruning.pixel_keep).round() as u64;
    stages.value_proj = pe.run_matmul(mm3, counters);
    counters.sram_read_bits += (kept_pixels * d * d.div_ceil(tile) + d * d) * PRECISION_BITS;
    counters.sram_write_bits += (kept_pixels * d * (d.div_ceil(tile) + 1)) * PRECISION_BITS;
    // V spills to DRAM for the MSGS sweep (it exceeds on-chip capacity).
    dram.write(kept_pixels * d * PRECISION_BITS);

    // ---- Stage 4: fused MSGS + aggregation + FWP ------------------------
    let stats = msgs(counters)?;
    FmapMaskGenerator::new().run(4 * stats.points, n, counters);

    // ---- DRAM overlap ----------------------------------------------------
    let transfer_cycles = dram.read_bits().div_ceil(dram.bits_per_cycle())
        + dram.write_bits().div_ceil(dram.bits_per_cycle());
    let compute_cycles = (counters.mm_cycles - start.mm_cycles)
        + (counters.msgs_cycles - start.msgs_cycles)
        + (counters.softmax_cycles - start.softmax_cycles);
    stages.dram_stall = transfer_cycles.saturating_sub(compute_cycles);
    counters.dram_stall_cycles += stages.dram_stall;
    stages.msgs = stats.cycles + (counters.conflict_stall_cycles - start.conflict_stall_cycles);
    dram.drain_into(counters);
    Ok((stats, stages))
}

/// Simulates one *decoder* cross-attention block: `n_queries` object
/// queries sample the `cfg`-shaped encoder memory.
///
/// The Q-side stages (logit/offset projections, softmax) scale with the
/// query count, while the value projection and fmap traffic scale with the
/// memory — the reason decoder MSDeformAttn is far cheaper than encoder
/// self-attention despite the identical operator.
///
/// # Errors
///
/// Propagates engine errors; returns [`CoreError::Inconsistent`] on length
/// mismatches.
#[allow(clippy::too_many_arguments)] // mirrors simulate_block plus the query count
pub fn simulate_cross_block(
    cfg: &MsdaConfig,
    n_queries: usize,
    engine: &MsgsEngine,
    pe: &PeArray,
    locations: &[SamplePoint],
    keep: &[bool],
    pruning: BlockPruning,
    counters: &mut EventCounters,
) -> Result<(MsgsStats, StageCycles), CoreError> {
    let mut stages = StageCycles::default();
    let nq = n_queries as u64;
    let nmem = cfg.n_in() as u64;
    let d = cfg.d_model as u64;
    let ppq = cfg.points_per_query() as u64;
    if locations.len() != n_queries * ppq as usize {
        return Err(CoreError::Inconsistent(format!(
            "{} locations for {} queries x {ppq} points",
            locations.len(),
            n_queries
        )));
    }
    let softmax = SoftmaxUnit::new();
    let mut dram = Dram::hbm2();
    let start = *counters;

    // Weights stream once; queries are small enough to stay resident, so
    // only the memory re-streams per value-projection tile.
    let weight_bits = (d * ppq + d * 2 * ppq + d * d) * PRECISION_BITS;
    dram.read(weight_bits);
    let tile = 32u64;
    let kept_pixels = (nmem as f64 * pruning.pixel_keep).round() as u64;
    dram.read(nq * d * PRECISION_BITS); // queries, once
    let x_masked_bits = compressed_bits(nmem, kept_pixels * d, PRECISION_BITS);
    dram.read(x_masked_bits * d.div_ceil(tile));

    // Stage 1: logits + softmax + PAP over the query set.
    stages.attn_proj = pe.run_matmul(nq * d * ppq, counters);
    counters.sram_read_bits += (nq * d + d * ppq) * PRECISION_BITS;
    counters.sram_write_bits += nq * ppq * PRECISION_BITS;
    stages.softmax = softmax.run(nq * ppq, counters);
    PointMaskGenerator::new().run(nq * ppq, counters);

    // Stage 2: masked offsets.
    let mm2 = ((nq * d * 2 * ppq) as f64 * pruning.point_keep).round() as u64;
    stages.offset_proj = pe.run_matmul(mm2, counters);
    counters.sram_read_bits += nq * d * PRECISION_BITS;
    counters.sram_write_bits +=
        ((nq * 2 * ppq) as f64 * pruning.point_keep).round() as u64 * PRECISION_BITS;

    // Stage 3: masked value projection of the *memory*.
    let mm3 = ((nmem * d * d) as f64 * pruning.pixel_keep).round() as u64;
    stages.value_proj = pe.run_matmul(mm3, counters);
    counters.sram_read_bits += (kept_pixels * d * d.div_ceil(tile) + d * d) * PRECISION_BITS;
    counters.sram_write_bits += kept_pixels * d * PRECISION_BITS;
    dram.write(kept_pixels * d * PRECISION_BITS);

    // Stage 4: fused MSGS + aggregation over the query samples.
    let stats = engine.run_block(locations, keep, pruning.pixel_keep, counters)?;
    FmapMaskGenerator::new().run(4 * stats.points, nmem, counters);

    let transfer_cycles = dram.read_bits().div_ceil(dram.bits_per_cycle())
        + dram.write_bits().div_ceil(dram.bits_per_cycle());
    let compute_cycles = (counters.mm_cycles - start.mm_cycles)
        + (counters.msgs_cycles - start.msgs_cycles)
        + (counters.softmax_cycles - start.softmax_cycles);
    stages.dram_stall = transfer_cycles.saturating_sub(compute_cycles);
    counters.dram_stall_cycles += stages.dram_stall;
    stages.msgs = stats.cycles + (counters.conflict_stall_cycles - start.conflict_stall_cycles);
    dram.drain_into(counters);
    Ok((stats, stages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msgs::MsgsSettings;
    use defa_model::workload::{Benchmark, SyntheticWorkload};

    fn setup(cfg: &MsdaConfig) -> (MsgsEngine, Vec<SamplePoint>, Vec<bool>) {
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, cfg, 1).unwrap();
        let out = wl.layer(0).unwrap().forward(wl.initial_fmap(), Some(wl.warp())).unwrap();
        let keep = vec![true; out.locations.len()];
        let engine = MsgsEngine::new(cfg, MsgsSettings::paper_default()).unwrap();
        (engine, out.locations, keep)
    }

    #[test]
    fn dense_block_accumulates_all_stages() {
        let cfg = MsdaConfig::tiny();
        let (engine, locs, keep) = setup(&cfg);
        let mut c = EventCounters::new();
        let (stats, stages) = simulate_block(
            &cfg,
            &engine,
            &PeArray::new(),
            &locs,
            &keep,
            BlockPruning::dense(),
            &mut c,
        )
        .unwrap();
        assert!(stages.total() > 0);
        assert!(stages.attn_proj > 0 && stages.msgs > 0);
        assert!(c.mm_macs > 0);
        assert!(c.msgs_cycles > 0);
        assert!(c.softmax_elems > 0);
        assert!(c.dram_bits() > 0);
        assert!(stats.points > 0);
    }

    #[test]
    fn pruning_reduces_macs_and_traffic() {
        let cfg = MsdaConfig::tiny();
        let (engine, locs, keep) = setup(&cfg);
        let mut dense = EventCounters::new();
        simulate_block(
            &cfg,
            &engine,
            &PeArray::new(),
            &locs,
            &keep,
            BlockPruning::dense(),
            &mut dense,
        )
        .unwrap();
        // Prune 84% of points and 43% of pixels.
        let sparse_keep: Vec<bool> = keep.iter().enumerate().map(|(i, _)| i % 6 == 0).collect();
        let mut sparse = EventCounters::new();
        simulate_block(
            &cfg,
            &engine,
            &PeArray::new(),
            &locs,
            &sparse_keep,
            BlockPruning { point_keep: 0.16, pixel_keep: 0.57 },
            &mut sparse,
        )
        .unwrap();
        assert!(sparse.mm_macs < dense.mm_macs);
        assert!(sparse.msgs_cycles < dense.msgs_cycles);
        assert!(sparse.dram_bits() < dense.dram_bits());
    }

    #[test]
    fn stall_cycles_appear_when_memory_bound() {
        // A tiny config is heavily memory bound (little compute to hide
        // the weight streaming behind).
        let cfg = MsdaConfig::tiny();
        let (engine, locs, keep) = setup(&cfg);
        let mut c = EventCounters::new();
        simulate_block(&cfg, &engine, &PeArray::new(), &locs, &keep, BlockPruning::dense(), &mut c)
            .unwrap();
        // Either stalls exist or compute fully hides the traffic; both are
        // legal, but total cycles must dominate pure-MM cycles.
        assert!(c.total_cycles() >= c.mm_cycles);
    }
}
