//! End-to-end accelerator runs: functional pruning + cycle/energy model.

use crate::dataflow::{price_block, price_cross_block, BlockPruning};
use crate::msgs::{MsgsEngine, MsgsSettings, MsgsStats};
use crate::report::RunReport;
use crate::trace::StageCycles;
use crate::CoreError;
use defa_arch::area::SramInventory;
use defa_arch::maskgen::FREQ_COUNTER_BITS;
use defa_arch::{AreaModel, EnergyModel, EventCounters, PeArray, CLOCK_HZ, PRECISION_BITS};
use defa_model::encoder::run_encoder_observed_from;
use defa_model::flops::BlockFlops;
use defa_model::workload::SyntheticWorkload;
use defa_model::MsdaConfig;
use defa_prune::pipeline::{
    run_pruned_decoder_visited, run_pruned_encoder_visited_from, BlockPruneInfo, PruneSettings,
};
use defa_prune::RangeConfig;

/// A hardware run plus the functional output it computed.
///
/// [`DefaAccelerator::run_workload_from`] returns both so serving callers
/// can account cycles *and* hand the features back as the response without
/// re-running the functional pipeline.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// The cycle/energy/area report.
    pub report: RunReport,
    /// Final features of the pruned functional run.
    pub final_features: defa_tensor::Tensor,
}

/// The simulated DEFA instance: feature switches plus technology models.
#[derive(Debug, Clone)]
pub struct DefaAccelerator {
    /// MSGS engine configuration (mapping, fusion, reuse).
    pub msgs: MsgsSettings,
    /// Energy constants.
    pub energy: EnergyModel,
    /// Area constants.
    pub area: AreaModel,
    /// PE array size.
    pub pe: PeArray,
    /// Whether to also evaluate the exact encoder for a fidelity number
    /// (doubles the functional work; on by default).
    pub measure_fidelity: bool,
}

impl DefaAccelerator {
    /// The paper's design point: inter-level parallelism, operator fusion,
    /// fmap reuse, 16×16 PE array, 40 nm constants.
    pub fn paper_default() -> Self {
        DefaAccelerator {
            msgs: MsgsSettings::paper_default(),
            energy: EnergyModel::forty_nm(),
            area: AreaModel::forty_nm(),
            pe: PeArray::new(),
            measure_fidelity: true,
        }
    }

    /// On-chip SRAM inventory for a model configuration (documented in
    /// DESIGN.md; drives the area model).
    ///
    /// * MSGS row buffers: double-buffered, per-head channels
    ///   (`D_h · 12 b`) of every level's bounded rows.
    /// * Weight buffer: double-buffered 16-column weight tiles.
    /// * Activation staging: one 16-query tile of Q plus its logits/probs.
    /// * Masks: fmap mask + one query tile's point masks.
    /// * FWP counters: one per pixel.
    pub fn sram_inventory(cfg: &MsdaConfig) -> SramInventory {
        let ranges = RangeConfig::paper_defaults(cfg);
        let dh = cfg.head_dim() as u64;
        let d = cfg.d_model as u64;
        let n = cfg.n_in() as u64;
        let ppq = cfg.points_per_query() as u64;
        SramInventory {
            msgs_buffer_bits: 2 * ranges.storage_pixels(cfg) * dh * PRECISION_BITS,
            weight_buffer_bits: 2 * d * 16 * PRECISION_BITS,
            activation_buffer_bits: 16 * (d + 2 * ppq) * PRECISION_BITS,
            mask_bits: n + 16 * ppq,
            counter_bits: n * FREQ_COUNTER_BITS,
        }
    }

    /// Runs a benchmark workload end to end.
    ///
    /// The functional pruned pipeline executes every block; each block's
    /// intermediates drive the cycle-level simulation via the observer
    /// hook, so the hardware sees the *actual* masks, sampling locations
    /// and conflicts of that workload.
    ///
    /// # Errors
    ///
    /// Propagates functional-model and hardware-model failures.
    pub fn run_workload(
        &self,
        wl: &SyntheticWorkload,
        prune: &PruneSettings,
    ) -> Result<RunReport, CoreError> {
        self.run_workload_from(wl, wl.initial_fmap(), prune).map(|run| run.report)
    }

    /// [`DefaAccelerator::run_workload`] over a caller-provided initial
    /// feature pyramid, also returning the functional output.
    ///
    /// This is the serving entry point: one workload (weights, warp) is
    /// shared by a stream of requests, each contributing its own backbone
    /// features, and the caller gets both the hardware report and the
    /// final features the accelerator computed for that request.
    ///
    /// # Errors
    ///
    /// Propagates functional-model and hardware-model failures.
    pub fn run_workload_from(
        &self,
        wl: &SyntheticWorkload,
        initial: &defa_model::FmapPyramid,
        prune: &PruneSettings,
    ) -> Result<WorkloadRun, CoreError> {
        let cfg = wl.config();
        let engine = MsgsEngine::new(cfg, self.msgs)?;
        let pe = self.pe;
        let n = cfg.n_in();

        // Stage 4 of every block walks its kept slots once: the engine's
        // sampler rides on the pipeline's walk beside the aggregation and
        // FWP counting, and the block is priced from what it saw.
        let mut tally = Tally::default();
        let mut sampler = engine.sampler();
        let run = run_pruned_encoder_visited_from(
            wl,
            prune,
            initial,
            &mut sampler,
            |_k, _, info, sampler| {
                tally.block(info, |pruning, counters| {
                    price_block(cfg, &pe, pruning, counters, |c| {
                        sampler.settle(n, info.point_mask.as_bools(), pruning.pixel_keep, c)
                    })
                })
            },
        )?;

        let fidelity_error = if self.measure_fidelity {
            let exact = run_encoder_observed_from(wl, initial, |_, _| {})?;
            Some(
                run.final_features
                    .relative_l2_error(&exact)
                    .map_err(defa_model::ModelError::from)?,
            )
        } else {
            None
        };
        let report = self.report(cfg, wl.benchmark(), tally, run.stats, fidelity_error)?;
        Ok(WorkloadRun { report, final_features: run.final_features })
    }

    /// Runs a decoder workload (cross-attention over a fixed encoder
    /// memory) on the hardware model — the extension beyond the paper's
    /// encoder-only evaluation (§5.1.1).
    ///
    /// The functional run is [`run_pruned_decoder_visited`]: the encoder's
    /// per-block schedule with the object queries as `Q`, so PAP masks each
    /// layer's points from its cross-attention probabilities, FWP masks
    /// the memory pixels of the next layer from the sampled frequencies,
    /// and both reach the features. The engine's sampler rides on each
    /// block's one kept-slot walk, and the block is priced with the
    /// decoder's own DRAM/SRAM rules (the queries stay on chip). The
    /// decoder applies no range narrowing or quantization, and the report
    /// carries no fidelity number.
    ///
    /// # Errors
    ///
    /// Propagates functional and hardware failures.
    pub fn run_decoder_workload(
        &self,
        dec: &defa_model::decoder::DecoderWorkload,
        memory: &defa_model::FmapPyramid,
        prune: &PruneSettings,
    ) -> Result<RunReport, CoreError> {
        let cfg = dec.config();
        let nq = dec.n_queries();
        let engine = MsgsEngine::new(cfg, self.msgs)?;
        let pe = self.pe;

        let mut tally = Tally::default();
        let mut sampler = engine.sampler();
        let run = run_pruned_decoder_visited(
            dec,
            prune,
            memory,
            &mut sampler,
            |_k, _, info, sampler| {
                tally.block(info, |pruning, counters| {
                    price_cross_block(cfg, nq, &pe, pruning, counters, |c| {
                        sampler.settle(nq, info.point_mask.as_bools(), pruning.pixel_keep, c)
                    })
                })
            },
        )?;
        self.report(cfg, defa_model::workload::Benchmark::DeformableDetr, tally, run.stats, None)
    }

    /// Prices the run's counters and assembles its report; returns the
    /// first block's pricing error instead, if any block had one.
    fn report(
        &self,
        cfg: &MsdaConfig,
        benchmark: defa_model::workload::Benchmark,
        tally: Tally,
        reduction: defa_prune::ReductionStats,
        fidelity_error: Option<f32>,
    ) -> Result<RunReport, CoreError> {
        if let Some(e) = tally.error {
            return Err(e);
        }
        let flops = BlockFlops::for_config(cfg);
        Ok(RunReport {
            benchmark,
            energy: self.energy.price(&tally.counters),
            area: self.area.price(&Self::sram_inventory(cfg), &self.pe),
            counters: tally.counters,
            msgs: tally.msgs,
            stages: tally.stages,
            dense_flops: flops.attention_only() * u64::from(reduction.blocks),
            reduction,
            fidelity_error,
            clock_hz: CLOCK_HZ,
        })
    }
}

/// What the cycle model accumulates over a run's blocks.
#[derive(Default)]
struct Tally {
    counters: EventCounters,
    msgs: MsgsStats,
    stages: StageCycles,
    /// The first block's pricing error; later blocks are not priced.
    error: Option<CoreError>,
}

impl Tally {
    /// Prices one block with `price`, given the block's keep fractions and
    /// the run's counters.
    fn block(
        &mut self,
        info: &BlockPruneInfo,
        price: impl FnOnce(
            BlockPruning,
            &mut EventCounters,
        ) -> Result<(MsgsStats, StageCycles), CoreError>,
    ) {
        if self.error.is_some() {
            return;
        }
        let pruning = BlockPruning {
            point_keep: info.point_mask.keep_fraction(),
            pixel_keep: info.fmap_mask.keep_fraction(),
        };
        match price(pruning, &mut self.counters) {
            Ok((msgs, stages)) => {
                self.msgs += msgs;
                self.stages += stages;
            }
            Err(e) => self.error = Some(e),
        }
    }
}

impl Default for DefaAccelerator {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defa_arch::BankMapping;
    use defa_model::workload::Benchmark;

    fn tiny_run(msgs: MsgsSettings, prune: &PruneSettings) -> RunReport {
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 5).unwrap();
        let accel = DefaAccelerator { msgs, ..DefaAccelerator::paper_default() };
        accel.run_workload(&wl, prune).unwrap()
    }

    #[test]
    fn paper_config_produces_complete_report() {
        let r = tiny_run(MsgsSettings::paper_default(), &PruneSettings::paper_defaults());
        assert!(r.counters.total_cycles() > 0);
        assert!(r.energy.total_pj() > 0.0);
        assert!(r.area.total_mm2() > 0.0);
        assert!(r.fidelity_error.is_some());
        assert!(r.fps() > 0.0);
        assert_eq!(r.counters.bank_conflicts, 0, "inter-level must be conflict-free");
    }

    #[test]
    fn pruning_makes_runs_faster_and_cheaper() {
        let pruned = tiny_run(MsgsSettings::paper_default(), &PruneSettings::paper_defaults());
        let dense = tiny_run(MsgsSettings::paper_default(), &PruneSettings::disabled());
        assert!(pruned.counters.total_cycles() < dense.counters.total_cycles());
        assert!(pruned.energy.total_pj() < dense.energy.total_pj());
    }

    #[test]
    fn intra_level_mapping_is_slower() {
        let inter = tiny_run(MsgsSettings::paper_default(), &PruneSettings::disabled());
        let intra = tiny_run(
            MsgsSettings { mapping: BankMapping::IntraLevel, ..MsgsSettings::paper_default() },
            &PruneSettings::disabled(),
        );
        assert!(intra.msgs.cycles > inter.msgs.cycles);
        assert!(intra.counters.bank_conflicts > 0);
    }

    #[test]
    fn fusion_and_reuse_save_energy() {
        let full = tiny_run(MsgsSettings::paper_default(), &PruneSettings::paper_defaults());
        let unfused = tiny_run(
            MsgsSettings { fused: false, ..MsgsSettings::paper_default() },
            &PruneSettings::paper_defaults(),
        );
        let no_reuse = tiny_run(
            MsgsSettings { fmap_reuse: false, ..MsgsSettings::paper_default() },
            &PruneSettings::paper_defaults(),
        );
        assert!(unfused.energy.total_pj() > full.energy.total_pj());
        assert!(no_reuse.energy.total_pj() > full.energy.total_pj());
    }

    #[test]
    fn sram_inventory_scales_with_config() {
        let tiny = DefaAccelerator::sram_inventory(&MsdaConfig::tiny());
        let full = DefaAccelerator::sram_inventory(&MsdaConfig::full());
        assert!(full.total_bits() > tiny.total_bits());
        // Paper-scale inventory should be in the hundreds-of-KiB range.
        let kib = full.total_kib();
        assert!(kib > 100.0 && kib < 2048.0, "inventory {kib} KiB");
    }

    #[test]
    fn run_workload_from_returns_matching_features() {
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 5).unwrap();
        let accel = DefaAccelerator::paper_default();
        let run = accel
            .run_workload_from(&wl, wl.initial_fmap(), &PruneSettings::paper_defaults())
            .unwrap();
        let plain = accel.run_workload(&wl, &PruneSettings::paper_defaults()).unwrap();
        assert_eq!(format!("{:?}", run.report), format!("{plain:?}"));
        assert_eq!(run.final_features.shape().dims(), &[cfg.n_in(), cfg.d_model]);
        // A different initial pyramid changes the simulated activity.
        let gen = defa_model::RequestGenerator::new(
            vec![defa_model::RequestScenario::from_workload(wl.clone())],
            2,
        )
        .unwrap();
        let other = accel
            .run_workload_from(&wl, &gen.request(1).fmap, &PruneSettings::paper_defaults())
            .unwrap();
        assert_ne!(other.final_features, run.final_features);
    }

    #[test]
    fn fidelity_can_be_disabled() {
        let cfg = MsdaConfig::tiny();
        let wl = SyntheticWorkload::generate(Benchmark::Dino, &cfg, 9).unwrap();
        let accel = DefaAccelerator { measure_fidelity: false, ..DefaAccelerator::paper_default() };
        let r = accel.run_workload(&wl, &PruneSettings::paper_defaults()).unwrap();
        assert!(r.fidelity_error.is_none());
    }

    #[test]
    fn decoder_workload_runs_on_hardware() {
        use defa_model::decoder::{DecoderConfig, DecoderWorkload};
        let cfg = MsdaConfig::tiny();
        let enc = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 4).unwrap();
        let dec =
            DecoderWorkload::generate(Benchmark::DeformableDetr, &cfg, DecoderConfig::tiny(), 4)
                .unwrap();
        let accel = DefaAccelerator::paper_default();
        let report = accel
            .run_decoder_workload(&dec, enc.initial_fmap(), &PruneSettings::paper_defaults())
            .unwrap();
        assert!(report.counters.total_cycles() > 0);
        assert_eq!(report.counters.bank_conflicts, 0);
        assert!(report.reduction.point_reduction() > 0.3);
        // The decoder is much cheaper than the encoder: far fewer queries.
        let enc_report = accel.run_workload(&enc, &PruneSettings::paper_defaults()).unwrap();
        assert!(report.msgs.points < enc_report.msgs.points);
    }

    /// A decoder report on the small configuration's refined encoder
    /// memory: 50 object queries, `n_layers` layers, paper settings.
    fn decoder_report(n_layers: usize) -> RunReport {
        use defa_model::decoder::{DecoderConfig, DecoderWorkload};
        use defa_model::encoder::run_encoder_observed_from;
        let cfg = MsdaConfig::small();
        let bench = Benchmark::DeformableDetr;
        let enc = SyntheticWorkload::generate(bench, &cfg, 42).unwrap();
        let memory = run_encoder_observed_from(&enc, enc.initial_fmap(), |_, _| {}).unwrap();
        let memory = defa_model::FmapPyramid::from_tensor(&cfg, memory).unwrap();
        let shape = DecoderConfig { n_queries: 50, n_layers };
        let dec = DecoderWorkload::generate(bench, &cfg, shape, 42).unwrap();
        let accel = DefaAccelerator { measure_fidelity: false, ..DefaAccelerator::paper_default() };
        accel.run_decoder_workload(&dec, &memory, &PruneSettings::paper_defaults()).unwrap()
    }

    /// The first decoder block has no earlier block whose masks could
    /// change its queries: pinned in every counter, with no pixel
    /// accounted because block 0 never receives an FWP mask.
    #[test]
    fn decoder_first_block_is_pinned() {
        let r = decoder_report(1);
        let c = r.counters;
        let macs_and_bits = (c.mm_macs, c.ba_channel_ops, c.sram_read_bits, c.sram_write_bits);
        assert_eq!(macs_and_bits, (4_790_400, 12_680, 3_067_136, 1_778_100));
        let dram_and_cycles = (c.dram_read_bits, c.dram_write_bits, c.mm_cycles, c.msgs_cycles);
        assert_eq!(dram_and_cycles, (2_734_584, 821_760, 18_713, 1_070));
        assert_eq!((c.softmax_elems, c.softmax_cycles, c.dram_stall_cycles), (6_400, 400, 0));
        assert_eq!((c.bank_conflicts, c.conflict_stall_cycles), (0, 0));
        let m = r.msgs;
        assert_eq!((m.groups, m.points, m.cycles, m.conflicts), (1_070, 1_585, 1_070, 0));
        assert_eq!((m.fmap_fetch_bits, m.spill_bits), (783_360, 0));
        let red = r.reduction;
        assert_eq!((red.points_kept, red.flops_pruned), (1_585, 36_971_328));
        assert_eq!((red.pixels_total, red.pixels_kept), (0, 0));
        // The fused per-row mass sum; `retained_mass`'s element-order sum
        // over the same probabilities reads 0.971384262405048.
        assert_eq!(red.retained_mass_sum, 0.9713842624050483);
    }

    /// The decoder's hardware replay over two blocks, pinned. Block 1's
    /// queries come from block 0's PAP-masked output, and only block 1 has
    /// an FWP mask to account.
    #[test]
    fn decoder_report_is_pinned() {
        let r = decoder_report(2);
        let counters = EventCounters {
            mm_macs: 7_292_288,
            ba_channel_ops: 19_544,
            softmax_elems: 12_800,
            sram_read_bits: 4_729_376,
            sram_write_bits: 2_692_192,
            dram_read_bits: 4_234_224,
            dram_write_bits: 1_231_872,
            mm_cycles: 28_486,
            msgs_cycles: 1_811,
            softmax_cycles: 800,
            dram_stall_cycles: 0,
            bank_conflicts: 0,
            conflict_stall_cycles: 0,
        };
        assert_eq!(r.counters, counters);
        let msgs = MsgsStats {
            groups: 1_811,
            points: 2_443,
            cycles: 1_811,
            conflicts: 0,
            fmap_fetch_bits: 1_155_072,
            spill_bits: 0,
        };
        assert_eq!(r.msgs, msgs);
        let red = r.reduction;
        assert_eq!(
            (red.points_kept, red.pixels_total, red.pixels_kept, red.flops_pruned),
            (2_443, 1_020, 484, 64_331_304)
        );
        // The probability mass PAP kept, summed over the two blocks.
        assert_eq!(red.retained_mass_sum, 1.9572001187628716);
    }
}
