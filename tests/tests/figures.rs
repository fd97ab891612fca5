//! Integration checks that the paper's headline figure claims hold in the
//! simulator (reduced scale; the bench binaries print the full tables).

use defa_arch::{BankMapping, EnergyModel, EventCounters};
use defa_baseline::gpu::GpuSpec;
use defa_core::runner::DefaAccelerator;
use defa_core::{MsgsEngine, MsgsSettings};
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::MsdaConfig;
use defa_prune::pipeline::{run_pruned_encoder, run_pruned_encoder_observed_from, PruneSettings};

/// Fig. 1(b): MSGS + aggregation dominate GPU latency.
#[test]
fn fig1b_msgs_dominates_gpu_latency() {
    let lat = GpuSpec::rtx_3090ti().msda_latency(&MsdaConfig::full());
    assert!(lat.msgs_fraction() > 0.55 && lat.msgs_fraction() < 0.75);
}

/// Fig. 6(b): paper-band reductions at the default operating point.
#[test]
fn fig6b_reduction_bands() {
    let cfg = MsdaConfig::small();
    let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 42).unwrap();
    let run = run_pruned_encoder(&wl, &PruneSettings::paper_defaults()).unwrap();
    assert!(run.stats.point_reduction() > 0.75, "{}", run.stats.point_reduction());
    // k=1 is calibrated to ~43% at paper scale; the reduced config's
    // sharper skew prunes more.
    assert!(
        run.stats.pixel_reduction() > 0.3 && run.stats.pixel_reduction() < 0.8,
        "{}",
        run.stats.pixel_reduction()
    );
    assert!(run.stats.flop_reduction() > 0.4, "{}", run.stats.flop_reduction());
}

/// Fig. 7(a): inter-level parallelism beats intra-level by roughly 3x.
#[test]
fn fig7a_throughput_boost_band() {
    let cfg = MsdaConfig::small();
    let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 42).unwrap();
    let out = wl.layer(0).unwrap().forward(wl.initial_fmap(), Some(wl.warp())).unwrap();
    let keep = vec![true; out.locations.len()];
    let inter = MsgsEngine::new(&cfg, MsgsSettings::paper_default()).unwrap();
    let intra = MsgsEngine::new(
        &cfg,
        MsgsSettings { mapping: BankMapping::IntraLevel, ..MsgsSettings::paper_default() },
    )
    .unwrap();
    let mut ci = EventCounters::new();
    let si = inter.run_block(&out.locations, &keep, 1.0, &mut ci).unwrap();
    let mut ca = EventCounters::new();
    let sa = intra.run_block(&out.locations, &keep, 1.0, &mut ca).unwrap();
    let boost = sa.cycles as f64 / si.cycles as f64;
    assert!(boost > 2.0 && boost < 5.0, "boost {boost} (paper: 3.02-3.09)");
    assert_eq!(si.conflicts, 0);
    assert!(sa.conflicts > 0);
}

/// Fig. 7(b): fusion and reuse each save a large share of MSGS memory
/// energy, DRAM-dominated.
#[test]
fn fig7b_memory_savings() {
    let cfg = MsdaConfig::small();
    let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 42).unwrap();
    let energy = EnergyModel::forty_nm();

    let run_msgs = |settings: MsgsSettings| {
        let engine = MsgsEngine::new(&cfg, settings).unwrap();
        let mut counters = EventCounters::new();
        let settings = PruneSettings::paper_defaults();
        run_pruned_encoder_observed_from(&wl, &settings, wl.initial_fmap(), |_, out, info| {
            engine
                .run_block(
                    &out.locations,
                    info.point_mask.as_bools(),
                    info.fmap_mask.keep_fraction(),
                    &mut counters,
                )
                .unwrap();
        })
        .unwrap();
        energy.price(&counters)
    };

    let on = run_msgs(MsgsSettings::paper_default());
    let no_fusion = run_msgs(MsgsSettings { fused: false, ..MsgsSettings::paper_default() });
    let no_reuse = run_msgs(MsgsSettings { fmap_reuse: false, ..MsgsSettings::paper_default() });

    let fusion_dram = (no_fusion.dram_pj - on.dram_pj) / no_fusion.memory_pj();
    let reuse_dram = (no_reuse.dram_pj - on.dram_pj) / no_reuse.memory_pj();
    assert!(fusion_dram > 0.4, "fusion DRAM saving {fusion_dram} (paper 0.733)");
    assert!(reuse_dram > 0.6, "reuse DRAM saving {reuse_dram} (paper 0.882)");
    let fusion_sram = (no_fusion.sram_pj - on.sram_pj) / no_fusion.memory_pj();
    let reuse_sram = (no_reuse.sram_pj - on.sram_pj) / no_reuse.memory_pj();
    assert!(fusion_sram > 0.0, "fusion SRAM saving {fusion_sram}");
    assert!(reuse_sram > 0.0, "reuse SRAM saving {reuse_sram}");
}

/// Fig. 8: SRAM dominates area; DRAM dominates energy.
#[test]
fn fig8_breakdown_shapes() {
    let accel = DefaAccelerator::paper_default();
    let area = accel.area.price(&DefaAccelerator::sram_inventory(&MsdaConfig::full()), &accel.pe);
    let (sram_share, pe_share, _) = area.shares();
    assert!(sram_share > 0.6, "sram area share {sram_share} (paper 0.72)");
    assert!(pe_share < 0.35);

    let cfg = MsdaConfig::small();
    let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 42).unwrap();
    let report = accel.run_workload(&wl, &PruneSettings::paper_defaults()).unwrap();
    let (dram, _, _) = report.energy.shares();
    assert!(dram > 0.5, "DRAM energy share {dram} (paper 0.93)");
}

/// Fig. 9 / Table 1: DEFA beats GPUs on speed and everything on
/// efficiency.
#[test]
fn fig9_and_table1_defa_wins() {
    let cfg = MsdaConfig::small();
    let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, 42).unwrap();
    let accel = DefaAccelerator { measure_fidelity: false, ..DefaAccelerator::paper_default() };
    let report = accel.run_workload(&wl, &PruneSettings::paper_defaults()).unwrap();

    // GPU model evaluated on the same shapes, against DEFA scaled to the
    // matched peak throughput (§5.4).
    for (gpu, tops) in [(GpuSpec::rtx_2080ti(), 13.3), (GpuSpec::rtx_3090ti(), 40.0)] {
        let gpu_s = gpu.msda_latency(&cfg).total_s();
        let defa_s = defa_bench::scaling::scaled_seconds(&report, tops);
        let speedup = gpu_s / defa_s;
        assert!(speedup > 5.0, "{}: speedup {speedup} (paper: 10.1-31.9x)", gpu.name);
    }

    // Table 1: our efficiency beats every published attention ASIC.
    let ours = report.gops_per_watt();
    for asic in defa_baseline::ASICS {
        assert!(
            ours > asic.energy_efficiency(),
            "{} ({} GOPS/W) >= ours ({ours:.0})",
            asic.name,
            asic.energy_efficiency()
        );
    }
}
