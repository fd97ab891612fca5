//! Figure 7(b): energy savings of fine-grained operator fusion and fmap
//! reuse, as shares of MSGS memory-access energy.

use defa_arch::{EnergyModel, EventCounters};
use defa_bench::table::{pct, print_table};
use defa_bench::RunOptions;
use defa_core::{MsgsEngine, MsgsSettings};
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_prune::pipeline::{run_pruned_encoder_observed_from, PruneSettings};

/// Runs every block's MSGS through an engine configuration and returns the
/// memory-energy split `(dram_pj, sram_pj)`.
fn msgs_memory_energy(
    wl: &SyntheticWorkload,
    settings: MsgsSettings,
) -> Result<(f64, f64), Box<dyn std::error::Error>> {
    let engine = MsgsEngine::new(wl.config(), settings)?;
    let mut counters = EventCounters::new();
    let mut err = None;
    let settings = PruneSettings::paper_defaults();
    run_pruned_encoder_observed_from(wl, &settings, wl.initial_fmap(), |_, out, info| {
        if err.is_some() {
            return;
        }
        if let Err(e) = engine.run_block(
            &out.locations,
            info.point_mask.as_bools(),
            info.fmap_mask.keep_fraction(),
            &mut counters,
        ) {
            err = Some(e);
        }
    })?;
    if let Some(e) = err {
        return Err(Box::new(e));
    }
    let priced = EnergyModel::forty_nm().price(&counters);
    Ok((priced.dram_pj, priced.sram_pj))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = RunOptions::from_env();
    let cfg = opts.config();
    println!(
        "Figure 7(b) — energy savings of op fusion and fmap reuse (scale: {})",
        opts.scale_label()
    );

    let wl = SyntheticWorkload::generate(Benchmark::DeformableDetr, &cfg, opts.seed)?;
    let all_on = MsgsSettings::paper_default();
    let (dram_on, sram_on) = msgs_memory_energy(&wl, all_on)?;

    let mut rows = Vec::new();
    for (label, settings, paper_dram, paper_sram) in [
        ("Op Fusion", MsgsSettings { fused: false, ..all_on }, 0.733, 0.159),
        ("Fmap Reuse", MsgsSettings { fmap_reuse: false, ..all_on }, 0.882, 0.227),
    ] {
        let (dram_off, sram_off) = msgs_memory_energy(&wl, settings)?;
        let total_off = dram_off + sram_off;
        let dram_saving = (dram_off - dram_on) / total_off;
        let sram_saving = (sram_off - sram_on) / total_off;
        rows.push(vec![
            label.to_string(),
            pct(dram_saving),
            pct(paper_dram),
            pct(sram_saving),
            pct(paper_sram),
        ]);
    }
    print_table(
        "Savings as share of MSGS memory energy (feature off -> on, De DETR)",
        &["feature", "DRAM saving (ours)", "DRAM (paper)", "SRAM saving (ours)", "SRAM (paper)"],
        &rows,
    );
    println!(
        "\nBaseline (all features on): DRAM {:.1} µJ, SRAM {:.1} µJ per encoder.",
        dram_on / 1e6,
        sram_on / 1e6
    );
    Ok(())
}
