//! Full encoder walk-through: exact vs pruned functional execution for all
//! three paper benchmarks, with per-block pruning detail.
//!
//! ```sh
//! cargo run --release -p defa-core --example detr_encoder [-- --full]
//! ```

use defa_model::detection::estimate_ap;
use defa_model::encoder::run_encoder_observed_from;
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::MsdaConfig;
use defa_prune::pipeline::{run_pruned_encoder, PruneSettings};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = std::env::args().any(|a| a == "--full");
    let cfg = if full { MsdaConfig::full() } else { MsdaConfig::small() };
    println!(
        "Encoder: {} levels, {} tokens, D={}, {} blocks\n",
        cfg.n_levels(),
        cfg.n_in(),
        cfg.d_model,
        cfg.n_layers
    );

    for bench in Benchmark::all() {
        let wl = SyntheticWorkload::generate(bench, &cfg, 42)?;
        let exact = run_encoder_observed_from(&wl, wl.initial_fmap(), |_, _| {})?;
        let pruned = run_pruned_encoder(&wl, &PruneSettings::paper_defaults())?;

        println!("{bench}:");
        for (k, info) in pruned.blocks.iter().enumerate() {
            println!(
                "  block {k}: points kept {:5.1}%  fmap kept {:5.1}%  prob mass kept {:4.1}%  clamped {}",
                info.point_mask.keep_fraction() * 100.0,
                info.fmap_mask.keep_fraction() * 100.0,
                info.retained_mass * 100.0,
                info.clamped_points,
            );
        }
        let est = estimate_ap(bench, &exact, &pruned.final_features)?;
        println!(
            "  fidelity error {:.4} -> AP proxy {:.1} (paper: {:.1}, baseline {:.1})\n",
            est.fidelity_error,
            est.estimated_ap,
            bench.defa_ap(),
            bench.baseline_ap()
        );
    }
    Ok(())
}
