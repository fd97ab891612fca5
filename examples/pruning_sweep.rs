//! Pruning design-space sweep: trade accuracy against sparsity by sweeping
//! the FWP threshold multiplier `k` and the PAP probability threshold.
//!
//! ```sh
//! cargo run --release -p defa-core --example pruning_sweep
//! ```

use defa_model::detection::estimate_ap;
use defa_model::encoder::run_encoder_observed_from;
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::MsdaConfig;
use defa_prune::pipeline::{run_pruned_encoder, PruneSettings};
use defa_prune::{FwpConfig, PapConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MsdaConfig::small();
    let bench = Benchmark::DeformableDetr;
    let wl = SyntheticWorkload::generate(bench, &cfg, 42)?;
    let exact = run_encoder_observed_from(&wl, wl.initial_fmap(), |_, _| {})?;

    println!("FWP sweep (PAP off, ranges off, FP32):");
    println!("{:>6} {:>14} {:>14} {:>12}", "k", "pixels pruned", "FLOPs pruned", "AP proxy");
    for k in [0.0f32, 0.2, 0.45, 0.7, 1.0, 1.5] {
        let settings = PruneSettings { fwp: Some(FwpConfig::new(k)?), ..PruneSettings::disabled() };
        let run = run_pruned_encoder(&wl, &settings)?;
        let est = estimate_ap(bench, &exact, &run.final_features)?;
        println!(
            "{k:>6.2} {:>13.1}% {:>13.1}% {:>12.2}",
            run.stats.pixel_reduction() * 100.0,
            run.stats.flop_reduction() * 100.0,
            est.estimated_ap
        );
    }

    println!("\nPAP sweep (FWP off, ranges off, FP32):");
    println!("{:>6} {:>14} {:>14} {:>12}", "thr", "points pruned", "prob mass kept", "AP proxy");
    for thr in [0.0f32, 0.005, 0.02, 0.05, 0.10] {
        let settings =
            PruneSettings { pap: Some(PapConfig::new(thr)?), ..PruneSettings::disabled() };
        let run = run_pruned_encoder(&wl, &settings)?;
        let est = estimate_ap(bench, &exact, &run.final_features)?;
        println!(
            "{thr:>6.3} {:>13.1}% {:>13.1}% {:>12.2}",
            run.stats.point_reduction() * 100.0,
            run.stats.mean_retained_mass() * 100.0,
            est.estimated_ap
        );
    }

    println!("\nThe paper's operating point (k=1, thr=0.02) sits where both curves");
    println!("still retain most probability mass while halving the attention FLOPs.");
    Ok(())
}
