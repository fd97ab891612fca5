//! Full detector stack: encoder self-attention plus decoder
//! cross-attention, both on the DEFA hardware model — the workload the
//! paper's introduction motivates (Deformable DETR end-to-end), extending
//! the paper's encoder-only evaluation.
//!
//! ```sh
//! cargo run --release -p defa-core --example full_detector
//! ```

use defa_core::runner::DefaAccelerator;
use defa_model::decoder::{DecoderConfig, DecoderWorkload};
use defa_model::encoder::run_encoder_observed_from;
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_model::{FmapPyramid, MsdaConfig};
use defa_prune::pipeline::PruneSettings;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MsdaConfig::small();
    let bench = Benchmark::DeformableDetr;
    let accel = DefaAccelerator { measure_fidelity: false, ..DefaAccelerator::paper_default() };
    let prune = PruneSettings::paper_defaults();

    // Encoder: self-attention over the pyramid tokens.
    let enc = SyntheticWorkload::generate(bench, &cfg, 42)?;
    let enc_report = accel.run_workload(&enc, &prune)?;

    // Decoder: object queries cross-attending into the refined memory.
    let features = run_encoder_observed_from(&enc, enc.initial_fmap(), |_, _| {})?;
    let memory = FmapPyramid::from_tensor(&cfg, features)?;
    let dec = DecoderWorkload::generate(
        bench,
        &cfg,
        DecoderConfig { n_queries: 100, n_layers: cfg.n_layers },
        42,
    )?;
    let dec_report = accel.run_decoder_workload(&dec, &memory, &prune)?;

    println!(
        "Deformable-DETR-style detector on DEFA ({} tokens, 100 object queries)\n",
        cfg.n_in()
    );
    println!("--- encoder ({} blocks) ---", cfg.n_layers);
    println!("{enc_report}");
    println!("--- decoder ({} blocks) ---", dec.layers().len());
    println!("{dec_report}");

    let total_ms = (enc_report.seconds() + dec_report.seconds()) * 1e3;
    let total_mj = enc_report.energy_per_run_mj() + dec_report.energy_per_run_mj();
    println!("--- end to end ---");
    println!("  total MSDeformAttn time   : {total_ms:.3} ms");
    println!("  total MSDeformAttn energy : {total_mj:.3} mJ");
    println!(
        "  encoder share             : {:.0}% of cycles",
        enc_report.counters.total_cycles() as f64
            / (enc_report.counters.total_cycles() + dec_report.counters.total_cycles()) as f64
            * 100.0
    );
    println!("\nThe encoder dominates — which is why the paper (and our figure");
    println!("reproductions) focus the evaluation there (§5.1.1).");
    Ok(())
}
