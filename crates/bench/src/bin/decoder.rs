//! Decoder cross-attention extension: pruning statistics for the
//! DETR-family decoders (beyond the paper's encoder-only evaluation).

use defa_bench::table::{pct, print_table};
use defa_bench::RunOptions;
use defa_model::decoder::{DecoderConfig, DecoderWorkload};
use defa_model::workload::Benchmark;
use defa_prune::pap::{point_mask, retained_mass, PapConfig};
use defa_tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = RunOptions::from_env();
    let cfg = opts.config();
    println!("Decoder extension — cross-attention pruning (scale: {})", opts.scale_label());

    let mut rows = Vec::new();
    for bench in Benchmark::all() {
        let dec_cfg = if opts.full {
            DecoderConfig::for_benchmark(bench)
        } else {
            DecoderConfig { n_queries: 60, n_layers: 2 }
        };
        let dec = DecoderWorkload::generate(bench, &cfg, dec_cfg, opts.seed)?;

        let mut probs = Tensor::zeros([0]);
        dec.layers()[0].attention_probs_into(dec.initial_queries(), &mut probs)?;
        let mask = point_mask(&probs, PapConfig::paper_default())?;
        let mass = retained_mass(&probs, &mask)?;
        rows.push(vec![
            bench.name().to_string(),
            dec_cfg.n_queries.to_string(),
            pct(mask.drop_fraction()),
            pct(mass),
        ]);
    }
    print_table(
        "PAP on decoder cross-attention (first layer)",
        &["benchmark", "object queries", "points pruned", "prob mass kept"],
        &rows,
    );
    println!("\nThe paper evaluates encoders only (§5.1.1); this reproduces the same");
    println!("probability skew on the decoder side, where PAP applies unchanged.");
    Ok(())
}
