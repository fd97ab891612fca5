//! Ablation study (§5.2 text): per-technique accuracy cost and the
//! level-wise range-narrowing storage trade-off (§4.1).

use defa_bench::table::{pct, print_table};
use defa_bench::RunOptions;
use defa_model::detection::estimate_ap;
use defa_model::encoder::run_encoder_observed_from;
use defa_model::workload::{Benchmark, SyntheticWorkload};
use defa_prune::pipeline::{run_pruned_encoder, PruneSettings};
use defa_prune::{FwpConfig, PapConfig, RangeConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = RunOptions::from_env();
    let cfg = opts.config();
    println!("Ablation — per-technique accuracy cost (scale: {})", opts.scale_label());

    // (label, settings, paper-reported average AP drop)
    let variants: [(&str, PruneSettings, f32); 5] = [
        (
            "FWP only (k=1)",
            PruneSettings { fwp: Some(FwpConfig::paper_default()), ..PruneSettings::disabled() },
            0.80,
        ),
        (
            "PAP only (0.02)",
            PruneSettings { pap: Some(PapConfig::paper_default()), ..PruneSettings::disabled() },
            0.30,
        ),
        (
            "range narrowing only",
            PruneSettings { range_narrowing: true, ..PruneSettings::disabled() },
            0.26,
        ),
        ("INT12 only", PruneSettings { quant_bits: Some(12), ..PruneSettings::disabled() }, 0.07),
        (
            "INT8 only (rejected)",
            PruneSettings { quant_bits: Some(8), ..PruneSettings::disabled() },
            9.70,
        ),
    ];

    // The workload and exact encoder run depend only on the benchmark, so
    // evaluate them once per benchmark (in parallel); then fan the
    // (variant, benchmark) grid of *pruned* runs out and reduce back into
    // variant rows in order.
    let benches = Benchmark::all();
    let nb = benches.len();
    let exacts = defa_parallel::par_map_collect(nb, |b| {
        let wl = SyntheticWorkload::generate(benches[b], &cfg, opts.seed)?;
        let exact = run_encoder_observed_from(&wl, wl.initial_fmap(), |_, _| {})?;
        Ok::<_, Box<dyn std::error::Error + Send + Sync>>((wl, exact))
    })
    .into_iter()
    .collect::<Result<Vec<_>, Box<dyn std::error::Error + Send + Sync>>>()
    .map_err(|e| -> Box<dyn std::error::Error> { e })?;
    let cells = defa_parallel::par_map_collect(variants.len() * nb, |idx| {
        let (_, settings, _) = &variants[idx / nb];
        let (wl, exact) = &exacts[idx % nb];
        let pruned = run_pruned_encoder(wl, settings)?;
        let est = estimate_ap(benches[idx % nb], exact, &pruned.final_features)?;
        Ok::<(f64, f64), Box<dyn std::error::Error + Send + Sync>>((
            est.fidelity_error as f64,
            est.drop() as f64,
        ))
    });
    let mut rows = Vec::new();
    for (v, (label, _, paper_drop)) in variants.iter().enumerate() {
        let mut fid_sum = 0.0f64;
        let mut drop_sum = 0.0f64;
        for cell in &cells[v * nb..(v + 1) * nb] {
            let (fid, drop) = match cell {
                Ok(c) => *c,
                Err(e) => return Err(format!("{label}: {e}").into()),
            };
            fid_sum += fid;
            drop_sum += drop;
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.4}", fid_sum / nb as f64),
            format!("{:.2}", drop_sum / nb as f64),
            format!("{paper_drop:.2}"),
        ]);
    }
    print_table(
        "Average over the three benchmarks",
        &["technique", "fidelity err (ours)", "AP drop est (ours)", "AP drop (paper)"],
        &rows,
    );

    let ranges = RangeConfig::paper_defaults(&cfg);
    let overhead = ranges.unified_overhead(&cfg);
    print_table(
        "Level-wise vs unified bounded ranges (§4.1)",
        &["metric", "ours", "paper"],
        &[
            vec!["unified-range extra storage".into(), pct(overhead), pct(0.25)],
            vec![
                "level-wise storage (pixel slots)".into(),
                ranges.storage_pixels(&cfg).to_string(),
                "-".into(),
            ],
        ],
    );
    Ok(())
}
