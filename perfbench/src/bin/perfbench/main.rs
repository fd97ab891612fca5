//! `perfbench` — the repository benchmark.
//!
//! One command runs one named workload and prints, as the last line of
//! standard output, a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay_oneshot --seed 42 --seconds 10 --trace 0
//! ```
//!
//! * `--workload` — `replay_oneshot`, `replay_sessions` or `real_small`
//!   (see `perfbench/README.md` for why each exists);
//! * `--seed` — the workload seed (default 42); the same seed gives the
//!   same inputs;
//! * `--seconds` — how long the timed serve rounds run (default 10);
//! * `--trace 0` prints the end-to-end metrics, measured untraced;
//!   `--trace 1` runs the traced per-layer pass instead, prints the
//!   per-layer tables and metrics, and writes the spans as a Chrome trace
//!   under `perfbench/out/`.
//!
//! Everything runs in this one process with the compute helpers pinned
//! to one thread and a two-worker serving pool, so the load never has
//! more runnable threads than a two-core host.

mod engine;
mod real;
mod replay;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::error::Error;
use std::process::ExitCode;

use stats::Tally;

/// Result of one error-prone step of the benchmark.
pub type BenchResult<T> = Result<T, Box<dyn Error>>;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["replay_oneshot", "replay_sessions", "real_small"];

/// End-to-end metrics `(name, unit)`, printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("iters_per_s", "1/s"),
    ("dense_req_per_s", "1/s"),
    ("pruned_req_per_s", "1/s"),
    ("accel_req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every `--trace 1` run. A
/// layer that is not on a workload's path reads 0 there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("loadgen.ns_per_arrival", "ns"),
        ("model.request_scenario_ns", "ns"),
        ("admission.offer_ns", "ns"),
        ("scheduler.select_ns_per_req", "ns"),
        ("router.route_ns", "ns"),
        ("backend.replay_run_ns", "ns"),
        ("backend.decode_output_ns", "ns"),
        ("runtime.event_pop_ns_per_call", "ns"),
        ("runtime.arrival_pull_ns_per_call", "ns"),
        ("runtime.dispatch_ns_per_call", "ns"),
        ("runtime.settle_ns_per_call", "ns"),
        ("runtime.controller_step_ns_per_call", "ns"),
        ("runtime.event_pop_share", "frac"),
        ("runtime.arrival_pull_share", "frac"),
        ("runtime.dispatch_share", "frac"),
        ("runtime.settle_share", "frac"),
        ("runtime.controller_step_share", "frac"),
        ("runtime.serve_ns_per_iter", "ns"),
        ("runtime.batches", "count"),
        ("runtime.mean_batch", "count"),
        ("admission.dropped", "count"),
        ("admission.drop_frac", "frac"),
        ("runtime.peak_inflight", "count"),
        ("runtime.epochs_stepped", "count"),
        ("runtime.epochs_skipped", "count"),
        ("sessions.iterations", "count"),
        ("sessions.evictions", "count"),
        ("sessions.recompute_frac", "frac"),
        ("setup.generator_s", "s"),
        ("backend.calibrate_s", "s"),
        ("cost.table_build_s", "s"),
        ("setup.capacity_probe_s", "s"),
        ("trace.overhead_frac", "frac"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for backend in real::BACKENDS {
        for stage in real::STAGES {
            out.push((format!("{backend}.{stage}_ns"), "ns"));
        }
        out.push((format!("{backend}.staged_ns_per_req"), "ns"));
        out.push((format!("{backend}.msgs_agg_share"), "frac"));
        out.push((format!("{backend}.model.msgs_agg_ns_per_kept_point"), "ns"));
        out.push((format!("{backend}.tensor.value_proj_ns_per_kept_row"), "ns"));
        out.push((format!("backend.{backend}.run_ms_p50"), "ms"));
        out.push((format!("backend.{backend}.run_ms_p90"), "ms"));
    }
    for (n, u) in [("prune.point_keep", "frac"), ("prune.pixel_keep", "frac")] {
        out.push((n.to_string(), u));
    }
    for part in real::SIM_PARTS {
        out.push((format!("core.cycles.{part}"), "cycles"));
    }
    out.push(("core.sim_msgs_share".to_string(), "frac"));
    out.push(("core.host_ns_per_sim_cycle".to_string(), "ns/cycle"));
    for part in real::FLOP_PARTS {
        out.push((format!("model.flops.{part}"), "flops"));
        out.push((format!("model.flops_pruned.{part}"), "flops"));
    }
    out
}

/// What one workload run hands back for the result line.
pub struct Outcome {
    pub tally: Tally,
    /// Metric values by name; every name must be in the mode's list.
    pub metrics: BTreeMap<String, f64>,
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 42, seconds: 10.0, trace: false };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad("expected a positive duration"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn run(args: &Args) -> BenchResult<Outcome> {
    match args.workload.as_str() {
        "replay_oneshot" => replay::run(args.seed, args.seconds, false, args.trace),
        "replay_sessions" => replay::run(args.seed, args.seconds, true, args.trace),
        _ => real::run(args.seed, args.seconds, args.trace),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The compute helpers run single-threaded (the RAYON_NUM_THREADS=1
    // equivalent); the serving pool adds its two workers.
    let outcome = match defa_parallel::with_num_threads(1, || run(&args)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    if let Some(stray) = outcome.metrics.keys().find(|k| !names.iter().any(|(n, _)| n == *k)) {
        eprintln!("perfbench: metric {stray} is not declared for this mode");
        return ExitCode::FAILURE;
    }
    let metrics: Vec<(&str, f64, &str)> = names
        .iter()
        .map(|(n, u)| (n.as_str(), outcome.metrics.get(n).copied().unwrap_or(0.0), *u))
        .collect();
    println!("{}", stats::result_line(outcome.tally, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn seed_defaults_to_42_and_flags_parse() {
        let a = args(&["--workload", "real_small"]).unwrap();
        assert_eq!(
            a,
            Args { workload: "real_small".into(), seed: 42, seconds: 10.0, trace: false }
        );
        let b = args(&[
            "--workload",
            "replay_oneshot",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((b.seed, b.seconds, b.trace), (7, 3.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "real_small", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "real_small", "--seconds", "0"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn declared_metrics_are_valid_unique_and_within_limits() {
        let layer = per_layer();
        assert!(layer.len() <= 128, "{} per-layer metrics", layer.len());
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).chain(layer) {
            assert!(stats::valid_name(&name), "{name}");
            assert!(stats::valid_unit(unit), "{unit}");
            assert!(seen.insert(name.clone()), "{name} declared twice");
        }
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let spec = include_str!("../../../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).chain(per_layer()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{w}\"")), "BENCHMARK.json lacks {w}");
        }
        let declared = spec.matches("\"unit\": ").count();
        assert_eq!(
            declared,
            END_TO_END.len() + per_layer().len(),
            "stray metrics in BENCHMARK.json"
        );
    }
}
