//! `serve` — throughput/latency sweep of the batched serving runtime.
//!
//! Sweeps offered load × batch size × backend over one seeded
//! multi-scenario request stream and prints a req/s + p50/p95/p99 table.
//! Offered load is calibrated per backend against its own modeled service
//! rate (probed deterministically on request 0), so every backend sees an
//! under-loaded (0.5×) and an over-loaded (2×) operating point.
//!
//! Under `--quick` every operating point is also served in-process on
//! worker pools of 1 and 3 threads, and each report must equal the
//! reported one (full `PartialEq`, digest included): the work-shared pool
//! changes wall time only.
//!
//! Flags (on top of the shared `--full` / `--seed`):
//!
//! * `--quick` — tiny config, single operating point per backend (the CI
//!   smoke mode);
//! * `--requests <n>` — requests per operating point;
//! * `--shards <n>` — worker shards;
//! * `--json` — machine-readable output on stdout instead of the table
//!   (virtual-time metrics only, so the document is byte-stable across
//!   hosts; `BENCH_serve.json` pins the `--quick` form in CI).

use defa_bench::json::{to_document, Json};
use defa_bench::table::print_table;
use defa_bench::RunOptions;
use defa_model::workload::RequestGenerator;
use defa_model::MsdaConfig;
use defa_serve::energy::fmt_joules;
use defa_serve::histogram::fmt_ns;
use defa_serve::{BackendKind, ServeConfig, ServeReport, ServeRuntime, ServeSpec};
use std::time::Instant;

struct Row {
    report: ServeReport,
    load_mult: f64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = RunOptions::parse(args.iter().cloned());
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let mut n_requests = if quick { 16 } else { 48 };
    let mut shards = 2usize;
    for w in args.windows(2) {
        match w[0].as_str() {
            "--requests" => n_requests = w[1].parse().unwrap_or(n_requests),
            "--shards" => shards = w[1].parse::<usize>().unwrap_or(shards).max(1),
            _ => {}
        }
    }

    let base = if quick { MsdaConfig::tiny() } else { opts.config() };
    let gen = RequestGenerator::standard(&base, opts.seed)?;
    if !json {
        println!(
            "Serving sweep (scale: {}; {} scenarios, {} requests/point, {} shards)",
            if quick { "tiny (--quick)" } else { opts.scale_label() },
            gen.scenarios().len(),
            n_requests,
            shards,
        );
        for s in gen.scenarios() {
            let cfg = s.workload.config();
            println!("  scenario: {:<14} ({} queries x {} dims)", s.name, cfg.n_in(), cfg.d_model);
        }
    }
    // Pool-size invariance, asserted in-process in the CI smoke form.
    let pool_checks: Vec<(usize, ServeRuntime)> = if quick {
        [1, 3].into_iter().map(|n| (n, ServeRuntime::with_pool_threads(gen.clone(), n))).collect()
    } else {
        Vec::new()
    };
    let runtime = ServeRuntime::new(gen);

    let batch_sizes: &[usize] = if quick { &[4] } else { &[1, 8] };
    let load_mults: &[f64] = if quick { &[2.0] } else { &[0.5, 2.0] };

    let wall = Instant::now();
    let mut rows: Vec<Row> = Vec::new();
    for kind in BackendKind::all() {
        let backend = kind.build();
        // Deterministic calibration probe: request 0's modeled cost.
        let probe = {
            let req = runtime.generator().request(0);
            let wl = runtime.generator().scenario(req.scenario)?;
            backend.run(wl, &req)?
        };
        let capacity_rps = 1e9 / probe.cost_ns as f64 * shards as f64;
        for &mult in load_mults {
            let offered = capacity_rps * mult;
            for &max_batch in batch_sizes {
                let cfg = ServeConfig {
                    offered_load: offered,
                    n_requests,
                    queue_capacity: (4 * max_batch).max(16),
                    max_batch,
                    shards,
                    ..ServeConfig::at_load(offered, n_requests)
                };
                let spec = ServeSpec::homogeneous(&backend, &cfg);
                let report = runtime.serve(&spec)?;
                for (threads, check) in &pool_checks {
                    assert_eq!(
                        report,
                        check.serve(&spec)?,
                        "{} ServeReport differs on a pool of {threads} workers",
                        kind.name()
                    );
                }
                rows.push(Row { report, load_mult: mult });
            }
        }
    }

    if json {
        let doc = Json::obj([
            ("bench", Json::str("serve")),
            ("scale", Json::str(if quick { "tiny" } else { opts.scale_label() })),
            ("seed", Json::uint(opts.seed as u128)),
            ("requests_per_point", Json::uint(n_requests as u128)),
            ("shards", Json::uint(shards as u128)),
            ("rows", Json::Arr(rows.iter().map(row_json).collect())),
        ]);
        print!("{}", to_document(&doc));
        return Ok(());
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.report.backend.clone(),
                format!("{:.1}x", r.load_mult),
                format!("{:.0}", r.report.config.offered_load),
                format!("{}", r.report.config.max_batch),
                format!("{:.1}", r.report.mean_batch_size()),
                format!("{}/{}", r.report.completed, r.report.dropped),
                format!("{:.0}", r.report.achieved_rps()),
                fmt_ns(r.report.total.p50_ns()),
                fmt_ns(r.report.total.p95_ns()),
                fmt_ns(r.report.total.p99_ns()),
                fmt_joules(r.report.joules_per_request()),
                format!("{:.0}", r.report.gops_per_watt()),
            ]
        })
        .collect();
    print_table(
        "Serving: offered load x batch size x backend (virtual time)",
        &[
            "backend",
            "load",
            "offered r/s",
            "batch<=",
            "mean batch",
            "done/drop",
            "req/s",
            "p50",
            "p95",
            "p99",
            "J/req",
            "GOPS/W",
        ],
        &table,
    );
    println!(
        "\nLatency/throughput columns use the deterministic virtual clock and the energy\n\
         columns the fixed-point per-request attribution (see defa_serve::energy);\n\
         the whole sweep took {:.1} s of wall clock on this host.",
        wall.elapsed().as_secs_f64()
    );
    Ok(())
}

/// One sweep row as a flat JSON object of virtual-time metrics only (no
/// wall clock, so the document is byte-stable).
fn row_json(r: &Row) -> Json {
    let rep = &r.report;
    Json::obj([
        ("backend", Json::str(rep.backend.clone())),
        ("load_mult", Json::num(r.load_mult)),
        ("offered_rps", Json::num(rep.config.offered_load)),
        ("max_batch", Json::uint(rep.config.max_batch as u128)),
        ("mean_batch", Json::num(rep.mean_batch_size())),
        ("completed", Json::uint(rep.completed as u128)),
        ("dropped", Json::uint(rep.dropped as u128)),
        ("slo_violations", Json::uint(rep.slo_violations as u128)),
        ("achieved_rps", Json::num(rep.achieved_rps())),
        ("p50_total_ns", Json::uint(rep.total.p50_ns() as u128)),
        ("p95_total_ns", Json::uint(rep.total.p95_ns() as u128)),
        ("p99_total_ns", Json::uint(rep.total.p99_ns() as u128)),
        ("makespan_ns", Json::uint(rep.makespan_ns as u128)),
        ("energy_total_pj", Json::uint(rep.energy.total_pj())),
        ("gops_per_watt", Json::num(rep.gops_per_watt())),
        ("digest", Json::str(format!("{:#018x}", rep.digest))),
    ])
}
