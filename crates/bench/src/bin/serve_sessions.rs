//! `serve_sessions` — sessions as the unit of serving: the continuous-
//! batching sweep.
//!
//! Two tables over multi-iteration sessions:
//!
//! 1. **Session length × state budget** (FIFO, round-robin, Poisson) on
//!    an accelerator pair: how streaming latency (TTFT/TBT) and the
//!    eviction/recompute traffic respond as sessions get longer and the
//!    per-shard state budget (the KV-cache analogue) tightens.
//! 2. **Gang vs continuous × scheduler** under a constrained budget: the
//!    redesign's headline. Gang scheduling holds a session's batch slot
//!    and state through every think time; iteration-level continuous
//!    batching releases both between iterations. The bin *asserts* that
//!    continuous batching beats gang on TTFT p99 for every scheduler —
//!    CI runs the `--quick` mode, so the claim is gated, not narrated.
//!
//! Everything runs on the virtual clock (byte-identical across hosts and
//! thread counts for a fixed seed).
//!
//! Flags (on top of the shared `--full` / `--seed`):
//!
//! * `--quick` — tiny config, fewer requests (the CI smoke mode);
//! * `--requests <n>` — requests per operating point;
//! * `--json` — machine-readable output on stdout instead of the tables.

use defa_bench::json::{to_document, Json};
use defa_bench::table::print_table;
use defa_bench::RunOptions;
use defa_model::workload::RequestGenerator;
use defa_model::MsdaConfig;
use defa_serve::histogram::fmt_ns;
use defa_serve::{
    Backend, BackendKind, SchedulerKind, ServeConfig, ServeReport, ServeRuntime, ServeSpec,
    SessionConfig, SessionProfile,
};
use std::sync::Arc;
use std::time::Instant;

/// The session shapes the length sweep walks, shortest first.
const PROFILES: [(&str, SessionProfile); 3] = [
    ("short 2-3", SessionProfile { min_len: 2, max_len: 3, think_mean_us: 200 }),
    ("chat 3-6", SessionProfile { min_len: 3, max_len: 6, think_mean_us: 500 }),
    ("long 6-10", SessionProfile { min_len: 6, max_len: 10, think_mean_us: 1_000 }),
];

/// Per-shard state budgets the sweep tightens through (0 = unbounded).
const BUDGETS: [usize; 3] = [0, 8, 3];

/// Offered prefill load: `mult` × the fleet's modeled one-shot capacity
/// (decode steps add load on top — the sweep is meant to be busy).
fn calibrated_load(rt: &ServeRuntime, fleet: &[Arc<dyn Backend>], mult: f64) -> f64 {
    let gen = rt.generator();
    let mut per_shard_rps = 0.0;
    for b in fleet {
        let mean_cost: f64 = (0..gen.scenarios().len())
            .map(|s| b.estimate_cost_ns(gen.scenario(s).expect("scenario exists")) as f64)
            .sum::<f64>()
            / gen.scenarios().len() as f64;
        per_shard_rps += 1e9 / mean_cost;
    }
    per_shard_rps * mult
}

struct Row {
    profile: String,
    budget: usize,
    scheduler: String,
    mode: &'static str,
    report: ServeReport,
}

fn row_json(r: &Row) -> Json {
    let rep = &r.report;
    Json::obj([
        ("profile", Json::str(r.profile.clone())),
        ("state_budget", Json::uint(r.budget as u128)),
        ("scheduler", Json::str(r.scheduler.clone())),
        ("mode", Json::str(r.mode)),
        ("completed", Json::uint(rep.completed as u128)),
        ("dropped", Json::uint(rep.dropped as u128)),
        ("iterations", Json::uint(rep.iterations as u128)),
        ("evictions", Json::uint(rep.evictions as u128)),
        ("ttft_p50_ns", Json::uint(rep.ttft.p50_ns() as u128)),
        ("ttft_p99_ns", Json::uint(rep.ttft.p99_ns() as u128)),
        ("tbt_p99_ns", Json::uint(rep.tbt.p99_ns() as u128)),
        ("ttft_violations", Json::uint(rep.ttft_violations as u128)),
        ("tbt_violations", Json::uint(rep.tbt_violations as u128)),
        ("makespan_ns", Json::uint(rep.makespan_ns as u128)),
        ("energy_total_pj", Json::uint(rep.energy.total_pj())),
        ("digest", Json::str(format!("{:#018x}", rep.digest))),
    ])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = RunOptions::parse(args.iter().cloned());
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let mut n_requests = if quick { 32 } else { 96 };
    for w in args.windows(2) {
        if w[0].as_str() == "--requests" {
            n_requests = w[1].parse().unwrap_or(n_requests);
        }
    }

    let base = if quick { MsdaConfig::tiny() } else { opts.config() };
    let gen = RequestGenerator::standard(&base, opts.seed)?;
    if !json {
        println!(
            "Session serving (scale: {}; {} scenarios, {} sessions/point, 2 shards)",
            if quick { "tiny (--quick)" } else { opts.scale_label() },
            gen.scenarios().len(),
            n_requests,
        );
    }
    let rt = ServeRuntime::new(gen);
    let wall = Instant::now();
    let fleet = BackendKind::build_fleet(&[BackendKind::Accelerator; 2]);
    let offered = calibrated_load(&rt, &fleet, 0.8);
    let serve = |sessions: SessionConfig, scheduler: SchedulerKind| {
        let cfg = ServeConfig {
            queue_capacity: 64,
            max_batch: 4,
            shards: 2,
            scheduler,
            sessions,
            ..ServeConfig::at_load(offered, n_requests)
        };
        rt.serve(&ServeSpec::fleet(fleet.clone(), &cfg))
    };

    // Table 1: session length × state budget, continuous batching, FIFO.
    // Quick keeps the middle profile so CI still walks every budget.
    let profiles: &[(&str, SessionProfile)] = if quick { &PROFILES[1..2] } else { &PROFILES };
    let mut length_rows: Vec<Row> = Vec::new();
    for &(name, profile) in profiles {
        for budget in BUDGETS {
            let report = serve(
                SessionConfig { profile, state_budget: budget, gang: false },
                SchedulerKind::Fifo,
            )?;
            length_rows.push(Row {
                profile: name.into(),
                budget,
                scheduler: SchedulerKind::Fifo.name().into(),
                mode: "continuous",
                report,
            });
        }
    }

    // Table 2: gang vs continuous per scheduler, chatty sessions under a
    // tight budget — the operating point where slot- and state-hoarding
    // hurts most.
    let contested = SessionConfig { profile: PROFILES[1].1, state_budget: 4, gang: false };
    let mut mode_rows: Vec<Row> = Vec::new();
    for scheduler in SchedulerKind::all() {
        for gang in [false, true] {
            let report = serve(SessionConfig { gang, ..contested }, scheduler)?;
            mode_rows.push(Row {
                profile: PROFILES[1].0.into(),
                budget: contested.state_budget,
                scheduler: scheduler.name().into(),
                mode: if gang { "gang" } else { "continuous" },
                report,
            });
        }
    }

    // The gated headline: continuous batching must beat gang scheduling
    // on TTFT p99 for every scheduler at the contested operating point.
    for pair in mode_rows.chunks(2) {
        let (cont, gang) = (&pair[0], &pair[1]);
        assert!(
            cont.report.ttft.p99_ns() < gang.report.ttft.p99_ns(),
            "continuous batching must cut TTFT p99 vs gang under {} ({} vs {})",
            cont.scheduler,
            cont.report.ttft.p99_ns(),
            gang.report.ttft.p99_ns()
        );
    }

    if json {
        let doc = Json::obj([
            ("bench", Json::str("serve_sessions")),
            ("scale", Json::str(if quick { "tiny" } else { opts.scale_label() })),
            ("seed", Json::uint(opts.seed as u128)),
            ("requests_per_point", Json::uint(n_requests as u128)),
            ("length_sweep", Json::Arr(length_rows.iter().map(row_json).collect())),
            ("gang_sweep", Json::Arr(mode_rows.iter().map(row_json).collect())),
        ]);
        print!("{}", to_document(&doc));
        return Ok(());
    }

    let fmt_row = |r: &Row| {
        let rep = &r.report;
        vec![
            r.profile.clone(),
            if r.budget == 0 { "∞".into() } else { r.budget.to_string() },
            format!("{}/{}", rep.completed, rep.dropped),
            format!("{}", rep.iterations),
            format!("{}", rep.evictions),
            fmt_ns(rep.ttft.p50_ns()),
            fmt_ns(rep.ttft.p99_ns()),
            fmt_ns(rep.tbt.p99_ns()),
            format!("{}", rep.ttft_violations + rep.tbt_violations),
        ]
    };
    print_table(
        "Session length x state budget (continuous, FIFO, accel x2, 0.8x load)",
        &[
            "profile",
            "budget",
            "done/drop",
            "iters",
            "evict",
            "TTFT p50",
            "TTFT p99",
            "TBT p99",
            "stream miss",
        ],
        &length_rows.iter().map(fmt_row).collect::<Vec<_>>(),
    );

    let fmt_mode = |r: &Row| {
        let rep = &r.report;
        vec![
            r.scheduler.clone(),
            r.mode.into(),
            format!("{}/{}", rep.completed, rep.dropped),
            format!("{}", rep.evictions),
            fmt_ns(rep.ttft.p99_ns()),
            fmt_ns(rep.tbt.p99_ns()),
            fmt_ns(rep.total.p99_ns()),
            format!("{}", rep.slo_violations),
        ]
    };
    print_table(
        "Gang vs continuous x scheduler (chat 3-6 sessions, budget 4)",
        &[
            "scheduler",
            "mode",
            "done/drop",
            "evict",
            "TTFT p99",
            "TBT p99",
            "total p99",
            "SLO miss",
        ],
        &mode_rows.iter().map(fmt_mode).collect::<Vec<_>>(),
    );

    let (c99, g99) = (mode_rows[0].report.ttft.p99_ns(), mode_rows[1].report.ttft.p99_ns());
    println!(
        "\nHeadline (gated above): continuous batching serves first tokens at p99 {} vs \
         gang's {} under the constrained budget ({:.1}x faster).",
        fmt_ns(c99),
        fmt_ns(g99),
        g99 as f64 / c99 as f64
    );
    println!(
        "All columns use the deterministic virtual clock; the sweep took {:.1} s of wall \
         clock on this host.",
        wall.elapsed().as_secs_f64()
    );
    Ok(())
}
