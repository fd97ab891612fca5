//! The two replay workloads: payload-free `ReplayBackend` fleets, so all
//! host time is in the serving event loop and the compute core never
//! runs.
//!
//! * `replay_oneshot` — the one-shot engine at `serve_scale`'s operating
//!   point: diurnal trace at 0.8× modeled capacity, 2 shards, batches of
//!   up to 32, a 1024-deep queue, FIFO + round-robin + a static fleet.
//! * `replay_sessions` — the session engine: 3–6-iteration sessions with
//!   500 µs mean think time, continuous batching under a state budget of
//!   8 per shard, EDF + least-outstanding, Poisson arrivals at 0.02× the
//!   one-shot capacity (a load that drops nothing).
//!
//! Each serves three lanes, replaying the dense, pruned and accelerator
//! backends' calibrated cost tables at the same relative load.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use defa_model::workload::RequestGenerator;
use defa_model::MsdaConfig;
use defa_serve::loadgen::TraceSchedule;
use defa_serve::{
    ArrivalProcess, Backend, BackendKind, ControlConfig, ControllerKind, CostTable, ObsConfig,
    ReplayBackend, RouterKind, SchedulerKind, ServeConfig, ServeRuntime, ServeSpec, SessionConfig,
    SessionProfile,
};

use crate::engine::{self, Lane, Probe};
use crate::spans::{SpanId, Tracer};
use crate::stats::{median, ratio, Tally};
use crate::{BenchResult, Outcome};

const SHARDS: usize = 2;
const MAX_BATCH: usize = 32;
const QUEUE_CAPACITY: usize = 1024;
/// Long control epochs keep the report timeline short at trace scale.
const EPOCH_US: u64 = 100_000;
/// One simulated diurnal "day" per second of virtual time.
const DIURNAL_PERIOD_US: u64 = 1_000_000;
/// Offered load of `replay_oneshot`, as a share of modeled capacity.
const ONESHOT_LOAD: f64 = 0.8;
/// Requests per `replay_oneshot` serve.
const ONESHOT_REQUESTS: usize = 300_000;
/// Offered session load of `replay_sessions`, as a share of the one-shot
/// modeled capacity.
const SESSION_LOAD: f64 = 0.02;
/// Sessions per `replay_sessions` serve.
const SESSIONS: usize = 30_000;
const SESSION_PROFILE: SessionProfile =
    SessionProfile { min_len: 3, max_len: 6, think_mean_us: 500 };
const STATE_BUDGET: usize = 8;
/// Serving-pool workers (payload-free fleets never submit to the pool).
const POOL_THREADS: usize = 2;
/// Set-up repetitions the traced run splits into parts.
const SETUP_REPS: usize = 51;
/// Lane whose serve the traced run profiles: the accelerator replay,
/// `serve_scale`'s backend.
const HEADLINE: usize = 2;

struct Setup {
    rt: ServeRuntime,
    lanes: Vec<Lane>,
}

fn config(sessions: bool, capacity: f64) -> ServeConfig {
    if sessions {
        ServeConfig {
            queue_capacity: QUEUE_CAPACITY,
            max_batch: MAX_BATCH,
            shards: SHARDS,
            scheduler: SchedulerKind::Edf,
            router: RouterKind::LeastOutstanding,
            sessions: SessionConfig {
                profile: SESSION_PROFILE,
                state_budget: STATE_BUDGET,
                gang: false,
            },
            outcome_capture: 64,
            obs: ObsConfig::disabled(),
            ..ServeConfig::at_load(capacity * SESSION_LOAD, SESSIONS)
        }
    } else {
        ServeConfig {
            arrival: ArrivalProcess::Trace(TraceSchedule::diurnal(DIURNAL_PERIOD_US)),
            queue_capacity: QUEUE_CAPACITY,
            max_batch: MAX_BATCH,
            shards: SHARDS,
            control: ControlConfig {
                epoch_us: EPOCH_US,
                max_shards: 0,
                controller: ControllerKind::NoOp,
            },
            outcome_capture: 64,
            obs: ObsConfig::disabled(),
            ..ServeConfig::at_load(capacity * ONESHOT_LOAD, ONESHOT_REQUESTS)
        }
    }
}

/// Generator, backends, replay calibration, cost tables and the capacity
/// probe — everything a serve needs before it starts.
fn build(seed: u64, sessions: bool, tr: &mut Tracer, at: SpanId) -> BenchResult<Setup> {
    let gen = tr.scope("setup.generator", Some(at), None, || {
        RequestGenerator::standard(&MsdaConfig::tiny(), seed)
    })?;
    let rt = ServeRuntime::with_pool_threads(gen, POOL_THREADS);
    let mut lanes = Vec::with_capacity(3);
    for (name, kind) in crate::real::BACKENDS.into_iter().zip(BackendKind::all()) {
        let inner = tr.scope("setup.backend_build", Some(at), None, || kind.build());
        let replay = tr.scope("setup.calibrate", Some(at), None, || {
            ReplayBackend::calibrated(rt.generator(), inner)
        })?;
        let replay: Arc<dyn Backend> = Arc::new(replay);
        let overhead_us = ServeConfig::at_load(1.0, 1).batch_overhead_us;
        let capacity = tr.scope("setup.capacity_probe", Some(at), None, || {
            rt.modeled_capacity_rps(&replay, SHARDS, MAX_BATCH, overhead_us)
        })?;
        let cfg = config(sessions, capacity);
        let points = cfg.control.controller.pricing_points();
        tr.scope("setup.cost_table", Some(at), None, || {
            CostTable::build(replay.as_ref(), rt.generator(), &points)
        })?;
        lanes.push(Lane { name, spec: ServeSpec::homogeneous(&replay, &cfg) });
    }
    Ok(Setup { rt, lanes })
}

/// Runs `replay_oneshot` (`sessions = false`) or `replay_sessions`.
pub fn run(seed: u64, seconds: f64, sessions: bool, trace: bool) -> BenchResult<Outcome> {
    let mut tr = Tracer::new();
    let workload = if sessions { "replay_sessions" } else { "replay_oneshot" };
    let root = tr.begin(workload, None, None);
    let make = |tr: &mut Tracer, at: SpanId| build(seed, sessions, tr, at);
    // A traced run splits set-up time into its parts over many set-ups;
    // a timed run samples one set-up after every round instead.
    let reps = if trace { SETUP_REPS } else { 1 };
    let (Setup { rt, lanes }, setup_walls) = engine::setups(&mut tr, root, reps, &make)?;
    let mut tally = Tally::default();
    let metrics = if trace {
        let warm: Vec<_> =
            engine::warm_up(&rt, &lanes, &mut tally)?.into_iter().map(|(r, _)| r).collect();
        let m = traced(seed, seconds, &rt, &lanes, &warm, &mut tr, root, &mut tally)?;
        tr.end(root);
        engine::write_trace(workload, seed, &tr)?;
        m
    } else {
        let (baseline, rounds) =
            engine::timed_rounds(&rt, &lanes, seconds, &mut tally, setup_walls[0], || {
                Ok(engine::setups(&mut tr, root, 1, &make)?.1[0])
            })?;
        engine::end_to_end(&lanes, &baseline, &rounds)
    };
    Ok(Outcome { tally, metrics })
}

/// The traced per-layer pass.
#[allow(clippy::too_many_arguments)]
fn traced(
    seed: u64,
    seconds: f64,
    rt: &ServeRuntime,
    lanes: &[Lane],
    warm: &[defa_serve::ServeReport],
    tr: &mut Tracer,
    root: SpanId,
    tally: &mut Tally,
) -> BenchResult<BTreeMap<String, f64>> {
    let mut m = BTreeMap::new();
    engine::setup_metrics(tr, SETUP_REPS, &mut m);

    // Untraced and self-profiled serves of the headline lane, alternated.
    let head = &lanes[HEADLINE];
    let mut spec = head.spec.clone();
    spec.config.obs = ObsConfig::disabled().with_profile();
    let profiled = Lane { name: head.name, spec };
    let (mut plain, mut prof, mut reports) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.len() < 3 || start.elapsed().as_secs_f64() < seconds / 2.0 {
        let id = tr.begin("serve.untraced", Some(root), None);
        let served = engine::serve_checked(rt, head, Some(&warm[HEADLINE]), tally);
        tr.end(id);
        plain.extend(served.map(|(_, wall)| wall));
        let id = tr.begin("serve.profiled", Some(root), None);
        let served = engine::serve_checked(rt, &profiled, Some(&warm[HEADLINE]), tally);
        tr.end(id);
        if let Some((r, wall)) = served {
            prof.push(wall);
            reports.push(r);
        }
    }
    let refs: Vec<_> = reports.iter().collect();
    engine::profile_metrics(&refs, &mut m);
    engine::count_metrics(&[&warm[HEADLINE]], &mut m);
    let units = engine::work_units(&warm[HEADLINE]) as f64;
    m.insert("runtime.serve_ns_per_iter".into(), ratio(median(&plain) * 1e9, units));
    m.insert("trace.overhead_frac".into(), ratio(median(&prof) - median(&plain), median(&plain)));

    let probes = tr.begin("probes", Some(root), None);
    let probe = Probe { gen: rt.generator(), spec: &head.spec, seed };
    engine::engine_layers(&probe, tr, probes, &mut m)?;
    tr.end(probes);

    let sessions = head.spec.config.sessions.enabled();
    let iter_rows = [
        ("loadgen.ns_per_arrival", "iters_per_s"),
        ("model.request_scenario_ns", "iters_per_s"),
        ("admission.offer_ns", "iters_per_s"),
        ("scheduler.select_ns_per_req", "iters_per_s"),
        ("router.route_ns", "iters_per_s"),
        ("backend.replay_run_ns", "iters_per_s"),
        ("backend.decode_output_ns", "iters_per_s"),
        ("runtime.event_pop_ns_per_call", "iters_per_s"),
        ("runtime.arrival_pull_ns_per_call", "iters_per_s"),
        ("runtime.dispatch_ns_per_call", "iters_per_s"),
        ("runtime.settle_ns_per_call", "iters_per_s"),
        ("runtime.controller_step_ns_per_call", "iters_per_s"),
        ("runtime.arrival_pull_share", "iters_per_s"),
        ("runtime.dispatch_share", "iters_per_s"),
        ("runtime.settle_share", "iters_per_s"),
        ("runtime.serve_ns_per_iter", "iters_per_s (1e9 / this, single lane)"),
        ("trace.overhead_frac", "- (profiled / untraced serve wall - 1)"),
    ];
    engine::print_layer_table(
        &format!(
            "{} per-layer costs (host ns; {} lane, seed {seed}){}",
            if sessions { "replay_sessions" } else { "replay_oneshot" },
            head.name,
            if sessions {
                "; the session engine has no profile sections yet, so runtime.* reads 0"
            } else {
                ""
            }
        ),
        &iter_rows,
        &m,
    );
    engine::print_layer_table(
        "Exact counts and set-up parts (ratios give their base in the name)",
        &[
            ("runtime.batches", "-"),
            ("runtime.mean_batch", "- (requests / batches)"),
            ("admission.dropped", "- (modeled drops, not failures)"),
            ("admission.drop_frac", "- (dropped / arrivals)"),
            ("runtime.peak_inflight", "-"),
            ("runtime.epochs_stepped", "-"),
            ("runtime.epochs_skipped", "-"),
            ("sessions.iterations", "-"),
            ("sessions.evictions", "-"),
            ("sessions.recompute_frac", "- (evictions / iterations)"),
            ("setup.generator_s", "setup_s"),
            ("backend.calibrate_s", "setup_s"),
            ("cost.table_build_s", "setup_s"),
            ("setup.capacity_probe_s", "setup_s"),
        ],
        &m,
    );
    Ok(m)
}
