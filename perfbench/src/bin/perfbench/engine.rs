//! The serving harness shared by every workload: timed serve rounds with
//! their output checks, the isolated engine-layer probes, and the
//! runtime's own profile and count metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use defa_model::workload::{RequestGenerator, SyntheticWorkload};
use defa_serve::{
    AdmissionQueue, ProfSection, QueuedRequest, ServeReport, ServeRuntime, ServeSpec, ShardView,
};

use crate::spans::{chrome_trace, self_times, totals_by_name, SpanId, Tracer};
use crate::stats::{median, peak_rss_mb, percentile, quartiles, ratio, Tally};
use crate::BenchResult;

/// Timed rounds always run at least this often, however short
/// `--seconds` is, so every median has a spread to speak of.
const MIN_ROUNDS: usize = 3;

/// One backend's serving run inside a workload.
pub struct Lane {
    /// `dense`, `pruned` or `accel` — the prefix of its metrics.
    pub name: &'static str,
    pub spec: ServeSpec,
}

/// Units of work a run retired: iterations settled plus arrivals shed.
pub fn work_units(r: &ServeReport) -> u64 {
    r.iterations + r.dropped
}

/// Serves one lane, timing the call. Checks conservation (completed +
/// dropped = arrivals) and, given the lane's warm-up report, that this
/// repeat equals it — back-to-back serves of one spec in one process are
/// deterministic. A backend error or a failed check counts every request
/// of the run as failed and yields `None`.
pub fn serve_checked(
    rt: &ServeRuntime,
    lane: &Lane,
    warm_up: Option<&ServeReport>,
    tally: &mut Tally,
) -> Option<(ServeReport, f64)> {
    let n = lane.spec.config.n_requests as u64;
    let t0 = Instant::now();
    let served = rt.serve(&lane.spec);
    let wall = t0.elapsed().as_secs_f64();
    let r = match served {
        Ok(r) => r,
        Err(e) => {
            tally.check(false, n, &format!("{} serve failed: {e}", lane.name));
            return None;
        }
    };
    let mut why = Vec::new();
    if r.completed + r.dropped != n {
        why.push(format!("{} + {} != {n} arrivals", r.completed, r.dropped));
    }
    if warm_up.is_some_and(|w| !same_schedule(&r, w)) {
        why.push("repeat serve differs from the warm-up report".to_string());
    }
    tally.check(why.is_empty(), n, &format!("{}: {}", lane.name, why.join("; ")));
    why.is_empty().then_some((r, wall))
}

/// Whether two reports describe the same virtual schedule: full report
/// equality once the observability settings are aligned (switching the
/// wall-clock profiler on must not change anything else).
pub fn same_schedule(a: &ServeReport, b: &ServeReport) -> bool {
    if a.config.obs == b.config.obs {
        return a == b;
    }
    let mut a = a.clone();
    a.config.obs = b.config.obs.clone();
    a.obs.config = b.obs.config.clone();
    a == *b
}

/// Runs `build` `reps` times (at least once), each inside a `setup` span
/// under `root`; returns the last set-up and the wall seconds of each.
pub fn setups<S>(
    tr: &mut Tracer,
    root: SpanId,
    reps: usize,
    build: &impl Fn(&mut Tracer, SpanId) -> BenchResult<S>,
) -> BenchResult<(S, Vec<f64>)> {
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let id = tr.begin("setup", Some(root), None);
        let built = build(tr, id)?;
        tr.end(id);
        walls.push(tr.duration_ns(id) as f64 / 1e9);
        last = Some(built);
    }
    Ok((last.ok_or("no set-up ran")?, walls))
}

/// Serves every lane once, untimed (the traced run's baseline); the
/// reports are what later repeats must equal. A lane that fails here
/// leaves nothing to measure.
pub fn warm_up(
    rt: &ServeRuntime,
    lanes: &[Lane],
    tally: &mut Tally,
) -> BenchResult<Vec<(ServeReport, f64)>> {
    let mut out = Vec::with_capacity(lanes.len());
    for lane in lanes {
        let served = serve_checked(rt, lane, None, tally)
            .ok_or_else(|| format!("warm-up serve of {} failed", lane.name))?;
        print_exact(lane.name, &served.0);
        out.push(served);
    }
    Ok(out)
}

/// Prints a report's exact fields — the numbers that must not move when
/// only speed changes.
pub fn print_exact(lane: &str, r: &ServeReport) {
    println!(
        "exact {lane:<6} backend={} completed={} dropped={} iterations={} evictions={} \
         batches={} energy_total_pj={} digest={:#018x}",
        r.backend,
        r.completed,
        r.dropped,
        r.iterations,
        r.evictions,
        r.batches,
        r.energy.total_pj(),
        r.digest
    );
}

/// Host wall of every timed serve, and the set-ups run between rounds.
pub struct Rounds {
    /// Seconds of each lane's serve, per round. Every serve of a lane
    /// equals its first report, so the work per serve is the same.
    pub walls: Vec<Vec<f64>>,
    /// Wall seconds of every set-up: the one before the first round, then
    /// one after each round, so set-up is sampled across the whole run.
    pub setup_s: Vec<f64>,
}

/// Serves every lane in turn, round after round, for at least `seconds`
/// and [`MIN_ROUNDS`] rounds; `setup` runs (and times) one more set-up
/// after every round. The first round's reports are the baseline every
/// later serve of the same lane must equal (it is timed too: the
/// best-serve rule of [`end_to_end`] discards a cold first round by
/// itself). A lane whose first serve fails leaves nothing to measure.
pub fn timed_rounds(
    rt: &ServeRuntime,
    lanes: &[Lane],
    seconds: f64,
    tally: &mut Tally,
    first_setup_s: f64,
    mut setup: impl FnMut() -> BenchResult<f64>,
) -> BenchResult<(Vec<ServeReport>, Rounds)> {
    let mut baseline: Vec<ServeReport> = Vec::with_capacity(lanes.len());
    let mut out = Rounds { walls: vec![Vec::new(); lanes.len()], setup_s: vec![first_setup_s] };
    let start = Instant::now();
    while out.setup_s.len() <= MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        for (i, lane) in lanes.iter().enumerate() {
            let Some((r, wall)) = serve_checked(rt, lane, baseline.get(i), tally) else {
                if baseline.len() <= i {
                    return Err(format!("first serve of {} failed", lane.name).into());
                }
                continue;
            };
            out.walls[i].push(wall);
            if baseline.len() <= i {
                print_exact(lane.name, &r);
                baseline.push(r);
            }
        }
        out.setup_s.push(setup()?);
    }
    Ok((baseline, out))
}

/// End-to-end metrics shared by every workload.
///
/// Throughput comes from each lane's fastest serve: contention from other
/// tenants of a shared host only ever slows a serve down, so the fastest
/// of many short interleaved serves tracks the code while the median
/// tracks the neighbours (the same best-of rule `serve_scale` applies to
/// its two runs). `iters_per_s` is all lanes' work over the sum of their
/// fastest walls; `setup_s` is the median set-up. The within-run samples
/// behind each number are printed with their spread.
pub fn end_to_end(
    lanes: &[Lane],
    baseline: &[ServeReport],
    rounds: &Rounds,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let setup = median(&rounds.setup_s);
    print_samples("setup_s", "median", setup, &rounds.setup_s);
    m.insert("setup_s".into(), setup);
    let (mut work, mut best_walls) = (0u64, 0f64);
    for ((lane, r), walls) in lanes.iter().zip(baseline).zip(&rounds.walls) {
        let rates: Vec<f64> = walls.iter().map(|w| r.completed as f64 / w).collect();
        let best = percentile(&rates, 100.0);
        let name = format!("{}_req_per_s", lane.name);
        print_samples(&name, "best", best, &rates);
        m.insert(name, best);
        work += work_units(r);
        best_walls += percentile(walls, 0.0);
    }
    let iters = ratio(work as f64, best_walls);
    println!(
        "e2e {:<16} {:<6} {iters:>16.6} (all lanes' work / their best walls)",
        "iters_per_s", "best"
    );
    m.insert("iters_per_s".into(), iters);
    m.insert("peak_rss_mb".into(), peak_rss_mb());
    m
}

fn print_samples(name: &str, rule: &str, value: f64, v: &[f64]) {
    let mid = median(v);
    let (q1, q3) = quartiles(v).unwrap_or((mid, mid));
    println!(
        "e2e {name:<16} {rule:<6} {value:>16.6} of {:>4} samples (median {mid:.6}, IQR {:.1}% \
         of median)",
        v.len(),
        ratio(q3 - q1, mid) * 100.0,
    );
}

/// Runtime self-profile (sections of the one-shot event loop) summed
/// over `reports`: ns per call and share of profiled time per section.
pub fn profile_metrics(reports: &[&ServeReport], m: &mut BTreeMap<String, f64>) {
    let total: u64 = reports.iter().map(|r| r.obs.profile.total_wall_ns()).sum();
    for section in ProfSection::ALL {
        let (calls, wall) = reports.iter().fold((0u64, 0u64), |(c, w), r| {
            let s = r.obs.profile.stat(section);
            (c + s.calls, w + s.wall_ns)
        });
        let name = section.name();
        m.insert(format!("runtime.{name}_ns_per_call"), ratio(wall as f64, calls as f64));
        m.insert(format!("runtime.{name}_share"), ratio(wall as f64, total as f64));
    }
}

/// Exact counts summed over `reports`, with their ratios.
pub fn count_metrics(reports: &[&ServeReport], m: &mut BTreeMap<String, f64>) {
    let sum = |f: fn(&ServeReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let batches = sum(|r| r.batches);
    let dropped = sum(|r| r.dropped);
    let arrivals = sum(|r| r.completed + r.dropped);
    let iterations = sum(|r| r.iterations);
    let evictions = sum(|r| r.evictions);
    m.insert("runtime.batches".into(), batches);
    m.insert("runtime.mean_batch".into(), ratio(sum(|r| r.batched_requests), batches));
    m.insert("admission.dropped".into(), dropped);
    m.insert("admission.drop_frac".into(), ratio(dropped, arrivals));
    let peak = reports.iter().map(|r| r.live.peak_inflight).max().unwrap_or(0);
    m.insert("runtime.peak_inflight".into(), peak as f64);
    m.insert("runtime.epochs_stepped".into(), sum(|r| r.live.epochs_stepped));
    m.insert("runtime.epochs_skipped".into(), sum(|r| r.live.epochs_skipped));
    m.insert("sessions.iterations".into(), iterations);
    m.insert("sessions.evictions".into(), evictions);
    m.insert("sessions.recompute_frac".into(), ratio(evictions, iterations));
}

/// Set-up parts in seconds per set-up, from the self time of the
/// `setup.*` spans over `reps` set-ups.
pub fn setup_metrics(tr: &Tracer, reps: usize, m: &mut BTreeMap<String, f64>) {
    let spans = tr.spans();
    let by = totals_by_name(spans, &self_times(spans), 0..spans.len());
    for (span, metric) in [
        ("setup.generator", "setup.generator_s"),
        ("setup.calibrate", "backend.calibrate_s"),
        ("setup.cost_table", "cost.table_build_s"),
        ("setup.capacity_probe", "setup.capacity_probe_s"),
    ] {
        let ns = by.get(span).map_or(0, |&(_, ns)| ns);
        m.insert(metric.into(), ns as f64 / 1e9 / reps as f64);
    }
}

/// Writes the run's spans as a Chrome trace under `perfbench/out/`.
pub fn write_trace(workload: &str, seed: u64, tr: &Tracer) -> BenchResult<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
    std::fs::write(&path, chrome_trace(tr.spans()))?;
    println!("\ntrace: {} spans written to {}", tr.spans().len(), path.display());
    Ok(())
}

/// Calls per probe repetition of the isolated engine-layer loops.
const PROBE_CALLS: u64 = 200_000;
/// Repetitions per probe; the median repetition is reported.
const PROBE_REPS: usize = 5;

/// What the isolated engine-layer probes exercise: the workload's own
/// arrival process, admission queue, scheduler and router, its
/// payload-free backend if the fleet has one, and that backend's decode
/// step if the spec serves sessions.
pub struct Probe<'a> {
    pub gen: &'a RequestGenerator,
    pub spec: &'a ServeSpec,
    pub seed: u64,
}

/// Times `calls` invocations of `f` inside a span; returns ns per call.
fn timed(
    tracer: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    calls: u64,
    f: impl FnOnce(),
) -> f64 {
    let id = tracer.begin(name, Some(parent), None);
    f();
    tracer.end(id);
    ratio(tracer.duration_ns(id) as f64, calls as f64)
}

/// Median over [`PROBE_REPS`] of `rep`, each returning ns per call.
fn probe(mut rep: impl FnMut() -> BenchResult<f64>) -> BenchResult<f64> {
    let mut v = Vec::with_capacity(PROBE_REPS);
    for _ in 0..PROBE_REPS {
        v.push(rep()?);
    }
    Ok(median(&v))
}

/// Times each engine layer's public entry point in isolation.
pub fn engine_layers(
    p: &Probe<'_>,
    tracer: &mut Tracer,
    parent: SpanId,
    m: &mut BTreeMap<String, f64>,
) -> BenchResult<()> {
    let cfg = &p.spec.config;
    let n = PROBE_CALLS;

    let ns = probe(|| {
        let mut stream = cfg.arrival.stream(cfg.offered_load, p.seed);
        Ok(timed(tracer, "probe.loadgen", parent, n, || {
            for _ in 0..n {
                black_box(stream.next());
            }
        }))
    })?;
    m.insert("loadgen.ns_per_arrival".into(), ns);

    let ns = probe(|| {
        Ok(timed(tracer, "probe.request_scenario", parent, n, || {
            for id in 0..n {
                black_box(p.gen.request_scenario(black_box(id)));
            }
        }))
    })?;
    m.insert("model.request_scenario_ns".into(), ns);

    // Admission and scheduling: offer a queue's worth of arrivals, then
    // let the workload's scheduler drain it batch by batch.
    let est: Vec<u64> =
        p.gen.scenarios().iter().map(|s| p.spec.fleet[0].estimate_cost_ns(&s.workload)).collect();
    let arrivals: Vec<u64> =
        cfg.arrival.stream(cfg.offered_load, p.seed).take(n as usize).collect();
    let reqs: Vec<QueuedRequest> = arrivals
        .iter()
        .enumerate()
        .map(|(i, &arrival_ns)| {
            let id = i as u64;
            let scenario = p.gen.request_scenario(id);
            let slo = p.gen.request_slo(id);
            QueuedRequest {
                id,
                arrival_ns,
                scenario,
                slo,
                est_cost_ns: est[scenario],
                deadline_ns: arrival_ns + slo.deadline_ns(),
            }
        })
        .collect();
    let scheduler = cfg.scheduler.build();
    let (mut offer_ns, mut select_ns) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        let mut q = AdmissionQueue::new(cfg.queue_capacity, cfg.drop);
        let mut batch = Vec::with_capacity(cfg.max_batch);
        let (mut offered, mut selected) = (0u64, 0u64);
        let (mut t_offer, mut t_select) = (0u64, 0u64);
        let rep = tracer.begin("probe.admission_scheduler", Some(parent), None);
        for chunk in reqs.chunks(cfg.queue_capacity.max(1)) {
            let t0 = Instant::now();
            for r in chunk {
                black_box(q.offer(*r));
            }
            t_offer += t0.elapsed().as_nanos() as u64;
            offered += chunk.len() as u64;
            let now = chunk.last().map_or(0, |r| r.arrival_ns);
            let t0 = Instant::now();
            while !q.is_empty() {
                batch.clear();
                scheduler.select_into(&mut q, cfg.max_batch, now, &mut batch);
                selected += batch.len() as u64;
            }
            t_select += t0.elapsed().as_nanos() as u64;
        }
        tracer.end(rep);
        offer_ns.push(ratio(t_offer as f64, offered as f64));
        select_ns.push(ratio(t_select as f64, selected as f64));
    }
    m.insert("admission.offer_ns".into(), median(&offer_ns));
    m.insert("scheduler.select_ns_per_req".into(), median(&select_ns));

    // Routing over the lane's fleet, with shard clocks that move.
    let router = cfg.router.build();
    let mut views: Vec<ShardView> = p
        .spec
        .fleet
        .iter()
        .enumerate()
        .map(|(shard, b)| {
            let mean_est = ratio(est.iter().sum::<u64>() as f64, est.len() as f64) as u64;
            let wl = &p.gen.scenarios()[0].workload;
            ShardView {
                shard,
                free_ns: 0,
                est_batch_ns: cfg.batch_overhead_us * 1_000 + cfg.max_batch as u64 * mean_est,
                est_energy_pj: b.estimate_energy_pj(wl),
                est_prefill_ns: b.estimate_prefill_ns(wl),
                est_decode_ns: b.estimate_decode_ns(wl),
            }
        })
        .collect();
    let ns = probe(|| {
        Ok(timed(tracer, "probe.router", parent, n, || {
            let k = views.len();
            for b in 0..n {
                views[(b as usize) % k].free_ns += 1_000 + (b * 7_919) % 5_000;
                black_box(router.route(b, b * 1_000, black_box(&views)));
            }
        }))
    })?;
    m.insert("router.route_ns".into(), ns);

    let replay = &p.spec.fleet[0];
    if replay.payload_free() {
        let wls: Vec<&SyntheticWorkload> = p.gen.scenarios().iter().map(|s| &s.workload).collect();
        let scen: Vec<usize> = (0..n).map(|id| p.gen.request_scenario(id)).collect();
        let ns = probe(|| {
            let mut err = None;
            let ns = timed(tracer, "probe.replay_run", parent, n, || {
                for (id, &s) in scen.iter().enumerate() {
                    match replay.run_modeled(s, wls[s], id as u64) {
                        Ok(out) => {
                            black_box(out);
                        }
                        Err(e) => err = Some(e),
                    }
                }
            });
            err.map_or(Ok(ns), |e| Err(e.into()))
        })?;
        m.insert("backend.replay_run_ns".into(), ns);
        if cfg.sessions.enabled() {
            let prefill = replay.run_modeled(scen[0], wls[scen[0]], 0)?;
            let ns = probe(|| {
                Ok(timed(tracer, "probe.decode_output", parent, n, || {
                    for iter in 1..=n {
                        black_box(replay.decode_output(black_box(&prefill), iter));
                    }
                }))
            })?;
            m.insert("backend.decode_output_ns".into(), ns);
        }
    }
    Ok(())
}

/// Prints `(metric, value, unit)` rows with the end-to-end metric each
/// one should move.
pub fn print_layer_table(title: &str, rows: &[(&str, &str)], m: &BTreeMap<String, f64>) {
    println!("\n{title}");
    println!("  {:<38} {:>16}  moves", "layer metric", "value");
    for &(name, moves) in rows {
        let v = m.get(name).copied().unwrap_or(0.0);
        let v = if v != 0.0 && v.abs() < 1.0 { format!("{v:.6}") } else { format!("{v:.3}") };
        println!("  {name:<38} {v:>16}  {moves}");
    }
}
