//! `real_small`: the real dense, pruned and accelerator backends serving
//! materialized small-scale requests, and the traced stage-by-stage
//! replay of the same requests through the compute core's public
//! functions.
//!
//! Each backend serves the same `RequestGenerator::standard(small)`
//! stream on 2 shards of a 2-worker pool with a queue that holds every
//! request, so every request executes and nearly all wall time is in
//! the backends.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::{AddAssign, Range};
use std::sync::Arc;
use std::time::Instant;

use defa_arch::{EventCounters, CLOCK_HZ};
use defa_core::dataflow::{simulate_block, BlockPruning};
use defa_core::runner::DefaAccelerator;
use defa_core::{MsgsEngine, StageCycles};
use defa_model::encoder::{block_update, run_encoder_from};
use defa_model::flops::BlockFlops;
use defa_model::reference::generate_locations;
use defa_model::workload::RequestGenerator;
use defa_model::{FmapPyramid, MsdaConfig, MsdaLayer, MsdaWeights};
use defa_prune::fwp::SampleFrequency;
use defa_prune::pap::{point_mask, retained_mass};
use defa_prune::pipeline::{run_pruned_encoder_from, PruneSettings};
use defa_prune::range::clamp_locations;
use defa_prune::{BitMask, PruneError, RangeConfig};
use defa_serve::backend::tensor_digest;
use defa_serve::{
    Backend, BackendKind, CostTable, ObsConfig, RequestOutcome, ServeConfig, ServeReport,
    ServeRuntime, ServeSpec,
};
use defa_tensor::matmul::{matmul, matmul_row_masked};
use defa_tensor::{QuantParams, Tensor, TensorError};

use crate::engine::{self, Lane, Probe};
use crate::spans::{self_times, totals_by_name, SpanId, Tracer};
use crate::stats::{median, percentile, ratio, supported_percentile, Tally};
use crate::{BenchResult, Outcome};

/// Backends in serving order; the prefix of their metric names.
pub const BACKENDS: [&str; 3] = ["dense", "pruned", "accel"];
const DENSE: usize = 0;
const ACCEL: usize = 2;

/// Compute stages in pipeline order — span names, and with `_ns` the
/// per-backend metric names. A backend reads 0 for a stage it skips.
pub const STAGES: [&str; 15] = [
    "model.materialize",
    "prune.quant_weights",
    "prune.quant_features",
    "model.attn_softmax",
    "prune.pap",
    "tensor.offset_proj",
    "model.locations",
    "prune.clamp",
    "tensor.value_proj",
    "model.msgs_agg",
    "prune.fwp",
    "core.simulate_block",
    "model.block_update",
    "core.msgs_engine_new",
    "serve.digest",
];
/// Simulated stages of `StageCycles`.
pub const SIM_PARTS: [&str; 6] =
    ["attn_proj", "softmax", "offset_proj", "value_proj", "msgs", "dram_stall"];
/// Operator groups of `BlockFlops` (MSGS and aggregation together).
pub const FLOP_PARTS: [&str; 5] = ["attn_proj", "softmax", "offset_proj", "value_proj", "msgs_agg"];

const SHARDS: usize = 2;
const MAX_BATCH: usize = 8;
const POOL_THREADS: usize = 2;
/// Offered load as a multiple of modeled capacity; the queue holds every
/// request, so this only shapes batching, never drops.
const LOAD_MULT: f64 = 2.0;
/// Requests per serve in the timed rounds.
const REQUESTS: usize = 144;
/// Requests per backend in the traced run: enough direct `Backend::run`
/// samples for a p90 with ten samples beyond it.
const TRACE_REQUESTS: usize = 100;
/// Set-up repetitions the traced run splits into parts.
const SETUP_REPS: usize = 5;
/// INT-N width of the pruned pipeline at paper defaults.
const QUANT_BITS: u8 = 12;

struct Setup {
    rt: ServeRuntime,
    lanes: Vec<Lane>,
}

fn build(seed: u64, n: usize, tr: &mut Tracer, at: SpanId) -> BenchResult<Setup> {
    let gen = tr.scope("setup.generator", Some(at), None, || {
        RequestGenerator::standard(&MsdaConfig::small(), seed)
    })?;
    let rt = ServeRuntime::with_pool_threads(gen, POOL_THREADS);
    let mut lanes = Vec::with_capacity(3);
    for (name, kind) in BACKENDS.into_iter().zip(BackendKind::all()) {
        let backend: Arc<dyn Backend> =
            tr.scope("setup.backend_build", Some(at), None, || kind.build());
        let base = ServeConfig::at_load(1.0, n);
        let points = base.control.controller.pricing_points();
        tr.scope("setup.cost_table", Some(at), None, || {
            CostTable::build(backend.as_ref(), rt.generator(), &points)
        })?;
        let capacity = tr.scope("setup.capacity_probe", Some(at), None, || {
            rt.modeled_capacity_rps(&backend, SHARDS, MAX_BATCH, base.batch_overhead_us)
        })?;
        let cfg = ServeConfig {
            queue_capacity: n,
            max_batch: MAX_BATCH,
            shards: SHARDS,
            outcome_capture: n,
            ..ServeConfig::at_load(capacity * LOAD_MULT, n)
        };
        lanes.push(Lane { name, spec: ServeSpec::homogeneous(&backend, &cfg) });
    }
    Ok(Setup { rt, lanes })
}

/// Response digest the library's own entry point computes for request
/// `id` on backend `b`, with the accelerator's simulated stage cycles.
fn library_digest(b: usize, gen: &RequestGenerator, id: u64) -> BenchResult<(u64, StageCycles)> {
    let req = gen.request(id);
    let wl = gen.scenario(req.scenario)?;
    let settings = PruneSettings::paper_defaults();
    Ok(match b {
        DENSE => (
            tensor_digest(&run_encoder_from(wl, &req.fmap)?.final_features),
            StageCycles::default(),
        ),
        ACCEL => {
            let accel =
                DefaAccelerator { measure_fidelity: false, ..DefaAccelerator::paper_default() };
            let run = accel.run_workload_from(wl, &req.fmap, &settings)?;
            (tensor_digest(&run.final_features), run.report.stages)
        }
        _ => {
            let run = run_pruned_encoder_from(wl, &settings, &req.fmap)?;
            (tensor_digest(&run.final_features), StageCycles::default())
        }
    })
}

/// `(id, digest)` of every completed request in a report's outcome
/// capture.
fn served_digests(r: &ServeReport) -> Vec<(u64, u64)> {
    r.outcomes
        .iter()
        .enumerate()
        .filter_map(|(id, o)| match o {
            RequestOutcome::Completed { digest, .. } => Some((id as u64, *digest)),
            RequestOutcome::Dropped { .. } => None,
        })
        .collect()
}

/// Checks every served response against a direct library call; returns
/// the library digests and stage cycles by request id.
fn check_library(
    gen: &RequestGenerator,
    b: usize,
    warm: &ServeReport,
    tally: &mut Tally,
) -> BenchResult<Vec<(u64, StageCycles)>> {
    let n = warm.config.n_requests as u64;
    let served = served_digests(warm);
    // Two threads, one per core of the host the benchmark is sized for:
    // the calls are independent and deterministic.
    let half = served.len().div_ceil(2).max(1);
    let lib = std::thread::scope(|s| {
        let workers: Vec<_> = served
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(id, _)| library_digest(b, gen, id).map_err(|e| e.to_string()))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| Err("library check thread panicked".into())))
            .collect::<Result<Vec<_>, String>>()
    })?
    .concat();
    let mut bad = n - served.len() as u64; // uncaptured or dropped
    for (&(_, digest), &(d, _)) in served.iter().zip(&lib) {
        bad += u64::from(d != digest);
    }
    tally.record(n, bad, &format!("{} served digests vs the library entry point", BACKENDS[b]));
    Ok(lib)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> BenchResult<Outcome> {
    let mut tr = Tracer::new();
    let root = tr.begin("real_small", None, None);
    let n = if trace { TRACE_REQUESTS } else { REQUESTS };
    let make = |tr: &mut Tracer, at: SpanId| build(seed, n, tr, at);
    let reps = if trace { SETUP_REPS } else { 1 };
    let (Setup { rt, mut lanes }, setup_walls) = engine::setups(&mut tr, root, reps, &make)?;
    let mut tally = Tally::default();
    let metrics = if trace {
        for lane in &mut lanes {
            lane.spec.config.obs = ObsConfig::disabled().with_profile();
        }
        let warm = engine::warm_up(&rt, &lanes, &mut tally)?;
        let mut library = Vec::with_capacity(lanes.len());
        for (b, (r, _)) in warm.iter().enumerate() {
            library.push(check_library(rt.generator(), b, r, &mut tally)?);
        }
        let m = traced(seed, &rt, &lanes, &warm, &library, &mut tr, root, &mut tally)?;
        tr.end(root);
        engine::write_trace("real_small", seed, &tr)?;
        m
    } else {
        let (baseline, rounds) =
            engine::timed_rounds(&rt, &lanes, seconds, &mut tally, setup_walls[0], || {
                Ok(engine::setups(&mut tr, root, 1, &make)?.1[0])
            })?;
        // After the clock stops: every served response against the library.
        for (b, r) in baseline.iter().enumerate() {
            check_library(rt.generator(), b, r, &mut tally)?;
        }
        engine::end_to_end(&lanes, &baseline, &rounds)
    };
    Ok(Outcome { tally, metrics })
}

/// What one staged replay of one request produced and counted.
#[derive(Debug, Default, Clone, Copy)]
struct Staged {
    digest: u64,
    points: u64,
    kept_points: u64,
    rows: u64,
    kept_rows: u64,
    stages: StageCycles,
    cycles: u64,
    flops: [u64; 5],
    flops_pruned: [u64; 5],
}

impl AddAssign for Staged {
    fn add_assign(&mut self, o: Staged) {
        self.points += o.points;
        self.kept_points += o.kept_points;
        self.rows += o.rows;
        self.kept_rows += o.kept_rows;
        self.stages += o.stages;
        self.cycles += o.cycles;
        self.flops = add5(self.flops, o.flops);
        self.flops_pruned = add5(self.flops_pruned, o.flops_pruned);
    }
}

fn flop_parts(f: &BlockFlops) -> [u64; 5] {
    [f.attn_proj, f.softmax, f.offset_proj, f.value_proj, f.msgs + f.aggregation]
}

fn fake_quantize(t: &Tensor) -> Result<Tensor, TensorError> {
    Ok(QuantParams::fit(t, QUANT_BITS)?.fake_quantize(t))
}

/// The pruned pipeline's per-call weight quantization, layer by layer.
fn quantize_layers(layers: &[MsdaLayer]) -> BenchResult<Vec<MsdaLayer>> {
    let mut out = Vec::with_capacity(layers.len());
    for layer in layers {
        let w = layer.weights();
        let weights = MsdaWeights {
            w_attn: fake_quantize(&w.w_attn)?,
            w_offset: fake_quantize(&w.w_offset)?,
            w_value: fake_quantize(&w.w_value)?,
        };
        out.push(MsdaLayer::new(layer.config().clone(), weights)?);
    }
    Ok(out)
}

/// Replays request `id` on backend `b` stage by stage through the public
/// functions the backend's library entry point calls, in the same order
/// and with the same arguments, one span per stage.
fn staged(
    b: usize,
    gen: &RequestGenerator,
    id: u64,
    tr: &mut Tracer,
    at: SpanId,
) -> BenchResult<Staged> {
    let s = Some(at);
    let r = Some(id);
    let req = tr.scope("model.materialize", s, r, || gen.request(id));
    let wl = gen.scenario(req.scenario)?;
    let cfg = wl.config();
    let (n, ppq) = (cfg.n_in(), cfg.points_per_query());
    let flops = BlockFlops::for_config(cfg);
    let mut out = Staged::default();

    if b == DENSE {
        let mut x = req.fmap.clone();
        for layer in wl.layers() {
            let (_, probs) = tr.scope("model.attn_softmax", s, r, || layer.attention_probs(&x))?;
            let offsets = tr.scope("tensor.offset_proj", s, r, || {
                matmul(x.tensor(), &layer.weights().w_offset)
            })?;
            let locations = tr.scope("model.locations", s, r, || {
                generate_locations(cfg, layer.references(), &offsets, Some(wl.warp()))
            })?;
            let value = tr.scope("tensor.value_proj", s, r, || {
                matmul(x.tensor(), &layer.weights().w_value)
            })?;
            let output = tr.scope("model.msgs_agg", s, r, || {
                layer.sample_and_aggregate(&probs, &locations, &value, None)
            })?;
            x = tr.scope("model.block_update", s, r, || {
                FmapPyramid::from_tensor(cfg, block_update(x.tensor(), &output)?)
            })?;
            out.points += (n * ppq) as u64;
            out.kept_points += (n * ppq) as u64;
            out.rows += n as u64;
            out.kept_rows += n as u64;
            out.flops = add5(out.flops, flop_parts(&flops));
            out.flops_pruned = add5(out.flops_pruned, flop_parts(&flops));
        }
        out.digest = tr.scope("serve.digest", s, r, || tensor_digest(x.tensor()));
        return Ok(out);
    }

    let settings = PruneSettings::paper_defaults();
    let pap = settings.pap.ok_or("paper defaults enable PAP")?;
    let fwp = settings.fwp.ok_or("paper defaults enable FWP")?;
    let ranges = RangeConfig::paper_defaults(cfg);
    let accel = DefaAccelerator { measure_fidelity: false, ..DefaAccelerator::paper_default() };
    let engine = if b == ACCEL {
        Some(tr.scope("core.msgs_engine_new", s, r, || MsgsEngine::new(cfg, accel.msgs))?)
    } else {
        None
    };
    let mut counters = EventCounters::new();
    let layers = tr.scope("prune.quant_weights", s, r, || quantize_layers(wl.layers()))?;
    let mut x = tr.scope("prune.quant_features", s, r, || -> BenchResult<FmapPyramid> {
        Ok(FmapPyramid::from_tensor(cfg, fake_quantize(req.fmap.tensor())?)?)
    })?;
    let mut next_fmap_mask = BitMask::keep_all(n);
    for layer in &layers {
        let (_, probs) = tr.scope("model.attn_softmax", s, r, || layer.attention_probs(&x))?;
        let pmask = tr.scope("prune.pap", s, r, || -> Result<BitMask, PruneError> {
            let m = point_mask(&probs, pap)?;
            black_box(retained_mass(&probs, &m)?);
            Ok(m)
        })?;
        let offsets =
            tr.scope("tensor.offset_proj", s, r, || matmul(x.tensor(), &layer.weights().w_offset))?;
        let mut locations = tr.scope("model.locations", s, r, || {
            generate_locations(cfg, layer.references(), &offsets, Some(wl.warp()))
        })?;
        tr.scope("prune.clamp", s, r, || {
            clamp_locations(cfg, &ranges, layer.references(), &mut locations)
        })?;
        let fmap_mask = std::mem::replace(&mut next_fmap_mask, BitMask::keep_all(n));
        let value = tr.scope("tensor.value_proj", s, r, || {
            matmul_row_masked(x.tensor(), &layer.weights().w_value, fmap_mask.as_bools())
        })?;
        let output = tr.scope("model.msgs_agg", s, r, || {
            layer.sample_and_aggregate(&probs, &locations, &value, Some(pmask.as_bools()))
        })?;
        next_fmap_mask = tr.scope("prune.fwp", s, r, || -> Result<BitMask, PruneError> {
            let mut freq = SampleFrequency::new(cfg)?;
            freq.record_all(cfg, &locations, Some(pmask.as_bools()))?;
            freq.fmap_mask(fwp)
        })?;
        let keep = BlockPruning {
            point_keep: pmask.keep_fraction(),
            pixel_keep: fmap_mask.keep_fraction(),
        };
        if let Some(engine) = &engine {
            let (_, stages) = tr.scope("core.simulate_block", s, r, || {
                simulate_block(
                    cfg,
                    engine,
                    &accel.pe,
                    &locations,
                    pmask.as_bools(),
                    keep,
                    &mut counters,
                )
            })?;
            out.stages += stages;
        }
        let next = tr.scope("model.block_update", s, r, || block_update(x.tensor(), &output))?;
        x = tr.scope("prune.quant_features", s, r, || -> BenchResult<FmapPyramid> {
            Ok(FmapPyramid::from_tensor(cfg, fake_quantize(&next)?)?)
        })?;
        out.points += (n * ppq) as u64;
        out.kept_points += pmask.kept() as u64;
        out.rows += n as u64;
        out.kept_rows += fmap_mask.kept() as u64;
        out.flops = add5(out.flops, flop_parts(&flops));
        out.flops_pruned =
            add5(out.flops_pruned, flop_parts(&flops.pruned(keep.point_keep, keep.pixel_keep)));
    }
    out.cycles = counters.total_cycles();
    out.digest = tr.scope("serve.digest", s, r, || tensor_digest(x.tensor()));
    Ok(out)
}

fn add5(a: [u64; 5], b: [u64; 5]) -> [u64; 5] {
    std::array::from_fn(|i| a[i] + b[i])
}

/// The accelerator's modeled service time for `cycles` simulated cycles
/// (the backend's own exact conversion).
fn cycles_to_ns(cycles: u64) -> u64 {
    ((cycles as u128 * 1_000_000_000) / CLOCK_HZ as u128).max(1) as u64
}

/// The traced per-layer pass.
#[allow(clippy::too_many_arguments)]
fn traced(
    seed: u64,
    rt: &ServeRuntime,
    lanes: &[Lane],
    warm: &[(ServeReport, f64)],
    library: &[Vec<(u64, StageCycles)>],
    tr: &mut Tracer,
    root: SpanId,
    tally: &mut Tally,
) -> BenchResult<BTreeMap<String, f64>> {
    let mut m = BTreeMap::new();
    engine::setup_metrics(tr, SETUP_REPS, &mut m);
    let reports: Vec<&ServeReport> = warm.iter().map(|(r, _)| r).collect();
    engine::profile_metrics(&reports, &mut m);
    engine::count_metrics(&reports, &mut m);
    let units: u64 = reports.iter().map(|r| engine::work_units(r)).sum();
    let serve_wall: f64 = warm.iter().map(|(_, w)| w).sum();
    m.insert("runtime.serve_ns_per_iter".into(), ratio(serve_wall * 1e9, units as f64));

    let gen = rt.generator();
    let probes = tr.begin("probes", Some(root), None);
    let probe = Probe { gen, spec: &lanes[0].spec, seed };
    engine::engine_layers(&probe, tr, probes, &mut m)?;
    tr.end(probes);

    // Stage-by-stage replay of every served request on every backend.
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(lanes.len());
    let mut totals = [Staged::default(); 3];
    let mut staged_ns = [0f64; 3];
    let mut per_req: Vec<Vec<Staged>> = vec![Vec::new(); lanes.len()];
    for (b, (report, _)) in warm.iter().enumerate() {
        let first = tr.spans().len();
        let served = served_digests(report);
        let mut bad = 0;
        for (k, &(id, digest)) in served.iter().enumerate() {
            let span = tr.begin(REQUEST_SPANS[b], Some(root), Some(id));
            let st = staged(b, gen, id, tr, span)?;
            tr.end(span);
            staged_ns[b] += tr.duration_ns(span) as f64;
            let (lib_digest, lib_stages) = library[b][k];
            let ok = st.digest == digest
                && st.digest == lib_digest
                && (b != ACCEL || st.stages == lib_stages);
            bad += u64::from(!ok);
            totals[b] += st;
            per_req[b].push(st);
        }
        let n = report.config.n_requests as u64;
        tally.record(
            n,
            bad + n - served.len() as u64,
            &format!("{} staged replay vs served and library digests", BACKENDS[b]),
        );
        ranges.push(first..tr.spans().len());
    }

    // Direct `Backend::run`, one request at a time: latency percentiles
    // and the untraced side of the tracing overhead.
    let mut direct_ns = 0f64;
    for (b, lane) in lanes.iter().enumerate() {
        let backend = &lane.spec.fleet[0];
        let served = served_digests(&warm[b].0);
        let mut ms = Vec::with_capacity(served.len());
        let mut bad = 0;
        let span = tr.begin("direct", Some(root), None);
        for (k, &(id, digest)) in served.iter().enumerate() {
            let req = gen.request(id);
            let wl = gen.scenario(req.scenario)?;
            let t0 = Instant::now();
            let out = backend.run(wl, &req);
            let wall = t0.elapsed().as_secs_f64();
            match out {
                Ok(out) => {
                    let cost_ok = b != ACCEL || out.cost_ns == cycles_to_ns(per_req[b][k].cycles);
                    bad += u64::from(out.digest != digest || !cost_ok);
                }
                Err(e) => {
                    eprintln!("perfbench: {} run of request {id} failed: {e}", BACKENDS[b]);
                    bad += 1;
                }
            }
            ms.push(wall * 1e3);
            direct_ns += wall * 1e9;
        }
        tr.end(span);
        tally.record(
            ms.len() as u64,
            bad,
            &format!("{} direct Backend::run vs served digest", BACKENDS[b]),
        );
        let p = supported_percentile(ms.len()).unwrap_or(50.0);
        if p < 90.0 {
            eprintln!("perfbench: {} samples support only p{p}; p90 is reported anyway", ms.len());
        }
        m.insert(format!("backend.{}.run_ms_p50", BACKENDS[b]), percentile(&ms, 50.0));
        m.insert(format!("backend.{}.run_ms_p90", BACKENDS[b]), percentile(&ms, 90.0));
    }
    m.insert(
        "trace.overhead_frac".into(),
        ratio(staged_ns.iter().sum::<f64>() - direct_ns, direct_ns),
    );

    stage_metrics(tr, &ranges, &totals, &staged_ns, &per_req, &mut m);
    print_tables(gen, &warm[DENSE].0, &m);
    Ok(m)
}

const REQUEST_SPANS: [&str; 3] = ["request.dense", "request.pruned", "request.accel"];

/// Per-stage self times, useful-work ratios and simulated counterparts.
fn stage_metrics(
    tr: &Tracer,
    ranges: &[Range<usize>],
    totals: &[Staged; 3],
    staged_ns: &[f64; 3],
    per_req: &[Vec<Staged>],
    m: &mut BTreeMap<String, f64>,
) {
    let spans = tr.spans();
    let self_ns = self_times(spans);
    for (b, range) in ranges.iter().enumerate() {
        let name = BACKENDS[b];
        let reqs = per_req[b].len() as f64;
        let by = totals_by_name(spans, &self_ns, range.clone());
        let stage_ns = |stage: &str| by.get(stage).map_or(0, |&(_, ns)| ns) as f64;
        for stage in STAGES {
            m.insert(format!("{name}.{stage}_ns"), ratio(stage_ns(stage), reqs));
        }
        let t = &totals[b];
        m.insert(format!("{name}.staged_ns_per_req"), ratio(staged_ns[b], reqs));
        m.insert(format!("{name}.msgs_agg_share"), ratio(stage_ns("model.msgs_agg"), staged_ns[b]));
        m.insert(
            format!("{name}.model.msgs_agg_ns_per_kept_point"),
            ratio(stage_ns("model.msgs_agg"), t.kept_points as f64),
        );
        m.insert(
            format!("{name}.tensor.value_proj_ns_per_kept_row"),
            ratio(stage_ns("tensor.value_proj"), t.kept_rows as f64),
        );
    }
    let pruned = &totals[1];
    m.insert("prune.point_keep".into(), ratio(pruned.kept_points as f64, pruned.points as f64));
    m.insert("prune.pixel_keep".into(), ratio(pruned.kept_rows as f64, pruned.rows as f64));
    let accel = &totals[ACCEL];
    let reqs = per_req[ACCEL].len() as f64;
    let st = accel.stages;
    for (part, c) in SIM_PARTS.iter().zip([
        st.attn_proj,
        st.softmax,
        st.offset_proj,
        st.value_proj,
        st.msgs,
        st.dram_stall,
    ]) {
        m.insert(format!("core.cycles.{part}"), ratio(c as f64, reqs));
    }
    m.insert("core.sim_msgs_share".into(), st.msgs_fraction());
    m.insert("core.host_ns_per_sim_cycle".into(), ratio(staged_ns[ACCEL], accel.cycles as f64));
    let dense_reqs = per_req[DENSE].len() as f64;
    for (i, part) in FLOP_PARTS.iter().enumerate() {
        m.insert(format!("model.flops.{part}"), ratio(totals[DENSE].flops[i] as f64, dense_reqs));
        m.insert(
            format!("model.flops_pruned.{part}"),
            ratio(pruned.flops_pruned[i] as f64, per_req[1].len() as f64),
        );
    }
}

/// The stage table: host ns per request per backend beside simulated
/// cycles and FLOPs.
fn print_tables(gen: &RequestGenerator, dense: &ServeReport, m: &BTreeMap<String, f64>) {
    let get = |k: String| m.get(&k).copied().unwrap_or(0.0);
    println!(
        "\nreal_small stage table (host ns per request, self time; share of the staged request)"
    );
    println!(
        "  {:<22} {:>11} {:>6} {:>11} {:>6} {:>11} {:>6} {:>12} {:>12} {:>12}",
        "stage",
        "dense",
        "%",
        "pruned",
        "%",
        "accel",
        "%",
        "sim cycles",
        "dense FLOPs",
        "pruned FLOPs"
    );
    let sim = |stage: &str| match stage {
        "model.attn_softmax" => {
            Some(get("core.cycles.attn_proj".into()) + get("core.cycles.softmax".into()))
        }
        "tensor.offset_proj" => Some(get("core.cycles.offset_proj".into())),
        "tensor.value_proj" => Some(get("core.cycles.value_proj".into())),
        "model.msgs_agg" => Some(get("core.cycles.msgs".into())),
        _ => None,
    };
    let flops = |stage: &str, key: &str| match stage {
        "model.attn_softmax" => {
            Some(get(format!("{key}.attn_proj")) + get(format!("{key}.softmax")))
        }
        "tensor.offset_proj" => Some(get(format!("{key}.offset_proj"))),
        "tensor.value_proj" => Some(get(format!("{key}.value_proj"))),
        "model.msgs_agg" => Some(get(format!("{key}.msgs_agg"))),
        _ => None,
    };
    let opt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.0}"));
    for stage in STAGES {
        let mut row = format!("  {stage:<22}");
        for b in BACKENDS {
            let ns = get(format!("{b}.{stage}_ns"));
            let share = ratio(ns, get(format!("{b}.staged_ns_per_req"))) * 100.0;
            row += &format!(" {ns:>11.0} {share:>6.1}");
        }
        row += &format!(
            " {:>12} {:>12} {:>12}",
            opt(sim(stage)),
            opt(flops(stage, "model.flops")),
            opt(flops(stage, "model.flops_pruned"))
        );
        println!("{row}");
    }
    println!(
        "  {:<22} {:>11.0} {:>6} {:>11.0} {:>6} {:>11.0} {:>6} {:>12.0}",
        "request total",
        get("dense.staged_ns_per_req".into()),
        "",
        get("pruned.staged_ns_per_req".into()),
        "",
        get("accel.staged_ns_per_req".into()),
        "",
        get("core.cycles.dram_stall".into()),
    );
    println!("  (the last sim-cycles figure on the total row is DRAM stall cycles)");
    let gpu: f64 = {
        let ids: Vec<f64> = (0..dense.config.n_requests as u64)
            .filter_map(|id| gen.scenario(gen.request_scenario(id)).ok())
            .map(|wl| wl.benchmark().msgs_latency_fraction())
            .collect();
        median(&ids)
    };
    println!(
        "  MSGS + aggregation share: host dense {:.1}%, pruned {:.1}%, accel {:.1}%; simulated \
         accelerator {:.1}% of cycles; the paper's Fig. 1(b) GPU share for this stream's \
         networks is {:.1}% (median). The cycle model is not validated against hardware, so no \
         error figure is given.",
        get("dense.msgs_agg_share".into()) * 100.0,
        get("pruned.msgs_agg_share".into()) * 100.0,
        get("accel.msgs_agg_share".into()) * 100.0,
        get("core.sim_msgs_share".into()) * 100.0,
        gpu * 100.0
    );
    println!(
        "  useful work: point_keep {:.4} (kept / all sampling points), pixel_keep {:.4} (kept / \
         all value rows); msgs_agg ns per kept point: dense {:.2}, pruned {:.2}, accel {:.2}",
        get("prune.point_keep".into()),
        get("prune.pixel_keep".into()),
        get("dense.model.msgs_agg_ns_per_kept_point".into()),
        get("pruned.model.msgs_agg_ns_per_kept_point".into()),
        get("accel.model.msgs_agg_ns_per_kept_point".into()),
    );
    println!(
        "  direct Backend::run ms p50/p90 (p90 = highest percentile with >= 10 of {} samples \
         beyond it): dense {:.3}/{:.3}, pruned {:.3}/{:.3}, accel {:.3}/{:.3}; host ns per \
         simulated cycle {:.2}; tracing overhead {:+.1}% (staged / direct wall - 1)",
        dense.config.n_requests,
        get("backend.dense.run_ms_p50".into()),
        get("backend.dense.run_ms_p90".into()),
        get("backend.pruned.run_ms_p50".into()),
        get("backend.pruned.run_ms_p90".into()),
        get("backend.accel.run_ms_p50".into()),
        get("backend.accel.run_ms_p90".into()),
        get("core.host_ns_per_sim_cycle".into()),
        get("trace.overhead_frac".into()) * 100.0,
    );
    engine::print_layer_table(
        "real_small engine layers (one-shot engine, all three backends' serves)",
        &[
            ("runtime.settle_share", "*_req_per_s (settle waits for the backend)"),
            ("runtime.dispatch_share", "*_req_per_s"),
            ("runtime.serve_ns_per_iter", "iters_per_s"),
            ("loadgen.ns_per_arrival", "iters_per_s (negligible here)"),
            ("admission.offer_ns", "iters_per_s (negligible here)"),
            ("scheduler.select_ns_per_req", "iters_per_s (negligible here)"),
            ("router.route_ns", "iters_per_s (negligible here)"),
            ("runtime.batches", "-"),
            ("runtime.mean_batch", "- (requests / batches)"),
            ("admission.dropped", "- (0: the queue holds every request)"),
            ("setup.generator_s", "setup_s"),
            ("cost.table_build_s", "setup_s"),
            ("setup.capacity_probe_s", "setup_s"),
        ],
        m,
    );
}
