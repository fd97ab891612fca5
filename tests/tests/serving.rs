//! Determinism contract of the `defa-serve` batched runtime.
//!
//! The serving layer must not trade reproducibility for throughput:
//!
//! * per-request responses are **bit-identical** whatever the batch size,
//!   shard count or worker-thread count — batching is an execution detail,
//!   never a numerical one;
//! * the latency accounting runs on a virtual clock, so the *entire*
//!   report — outcomes, histogram bucket counts, quantiles, drops — is
//!   byte-identical across `RAYON_NUM_THREADS` settings (pinned here via
//!   `with_num_threads`, exactly like `determinism.rs` pins the compute
//!   core);
//! * energy is accounted per request in integer picojoules
//!   (`defa_serve::energy`), so totals are byte-identical across thread
//!   counts, shard counts and batch sizes too.

use defa_model::workload::{InferenceRequest, RequestGenerator, SyntheticWorkload};
use defa_model::MsdaConfig;
use defa_parallel::with_num_threads;
use defa_serve::{
    ArrivalProcess, Backend, BackendKind, BackendOutput, DropPolicy, DvfsPoint, EnergyBreakdown,
    RequestOutcome, RouterKind, SchedulerKind, ServeConfig, ServeError, ServeRuntime,
    SessionConfig, SessionProfile,
};
use std::sync::Arc;

fn runtime(seed: u64) -> ServeRuntime {
    ServeRuntime::new(RequestGenerator::standard(&MsdaConfig::tiny(), seed).unwrap())
}

fn serve(
    rt: &ServeRuntime,
    backend: &std::sync::Arc<dyn defa_serve::Backend>,
    cfg: &ServeConfig,
) -> Result<defa_serve::ServeReport, defa_serve::ServeError> {
    rt.serve(&defa_serve::ServeSpec::homogeneous(backend, cfg))
}

fn serve_fleet(
    rt: &ServeRuntime,
    fleet: Vec<std::sync::Arc<dyn defa_serve::Backend>>,
    cfg: &ServeConfig,
) -> Result<defa_serve::ServeReport, defa_serve::ServeError> {
    rt.serve(&defa_serve::ServeSpec::fleet(fleet, cfg))
}

/// Digests of completed requests in id order (drops are `None`).
fn digests(outcomes: &[RequestOutcome]) -> Vec<Option<u64>> {
    outcomes
        .iter()
        .map(|o| match o {
            RequestOutcome::Completed { digest, .. } => Some(*digest),
            RequestOutcome::Dropped { .. } => None,
        })
        .collect()
}

#[test]
fn results_are_batch_size_invariant() {
    let rt = runtime(42);
    // Capacity covers the whole trace so every request completes and the
    // three runs serve identical request sets.
    let base = ServeConfig {
        queue_capacity: 64,
        batch_deadline_us: 5_000,
        ..ServeConfig::at_load(1_500.0, 20)
    };
    for backend in [BackendKind::Dense, BackendKind::Pruned, BackendKind::Accelerator] {
        let backend = backend.build();
        let mut seen = Vec::new();
        for max_batch in [1usize, 4, 16] {
            let report = serve(&rt, &backend, &ServeConfig { max_batch, ..base.clone() }).unwrap();
            assert_eq!(report.dropped, 0, "capacity sized to avoid drops");
            seen.push((max_batch, report.digest, digests(&report.outcomes)));
        }
        for w in seen.windows(2) {
            assert_eq!(
                w[0].2, w[1].2,
                "per-request outputs differ between batch sizes {} and {}",
                w[0].0, w[1].0
            );
            assert_eq!(w[0].1, w[1].1, "combined digest differs");
        }
    }
}

#[test]
fn results_are_shard_count_invariant() {
    let rt = runtime(7);
    let base = ServeConfig { queue_capacity: 64, ..ServeConfig::at_load(2_000.0, 18) };
    let backend = BackendKind::Accelerator.build();
    let one = serve(&rt, &backend, &ServeConfig { shards: 1, ..base.clone() }).unwrap();
    let four = serve(&rt, &backend, &ServeConfig { shards: 4, ..base.clone() }).unwrap();
    assert_eq!(one.dropped, 0);
    assert_eq!(four.dropped, 0);
    assert_eq!(digests(&one.outcomes), digests(&four.outcomes));
    assert_eq!(one.digest, four.digest);
    // Extra shards service the same queue faster, never slower.
    assert!(four.makespan_ns <= one.makespan_ns);
}

/// The whole report — per-request latencies, histogram bucket counts,
/// quantiles, drop counts — must be byte-identical between a
/// single-threaded and a multi-threaded runtime.
#[test]
fn serve_report_is_byte_identical_across_thread_counts() {
    let cfg = ServeConfig {
        queue_capacity: 16,
        max_batch: 4,
        shards: 2,
        ..ServeConfig::at_load(3_000.0, 24)
    };
    for kind in BackendKind::all() {
        let multi = with_num_threads(4, || {
            let rt = runtime(11);
            serve(&rt, &kind.build(), &cfg).unwrap()
        });
        let single = with_num_threads(1, || {
            let rt = runtime(11);
            serve(&rt, &kind.build(), &cfg).unwrap()
        });
        assert_eq!(multi, single, "{} report diverged across thread counts", kind.name());
        assert_eq!(format!("{multi:?}"), format!("{single:?}"));
        assert_eq!(multi.queue.bucket_counts(), single.queue.bucket_counts());
        assert_eq!(multi.compute.bucket_counts(), single.compute.bucket_counts());
        assert_eq!(multi.total.bucket_counts(), single.total.bucket_counts());
    }
}

/// Energy accounting keeps the same determinism contract as latency: the
/// accelerator backend's fixed-point totals — and the whole report digest —
/// are byte-identical between a single- and a multi-threaded runtime, at an
/// under- and an over-loaded operating point.
#[test]
fn energy_totals_are_byte_identical_across_thread_counts() {
    for offered_load in [800.0, 20_000.0] {
        let cfg = ServeConfig {
            queue_capacity: 16,
            max_batch: 4,
            shards: 2,
            ..ServeConfig::at_load(offered_load, 24)
        };
        let multi = with_num_threads(4, || {
            let rt = runtime(13);
            serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap()
        });
        let single = with_num_threads(1, || {
            let rt = runtime(13);
            serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap()
        });
        assert!(multi.energy.total_pj() > 0, "accelerator requests must cost energy");
        assert_eq!(
            multi.energy, single.energy,
            "energy totals diverged across thread counts at load {offered_load}"
        );
        assert_eq!(multi.dense_flops, single.dense_flops);
        assert_eq!(multi.digest, single.digest);
        assert_eq!(multi, single, "report diverged across thread counts at load {offered_load}");
    }
}

/// Per-request energy is a property of the request alone, so totals over
/// the same completed trace are invariant to batch size and shard count —
/// not just reproducible, but *identical* fixed-point integers.
#[test]
fn energy_totals_are_batch_and_shard_invariant() {
    let rt = runtime(42);
    let base = ServeConfig {
        queue_capacity: 64,
        batch_deadline_us: 5_000,
        ..ServeConfig::at_load(1_500.0, 20)
    };
    let backend = BackendKind::Accelerator.build();
    let mut seen: Vec<(EnergyBreakdown, u128)> = Vec::new();
    for (max_batch, shards) in [(1usize, 1usize), (4, 2), (16, 4)] {
        let report =
            serve(&rt, &backend, &ServeConfig { max_batch, shards, ..base.clone() }).unwrap();
        assert_eq!(report.dropped, 0, "capacity sized to avoid drops");
        seen.push((report.energy, report.dense_flops));
    }
    for w in seen.windows(2) {
        assert_eq!(w[0], w[1], "energy totals must not depend on batching/sharding");
    }
}

#[test]
fn backpressure_drops_are_deterministic() {
    let cfg =
        ServeConfig { queue_capacity: 3, max_batch: 3, shards: 1, ..ServeConfig::at_load(1e6, 40) };
    let backend = BackendKind::Dense.build();
    let a = serve(&runtime(23), &backend, &cfg).unwrap();
    let b = serve(&runtime(23), &backend, &cfg).unwrap();
    assert!(a.dropped > 0, "overload must shed load");
    assert_eq!(a, b);
    // Dropped requests cost no compute: only completed ones have digests.
    let served = digests(&a.outcomes).iter().filter(|d| d.is_some()).count() as u64;
    assert_eq!(served, a.completed);
}

/// The refactor's ground truth: with the default policies (Poisson
/// arrivals, tail drop, FIFO scheduling, round-robin routing) the layered
/// runtime must reproduce the PR 2/PR 3 monolithic runtime **byte for
/// byte**. The constants below were captured from the pre-refactor
/// runtime (commit ce10ad6) at two load points per backend; any change to
/// them is a serving-semantics regression, not a refactor.
#[test]
fn fifo_round_robin_poisson_reproduces_pr2_reports_byte_for_byte() {
    // (backend, load, n, completed, dropped, batches, batched, makespan,
    //  digest, (compute_pj, sram_pj, dram_pj), dense_flops)
    #[allow(clippy::type_complexity)]
    let pins: [(
        BackendKind,
        f64,
        usize,
        u64,
        u64,
        u64,
        u64,
        u64,
        u64,
        (u128, u128, u128),
        u128,
    ); 6] = [
        (
            BackendKind::Dense,
            1_500.0,
            20,
            20,
            0,
            6,
            20,
            11_347_653,
            0xe082_7f38_7350_66b5,
            (2_432_925_000, 0, 0),
            2_828_800,
        ),
        (
            BackendKind::Dense,
            5e6,
            64,
            24,
            40,
            6,
            24,
            158_003,
            0xa3e1_da26_99ae_9cfa,
            (2_962_575_000, 0, 0),
            3_444_480,
        ),
        (
            BackendKind::Pruned,
            1_500.0,
            20,
            20,
            0,
            6,
            20,
            11_347_065,
            0x7082_b6b7_3780_a6ac,
            (1_538_550_000, 0, 0),
            2_828_800,
        ),
        (
            BackendKind::Pruned,
            5e6,
            64,
            24,
            40,
            6,
            24,
            155_490,
            0x070f_fb1d_0bfd_a452,
            (1_867_725_000, 0, 0),
            3_444_480,
        ),
        (
            BackendKind::Accelerator,
            1_500.0,
            20,
            20,
            0,
            6,
            20,
            11_348_613,
            0x7082_b6b7_3780_a6ac,
            (146_032, 442_471, 1_966_254),
            2_828_800,
        ),
        (
            BackendKind::Accelerator,
            5e6,
            64,
            24,
            40,
            6,
            24,
            162_496,
            0x070f_fb1d_0bfd_a452,
            (177_321, 536_611, 2_385_247),
            3_444_480,
        ),
    ];
    let rt = runtime(42);
    for (kind, load, n, completed, dropped, batches, batched, makespan, digest, energy, flops) in
        pins
    {
        let cfg = ServeConfig {
            queue_capacity: 16,
            max_batch: 4,
            shards: 2,
            ..ServeConfig::at_load(load, n)
        };
        let report = serve(&rt, &kind.build(), &cfg).unwrap();
        let ctx = format!("{} at load {load}", kind.name());
        assert_eq!(report.completed, completed, "{ctx}: completed");
        assert_eq!(report.dropped, dropped, "{ctx}: dropped");
        assert_eq!(report.batches, batches, "{ctx}: batches");
        assert_eq!(report.batched_requests, batched, "{ctx}: batched requests");
        assert_eq!(report.makespan_ns, makespan, "{ctx}: makespan");
        assert_eq!(report.digest, digest, "{ctx}: response digest");
        let (compute_pj, sram_pj, dram_pj) = energy;
        assert_eq!(report.energy.compute_pj, compute_pj, "{ctx}: compute energy");
        assert_eq!(report.energy.sram_pj, sram_pj, "{ctx}: sram energy");
        assert_eq!(report.energy.dram_pj, dram_pj, "{ctx}: dram energy");
        assert_eq!(report.dense_flops, flops, "{ctx}: dense flops");
    }
}

/// Service order of one report, as (batch, in-batch position) per
/// completed request id — `compute_ns` is cumulative within a batch, so
/// it orders members of the same batch.
fn service_order(outcomes: &[RequestOutcome]) -> Vec<(u64, u64, u64)> {
    let mut order: Vec<(u64, u64, u64)> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(id, o)| match o {
            RequestOutcome::Completed { batch, compute_ns, .. } => {
                Some((*batch, *compute_ns, id as u64))
            }
            RequestOutcome::Dropped { .. } => None,
        })
        .collect();
    order.sort_unstable();
    order
}

/// Every scheduler × router combination must (a) serve each admitted
/// request exactly once — conservation plus exactly one outcome per id —
/// and (b) never serve two requests of the same SLO class *and* scenario
/// out of arrival order (the starvation bound: within a class, cost- and
/// deadline-ordering always tie-break by arrival).
#[test]
fn every_policy_serves_exactly_once_and_is_class_fair() {
    let rt = runtime(42);
    let backend = BackendKind::Accelerator.build();
    for scheduler in SchedulerKind::all() {
        for router in RouterKind::all() {
            // Load high enough to queue deeply (so policies actually
            // reorder) but capacity-bounded so drops occur too.
            let cfg = ServeConfig {
                queue_capacity: 12,
                max_batch: 4,
                shards: 2,
                arrival: ArrivalProcess::bursty_default(),
                scheduler,
                router,
                ..ServeConfig::at_load(30_000.0, 48)
            };
            let report = serve(&rt, &backend, &cfg).unwrap();
            let ctx = format!("{}/{}", scheduler.name(), router.name());
            // (a) exactly once: conservation + one outcome per id.
            assert_eq!(report.completed + report.dropped, 48, "{ctx}: conservation");
            assert_eq!(report.outcomes.len(), 48, "{ctx}: outcome per id");
            assert_eq!(
                report.total.count(),
                report.completed,
                "{ctx}: each completion recorded once"
            );
            // (b) class fairness: restrict the global service order to one
            // (slo, scenario) class; ids must be in arrival order (ids are
            // arrival-ordered in the trace).
            let gen = rt.generator();
            for slo in defa_model::workload::SloClass::all() {
                for scenario in 0..gen.scenarios().len() {
                    let class_order: Vec<u64> = service_order(&report.outcomes)
                        .into_iter()
                        .filter(|&(_, _, id)| {
                            gen.request_slo(id) == slo && gen.request_scenario(id) == scenario
                        })
                        .map(|(_, _, id)| id)
                        .collect();
                    assert!(
                        class_order.windows(2).all(|w| w[0] < w[1]),
                        "{ctx}: class ({}, {scenario}) served out of arrival order: \
                         {class_order:?}",
                        slo.name()
                    );
                }
            }
        }
    }
}

/// Regression: a burst of requests sharing one virtual nanosecond against
/// a full admission queue must keep conservation exact — every arrival is
/// either completed or dropped, under both drop policies.
#[test]
fn simultaneous_arrivals_against_a_full_queue_conserve_accounting() {
    let rt = runtime(42);
    let backend = BackendKind::Dense.build();
    for drop in [DropPolicy::RejectNewest, DropPolicy::EvictOldest] {
        // Uniform pacing above 1 GHz collapses every gap to 0 ns: all 40
        // requests arrive at the same virtual nanosecond, against a
        // 3-deep queue.
        let cfg = ServeConfig {
            queue_capacity: 3,
            max_batch: 3,
            shards: 1,
            arrival: ArrivalProcess::Uniform,
            drop,
            ..ServeConfig::at_load(4e9, 40)
        };
        let report = serve(&rt, &backend, &cfg).unwrap();
        assert!(report.dropped > 0, "{}: overload must shed", drop.name());
        assert_eq!(
            report.completed + report.dropped,
            40,
            "{}: arrivals = completed + dropped",
            drop.name()
        );
        // The trace really was simultaneous: every drop carries the same
        // arrival timestamp.
        let drop_times: Vec<u64> = report
            .outcomes
            .iter()
            .filter_map(|o| match o {
                RequestOutcome::Dropped { arrival_ns } => Some(*arrival_ns),
                _ => None,
            })
            .collect();
        assert!(drop_times.len() >= 2, "{}: expected multiple drops", drop.name());
        assert!(
            drop_times.windows(2).all(|w| w[0] == w[1]),
            "{}: drops not simultaneous: {drop_times:?}",
            drop.name()
        );
        // And the report agrees with itself.
        let outcome_drops =
            report.outcomes.iter().filter(|o| matches!(o, RequestOutcome::Dropped { .. })).count()
                as u64;
        assert_eq!(outcome_drops, report.dropped, "{}: drop outcomes", drop.name());
    }
}

/// The determinism contract extends to every new policy layer: an EDF +
/// least-outstanding + bursty configuration on a heterogeneous fleet must
/// produce a byte-identical report across worker-thread counts.
#[test]
fn policy_reports_are_byte_identical_across_thread_counts() {
    let cfg = ServeConfig {
        queue_capacity: 16,
        max_batch: 4,
        shards: 2,
        arrival: ArrivalProcess::bursty_default(),
        scheduler: SchedulerKind::Edf,
        router: RouterKind::LeastOutstanding,
        ..ServeConfig::at_load(8_000.0, 24)
    };
    let fleet_kinds = [BackendKind::Dense, BackendKind::Accelerator];
    let multi = with_num_threads(4, || {
        let rt = runtime(11);
        serve_fleet(&rt, BackendKind::build_fleet(&fleet_kinds), &cfg).unwrap()
    });
    let single = with_num_threads(1, || {
        let rt = runtime(11);
        serve_fleet(&rt, BackendKind::build_fleet(&fleet_kinds), &cfg).unwrap()
    });
    assert_eq!(multi, single, "policy report diverged across thread counts");
    assert_eq!(format!("{multi:?}"), format!("{single:?}"));
    assert_eq!(multi.backend, "dense+defa-accel");
}

/// EDF must beat FIFO on SLO compliance when bursty traffic mixes tight
/// and loose deadlines — the scenario the scheduling layer exists for.
#[test]
fn edf_meets_more_deadlines_than_fifo_under_bursts() {
    let rt = runtime(42);
    let backend = BackendKind::Accelerator.build();
    // A 500 µs dispatch overhead makes burst backlogs span several
    // milliseconds, so the 2 ms interactive budget is really at stake
    // while the 100 ms batch budget is not — exactly the spread EDF
    // exploits and FIFO ignores.
    let base = ServeConfig {
        queue_capacity: 64,
        max_batch: 4,
        shards: 2,
        batch_overhead_us: 500,
        arrival: ArrivalProcess::Bursty { burst: 16.0 },
        ..ServeConfig::at_load(7_000.0, 96)
    };
    let fifo =
        serve(&rt, &backend, &ServeConfig { scheduler: SchedulerKind::Fifo, ..base.clone() })
            .unwrap();
    let edf = serve(&rt, &backend, &ServeConfig { scheduler: SchedulerKind::Edf, ..base.clone() })
        .unwrap();
    assert_eq!(fifo.completed, edf.completed, "same admitted trace");
    assert!(fifo.slo_violations > 0, "operating point must put deadlines at stake");
    assert!(
        edf.slo_violations < fifo.slo_violations,
        "EDF must miss fewer deadlines than FIFO ({} vs {})",
        edf.slo_violations,
        fifo.slo_violations
    );
    assert_eq!(edf.slo_violations, 0, "EDF clears every deadline at this point");
}

#[test]
fn backends_disagree_on_approximation_but_agree_on_accounting() {
    let rt = runtime(5);
    let cfg = ServeConfig { queue_capacity: 64, ..ServeConfig::at_load(1_000.0, 10) };
    let dense = serve(&rt, &BackendKind::Dense.build(), &cfg).unwrap();
    let pruned = serve(&rt, &BackendKind::Pruned.build(), &cfg).unwrap();
    let accel = serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap();
    // Same admitted trace everywhere…
    assert_eq!(dense.completed, 10);
    assert_eq!(pruned.completed, 10);
    assert_eq!(accel.completed, 10);
    // …but the pruned/quantized backends approximate, so responses differ
    // from the exact reference.
    assert_ne!(dense.digest, pruned.digest);
    assert_ne!(dense.digest, accel.digest);
}

/// Runtimes over the same seeded generator with pools of 1, 2 and 3
/// workers.
fn pooled_runtimes(seed: u64) -> Vec<ServeRuntime> {
    let gen = RequestGenerator::standard(&MsdaConfig::tiny(), seed).unwrap();
    [1, 2, 3].map(|threads| ServeRuntime::with_pool_threads(gen.clone(), threads)).into()
}

/// Short multi-iteration sessions: continuous batching under a state
/// budget of `state_budget` sessions per shard (0 = unbounded), or gang
/// scheduling.
fn sessions(state_budget: usize, gang: bool) -> SessionConfig {
    SessionConfig {
        profile: SessionProfile { min_len: 2, max_len: 5, think_mean_us: 200 },
        state_budget,
        gang,
    }
}

/// Every pool worker claims requests from the oldest open batch, so which
/// worker ran a request is an execution detail: one-shot runs, continuous
/// sessions whose tight budget evicts (and whose decode-only batches carry
/// no prefill), and gang sessions all report the same bytes on pools of
/// 1, 2 and 3 workers.
#[test]
fn serve_reports_are_identical_across_pool_sizes() {
    let rts = pooled_runtimes(42);
    let base = ServeConfig {
        queue_capacity: 32,
        max_batch: 4,
        shards: 2,
        ..ServeConfig::at_load(4_000.0, 16)
    };
    let configs = [
        ("one-shot", base.clone()),
        ("continuous", ServeConfig { sessions: sessions(2, false), ..base.clone() }),
        ("gang", ServeConfig { sessions: sessions(0, true), ..base.clone() }),
    ];
    for kind in BackendKind::all() {
        let backend = kind.build();
        for (mode, cfg) in &configs {
            let reports: Vec<_> = rts.iter().map(|rt| serve(rt, &backend, cfg).unwrap()).collect();
            assert_eq!(reports[0].completed + reports[0].dropped, 16);
            if *mode == "continuous" {
                assert!(reports[0].evictions > 0, "the state budget must bind");
            }
            for (threads, r) in [2, 3].into_iter().zip(&reports[1..]) {
                assert_eq!(
                    &reports[0],
                    r,
                    "{} {mode} report differs between pools of 1 and {threads} workers",
                    kind.name()
                );
                assert_eq!(format!("{:?}", reports[0]), format!("{r:?}"));
            }
        }
    }
}

/// The capacity probe runs its eight requests as one work-shared pool
/// batch and sums their costs in id order: bit-equal for every pool size
/// and to the serial sum.
#[test]
fn capacity_probe_is_identical_across_pool_sizes_and_to_the_serial_sum() {
    let rts = pooled_runtimes(42);
    let (shards, max_batch, overhead_us) = (2, 8, 50);
    for kind in BackendKind::all() {
        let backend = kind.build();
        let gen = rts[0].generator();
        let mut total_cost_ns = 0f64;
        for id in 0..8 {
            let req = gen.request(id);
            total_cost_ns +=
                backend.run(gen.scenario(req.scenario).unwrap(), &req).unwrap().cost_ns as f64;
        }
        let batch_ns = overhead_us as f64 * 1e3 + max_batch as f64 * (total_cost_ns / 8.0);
        let serial = max_batch as f64 / batch_ns * 1e9 * shards as f64;
        for rt in &rts {
            let pooled = rt.modeled_capacity_rps(&backend, shards, max_batch, overhead_us).unwrap();
            assert_eq!(pooled.to_bits(), serial.to_bits(), "{} probe", kind.name());
        }
    }
}

/// A real backend that fails on one seeded request id, with an error or
/// by panicking, and serves every other request unchanged.
struct FaultyBackend {
    inner: Arc<dyn Backend>,
    fail_id: u64,
    panic: bool,
}

impl FaultyBackend {
    fn error(id: u64) -> ServeError {
        ServeError::InvalidConfig(format!("injected fault on request {id}"))
    }
}

impl Backend for FaultyBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn run(
        &self,
        scenario: &SyntheticWorkload,
        req: &InferenceRequest,
    ) -> Result<BackendOutput, ServeError> {
        if req.id == self.fail_id {
            if self.panic {
                panic!("injected panic on request {}", req.id);
            }
            return Err(Self::error(req.id));
        }
        self.inner.run(scenario, req)
    }
    fn estimate_cost_ns(&self, scenario: &SyntheticWorkload) -> u64 {
        self.inner.estimate_cost_ns(scenario)
    }
    fn estimate_energy_pj(&self, scenario: &SyntheticWorkload) -> u128 {
        self.inner.estimate_energy_pj(scenario)
    }
    fn reprice(&self, out: BackendOutput, clock: DvfsPoint) -> BackendOutput {
        self.inner.reprice(out, clock)
    }
    fn idle_power_mw(&self, clock: DvfsPoint) -> u64 {
        self.inner.idle_power_mw(clock)
    }
    fn estimate_prefill_ns(&self, scenario: &SyntheticWorkload) -> u64 {
        self.inner.estimate_prefill_ns(scenario)
    }
    fn estimate_decode_ns(&self, scenario: &SyntheticWorkload) -> u64 {
        self.inner.estimate_decode_ns(scenario)
    }
    fn decode_output(&self, prefill: &BackendOutput, iter: u64) -> BackendOutput {
        self.inner.decode_output(prefill, iter)
    }
}

/// Runs the faulty backend through `serve` (one-shot and continuous
/// sessions) and the capacity probe on pools of 1 and 3 workers, and
/// hands each result to `check`. Returning at all is the no-hang check.
fn with_injected_fault(panic: bool, check: impl Fn(&str, Result<f64, ServeError>)) {
    let fail_id = 5;
    // Drop-free, so the faulty request is served.
    let base = ServeConfig {
        queue_capacity: 64,
        max_batch: 4,
        shards: 2,
        ..ServeConfig::at_load(2_000.0, 12)
    };
    let continuous = ServeConfig { sessions: sessions(2, false), ..base.clone() };
    for threads in [1, 3] {
        let gen = RequestGenerator::standard(&MsdaConfig::tiny(), 42).unwrap();
        let rt = ServeRuntime::with_pool_threads(gen, threads);
        let inner = BackendKind::Pruned.build();
        let faulty: Arc<dyn Backend> =
            Arc::new(FaultyBackend { inner: Arc::clone(&inner), fail_id, panic });
        for (mode, cfg) in [("one-shot", &base), ("continuous", &continuous)] {
            let served = serve(&rt, &faulty, cfg).map(|r| r.completed as f64);
            check(&format!("{threads}-worker {mode} serve"), served);
        }
        let probed = rt.modeled_capacity_rps(&faulty, 2, 8, 50);
        check(&format!("{threads}-worker capacity probe"), probed);
        // The pool outlives the fault: the same runtime still serves the
        // healthy backend exactly as before.
        let fresh = runtime(42);
        assert_eq!(serve(&rt, &inner, &base).unwrap(), serve(&fresh, &inner, &base).unwrap());
    }
}

#[test]
fn a_backend_error_comes_back_unchanged() {
    with_injected_fault(false, |what, got| {
        assert_eq!(got, Err(FaultyBackend::error(5)), "{what}");
    });
}

#[test]
fn a_backend_panic_is_a_lost_worker() {
    with_injected_fault(true, |what, got| {
        assert!(matches!(got, Err(ServeError::WorkerLost(_))), "{what}: {got:?}");
    });
}
