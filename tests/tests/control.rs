//! Closed-loop fleet control: determinism, conservation and the
//! controller-level claims.
//!
//! The control loop must not weaken any serving contract:
//!
//! * `NoOp` control — even with autoscaling headroom shards and epoch
//!   stepping active — reproduces the PR 4 pinned reports **byte for
//!   byte** (same constants as `serving.rs`);
//! * every controller conserves requests (arrivals = completed + dropped)
//!   across shard add/drain events, and the per-epoch timeline's sums
//!   agree with the report totals;
//! * controlled runs stay byte-identical across `RAYON_NUM_THREADS`;
//! * the claims the `autoscale` bench prints are real: the autoscaler
//!   strictly cuts drops on a surge that swamps a static fleet, and the
//!   DVFS governor strictly cuts average power (incl. static) on an
//!   idle-heavy trace at bounded p99 cost;
//! * multi-turn sessions ride the same control loop: every controller
//!   conserves sessions, and the DVFS governor cuts average power on a
//!   diurnal session trace too.

use defa_model::workload::RequestGenerator;
use defa_model::MsdaConfig;
use defa_parallel::with_num_threads;
use defa_serve::{
    ArrivalProcess, AutoscalerConfig, BackendKind, ControlConfig, ControllerKind, DvfsConfig,
    DvfsPoint, RateSegment, RequestOutcome, ServeConfig, ServeRuntime, SessionConfig,
    SessionProfile, TraceSchedule,
};

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

/// Dispatch overhead the control scenarios run with — small enough that
/// the per-request cost (not the overhead) sets the service rate.
const OVERHEAD_US: u64 = 5;
/// Batch budget of the control scenarios.
const MAX_BATCH: usize = 4;

/// Batch-effective modeled capacity of `shards` accelerator shards in
/// requests per virtual second (the runtime's deterministic probe).
fn accel_capacity_rps(rt: &ServeRuntime, shards: usize) -> f64 {
    rt.modeled_capacity_rps(&BackendKind::Accelerator.build(), shards, MAX_BATCH, OVERHEAD_US)
        .unwrap()
}

/// Microseconds a window must span to hold ~`requests` arrivals at `rate`.
fn us_for(requests: f64, rate: f64) -> u64 {
    (requests / rate * 1e6).round().max(1.0) as u64
}

/// The autoscaler the surge scenario runs: floor at the initial fleet so
/// the calm lead-in cannot shrink it below the static baseline.
fn surge_autoscaler() -> AutoscalerConfig {
    AutoscalerConfig { min_shards: 2, ..AutoscalerConfig::default() }
}

/// The surge operating point: a static 2-shard fleet is swamped by an 8×
/// spike (4× its batch-effective capacity), an autoscaler may grow to 8
/// shards. One 96-request cycle: 16 calm, ~64 in the spike, 16 calm.
fn surge_config(rt: &ServeRuntime, controller: ControllerKind) -> ServeConfig {
    let base = accel_capacity_rps(rt, 2) * 0.5;
    let trace = TraceSchedule::step_surge(us_for(14.0, base), us_for(10.0, base), 8.0);
    ServeConfig {
        queue_capacity: 16,
        max_batch: MAX_BATCH,
        batch_overhead_us: OVERHEAD_US,
        shards: 2,
        arrival: ArrivalProcess::Trace(trace),
        control: ControlConfig { epoch_us: us_for(1.0, base), max_shards: 8, controller },
        ..ServeConfig::at_load(base, 96)
    }
}

/// The idle-heavy operating point: a diurnal trace at 0.25× capacity
/// whose troughs leave whole epochs quiet, where a DVFS governor may park
/// the clock.
fn diurnal_config(rt: &ServeRuntime, controller: ControllerKind) -> ServeConfig {
    let base = accel_capacity_rps(rt, 2) * 0.25;
    let trace = TraceSchedule::diurnal(us_for(64.0, base));
    ServeConfig {
        queue_capacity: 32,
        max_batch: MAX_BATCH,
        batch_overhead_us: OVERHEAD_US,
        shards: 2,
        arrival: ArrivalProcess::Trace(trace),
        control: ControlConfig { epoch_us: us_for(1.0, base), max_shards: 0, controller },
        ..ServeConfig::at_load(base, 96)
    }
}

/// Multi-turn sessions under a per-shard state budget: 3–6 iterations
/// with sub-epoch think times, so decode steps interleave with prefills
/// and evictions across epoch boundaries.
fn chat(cfg: ServeConfig) -> ServeConfig {
    ServeConfig {
        sessions: SessionConfig {
            profile: SessionProfile { min_len: 3, max_len: 6, think_mean_us: 200 },
            state_budget: 4,
            gang: false,
        },
        ..cfg
    }
}

/// `NoOp` control must reproduce the PR 4 pinned reports byte-for-byte —
/// with epoch stepping active *and* six inactive headroom shards in the
/// fleet. The constants are the same accelerator pins `serving.rs`
/// carries (captured from commit ce10ad6).
#[test]
fn noop_control_reproduces_pr4_pins_byte_for_byte() {
    let rt = runtime(42);
    for (load, n, completed, dropped, makespan, digest) in [
        (1_500.0, 20usize, 20u64, 0u64, 11_348_613u64, 0x7082_b6b7_3780_a6acu64),
        (5e6, 64, 24, 40, 162_496, 0x070f_fb1d_0bfd_a452),
    ] {
        let cfg = ServeConfig {
            queue_capacity: 16,
            max_batch: 4,
            shards: 2,
            control: ControlConfig {
                epoch_us: 500,
                max_shards: 8, // headroom shards exist but must never serve
                controller: ControllerKind::NoOp,
            },
            ..ServeConfig::at_load(load, n)
        };
        let report = serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap();
        assert_eq!(report.completed, completed, "load {load}: completed");
        assert_eq!(report.dropped, dropped, "load {load}: dropped");
        assert_eq!(report.makespan_ns, makespan, "load {load}: makespan");
        assert_eq!(report.digest, digest, "load {load}: digest");
        assert_eq!(report.shard_range(), (2, 2), "NoOp never resizes");
        assert_eq!(report.clock_range(), (DvfsPoint::NOMINAL, DvfsPoint::NOMINAL));
        // The timeline is additive bookkeeping, not a behaviour change.
        assert!(!report.timeline.is_empty());
    }
}

/// Property: every controller keeps conservation — each request gets
/// exactly one outcome, arrivals = completed + dropped — across shard
/// add/drain events and clock changes, and the timeline's per-epoch sums
/// agree with the report totals (energy included, in exact integers).
#[test]
fn every_controller_conserves_requests_and_timeline_sums_match() {
    let rt = runtime(42);
    let controllers = [
        ControllerKind::NoOp,
        ControllerKind::Autoscaler(AutoscalerConfig::default()),
        ControllerKind::Autoscaler(AutoscalerConfig {
            scale_up_queue: 2,
            scale_down_queue: 2,
            calm_epochs: 1, // deliberately flappy: exercises add *and* drain
            min_shards: 1,
        }),
        ControllerKind::Dvfs(DvfsConfig::default()),
        ControllerKind::Dvfs(DvfsConfig { quiet_epochs: 1, ..DvfsConfig::default() }),
    ];
    for make_cfg in [surge_config, diurnal_config] {
        for controller in &controllers {
            let cfg = make_cfg(&rt, controller.clone());
            let report = serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap();
            let ctx = format!("{} on {}", controller.name(), cfg.arrival.label());
            assert_eq!(report.completed + report.dropped, 96, "{ctx}: conservation");
            assert_eq!(report.outcomes.len(), 96, "{ctx}: outcome per id");
            assert_eq!(report.total.count(), report.completed, "{ctx}: one record per completion");
            // Timeline sums must reproduce the report exactly.
            let t = &report.timeline;
            assert_eq!(t.iter().map(|e| e.arrivals).sum::<u64>(), 96, "{ctx}: epoch arrivals");
            assert_eq!(
                t.iter().map(|e| e.completed).sum::<u64>(),
                report.completed,
                "{ctx}: epoch completions"
            );
            assert_eq!(
                t.iter().map(|e| e.dropped).sum::<u64>(),
                report.dropped,
                "{ctx}: epoch drops"
            );
            assert_eq!(
                t.iter().map(|e| e.slo_violations).sum::<u64>(),
                report.slo_violations,
                "{ctx}: epoch SLO misses"
            );
            assert_eq!(
                t.iter().fold(defa_serve::EnergyBreakdown::ZERO, |acc, e| acc + e.energy),
                report.energy,
                "{ctx}: epoch energy is exact fixed-point"
            );
            assert_eq!(
                t.iter().map(|e| e.static_pj).sum::<u128>(),
                report.static_energy_pj,
                "{ctx}: static energy"
            );
            // Epoch windows tile [0, makespan) without gaps or overlaps.
            assert_eq!(t[0].start_ns, 0, "{ctx}: timeline starts at 0");
            assert_eq!(t.last().unwrap().end_ns, report.makespan_ns, "{ctx}: timeline ends");
            for w in t.windows(2) {
                assert_eq!(w[0].end_ns, w[1].start_ns, "{ctx}: contiguous epochs");
            }
        }
    }
}

/// The tentpole claim, autoscaler half: on a surge trace that sheds a
/// third of the offered load on a static fleet, elastic scaling holds
/// strictly more of it.
#[test]
fn autoscaler_sheds_strictly_less_than_the_static_fleet_on_a_surge() {
    let rt = runtime(42);
    let backend = BackendKind::Accelerator.build();
    let stat = serve(&rt, &backend, &surge_config(&rt, ControllerKind::NoOp)).unwrap();
    let auto_ =
        serve(&rt, &backend, &surge_config(&rt, ControllerKind::Autoscaler(surge_autoscaler())))
            .unwrap();
    assert!(
        stat.drop_fraction() > 0.3,
        "operating point must swamp the static fleet (dropped {:.0}%)",
        stat.drop_fraction() * 100.0
    );
    assert!(
        auto_.dropped < stat.dropped,
        "autoscaler must shed strictly less ({} vs {})",
        auto_.dropped,
        stat.dropped
    );
    let (_, grown) = auto_.shard_range();
    assert!(grown > 2, "autoscaler never grew the fleet (max {grown} shards)");
    // Drained shards settle their in-flight work: per-shard completions
    // still sum to the total.
    assert_eq!(auto_.completed_per_shard().iter().sum::<u64>(), auto_.completed);
}

/// The tentpole claim, DVFS half: on an idle-heavy diurnal trace the
/// governor strictly cuts average power (request + static energy over the
/// makespan) against the fixed-max-clock fleet, at bounded p99 cost.
#[test]
fn dvfs_cuts_average_power_at_bounded_p99_cost_on_an_idle_heavy_trace() {
    let rt = runtime(42);
    let backend = BackendKind::Accelerator.build();
    let fixed = serve(&rt, &backend, &diurnal_config(&rt, ControllerKind::NoOp)).unwrap();
    let dvfs =
        serve(&rt, &backend, &diurnal_config(&rt, ControllerKind::Dvfs(DvfsConfig::default())))
            .unwrap();
    assert_eq!(fixed.dropped, 0, "the calm trace must not shed");
    assert_eq!(dvfs.dropped, 0);
    let (slow, fast) = dvfs.clock_range();
    assert!(slow.freq_mhz < 400, "governor never left the nominal clock");
    assert_eq!(fast, DvfsPoint::NOMINAL, "governor must restore nominal under load");
    assert!(
        dvfs.average_power_with_static_w() < fixed.average_power_with_static_w(),
        "DVFS must cut average power: {} vs {} W",
        dvfs.average_power_with_static_w(),
        fixed.average_power_with_static_w()
    );
    // Bounded latency cost: the ladder floor is 4x slower, so p99 may
    // grow but must stay within that envelope plus queueing slack.
    assert!(
        dvfs.total.p99_ns() <= fixed.total.p99_ns().saturating_mul(8),
        "p99 cost unbounded: {} vs {}",
        dvfs.total.p99_ns(),
        fixed.total.p99_ns()
    );
    // Energy proportionality is visible per epoch: some quiet epoch ran
    // strictly below the nominal static power floor of the fixed fleet.
    let fixed_floor = fixed
        .timeline
        .iter()
        .filter(|e| e.duration_ns() > 0)
        .map(|e| e.static_pj / e.duration_ns() as u128)
        .min()
        .unwrap();
    let dvfs_floor = dvfs
        .timeline
        .iter()
        .filter(|e| e.duration_ns() > 0)
        .map(|e| e.static_pj / e.duration_ns() as u128)
        .min()
        .unwrap();
    assert!(
        dvfs_floor * 4 <= fixed_floor,
        "idle-epoch power must fall multiples: {dvfs_floor} vs {fixed_floor} mW"
    );
}

/// Property: sessions keep conservation under every controller — each
/// session settles or is shed exactly once, every completed session ran
/// at least `min_len` iterations, and the timeline still reproduces the
/// report totals — and a controlled session run is byte-identical across
/// worker-thread counts.
#[test]
fn every_controller_conserves_sessions() {
    let rt = runtime(42);
    for make_cfg in [surge_config, diurnal_config] {
        for controller in [
            ControllerKind::NoOp,
            ControllerKind::Autoscaler(surge_autoscaler()),
            ControllerKind::Dvfs(DvfsConfig::default()),
        ] {
            let cfg = chat(make_cfg(&rt, controller.clone()));
            let report = serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap();
            let ctx = format!("{} on {}", controller.name(), cfg.arrival.label());
            assert_eq!(report.completed + report.dropped, 96, "{ctx}: conservation");
            assert!(report.iterations >= 3 * report.completed, "{ctx}: iterations");
            assert_eq!(report.ttft.count(), report.completed, "{ctx}: one TTFT per session");
            let t = &report.timeline;
            assert_eq!(t.iter().map(|e| e.arrivals).sum::<u64>(), 96, "{ctx}: epoch arrivals");
            assert_eq!(
                t.iter().map(|e| e.completed).sum::<u64>(),
                report.completed,
                "{ctx}: epoch completions"
            );
            assert_eq!(
                t.iter().fold(defa_serve::EnergyBreakdown::ZERO, |acc, e| acc + e.energy),
                report.energy,
                "{ctx}: epoch energy"
            );
            assert!(report.live.epochs_stepped > 0, "{ctx}: the control loop never stepped");
        }
    }
    let cfg = chat(surge_config(&rt, ControllerKind::Autoscaler(surge_autoscaler())));
    let backend = BackendKind::Accelerator.build();
    let one = with_num_threads(1, || serve(&runtime(42), &backend, &cfg).unwrap());
    let four = with_num_threads(4, || serve(&runtime(42), &backend, &cfg).unwrap());
    assert_eq!(one, four, "controlled session report diverged across thread counts");
}

/// The headline sessions gain from sharing the one-shot control loop: on
/// the idle-heavy diurnal trace served as multi-turn sessions, the DVFS
/// governor strictly cuts average power against the fixed-clock fleet,
/// while re-pricing leaves every response bit unchanged.
#[test]
fn dvfs_cuts_average_power_on_a_diurnal_session_trace() {
    let rt = runtime(42);
    let backend = BackendKind::Accelerator.build();
    let fixed = serve(&rt, &backend, &chat(diurnal_config(&rt, ControllerKind::NoOp))).unwrap();
    let dvfs = serve(
        &rt,
        &backend,
        &chat(diurnal_config(&rt, ControllerKind::Dvfs(DvfsConfig::default()))),
    )
    .unwrap();
    assert_eq!(fixed.dropped, 0, "the calm session trace must not shed");
    assert_eq!(dvfs.dropped, 0);
    assert!(fixed.iterations > fixed.completed, "sessions must run decode steps");
    let (slow, _) = dvfs.clock_range();
    assert!(slow.freq_mhz < 400, "governor never left the nominal clock");
    assert!(
        dvfs.average_power_with_static_w() < fixed.average_power_with_static_w(),
        "DVFS must cut average session power: {} vs {} W",
        dvfs.average_power_with_static_w(),
        fixed.average_power_with_static_w()
    );
    assert_eq!(dvfs.digest, fixed.digest, "re-pricing must not touch response bits");
}

/// Controlled runs keep the thread-count byte-identity contract: an
/// autoscaler and a DVFS governor produce byte-identical reports for 1
/// and 4 worker threads.
#[test]
fn controlled_reports_are_byte_identical_across_thread_counts() {
    for controller in [
        ControllerKind::Autoscaler(AutoscalerConfig::default()),
        ControllerKind::Dvfs(DvfsConfig::default()),
    ] {
        let multi = with_num_threads(4, || {
            let rt = runtime(11);
            let cfg = surge_config(&rt, controller.clone());
            serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap()
        });
        let single = with_num_threads(1, || {
            let rt = runtime(11);
            let cfg = surge_config(&rt, controller.clone());
            serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap()
        });
        assert_eq!(multi, single, "{} diverged across thread counts", controller.name());
        assert_eq!(format!("{multi:?}"), format!("{single:?}"));
    }
}

/// Regression (satellite fix): a trace with a zero-duration segment must
/// sample, serve and account cleanly — no division by zero in the epoch
/// math, no lost requests — and a makespan landing exactly on an epoch
/// boundary reports a zero-length final epoch with zeroed rates.
#[test]
fn zero_duration_trace_segments_and_epochs_are_guarded() {
    let rt = runtime(42);
    let base = accel_capacity_rps(&rt, 2) * 0.5;
    let trace = TraceSchedule::new(
        "degenerate",
        vec![
            RateSegment::poisson(0, 4.0), // zero-length window
            RateSegment::poisson(us_for(8.0, base), 1.0),
            RateSegment::poisson(us_for(4.0, base), 0.0), // silent window
        ],
    );
    let cfg = ServeConfig {
        queue_capacity: 16,
        max_batch: MAX_BATCH,
        batch_overhead_us: OVERHEAD_US,
        shards: 2,
        arrival: ArrivalProcess::Trace(trace),
        control: ControlConfig {
            epoch_us: us_for(2.0, base),
            max_shards: 4,
            controller: ControllerKind::Autoscaler(AutoscalerConfig::default()),
        },
        ..ServeConfig::at_load(base, 48)
    };
    let report = serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap();
    assert_eq!(report.completed + report.dropped, 48, "conservation through degeneracy");
    for e in &report.timeline {
        for v in [e.offered_rps(), e.served_rps(), e.average_power_w(), e.joules_per_request()] {
            assert!(v.is_finite(), "epoch {} produced a non-finite rate", e.epoch);
        }
    }
    // Zero-length epochs (boundary-aligned makespan) report zeros.
    let boundary = defa_serve::EpochStat {
        epoch: 9,
        start_ns: 900,
        end_ns: 900,
        active_shards: 2,
        clock: DvfsPoint::NOMINAL,
        arrivals: 0,
        completed: 0,
        dropped: 0,
        slo_violations: 0,
        energy: defa_serve::EnergyBreakdown::ZERO,
        static_pj: 0,
    };
    assert_eq!(boundary.offered_rps(), 0.0);
    assert_eq!(boundary.average_power_w(), 0.0);
}

/// Drained shards disappear from routing but finish their in-flight
/// work exactly once — forced drain-happy settings on a calm trace must
/// not double-count or lose settled requests.
#[test]
fn drain_before_stop_settles_inflight_work_exactly_once() {
    let rt = runtime(7);
    let base = accel_capacity_rps(&rt, 4) * 0.3;
    let cfg = ServeConfig {
        queue_capacity: 32,
        max_batch: MAX_BATCH,
        batch_overhead_us: OVERHEAD_US,
        shards: 4,
        control: ControlConfig {
            epoch_us: us_for(1.0, base),
            max_shards: 4,
            controller: ControllerKind::Autoscaler(AutoscalerConfig {
                scale_up_queue: 64, // never scale up…
                scale_down_queue: 8,
                calm_epochs: 1, // …drain at every calm epoch
                min_shards: 1,
            }),
        },
        ..ServeConfig::at_load(base, 48)
    };
    let report = serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap();
    assert_eq!(report.completed + report.dropped, 48);
    let (lo, _) = report.shard_range();
    assert_eq!(lo, 1, "drain pressure must reach the floor");
    let completions: u64 =
        report.outcomes.iter().filter(|o| matches!(o, RequestOutcome::Completed { .. })).count()
            as u64;
    assert_eq!(completions, report.completed, "each settled exactly once");
}
