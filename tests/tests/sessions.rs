//! Sessions as the unit of serving: the redesigned API's contract.
//!
//! * A one-shot request **is** a session of length 1: running the
//!   serving stack with [`SessionProfile::ONE_SHOT`] spelled out
//!   explicitly reproduces the PR 2 pinned reports byte-for-byte — same
//!   digests, same makespans, same energy integers.
//! * Per-session iterations settle in order for every scheduler × router
//!   combination: within a session, iteration `k` settles strictly
//!   before iteration `k+1`, and nothing settles before the session
//!   arrives.
//! * Time-to-first-token never exceeds the session's total latency —
//!   pointwise, hence also at every histogram quantile.
//! * Session serving keeps the workspace determinism contract:
//!   byte-identical reports across `RAYON_NUM_THREADS`, and continuous
//!   batching strictly beats gang scheduling on TTFT p99 when a state
//!   budget constrains the fleet.

use defa_model::workload::RequestGenerator;
use defa_model::MsdaConfig;
use defa_parallel::with_num_threads;
use defa_serve::{
    BackendKind, ObsConfig, RouterKind, SchedulerKind, ServeConfig, ServeReport, ServeRuntime,
    ServeSpec, SessionConfig, SessionProfile, SpanEvent,
};
use std::collections::BTreeMap;

fn runtime(seed: u64) -> ServeRuntime {
    ServeRuntime::new(RequestGenerator::standard(&MsdaConfig::tiny(), seed).unwrap())
}

fn serve(
    rt: &ServeRuntime,
    backend: &std::sync::Arc<dyn defa_serve::Backend>,
    cfg: &ServeConfig,
) -> Result<ServeReport, defa_serve::ServeError> {
    rt.serve(&ServeSpec::homogeneous(backend, cfg))
}

/// Multi-turn sessions short enough to keep the policy sweep fast but
/// long enough that every run interleaves decode steps with prefills.
fn chatty_sessions() -> SessionConfig {
    SessionConfig {
        profile: SessionProfile { min_len: 2, max_len: 5, think_mean_us: 200 },
        state_budget: 0,
        gang: false,
    }
}

/// The default session configuration is one-shot: no session ever
/// outlives its prefill, so session state stays disabled entirely.
#[test]
fn default_session_config_is_the_one_shot_legacy_path() {
    let cfg = SessionConfig::default();
    assert_eq!(cfg.profile, SessionProfile::ONE_SHOT);
    assert!(!cfg.enabled());
    assert!(SessionProfile::ONE_SHOT.is_one_shot());
    assert_eq!(SessionProfile::ONE_SHOT.session_len(42, 7), 1);
    assert_eq!(SessionProfile::ONE_SHOT.think_ns(42, 7, 1), 0);
}

/// Spelling out `SessionProfile::ONE_SHOT` must reproduce the PR 2
/// pinned reports byte-for-byte: a request is exactly a session of
/// length 1, and the redesign is an extension, not a migration. Pins are
/// the `serving.rs` constants (captured from commit ce10ad6).
#[test]
fn one_shot_sessions_reproduce_the_pr2_pins_byte_for_byte() {
    let pins: [(BackendKind, f64, usize, u64, u64, u64, u64); 6] = [
        (BackendKind::Dense, 1_500.0, 20, 20, 0, 11_347_653, 0xe082_7f38_7350_66b5),
        (BackendKind::Dense, 5e6, 64, 24, 40, 158_003, 0xa3e1_da26_99ae_9cfa),
        (BackendKind::Pruned, 1_500.0, 20, 20, 0, 11_347_065, 0x7082_b6b7_3780_a6ac),
        (BackendKind::Pruned, 5e6, 64, 24, 40, 155_490, 0x070f_fb1d_0bfd_a452),
        (BackendKind::Accelerator, 1_500.0, 20, 20, 0, 11_348_613, 0x7082_b6b7_3780_a6ac),
        (BackendKind::Accelerator, 5e6, 64, 24, 40, 162_496, 0x070f_fb1d_0bfd_a452),
    ];
    let rt = runtime(42);
    for (kind, load, n, completed, dropped, makespan, digest) in pins {
        let cfg = ServeConfig {
            queue_capacity: 16,
            max_batch: 4,
            shards: 2,
            sessions: SessionConfig {
                profile: SessionProfile { min_len: 1, max_len: 1, think_mean_us: 0 },
                state_budget: 8,
                gang: false,
            },
            ..ServeConfig::at_load(load, n)
        };
        let report = serve(&rt, &kind.build(), &cfg).unwrap();
        let ctx = format!("{} at {load}", kind.name());
        assert_eq!(report.completed, completed, "{ctx}: completed");
        assert_eq!(report.dropped, dropped, "{ctx}: dropped");
        assert_eq!(report.makespan_ns, makespan, "{ctx}: makespan");
        assert_eq!(report.digest, digest, "{ctx}: digest");
        // The streaming view degenerates exactly: one iteration per
        // session, TTFT is the total latency.
        assert_eq!(report.iterations, report.completed, "{ctx}: iterations");
        assert_eq!(report.evictions, 0, "{ctx}: evictions");
        assert_eq!(report.ttft, report.total, "{ctx}: ttft histogram");
        assert_eq!(report.tbt.count(), 0, "{ctx}: tbt histogram");
    }
}

/// One traced session run per policy pair, with per-id settle times
/// reconstructed from the span trace.
fn traced_run(
    scheduler: SchedulerKind,
    router: RouterKind,
) -> (ServeReport, BTreeMap<u64, Vec<u64>>, BTreeMap<u64, u64>) {
    let rt = runtime(42);
    let cfg = ServeConfig {
        queue_capacity: 32,
        max_batch: 4,
        shards: 2,
        scheduler,
        router,
        obs: ObsConfig::full(),
        sessions: chatty_sessions(),
        ..ServeConfig::at_load(4_000.0, 24)
    };
    let report = serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap();
    let mut settles: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut arrivals: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in &report.obs.events {
        match ev {
            SpanEvent::Settled { t_ns, id, .. } => settles.entry(*id).or_default().push(*t_ns),
            SpanEvent::Arrival { t_ns, id, .. } => {
                arrivals.insert(*id, *t_ns);
            }
            _ => {}
        }
    }
    (report, settles, arrivals)
}

/// Property: for every scheduler × router combination, a session's
/// iterations settle in iteration order — each settle strictly after the
/// previous one, none before the session arrived — and every completed
/// session settles at least `min_len` times.
#[test]
fn iterations_settle_in_order_for_every_policy_combination() {
    for scheduler in SchedulerKind::all() {
        for router in RouterKind::all() {
            let (report, settles, arrivals) = traced_run(scheduler, router);
            let ctx = format!("{}/{}", scheduler.name(), router.name());
            assert_eq!(report.completed + report.dropped, 24, "{ctx}: conservation");
            assert!(report.completed > 0, "{ctx}: nothing completed");
            let sessions_with_settles = settles.len() as u64;
            assert_eq!(sessions_with_settles, report.completed, "{ctx}: settled sessions");
            let mut total_settles = 0u64;
            for (id, times) in &settles {
                total_settles += times.len() as u64;
                assert!(
                    times.len() >= 2,
                    "{ctx}: session {id} settled {} times, min_len is 2",
                    times.len()
                );
                let arrival = arrivals[id];
                assert!(
                    times[0] > arrival,
                    "{ctx}: session {id} settled at {} before arriving at {arrival}",
                    times[0]
                );
                for w in times.windows(2) {
                    assert!(
                        w[1] > w[0],
                        "{ctx}: session {id} iterations settled out of order ({} then {})",
                        w[0],
                        w[1]
                    );
                }
            }
            assert_eq!(total_settles, report.iterations, "{ctx}: one settle per iteration");
        }
    }
}

/// Property: time-to-first-token is bounded by the session's total
/// latency, pointwise per session — so the TTFT histogram is dominated
/// by the total histogram at every quantile, for every scheduler ×
/// router combination.
#[test]
fn ttft_never_exceeds_total_latency_for_every_policy_combination() {
    for scheduler in SchedulerKind::all() {
        for router in RouterKind::all() {
            let (report, settles, arrivals) = traced_run(scheduler, router);
            let ctx = format!("{}/{}", scheduler.name(), router.name());
            for (id, times) in &settles {
                let arrival = arrivals[id];
                let ttft = times[0] - arrival;
                let total = times[times.len() - 1] - arrival;
                assert!(ttft <= total, "{ctx}: session {id} TTFT {ttft} > total {total}");
            }
            assert_eq!(report.ttft.count(), report.completed, "{ctx}: one TTFT per session");
            assert_eq!(report.total.count(), report.completed, "{ctx}: one total per session");
            assert!(report.ttft.p50_ns() <= report.total.p50_ns(), "{ctx}: p50");
            assert!(report.ttft.p95_ns() <= report.total.p95_ns(), "{ctx}: p95");
            assert!(report.ttft.p99_ns() <= report.total.p99_ns(), "{ctx}: p99");
        }
    }
}

/// Session serving keeps the workspace determinism contract: the full
/// report — TTFT/TBT histograms, evictions, span trace and all — is
/// byte-identical across worker-thread counts.
#[test]
fn session_reports_are_byte_identical_across_thread_counts() {
    let cfg = ServeConfig {
        queue_capacity: 32,
        max_batch: 4,
        shards: 2,
        obs: ObsConfig::full(),
        sessions: SessionConfig { state_budget: 3, ..chatty_sessions() },
        ..ServeConfig::at_load(6_000.0, 24)
    };
    let multi = with_num_threads(4, || {
        let rt = runtime(11);
        serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap()
    });
    let single = with_num_threads(1, || {
        let rt = runtime(11);
        serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap()
    });
    assert_eq!(multi, single, "session report diverged across thread counts");
    assert_eq!(format!("{multi:?}"), format!("{single:?}"));
}

/// The tentpole claim: under a state-budget-constrained fleet,
/// iteration-level continuous batching strictly beats gang-scheduled
/// sessions on TTFT p99 — gang sessions hold their batch slot and state
/// through every think time, so new prefills starve behind idle
/// residents.
#[test]
fn continuous_batching_beats_gang_on_ttft_p99_under_a_constrained_budget() {
    let rt = runtime(42);
    let base = ServeConfig {
        queue_capacity: 64,
        max_batch: 4,
        shards: 2,
        sessions: SessionConfig {
            profile: SessionProfile { min_len: 3, max_len: 6, think_mean_us: 500 },
            state_budget: 4,
            gang: false,
        },
        ..ServeConfig::at_load(6_000.0, 32)
    };
    let backend = BackendKind::Accelerator.build();
    let continuous = serve(&rt, &backend, &base).unwrap();
    let gang = serve(
        &rt,
        &backend,
        &ServeConfig { sessions: SessionConfig { gang: true, ..base.sessions }, ..base.clone() },
    )
    .unwrap();
    assert!(
        continuous.ttft.p99_ns() < gang.ttft.p99_ns(),
        "continuous batching must cut TTFT p99 under a constrained budget ({} vs {})",
        continuous.ttft.p99_ns(),
        gang.ttft.p99_ns()
    );
}
