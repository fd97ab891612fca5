//! `defa_serve::obs` — the deterministic observability layer of the
//! serving engine.
//!
//! Production serving stacks ship tracing and metrics as a first-class
//! subsystem so operators can attribute p99 spikes and power excursions
//! to specific shards, epochs and policy decisions. This module does the
//! same for the discrete-event engine — *deterministically*: everything
//! it records is keyed to the virtual clock and the seeded request
//! stream, so the full observability output is byte-identical across
//! `RAYON_NUM_THREADS`, shard counts and batch compositions, exactly
//! like every other report surface.
//!
//! Three pillars, each independently switchable via [`ObsConfig`]:
//!
//! * **Structured span tracing** ([`trace`]) — each request's lifecycle
//!   (arrival → admit/drop → schedule → dispatch → settle) emits typed
//!   [`SpanEvent`]s on the virtual clock, gated per request by a seeded
//!   [`SpanSampler`] (`trace_sample` of the id space, a pure function of
//!   `(seed, id)`), into a bounded buffer. The buffer exports as Chrome
//!   `trace_event` JSON ([`ObsReport::chrome_trace`]) loadable in
//!   Perfetto or `chrome://tracing`: one track per shard plus
//!   requests/controller/epoch tracks.
//! * **Metrics registry** ([`metrics`]) — named counters, gauges and
//!   log2 histograms (queue depth, in-flight requests, batch occupancy,
//!   per-shard energy, scheduler decisions, event-heap depth)
//!   snapshotted at every *stepped* epoch boundary into a bounded
//!   time-series. All values are integers; the `serve_obs` bench bin
//!   serializes them through `defa_bench::json`.
//! * **Self-profiling** ([`profile`]) — wall-clock scoped timers around
//!   the engine's hot paths (event pop, arrival pull, dispatch, settle,
//!   controller step). Wall time is inherently nondeterministic, so the
//!   profile is **excluded from every determinism surface**:
//!   [`ObsReport`]'s `PartialEq` ignores it, and its JSON fields use the
//!   `*_wall_ns` suffix the `bench_diff` gate treats as informational.
//!
//! # Zero overhead when disabled
//!
//! The default [`ObsConfig`] disables all three pillars. Every runtime
//! hook starts with an inlined boolean check and returns immediately, no
//! buffers are allocated, and the virtual schedule itself is never
//! consulted or altered — which is why all pre-observability digest and
//! fingerprint pins hold unchanged, and why the `serve_scale` CI floor
//! keeps gating the disabled-path speed.

pub mod metrics;
pub mod profile;
pub mod trace;

pub use metrics::{CounterId, GaugeId, HistId, Log2Histogram, Metric, MetricsRegistry};
pub use profile::{ProfSection, SectionStat, SelfProfile};
pub use trace::{chrome_trace, SpanEvent, SpanSampler, TraceBuffer};

use crate::control::DvfsPoint;

/// Default span-buffer capacity: deep enough for every test/bench scale
/// at full sampling, bounded so trace-scale runs cannot grow without
/// limit (overflow is counted, never silently lost).
pub const DEFAULT_TRACE_BUFFER: usize = 65_536;

/// Default metrics time-series capacity (snapshots, one per stepped
/// epoch boundary).
pub const DEFAULT_METRICS_BUFFER: usize = 4_096;

/// Observability configuration: which pillars are on and how much they
/// may buffer.
///
/// The default is fully disabled — the zero-overhead path every
/// existing pin runs on. See [`crate::config::ServeConfig::validate`]
/// for the accepted ranges (`trace_sample` must be a finite fraction in
/// `[0, 1]`; enabled buffers must have positive capacity).
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Record structured span events.
    pub tracing: bool,
    /// Fraction of request ids whose lifecycle spans are recorded,
    /// decided per id by the seeded [`SpanSampler`] (1.0 = every
    /// request). Fleet-level events (dispatch, epoch, control) are
    /// recorded whenever tracing is on, regardless of the sample rate.
    pub trace_sample: f64,
    /// Span-buffer capacity in events; overflow increments
    /// [`ObsReport::events_dropped`] deterministically.
    pub trace_buffer: usize,
    /// Maintain the metrics registry and its epoch-boundary snapshots.
    pub metrics: bool,
    /// Metrics time-series capacity in snapshots.
    pub metrics_buffer: usize,
    /// Run wall-clock scoped timers around the engine hot paths. The
    /// resulting [`SelfProfile`] is excluded from all determinism
    /// surfaces.
    pub profile: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            tracing: false,
            trace_sample: 1.0,
            trace_buffer: DEFAULT_TRACE_BUFFER,
            metrics: false,
            metrics_buffer: DEFAULT_METRICS_BUFFER,
            profile: false,
        }
    }
}

impl ObsConfig {
    /// The zero-overhead default: everything off.
    pub fn disabled() -> Self {
        ObsConfig::default()
    }

    /// Span tracing at the given sample rate, other pillars off.
    pub fn tracing_at(trace_sample: f64) -> Self {
        ObsConfig { tracing: true, trace_sample, ..ObsConfig::default() }
    }

    /// Full deterministic observability: tracing at 1.0 plus the metrics
    /// registry. Profiling stays off — it is wall-clock and opt-in.
    pub fn full() -> Self {
        ObsConfig { tracing: true, metrics: true, ..ObsConfig::default() }
    }

    /// This configuration with the metrics registry on.
    pub fn with_metrics(self) -> Self {
        ObsConfig { metrics: true, ..self }
    }

    /// This configuration with wall-clock self-profiling on.
    pub fn with_profile(self) -> Self {
        ObsConfig { profile: true, ..self }
    }

    /// Whether any pillar is enabled.
    pub fn enabled(&self) -> bool {
        self.tracing || self.metrics || self.profile
    }
}

/// The observability section of a [`crate::ServeReport`].
///
/// Always present; empty (and equal to [`ObsReport::disabled`]) when the
/// run's [`ObsConfig`] had every pillar off.
///
/// # Determinism
///
/// `events`, `events_dropped`, `sampled_requests` and `metrics` are
/// outputs of the virtual schedule and byte-identical across thread
/// counts. `profile` is wall clock and therefore **ignored by this
/// type's `PartialEq`** — two runs with identical schedules compare
/// equal however long they took.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// The configuration the run observed under.
    pub config: ObsConfig,
    /// Recorded span events, in engine processing order. Per request
    /// the sub-sequence is monotone in virtual time (arrival ≤ admit ≤
    /// schedule ≤ settle).
    pub events: Vec<SpanEvent>,
    /// Span events discarded because the bounded buffer was full.
    pub events_dropped: u64,
    /// Arrivals the seeded sampler selected for lifecycle tracing.
    pub sampled_requests: u64,
    /// Fleet size of the run (sizes the per-shard Chrome tracks).
    pub fleet_size: usize,
    /// The metrics registry with its epoch snapshot series, when the
    /// metrics pillar was on.
    pub metrics: Option<MetricsRegistry>,
    /// Wall-clock self-profile of the engine hot paths (all zero unless
    /// profiling was on). Excluded from `PartialEq`.
    pub profile: SelfProfile,
}

impl PartialEq for ObsReport {
    fn eq(&self, other: &Self) -> bool {
        // `profile` is wall clock — deliberately not compared.
        self.config == other.config
            && self.events == other.events
            && self.events_dropped == other.events_dropped
            && self.sampled_requests == other.sampled_requests
            && self.fleet_size == other.fleet_size
            && self.metrics == other.metrics
    }
}

impl ObsReport {
    /// The empty report of a fully disabled run.
    pub fn disabled() -> Self {
        ObsReport {
            config: ObsConfig::disabled(),
            events: Vec::new(),
            events_dropped: 0,
            sampled_requests: 0,
            fleet_size: 0,
            metrics: None,
            profile: SelfProfile::default(),
        }
    }

    /// Whether any pillar was enabled for the run.
    pub fn enabled(&self) -> bool {
        self.config.enabled()
    }

    /// The recorded spans as a Chrome `trace_event` JSON document — open
    /// it in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
    /// A pure function of the recorded events: byte-identical whenever
    /// the virtual schedule is.
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.events, self.fleet_size)
    }

    /// The span events of one request id, in recorded order.
    pub fn request_events(&self, id: u64) -> Vec<&SpanEvent> {
        self.events.iter().filter(|e| e.request_id() == Some(id)).collect()
    }
}

/// Internal ids of the metrics the runtime registers (see the serve
/// README for the full name/unit table).
#[derive(Debug)]
struct MetricIds {
    arrivals: CounterId,
    admitted: CounterId,
    dropped: CounterId,
    completed: CounterId,
    slo_violations: CounterId,
    sched_decisions: CounterId,
    shard_energy: Vec<CounterId>,
    queue_depth: GaugeId,
    inflight: GaugeId,
    events_depth: GaugeId,
    shard_free_events: GaugeId,
    active_shards: GaugeId,
    clock_mhz: GaugeId,
    batch_occupancy: HistId,
    /// Session counters; `None` under a one-shot profile so its
    /// registry (and every obs pin) keeps the exact pre-session metric
    /// set.
    iterations: Option<CounterId>,
    evictions: Option<CounterId>,
}

/// The live observability collector threaded through one `serve`
/// call. Every hook is `#[inline]` and bails on a single boolean when
/// the corresponding pillar is off.
#[derive(Debug)]
pub(crate) struct Obs {
    config: ObsConfig,
    /// Hot-path guard: any deterministic pillar on.
    on: bool,
    tracing: bool,
    sampler: SpanSampler,
    buf: TraceBuffer,
    sampled_requests: u64,
    metrics: Option<(MetricsRegistry, MetricIds)>,
    profile_on: bool,
    profile: SelfProfile,
    fleet_size: usize,
}

impl Obs {
    /// A collector for one run: `seed` is the generator seed (the
    /// sampler salts it), `fleet_size` the full fleet including
    /// autoscaling headroom. `sessions` registers the session counters
    /// (iterations, evictions); one-shot runs pass `false` so their
    /// metric set — and every obs pin on it — is unchanged.
    pub(crate) fn new(config: &ObsConfig, seed: u64, fleet_size: usize, sessions: bool) -> Self {
        let metrics = config.metrics.then(|| {
            let mut reg = MetricsRegistry::new(config.metrics_buffer);
            let ids = MetricIds {
                arrivals: reg.counter("requests.arrivals", "req"),
                admitted: reg.counter("requests.admitted", "req"),
                dropped: reg.counter("requests.dropped", "req"),
                completed: reg.counter("requests.completed", "req"),
                slo_violations: reg.counter("requests.slo_violations", "req"),
                sched_decisions: reg.counter("sched.decisions", "batches"),
                shard_energy: (0..fleet_size)
                    .map(|s| reg.counter(format!("shard{s}.energy_pj"), "pJ"))
                    .collect(),
                queue_depth: reg.gauge("queue.depth", "req"),
                inflight: reg.gauge("inflight.members", "req"),
                events_depth: reg.gauge("events.depth", "events"),
                shard_free_events: reg.gauge("events.shard_free", "events"),
                active_shards: reg.gauge("fleet.active_shards", "shards"),
                clock_mhz: reg.gauge("fleet.clock_mhz", "MHz"),
                batch_occupancy: reg.histogram("batch.occupancy", "req/batch"),
                iterations: sessions.then(|| reg.counter("requests.iterations", "iters")),
                evictions: sessions.then(|| reg.counter("sessions.evictions", "sessions")),
            };
            (reg, ids)
        });
        Obs {
            on: config.tracing || config.metrics,
            tracing: config.tracing,
            sampler: SpanSampler::new(seed, config.trace_sample),
            buf: TraceBuffer::new(if config.tracing { config.trace_buffer } else { 0 }),
            sampled_requests: 0,
            metrics,
            profile_on: config.profile,
            profile: SelfProfile::default(),
            fleet_size,
            config: config.clone(),
        }
    }

    #[inline]
    fn sampled(&self, id: u64) -> bool {
        self.tracing && self.sampler.sampled(id)
    }

    /// One arrival was offered to admission.
    #[inline]
    pub(crate) fn on_arrival(&mut self, t_ns: u64, id: u64, scenario: usize) {
        if !self.on {
            return;
        }
        if self.sampled(id) {
            self.sampled_requests += 1;
            self.buf.push(SpanEvent::Arrival { t_ns, id, scenario });
        }
        if let Some((reg, ids)) = &mut self.metrics {
            reg.inc(ids.arrivals, 1);
        }
    }

    /// The arrival entered the queue (`queue_depth` = depth after).
    #[inline]
    pub(crate) fn on_admitted(&mut self, t_ns: u64, id: u64, queue_depth: usize) {
        if !self.on {
            return;
        }
        if self.sampled(id) {
            self.buf.push(SpanEvent::Admitted { t_ns, id, queue_depth });
        }
        if let Some((reg, ids)) = &mut self.metrics {
            reg.inc(ids.admitted, 1);
        }
    }

    /// A request was dropped at `t_ns` (its own arrival under tail drop;
    /// the evicted waiter's drop happens at the newcomer's arrival).
    #[inline]
    pub(crate) fn on_dropped(&mut self, t_ns: u64, id: u64) {
        if !self.on {
            return;
        }
        if self.sampled(id) {
            self.buf.push(SpanEvent::Dropped { t_ns, id });
        }
        if let Some((reg, ids)) = &mut self.metrics {
            reg.inc(ids.dropped, 1);
        }
    }

    /// A batch was formed and placed on a shard.
    #[inline]
    pub(crate) fn on_dispatch(
        &mut self,
        start_ns: u64,
        batch: u64,
        shard: usize,
        size: usize,
        clock: DvfsPoint,
    ) {
        if !self.on {
            return;
        }
        if self.tracing {
            self.buf.push(SpanEvent::Dispatched {
                t_ns: start_ns,
                batch,
                shard,
                size,
                clock_mhz: clock.freq_mhz,
            });
        }
        if let Some((reg, ids)) = &mut self.metrics {
            reg.inc(ids.sched_decisions, 1);
            reg.observe(ids.batch_occupancy, size as u64);
        }
    }

    /// One sampled request was scheduled into the dispatched batch.
    #[inline]
    pub(crate) fn on_scheduled(&mut self, start_ns: u64, id: u64, batch: u64, shard: usize) {
        if self.on && self.sampled(id) {
            self.buf.push(SpanEvent::Scheduled { t_ns: start_ns, id, batch, shard });
        }
    }

    /// One request settled at completion time `t_ns`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_settle(
        &mut self,
        t_ns: u64,
        id: u64,
        shard: usize,
        batch: u64,
        queue_ns: u64,
        compute_ns: u64,
        violated: bool,
        energy_pj: u128,
    ) {
        if !self.on {
            return;
        }
        if self.sampled(id) {
            self.buf.push(SpanEvent::Settled {
                t_ns,
                id,
                shard,
                batch,
                queue_ns,
                compute_ns,
                violated,
            });
        }
        if let Some((reg, ids)) = &mut self.metrics {
            reg.inc(ids.completed, 1);
            if violated {
                reg.inc(ids.slo_violations, 1);
            }
            reg.inc(ids.shard_energy[shard], energy_pj);
        }
    }

    /// A stepped epoch boundary, after the controller's actions applied.
    /// Gauges are set to the boundary-instant values and the registry
    /// snapshots the time-series row.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_epoch(
        &mut self,
        t_ns: u64,
        epoch: u64,
        active_shards: usize,
        queue_depth: usize,
        clock: DvfsPoint,
        inflight: u64,
        events_depth: u64,
        shard_free_events: u64,
    ) {
        if !self.on {
            return;
        }
        if self.tracing {
            self.buf.push(SpanEvent::Epoch {
                t_ns,
                epoch,
                active_shards,
                queue_depth,
                clock_mhz: clock.freq_mhz,
            });
        }
        if let Some((reg, ids)) = &mut self.metrics {
            reg.set(ids.queue_depth, queue_depth as u128);
            reg.set(ids.inflight, inflight as u128);
            reg.set(ids.events_depth, events_depth as u128);
            reg.set(ids.shard_free_events, shard_free_events as u128);
            reg.set(ids.active_shards, active_shards as u128);
            reg.set(ids.clock_mhz, clock.freq_mhz as u128);
            reg.snapshot(epoch, t_ns);
        }
    }

    /// One session iteration settled (prefill or decode step). Counted
    /// only when the session counters are registered — a one-shot
    /// request's single iteration is already accounted by
    /// [`Self::on_settle`].
    #[inline]
    pub(crate) fn on_iteration(&mut self) {
        if let Some((reg, ids)) = &mut self.metrics {
            if let Some(c) = ids.iterations {
                reg.inc(c, 1);
            }
        }
    }

    /// A resident session's shard state was evicted to respect the
    /// state budget; its next decode step will pay a prefill recompute.
    #[inline]
    pub(crate) fn on_evicted(&mut self, t_ns: u64, id: u64) {
        if !self.on {
            return;
        }
        if self.sampled(id) {
            // An eviction ends the session's residency the way a drop
            // ends a request's life in the queue — reuse the span so the
            // trace schema (and its exporters) stay fixed; the session's
            // later `Settled` spans distinguish it from a real drop.
            self.buf.push(SpanEvent::Dropped { t_ns, id });
        }
        if let Some((reg, ids)) = &mut self.metrics {
            if let Some(c) = ids.evictions {
                reg.inc(c, 1);
            }
        }
    }

    /// One control action applied at an epoch boundary.
    #[inline]
    pub(crate) fn on_control(&mut self, t_ns: u64, epoch: u64, action: &crate::ControlAction) {
        if self.on && self.tracing {
            let clock_mhz = match action {
                crate::ControlAction::SetClock(p) => p.freq_mhz,
                _ => 0,
            };
            self.buf.push(SpanEvent::Control {
                t_ns,
                epoch,
                action: action.kind_label(),
                clock_mhz,
            });
        }
    }

    // `prof_begin` / `prof_end` — the only host-clock readers in the
    // serving stack — live in [`profile`], the one module the
    // `no-wall-clock` rule of `defa-analysis` sanctions.

    /// Folds the collector into the report section.
    pub(crate) fn finish(self) -> ObsReport {
        let (events, events_dropped) = self.buf.into_parts();
        ObsReport {
            config: self.config,
            events,
            events_dropped,
            sampled_requests: self.sampled_requests,
            fleet_size: self.fleet_size,
            metrics: self.metrics.map(|(reg, _)| reg),
            profile: self.profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_fully_disabled() {
        let cfg = ObsConfig::default();
        assert!(!cfg.enabled());
        assert_eq!(cfg, ObsConfig::disabled());
        assert!(ObsConfig::tracing_at(0.5).enabled());
        assert!(ObsConfig::full().tracing && ObsConfig::full().metrics);
        assert!(!ObsConfig::full().profile, "profiling is wall clock and stays opt-in");
        assert!(ObsConfig::disabled().with_profile().enabled());
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let mut obs = Obs::new(&ObsConfig::disabled(), 42, 2, false);
        obs.on_arrival(10, 0, 1);
        obs.on_admitted(10, 0, 1);
        obs.on_dropped(20, 1);
        obs.on_dispatch(30, 0, 0, 2, DvfsPoint::NOMINAL);
        obs.on_settle(40, 0, 0, 0, 5, 5, false, 100);
        obs.on_epoch(50, 0, 2, 0, DvfsPoint::NOMINAL, 0, 3, 2);
        let r = obs.finish();
        assert_eq!(r, ObsReport { fleet_size: 2, ..ObsReport::disabled() });
        assert!(r.events.is_empty());
        assert!(r.metrics.is_none());
        assert_eq!(r.profile.total_wall_ns(), 0);
    }

    #[test]
    fn partial_eq_ignores_the_wall_clock_profile() {
        let mut a = ObsReport::disabled();
        let b = ObsReport::disabled();
        a.profile.add(ProfSection::Settle, 12_345);
        assert_eq!(a, b, "profile must not break report equality");
        let mut c = ObsReport::disabled();
        c.events_dropped = 1;
        assert_ne!(c, b);
    }

    #[test]
    fn session_counters_register_only_for_the_session_engine() {
        let cfg = ObsConfig::disabled().with_metrics();
        let mut legacy = Obs::new(&cfg, 42, 1, false);
        legacy.on_iteration();
        legacy.on_evicted(10, 0);
        let baseline = Obs::new(&cfg, 42, 1, false).finish();
        assert_eq!(
            legacy.finish().metrics,
            baseline.metrics,
            "legacy registry has no session counters, so the hooks are no-ops"
        );
        let mut sess = Obs::new(&cfg, 42, 1, true);
        sess.on_iteration();
        sess.on_evicted(10, 0);
        assert_ne!(sess.finish().metrics, baseline.metrics, "session counters count");
    }

    #[test]
    fn collector_counts_sampled_arrivals_exactly() {
        let cfg = ObsConfig::tracing_at(0.5);
        let mut obs = Obs::new(&cfg, 42, 1, false);
        let sampler = SpanSampler::new(42, 0.5);
        let n = 256u64;
        for id in 0..n {
            obs.on_arrival(id * 10, id, 0);
        }
        let expect = (0..n).filter(|&id| sampler.sampled(id)).count() as u64;
        let r = obs.finish();
        assert_eq!(r.sampled_requests, expect);
        assert_eq!(r.events.len(), expect as usize);
        assert!(expect > 0 && expect < n, "rate 0.5 should be strictly partial");
    }
}
