//! Serving outcomes and the per-run report.
//!
//! The report layer is deliberately passive: the runtime settles batches
//! in virtual-time order and pushes integers here — latencies into
//! fixed-bucket histograms, energies into fixed-point totals — so a
//! [`ServeReport`] is byte-identical whenever the virtual schedule is,
//! regardless of thread count, batch size or shard count. Every derived
//! metric (req/s, drop fraction, J/req, GOPS/W, SLO violation rate) is
//! computed from those integers on demand, never accumulated in floats.

use crate::config::ServeConfig;
use crate::control::DvfsPoint;
use crate::energy::{fmt_joules, EnergyBreakdown};
use crate::histogram::{fmt_ns, LatencyHistogram};
use crate::obs::ObsReport;
use defa_model::workload::SloClass;
use std::fmt;

/// What happened to one request, indexed by request id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Served: response digest plus the virtual-time latency split.
    Completed {
        /// Scenario the request drew.
        scenario: usize,
        /// SLO class the request was held to.
        slo: SloClass,
        /// Virtual arrival time (what the timeline attributes offered
        /// load by).
        arrival_ns: u64,
        /// Digest of the response features.
        digest: u64,
        /// Shard that served it.
        shard: usize,
        /// Batch it rode in (global batch counter).
        batch: u64,
        /// Admission-queue wait (batch start − arrival).
        queue_ns: u64,
        /// Service time including dispatch overhead and in-batch
        /// serialization (completion − batch start).
        compute_ns: u64,
        /// Modeled energy this request cost its backend (integer
        /// picojoules; see [`crate::energy`]).
        energy: EnergyBreakdown,
    },
    /// Rejected at admission: the queue was full.
    Dropped {
        /// Virtual arrival time of the rejected request.
        arrival_ns: u64,
    },
}

impl RequestOutcome {
    /// Whether a completed request blew its SLO budget (total latency
    /// above the class deadline). Drops never count here — they are
    /// accounted separately.
    pub fn violated_slo(&self) -> bool {
        match self {
            RequestOutcome::Completed { slo, queue_ns, compute_ns, .. } => {
                queue_ns + compute_ns > slo.deadline_ns()
            }
            RequestOutcome::Dropped { .. } => false,
        }
    }
}

/// Peak live-state accounting of the event loop — exact integers, so
/// the "memory is bounded by in-flight work, not trace length" contract
/// is asserted by tests and benches rather than assumed.
///
/// All counts are high-water marks over one run. They are *outputs* of
/// the same deterministic virtual schedule that pins the digests, so
/// they too are byte-identical across thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LiveStats {
    /// Max requests alive at once: queued + riding an in-flight batch.
    pub peak_inflight: u64,
    /// Max pending events in the event list (all classes: the epoch
    /// boundary, the arrival cursor, and per-shard free events).
    pub peak_events: u64,
    /// Max depth of the settle-order reorder window that folds
    /// per-request digests back into id order.
    pub peak_reorder: u64,
    /// Epoch boundaries the control loop actually stepped (controller
    /// observed).
    pub epochs_stepped: u64,
    /// Epoch boundaries fast-forwarded over idle gaps with a quiescent
    /// controller (skip-ahead; see `Controller::quiescent`).
    pub epochs_skipped: u64,
}

/// One control epoch of a run: fleet state plus exact by-timestamp
/// accounting of the load that fell into its window.
///
/// Epochs are half-open windows `[start_ns, end_ns)` of the virtual
/// clock; the final epoch is truncated at the makespan and may therefore
/// be **zero-length** (makespan on a boundary). Every rate/mean method
/// guards that case and returns 0 instead of dividing by zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochStat {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Window start (inclusive), virtual ns.
    pub start_ns: u64,
    /// Window end (exclusive), virtual ns; truncated to the makespan.
    pub end_ns: u64,
    /// Shards accepting new batches during the epoch.
    pub active_shards: usize,
    /// Clock the fleet dispatched at during the epoch.
    pub clock: DvfsPoint,
    /// Arrivals whose (virtual) arrival time fell in the window.
    pub arrivals: u64,
    /// Requests whose completion time fell in the window.
    pub completed: u64,
    /// Dropped arrivals whose arrival time fell in the window.
    pub dropped: u64,
    /// Completions in the window that blew their SLO budget.
    pub slo_violations: u64,
    /// Per-request energy of the window's completions (repriced for the
    /// clock their batch dispatched at).
    pub energy: EnergyBreakdown,
    /// Idle (static) energy of the window: Σ active shards' idle power ×
    /// window duration, in integer picojoules.
    pub static_pj: u128,
}

impl EpochStat {
    /// Window length in nanoseconds (0 for a boundary-aligned final
    /// epoch).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Offered rate over the window in requests per virtual second (0
    /// for a zero-length window).
    pub fn offered_rps(&self) -> f64 {
        let d = self.duration_ns();
        if d == 0 {
            0.0
        } else {
            self.arrivals as f64 / (d as f64 * 1e-9)
        }
    }

    /// Served rate over the window in requests per virtual second (0 for
    /// a zero-length window).
    pub fn served_rps(&self) -> f64 {
        let d = self.duration_ns();
        if d == 0 {
            0.0
        } else {
            self.completed as f64 / (d as f64 * 1e-9)
        }
    }

    /// Mean per-request energy of the window's completions in joules (0
    /// when nothing completed).
    pub fn joules_per_request(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.energy.total_joules() / self.completed as f64
        }
    }

    /// Average power over the window in watts — request energy plus
    /// static energy over the duration (0 for a zero-length window).
    pub fn average_power_w(&self) -> f64 {
        let d = self.duration_ns();
        if d == 0 {
            0.0
        } else {
            (self.energy.total_pj() + self.static_pj) as f64 * 1e-12 / (d as f64 * 1e-9)
        }
    }
}

/// The outcome of serving one trace at one operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Fleet display name: the backend's name, or the distinct backend
    /// names joined with `+` for a heterogeneous fleet.
    pub backend: String,
    /// The operating point served.
    pub config: ServeConfig,
    /// Requests completed.
    pub completed: u64,
    /// Requests dropped by backpressure.
    pub dropped: u64,
    /// Completed requests whose total latency exceeded their SLO budget.
    /// A multi-iteration session violates when its TTFT or any TBT blows
    /// the class streaming budget.
    pub slo_violations: u64,
    /// Iterations settled (prefill + decode steps). Equals `completed`
    /// under a one-shot profile, where every request is a
    /// single-iteration session.
    pub iterations: u64,
    /// Session evictions forced by the per-shard state budget (each
    /// eviction prices a prefill recompute into the session's next
    /// decode step). Always 0 under a one-shot profile.
    pub evictions: u64,
    /// Completed sessions whose time-to-first-token exceeded the class
    /// streaming budget ([`SloClass::streaming_budgets`]).
    pub ttft_violations: u64,
    /// Decode iterations whose time-between-tokens exceeded the class
    /// streaming budget. Always 0 under a one-shot profile.
    pub tbt_violations: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Sum of batch sizes (for the mean).
    pub batched_requests: u64,
    /// Admission-queue wait per completed request.
    pub queue: LatencyHistogram,
    /// Service time per completed request.
    pub compute: LatencyHistogram,
    /// End-to-end latency per completed request. For a multi-iteration
    /// session this spans arrival to final-iteration settle, think times
    /// included.
    pub total: LatencyHistogram,
    /// Time to first token per completed session: first-iteration settle
    /// minus arrival. Under a one-shot profile every request is a
    /// single-iteration session, so this equals `total`.
    pub ttft: LatencyHistogram,
    /// Time between tokens per decode iteration: settle minus the
    /// instant the iteration became ready (think time elapsed). Empty
    /// under a one-shot profile.
    pub tbt: LatencyHistogram,
    /// Virtual time at which the last batch finished.
    pub makespan_ns: u64,
    /// Total energy of all completed requests, in integer picojoules
    /// (fixed-point: byte-identical across thread counts, shard counts and
    /// batch sizes — see [`crate::energy`]).
    pub energy: EnergyBreakdown,
    /// Dense-equivalent attention FLOPs completed (sum over completed
    /// requests) — the numerator of the effective GOPS/W metric.
    pub dense_flops: u128,
    /// FNV fold of all per-request digests in id order (drops included as
    /// markers) — one number that pins every response bit.
    pub digest: u64,
    /// Per-request outcomes for the *first*
    /// [`ServeConfig::outcome_capture`] request ids — a debug capture,
    /// indexed by request id within its (possibly truncated) prefix.
    /// Every aggregate field of the report covers all requests
    /// regardless of this cap; see the config field for the memory
    /// contract.
    pub outcomes: Vec<RequestOutcome>,
    /// Requests each shard completed, indexed by shard — streamed at
    /// settle time, so it covers all requests even beyond the outcome
    /// capture cap.
    pub per_shard_completed: Vec<u64>,
    /// Peak live-state accounting of the event loop (exact integers).
    pub live: LiveStats,
    /// The control-epoch timeline covering `[0, makespan_ns)` — fleet
    /// state plus exact by-timestamp load/energy accounting per epoch.
    pub timeline: Vec<EpochStat>,
    /// Total idle (static) energy over the run in integer picojoules —
    /// the Σ of the timeline's `static_pj`. Kept separate from `energy`
    /// so per-request attribution (and its byte-compat pins) is
    /// untouched.
    pub static_energy_pj: u128,
    /// The observability section: recorded spans, the metrics registry
    /// and the wall-clock self-profile. Empty (and equal to
    /// [`ObsReport::disabled`]) unless [`ServeConfig::obs`] enabled a
    /// pillar; its `PartialEq` ignores the wall-clock profile, so
    /// report equality stays a virtual-schedule statement.
    pub obs: ObsReport,
}

impl ServeReport {
    /// Completed requests per virtual second.
    pub fn achieved_rps(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.completed as f64 / (self.makespan_ns as f64 * 1e-9)
        }
    }

    /// Fraction of *observed arrivals* rejected by backpressure.
    ///
    /// The denominator is what actually arrived (`completed + dropped`),
    /// not the configured trace length — for a full trace the two
    /// coincide, but a partial-trace run must not silently under-report
    /// its drop rate.
    pub fn drop_fraction(&self) -> f64 {
        let arrivals = self.completed + self.dropped;
        if arrivals == 0 {
            0.0
        } else {
            self.dropped as f64 / arrivals as f64
        }
    }

    /// Fraction of completed requests that blew their SLO budget.
    pub fn slo_violation_fraction(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.slo_violations as f64 / self.completed as f64
        }
    }

    /// Mean requests per dispatched batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// Mean energy per completed request in joules (0 when nothing
    /// completed).
    pub fn joules_per_request(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.energy.total_joules() / self.completed as f64
        }
    }

    /// Completed requests per joule (0 when no energy was spent).
    pub fn requests_per_joule(&self) -> f64 {
        let j = self.energy.total_joules();
        if j == 0.0 {
            0.0
        } else {
            self.completed as f64 / j
        }
    }

    /// Average power over the serving window in watts: total energy /
    /// makespan (0 for an empty run).
    pub fn average_power_w(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.energy.total_joules() / (self.makespan_ns as f64 * 1e-9)
        }
    }

    /// Effective throughput in GOPS: dense-equivalent completed work /
    /// makespan (0 for an empty run).
    pub fn effective_gops(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.dense_flops as f64 / (self.makespan_ns as f64 * 1e-9) / 1e9
        }
    }

    /// Energy efficiency in GOPS/W — dense-equivalent work per energy,
    /// time cancelling out (0 when no energy was spent).
    pub fn gops_per_watt(&self) -> f64 {
        let j = self.energy.total_joules();
        if j == 0.0 {
            0.0
        } else {
            self.dense_flops as f64 / 1e9 / j
        }
    }

    /// Average power including idle (static) energy, in watts: (request
    /// energy + static energy) / makespan. This is the number the DVFS
    /// governor is judged on — [`Self::average_power_w`] stays
    /// request-energy-only for backward comparability.
    pub fn average_power_with_static_w(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            (self.energy.total_pj() + self.static_energy_pj) as f64 * 1e-12
                / (self.makespan_ns as f64 * 1e-9)
        }
    }

    /// Smallest and largest active-shard counts over the timeline (the
    /// configured count twice for an empty timeline).
    pub fn shard_range(&self) -> (usize, usize) {
        let (mut lo, mut hi) = (usize::MAX, 0);
        for e in &self.timeline {
            lo = lo.min(e.active_shards);
            hi = hi.max(e.active_shards);
        }
        if self.timeline.is_empty() {
            (self.config.shards, self.config.shards)
        } else {
            (lo, hi)
        }
    }

    /// Slowest and fastest clocks over the timeline (nominal twice for an
    /// empty timeline).
    pub fn clock_range(&self) -> (DvfsPoint, DvfsPoint) {
        let mut lo = DvfsPoint::NOMINAL;
        let mut hi = DvfsPoint::NOMINAL;
        for (i, e) in self.timeline.iter().enumerate() {
            if i == 0 {
                lo = e.clock;
                hi = e.clock;
            }
            if e.clock.freq_mhz < lo.freq_mhz {
                lo = e.clock;
            }
            if e.clock.freq_mhz > hi.freq_mhz {
                hi = e.clock;
            }
        }
        (lo, hi)
    }

    /// Requests each shard completed, indexed by shard — the fleet-mix
    /// view routing policies are judged on.
    pub fn completed_per_shard(&self) -> Vec<u64> {
        self.per_shard_completed.clone()
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "serve report — {} backend", self.backend)?;
        writeln!(
            f,
            "  offered         : {:.1} req/s x {} requests ({} arrivals, {} shards, batch <= {}, queue {})",
            self.config.offered_load,
            self.config.n_requests,
            self.config.arrival.label(),
            self.config.shards,
            self.config.max_batch,
            self.config.queue_capacity,
        )?;
        writeln!(
            f,
            "  policy          : {} scheduler, {} router, {} drops",
            self.config.scheduler.name(),
            self.config.router.name(),
            self.config.drop.name(),
        )?;
        writeln!(
            f,
            "  served          : {} completed / {} dropped in {} batches (mean size {:.1}, {} SLO misses)",
            self.completed,
            self.dropped,
            self.batches,
            self.mean_batch_size(),
            self.slo_violations,
        )?;
        writeln!(
            f,
            "  throughput      : {:.1} req/s over {} (virtual)",
            self.achieved_rps(),
            fmt_ns(self.makespan_ns)
        )?;
        for (name, h) in
            [("queue", &self.queue), ("compute", &self.compute), ("total", &self.total)]
        {
            writeln!(
                f,
                "  {name:<7} latency : p50 {:>9}  p95 {:>9}  p99 {:>9}  mean {:>9}",
                fmt_ns(h.p50_ns()),
                fmt_ns(h.p95_ns()),
                fmt_ns(h.p99_ns()),
                fmt_ns(h.mean_ns()),
            )?;
        }
        writeln!(
            f,
            "  streaming       : TTFT p99 {} ({} over budget), TBT p99 {} ({} over budget), \
             {} iterations, {} evictions",
            fmt_ns(self.ttft.p99_ns()),
            self.ttft_violations,
            fmt_ns(self.tbt.p99_ns()),
            self.tbt_violations,
            self.iterations,
            self.evictions,
        )?;
        writeln!(
            f,
            "  energy          : {} total ({}/req, {:.1} req/J, {:.1} W avg, {:.0} GOPS/W)",
            fmt_joules(self.energy.total_joules()),
            fmt_joules(self.joules_per_request()),
            self.requests_per_joule(),
            self.average_power_w(),
            self.gops_per_watt(),
        )?;
        let (lo_shards, hi_shards) = self.shard_range();
        let (lo_clock, hi_clock) = self.clock_range();
        writeln!(
            f,
            "  control         : {} over {} epochs of {} (shards {lo_shards}..{hi_shards}, \
             clock {}MHz..{}MHz, {} static, {:.1} W avg incl. static)",
            self.config.control.controller.name(),
            self.timeline.len(),
            fmt_ns(self.config.control.epoch_us.saturating_mul(1_000)),
            lo_clock.freq_mhz,
            hi_clock.freq_mhz,
            fmt_joules(self.static_energy_pj as f64 * 1e-12),
            self.average_power_with_static_w(),
        )?;
        writeln!(
            f,
            "  engine          : peak {} in-flight / {} events / {} reorder; {} epochs stepped, \
             {} skipped",
            self.live.peak_inflight,
            self.live.peak_events,
            self.live.peak_reorder,
            self.live.epochs_stepped,
            self.live.epochs_skipped,
        )?;
        if self.obs.enabled() {
            let snaps = self.obs.metrics.as_ref().map_or(0, |m| m.snapshots().len());
            writeln!(
                f,
                "  observability   : {} spans ({} sampled requests, {} overflow), {} metric \
                 snapshots, {} profiled wall",
                self.obs.events.len(),
                self.obs.sampled_requests,
                self.obs.events_dropped,
                snaps,
                fmt_ns(self.obs.profile.total_wall_ns()),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(start_ns: u64, end_ns: u64) -> EpochStat {
        EpochStat {
            epoch: 0,
            start_ns,
            end_ns,
            active_shards: 2,
            clock: DvfsPoint::NOMINAL,
            arrivals: 10,
            completed: 8,
            dropped: 2,
            slo_violations: 1,
            energy: EnergyBreakdown { compute_pj: 1_000, sram_pj: 0, dram_pj: 0 },
            static_pj: 500,
        }
    }

    #[test]
    fn epoch_rates_divide_by_the_window() {
        let e = stat(0, 1_000_000); // 1 ms
        assert!((e.offered_rps() - 10_000.0).abs() < 1e-6);
        assert!((e.served_rps() - 8_000.0).abs() < 1e-6);
        assert!(e.average_power_w() > 0.0);
        assert!(e.joules_per_request() > 0.0);
    }

    #[test]
    fn zero_length_epochs_report_zero_not_nan() {
        // A makespan landing exactly on a boundary truncates the final
        // epoch to zero length; every rate must come back 0, not ±inf.
        let e = stat(5_000, 5_000);
        assert_eq!(e.duration_ns(), 0);
        assert_eq!(e.offered_rps(), 0.0);
        assert_eq!(e.served_rps(), 0.0);
        assert_eq!(e.average_power_w(), 0.0);
        // J/req is a per-completion mean, defined even for a zero window.
        assert!(e.joules_per_request() > 0.0);
        let empty = EpochStat { completed: 0, ..stat(5_000, 5_000) };
        assert_eq!(empty.joules_per_request(), 0.0);
    }
}
