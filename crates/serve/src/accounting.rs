//! Streaming report accumulators of the serving engine.
//!
//! The engine never holds per-request records for the whole trace: the
//! response digest, the debug outcome capture and the per-epoch timeline
//! all stream in as requests settle or drop, in whatever order the event
//! loop produces them, and fold into report-ready form at the end of the
//! run. Live state stays bounded by in-flight work, not trace length.

use crate::backend::{fnv_fold, BackendOutput};
use crate::control::DvfsPoint;
use crate::energy::EnergyBreakdown;
use crate::histogram::LatencyHistogram;
use crate::obs::Obs;
use crate::report::{EpochStat, RequestOutcome};
use crate::sessions::SessionLive;
use std::collections::VecDeque;

/// The report's streamed accumulators.
#[derive(Default)]
pub(crate) struct Totals {
    pub(crate) queue: LatencyHistogram,
    pub(crate) compute: LatencyHistogram,
    /// Total latency of single-iteration sessions — which is also their
    /// time to first token, so it is recorded once and merged into both
    /// report histograms at the end.
    pub(crate) total_single: LatencyHistogram,
    /// Total latency and TTFT of multi-iteration sessions.
    pub(crate) total_multi: LatencyHistogram,
    pub(crate) ttft_multi: LatencyHistogram,
    pub(crate) tbt: LatencyHistogram,
    pub(crate) completed: u64,
    pub(crate) dropped: u64,
    pub(crate) slo_violations: u64,
    /// SLO misses of single-iteration sessions (also their TTFT misses).
    pub(crate) single_violations: u64,
    /// Iterations of multi-iteration sessions; single-iteration ones are
    /// `total_single.count()`.
    pub(crate) iterations: u64,
    pub(crate) evictions: u64,
    /// TTFT misses of multi-iteration sessions.
    pub(crate) ttft_violations: u64,
    pub(crate) tbt_violations: u64,
    pub(crate) makespan_ns: u64,
    pub(crate) energy: EnergyBreakdown,
    pub(crate) dense_flops: u128,
    pub(crate) peak_inflight: u64,
    pub(crate) epochs_stepped: u64,
    pub(crate) epochs_skipped: u64,
}

impl Totals {
    /// Folds one settled decode step (ready at `ready_ns`, settled at
    /// `t`) into its session and the streaming TBT accounting.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn account_step(
        &mut self,
        obs: &mut Obs,
        shard: usize,
        batch: u64,
        start_ns: u64,
        id: u64,
        ready_ns: u64,
        t: u64,
        step: BackendOutput,
        sess: &mut SessionLive,
    ) {
        self.iterations += 1;
        obs.on_iteration();
        let tbt = t - ready_ns;
        self.tbt.record(tbt);
        let tally = &mut sess.tally;
        if tbt > tally.slo.streaming_budgets().tbt_ns {
            self.tbt_violations += 1;
            tally.violated = true;
        }
        self.compute.record(t - start_ns);
        tally.digest = fnv_fold(tally.digest, step.digest);
        tally.energy += step.energy;
        tally.flops += step.dense_flops as u128;
        sess.last_settle_ns = t;
        sess.next_iter += 1;
        obs.on_settle(
            t,
            id,
            shard,
            batch,
            tbt,
            t - start_ns,
            sess.tally.violated,
            step.energy.total_pj(),
        );
    }
}

/// Events processed since the last epoch boundary — the controller's
/// metric window (see [`crate::control::FleetView`]).
#[derive(Default, Clone, Copy)]
pub(crate) struct EpochWindow {
    pub(crate) arrivals: u64,
    pub(crate) dropped: u64,
    pub(crate) completed: u64,
    pub(crate) slo_violations: u64,
}

/// Streams settled outcomes into the id-ordered FNV digest without
/// holding them all.
///
/// Settles arrive out of id order (pipelined shards, non-FIFO
/// schedulers, sessions of different lengths), but the digest folds in
/// id order, so a small reorder window buffers outcomes until the id
/// watermark (`base`) reaches them. The window depth is bounded by how
/// far the scheduler lets a request fall behind its successors — the
/// fairness bound — not by the trace length; its high-water mark is
/// reported as [`crate::report::LiveStats::peak_reorder`].
///
/// The window holds only the 8-byte *digest word* per pending request
/// (the response digest, or the drop marker) — never the full
/// [`RequestOutcome`]. At trace scale the window runs hundreds of
/// entries deep, so keeping it to a `u64` ring instead of ~120-byte
/// outcome records is a measured hot-path win (the settle section of
/// the self-profile). The opt-in debug capture of the first
/// `capture_cap` outcomes (by id) is collected out of settle order on
/// the side and sorted once at `finish` — ids are unique, so the sorted
/// capture is byte-identical to a fold-order capture.
pub(crate) struct OutcomeLedger {
    digest: u64,
    /// All outcomes with id < base are folded into `digest`.
    base: u64,
    /// Pending digest words for ids `base..base + window.len()`.
    window: VecDeque<Option<u64>>,
    captured: Vec<(u64, RequestOutcome)>,
    capture_cap: u64,
    peak_window: usize,
}

/// What [`OutcomeLedger::finish`] hands the report.
pub(crate) struct LedgerSummary {
    pub digest: u64,
    /// The debug capture, in id order.
    pub outcomes: Vec<RequestOutcome>,
    pub peak_reorder: u64,
    /// Requests folded into the digest — equal to the arrivals when
    /// every request was settled or shed exactly once.
    pub folded: u64,
}

impl OutcomeLedger {
    pub(crate) fn new(capture_cap: usize) -> Self {
        OutcomeLedger {
            digest: crate::backend::FNV_OFFSET,
            base: 0,
            window: VecDeque::new(),
            captured: Vec::new(),
            capture_cap: capture_cap as u64,
            peak_window: 0,
        }
    }

    /// Whether request `id` falls in the opt-in debug capture; callers
    /// only materialize a [`RequestOutcome`] when it does.
    #[inline(always)]
    pub(crate) fn captures(&self, id: u64) -> bool {
        id < self.capture_cap
    }

    /// Keeps one captured outcome (any settle order; sorted at finish).
    #[inline(always)]
    pub(crate) fn capture(&mut self, id: u64, outcome: RequestOutcome) {
        debug_assert!(self.captures(id));
        self.captured.push((id, outcome));
    }

    /// Buffers one settled digest word and folds every now-contiguous
    /// prefix into the digest.
    #[inline(always)]
    pub(crate) fn record(&mut self, id: u64, word: u64) {
        debug_assert!(id >= self.base, "request {id} settled twice");
        let off = (id - self.base) as usize;
        if off >= self.window.len() {
            self.window.resize_with(off + 1, || None);
        }
        debug_assert!(self.window[off].is_none(), "request {id} settled twice");
        self.window[off] = Some(word);
        self.peak_window = self.peak_window.max(self.window.len());
        while let Some(&Some(w)) = self.window.front() {
            self.window.pop_front();
            self.digest = fnv_fold(self.digest, w);
            self.base += 1;
        }
    }

    /// Final accounting; the caller checks `folded` for conservation.
    pub(crate) fn finish(mut self) -> LedgerSummary {
        self.captured.sort_unstable_by_key(|&(id, _)| id);
        LedgerSummary {
            digest: self.digest,
            outcomes: self.captured.into_iter().map(|(_, o)| o).collect(),
            peak_reorder: self.peak_window as u64,
            folded: self.base,
        }
    }
}

/// One epoch's worth of streamed timeline counters.
#[derive(Debug, Clone, Copy)]
struct SlotAcc {
    arrivals: u64,
    completed: u64,
    dropped: u64,
    slo_violations: u64,
    energy: EnergyBreakdown,
}

impl SlotAcc {
    const EMPTY: SlotAcc = SlotAcc {
        arrivals: 0,
        completed: 0,
        dropped: 0,
        slo_violations: 0,
        energy: EnergyBreakdown::ZERO,
    };
}

/// Fleet state in effect during one epoch, recorded at each boundary
/// where it changed for the report timeline and the static-energy
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EpochFleetState {
    pub active_shards: usize,
    pub clock: DvfsPoint,
    /// Σ over active shards of the backend's idle power at `clock`.
    pub idle_mw: u64,
}

/// Streaming accumulator for the per-epoch report timeline.
///
/// Counters stream in by exact virtual timestamp as requests settle (the
/// makespan — and hence the final epoch count — is unknown until the
/// run ends); `finalize` clamps any counters recorded past the makespan
/// into the last epoch.
pub(crate) struct TimelineAcc {
    epoch_ns: u64,
    slots: Vec<SlotAcc>,
    /// Slot index and half-open `[start, end)` window of the last lookup.
    /// Timestamps cluster heavily within one control epoch, so caching
    /// the window turns the per-event `u64` division into two compares
    /// on the hot path (`cached_end == 0` initially, so the first lookup
    /// always misses).
    cached_idx: usize,
    cached_start: u64,
    cached_end: u64,
}

impl TimelineAcc {
    pub(crate) fn new(epoch_ns: u64) -> Self {
        TimelineAcc { epoch_ns, slots: Vec::new(), cached_idx: 0, cached_start: 0, cached_end: 0 }
    }

    #[inline(always)]
    fn slot(&mut self, t: u64) -> &mut SlotAcc {
        if t < self.cached_start || t >= self.cached_end {
            let idx = (t / self.epoch_ns) as usize;
            if idx >= self.slots.len() {
                self.slots.resize(idx + 1, SlotAcc::EMPTY);
            }
            self.cached_idx = idx;
            self.cached_start = t - t % self.epoch_ns;
            self.cached_end = self.cached_start.saturating_add(self.epoch_ns);
        }
        &mut self.slots[self.cached_idx]
    }

    /// An offered request at its arrival time.
    #[inline(always)]
    pub(crate) fn arrival(&mut self, t: u64) {
        self.slot(t).arrivals += 1;
    }

    /// A dropped request at its arrival time (drops count as offered).
    #[inline(always)]
    pub(crate) fn drop_at(&mut self, t: u64) {
        let s = self.slot(t);
        s.arrivals += 1;
        s.dropped += 1;
    }

    /// A completion (and its energy and SLO verdict) at its completion
    /// time.
    #[inline(always)]
    pub(crate) fn completion(&mut self, t: u64, energy: EnergyBreakdown, violated: bool) {
        let s = self.slot(t);
        s.completed += 1;
        s.energy += energy;
        if violated {
            s.slo_violations += 1;
        }
    }

    /// Builds the report timeline: one [`EpochStat`] per epoch up to the
    /// makespan, fleet states looked up from the run's change-point log.
    pub(crate) fn finalize(
        mut self,
        makespan_ns: u64,
        states: &[(u64, EpochFleetState)],
    ) -> Vec<EpochStat> {
        let n_epochs =
            if makespan_ns == 0 { 1 } else { makespan_ns.div_ceil(self.epoch_ns) } as usize;
        if self.slots.len() < n_epochs {
            self.slots.resize(n_epochs, SlotAcc::EMPTY);
        }
        // Timestamps at the very edge of the trace (a drop offered past
        // the final completion, or a completion exactly at the makespan)
        // clamp into the last epoch.
        let overflow: Vec<SlotAcc> = self.slots.split_off(n_epochs);
        if let Some(last) = self.slots.last_mut() {
            for extra in overflow {
                last.arrivals += extra.arrivals;
                last.completed += extra.completed;
                last.dropped += extra.dropped;
                last.slo_violations += extra.slo_violations;
                last.energy += extra.energy;
            }
        }
        // Fleet states are change-points `(from_epoch, state)`; epochs
        // between change-points (including every skipped boundary) carry
        // the last recorded state forward.
        let mut si = 0usize;
        self.slots
            .into_iter()
            .enumerate()
            .map(|(e, s)| {
                while si + 1 < states.len() && states[si + 1].0 <= e as u64 {
                    si += 1;
                }
                let st = states[si].1;
                let start_ns = e as u64 * self.epoch_ns;
                let end_ns = (start_ns.saturating_add(self.epoch_ns)).min(makespan_ns);
                EpochStat {
                    epoch: e as u64,
                    start_ns,
                    end_ns,
                    active_shards: st.active_shards,
                    clock: st.clock,
                    arrivals: s.arrivals,
                    completed: s.completed,
                    dropped: s.dropped,
                    slo_violations: s.slo_violations,
                    energy: s.energy,
                    static_pj: st.idle_mw as u128 * end_ns.saturating_sub(start_ns) as u128,
                }
            })
            .collect()
    }
}
