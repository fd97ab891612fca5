//! The serving runtime: one discrete-event virtual-time engine that
//! composes the policy layers and serves sessions at iteration level.
//!
//! # Execution model
//!
//! *What* is computed is separate from *when* it is deemed to happen.
//! Every admitted prefill is materialized from the seeded
//! [`RequestGenerator`] and run by its shard's backend on the long-lived
//! [`WorkerPool`], work-shared: a dispatched batch becomes one shared
//! claim cursor over its `(id, scenario)` items, and the runtime queues
//! one job per pool worker, the first on the shard's own worker. Each job
//! claims the batch's next unrun request until none is left, inside one
//! [`recycle_layer_buffers`] scope, and sends its `(index, result)` pairs
//! back; settle places them by index. Every worker's queue is FIFO in
//! dispatch order, so an idle worker always helps the oldest unfinished
//! batch, and which worker ran a request never reaches the results.
//! Payload-free backends ([`Backend::payload_free`]) run inline on the
//! accounting thread instead, which is what makes 10M-request traces
//! feasible in seconds. Decode steps derive from their session's settled
//! prefill ([`Backend::decode_output`]). Timing comes from an integer
//! virtual clock driven by the seeded load generator and the backends'
//! deterministic cost models, never the wall clock, so the full
//! [`ServeReport`] is byte-identical for any `RAYON_NUM_THREADS` and any
//! pool size.
//!
//! Request `id` is the *prefill* of session `id`, whose length and think
//! times are pure functions of `(seed, id)`
//! ([`defa_model::workload::SessionProfile`]); each settled iteration
//! schedules the session's next decode step on its resident shard. A
//! one-shot request is a session of length 1: it completes with its
//! prefill and never holds state, so under the default one-shot profile
//! the session sets stay empty and the loop replays the pipelined
//! one-shot engine decision-for-decision.
//!
//! The loop is driven by a typed event list ([`crate::events`]): one
//! pending epoch boundary, one pending arrival (the head of the lazy
//! [`crate::loadgen::ArrivalIter`]) and a heap of per-shard free events,
//! plus per-shard ready sets of pending decode steps. Live state is
//! bounded by in-flight work — the admission queue, one batch per shard,
//! the live sessions and a small settle-reorder window — never by the
//! trace length; outcomes stream into the histograms, fixed-point energy
//! accumulators and the id-ordered digest as they settle.
//!
//! # Timing rules
//!
//! Each turn of the loop forms one batch on one shard. The decision time
//! is the earlier of the earliest due decode step over the fleet (at
//! `max(ready, shard free)`; it wins ties and stays on its resident
//! shard) and the earliest prefill opportunity (pending work, no sooner
//! than the earliest active shard frees; the router picks the shard).
//!
//! * **Iteration level** — a batch with decode steps, and every batch of
//!   a multi-iteration run, dispatches at once: the shard's due steps
//!   ride first in `(ready, id)` order and the scheduler fills the
//!   remaining slots with queued prefills
//!   ([`crate::scheduler::Scheduler::admit_into`]), but never before a
//!   member prefill's arrival. No batching window applies, because it
//!   would stall the shard's resident sessions.
//! * **Batching window** — a one-shot batch launches when
//!   [`ServeConfig::max_batch`] requests are waiting or the oldest waiting
//!   request has aged past [`ServeConfig::batch_deadline_us`].
//!
//! Every batch serves sequentially after a fixed dispatch overhead. With
//! a per-shard state budget ([`crate::config::SessionConfig`]) a batch
//! holds at most `state_budget` sessions, and making room evicts the
//! least-recently-settled residents not riding it; their next step pays
//! a priced prefill recompute. Gang mode instead runs a session's decode
//! steps and think times inside its prefill's slot.
//!
//! Multi-iteration runs settle each batch at dispatch, because the next
//! step's readiness depends on it. One-shot runs keep the pipelined
//! settle: routers that read shard backlogs
//! ([`crate::router::Router::needs_fleet_state`]) settle every in-flight
//! batch before routing, stateless ones settle only the chosen shard and
//! keep one batch in flight per shard.
//!
//! # The control loop
//!
//! Before each batch forms, the loop settles every epoch boundary the
//! decision time has crossed: the [`Controller`] sees a [`FleetView`] of
//! the ended epoch and may activate a shard, drain one, or step the DVFS
//! clock. Across an idle gap with a quiescent controller
//! ([`Controller::quiescent`]) the boundaries fast-forward in O(1). A
//! drained shard takes no new prefills, but its in-flight batch settles
//! and its resident sessions finish there (drain-before-stop). Settling
//! re-prices prefills, decode steps and recomputes for the clock their
//! batch dispatched at through [`Backend::reprice`], the exact identity at
//! the nominal point — a [`crate::control::NoOpController`] run is
//! byte-identical to an uncontrolled one.

use crate::accounting::{EpochFleetState, EpochWindow, OutcomeLedger, TimelineAcc, Totals};
use crate::admission::{Admission, AdmissionQueue, QueuedRequest};
use crate::backend::{fnv_fold, Backend, BackendOutput, FNV_OFFSET};
use crate::config::ServeConfig;
use crate::control::{ControlAction, Controller, DvfsPoint, FleetView};
use crate::cost::{CostTable, Estimates};
use crate::events::EventList;
use crate::loadgen::ArrivalIter;
use crate::obs::{Obs, ProfSection};
use crate::report::{LiveStats, RequestOutcome, ServeReport};
use crate::router::ShardView;
use crate::sessions::{SessionLive, SessionTally, Sessions};
use crate::ServeError;
use defa_model::reference::recycle_layer_buffers;
use defa_model::workload::RequestGenerator;
use defa_parallel::WorkerPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// Salt applied to the generator seed for the arrival-time stream, so load
/// timing and request payloads draw from independent streams.
const ARRIVAL_SALT: u64 = 0x5E54_1A7E_57A6_0001;

/// Digest marker mixed in for dropped requests.
const DROP_MARK: u64 = 0xD20D_D20D_D20D_D20D;

/// Where a batch's prefill results come from: the worker pool for
/// backends that need materialized payloads, or the already-computed
/// vector for payload-free backends executed inline.
enum BatchResults {
    Pool(PoolBatch),
    Ready(Vec<Result<BackendOutput, ServeError>>),
}

/// One batch's requests, shared by every pool job working on it.
struct SharedBatch {
    gen: Arc<RequestGenerator>,
    backend: Arc<dyn Backend>,
    /// `(request id, scenario)` in batch order.
    items: Vec<(u64, usize)>,
    /// Index of the next unclaimed item.
    next: AtomicUsize,
}

/// `(batch index, result)` pairs, as one job computed them.
type Part = Vec<(usize, Result<BackendOutput, ServeError>)>;

impl SharedBatch {
    /// Claims and runs items until the batch is exhausted. The claimed
    /// requests share one set of layer buffers, freed when the job ends.
    fn run(&self) -> Part {
        recycle_layer_buffers(|| {
            let mut part = Part::new();
            loop {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                let Some(&(id, scenario)) = self.items.get(i) else { return part };
                part.push((i, exec_request(&self.gen, self.backend.as_ref(), id, scenario)));
            }
        })
    }
}

/// A batch running on the pool: the receiving end of its jobs' parts.
struct PoolBatch {
    rx: mpsc::Receiver<Part>,
    len: usize,
}

impl PoolBatch {
    /// Queues `items` on `pool` as one job per worker (at most one per
    /// item), the first on worker `first`. The caller keeps no sender and
    /// no reference to the batch, so a job that dies takes its sender with
    /// it and [`Self::collect_into`] reports it instead of waiting forever.
    fn submit(
        pool: &WorkerPool,
        first: usize,
        gen: &Arc<RequestGenerator>,
        backend: &Arc<dyn Backend>,
        items: Vec<(u64, usize)>,
    ) -> Self {
        let len = items.len();
        let (tx, rx) = mpsc::channel();
        let batch = Arc::new(SharedBatch {
            gen: Arc::clone(gen),
            backend: Arc::clone(backend),
            items,
            next: AtomicUsize::new(0),
        });
        for k in 0..pool.threads().min(len) {
            let (batch, tx) = (Arc::clone(&batch), tx.clone());
            pool.submit(first + k, move || {
                let part = batch.run();
                if !part.is_empty() {
                    // The receiver disappears only if its run already
                    // failed; nothing to report to in that case.
                    let _ = tx.send(part);
                }
            });
        }
        PoolBatch { rx, len }
    }

    /// Waits for every item's result and appends them to `out` in batch
    /// order.
    ///
    /// # Errors
    ///
    /// Fails when every job has ended with some item still owed: a job
    /// panicked.
    fn collect_into(
        self,
        out: &mut Vec<Result<BackendOutput, ServeError>>,
    ) -> Result<(), mpsc::RecvError> {
        let mut parts = Part::with_capacity(self.len);
        while parts.len() < self.len {
            parts.extend(self.rx.recv()?);
        }
        // Each index is claimed exactly once, so sorting restores batch
        // order.
        parts.sort_unstable_by_key(|&(i, _)| i);
        out.extend(parts.into_iter().map(|(_, r)| r));
        Ok(())
    }
}

/// A batch handed to a shard: its virtual start, the clock it dispatched
/// at, its decode steps and prefills, plus where the prefills' real
/// results arrive.
struct Inflight {
    start_ns: u64,
    batch: u64,
    clock: DvfsPoint,
    /// Decode steps as `(ready_ns, session id)`, settled first in this
    /// order (empty under one-shot profiles).
    decodes: Vec<(u64, u64)>,
    members: Vec<QueuedRequest>,
    results: BatchResults,
}

/// Mutable state of one run.
struct SimState {
    tot: Totals,
    window: EpochWindow,
    ledger: OutcomeLedger,
    timeline: TimelineAcc,
    per_shard_completed: Vec<u64>,
    shard_free: Vec<u64>,
    events: EventList,
    sessions: Sessions,
    /// Prefills currently riding an in-flight batch.
    inflight_members: u64,
    /// The observability collector (every hook bails on one boolean when
    /// its pillar is disabled — the zero-overhead contract).
    obs: Obs,
    /// Recycled batch-member buffers: settle clears and returns them,
    /// dispatch pops one for the scheduler to fill. Grow-on-touch, never
    /// shrink — steady-state dispatch/settle performs no allocation.
    scratch_members: Vec<Vec<QueuedRequest>>,
    /// Recycled batch-result buffers, same discipline: inline batches
    /// fill one at dispatch, pool batches at settle.
    scratch_results: Vec<Vec<Result<BackendOutput, ServeError>>>,
    /// Recycled decode-step buffers of iteration-level batches, same
    /// discipline (one-shot runs never touch them).
    scratch_decodes: Vec<Vec<(u64, u64)>>,
}

impl SimState {
    fn new(cfg: &ServeConfig, seed: u64, fleet_size: usize, epoch_ns: u64) -> Self {
        SimState {
            tot: Totals::default(),
            window: EpochWindow::default(),
            ledger: OutcomeLedger::new(cfg.outcome_capture),
            timeline: TimelineAcc::new(epoch_ns),
            per_shard_completed: vec![0; fleet_size],
            shard_free: vec![0; fleet_size],
            events: EventList::new(fleet_size),
            sessions: Sessions::new(cfg, seed, fleet_size),
            inflight_members: 0,
            obs: Obs::new(&cfg.obs, seed, fleet_size, cfg.sessions.enabled()),
            scratch_members: Vec::new(),
            scratch_results: Vec::new(),
            scratch_decodes: Vec::new(),
        }
    }

    /// Settles a shard's in-flight batch: collects its real results,
    /// re-prices every iteration for the clock the batch dispatched at,
    /// and advances the shard's virtual clock through the decode steps
    /// and then the prefills, in batch order.
    fn settle(
        &mut self,
        shard: usize,
        inflight: &mut [Option<Inflight>],
        overhead_ns: u64,
        fleet: &[Arc<dyn Backend>],
        active: &[bool],
    ) -> Result<(), ServeError> {
        let Some(inf) = inflight[shard].take() else { return Ok(()) };
        let backend = fleet[shard].as_ref();
        let prof = self.obs.prof_begin();
        let mut results = match inf.results {
            BatchResults::Pool(pooled) => self.collect_pooled(pooled, shard, inf.batch)?,
            BatchResults::Ready(r) => r,
        };
        debug_assert_eq!(results.len(), inf.members.len());
        self.inflight_members -= inf.members.len() as u64;
        // Re-pricing is the identity at the nominal clock (a documented
        // [`Backend::reprice`] requirement); skipping the virtual call
        // for nominal batches keeps the uncontrolled fast path free of
        // per-request dynamic dispatch.
        let clock = inf.clock;
        let nominal = clock == DvfsPoint::NOMINAL;
        let price = |out: BackendOutput| if nominal { out } else { backend.reprice(out, clock) };
        let mut t = inf.start_ns + overhead_ns;
        let at = (shard, inf.batch, inf.start_ns);
        for &(ready_ns, id) in &inf.decodes {
            self.settle_decode(at, ready_ns, id, &mut t, backend, &price);
        }
        for (m, res) in inf.members.iter().zip(results.drain(..)) {
            // The worker computed the response at whatever wall-clock
            // speed; the virtual cost and energy belong to the DVFS point
            // the batch dispatched at.
            let raw = res?;
            let out = price(raw);
            t += out.cost_ns;
            let queue_ns = inf.start_ns - m.arrival_ns;
            let compute_ns = t - inf.start_ns;
            self.tot.queue.record(queue_ns);
            self.tot.compute.record(compute_ns);
            self.obs.on_iteration();
            // The TTFT budget is the class deadline, so for a one-shot
            // request this is exactly `RequestOutcome::violated_slo`.
            let violated = queue_ns + compute_ns > m.slo.deadline_ns();
            self.obs.on_settle(
                t,
                m.id,
                shard,
                inf.batch,
                queue_ns,
                compute_ns,
                violated,
                out.energy.total_pj(),
            );
            let tally = SessionTally {
                scenario: m.scenario,
                slo: m.slo,
                arrival_ns: m.arrival_ns,
                queue_ns,
                digest: out.digest,
                energy: out.energy,
                flops: out.dense_flops as u128,
                violated,
            };
            let len = self.sessions.len_of(m.id);
            if len == 1 {
                self.finish_session(shard, inf.batch, m.id, t, tally, true);
            } else {
                // Counted here for multi-iteration sessions only: a
                // single-iteration session's iteration and TTFT verdict
                // are its completion and SLO verdict, derived at report
                // time.
                self.tot.iterations += 1;
                self.tot.ttft_violations += u64::from(violated);
                self.tot.ttft_multi.record(queue_ns + compute_ns);
                t = self.start_session(at, t, m.id, len, raw, tally, backend, &price);
            }
        }
        // Both batch buffers are drained/done: return them to the scratch
        // pools for the next dispatch (grow-on-touch, never shrink).
        self.scratch_results.push(results);
        let mut members = inf.members;
        members.clear();
        self.scratch_members.push(members);
        if inf.decodes.capacity() > 0 {
            let mut decodes = inf.decodes;
            decodes.clear();
            self.scratch_decodes.push(decodes);
        }
        self.shard_free[shard] = t;
        if active[shard] {
            self.events.reschedule_shard(shard, t);
        }
        self.tot.makespan_ns = self.tot.makespan_ns.max(t);
        self.obs.prof_end(ProfSection::Settle, prof);
        Ok(())
    }

    /// Waits for a pool batch's results, in batch order, in a recycled
    /// buffer. Kept out of line so the inline replay settle's code does
    /// not move.
    #[inline(never)]
    fn collect_pooled(
        &mut self,
        pooled: PoolBatch,
        shard: usize,
        batch: u64,
    ) -> Result<Vec<Result<BackendOutput, ServeError>>, ServeError> {
        let mut out = self.scratch_results.pop().unwrap_or_default();
        pooled
            .collect_into(&mut out)
            .map_err(|_| ServeError::WorkerLost(format!("shard {shard} dropped batch {batch}")))?;
        Ok(out)
    }

    /// Opens a multi-iteration session whose prefill settled at `t` in
    /// batch `(shard, batch, start_ns)`. Continuous batching parks it for
    /// its next step; gang scheduling runs every decode step and think
    /// time inside the prefill's slot. Returns the shard's clock after.
    /// Kept out of line so the one-shot settle loop stays tight.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn start_session(
        &mut self,
        (shard, batch, start_ns): (usize, u64, u64),
        mut t: u64,
        id: u64,
        len: u32,
        prefill: BackendOutput,
        tally: SessionTally,
        backend: &dyn Backend,
        price: &impl Fn(BackendOutput) -> BackendOutput,
    ) -> u64 {
        let mut sess = SessionLive {
            tally: SessionTally { digest: fnv_fold(FNV_OFFSET, tally.digest), ..tally },
            len,
            next_iter: 1,
            prefill,
            needs_prefill: false,
            resident: false,
            last_settle_ns: t,
        };
        if !self.sessions.gang {
            self.sessions.park(shard, t, id, sess);
            return t;
        }
        // Gang scheduling: the session holds its batch slot from prefill
        // to completion; decode steps and think times serialize on the
        // shard.
        for iter in 1..len {
            let ready_ns =
                t.saturating_add(self.sessions.profile.think_ns(self.sessions.seed, id, iter));
            let step = price(backend.decode_output(&prefill, iter as u64));
            t = ready_ns + step.cost_ns;
            self.tot.account_step(
                &mut self.obs,
                shard,
                batch,
                start_ns,
                id,
                ready_ns,
                t,
                step,
                &mut sess,
            );
        }
        self.finish_session(shard, batch, id, t, sess.tally, false);
        t
    }

    /// Settles one continuous-batching decode step of session `id`,
    /// ready since `ready_ns`, in batch `(shard, batch, start_ns)`:
    /// prices it (plus the prefill recompute an eviction left owing),
    /// moves the session to the back of its shard's LRU set, and
    /// schedules its next step or finishes it.
    fn settle_decode(
        &mut self,
        (shard, batch, start_ns): (usize, u64, u64),
        ready_ns: u64,
        id: u64,
        t: &mut u64,
        backend: &dyn Backend,
        price: &impl Fn(BackendOutput) -> BackendOutput,
    ) {
        // Updated in place: a decode step is the hot path of session
        // serving, and the map entry only moves when the session ends.
        let Some(sess) = self.sessions.live.get_mut(&id) else { return };
        let mut step = price(backend.decode_output(&sess.prefill, sess.next_iter as u64));
        if sess.needs_prefill {
            // The evicted state rebuilds: this step pays the prefill again
            // in time, energy and FLOPs (the response bits are unchanged —
            // recompute is deterministic).
            let again = price(sess.prefill);
            step.cost_ns += again.cost_ns;
            step.energy += again.energy;
            step.dense_flops += again.dense_flops;
            sess.needs_prefill = false;
        }
        *t += step.cost_ns;
        if sess.resident {
            self.sessions.lru[shard].remove(&(sess.last_settle_ns, id));
        }
        self.tot.account_step(&mut self.obs, shard, batch, start_ns, id, ready_ns, *t, step, sess);
        if sess.next_iter >= sess.len {
            let tally = sess.tally;
            self.sessions.live.remove(&id);
            self.finish_session(shard, batch, id, *t, tally, false);
            return;
        }
        sess.resident = true;
        let next_iter = sess.next_iter;
        self.sessions.schedule(shard, *t, id, next_iter);
    }

    /// Folds a finished session into the report accumulators: one ledger
    /// word, one completion, one total-latency sample — sessions, not
    /// iterations, are the unit every aggregate counts.
    #[inline(always)]
    fn finish_session(
        &mut self,
        shard: usize,
        batch: u64,
        id: u64,
        t: u64,
        sess: SessionTally,
        single: bool,
    ) {
        let total_ns = t - sess.arrival_ns;
        if single {
            self.tot.total_single.record(total_ns);
        } else {
            self.tot.total_multi.record(total_ns);
        }
        self.tot.completed += 1;
        self.window.completed += 1;
        self.per_shard_completed[shard] += 1;
        if sess.violated {
            self.tot.slo_violations += 1;
            self.tot.single_violations += u64::from(single);
            self.window.slo_violations += 1;
        }
        // Fixed reduction order: settles run on the accounting thread in
        // batch order, and the energies are integers, so the totals are
        // byte-identical however the batches were executed.
        self.tot.energy += sess.energy;
        self.tot.dense_flops += sess.flops;
        if self.ledger.captures(id) {
            self.ledger.capture(
                id,
                RequestOutcome::Completed {
                    scenario: sess.scenario,
                    slo: sess.slo,
                    arrival_ns: sess.arrival_ns,
                    digest: sess.digest,
                    shard,
                    batch,
                    queue_ns: sess.queue_ns,
                    // Everything after admission — compute, think times,
                    // per-step waits — so queue + compute spans the session.
                    compute_ns: total_ns - sess.queue_ns,
                    energy: sess.energy,
                },
            );
        }
        self.timeline.arrival(sess.arrival_ns);
        self.timeline.completion(t, sess.energy, sess.violated);
        self.ledger.record(id, sess.digest);
    }

    /// Records whatever the admission queue decided about one arrival.
    /// `req` is the offered newcomer, `depth` the queue depth after the
    /// verdict; under evict-oldest the dropped id can be an older waiter
    /// while the newcomer itself is admitted.
    #[inline(always)]
    fn record_admission(&mut self, req: &QueuedRequest, verdict: Admission, depth: usize) {
        self.obs.on_arrival(req.arrival_ns, req.id, req.scenario);
        self.window.arrivals += 1;
        match verdict {
            Admission::Admitted => self.obs.on_admitted(req.arrival_ns, req.id, depth),
            Admission::Dropped { id, arrival_ns } => {
                if id != req.id {
                    // Evict-oldest: the newcomer got in; an old waiter
                    // was shed at the newcomer's arrival instant.
                    self.obs.on_admitted(req.arrival_ns, req.id, depth);
                }
                self.obs.on_dropped(req.arrival_ns, id);
                self.tot.dropped += 1;
                self.window.dropped += 1;
                self.timeline.drop_at(arrival_ns);
                if self.ledger.captures(id) {
                    self.ledger.capture(id, RequestOutcome::Dropped { arrival_ns });
                }
                self.ledger.record(id, DROP_MARK);
            }
        }
    }

    /// Tracks the peak of queued + in-flight prefills + live sessions —
    /// the live-state bound [`LiveStats::peak_inflight`] reports.
    #[inline(always)]
    fn note_live(&mut self, queued: usize) {
        let live = queued as u64 + self.inflight_members + self.sessions.live.len() as u64;
        self.tot.peak_inflight = self.tot.peak_inflight.max(live);
    }

    /// Conservation checks and the final report.
    fn into_report(
        self,
        fleet: &[Arc<dyn Backend>],
        cfg: &ServeConfig,
        batches: u64,
        batched_requests: u64,
        epoch_states: &[(u64, EpochFleetState)],
    ) -> Result<ServeReport, ServeError> {
        let arrivals = cfg.n_requests as u64;
        let ledger = self.ledger.finish();
        // Conservation: every observed arrival was either served or shed,
        // exactly once, and no session is left mid-flight. `drop_fraction`
        // divides by this sum, so the invariant is what keeps the reported
        // rate meaningful.
        if self.tot.completed + self.tot.dropped != arrivals
            || ledger.folded != arrivals
            || !self.sessions.live.is_empty()
        {
            return Err(stranded(&self.tot, cfg));
        }
        let timeline = self.timeline.finalize(self.tot.makespan_ns, epoch_states);
        let single_sessions = self.tot.total_single.count();
        let mut total = self.tot.total_single.clone();
        total.merge(&self.tot.total_multi);
        let mut ttft = self.tot.total_single;
        ttft.merge(&self.tot.ttft_multi);
        let static_energy_pj = timeline.iter().map(|e| e.static_pj).sum();
        Ok(ServeReport {
            backend: fleet_label(fleet),
            config: cfg.clone(),
            completed: self.tot.completed,
            dropped: self.tot.dropped,
            slo_violations: self.tot.slo_violations,
            iterations: self.tot.iterations + single_sessions,
            evictions: self.tot.evictions,
            ttft_violations: self.tot.ttft_violations + self.tot.single_violations,
            tbt_violations: self.tot.tbt_violations,
            batches,
            batched_requests,
            queue: self.tot.queue,
            compute: self.tot.compute,
            total,
            ttft,
            tbt: self.tot.tbt,
            makespan_ns: self.tot.makespan_ns,
            energy: self.tot.energy,
            dense_flops: self.tot.dense_flops,
            digest: ledger.digest,
            outcomes: ledger.outcomes,
            per_shard_completed: self.per_shard_completed,
            live: LiveStats {
                peak_inflight: self.tot.peak_inflight,
                peak_events: self.events.peak_depth() as u64,
                peak_reorder: ledger.peak_reorder,
                epochs_stepped: self.tot.epochs_stepped,
                epochs_skipped: self.tot.epochs_skipped,
            },
            timeline,
            static_energy_pj,
            obs: self.obs.finish(),
        })
    }
}

/// The fleet-control side of a run: which shards take new prefills, the
/// clock batches dispatch at, the controller, and the fleet-state
/// change-points for the timeline.
struct FleetControl {
    controller: Box<dyn Controller>,
    active: Vec<bool>,
    clock: DvfsPoint,
    epoch_ns: u64,
    tables: Vec<CostTable>,
    states: Vec<(u64, EpochFleetState)>,
}

impl FleetControl {
    /// The fleet state in effect now. Idle power is read from the
    /// memoized pricing tables; clocks only ever come from
    /// [`crate::control::ControllerKind::pricing_points`] — the set the
    /// tables were built over — so every lookup hits.
    fn snapshot(&self) -> EpochFleetState {
        let idle_mw = (self.tables.iter().zip(&self.active))
            .filter(|(_, a)| **a)
            .filter_map(|(t, _)| t.point_index(self.clock).map(|i| t.idle_mw(i)))
            .sum();
        EpochFleetState {
            active_shards: self.active.iter().filter(|a| **a).count(),
            clock: self.clock,
            idle_mw,
        }
    }

    /// Settles every epoch boundary the decision time `t_now` has
    /// crossed: snapshots the ended epoch, lets the controller act, and
    /// applies its actions before any further batch forms. Across an
    /// idle gap with a quiescent controller the whole run of boundaries
    /// fast-forwards in one O(1) skip.
    fn cross_boundaries(&mut self, state: &mut SimState, t_now: u64, queue_depth: usize) {
        let epoch_ns = self.epoch_ns;
        while let Some((boundary, epoch)) = state.events.boundary_due(t_now) {
            let EpochWindow { arrivals, dropped, completed, slo_violations } =
                std::mem::take(&mut state.window);
            let view = FleetView {
                epoch,
                start_ns: boundary - epoch_ns,
                end_ns: boundary,
                active_shards: self.active.iter().filter(|a| **a).count(),
                max_shards: self.active.len(),
                queue_depth,
                arrivals,
                dropped,
                completed,
                slo_violations,
                clock: self.clock,
            };
            let all_quiet =
                (arrivals | dropped | completed | slo_violations) == 0 && queue_depth == 0;
            if all_quiet && self.controller.quiescent(&view) {
                // Every remaining boundary up to t_now would see a view
                // identical to this one (up to epoch index and
                // timestamps): nothing settles or arrives before t_now,
                // and a quiescent controller's decide is a no-op on all
                // of them. Skip the whole run.
                let skipped = (t_now - boundary) / epoch_ns + 1;
                state.tot.epochs_skipped += skipped;
                state.events.set_boundary(
                    boundary.saturating_add(epoch_ns.saturating_mul(skipped)),
                    epoch.saturating_add(skipped),
                );
                continue;
            }
            let prof_ctl = state.obs.prof_begin();
            for action in self.controller.decide(&view) {
                state.obs.on_control(boundary, epoch, &action);
                match action {
                    ControlAction::AddShard => {
                        if let Some(s) = self.active.iter().position(|a| !a) {
                            self.active[s] = true;
                            state.events.activate_shard(s, state.shard_free[s]);
                        }
                    }
                    ControlAction::DrainShard => {
                        let n_active = self.active.iter().filter(|a| **a).count();
                        if n_active > 1 {
                            if let Some(s) = self.active.iter().rposition(|a| *a) {
                                // Drain-before-stop: the shard takes no
                                // new prefills; its in-flight batch and
                                // resident sessions settle normally.
                                self.active[s] = false;
                                state.events.deactivate_shard(s);
                            }
                        }
                    }
                    ControlAction::SetClock(p) => {
                        debug_assert!(p.freq_mhz > 0 && p.mv > 0, "degenerate clock {p:?}");
                        self.clock = p;
                    }
                }
            }
            let st = self.snapshot();
            if self.states.last().is_none_or(|(_, prev)| *prev != st) {
                self.states.push((epoch + 1, st));
            }
            state.obs.prof_end(ProfSection::ControllerStep, prof_ctl);
            state.obs.on_epoch(
                boundary,
                epoch,
                st.active_shards,
                queue_depth,
                self.clock,
                state.inflight_members,
                state.events.depth() as u64,
                state.events.live_shard_events() as u64,
            );
            state.tot.epochs_stepped += 1;
            state.events.set_boundary(boundary.saturating_add(epoch_ns), epoch + 1);
        }
    }
}

/// Runs one request on `backend`: the payload-free fast path for
/// backends that model results from the scenario alone, the
/// materialize-and-run path otherwise.
#[inline(always)]
fn exec_request(
    gen: &RequestGenerator,
    backend: &dyn Backend,
    id: u64,
    scenario: usize,
) -> Result<BackendOutput, ServeError> {
    if backend.payload_free() {
        let wl = gen.scenario(scenario)?;
        backend.run_modeled(scenario, wl, id)
    } else {
        let req = gen.request(id);
        gen.scenario(req.scenario).map_err(ServeError::from).and_then(|wl| backend.run(wl, &req))
    }
}

/// The conservation error of a run that did not serve or shed every
/// arrival exactly once.
#[cold]
#[inline(never)]
fn stranded(tot: &Totals, cfg: &ServeConfig) -> ServeError {
    ServeError::Conservation {
        completed: tot.completed,
        dropped: tot.dropped,
        arrivals: cfg.n_requests as u64,
    }
}

/// The lazy arrival trace: consuming the pending arrival pulls the next
/// from the stream, so the event list holds exactly one.
struct Arrivals {
    stream: ArrivalIter,
    n_requests: u64,
}

impl Arrivals {
    /// Consumes the pending arrival, primes the next, and offers the
    /// request to admission.
    #[inline(always)]
    fn admit_next(
        &mut self,
        state: &mut SimState,
        queue: &mut AdmissionQueue,
        queued: &impl Fn(u64, u64) -> QueuedRequest,
    ) {
        let Some((t, id)) = state.events.take_arrival() else { return };
        if id + 1 < self.n_requests {
            if let Some(t_next) = self.stream.next() {
                debug_assert!(t_next >= t, "arrival stream went backwards");
                state.events.set_arrival(t_next, id + 1);
            }
        }
        let req = queued(id, t);
        let verdict = queue.offer(req);
        state.record_admission(&req, verdict, queue.len());
    }

    /// Admits every pending arrival up to and including `t`.
    #[inline(always)]
    fn admit_until(
        &mut self,
        t: u64,
        state: &mut SimState,
        queue: &mut AdmissionQueue,
        queued: &impl Fn(u64, u64) -> QueuedRequest,
    ) {
        while state.events.arrival().is_some_and(|(ta, _)| ta <= t) {
            self.admit_next(state, queue, queued);
        }
    }
}

/// Display name of a fleet: the single backend name, or the distinct
/// names joined with `+` in shard order.
fn fleet_label(fleet: &[Arc<dyn Backend>]) -> String {
    let mut names: Vec<&str> = Vec::new();
    for b in fleet {
        if !names.contains(&b.name()) {
            names.push(b.name());
        }
    }
    names.join("+")
}

/// One fully-specified serving run: the fleet plus the operating point —
/// the single typed entry point of [`ServeRuntime::serve`].
#[derive(Clone)]
pub struct ServeSpec {
    /// One backend per shard, covering the control ceiling:
    /// `config.control.fleet_size(config.shards)` entries. Shards beyond
    /// `config.shards` start inactive (autoscaling headroom).
    pub fleet: Vec<Arc<dyn Backend>>,
    /// The operating point to serve at.
    pub config: ServeConfig,
}

impl ServeSpec {
    /// A homogeneous fleet: the same backend on every shard, including
    /// any autoscaling headroom up to the control ceiling.
    pub fn homogeneous(backend: &Arc<dyn Backend>, config: &ServeConfig) -> Self {
        let fleet =
            (0..config.control.fleet_size(config.shards)).map(|_| Arc::clone(backend)).collect();
        ServeSpec { fleet, config: config.clone() }
    }

    /// An explicit — possibly heterogeneous — fleet, one backend per
    /// shard (the mixed-fleet mode phase-aware routers exist for).
    pub fn fleet(fleet: Vec<Arc<dyn Backend>>, config: &ServeConfig) -> Self {
        ServeSpec { fleet, config: config.clone() }
    }
}

/// The batched inference runtime: one request generator, one worker pool,
/// any number of [`Self::serve`] calls across backends, fleets and
/// operating points.
///
/// The pool is created once and reused, so a sweep over backends × loads ×
/// batch sizes pays the thread-spawn cost a single time. Its workers are
/// not tied to shards: every worker claims requests from the oldest
/// unfinished batch, whichever shard dispatched it, and the capacity
/// probe ([`Self::modeled_capacity_rps`]) runs on them the same way. The
/// pool size changes wall time only, never a report bit.
///
/// # Example
///
/// ```
/// use defa_model::workload::RequestGenerator;
/// use defa_model::MsdaConfig;
/// use defa_serve::{BackendKind, ServeConfig, ServeRuntime, ServeSpec};
///
/// # fn main() -> Result<(), defa_serve::ServeError> {
/// let gen = RequestGenerator::standard(&MsdaConfig::tiny(), 42)?;
/// let runtime = ServeRuntime::new(gen);
/// let report = runtime.serve(&ServeSpec::homogeneous(
///     &BackendKind::Accelerator.build(),
///     &ServeConfig::at_load(500.0, 8),
/// ))?;
/// assert_eq!(report.completed + report.dropped, 8);
/// # Ok(())
/// # }
/// ```
pub struct ServeRuntime {
    gen: Arc<RequestGenerator>,
    pool: WorkerPool,
}

impl ServeRuntime {
    /// A runtime over `gen` with one pool worker per configured thread
    /// ([`defa_parallel::current_num_threads`]).
    pub fn new(gen: RequestGenerator) -> Self {
        Self::with_pool_threads(gen, defa_parallel::current_num_threads())
    }

    /// A runtime with an explicit pool size (at least one worker).
    pub fn with_pool_threads(gen: RequestGenerator, threads: usize) -> Self {
        ServeRuntime { gen: Arc::new(gen), pool: WorkerPool::new(threads) }
    }

    /// The request generator backing this runtime.
    pub fn generator(&self) -> &RequestGenerator {
        &self.gen
    }

    /// Batch-effective modeled capacity of `shards` shards of `backend`
    /// in requests per virtual second: full `max_batch`-deep batches of
    /// mean-cost requests plus the `overhead_us` dispatch overhead.
    ///
    /// The mean cost is probed deterministically by *running* the first
    /// eight requests of the trace (analytic estimates undershoot the
    /// simulated cycle counts at small scales), so the result is a pure
    /// function of the generator seed — what the trace-driven bench bins
    /// calibrate their offered loads against. The probes run as one
    /// work-shared batch on the pool (inline for payload-free backends)
    /// and their costs sum in id order, so the result is the same for any
    /// pool size.
    ///
    /// # Errors
    ///
    /// Returns the first probe's backend failure in id order, and
    /// [`ServeError::WorkerLost`] if a probe's pool job panicked.
    pub fn modeled_capacity_rps(
        &self,
        backend: &Arc<dyn Backend>,
        shards: usize,
        max_batch: usize,
        overhead_us: u64,
    ) -> Result<f64, ServeError> {
        let probes = 8u64;
        let items: Vec<(u64, usize)> =
            (0..probes).map(|id| (id, self.gen.request_scenario(id))).collect();
        let mut results = Vec::with_capacity(items.len());
        // Payload-free probes stay inline: on the pool, the round trips
        // alone made replay's 0.27 ms set-up 1.6x slower (2-vCPU host).
        if backend.payload_free() {
            results.extend(
                items.iter().map(|&(id, sc)| exec_request(&self.gen, backend.as_ref(), id, sc)),
            );
        } else {
            PoolBatch::submit(&self.pool, 0, &self.gen, backend, items)
                .collect_into(&mut results)
                .map_err(|_| {
                    ServeError::WorkerLost(format!("{} capacity probe dropped", backend.name()))
                })?;
        }
        let mut total_cost_ns = 0f64;
        for r in results {
            total_cost_ns += r?.cost_ns as f64;
        }
        let mean_cost_ns = total_cost_ns / probes as f64;
        let batch_ns = overhead_us as f64 * 1e3 + max_batch.max(1) as f64 * mean_cost_ns;
        Ok(max_batch.max(1) as f64 / batch_ns * 1e9 * shards.max(1) as f64)
    }

    /// Queues one batch's prefills work-shared on the pool, starting at
    /// `shard`'s worker. Kept out of line so the inline replay loop's code
    /// does not move.
    #[inline(never)]
    fn submit_batch(
        &self,
        shard: usize,
        backend: &Arc<dyn Backend>,
        members: &[QueuedRequest],
    ) -> BatchResults {
        let items = members.iter().map(|m| (m.id, m.scenario)).collect();
        BatchResults::Pool(PoolBatch::submit(&self.pool, shard, &self.gen, backend, items))
    }

    /// Serves one fully-specified run ([`ServeSpec`]) and reports
    /// latency, streaming, energy and SLO accounting. One event loop
    /// serves every session profile; see the module docs for its timing
    /// rules.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DegenerateConfig`] /
    /// [`ServeError::InvalidConfig`] for a bad configuration,
    /// [`ServeError::FleetMismatch`] when the fleet does not cover the
    /// control ceiling (`config.control.fleet_size(config.shards)`
    /// backends), [`ServeError::Conservation`] if the engine failed to
    /// serve or shed every arrival exactly once, and propagates backend
    /// failures.
    pub fn serve(&self, spec: &ServeSpec) -> Result<ServeReport, ServeError> {
        let (fleet, cfg) = (&spec.fleet, &spec.config);
        cfg.validate()?;
        let fleet_size = cfg.control.fleet_size(cfg.shards);
        if fleet.len() != fleet_size {
            return Err(ServeError::FleetMismatch { fleet: fleet.len(), shards: fleet_size });
        }
        let seed = self.gen.seed();
        let scheduler = cfg.scheduler.build();
        let router = cfg.router.build();
        let epoch_ns = cfg.control.epoch_us.saturating_mul(1_000).max(1);
        let deadline_ns = cfg.batch_deadline_us.saturating_mul(1_000);
        let overhead_ns = cfg.batch_overhead_us.saturating_mul(1_000);
        let sessions_on = cfg.sessions.enabled();
        let budget = if sessions_on { cfg.sessions.state_budget } else { 0 };
        // Distinct sessions per batch: the whole batch becomes resident
        // at settle, so it must itself fit the state budget.
        let cap = if budget > 0 { cfg.max_batch.min(budget) } else { cfg.max_batch };
        // Memoize each backend's pricing surface once. The scheduler and
        // router estimates and the per-epoch idle accounting index these
        // tables instead of re-running analytic estimators; the `cost`
        // property tests pin every entry equal to the live path.
        let points = cfg.control.controller.pricing_points();
        let tables: Vec<CostTable> = fleet
            .iter()
            .map(|b| CostTable::build(b.as_ref(), &self.gen, &points))
            .collect::<Result<_, _>>()?;
        let est = Estimates::from_tables(&tables, overhead_ns, cfg.max_batch);
        // Payload-free fleets (replay/modeled backends) execute batches
        // inline on the accounting thread: no materialization, no pool
        // round-trip — the fast path trace-scale simulation rides on.
        let inline = fleet.iter().all(|b| b.payload_free());

        let mut state = SimState::new(cfg, seed, fleet_size, epoch_ns);
        let mut ctl = FleetControl {
            controller: cfg.control.controller.build(),
            // Shards beyond cfg.shards start inactive (autoscaling
            // headroom).
            active: (0..fleet_size).map(|s| s < cfg.shards).collect(),
            clock: DvfsPoint::NOMINAL,
            epoch_ns,
            tables,
            states: Vec::new(),
        };
        ctl.states.push((0, ctl.snapshot()));
        let mut queue = AdmissionQueue::new(cfg.queue_capacity, cfg.drop);
        let mut inflight: Vec<Option<Inflight>> = (0..fleet_size).map(|_| None).collect();
        let mut batches = 0u64;
        let mut batched_requests = 0u64;
        for s in 0..cfg.shards {
            state.events.activate_shard(s, 0);
        }
        state.events.set_boundary(epoch_ns, 0);
        let mut arrivals = Arrivals {
            stream: cfg.arrival.stream(cfg.offered_load, seed ^ ARRIVAL_SALT),
            n_requests: cfg.n_requests as u64,
        };
        if let Some(t0) = arrivals.stream.next() {
            state.events.set_arrival(t0, 0);
        }

        let gen = &self.gen;
        let queued = |id: u64, arrival_ns: u64| {
            let scenario = gen.request_scenario(id);
            let slo = gen.request_slo(id);
            QueuedRequest {
                id,
                arrival_ns,
                scenario,
                slo,
                est_cost_ns: est.scenario_cost_ns[scenario],
                deadline_ns: arrival_ns.saturating_add(slo.deadline_ns()),
            }
        };
        // The routable view buffer is rebuilt per dispatch (the active
        // set can change at any boundary) into reused storage.
        let mut views: Vec<ShardView> = Vec::with_capacity(fleet_size);

        loop {
            // The earliest moment the next batch could start: a due
            // decode step at `max(ready, shard free)`, or pending prefill
            // work no sooner than the earliest *active* shard frees.
            // (Under the pipelined round-robin path free times may be
            // stale-low; the bound is still deterministic, which is all
            // the control loop needs.)
            let prof_pop = state.obs.prof_begin();
            let pending = queue
                .front()
                .map(|r| r.arrival_ns)
                .or_else(|| state.events.arrival().map(|(t, _)| t));
            // Validation and the control loop keep a shard active; with
            // none, the pending work is stranded.
            let min_free =
                state.events.min_active_free().ok_or_else(|| stranded(&state.tot, cfg))?;
            let prefill_at = pending.map(|p| min_free.max(p));
            // A due decode step wins ties: the resident session continues
            // before new work claims the shard.
            let decode = state
                .sessions
                .next_decode(&state.shard_free)
                .filter(|&(td, _)| prefill_at.is_none_or(|tp| td <= tp));
            let t_now = match (decode, prefill_at) {
                (Some((td, _)), _) => td,
                (None, Some(tp)) => tp,
                (None, None) => break,
            };
            state.obs.prof_end(ProfSection::EventPop, prof_pop);
            ctl.cross_boundaries(&mut state, t_now, queue.len());

            // Pick the shard and what leads its batch. A due decode step
            // stays on its resident shard; otherwise the router places
            // prefill work on an *active* shard. Routers that read shard
            // backlogs ask for fleet state: every in-flight batch is
            // settled first so free times are exact. Stateless routers
            // (round-robin) route on possibly stale views and settle only
            // the chosen shard, keeping up to one batch in flight per
            // shard — the one-shot pipeline.
            let (shard, decode_at) = match (decode, pending) {
                (Some((td, shard)), _) => (shard, Some(td)),
                (None, None) => break,
                (None, Some(pending)) => {
                    let shard = if router.needs_fleet_state() {
                        for s in 0..fleet_size {
                            state.settle(s, &mut inflight, overhead_ns, fleet, &ctl.active)?;
                        }
                        let min_free = state
                            .events
                            .min_active_free()
                            .ok_or_else(|| stranded(&state.tot, cfg))?;
                        est.fill_views(&mut views, &ctl.active, &state.shard_free);
                        views[router.route(batches, min_free.max(pending), &views)].shard
                    } else {
                        est.fill_views(&mut views, &ctl.active, &state.shard_free);
                        let s = views[router.route(batches, 0, &views)].shard;
                        state.settle(s, &mut inflight, overhead_ns, fleet, &ctl.active)?;
                        s
                    };
                    (shard, None)
                }
            };
            let t_free = state.shard_free[shard];

            // Multi-iteration runs batch at iteration level: prefill work
            // dispatches as soon as the routed shard is free, because a
            // batching window would stall the shard's resident sessions.
            let dispatch_at = decode_at.or(sessions_on.then(|| t_now.max(t_free)));
            let prof_pull = state.obs.prof_begin();
            let (start_ns, decodes, members, prof_dispatch) = if let Some(td) = dispatch_at {
                // The shard's due steps ride first; the scheduler tops the
                // batch up with queued prefills.
                arrivals.admit_until(td, &mut state, &mut queue, &queued);
                state.note_live(queue.len());
                state.obs.prof_end(ProfSection::ArrivalPull, prof_pull);
                let prof_dispatch = state.obs.prof_begin();
                let mut decodes = state.scratch_decodes.pop().unwrap_or_default();
                state.sessions.take_due(shard, td, cap, &mut decodes);
                let mut members = state.scratch_members.pop().unwrap_or_default();
                let slots = cap - decodes.len();
                if slots > 0 && !queue.is_empty() {
                    scheduler.admit_into(&mut queue, slots, td, &mut members);
                }
                if decodes.is_empty() && members.is_empty() {
                    // Every arrival up to `td` was shed: nothing to
                    // dispatch this instant.
                    state.obs.prof_end(ProfSection::Dispatch, prof_dispatch);
                    state.scratch_members.push(members);
                    continue;
                }
                // A prefill admitted by an earlier batching window may
                // postdate the step: nothing is served before it arrives.
                let start_ns = members.iter().map(|m| m.arrival_ns).fold(td, u64::max);
                (start_ns, decodes, members, prof_dispatch)
            } else {
                // Admission: everything that arrived while this shard was
                // busy faces the bounded queue and its drop policy; an idle
                // shard virtually waits for the next arrival (an empty
                // queue always admits).
                arrivals.admit_until(t_free, &mut state, &mut queue, &queued);
                if queue.is_empty() {
                    arrivals.admit_next(&mut state, &mut queue, &queued);
                }
                let Some(oldest) = queue.front().map(|r| r.arrival_ns) else {
                    state.obs.prof_end(ProfSection::ArrivalPull, prof_pull);
                    continue; // other shards may still be in flight
                };
                // Batching window: wait for a full batch unless the oldest
                // waiting request's deadline fires first.
                let t_deadline = oldest + deadline_ns;
                while queue.len() < cap
                    && state.events.arrival().is_some_and(|(t, _)| t <= t_deadline)
                {
                    arrivals.admit_next(&mut state, &mut queue, &queued);
                }
                // One live-state probe per pull phase: the queue only grows
                // between dispatches and in-flight membership is constant
                // here, so the end-of-phase depth *is* the phase's maximum.
                state.note_live(queue.len());
                state.obs.prof_end(ProfSection::ArrivalPull, prof_pull);
                // Scheduling: the policy picks who rides this batch, filling
                // a recycled member buffer (no steady-state allocation).
                let prof_dispatch = state.obs.prof_begin();
                let mut members = state.scratch_members.pop().unwrap_or_default();
                scheduler.select_into(&mut queue, cap, t_free, &mut members);
                let last_arrival = members.iter().map(|m| m.arrival_ns).max().unwrap_or(oldest);
                let ready_at = if members.len() >= cap {
                    last_arrival // when the filling request arrived
                } else if state.events.arrival().is_some() {
                    t_deadline
                } else {
                    last_arrival // trace exhausted: flush
                };
                (t_free.max(ready_at), Vec::new(), members, prof_dispatch)
            };

            if budget > 0 && !state.sessions.gang {
                state.sessions.evict_for(shard, budget, &decodes, &members, |id| {
                    state.tot.evictions += 1;
                    state.obs.on_evicted(start_ns, id);
                });
            }
            let size = decodes.len() + members.len();
            batched_requests += size as u64;
            state.obs.on_dispatch(start_ns, batches, shard, size, ctl.clock);
            for id in decodes.iter().map(|&(_, id)| id).chain(members.iter().map(|m| m.id)) {
                state.obs.on_scheduled(start_ns, id, batches, shard);
            }

            // Real execution. Payload-free fleets evaluate the prefills
            // inline; otherwise they materialize and run work-shared on the
            // pool, results returning over a per-batch channel. Timing
            // comes from the cost model either way, never the wall clock.
            let results = if inline {
                let backend = fleet[shard].as_ref();
                let mut out = state.scratch_results.pop().unwrap_or_default();
                out.extend(members.iter().map(|m| exec_request(gen, backend, m.id, m.scenario)));
                BatchResults::Ready(out)
            } else {
                self.submit_batch(shard, &fleet[shard], &members)
            };
            state.inflight_members += members.len() as u64;
            state.note_live(queue.len());
            let batch =
                Inflight { start_ns, batch: batches, clock: ctl.clock, decodes, members, results };
            inflight[shard] = Some(batch);
            batches += 1;
            state.obs.prof_end(ProfSection::Dispatch, prof_dispatch);
            if sessions_on {
                state.settle(shard, &mut inflight, overhead_ns, fleet, &ctl.active)?;
            }
        }
        for s in 0..fleet_size {
            state.settle(s, &mut inflight, overhead_ns, fleet, &ctl.active)?;
        }
        state.into_report(fleet, cfg, batches, batched_requests, &ctl.states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::DropPolicy;
    use crate::backend::BackendKind;
    use crate::energy::EnergyBreakdown;
    use crate::loadgen::ArrivalProcess;
    use crate::router::RouterKind;
    use crate::scheduler::SchedulerKind;
    use defa_model::MsdaConfig;

    fn runtime() -> ServeRuntime {
        ServeRuntime::new(RequestGenerator::standard(&MsdaConfig::tiny(), 42).unwrap())
    }

    fn serve(
        rt: &ServeRuntime,
        backend: &Arc<dyn Backend>,
        cfg: &ServeConfig,
    ) -> Result<ServeReport, ServeError> {
        rt.serve(&ServeSpec::homogeneous(backend, cfg))
    }

    fn serve_fleet(
        rt: &ServeRuntime,
        fleet: Vec<Arc<dyn Backend>>,
        cfg: &ServeConfig,
    ) -> Result<ServeReport, ServeError> {
        rt.serve(&ServeSpec::fleet(fleet, cfg))
    }

    /// A session profile that exercises session state: short
    /// multi-iteration sessions with sub-epoch think times.
    fn chatty(cfg: &ServeConfig) -> ServeConfig {
        ServeConfig {
            sessions: crate::config::SessionConfig {
                profile: defa_model::workload::SessionProfile {
                    min_len: 2,
                    max_len: 5,
                    think_mean_us: 200,
                },
                state_budget: 0,
                gang: false,
            },
            ..cfg.clone()
        }
    }

    #[test]
    fn every_request_is_accounted_for() {
        let rt = runtime();
        let cfg = ServeConfig::at_load(2_000.0, 24);
        let report = serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap();
        assert_eq!(report.completed + report.dropped, 24);
        assert_eq!(report.outcomes.len(), 24);
        assert_eq!(report.total.count(), report.completed);
        assert!(report.makespan_ns > 0);
        assert!(report.batches > 0);
        assert!(report.mean_batch_size() >= 1.0);
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        let rt = runtime();
        let cfg = ServeConfig::at_load(1_000.0, 16);
        let backend = BackendKind::Pruned.build();
        let a = serve(&rt, &backend, &cfg).unwrap();
        let b = serve(&rt, &backend, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn overload_triggers_backpressure_drops() {
        let rt = runtime();
        // A tiny queue, one shard and a huge offered load must shed.
        let cfg = ServeConfig {
            queue_capacity: 2,
            max_batch: 2,
            shards: 1,
            ..ServeConfig::at_load(5e6, 64)
        };
        let report = serve(&rt, &BackendKind::Dense.build(), &cfg).unwrap();
        assert!(report.dropped > 0, "expected drops under overload");
        assert_eq!(report.completed + report.dropped, 64);
        // Drops are outcomes too.
        let drops =
            report.outcomes.iter().filter(|o| matches!(o, RequestOutcome::Dropped { .. })).count()
                as u64;
        assert_eq!(drops, report.dropped);
    }

    #[test]
    fn evict_oldest_sheds_the_stalest_work() {
        let rt = runtime();
        let base = ServeConfig {
            queue_capacity: 2,
            max_batch: 2,
            shards: 1,
            ..ServeConfig::at_load(5e6, 64)
        };
        let reject = serve(&rt, &BackendKind::Dense.build(), &base).unwrap();
        let evict = serve(
            &rt,
            &BackendKind::Dense.build(),
            &ServeConfig { drop: DropPolicy::EvictOldest, ..base.clone() },
        )
        .unwrap();
        assert!(evict.dropped > 0);
        assert_eq!(evict.completed + evict.dropped, 64);
        // Same load, same shedding volume — only *who* is shed differs:
        // eviction keeps later arrivals, so the set of completed ids skews
        // later than under tail drop.
        let mean_completed_id = |r: &ServeReport| {
            let ids: Vec<u64> = r
                .outcomes
                .iter()
                .enumerate()
                .filter(|(_, o)| matches!(o, RequestOutcome::Completed { .. }))
                .map(|(id, _)| id as u64)
                .collect();
            ids.iter().sum::<u64>() as f64 / ids.len() as f64
        };
        assert!(
            mean_completed_id(&evict) > mean_completed_id(&reject),
            "eviction must favour fresher requests ({} vs {})",
            mean_completed_id(&evict),
            mean_completed_id(&reject)
        );
    }

    #[test]
    fn low_load_produces_partial_deadline_batches() {
        let rt = runtime();
        // Offered load far below service rate: batches go out on the
        // deadline with few requests each.
        let cfg =
            ServeConfig { max_batch: 8, batch_deadline_us: 100, ..ServeConfig::at_load(50.0, 12) };
        let report = serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap();
        assert_eq!(report.dropped, 0);
        assert!(
            report.mean_batch_size() < 4.0,
            "deadline batching should stay small at low load, got {}",
            report.mean_batch_size()
        );
    }

    #[test]
    fn deeper_batches_amortize_dispatch_overhead() {
        let rt = runtime();
        let backend = BackendKind::Accelerator.build();
        let base = ServeConfig {
            shards: 1,
            batch_overhead_us: 500,
            batch_deadline_us: 10_000,
            queue_capacity: 256,
            ..ServeConfig::at_load(4_000.0, 32)
        };
        let singles = serve(&rt, &backend, &ServeConfig { max_batch: 1, ..base.clone() }).unwrap();
        let batched = serve(&rt, &backend, &ServeConfig { max_batch: 16, ..base.clone() }).unwrap();
        assert_eq!(singles.dropped, 0);
        assert_eq!(batched.dropped, 0);
        assert!(
            batched.makespan_ns < singles.makespan_ns,
            "batching must amortize overhead: {} vs {}",
            batched.makespan_ns,
            singles.makespan_ns
        );
    }

    #[test]
    fn energy_totals_equal_the_sum_of_per_request_attributions() {
        let rt = runtime();
        let cfg = ServeConfig::at_load(2_000.0, 20);
        for kind in BackendKind::all() {
            let report = serve(&rt, &kind.build(), &cfg).unwrap();
            let mut sum = EnergyBreakdown::ZERO;
            for o in &report.outcomes {
                if let RequestOutcome::Completed { energy, .. } = o {
                    sum += *energy;
                }
            }
            assert_eq!(sum, report.energy, "{} energy totals disagree", kind.name());
            assert!(report.energy.total_pj() > 0);
            assert!(report.joules_per_request() > 0.0);
            assert!(report.requests_per_joule() > 0.0);
            assert!(report.average_power_w() > 0.0);
            assert!(report.gops_per_watt() > 0.0);
            assert!(report.dense_flops > 0);
        }
    }

    #[test]
    fn energy_per_request_is_load_invariant() {
        // Energy is a property of the request, not of the schedule: two
        // very different load points must attribute identical totals when
        // they serve the same (complete) trace.
        let rt = runtime();
        let backend = BackendKind::Accelerator.build();
        let low = serve(&rt, &backend, &ServeConfig::at_load(300.0, 12)).unwrap();
        let high = serve(&rt, &backend, &ServeConfig::at_load(30_000.0, 12)).unwrap();
        assert_eq!(low.dropped, 0);
        assert_eq!(high.dropped, 0);
        assert_eq!(low.energy, high.energy);
        assert_eq!(low.dense_flops, high.dense_flops);
    }

    #[test]
    fn drop_fraction_divides_by_observed_arrivals() {
        let rt = runtime();
        let cfg = ServeConfig {
            queue_capacity: 2,
            max_batch: 2,
            shards: 1,
            ..ServeConfig::at_load(5e6, 64)
        };
        let report = serve(&rt, &BackendKind::Dense.build(), &cfg).unwrap();
        assert!(report.dropped > 0);
        let arrivals = report.completed + report.dropped;
        assert_eq!(arrivals, 64, "full trace: arrivals match the config");
        assert!((report.drop_fraction() - report.dropped as f64 / arrivals as f64).abs() < 1e-12);
        assert!(report.drop_fraction() > 0.0 && report.drop_fraction() < 1.0);
        // A drop-free run reports zero.
        let calm =
            serve(&rt, &BackendKind::Dense.build(), &ServeConfig::at_load(100.0, 4)).unwrap();
        assert_eq!(calm.dropped, 0);
        assert_eq!(calm.drop_fraction(), 0.0);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let rt = runtime();
        let backend = BackendKind::Dense.build();
        for cfg in [
            ServeConfig { offered_load: 0.0, ..ServeConfig::at_load(1.0, 1) },
            ServeConfig { n_requests: 0, ..ServeConfig::at_load(1.0, 1) },
            ServeConfig { shards: 0, ..ServeConfig::at_load(1.0, 1) },
            ServeConfig { batch_deadline_us: 0, ..ServeConfig::at_load(1.0, 1) },
        ] {
            assert!(matches!(serve(&rt, &backend, &cfg), Err(ServeError::DegenerateConfig { .. })));
        }
        let cross =
            ServeConfig { max_batch: 100, queue_capacity: 10, ..ServeConfig::at_load(1.0, 1) };
        assert!(matches!(serve(&rt, &backend, &cross), Err(ServeError::InvalidConfig(_))));
    }

    #[test]
    fn fleets_must_match_the_shard_count() {
        let rt = runtime();
        let fleet = BackendKind::build_fleet(&[BackendKind::Dense]);
        let cfg = ServeConfig { shards: 2, ..ServeConfig::at_load(500.0, 4) };
        assert!(matches!(
            serve_fleet(&rt, fleet, &cfg),
            Err(ServeError::FleetMismatch { fleet: 1, shards: 2 })
        ));
    }

    #[test]
    fn heterogeneous_fleets_attribute_work_per_shard() {
        let rt = runtime();
        let fleet = BackendKind::build_fleet(&[BackendKind::Dense, BackendKind::Accelerator]);
        let cfg = ServeConfig {
            shards: 2,
            router: RouterKind::EnergyAware,
            ..ServeConfig::at_load(2_000.0, 16)
        };
        let report = serve_fleet(&rt, fleet, &cfg).unwrap();
        assert_eq!(report.backend, "dense+defa-accel");
        assert_eq!(report.completed + report.dropped, 16);
        let per_shard = report.completed_per_shard();
        assert_eq!(per_shard.iter().sum::<u64>(), report.completed);
        // Energy-aware routing must drain most work through the
        // accelerator shard (index 1), whose energy rating is ~2000x
        // lower.
        assert!(
            per_shard[1] > per_shard[0],
            "energy-aware routing sent {per_shard:?} to [dense, accel]"
        );
    }

    #[test]
    fn policy_layers_compose_without_losing_requests() {
        let rt = runtime();
        let backend = BackendKind::Accelerator.build();
        for arrival in
            [ArrivalProcess::Poisson, ArrivalProcess::bursty_default(), ArrivalProcess::Uniform]
        {
            for scheduler in SchedulerKind::all() {
                for router in RouterKind::all() {
                    let cfg = ServeConfig {
                        arrival: arrival.clone(),
                        scheduler,
                        router,
                        ..ServeConfig::at_load(4_000.0, 12)
                    };
                    let report = serve(&rt, &backend, &cfg).unwrap();
                    assert_eq!(
                        report.completed + report.dropped,
                        12,
                        "{}/{}/{} lost requests",
                        arrival.label(),
                        scheduler.name(),
                        router.name()
                    );
                }
            }
        }
    }

    #[test]
    fn outcome_capture_caps_the_debug_record_without_touching_aggregates() {
        let rt = runtime();
        let backend = BackendKind::Accelerator.build();
        let cfg = ServeConfig::at_load(2_000.0, 16);
        let full = serve(&rt, &backend, &cfg).unwrap();
        let capped =
            serve(&rt, &backend, &ServeConfig { outcome_capture: 4, ..cfg.clone() }).unwrap();
        // The capture is a strict prefix of the full record; every
        // aggregate — digest included — is computed from all requests
        // either way.
        assert_eq!(full.outcomes.len(), 16);
        assert_eq!(capped.outcomes.len(), 4);
        assert_eq!(&full.outcomes[..4], &capped.outcomes[..]);
        assert_eq!(full.digest, capped.digest);
        assert_eq!(full.completed, capped.completed);
        assert_eq!(full.energy, capped.energy);
        assert_eq!(full.timeline, capped.timeline);
        assert_eq!(full.live, capped.live);
        // Live-state accounting is populated.
        assert!(capped.live.peak_inflight > 0);
        assert!(capped.live.peak_events > 0);
        assert!(capped.live.peak_reorder > 0);
        assert!(capped.live.epochs_stepped + capped.live.epochs_skipped > 0);
        // And zero capture means zero retained outcomes.
        let none = serve(&rt, &backend, &ServeConfig { outcome_capture: 0, ..cfg }).unwrap();
        assert!(none.outcomes.is_empty());
        assert_eq!(none.digest, full.digest);
    }

    #[test]
    fn display_covers_the_key_lines() {
        let rt = runtime();
        let report =
            serve(&rt, &BackendKind::Accelerator.build(), &ServeConfig::at_load(500.0, 8)).unwrap();
        let s = report.to_string();
        for key in
            ["serve report", "offered", "policy", "served", "throughput", "total", "p99", "fifo"]
        {
            assert!(s.contains(key), "missing {key} in:\n{s}");
        }
    }

    #[test]
    fn legacy_reports_mirror_streaming_fields() {
        // Under the one-shot profile the streaming view degenerates:
        // every request is one iteration, TTFT is the total latency.
        let rt = runtime();
        let report =
            serve(&rt, &BackendKind::Accelerator.build(), &ServeConfig::at_load(2_000.0, 16))
                .unwrap();
        assert_eq!(report.iterations, report.completed);
        assert_eq!(report.evictions, 0);
        assert_eq!(report.ttft, report.total);
        assert_eq!(report.tbt.count(), 0);
        assert_eq!(report.ttft_violations, report.slo_violations);
        assert_eq!(report.tbt_violations, 0);
    }

    #[test]
    fn sessions_conserve_requests_and_count_iterations() {
        let rt = runtime();
        let cfg = chatty(&ServeConfig::at_load(1_000.0, 16));
        let report = serve(&rt, &BackendKind::Accelerator.build(), &cfg).unwrap();
        assert_eq!(report.completed + report.dropped, 16);
        assert_eq!(report.outcomes.len(), 16);
        // Sessions, not iterations, are the unit of completion...
        assert_eq!(report.total.count(), report.completed);
        assert_eq!(report.ttft.count(), report.completed);
        // ...but every decode step is accounted: min_len 2 guarantees
        // strictly more iterations than sessions.
        assert!(report.iterations > report.completed);
        assert_eq!(report.tbt.count(), report.iterations - report.completed);
        assert!(report.makespan_ns > 0);
    }

    #[test]
    fn session_runs_are_byte_identical() {
        let rt = runtime();
        let cfg = chatty(&ServeConfig::at_load(2_000.0, 16));
        let backend = BackendKind::Pruned.build();
        let a = serve(&rt, &backend, &cfg).unwrap();
        let b = serve(&rt, &backend, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn gang_and_continuous_agree_on_response_bits() {
        // Scheduling differs, bits do not: both engines fold the same
        // per-iteration digests, so at drop-free load the ledgers match.
        let rt = runtime();
        let backend = BackendKind::Accelerator.build();
        let cfg = chatty(&ServeConfig::at_load(400.0, 12));
        let cont = serve(&rt, &backend, &cfg).unwrap();
        let gang = serve(
            &rt,
            &backend,
            &ServeConfig {
                sessions: crate::config::SessionConfig { gang: true, ..cfg.sessions },
                ..cfg.clone()
            },
        )
        .unwrap();
        assert_eq!(cont.dropped, 0);
        assert_eq!(gang.dropped, 0);
        assert_eq!(cont.digest, gang.digest);
        assert_eq!(cont.energy, gang.energy);
        assert_eq!(cont.iterations, gang.iterations);
        assert_eq!(gang.evictions, 0, "gang sessions never release state mid-flight");
    }

    #[test]
    fn state_budget_forces_deterministic_evictions() {
        let rt = runtime();
        let backend = BackendKind::Accelerator.build();
        let base =
            chatty(&ServeConfig { shards: 1, max_batch: 4, ..ServeConfig::at_load(8_000.0, 24) });
        let unconstrained = serve(&rt, &backend, &base).unwrap();
        assert_eq!(unconstrained.evictions, 0);
        let tight = ServeConfig {
            sessions: crate::config::SessionConfig { state_budget: 2, ..base.sessions },
            ..base.clone()
        };
        let constrained = serve(&rt, &backend, &tight).unwrap();
        assert!(
            constrained.evictions > 0,
            "a 2-session budget under 24 overlapping sessions must evict"
        );
        // Recompute is deterministic: response bits survive eviction,
        // while the re-run prefills cost extra energy and FLOPs.
        if constrained.dropped == unconstrained.dropped {
            assert_eq!(constrained.digest, unconstrained.digest);
        }
        assert!(constrained.energy.total_pj() >= unconstrained.energy.total_pj());
        let b = serve(&rt, &backend, &tight).unwrap();
        assert_eq!(constrained, b, "evictions are part of the deterministic schedule");
    }
}
