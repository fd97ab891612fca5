//! Batch-formation policy: which queued requests ride the next batch.
//!
//! The scheduler is consulted once per dispatch with the admission queue
//! and a batch budget; it removes up to `max_batch` requests and appends
//! them in service order. Policies differ in *selection*, never in
//! timing — the runtime alone decides when a batch launches
//! (size/deadline triggers) and where it runs ([`crate::router`]), so
//! policies compose freely with routers and arrival processes.
//!
//! # Determinism and fairness contract
//!
//! Every implementation must be a pure function of the queue contents and
//! `now_ns` (no wall clock, no interior mutability), must serve each
//! selected request exactly once, and must break ties by
//! `(arrival_ns, id)` so that two requests of the same SLO class and
//! scenario are always served in arrival order — the starvation bound
//! `tests/tests/serving.rs` pins for every policy:
//!
//! * [`FifoScheduler`] — strict arrival order (the PR 2 behaviour, and
//!   the reference every byte-compat test is pinned against);
//! * [`SjfScheduler`] — shortest job first on the fleet-mean cost
//!   estimate, with an aging guard: requests whose SLO deadline has
//!   already passed jump to the front in arrival order, bounding how long
//!   a long job can starve;
//! * [`EdfScheduler`] — earliest absolute SLO deadline first, the
//!   classic deadline scheduler over [`defa_model::workload::SloClass`].
//!
//! # `O(log n)` selection
//!
//! SJF and EDF used to sort the whole queue on every dispatch —
//! `O(n log n)` per batch, the dominant scheduler cost once queues run
//! deep. Selection now delegates to the [`AdmissionQueue`]'s
//! generation-checked policy heaps (`select_sjf_into` /
//! `select_edf_into`), which pop each request in `O(log n)` under
//! exactly the same total order. The old linear scans survive verbatim
//! in [`reference`] as the oracle the property tests compare pop
//! sequences against — on randomized queues with duplicate costs,
//! deadlines and arrival times, the heaps must reproduce the scans'
//! output byte for byte.

use crate::admission::{AdmissionQueue, QueuedRequest};

/// Chooses which queued requests form the next batch.
pub trait Scheduler: Send + Sync {
    /// Short display name for tables and reports.
    fn name(&self) -> &'static str;

    /// Removes up to `max_batch` requests from `queue` and appends them
    /// to `out` in service order. `now_ns` is the virtual time of the
    /// dispatching shard (its free time), for age-aware policies. The
    /// `out` buffer lets the runtime recycle batch allocations across
    /// dispatches; implementations append without clearing.
    fn select_into(
        &self,
        queue: &mut AdmissionQueue,
        max_batch: usize,
        now_ns: u64,
        out: &mut Vec<QueuedRequest>,
    );

    /// [`Scheduler::select_into`] into a fresh buffer.
    fn select(
        &self,
        queue: &mut AdmissionQueue,
        max_batch: usize,
        now_ns: u64,
    ) -> Vec<QueuedRequest> {
        let mut out = Vec::with_capacity(queue.len().min(max_batch));
        self.select_into(queue, max_batch, now_ns, &mut out);
        out
    }

    /// Iteration-level admission: fills up to `slots` free positions of a
    /// batch that is *already forming* — the continuous-batching hook the
    /// engine calls for iteration-level batches, after due decode steps have
    /// claimed their places, so new sessions join a shard's batch between
    /// steps instead of waiting for the shard to drain.
    ///
    /// Appends to `out` without clearing (the buffer already holds the
    /// decode members). The default admits in exactly the policy's
    /// service order ([`Scheduler::select_into`] with a `slots` budget);
    /// policies that want different admission and formation orders
    /// override. The purity/fairness contract is the same as
    /// `select_into`'s.
    fn admit_into(
        &self,
        queue: &mut AdmissionQueue,
        slots: usize,
        now_ns: u64,
        out: &mut Vec<QueuedRequest>,
    ) {
        self.select_into(queue, slots, now_ns, out);
    }
}

/// Strict arrival order (first in, first out).
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn select_into(
        &self,
        queue: &mut AdmissionQueue,
        max_batch: usize,
        _now_ns: u64,
        out: &mut Vec<QueuedRequest>,
    ) {
        queue.select_fifo_into(max_batch, out);
    }
}

/// Shortest job first on the per-scenario cost estimate, with deadline
/// aging so expensive requests cannot starve: any request already past
/// its SLO deadline at `now_ns` is served first, in arrival order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SjfScheduler;

impl Scheduler for SjfScheduler {
    fn name(&self) -> &'static str {
        "sjf"
    }

    fn select_into(
        &self,
        queue: &mut AdmissionQueue,
        max_batch: usize,
        now_ns: u64,
        out: &mut Vec<QueuedRequest>,
    ) {
        queue.select_sjf_into(max_batch, now_ns, out);
    }
}

/// Earliest absolute SLO deadline first.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdfScheduler;

impl Scheduler for EdfScheduler {
    fn name(&self) -> &'static str {
        "edf"
    }

    fn select_into(
        &self,
        queue: &mut AdmissionQueue,
        max_batch: usize,
        _now_ns: u64,
        out: &mut Vec<QueuedRequest>,
    ) {
        queue.select_edf_into(max_batch, out);
    }
}

/// The linear-scan selection policies the heaps are verified against.
///
/// These are the pre-optimization implementations, operating on a plain
/// snapshot of the queue: sort every waiter by the policy's full key,
/// truncate to the batch. They are `O(n log n)` per call and exist so
/// the property tests (and anyone auditing the heap code) have an
/// independently-simple statement of the required service order.
pub mod reference {
    use super::QueuedRequest;

    /// SJF-with-aging order: sorts by `(fresh, cost-if-fresh-else-0,
    /// arrival_ns, id)` where `fresh = deadline_ns > now_ns`, takes the
    /// first `max_batch`.
    pub fn sjf(items: &[QueuedRequest], max_batch: usize, now_ns: u64) -> Vec<QueuedRequest> {
        let mut order: Vec<&QueuedRequest> = items.iter().collect();
        order.sort_by_key(|r| {
            let fresh = r.deadline_ns > now_ns; // overdue (false) sorts first…
            let cost = if fresh { r.est_cost_ns } else { 0 }; // …in arrival order
            (fresh, cost, r.arrival_ns, r.id)
        });
        order.truncate(items.len().min(max_batch));
        order.into_iter().copied().collect()
    }

    /// EDF order: sorts by `(deadline_ns, arrival_ns, id)`, takes the
    /// first `max_batch`.
    pub fn edf(items: &[QueuedRequest], max_batch: usize) -> Vec<QueuedRequest> {
        let mut order: Vec<&QueuedRequest> = items.iter().collect();
        order.sort_by_key(|r| (r.deadline_ns, r.arrival_ns, r.id));
        order.truncate(items.len().min(max_batch));
        order.into_iter().copied().collect()
    }
}

/// The shipped scheduling policies, for config, sweeps and CLI selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// [`FifoScheduler`] (the default — byte-compatible with PR 2/PR 3).
    #[default]
    Fifo,
    /// [`SjfScheduler`].
    Sjf,
    /// [`EdfScheduler`].
    Edf,
}

impl SchedulerKind {
    /// All policies in presentation order.
    pub fn all() -> [SchedulerKind; 3] {
        [SchedulerKind::Fifo, SchedulerKind::Sjf, SchedulerKind::Edf]
    }

    /// The policy's display name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::Sjf => "sjf",
            SchedulerKind::Edf => "edf",
        }
    }

    /// Builds the scheduler.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Fifo => Box::new(FifoScheduler),
            SchedulerKind::Sjf => Box::new(SjfScheduler),
            SchedulerKind::Edf => Box::new(EdfScheduler),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::DropPolicy;
    use defa_model::workload::SloClass;

    fn queue_of(reqs: &[(u64, u64, SloClass, u64)]) -> AdmissionQueue {
        // (id, arrival, slo, est_cost)
        let mut q = AdmissionQueue::new(64, DropPolicy::RejectNewest);
        for &(id, arrival_ns, slo, est_cost_ns) in reqs {
            q.offer(QueuedRequest {
                id,
                arrival_ns,
                scenario: 0,
                slo,
                est_cost_ns,
                deadline_ns: arrival_ns + slo.deadline_ns(),
            });
        }
        q
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        let mut q = queue_of(&[
            (0, 10, SloClass::Batch, 900),
            (1, 20, SloClass::Interactive, 100),
            (2, 30, SloClass::Standard, 500),
        ]);
        let batch = FifoScheduler.select(&mut q, 2, 1_000);
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.front().unwrap().id, 2);
    }

    #[test]
    fn sjf_orders_by_estimate_with_arrival_tiebreak() {
        let mut q = queue_of(&[
            (0, 10, SloClass::Standard, 900),
            (1, 20, SloClass::Standard, 100),
            (2, 30, SloClass::Standard, 100),
            (3, 40, SloClass::Standard, 500),
        ]);
        let batch = SjfScheduler.select(&mut q, 3, 50);
        // 100 ns jobs first (ids 1 then 2: equal cost, arrival breaks the
        // tie), then the 500 ns job; the 900 ns job waits.
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(q.front().unwrap().id, 0);
    }

    #[test]
    fn sjf_ages_overdue_requests_to_the_front() {
        let mut q = queue_of(&[
            (0, 10, SloClass::Interactive, 900), // deadline 2_000_010
            (1, 20, SloClass::Batch, 100),
        ]);
        // Far past the interactive deadline: the expensive overdue request
        // must preempt the cheap fresh one.
        let batch = SjfScheduler.select(&mut q, 1, 5_000_000);
        assert_eq!(batch[0].id, 0);
    }

    #[test]
    fn edf_orders_by_absolute_deadline() {
        let mut q = queue_of(&[
            (0, 10, SloClass::Batch, 100),       // deadline 100_000_010
            (1, 20, SloClass::Interactive, 900), // deadline  2_000_020
            (2, 30, SloClass::Standard, 500),    // deadline 10_000_030
        ]);
        let batch = EdfScheduler.select(&mut q, 2, 50);
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(q.front().unwrap().id, 0);
    }

    #[test]
    fn admit_into_fills_partial_batches_in_policy_order() {
        for kind in SchedulerKind::all() {
            let sched = kind.build();
            let mut q = queue_of(&[
                (0, 10, SloClass::Batch, 300),
                (1, 20, SloClass::Interactive, 100),
                (2, 30, SloClass::Standard, 200),
            ]);
            // A batch mid-formation already holds one (decode) member;
            // admission must append after it, never clear it.
            let sentinel = QueuedRequest {
                id: 99,
                arrival_ns: 0,
                scenario: 0,
                slo: SloClass::Standard,
                est_cost_ns: 1,
                deadline_ns: 1,
            };
            let mut batch = vec![sentinel];
            sched.admit_into(&mut q, 2, 50, &mut batch);
            assert_eq!(batch.len(), 3, "{}: 1 held + 2 admitted", kind.name());
            assert_eq!(batch[0].id, 99, "{}: held member survives", kind.name());
            // The admitted tail is the policy's own service order.
            let mut q2 = queue_of(&[
                (0, 10, SloClass::Batch, 300),
                (1, 20, SloClass::Interactive, 100),
                (2, 30, SloClass::Standard, 200),
            ]);
            let want = sched.select(&mut q2, 2, 50);
            assert_eq!(&batch[1..], &want[..], "{} admission order", kind.name());
        }
    }

    #[test]
    fn every_kind_serves_each_request_exactly_once() {
        for kind in SchedulerKind::all() {
            let sched = kind.build();
            let mut q = queue_of(&[
                (0, 10, SloClass::Batch, 300),
                (1, 20, SloClass::Interactive, 100),
                (2, 30, SloClass::Standard, 200),
                (3, 40, SloClass::Interactive, 400),
                (4, 50, SloClass::Batch, 100),
            ]);
            let mut served = Vec::new();
            while !q.is_empty() {
                served.extend(sched.select(&mut q, 2, 1_000).into_iter().map(|r| r.id));
            }
            let mut sorted = served.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2, 3, 4], "{}: {served:?}", kind.name());
        }
    }

    // ---- heap vs linear-reference property tests ------------------------

    /// splitmix64: the repo's standard test PRNG.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A randomized request with deliberately *small* key ranges so that
    /// duplicate costs, arrivals and deadlines are common — the regime
    /// where only the full `(key, arrival, id)` order disambiguates.
    fn rand_req(id: u64, rng: &mut u64) -> QueuedRequest {
        let arrival_ns = mix(rng) % 8; // heavy arrival collisions
        let est_cost_ns = 1 + mix(rng) % 4; // heavy cost collisions
        let deadline_ns = arrival_ns + 1 + mix(rng) % 16;
        QueuedRequest {
            id,
            arrival_ns,
            scenario: (mix(rng) % 9) as usize,
            slo: SloClass::Standard,
            est_cost_ns,
            deadline_ns,
        }
    }

    /// Drains `q` through the heap-backed scheduler in batches, checking
    /// each batch against the linear reference computed from the queue's
    /// arrival-order snapshot *before* the selection.
    fn drain_against_reference(kind: SchedulerKind, q: &mut AdmissionQueue, rng: &mut u64) {
        let sched = kind.build();
        let mut round = 0u32;
        while !q.is_empty() {
            let snapshot: Vec<QueuedRequest> = q.iter().copied().collect();
            let max_batch = 1 + (mix(rng) % 7) as usize;
            // Non-monotone now_ns across rounds: shard free times jump
            // both ways, so fresh/overdue migration runs in both
            // directions.
            let now_ns = mix(rng) % 32;
            let want = match kind {
                SchedulerKind::Sjf => reference::sjf(&snapshot, max_batch, now_ns),
                SchedulerKind::Edf => reference::edf(&snapshot, max_batch),
                SchedulerKind::Fifo => {
                    snapshot.iter().take(max_batch.min(snapshot.len())).copied().collect()
                }
            };
            let got = sched.select(q, max_batch, now_ns);
            assert_eq!(
                got,
                want,
                "{} diverged from linear reference (round {round}, now {now_ns}, \
                 batch {max_batch})",
                kind.name()
            );
            round += 1;
        }
    }

    #[test]
    fn heap_pop_order_matches_linear_reference_on_random_queues() {
        for kind in SchedulerKind::all() {
            let mut rng = 0xDEFA_0000_0000_0A11 ^ kind.name().len() as u64;
            for case in 0..40u64 {
                let mut q = AdmissionQueue::new(512, DropPolicy::RejectNewest);
                let n = 1 + mix(&mut rng) % 80;
                for id in 0..n {
                    q.offer(rand_req(id, &mut rng));
                }
                // Interleave refills to exercise slot recycling + gen
                // invalidation, not just one monotone drain.
                let refill_at = mix(&mut rng) % n.max(2);
                let mut extra = n;
                let sched = kind.build();
                let mut drained = 0u64;
                while drained < refill_at && !q.is_empty() {
                    let snapshot: Vec<QueuedRequest> = q.iter().copied().collect();
                    let now_ns = mix(&mut rng) % 32;
                    let want = match kind {
                        SchedulerKind::Sjf => reference::sjf(&snapshot, 3, now_ns),
                        SchedulerKind::Edf => reference::edf(&snapshot, 3),
                        SchedulerKind::Fifo => {
                            snapshot.iter().take(3.min(snapshot.len())).copied().collect()
                        }
                    };
                    let got = sched.select(&mut q, 3, now_ns);
                    assert_eq!(got, want, "{} case {case} pre-refill", kind.name());
                    drained += got.len() as u64;
                }
                for _ in 0..mix(&mut rng) % 20 {
                    q.offer(rand_req(extra, &mut rng));
                    extra += 1;
                }
                drain_against_reference(kind, &mut q, &mut rng);
            }
        }
    }

    #[test]
    fn heap_sjf_migrates_both_directions_as_now_regresses() {
        // Pin the two-way migration explicitly: a request promoted to
        // overdue at a late now_ns must be treated as fresh again when a
        // different shard dispatches at an earlier free time.
        let mut q = queue_of(&[
            (0, 10, SloClass::Interactive, 900), // deadline 2_000_010
            (1, 20, SloClass::Interactive, 100), // deadline 2_000_020
        ]);
        // First select at now far past both deadlines: overdue order is
        // arrival order, so the expensive id 0 comes first.
        let batch = SjfScheduler.select(&mut q, 1, 5_000_000);
        assert_eq!(batch[0].id, 0);
        // Second select at now *before* the remaining deadline: id 1 is
        // fresh again (cost order — trivially first as the only waiter),
        // and crucially the selection must not panic or misorder after
        // the set migration back.
        let batch = SjfScheduler.select(&mut q, 1, 1_000);
        assert_eq!(batch[0].id, 1);
        assert!(q.is_empty());
    }
}
