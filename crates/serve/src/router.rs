//! Shard-selection policy: which shard the next batch runs on.
//!
//! A shard is one backend instance pinned to one worker; a *fleet* is the
//! full set of shards, and nothing requires them to wrap the same
//! backend — a heterogeneous fleet mixes, say, GPU-modeled dense shards
//! with simulated-accelerator shards, and the router is where the mix
//! becomes a policy question: send work wherever it finishes soonest
//! ([`LatencyAwareRouter`]), wherever it costs the least energy
//! ([`EnergyAwareRouter`]), wherever the backlog is shortest
//! ([`LeastOutstandingRouter`]), or just deal batches out in turn
//! ([`RoundRobinRouter`], the PR 2 behaviour).
//!
//! # Determinism contract
//!
//! Routing sees only virtual-time state ([`ShardView`]): settled free
//! times and per-shard scenario-mean cost/energy ratings, all pure
//! functions of the seed and the cost models. A router must be a pure
//! function of `(batch index, shard views)` with deterministic
//! tie-breaks (lowest shard index), so the schedule — and therefore the
//! whole `ServeReport` — never observes thread timing.
//!
//! Routers that read `free_ns` must return `true` from
//! [`Router::needs_fleet_state`]; the runtime then settles every
//! in-flight batch before routing, trading pipelining for an exact view.
//! [`RoundRobinRouter`] opts out, which is what lets the default
//! configuration keep up to one batch in flight per shard — exactly the
//! PR 2 execution and its byte-identical reports.

/// What a router may know about one shard when placing a batch.
///
/// The estimate fields are folded once per run from the fleet's memoized
/// [`crate::cost::CostTable`]s (nominal rows — exactly the backends'
/// live analytic estimators); routing never re-runs an estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardView {
    /// Shard index.
    pub shard: usize,
    /// Virtual time at which the shard is (last known to be) free. Exact
    /// for routers that request fleet state, possibly stale otherwise.
    pub free_ns: u64,
    /// Estimated wall of one *full* batch on this shard: dispatch
    /// overhead plus `max_batch` scenario-mean requests — the natural
    /// unit for both finish-time and backlog comparisons, since a shard's
    /// clock advances a batch at a time.
    pub est_batch_ns: u64,
    /// Scenario-mean modeled energy of one request on this shard's
    /// backend, in picojoules (routing estimate, not accounting).
    pub est_energy_pj: u128,
    /// Scenario-mean estimated *prefill* time of one session iteration 0
    /// on this shard ([`crate::Backend::estimate_prefill_ns`]). Equal to
    /// the per-request estimate behind `est_batch_ns` on phase-agnostic
    /// backends; diverges on xLLM-style prefill-/decode-optimized fleets,
    /// which is what makes phase-aware routing expressible.
    pub est_prefill_ns: u64,
    /// Scenario-mean estimated *decode* iteration time on this shard
    /// ([`crate::Backend::estimate_decode_ns`]).
    pub est_decode_ns: u64,
}

/// Chooses the shard the next batch runs on.
pub trait Router: Send + Sync {
    /// Short display name for tables and reports.
    fn name(&self) -> &'static str;

    /// Whether [`Self::route`] reads `free_ns` and therefore needs every
    /// in-flight batch settled first. Defaults to `true` (exact view);
    /// stateless routers override to keep the execution pipelined.
    fn needs_fleet_state(&self) -> bool {
        true
    }

    /// Picks a shard for global batch number `batch` given one view per
    /// *routable* shard (always non-empty, ordered by shard index —
    /// shards drained by the control loop are filtered out, so
    /// [`ShardView::shard`] may skip indices). Returns the **position in
    /// `shards`** of the chosen view; the runtime maps it back to the
    /// physical shard. `now_ns` is the virtual decision time — the
    /// earliest moment the batch could start — so backlog-bounded
    /// policies can measure a shard's lead against *now* rather than
    /// against an idle shard's frozen clock.
    fn route(&self, batch: u64, now_ns: u64, shards: &[ShardView]) -> usize;
}

/// Deals batches out in turn: batch `b` runs on shard `b mod n`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinRouter;

impl Router for RoundRobinRouter {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn needs_fleet_state(&self) -> bool {
        false
    }

    fn route(&self, batch: u64, _now_ns: u64, shards: &[ShardView]) -> usize {
        (batch % shards.len() as u64) as usize
    }
}

/// Sends the batch to the shard that frees up earliest (join the shortest
/// virtual backlog); ties go to the lowest shard index.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastOutstandingRouter;

impl Router for LeastOutstandingRouter {
    fn name(&self) -> &'static str {
        "least-outstanding"
    }

    fn route(&self, _batch: u64, _now_ns: u64, shards: &[ShardView]) -> usize {
        shards
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| (s.free_ns, s.shard))
            .expect("fleet non-empty")
            .0
    }
}

/// Minimizes the batch's estimated *finish* time: the shard's free time
/// (no earlier than the decision time) plus its estimated batch wall
/// ([`ShardView::est_batch_ns`] — dispatch overhead and a full batch of
/// mean requests). On a homogeneous fleet this is
/// [`LeastOutstandingRouter`]; on a mixed fleet it weighs a fast busy
/// shard against a slow idle one.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyAwareRouter;

impl Router for LatencyAwareRouter {
    fn name(&self) -> &'static str {
        "latency-aware"
    }

    fn route(&self, _batch: u64, now_ns: u64, shards: &[ShardView]) -> usize {
        shards
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| (s.free_ns.max(now_ns).saturating_add(s.est_batch_ns), s.shard))
            .expect("fleet non-empty")
            .0
    }
}

/// How many fleet-max batch walls of backlog an energy-preferred shard
/// may accumulate past the decision time before [`EnergyAwareRouter`]
/// spills work to the next-cheapest shard.
const ENERGY_BACKLOG_SLACK: u64 = 4;

/// Greedy energy-first routing with a backlog bound: place the batch on
/// the lowest-energy shard whose backlog has not run more than
/// `ENERGY_BACKLOG_SLACK` × the fleet's largest estimated batch wall
/// past the decision time; if every efficient shard is saturated, fall
/// back to the earliest-free one. On a dense+accelerator fleet with
/// headroom this drains everything through the accelerator; under
/// sustained overload the bound spills the excess so tail latency cannot
/// grow without limit.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnergyAwareRouter;

impl Router for EnergyAwareRouter {
    fn name(&self) -> &'static str {
        "energy-aware"
    }

    fn route(&self, _batch: u64, now_ns: u64, shards: &[ShardView]) -> usize {
        let max_batch_ns = shards.iter().map(|s| s.est_batch_ns).max().expect("fleet non-empty");
        shards
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.free_ns.saturating_sub(now_ns)
                    <= ENERGY_BACKLOG_SLACK.saturating_mul(max_batch_ns)
            })
            .min_by_key(|(_, s)| (s.est_energy_pj, s.free_ns, s.shard))
            .or_else(|| shards.iter().enumerate().min_by_key(|(_, s)| (s.free_ns, s.shard)))
            .expect("fleet non-empty")
            .0
    }
}

/// The shipped routing policies, for config, sweeps and CLI selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterKind {
    /// [`RoundRobinRouter`] (the default — byte-compatible with PR 2/PR 3).
    #[default]
    RoundRobin,
    /// [`LeastOutstandingRouter`].
    LeastOutstanding,
    /// [`LatencyAwareRouter`].
    LatencyAware,
    /// [`EnergyAwareRouter`].
    EnergyAware,
}

impl RouterKind {
    /// All policies in presentation order.
    pub fn all() -> [RouterKind; 4] {
        [
            RouterKind::RoundRobin,
            RouterKind::LeastOutstanding,
            RouterKind::LatencyAware,
            RouterKind::EnergyAware,
        ]
    }

    /// The policy's display name.
    pub fn name(&self) -> &'static str {
        match self {
            RouterKind::RoundRobin => "round-robin",
            RouterKind::LeastOutstanding => "least-outstanding",
            RouterKind::LatencyAware => "latency-aware",
            RouterKind::EnergyAware => "energy-aware",
        }
    }

    /// Builds the router.
    pub fn build(&self) -> Box<dyn Router> {
        match self {
            RouterKind::RoundRobin => Box::new(RoundRobinRouter),
            RouterKind::LeastOutstanding => Box::new(LeastOutstandingRouter),
            RouterKind::LatencyAware => Box::new(LatencyAwareRouter),
            RouterKind::EnergyAware => Box::new(EnergyAwareRouter),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(specs: &[(u64, u64, u128)]) -> Vec<ShardView> {
        specs
            .iter()
            .enumerate()
            .map(|(shard, &(free_ns, est_cost_ns, est_energy_pj))| ShardView {
                shard,
                free_ns,
                est_batch_ns: 4 * est_cost_ns, // a 4-deep batch, no overhead
                est_energy_pj,
                est_prefill_ns: est_cost_ns,
                est_decode_ns: (est_cost_ns / 8).max(1),
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles_without_fleet_state() {
        let v = views(&[(0, 100, 10), (0, 100, 10), (0, 100, 10)]);
        let r = RoundRobinRouter;
        assert!(!r.needs_fleet_state());
        assert_eq!((0..6).map(|b| r.route(b, 0, &v)).collect::<Vec<_>>(), [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_outstanding_joins_the_shortest_backlog() {
        let v = views(&[(500, 100, 10), (200, 100, 10), (200, 100, 10)]);
        // Shard 1 and 2 tie on free time; lowest index wins.
        assert_eq!(LeastOutstandingRouter.route(0, 0, &v), 1);
    }

    #[test]
    fn latency_aware_weighs_speed_against_backlog() {
        // Shard 0: free at 100 but slow (4000 ns batch wall) -> ~4100.
        // Shard 1: free at 500 but fast (400 ns batch wall)  -> ~900.
        let v = views(&[(100, 1_000, 10), (500, 100, 10)]);
        assert_eq!(LatencyAwareRouter.route(0, 0, &v), 1);
        // A decision time past both free times erases the backlog
        // difference: only the batch wall is left, so the fast shard wins.
        assert_eq!(LatencyAwareRouter.route(0, 10_000, &v), 1);
        // The batch wall (not one request's cost) is what is minimized:
        // a slow shard free now loses to a fast shard busy for a while.
        let batchy = views(&[(0, 1_000, 10), (3_000, 100, 10)]);
        assert_eq!(LatencyAwareRouter.route(0, 0, &batchy), 1, "4000 vs 3400 finish");
        // On a homogeneous fleet it degenerates to least-outstanding.
        let homo = views(&[(500, 100, 10), (200, 100, 10)]);
        assert_eq!(LatencyAwareRouter.route(0, 0, &homo), 1);
    }

    #[test]
    fn energy_aware_prefers_the_efficient_shard_until_saturated() {
        // Fleet-max batch wall is 400 ns, so the backlog bound is 1600 ns
        // past the decision time. Shard 1 is 1000x cheaper on energy: it
        // takes the batch while its lead stays inside the bound…
        let fresh = views(&[(0, 100, 10_000), (1_500, 100, 10)]);
        assert_eq!(EnergyAwareRouter.route(0, 0, &fresh), 1);
        // …but spills to the inefficient shard once it has run too far
        // past the decision time.
        let saturated = views(&[(0, 100, 10_000), (5_000, 100, 10)]);
        assert_eq!(EnergyAwareRouter.route(0, 0, &saturated), 0);
        // A later decision time forgives the same absolute backlog: the
        // efficient shard's *lead over now* is what is bounded.
        assert_eq!(EnergyAwareRouter.route(0, 4_000, &saturated), 1);
    }

    #[test]
    fn routers_return_positions_when_shard_indices_have_gaps() {
        // A control-drained fleet: shards 0 and 3 were drained, so the
        // router sees views for physical shards 1 and 2 only. Routers
        // must return the *position* (0 or 1), not the physical index.
        let v = vec![
            ShardView {
                shard: 1,
                free_ns: 900,
                est_batch_ns: 400,
                est_energy_pj: 10,
                est_prefill_ns: 100,
                est_decode_ns: 12,
            },
            ShardView {
                shard: 2,
                free_ns: 100,
                est_batch_ns: 400,
                est_energy_pj: 10_000,
                est_prefill_ns: 100,
                est_decode_ns: 12,
            },
        ];
        assert_eq!(LeastOutstandingRouter.route(0, 0, &v), 1, "shard 2 is at position 1");
        assert_eq!(LatencyAwareRouter.route(0, 0, &v), 1);
        assert_eq!(EnergyAwareRouter.route(0, 0, &v), 0, "cheapest shard 1 is at position 0");
        assert_eq!(RoundRobinRouter.route(3, 0, &v), 1, "modulo over the routable count");
    }

    #[test]
    fn kinds_build_what_they_name() {
        for kind in RouterKind::all() {
            assert_eq!(kind.build().name(), kind.name());
        }
        assert!(!RouterKind::RoundRobin.build().needs_fleet_state());
        assert!(RouterKind::EnergyAware.build().needs_fleet_state());
    }
}
