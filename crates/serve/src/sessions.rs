//! Live session state of one serving run.
//!
//! Request `id` is the prefill of session `id`; a session of length 1
//! completes with its prefill and never appears here. Longer sessions
//! live between iterations in [`Sessions`]: per-shard ready sets order
//! their pending decode steps, per-shard LRU sets order eviction under
//! the state budget. Everything iterated on a digest path is a BTree, so
//! iteration order is key order, never hash order.

use crate::admission::QueuedRequest;
use crate::backend::BackendOutput;
use crate::config::ServeConfig;
use crate::energy::EnergyBreakdown;
use defa_model::workload::{SessionProfile, SloClass};
use std::collections::{BTreeMap, BTreeSet};

/// What a session's final settle folds into the report: its static draw
/// and the accumulators over its iterations so far.
#[derive(Clone, Copy)]
pub(crate) struct SessionTally {
    pub(crate) scenario: usize,
    pub(crate) slo: SloClass,
    pub(crate) arrival_ns: u64,
    /// Prefill admission wait (first batch start − arrival).
    pub(crate) queue_ns: u64,
    /// The raw prefill digest for a single-iteration session, otherwise
    /// an FNV fold over the iteration digests.
    pub(crate) digest: u64,
    pub(crate) energy: EnergyBreakdown,
    pub(crate) flops: u128,
    /// Blew its TTFT budget or any decode step blew its TBT budget.
    pub(crate) violated: bool,
}

/// One session between its prefill and its last iteration: its tally,
/// the settled nominal prefill (the pricing base for every decode step)
/// and its residency on its shard.
pub(crate) struct SessionLive {
    pub(crate) tally: SessionTally,
    /// Total iterations ([`SessionProfile::session_len`]).
    pub(crate) len: u32,
    /// The next iteration to settle (0 is the prefill).
    pub(crate) next_iter: u32,
    /// The settled prefill output at the nominal clock: decode steps
    /// derive from it, and a post-eviction recompute re-prices it.
    pub(crate) prefill: BackendOutput,
    /// Evicted since the last step: the next step pays the prefill again.
    pub(crate) needs_prefill: bool,
    /// Holds a state slot on its shard (tracked in the shard's LRU set).
    pub(crate) resident: bool,
    pub(crate) last_settle_ns: u64,
}

/// Session state of one run. Under a one-shot profile every session
/// finishes with its prefill, so these sets stay empty and each check
/// against them is one comparison on the hot path.
pub(crate) struct Sessions {
    pub(crate) profile: SessionProfile,
    /// Every session has length 1 (no session ever outlives its prefill).
    one_shot: bool,
    pub(crate) seed: u64,
    pub(crate) gang: bool,
    /// Sessions between iterations.
    pub(crate) live: BTreeMap<u64, SessionLive>,
    /// Per shard: decode steps keyed `(ready_ns, id)`.
    pub(crate) ready: Vec<BTreeSet<(u64, u64)>>,
    /// Per shard: resident sessions keyed `(last_settle_ns, id)` — the
    /// eviction order under the state budget.
    pub(crate) lru: Vec<BTreeSet<(u64, u64)>>,
    pub(crate) pending_decodes: usize,
}

impl Sessions {
    pub(crate) fn new(cfg: &ServeConfig, seed: u64, fleet_size: usize) -> Self {
        let sets = || (0..fleet_size).map(|_| BTreeSet::new()).collect();
        Sessions {
            profile: cfg.sessions.profile,
            one_shot: cfg.sessions.profile.is_one_shot(),
            seed,
            gang: cfg.sessions.gang,
            live: BTreeMap::new(),
            ready: sets(),
            lru: sets(),
            pending_decodes: 0,
        }
    }

    /// Iterations of session `id`.
    #[inline(always)]
    pub(crate) fn len_of(&self, id: u64) -> u32 {
        if self.one_shot {
            1
        } else {
            self.profile.session_len(self.seed, id)
        }
    }

    /// Parks session `id` between iterations after a settle at `t`: its
    /// next step becomes ready on `shard` after its think time, and it
    /// holds a state slot there until evicted or finished.
    pub(crate) fn park(&mut self, shard: usize, t: u64, id: u64, mut sess: SessionLive) {
        self.schedule(shard, t, id, sess.next_iter);
        sess.resident = true;
        self.live.insert(id, sess);
    }

    /// Queues iteration `next_iter` of live session `id`, settled on
    /// `shard` at `t`: ready after its think time, resident meanwhile.
    pub(crate) fn schedule(&mut self, shard: usize, t: u64, id: u64, next_iter: u32) {
        let think = self.profile.think_ns(self.seed, id, next_iter);
        self.ready[shard].insert((t.saturating_add(think), id));
        self.pending_decodes += 1;
        self.lru[shard].insert((t, id));
    }

    /// The earliest decode dispatch over the fleet as `(time, shard)`:
    /// each shard's first ready step bounded below by the shard's free
    /// time; ties go to the lower shard.
    pub(crate) fn next_decode(&self, shard_free: &[u64]) -> Option<(u64, usize)> {
        if self.pending_decodes == 0 {
            return None;
        }
        let mut best: Option<(u64, usize)> = None;
        for (s, rdy) in self.ready.iter().enumerate() {
            if let Some(&(rn, _)) = rdy.first() {
                let t = rn.max(shard_free[s]);
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, s));
                }
            }
        }
        best
    }

    /// Moves up to `cap` of `shard`'s steps due by `t` into `due`, in
    /// `(ready, id)` order.
    pub(crate) fn take_due(&mut self, shard: usize, t: u64, cap: usize, due: &mut Vec<(u64, u64)>) {
        while due.len() < cap {
            match self.ready[shard].first() {
                Some(&step) if step.0 <= t => {
                    self.ready[shard].remove(&step);
                    self.pending_decodes -= 1;
                    due.push(step);
                }
                _ => break,
            }
        }
    }

    /// Makes room for a batch under the per-shard state budget: the
    /// batch's sessions stay resident through the step, so the
    /// least-recently-settled residents not riding it are evicted until
    /// everyone fits; `evicted` sees each victim in eviction order.
    /// Batches hold at most `budget` sessions, so membership is a short
    /// linear scan.
    pub(crate) fn evict_for(
        &mut self,
        shard: usize,
        budget: usize,
        decodes: &[(u64, u64)],
        members: &[QueuedRequest],
        mut evicted: impl FnMut(u64),
    ) {
        let riding =
            |id: u64| decodes.iter().any(|&(_, d)| d == id) || members.iter().any(|m| m.id == id);
        let newcomers = members.len()
            + decodes
                .iter()
                .filter(|&&(_, id)| self.live.get(&id).is_some_and(|s| !s.resident))
                .count();
        let mut excess = (self.lru[shard].len() + newcomers).saturating_sub(budget);
        while excess > 0 {
            let Some(&key) = self.lru[shard].iter().find(|&&(_, id)| !riding(id)) else { break };
            self.lru[shard].remove(&key);
            if let Some(sess) = self.live.get_mut(&key.1) {
                sess.resident = false;
                sess.needs_prefill = true;
            }
            evicted(key.1);
            excess -= 1;
        }
    }
}
