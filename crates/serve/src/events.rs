//! The typed discrete-event list driving the serving engine.
//!
//! One `serve` call owns exactly one [`EventList`] holding every
//! *pending* virtual-time event, in three classes ([`EventClass`]):
//!
//! * **Epoch boundary** — the next control-loop boundary. Exactly one is
//!   pending at any time; crossing it schedules the next (or, across an
//!   idle gap with a quiescent controller, fast-forwards many boundaries
//!   in O(1) — the skip-ahead that replaced the O(idle-epochs) walk).
//! * **Arrival** — the head of the lazy
//!   [`crate::loadgen::ArrivalIter`] trace: the single next arrival,
//!   tagged with its request id. Consuming it pulls the next arrival
//!   from the iterator, so the trace never materializes.
//! * **Shard free** — one entry per *active* shard: the virtual time its
//!   current batch settles (its free time). These live in a binary heap
//!   keyed `(free_ns, shard)`; re-dispatching a shard supersedes its
//!   entry.
//!
//! # Ordering and tie-breaks
//!
//! Events settle in `(at_ns, class, key)` order. At equal timestamps the
//! class order is boundary < arrival < shard-free — i.e. control acts
//! first, then admission, then capacity — which is exactly the
//! processing order of the pre-event-loop runtime (boundaries were
//! walked before routing, admission before dispatch), so the rewrite is
//! byte-identical to it. Shard-free ties break on the lower shard
//! index, matching the linear `min()` scan it replaced.
//!
//! # Lazy invalidation
//!
//! Superseded and deactivated shard-free entries stay in the heap until
//! they surface, carrying a per-shard generation number; a stale top is
//! popped on sight, and the heap is compacted outright once stale
//! entries outnumber live ones. Both cleanups are pure functions of the
//! event sequence, so determinism is unaffected.
//!
//! # Peak accounting
//!
//! The list tracks its own high-water mark ([`EventList::peak_depth`]);
//! the runtime surfaces it through `ServeReport::live` so the "live
//! state is bounded by in-flight work" contract is asserted by tests
//! and the `serve_scale` bench, not assumed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Event classes of the serving engine, in settle order at equal
/// virtual timestamps (see the module docs for why this order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventClass {
    /// An epoch boundary: the controller observes the ended epoch and
    /// acts before any admission or dispatch at the same instant.
    EpochBoundary,
    /// The arrival cursor: the next request of the lazy trace.
    Arrival,
    /// A shard's in-flight batch settles, freeing the shard.
    ShardFree,
    /// A session iteration's think time elapses: a decode step becomes
    /// ready on its resident shard. Settles after the shard-free event at
    /// the same instant (the freeing batch is what made the iteration
    /// ready), so a decode never jumps ahead of the settle that produced
    /// its previous token. Held in the engine's per-shard ready sets
    /// rather than this list; one-shot runs never produce it.
    SessionReady,
}

/// The pending-event state of one serving run: two single-slot cursors
/// (boundary, arrival) and a lazily-invalidated binary heap of per-shard
/// free events.
#[derive(Debug)]
pub struct EventList {
    /// `(free_ns, shard, generation)` min-heap over active shards.
    frees: BinaryHeap<Reverse<(u64, usize, u64)>>,
    /// Current generation per shard; heap entries with an older
    /// generation are stale.
    generation: Vec<u64>,
    /// Live (non-stale) heap entries — one per active shard.
    live: usize,
    /// The next epoch boundary as `(at_ns, epoch index)`.
    boundary: Option<(u64, u64)>,
    /// The next arrival as `(at_ns, request id)`.
    arrival: Option<(u64, u64)>,
    peak: usize,
}

impl EventList {
    /// An empty list for a fleet of `fleet_size` shards.
    pub fn new(fleet_size: usize) -> Self {
        EventList {
            frees: BinaryHeap::with_capacity(fleet_size.saturating_mul(2).max(4)),
            generation: vec![0; fleet_size],
            live: 0,
            boundary: None,
            arrival: None,
            peak: 0,
        }
    }

    /// Pending events right now (all classes, stale entries excluded).
    pub fn depth(&self) -> usize {
        self.live + usize::from(self.boundary.is_some()) + usize::from(self.arrival.is_some())
    }

    /// High-water mark of [`Self::depth`] over the run.
    pub fn peak_depth(&self) -> usize {
        self.peak
    }

    /// Live shard-free events right now (one per active shard) — the
    /// `events.shard_free` observability gauge.
    pub fn live_shard_events(&self) -> usize {
        self.live
    }

    fn note_peak(&mut self) {
        self.peak = self.peak.max(self.depth());
    }

    /// Adds a shard to the active set with its current free time.
    pub fn activate_shard(&mut self, shard: usize, free_ns: u64) {
        self.generation[shard] += 1;
        self.frees.push(Reverse((free_ns, shard, self.generation[shard])));
        self.live += 1;
        self.note_peak();
    }

    /// Removes a shard from the active set (its heap entry goes stale).
    pub fn deactivate_shard(&mut self, shard: usize) {
        self.generation[shard] += 1;
        self.live -= 1;
        self.maybe_compact();
    }

    /// Moves an active shard's free event to `free_ns` (the old entry
    /// goes stale).
    pub fn reschedule_shard(&mut self, shard: usize, free_ns: u64) {
        self.generation[shard] += 1;
        self.frees.push(Reverse((free_ns, shard, self.generation[shard])));
        self.note_peak();
        self.maybe_compact();
    }

    /// Earliest free time over the active shards — the same value as a
    /// linear scan of per-shard free times, in O(log fleet) amortized.
    pub fn min_active_free(&mut self) -> Option<u64> {
        while let Some(&Reverse((_, shard, entry_gen))) = self.frees.peek() {
            if self.generation[shard] == entry_gen {
                break;
            }
            self.frees.pop();
        }
        self.frees.peek().map(|&Reverse((free_ns, _, _))| free_ns)
    }

    /// Rebuilds the heap once stale entries outnumber live ones (plus
    /// slack so tiny fleets never compact).
    fn maybe_compact(&mut self) {
        if self.frees.len() > self.live.saturating_mul(2) + 8 {
            let generation = &self.generation;
            let keep: Vec<_> = self
                .frees
                .drain()
                .filter(|&Reverse((_, shard, entry_gen))| generation[shard] == entry_gen)
                .collect();
            self.frees.extend(keep);
        }
    }

    /// Schedules the next epoch boundary (replacing any pending one).
    pub fn set_boundary(&mut self, at_ns: u64, epoch: u64) {
        self.boundary = Some((at_ns, epoch));
        self.note_peak();
    }

    /// Pops the pending boundary if it is due at `t_now`, returning
    /// `(at_ns, epoch index)`.
    pub fn boundary_due(&mut self, t_now: u64) -> Option<(u64, u64)> {
        match self.boundary {
            Some((at, _)) if at <= t_now => self.boundary.take(),
            _ => None,
        }
    }

    /// Sets the arrival cursor (replacing any pending arrival).
    pub fn set_arrival(&mut self, at_ns: u64, id: u64) {
        self.arrival = Some((at_ns, id));
        self.note_peak();
    }

    /// The pending arrival, if any, as `(at_ns, request id)`.
    pub fn arrival(&self) -> Option<(u64, u64)> {
        self.arrival
    }

    /// Consumes the pending arrival.
    pub fn take_arrival(&mut self) -> Option<(u64, u64)> {
        self.arrival.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_active_free_matches_a_linear_scan() {
        let mut ev = EventList::new(4);
        let mut free = [0u64; 4];
        for s in 0..4 {
            ev.activate_shard(s, 0);
        }
        // Drive a deterministic little schedule and compare against the
        // scan at every step.
        let mut active = [true; 4];
        let steps: &[(usize, u64)] = &[(0, 10), (2, 7), (1, 10), (3, 25), (2, 14), (0, 14)];
        for &(shard, t) in steps {
            free[shard] = t;
            ev.reschedule_shard(shard, t);
            let scan = free.iter().zip(active).filter(|(_, a)| *a).map(|(&f, _)| f).min();
            assert_eq!(ev.min_active_free(), scan);
        }
        ev.deactivate_shard(2);
        active[2] = false;
        let scan = free.iter().zip(active).filter(|(_, a)| *a).map(|(&f, _)| f).min();
        assert_eq!(ev.min_active_free(), scan);
        ev.activate_shard(2, free[2]);
        active[2] = true;
        let scan = free.iter().zip(active).filter(|(_, a)| *a).map(|(&f, _)| f).min();
        assert_eq!(ev.min_active_free(), scan);
    }

    #[test]
    fn equal_times_resolve_to_the_lowest_shard_value() {
        let mut ev = EventList::new(3);
        for s in 0..3 {
            ev.activate_shard(s, 42);
        }
        assert_eq!(ev.min_active_free(), Some(42));
    }

    #[test]
    fn stale_entries_are_invisible_and_compacted() {
        let mut ev = EventList::new(2);
        ev.activate_shard(0, 0);
        ev.activate_shard(1, 0);
        for t in 1..100u64 {
            ev.reschedule_shard(0, t);
            ev.reschedule_shard(1, t + 1);
            assert_eq!(ev.min_active_free(), Some(t));
        }
        // Compaction keeps the heap near the live count rather than the
        // full reschedule history.
        assert!(ev.frees.len() <= 2 * 2 + 8 + 2, "heap grew: {}", ev.frees.len());
    }

    #[test]
    fn cursors_pop_only_when_due() {
        let mut ev = EventList::new(1);
        ev.activate_shard(0, 0);
        ev.set_boundary(1_000, 0);
        assert_eq!(ev.boundary_due(999), None);
        assert_eq!(ev.boundary_due(1_000), Some((1_000, 0)));
        assert_eq!(ev.boundary_due(u64::MAX), None, "boundary consumed");
        ev.set_arrival(500, 7);
        assert_eq!(ev.arrival(), Some((500, 7)));
        assert_eq!(ev.take_arrival(), Some((500, 7)));
        assert_eq!(ev.arrival(), None);
    }

    #[test]
    fn depth_counts_all_classes_and_tracks_the_peak() {
        let mut ev = EventList::new(2);
        assert_eq!(ev.depth(), 0);
        ev.activate_shard(0, 0);
        ev.activate_shard(1, 0);
        ev.set_boundary(100, 0);
        ev.set_arrival(50, 0);
        assert_eq!(ev.depth(), 4);
        assert_eq!(ev.peak_depth(), 4);
        ev.take_arrival();
        ev.deactivate_shard(1);
        assert_eq!(ev.depth(), 2);
        assert_eq!(ev.peak_depth(), 4, "peak is a high-water mark");
    }

    #[test]
    fn class_order_settles_control_before_admission_before_capacity() {
        assert!(EventClass::EpochBoundary < EventClass::Arrival);
        assert!(EventClass::Arrival < EventClass::ShardFree);
        assert!(EventClass::ShardFree < EventClass::SessionReady);
    }
}
