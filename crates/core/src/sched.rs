//! The event-driven scheduler core: per-producer consumer wait-lists, the
//! incremental ready queue, and the pending-store list.
//!
//! The seed implementation rediscovered schedulable work by scanning the
//! whole RUU every cycle (wakeup broadcast, ready filter, store-datum
//! merge) — O(occupancy) per cycle regardless of how much actually
//! happened. This module makes each of those paths O(work):
//!
//! * **Wait-lists** — dispatch registers a consumer with each producer it
//!   waits on; a producer's completion walks only its actual consumers.
//! * **Ready queue** — entries enter when they become issue-eligible
//!   (dispatch or wakeup) and leave when issued; a min-heap on the
//!   sequence number reproduces the seed's oldest-first scan order
//!   exactly. Entries that lose a structural hazard are deferred and
//!   re-queued for the next cycle, just as they stayed `Ready` under the
//!   scan.
//! * **Pending stores** — stores whose address phase has issued but whose
//!   datum has not yet merged, kept in sequence order.
//!
//! Squash interaction: sequence numbers are never reused, so the ready
//! queue and pending-store list tolerate stale entries — consumers gone
//! from the RUU are dropped when popped (the same guard writeback applies
//! to completion events). Wait-lists are removed eagerly when their *producer*
//! is squashed (the list dies with the entry) and lazily when a
//! *consumer* is squashed (the wakeup walk skips it). All containers
//! recycle their backing storage, so the steady-state cycle loop
//! allocates nothing.

use crate::seqhash::SeqHashMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Upper bound on recycled wait-list vectors kept around; beyond this the
/// extras are dropped (a producer rarely has more than a handful of live
/// consumers, so the pool stays tiny in practice).
const POOL_CAP: usize = 64;

/// Scheduler bookkeeping owned by the [`Processor`](crate::Processor).
///
/// `Clone` is what checkpointing leans on: every container (wait-lists,
/// ready queue, deferred/parked lists, pending stores) is plain owned
/// data, so a clone captures the exact scheduling state mid-flight.
#[derive(Debug, Default, Clone)]
pub(crate) struct Scheduler {
    /// Producer sequence → consumers whose operands wait on it.
    wait_lists: SeqHashMap<u64, Vec<u64>>,
    /// Recycled wait-list vectors.
    pool: Vec<Vec<u64>>,
    /// Issue-eligible entries, popped oldest-first.
    ready: BinaryHeap<Reverse<u64>>,
    /// Entries that failed to issue this cycle (structural hazard) and
    /// retry next cycle.
    deferred: Vec<u64>,
    /// Memory entries that failed an issue attempt (port lost, dependence
    /// conflict, shared access pending), in ascending sequence order.
    /// They retry while each cycle's data ports last and are skipped for
    /// free once the ports are gone.
    parked_mem: Vec<u64>,
    /// Scratch buffer the issue walk fills with the next cycle's parked
    /// list (swapped with `parked_mem`, so neither ever reallocates).
    parked_scratch: Vec<u64>,
    /// Stores whose address phase issued but whose datum has not merged,
    /// in ascending sequence order.
    pending_stores: Vec<u64>,
}

impl Scheduler {
    /// Registers `consumer` to be woken when `producer` completes.
    pub(crate) fn add_waiter(&mut self, producer: u64, consumer: u64) {
        self.wait_lists
            .entry(producer)
            .or_insert_with(|| self.pool.pop().unwrap_or_default())
            .push(consumer);
    }

    /// Detaches `producer`'s wait-list for the wakeup walk; the caller
    /// returns the vector via [`Scheduler::recycle`].
    pub(crate) fn take_wait_list(&mut self, producer: u64) -> Option<Vec<u64>> {
        self.wait_lists.remove(&producer)
    }

    /// Returns a drained wait-list vector to the pool.
    pub(crate) fn recycle(&mut self, mut list: Vec<u64>) {
        list.clear();
        if self.pool.len() < POOL_CAP {
            self.pool.push(list);
        }
    }

    /// Enqueues a newly issue-eligible entry.
    pub(crate) fn push_ready(&mut self, seq: u64) {
        self.ready.push(Reverse(seq));
    }

    /// Pops the oldest issue-eligible entry.
    pub(crate) fn pop_ready(&mut self) -> Option<u64> {
        self.ready.pop().map(|Reverse(seq)| seq)
    }

    /// The oldest issue-eligible entry, without removing it.
    pub(crate) fn peek_ready(&self) -> Option<u64> {
        self.ready.peek().map(|&Reverse(seq)| seq)
    }

    /// Detaches `(parked list, empty scratch)` for the issue walk; the
    /// caller hands both back via [`Scheduler::put_parked_mem`].
    pub(crate) fn take_parked_mem(&mut self) -> (Vec<u64>, Vec<u64>) {
        debug_assert!(self.parked_scratch.is_empty());
        (
            std::mem::take(&mut self.parked_mem),
            std::mem::take(&mut self.parked_scratch),
        )
    }

    /// Restores the parked-memory list after an issue walk: `next`
    /// (the refilled buffer) becomes the live list, `old` (now drained)
    /// becomes the scratch for the next walk.
    pub(crate) fn put_parked_mem(&mut self, mut old: Vec<u64>, next: Vec<u64>) {
        debug_assert!(next.windows(2).all(|w| w[0] < w[1]));
        old.clear();
        self.parked_mem = next;
        self.parked_scratch = old;
    }

    /// Parks an entry that failed to issue (tried once this cycle; the
    /// seed's scan likewise retried hazard losers only on later cycles).
    pub(crate) fn defer_ready(&mut self, seq: u64) {
        self.deferred.push(seq);
    }

    /// Re-queues every deferred entry for the next issue cycle.
    pub(crate) fn flush_deferred(&mut self) {
        for seq in self.deferred.drain(..) {
            self.ready.push(Reverse(seq));
        }
    }

    /// Records a store whose address phase issued and whose datum is
    /// outstanding. Out-of-order arrival (an older store winning its port
    /// a cycle late) inserts in place to keep the merge walk in the
    /// seed's sequence order.
    pub(crate) fn add_pending_store(&mut self, seq: u64) {
        match self.pending_stores.last() {
            Some(&last) if last > seq => {
                let i = self.pending_stores.partition_point(|&s| s < seq);
                self.pending_stores.insert(i, seq);
            }
            _ => self.pending_stores.push(seq),
        }
    }

    /// Detaches the pending-store list for the merge walk; the caller
    /// returns it via [`Scheduler::put_pending_stores`].
    pub(crate) fn take_pending_stores(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.pending_stores)
    }

    /// Restores the (retained) pending-store list after a merge walk.
    pub(crate) fn put_pending_stores(&mut self, list: Vec<u64>) {
        debug_assert!(self.pending_stores.is_empty());
        self.pending_stores = list;
    }

    /// Occupancy of each scheduler structure: `(wait-list consumers,
    /// ready entries, parked memory entries, pending stores)`. Deferred
    /// entries are counted as ready — they re-enter the queue before the
    /// next issue cycle.
    pub(crate) fn depths(&self) -> (usize, usize, usize, usize) {
        (
            self.wait_lists.values().map(Vec::len).sum(),
            self.ready.len() + self.deferred.len(),
            self.parked_mem.len(),
            self.pending_stores.len(),
        )
    }

    /// A squashed entry's producer role dies with it: drop its wait-list.
    /// (Its consumer role is cleaned lazily — wakeup walks skip sequence
    /// numbers no longer in the RUU.)
    pub(crate) fn on_squash(&mut self, producer_seq: u64) {
        if let Some(list) = self.wait_lists.remove(&producer_seq) {
            self.recycle(list);
        }
    }

    /// Branch rewind: drops pending stores and parked memory entries
    /// younger than `cutoff`. Stale ready-queue entries are cleaned
    /// lazily at pop time.
    pub(crate) fn squash_after(&mut self, cutoff: u64) {
        self.pending_stores.retain(|&s| s <= cutoff);
        self.parked_mem.retain(|&s| s <= cutoff);
    }

    /// Full rewind: every in-flight entry is gone.
    pub(crate) fn clear(&mut self) {
        let pool = &mut self.pool;
        for (_, mut list) in self.wait_lists.drain() {
            list.clear();
            if pool.len() < POOL_CAP {
                pool.push(list);
            }
        }
        self.ready.clear();
        self.deferred.clear();
        self.parked_mem.clear();
        self.pending_stores.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_queue_pops_oldest_first() {
        let mut s = Scheduler::default();
        s.push_ready(5);
        s.push_ready(2);
        s.push_ready(9);
        assert_eq!(s.pop_ready(), Some(2));
        s.defer_ready(5); // popped 5 would retry next cycle
        assert_eq!(s.pop_ready(), Some(5));
        assert_eq!(s.pop_ready(), Some(9));
        assert_eq!(s.pop_ready(), None);
        s.flush_deferred();
        assert_eq!(s.pop_ready(), Some(5));
    }

    #[test]
    fn wait_lists_round_trip_through_pool() {
        let mut s = Scheduler::default();
        s.add_waiter(3, 10);
        s.add_waiter(3, 11);
        assert!(s.take_wait_list(4).is_none());
        let list = s.take_wait_list(3).unwrap();
        assert_eq!(list, vec![10, 11]);
        s.recycle(list);
        s.add_waiter(7, 20);
        assert_eq!(s.take_wait_list(7).unwrap(), vec![20]);
    }

    #[test]
    fn pending_stores_stay_sorted() {
        let mut s = Scheduler::default();
        s.add_pending_store(4);
        s.add_pending_store(9);
        s.add_pending_store(6); // late arrival inserts in order
        assert_eq!(s.take_pending_stores(), vec![4, 6, 9]);
        s.put_pending_stores(Vec::new());
        s.add_pending_store(1);
        s.squash_after(0);
        assert!(s.take_pending_stores().is_empty());
    }

    #[test]
    fn parked_mem_round_trips_and_squashes() {
        let mut s = Scheduler::default();
        let (parked, mut keep) = s.take_parked_mem();
        assert!(parked.is_empty());
        keep.push(3);
        keep.push(8);
        s.put_parked_mem(parked, keep);
        s.squash_after(5);
        let (parked, keep) = s.take_parked_mem();
        assert_eq!(parked, vec![3]);
        s.put_parked_mem(parked, keep); // keep (empty) becomes the list
        let (parked, _keep) = s.take_parked_mem();
        assert!(parked.is_empty());
    }

    #[test]
    fn clear_empties_everything() {
        let mut s = Scheduler::default();
        s.add_waiter(1, 2);
        s.push_ready(2);
        s.defer_ready(3);
        s.add_pending_store(4);
        let (parked, mut keep) = s.take_parked_mem();
        keep.push(5);
        s.put_parked_mem(parked, keep);
        s.clear();
        assert!(s.take_wait_list(1).is_none());
        assert_eq!(s.pop_ready(), None);
        assert_eq!(s.peek_ready(), None);
        s.flush_deferred();
        assert_eq!(s.pop_ready(), None);
        assert!(s.take_pending_stores().is_empty());
        let (parked, _keep) = s.take_parked_mem();
        assert!(parked.is_empty());
    }
}
