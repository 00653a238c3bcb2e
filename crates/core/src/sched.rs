//! The event-driven scheduler core, keyed by RUU slot: per-slot consumer
//! wait-lists and the ready, parked-memory and pending-store bitsets.
//!
//! The seed implementation rediscovered schedulable work by scanning the
//! whole RUU every cycle (wakeup broadcast, ready filter, store-datum
//! merge). This module keeps that work O(events), the way a hardware
//! select does it: one request bit per window slot and an age-ordered
//! pick. The RUU is a ring in sequence order ([`Ruu`]), so circular slot
//! order from the head slot *is* age order, and every structure here is
//! indexed by slot:
//!
//! * **Wait-lists** — dispatch links a consumer's waiting operand into
//!   its producer slot's list; the producer's completion walks only its
//!   actual consumers. The lists are intrusive: one node per
//!   `(consumer slot, operand)`, held in two flat arrays, so a snapshot
//!   clones a fixed number of allocations however many lists are live.
//!   A list is ordered youngest consumer first.
//! * **Ready** — one bit per issue-eligible slot. Issue scans it from
//!   the head slot, which reproduces the seed's oldest-first scan order
//!   exactly. A functional-unit hazard loser keeps its bit and retries
//!   next cycle, as it stayed `Ready` under the scan.
//! * **Parked** — memory entries that failed an issue attempt. They
//!   retry while a cycle's data ports last and are skipped as whole
//!   words once the ports are gone. A slot is never both ready and
//!   parked.
//! * **Pending stores** — stores whose address phase issued and whose
//!   datum has not merged, walked in age order.
//!
//! Squash clears everything past its cutoff: a branch rewind unlinks the
//! squashed consumers from their surviving producers' lists (they are at
//! the front, being the youngest) and clears every bit past the cutoff
//! slot; a full rewind clears it all. No stale member survives, so no
//! walk needs a liveness check, and a reused slot starts clean.

use crate::entry::Operand;
use crate::ruu::Ruu;
use std::ops::Range;

/// End of a wait-list.
const NIL: u32 = u32::MAX;

/// A set of RUU slots, one bit per slot: 2 words at the default 128
/// entries, 64 at the 4,096 maximum.
#[derive(Debug, Clone)]
pub(crate) struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    /// An empty set over `capacity` slots.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    pub(crate) fn insert(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
    }

    pub(crate) fn remove(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
    }

    pub(crate) fn contains(&self, slot: usize) -> bool {
        self.words[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Removes every member.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Removes the `n` slots from `first` on, wrapping at `capacity`:
    /// the slots a squash of `n` entries past the RUU tail `first` frees.
    pub(crate) fn remove_wrapping(&mut self, first: usize, n: usize, capacity: usize) {
        for i in 0..n {
            let slot = first + i;
            self.remove(if slot >= capacity {
                slot - capacity
            } else {
                slot
            });
        }
    }

    /// The lowest member in `range`.
    pub(crate) fn first_in(&self, range: Range<usize>) -> Option<usize> {
        first_set(range, |w| self.words[w])
    }

    /// The highest member in `range`.
    pub(crate) fn last_in(&self, range: Range<usize>) -> Option<usize> {
        if range.is_empty() {
            return None;
        }
        let (first, mut w) = (range.start / 64, (range.end - 1) / 64);
        let mut bits = self.words[w] & (!0 >> (63 - (range.end - 1) % 64));
        loop {
            if bits != 0 {
                let slot = w * 64 + 63 - bits.leading_zeros() as usize;
                return (slot >= range.start).then_some(slot);
            }
            if w == first {
                return None;
            }
            w -= 1;
            bits = self.words[w];
        }
    }
}

/// The lowest slot in `range` whose bit is set in the words `word(i)`.
fn first_set(range: Range<usize>, word: impl Fn(usize) -> u64) -> Option<usize> {
    if range.is_empty() {
        return None;
    }
    let (mut w, last) = (range.start / 64, (range.end - 1) / 64);
    let mut bits = word(w) & (!0 << (range.start % 64));
    loop {
        if bits != 0 {
            let slot = w * 64 + bits.trailing_zeros() as usize;
            return (slot < range.end).then_some(slot);
        }
        if w == last {
            return None;
        }
        w += 1;
        bits = word(w);
    }
}

/// Scheduler bookkeeping owned by the [`Processor`](crate::Processor).
///
/// `Clone` is what checkpointing leans on: every structure is plain
/// owned data in a fixed number of allocations, so a clone captures the
/// exact scheduling state mid-flight.
#[derive(Debug, Clone)]
pub(crate) struct Scheduler {
    /// `wait_head[p]`: the first node of producer slot `p`'s wait-list.
    /// Node `2 * c + k` is operand `k` of the consumer in slot `c`.
    wait_head: Vec<u32>,
    /// `wait_next[node]`: the node after `node` on its list.
    wait_next: Vec<u32>,
    /// Issue-eligible slots.
    ready: SlotSet,
    /// Memory entries that failed an issue attempt (port lost, dependence
    /// conflict, shared access pending).
    parked: SlotSet,
    /// Stores whose address phase issued but whose datum has not merged.
    pending_stores: SlotSet,
}

impl Scheduler {
    /// An empty scheduler for an RUU of `capacity` slots.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            wait_head: vec![NIL; capacity],
            wait_next: vec![NIL; 2 * capacity],
            ready: SlotSet::new(capacity),
            parked: SlotSet::new(capacity),
            pending_stores: SlotSet::new(capacity),
        }
    }

    /// Registers operand `operand` of the consumer in slot `consumer` to
    /// be woken when the producer in slot `producer` completes.
    pub(crate) fn add_waiter(&mut self, producer: usize, consumer: usize, operand: usize) {
        let node = 2 * consumer + operand;
        self.wait_next[node] = self.wait_head[producer];
        self.wait_head[producer] = node as u32;
    }

    /// Detaches producer slot `producer`'s wait-list for the wakeup
    /// walk: returns its first node, or `None` for an empty list. Walk
    /// on with [`Scheduler::next_waiter`].
    pub(crate) fn take_wait_list(&mut self, producer: usize) -> Option<usize> {
        let head = std::mem::replace(&mut self.wait_head[producer], NIL);
        (head != NIL).then_some(head as usize)
    }

    /// The node after `node` on its (detached) wait-list.
    pub(crate) fn next_waiter(&self, node: usize) -> Option<usize> {
        let next = self.wait_next[node];
        (next != NIL).then_some(next as usize)
    }

    /// A newly dispatched entry takes `slot`: it starts with no
    /// consumers.
    pub(crate) fn on_dispatch(&mut self, slot: usize) {
        self.wait_head[slot] = NIL;
    }

    /// Marks `slot` issue-eligible.
    pub(crate) fn set_ready(&mut self, slot: usize) {
        debug_assert!(!self.parked.contains(slot));
        self.ready.insert(slot);
    }

    /// `slot` issued: it leaves the ready or the parked set.
    pub(crate) fn issued(&mut self, slot: usize) {
        self.ready.remove(slot);
        self.parked.remove(slot);
    }

    /// A ready memory entry failed its first issue attempt: park it.
    pub(crate) fn park(&mut self, slot: usize) {
        self.ready.remove(slot);
        self.parked.insert(slot);
    }

    /// Whether `slot` is parked.
    pub(crate) fn is_parked(&self, slot: usize) -> bool {
        self.parked.contains(slot)
    }

    /// The oldest issue candidate in the physical slot range `range`: a
    /// ready slot, or a parked one while `with_parked` (this cycle still
    /// has a data port).
    pub(crate) fn next_candidate(&self, range: Range<usize>, with_parked: bool) -> Option<usize> {
        if with_parked {
            first_set(range, |w| self.ready.words[w] | self.parked.words[w])
        } else {
            self.ready.first_in(range)
        }
    }

    /// Records a store whose address phase issued and whose datum is
    /// outstanding.
    pub(crate) fn add_pending_store(&mut self, slot: usize) {
        self.pending_stores.insert(slot);
    }

    /// The oldest pending store in the physical slot range `range`.
    pub(crate) fn next_pending_store(&self, range: Range<usize>) -> Option<usize> {
        self.pending_stores.first_in(range)
    }

    /// The store in `slot` merged its datum.
    pub(crate) fn store_merged(&mut self, slot: usize) {
        self.pending_stores.remove(slot);
    }

    /// Occupancy of each scheduler structure: `(wait-list consumers,
    /// ready entries, parked memory entries, pending stores)`.
    pub(crate) fn depths(&self, ruu: &Ruu) -> (usize, usize, usize, usize) {
        let waiters = ruu
            .iter_slots()
            .map(|(slot, _)| self.list(slot).count())
            .sum();
        (
            waiters,
            self.ready.len(),
            self.parked.len(),
            self.pending_stores.len(),
        )
    }

    /// The nodes of producer slot `producer`'s wait-list, in list order.
    fn list(&self, producer: usize) -> impl Iterator<Item = usize> + '_ {
        let head = self.wait_head[producer];
        std::iter::successors((head != NIL).then_some(head as usize), |&n| {
            self.next_waiter(n)
        })
    }

    /// Branch rewind: `ruu` has just squashed `n` entries past its new
    /// tail. Unlinks each squashed consumer from its surviving
    /// producers' lists, where it is at the front (lists run youngest
    /// consumer first, and the squashed entries are visited youngest
    /// first), and clears every bit past the cutoff.
    pub(crate) fn squash(&mut self, ruu: &Ruu, n: usize) {
        for (slot, e) in ruu.squashed(n) {
            self.wait_head[slot] = NIL;
            for (k, op) in e.ops.iter().enumerate().rev() {
                if let Operand::Wait(p) = *op {
                    if ruu.is_live(p) {
                        let node = 2 * slot + k;
                        debug_assert_eq!(self.wait_head[p] as usize, node, "wait-list order");
                        self.wait_head[p] = self.wait_next[node];
                    }
                }
            }
        }
        for set in [&mut self.ready, &mut self.parked, &mut self.pending_stores] {
            set.remove_wrapping(ruu.tail_slot(), n, ruu.capacity());
        }
    }

    /// Full rewind: every in-flight entry is gone.
    pub(crate) fn clear(&mut self) {
        self.wait_head.fill(NIL);
        self.ready.clear();
        self.parked.clear();
        self.pending_stores.clear();
    }

    /// Debug invariant, checked every cycle: each structure agrees with
    /// the entries in `ruu`.
    ///
    /// * ready ⇔ `Ready` and not parked; parked ⇒ a `Ready` memory entry;
    ///   pending store ⇔ an issued store without its datum; no bit on a
    ///   slot outside the live range;
    /// * every node on a live producer's list is a live, younger
    ///   consumer operand waiting on that producer, lists run youngest
    ///   consumer first, and every waiting operand has its node.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_invariants(&self, ruu: &Ruu) {
        use crate::entry::EntryState;
        // Plain loops: this runs every cycle of every debug build.
        let (mut members, mut nodes, mut waiting) = (0, 0, 0);
        for (slot, e) in ruu.iter_slots() {
            let (w, bit) = (slot / 64, 1u64 << (slot % 64));
            let ready = self.ready.words[w] & bit != 0;
            let parked = self.parked.words[w] & bit != 0;
            let pending = self.pending_stores.words[w] & bit != 0;
            members += usize::from(ready) + usize::from(parked) + usize::from(pending);
            let is_ready = e.state == EntryState::Ready;
            assert!(
                ready == (is_ready && !parked) && (!parked || (is_ready && e.inst.op.is_mem())),
                "ready/parked bits of slot {slot} (seq {}, {:?})",
                e.seq,
                e.state
            );
            assert!(
                pending
                    == (e.inst.op.is_store()
                        && e.state == EntryState::Issued
                        && e.store_data.is_none()),
                "pending-store bit of slot {slot} (seq {})",
                e.seq
            );
            waiting += usize::from(!e.ops[0].ready()) + usize::from(!e.ops[1].ready());
            let (producer_age, mut younger_than) = (ruu.age(slot), usize::MAX);
            let mut node = self.wait_head[slot];
            while node != NIL {
                let (c, k) = (node as usize / 2, node as usize % 2);
                assert!(
                    ruu.is_live(c),
                    "wait-list of slot {slot} names dead slot {c}"
                );
                assert!(
                    ruu.entry(c).ops[k] == Operand::Wait(slot),
                    "wait node {node}"
                );
                let c_age = ruu.age(c);
                assert!(c_age > producer_age, "consumer older than producer");
                assert!(c_age <= younger_than, "wait-list not youngest first");
                younger_than = c_age;
                nodes += 1;
                node = self.wait_next[node as usize];
            }
        }
        assert_eq!(nodes, waiting, "waiting operands without a wait-list node");
        let total = self.ready.len() + self.parked.len() + self.pending_stores.len();
        assert_eq!(members, total, "bit set on a dead slot");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntryState;
    use crate::ruu::tests::{entry, XorShift, CAPACITIES};
    use std::collections::VecDeque;

    #[test]
    fn first_set_respects_range_and_words() {
        let mut s = SlotSet::new(200);
        for slot in [3, 64, 130, 199] {
            s.insert(slot);
        }
        assert_eq!(s.first_in(0..200), Some(3));
        assert_eq!(s.first_in(4..200), Some(64));
        assert_eq!(s.first_in(65..130), None);
        assert_eq!(s.first_in(65..131), Some(130));
        assert_eq!(s.first_in(131..199), None);
        assert_eq!(s.first_in(5..5), None);
        assert_eq!(s.last_in(0..200), Some(199));
        assert_eq!(s.last_in(0..199), Some(130));
        assert_eq!(s.last_in(65..130), None);
        assert_eq!(s.last_in(0..64), Some(3));
        assert_eq!(s.last_in(0..65), Some(64));
        assert_eq!(s.last_in(4..64), None);
        assert_eq!(s.len(), 4);
        s.remove_wrapping(198, 6, 200); // 198, 199, 0, 1, 2, 3
        assert_eq!(s.first_in(0..200), Some(64));
        assert_eq!(s.last_in(0..200), Some(130));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.first_in(4..200), Some(130));
    }

    #[test]
    fn candidates_include_parked_only_while_ports_last() {
        let mut s = Scheduler::new(8);
        s.set_ready(5);
        s.set_ready(2);
        s.park(2);
        assert_eq!(s.next_candidate(0..8, true), Some(2));
        assert_eq!(s.next_candidate(0..8, false), Some(5));
        s.issued(2);
        assert!(!s.is_parked(2));
        assert_eq!(s.next_candidate(0..8, true), Some(5));
    }

    #[test]
    fn wait_lists_run_youngest_first_and_detach() {
        let mut s = Scheduler::new(8);
        s.add_waiter(1, 3, 0);
        s.add_waiter(1, 4, 0);
        s.add_waiter(1, 4, 1);
        assert!(s.take_wait_list(2).is_none());
        let walk: Vec<_> =
            std::iter::successors(s.take_wait_list(1), |&n| s.next_waiter(n)).collect();
        assert_eq!(walk, [9, 8, 6]);
        assert!(s.take_wait_list(1).is_none(), "taking a list empties it");
    }

    #[test]
    fn clear_empties_everything() {
        let mut s = Scheduler::new(4);
        s.add_waiter(1, 2, 0);
        s.set_ready(2);
        s.set_ready(3);
        s.park(3);
        s.add_pending_store(0);
        s.clear();
        assert!(s.take_wait_list(1).is_none());
        assert_eq!(s.next_candidate(0..4, true), None);
        assert_eq!(s.next_pending_store(0..4), None);
    }

    /// Random dispatches (each entry waits on a random live producer or
    /// is ready, parked or a pending store), commits, wakeups and
    /// squashes, at every test capacity, against a `VecDeque` model
    /// searched by sequence number: the age-ordered scans yield ascending
    /// sequence numbers across the ring's wrap, no bit or wait node
    /// survives past a squash cutoff, and the invariant check holds
    /// throughout.
    #[test]
    fn slot_sets_and_wait_lists_survive_random_squashes() {
        for (i, &cap) in CAPACITIES.iter().enumerate() {
            let mut rng = XorShift(0x5eed_1234 + i as u64);
            let mut ruu = Ruu::new(cap);
            let mut s = Scheduler::new(cap);
            // Reference: (seq, slot, ready-ish bit) per live entry.
            let mut reference: VecDeque<(u64, usize, bool)> = VecDeque::new();
            let mut next_seq = 0;
            for step in 0..3_000 {
                match rng.below(8) {
                    0..=3 if ruu.free() > 0 => {
                        next_seq += 1;
                        let slot = ruu.tail_slot();
                        s.on_dispatch(slot);
                        let mut e = entry(next_seq, next_seq, 0);
                        let live: Vec<_> = ruu.iter_slots().map(|(p, _)| p).collect();
                        let scheduled = if !live.is_empty() && rng.below(2) == 0 {
                            let p = live[rng.below(live.len())];
                            e.ops[0] = Operand::Wait(p);
                            s.add_waiter(p, slot, 0);
                            false
                        } else {
                            e.state = EntryState::Ready;
                            s.set_ready(slot);
                            true
                        };
                        assert_eq!(ruu.push(e), slot);
                        reference.push_back((next_seq, slot, scheduled));
                    }
                    4 if !reference.is_empty() => {
                        // Wake the oldest entry's consumers and commit it.
                        let (_, slot, _) = reference[0];
                        let mut node = s.take_wait_list(slot);
                        while let Some(n) = node {
                            let c = n / 2;
                            let e = ruu.entry_mut(c);
                            e.ops[n % 2] = Operand::Value(1);
                            e.state = EntryState::Ready;
                            s.set_ready(c);
                            let r = reference.iter_mut().find(|r| r.1 == c).expect("live");
                            r.2 = true;
                            node = s.next_waiter(n);
                        }
                        s.issued(slot);
                        ruu.pop_front(1);
                        reference.pop_front();
                    }
                    5 | 6 if !reference.is_empty() => {
                        let keep = 1 + rng.below(reference.len());
                        let cutoff = reference[keep - 1].1;
                        let n = ruu.squash_after(cutoff);
                        s.squash(&ruu, n);
                        for (_, slot, _) in reference.drain(keep..) {
                            assert!(!s.ready.contains(slot), "bit past the cutoff");
                            assert!(s.take_wait_list(slot).is_none());
                        }
                    }
                    7 if step % 5 == 0 => {
                        ruu.squash_all();
                        s.clear();
                        reference.clear();
                    }
                    _ => {}
                }
                // The age-ordered scan over the live ranges yields exactly
                // the scheduled entries, in ascending sequence order.
                let mut scanned = Vec::new();
                for range in ruu.live_ranges() {
                    let mut from = range.start;
                    while let Some(slot) = s.next_candidate(from..range.end, true) {
                        scanned.push(ruu.entry(slot).seq);
                        from = slot + 1;
                    }
                }
                let want: Vec<_> = reference.iter().filter(|r| r.2).map(|r| r.0).collect();
                assert_eq!(scanned, want, "cap {cap} step {step}");
                #[cfg(debug_assertions)]
                if cap <= 128 || step % 64 == 0 {
                    s.assert_invariants(&ruu);
                }
            }
        }
    }
}
