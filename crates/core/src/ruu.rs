//! The register update unit: a ring of [`Entry`] slots in sequence order.

use crate::entry::Entry;
use std::ops::Range;

/// The RUU (reorder buffer with integrated rename registers, after
/// Sohi's RUU [17] as used by SimpleScalar).
///
/// Entries live in a ring of `capacity` physical **slots**. An entry
/// keeps its slot from dispatch until it commits or is squashed, so the
/// scheduler keys wait-lists, bitsets and completion events by slot, and
/// circular slot order from the head slot is dispatch (sequence) order.
/// A slot's age index is `(slot - head) mod capacity`, O(1) with or
/// without a squash gap in the sequence numbers. Replication groups are
/// dispatched and retired atomically, so the `R` copies of an instruction
/// always occupy consecutive slots — the invariant the commit-stage
/// cross-check indexes by.
///
/// A slot outside the live range still holds the last entry that lived
/// there; [`Ruu::resolve`] tells a live entry from such a leftover.
#[derive(Debug, Clone, Default)]
pub struct Ruu {
    /// Slot storage, grown on first use up to `capacity`.
    slots: Vec<Entry>,
    capacity: usize,
    /// Slot of the oldest live entry.
    head: usize,
    len: usize,
}

impl Ruu {
    /// Creates an empty RUU with the given capacity.
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            len: 0,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free slots.
    pub fn free(&self) -> usize {
        self.capacity - self.len
    }

    /// Number of physical slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The slot `k` places younger than `slot` (`k <= capacity`).
    pub fn slot_after(&self, slot: usize, k: usize) -> usize {
        let s = slot + k;
        if s >= self.capacity {
            s - self.capacity
        } else {
            s
        }
    }

    /// The slot `k` places older than `slot` (`k <= capacity`).
    pub fn slot_before(&self, slot: usize, k: usize) -> usize {
        if slot >= k {
            slot - k
        } else {
            slot + self.capacity - k
        }
    }

    /// Age index of `slot`: 0 for the head, `len - 1` for the youngest
    /// live entry.
    pub(crate) fn age(&self, slot: usize) -> usize {
        if slot >= self.head {
            slot - self.head
        } else {
            slot + self.capacity - self.head
        }
    }

    /// Whether `slot` holds a live entry.
    pub fn is_live(&self, slot: usize) -> bool {
        slot < self.capacity && self.age(slot) < self.len
    }

    /// Slot of the oldest live entry (where the next entry goes when the
    /// RUU is empty).
    pub fn head_slot(&self) -> usize {
        self.head
    }

    /// The slot the next [`Ruu::push`] fills.
    pub fn tail_slot(&self) -> usize {
        self.slot_after(self.head, self.len)
    }

    /// The live slots oldest-first, as at most two physical ranges (the
    /// second is non-empty only when the live range wraps).
    pub fn live_ranges(&self) -> [Range<usize>; 2] {
        let end = self.head + self.len;
        if end <= self.capacity {
            [self.head..end, 0..0]
        } else {
            [self.head..self.capacity, 0..end - self.capacity]
        }
    }

    /// Appends a freshly dispatched entry and returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if the RUU is full or `entry.seq` is not monotonically
    /// increasing.
    pub fn push(&mut self, entry: Entry) -> usize {
        assert!(self.len < self.capacity, "RUU overflow");
        let slot = self.tail_slot();
        if self.len > 0 {
            let last = &self.slots[self.slot_before(slot, 1)];
            assert!(entry.seq > last.seq, "RUU sequence must increase");
        }
        if slot == self.slots.len() {
            self.slots.push(entry);
        } else {
            self.slots[slot] = entry;
        }
        self.len += 1;
        slot
    }

    /// The live entry in `slot`.
    pub fn entry(&self, slot: usize) -> &Entry {
        debug_assert!(self.is_live(slot), "slot {slot} is not live");
        &self.slots[slot]
    }

    /// Mutable access to the live entry in `slot`.
    pub fn entry_mut(&mut self, slot: usize) -> &mut Entry {
        debug_assert!(self.is_live(slot), "slot {slot} is not live");
        &mut self.slots[slot]
    }

    /// The live entry in `slot` if it is the one dispatched as `seq`:
    /// `None` once that entry has committed or been squashed, whether or
    /// not a younger entry has reused the slot since.
    pub fn resolve(&self, slot: usize, seq: u64) -> Option<&Entry> {
        (self.is_live(slot) && self.slots[slot].seq == seq).then(|| &self.slots[slot])
    }

    /// The oldest `n` live entries (fewer if fewer are live), oldest
    /// first; with `n = R`, the head replication group.
    pub fn head(&self, n: usize) -> impl Iterator<Item = &Entry> {
        (0..n.min(self.len)).map(|k| &self.slots[self.slot_after(self.head, k)])
    }

    /// Drops the oldest `n` entries (used by commit after a group
    /// retires).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` entries are live.
    pub fn pop_front(&mut self, n: usize) {
        assert!(n <= self.len, "RUU underflow");
        self.head = self.slot_after(self.head, n);
        self.len -= n;
    }

    /// Removes every entry younger than the one in `slot` (branch
    /// rewind) and returns how many it removed; [`Ruu::squashed`] reads
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not live.
    pub fn squash_after(&mut self, slot: usize) -> usize {
        assert!(self.is_live(slot), "squash cutoff slot {slot} is not live");
        let keep = self.age(slot) + 1;
        let squashed = self.len - keep;
        self.len = keep;
        squashed
    }

    /// Removes everything (full rewind) and returns how many entries it
    /// removed; [`Ruu::squashed`] reads them.
    pub fn squash_all(&mut self) -> usize {
        std::mem::take(&mut self.len)
    }

    /// The `n` entries a squash just removed, as `(slot, entry)` pairs,
    /// youngest first. A squash leaves its entries in their slots, just
    /// past the new tail, so they read in place until the next
    /// [`Ruu::push`] reuses a slot.
    pub fn squashed(&self, n: usize) -> impl Iterator<Item = (usize, &Entry)> {
        debug_assert!(self.len + n <= self.capacity);
        let tail = self.tail_slot();
        (0..n)
            .rev()
            .map(move |i| self.slot_after(tail, i))
            .map(|slot| (slot, &self.slots[slot]))
    }

    /// Iterates over live entries oldest-first.
    #[cfg(any(test, debug_assertions))]
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        let [a, b] = self.live_ranges();
        self.slots[a].iter().chain(&self.slots[b])
    }

    /// Iterates over live `(slot, entry)` pairs oldest-first.
    pub fn iter_slots(&self) -> impl Iterator<Item = (usize, &Entry)> {
        let [a, b] = self.live_ranges();
        a.chain(b).map(|slot| (slot, &self.slots[slot]))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ftsim_isa::Inst;
    use std::collections::VecDeque;

    pub(crate) fn entry(seq: u64, group: u64, copy: u8) -> Entry {
        Entry::new(seq, group, copy, 0x1000 + 4 * group, Inst::nop(), 0)
    }

    /// A small deterministic generator for the randomized tests.
    pub(crate) struct XorShift(pub(crate) u64);

    impl XorShift {
        pub(crate) fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// The capacities the randomized tests cover: the smallest rings,
    /// a non-power-of-two, the default and the largest window.
    pub(crate) const CAPACITIES: [usize; 5] = [2, 3, 96, 128, 4096];

    #[test]
    fn push_resolve_pop() {
        let mut r = Ruu::new(8);
        let slots: Vec<_> = (0..4)
            .map(|s| r.push(entry(s, s / 2, (s % 2) as u8)))
            .collect();
        assert_eq!(slots, [0, 1, 2, 3]);
        assert_eq!(r.len(), 4);
        assert_eq!(r.free(), 4);
        assert_eq!(r.resolve(2, 2).unwrap().seq, 2);
        assert!(r.resolve(2, 9).is_none());
        r.pop_front(2);
        assert_eq!(r.len(), 2);
        assert_eq!(r.head_slot(), 2);
        assert!(
            r.resolve(0, 0).is_none(),
            "a committed entry no longer resolves"
        );
        assert_eq!(r.iter().next().unwrap().seq, 2);
    }

    #[test]
    fn slots_wrap_and_keep_age_order() {
        let mut r = Ruu::new(4);
        for s in 0..3 {
            r.push(entry(s, s, 0));
        }
        r.pop_front(2);
        let wrapped: Vec<_> = (3..6).map(|s| r.push(entry(s, s, 0))).collect();
        assert_eq!(wrapped, [3, 0, 1]);
        assert_eq!(r.live_ranges(), [2..4, 0..2]);
        let order: Vec<_> = r.iter_slots().map(|(slot, e)| (slot, e.seq)).collect();
        assert_eq!(order, [(2, 2), (3, 3), (0, 4), (1, 5)]);
        assert_eq!(r.slot_after(3, 1), 0);
        assert_eq!(r.slot_before(0, 1), 3);
    }

    #[test]
    fn head_takes_the_oldest_entries_across_the_wrap() {
        let mut r = Ruu::new(3);
        for s in 0..3 {
            r.push(entry(s, s / 2, (s % 2) as u8));
        }
        r.pop_front(2);
        r.push(entry(3, 1, 1));
        let g: Vec<_> = r.head(2).map(|e| (e.seq, e.group)).collect();
        assert_eq!(g, [(2, 1), (3, 1)]);
        assert_eq!(r.head(5).count(), 2);
    }

    #[test]
    fn squash_after_removes_younger_only() {
        let mut r = Ruu::new(8);
        for s in 0..6 {
            r.push(entry(s, s, 0));
        }
        let n = r.squash_after(2);
        assert_eq!(n, 3);
        let squashed: Vec<_> = r.squashed(n).map(|(slot, e)| (slot, e.seq)).collect();
        assert_eq!(squashed, [(5, 5), (4, 4), (3, 3)], "youngest first");
        assert_eq!(r.len(), 3);
        assert_eq!(r.tail_slot(), 3);
        assert!(
            r.resolve(3, 3).is_none(),
            "a squashed entry no longer resolves"
        );
        // The slot is reused by the next dispatch, under a new sequence.
        assert_eq!(r.push(entry(9, 9, 0)), 3);
        assert!(r.resolve(3, 3).is_none());
        assert_eq!(r.resolve(3, 9).unwrap().seq, 9);
    }

    #[test]
    fn squash_all_empties() {
        let mut r = Ruu::new(4);
        r.push(entry(0, 0, 0));
        r.push(entry(1, 1, 0));
        let n = r.squash_all();
        assert_eq!(n, 2);
        assert_eq!(
            r.squashed(n).map(|(_, e)| e.seq).collect::<Vec<_>>(),
            [1, 0]
        );
        assert!(r.is_empty());
        assert_eq!(r.head(2).count(), 0);
        assert!(!r.is_live(0));
    }

    #[test]
    #[should_panic(expected = "RUU overflow")]
    fn overflow_panics() {
        let mut r = Ruu::new(1);
        r.push(entry(0, 0, 0));
        r.push(entry(1, 1, 0));
    }

    #[test]
    #[should_panic(expected = "sequence must increase")]
    fn non_monotonic_rejected() {
        let mut r = Ruu::new(4);
        r.push(entry(5, 0, 0));
        r.push(entry(3, 1, 0));
    }

    /// Random pushes, commits and squashes against a `VecDeque` searched
    /// by sequence number, the RUU's previous representation: every live
    /// entry resolves through its slot, nothing else does, and the slot
    /// walk is ascending in sequence across the ring's wrap.
    #[test]
    fn slot_ring_agrees_with_a_sequence_searched_deque() {
        for (i, &cap) in CAPACITIES.iter().enumerate() {
            let mut rng = XorShift(0x9e37_79b9 + i as u64);
            let mut ruu = Ruu::new(cap);
            let mut reference: VecDeque<(u64, usize)> = VecDeque::new();
            let mut next_seq = 0;
            for step in 0..4_000 {
                match rng.below(10) {
                    0..=4 if ruu.free() > 0 => {
                        next_seq += 1 + rng.below(2) as u64; // squash gaps
                        let slot = ruu.push(entry(next_seq, next_seq, 0));
                        reference.push_back((next_seq, slot));
                    }
                    5 | 6 if !reference.is_empty() => {
                        let n = 1 + rng.below(reference.len());
                        ruu.pop_front(n);
                        reference.drain(..n);
                    }
                    7 | 8 if !reference.is_empty() => {
                        let keep = 1 + rng.below(reference.len());
                        let cutoff_slot = reference[keep - 1].1;
                        let n = ruu.squash_after(cutoff_slot);
                        let gone: Vec<_> = reference.drain(keep..).rev().collect();
                        let squashed = ruu.squashed(n).map(|(slot, e)| (e.seq, slot));
                        assert!(squashed.eq(gone.iter().copied()), "cap {cap} step {step}");
                        for (seq, slot) in gone {
                            assert!(ruu.resolve(slot, seq).is_none(), "squashed seq {seq}");
                        }
                    }
                    9 if step % 7 == 0 => {
                        let n = ruu.squash_all();
                        assert!(ruu
                            .squashed(n)
                            .map(|(_, e)| e.seq)
                            .eq(reference.iter().rev().map(|r| r.0)));
                        reference.clear();
                    }
                    _ => {}
                }
                assert_eq!(ruu.len(), reference.len(), "cap {cap} step {step}");
                for &(seq, slot) in &reference {
                    assert_eq!(ruu.resolve(slot, seq).map(|e| e.seq), Some(seq));
                }
                let walk: Vec<_> = ruu.iter_slots().map(|(slot, e)| (e.seq, slot)).collect();
                assert!(walk.iter().eq(reference.iter()), "cap {cap} step {step}");
            }
        }
    }
}
