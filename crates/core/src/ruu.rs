//! The register update unit: a circular in-order buffer of [`Entry`]s.

use crate::entry::Entry;
use std::collections::VecDeque;

/// The RUU (reorder buffer with integrated rename registers, after
/// Sohi's RUU [17] as used by SimpleScalar).
///
/// Entries are kept in dispatch (sequence) order. Replication groups are
/// dispatched and retired atomically, so the `R` copies of an instruction
/// always occupy consecutive positions — the invariant the commit-stage
/// cross-check indexes by.
#[derive(Debug, Clone, Default)]
pub struct Ruu {
    entries: VecDeque<Entry>,
    capacity: usize,
}

impl Ruu {
    /// Creates an empty RUU with the given capacity.
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Free slots.
    pub fn free(&self) -> usize {
        self.capacity - self.entries.len()
    }

    /// Appends a freshly dispatched entry.
    ///
    /// # Panics
    ///
    /// Panics if the RUU is full or `entry.seq` is not monotonically
    /// increasing.
    pub fn push(&mut self, entry: Entry) {
        assert!(self.entries.len() < self.capacity, "RUU overflow");
        if let Some(last) = self.entries.back() {
            assert!(entry.seq > last.seq, "RUU sequence must increase");
        }
        self.entries.push_back(entry);
    }

    /// Position (index handle) of `seq` in the buffer, if present.
    ///
    /// The returned index stays valid until the next structural mutation
    /// (`push`, `pop_front`, `squash_*`): the stage code resolves a
    /// sequence number once and threads the handle through its per-entry
    /// work instead of re-running the binary search at every access.
    ///
    /// Sequences are strictly ascending, so the buffer is gap-free exactly
    /// when its sequence span equals its length — the common state between
    /// rewinds — and the slot is then computed directly; only a buffer
    /// holding a squash-induced gap pays the binary search.
    pub fn position(&self, seq: u64) -> Option<usize> {
        let first = self.entries.front()?.seq;
        let last = self.entries.back().expect("front exists").seq;
        if seq < first || seq > last {
            return None;
        }
        if last - first + 1 == self.entries.len() as u64 {
            return Some((seq - first) as usize);
        }
        let i = self.entries.partition_point(|e| e.seq < seq);
        (i < self.entries.len() && self.entries[i].seq == seq).then_some(i)
    }

    /// The entry at an index handle obtained from [`Ruu::position`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds (a stale handle).
    pub fn at(&self, idx: usize) -> &Entry {
        &self.entries[idx]
    }

    /// Mutable access through an index handle.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds (a stale handle).
    pub fn at_mut(&mut self, idx: usize) -> &mut Entry {
        &mut self.entries[idx]
    }

    /// Immutable entry lookup by sequence number.
    pub fn get(&self, seq: u64) -> Option<&Entry> {
        self.position(seq).map(|i| &self.entries[i])
    }

    /// Mutable entry lookup by sequence number.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut Entry> {
        self.position(seq).map(|i| &mut self.entries[i])
    }

    /// The oldest replication group: all leading entries sharing the head's
    /// `group`. Empty when the RUU is empty; borrows, never allocates.
    pub fn head_group(&self) -> impl Iterator<Item = &Entry> {
        let group = self.entries.front().map(|e| e.group);
        self.entries
            .iter()
            .take_while(move |e| Some(e.group) == group)
    }

    /// Drops the oldest `n` entries (used by commit after a group
    /// retires).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` entries are live.
    pub fn pop_front(&mut self, n: usize) {
        assert!(n <= self.entries.len(), "RUU underflow");
        self.entries.drain(..n);
    }

    /// Removes every entry with `seq > cutoff` (branch rewind), appending
    /// the squashed entries youngest-last to `out` (a caller-owned scratch
    /// buffer, so the steady state allocates nothing).
    pub fn squash_after_into(&mut self, cutoff: u64, out: &mut Vec<Entry>) {
        let keep = self.entries.partition_point(|e| e.seq <= cutoff);
        out.extend(self.entries.drain(keep..));
    }

    /// Removes everything (full rewind), appending the squashed entries
    /// to `out`.
    pub fn squash_all_into(&mut self, out: &mut Vec<Entry>) {
        out.extend(self.entries.drain(..));
    }

    /// Iterates over live entries oldest-first.
    #[cfg(any(test, debug_assertions))]
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsim_isa::Inst;

    fn entry(seq: u64, group: u64, copy: u8) -> Entry {
        Entry::new(seq, group, copy, 0x1000 + 4 * group, Inst::nop(), 0)
    }

    #[test]
    fn push_lookup_pop() {
        let mut r = Ruu::new(8);
        for s in 0..4 {
            r.push(entry(s, s / 2, (s % 2) as u8));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.free(), 4);
        assert_eq!(r.get(2).unwrap().seq, 2);
        assert!(r.get(9).is_none());
        r.pop_front(2);
        assert_eq!(r.len(), 2);
        assert_eq!(r.at(0).seq, 2);
    }

    #[test]
    fn position_handles_resolve_entries() {
        let mut r = Ruu::new(8);
        for s in 0..4 {
            r.push(entry(s, s, 0));
        }
        let idx = r.position(2).unwrap();
        assert_eq!(r.at(idx).seq, 2);
        r.at_mut(idx).result = Some(7);
        assert_eq!(r.get(2).unwrap().result, Some(7));
        assert!(r.position(9).is_none());
    }

    #[test]
    fn head_group_takes_all_copies() {
        let mut r = Ruu::new(8);
        r.push(entry(0, 0, 0));
        r.push(entry(1, 0, 1));
        r.push(entry(2, 1, 0));
        let g: Vec<_> = r.head_group().collect();
        assert_eq!(g.len(), 2);
        assert!(g.iter().all(|e| e.group == 0));
    }

    #[test]
    fn squash_after_removes_younger_only() {
        let mut r = Ruu::new(8);
        for s in 0..6 {
            r.push(entry(s, s, 0));
        }
        let mut squashed = Vec::new();
        r.squash_after_into(2, &mut squashed);
        assert_eq!(squashed.len(), 3);
        assert_eq!(squashed[0].seq, 3);
        assert_eq!(r.len(), 3);
        assert_eq!(r.entries.back().unwrap().seq, 2);
    }

    #[test]
    fn squash_with_sequence_gaps() {
        let mut r = Ruu::new(8);
        r.push(entry(0, 0, 0));
        r.push(entry(5, 1, 0)); // gap after an earlier squash
        r.push(entry(6, 2, 0));
        let mut squashed = Vec::new();
        r.squash_after_into(4, &mut squashed);
        assert_eq!(squashed.len(), 2);
        assert_eq!(r.len(), 1);
        assert!(r.get(5).is_none());
        assert!(r.get(0).is_some());
    }

    #[test]
    fn squash_all_empties() {
        let mut r = Ruu::new(4);
        r.push(entry(0, 0, 0));
        r.push(entry(1, 1, 0));
        let mut squashed = Vec::new();
        r.squash_all_into(&mut squashed);
        assert_eq!(squashed.len(), 2);
        assert!(r.is_empty());
        assert_eq!(r.head_group().count(), 0);
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
}
