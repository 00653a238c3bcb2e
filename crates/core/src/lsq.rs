//! Load/store queue: slot accounting and a per-copy store index for
//! thread-local forwarding and conservative disambiguation.

use std::collections::VecDeque;

/// Outcome of a load's dependence search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadSearch {
    /// An older same-thread store to exactly this address/size has its
    /// datum ready: forward this raw value.
    Forward(u64),
    /// The matching store exists but its datum is not yet available; retry
    /// later (the producer's completion will unblock it).
    WaitData,
    /// An older same-thread store overlaps inexactly, or has an unresolved
    /// address: conservatively stall until it leaves the queue.
    Conflict,
    /// No older dependence: safe to read memory.
    Memory,
}

/// One in-flight store as the dependence search sees it. `addr` and
/// `data` mirror the owning RUU entry's `ea` and `store_data` as they
/// resolve.
#[derive(Debug, Clone, Copy)]
struct StoreRef {
    seq: u64,
    addr: Option<u64>,
    size: u8,
    data: Option<u64>,
}

/// The load/store queue: slot accounting plus a per-copy store index.
///
/// All `R` copies of a memory instruction occupy slots, halving (for
/// `R = 2`) the queue's effective capacity exactly as the paper describes
/// for the ROB and rename registers. A memory entry's address, store
/// datum and load value live in its RUU entry; the queue keeps only its
/// occupancy and the stores the dependence search needs.
///
/// That search is *thread-local*: copy *k* loads only ever interact with
/// copy *k* stores, so each copy's in-flight stores are indexed on their
/// own ([`StoreRef`]) and a search walks a short, dense store list. A
/// store's resolved address and merged datum enter the index through
/// [`Lsq::set_store_addr`] / [`Lsq::set_store_data`].
#[derive(Debug, Clone, Default)]
pub struct Lsq {
    len: usize,
    capacity: usize,
    /// Store index: `stores[copy]` holds this copy's in-flight stores in
    /// ascending sequence order.
    stores: Vec<VecDeque<StoreRef>>,
}

impl Lsq {
    /// Creates an empty queue.
    pub fn new(capacity: usize) -> Self {
        Self {
            len: 0,
            capacity,
            stores: Vec::new(),
        }
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free slots.
    pub fn free(&self) -> usize {
        self.capacity - self.len
    }

    /// Occupies a slot for one load copy.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    pub fn push_load(&mut self) {
        self.occupy();
    }

    /// Occupies a slot for store `seq` of copy `copy` and enters it in
    /// that copy's store index.
    ///
    /// # Panics
    ///
    /// Panics on overflow or a non-monotonic sequence within the copy.
    pub fn push_store(&mut self, seq: u64, copy: u8, size: u8) {
        self.occupy();
        let copy = copy as usize;
        if self.stores.len() <= copy {
            self.stores.resize_with(copy + 1, VecDeque::new);
        }
        let list = &mut self.stores[copy];
        if let Some(last) = list.back() {
            assert!(seq > last.seq, "LSQ sequence must increase");
        }
        list.push_back(StoreRef {
            seq,
            addr: None,
            size,
            data: None,
        });
    }

    fn occupy(&mut self) {
        assert!(self.len < self.capacity, "LSQ overflow");
        self.len += 1;
    }

    /// Records the resolved effective address of store `seq` of `copy`.
    ///
    /// # Panics
    ///
    /// Panics if the store is not in the index.
    pub fn set_store_addr(&mut self, seq: u64, copy: u8, addr: u64) {
        self.store_ref_mut(copy, seq).addr = Some(addr);
    }

    /// Records the merged datum of store `seq` of `copy`.
    ///
    /// # Panics
    ///
    /// Panics if the store is not in the index.
    pub fn set_store_data(&mut self, seq: u64, copy: u8, data: u64) {
        self.store_ref_mut(copy, seq).data = Some(data);
    }

    /// The index slot of store `seq` of `copy`.
    fn store_ref_mut(&mut self, copy: u8, seq: u64) -> &mut StoreRef {
        let list = &mut self.stores[copy as usize];
        let i = list.partition_point(|s| s.seq < seq);
        assert!(
            i < list.len() && list[i].seq == seq,
            "store {seq} is not in the index"
        );
        &mut list[i]
    }

    /// Searches for the dependence governing a load (`seq`, copy `copy`)
    /// at address `addr`/`size`.
    ///
    /// Scans older same-copy stores youngest-first: the first store with an
    /// unknown address or an inexact overlap wins as [`LoadSearch::Conflict`];
    /// an exact match forwards (or waits for) its datum; otherwise memory.
    pub fn search_for_load(&self, seq: u64, copy: u8, addr: u64, size: u8) -> LoadSearch {
        let Some(list) = self.stores.get(copy as usize) else {
            return LoadSearch::Memory;
        };
        let end = addr.wrapping_add(u64::from(size));
        // The index is seq-ascending, so the reverse walk visits this
        // copy's older stores youngest-first — the same visit order the
        // full-queue scan produced, minus the loads and foreign copies in
        // between.
        let older = list.partition_point(|s| s.seq < seq);
        for s in list.iter().take(older).rev() {
            match s.addr {
                None => return LoadSearch::Conflict,
                Some(sa) => {
                    let send = sa.wrapping_add(u64::from(s.size));
                    let overlap = sa < end && addr < send;
                    if !overlap {
                        continue;
                    }
                    if sa == addr && s.size == size {
                        return match s.data {
                            Some(d) => LoadSearch::Forward(d),
                            None => LoadSearch::WaitData,
                        };
                    }
                    return LoadSearch::Conflict;
                }
            }
        }
        LoadSearch::Memory
    }

    /// Frees the `r` slots of a committing memory group whose copy 0 is
    /// `copy0_seq`.
    ///
    /// Commit retires in order, so a committing store group's copies are
    /// at the front of their copies' store lists: pop there.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `r` slots are occupied.
    pub fn remove_group(&mut self, copy0_seq: u64, r: usize, is_store: bool) {
        assert!(r <= self.len, "LSQ underflow");
        self.len -= r;
        if is_store {
            for (copy, list) in self.stores.iter_mut().take(r).enumerate() {
                let popped = list.pop_front();
                debug_assert_eq!(
                    popped.map(|s| s.seq),
                    Some(copy0_seq + copy as u64),
                    "store index out of sync at commit"
                );
            }
        }
    }

    /// Frees the slots of the `squashed` memory entries younger than
    /// `cutoff` (branch rewind) and drops their stores from the index.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `squashed` slots are occupied.
    pub fn squash_after(&mut self, cutoff: u64, squashed: usize) {
        assert!(squashed <= self.len, "LSQ underflow");
        self.len -= squashed;
        for list in &mut self.stores {
            let keep = list.partition_point(|s| s.seq <= cutoff);
            list.truncate(keep);
        }
    }

    /// Frees every slot (full rewind).
    pub fn squash_all(&mut self) {
        self.len = 0;
        for list in &mut self.stores {
            list.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(q: &mut Lsq, seq: u64, copy: u8, addr: Option<u64>, size: u8, data: Option<u64>) {
        q.push_store(seq, copy, size);
        if let Some(a) = addr {
            q.set_store_addr(seq, copy, a);
        }
        if let Some(d) = data {
            q.set_store_data(seq, copy, d);
        }
    }

    #[test]
    fn forward_exact_match() {
        let mut q = Lsq::new(8);
        store(&mut q, 1, 0, Some(0x100), 8, Some(42));
        q.push_load();
        assert_eq!(q.search_for_load(2, 0, 0x100, 8), LoadSearch::Forward(42));
    }

    #[test]
    fn wait_for_store_data() {
        let mut q = Lsq::new(8);
        store(&mut q, 1, 0, Some(0x100), 8, None);
        assert_eq!(q.search_for_load(2, 0, 0x100, 8), LoadSearch::WaitData);
    }

    #[test]
    fn unknown_store_address_conflicts() {
        let mut q = Lsq::new(8);
        store(&mut q, 1, 0, None, 8, Some(1));
        assert_eq!(q.search_for_load(2, 0, 0x500, 8), LoadSearch::Conflict);
    }

    #[test]
    fn partial_overlap_conflicts() {
        let mut q = Lsq::new(8);
        store(&mut q, 1, 0, Some(0x100), 4, Some(1));
        assert_eq!(q.search_for_load(2, 0, 0x100, 8), LoadSearch::Conflict);
        // Overlap from below.
        let mut q = Lsq::new(8);
        store(&mut q, 1, 0, Some(0xfc), 8, Some(1));
        assert_eq!(q.search_for_load(2, 0, 0x100, 8), LoadSearch::Conflict);
    }

    #[test]
    fn disjoint_store_goes_to_memory() {
        let mut q = Lsq::new(8);
        store(&mut q, 1, 0, Some(0x200), 8, Some(1));
        assert_eq!(q.search_for_load(2, 0, 0x100, 8), LoadSearch::Memory);
    }

    #[test]
    fn youngest_older_store_wins() {
        let mut q = Lsq::new(8);
        store(&mut q, 1, 0, Some(0x100), 8, Some(1));
        store(&mut q, 2, 0, Some(0x100), 8, Some(2));
        assert_eq!(q.search_for_load(3, 0, 0x100, 8), LoadSearch::Forward(2));
    }

    #[test]
    fn forwarding_is_thread_local() {
        let mut q = Lsq::new(8);
        store(&mut q, 1, 0, Some(0x100), 8, Some(10));
        store(&mut q, 2, 1, Some(0x100), 8, Some(20));
        assert_eq!(q.search_for_load(3, 0, 0x100, 8), LoadSearch::Forward(10));
        assert_eq!(q.search_for_load(4, 1, 0x100, 8), LoadSearch::Forward(20));
    }

    #[test]
    fn younger_stores_ignored() {
        let mut q = Lsq::new(8);
        q.push_load();
        store(&mut q, 2, 0, Some(0x100), 8, Some(9));
        assert_eq!(q.search_for_load(1, 0, 0x100, 8), LoadSearch::Memory);
    }

    #[test]
    fn group_removal_and_squash() {
        let mut q = Lsq::new(8);
        store(&mut q, 1, 0, Some(0x100), 8, Some(1));
        store(&mut q, 2, 1, Some(0x100), 8, Some(1));
        q.push_load();
        q.push_load();
        store(&mut q, 7, 0, Some(0x200), 8, Some(3));
        q.remove_group(1, 2, true);
        assert_eq!(q.len(), 3);
        assert_eq!(q.search_for_load(8, 0, 0x100, 8), LoadSearch::Memory);
        assert_eq!(q.search_for_load(8, 0, 0x200, 8), LoadSearch::Forward(3));
        // Squashing the load at seq 6 and the store at seq 7 frees two
        // slots and drops the store from the index.
        q.squash_after(5, 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.search_for_load(8, 0, 0x200, 8), LoadSearch::Memory);
        q.squash_all();
        assert!(q.is_empty());
        assert_eq!(q.free(), 8);
    }

    #[test]
    #[should_panic(expected = "LSQ overflow")]
    fn overflow_panics() {
        let mut q = Lsq::new(1);
        q.push_load();
        q.push_load();
    }
}
