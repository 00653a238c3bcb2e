//! Load/store queue: slot accounting and per-copy store sets over RUU
//! slots for thread-local forwarding and conservative disambiguation.

use crate::ruu::Ruu;
use crate::sched::SlotSet;

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

/// The load/store queue: slot accounting plus per-copy store sets.
///
/// All `R` copies of a memory instruction occupy slots, halving (for
/// `R = 2`) the queue's effective capacity exactly as the paper describes
/// for the ROB and rename registers. A memory entry's address, store
/// datum and load value live in its RUU entry; the queue keeps only its
/// occupancy and which RUU slots hold stores.
///
/// The dependence search is *thread-local*: copy *k* loads only ever
/// interact with copy *k* stores, so each copy's in-flight stores are a
/// set of RUU slots of their own, and a search walks that set down from
/// the load's slot to the RUU head — youngest older store first —
/// reading each store's address and datum from its entry.
#[derive(Debug, Clone, Default)]
pub struct Lsq {
    len: usize,
    capacity: usize,
    /// `stores[copy]`: the RUU slots of this copy's in-flight stores.
    stores: Vec<SlotSet>,
}

impl Lsq {
    /// Creates an empty queue of `capacity` slots for a machine with an
    /// RUU of `ruu_slots` slots and `r` copies per instruction.
    pub fn new(capacity: usize, ruu_slots: usize, r: usize) -> Self {
        Self {
            len: 0,
            capacity,
            stores: vec![SlotSet::new(ruu_slots); r],
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

    /// Occupies a slot for the store of copy `copy` dispatched into RUU
    /// slot `slot`, and enters it in that copy's store set.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    pub fn push_store(&mut self, slot: usize, copy: u8) {
        self.occupy();
        self.stores[usize::from(copy)].insert(slot);
    }

    fn occupy(&mut self) {
        assert!(self.len < self.capacity, "LSQ overflow");
        self.len += 1;
    }

    /// Searches for the dependence governing the load of copy `copy` in
    /// RUU slot `slot` at address `addr`/`size`.
    ///
    /// Scans older same-copy stores youngest-first: the first store with
    /// an unknown address or an inexact overlap wins as
    /// [`LoadSearch::Conflict`]; an exact match forwards (or waits for)
    /// its datum; otherwise memory.
    pub fn search_for_load(
        &self,
        ruu: &Ruu,
        slot: usize,
        copy: u8,
        addr: u64,
        size: u8,
    ) -> LoadSearch {
        let stores = &self.stores[usize::from(copy)];
        let end = addr.wrapping_add(u64::from(size));
        // The older slots run from the head up to `slot`, wrapping at the
        // ring's end: walked down, the part below `slot` comes first.
        let head = ruu.head_slot();
        let older = if slot >= head {
            [head..slot, 0..0]
        } else {
            [0..slot, head..ruu.capacity()]
        };
        for range in older {
            let mut below = range.end;
            while let Some(s) = stores.last_in(range.start..below) {
                below = s;
                let store = ruu.entry(s);
                let Some(sa) = store.ea else {
                    return LoadSearch::Conflict;
                };
                let ssize = store.inst.op.mem_bytes();
                let send = sa.wrapping_add(u64::from(ssize));
                if !(sa < end && addr < send) {
                    continue;
                }
                if sa == addr && ssize == size {
                    return match store.store_data {
                        Some(d) => LoadSearch::Forward(d),
                        None => LoadSearch::WaitData,
                    };
                }
                return LoadSearch::Conflict;
            }
        }
        LoadSearch::Memory
    }

    /// Frees the `r` slots of a committing memory group whose copies
    /// occupy the RUU slots from `copy0_slot` on (wrapping at `ruu`'s
    /// end), dropping a store group from the store sets.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `r` slots are occupied.
    pub fn remove_group(&mut self, ruu: &Ruu, copy0_slot: usize, r: usize, is_store: bool) {
        assert!(r <= self.len, "LSQ underflow");
        self.len -= r;
        if is_store {
            for (copy, set) in self.stores.iter_mut().take(r).enumerate() {
                let slot = ruu.slot_after(copy0_slot, copy);
                debug_assert!(set.contains(slot), "store set out of sync at commit");
                set.remove(slot);
            }
        }
    }

    /// Frees the slots of the `squashed_mem` memory entries among the `n`
    /// entries a branch rewind just squashed past `ruu`'s tail, and drops
    /// their stores from the store sets.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `squashed_mem` slots are occupied.
    pub fn squash(&mut self, ruu: &Ruu, n: usize, squashed_mem: usize) {
        assert!(squashed_mem <= self.len, "LSQ underflow");
        self.len -= squashed_mem;
        for set in &mut self.stores {
            set.remove_wrapping(ruu.tail_slot(), n, ruu.capacity());
        }
    }

    /// Frees every slot (full rewind).
    pub fn squash_all(&mut self) {
        self.len = 0;
        for set in &mut self.stores {
            set.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Entry;
    use ftsim_isa::{Inst, Opcode};

    /// An RUU of `slots` entries and the queue over it, with the first
    /// `skip` slots dispatched and committed so later slots wrap.
    fn machine(slots: usize, skip: usize) -> (Ruu, Lsq) {
        let mut ruu = Ruu::new(slots);
        for seq in 0..skip as u64 {
            ruu.push(Entry::new(seq, seq, 0, 0, Inst::nop(), 0));
        }
        ruu.pop_front(skip);
        (ruu, Lsq::new(8, slots, 2))
    }

    /// Dispatches a store of copy `copy` with an optional resolved address
    /// and datum; returns its slot.
    fn store(
        ruu: &mut Ruu,
        q: &mut Lsq,
        copy: u8,
        addr: Option<u64>,
        op: Opcode,
        data: Option<u64>,
    ) -> usize {
        let seq = ruu.iter().last().map_or(100, |e| e.seq + 1);
        let mut e = Entry::new(seq, seq, copy, 0, Inst::new(op, 0, 1, 2, 0), 0);
        e.ea = addr;
        e.store_data = data;
        let slot = ruu.push(e);
        q.push_store(slot, copy);
        slot
    }

    /// Dispatches a load; returns its slot.
    fn load(ruu: &mut Ruu, q: &mut Lsq) -> usize {
        let seq = ruu.iter().last().map_or(100, |e| e.seq + 1);
        q.push_load();
        ruu.push(Entry::new(
            seq,
            seq,
            0,
            0,
            Inst::new(Opcode::Ld, 1, 2, 0, 0),
            0,
        ))
    }

    #[test]
    fn forward_exact_match() {
        let (mut ruu, mut q) = machine(8, 0);
        store(&mut ruu, &mut q, 0, Some(0x100), Opcode::Sd, Some(42));
        let ld = load(&mut ruu, &mut q);
        assert_eq!(
            q.search_for_load(&ruu, ld, 0, 0x100, 8),
            LoadSearch::Forward(42)
        );
    }

    #[test]
    fn wait_for_store_data() {
        let (mut ruu, mut q) = machine(8, 0);
        store(&mut ruu, &mut q, 0, Some(0x100), Opcode::Sd, None);
        let ld = load(&mut ruu, &mut q);
        assert_eq!(
            q.search_for_load(&ruu, ld, 0, 0x100, 8),
            LoadSearch::WaitData
        );
    }

    #[test]
    fn unknown_store_address_conflicts() {
        let (mut ruu, mut q) = machine(8, 0);
        store(&mut ruu, &mut q, 0, None, Opcode::Sd, Some(1));
        let ld = load(&mut ruu, &mut q);
        assert_eq!(
            q.search_for_load(&ruu, ld, 0, 0x500, 8),
            LoadSearch::Conflict
        );
    }

    #[test]
    fn partial_overlap_conflicts() {
        let (mut ruu, mut q) = machine(8, 0);
        store(&mut ruu, &mut q, 0, Some(0x100), Opcode::Sw, Some(1));
        let ld = load(&mut ruu, &mut q);
        assert_eq!(
            q.search_for_load(&ruu, ld, 0, 0x100, 8),
            LoadSearch::Conflict
        );
        // Overlap from below.
        let (mut ruu, mut q) = machine(8, 0);
        store(&mut ruu, &mut q, 0, Some(0xfc), Opcode::Sd, Some(1));
        let ld = load(&mut ruu, &mut q);
        assert_eq!(
            q.search_for_load(&ruu, ld, 0, 0x100, 8),
            LoadSearch::Conflict
        );
    }

    #[test]
    fn disjoint_store_goes_to_memory() {
        let (mut ruu, mut q) = machine(8, 0);
        store(&mut ruu, &mut q, 0, Some(0x200), Opcode::Sd, Some(1));
        let ld = load(&mut ruu, &mut q);
        assert_eq!(q.search_for_load(&ruu, ld, 0, 0x100, 8), LoadSearch::Memory);
    }

    #[test]
    fn youngest_older_store_wins_across_the_wrap() {
        // Six slots, four already retired: the stores sit in slots 4 and
        // 5 and the load wraps around to slot 0.
        let (mut ruu, mut q) = machine(6, 4);
        store(&mut ruu, &mut q, 0, Some(0x100), Opcode::Sd, Some(1));
        store(&mut ruu, &mut q, 0, Some(0x100), Opcode::Sd, Some(2));
        let ld = load(&mut ruu, &mut q);
        assert_eq!(ld, 0);
        assert_eq!(
            q.search_for_load(&ruu, ld, 0, 0x100, 8),
            LoadSearch::Forward(2)
        );
        let st = store(&mut ruu, &mut q, 0, Some(0x100), Opcode::Sd, Some(3));
        let ld2 = load(&mut ruu, &mut q);
        assert_eq!((st, ld2), (1, 2));
        assert_eq!(
            q.search_for_load(&ruu, ld2, 0, 0x100, 8),
            LoadSearch::Forward(3)
        );
    }

    #[test]
    fn forwarding_is_thread_local() {
        let (mut ruu, mut q) = machine(8, 0);
        store(&mut ruu, &mut q, 0, Some(0x100), Opcode::Sd, Some(10));
        store(&mut ruu, &mut q, 1, Some(0x100), Opcode::Sd, Some(20));
        let ld = load(&mut ruu, &mut q);
        assert_eq!(
            q.search_for_load(&ruu, ld, 0, 0x100, 8),
            LoadSearch::Forward(10)
        );
        assert_eq!(
            q.search_for_load(&ruu, ld, 1, 0x100, 8),
            LoadSearch::Forward(20)
        );
    }

    #[test]
    fn younger_stores_ignored() {
        let (mut ruu, mut q) = machine(8, 0);
        let ld = load(&mut ruu, &mut q);
        store(&mut ruu, &mut q, 0, Some(0x100), Opcode::Sd, Some(9));
        assert_eq!(q.search_for_load(&ruu, ld, 0, 0x100, 8), LoadSearch::Memory);
    }

    #[test]
    fn group_removal_and_squash() {
        let (mut ruu, mut q) = machine(8, 0);
        store(&mut ruu, &mut q, 0, Some(0x100), Opcode::Sd, Some(1));
        store(&mut ruu, &mut q, 1, Some(0x100), Opcode::Sd, Some(1));
        load(&mut ruu, &mut q);
        load(&mut ruu, &mut q);
        store(&mut ruu, &mut q, 0, Some(0x200), Opcode::Sd, Some(3));
        q.remove_group(&ruu, 0, 2, true);
        ruu.pop_front(2);
        assert_eq!(q.len(), 3);
        let ld = load(&mut ruu, &mut q);
        assert_eq!(q.search_for_load(&ruu, ld, 0, 0x100, 8), LoadSearch::Memory);
        assert_eq!(
            q.search_for_load(&ruu, ld, 0, 0x200, 8),
            LoadSearch::Forward(3)
        );
        // Squashing the load in slot 3 and everything after it frees
        // three slots and drops the store from its set.
        let n = ruu.squash_after(2);
        q.squash(&ruu, n, 3);
        assert_eq!(q.len(), 1);
        let ld = load(&mut ruu, &mut q);
        assert_eq!(q.search_for_load(&ruu, ld, 0, 0x200, 8), LoadSearch::Memory);
        q.squash_all();
        assert!(q.is_empty());
        assert_eq!(q.free(), 8);
    }

    #[test]
    #[should_panic(expected = "LSQ overflow")]
    fn overflow_panics() {
        let mut q = Lsq::new(1, 4, 1);
        q.push_load();
        q.push_load();
    }
}
