//! Register renaming: the single ECC-protected map table and its
//! per-branch checkpoints.
//!
//! The paper's renaming trick (§3.2): because all `R` copies of an
//! instruction occupy consecutive ROB entries, only the operands of copy 0
//! need a map-table lookup — copy *k*'s producer is the mapped entry plus
//! offset *k*. One map table therefore serves any degree of redundancy; its
//! contents must be ECC-protected (we model that by never targeting it
//! with fault injection).

use ftsim_isa::RegRef;
use std::collections::VecDeque;

const FLAT_REGS: usize = 64;

/// A map slot with no in-flight producer.
const UNMAPPED: Mapping = Mapping {
    seq: 0,
    slot: u32::MAX,
};

/// Copy 0 of a producer group: its sequence number and its RUU slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mapping {
    seq: u64,
    slot: u32,
}

/// Maps each architectural register to *copy 0* of the youngest
/// in-flight producer group — its RUU slot, with its sequence number
/// beside it so a reader can tell the producer from a later occupant of
/// the slot — or to nothing when the committed register file holds the
/// current value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapTable {
    map: [Mapping; FLAT_REGS],
}

impl Default for MapTable {
    fn default() -> Self {
        Self::new()
    }
}

impl MapTable {
    /// A map with every register committed.
    pub fn new() -> Self {
        Self {
            map: [UNMAPPED; FLAT_REGS],
        }
    }

    /// `(sequence, slot)` of copy 0 of `reg`'s producer, if one was in
    /// flight when it was mapped.
    pub fn lookup(&self, reg: RegRef) -> Option<(u64, usize)> {
        let m = self.map[reg.flat_index()];
        (m != UNMAPPED).then_some((m.seq, m.slot as usize))
    }

    /// Records copy 0 (`copy0_seq` in slot `copy0_slot`) as the youngest
    /// producer of `reg`. Writes to the hardwired zero register are
    /// ignored.
    pub fn define(&mut self, reg: RegRef, copy0_seq: u64, copy0_slot: usize) {
        if !reg.is_zero_reg() {
            self.map[reg.flat_index()] = Mapping {
                seq: copy0_seq,
                slot: copy0_slot as u32,
            };
        }
    }

    /// Clears the mapping for `reg` if it still points at `copy0_seq`
    /// (called when that producer group commits).
    pub fn retire(&mut self, reg: RegRef, copy0_seq: u64) {
        let m = &mut self.map[reg.flat_index()];
        if *m != UNMAPPED && m.seq == copy0_seq {
            *m = UNMAPPED;
        }
    }

    /// Resets every mapping (full rewind: all values live in the committed
    /// register file).
    pub fn clear(&mut self) {
        self.map = [UNMAPPED; FLAT_REGS];
    }

    /// Snapshots the table (taken after dispatching a branch group).
    pub fn checkpoint(&self) -> MapCheckpoint {
        MapCheckpoint { map: self.map }
    }

    /// Restores a snapshot (branch rewind).
    pub fn restore(&mut self, cp: &MapCheckpoint) {
        self.map = cp.map;
    }

    /// Number of registers currently mapped to in-flight producers.
    #[cfg(test)]
    pub fn live_mappings(&self) -> usize {
        self.map.iter().filter(|&&m| m != UNMAPPED).count()
    }
}

/// An immutable snapshot of the map table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapCheckpoint {
    map: [Mapping; FLAT_REGS],
}

/// The map checkpoints of the in-flight control groups, oldest first.
///
/// Control groups dispatch, commit and squash in group order, so the
/// checkpoints form a queue: dispatch appends, commit pops the front, a
/// branch rewind drops the back down to the rewinding branch, whose own
/// checkpoint is then the last.
#[derive(Debug, Clone, Default)]
pub struct BranchMaps {
    maps: VecDeque<(u64, MapCheckpoint)>,
}

impl BranchMaps {
    /// Records `group`'s checkpoint; `group` is younger than every
    /// recorded one.
    pub fn push(&mut self, group: u64, cp: MapCheckpoint) {
        debug_assert!(self.maps.back().map_or(true, |&(g, _)| g < group));
        self.maps.push_back((group, cp));
    }

    /// `group` committed: drops its checkpoint if it has one.
    pub fn retire(&mut self, group: u64) {
        if self.maps.front().is_some_and(|&(g, _)| g == group) {
            self.maps.pop_front();
        }
    }

    /// Branch rewind at `group`: drops every younger group's checkpoint
    /// and returns `group`'s own.
    ///
    /// # Panics
    ///
    /// Panics if `group` recorded no checkpoint.
    pub fn rewind_to(&mut self, group: u64) -> &MapCheckpoint {
        let keep = self.maps.partition_point(|&(g, _)| g <= group);
        self.maps.truncate(keep);
        match self.maps.back() {
            Some((g, cp)) if *g == group => cp,
            _ => panic!("branch group {group} has no checkpoint"),
        }
    }

    /// Drops every checkpoint (full rewind).
    pub fn clear(&mut self) {
        self.maps.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn define_lookup_retire() {
        let mut m = MapTable::new();
        let r5 = RegRef::int(5);
        assert_eq!(m.lookup(r5), None);
        m.define(r5, 100, 4);
        assert_eq!(m.lookup(r5), Some((100, 4)));
        m.define(r5, 200, 9); // younger producer
        m.retire(r5, 100); // stale retire is a no-op
        assert_eq!(m.lookup(r5), Some((200, 9)));
        m.retire(r5, 200);
        assert_eq!(m.lookup(r5), None);
    }

    #[test]
    fn zero_register_never_mapped() {
        let mut m = MapTable::new();
        m.define(RegRef::int(0), 7, 0);
        assert_eq!(m.lookup(RegRef::int(0)), None);
        // f0 is a real register though.
        m.define(RegRef::fp(0), 7, 0);
        assert_eq!(m.lookup(RegRef::fp(0)), Some((7, 0)));
    }

    #[test]
    fn int_and_fp_do_not_alias() {
        let mut m = MapTable::new();
        m.define(RegRef::int(3), 1, 1);
        m.define(RegRef::fp(3), 2, 2);
        assert_eq!(m.lookup(RegRef::int(3)), Some((1, 1)));
        assert_eq!(m.lookup(RegRef::fp(3)), Some((2, 2)));
        assert_eq!(m.live_mappings(), 2);
    }

    #[test]
    fn checkpoint_restore() {
        let mut m = MapTable::new();
        m.define(RegRef::int(1), 10, 0);
        let cp = m.checkpoint();
        m.define(RegRef::int(1), 20, 1);
        m.define(RegRef::int(2), 30, 2);
        m.restore(&cp);
        assert_eq!(m.lookup(RegRef::int(1)), Some((10, 0)));
        assert_eq!(m.lookup(RegRef::int(2)), None);
    }

    #[test]
    fn branch_maps_queue_in_group_order() {
        let mut m = MapTable::new();
        let mut b = BranchMaps::default();
        for group in [3, 5, 8] {
            m.define(RegRef::int(1), group, 0);
            b.push(group, m.checkpoint());
        }
        b.retire(4); // not a control group: no checkpoint to drop
        m.restore(b.rewind_to(5));
        assert_eq!(m.lookup(RegRef::int(1)), Some((5, 0)));
        b.retire(3);
        m.restore(b.rewind_to(5));
        assert_eq!(m.lookup(RegRef::int(1)), Some((5, 0)));
        b.retire(5);
        b.clear();
    }

    #[test]
    #[should_panic(expected = "has no checkpoint")]
    fn rewind_without_checkpoint_panics() {
        let mut b = BranchMaps::default();
        b.push(2, MapTable::new().checkpoint());
        b.rewind_to(1);
    }

    #[test]
    fn clear_resets_all() {
        let mut m = MapTable::new();
        m.define(RegRef::int(1), 1, 1);
        m.define(RegRef::fp(9), 2, 2);
        m.clear();
        assert_eq!(m.live_mappings(), 0);
    }
}
