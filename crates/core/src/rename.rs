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

const FLAT_REGS: usize = 64;

/// Maps each architectural register to the sequence number of *copy 0* of
/// the youngest in-flight producer group, or `None` when the committed
/// register file holds the current value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapTable {
    map: [Option<u64>; FLAT_REGS],
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
            map: [None; FLAT_REGS],
        }
    }

    /// The copy-0 producer sequence for `reg`, if any in flight.
    pub fn lookup(&self, reg: RegRef) -> Option<u64> {
        self.map[reg.flat_index()]
    }

    /// Records `copy0_seq` as the youngest producer of `reg`. Writes to the
    /// hardwired zero register are ignored.
    pub fn define(&mut self, reg: RegRef, copy0_seq: u64) {
        if !reg.is_zero_reg() {
            self.map[reg.flat_index()] = Some(copy0_seq);
        }
    }

    /// Clears the mapping for `reg` if it still points at `copy0_seq`
    /// (called when that producer group commits).
    pub fn retire(&mut self, reg: RegRef, copy0_seq: u64) {
        let slot = &mut self.map[reg.flat_index()];
        if *slot == Some(copy0_seq) {
            *slot = None;
        }
    }

    /// Resets every mapping (full rewind: all values live in the committed
    /// register file).
    pub fn clear(&mut self) {
        self.map = [None; FLAT_REGS];
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
        self.map.iter().filter(|m| m.is_some()).count()
    }
}

/// An immutable snapshot of the map table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapCheckpoint {
    map: [Option<u64>; FLAT_REGS],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn define_lookup_retire() {
        let mut m = MapTable::new();
        let r5 = RegRef::int(5);
        assert_eq!(m.lookup(r5), None);
        m.define(r5, 100);
        assert_eq!(m.lookup(r5), Some(100));
        m.define(r5, 200); // younger producer
        m.retire(r5, 100); // stale retire is a no-op
        assert_eq!(m.lookup(r5), Some(200));
        m.retire(r5, 200);
        assert_eq!(m.lookup(r5), None);
    }

    #[test]
    fn zero_register_never_mapped() {
        let mut m = MapTable::new();
        m.define(RegRef::int(0), 7);
        assert_eq!(m.lookup(RegRef::int(0)), None);
        // f0 is a real register though.
        m.define(RegRef::fp(0), 7);
        assert_eq!(m.lookup(RegRef::fp(0)), Some(7));
    }

    #[test]
    fn int_and_fp_do_not_alias() {
        let mut m = MapTable::new();
        m.define(RegRef::int(3), 1);
        m.define(RegRef::fp(3), 2);
        assert_eq!(m.lookup(RegRef::int(3)), Some(1));
        assert_eq!(m.lookup(RegRef::fp(3)), Some(2));
        assert_eq!(m.live_mappings(), 2);
    }

    #[test]
    fn checkpoint_restore() {
        let mut m = MapTable::new();
        m.define(RegRef::int(1), 10);
        let cp = m.checkpoint();
        m.define(RegRef::int(1), 20);
        m.define(RegRef::int(2), 30);
        m.restore(&cp);
        assert_eq!(m.lookup(RegRef::int(1)), Some(10));
        assert_eq!(m.lookup(RegRef::int(2)), None);
    }

    #[test]
    fn clear_resets_all() {
        let mut m = MapTable::new();
        m.define(RegRef::int(1), 1);
        m.define(RegRef::fp(9), 2);
        m.clear();
        assert_eq!(m.live_mappings(), 0);
    }
}
