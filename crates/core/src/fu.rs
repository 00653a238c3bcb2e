//! Functional-unit pool with pipelined and blocking operations.

use crate::config::{FuConfig, OpLatencies};
use ftsim_isa::{FuClass, Opcode};

/// Tracks per-unit availability for one functional-unit class.
///
/// A pipelined operation occupies its unit for one cycle (a new operation
/// can start every cycle); a blocking operation (division, square root —
/// Table 1: "all FU operations are pipelined except for division") holds
/// the unit for its full latency.
#[derive(Debug, Clone)]
struct UnitClass {
    busy_until: Vec<u64>,
}

impl UnitClass {
    fn new(units: u32) -> Self {
        Self {
            busy_until: vec![0; units as usize],
        }
    }

    /// Tries to claim a unit at `now`, holding it until `now + occupancy`.
    fn try_issue(&mut self, now: u64, occupancy: u64) -> bool {
        if let Some(slot) = self.busy_until.iter_mut().find(|b| **b <= now) {
            *slot = now + occupancy;
            true
        } else {
            false
        }
    }

    #[cfg(test)]
    fn busy_count(&self, now: u64) -> usize {
        self.busy_until.iter().filter(|b| **b > now).count()
    }
}

/// The machine's functional units (integer ALU, integer multiplier/divider,
/// FP adder, FP multiplier/divider).
///
/// Memory operations do not pass through this pool — they contend for L1D
/// ports instead, matching `sim-outorder`'s separate memory-port resources.
///
/// # Examples
///
/// ```
/// use ftsim_core::{FuConfig, OpLatencies};
/// # use ftsim_isa::Opcode;
/// // (FuPool itself is crate-internal; configuration shown for context.)
/// let fu = FuConfig::default();
/// assert_eq!(fu.fp_mul, 1); // the single FP Mult/Div of Table 1
/// ```
#[derive(Debug, Clone)]
pub struct FuPool {
    int_alu: UnitClass,
    int_mul: UnitClass,
    fp_add: UnitClass,
    fp_mul: UnitClass,
    lat: OpLatencies,
}

impl FuPool {
    /// Creates the pool from counts and latencies.
    pub fn new(config: &FuConfig, lat: OpLatencies) -> Self {
        Self {
            int_alu: UnitClass::new(config.int_alu),
            int_mul: UnitClass::new(config.int_mul),
            fp_add: UnitClass::new(config.fp_add),
            fp_mul: UnitClass::new(config.fp_mul),
            lat,
        }
    }

    /// Result latency of `op` in cycles.
    pub fn latency(&self, op: Opcode) -> u64 {
        match op {
            Opcode::Mul => self.lat.int_mul,
            Opcode::Div | Opcode::Rem => self.lat.int_div,
            Opcode::Fmul => self.lat.fp_mul,
            Opcode::Fdiv => self.lat.fp_div,
            Opcode::Fsqrt => self.lat.fp_sqrt,
            op if op.fu_class() == FuClass::FpAdd => self.lat.fp_add,
            _ => self.lat.int_alu,
        }
    }

    /// Attempts to issue `op` at cycle `now`; returns its result latency on
    /// success, or `None` when every unit of the class is busy.
    ///
    /// # Panics
    ///
    /// Panics if called for a memory operation (those use L1D ports).
    pub fn try_issue(&mut self, op: Opcode, now: u64) -> Option<u64> {
        let latency = self.latency(op);
        let occupancy = if op.is_blocking() { latency } else { 1 };
        let class = match op.fu_class() {
            FuClass::IntAlu => &mut self.int_alu,
            FuClass::IntMul => &mut self.int_mul,
            FuClass::FpAdd => &mut self.fp_add,
            FuClass::FpMul => &mut self.fp_mul,
            FuClass::Mem => panic!("memory ops issue through L1D ports, not FUs"),
        };
        class.try_issue(now, occupancy).then_some(latency)
    }

    /// Units of `class` still executing at `now`.
    #[cfg(test)]
    pub fn busy(&self, class: FuClass, now: u64) -> usize {
        match class {
            FuClass::IntAlu => self.int_alu.busy_count(now),
            FuClass::IntMul => self.int_mul.busy_count(now),
            FuClass::FpAdd => self.fp_add.busy_count(now),
            FuClass::FpMul => self.fp_mul.busy_count(now),
            FuClass::Mem => 0,
        }
    }

    /// The earliest cycle at or after `now` at which a unit that was busy
    /// in the cycle before `now` becomes free, or `None` when no unit is
    /// busy past that cycle. A functional-unit hazard loser retries every
    /// cycle without effect until then, so this is a wake source of the
    /// quiet-cycle skip.
    pub fn next_release(&self, now: u64) -> Option<u64> {
        [&self.int_alu, &self.int_mul, &self.fp_add, &self.fp_mul]
            .into_iter()
            .flat_map(|c| c.busy_until.iter().copied())
            .filter(|&b| b >= now)
            .min()
    }

    /// Releases every unit (full rewind; in-flight results are discarded).
    pub fn reset(&mut self) {
        for c in [
            &mut self.int_alu,
            &mut self.int_mul,
            &mut self.fp_add,
            &mut self.fp_mul,
        ] {
            c.busy_until.fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> FuPool {
        FuPool::new(&FuConfig::default(), OpLatencies::default())
    }

    #[test]
    fn pipelined_alu_issues_up_to_unit_count() {
        let mut p = pool();
        for _ in 0..4 {
            assert_eq!(p.try_issue(Opcode::Add, 10), Some(1));
        }
        assert_eq!(p.try_issue(Opcode::Add, 10), None); // 4 ALUs busy
        assert_eq!(p.try_issue(Opcode::Add, 11), Some(1)); // next cycle frees
    }

    #[test]
    fn blocking_division_holds_unit() {
        let mut p = pool();
        assert_eq!(p.try_issue(Opcode::Fdiv, 0), Some(12));
        // The single FP Mult/Div unit is now busy for 12 cycles.
        assert_eq!(p.try_issue(Opcode::Fmul, 1), None);
        assert_eq!(p.try_issue(Opcode::Fmul, 11), None);
        assert_eq!(p.try_issue(Opcode::Fmul, 12), Some(4));
    }

    #[test]
    fn pipelined_multiplier_accepts_back_to_back() {
        let mut p = pool();
        assert_eq!(p.try_issue(Opcode::Fmul, 0), Some(4));
        assert_eq!(p.try_issue(Opcode::Fmul, 1), Some(4)); // pipelined
    }

    #[test]
    fn classes_are_independent() {
        let mut p = pool();
        for _ in 0..4 {
            p.try_issue(Opcode::Add, 0);
        }
        // ALUs exhausted, but multiplier and FP adder remain available.
        assert!(p.try_issue(Opcode::Mul, 0).is_some());
        assert!(p.try_issue(Opcode::Fadd, 0).is_some());
    }

    #[test]
    fn latencies_match_config() {
        let p = pool();
        assert_eq!(p.latency(Opcode::Add), 1);
        assert_eq!(p.latency(Opcode::Mul), 3);
        assert_eq!(p.latency(Opcode::Div), 20);
        assert_eq!(p.latency(Opcode::Fadd), 2);
        assert_eq!(p.latency(Opcode::Feq), 2);
        assert_eq!(p.latency(Opcode::Fmul), 4);
        assert_eq!(p.latency(Opcode::Fdiv), 12);
        assert_eq!(p.latency(Opcode::Fsqrt), 24);
        assert_eq!(p.latency(Opcode::Beq), 1);
    }

    #[test]
    fn busy_counts_and_reset() {
        let mut p = pool();
        p.try_issue(Opcode::Div, 0);
        assert_eq!(p.busy(FuClass::IntMul, 5), 1);
        assert_eq!(p.busy(FuClass::IntMul, 20), 0);
        p.try_issue(Opcode::Fdiv, 0);
        p.reset();
        assert_eq!(p.busy(FuClass::FpMul, 1), 0);
        assert!(p.try_issue(Opcode::Fdiv, 1).is_some());
    }

    #[test]
    fn next_release_is_the_earliest_unit_still_busy() {
        let mut p = pool();
        assert_eq!(p.next_release(1), None);
        p.try_issue(Opcode::Add, 0); // pipelined: free again at 1
        p.try_issue(Opcode::Div, 0); // blocking: busy until 20
        p.try_issue(Opcode::Fdiv, 2); // blocking: busy until 14
        assert_eq!(p.next_release(1), Some(1));
        assert_eq!(p.next_release(2), Some(14));
        assert_eq!(p.next_release(15), Some(20));
        assert_eq!(p.next_release(21), None);
    }

    #[test]
    #[should_panic(expected = "memory ops")]
    fn memory_ops_rejected() {
        let mut p = pool();
        let _ = p.try_issue(Opcode::Ld, 0);
    }
}
