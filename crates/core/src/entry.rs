//! RUU (register update unit / reorder buffer) entry state.

use ftsim_faults::{FaultEvent, FaultId};
use ftsim_isa::Inst;

/// Lifecycle of an RUU entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Dispatched; waiting for source operands.
    Waiting,
    /// All operands available; eligible for issue.
    Ready,
    /// Executing on a functional unit (or memory access in flight).
    Issued,
    /// Result produced; eligible for commit when oldest.
    Done,
}

/// One renamed source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// The instruction does not use this operand slot.
    Unused,
    /// Value available (read from committed state or forwarded).
    Value(u64),
    /// Waiting for the producer in this RUU slot to complete.
    Wait(usize),
}

impl Operand {
    /// The operand's value.
    ///
    /// # Panics
    ///
    /// Panics if the operand is still waiting (callers must only read
    /// operands of `Ready` entries; `Unused` reads as 0, keeping the
    /// execute path total).
    pub fn value(&self) -> u64 {
        match self {
            Operand::Unused => 0,
            Operand::Value(v) => *v,
            Operand::Wait(slot) => panic!("operand still waiting on slot {slot}"),
        }
    }

    /// Whether this operand no longer blocks issue.
    pub fn ready(&self) -> bool {
        !matches!(self, Operand::Wait(_))
    }
}

/// The branch prediction recorded at fetch and carried to resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Predicted next PC (target when taken, fall-through otherwise).
    pub next_pc: u64,
}

/// One RUU entry: a single *copy* of a dispatched instruction.
///
/// All `R` copies of an architectural instruction share a `group`
/// (dispatch index) and occupy consecutive sequence numbers — the paper's
/// "consecutive ROB entries" placement, which the cross-check relies on.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Globally unique, monotonically increasing allocation number.
    pub seq: u64,
    /// Architectural-instruction dispatch index shared by all copies.
    pub group: u64,
    /// Copy number in `0..R`.
    pub copy: u8,
    /// Fetch PC.
    pub pc: u64,
    /// The instruction.
    pub inst: Inst,
    /// Lifecycle state.
    pub state: EntryState,
    /// Source operands: `[rs1, rs2]`.
    pub ops: [Operand; 2],
    /// Result value once executed (register value or link address).
    pub result: Option<u64>,
    /// Effective address for memory operations.
    pub ea: Option<u64>,
    /// Store datum once read.
    pub store_data: Option<u64>,
    /// For loads: the raw value of the access or forward, before
    /// extension. Copy 0's stays pristine after its register result is
    /// struck in the ROB, so sibling copies reading the single shared
    /// memory access consume the uncorrupted value.
    pub mem_value: Option<u64>,
    /// Resolved branch direction.
    pub taken: Option<bool>,
    /// Resolved branch target (valid when `taken == Some(true)`).
    pub target: Option<u64>,
    /// Prediction from fetch, for control instructions.
    pub pred: Option<Prediction>,
    /// Next-PC the front end was last steered to for this group, set when
    /// a copy's resolution triggers a redirect. Later-resolving sibling
    /// copies compare against this instead of the original prediction so
    /// an already-repaired mispredict is not "re-discovered" — while a
    /// *disagreeing* sibling (fault) still triggers its own redirect and
    /// is then caught by the commit cross-check.
    pub resteer_next: Option<u64>,
    /// Whether this entry is a `halt`.
    pub halt: bool,
    /// Injected fault scheduled for this copy, with its log id and
    /// whether its application changed an architecturally-checked value.
    pub fault: Option<(FaultId, FaultEvent)>,
    /// Set when the fault's corruption altered a checked field.
    pub fault_effective: bool,
    /// Cycle the entry was dispatched (statistics).
    pub dispatched_at: u64,
}

impl Entry {
    /// Creates a freshly dispatched entry in `Waiting` state.
    pub fn new(seq: u64, group: u64, copy: u8, pc: u64, inst: Inst, now: u64) -> Self {
        Self {
            seq,
            group,
            copy,
            pc,
            inst,
            state: EntryState::Waiting,
            ops: [Operand::Unused, Operand::Unused],
            result: None,
            ea: None,
            store_data: None,
            mem_value: None,
            taken: None,
            target: None,
            pred: None,
            resteer_next: None,
            halt: false,
            fault: None,
            fault_effective: false,
            dispatched_at: now,
        }
    }

    /// Whether every source operand is available.
    pub fn operands_ready(&self) -> bool {
        self.ops.iter().all(Operand::ready)
    }

    /// Whether the entry can issue: stores issue their address phase as
    /// soon as the base register (`ops[0]`) is ready — the datum merges
    /// later in the LSQ — while every other kind waits for all operands.
    pub fn issue_ready(&self) -> bool {
        if self.inst.op.is_store() {
            self.ops[0].ready()
        } else {
            self.operands_ready()
        }
    }

    /// Promotes `Waiting` to `Ready` if operands allow.
    pub fn refresh_readiness(&mut self) {
        if self.state == EntryState::Waiting && self.issue_ready() {
            self.state = EntryState::Ready;
        }
    }

    /// The architecturally-correct next PC implied by this copy's resolved
    /// outcome (fall-through unless a taken control transfer).
    pub fn computed_next_pc(&self) -> u64 {
        match (self.taken, self.target) {
            (Some(true), Some(t)) => t,
            _ => self.pc.wrapping_add(ftsim_isa::INST_BYTES as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsim_isa::{Inst, Opcode};

    #[test]
    fn readiness_transition() {
        let mut e = Entry::new(0, 0, 0, 0x1000, Inst::new(Opcode::Add, 1, 2, 3, 0), 5);
        e.ops = [Operand::Wait(7), Operand::Value(1)];
        e.refresh_readiness();
        assert_eq!(e.state, EntryState::Waiting);
        e.ops[0] = Operand::Value(9);
        e.refresh_readiness();
        assert_eq!(e.state, EntryState::Ready);
    }

    #[test]
    fn unused_operand_reads_zero() {
        assert_eq!(Operand::Unused.value(), 0);
        assert!(Operand::Unused.ready());
        assert_eq!(Operand::Value(3).value(), 3);
    }

    #[test]
    #[should_panic(expected = "still waiting")]
    fn waiting_operand_value_panics() {
        let _ = Operand::Wait(3).value();
    }

    #[test]
    fn next_pc_fallthrough_and_taken() {
        let mut e = Entry::new(0, 0, 0, 0x1000, Inst::new(Opcode::Beq, 0, 1, 2, 4), 0);
        assert_eq!(e.computed_next_pc(), 0x1004);
        e.taken = Some(true);
        e.target = Some(0x2000);
        assert_eq!(e.computed_next_pc(), 0x2000);
        e.taken = Some(false);
        assert_eq!(e.computed_next_pc(), 0x1004);
    }
}
