//! The in-order, non-speculative reference emulator (architectural oracle).
//!
//! The paper's methodology (§5.1.1) maintains two sets of committed state:
//! one produced by the out-of-order pipeline and one "updated by executing
//! the program in an in-order, non-speculative manner" as a sanity check.
//! This emulator is that second machine. Integration tests compare its
//! final registers and memory against the pipeline's committed state — with
//! fault injection enabled, any divergence means a fault escaped the sphere
//! of replication.

use crate::exec::{execute, load_extend, next_pc};
use crate::inst::Inst;
use crate::program::Program;
use crate::reg::ArchRegs;
use ftsim_mem::SparseMemory;
use std::fmt;

/// Error conditions of the reference emulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmuError {
    /// The PC left the text segment (fell off the end or jumped wild).
    PcOutOfText {
        /// The offending program counter.
        pc: u64,
    },
    /// The step budget was exhausted before `halt` retired.
    StepLimit {
        /// Instructions executed before giving up.
        executed: u64,
    },
    /// `step` was called after the program halted.
    AlreadyHalted,
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::PcOutOfText { pc } => write!(f, "pc {pc:#x} outside text segment"),
            EmuError::StepLimit { executed } => {
                write!(f, "step limit reached after {executed} instructions")
            }
            EmuError::AlreadyHalted => write!(f, "program already halted"),
        }
    }
}

impl std::error::Error for EmuError {}

/// What one emulated step did — useful for tracing and for tests that walk
/// the committed-PC chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// PC of the executed instruction.
    pub pc: u64,
    /// The executed instruction.
    pub inst: Inst,
    /// Architectural next PC.
    pub next_pc: u64,
    /// Whether this step executed `halt`.
    pub halted: bool,
}

/// In-order interpreter over a [`Program`].
///
/// # Examples
///
/// ```
/// use ftsim_isa::{Emulator, IntReg, ProgramBuilder};
///
/// let r1 = IntReg::new(1);
/// let mut b = ProgramBuilder::new();
/// b.addi(r1, IntReg::ZERO, 2);
/// b.mul(r1, r1, r1);
/// b.halt();
/// let p = b.build().unwrap();
///
/// let mut emu = Emulator::new(&p);
/// let retired = emu.run(100).unwrap();
/// assert_eq!(retired, 3);
/// assert_eq!(emu.regs().read_int(r1), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Emulator {
    program: Program,
    regs: ArchRegs,
    mem: SparseMemory,
    pc: u64,
    retired: u64,
    halted: bool,
}

impl Emulator {
    /// Creates an emulator with the program's data image loaded and the PC
    /// at the entry point.
    ///
    /// This is cheap: the program is reference-counted, and memory starts
    /// as a copy-on-write view of the program's shared data image.
    pub fn new(program: &Program) -> Self {
        Self {
            pc: program.entry(),
            program: program.clone(),
            regs: ArchRegs::new(),
            mem: program.initial_memory(),
            retired: 0,
            halted: false,
        }
    }

    /// Committed registers.
    pub fn regs(&self) -> &ArchRegs {
        &self.regs
    }

    /// Committed memory.
    pub fn mem(&self) -> &SparseMemory {
        &self.mem
    }

    /// Current PC.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Whether `halt` has retired.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// * [`EmuError::AlreadyHalted`] after `halt` retired;
    /// * [`EmuError::PcOutOfText`] if the PC leaves the text segment.
    pub fn step(&mut self) -> Result<StepInfo, EmuError> {
        if self.halted {
            return Err(EmuError::AlreadyHalted);
        }
        let pc = self.pc;
        let inst = *self
            .program
            .inst_at(pc)
            .ok_or(EmuError::PcOutOfText { pc })?;
        let rs1 = inst.rs1().map_or(0, |r| self.regs.read(r));
        let rs2 = inst.rs2().map_or(0, |r| self.regs.read(r));
        let out = execute(&inst, pc, rs1, rs2);

        if inst.op.is_load() {
            let ea = out.ea.expect("load computes an address");
            let raw = self.mem.read_sized(ea, inst.op.mem_bytes());
            let value = load_extend(inst.op, raw);
            if let Some(rd) = inst.rd() {
                self.regs.write(rd, value);
            }
        } else if inst.op.is_store() {
            let ea = out.ea.expect("store computes an address");
            let value = out.store_value.expect("store carries a value");
            self.mem.write_sized(ea, value, inst.op.mem_bytes());
        } else if let (Some(rd), Some(v)) = (inst.rd(), out.result) {
            self.regs.write(rd, v);
        }

        let npc = next_pc(pc, &out);
        self.pc = npc;
        self.retired += 1;
        self.halted = out.halt;
        Ok(StepInfo {
            pc,
            inst,
            next_pc: npc,
            halted: out.halt,
        })
    }

    /// Runs until `halt` retires, returning the retired-instruction count.
    ///
    /// # Errors
    ///
    /// [`EmuError::StepLimit`] if `max_steps` instructions execute without
    /// halting, or any error from [`Emulator::step`].
    pub fn run(&mut self, max_steps: u64) -> Result<u64, EmuError> {
        let mut steps = 0;
        while !self.halted {
            if steps >= max_steps {
                return Err(EmuError::StepLimit { executed: steps });
            }
            self.step()?;
            steps += 1;
        }
        Ok(self.retired)
    }

    /// Runs exactly `n` further instructions (or until halt), returning how
    /// many executed. Used for lock-step comparison against the pipeline.
    pub fn run_steps(&mut self, n: u64) -> Result<u64, EmuError> {
        let mut executed = 0;
        while executed < n && !self.halted {
            self.step()?;
            executed += 1;
        }
        Ok(executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProgramBuilder, DATA_BASE};
    use crate::reg::{FpReg, IntReg};

    fn r(i: u8) -> IntReg {
        IntReg::new(i)
    }

    fn fr(i: u8) -> FpReg {
        FpReg::new(i)
    }

    #[test]
    fn loop_with_memory() {
        // Sum an array of 5 values through memory.
        let mut b = ProgramBuilder::new();
        b.li(r(1), DATA_BASE as i64); // base
        b.addi(r(2), IntReg::ZERO, 5); // count
        b.addi(r(3), IntReg::ZERO, 0); // sum
        b.label("loop");
        b.ld(r(4), r(1), 0);
        b.add(r(3), r(3), r(4));
        b.addi(r(1), r(1), 8);
        b.addi(r(2), r(2), -1);
        b.bne(r(2), IntReg::ZERO, "loop");
        b.sd(r(3), r(1), 0); // store just past the array
        b.halt();
        b.data_u64(DATA_BASE, &[10, 20, 30, 40, 50]);
        let p = b.build().unwrap();

        let mut e = Emulator::new(&p);
        e.run(10_000).unwrap();
        assert_eq!(e.regs().read_int(r(3)), 150);
        assert_eq!(e.mem().read_u64(DATA_BASE + 40), 150);
    }

    #[test]
    fn call_and_return() {
        let mut b = ProgramBuilder::new();
        b.jal(r(31), "func");
        b.addi(r(2), IntReg::ZERO, 1); // after return
        b.halt();
        b.label("func");
        b.addi(r(3), IntReg::ZERO, 9);
        b.jr(r(31));
        let p = b.build().unwrap();
        let mut e = Emulator::new(&p);
        e.run(100).unwrap();
        assert_eq!(e.regs().read_int(r(2)), 1);
        assert_eq!(e.regs().read_int(r(3)), 9);
        assert_eq!(e.retired(), 5);
    }

    #[test]
    fn fp_pipeline_roundtrip() {
        let mut b = ProgramBuilder::new();
        b.data_f64(DATA_BASE, &[2.0, 8.0]);
        b.li(r(1), DATA_BASE as i64);
        b.lfd(fr(1), r(1), 0);
        b.lfd(fr(2), r(1), 8);
        b.fmul(fr(3), fr(1), fr(2)); // 16
        b.fsqrt(fr(3), fr(3)); // 4
        b.fdiv(fr(4), fr(3), fr(1)); // 2
        b.cvtfi(r(2), fr(4));
        b.sfd(fr(4), r(1), 16);
        b.halt();
        let p = b.build().unwrap();
        let mut e = Emulator::new(&p);
        e.run(100).unwrap();
        assert_eq!(e.regs().read_int(r(2)), 2);
        assert_eq!(f64::from_bits(e.mem().read_u64(DATA_BASE + 16)), 2.0);
    }

    #[test]
    fn pc_out_of_text_detected() {
        // Fall off the end without halt.
        let p = Program::from_insts([Inst::nop()]);
        let mut e = Emulator::new(&p);
        e.step().unwrap();
        assert_eq!(
            e.step().unwrap_err(),
            EmuError::PcOutOfText { pc: p.text_end() }
        );
    }

    #[test]
    fn step_limit_enforced() {
        let mut b = ProgramBuilder::new();
        b.label("spin");
        b.j("spin");
        let p = b.build().unwrap();
        let mut e = Emulator::new(&p);
        assert_eq!(e.run(10), Err(EmuError::StepLimit { executed: 10 }));
    }

    #[test]
    fn step_after_halt_errors() {
        let p = Program::from_insts([Inst::halt()]);
        let mut e = Emulator::new(&p);
        let info = e.step().unwrap();
        assert!(info.halted);
        assert!(e.halted());
        assert_eq!(e.step().unwrap_err(), EmuError::AlreadyHalted);
    }

    #[test]
    fn run_steps_stops_at_halt() {
        let p = Program::from_insts([Inst::nop(), Inst::nop(), Inst::halt()]);
        let mut e = Emulator::new(&p);
        assert_eq!(e.run_steps(2).unwrap(), 2);
        assert!(!e.halted());
        assert_eq!(e.run_steps(10).unwrap(), 1);
        assert!(e.halted());
        assert_eq!(e.retired(), 3);
    }

    #[test]
    fn byte_and_word_stores() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), DATA_BASE as i64);
        b.li(r(2), -2); // 0xfff...fe
        b.sb(r(2), r(1), 0);
        b.sw(r(2), r(1), 8);
        b.lb(r(3), r(1), 0); // sign-extended byte
        b.lw(r(4), r(1), 8); // sign-extended word
        b.halt();
        let p = b.build().unwrap();
        let mut e = Emulator::new(&p);
        e.run(100).unwrap();
        assert_eq!(e.regs().read_int(r(3)) as i64, -2);
        assert_eq!(e.regs().read_int(r(4)) as i64, -2);
        // Only one byte written at offset 0.
        assert_eq!(e.mem().read_u64(DATA_BASE), 0xfe);
    }
}
