//! The front end: instruction fetch, branch prediction, fetch queue.

use crate::config::MachineConfig;
use crate::entry::Prediction;
use ftsim_isa::{Inst, Opcode, Program, INST_BYTES};
use ftsim_mem::Hierarchy;
use ftsim_predict::{Btb, CombinedPredictor, DirectionPredictor, Ras};
use std::collections::VecDeque;

/// An instruction sitting in the fetch queue, with its prediction.
#[derive(Debug, Clone, Copy)]
pub struct FetchedInst {
    /// Fetch PC.
    pub pc: u64,
    /// Decoded instruction.
    pub inst: Inst,
    /// Prediction recorded at fetch (control instructions only). Shared by
    /// all `R` copies at dispatch — prediction happens once, before
    /// replication.
    pub pred: Option<Prediction>,
}

/// Fetch-stage statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct FetchStats {
    /// Instructions delivered into the fetch queue.
    pub fetched: u64,
    /// Cycles the front end produced nothing (miss, redirect, queue full,
    /// out of text).
    pub stall_cycles: u64,
    /// I-cache-miss stall cycles (subset of `stall_cycles`).
    pub icache_stall_cycles: u64,
}

/// The fetch unit: PC register, I-cache access, one-prediction-per-cycle
/// branch prediction (Table 1), and the fetch queue feeding dispatch.
///
/// Per the paper (§3.4) the fetch queue contents are ECC-protected (simple
/// RAM), and the PC register's window of vulnerability is covered by the
/// retirement-time control-flow check — so none of this state is a fault-
/// injection target. `Clone` snapshots the whole front end (queue,
/// predictor/BTB/RAS training state, stall clock) for checkpointing.
#[derive(Debug, Clone)]
pub struct FetchUnit {
    pc: u64,
    ifq: VecDeque<FetchedInst>,
    ifq_size: usize,
    fetch_width: u32,
    stall_until: u64,
    predictor: CombinedPredictor,
    btb: Btb,
    ras: Ras,
    stats: FetchStats,
}

impl FetchUnit {
    /// Creates a fetch unit starting at `entry_pc`.
    pub fn new(config: &MachineConfig, entry_pc: u64) -> Self {
        Self {
            pc: entry_pc,
            ifq: VecDeque::with_capacity(config.ifq_size),
            ifq_size: config.ifq_size,
            fetch_width: config.fetch_width,
            stall_until: 0,
            predictor: CombinedPredictor::new(config.predictor),
            btb: Btb::new(config.btb),
            ras: Ras::new(config.ras_depth),
            stats: FetchStats::default(),
        }
    }

    /// Steers fetch to `target`; nothing is fetched before `resume_cycle`.
    /// Clears the fetch queue (wrong-path instructions are discarded).
    pub fn redirect(&mut self, target: u64, resume_cycle: u64) {
        self.pc = target;
        self.ifq.clear();
        self.stall_until = self.stall_until.max(resume_cycle);
    }

    /// Full rewind: redirect plus return-address-stack clear.
    pub fn rewind(&mut self, target: u64, resume_cycle: u64) {
        self.redirect(target, resume_cycle);
        self.ras.clear();
    }

    /// Removes the oldest queued instruction for dispatch.
    pub fn pop(&mut self) -> Option<FetchedInst> {
        self.ifq.pop_front()
    }

    /// Peeks the oldest queued instruction.
    pub fn peek(&self) -> Option<&FetchedInst> {
        self.ifq.front()
    }

    /// Queue occupancy.
    #[cfg(test)]
    pub fn queued(&self) -> usize {
        self.ifq.len()
    }

    /// Direction predictor (commit-time training).
    pub fn predictor_mut(&mut self) -> &mut CombinedPredictor {
        &mut self.predictor
    }

    /// BTB (commit-time training).
    pub fn btb_mut(&mut self) -> &mut Btb {
        &mut self.btb
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> FetchStats {
        self.stats
    }

    /// The cycle a pending stall (I-cache miss or redirect) ends, if that
    /// is at or after `now`: the front end's wake source for the
    /// quiet-cycle skip.
    pub(crate) fn stalled_until(&self, now: u64) -> Option<u64> {
        (self.stall_until >= now).then_some(self.stall_until)
    }

    /// Counts `cycles` stall cycles at once: the fetch cycles a quiet-cycle
    /// skip jumps over, each of which would have stalled.
    pub(crate) fn add_stall_cycles(&mut self, cycles: u64) {
        self.stats.stall_cycles += cycles;
    }

    /// Runs one fetch cycle: up to `fetch_width` instructions from one
    /// I-cache line, stopping at a predicted-taken control transfer or the
    /// first conditional branch (one prediction per cycle).
    ///
    /// Returns whether the cycle accessed the I-cache. A cycle that did
    /// not only counted one stall cycle, and every later cycle repeats it
    /// until the stall ends, dispatch drains the queue or a redirect
    /// arrives.
    pub fn fetch_cycle(&mut self, now: u64, program: &Program, hierarchy: &mut Hierarchy) -> bool {
        if now < self.stall_until
            || self.ifq.len() >= self.ifq_size
            // Off the text segment (wrong path, or straight-line past the
            // end): nothing to deliver until something redirects us.
            || program.inst_at(self.pc).is_none()
        {
            self.stats.stall_cycles += 1;
            return false;
        }

        // One I-cache line access per cycle.
        let access = hierarchy.fetch_access(self.pc);
        if !access.l1_hit {
            self.stall_until = now + access.latency;
            self.stats.stall_cycles += 1;
            self.stats.icache_stall_cycles += access.latency;
            return true;
        }
        let line_bytes = 32u64;
        let line_end = (self.pc | (line_bytes - 1)) + 1;

        let mut budget = self.fetch_width;
        let mut predicted_this_cycle = false;
        while budget > 0 && self.ifq.len() < self.ifq_size && self.pc < line_end {
            let Some(&inst) = program.inst_at(self.pc) else {
                break;
            };
            let pc = self.pc;
            let mut pred = None;
            let mut next = pc + INST_BYTES as u64;
            let mut stop = false;

            match inst.op {
                Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge => {
                    if predicted_this_cycle {
                        break; // one prediction per cycle (Table 1)
                    }
                    predicted_this_cycle = true;
                    let taken = self.predictor.predict(pc);
                    let target = branch_target(pc, inst.imm);
                    let next_pc = if taken { target } else { next };
                    pred = Some(Prediction { taken, next_pc });
                    next = next_pc;
                    stop = taken; // redirected fetch resumes next cycle
                }
                Opcode::J => {
                    let target = branch_target(pc, inst.imm);
                    pred = Some(Prediction {
                        taken: true,
                        next_pc: target,
                    });
                    next = target;
                    stop = true;
                }
                Opcode::Jal => {
                    let target = branch_target(pc, inst.imm);
                    self.ras.push(pc + INST_BYTES as u64);
                    pred = Some(Prediction {
                        taken: true,
                        next_pc: target,
                    });
                    next = target;
                    stop = true;
                }
                Opcode::Jr => {
                    let target = self
                        .ras
                        .pop()
                        .or_else(|| self.btb.lookup(pc))
                        .unwrap_or(next);
                    pred = Some(Prediction {
                        taken: true,
                        next_pc: target,
                    });
                    next = target;
                    stop = true;
                }
                Opcode::Jalr => {
                    self.ras.push(pc + INST_BYTES as u64);
                    let target = self.btb.lookup(pc).unwrap_or(next);
                    pred = Some(Prediction {
                        taken: true,
                        next_pc: target,
                    });
                    next = target;
                    stop = true;
                }
                _ => {}
            }

            self.ifq.push_back(FetchedInst { pc, inst, pred });
            self.stats.fetched += 1;
            self.pc = next;
            budget -= 1;
            if stop {
                break;
            }
        }
        true
    }
}

/// PC-relative target of a direct control transfer (imm in instructions).
fn branch_target(pc: u64, imm: i32) -> u64 {
    pc.wrapping_add(INST_BYTES as u64)
        .wrapping_add((imm as i64 as u64).wrapping_mul(INST_BYTES as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use ftsim_isa::{IntReg, ProgramBuilder, TEXT_BASE};
    use ftsim_mem::HierarchyConfig;

    fn setup(prog: &Program) -> (FetchUnit, Hierarchy) {
        let cfg = MachineConfig::ss1();
        (
            FetchUnit::new(&cfg, prog.entry()),
            Hierarchy::new(&HierarchyConfig::default()),
        )
    }

    fn straight_line(n: usize) -> Program {
        let mut b = ProgramBuilder::new();
        for _ in 0..n {
            b.nop();
        }
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn fetches_up_to_width_from_one_line() {
        let p = straight_line(20);
        let (mut f, mut h) = setup(&p);
        // First cycle: cold I-cache miss stalls.
        f.fetch_cycle(0, &p, &mut h);
        assert_eq!(f.queued(), 0);
        assert!(f.stats().icache_stall_cycles > 0);
        // After the miss resolves, a full-width fetch succeeds.
        let resume = f.stall_until;
        f.fetch_cycle(resume, &p, &mut h);
        assert_eq!(f.queued(), 8);
    }

    #[test]
    fn taken_jump_redirects_within_cycle_and_stops() {
        let mut b = ProgramBuilder::new();
        b.j("target");
        for _ in 0..4 {
            b.nop();
        }
        b.label("target");
        b.halt();
        let p = b.build().unwrap();
        let (mut f, mut h) = setup(&p);
        f.fetch_cycle(0, &p, &mut h); // miss
        f.fetch_cycle(f.stall_until, &p, &mut h);
        assert_eq!(f.queued(), 1); // only the jump
        let fetched = f.pop().unwrap();
        assert_eq!(fetched.inst.op, Opcode::J);
        assert!(fetched.pred.unwrap().taken);
        // PC is now at the jump target.
        assert_eq!(f.pc, p.pc_of(5));
    }

    #[test]
    fn one_conditional_prediction_per_cycle() {
        let r1 = IntReg::new(1);
        let mut b = ProgramBuilder::new();
        b.label("a");
        b.beq(r1, r1, "a"); // always-taken... but predicted cold
        b.beq(r1, r1, "a");
        b.nop();
        b.halt();
        let p = b.build().unwrap();
        let (mut f, mut h) = setup(&p);
        f.fetch_cycle(0, &p, &mut h);
        f.fetch_cycle(f.stall_until, &p, &mut h);
        // Whatever the direction, at most one cond branch was predicted.
        let branches = f
            .ifq
            .iter()
            .filter(|fi| fi.inst.op.is_cond_branch())
            .count();
        assert_eq!(branches, 1);
    }

    #[test]
    fn redirect_clears_queue_and_stalls() {
        let p = straight_line(20);
        let (mut f, mut h) = setup(&p);
        f.fetch_cycle(0, &p, &mut h);
        let t = f.stall_until;
        f.fetch_cycle(t, &p, &mut h);
        assert!(f.queued() > 0);
        f.redirect(TEXT_BASE + 8, t + 4);
        assert_eq!(f.queued(), 0);
        f.fetch_cycle(t + 1, &p, &mut h);
        assert_eq!(f.queued(), 0); // still stalled
        f.fetch_cycle(t + 4, &p, &mut h);
        assert!(f.queued() > 0);
        assert_eq!(f.peek().unwrap().pc, TEXT_BASE + 8);
    }

    #[test]
    fn ras_predicts_return() {
        let mut b = ProgramBuilder::new();
        b.jal(IntReg::new(31), "fn"); // idx 0
        b.nop(); // idx 1 — return lands here
        b.halt(); // idx 2
        b.label("fn");
        b.jr(IntReg::new(31)); // idx 3
        let p = b.build().unwrap();
        let (mut f, mut h) = setup(&p);
        f.fetch_cycle(0, &p, &mut h);
        let mut now = f.stall_until;
        f.fetch_cycle(now, &p, &mut h); // fetch jal, redirect to fn
        assert_eq!(f.pop().unwrap().inst.op, Opcode::Jal);
        loop {
            now += 1;
            f.fetch_cycle(now, &p, &mut h);
            if let Some(fi) = f.pop() {
                assert_eq!(fi.inst.op, Opcode::Jr);
                // Predicted return target is the instruction after the jal.
                assert_eq!(fi.pred.unwrap().next_pc, p.pc_of(1));
                break;
            }
            assert!(now < 200, "jr never fetched");
        }
    }

    #[test]
    fn out_of_text_stalls_without_panic() {
        let p = straight_line(2);
        let (mut f, mut h) = setup(&p);
        f.redirect(0xdead_0000, 0);
        f.fetch_cycle(1, &p, &mut h);
        assert_eq!(f.queued(), 0);
        assert!(f.stats().stall_cycles > 0);
    }

    #[test]
    fn queue_capacity_respected() {
        let p = straight_line(100);
        let cfg = MachineConfig::ss1();
        let mut f = FetchUnit::new(&cfg, p.entry());
        let mut h = Hierarchy::new(&HierarchyConfig::default());
        let mut now = 0;
        for _ in 0..20 {
            f.fetch_cycle(now, &p, &mut h);
            now = (now + 1).max(f.stall_until);
        }
        assert!(f.queued() <= cfg.ifq_size);
    }
}
