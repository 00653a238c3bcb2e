//! Dispatch stage: decode, redundant instruction injection (replication),
//! renaming, RUU/LSQ allocation.
//!
//! This is the paper's "instruction injection" step (§3.2): one fetched
//! instruction becomes `R` decoded copies in consecutive RUU entries;
//! renaming links copy *k*'s sources to copy *k* of the producer group, so
//! the copies form data-independent threads sharing one map table.

use crate::checkpoint::MachineState;
use crate::entry::Entry;
use crate::pipeline::Processor;
use ftsim_faults::InjectionPoint;
use ftsim_isa::{Inst, Opcode, RegRef};

/// Injection points that make sense for a given instruction kind.
pub(crate) fn applicable_points(inst: &Inst) -> &'static [InjectionPoint] {
    use InjectionPoint::*;
    let op = inst.op;
    if op.is_load() {
        &[OperandA, EffAddr, Result, RobWait]
    } else if op.is_store() {
        &[OperandA, OperandB, EffAddr, StoreData]
    } else if op.is_cond_branch() {
        &[OperandA, OperandB, BranchDirection, BranchTarget]
    } else if op.is_jump() {
        match op {
            Opcode::Jal => &[Result, BranchTarget, RobWait],
            Opcode::Jalr => &[OperandA, Result, BranchTarget, RobWait],
            Opcode::Jr => &[OperandA, BranchTarget],
            _ => &[BranchTarget], // J: only the target can be corrupted
        }
    } else if matches!(op, Opcode::Nop | Opcode::Halt) {
        &[]
    } else if op.rs2_class().is_some() {
        &[OperandA, OperandB, Result, RobWait]
    } else if op.rs1_class().is_some() {
        &[OperandA, Result, RobWait]
    } else {
        // lui: immediate-only producer.
        &[Result, RobWait]
    }
}

impl Processor {
    /// Runs the dispatch stage for one cycle.
    pub(crate) fn stage_dispatch(&mut self) {
        let r = self.r() as usize;
        let mut budget = self.config.dispatch_width as usize;

        while budget >= r {
            let Some(fetched) = self.state.fetch.peek().copied() else {
                break;
            };
            if self.state.ruu.free() < r {
                self.state.stats.dispatch_stalls[0] += 1;
                break;
            }
            if fetched.inst.op.is_mem() && self.state.lsq.free() < r {
                self.state.stats.dispatch_stalls[1] += 1;
                break;
            }
            self.state.fetch.pop();

            let group = self.state.next_group;
            self.state.next_group += 1;
            self.state.stats.dispatched_groups += 1;
            let copy0_seq = self.state.next_seq;
            let inst = fetched.inst;

            for copy in 0..r as u8 {
                let seq = self.state.next_seq;
                self.state.next_seq += 1;
                let mut e = Entry::new(seq, group, copy, fetched.pc, inst, self.state.now);
                e.pred = fetched.pred;
                e.halt = inst.op == Opcode::Halt;
                e.ops[0] = self.state.rename_operand(inst.rs1(), copy);
                e.ops[1] = self.state.rename_operand(inst.rs2(), copy);
                // Register with each awaited producer's wait-list, so the
                // producer's completion wakes exactly this entry.
                for op in e.ops {
                    if let crate::entry::Operand::Wait(producer) = op {
                        self.state.sched.add_waiter(producer, seq);
                    }
                }
                e.refresh_readiness();
                if e.state == crate::entry::EntryState::Ready {
                    self.state.sched.push_ready(seq);
                }

                if let Some(event) = self.injector.draw(group, copy, applicable_points(&inst)) {
                    let id = self.state.fault_log.record(
                        group,
                        copy,
                        event,
                        self.state.now,
                        self.state.stats.retired_instructions,
                    );
                    e.fault = Some((id, event));
                }

                if inst.op.is_store() {
                    self.state.lsq.push_store(seq, copy, inst.op.mem_bytes());
                } else if inst.op.is_load() {
                    self.state.lsq.push_load();
                }
                self.state.ruu.push(e);
                self.state.stats.dispatched_entries += 1;
            }

            // Rename the destination once per group: the map records copy 0;
            // copy k's producer is derived by the +k offset rule.
            if let Some(rd) = inst.effective_rd() {
                self.state.map.define(rd, copy0_seq);
            }
            // Control instructions checkpoint the map (taken after the
            // group's own definitions, e.g. jal's link register).
            if inst.op.is_control() {
                let cp = self.state.map.checkpoint();
                self.state.checkpoints.insert(group, cp);
            }
            budget -= r;
        }
    }
}

impl MachineState {
    /// Resolves one source operand for copy `copy`.
    fn rename_operand(&self, reg: Option<RegRef>, copy: u8) -> crate::entry::Operand {
        use crate::entry::{EntryState, Operand};
        let Some(reg) = reg else {
            return Operand::Unused;
        };
        if reg.is_zero_reg() {
            return Operand::Value(0);
        }
        match self.map.lookup(reg) {
            None => Operand::Value(self.regs.read(reg)),
            Some(copy0_seq) => {
                let producer = copy0_seq + u64::from(copy);
                match self.ruu.get(producer) {
                    Some(p) if p.state == EntryState::Done => {
                        Operand::Value(p.result.expect("done producer has a result"))
                    }
                    Some(_) => Operand::Wait(producer),
                    // The mapped producer already committed. This happens
                    // after a commit-time front-end repair restores a map
                    // checkpoint containing since-retired producers; the
                    // committed register file holds their values.
                    None => Operand::Value(self.regs.read(reg)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::entry::Operand;
    use ftsim_faults::FaultInjector;
    use ftsim_isa::{IntReg, ProgramBuilder};

    fn machine_after_dispatch(r: u8) -> Processor {
        let r1 = IntReg::new(1);
        let mut b = ProgramBuilder::new();
        b.addi(r1, IntReg::ZERO, 5); // producer
        b.add(r1, r1, r1); // consumer (reads its own group's producer)
        b.halt();
        let p = b.build().unwrap();
        let cfg = if r == 2 {
            MachineConfig::ss2()
        } else {
            MachineConfig::ss1()
        };
        let mut proc = Processor::new(cfg, &p, FaultInjector::none());
        // Run until all three groups are dispatched (cold I-cache and TLB
        // misses delay the first fetch by ~80 cycles).
        for _ in 0..300 {
            proc.cycle();
            if proc.ruu_len() >= 3 * r as usize {
                break;
            }
        }
        assert_eq!(proc.ruu_len(), 3 * r as usize, "dispatch never completed");
        proc
    }

    #[test]
    fn copies_occupy_consecutive_entries() {
        let proc = machine_after_dispatch(2);
        proc.assert_group_invariants();
        let entries: Vec<_> = proc.state.ruu.iter().collect();
        assert!(entries.len() >= 4);
        assert_eq!(entries[0].group, entries[1].group);
        assert_eq!(entries[0].copy, 0);
        assert_eq!(entries[1].copy, 1);
        assert_eq!(entries[1].seq, entries[0].seq + 1);
    }

    #[test]
    fn renaming_links_copy_k_to_copy_k() {
        let proc = machine_after_dispatch(2);
        let entries: Vec<_> = proc.state.ruu.iter().collect();
        // entries[2], entries[3] are the two copies of `add r1, r1, r1`.
        let producer0 = entries[0].seq;
        let producer1 = entries[1].seq;
        for (i, consumer) in [entries[2], entries[3]].iter().enumerate() {
            let want = if i == 0 { producer0 } else { producer1 };
            for op in &consumer.ops {
                match op {
                    Operand::Wait(s) => assert_eq!(*s, want, "cross-thread rename"),
                    Operand::Value(v) => assert_eq!(*v, 10, "forwarded done value"),
                    Operand::Unused => panic!("add has two operands"),
                }
            }
        }
    }

    #[test]
    fn r1_dispatch_has_single_copies() {
        let proc = machine_after_dispatch(1);
        proc.assert_group_invariants();
        let entries: Vec<_> = proc.state.ruu.iter().collect();
        assert!(entries.iter().all(|e| e.copy == 0));
    }

    #[test]
    fn applicable_points_match_kind() {
        use ftsim_isa::Opcode;
        let ld = Inst::new(Opcode::Ld, 1, 2, 0, 0);
        assert!(applicable_points(&ld).contains(&InjectionPoint::EffAddr));
        let sd = Inst::new(Opcode::Sd, 0, 2, 3, 0);
        assert!(applicable_points(&sd).contains(&InjectionPoint::StoreData));
        assert!(!applicable_points(&sd).contains(&InjectionPoint::Result));
        let beq = Inst::new(Opcode::Beq, 0, 1, 2, 1);
        assert!(applicable_points(&beq).contains(&InjectionPoint::BranchDirection));
        let nop = Inst::nop();
        assert!(applicable_points(&nop).is_empty());
        let lui = Inst::new(Opcode::Lui, 1, 0, 0, 4);
        assert_eq!(
            applicable_points(&lui),
            &[InjectionPoint::Result, InjectionPoint::RobWait]
        );
    }
}
