//! Writeback stage: completion events, consumer wakeup, and branch
//! resolution with immediate rewind on mispredicts.

use crate::entry::EntryState;
use crate::pipeline::Processor;
use ftsim_faults::InjectionPoint;
use ftsim_isa::load_extend;

impl Processor {
    /// Processes every completion event due this cycle: the wheel's bucket
    /// for `now`, in `(cycle, seq)` order. Returns whether the bucket held
    /// any event.
    pub(crate) fn stage_writeback(&mut self) -> bool {
        let due = self.state.events.take_due(self.state.now);
        for &(_, seq, slot) in &due {
            self.complete(seq, slot as usize);
        }
        let worked = !due.is_empty();
        self.state.events.put_drained(self.state.now, due);
        worked
    }

    /// Finalizes the execution of entry `seq`, dispatched into `slot`.
    fn complete(&mut self, seq: u64, slot: usize) {
        // The sequence number is the event's generation tag: an entry
        // squashed while in flight no longer resolves, even once a
        // younger entry has reused its slot.
        let Some(e) = self.state.ruu.resolve(slot, seq) else {
            return;
        };
        if e.state != EntryState::Issued {
            return; // stale event
        }
        let inst = e.inst;
        let fault = e.fault;
        let mut result = e.result;

        // Loads: extend the raw (pristine, shared) memory value now.
        if inst.op.is_load() {
            let raw = e.mem_value.expect("completed load carries its raw value");
            result = Some(load_extend(inst.op, raw));
        }

        // Late corruptions: load results, and values struck while sitting
        // in the ROB awaiting commit ("a value becomes corrupted while
        // waiting to commit", §3.2 — the reason copies are re-checked at
        // commit time).
        let mut effective = false;
        if let Some((_, ev)) = fault {
            match ev.point {
                InjectionPoint::Result if inst.op.is_load() => {
                    result = result.map(|r| ev.corrupt(r));
                    effective = true;
                }
                InjectionPoint::RobWait if result.is_some() => {
                    result = result.map(|r| ev.corrupt(r));
                    effective = true;
                }
                _ => {}
            }
        }

        {
            let e = self.state.ruu.entry_mut(slot);
            e.result = result;
            e.state = EntryState::Done;
            e.fault_effective |= effective;
        }
        if let Some(v) = result {
            self.state.wakeup(slot, v);
        }
        if inst.op.is_control() {
            self.resolve_control(slot);
        }
    }

    /// Branch resolution: "as soon as one copy of a branch instruction
    /// evaluates and disagrees with the predicted branch direction or
    /// target, branch rewind is triggered immediately based on this
    /// singular result" (§3.2).
    ///
    /// `slot` is the resolving copy's RUU slot; its group's copies sit in
    /// the slots just before and after it, and the rewind squashes only
    /// younger entries, so every sibling keeps its slot.
    fn resolve_control(&mut self, slot: usize) {
        let (group, copy, actual_next, expected) = {
            let e = self.state.ruu.entry(slot);
            let pred_next = e
                .pred
                .expect("control instruction carries a prediction")
                .next_pc;
            (
                e.group,
                e.copy,
                e.computed_next_pc(),
                e.resteer_next.unwrap_or(pred_next),
            )
        };
        if actual_next == expected {
            return;
        }
        let r = self.r() as usize;
        let copy0_slot = self.state.ruu.slot_before(slot, usize::from(copy));
        let last_slot = self.state.ruu.slot_after(copy0_slot, r - 1);
        self.branch_rewind(group, last_slot, actual_next);
        // Record the applied redirect on every sibling copy: a copy that
        // later resolves to the same next-PC must not re-trigger, while a
        // disagreeing copy (corrupted branch) still will — and the
        // disagreement is then caught by the commit-stage cross-check.
        for k in 0..r {
            let sib_slot = self.state.ruu.slot_after(copy0_slot, k);
            let sib = self.state.ruu.entry_mut(sib_slot);
            debug_assert_eq!(sib.group, group, "group not contiguous");
            sib.resteer_next = Some(actual_next);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::MachineConfig;
    use crate::entry::EntryState;
    use crate::pipeline::Processor;
    use ftsim_faults::{FaultInjector, FaultPlan, InjectionPoint};
    use ftsim_isa::{IntReg, ProgramBuilder};

    #[test]
    fn redundant_load_copy_takes_copy0s_pristine_value_after_a_rob_strike() {
        const ADDR: u64 = 0x10_0000;
        const VALUE: u64 = 0x1234_5678;
        const BIT: u8 = 3;
        let (r1, r5, r10) = (IntReg::new(1), IntReg::new(5), IntReg::new(10));
        let (r11, r12, r13) = (IntReg::new(11), IntReg::new(12), IntReg::new(13));
        let mut b = ProgramBuilder::new();
        b.data_u64(ADDR, &[VALUE]);
        b.li(r10, ADDR as i64);
        b.li(r12, 2 * ADDR as i64);
        b.addi(r13, IntReg::ZERO, 2);
        // Warms the L1 line and the dTLB page, so the victim's copy 0 hits.
        b.ld(r5, r10, 0);
        // One multiplier/divider: both copies of the divide are ready at
        // once, copy 0 takes the unit first, and copy 1 of the victim's
        // address arrives a full divide latency behind copy 0's.
        b.div(r11, r12, r13);
        let victim = b.here() as u64;
        b.ld(r1, r11, 0);
        b.halt();
        let program = b.build().unwrap();

        let mut config = MachineConfig::ss2();
        config.fu.int_mul = 1;
        let mut plan = FaultPlan::new();
        plan.add(victim, 0, InjectionPoint::RobWait, BIT);
        let mut proc = Processor::new(config, &program, FaultInjector::from_plan(plan));
        let victim_pc = program.pc_of(victim as usize);

        let mut copy0_done_at = None;
        let mut copy1_issued_at = None;
        for _ in 0..2_000 {
            proc.cycle();
            let copies: Vec<_> = proc
                .state
                .ruu
                .iter()
                .filter(|e| e.pc == victim_pc)
                .collect();
            if copies.len() != 2 {
                continue;
            }
            if copies[0].state == EntryState::Done {
                copy0_done_at.get_or_insert(proc.now());
            }
            if matches!(copies[1].state, EntryState::Issued | EntryState::Done) {
                copy1_issued_at.get_or_insert(proc.now());
            }
            if copies[1].state == EntryState::Done {
                assert_eq!(copies[0].mem_value, Some(VALUE));
                assert_eq!(
                    copies[0].result,
                    Some(VALUE ^ (1 << BIT)),
                    "copy 0's register result was struck"
                );
                assert_eq!(copies[1].mem_value, Some(VALUE));
                assert_eq!(
                    copies[1].result,
                    Some(VALUE),
                    "copy 1 loaded the pristine value"
                );
                break;
            }
        }
        let (done, issued) = (
            copy0_done_at.expect("copy 0 completed"),
            copy1_issued_at.expect("copy 1 issued"),
        );
        assert!(
            issued > done,
            "copy 1 read copy 0's value after the strike ({issued} vs {done})"
        );

        // The commit cross-check catches the disagreement and the rewind
        // recovers the pristine value.
        while !proc.halted() {
            proc.cycle();
        }
        assert_eq!(proc.regs().read_int(r1), VALUE);
        assert_eq!(proc.stats_snapshot().fault_rewinds, 1);
    }
}
