//! Issue stage: operand read, functional-unit allocation, execution, and
//! memory scheduling — including the application of injected faults at
//! their microarchitectural points.
//!
//! Candidates are RUU slots and every step works through the slot: a
//! memory entry's effective address, store datum and raw load value live
//! in the entry itself, a redundant load copy finds copy 0's value `copy`
//! slots back in its group, and the LSQ is consulted only for its
//! per-copy store set (the dependence search).

use crate::checkpoint::MachineState;
use crate::entry::EntryState;
use crate::lsq::LoadSearch;
use crate::pipeline::Processor;
use ftsim_faults::InjectionPoint;
use ftsim_isa::{direct_target, execute, ExecOutcome};
use ftsim_mem::AccessKind;

/// Compares the architecturally-checked fields of two outcomes; used to
/// decide whether a corruption was *effective* (visible to the commit
/// cross-check) or masked.
fn outcomes_differ(a: &ExecOutcome, b: &ExecOutcome) -> bool {
    a != b
}

impl Processor {
    /// Runs the issue stage for one cycle.
    ///
    /// Candidates are the slots in the scheduler's **ready** set (entries
    /// that became issue-eligible at dispatch or wakeup) and its
    /// **parked** set (memory entries that already failed an issue
    /// attempt: port lost, dependence conflict, shared access not ready).
    /// The walk visits them in circular slot order from the RUU head,
    /// which is ascending sequence order — the seed's oldest-first
    /// full-RUU scan, without the scan — and stops when the issue width
    /// is spent.
    ///
    /// A memory attempt in a cycle whose data ports are exhausted is
    /// *provably* fruitless and side-effect-free once its address is
    /// generated (every failure path returns before mutating anything —
    /// except the defect counter the fuzz harness's self-test plants
    /// here under the `plant` feature, see `Processor::plant_counter`).
    /// So once the ports are gone the walk scans the ready set alone,
    /// skipping parked entries a word at a time, and a newly ready
    /// memory entry only runs first-touch address generation before it
    /// parks — this is what turns the mem-bound steady state from
    /// O(occupancy) retries into O(ports) work per cycle. A non-memory
    /// entry that loses its functional unit keeps its ready bit and
    /// retries next cycle.
    ///
    /// Returns whether the cycle did any work: issued an entry, parked a
    /// newly ready one (which generates its address) or merged a store
    /// datum. Hazard losers and failing parked retries change nothing, so
    /// a cycle of only those repeats until a functional unit frees or a
    /// completion lands.
    pub(crate) fn stage_issue(&mut self) -> bool {
        #[cfg(feature = "plant")]
        let plant_before = self.plant_counter;
        let mut worked = false;
        let mut budget = self.config.issue_width;
        for range in self.state.ruu.live_ranges() {
            let mut from = range.start;
            while budget > 0 {
                let ports = self.state.hierarchy.data_ports_available() > 0;
                let Some(slot) = self.state.sched.next_candidate(from..range.end, ports) else {
                    break;
                };
                from = slot + 1;
                debug_assert_eq!(self.state.ruu.entry(slot).state, EntryState::Ready);
                let issued = if self.state.sched.is_parked(slot) {
                    self.try_issue_mem(slot)
                } else if self.state.ruu.entry(slot).inst.op.is_mem() {
                    if !ports {
                        // The seed still generated the address on a
                        // port-starved first attempt; everything after
                        // that is failure-path and effect-free.
                        self.state.ensure_mem_addr(slot);
                        false
                    } else {
                        self.try_issue_mem(slot)
                    }
                } else if self.state.try_issue_fu(slot) {
                    true
                } else {
                    continue; // structural hazard: stays ready
                };
                if issued {
                    self.state.sched.issued(slot);
                    budget -= 1;
                    worked = true;
                } else if !self.state.sched.is_parked(slot) {
                    self.state.sched.park(slot);
                    worked = true;
                }
            }
        }
        worked |= self.state.merge_store_data();
        // The planted defect counts failing retries outside the machine
        // state; skipping a cycle that moves it would change the count.
        #[cfg(feature = "plant")]
        {
            worked |= self.plant_counter != plant_before;
        }
        worked
    }
}

impl MachineState {
    /// First-touch effective-address generation for a memory entry,
    /// including the operand/address fault injections that ride on it.
    /// This is the *only* seed-visible side effect of a memory issue
    /// attempt that cannot win a data port, so the port-starved fast
    /// path runs just this before parking the entry.
    fn ensure_mem_addr(&mut self, slot: usize) -> u64 {
        let (inst, pc, base, fault, ea_known) = {
            let e = self.ruu.entry(slot);
            (e.inst, e.pc, e.ops[0].value(), e.fault, e.ea)
        };
        if let Some(ea) = ea_known {
            return ea;
        }
        let mut a = base;
        let mut effective = false;
        if let Some((_, ev)) = fault {
            if ev.point == InjectionPoint::OperandA {
                let clean = execute(&inst, pc, a, 0);
                a = ev.corrupt(a);
                effective = outcomes_differ(&clean, &execute(&inst, pc, a, 0));
            }
        }
        let mut ea = execute(&inst, pc, a, 0)
            .ea
            .expect("mem op computes an address");
        if let Some((_, ev)) = fault {
            if ev.point == InjectionPoint::EffAddr {
                ea = ev.corrupt(ea);
                effective = true;
            }
        }
        let e = self.ruu.entry_mut(slot);
        e.ea = Some(ea);
        e.fault_effective |= effective;
        ea
    }

    /// Issues a non-memory instruction to its functional unit.
    fn try_issue_fu(&mut self, slot: usize) -> bool {
        let (inst, pc, mut a, mut b, fault) = {
            let e = self.ruu.entry(slot);
            (e.inst, e.pc, e.ops[0].value(), e.ops[1].value(), e.fault)
        };
        let Some(latency) = self.fu.try_issue(inst.op, self.now) else {
            return false; // structural hazard: retry next cycle
        };

        let mut effective = false;
        if let Some((_, ev)) = fault {
            match ev.point {
                InjectionPoint::OperandA => {
                    let clean = execute(&inst, pc, a, b);
                    a = ev.corrupt(a);
                    effective = outcomes_differ(&clean, &execute(&inst, pc, a, b));
                }
                InjectionPoint::OperandB => {
                    let clean = execute(&inst, pc, a, b);
                    b = ev.corrupt(b);
                    effective = outcomes_differ(&clean, &execute(&inst, pc, a, b));
                }
                _ => {}
            }
        }
        let mut out = execute(&inst, pc, a, b);
        if let Some((_, ev)) = fault {
            match ev.point {
                InjectionPoint::Result => {
                    if let Some(r) = out.result.as_mut() {
                        *r = ev.corrupt(*r);
                        effective = true;
                    }
                }
                InjectionPoint::BranchDirection => {
                    if let Some(t) = out.taken {
                        let flipped = !t;
                        out.taken = Some(flipped);
                        out.target = flipped.then(|| direct_target(pc, inst.imm));
                        effective = true;
                    }
                }
                InjectionPoint::BranchTarget => {
                    if let Some(t) = out.target.as_mut() {
                        *t = ev.corrupt(*t);
                        effective = true;
                    }
                    // Not-taken branch: the corrupted target is never
                    // consumed — the fault is architecturally masked.
                }
                _ => {}
            }
        }

        {
            let e = self.ruu.entry_mut(slot);
            e.result = out.result;
            e.taken = out.taken;
            e.target = out.target;
            e.fault_effective |= effective;
        }
        self.schedule_completion_at(slot, self.now + latency);
        true
    }
}

impl Processor {
    /// Issues a memory instruction: address generation, disambiguation,
    /// forwarding, and (for copy 0) the single shared cache access. A
    /// load's raw value lands in its entry's `mem_value`, where writeback
    /// extends it and sibling copies read copy 0's.
    fn try_issue_mem(&mut self, slot: usize) -> bool {
        let (inst, copy) = {
            let e = self.state.ruu.entry(slot);
            (e.inst, e.copy)
        };

        // Address generation (once).
        let ea = self.state.ensure_mem_addr(slot);

        if inst.op.is_store() {
            // The store's address phase occupies a memory port for its
            // issue slot, like `sim-outorder`'s memport units. Every
            // redundant copy pays this — the paper keeps the port count
            // unchanged ("the overall processor design must remain
            // balanced", §3.2), so redundant address computations compete
            // for the same two ports.
            if !self.state.hierarchy.try_data_port() {
                return false;
            }
            // Address phase complete; the datum merges off the issue path.
            self.state.ruu.entry_mut(slot).state = EntryState::Issued;
            self.state.sched.add_pending_store(slot);
            return true;
        }

        // Loads: search older same-thread stores. Each copy occupies one
        // memory port when it starts its access/forward (address
        // calculation + data delivery), but only copy 0 actually touches
        // the cache: "the memory addresses are computed redundantly, but
        // only one memory access is performed" (§5.1.2).
        let (size, now) = (inst.op.mem_bytes(), self.state.now);
        match self
            .state
            .lsq
            .search_for_load(&self.state.ruu, slot, copy, ea, size)
        {
            LoadSearch::Forward(raw) => {
                if !self.state.hierarchy.try_data_port() {
                    return false;
                }
                self.state.ruu.entry_mut(slot).mem_value = Some(raw);
                self.state
                    .schedule_completion_at(slot, now + self.config.lat.forward);
                self.state.stats.load_forwards += 1;
                true
            }
            LoadSearch::WaitData | LoadSearch::Conflict => {
                // Planted defect (`plant` feature, once armed): a stat
                // bump on a failure return, outside checkpoint state. See
                // `Processor::plant_counter`.
                #[cfg(feature = "plant")]
                if let Some(count) = &mut self.plant_counter {
                    *count += 1;
                }
                false
            }
            LoadSearch::Memory => {
                if copy == 0 {
                    if !self.state.hierarchy.try_data_port() {
                        return false;
                    }
                    let access = self.state.hierarchy.data_access(ea, AccessKind::Read);
                    let raw = self.state.mem.read_sized(ea, size);
                    self.state.ruu.entry_mut(slot).mem_value = Some(raw);
                    self.state
                        .schedule_completion_at(slot, now + access.latency);
                    self.state.stats.load_accesses += 1;
                    true
                } else {
                    // Redundant copies take the shared access's value
                    // from copy 0, `copy` slots back in the group.
                    let copy0_slot = self.state.ruu.slot_before(slot, usize::from(copy));
                    let copy0 = self.state.ruu.entry(copy0_slot);
                    debug_assert_eq!(copy0.group, self.state.ruu.entry(slot).group);
                    match copy0.mem_value {
                        Some(raw) => {
                            if !self.state.hierarchy.try_data_port() {
                                return false;
                            }
                            self.state.ruu.entry_mut(slot).mem_value = Some(raw);
                            self.state.schedule_completion_at(slot, now + 1);
                            true
                        }
                        None => false, // copy 0 hasn't accessed yet
                    }
                }
            }
        }
    }
}

impl MachineState {
    /// Merges store data into the store's entry as it becomes available
    /// (does not consume issue bandwidth), where the LSQ's dependence
    /// search reads it, and schedules the store's completion.
    ///
    /// Walks only the scheduler's pending-store set — stores whose
    /// address phase issued and whose datum has not merged — in age
    /// order, instead of filtering the whole RUU every cycle. A store
    /// leaves the set when its datum merges, or when a squash clears it.
    /// Returns whether any datum merged.
    fn merge_store_data(&mut self) -> bool {
        let mut merged = false;
        for range in self.ruu.live_ranges() {
            let mut from = range.start;
            while let Some(slot) = self.sched.next_pending_store(from..range.end) {
                from = slot + 1;
                let (seq, mut data, fault) = {
                    let e = self.ruu.entry(slot);
                    debug_assert!(
                        e.inst.op.is_store()
                            && e.state == EntryState::Issued
                            && e.store_data.is_none()
                    );
                    if !e.ops[1].ready() {
                        continue; // datum still in flight: stay pending
                    }
                    (e.seq, e.ops[1].value(), e.fault)
                };
                let mut effective = false;
                if let Some((_, ev)) = fault {
                    if matches!(
                        ev.point,
                        InjectionPoint::StoreData | InjectionPoint::OperandB
                    ) {
                        data = ev.corrupt(data);
                        effective = true;
                    }
                }
                {
                    let e = self.ruu.entry_mut(slot);
                    e.store_data = Some(data);
                    e.fault_effective |= effective;
                }
                self.events.push(self.now, self.now + 1, seq, slot);
                self.sched.store_merged(slot);
                merged = true;
            }
        }
        merged
    }
}

/// Applies a fault event to an instruction for unit tests (exposed via
/// `pub(crate)` helpers above; this free function keeps the module's tests
/// close to the logic they exercise).
#[cfg(test)]
fn corrupted(
    inst: &ftsim_isa::Inst,
    pc: u64,
    a: u64,
    b: u64,
    ev: ftsim_faults::FaultEvent,
) -> ExecOutcome {
    let (mut a, mut b) = (a, b);
    match ev.point {
        InjectionPoint::OperandA => a = ev.corrupt(a),
        InjectionPoint::OperandB => b = ev.corrupt(b),
        _ => {}
    }
    execute(inst, pc, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsim_faults::FaultEvent;
    use ftsim_isa::{Inst, Opcode};

    #[test]
    fn operand_fault_changes_alu_outcome() {
        let inst = Inst::new(Opcode::Add, 1, 2, 3, 0);
        let clean = execute(&inst, 0, 10, 20);
        let ev = FaultEvent {
            point: InjectionPoint::OperandA,
            bit: 0,
        };
        let bad = corrupted(&inst, 0, 10, 20, ev);
        assert!(outcomes_differ(&clean, &bad));
        assert_eq!(bad.result, Some(31)); // (10^1) + 20
    }

    #[test]
    fn operand_fault_can_be_masked() {
        // AND with 0: corrupting the other operand cannot change the result.
        let inst = Inst::new(Opcode::And, 1, 2, 3, 0);
        let clean = execute(&inst, 0, 0xff, 0);
        let ev = FaultEvent {
            point: InjectionPoint::OperandA,
            bit: 9, // bit outside the mask
        };
        let bad = corrupted(&inst, 0, 0xff, 0, ev);
        assert!(!outcomes_differ(&clean, &bad));
    }
}
