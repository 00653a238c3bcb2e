//! Commit stage: in-order retirement with the redundant cross-check,
//! majority election, the control-flow check, and rewind recovery.

use crate::check::{check_group, GroupDecision};
use crate::checkpoint::MachineState;
use crate::entry::{Entry, EntryState};
use crate::pipeline::Processor;
use crate::stats::RewindCause;
use ftsim_faults::FaultFate;
use ftsim_mem::AccessKind;
use ftsim_predict::DirectionPredictor;

impl Processor {
    /// Retires as many whole replication groups as bandwidth and
    /// correctness allow this cycle.
    pub(crate) fn stage_commit(&mut self) {
        let r = self.r() as usize;
        let mut budget = self.config.commit_width as usize;
        let mut committed_any = false;
        // Reused snapshot buffer: a head group that will be checked is
        // copied (R entries, none owning heap data) so the decision logic
        // does not hold a borrow on the RUU; the buffer persists across
        // cycles, so the steady-state commit loop allocates nothing.
        let mut group = std::mem::take(&mut self.commit_scratch);

        while budget >= r {
            // Inspect in place: only a group whose copies are all done is
            // worth copying out.
            let ruu = &self.state.ruu;
            if ruu.is_empty() || !ruu.head_group().all(|e| e.state == EntryState::Done) {
                break;
            }
            group.clear();
            group.extend(self.state.ruu.head_group().cloned());
            debug_assert_eq!(group.len(), r, "replication groups dispatch atomically");

            // Control-flow check against the ECC-protected committed
            // next-PC register: "every retiring instruction's PC must be
            // checked against the last committed next-PC" (§3.2).
            if group[0].pc != self.state.committed_next_pc {
                self.state.resolve_detected(&group);
                self.full_rewind(RewindCause::ControlFlowCheck);
                break;
            }

            let outcome = check_group(
                &group,
                self.config.redundancy.majority,
                self.config.redundancy.threshold,
            );

            match outcome.decision {
                GroupDecision::Rewind => {
                    // Detection: attribute attached faults, then recover by
                    // rewinding to the committed state (§3.2 Recovery).
                    self.state.resolve_detected(&group);
                    self.full_rewind(RewindCause::FaultDetected);
                    break;
                }
                GroupDecision::Commit { representative } => {
                    let rep = &group[representative];

                    // A corrupted copy of a control instruction may have
                    // redirected the front end to a bogus target at
                    // resolution time. Election commits the correct
                    // outcome, but the fetch stream is still poisoned —
                    // repair it like a commit-time mispredict: squash
                    // everything younger and re-steer to the elected
                    // next-PC. (Without this, a wrong-target redirect can
                    // leave fetch outside the text segment forever.)
                    if !outcome.unanimous && rep.inst.op.is_control() {
                        let elected_next = rep.computed_next_pc();
                        let steered = rep
                            .resteer_next
                            .or(rep.pred.map(|p| p.next_pc))
                            .expect("control instruction carries a prediction");
                        if steered != elected_next {
                            let last_seq = rep.seq - u64::from(rep.copy) + self.r() - 1;
                            self.branch_rewind(rep.group, last_seq, elected_next);
                        }
                    }

                    // Stores write committed memory only now, after the
                    // cross-check passed — and need an L1D port.
                    if rep.inst.op.is_store() {
                        if !self.state.hierarchy.try_data_port() {
                            self.state.stats.store_port_stalls += 1;
                            break;
                        }
                        let ea = rep.ea.expect("store has an address");
                        let data = rep.store_data.expect("store has a datum");
                        self.state.hierarchy.data_access(ea, AccessKind::Write);
                        self.state
                            .mem
                            .write_sized(ea, data, rep.inst.op.mem_bytes());
                    }

                    if !outcome.unanimous {
                        self.state.stats.majority_elections += 1;
                    }
                    for (idx, e) in group.iter().enumerate() {
                        let Some((id, _)) = e.fault else { continue };
                        let fate = if outcome.dissenters.contains(&idx) {
                            FaultFate::Outvoted
                        } else if e.fault_effective {
                            // An architecturally-visible corruption sits on
                            // the side whose values are committing: either
                            // R = 1 (no protection), or every committing
                            // copy was corrupted *identically* — the
                            // indiscernible-error case of §2.2 that no
                            // degree of replication can detect (it can even
                            // win a majority election). Committed state is
                            // now corrupt; account it honestly.
                            FaultFate::Escaped
                        } else {
                            FaultFate::Masked
                        };
                        self.state.resolve_fault(id, fate);
                    }

                    self.retire_group(rep);
                    budget -= r;
                    committed_any = true;
                    if self.state.halted {
                        break;
                    }
                }
            }
        }

        group.clear();
        self.commit_scratch = group;

        if committed_any {
            self.state.stats.commit_active_cycles += 1;
            self.state.last_commit_cycle = self.state.now;
        }
    }

    /// Applies one group's architectural effects and frees its resources.
    fn retire_group(&mut self, rep: &Entry) {
        let r = self.r() as usize;
        let state = &mut self.state;
        // First commit after a full rewind closes the recovery-penalty
        // measurement (the W of §4.2/§5.3). This runs before the group is
        // counted so same-cycle commits preceding a rewind can't zero it.
        if let Some(start) = state.pending_rewind_start.take() {
            let penalty = state.now - start;
            state.stats.rewind_penalty_cycles += penalty;
            state.stats.rewind_penalty_events += 1;
            state.stats.rewind_penalty_max = state.stats.rewind_penalty_max.max(penalty);
        }
        let inst = rep.inst;
        let copy0_seq = rep.seq - u64::from(rep.copy);

        if let (Some(rd), Some(v)) = (inst.effective_rd(), rep.result) {
            state.regs.write(rd, v);
        }

        if inst.op.is_cond_branch() {
            let taken = rep.taken.expect("resolved branch");
            state.stats.branches += 1;
            let pred = rep.pred.expect("branch carries prediction");
            if rep.computed_next_pc() != pred.next_pc {
                state.stats.branch_mispredicts += 1;
            }
            state.fetch.predictor_mut().update(rep.pc, taken);
            if taken {
                state
                    .fetch
                    .btb_mut()
                    .update(rep.pc, rep.target.expect("taken branch has target"));
            }
        } else if inst.op.is_indirect_jump() {
            state
                .fetch
                .btb_mut()
                .update(rep.pc, rep.target.expect("jump has target"));
        }

        state.committed_next_pc = rep.computed_next_pc();

        if let Some(rd) = inst.effective_rd() {
            state.map.retire(rd, copy0_seq);
        }
        state.checkpoints.remove(&rep.group);
        if inst.op.is_mem() {
            state.lsq.remove_group(copy0_seq, r, inst.op.is_store());
        }

        state.stats.retired_instructions += 1;
        state.stats.retired_entries += r as u64;
        state.stats.inflight_latency_sum += state.now.saturating_sub(rep.dispatched_at);
        state.stats.count_mix(inst.op.mix_class());

        state.ruu.pop_front(r);

        if rep.halt {
            state.halted = true;
        }
    }
}

impl MachineState {
    /// Attributes the faults of a group that failed a check: detected
    /// where the corruption reached a checked value, masked otherwise.
    fn resolve_detected(&mut self, group: &[Entry]) {
        for e in group {
            if let Some((id, _)) = e.fault {
                let fate = if e.fault_effective {
                    FaultFate::Detected
                } else {
                    FaultFate::Masked
                };
                self.resolve_fault(id, fate);
            }
        }
    }
}
