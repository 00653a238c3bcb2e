//! The processor: pipeline state and the per-cycle stage driver.
//!
//! Stage methods live in sibling modules (`commit`, `writeback`, `issue`,
//! `dispatch`) as `impl Processor` blocks, or as `impl MachineState`
//! blocks where they need neither the injector nor the scratch buffers;
//! this module owns the processor and the cross-cutting mechanics
//! (branch rewind, full rewind, wakeup).

use crate::checkpoint::MachineState;
use crate::config::MachineConfig;
use crate::entry::{Entry, EntryState, Operand};
use crate::profile::{NoProbe, SampledProbe, StageProbe};
use crate::stats::SimStats;
use ftsim_faults::{FaultFate, FaultId, FaultInjector, FaultLog};
use ftsim_isa::{ArchRegs, Program};
use ftsim_mem::SparseMemory;
use std::sync::Arc;

/// One simulated processor: its `MachineState` plus the parts that are
/// not state — the configuration and program it runs, the fault
/// injector, and per-cycle scratch buffers.
///
/// Prefer the [`Simulator`](crate::Simulator) facade for running programs;
/// `Processor` is exposed for tests and tools that need to single-step
/// cycles or inspect in-flight state.
#[derive(Debug)]
pub struct Processor {
    pub(crate) config: MachineConfig,
    /// The immutable program image, shared (not deep-copied) between the
    /// processor, the simulator facade and every sibling grid cell.
    pub(crate) program: Arc<Program>,
    /// Everything that evolves during a run; a [`crate::Checkpoint`] is a
    /// clone of it.
    pub(crate) state: MachineState,
    pub(crate) injector: FaultInjector,
    /// Reused buffer for squashed entries (branch and full rewinds).
    pub(crate) squash_scratch: Vec<Entry>,
    /// Reused buffer for the commit stage's head-group snapshot.
    pub(crate) commit_scratch: Vec<Entry>,
    /// **Deliberately planted defect** (the `plant` feature; `None` until
    /// [`arm_plant`]): failed load issue attempts on a store-set
    /// dependence, left out of `MachineState` yet folded into
    /// `load_forwards` by [`Processor::stats_snapshot`]. A forked run's
    /// counter restarts at zero, so its records under-count against an
    /// identical cold run — the bug class the fuzzer's planted suite must
    /// catch and shrink.
    #[cfg(feature = "plant")]
    pub(crate) plant_counter: Option<u64>,
}

#[cfg(feature = "plant")]
static PLANT_ARMED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Arms the planted defect (see [`Processor`]'s `plant_counter`) in every
/// processor this process builds from now on. The feature alone leaves
/// it inert, so test builds that unify the feature stay defect-free.
#[cfg(feature = "plant")]
pub fn arm_plant() {
    PLANT_ARMED.store(true, std::sync::atomic::Ordering::Relaxed);
}

impl Processor {
    /// Builds a processor over `program` with the given fault injector.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see
    /// [`MachineConfig::validate`]).
    pub fn new(config: MachineConfig, program: &Program, injector: FaultInjector) -> Self {
        Self::with_shared_program(config, Arc::new(program.clone()), injector)
    }

    /// Builds a processor over an already-shared program. This is what the
    /// builder and the experiment grid use: one `Arc` per distinct
    /// program, cloned by reference count into every cell. A build copies
    /// no data bytes ([`Program::initial_memory`]).
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see
    /// [`MachineConfig::validate`]).
    pub fn with_shared_program(
        config: MachineConfig,
        program: Arc<Program>,
        injector: FaultInjector,
    ) -> Self {
        config
            .validate()
            .expect("invalid machine configuration (use SimBuilder to surface this as an error)");
        Self {
            state: MachineState::new(&config, &program),
            injector,
            squash_scratch: Vec::new(),
            commit_scratch: Vec::new(),
            #[cfg(feature = "plant")]
            plant_counter: PLANT_ARMED
                .load(std::sync::atomic::Ordering::Relaxed)
                .then_some(0),
            program,
            config,
        }
    }

    /// Advances the machine one cycle.
    ///
    /// Stages run commit → writeback → issue → dispatch → fetch
    /// (SimpleScalar's reverse traversal) so that values become visible
    /// with correct single-cycle timing.
    pub fn cycle(&mut self) {
        if crate::profile::enabled() {
            self.cycle_with(SampledProbe::new(self.state.now));
        } else {
            self.cycle_with(NoProbe);
        }
    }

    /// The one cycle body. `probe` observes each stage it wraps (see
    /// [`crate::profile`]) and never touches machine state, so the
    /// machine evolves identically under either probe.
    fn cycle_with<P: StageProbe>(&mut self, mut probe: P) {
        self.state.hierarchy.begin_cycle();
        probe.stage(0, || self.stage_commit());
        if !self.state.halted {
            probe.stage(1, || self.stage_writeback());
            probe.stage(2, || self.stage_issue());
            probe.stage(3, || self.stage_dispatch());
            probe.stage(4, || {
                self.state.fetch.fetch_cycle(
                    self.state.now,
                    &self.program,
                    &mut self.state.hierarchy,
                );
            });
        }
        self.state.stats.ruu_occupancy_sum += self.state.ruu.len() as u64;
        self.state.stats.lsq_occupancy_sum += self.state.lsq.len() as u64;
        #[cfg(debug_assertions)]
        self.assert_group_invariants();
        self.state.stats.cycles += 1;
        self.state.now += 1;
        probe.end_cycle();
    }

    /// Whether `halt` has committed.
    pub fn halted(&self) -> bool {
        self.state.halted
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.state.now
    }

    /// Committed architectural registers.
    pub fn regs(&self) -> &ArchRegs {
        &self.state.regs
    }

    /// Committed memory.
    pub fn mem(&self) -> &SparseMemory {
        &self.state.mem
    }

    /// A synchronized snapshot of the statistics gathered so far: the
    /// core counters plus the cache, fetch and fault counters that live
    /// in their own units, folded in at read time. Needs only `&self` —
    /// inspection never mutates the machine.
    pub fn stats_snapshot(&self) -> SimStats {
        let mut stats = self.state.stats.clone();
        let (il1, dl1, l2) = self.state.hierarchy.cache_stats();
        stats.il1 = il1;
        stats.dl1 = dl1;
        stats.l2 = l2;
        let f = self.state.fetch.stats();
        stats.fetched = f.fetched;
        stats.fetch_stall_cycles = f.stall_cycles;
        stats.icache_stall_cycles = f.icache_stall_cycles;
        stats.faults = self.state.fault_log.counts();
        stats.fault_sites = self.state.fault_log.per_site();
        stats.fault_latency = self.state.fault_log.latency();
        #[cfg(feature = "plant")]
        {
            // Deliberately wrong once armed — see the `plant_counter`
            // field docs.
            stats.load_forwards += self.plant_counter.unwrap_or(0);
        }
        stats
    }

    /// A 64-bit FNV-1a digest of the committed architectural state:
    /// registers, the committed next-PC, the halt flag, and memory
    /// contents (content-based — all-zero pages digest like unmapped
    /// ones).
    ///
    /// Two runs of the same program that committed the same number of
    /// instructions digest equally iff their committed state is
    /// architecturally identical, which is how the analysis layer
    /// classifies a cell's escaped faults as masked vs. silent data
    /// corruption against the family's fault-free baseline.
    pub fn state_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        };
        for (_, value) in self.state.regs.iter() {
            fold(value);
        }
        fold(self.state.committed_next_pc);
        fold(u64::from(self.state.halted));
        self.state.mem.content_digest(h)
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The fault ledger.
    pub fn fault_log(&self) -> &FaultLog {
        &self.state.fault_log
    }

    /// In-flight RUU occupancy (tests/inspection).
    pub fn ruu_len(&self) -> usize {
        self.state.ruu.len()
    }

    /// Occupancy of the event-driven scheduler's structures — how much
    /// genuinely in-flight state a snapshot at this boundary captures.
    pub fn scheduler_depths(&self) -> SchedulerDepths {
        let (waiters, ready, parked_mem, pending_stores) = self.state.sched.depths();
        SchedulerDepths {
            waiters,
            ready,
            parked_mem,
            pending_stores,
            events: self.state.events.len(),
        }
    }

    /// The degree of redundancy R.
    pub(crate) fn r(&self) -> u64 {
        u64::from(self.config.redundancy.r)
    }
}

impl MachineState {
    /// Delivers a completed producer's result to its waiting consumers.
    ///
    /// Dispatch registered every consumer on the producer's wait-list, so
    /// this touches only entries that actually wait — not the whole RUU.
    /// Consumers squashed since registration are skipped (their sequence
    /// numbers are never reused, so a miss is definitive).
    pub(crate) fn wakeup(&mut self, producer_seq: u64, value: u64) {
        let Some(list) = self.sched.take_wait_list(producer_seq) else {
            return;
        };
        for &consumer in &list {
            let Some(e) = self.ruu.get_mut(consumer) else {
                continue; // squashed while waiting
            };
            let mut changed = false;
            for op in &mut e.ops {
                if *op == Operand::Wait(producer_seq) {
                    *op = Operand::Value(value);
                    changed = true;
                }
            }
            if changed && e.state == EntryState::Waiting {
                e.refresh_readiness();
                if e.state == EntryState::Ready {
                    self.sched.push_ready(consumer);
                }
            }
        }
        self.sched.recycle(list);
    }
}

impl Processor {
    /// Selective squash after a branch rewind: removes every entry younger
    /// than `cutoff_seq`, restores the branch's map checkpoint, and marks
    /// squashed faults as wrong-path.
    pub(crate) fn branch_rewind(&mut self, branch_group: u64, cutoff_seq: u64, new_target: u64) {
        let mut squashed = std::mem::take(&mut self.squash_scratch);
        self.state.ruu.squash_after_into(cutoff_seq, &mut squashed);
        let mut squashed_mem = 0;
        for e in &squashed {
            self.state.sched.on_squash(e.seq);
            squashed_mem += usize::from(e.inst.op.is_mem());
            if let Some((id, _)) = e.fault {
                self.state.resolve_fault(id, FaultFate::SquashedWrongPath);
            }
            // Squashed younger branches' checkpoints are dead.
            if e.inst.op.is_control() && e.copy == 0 {
                self.state.checkpoints.remove(&e.group);
            }
        }
        squashed.clear();
        self.squash_scratch = squashed;
        self.state.sched.squash_after(cutoff_seq);
        self.state.lsq.squash_after(cutoff_seq, squashed_mem);
        let cp = self
            .state
            .checkpoints
            .get(&branch_group)
            .expect("branch group has a checkpoint")
            .clone();
        self.state.map.restore(&cp);
        self.state.fetch.redirect(
            new_target,
            self.state.now + 1 + self.config.lat.mispredict_extra,
        );
        self.state.stats.branch_rewinds += 1;
    }

    /// Full rewind (§3.2 Recovery): "discard the entire ROB contents and
    /// restart execution by refetching from the committed next-PC
    /// register."
    pub(crate) fn full_rewind(&mut self, cause: crate::stats::RewindCause) {
        let mut squashed = std::mem::take(&mut self.squash_scratch);
        self.state.ruu.squash_all_into(&mut squashed);
        for e in &squashed {
            if let Some((id, _)) = e.fault {
                self.state.resolve_fault(id, FaultFate::SquashedByRewind);
            }
        }
        squashed.clear();
        self.squash_scratch = squashed;
        self.state.lsq.squash_all();
        self.state.sched.clear();
        debug_assert!(self.state.lsq.is_empty() && self.state.ruu.is_empty());
        self.state.checkpoints.clear();
        self.state.map.clear();
        // Every entry is gone, so every scheduled completion is stale.
        self.state.events.clear();
        self.state.fu.reset();
        self.state.fetch.rewind(
            self.state.committed_next_pc,
            self.state.now + 1 + self.config.lat.mispredict_extra,
        );
        self.state.pending_rewind_start = Some(self.state.now);
        match cause {
            crate::stats::RewindCause::FaultDetected => self.state.stats.fault_rewinds += 1,
            crate::stats::RewindCause::ControlFlowCheck => self.state.stats.pc_check_rewinds += 1,
        }
    }

    /// Debug invariant: every replication group in the RUU is contiguous,
    /// complete, and placed so copies have consecutive sequence numbers
    /// (the paper's ⌊i/R⌋ placement rule).
    #[cfg(debug_assertions)]
    pub(crate) fn assert_group_invariants(&self) {
        let r = self.r();
        let mut iter = self.state.ruu.iter().peekable();
        while let Some(first) = iter.next() {
            assert_eq!(first.copy, 0, "group must start at copy 0");
            for k in 1..r {
                let e = iter.next().expect("incomplete replication group");
                assert_eq!(e.group, first.group, "group interleaved");
                assert_eq!(u64::from(e.copy), k, "copy order broken");
                assert_eq!(e.seq, first.seq + k, "copies not consecutive");
            }
        }
    }

    /// No-op counterpart for builds without `debug_assertions` (the bench
    /// profile compiles unit tests too, so the symbol must exist).
    #[cfg(not(debug_assertions))]
    #[allow(dead_code)]
    pub(crate) fn assert_group_invariants(&self) {}
}

/// Scheduler-structure occupancy reported by
/// [`Processor::scheduler_depths`] (checkpoint tests and debugging use
/// this to prove a snapshot point carries real in-flight state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerDepths {
    /// Consumers registered on producer wait-lists (in-flight wakeups).
    pub waiters: usize,
    /// Issue-eligible entries (including this cycle's deferred retries).
    pub ready: usize,
    /// Memory entries parked after a failed issue attempt.
    pub parked_mem: usize,
    /// Stores whose address phase issued but whose datum has not merged.
    pub pending_stores: usize,
    /// Scheduled completion events.
    pub events: usize,
}

impl MachineState {
    /// Marks the entry at index handle `idx` (sequence `seq`) issued and
    /// schedules its completion event.
    pub(crate) fn schedule_completion_at(&mut self, idx: usize, seq: u64, at: u64) {
        debug_assert_eq!(self.ruu.at(idx).seq, seq, "stale index handle");
        self.events.push(self.now, at, seq);
        self.ruu.at_mut(idx).state = EntryState::Issued;
    }

    /// Settles the fate of logged fault `id` at the current cycle and
    /// retirement count.
    pub(crate) fn resolve_fault(&mut self, id: FaultId, fate: FaultFate) {
        self.fault_log
            .resolve(id, fate, self.now, self.stats.retired_instructions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use ftsim_isa::{IntReg, ProgramBuilder};

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.addi(IntReg::new(1), IntReg::ZERO, 7);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn runs_trivial_program_to_halt() {
        let p = tiny_program();
        let mut proc = Processor::new(MachineConfig::ss1(), &p, FaultInjector::none());
        for _ in 0..200 {
            proc.cycle();
            if proc.halted() {
                break;
            }
        }
        assert!(proc.halted());
        assert_eq!(proc.regs().read_int(IntReg::new(1)), 7);
        assert_eq!(proc.stats_snapshot().retired_instructions, 2);
    }

    #[test]
    fn redundant_mode_retires_same_instructions() {
        let p = tiny_program();
        let mut proc = Processor::new(MachineConfig::ss2(), &p, FaultInjector::none());
        for _ in 0..200 {
            proc.cycle();
            if proc.halted() {
                break;
            }
        }
        assert!(proc.halted());
        let s = proc.stats_snapshot();
        assert_eq!(s.retired_instructions, 2);
        assert_eq!(s.retired_entries, 4); // R = 2 entries per instruction
    }

    #[test]
    fn committed_next_pc_tracks_entry() {
        let p = tiny_program();
        let mut proc = Processor::new(MachineConfig::ss1(), &p, FaultInjector::none());
        assert_eq!(proc.state.committed_next_pc, p.entry());
        while !proc.halted() {
            proc.cycle();
        }
        // After halt commits, next-PC is one past the halt.
        assert_eq!(proc.state.committed_next_pc, p.entry() + 8);
    }

    #[test]
    fn stats_snapshot_needs_no_mutable_access() {
        let p = tiny_program();
        let mut proc = Processor::new(MachineConfig::ss1(), &p, FaultInjector::none());
        while !proc.halted() {
            proc.cycle();
        }
        let frozen = &proc; // snapshot through a shared reference
        let s = frozen.stats_snapshot();
        assert_eq!(s.retired_instructions, 2);
        assert!(s.fetched > 0, "fetch counters are folded into snapshots");
    }

    #[test]
    fn completion_event_in_flight_at_full_rewind_cannot_resurrect() {
        // A long-latency producer keeps a completion event in flight; a
        // full rewind must drop it rather than let the stale sequence
        // resurrect, and the machine must recover cleanly by refetching
        // from the committed next-PC.
        let r1 = IntReg::new(1);
        let r2 = IntReg::new(2);
        let mut b = ProgramBuilder::new();
        b.addi(r1, IntReg::ZERO, 7);
        b.mul(r2, r1, r1); // multi-cycle: completion scheduled ahead
        b.halt();
        let p = b.build().unwrap();
        let mut proc = Processor::new(MachineConfig::ss1(), &p, FaultInjector::none());
        for _ in 0..400 {
            proc.cycle();
            if proc.state.events.len() > 0 {
                break;
            }
        }
        assert!(
            proc.state.events.len() > 0,
            "a completion event is in flight"
        );
        // Force the rewind the commit stage would issue on a detected
        // fault.
        proc.full_rewind(crate::stats::RewindCause::FaultDetected);
        assert!(
            proc.state.events.len() == 0,
            "no event may survive a full rewind (every entry was squashed)"
        );
        for _ in 0..1_000 {
            proc.cycle();
            if proc.halted() {
                break;
            }
        }
        assert!(proc.halted(), "machine recovers after the rewind");
        assert_eq!(proc.regs().read_int(r2), 49);
        assert_eq!(proc.stats_snapshot().fault_rewinds, 1);
    }
}
