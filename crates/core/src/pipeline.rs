//! The processor: pipeline state and the per-cycle stage driver.
//!
//! Stage methods live in sibling modules (`commit`, `writeback`, `issue`,
//! `dispatch`) as `impl Processor` blocks, or as `impl MachineState`
//! blocks where they need neither the injector nor the scratch buffers;
//! this module owns the processor and the cross-cutting mechanics
//! (branch rewind, full rewind, wakeup).

use crate::checkpoint::MachineState;
use crate::config::MachineConfig;
use crate::dispatch::Dispatched;
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
        self.step();
    }

    /// Advances the machine one cycle, as [`Processor::cycle`], and
    /// returns the cycle's counter deltas when it was quiet (see
    /// [`Processor::skip_quiet`]).
    pub(crate) fn step(&mut self) -> Option<QuietCycle> {
        if crate::profile::enabled() {
            self.cycle_with(SampledProbe::new())
        } else {
            self.cycle_with(NoProbe)
        }
    }

    /// The one cycle body. `probe` observes each stage it wraps (see
    /// [`crate::profile`]) and never touches machine state, so the
    /// machine evolves identically under either probe. Each stage reports
    /// whether it did work; a cycle in which none did is quiet.
    fn cycle_with<P: StageProbe>(&mut self, mut probe: P) -> Option<QuietCycle> {
        self.state.hierarchy.begin_cycle();
        let mut worked = probe.stage(0, || self.stage_commit());
        let mut quiet = None;
        if !self.state.halted {
            worked |= probe.stage(1, || self.stage_writeback());
            worked |= probe.stage(2, || self.stage_issue());
            let dispatched = probe.stage(3, || self.stage_dispatch());
            worked |= probe.stage(4, || {
                self.state.fetch.fetch_cycle(
                    self.state.now,
                    &self.program,
                    &mut self.state.hierarchy,
                )
            });
            if let (false, Dispatched::Nothing(dispatch_stall)) = (worked, dispatched) {
                quiet = Some(QuietCycle { dispatch_stall });
            }
        }
        self.state.stats.ruu_occupancy_sum += self.state.ruu.len() as u64;
        self.state.stats.lsq_occupancy_sum += self.state.lsq.len() as u64;
        #[cfg(debug_assertions)]
        {
            self.assert_group_invariants();
            self.assert_sched_invariants();
        }
        self.state.stats.cycles += 1;
        self.state.now += 1;
        probe.end_cycle();
        quiet
    }

    /// Fast-forwards over the quiet cycles that follow a quiet one.
    ///
    /// `quiet` is what [`Processor::step`] returned for the cycle just
    /// run. That cycle changed nothing but per-cycle counters, so every
    /// following cycle repeats it until a time-triggered event: the next
    /// completion bucket, the end of a fetch stall, a functional unit
    /// freeing, or the caller's `deadline`. This jumps `now` to the
    /// earliest of them and adds the quiet cycle's counter deltas once per
    /// skipped cycle. Returns the new `now`.
    ///
    /// Debug builds step every skipped span one cycle at a time on a copy
    /// of the machine and check that each cycle is quiet and that the
    /// counters agree.
    pub(crate) fn skip_quiet(&mut self, quiet: QuietCycle, deadline: u64) -> u64 {
        let now = self.state.now;
        let wake = self
            .state
            .next_wake(now)
            .map_or(deadline, |w| w.min(deadline));
        if wake > now {
            #[cfg(debug_assertions)]
            let before = self.state.clone();
            self.state.replay_quiet(quiet, wake - now);
            #[cfg(debug_assertions)]
            self.check_quiet_span(before, quiet);
        }
        self.state.now
    }

    /// Debug guard of [`Processor::skip_quiet`]: steps the span from
    /// `before` with the no-op probe (so stage-call counts match release
    /// builds), asserting each cycle quiet, and compares the counters with
    /// the fast-forwarded machine, which it keeps.
    #[cfg(debug_assertions)]
    fn check_quiet_span(&mut self, before: MachineState, quiet: QuietCycle) {
        let skipped = std::mem::replace(&mut self.state, before);
        while self.state.now < skipped.now {
            let cycle = self.state.now;
            assert_eq!(
                self.cycle_with(NoProbe),
                Some(quiet),
                "cycle {cycle} of a skipped span is not quiet like the cycle before it"
            );
        }
        let stepped = self.stats_snapshot();
        self.state = skipped;
        assert_eq!(
            self.stats_snapshot(),
            stepped,
            "skipped span's counters differ from stepping it"
        );
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

    /// The fault injector, for inspection (draws made, faults produced).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
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
        let (waiters, ready, parked_mem, pending_stores) = self.state.sched.depths(&self.state.ruu);
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

/// The counter deltas of a quiet cycle beyond the ones every cycle moves
/// (`cycles`, `now`, the RUU and LSQ occupancy sums and fetch's stall
/// count): which `dispatch_stalls` counter, if any, it bumped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QuietCycle {
    dispatch_stall: Option<usize>,
}

impl MachineState {
    /// The first cycle at or after `now` at which a quiet machine can wake
    /// by itself: its next completion bucket, the end of a fetch stall or
    /// a functional unit freeing. `None` means no time-triggered event is
    /// pending — only a run-loop deadline ends the quiet.
    ///
    /// These are all the places a stage compares `now` with stored state;
    /// a new such comparison must add its wake source here.
    fn next_wake(&self, now: u64) -> Option<u64> {
        [
            self.events.next_due(now),
            self.fetch.stalled_until(now),
            self.fu.next_release(now),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Adds `cycles` repetitions of a quiet cycle's counter deltas and
    /// moves the clock past them.
    fn replay_quiet(&mut self, quiet: QuietCycle, cycles: u64) {
        let stats = &mut self.stats;
        stats.ruu_occupancy_sum += cycles * self.ruu.len() as u64;
        stats.lsq_occupancy_sum += cycles * self.lsq.len() as u64;
        if let Some(k) = quiet.dispatch_stall {
            stats.dispatch_stalls[k] += cycles;
        }
        self.fetch.add_stall_cycles(cycles);
        stats.cycles += cycles;
        self.now += cycles;
    }

    /// Delivers the result of the producer in slot `producer` to its
    /// waiting consumers.
    ///
    /// Dispatch linked every waiting operand into the producer slot's
    /// wait-list, and a squash unlinks squashed consumers, so this
    /// touches exactly the live operands that wait — not the whole RUU.
    pub(crate) fn wakeup(&mut self, producer: usize, value: u64) {
        let mut node = self.sched.take_wait_list(producer);
        while let Some(n) = node {
            let consumer = n / 2;
            let e = self.ruu.entry_mut(consumer);
            debug_assert_eq!(e.ops[n % 2], Operand::Wait(producer));
            e.ops[n % 2] = Operand::Value(value);
            if e.state == EntryState::Waiting {
                e.refresh_readiness();
                if e.state == EntryState::Ready {
                    self.sched.set_ready(consumer);
                }
            }
            node = self.sched.next_waiter(n);
        }
    }
}

impl Processor {
    /// Selective squash after a branch rewind: removes every entry younger
    /// than the one in `cutoff_slot` (the branch group's last copy),
    /// restores the branch's map checkpoint, and marks squashed faults as
    /// wrong-path.
    pub(crate) fn branch_rewind(&mut self, branch_group: u64, cutoff_slot: usize, new_target: u64) {
        let state = &mut self.state;
        let n = state.ruu.squash_after(cutoff_slot);
        state.sched.squash(&state.ruu, n);
        let mut squashed_mem = 0;
        for (_, e) in state.ruu.squashed(n) {
            squashed_mem += usize::from(e.inst.op.is_mem());
            if let Some((id, _)) = e.fault {
                state.fault_log.resolve(
                    id,
                    FaultFate::SquashedWrongPath,
                    state.now,
                    state.stats.retired_instructions,
                );
            }
        }
        state.lsq.squash(&state.ruu, n, squashed_mem);
        // Squashed younger branches' checkpoints are dead.
        let cp = state.checkpoints.rewind_to(branch_group);
        state.map.restore(cp);
        state
            .fetch
            .redirect(new_target, state.now + 1 + self.config.lat.mispredict_extra);
        state.stats.branch_rewinds += 1;
    }

    /// Full rewind (§3.2 Recovery): "discard the entire ROB contents and
    /// restart execution by refetching from the committed next-PC
    /// register."
    pub(crate) fn full_rewind(&mut self, cause: crate::stats::RewindCause) {
        let state = &mut self.state;
        let n = state.ruu.squash_all();
        for (_, e) in state.ruu.squashed(n) {
            if let Some((id, _)) = e.fault {
                state.fault_log.resolve(
                    id,
                    FaultFate::SquashedByRewind,
                    state.now,
                    state.stats.retired_instructions,
                );
            }
        }
        state.lsq.squash_all();
        state.sched.clear();
        debug_assert!(state.lsq.is_empty() && state.ruu.is_empty());
        state.checkpoints.clear();
        state.map.clear();
        // Every entry is gone, so every scheduled completion is stale.
        state.events.clear();
        state.fu.reset();
        state.fetch.rewind(
            state.committed_next_pc,
            state.now + 1 + self.config.lat.mispredict_extra,
        );
        state.pending_rewind_start = Some(state.now);
        match cause {
            crate::stats::RewindCause::FaultDetected => state.stats.fault_rewinds += 1,
            crate::stats::RewindCause::ControlFlowCheck => state.stats.pc_check_rewinds += 1,
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

    /// Debug invariant: the scheduler's slot-keyed wait-lists and ready,
    /// parked and pending-store sets agree with the RUU's entries (see
    /// `Scheduler::assert_invariants`).
    #[cfg(debug_assertions)]
    pub(crate) fn assert_sched_invariants(&self) {
        self.state.sched.assert_invariants(&self.state.ruu);
    }
}

/// Scheduler-structure occupancy reported by
/// [`Processor::scheduler_depths`] (checkpoint tests and debugging use
/// this to prove a snapshot point carries real in-flight state). Every
/// count covers live RUU slots only: a squash removes its entries from
/// each structure at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerDepths {
    /// Waiting operands linked into producer slots' wait-lists (in-flight
    /// wakeups).
    pub waiters: usize,
    /// Slots in the ready set: issue-eligible entries, including
    /// functional-unit hazard losers that retry next cycle.
    pub ready: usize,
    /// Slots in the parked set: memory entries that failed an issue
    /// attempt.
    pub parked_mem: usize,
    /// Slots in the pending-store set: stores whose address phase issued
    /// but whose datum has not merged.
    pub pending_stores: usize,
    /// Scheduled completion events, including events of squashed entries
    /// that writeback will discard.
    pub events: usize,
}

impl MachineState {
    /// Marks the entry in `slot` issued and schedules its completion
    /// event.
    pub(crate) fn schedule_completion_at(&mut self, slot: usize, at: u64) {
        let e = self.ruu.entry_mut(slot);
        e.state = EntryState::Issued;
        self.events.push(self.now, at, e.seq, slot);
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

    /// Steps `proc` until a quiet cycle for which `ready` holds, and
    /// returns that cycle's verdict.
    fn step_until_quiet(proc: &mut Processor, ready: impl Fn(&Processor) -> bool) -> QuietCycle {
        for _ in 0..2_000 {
            if let Some(quiet) = proc.step() {
                if ready(proc) {
                    return quiet;
                }
            }
        }
        panic!("no quiet cycle of the wanted kind");
    }

    #[test]
    fn skip_lands_on_the_end_of_an_icache_miss() {
        let p = tiny_program();
        let mut proc = Processor::new(MachineConfig::ss2(), &p, FaultInjector::none());
        assert_eq!(proc.step(), None, "cycle 0 misses in the I-cache");
        let quiet = proc.step().expect("cycle 1 waits for the line");
        let stall_end = proc.state.fetch.stalled_until(proc.now()).unwrap();
        assert_eq!(stall_end, proc.stats_snapshot().icache_stall_cycles);
        assert_eq!(proc.skip_quiet(quiet, u64::MAX), stall_end);
        assert_eq!(proc.step(), None, "the fetch at the stall's end is work");
        assert_eq!(proc.stats_snapshot().fetched, 2);
        assert_eq!(proc.stats_snapshot().cycles, stall_end + 1);
    }

    #[test]
    fn skip_lands_on_a_far_completion() {
        const ADDR: u64 = 0x10_0000;
        let (r1, r10) = (IntReg::new(1), IntReg::new(10));
        let mut b = ProgramBuilder::new();
        b.data_u64(ADDR, &[5]);
        b.li(r10, ADDR as i64);
        b.ld(r1, r10, 0); // cold dTLB, L1 and L2: a memory-latency miss
        b.halt();
        let p = b.build().unwrap();
        let mut proc = Processor::new(MachineConfig::ss2(), &p, FaultInjector::none());
        let load_pc = p.pc_of(p.len() - 2);
        let load_issued = |proc: &Processor| {
            proc.state
                .ruu
                .iter()
                .any(|e| e.pc == load_pc && e.state == EntryState::Issued)
        };
        let quiet = step_until_quiet(&mut proc, load_issued);
        let now = proc.now();
        let due = proc
            .state
            .events
            .next_due(now)
            .expect("the load's completion");
        assert!(due > now + 40, "a memory-latency miss ({due} at {now})");
        assert_eq!(proc.state.fetch.stalled_until(now), None);
        assert_eq!(proc.state.fu.next_release(now), None);
        assert_eq!(proc.skip_quiet(quiet, u64::MAX), due);
        assert!(proc.step().is_none(), "the completion is work");
        assert!(!load_issued(&proc), "the load completed at {due}");
        while !proc.halted() {
            proc.cycle();
        }
        assert_eq!(proc.regs().read_int(r1), 5);
    }

    #[test]
    fn skip_lands_where_a_blocking_divide_frees_its_unit() {
        let (r1, r2, r3, r4) = (
            IntReg::new(1),
            IntReg::new(2),
            IntReg::new(3),
            IntReg::new(4),
        );
        let mut b = ProgramBuilder::new();
        b.addi(r1, IntReg::ZERO, 100);
        b.addi(r2, IntReg::ZERO, 7);
        b.div(r3, r1, r2);
        let loser = b.here();
        b.div(r4, r1, r2); // loses the one divider to the first
        b.halt();
        let p = b.build().unwrap();
        let mut config = MachineConfig::ss1();
        config.fu.int_mul = 1;
        let mut proc = Processor::new(config, &p, FaultInjector::none());
        let loser_pc = p.pc_of(loser);
        let loser_ready = |proc: &Processor| {
            proc.state
                .ruu
                .iter()
                .any(|e| e.pc == loser_pc && e.state == EntryState::Ready)
        };
        let quiet = step_until_quiet(&mut proc, loser_ready);
        let now = proc.now();
        let release = proc
            .state
            .fu
            .next_release(now)
            .expect("the divider is busy");
        assert!(
            release > now + 10,
            "a divide holds its unit ({release} at {now})"
        );
        // The first divide's completion is due as its unit frees; without
        // it the unit alone still wakes the machine there.
        let mut unit_only = proc.state.clone();
        unit_only.events.clear();
        assert_eq!(unit_only.next_wake(now), Some(release));
        assert_eq!(proc.skip_quiet(quiet, u64::MAX), release);
        assert!(proc.step().is_none(), "the loser issues");
        assert!(!loser_ready(&proc));
        while !proc.halted() {
            proc.cycle();
        }
        assert_eq!(proc.regs().read_int(r4), 14);
    }

    #[test]
    fn skip_stops_at_the_deadline() {
        let p = tiny_program();
        let mut proc = Processor::new(MachineConfig::ss1(), &p, FaultInjector::none());
        proc.step();
        let quiet = proc.step().expect("cycle 1 waits for the line");
        assert_eq!(proc.skip_quiet(quiet, 9), 9);
        assert_eq!(
            proc.skip_quiet(quiet, 9),
            9,
            "a passed deadline skips nothing"
        );
        assert_eq!(proc.stats_snapshot().cycles, 9);
        assert_eq!(proc.stats_snapshot().fetch_stall_cycles, 9);
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
