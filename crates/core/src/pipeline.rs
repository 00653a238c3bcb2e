//! The processor: pipeline state and the per-cycle stage driver.
//!
//! Stage methods live in sibling modules (`commit`, `writeback`, `issue`,
//! `dispatch`) as `impl Processor` blocks; this module owns the shared
//! state and the cross-cutting mechanics (branch rewind, full rewind,
//! wakeup).

use crate::config::MachineConfig;
use crate::entry::{Entry, EntryState, Operand};
use crate::fetch::FetchUnit;
use crate::fu::FuPool;
use crate::lsq::Lsq;
use crate::profile::{NoProbe, SampledProbe, StageProbe};
use crate::rename::{MapCheckpoint, MapTable};
use crate::ruu::Ruu;
use crate::sched::Scheduler;
use crate::seqhash::SeqHashMap;
use crate::stats::SimStats;
use crate::wheel::EventWheel;
use ftsim_faults::{FaultFate, FaultInjector, FaultLog};
use ftsim_isa::{ArchRegs, Program};
use ftsim_mem::{Hierarchy, SparseMemory};
use std::sync::Arc;

/// The complete microarchitectural state of one simulated processor.
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
    pub(crate) now: u64,
    pub(crate) next_seq: u64,
    pub(crate) next_group: u64,
    pub(crate) ruu: Ruu,
    pub(crate) lsq: Lsq,
    pub(crate) map: MapTable,
    pub(crate) checkpoints: SeqHashMap<u64, MapCheckpoint>,
    pub(crate) regs: ArchRegs,
    pub(crate) mem: SparseMemory,
    /// The ECC-protected committed next-PC register (§3.2): "an
    /// ECC-protected register must hold the next-PC of the last committed
    /// instruction as part of the committed program state."
    pub(crate) committed_next_pc: u64,
    pub(crate) fetch: FetchUnit,
    pub(crate) hierarchy: Hierarchy,
    pub(crate) fu: FuPool,
    /// Scheduled completion events, one wheel slot per cycle.
    pub(crate) events: EventWheel,
    pub(crate) injector: FaultInjector,
    pub(crate) fault_log: FaultLog,
    pub(crate) stats: SimStats,
    pub(crate) halted: bool,
    pub(crate) pending_rewind_start: Option<u64>,
    pub(crate) last_commit_cycle: u64,
    /// Event-driven scheduler state: wakeup wait-lists, the ready queue
    /// and the pending-store list.
    pub(crate) sched: Scheduler,
    /// Reused buffer for squashed entries (branch and full rewinds).
    pub(crate) squash_scratch: Vec<Entry>,
    /// Reused buffer for the commit stage's head-group snapshot.
    pub(crate) commit_scratch: Vec<Entry>,
    /// **Deliberately planted defect, off unless `FTSIM_PLANT` is set.**
    ///
    /// Counts load issue attempts that failed on a store-set dependence
    /// (wait-for-data or address conflict). The defect is that this
    /// counter is *not* part of [`Checkpoint`](crate::Checkpoint) state
    /// but *is* folded into the `load_forwards` statistic by
    /// [`Processor::stats_snapshot`]: a run forked from a checkpoint
    /// restores into a fresh processor whose counter restarts at zero, so
    /// its records under-count relative to an identical cold run. The
    /// `ftsim-fuzz` acceptance tests flip `FTSIM_PLANT` on to prove the
    /// forked-vs-cold identity invariant actually catches (and shrinks)
    /// this class of bug; production runs never set the variable, and the
    /// counter then stays zero and unobservable.
    pub(crate) plant_counter: u64,
    /// Whether `FTSIM_PLANT` was set when this processor was built (the
    /// planted defect above is active).
    pub(crate) plant_enabled: bool,
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
    /// program, cloned by reference count into every cell. Committed
    /// memory starts as a copy-on-write view of the program's data image
    /// ([`Program::initial_memory`]), so a build copies no data bytes.
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
            now: 0,
            next_seq: 0,
            next_group: 0,
            ruu: Ruu::new(config.ruu_size),
            lsq: Lsq::new(config.lsq_size),
            map: MapTable::new(),
            checkpoints: SeqHashMap::default(),
            regs: ArchRegs::new(),
            mem: program.initial_memory(),
            committed_next_pc: program.entry(),
            fetch: FetchUnit::new(&config, program.entry()),
            hierarchy: Hierarchy::new(&config.hierarchy),
            fu: FuPool::new(&config.fu, config.lat),
            events: EventWheel::new(config.max_completion_latency()),
            injector,
            fault_log: FaultLog::new(),
            stats: SimStats::default(),
            halted: false,
            pending_rewind_start: None,
            last_commit_cycle: 0,
            sched: Scheduler::default(),
            squash_scratch: Vec::new(),
            commit_scratch: Vec::new(),
            plant_counter: 0,
            plant_enabled: std::env::var_os("FTSIM_PLANT").is_some(),
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
            self.cycle_with(SampledProbe::new(self.now));
        } else {
            self.cycle_with(NoProbe);
        }
    }

    /// The one cycle body. `probe` observes each stage it wraps (see
    /// [`crate::profile`]) and never touches machine state, so the
    /// machine evolves identically under either probe.
    fn cycle_with<P: StageProbe>(&mut self, mut probe: P) {
        self.hierarchy.begin_cycle();
        probe.stage(0, || self.stage_commit());
        if !self.halted {
            probe.stage(1, || self.stage_writeback());
            probe.stage(2, || self.stage_issue());
            probe.stage(3, || self.stage_dispatch());
            probe.stage(4, || {
                self.fetch
                    .fetch_cycle(self.now, &self.program, &mut self.hierarchy);
            });
        }
        self.stats.ruu_occupancy_sum += self.ruu.len() as u64;
        self.stats.lsq_occupancy_sum += self.lsq.len() as u64;
        #[cfg(debug_assertions)]
        self.assert_group_invariants();
        self.stats.cycles += 1;
        self.now += 1;
        probe.end_cycle();
    }

    /// Whether `halt` has committed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Committed architectural registers.
    pub fn regs(&self) -> &ArchRegs {
        &self.regs
    }

    /// Committed memory.
    pub fn mem(&self) -> &SparseMemory {
        &self.mem
    }

    /// A synchronized snapshot of the statistics gathered so far: the
    /// core counters plus the cache, fetch and fault counters that live
    /// in their own units, folded in at read time. Needs only `&self` —
    /// inspection never mutates the machine.
    pub fn stats_snapshot(&self) -> SimStats {
        let mut stats = self.stats.clone();
        let (il1, dl1, l2) = self.hierarchy.cache_stats();
        stats.il1 = il1;
        stats.dl1 = dl1;
        stats.l2 = l2;
        let f = self.fetch.stats();
        stats.fetched = f.fetched;
        stats.fetch_stall_cycles = f.stall_cycles;
        stats.icache_stall_cycles = f.icache_stall_cycles;
        stats.faults = self.fault_log.counts();
        stats.fault_sites = self.fault_log.per_site();
        stats.fault_latency = self.fault_log.latency();
        if self.plant_enabled {
            // Deliberately wrong when FTSIM_PLANT is set — see the
            // `plant_counter` field docs.
            stats.load_forwards += self.plant_counter;
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
        for (_, value) in self.regs.iter() {
            fold(value);
        }
        fold(self.committed_next_pc);
        fold(u64::from(self.halted));
        self.mem.content_digest(h)
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The fault ledger.
    pub fn fault_log(&self) -> &FaultLog {
        &self.fault_log
    }

    /// Mutable access to the fault injector.
    ///
    /// Forking uses this to fast-forward a freshly built cell's injector
    /// past a restored fault-free prefix (see
    /// [`FaultInjector::fast_forward_fault_free`]).
    pub fn injector_mut(&mut self) -> &mut FaultInjector {
        &mut self.injector
    }

    /// In-flight RUU occupancy (tests/inspection).
    pub fn ruu_len(&self) -> usize {
        self.ruu.len()
    }

    /// Occupancy of the event-driven scheduler's structures — how much
    /// genuinely in-flight state a snapshot at this boundary captures.
    pub fn scheduler_depths(&self) -> SchedulerDepths {
        let (waiters, ready, parked_mem, pending_stores) = self.sched.depths();
        SchedulerDepths {
            waiters,
            ready,
            parked_mem,
            pending_stores,
            events: self.events.len(),
        }
    }

    /// The degree of redundancy R.
    pub(crate) fn r(&self) -> u64 {
        u64::from(self.config.redundancy.r)
    }

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

    /// Selective squash after a branch rewind: removes every entry younger
    /// than `cutoff_seq`, restores the branch's map checkpoint, and marks
    /// squashed faults as wrong-path.
    pub(crate) fn branch_rewind(&mut self, branch_group: u64, cutoff_seq: u64, new_target: u64) {
        let (now, retired) = (self.now, self.stats.retired_instructions);
        let mut squashed = std::mem::take(&mut self.squash_scratch);
        self.ruu.squash_after_into(cutoff_seq, &mut squashed);
        let mut squashed_mem = 0;
        for e in &squashed {
            self.sched.on_squash(e.seq);
            squashed_mem += usize::from(e.inst.op.is_mem());
            if let Some((id, _)) = e.fault {
                self.fault_log
                    .resolve(id, FaultFate::SquashedWrongPath, now, retired);
            }
            // Squashed younger branches' checkpoints are dead.
            if e.inst.op.is_control() && e.copy == 0 {
                self.checkpoints.remove(&e.group);
            }
        }
        squashed.clear();
        self.squash_scratch = squashed;
        self.sched.squash_after(cutoff_seq);
        self.lsq.squash_after(cutoff_seq, squashed_mem);
        let cp = self
            .checkpoints
            .get(&branch_group)
            .expect("branch group has a checkpoint")
            .clone();
        self.map.restore(&cp);
        self.fetch
            .redirect(new_target, self.now + 1 + self.config.lat.mispredict_extra);
        self.stats.branch_rewinds += 1;
    }

    /// Full rewind (§3.2 Recovery): "discard the entire ROB contents and
    /// restart execution by refetching from the committed next-PC
    /// register."
    pub(crate) fn full_rewind(&mut self, cause: crate::stats::RewindCause) {
        let (now, retired) = (self.now, self.stats.retired_instructions);
        let mut squashed = std::mem::take(&mut self.squash_scratch);
        self.ruu.squash_all_into(&mut squashed);
        for e in &squashed {
            if let Some((id, _)) = e.fault {
                self.fault_log
                    .resolve(id, FaultFate::SquashedByRewind, now, retired);
            }
        }
        squashed.clear();
        self.squash_scratch = squashed;
        self.lsq.squash_all();
        self.sched.clear();
        debug_assert!(self.lsq.is_empty() && self.ruu.is_empty());
        self.checkpoints.clear();
        self.map.clear();
        // Every entry is gone, so every scheduled completion is stale.
        self.events.clear();
        self.fu.reset();
        self.fetch.rewind(
            self.committed_next_pc,
            self.now + 1 + self.config.lat.mispredict_extra,
        );
        self.pending_rewind_start = Some(self.now);
        match cause {
            crate::stats::RewindCause::FaultDetected => self.stats.fault_rewinds += 1,
            crate::stats::RewindCause::ControlFlowCheck => self.stats.pc_check_rewinds += 1,
        }
    }

    /// Debug invariant: every replication group in the RUU is contiguous,
    /// complete, and placed so copies have consecutive sequence numbers
    /// (the paper's ⌊i/R⌋ placement rule).
    #[cfg(debug_assertions)]
    pub(crate) fn assert_group_invariants(&self) {
        let r = self.r();
        let mut iter = self.ruu.iter().peekable();
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

impl Processor {
    /// Marks the entry at index handle `idx` (sequence `seq`) issued and
    /// schedules its completion event.
    pub(crate) fn schedule_completion_at(&mut self, idx: usize, seq: u64, at: u64) {
        debug_assert_eq!(self.ruu.at(idx).seq, seq, "stale index handle");
        self.events.push(self.now, at, seq);
        self.ruu.at_mut(idx).state = EntryState::Issued;
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
        assert_eq!(proc.committed_next_pc, p.entry());
        while !proc.halted() {
            proc.cycle();
        }
        // After halt commits, next-PC is one past the halt.
        assert_eq!(proc.committed_next_pc, p.entry() + 8);
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
            if proc.events.len() > 0 {
                break;
            }
        }
        assert!(proc.events.len() > 0, "a completion event is in flight");
        // Force the rewind the commit stage would issue on a detected
        // fault.
        proc.full_rewind(crate::stats::RewindCause::FaultDetected);
        assert!(
            proc.events.len() == 0,
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
