//! Whole-machine snapshot and restore.
//!
//! A [`Checkpoint`] captures every piece of microarchitectural and
//! architectural state a [`Processor`] evolves during a run — the RUU
//! (whose entries carry load values), the LSQ's slot count and store
//! index, the event-driven scheduler
//! (wait-lists, ready queue, deferred/parked entries, pending stores), the
//! rename map and its per-branch checkpoints, committed registers and
//! copy-on-write memory, the committed next-PC register, the whole front
//! end (fetch queue, predictor/BTB/RAS training state, stall clock), cache
//! and TLB contents, functional-unit busy clocks, the completion-event
//! wheel, the fault ledger, and the statistics counters.
//!
//! Restoring a checkpoint into a processor built over the same
//! configuration and program therefore resumes the run **bit-identically**:
//! every subsequent cycle computes exactly what the uninterrupted run would
//! have computed. The experiment harness leans on this to share the
//! fault-free prefix of a sweep across grid cells: one baseline run drops
//! periodic checkpoints, and each faulty cell forks from the newest
//! checkpoint that precedes its first possible fault injection.
//!
//! What a checkpoint deliberately does **not** capture:
//!
//! * the **fault injector** — a fork's whole point is to continue under a
//!   *different* injector than the baseline's; the caller pairs a restore
//!   with [`ftsim_faults::FaultInjector::fast_forward_fault_free`] so the
//!   injector's draw stream stays aligned with the restored draw count
//!   (one draw per dispatched entry, i.e. [`Checkpoint::draws`]);
//! * the reusable scratch buffers — they are empty between cycles and
//!   carry no machine state.
//!
//! Cost: cloning the caches/TLB tag arrays dominates (a few hundred KB for
//! the default Table 1 hierarchy); memory pages are shared copy-on-write
//! (see [`SparseMemory`](ftsim_mem::SparseMemory)), so repeated snapshots
//! of a multi-megabyte footprint stay cheap.

use crate::config::MachineConfig;
use crate::fetch::FetchUnit;
use crate::fu::FuPool;
use crate::lsq::Lsq;
use crate::pipeline::Processor;
use crate::rename::{MapCheckpoint, MapTable};
use crate::ruu::Ruu;
use crate::sched::Scheduler;
use crate::seqhash::SeqHashMap;
use crate::stats::SimStats;
use crate::wheel::EventWheel;
use ftsim_faults::FaultLog;
use ftsim_isa::{ArchRegs, Program};
use ftsim_mem::{Hierarchy, SparseMemory};
use std::sync::Arc;

/// A complete, restorable snapshot of one [`Processor`] between cycles.
///
/// Obtain via [`Processor::snapshot`] (or
/// [`Simulator::run_with_checkpoints`](crate::Simulator::run_with_checkpoints)),
/// restore via [`Processor::restore`]. The snapshot records the identity of
/// the machine it was taken from (configuration and program) and refuses to
/// restore into a mismatched processor.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Identity guard: configuration of the source machine.
    config: MachineConfig,
    /// Identity guard + restore source: the shared program image.
    program: Arc<Program>,
    now: u64,
    next_seq: u64,
    next_group: u64,
    ruu: Ruu,
    lsq: Lsq,
    map: MapTable,
    map_checkpoints: SeqHashMap<u64, MapCheckpoint>,
    regs: ArchRegs,
    mem: SparseMemory,
    committed_next_pc: u64,
    fetch: FetchUnit,
    hierarchy: Hierarchy,
    fu: FuPool,
    events: EventWheel,
    fault_log: FaultLog,
    stats: SimStats,
    halted: bool,
    pending_rewind_start: Option<u64>,
    last_commit_cycle: u64,
    sched: Scheduler,
}

impl Checkpoint {
    /// The cycle at which the snapshot was taken; a restored machine's
    /// next [`Processor::cycle`] executes this cycle.
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// Number of fault-injector draws the machine had made when the
    /// snapshot was taken (exactly one draw per dispatched RUU entry).
    ///
    /// A fork pairs [`Processor::restore`] with
    /// [`ftsim_faults::FaultInjector::fast_forward_fault_free`] over this
    /// many draws, and is sound only when the forked cell's first possible
    /// injection lies at or beyond this draw index.
    pub fn draws(&self) -> u64 {
        self.next_seq
    }

    /// Architectural instructions retired at snapshot time.
    pub fn retired_instructions(&self) -> u64 {
        self.stats.retired_instructions
    }

    /// Whether the snapshot was taken from a machine whose `halt` had
    /// already committed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Rough retained size of this snapshot in bytes, for observability
    /// (checkpoint-volume metrics), **not** accounting. Counts the
    /// dominant terms — cache/TLB tag arrays from the configured
    /// geometry, referenced memory pages (shared copy-on-write pages
    /// count fully here, so repeated snapshots over-report), and the
    /// occupied RUU/LSQ entries — and ignores small fixed-size state.
    pub fn approx_bytes(&self) -> u64 {
        // Per cache line the simulator keeps a tag + state word besides
        // the data; ~16 bytes of metadata per line is close enough for a
        // trend metric.
        let cache = |c: &ftsim_mem::CacheConfig| {
            let lines = (c.size_bytes / c.line_bytes) as u64;
            c.size_bytes as u64 + lines * 16
        };
        let h = &self.config.hierarchy;
        let caches = cache(&h.il1) + cache(&h.dl1) + cache(&h.l2);
        let pages = self.mem.page_count() as u64 * ftsim_mem::PAGE_BYTES as u64;
        // An RUU entry carries operands, results and per-copy check
        // state; ~256 bytes each. LSQ entries are lighter.
        let queues = self.ruu.len() as u64 * 256 + self.lsq.len() as u64 * 128;
        caches + pages + queues + 4096
    }
}

impl Processor {
    /// Captures the complete machine state between cycles.
    ///
    /// Call only at a cycle boundary (never from inside a stage); the
    /// per-cycle scratch buffers are empty there, so nothing transient is
    /// lost. Memory pages are shared copy-on-write rather than copied.
    pub fn snapshot(&self) -> Checkpoint {
        Checkpoint {
            config: self.config.clone(),
            program: Arc::clone(&self.program),
            now: self.now,
            next_seq: self.next_seq,
            next_group: self.next_group,
            ruu: self.ruu.clone(),
            lsq: self.lsq.clone(),
            map: self.map.clone(),
            map_checkpoints: self.checkpoints.clone(),
            regs: self.regs.clone(),
            mem: self.mem.clone(),
            committed_next_pc: self.committed_next_pc,
            fetch: self.fetch.clone(),
            hierarchy: self.hierarchy.clone(),
            fu: self.fu.clone(),
            events: self.events.clone(),
            fault_log: self.fault_log.clone(),
            stats: self.stats.clone(),
            halted: self.halted,
            pending_rewind_start: self.pending_rewind_start,
            last_commit_cycle: self.last_commit_cycle,
            sched: self.sched.clone(),
        }
    }

    /// Restores the machine to `cp`'s state; the run then continues
    /// bit-identically to the uninterrupted original.
    ///
    /// The processor's own fault injector is deliberately left in place
    /// (see the module docs); everything else — including the statistics
    /// prefix, which is how forked sweep cells keep their records
    /// byte-identical to cold-start runs — comes from the checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint was taken from a machine with a different
    /// configuration or program: resuming foreign state on a mismatched
    /// machine would silently compute garbage.
    pub fn restore(&mut self, cp: &Checkpoint) {
        self.restore_owned(cp.clone());
    }

    /// As [`Processor::restore`], consuming the checkpoint — the state
    /// moves in without a second copy. Prefer this when the checkpoint was
    /// already cloned out of shared storage (the forked-cell path).
    ///
    /// # Panics
    ///
    /// As [`Processor::restore`].
    pub fn restore_owned(&mut self, cp: Checkpoint) {
        assert!(
            self.config == cp.config,
            "checkpoint from machine `{}` cannot restore into `{}` (configuration differs)",
            cp.config.name,
            self.config.name
        );
        assert!(
            Arc::ptr_eq(&self.program, &cp.program) || *self.program == *cp.program,
            "checkpoint was taken over a different program"
        );
        self.now = cp.now;
        self.next_seq = cp.next_seq;
        self.next_group = cp.next_group;
        self.ruu = cp.ruu;
        self.lsq = cp.lsq;
        self.map = cp.map;
        self.checkpoints = cp.map_checkpoints;
        self.regs = cp.regs;
        self.mem = cp.mem;
        self.committed_next_pc = cp.committed_next_pc;
        self.fetch = cp.fetch;
        self.hierarchy = cp.hierarchy;
        self.fu = cp.fu;
        self.events = cp.events;
        self.fault_log = cp.fault_log;
        self.stats = cp.stats;
        self.halted = cp.halted;
        self.pending_rewind_start = cp.pending_rewind_start;
        self.last_commit_cycle = cp.last_commit_cycle;
        self.sched = cp.sched;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use ftsim_faults::FaultInjector;
    use ftsim_isa::asm;

    fn busy_program() -> Program {
        asm::assemble(
            r"
                addi r1, r0, 40
                addi r2, r0, 0
                addi r3, r0, 256
            loop:
                mul  r4, r1, r1
                sd   r4, 0(r3)
                ld   r5, 0(r3)
                add  r2, r2, r5
                addi r3, r3, 8
                addi r1, r1, -1
                bne  r1, r0, loop
                halt
            ",
        )
        .unwrap()
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let p = busy_program();
        let mut a = Processor::new(MachineConfig::ss2(), &p, FaultInjector::none());
        for _ in 0..150 {
            a.cycle();
        }
        assert!(!a.halted(), "snapshot point must be mid-flight");
        let cp = a.snapshot();
        assert_eq!(cp.cycle(), 150);
        assert_eq!(cp.draws(), a.stats_snapshot().dispatched_entries);

        let mut b = Processor::new(MachineConfig::ss2(), &p, FaultInjector::none());
        b.restore(&cp);
        while !a.halted() {
            a.cycle();
            b.cycle();
            assert_eq!(a.now(), b.now());
        }
        assert!(b.halted());
        let (sa, sb) = (a.stats_snapshot(), b.stats_snapshot());
        assert_eq!(sa.cycles, sb.cycles);
        assert_eq!(sa.retired_instructions, sb.retired_instructions);
        assert_eq!(sa.fetched, sb.fetched);
        assert_eq!(sa.dl1.accesses, sb.dl1.accesses);
        assert!(a.regs().diff(b.regs()).is_empty());
        assert!(a.mem().diff(b.mem(), 4).is_empty());
    }

    #[test]
    fn snapshot_shares_memory_pages() {
        let p = busy_program();
        let mut proc = Processor::new(MachineConfig::ss1(), &p, FaultInjector::none());
        while !proc.halted() {
            proc.cycle();
        }
        let cp = proc.snapshot();
        assert!(
            cp.mem.pages_shared_with(proc.mem()) == proc.mem().page_count(),
            "snapshot must not deep-copy pages"
        );
    }

    #[test]
    #[should_panic(expected = "configuration differs")]
    fn mismatched_config_is_rejected() {
        let p = busy_program();
        let a = Processor::new(MachineConfig::ss1(), &p, FaultInjector::none());
        let cp = a.snapshot();
        let mut b = Processor::new(MachineConfig::ss2(), &p, FaultInjector::none());
        b.restore(&cp);
    }

    #[test]
    #[should_panic(expected = "different program")]
    fn mismatched_program_is_rejected() {
        let a_prog = busy_program();
        let b_prog = asm::assemble("addi r1, r0, 1\nhalt\n").unwrap();
        let a = Processor::new(MachineConfig::ss1(), &a_prog, FaultInjector::none());
        let cp = a.snapshot();
        let mut b = Processor::new(MachineConfig::ss1(), &b_prog, FaultInjector::none());
        b.restore(&cp);
    }
}
