//! Whole-machine snapshot and restore.
//!
//! A [`Processor`] keeps everything it evolves during a run in one
//! `MachineState`. A [`Checkpoint`] is a clone of it and a restore
//! assigns the clone back, so state added to the machine is captured by
//! construction. A restored run continues **bit-identically**; the
//! experiment harness uses this to share a sweep's fault-free prefix:
//! one baseline run drops periodic checkpoints, and each faulty cell
//! forks ([`fork_point`], [`Processor::fork`]) from the newest one that
//! precedes its first possible fault injection.
//!
//! Outside `MachineState`, and so outside every checkpoint, are the
//! configuration and program (a checkpoint keeps them only as an
//! identity guard), the **fault injector** (a fork continues under a
//! different injector than the baseline's, fast-forwarded over
//! [`Checkpoint::draws`]), the scratch buffers (empty between cycles),
//! and the `plant` feature's defect counter, left out on purpose.
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
use crate::rename::{BranchMaps, MapTable};
use crate::ruu::Ruu;
use crate::sched::Scheduler;
use crate::stats::SimStats;
use crate::wheel::EventWheel;
use ftsim_faults::FaultLog;
use ftsim_isa::{ArchRegs, Program};
use ftsim_mem::{Hierarchy, SparseMemory};
use std::sync::Arc;

/// Everything a [`Processor`] evolves during a run, and nothing else: a
/// snapshot is `state.clone()` and a restore is an assignment.
#[derive(Debug, Clone)]
pub(crate) struct MachineState {
    pub(crate) now: u64,
    pub(crate) next_seq: u64,
    pub(crate) next_group: u64,
    pub(crate) ruu: Ruu,
    pub(crate) lsq: Lsq,
    pub(crate) map: MapTable,
    /// Rename-map checkpoints of in-flight branches, oldest first.
    pub(crate) checkpoints: BranchMaps,
    pub(crate) regs: ArchRegs,
    pub(crate) mem: SparseMemory,
    /// The ECC-protected committed next-PC register (§3.2): "an
    /// ECC-protected register must hold the next-PC of the last committed
    /// instruction as part of the committed program state."
    pub(crate) committed_next_pc: u64,
    pub(crate) fetch: FetchUnit,
    pub(crate) hierarchy: Hierarchy,
    pub(crate) fu: FuPool,
    /// Scheduled completion events, one wheel bucket per cycle.
    pub(crate) events: EventWheel,
    pub(crate) fault_log: FaultLog,
    pub(crate) stats: SimStats,
    pub(crate) halted: bool,
    pub(crate) pending_rewind_start: Option<u64>,
    pub(crate) last_commit_cycle: u64,
    /// Event-driven scheduler state, keyed by RUU slot: wakeup
    /// wait-lists and the ready, parked-memory and pending-store sets.
    pub(crate) sched: Scheduler,
}

impl MachineState {
    /// The reset state of a machine over `config` and `program`; memory
    /// is a copy-on-write view of the data image, so no bytes are copied.
    pub(crate) fn new(config: &MachineConfig, program: &Program) -> Self {
        Self {
            now: 0,
            next_seq: 0,
            next_group: 0,
            ruu: Ruu::new(config.ruu_size),
            lsq: Lsq::new(
                config.lsq_size,
                config.ruu_size,
                usize::from(config.redundancy.r),
            ),
            map: MapTable::new(),
            checkpoints: BranchMaps::default(),
            regs: ArchRegs::new(),
            mem: program.initial_memory(),
            committed_next_pc: program.entry(),
            fetch: FetchUnit::new(config, program.entry()),
            hierarchy: Hierarchy::new(&config.hierarchy),
            fu: FuPool::new(&config.fu, config.lat),
            events: EventWheel::new(config.max_completion_latency()),
            fault_log: FaultLog::new(),
            stats: SimStats::default(),
            halted: false,
            pending_rewind_start: None,
            last_commit_cycle: 0,
            sched: Scheduler::new(config.ruu_size),
        }
    }
}

/// A complete, restorable snapshot of one [`Processor`] between cycles.
///
/// Obtain via [`Processor::snapshot`] (or
/// [`Simulator::run_with_checkpoints`](crate::Simulator::run_with_checkpoints)),
/// restore via [`Processor::restore`] or [`Processor::fork`]. The snapshot
/// records the identity of the machine it was taken from (configuration
/// and program) and refuses to restore into a mismatched processor.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Identity guard: configuration of the source machine.
    config: MachineConfig,
    /// Identity guard: the shared program image.
    program: Arc<Program>,
    state: MachineState,
}

impl Checkpoint {
    /// The cycle at which the snapshot was taken; a restored machine's
    /// next [`Processor::cycle`] executes this cycle.
    pub fn cycle(&self) -> u64 {
        self.state.now
    }

    /// Number of fault-injector draws the machine had made when the
    /// snapshot was taken (exactly one draw per dispatched RUU entry).
    ///
    /// [`Processor::fork`] fast-forwards the injector over this many
    /// draws, which is sound only when the forked cell's first possible
    /// injection lies at or beyond this draw index ([`fork_point`]).
    pub fn draws(&self) -> u64 {
        self.state.next_seq
    }

    /// Architectural instructions retired at snapshot time.
    pub fn retired_instructions(&self) -> u64 {
        self.state.stats.retired_instructions
    }

    /// Whether the snapshot was taken from a machine whose `halt` had
    /// already committed.
    pub fn halted(&self) -> bool {
        self.state.halted
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
        let pages = self.state.mem.page_count() as u64 * ftsim_mem::PAGE_BYTES as u64;
        // An RUU entry carries operands, results and per-copy check
        // state; ~256 bytes each. LSQ entries are lighter.
        let queues = self.state.ruu.len() as u64 * 256 + self.state.lsq.len() as u64 * 128;
        caches + pages + queues + 4096
    }
}

/// The checkpoint a cell whose first possible fault injection is draw
/// `bound` ([`ftsim_faults::FaultInjector::first_possible_fire`]) forks
/// from: the newest of `checkpoints` taken at or before that draw, since
/// a fault at or before a checkpoint's draw count would already have
/// diverged the machine. `None` when that is the cycle-0 state.
pub fn fork_point(checkpoints: &[Checkpoint], bound: u64) -> Option<&Checkpoint> {
    checkpoints
        .iter()
        .rev()
        .find(|cp| cp.draws() <= bound)
        .filter(|cp| cp.cycle() > 0)
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
            state: self.state.clone(),
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
    /// already cloned out of shared storage.
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
        self.state = cp.state;
    }

    /// Forks a sweep cell from `cp`, chosen by [`fork_point`]: restores it
    /// and fast-forwards this processor's fault injector over the
    /// checkpoint's [`Checkpoint::draws`], so the draw stream continues
    /// where a cold run of the cell would be.
    ///
    /// # Panics
    ///
    /// As [`Processor::restore`].
    pub fn fork(&mut self, cp: Checkpoint) {
        let draws = cp.draws();
        self.restore_owned(cp);
        self.injector.fast_forward_fault_free(draws);
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
            cp.state.mem.pages_shared_with(proc.mem()) == proc.mem().page_count(),
            "snapshot must not deep-copy pages"
        );
    }

    /// Runs `proc` to halt, snapshotting every 10 cycles.
    fn run_with_snapshots(proc: &mut Processor) -> Vec<Checkpoint> {
        let mut cps = Vec::new();
        while !proc.halted() {
            if proc.now() % 10 == 0 {
                cps.push(proc.snapshot());
            }
            proc.cycle();
        }
        cps
    }

    #[test]
    fn fork_point_takes_the_newest_checkpoint_at_or_before_the_bound() {
        let p = busy_program();
        let mut proc = Processor::new(MachineConfig::ss2(), &p, FaultInjector::none());
        let cps = run_with_snapshots(&mut proc);
        assert_eq!(cps[0].cycle(), 0);
        let pick = |bound| fork_point(&cps, bound).map(Checkpoint::cycle);
        let mid = cps[cps.len() / 2].draws();
        let newest_at_mid = cps.iter().rev().find(|cp| cp.draws() == mid).unwrap();
        assert_eq!(pick(mid), Some(newest_at_mid.cycle()));
        assert_eq!(pick(u64::MAX), cps.last().map(Checkpoint::cycle));
        assert!(
            fork_point(&cps[..1], u64::MAX).is_none(),
            "cycle 0 never forks"
        );
    }

    #[test]
    fn fork_continues_a_faulty_run_exactly_where_its_cold_run_is() {
        let p = busy_program();
        let injector = || FaultInjector::random(0.004, 11);
        let bound = injector()
            .first_possible_fire(1 << 20)
            .expect("a fault fires");
        let mut baseline = Processor::new(MachineConfig::ss2(), &p, FaultInjector::none());
        let cp = fork_point(&run_with_snapshots(&mut baseline), bound)
            .expect("a checkpoint precedes the first fire")
            .clone();
        assert!(cp.draws() > 0, "the fork skips a prefix of draws");

        let mut cold = Processor::new(MachineConfig::ss2(), &p, injector());
        let mut forked = Processor::new(MachineConfig::ss2(), &p, injector());
        forked.fork(cp);
        for proc in [&mut cold, &mut forked] {
            while !proc.halted() {
                proc.cycle();
            }
        }
        let (c, f) = (cold.stats_snapshot(), forked.stats_snapshot());
        assert!(c.faults.injected > 0, "the suffix injects faults");
        assert_eq!(format!("{c:?}"), format!("{f:?}"));
        assert_eq!(cold.state_digest(), forked.state_digest());
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
