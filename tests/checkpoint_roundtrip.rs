//! Snapshot/restore round-trip properties.
//!
//! The checkpoint subsystem's contract is *bit-identical resumption*: a
//! processor restored from a mid-flight snapshot must, cycle for cycle,
//! compute exactly what the uninterrupted machine computes — same retire
//! stream, same cache traffic, same committed registers and memory, same
//! final statistics. Two layers of evidence here:
//!
//! * a deterministic test that engineers a snapshot point where **every**
//!   scheduler structure is live at once — non-empty ready set, parked
//!   memory entries, pending stores, in-flight wakeups and completion
//!   events — and verifies lock-step equality from there to `halt`;
//! * a deterministic test that snapshots at every cycle of a cold first
//!   load's flight, whose completion sits the configuration's worst-case
//!   latency ahead on the completion wheel;
//! * a property-style sweep (in-tree `proptest` shim) over random
//!   workloads, machine models and snapshot cycles, restoring into a
//!   *fresh* processor and requiring cycle-by-cycle agreement.

use ftsim::core::{MachineConfig, Processor, SchedulerDepths};
use ftsim::faults::FaultInjector;
use ftsim::isa::{asm, Program};
use ftsim::workloads::profile;
use proptest::prelude::*;

/// Steps both machines to `a`'s halt, requiring lock-step equality of the
/// observable per-cycle record (cycle count, retirement, fetch and D-cache
/// streams) and full architectural equality at the end.
fn assert_lockstep_to_halt(a: &mut Processor, b: &mut Processor) {
    let mut guard = 0u64;
    while !a.halted() {
        a.cycle();
        b.cycle();
        let (sa, sb) = (a.stats_snapshot(), b.stats_snapshot());
        assert_eq!(a.now(), b.now(), "cycle clocks diverged");
        assert_eq!(
            sa.retired_instructions,
            sb.retired_instructions,
            "retire streams diverged at cycle {}",
            a.now()
        );
        assert_eq!(
            sa.fetched,
            sb.fetched,
            "fetch streams diverged at cycle {}",
            a.now()
        );
        assert_eq!(
            sa.dl1.accesses,
            sb.dl1.accesses,
            "D-cache traffic diverged at cycle {}",
            a.now()
        );
        assert_eq!(
            a.scheduler_depths(),
            b.scheduler_depths(),
            "scheduler occupancy diverged at cycle {}",
            a.now()
        );
        guard += 1;
        assert!(guard < 1_000_000, "run did not halt");
    }
    assert!(
        b.halted(),
        "restored machine did not halt with the original"
    );
    let (sa, sb) = (a.stats_snapshot(), b.stats_snapshot());
    assert_eq!(sa.cycles, sb.cycles);
    assert_eq!(sa.retired_entries, sb.retired_entries);
    assert_eq!(sa.branch_mispredicts, sb.branch_mispredicts);
    assert_eq!(sa.il1.hits, sb.il1.hits);
    assert_eq!(sa.l2.accesses, sb.l2.accesses);
    assert!(a.regs().diff(b.regs()).is_empty(), "registers diverged");
    assert!(a.mem().diff(b.mem(), 4).is_empty(), "memory diverged");
}

/// A kernel that keeps every scheduler structure busy at once: port-
/// saturating load bursts (parked memory), stores fed by long-latency
/// multiplies (pending stores + in-flight wakeups), and more independent
/// ALU work than the machine can issue (ready backlog).
fn busy_kernel() -> Program {
    asm::assemble(
        r"
            li   r10, 0x100000
            addi r1, r0, 24
            sd   r1, 0(r10)
            sd   r1, 64(r10)
            sd   r1, 128(r10)
        loop:
            mul  r2, r1, r1
            mul  r3, r2, r1
            sd   r2, 0(r10)
            sd   r3, 8(r10)
            ld   r4, 0(r10)
            ld   r5, 64(r10)
            ld   r6, 128(r10)
            add  r7, r4, r5
            add  r8, r6, r1
            add  r9, r7, r8
            addi r10, r10, 16
            addi r1, r1, -1
            bne  r1, r0, loop
            halt
        ",
    )
    .expect("kernel assembles")
}

#[test]
fn snapshot_with_every_structure_live_restores_bit_identically() {
    let program = busy_kernel();
    let mut a = Processor::new(MachineConfig::ss2(), &program, FaultInjector::none());

    // Find a boundary where all five structures hold in-flight state.
    let mut found: Option<SchedulerDepths> = None;
    for _ in 0..2_000 {
        a.cycle();
        let d = a.scheduler_depths();
        if d.waiters > 0 && d.ready > 0 && d.parked_mem > 0 && d.pending_stores > 0 && d.events > 0
        {
            found = Some(d);
            break;
        }
    }
    let depths = found.expect(
        "kernel must reach a cycle with ready + parked + pending-store + wakeup state at once",
    );
    assert!(!a.halted());

    let cp = a.snapshot();
    assert_eq!(cp.cycle(), a.now());
    let mut b = Processor::new(MachineConfig::ss2(), &program, FaultInjector::none());
    b.restore(&cp);
    assert_eq!(
        b.scheduler_depths(),
        depths,
        "restore must reproduce the scheduler occupancy exactly"
    );
    assert_lockstep_to_halt(&mut a, &mut b);
}

/// The first load of a cold machine misses the L1, the L2 and the data
/// TLB, so its completion event lies the configuration's whole worst-case
/// latency ahead — the far end of the completion wheel. A snapshot taken
/// at any cycle of that flight must resume bit-identically.
#[test]
fn snapshot_during_cold_first_load_restores_bit_identically() {
    let program = asm::assemble(
        r"
            li   r10, 0x100000
            ld   r1, 0(r10)
            add  r2, r1, r1
            halt
        ",
    )
    .expect("kernel assembles");
    let config = MachineConfig::ss2();
    let h = &config.hierarchy;
    let full_miss = h.latency.l1_hit + h.latency.l2_hit + h.latency.memory + h.dtlb.miss_penalty;

    // The cycles at which the load is in flight: it has accessed the
    // D-cache and its consumer (the only waiter) still waits on it.
    let mut probe = Processor::new(config.clone(), &program, FaultInjector::none());
    let mut in_flight = Vec::new();
    while !probe.halted() {
        probe.cycle();
        if probe.stats_snapshot().dl1.accesses > 0 && probe.scheduler_depths().waiters > 0 {
            in_flight.push(probe.now());
        }
    }
    assert_eq!(
        in_flight.len() as u64,
        full_miss,
        "the first load pays L1 + L2 + memory + dTLB miss"
    );

    for &at in &in_flight {
        let mut a = Processor::new(config.clone(), &program, FaultInjector::none());
        while a.now() < at {
            a.cycle();
        }
        let cp = a.snapshot();
        let mut b = Processor::new(config.clone(), &program, FaultInjector::none());
        b.restore(&cp);
        assert_eq!(b.scheduler_depths(), a.scheduler_depths());
        assert_lockstep_to_halt(&mut a, &mut b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_midflight_snapshots_restore_bit_identically(
        bench in prop::sample::select(vec!["gcc", "fpppp", "equake", "go", "swim"]),
        model in 0usize..3,
        warmup in 50u64..4_000,
    ) {
        let config = [MachineConfig::ss1(), MachineConfig::ss2(), MachineConfig::ss3_majority()]
            [model].clone();
        let program = profile(bench).expect("profile exists").program_for_instructions(3_000);
        let mut a = Processor::new(config.clone(), &program, FaultInjector::none());
        for _ in 0..warmup {
            if a.halted() {
                break;
            }
            a.cycle();
        }
        prop_assume!(!a.halted()); // a snapshot of a finished run proves nothing

        let cp = a.snapshot();
        prop_assert_eq!(cp.draws(), a.stats_snapshot().dispatched_entries);
        let mut b = Processor::new(config, &program, FaultInjector::none());
        b.restore(&cp);
        assert_lockstep_to_halt(&mut a, &mut b);
    }
}
