//! The quiet-cycle skip against single-stepping.
//!
//! `Simulator::run` jumps the clock over quiet cycles — cycles in which no
//! stage did any work — to the next cycle at which something can happen,
//! and adds the skipped cycles' counters at once. `Processor::cycle`
//! still advances exactly one cycle. This runs every fuzz program of a
//! seed range both ways under the same limits, on SS-1, SS-2 and SS-3M,
//! fault-free and at a high fault rate, and requires the same statistics,
//! state digest and fault ledger, or the same error. A checkpointed run
//! must also take its snapshots at the cycles and draw counts
//! single-stepping takes them at.

use ftsim_core::{
    Checkpoint, MachineConfig, OracleMode, Processor, RunLimits, SimError, SimStats, Simulator,
};
use ftsim_faults::{per_million, FaultCounts, FaultInjector};
use ftsim_workloads::FuzzSpec;

/// Fault rates (per million instructions): fault-free, and high enough
/// that rewinds and hangs occur.
const RATES: [f64; 2] = [0.0, 20_000.0];

/// Checkpoint interval of the checkpointed run: odd, so boundaries fall
/// inside quiet spans rather than on their ends.
const EVERY: u64 = 97;

/// How a run ended: its statistics, committed-state digest and fault
/// counts, or its error.
type End = Result<(SimStats, u64, FaultCounts), SimError>;

fn simulator(
    config: &MachineConfig,
    spec: &FuzzSpec,
    rate_pm: f64,
    limits: RunLimits,
) -> Simulator {
    let program = spec.generate().program;
    Simulator::builder()
        .config(config.clone())
        .program(&program)
        .injector(FaultInjector::random(per_million(rate_pm), spec.seed))
        .oracle(OracleMode::Off)
        .limits(limits)
        .build()
        .expect("fuzz cells build")
}

/// The program's instruction budget, with a cycle ceiling and watchdog
/// tight enough that the hangs and runaways of unprotected faulty runs end
/// quickly when single-stepped (fault-free runs stay far inside both).
fn limits(budget: u64) -> RunLimits {
    RunLimits {
        max_cycles: 20 * budget.max(1_000),
        max_instructions: budget,
        watchdog: 2_000,
    }
}

/// Drives `proc` one cycle at a time through the run loop's checks, in
/// the run loop's order, calling `boundary` where the loop would consider
/// a snapshot.
fn step_to_end(
    proc: &mut Processor,
    limits: RunLimits,
    mut boundary: impl FnMut(&Processor),
) -> End {
    let (mut retired, mut last_commit) = (0, 0);
    while !proc.halted() && retired < limits.max_instructions {
        let now = proc.now();
        if now >= limits.max_cycles {
            return Err(SimError::CycleLimit {
                cycles: now,
                retired,
            });
        }
        if now - last_commit > limits.watchdog {
            return Err(SimError::Watchdog { cycle: now });
        }
        boundary(proc);
        proc.cycle();
        let r = proc.stats_snapshot().retired_instructions;
        if r != retired {
            (retired, last_commit) = (r, now);
        }
    }
    let stats = proc.stats_snapshot();
    Ok((stats.clone(), proc.state_digest(), stats.faults))
}

fn skipped_end(outcome: Result<ftsim_core::SimResult, SimError>) -> End {
    outcome.map(|r| (r.stats, r.state_digest, r.faults))
}

fn check_seeds(seeds: std::ops::Range<u64>, config: &MachineConfig) {
    for seed in seeds {
        let spec = FuzzSpec::from_seed(seed);
        let budget = spec.generate().expected_retired;
        let limits = limits(budget);
        let mut fault_free = None;
        for rate in RATES {
            let cell = format!("seed {seed}, {}, rate {rate}", config.name);
            let skipped = skipped_end(simulator(config, &spec, rate, limits).run());
            let mut sim = simulator(config, &spec, rate, limits);
            let stepped = step_to_end(sim.processor_mut(), limits, |_| {});
            assert_eq!(skipped, stepped, "{cell}: skipping diverged from stepping");
            if rate == 0.0 {
                assert!(stepped.is_ok(), "{cell}: fault-free run failed");
            }
            fault_free.get_or_insert(stepped);
        }

        // Snapshots every EVERY cycles until about half the run's draws
        // (R per retired instruction) have been made.
        let cell = format!("seed {seed}, {}, checkpointed", config.name);
        let horizon = budget * u64::from(config.redundancy.r) / 2;
        let (outcome, checkpoints) =
            simulator(config, &spec, 0.0, limits).run_with_checkpoints(EVERY, horizon);
        let taken: Vec<(u64, u64)> = checkpoints
            .iter()
            .map(|cp: &Checkpoint| (cp.cycle(), cp.draws()))
            .collect();
        let mut expected = Vec::new();
        let mut sim = simulator(config, &spec, 0.0, limits);
        let stepped = step_to_end(sim.processor_mut(), limits, |p| {
            let draws = p.stats_snapshot().dispatched_entries;
            if p.now() > 0 && p.now() % EVERY == 0 && draws <= horizon {
                expected.push((p.now(), draws));
            }
        });
        assert!(!taken.is_empty(), "{cell}: no checkpoint taken");
        assert_eq!(taken, expected, "{cell}: checkpoint cycles and draws");
        assert_eq!(Some(skipped_end(outcome)), fault_free, "{cell}");
        assert_eq!(Some(stepped), fault_free, "{cell}");
    }
}

#[test]
fn skipping_matches_single_stepping_on_ss1() {
    check_seeds(0..32, &MachineConfig::ss1());
}

#[test]
fn skipping_matches_single_stepping_on_ss2() {
    check_seeds(0..32, &MachineConfig::ss2());
}

#[test]
fn skipping_matches_single_stepping_on_ss3m() {
    check_seeds(0..32, &MachineConfig::ss3_majority());
}

/// The wide variant the CI fuzz job runs on a release build.
#[test]
#[ignore = "minutes in a debug build; run with --release -- --ignored"]
fn skipping_matches_single_stepping_on_256_fuzz_seeds() {
    for config in [
        MachineConfig::ss1(),
        MachineConfig::ss2(),
        MachineConfig::ss3_majority(),
    ] {
        check_seeds(0..256, &config);
    }
}
