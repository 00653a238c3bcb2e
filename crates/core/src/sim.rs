//! The `Simulator` facade: run a program, gather results, verify against
//! the in-order oracle.

use crate::build::{BuildError, SimBuilder};
use crate::checkpoint::Checkpoint;
use crate::config::MachineConfig;
use crate::pipeline::Processor;
use crate::stats::SimStats;
use ftsim_faults::{FaultCounts, FaultInjector};
use ftsim_isa::{EmuError, Emulator, Program};
use std::fmt;
use std::sync::Arc;

/// How to validate the out-of-order machine against the in-order oracle
/// (the paper's dual committed-state sanity check, §5.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OracleMode {
    /// No oracle execution (fastest; used for performance sweeps).
    Off,
    /// After the run, execute the reference emulator for exactly the same
    /// number of retired instructions and require identical committed
    /// registers and memory.
    #[default]
    Final,
}

impl OracleMode {
    /// Canonical lower-case name, stable across serializations (job
    /// specs, the harness's `RunRecord` identity column): `off` or
    /// `final`.
    pub fn name(self) -> &'static str {
        match self {
            OracleMode::Off => "off",
            OracleMode::Final => "final",
        }
    }

    /// Resolves a name produced by [`OracleMode::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "off" => Some(OracleMode::Off),
            "final" => Some(OracleMode::Final),
            _ => None,
        }
    }
}

/// Run-length limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimits {
    /// Hard cycle ceiling.
    pub max_cycles: u64,
    /// Stop (successfully) once this many instructions have committed —
    /// how the experiments sample long-running workloads, mirroring the
    /// paper's N-instruction simulation windows.
    pub max_instructions: u64,
    /// Abort if no instruction commits for this many consecutive cycles
    /// (simulator-bug tripwire).
    pub watchdog: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        Self {
            max_cycles: 100_000_000,
            max_instructions: u64::MAX,
            watchdog: 100_000,
        }
    }
}

impl RunLimits {
    /// Limits that stop after `n` committed instructions.
    pub fn instructions(n: u64) -> Self {
        Self {
            max_instructions: n,
            ..Self::default()
        }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The builder was misused ([`SimBuilder::run`] only).
    Invalid(BuildError),
    /// The cycle ceiling was reached before `halt` committed.
    CycleLimit {
        /// Cycles executed.
        cycles: u64,
        /// Instructions retired.
        retired: u64,
    },
    /// Commit made no progress for the watchdog window.
    Watchdog {
        /// Cycle at which the watchdog fired.
        cycle: u64,
    },
    /// The committed state diverged from the in-order oracle — with
    /// redundancy enabled this indicates an escaped fault (or a simulator
    /// bug); at `R = 1` under fault injection it demonstrates the paper's
    /// motivation.
    OracleMismatch {
        /// Human-readable divergence summary.
        details: String,
    },
    /// The reference emulator itself failed (bad program).
    Oracle(EmuError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Invalid(e) => write!(f, "invalid simulator construction: {e}"),
            SimError::CycleLimit { cycles, retired } => {
                write!(
                    f,
                    "cycle limit reached ({cycles} cycles, {retired} retired)"
                )
            }
            SimError::Watchdog { cycle } => write!(f, "commit watchdog fired at cycle {cycle}"),
            SimError::OracleMismatch { details } => write!(f, "oracle mismatch: {details}"),
            SimError::Oracle(e) => write!(f, "oracle emulator error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Machine model name.
    pub model: String,
    /// Elapsed cycles.
    pub cycles: u64,
    /// Committed architectural instructions.
    pub retired_instructions: u64,
    /// Instructions per cycle (the paper's headline metric).
    pub ipc: f64,
    /// Whether `halt` committed (false when stopped by instruction limit).
    pub halted: bool,
    /// FNV-1a digest of the final committed architectural state
    /// (registers, committed next-PC, halt flag, memory contents); see
    /// [`Processor::state_digest`]. Comparing a faulty cell's digest with
    /// its family's fault-free baseline (at equal retirement counts)
    /// distinguishes masked escapes from silent data corruption.
    pub state_digest: u64,
    /// Fault-injection outcome counts.
    pub faults: FaultCounts,
    /// Full statistics.
    pub stats: SimStats,
}

/// Runs a [`Program`] on a configured machine.
///
/// Construct via [`Simulator::builder`], which gathers the configuration,
/// program, fault injector, oracle mode and run limits in one validated
/// place.
///
/// # Examples
///
/// ```
/// use ftsim_core::{MachineConfig, Simulator};
/// use ftsim_isa::asm;
///
/// let p = asm::assemble("addi r1, r0, 3\nmul r1, r1, r1\nhalt\n").unwrap();
/// let result = Simulator::builder()
///     .config(MachineConfig::ss2())
///     .program(&p)
///     .run()
///     .unwrap();
/// assert_eq!(result.retired_instructions, 3);
/// assert!(result.halted);
/// ```
#[derive(Debug)]
pub struct Simulator {
    proc: Processor,
    oracle: OracleMode,
    limits: RunLimits,
}

impl Simulator {
    /// Starts a fluent [`SimBuilder`] — the only supported way to
    /// construct a simulator.
    pub fn builder() -> SimBuilder {
        SimBuilder::new()
    }

    /// Assembles a simulator from already-validated parts.
    ///
    /// Called by [`SimBuilder::build`] after validation; not public so
    /// that every construction path goes through the builder's checks.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (the builder validates first).
    pub(crate) fn from_parts(
        config: MachineConfig,
        program: Arc<Program>,
        injector: FaultInjector,
        oracle: OracleMode,
        limits: RunLimits,
    ) -> Self {
        Self {
            proc: Processor::with_shared_program(config, program, injector),
            oracle,
            limits,
        }
    }

    /// Access to the underlying processor (single-stepping, inspection,
    /// checkpoint restore, injector fast-forward).
    pub fn processor_mut(&mut self) -> &mut Processor {
        &mut self.proc
    }

    /// Runs to `halt` under the limits configured at build time.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(self) -> Result<SimResult, SimError> {
        let limits = self.limits;
        self.run_with_limits(limits)
    }

    /// Runs until `halt`, the instruction quota, or a limit error.
    ///
    /// # Errors
    ///
    /// See [`SimError`]; reaching `max_instructions` is success, reaching
    /// `max_cycles` without halting is [`SimError::CycleLimit`].
    pub fn run_with_limits(mut self, limits: RunLimits) -> Result<SimResult, SimError> {
        self.run_loop(limits, None)?;
        self.finish()
    }

    /// As [`Simulator::run`], additionally snapshotting the machine every
    /// `every` cycles (starting at the first nonzero boundary — a cycle-0
    /// snapshot is just a cold start, so it is never taken), until the
    /// machine has made more than `horizon_draws` fault-injector draws.
    ///
    /// This is the producer side of prefix-sharing sweeps: the fault-free
    /// baseline of a grid family runs once through here, and each faulty
    /// sibling cell restores the newest checkpoint that precedes its first
    /// possible injection instead of re-simulating the shared prefix. The
    /// horizon lets the caller stop paying snapshot cost once every
    /// sibling's divergence point has been passed; `u64::MAX` snapshots to
    /// the end of the run.
    ///
    /// # Errors
    ///
    /// See [`SimError`]. The checkpoints gathered before the failure are
    /// returned alongside the error so a caller can still fork cells whose
    /// divergence point precedes it.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn run_with_checkpoints(
        mut self,
        every: u64,
        horizon_draws: u64,
    ) -> (Result<SimResult, SimError>, Vec<Checkpoint>) {
        assert!(every > 0, "checkpoint interval must be nonzero");
        let limits = self.limits;
        let mut checkpoints = Vec::new();
        let sink = (every, horizon_draws, &mut checkpoints);
        if let Err(e) = self.run_loop(limits, Some(sink)) {
            return (Err(e), checkpoints);
        }
        (self.finish(), checkpoints)
    }

    /// The shared cycle loop: halt / instruction-quota / cycle-ceiling /
    /// watchdog checks in the exact order every run mode uses, with an
    /// optional periodic checkpoint sink.
    ///
    /// After a quiet cycle the loop fast-forwards the clock
    /// ([`Processor::skip_quiet`]), no further than the next cycle at
    /// which one of its own checks could fire: the cycle ceiling, the
    /// watchdog cycle, or the next checkpoint boundary while snapshots are
    /// still being taken. The checks see exactly the cycles they would
    /// have seen single-stepping.
    fn run_loop(
        &mut self,
        limits: RunLimits,
        mut checkpoints: Option<(u64, u64, &mut Vec<Checkpoint>)>,
    ) -> Result<(), SimError> {
        while !self.proc.halted() {
            if self.proc.state.stats.retired_instructions >= limits.max_instructions {
                break;
            }
            if self.proc.now() >= limits.max_cycles {
                return Err(SimError::CycleLimit {
                    cycles: self.proc.now(),
                    retired: self.proc.state.stats.retired_instructions,
                });
            }
            if self.proc.now() - self.proc.state.last_commit_cycle > limits.watchdog {
                return Err(SimError::Watchdog {
                    cycle: self.proc.now(),
                });
            }
            if let Some((every, horizon, sink)) = checkpoints.as_mut() {
                let now = self.proc.now();
                if now > 0 && now % *every == 0 && self.proc.state.next_seq <= *horizon {
                    sink.push(self.proc.snapshot());
                }
            }
            if let Some(quiet) = self.proc.step() {
                let now = self.proc.now();
                let watchdog = self
                    .proc
                    .state
                    .last_commit_cycle
                    .saturating_add(limits.watchdog)
                    .saturating_add(1);
                let mut deadline = limits.max_cycles.min(watchdog);
                if let Some((every, horizon, _)) = &checkpoints {
                    if self.proc.state.next_seq <= *horizon {
                        deadline = deadline.min(now.div_ceil(*every).saturating_mul(*every));
                    }
                }
                self.proc.skip_quiet(quiet, deadline);
            }
        }
        Ok(())
    }

    /// Oracle verification and result assembly shared by every run mode.
    fn finish(mut self) -> Result<SimResult, SimError> {
        if self.oracle == OracleMode::Final {
            self.verify_against_oracle()?;
        }

        let halted = self.proc.halted();
        let stats = self.proc.stats_snapshot();
        Ok(SimResult {
            model: self.proc.config().name.clone(),
            cycles: stats.cycles,
            retired_instructions: stats.retired_instructions,
            ipc: stats.ipc(),
            halted,
            state_digest: self.proc.state_digest(),
            faults: stats.faults,
            stats,
        })
    }

    /// Compares committed registers and memory against the in-order
    /// reference emulator run for the same number of instructions.
    ///
    /// # Errors
    ///
    /// [`SimError::OracleMismatch`] with a summary of divergent state, or
    /// [`SimError::Oracle`] if the emulator cannot replay the program.
    pub fn verify_against_oracle(&mut self) -> Result<(), SimError> {
        let retired = self.proc.state.stats.retired_instructions;
        let mut emu = Emulator::new(&self.proc.program);
        let executed = emu.run_steps(retired).map_err(SimError::Oracle)?;
        if executed != retired {
            return Err(SimError::OracleMismatch {
                details: format!(
                    "oracle halted after {executed} instructions, pipeline committed {retired}"
                ),
            });
        }
        if self.proc.halted() != emu.halted() {
            return Err(SimError::OracleMismatch {
                details: format!(
                    "halt state diverged: pipeline {} vs oracle {}",
                    self.proc.halted(),
                    emu.halted()
                ),
            });
        }
        let reg_diff = emu.regs().diff(self.proc.regs());
        let mem_diff = emu.mem().diff(self.proc.mem(), 4);
        if reg_diff.is_empty() && mem_diff.is_empty() {
            return Ok(());
        }
        let mut details = String::new();
        for (r, oracle, mine) in reg_diff.iter().take(4) {
            details.push_str(&format!("{r}: oracle={oracle:#x} pipeline={mine:#x}; "));
        }
        for d in &mem_diff {
            details.push_str(&format!(
                "[{:#x}]: oracle={:#x} pipeline={:#x}; ",
                d.addr, d.left, d.right
            ));
        }
        Err(SimError::OracleMismatch { details })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsim_isa::asm;

    fn sum_loop(n: u32) -> Program {
        asm::assemble(&format!(
            r"
                addi r1, r0, {n}
                addi r2, r0, 0
            loop:
                add  r2, r2, r1
                addi r1, r1, -1
                bne  r1, r0, loop
                halt
            "
        ))
        .unwrap()
    }

    fn sim(config: MachineConfig, p: &Program) -> crate::build::SimBuilder {
        Simulator::builder().config(config).program(p)
    }

    #[test]
    fn ss1_matches_oracle() {
        let p = sum_loop(50);
        let r = sim(MachineConfig::ss1(), &p).run().unwrap();
        assert!(r.halted);
        assert_eq!(r.retired_instructions, 3 + 50 * 3);
        assert!(r.ipc > 0.0);
    }

    #[test]
    fn ss2_matches_oracle_and_is_slower() {
        let p = sum_loop(200);
        let r1 = sim(MachineConfig::ss1(), &p).run().unwrap();
        let r2 = sim(MachineConfig::ss2(), &p).run().unwrap();
        assert_eq!(r1.retired_instructions, r2.retired_instructions);
        assert!(r2.cycles >= r1.cycles, "redundancy cannot be free");
    }

    #[test]
    fn instruction_limit_stops_cleanly() {
        let p = sum_loop(10_000);
        let r = sim(MachineConfig::ss1(), &p)
            .limits(RunLimits::instructions(100))
            .run()
            .unwrap();
        assert!(!r.halted);
        assert!(r.retired_instructions >= 100);
        assert!(r.retired_instructions < 200);
    }

    #[test]
    fn cycle_limit_errors() {
        let p = sum_loop(100_000);
        let err = sim(MachineConfig::ss1(), &p)
            .limits(RunLimits {
                max_cycles: 50,
                ..RunLimits::default()
            })
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::CycleLimit { .. }));
    }

    /// Cycle 0 misses in the I-cache and the line takes longer than 40
    /// cycles to arrive: a quiet span the run loop skips over, with every
    /// one of its own deadlines inside it.
    fn first_line_latency(p: &Program) -> u64 {
        let mut proc = Processor::new(MachineConfig::ss2(), p, FaultInjector::none());
        proc.cycle();
        let latency = proc.stats_snapshot().icache_stall_cycles;
        assert!(latency > 40, "a cold I-cache miss takes {latency} cycles");
        latency
    }

    #[test]
    fn skip_lands_on_the_watchdog_cycle() {
        let p = sum_loop(10);
        first_line_latency(&p);
        let err = sim(MachineConfig::ss2(), &p)
            .limits(RunLimits {
                watchdog: 30,
                ..RunLimits::default()
            })
            .run()
            .unwrap_err();
        assert_eq!(err, SimError::Watchdog { cycle: 31 });
        assert_eq!(err.to_string(), "commit watchdog fired at cycle 31");
    }

    #[test]
    fn skip_lands_on_the_cycle_ceiling() {
        let p = sum_loop(10);
        first_line_latency(&p);
        let err = sim(MachineConfig::ss2(), &p)
            .limits(RunLimits {
                max_cycles: 40,
                ..RunLimits::default()
            })
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SimError::CycleLimit {
                cycles: 40,
                retired: 0
            }
        );
    }

    #[test]
    fn skip_lands_on_every_checkpoint_boundary() {
        let p = sum_loop(10);
        let latency = first_line_latency(&p);
        let (result, checkpoints) = sim(MachineConfig::ss2(), &p)
            .build()
            .unwrap()
            .run_with_checkpoints(10, u64::MAX);
        let cycles = result.unwrap().cycles;
        let taken: Vec<u64> = checkpoints.iter().map(Checkpoint::cycle).collect();
        let boundaries: Vec<u64> = (10..cycles).step_by(10).collect();
        assert!(boundaries.iter().filter(|&&c| c < latency).count() >= 4);
        assert_eq!(taken, boundaries);
    }

    #[test]
    fn oracle_off_skips_verification() {
        let p = sum_loop(10);
        let r = sim(MachineConfig::ss1(), &p)
            .oracle(OracleMode::Off)
            .run()
            .unwrap();
        assert!(r.halted);
    }

    #[test]
    fn error_display() {
        let e = SimError::Watchdog { cycle: 9 };
        assert!(e.to_string().contains("watchdog"));
    }
}
