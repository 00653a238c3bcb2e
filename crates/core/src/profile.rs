//! Opt-in per-stage wall-time profiling of the pipeline hot loop.
//!
//! [`Processor::cycle`](crate::pipeline::Processor::cycle) has one body,
//! generic over a stage probe that wraps each stage call. Normally the
//! probe is the zero-sized `NoProbe`, which compiles away; with
//! `FTSIM_PROFILE=1` (or [`set_enabled`]) it is `SampledProbe`, which
//! counts every stage invocation and samples per-stage wall time on one
//! cycle in 64. The aggregate accumulates in a **thread-local**
//! [`StageProfile`] the harness drains per cell with [`take`].
//!
//! Profiling state lives outside the machine state a
//! [`Checkpoint`](crate::Checkpoint) clones: it observes the machine
//! without being machine state, so records stay byte-identical whether a
//! cell ran cold, forked, or with profiling off. Both probes run the same
//! cycle body — same stages, same order, same conditions — and the
//! sampling probe only interleaves `Instant::now()` reads, which touch no
//! simulation state and consume no RNG.
//!
//! Sampling (rather than timing every cycle) keeps the overhead under the
//! harness's 5% budget: ten `Instant::now()` calls per ~800ns cycle would
//! cost ~20%, one cycle in 64 costs well under 1%. Call *counts* are exact
//! every cycle; only the nanosecond figures are sampled.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Pipeline stage names, indexed like [`StageProfile::calls`]: the order
/// the stages run each cycle (SimpleScalar's reverse traversal).
pub const STAGE_NAMES: [&str; 5] = ["commit", "writeback", "issue", "dispatch", "fetch"];

/// Aggregated per-stage profile over some span of cycles (one cell, in
/// harness use). Obtain via [`take`]; merge spans with
/// [`StageProfile::accumulate`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageProfile {
    /// Exact number of invocations of each stage (see [`STAGE_NAMES`]).
    /// After `halt` commits only the commit stage still runs, so these
    /// differ across stages.
    pub calls: [u64; 5],
    /// Wall-time nanoseconds spent in each stage **on sampled cycles
    /// only** — scale by `cycles / samples` to estimate totals.
    pub sampled_ns: [u64; 5],
    /// Number of cycles on which wall time was sampled.
    pub samples: u64,
    /// Total cycles this profile spans.
    pub cycles: u64,
}

impl StageProfile {
    /// Whether any cycles were recorded.
    pub fn is_empty(&self) -> bool {
        self.cycles == 0
    }

    /// Folds another span into this one (e.g. merging threads or cells).
    pub fn accumulate(&mut self, other: &StageProfile) {
        for (mine, theirs) in self.calls.iter_mut().zip(other.calls) {
            *mine += theirs;
        }
        for (mine, theirs) in self.sampled_ns.iter_mut().zip(other.sampled_ns) {
            *mine += theirs;
        }
        self.samples += other.samples;
        self.cycles += other.cycles;
    }

    /// Estimated *total* nanoseconds per stage, extrapolated from the
    /// sampled cycles (`sampled_ns * cycles / samples`); zeros when
    /// nothing was sampled.
    pub fn est_total_ns(&self) -> [u64; 5] {
        if self.samples == 0 {
            return [0u64; 5];
        }
        self.sampled_ns
            .map(|ns| ns.saturating_mul(self.cycles) / self.samples)
    }
}

/// 0 = undecided (consult `FTSIM_PROFILE`), 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether stage profiling is on for this process. Decided once from
/// `FTSIM_PROFILE` (any value but `0` enables), overridable at runtime
/// with [`set_enabled`].
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let on =
                matches!(std::env::var("FTSIM_PROFILE"), Ok(v) if v.trim() != "0" && !v.is_empty());
            ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Forces profiling on or off, overriding `FTSIM_PROFILE` (benches use
/// this to measure the same binary both ways).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

thread_local! {
    static PROFILE: RefCell<StageProfile> = const { RefCell::new(StageProfile {
        calls: [0; 5],
        sampled_ns: [0; 5],
        samples: 0,
        cycles: 0,
    }) };
}

/// What one cycle reports to besides the machine itself. The cycle body
/// hands each stage to [`StageProbe::stage`] and calls
/// [`StageProbe::end_cycle`] once the cycle is complete.
pub(crate) trait StageProbe {
    /// Runs stage `index` (see [`STAGE_NAMES`]).
    fn stage(&mut self, index: usize, run: impl FnOnce());
    /// Closes the cycle.
    fn end_cycle(self);
}

/// The probe of an unprofiled run: runs each stage and nothing else.
pub(crate) struct NoProbe;

impl StageProbe for NoProbe {
    #[inline(always)]
    fn stage(&mut self, _index: usize, run: impl FnOnce()) {
        run();
    }

    #[inline(always)]
    fn end_cycle(self) {}
}

/// The profiling probe: counts every stage that runs, times each one on
/// one cycle in 64, and folds the cycle into the thread-local aggregate.
pub(crate) struct SampledProbe {
    sampled: bool,
    ran: [bool; 5],
    ns: [u64; 5],
}

impl SampledProbe {
    /// A probe for the cycle numbered `now`.
    pub(crate) fn new(now: u64) -> Self {
        Self {
            sampled: now & 63 == 0,
            ran: [false; 5],
            ns: [0; 5],
        }
    }
}

impl StageProbe for SampledProbe {
    fn stage(&mut self, index: usize, run: impl FnOnce()) {
        self.ran[index] = true;
        if self.sampled {
            let t = std::time::Instant::now();
            run();
            self.ns[index] = t.elapsed().as_nanos() as u64;
        } else {
            run();
        }
    }

    fn end_cycle(self) {
        PROFILE.with(|p| {
            let mut p = p.borrow_mut();
            for (i, &stage_ran) in self.ran.iter().enumerate() {
                if stage_ran {
                    p.calls[i] += 1;
                    if self.sampled {
                        p.sampled_ns[i] += self.ns[i];
                    }
                }
            }
            if self.sampled {
                p.samples += 1;
            }
            p.cycles += 1;
        });
    }
}

/// Drains this thread's aggregate, returning it and resetting to zero.
/// The harness calls this after each cell so per-cell profiles do not
/// bleed into each other on reused worker threads.
pub fn take() -> StageProfile {
    PROFILE.with(|p| std::mem::take(&mut *p.borrow_mut()))
}

/// Resets this thread's aggregate without reading it.
pub fn reset() {
    let _ = take();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::pipeline::Processor;
    use ftsim_faults::FaultInjector;
    use ftsim_isa::asm;

    fn run_to_halt(prof: bool) -> (crate::stats::SimStats, StageProfile) {
        let program = asm::assemble(
            r"
                addi r1, r0, 64
                addi r2, r0, 0
            loop:
                add  r2, r2, r1
                addi r1, r1, -1
                bne  r1, r0, loop
                halt
            ",
        )
        .unwrap();
        set_enabled(prof);
        reset();
        let mut proc = Processor::new(MachineConfig::ss2(), &program, FaultInjector::none());
        let mut guard = 0u64;
        while !proc.halted() && guard < 100_000 {
            proc.cycle();
            guard += 1;
        }
        set_enabled(false);
        (proc.stats_snapshot(), take())
    }

    #[test]
    fn profiled_run_is_cycle_identical_and_counts_stages() {
        let (base, empty) = run_to_halt(false);
        let (prof, profile) = run_to_halt(true);
        // Semantics unchanged: identical cycle/retire counts either way.
        assert_eq!(base.cycles, prof.cycles);
        assert_eq!(base.retired_instructions, prof.retired_instructions);
        // Profiling off records nothing.
        assert!(empty.is_empty());
        // Profiling on: commit ran every cycle, the front-end stages only
        // until halt committed.
        assert_eq!(profile.cycles, prof.cycles);
        assert_eq!(profile.calls[0], prof.cycles);
        assert!(profile.calls[4] <= profile.calls[0]);
        assert!(
            profile.samples >= 1,
            "a run this long must hit a sample cycle"
        );
        let est = profile.est_total_ns();
        assert!(est.iter().any(|&ns| ns > 0));
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = StageProfile {
            calls: [1, 2, 3, 4, 5],
            sampled_ns: [10, 20, 30, 40, 50],
            samples: 2,
            cycles: 7,
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.calls, [2, 4, 6, 8, 10]);
        assert_eq!(a.sampled_ns, [20, 40, 60, 80, 100]);
        assert_eq!(a.samples, 4);
        assert_eq!(a.cycles, 14);
    }
}
