//! Simulation statistics.

use ftsim_faults::{FaultCounts, LatencySummary, SiteCounts};
use ftsim_isa::MixClass;
use ftsim_mem::CacheStats;
use std::fmt;

/// Why a full rewind happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewindCause {
    /// Commit-stage cross-check disagreement (transient-fault recovery).
    FaultDetected,
    /// Retiring PC differed from the committed next-PC register
    /// (control-flow check, §3.2 Fault Detection).
    ControlFlowCheck,
}

/// Everything the simulator counts during a run.
///
/// `ipc()` is the headline number of the paper's Figures 3–6: committed
/// *architectural* instructions per cycle (redundant copies of one
/// instruction count once, exactly as the paper reports IPC).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Elapsed cycles.
    pub cycles: u64,
    /// Committed architectural instructions.
    pub retired_instructions: u64,
    /// Committed RUU entries (= instructions × R).
    pub retired_entries: u64,
    /// Dispatched RUU entries (including squashed ones).
    pub dispatched_entries: u64,
    /// Dispatched architectural instructions (groups).
    pub dispatched_groups: u64,
    /// Committed instruction mix: `[mem, int, fp-add, fp-mul, fp-div]`.
    pub mix: [u64; 5],
    /// Conditional branches committed.
    pub branches: u64,
    /// Conditional branches that had been mispredicted.
    pub branch_mispredicts: u64,
    /// Branch-rewind (selective squash) events, including wrong-path ones.
    pub branch_rewinds: u64,
    /// Full rewinds triggered by fault detection.
    pub fault_rewinds: u64,
    /// Full rewinds triggered by the committed-PC control-flow check.
    pub pc_check_rewinds: u64,
    /// Majority elections that out-voted a corrupted copy.
    pub majority_elections: u64,
    /// Cycles from each full rewind until the next instruction committed
    /// (the observed recovery penalty W of §5.3): total and count.
    pub rewind_penalty_cycles: u64,
    /// Number of completed full-rewind penalty measurements.
    pub rewind_penalty_events: u64,
    /// Maximum observed single-rewind penalty.
    pub rewind_penalty_max: u64,
    /// Cycles in which at least one instruction committed.
    pub commit_active_cycles: u64,
    /// Sum over committed instructions of (commit cycle - dispatch cycle),
    /// for mean in-flight latency.
    pub inflight_latency_sum: u64,
    /// Cycles dispatch was blocked with a non-empty fetch queue, by cause:
    /// `[ruu_full, lsq_full]`.
    pub dispatch_stalls: [u64; 2],
    /// Sum of RUU occupancy sampled each cycle (for average occupancy).
    pub ruu_occupancy_sum: u64,
    /// Sum of LSQ occupancy sampled each cycle.
    pub lsq_occupancy_sum: u64,
    /// Loads satisfied by store-to-load forwarding.
    pub load_forwards: u64,
    /// Loads that performed a memory access.
    pub load_accesses: u64,
    /// Store commits that waited for an L1D port.
    pub store_port_stalls: u64,
    /// Fault-injection outcome counts.
    pub faults: FaultCounts,
    /// Fault-injection outcome counts split by injection site.
    pub fault_sites: SiteCounts,
    /// Detection-latency telemetry (injection → commit-time resolution).
    pub fault_latency: LatencySummary,
    /// Fetch statistics.
    pub fetched: u64,
    /// Fetch stall cycles.
    pub fetch_stall_cycles: u64,
    /// I-cache stall cycles.
    pub icache_stall_cycles: u64,
    /// L1 instruction cache statistics.
    pub il1: CacheStats,
    /// L1 data cache statistics.
    pub dl1: CacheStats,
    /// Unified L2 statistics.
    pub l2: CacheStats,
}

impl SimStats {
    /// Committed architectural instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired_instructions as f64 / self.cycles as f64
        }
    }

    /// Cycles per committed architectural instruction.
    pub fn cpi(&self) -> f64 {
        if self.retired_instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.retired_instructions as f64
        }
    }

    /// Branch misprediction rate over committed conditional branches.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 / self.branches as f64
        }
    }

    /// Mean observed full-rewind penalty in cycles (the paper's W; §5.3
    /// reports ≈30 cycles for fpppp).
    pub fn mean_rewind_penalty(&self) -> f64 {
        if self.rewind_penalty_events == 0 {
            0.0
        } else {
            self.rewind_penalty_cycles as f64 / self.rewind_penalty_events as f64
        }
    }

    /// Committed dynamic instruction-mix fraction for `class` (Table 2).
    pub fn mix_fraction(&self, class: MixClass) -> f64 {
        let total: u64 = self.mix.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.mix[Self::mix_index(class)] as f64 / total as f64
    }

    /// Records one committed instruction of `class`.
    pub fn count_mix(&mut self, class: MixClass) {
        self.mix[Self::mix_index(class)] += 1;
    }

    fn mix_index(class: MixClass) -> usize {
        match class {
            MixClass::Mem => 0,
            MixClass::Int => 1,
            MixClass::FpAdd => 2,
            MixClass::FpMul => 3,
            MixClass::FpDiv => 4,
        }
    }

    /// Mean RUU occupancy per cycle.
    pub fn mean_ruu_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ruu_occupancy_sum as f64 / self.cycles as f64
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles={} retired={} IPC={:.3} CPI={:.3}",
            self.cycles,
            self.retired_instructions,
            self.ipc(),
            self.cpi()
        )?;
        writeln!(
            f,
            "branches={} mispredicts={} ({:.2}%) branch-rewinds={}",
            self.branches,
            self.branch_mispredicts,
            self.mispredict_rate() * 100.0,
            self.branch_rewinds
        )?;
        writeln!(
            f,
            "fault-rewinds={} pc-check-rewinds={} elections={} mean-W={:.1}",
            self.fault_rewinds,
            self.pc_check_rewinds,
            self.majority_elections,
            self.mean_rewind_penalty()
        )?;
        writeln!(
            f,
            "mix mem/int/fpadd/fpmul/fpdiv = {:?} forwards={} dl1-miss={:.2}%",
            self.mix,
            self.load_forwards,
            self.dl1.miss_rate() * 100.0
        )?;
        write!(f, "faults: {}", self.faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_cpi_roundtrip() {
        let s = SimStats {
            cycles: 200,
            retired_instructions: 100,
            ..SimStats::default()
        };
        assert_eq!(s.ipc(), 0.5);
        assert_eq!(s.cpi(), 2.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.cpi(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
        assert_eq!(s.mean_rewind_penalty(), 0.0);
        assert_eq!(s.mix_fraction(MixClass::Mem), 0.0);
    }

    #[test]
    fn mix_fractions_sum_to_one() {
        let mut s = SimStats::default();
        for _ in 0..3 {
            s.count_mix(MixClass::Mem);
        }
        for _ in 0..7 {
            s.count_mix(MixClass::Int);
        }
        let total: f64 = [
            MixClass::Mem,
            MixClass::Int,
            MixClass::FpAdd,
            MixClass::FpMul,
            MixClass::FpDiv,
        ]
        .iter()
        .map(|&c| s.mix_fraction(c))
        .sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((s.mix_fraction(MixClass::Mem) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn display_contains_key_numbers() {
        let s = SimStats {
            cycles: 10,
            retired_instructions: 5,
            ..SimStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("IPC=0.500"));
        assert!(text.contains("cycles=10"));
    }
}
