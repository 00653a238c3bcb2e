//! Machine configuration and the paper's evaluated machine models.

use ftsim_mem::HierarchyConfig;
use ftsim_predict::{BtbConfig, PredictorConfig};
use std::fmt;

/// A structurally invalid machine description, reported by
/// [`MachineConfig::validate`] / [`RedundancyConfig::validate`] and
/// surfaced through the simulator builder before any cycle is simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `r = 0`: there must be at least one copy of every instruction.
    ZeroRedundancy,
    /// `threshold = 0`: at least one copy must be required to agree.
    ZeroThreshold,
    /// The acceptance threshold exceeds the number of copies.
    ThresholdExceedsR {
        /// Configured acceptance threshold.
        threshold: u8,
        /// Configured redundancy degree.
        r: u8,
    },
    /// Majority election demands `r >= 3` (with 2 copies a disagreement
    /// has no majority to elect).
    MajorityNeedsThree {
        /// Configured redundancy degree.
        r: u8,
    },
    /// A majority threshold must be a strict majority of the copies.
    WeakMajorityThreshold {
        /// Configured acceptance threshold.
        threshold: u8,
        /// Configured redundancy degree.
        r: u8,
    },
    /// Dispatch must be able to move one replication group per cycle.
    GroupExceedsDispatch {
        /// Configured dispatch width.
        width: u32,
        /// Configured redundancy degree.
        r: u8,
    },
    /// Commit must be able to retire one replication group per cycle.
    GroupExceedsCommit {
        /// Configured commit width.
        width: u32,
        /// Configured redundancy degree.
        r: u8,
    },
    /// The RUU cannot hold even one replication group.
    RuuTooSmall {
        /// Configured RUU capacity.
        size: usize,
        /// Configured redundancy degree.
        r: u8,
    },
    /// The LSQ cannot hold even one replication group.
    LsqTooSmall {
        /// Configured LSQ capacity.
        size: usize,
        /// Configured redundancy degree.
        r: u8,
    },
    /// Fetch width or fetch queue capacity is zero.
    FrontEndTooSmall,
    /// A functional-unit class has no units (every class is required:
    /// integer ALUs resolve branches, and the workloads exercise the
    /// multiplier and both FP classes).
    ZeroFuCount {
        /// Which unit class is missing (e.g. `"int_alu"`).
        unit: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroRedundancy => write!(f, "redundancy degree must be at least 1"),
            ConfigError::ZeroThreshold => write!(f, "acceptance threshold must be at least 1"),
            ConfigError::ThresholdExceedsR { threshold, r } => write!(
                f,
                "acceptance threshold {threshold} exceeds redundancy degree {r}"
            ),
            ConfigError::MajorityNeedsThree { r } => {
                write!(f, "majority election requires R >= 3 (got R = {r})")
            }
            ConfigError::WeakMajorityThreshold { threshold, r } => write!(
                f,
                "majority threshold {threshold} is not a strict majority of {r} copies"
            ),
            ConfigError::GroupExceedsDispatch { width, r } => write!(
                f,
                "dispatch width {width} cannot move one replication group of {r}"
            ),
            ConfigError::GroupExceedsCommit { width, r } => write!(
                f,
                "commit width {width} cannot retire one replication group of {r}"
            ),
            ConfigError::RuuTooSmall { size, r } => {
                write!(f, "RUU of {size} cannot hold one replication group of {r}")
            }
            ConfigError::LsqTooSmall { size, r } => {
                write!(f, "LSQ of {size} cannot hold one replication group of {r}")
            }
            ConfigError::FrontEndTooSmall => {
                write!(f, "fetch width and fetch queue capacity must be nonzero")
            }
            ConfigError::ZeroFuCount { unit } => {
                write!(f, "functional-unit class {unit} has zero units")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Functional-unit counts (paper Table 1: 4 / 2 / 2 / 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Integer ALUs (also resolve branches).
    pub int_alu: u32,
    /// Integer multiplier/divider units.
    pub int_mul: u32,
    /// FP adders.
    pub fp_add: u32,
    /// FP multiplier/divider units.
    pub fp_mul: u32,
}

impl Default for FuConfig {
    fn default() -> Self {
        Self {
            int_alu: 4,
            int_mul: 2,
            fp_add: 2,
            fp_mul: 1,
        }
    }
}

/// Operation latencies in cycles (SimpleScalar defaults). "All FU
/// operations are pipelined except for division" (Table 1) — divisions and
/// square roots block their unit for the full latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpLatencies {
    /// Integer ALU operations (and branch resolution).
    pub int_alu: u64,
    /// Integer multiply (pipelined).
    pub int_mul: u64,
    /// Integer divide/remainder (blocking).
    pub int_div: u64,
    /// FP add class (pipelined).
    pub fp_add: u64,
    /// FP multiply (pipelined).
    pub fp_mul: u64,
    /// FP divide (blocking).
    pub fp_div: u64,
    /// FP square root (blocking).
    pub fp_sqrt: u64,
    /// Store-to-load forwarding latency.
    pub forward: u64,
    /// Extra front-end refill cycles charged on a branch mispredict
    /// redirect (on top of the natural refetch delay).
    pub mispredict_extra: u64,
}

impl Default for OpLatencies {
    fn default() -> Self {
        Self {
            int_alu: 1,
            int_mul: 3,
            int_div: 20,
            fp_add: 2,
            fp_mul: 4,
            fp_div: 12,
            fp_sqrt: 24,
            forward: 1,
            mispredict_extra: 2,
        }
    }
}

/// Redundant-execution configuration (the paper's `R`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedundancyConfig {
    /// Degree of redundancy: 1 = plain superscalar, 2–3 as studied.
    pub r: u8,
    /// With `r >= 3`, resolve commit-time disagreements by majority
    /// election instead of always rewinding (§3.2 Recovery).
    pub majority: bool,
    /// Copies that must agree for a majority to be accepted (the paper's
    /// "correctness acceptance threshold"). Ignored unless `majority`.
    pub threshold: u8,
}

impl RedundancyConfig {
    /// No redundancy.
    pub fn none() -> Self {
        Self {
            r: 1,
            majority: false,
            threshold: 1,
        }
    }

    /// `R`-way redundancy with rewind-only recovery.
    pub fn rewind(r: u8) -> Self {
        Self {
            r,
            majority: false,
            threshold: r,
        }
    }

    /// `R`-way redundancy with majority election (threshold ⌈(r+1)/2⌉).
    pub fn majority(r: u8) -> Self {
        Self {
            r,
            majority: true,
            threshold: r / 2 + 1,
        }
    }

    /// Checks the redundancy invariants in isolation: `r >= 1`,
    /// `1 <= threshold <= r`, and majority election only with `r >= 3`
    /// and a strict-majority threshold.
    ///
    /// # Errors
    ///
    /// The first violated invariant as a [`ConfigError`].
    ///
    /// # Examples
    ///
    /// ```
    /// use ftsim_core::{ConfigError, RedundancyConfig};
    ///
    /// assert!(RedundancyConfig::rewind(2).validate().is_ok());
    /// let bad = RedundancyConfig { r: 2, majority: true, threshold: 2 };
    /// assert_eq!(bad.validate(), Err(ConfigError::MajorityNeedsThree { r: 2 }));
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.r == 0 {
            return Err(ConfigError::ZeroRedundancy);
        }
        if self.threshold == 0 {
            return Err(ConfigError::ZeroThreshold);
        }
        if self.threshold > self.r {
            return Err(ConfigError::ThresholdExceedsR {
                threshold: self.threshold,
                r: self.r,
            });
        }
        if self.majority {
            if self.r < 3 {
                return Err(ConfigError::MajorityNeedsThree { r: self.r });
            }
            if self.threshold <= self.r / 2 {
                return Err(ConfigError::WeakMajorityThreshold {
                    threshold: self.threshold,
                    r: self.r,
                });
            }
        }
        Ok(())
    }
}

/// Resource scaling factors for the §5.2 sensitivity study
/// (0.5×, 1×, 2×, ∞).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Half the baseline resources.
    Half,
    /// Baseline.
    One,
    /// Double.
    Two,
    /// Effectively unbounded.
    Infinite,
}

impl Scale {
    /// Applies the scale to a count, with `lo` as the floor and a large
    /// constant for `Infinite`.
    fn apply(self, base: u32, lo: u32, inf: u32) -> u32 {
        match self {
            Scale::Half => (base / 2).max(lo),
            Scale::One => base,
            Scale::Two => base * 2,
            Scale::Infinite => inf,
        }
    }

    /// Human-readable factor used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Half => "0.5x",
            Scale::One => "1x",
            Scale::Two => "2x",
            Scale::Infinite => "inf",
        }
    }
}

/// Complete machine description for one simulation.
///
/// Construct via a preset ([`MachineConfig::ss1`], [`MachineConfig::ss2`],
/// [`MachineConfig::ss3`], [`MachineConfig::static2`]) and refine with the
/// `with_*` builder methods.
///
/// # Examples
///
/// ```
/// use ftsim_core::{MachineConfig, Scale};
///
/// let m = MachineConfig::ss1().with_fu_scale(Scale::Two);
/// assert_eq!(m.fu.int_alu, 8);
/// let inf = MachineConfig::ss1().with_ruu_scale(Scale::Infinite);
/// assert!(inf.ruu_size >= 4096);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Display name ("SS-1", "SS-2", "Static-2", ...).
    pub name: String,
    /// Instructions fetched per cycle (Table 1: 8).
    pub fetch_width: u32,
    /// RUU entries dispatched per cycle (Table 1: 8; each redundant copy
    /// consumes one slot, so effective architectural width is `width / R`).
    pub dispatch_width: u32,
    /// RUU entries issued to functional units per cycle (Table 1: 8).
    pub issue_width: u32,
    /// RUU entries retired per cycle (Table 1: 8; "R accesses to ROB are
    /// needed to retire a single instruction").
    pub commit_width: u32,
    /// RUU (ROB + rename registers) capacity (Table 1: 128).
    pub ruu_size: usize,
    /// Load/store queue capacity (Table 1: 64).
    pub lsq_size: usize,
    /// Fetch queue capacity.
    pub ifq_size: usize,
    /// Functional-unit mix.
    pub fu: FuConfig,
    /// Operation latencies.
    pub lat: OpLatencies,
    /// Cache/TLB hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Direction predictor (Table 1 combined predictor).
    pub predictor: PredictorConfig,
    /// Branch target buffer.
    pub btb: BtbConfig,
    /// Return address stack depth.
    pub ras_depth: usize,
    /// Redundancy mode.
    pub redundancy: RedundancyConfig,
}

impl MachineConfig {
    /// The baseline superscalar of Table 1 (no redundancy) — the paper's
    /// **SS-1** model.
    pub fn ss1() -> Self {
        Self {
            name: "SS-1".to_string(),
            fetch_width: 8,
            dispatch_width: 8,
            issue_width: 8,
            commit_width: 8,
            ruu_size: 128,
            lsq_size: 64,
            ifq_size: 16,
            fu: FuConfig::default(),
            lat: OpLatencies::default(),
            hierarchy: HierarchyConfig::default(),
            predictor: PredictorConfig::default(),
            btb: BtbConfig::default(),
            ras_depth: 8,
            redundancy: RedundancyConfig::none(),
        }
    }

    /// The 2-way dynamically-redundant fault-tolerant superscalar —
    /// the paper's **SS-2** model (same hardware as SS-1).
    pub fn ss2() -> Self {
        Self {
            name: "SS-2".to_string(),
            redundancy: RedundancyConfig::rewind(2),
            ..Self::ss1()
        }
    }

    /// 3-way redundancy with rewind-only recovery.
    pub fn ss3() -> Self {
        Self {
            name: "SS-3".to_string(),
            redundancy: RedundancyConfig::rewind(3),
            ..Self::ss1()
        }
    }

    /// 3-way redundancy with 2-of-3 majority election (the `R = 3` design
    /// of Figures 3 and 6).
    pub fn ss3_majority() -> Self {
        Self {
            name: "SS-3M".to_string(),
            redundancy: RedundancyConfig::majority(3),
            ..Self::ss1()
        }
    }

    /// One pipe of the statically-redundant two-pipeline processor —
    /// the paper's **Static-2** model: half of every SS-1 resource
    /// *except* caches and branch prediction hardware, and each pipe keeps
    /// one FP multiplier/divider (the paper notes Static-2 thereby "has
    /// the advantage of an extra FP Mult/Div unit").
    pub fn static2() -> Self {
        Self {
            name: "Static-2".to_string(),
            fetch_width: 4,
            dispatch_width: 4,
            issue_width: 4,
            commit_width: 4,
            ruu_size: 64,
            lsq_size: 32,
            ifq_size: 8,
            fu: FuConfig {
                int_alu: 2,
                int_mul: 1,
                fp_add: 1,
                fp_mul: 1, // cannot halve a single unit
            },
            redundancy: RedundancyConfig::none(),
            ..Self::ss1()
        }
    }

    /// Overrides the redundancy mode, renaming the model accordingly.
    pub fn with_redundancy(mut self, redundancy: RedundancyConfig) -> Self {
        self.redundancy = redundancy;
        self
    }

    /// Scales every functional-unit count (sensitivity study §5.2).
    ///
    /// Memory ports scale too: in `sim-outorder` the L1D ports are
    /// functional-unit resources (`res:memport`), so the paper's FU sweep
    /// includes them.
    pub fn with_fu_scale(mut self, scale: Scale) -> Self {
        self.fu.int_alu = scale.apply(self.fu.int_alu, 1, 64);
        self.fu.int_mul = scale.apply(self.fu.int_mul, 1, 64);
        self.fu.fp_add = scale.apply(self.fu.fp_add, 1, 64);
        self.fu.fp_mul = scale.apply(self.fu.fp_mul, 1, 64);
        self.hierarchy.dl1_ports = scale.apply(self.hierarchy.dl1_ports, 1, 64);
        self
    }

    /// Scales the RUU (and LSQ proportionally; sensitivity study §5.2).
    pub fn with_ruu_scale(mut self, scale: Scale) -> Self {
        self.ruu_size = scale.apply(self.ruu_size as u32, 8, 4096) as usize;
        self.lsq_size = scale.apply(self.lsq_size as u32, 4, 2048) as usize;
        self
    }

    /// Renames the model (for experiment tables).
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Validates internal consistency: the redundancy invariants plus
    /// the structural requirements that every replication group can be
    /// dispatched, held and retired atomically and that every
    /// functional-unit class exists.
    ///
    /// # Errors
    ///
    /// The first violated invariant as a [`ConfigError`]. The simulator
    /// builder calls this before constructing a pipeline, so a
    /// misconfigured experiment fails fast instead of wedging mid-run.
    ///
    /// # Examples
    ///
    /// ```
    /// use ftsim_core::{ConfigError, MachineConfig};
    ///
    /// assert!(MachineConfig::ss2().validate().is_ok());
    ///
    /// let mut narrow = MachineConfig::ss2();
    /// narrow.dispatch_width = 1;
    /// assert_eq!(
    ///     narrow.validate(),
    ///     Err(ConfigError::GroupExceedsDispatch { width: 1, r: 2 })
    /// );
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.redundancy.validate()?;
        let r = u32::from(self.redundancy.r);
        if self.dispatch_width < r {
            return Err(ConfigError::GroupExceedsDispatch {
                width: self.dispatch_width,
                r: self.redundancy.r,
            });
        }
        if self.commit_width < r {
            return Err(ConfigError::GroupExceedsCommit {
                width: self.commit_width,
                r: self.redundancy.r,
            });
        }
        if self.ruu_size < self.redundancy.r as usize {
            return Err(ConfigError::RuuTooSmall {
                size: self.ruu_size,
                r: self.redundancy.r,
            });
        }
        if self.lsq_size < self.redundancy.r as usize {
            return Err(ConfigError::LsqTooSmall {
                size: self.lsq_size,
                r: self.redundancy.r,
            });
        }
        if self.fetch_width == 0 || self.ifq_size == 0 {
            return Err(ConfigError::FrontEndTooSmall);
        }
        for (count, unit) in [
            (self.fu.int_alu, "int_alu"),
            (self.fu.int_mul, "int_mul"),
            (self.fu.fp_add, "fp_add"),
            (self.fu.fp_mul, "fp_mul"),
        ] {
            if count == 0 {
                return Err(ConfigError::ZeroFuCount { unit });
            }
        }
        Ok(())
    }

    /// The longest delay, in cycles, from an entry's issue to its
    /// completion event: the slowest functional unit, store-to-load
    /// forwarding, a load that misses L1, L2 and the data TLB, or the
    /// one cycle of a redundant load copy or a store-data merge. Sizes
    /// the completion wheel.
    pub(crate) fn max_completion_latency(&self) -> u64 {
        let l = &self.lat;
        let h = &self.hierarchy;
        let full_miss =
            h.latency.l1_hit + h.latency.l2_hit + h.latency.memory + h.dtlb.miss_penalty;
        [
            l.int_alu, l.int_mul, l.int_div, l.fp_add, l.fp_mul, l.fp_div, l.fp_sqrt, l.forward,
            full_miss, 1,
        ]
        .into_iter()
        .max()
        .expect("non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_baseline() {
        let m = MachineConfig::ss1();
        m.validate().unwrap();
        assert_eq!(m.fetch_width, 8);
        assert_eq!(m.ruu_size, 128);
        assert_eq!(m.lsq_size, 64);
        assert_eq!(
            m.fu,
            FuConfig {
                int_alu: 4,
                int_mul: 2,
                fp_add: 2,
                fp_mul: 1
            }
        );
        assert_eq!(m.redundancy.r, 1);
    }

    #[test]
    fn ss2_shares_hardware_with_ss1() {
        let a = MachineConfig::ss1();
        let b = MachineConfig::ss2();
        b.validate().unwrap();
        assert_eq!(b.redundancy.r, 2);
        assert_eq!(a.fu, b.fu);
        assert_eq!(a.ruu_size, b.ruu_size);
        assert_eq!(a.hierarchy, b.hierarchy);
    }

    #[test]
    fn static2_halves_core_keeps_caches_and_fpmul() {
        let m = MachineConfig::static2();
        m.validate().unwrap();
        assert_eq!(m.fetch_width, 4);
        assert_eq!(m.ruu_size, 64);
        assert_eq!(m.fu.int_alu, 2);
        assert_eq!(m.fu.fp_mul, 1); // the "extra" FP Mult/Div per pipe
        assert_eq!(m.hierarchy, MachineConfig::ss1().hierarchy);
        assert_eq!(m.predictor, MachineConfig::ss1().predictor);
    }

    #[test]
    fn majority_preset() {
        let m = MachineConfig::ss3_majority();
        m.validate().unwrap();
        assert!(m.redundancy.majority);
        assert_eq!(m.redundancy.threshold, 2);
    }

    #[test]
    fn scales() {
        let m = MachineConfig::ss1().with_fu_scale(Scale::Half);
        assert_eq!(m.fu.int_alu, 2);
        assert_eq!(m.fu.fp_mul, 1); // floor at 1
        let m = MachineConfig::ss1().with_ruu_scale(Scale::Two);
        assert_eq!(m.ruu_size, 256);
        assert_eq!(m.lsq_size, 128);
        assert_eq!(Scale::Infinite.label(), "inf");
    }

    #[test]
    fn group_must_fit_dispatch() {
        let mut m = MachineConfig::ss2();
        m.dispatch_width = 1;
        assert_eq!(
            m.validate(),
            Err(ConfigError::GroupExceedsDispatch { width: 1, r: 2 })
        );
    }

    #[test]
    fn group_must_fit_commit() {
        let mut m = MachineConfig::ss3();
        m.commit_width = 2;
        assert_eq!(
            m.validate(),
            Err(ConfigError::GroupExceedsCommit { width: 2, r: 3 })
        );
    }

    #[test]
    fn majority_needs_three() {
        let m = MachineConfig::ss2().with_redundancy(RedundancyConfig {
            r: 2,
            majority: true,
            threshold: 2,
        });
        assert_eq!(m.validate(), Err(ConfigError::MajorityNeedsThree { r: 2 }));
    }

    #[test]
    fn zero_redundancy_rejected() {
        let m = MachineConfig::ss1().with_redundancy(RedundancyConfig {
            r: 0,
            majority: false,
            threshold: 1,
        });
        assert_eq!(m.validate(), Err(ConfigError::ZeroRedundancy));
    }

    #[test]
    fn threshold_invariants() {
        let zero = RedundancyConfig {
            r: 2,
            majority: false,
            threshold: 0,
        };
        assert_eq!(zero.validate(), Err(ConfigError::ZeroThreshold));
        let high = RedundancyConfig {
            r: 2,
            majority: false,
            threshold: 3,
        };
        assert_eq!(
            high.validate(),
            Err(ConfigError::ThresholdExceedsR { threshold: 3, r: 2 })
        );
        let weak = RedundancyConfig {
            r: 3,
            majority: true,
            threshold: 1,
        };
        assert_eq!(
            weak.validate(),
            Err(ConfigError::WeakMajorityThreshold { threshold: 1, r: 3 })
        );
    }

    #[test]
    fn zero_fu_counts_rejected() {
        let mut m = MachineConfig::ss1();
        m.fu.int_alu = 0;
        assert_eq!(
            m.validate(),
            Err(ConfigError::ZeroFuCount { unit: "int_alu" })
        );
        let mut m = MachineConfig::ss1();
        m.fu.fp_mul = 0;
        assert_eq!(
            m.validate(),
            Err(ConfigError::ZeroFuCount { unit: "fp_mul" })
        );
    }

    #[test]
    fn small_queues_rejected() {
        let mut m = MachineConfig::ss3();
        m.ruu_size = 2;
        assert_eq!(
            m.validate(),
            Err(ConfigError::RuuTooSmall { size: 2, r: 3 })
        );
        let mut m = MachineConfig::ss3();
        m.lsq_size = 2;
        assert_eq!(
            m.validate(),
            Err(ConfigError::LsqTooSmall { size: 2, r: 3 })
        );
        let mut m = MachineConfig::ss1();
        m.ifq_size = 0;
        assert_eq!(m.validate(), Err(ConfigError::FrontEndTooSmall));
    }

    #[test]
    fn config_error_display_is_descriptive() {
        let e = ConfigError::GroupExceedsDispatch { width: 1, r: 2 };
        assert!(e.to_string().contains("dispatch width 1"));
        let e = ConfigError::ZeroFuCount { unit: "fp_add" };
        assert!(e.to_string().contains("fp_add"));
    }
}
