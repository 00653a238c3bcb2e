//! Declarative sweep grids and the parallel cell runner.

use crate::harness::grid::Grid;
use crate::harness::plan::SweepPlan;
use crate::harness::record::RunRecord;
use ftsim_core::{ConfigError, MachineConfig, OracleMode, RunLimits};
use ftsim_faults::SiteMix;
use ftsim_isa::Program;
use ftsim_obs::metrics;
use ftsim_workloads::WorkloadProfile;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Default committed-instruction budget per cell (the experiments'
/// standard sample size; the paper simulates 1 B instructions, whose
/// steady-state shape is stable well below that).
pub const DEFAULT_BUDGET: u64 = 60_000;

/// One workload axis entry: a calibrated benchmark profile or an ad-hoc
/// named program.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A Table 2-calibrated synthetic benchmark.
    Profile(WorkloadProfile),
    /// A fixed program under a display name (budget still limits the run,
    /// but the program is used as-is).
    Program {
        /// Display name for records.
        name: String,
        /// The program to run.
        program: Program,
    },
}

impl Workload {
    /// Display name for records.
    pub fn name(&self) -> &str {
        match self {
            Workload::Profile(p) => p.name,
            Workload::Program { name, .. } => name,
        }
    }

    /// Suite label for records (empty for ad-hoc programs).
    pub fn suite(&self) -> &str {
        match self {
            Workload::Profile(p) => p.suite,
            Workload::Program { .. } => "",
        }
    }

    /// The program to simulate for a given instruction budget: generated
    /// from the profile, or a copy of the ad-hoc program. Each call
    /// builds one and counts it in `ftsim_programs_built_total`.
    pub fn program_for(&self, budget: u64) -> Program {
        static BUILT: OnceLock<metrics::Counter> = OnceLock::new();
        BUILT
            .get_or_init(|| metrics::counter("ftsim_programs_built_total", &[]))
            .inc();
        match self {
            Workload::Profile(p) => p.program_for_instructions(budget),
            Workload::Program { program, .. } => program.clone(),
        }
    }
}

impl From<WorkloadProfile> for Workload {
    fn from(p: WorkloadProfile) -> Self {
        Workload::Profile(p)
    }
}

impl From<(&str, Program)> for Workload {
    fn from((name, program): (&str, Program)) -> Self {
        Workload::Program {
            name: name.to_string(),
            program,
        }
    }
}

/// Grid misconfiguration, reported by [`Experiment::run`] before any cell
/// simulates.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// The workload axis is empty.
    NoWorkloads,
    /// The model axis is empty.
    NoModels,
    /// An axis that must be non-empty was set to nothing.
    EmptyAxis {
        /// Which axis (`"budgets"`, `"seeds"`, `"fault_rates"`).
        axis: &'static str,
    },
    /// A machine model fails validation.
    InvalidModel {
        /// The model's display name.
        model: String,
        /// The violated invariant.
        source: ConfigError,
    },
    /// A fault rate outside `[0, 1e6]` faults per million instructions.
    InvalidFaultRate(f64),
    /// A zero instruction budget.
    ZeroBudget,
    /// The product of the axis lengths overflows `usize`.
    TooManyCells,
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::NoWorkloads => write!(f, "experiment has no workloads"),
            ExperimentError::NoModels => write!(f, "experiment has no machine models"),
            ExperimentError::EmptyAxis { axis } => {
                write!(f, "experiment axis `{axis}` was set to an empty list")
            }
            ExperimentError::InvalidModel { model, source } => {
                write!(f, "invalid machine model `{model}`: {source}")
            }
            ExperimentError::InvalidFaultRate(rate) => write!(
                f,
                "fault rate {rate} per million instructions is not in [0, 1e6]"
            ),
            ExperimentError::ZeroBudget => write!(f, "instruction budget must be nonzero"),
            ExperimentError::TooManyCells => write!(f, "experiment grid has too many cells"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::InvalidModel { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A declarative experiment grid: workloads × models × fault rates ×
/// site mixes × budgets × seeds, executed cell-by-cell on a thread pool.
///
/// Cells are enumerated with the workload as the outermost axis and the
/// seed as the innermost, and the result vector always comes back in that
/// order regardless of how many worker threads ran it — the records of a
/// parallel run are byte-identical to a sequential one.
///
/// # Examples
///
/// A miniature of the paper's Figure 5 sweep (three machine models over
/// benchmarks, fault-free):
///
/// ```
/// use ftsim::harness::Experiment;
/// use ftsim_core::MachineConfig;
/// use ftsim_workloads::profile;
///
/// let records = Experiment::grid()
///     .workloads([profile("go").unwrap()])
///     .models([MachineConfig::ss1(), MachineConfig::static2(), MachineConfig::ss2()])
///     .budget(2_000)
///     .run()
///     .unwrap();
/// let names: Vec<&str> = records.iter().map(|r| r.model.as_str()).collect();
/// assert_eq!(names, ["SS-1", "Static-2", "SS-2"]);
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    pub(crate) workloads: Vec<Workload>,
    pub(crate) models: Vec<MachineConfig>,
    pub(crate) fault_rates_pm: Vec<f64>,
    pub(crate) site_mixes: Vec<SiteMix>,
    pub(crate) budgets: Vec<u64>,
    pub(crate) seeds: Vec<u64>,
    pub(crate) oracle: OracleMode,
    pub(crate) threads: usize,
    pub(crate) limits: Option<RunLimits>,
    pub(crate) checkpointing: bool,
    pub(crate) prior: Vec<RunRecord>,
}

impl Experiment {
    /// Starts an empty grid: no workloads or models yet, fault-free,
    /// [`DEFAULT_BUDGET`], seed 0, oracle off, one worker per core.
    /// Checkpoint-forking (see [`Experiment::checkpointing`]) defaults to
    /// off.
    pub fn grid() -> Self {
        Self {
            workloads: Vec::new(),
            models: Vec::new(),
            fault_rates_pm: vec![0.0],
            site_mixes: vec![SiteMix::uniform()],
            budgets: vec![DEFAULT_BUDGET],
            seeds: vec![0],
            oracle: OracleMode::Off,
            threads: 0,
            limits: None,
            checkpointing: false,
            prior: Vec::new(),
        }
    }

    /// Sets the workload axis (benchmark profiles and/or named programs).
    #[must_use]
    pub fn workloads<I, W>(mut self, workloads: I) -> Self
    where
        I: IntoIterator<Item = W>,
        W: Into<Workload>,
    {
        self.workloads = workloads.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the machine-model axis.
    #[must_use]
    pub fn models<I: IntoIterator<Item = MachineConfig>>(mut self, models: I) -> Self {
        self.models = models.into_iter().collect();
        self
    }

    /// Sets the fault-frequency axis, in faults per million instructions
    /// (Figure 6's x-axis unit). Default: fault-free.
    #[must_use]
    pub fn fault_rates<I: IntoIterator<Item = f64>>(mut self, rates_pm: I) -> Self {
        self.fault_rates_pm = rates_pm.into_iter().collect();
        self
    }

    /// Sets the fault-site-mix axis: each cell's injector weights its
    /// choice of injection site by one [`SiteMix`] (named presets such as
    /// `uniform`, `addr-heavy`, `control-only`). Default: uniform only.
    ///
    /// Cells differing only in site mix belong to the same
    /// checkpoint-fork *family* — the fault-free prefix is
    /// mix-independent because a non-firing injector draw consumes
    /// exactly one random sample under any mix.
    #[must_use]
    pub fn site_mixes<I: IntoIterator<Item = SiteMix>>(mut self, mixes: I) -> Self {
        self.site_mixes = mixes.into_iter().collect();
        self
    }

    /// Sets the committed-instruction budget axis. Default:
    /// [`DEFAULT_BUDGET`].
    #[must_use]
    pub fn budgets<I: IntoIterator<Item = u64>>(mut self, budgets: I) -> Self {
        self.budgets = budgets.into_iter().collect();
        self
    }

    /// Convenience: a single-budget axis.
    #[must_use]
    pub fn budget(self, budget: u64) -> Self {
        self.budgets(Some(budget))
    }

    /// Sets the fault-injector seed axis (one cell per seed — used to
    /// retry stochastic sweeps with fresh seeds). Default: `[0]`.
    #[must_use]
    pub fn seeds<I: IntoIterator<Item = u64>>(mut self, seeds: I) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the oracle mode for every cell. Default: [`OracleMode::Off`]
    /// (performance sweeps).
    #[must_use]
    pub fn oracle(mut self, oracle: OracleMode) -> Self {
        self.oracle = oracle;
        self
    }

    /// Caps the worker-thread count; `0` (default) uses one worker per
    /// available core.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the per-cell cycle/watchdog limits (default: derived
    /// from each cell's budget, with a proportionate cycle ceiling).
    /// The instruction limit is still capped at each cell's budget, so
    /// the budgets axis keeps meaning what the records say.
    #[must_use]
    pub fn limits(mut self, limits: RunLimits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Enables or disables checkpoint-forking (prefix sharing).
    ///
    /// When enabled, each grid *family* — the cells sharing a (workload,
    /// model, budget) and differing only in fault rate, site mix and
    /// seed — runs one
    /// fault-free baseline that drops periodic machine checkpoints
    /// ([`ftsim_core::Simulator::run_with_checkpoints`]). The baseline's result serves
    /// every fault-free cell directly, and each faulty cell *forks*: it
    /// restores the newest checkpoint taken at or before its injector's
    /// first possible fault
    /// ([`ftsim_faults::FaultInjector::first_possible_fire`]) and simulates only the
    /// post-divergence suffix. With [`Experiment::resume_from`] records,
    /// a family's recorded fault-free cell serves its pending fault-free
    /// cells, and its faulty cells whose first possible fault lies past
    /// the draws a fault-free run makes, without simulating them. Records
    /// are byte-identical to cold-start runs — forking and serving change
    /// wall-clock cost, never results.
    ///
    /// Default: off.
    #[must_use]
    pub fn checkpointing(mut self, enabled: bool) -> Self {
        self.checkpointing = enabled;
        self
    }

    /// Provides records from a previous run (e.g. parsed from an exported
    /// CSV with [`crate::harness::from_csv`]); cells whose identity —
    /// workload and suite, model and redundancy, fault rate (bit-exact),
    /// site mix, seed, budget, oracle mode — matches a *successful* prior
    /// record are not re-simulated, and the first such prior record is
    /// returned in the cell's grid slot instead. Failed prior records are
    /// re-run.
    ///
    /// The oracle mode is part of the identity, so feeding records from
    /// an [`OracleMode::Off`] sweep into an [`OracleMode::Final`] grid
    /// (or vice versa) never reuses them — the mismatched cells are
    /// simply re-simulated under this grid's verification level.
    ///
    /// Caveat: records still do not carry [`Experiment::limits`]
    /// overrides; resumption assumes the prior run used the same run
    /// limits as this grid.
    #[must_use]
    pub fn resume_from<I: IntoIterator<Item = RunRecord>>(mut self, prior: I) -> Self {
        self.prior.extend(prior);
        self
    }

    /// Number of grid cells this experiment will run; `usize::MAX` for a
    /// grid too large to count, which validation rejects.
    pub fn cells(&self) -> usize {
        self.checked_cells().unwrap_or(usize::MAX)
    }

    /// The product of the axis lengths, unless it overflows.
    fn checked_cells(&self) -> Option<usize> {
        self.axis_lengths()
            .into_iter()
            .try_fold(1usize, usize::checked_mul)
    }

    /// The axis lengths in grid order, outermost first.
    pub(crate) fn axis_lengths(&self) -> [usize; 6] {
        [
            self.workloads.len(),
            self.models.len(),
            self.fault_rates_pm.len(),
            self.site_mixes.len(),
            self.budgets.len(),
            self.seeds.len(),
        ]
    }

    pub(crate) fn validate(&self) -> Result<(), ExperimentError> {
        if self.workloads.is_empty() {
            return Err(ExperimentError::NoWorkloads);
        }
        if self.models.is_empty() {
            return Err(ExperimentError::NoModels);
        }
        for (axis, empty) in [
            ("fault_rates", self.fault_rates_pm.is_empty()),
            ("site_mixes", self.site_mixes.is_empty()),
            ("budgets", self.budgets.is_empty()),
            ("seeds", self.seeds.is_empty()),
        ] {
            if empty {
                return Err(ExperimentError::EmptyAxis { axis });
            }
        }
        for model in &self.models {
            model
                .validate()
                .map_err(|source| ExperimentError::InvalidModel {
                    model: model.name.clone(),
                    source,
                })?;
        }
        for &rate in &self.fault_rates_pm {
            if !(0.0..=1e6).contains(&rate) || rate.is_nan() {
                return Err(ExperimentError::InvalidFaultRate(rate));
            }
        }
        if self.budgets.contains(&0) {
            return Err(ExperimentError::ZeroBudget);
        }
        self.checked_cells()
            .map(drop)
            .ok_or(ExperimentError::TooManyCells)
    }

    /// Validates the grid and runs every cell, fanning out across worker
    /// threads; records come back in grid order (workload-major,
    /// seed-minor), identical for any worker count.
    ///
    /// With [`Experiment::checkpointing`] enabled the runner shares each
    /// family's fault-free prefix (see that method's docs); with
    /// [`Experiment::resume_from`] records, already-simulated cells are
    /// returned as-is. Neither changes a single byte of any record — only
    /// how much work producing them costs. Workers run the grid family by
    /// family and free each family's baseline, checkpoints included, once
    /// its last cell has run, so about one baseline per worker is alive
    /// at a time, however many families the grid has.
    ///
    /// A cell whose *simulation* fails (wedged machine, cycle-budget
    /// overrun — possible at extreme fault rates) produces a record with
    /// [`RunRecord::ok`]` == false` rather than aborting the sweep.
    ///
    /// # Errors
    ///
    /// [`ExperimentError`] when the grid itself is misconfigured.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (a simulator bug, not an
    /// experiment failure).
    pub fn run(self) -> Result<Vec<RunRecord>, ExperimentError> {
        Ok(self.plan()?.run_all())
    }

    /// Validates the grid and materializes it into a [`SweepPlan`] —
    /// prior records matched to cells, fork bounds computed and families
    /// grouped — without running anything.
    ///
    /// [`Experiment::run`] is `plan()` followed by executing every cell
    /// across a worker pool; callers that need finer control (the
    /// `ftsimd` daemon streams each cell's record to disk as it
    /// completes, one claimed family at a time) execute the plan
    /// cell-by-cell instead.
    ///
    /// # Errors
    ///
    /// [`ExperimentError`] when the grid is misconfigured.
    pub fn plan(self) -> Result<SweepPlan, ExperimentError> {
        self.plan_with(|workload, budget| Arc::new(workload.program_for(budget)))
    }

    /// As [`Experiment::plan`], but each (workload, budget) program comes
    /// from `program` instead of being built for this plan, so plans can
    /// share programs, and the digest memos of their data images. For
    /// the plan to be this grid's, `program(workload, budget)` must
    /// return the program [`Workload::program_for`] builds.
    ///
    /// # Errors
    ///
    /// [`ExperimentError`] when the grid is misconfigured; `program` is
    /// not called then.
    pub fn plan_with(
        self,
        program: impl FnMut(&Workload, u64) -> Arc<Program>,
    ) -> Result<SweepPlan, ExperimentError> {
        SweepPlan::new(self, program)
    }

    /// Family `f` of this experiment's `grid` ([`Grid::family`]) as an
    /// experiment of its own: the family's workload, model and budget,
    /// with this grid's fault-rate, site-mix and seed axes and its other
    /// settings, and no prior records. A record is a pure function of its
    /// cell's identity, so the family's cells come out of it byte for
    /// byte as out of the whole grid, with the same fork bounds and
    /// baseline, at the planning cost of one family.
    pub fn family(&self, grid: &Grid, f: usize) -> Experiment {
        let cell = grid.cell(grid.family_cells(f).next().expect("a family has cells"));
        Experiment {
            workloads: vec![self.workloads[cell.workload].clone()],
            models: vec![self.models[cell.model].clone()],
            fault_rates_pm: self.fault_rates_pm.clone(),
            site_mixes: self.site_mixes.clone(),
            budgets: vec![self.budgets[cell.budget]],
            seeds: self.seeds.clone(),
            oracle: self.oracle,
            threads: self.threads,
            limits: self.limits,
            checkpointing: self.checkpointing,
            prior: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsim_isa::asm;
    use ftsim_workloads::{profile, spec_profiles};

    /// The identity half of every cell's record, in grid order.
    fn identities(e: &Experiment) -> Vec<RunRecord> {
        let plan = e.clone().plan().unwrap();
        (0..plan.len()).map(|idx| plan.identity(idx)).collect()
    }

    #[test]
    fn empty_axes_are_rejected() {
        assert_eq!(
            Experiment::grid().run().unwrap_err(),
            ExperimentError::NoWorkloads
        );
        assert_eq!(
            Experiment::grid()
                .workloads([profile("gcc").unwrap()])
                .run()
                .unwrap_err(),
            ExperimentError::NoModels
        );
        let base = || {
            Experiment::grid()
                .workloads([profile("gcc").unwrap()])
                .models([MachineConfig::ss1()])
        };
        assert_eq!(
            base().budgets([]).run().unwrap_err(),
            ExperimentError::EmptyAxis { axis: "budgets" }
        );
        assert_eq!(
            base().seeds([]).run().unwrap_err(),
            ExperimentError::EmptyAxis { axis: "seeds" }
        );
        assert_eq!(
            base().fault_rates([]).run().unwrap_err(),
            ExperimentError::EmptyAxis {
                axis: "fault_rates"
            }
        );
    }

    #[test]
    fn invalid_models_and_rates_are_rejected() {
        let mut bad = MachineConfig::ss2().named("bad");
        bad.commit_width = 1;
        let err = Experiment::grid()
            .workloads([profile("gcc").unwrap()])
            .models([bad])
            .run()
            .unwrap_err();
        assert!(
            matches!(err, ExperimentError::InvalidModel { ref model, .. } if model == "bad"),
            "{err}"
        );

        let err = Experiment::grid()
            .workloads([profile("gcc").unwrap()])
            .models([MachineConfig::ss1()])
            .fault_rates([-1.0])
            .run()
            .unwrap_err();
        assert_eq!(err, ExperimentError::InvalidFaultRate(-1.0));

        let err = Experiment::grid()
            .workloads([profile("gcc").unwrap()])
            .models([MachineConfig::ss1()])
            .budget(0)
            .run()
            .unwrap_err();
        assert_eq!(err, ExperimentError::ZeroBudget);
    }

    #[test]
    fn grid_order_is_workload_major() {
        let records = Experiment::grid()
            .workloads([profile("gcc").unwrap(), profile("go").unwrap()])
            .models([MachineConfig::ss1(), MachineConfig::ss2()])
            .budget(1_500)
            .run()
            .unwrap();
        let keys: Vec<(&str, &str)> = records
            .iter()
            .map(|r| (r.workload.as_str(), r.model.as_str()))
            .collect();
        assert_eq!(
            keys,
            [
                ("gcc", "SS-1"),
                ("gcc", "SS-2"),
                ("go", "SS-1"),
                ("go", "SS-2"),
            ]
        );
    }

    #[test]
    fn identities_enumerate_in_run_order() {
        // Cell identities and run() must agree on grid order cell-for-cell.
        let e = Experiment::grid()
            .workloads([profile("gcc").unwrap(), profile("go").unwrap()])
            .models([MachineConfig::ss1(), MachineConfig::ss2()])
            .fault_rates([0.0, 100.0])
            .budget(1_000)
            .seeds([1, 2]);
        let ids = identities(&e);
        let records = e.clone().run().unwrap();
        assert_eq!(ids.len(), e.cells());
        assert_eq!(ids.len(), records.len());
        assert!(ids
            .iter()
            .zip(&records)
            .all(|(id, record)| record.same_identity(id)));
    }

    #[test]
    fn cells_counts_the_product() {
        let e = Experiment::grid()
            .workloads(spec_profiles())
            .models([MachineConfig::ss1(), MachineConfig::ss2()])
            .fault_rates([0.0, 100.0, 1_000.0])
            .budgets([1_000, 2_000])
            .seeds([1, 2, 3]);
        assert_eq!(e.cells(), 11 * 2 * 3 * 2 * 3);
    }

    #[test]
    fn ad_hoc_programs_run_as_workloads() {
        let p = asm::assemble("addi r1, r0, 7\nmul r2, r1, r1\nhalt\n").unwrap();
        let records = Experiment::grid()
            .workloads([("tiny", p)])
            .models([MachineConfig::ss2()])
            .oracle(OracleMode::Final)
            .run()
            .unwrap();
        assert_eq!(records.len(), 1);
        assert!(records[0].ok(), "{}", records[0].error);
        assert_eq!(records[0].workload, "tiny");
        assert_eq!(records[0].suite, "");
        assert!(records[0].halted);
        assert_eq!(records[0].retired_instructions, 3);
    }

    #[test]
    fn limits_override_keeps_the_budget_axis_meaningful() {
        // A blanket limits() override must not repeal per-cell budgets:
        // the cell still stops near its budget, as its record claims. The
        // program runs ~9000 instructions to halt, far past the budget.
        let long_loop = asm::assemble(
            "addi r1, r0, 3000\nloop:\naddi r2, r2, 1\naddi r1, r1, -1\nbne r1, r0, loop\nhalt\n",
        )
        .unwrap();
        let records = Experiment::grid()
            .workloads([("long_loop", long_loop)])
            .models([MachineConfig::ss1()])
            .budget(1_000)
            .limits(RunLimits::default())
            .run()
            .unwrap();
        let r = &records[0];
        assert!(r.ok(), "{}", r.error);
        assert_eq!(r.budget, 1_000);
        assert!(!r.halted, "budget should stop the run before halt");
        assert!(
            r.retired_instructions >= 1_000 && r.retired_instructions < 2_000,
            "budget ignored: retired {}",
            r.retired_instructions
        );
    }

    #[test]
    fn checkpoint_forking_is_byte_identical_to_cold_runs() {
        // The whole point of prefix sharing: forked grids must not change
        // a single byte of any record — across fault-free cells (served by
        // the family baseline), forked faulty cells, and cold-fallback
        // cells whose first fault lands before the first checkpoint.
        let build = || {
            Experiment::grid()
                .workloads([profile("fpppp").unwrap(), profile("gcc").unwrap()])
                .models([MachineConfig::ss2(), MachineConfig::ss3_majority()])
                .fault_rates([0.0, 200.0, 5_000.0, 50_000.0])
                .budget(4_000)
                .seeds([3])
                .oracle(OracleMode::Final)
        };
        let cold = build().checkpointing(false).run().unwrap();
        let forked = build().checkpointing(true).run().unwrap();
        assert_eq!(
            crate::harness::to_csv(&cold),
            crate::harness::to_csv(&forked)
        );
        // The corpus must actually exercise fault handling, or the
        // equality proves nothing.
        assert!(cold.iter().any(|r| r.faults_injected > 0));
        assert!(cold.iter().any(|r| r.fault_rewinds > 0));
    }

    #[test]
    fn resume_skips_matching_cells_and_reruns_failures() {
        let build = || {
            Experiment::grid()
                .workloads([profile("bzip").unwrap()])
                .models([MachineConfig::ss1(), MachineConfig::ss2()])
                .budget(1_500)
        };
        let first = build().run().unwrap();
        assert!(first.iter().all(|r| r.ok()));

        // Poison one prior record's outcome but keep it ok(): if the cell
        // is skipped, the poisoned value must come back verbatim — proof
        // the simulation did not re-run.
        let mut prior = first.clone();
        prior[0].cycles = 123_456_789;
        // A *failed* prior record must be re-simulated.
        prior[1].error = "wedged last time".to_string();

        let resumed = build().resume_from(prior.clone()).run().unwrap();
        assert_eq!(resumed[0].cycles, 123_456_789, "cell 0 must be reused");
        assert!(resumed[1].ok(), "failed prior record must re-run");
        assert_eq!(resumed[1], first[1]);

        // A grid with a different budget matches nothing: everything
        // re-runs and the poisoned value does not leak.
        let fresh = build().budget(2_000).resume_from(prior).run().unwrap();
        assert!(fresh.iter().all(|r| r.cycles != 123_456_789));
    }

    #[test]
    fn resume_takes_the_first_successful_prior_of_each_cell() {
        let build = || {
            Experiment::grid()
                .workloads([profile("bzip").unwrap()])
                .models([MachineConfig::ss1(), MachineConfig::ss2()])
                .fault_rates([0.0, 1_000.0])
                .budget(1_500)
                .seeds([1, 2])
        };
        let ids = identities(&build());
        let outcome = |i: usize, cycles: u64, error: &str| {
            let mut r = ids[i].clone();
            r.cycles = cycles;
            r.error = error.to_string();
            r
        };
        let mut stranger = outcome(0, 9, "");
        stranger.seed = 99; // an identity outside the grid
        let prior = vec![
            outcome(0, 1, "wedged"), // errored, then two successes
            outcome(3, 30, ""),
            outcome(0, 2, ""),
            stranger,
            outcome(0, 3, ""),
            outcome(1, 10, "wedged"), // only ever errored
            outcome(2, 20, ""),       // success, then an errored duplicate
            outcome(2, 21, "wedged"),
            outcome(3, 31, ""),
        ];
        let plan = build().resume_from(prior.clone()).plan().unwrap();
        let chosen: Vec<Option<u64>> = (0..plan.len())
            .map(|i| plan.prior(i).map(|r| r.cycles))
            .collect();
        let mut expected = vec![None; ids.len()];
        expected[0] = Some(2);
        expected[2] = Some(20);
        expected[3] = Some(30);
        assert_eq!(chosen, expected);
        // The same choice as a linear search for the first ok match.
        for (i, id) in ids.iter().enumerate() {
            let first = prior.iter().find(|p| p.ok() && p.same_identity(id));
            assert_eq!(plan.prior(i), first, "cell {i}");
        }
    }

    #[test]
    fn resume_never_reuses_records_from_a_different_oracle_mode() {
        // Regression: before the oracle mode joined the record identity,
        // resuming an OracleMode::Final grid from an OracleMode::Off
        // sweep silently reused unverified cells.
        let build = |oracle| {
            Experiment::grid()
                .workloads([profile("bzip").unwrap()])
                .models([MachineConfig::ss1()])
                .budget(1_500)
                .oracle(oracle)
        };
        let off = build(OracleMode::Off).run().unwrap();
        assert!(off.iter().all(|r| r.ok()));
        assert_eq!(off[0].oracle, "off");

        // Poison the Off-mode record's outcome; a Final grid must not
        // echo it back.
        let mut prior = off.clone();
        prior[0].cycles = 123_456_789;
        let resumed = build(OracleMode::Final).resume_from(prior).run().unwrap();
        assert_ne!(
            resumed[0].cycles, 123_456_789,
            "unverified Off-mode record leaked into a Final grid"
        );
        assert_eq!(resumed[0].oracle, "final");

        // Same oracle mode still resumes as before.
        let mut prior = off.clone();
        prior[0].cycles = 123_456_789;
        let reused = build(OracleMode::Off).resume_from(prior).run().unwrap();
        assert_eq!(reused[0].cycles, 123_456_789, "matching mode must reuse");
    }

    #[test]
    fn fault_cells_record_fates() {
        let records = Experiment::grid()
            .workloads([profile("equake").unwrap()])
            .models([MachineConfig::ss2()])
            .fault_rates([5_000.0])
            .budget(2_000)
            .seeds([7])
            .oracle(OracleMode::Final)
            .run()
            .unwrap();
        let r = &records[0];
        assert!(r.ok(), "{}", r.error);
        assert!(r.faults_injected > 0);
        assert_eq!(r.faults_escaped, 0);
        assert_eq!(r.fault_rate_pm, 5_000.0);
        assert_eq!(r.seed, 7);
    }
}
