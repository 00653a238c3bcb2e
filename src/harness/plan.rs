//! The sweep planner: resume matching, family grouping and the
//! checkpoint/fork baseline machinery behind [`Experiment::run`].
//!
//! A [`SweepPlan`] is a *materialized* grid ([`Grid`]): prior (resumed)
//! records matched to their cells, fork bounds computed for live faulty
//! cells, and cells grouped into **families** — the sets sharing a
//! (workload, budget, model) coordinate and therefore a fault-free prefix.
//! With checkpointing on, a family's recorded fault-free outcome also
//! serves every live cell whose run it is: its fault-free cells, and
//! faulty cells whose first possible fire lies past the draws a
//! fault-free run makes. A cell takes one of four paths ([`CellPath`]):
//! served from a prior record, served from a fault-free outcome (a
//! family baseline's or a prior's), forked, or cold.
//! One-shot grids ([`Experiment::run`]) and the long-running `ftsimd`
//! daemon both execute through this type, so the scheduling rules — which
//! families run a checkpointed baseline, when a faulty cell may fork, why
//! records stay byte-identical — live in exactly one place.
//!
//! Execution is pull-based and thread-safe: [`SweepPlan::run_cell`] can be
//! called for any cell index from any thread, in any order. A family's
//! baseline is computed lazily, at most once, the first time one of its
//! cells needs it (or [`SweepPlan::prepare_family`] warms it), and kept
//! until the plan drops. The one-shot runner ([`Experiment::run`]) runs
//! the grid family by family instead and frees each baseline after its
//! family's last cell, so its peak memory follows its worker count, not
//! the grid's family count. The `ftsimd` daemon streams results: it
//! claims one family at a time and runs a sub-plan narrowed to that
//! family's workload, budget and model cell by cell, so its worker reuses
//! the family's checkpoints with no coordination beyond the per-family
//! baseline lock.

use crate::harness::experiment::{Experiment, ExperimentError, Workload};
use crate::harness::grid::{Cell, Grid};
use crate::harness::record::RunRecord;
use ftsim_core::profile::{self, StageProfile};
use ftsim_core::{
    fork_point, Checkpoint, MachineConfig, RunLimits, SimBuilder, SimResult, Simulator,
};
use ftsim_faults::{per_million, FaultInjector};
use ftsim_isa::Program;
use ftsim_obs::metrics;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Smallest first-possible-injection draw index for which running a
/// *dedicated* family baseline (one that serves no fault-free cell of its
/// own) pays for itself. Families containing a fault-free cell always run
/// the baseline — it *is* that cell's simulation.
const MIN_WORTHWHILE_FORK_DRAWS: u64 = 4_096;

/// Checkpoint spacing for a family baseline, in cycles: fine enough that
/// the skipped prefix tracks each cell's divergence point closely, coarse
/// enough that snapshot cost stays a small fraction of the run. Anything
/// that forks a cell outside a sweep (the fuzzer's shrinker) takes its
/// snapshots at these cycles too.
pub fn checkpoint_interval(budget: u64) -> u64 {
    (budget / 32).clamp(256, 8_192)
}

/// How far ahead to scan an injector's stream for its first possible
/// fire: generously past the draws a cell can make (`R` per instruction,
/// re-dispatches included), so "no fire within the horizon" really means
/// the whole run is fault-free.
fn fork_horizon(budget: u64, model: &MachineConfig) -> u64 {
    budget
        .saturating_mul(u64::from(model.redundancy.r))
        .saturating_mul(4)
        .saturating_add(100_000)
}

/// Which of [`SweepPlan::run_cell`]'s four execution paths produced a
/// record. All four yield byte-identical records; the path is pure
/// observability (cost attribution, trace events, metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellPath {
    /// Served verbatim from a prior record (resume).
    Resumed,
    /// Served by a fault-free outcome: the family baseline's own run, or
    /// a recorded fault-free cell of the family. The cell is fault-free,
    /// or no draw of a fault-free run could fire for it, so that run is
    /// its run. Nothing is simulated for the cell itself.
    Baseline,
    /// Forked from a family checkpoint past the fault-free prefix.
    Forked,
    /// Simulated from cycle zero.
    Cold,
}

impl CellPath {
    /// Stable lowercase name, used as a metric label and trace kind.
    pub fn name(self) -> &'static str {
        match self {
            CellPath::Resumed => "resumed",
            CellPath::Baseline => "baseline",
            CellPath::Forked => "forked",
            CellPath::Cold => "cold",
        }
    }
}

/// Metric handles the sweep hot path resolves once per process. The
/// cycle/instruction counters account **work actually simulated by this
/// process** — a forked cell adds only its post-checkpoint suffix, a
/// baseline-served cell adds nothing (the baseline run itself already
/// counted) — so `ftsim_sim_cycles_total` divided by wall time is an
/// honest per-worker throughput, not an as-if-cold figure.
struct ObsHandles {
    cells: [metrics::Counter; 4],
    sim_cycles: metrics::Counter,
    sim_instructions: metrics::Counter,
    checkpoints_taken: metrics::Counter,
    checkpoint_bytes: metrics::Counter,
}

fn obs() -> &'static ObsHandles {
    static HANDLES: OnceLock<ObsHandles> = OnceLock::new();
    HANDLES.get_or_init(|| ObsHandles {
        cells: [
            CellPath::Resumed,
            CellPath::Baseline,
            CellPath::Forked,
            CellPath::Cold,
        ]
        .map(|p| metrics::counter("ftsim_cells_total", &[("path", p.name())])),
        sim_cycles: metrics::counter("ftsim_sim_cycles_total", &[]),
        sim_instructions: metrics::counter("ftsim_sim_instructions_total", &[]),
        checkpoints_taken: metrics::counter("ftsim_checkpoints_taken_total", &[]),
        checkpoint_bytes: metrics::counter("ftsim_checkpoint_bytes_total", &[]),
    })
}

/// A family baseline's outcome: the fault-free result (serving the
/// family's rate-0 cells) and the periodic checkpoints (serving forks).
type Baseline = (Result<SimResult, String>, Vec<Checkpoint>);

/// A (workload, budget, model) family and its shared baseline state.
struct Family {
    /// One of its cells, for the workload, budget and model positions.
    cell: Cell,
    /// Largest draw index any live faulty sibling can fork at (`None`
    /// when the family has no live faulty cells at all — no snapshots
    /// are taken then).
    snapshot_horizon: Option<u64>,
    /// Computed lazily, at most once, under this lock.
    baseline: Mutex<Option<Baseline>>,
}

/// One step of the one-shot runner's work.
enum Task {
    /// Compute family `fi`'s baseline; its members wait for it.
    Baseline(usize),
    /// Run grid cell `idx`.
    Cell(usize),
}

/// A family the one-shot runner has opened and not yet handed out whole.
struct OpenFamily {
    family: usize,
    members: std::vec::IntoIter<usize>,
    /// Whether the baseline exists, so a member runs without waiting.
    ready: bool,
}

/// The one-shot runner's family-major work queue (see
/// [`SweepPlan::run_all`]). Cells of one family run back to back, so a
/// baseline lives from its family's opening to its last member's end.
struct Schedule {
    /// Units not yet opened, in order of their first cell: a family,
    /// opened by computing its baseline, or one cell no family serves.
    unopened: std::vec::IntoIter<Task>,
    /// Per family: its members in grid order, until it opens.
    members: Vec<Vec<usize>>,
    /// Opened families with members not yet handed out, oldest first.
    open: Vec<OpenFamily>,
    /// Per family: members that have not finished yet.
    unfinished: Vec<usize>,
}

impl Schedule {
    fn new(cell_family: &[Option<usize>], families: usize) -> Self {
        let mut unopened = Vec::new();
        let mut members = vec![Vec::new(); families];
        for (idx, &family) in cell_family.iter().enumerate() {
            match family {
                Some(fi) => {
                    if members[fi].is_empty() {
                        unopened.push(Task::Baseline(fi));
                    }
                    members[fi].push(idx);
                }
                None => unopened.push(Task::Cell(idx)),
            }
        }
        Self {
            unopened: unopened.into_iter(),
            unfinished: members.iter().map(Vec::len).collect(),
            members,
            open: Vec::new(),
        }
    }

    /// The next task: a member of the oldest open family whose baseline
    /// exists; else the next unit, a family opening with its baseline;
    /// else, with nothing left to open, a member of a family whose
    /// baseline is still being computed, which waits for it.
    fn next(&mut self) -> Option<Task> {
        self.open.retain(|f| !f.members.as_slice().is_empty());
        if let Some(f) = self.open.iter_mut().find(|f| f.ready) {
            return f.members.next().map(Task::Cell);
        }
        let task = self.unopened.next();
        if let Some(Task::Baseline(fi)) = task {
            self.open.push(OpenFamily {
                family: fi,
                members: std::mem::take(&mut self.members[fi]).into_iter(),
                ready: false,
            });
        }
        task.or_else(|| self.open.first_mut()?.members.next().map(Task::Cell))
    }

    /// Marks family `fi`'s baseline computed.
    fn ready(&mut self, fi: usize) {
        if let Some(f) = self.open.iter_mut().find(|f| f.family == fi) {
            f.ready = true;
        }
    }

    /// Counts one member of family `fi` finished; true for the last one.
    fn finish(&mut self, fi: usize) -> bool {
        self.unfinished[fi] -= 1;
        self.unfinished[fi] == 0
    }
}

/// Where a cell's record comes from without simulating it: an index in
/// the experiment's prior records.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// The cell's own prior record, returned verbatim (resume).
    Prior(usize),
    /// A fault-free prior of the cell's family, whose run is this cell's
    /// run; only its outcome fields are taken.
    FaultFree(usize),
}

/// A materialized, executable sweep: the output of [`Experiment::plan`].
///
/// The plan owns the validated experiment, its grid (cells addressed by
/// index, workload-major, seed-minor), the resumed-record matches, the
/// fork bounds, and the family table. It is immutable and [`Sync`]: cells
/// can be executed from any number of threads, and results are
/// byte-identical regardless of execution order (cells are independent
/// simulations; families only share *read-only* checkpoints once their
/// baseline is computed).
pub struct SweepPlan {
    exp: Experiment,
    /// One shared program per (workload, budget) coordinate.
    programs: Vec<Vec<Arc<Program>>>,
    grid: Grid,
    /// Per cell: the prior record serving it, if any.
    served: Vec<Option<Source>>,
    /// Per cell: the fork bound (live faulty cells only).
    bounds: Vec<Option<u64>>,
    families: Vec<Family>,
    /// Per cell: index into `families`, for live cells a family serves.
    cell_family: Vec<Option<usize>>,
}

impl SweepPlan {
    /// Materializes a validated experiment into an executable plan, with
    /// each (workload, budget) program from `program`.
    pub(crate) fn new(
        exp: Experiment,
        mut program: impl FnMut(&Workload, u64) -> Arc<Program>,
    ) -> Result<Self, ExperimentError> {
        let grid = Grid::new(&exp)?;

        // Take each distinct (workload, budget) program once, up front,
        // behind an `Arc`: cells share the image by reference count
        // instead of deep-copying instructions and data per cell.
        let programs: Vec<Vec<Arc<Program>>> = exp
            .workloads
            .iter()
            .map(|w| exp.budgets.iter().map(|&b| program(w, b)).collect())
            .collect();

        // Cells already present in the prior records are not re-simulated.
        // The first successful prior of each cell serves it. Per family,
        // the first successful prior of a fault-free cell is the family's
        // fault-free outcome.
        let mut served = vec![None; grid.cells()];
        let mut fault_free = vec![None; family_slots(&exp)];
        for (p, prior) in exp.prior.iter().enumerate().filter(|(_, p)| p.ok()) {
            for idx in grid.cells_of(prior) {
                served[idx].get_or_insert(Source::Prior(p));
                let cell = grid.cell(idx);
                if exp.fault_rates_pm[cell.rate] <= 0.0 {
                    fault_free[family_of(&exp, &cell)].get_or_insert(p);
                }
            }
        }

        // Fork bounds, computed once per live faulty cell (the scan
        // replays the injector's Bernoulli stream, so it is worth caching
        // between the planning pass and the cell run). A family's
        // fault-free outcome serves its live fault-free cells, and every
        // faulty cell whose bound reaches the `D` draws that outcome's run
        // made (`dispatched_entries`, one draw per dispatched entry): no
        // draw of that run fires, so it is the cell's run, draw for draw.
        // The scan then stops at `D`. Checkpointing off plans every live
        // cell cold, the reference the other paths are checked against.
        let mut bounds = vec![None; grid.cells()];
        for idx in 0..grid.cells() {
            if !exp.checkpointing || served[idx].is_some() {
                continue;
            }
            let cell = grid.cell(idx);
            let outcome = fault_free[family_of(&exp, &cell)];
            if exp.fault_rates_pm[cell.rate] <= 0.0 {
                served[idx] = outcome.map(Source::FaultFree);
                continue;
            }
            let draws = outcome.map(|p| exp.prior[p].dispatched_entries);
            let horizon = fork_horizon(exp.budgets[cell.budget], &exp.models[cell.model])
                .min(draws.unwrap_or(u64::MAX));
            // The bound depends only on the Bernoulli stream (rate,
            // seed) — a site mix cannot move it.
            let bound = cell_injector(&exp, &cell)
                .first_possible_fire(horizon)
                .unwrap_or(horizon);
            match outcome.filter(|&p| bound >= exp.prior[p].dispatched_entries) {
                Some(p) => served[idx] = Some(Source::FaultFree(p)),
                None => bounds[idx] = Some(bound),
            }
        }

        let (families, cell_family) = if exp.checkpointing {
            plan_families(&exp, &grid, &served, &bounds)
        } else {
            (Vec::new(), vec![None; grid.cells()])
        };

        Ok(Self {
            exp,
            programs,
            grid,
            served,
            bounds,
            families,
            cell_family,
        })
    }

    /// Number of grid cells (equal to [`Experiment::cells`]).
    pub fn len(&self) -> usize {
        self.grid.cells()
    }

    /// Whether the grid is empty (it never is for a validated experiment,
    /// but the convention pairs with [`SweepPlan::len`]).
    pub fn is_empty(&self) -> bool {
        self.grid.cells() == 0
    }

    /// The identity half of cell `idx`'s record, outcome fields zeroed.
    pub fn identity(&self, idx: usize) -> RunRecord {
        let (exp, cell) = (&self.exp, self.grid.cell(idx));
        let (workload, model) = (&exp.workloads[cell.workload], &exp.models[cell.model]);
        RunRecord {
            workload: workload.name().to_string(),
            suite: workload.suite().to_string(),
            model: model.name.clone(),
            r: model.redundancy.r,
            majority: model.redundancy.majority,
            threshold: model.redundancy.threshold,
            fault_rate_pm: exp.fault_rates_pm[cell.rate],
            site_mix: exp.site_mixes[cell.mix].name().to_string(),
            seed: exp.seeds[cell.seed],
            budget: exp.budgets[cell.budget],
            oracle: exp.oracle.name().to_string(),
            ..RunRecord::default()
        }
    }

    /// The prior record serving cell `idx`, when the experiment was built
    /// with [`Experiment::resume_from`] records matching it. Such cells
    /// are never re-simulated: [`SweepPlan::run_cell`] returns the prior
    /// record verbatim.
    pub fn prior(&self, idx: usize) -> Option<&RunRecord> {
        match self.served[idx] {
            Some(Source::Prior(p)) => Some(&self.exp.prior[p]),
            _ => None,
        }
    }

    /// The number of cells that still need simulating: served by neither
    /// their own prior record nor a recorded fault-free outcome.
    pub fn runnable(&self) -> usize {
        self.served.iter().filter(|r| r.is_none()).count()
    }

    /// Number of family baselines this plan will run.
    pub fn family_count(&self) -> usize {
        self.families.len()
    }

    /// The worker-thread cap configured on the experiment (`0` = one per
    /// available core), resolved against the number of runnable cells.
    pub fn workers(&self) -> usize {
        match self.exp.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
        .min(self.runnable().max(1))
        .max(1)
    }

    /// Computes family `fi`'s baseline if it has not been computed yet;
    /// it is kept until the plan drops. The one-shot runner calls this as
    /// it opens each family, so that a worker computes one baseline while
    /// another runs the cells of an earlier family. Callers driving cells
    /// themselves (the daemon) may skip it: [`SweepPlan::run_cell`] warms
    /// baselines lazily.
    pub fn prepare_family(&self, fi: usize) {
        drop(self.baseline_guard(&self.families[fi]));
    }

    /// Executes cell `idx` and returns its record through one of four
    /// paths: the prior record verbatim for resumed cells; a fault-free
    /// outcome for a cell whose run it is, taken from a recorded
    /// fault-free cell of the family or from the family baseline's run; a
    /// forked run for a faulty cell with a usable checkpoint; and a cold
    /// run otherwise. All four paths produce byte-identical records — the
    /// plan changes what a record *costs*, never what it says.
    pub fn run_cell(&self, idx: usize) -> RunRecord {
        self.run_cell_observed(idx).0
    }

    /// As [`SweepPlan::run_cell`], additionally reporting which execution
    /// path produced the record and the cell's stage profile (empty
    /// unless `FTSIM_PROFILE` / [`ftsim_core::profile::set_enabled`] is
    /// on). The extras are observability only — the record itself is
    /// byte-identical to what [`SweepPlan::run_cell`] returns.
    ///
    /// The profile is drained from this worker thread around the cell's
    /// simulation; when this call is also the one that (lazily) computes
    /// the family baseline, the baseline's cycles are attributed to this
    /// cell's profile.
    pub fn run_cell_observed(&self, idx: usize) -> (RunRecord, CellPath, StageProfile) {
        let (record, path) = match self.served[idx] {
            Some(Source::Prior(p)) => (self.exp.prior[p].clone(), CellPath::Resumed),
            Some(Source::FaultFree(p)) => (
                self.identity(idx).with_outcome_of(&self.exp.prior[p]),
                CellPath::Baseline,
            ),
            None => return self.simulate_cell(idx),
        };
        obs().cells[path as usize].inc();
        (record, path, StageProfile::default())
    }

    /// Simulates live cell `idx`, accounting its path and the work it
    /// simulated.
    fn simulate_cell(&self, idx: usize) -> (RunRecord, CellPath, StageProfile) {
        profile::reset();
        let (record, path, simulated) = self.run_cell_inner(idx);
        let stage_profile = profile::take();
        let m = obs();
        m.cells[path as usize].inc();
        m.sim_cycles.add(simulated.0);
        m.sim_instructions.add(simulated.1);
        (record, path, stage_profile)
    }

    /// A live cell's execution: baseline-served, forked or cold. Returns
    /// the record, the path taken and `(cycles, instructions)` **actually
    /// simulated by this call**
    /// (a fork's post-checkpoint suffix; zero for baseline-served cells —
    /// the baseline run counts when it executes, inside
    /// [`SweepPlan::baseline_guard`]).
    fn run_cell_inner(&self, idx: usize) -> (RunRecord, CellPath, (u64, u64)) {
        let cell = &self.grid.cell(idx);
        let record = self.identity(idx);
        let faulty = self.exp.fault_rates_pm[cell.rate] > 0.0;

        if let Some(fi) = self.cell_family[idx] {
            let family = &self.families[fi];
            let baseline = self.baseline_guard(family);
            let (outcome, checkpoints) = baseline.as_ref().expect("guard fills the baseline");
            if !faulty {
                // The baseline is this cell's simulation.
                let record = match outcome {
                    Ok(result) => record.fill_outcome(result),
                    Err(e) => record.fill_error(e.clone()),
                };
                return (record, CellPath::Baseline, (0, 0));
            }
            // Fork: newest checkpoint at or before the first possible
            // injection (horizon-capped by the planning pass, so every
            // candidate lies in the provably fault-free region).
            let bound = self.bounds[idx].expect("live faulty cells have a bound");
            let fork_from = fork_point(checkpoints, bound).cloned();
            drop(baseline); // release the family lock before simulating
            if let Some(cp) = fork_from {
                let builder = self
                    .coordinate_builder(cell)
                    .injector(cell_injector(&self.exp, cell));
                let fork_cycle = cp.cycle();
                let fork_retired = cp.retired_instructions();
                let record = match builder.build() {
                    Ok(mut sim) => {
                        sim.processor_mut().fork(cp);
                        match sim.run() {
                            Ok(result) => record.fill_outcome(&result),
                            Err(e) => record.fill_error(e.to_string()),
                        }
                    }
                    Err(e) => record.fill_error(ftsim_core::SimError::Invalid(e).to_string()),
                };
                // The record's totals include the restored prefix; only
                // the suffix beyond the checkpoint was simulated here.
                let simulated = (
                    record.cycles.saturating_sub(fork_cycle),
                    record.retired_instructions.saturating_sub(fork_retired),
                );
                return (record, CellPath::Forked, simulated);
            }
            // No usable checkpoint (first fire precedes the first
            // snapshot): fall through to a cold run.
        }

        let mut builder = self.coordinate_builder(cell);
        if faulty {
            builder = builder.injector(cell_injector(&self.exp, cell));
        }
        let record = match builder.run() {
            Ok(result) => record.fill_outcome(&result),
            Err(e) => record.fill_error(e.to_string()),
        };
        let simulated = (record.cycles, record.retired_instructions);
        (record, CellPath::Cold, simulated)
    }

    /// Runs every cell across `workers()` threads and returns records in
    /// grid order — the execution behind [`Experiment::run`].
    ///
    /// Workers pull from one family-major [`Schedule`]: a family's
    /// baseline is computed when the family opens, its members run once
    /// it exists, and the worker that finishes the last member drops it,
    /// checkpoints included. A worker with no computed baseline to serve
    /// opens the next family rather than waiting, so about `workers()`
    /// baselines are alive at once (one with a single worker), however
    /// many families the grid has. Only this runner releases baselines:
    /// [`SweepPlan::run_cell`] callers drive cells in their own order and
    /// keep every baseline until the plan drops.
    pub(crate) fn run_all(&self) -> Vec<RunRecord> {
        let schedule = Mutex::new(Schedule::new(&self.cell_family, self.families.len()));
        let records = Mutex::new(vec![None; self.len()]);
        std::thread::scope(|scope| {
            for _ in 0..self.workers() {
                scope.spawn(|| self.work(&schedule, &records));
            }
        });
        let records = records.into_inner().expect("records lock");
        records
            .into_iter()
            .map(|r| r.expect("every cell ran"))
            .collect()
    }

    /// One [`SweepPlan::run_all`] worker: runs tasks until the schedule
    /// has none left.
    fn work(&self, schedule: &Mutex<Schedule>, records: &Mutex<Vec<Option<RunRecord>>>) {
        let schedule = || schedule.lock().expect("schedule lock");
        loop {
            // Bound first: a guard in the `match` scrutinee would hold the
            // schedule lock for the whole task.
            let task = schedule().next();
            match task {
                None => return,
                Some(Task::Baseline(fi)) => {
                    self.prepare_family(fi);
                    schedule().ready(fi);
                }
                Some(Task::Cell(idx)) => {
                    let record = self.run_cell(idx);
                    records.lock().expect("records lock")[idx] = Some(record);
                    let family = self.cell_family[idx];
                    if let Some(fi) = family.filter(|&fi| schedule().finish(fi)) {
                        // The last member is done: nothing reads it again.
                        *self.families[fi].baseline.lock().expect("family lock") = None;
                    }
                }
            }
        }
    }

    /// Locks family `f`'s baseline slot, computing the baseline first if
    /// this is the first cell to need it. Blocking siblings while the
    /// baseline runs is intentional: they cannot make progress without it.
    fn baseline_guard<'a>(&self, f: &'a Family) -> MutexGuard<'a, Option<Baseline>> {
        let mut slot = f.baseline.lock().expect("family lock");
        if slot.is_none() {
            *slot = Some(self.run_baseline(f));
        }
        slot
    }

    /// Runs one family's fault-free baseline, collecting checkpoints.
    fn run_baseline(&self, f: &Family) -> Baseline {
        let builder = self.coordinate_builder(&f.cell);
        let baseline: Baseline = match builder.build() {
            Ok(sim) => match f.snapshot_horizon {
                // Faulty siblings exist: collect checkpoints for them.
                Some(horizon) => {
                    let budget = self.exp.budgets[f.cell.budget];
                    let (result, checkpoints) =
                        sim.run_with_checkpoints(checkpoint_interval(budget), horizon);
                    (result.map_err(|e| e.to_string()), checkpoints)
                }
                // The family is only fault-free cells: snapshots would
                // serve nobody, so the baseline is a plain (free) run.
                None => (sim.run().map_err(|e| e.to_string()), Vec::new()),
            },
            Err(e) => (
                Err(ftsim_core::SimError::Invalid(e).to_string()),
                Vec::new(),
            ),
        };
        let m = obs();
        if let Ok(result) = &baseline.0 {
            m.sim_cycles.add(result.cycles);
            m.sim_instructions.add(result.retired_instructions);
        }
        m.checkpoints_taken.add(baseline.1.len() as u64);
        m.checkpoint_bytes
            .add(baseline.1.iter().map(Checkpoint::approx_bytes).sum());
        baseline
    }

    /// The builder every run of `cell`'s (workload, budget, model)
    /// coordinate starts from — config, shared program, oracle mode, and
    /// the cell's budget with any blanket limits override adjusting
    /// ceilings but never repealing the budgets axis. Baseline, forked and
    /// cold paths all go through here so they cannot drift apart; callers
    /// add only the injector.
    fn coordinate_builder(&self, cell: &Cell) -> SimBuilder {
        let budget = self.exp.budgets[cell.budget];
        let builder = Simulator::builder()
            .config(self.exp.models[cell.model].clone())
            .program_shared(Arc::clone(&self.programs[cell.workload][cell.budget]))
            .oracle(self.exp.oracle)
            .budget(budget);
        match self.exp.limits {
            Some(limits) => builder.limits(RunLimits {
                max_instructions: limits.max_instructions.min(budget),
                ..limits
            }),
            None => builder,
        }
    }
}

/// The (workload, budget, model) coordinate shared by every cell that
/// reuses one fault-free prefix — the unit of checkpoint sharing inside
/// a process and of claim/lease ownership across cooperating `ftsimd`
/// processes.
///
/// A `FamilyId` names the cells sharing a workload name, a model name
/// and a budget. Any two processes looking at the same grid number the
/// same families ([`crate::harness::Grid::family`]) without coordination.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FamilyId {
    /// Workload (benchmark profile) name.
    pub workload: String,
    /// Committed-instruction budget.
    pub budget: u64,
    /// Machine model name.
    pub model: String,
}

impl FamilyId {
    /// A filesystem-safe slug naming this family, used for per-family
    /// claim files: lowercase alphanumerics with `-` separators, e.g.
    /// `gcc-4000-ss-2`. Distinct registry names yield distinct slugs
    /// (workload and model names are plain ASCII identifiers).
    pub fn slug(&self) -> String {
        let squash = |s: &str| {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                if c.is_ascii_alphanumeric() {
                    out.push(c.to_ascii_lowercase());
                } else if !out.ends_with('-') {
                    out.push('-');
                }
            }
            out.trim_matches('-').to_string()
        };
        format!(
            "{}-{}-{}",
            squash(&self.workload),
            self.budget,
            squash(&self.model)
        )
    }
}

impl std::fmt::Display for FamilyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} @ {} on {}", self.workload, self.budget, self.model)
    }
}

/// The fault injector a cell runs under (fresh, before any draws).
fn cell_injector(exp: &Experiment, cell: &Cell) -> FaultInjector {
    let rate_pm = exp.fault_rates_pm[cell.rate];
    debug_assert!(rate_pm > 0.0);
    FaultInjector::random_with_mix(
        per_million(rate_pm),
        exp.seeds[cell.seed],
        &exp.site_mixes[cell.mix],
    )
}

/// The plan's number for `cell`'s family, below [`family_slots`]: one
/// per (workload, model, budget) position triple, so a repeated axis
/// value gives a family per position.
fn family_of(exp: &Experiment, cell: &Cell) -> usize {
    (cell.workload * exp.models.len() + cell.model) * exp.budgets.len() + cell.budget
}

/// How many family numbers [`family_of`] gives.
fn family_slots(exp: &Experiment) -> usize {
    exp.workloads.len() * exp.models.len() * exp.budgets.len()
}

/// Decides which families run a checkpointed baseline, and which one
/// serves each live cell (one no prior serves).
///
/// A family — the cells sharing (workload, budget, model) — runs one when
/// it contains a live fault-free cell (the baseline *is* that cell's run,
/// so checkpoints come for free), or when some live faulty cell's first
/// possible injection lies far enough in (≥ [`MIN_WORTHWHILE_FORK_DRAWS`]
/// draws) that skipping the prefix pays for the extra baseline run. A
/// family with no live cell runs none.
fn plan_families(
    exp: &Experiment,
    grid: &Grid,
    served: &[Option<Source>],
    bounds: &[Option<u64>],
) -> (Vec<Family>, Vec<Option<usize>>) {
    let dense = |idx: usize| family_of(exp, &grid.cell(idx));
    // Per family: a live cell, whether one is fault-free (the only live
    // cells without a bound), and the largest bound of its live faulty
    // cells, up to which snapshots are useful.
    let mut live = vec![(0, false, None); family_slots(exp)];
    for idx in (0..grid.cells()).filter(|&idx| served[idx].is_none()) {
        let (member, fault_free, horizon) = &mut live[dense(idx)];
        *member = idx;
        match bounds[idx] {
            None => *fault_free = true,
            Some(bound) => *horizon = (*horizon).max(Some(bound)),
        }
    }
    let mut number = vec![None; live.len()];
    let mut families = Vec::new();
    for (k, &(member, fault_free, snapshot_horizon)) in live.iter().enumerate() {
        if fault_free || snapshot_horizon >= Some(MIN_WORTHWHILE_FORK_DRAWS) {
            number[k] = Some(families.len());
            families.push(Family {
                cell: grid.cell(member),
                snapshot_horizon,
                baseline: Mutex::new(None),
            });
        }
    }
    let cell_family = (0..grid.cells())
        .map(|idx| number[dense(idx)].filter(|_| served[idx].is_none()))
        .collect();
    (families, cell_family)
}
