//! The sweep planner: cell enumeration, family grouping and the
//! checkpoint/fork baseline machinery behind [`Experiment::run`].
//!
//! A [`SweepPlan`] is a *materialized* grid: every cell flattened in grid
//! order, prior (resumed) records matched to their slots, fork bounds
//! computed for live faulty cells, and cells grouped into **families** —
//! the sets sharing a (workload, budget, model) coordinate and therefore a
//! fault-free prefix. One-shot grids ([`Experiment::run`]) and the
//! long-running `ftsimd` daemon both execute through this type, so the
//! scheduling rules — which families run a checkpointed baseline, when a
//! faulty cell may fork, why records stay byte-identical — live in exactly
//! one place.
//!
//! Execution is pull-based and thread-safe: [`SweepPlan::run_cell`] can be
//! called for any cell index from any thread, in any order. A family's
//! baseline is computed lazily, at most once, the first time one of its
//! cells needs it; callers that want baseline-level parallelism (the
//! one-shot runner) can warm them explicitly via
//! [`SweepPlan::prepare_family`]. Callers that want to *stream* results as
//! cells complete (the daemon) iterate [`SweepPlan::shards`] — runnable
//! cells grouped by family — so each worker reuses its family's
//! checkpoints without cross-thread coordination beyond the per-family
//! baseline lock.

use crate::harness::experiment::{Experiment, ExperimentError};
use crate::harness::record::{IdentityKey, RunRecord};
use ftsim_core::profile::{self, StageProfile};
use ftsim_core::{
    fork_point, Checkpoint, MachineConfig, RunLimits, SimBuilder, SimResult, Simulator,
};
use ftsim_faults::{per_million, FaultInjector};
use ftsim_isa::Program;
use ftsim_obs::metrics;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Smallest first-possible-injection draw index for which running a
/// *dedicated* family baseline (one that serves no fault-free cell of its
/// own) pays for itself. Families containing a fault-free cell always run
/// the baseline — it *is* that cell's simulation.
const MIN_WORTHWHILE_FORK_DRAWS: u64 = 4_096;

/// Checkpoint spacing for a family baseline, in cycles: fine enough that
/// the skipped prefix tracks each cell's divergence point closely, coarse
/// enough that snapshot cost stays a small fraction of the run.
fn checkpoint_interval(budget: u64) -> u64 {
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
    /// Served by the family baseline's own fault-free run.
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

/// One flattened grid cell.
pub(crate) struct Cell {
    pub(crate) workload: usize,
    pub(crate) budget_idx: usize,
    pub(crate) model: usize,
    pub(crate) rate_pm: f64,
    /// Index into the experiment's site-mix axis.
    pub(crate) mix: usize,
    pub(crate) budget: u64,
    pub(crate) seed: u64,
}

impl Cell {
    /// The family axis: cells sharing a fault-free prefix.
    fn family_key(&self) -> (usize, usize, usize) {
        (self.workload, self.budget_idx, self.model)
    }
}

/// A family baseline's outcome: the fault-free result (serving the
/// family's rate-0 cells) and the periodic checkpoints (serving forks).
type Baseline = (Result<SimResult, String>, Vec<Checkpoint>);

/// A (workload, budget, model) family and its shared baseline state.
struct Family {
    workload: usize,
    budget_idx: usize,
    model: usize,
    budget: u64,
    /// Largest draw index any live faulty sibling can fork at (`None`
    /// when the family has no live faulty cells at all — no snapshots
    /// are taken then).
    snapshot_horizon: Option<u64>,
    /// Computed lazily, at most once, under this lock.
    baseline: Mutex<Option<Baseline>>,
}

/// A materialized, executable sweep: the output of [`Experiment::plan`].
///
/// The plan owns the validated experiment, the flattened cell list (grid
/// order: workload-major, seed-minor), the resumed-record matches, the
/// fork bounds, and the family table. It is immutable and [`Sync`]: cells
/// can be executed from any number of threads, and results are
/// byte-identical regardless of execution order (cells are independent
/// simulations; families only share *read-only* checkpoints once their
/// baseline is computed).
pub struct SweepPlan {
    exp: Experiment,
    /// One shared program per (workload, budget) coordinate.
    programs: Vec<Vec<Arc<Program>>>,
    cells: Vec<Cell>,
    /// Per cell: the prior record serving it, when resuming.
    resumed: Vec<Option<RunRecord>>,
    /// Per cell: the fork bound (live faulty cells only).
    bounds: Vec<Option<u64>>,
    families: Vec<Family>,
    /// Per cell: index into `families`, for cells a family serves.
    cell_family: Vec<Option<usize>>,
}

impl SweepPlan {
    /// Materializes a validated experiment into an executable plan.
    pub(crate) fn new(exp: Experiment) -> Result<Self, ExperimentError> {
        exp.validate()?;

        // Generate each distinct (workload, budget) program once, up
        // front, behind an `Arc`: cells share the image by reference
        // count instead of deep-copying instructions and data per cell.
        let programs: Vec<Vec<Arc<Program>>> = exp
            .workloads
            .iter()
            .map(|w| {
                exp.budgets
                    .iter()
                    .map(|&b| Arc::new(w.program_for(b)))
                    .collect()
            })
            .collect();

        let cells = enumerate_cells(&exp);

        // Cells already present in the prior records are not re-simulated.
        // The first successful prior of each identity serves its cell.
        let mut prior: HashMap<IdentityKey, &RunRecord> = HashMap::new();
        for p in exp.prior.iter().filter(|p| p.ok()) {
            prior.entry(p.identity_key()).or_insert(p);
        }
        let resumed: Vec<Option<RunRecord>> = if prior.is_empty() {
            cells.iter().map(|_| None).collect()
        } else {
            cells
                .iter()
                .map(|cell| {
                    let key = cell_identity(&exp, cell).identity_key();
                    prior.get(&key).map(|&p| p.clone())
                })
                .collect()
        };

        // Fork bounds, computed once per live faulty cell (the scan
        // replays the injector's Bernoulli stream, so it is worth caching
        // between the planning pass and the cell run).
        let bounds: Vec<Option<u64>> = if exp.checkpointing {
            cells
                .iter()
                .zip(&resumed)
                .map(|(cell, resumed)| {
                    (resumed.is_none() && cell.rate_pm > 0.0).then(|| {
                        let horizon = fork_horizon(cell.budget, &exp.models[cell.model]);
                        // The bound depends only on the Bernoulli stream
                        // (rate, seed) — a site mix cannot move it.
                        cell_injector(&exp, cell)
                            .first_possible_fire(horizon)
                            .unwrap_or(horizon)
                    })
                })
                .collect()
        } else {
            vec![None; cells.len()]
        };

        let families = if exp.checkpointing {
            plan_families(&cells, &resumed, &bounds)
        } else {
            Vec::new()
        };
        let family_index: HashMap<(usize, usize, usize), usize> = families
            .iter()
            .enumerate()
            .map(|(i, f)| ((f.workload, f.budget_idx, f.model), i))
            .collect();
        let cell_family = cells
            .iter()
            .map(|cell| family_index.get(&cell.family_key()).copied())
            .collect();

        Ok(Self {
            exp,
            programs,
            cells,
            resumed,
            bounds,
            families,
            cell_family,
        })
    }

    /// Number of grid cells (equal to [`Experiment::cells`]).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid is empty (it never is for a validated experiment,
    /// but the convention pairs with [`SweepPlan::len`]).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The identity (configuration) half of cell `idx`'s record.
    pub fn identity(&self, idx: usize) -> RunRecord {
        cell_identity(&self.exp, &self.cells[idx])
    }

    /// The prior record serving cell `idx`, when the experiment was built
    /// with [`Experiment::resume_from`] records matching it. Such cells
    /// are never re-simulated: [`SweepPlan::run_cell`] returns the prior
    /// record verbatim.
    pub fn prior(&self, idx: usize) -> Option<&RunRecord> {
        self.resumed[idx].as_ref()
    }

    /// The number of cells that still need simulating (not served by a
    /// prior record).
    pub fn runnable(&self) -> usize {
        self.resumed.iter().filter(|r| r.is_none()).count()
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

    /// Runnable (non-resumed) cell indices grouped into **shards**: cells
    /// of one (workload, budget, model) family land in one shard, so a
    /// worker that executes a shard end-to-end reuses the family's
    /// checkpointed baseline for every fork without ever contending on it.
    /// Shards are ordered by their first cell index and cells within a
    /// shard ascend, so shard iteration order is deterministic.
    pub fn shards(&self) -> Vec<Vec<usize>> {
        group_in_order(live_family_keys(&self.cells, &self.resumed))
            .into_iter()
            .map(|(_, shard)| shard)
            .collect()
    }

    /// Computes family `fi`'s baseline if it has not been computed yet.
    /// The one-shot runner calls this from a worker pool to get
    /// baseline-level parallelism before the cell wave; the daemon skips
    /// it and lets [`SweepPlan::run_cell`] warm baselines lazily, one per
    /// shard.
    pub fn prepare_family(&self, fi: usize) {
        drop(self.baseline_guard(&self.families[fi]));
    }

    /// Executes cell `idx` and returns its record: the prior record
    /// verbatim for resumed cells, the family baseline's result for a
    /// fault-free cell whose family ran one, a forked run for a faulty
    /// cell with a usable checkpoint, and a cold run otherwise. All four
    /// paths produce byte-identical records — the plan changes what a
    /// record *costs*, never what it says.
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
        if let Some(prior) = &self.resumed[idx] {
            obs().cells[CellPath::Resumed as usize].inc();
            return (prior.clone(), CellPath::Resumed, StageProfile::default());
        }
        profile::reset();
        let (record, path, simulated) = self.run_cell_inner(idx);
        let stage_profile = profile::take();
        let m = obs();
        m.cells[path as usize].inc();
        m.sim_cycles.add(simulated.0);
        m.sim_instructions.add(simulated.1);
        (record, path, stage_profile)
    }

    /// The four-path cell execution; returns the record, the path taken
    /// and `(cycles, instructions)` **actually simulated by this call**
    /// (a fork's post-checkpoint suffix; zero for baseline-served cells —
    /// the baseline run counts when it executes, inside
    /// [`SweepPlan::baseline_guard`]).
    fn run_cell_inner(&self, idx: usize) -> (RunRecord, CellPath, (u64, u64)) {
        let cell = &self.cells[idx];
        let record = cell_identity(&self.exp, cell);

        if let Some(fi) = self.cell_family[idx] {
            let family = &self.families[fi];
            let baseline = self.baseline_guard(family);
            let (outcome, checkpoints) = baseline.as_ref().expect("guard fills the baseline");
            if cell.rate_pm == 0.0 {
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
                    .cell_builder(cell)
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

        let mut builder = self.cell_builder(cell);
        if cell.rate_pm > 0.0 {
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
    pub(crate) fn run_all(&self) -> Vec<RunRecord> {
        let workers = self.workers();
        let pool = |n_tasks: usize, task: &(dyn Fn(usize) + Sync)| {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers.min(n_tasks).max(1) {
                    scope.spawn(|| loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n_tasks {
                            break;
                        }
                        task(idx);
                    });
                }
            });
        };

        // Wave 1: family baselines (checkpoint producers), in parallel.
        pool(self.families.len(), &|fi| self.prepare_family(fi));

        // Wave 2: every cell, in parallel — resumed, baseline-served,
        // forked or cold.
        let slots: Vec<Mutex<Option<RunRecord>>> =
            self.cells.iter().map(|_| Mutex::new(None)).collect();
        pool(self.cells.len(), &|idx| {
            *slots[idx].lock().expect("slot lock") = Some(self.run_cell(idx));
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("every cell ran")
            })
            .collect()
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
        let builder = self.coordinate_builder(f.workload, f.budget_idx, f.model, f.budget);
        let baseline: Baseline = match builder.build() {
            Ok(sim) => match f.snapshot_horizon {
                // Faulty siblings exist: collect checkpoints for them.
                Some(horizon) => {
                    let (result, checkpoints) =
                        sim.run_with_checkpoints(checkpoint_interval(f.budget), horizon);
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

    fn cell_builder(&self, cell: &Cell) -> SimBuilder {
        self.coordinate_builder(cell.workload, cell.budget_idx, cell.model, cell.budget)
    }

    /// The builder every run of a (workload, budget, model) coordinate
    /// starts from — config, shared program, oracle mode, and the cell's
    /// budget with any blanket limits override adjusting ceilings but
    /// never repealing the budgets axis. Baseline, forked and cold paths
    /// all go through here so they cannot drift apart; callers add only
    /// the injector.
    fn coordinate_builder(
        &self,
        workload: usize,
        budget_idx: usize,
        model: usize,
        budget: u64,
    ) -> SimBuilder {
        let builder = Simulator::builder()
            .config(self.exp.models[model].clone())
            .program_shared(Arc::clone(&self.programs[workload][budget_idx]))
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
/// A `FamilyId` is derived purely from a record's identity fields, so
/// any two processes looking at the same grid (or the same streamed
/// `cells.csv`) agree on the family partition without coordination.
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
    /// The family of a record (identity or full — only the identity
    /// fields are read).
    pub fn of_record(r: &RunRecord) -> Self {
        Self {
            workload: r.workload.clone(),
            budget: r.budget,
            model: r.model.clone(),
        }
    }

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

/// Groups identity records by family, preserving grid order: families
/// appear in first-cell order and each family's member indices ascend.
/// This is the partition both the in-process shard scheduler
/// ([`SweepPlan::shards`]) and the multi-process claim table agree on.
pub fn group_families(identities: &[RunRecord]) -> Vec<(FamilyId, Vec<usize>)> {
    group_in_order(
        identities
            .iter()
            .enumerate()
            .map(|(idx, r)| (FamilyId::of_record(r), idx)),
    )
}

/// Groups indices by key: groups in order of their first index, indices
/// in the order given.
fn group_in_order<K: Hash + Eq + Clone>(
    keyed: impl IntoIterator<Item = (K, usize)>,
) -> Vec<(K, Vec<usize>)> {
    let mut groups: Vec<(K, Vec<usize>)> = Vec::new();
    let mut slot: HashMap<K, usize> = HashMap::new();
    for (key, idx) in keyed {
        match slot.get(&key) {
            Some(&g) => groups[g].1.push(idx),
            None => {
                slot.insert(key.clone(), groups.len());
                groups.push((key, vec![idx]));
            }
        }
    }
    groups
}

/// The family key of every cell not served by a prior record, with its
/// index.
fn live_family_keys<'a>(
    cells: &'a [Cell],
    resumed: &'a [Option<RunRecord>],
) -> impl Iterator<Item = ((usize, usize, usize), usize)> + 'a {
    cells
        .iter()
        .enumerate()
        .filter(|&(idx, _)| resumed[idx].is_none())
        .map(|(idx, cell)| (cell.family_key(), idx))
}

/// The flattened cell list, in deterministic grid order (workload-major,
/// seed-minor). This is the **single definition of grid order** — record
/// assembly ([`SweepPlan::run_all`]) and identity enumeration
/// ([`Experiment::identities`]) both derive from it, so they cannot
/// drift apart.
pub(crate) fn enumerate_cells(exp: &Experiment) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(exp.cells());
    for (wi, _) in exp.workloads.iter().enumerate() {
        for (mi, _) in exp.models.iter().enumerate() {
            for &rate_pm in &exp.fault_rates_pm {
                for (xi, _) in exp.site_mixes.iter().enumerate() {
                    for (bi, &budget) in exp.budgets.iter().enumerate() {
                        for &seed in &exp.seeds {
                            cells.push(Cell {
                                workload: wi,
                                budget_idx: bi,
                                model: mi,
                                rate_pm,
                                mix: xi,
                                budget,
                                seed,
                            });
                        }
                    }
                }
            }
        }
    }
    cells
}

/// The identity half of a cell's record (used for resume matching and as
/// the base of the final record).
pub(crate) fn cell_identity(exp: &Experiment, cell: &Cell) -> RunRecord {
    let workload = &exp.workloads[cell.workload];
    RunRecord::identity(
        workload.name(),
        workload.suite(),
        &exp.models[cell.model],
        cell.rate_pm,
        exp.site_mixes[cell.mix].name(),
        cell.seed,
        cell.budget,
        exp.oracle,
    )
}

/// The fault injector a cell runs under (fresh, before any draws).
fn cell_injector(exp: &Experiment, cell: &Cell) -> FaultInjector {
    debug_assert!(cell.rate_pm > 0.0);
    FaultInjector::random_with_mix(
        per_million(cell.rate_pm),
        cell.seed,
        &exp.site_mixes[cell.mix],
    )
}

/// Decides which families run a checkpointed baseline.
///
/// A family — the cells sharing (workload, budget, model) — runs one when
/// it contains a live fault-free cell (the baseline *is* that cell's run,
/// so checkpoints come for free), or when some live faulty cell's first
/// possible injection lies far enough in (≥ [`MIN_WORTHWHILE_FORK_DRAWS`]
/// draws) that skipping the prefix pays for the extra baseline run.
fn plan_families(
    cells: &[Cell],
    resumed: &[Option<RunRecord>],
    bounds: &[Option<u64>],
) -> Vec<Family> {
    group_in_order(live_family_keys(cells, resumed))
        .into_iter()
        .filter_map(|(_, members)| {
            let faulty_bounds = || {
                members
                    .iter()
                    .filter(|&&i| cells[i].rate_pm != 0.0)
                    .map(|&i| bounds[i].expect("live faulty cells have a bound"))
            };
            // A live fault-free cell's run *is* the baseline.
            let worthwhile = members.iter().any(|&i| cells[i].rate_pm == 0.0)
                || faulty_bounds().any(|bound| bound >= MIN_WORTHWHILE_FORK_DRAWS);
            let first = &cells[members[0]];
            worthwhile.then(|| Family {
                workload: first.workload,
                budget_idx: first.budget_idx,
                model: first.model,
                budget: first.budget,
                // Snapshots are useful up to the *largest* divergence
                // point any live faulty sibling can fork at.
                snapshot_horizon: faulty_bounds().max(),
                baseline: Mutex::new(None),
            })
        })
        .collect()
}
