//! The benchmark's workloads, written as `ftsimd` job specs, and how the
//! workload seed selects their inputs.
//!
//! A spec is the one description both execution routes accept: one-shot
//! workloads time `Experiment::run` on `JobSpec::to_experiment`, and the
//! fabric workload submits the same spec to `JobStore`. Every spec sets
//! `threads = 1`, so simulation runs on one worker thread.

use ftsim::core::OracleMode;
use ftsim::harness::Experiment;
use ftsim_daemon::JobSpec;

/// The workload seed picks one of this many input sets (`seed %
/// SEED_CLASSES`); the checked-in reference holds the outputs of each.
pub const SEED_CLASSES: u64 = 4;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["paper_sweep", "short_cells", "fabric_resume"];

/// Figure 6's fault-rate axis, in faults per million instructions.
const FIG6_RATES: [f64; 10] = [
    0.0, 10.0, 30.0, 100.0, 300.0, 1_000.0, 3_000.0, 10_000.0, 30_000.0, 100_000.0,
];

/// One workload: its grid and how its timed region drives it.
pub struct Workload {
    /// Name as given on the command line.
    pub name: &'static str,
    /// Input set selected by the seed (`seed % SEED_CLASSES`).
    pub class: u64,
    /// The grid, as the job spec `ftsimd` would be given.
    pub spec: JobSpec,
    /// `true`: the timed region is one `Experiment::run`. `false`: it is
    /// `serve(drain)` on a job whose grid is mostly finished already.
    pub one_shot: bool,
}

impl Workload {
    /// The workload `name` with inputs derived from `seed`, or `None` for
    /// an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Self> {
        let class = seed % SEED_CLASSES;
        // Injector seeds: disjoint ranges per class, so every class is a
        // different set of fault streams.
        let seeds = |n: u64| (0..n).map(|j| 1 + 1_000 * class + j).collect::<Vec<u64>>();
        let strings = |names: &[&str]| names.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let mut spec = JobSpec::new(format!("bench-{name}"));
        spec.threads = 1;
        spec.checkpointing = true;
        let (name, one_shot) = match name {
            // Figure 6's grid, widened to a second workload and seed: long
            // cells, small images, so the cycle loop and checkpoint
            // fork/restore do nearly all the work. 30k instructions keep a
            // repetition near 3 s; with two seeds nearly every family has a
            // sibling whose first fault lies past the run, so checkpoint
            // retention (and memory) differs little between input sets.
            "paper_sweep" => {
                spec.workloads = strings(&["fpppp", "equake"]);
                spec.models = strings(&["SS-2", "SS-3M"]);
                spec.fault_rates_pm = FIG6_RATES.to_vec();
                spec.budgets = vec![30_000];
                spec.seeds = seeds(2);
                spec.oracle = OracleMode::Final;
                ("paper_sweep", true)
            }
            // Paper-budget cells on large images: per-cell fixed cost
            // (image load, state digest, oracle replay) dominates.
            "short_cells" => {
                spec.workloads = strings(&["gcc", "vortex", "fpppp"]);
                spec.models = strings(&["SS-1", "SS-2", "SS-3M"]);
                spec.fault_rates_pm = vec![0.0, 1_000.0, 10_000.0, 100_000.0];
                spec.budgets = vec![200, 1_500];
                spec.seeds = seeds(4);
                spec.oracle = OracleMode::Final;
                ("short_cells", true)
            }
            // Many small families, oracle off, mostly finished before the
            // daemon starts: resume matching, re-plans, scheduling passes
            // and fsynced appends dominate. The protected models and
            // moderate rates give no error outcomes on any input set: the
            // harness does not resume errored records, so each one would
            // add a class-dependent re-run (up to a 100k-cycle watchdog)
            // to the drain.
            "fabric_resume" => {
                spec.workloads = strings(&["fpppp", "go", "bzip", "equake", "ijpeg", "vpr"]);
                spec.models = strings(&["SS-2", "SS-3M"]);
                spec.fault_rates_pm = vec![0.0, 300.0, 1_000.0, 3_000.0];
                spec.budgets = vec![300, 600, 1_000, 1_500];
                spec.seeds = seeds(6);
                spec.oracle = OracleMode::Off;
                ("fabric_resume", false)
            }
            _ => return None,
        };
        Some(Self {
            name,
            class,
            spec,
            one_shot,
        })
    }

    /// The grid as a one-shot experiment (one worker thread).
    pub fn experiment(&self) -> Experiment {
        self.spec
            .to_experiment()
            .expect("benchmark specs name registered workloads and models")
    }
}

/// Whether grid cell `idx` is left for a resumed daemon to run; every
/// other cell is written to the job's `cells.csv` before `serve` starts.
/// One cell in ten, spread over the grid, so every family has pending
/// cells and the daemon claims (and re-plans) each of them.
pub fn pending(idx: usize) -> bool {
    idx % 10 == 9
}
