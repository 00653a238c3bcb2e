//! One repetition of a workload's closed loop: set-up, the timed region
//! and the output check.
//!
//! One-shot workloads time `Experiment::run`, `plan()` included. The
//! fabric workload times `ftsim_daemon::serve` in drain mode, from its
//! start until it returns with the job finalized. Beside the timed call
//! one watcher thread polls the metrics registry for the first completed
//! cell and then exits.

use crate::check::Reference;
use crate::clock::cpu_seconds;
use crate::grid::{pending, Workload};
use crate::span::Tracer;
use ftsim::harness::{from_csv, to_csv, RunRecord};
use ftsim::obs::{metrics, Counter};
use ftsim::workloads::profile;
use ftsim_daemon::{model_by_name, serve, Job, JobStore, ServeOptions};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one repetition measured. Times are process CPU seconds (see
/// `clock`) unless named wall.
pub struct Rep {
    /// Set-up before the timed region.
    pub setup_s: f64,
    /// The timed region.
    pub cpu_s: f64,
    /// The timed region, wall clock.
    pub wall_s: f64,
    /// Timed-region start to the first newly completed cell.
    pub first_cell_s: f64,
    /// Cells the timed region finished.
    pub cells: usize,
    /// Of those, cells whose record is missing, panicked or differs
    /// from the reference.
    pub failed: usize,
}

/// State shared by the repetitions of one process.
pub struct Bench {
    pub w: Workload,
    pub reference: Reference,
    /// Scratch directory in the checkout for this process's state
    /// directories.
    pub work_dir: PathBuf,
    /// One-shot records of the whole grid, once a run produced and
    /// checked them: the fabric job is pre-filled from them, and its
    /// finalized `results.csv` must equal their CSV byte for byte.
    oneshot: Option<Vec<RunRecord>>,
    /// Wall time of the untraced `Experiment::run` behind `oneshot`.
    pub oneshot_wall_s: f64,
}

/// Timings of one watched call.
pub struct Watched {
    /// Process CPU seconds of the call.
    pub cpu_s: f64,
    /// Process CPU seconds from the call's start to its first completed
    /// cell (the whole call's, if nothing completed).
    pub first_cell_s: f64,
    /// Wall seconds of the call.
    pub wall_s: f64,
}

/// Sum of completed-cell counters, resolved once so that polling them is
/// a few atomic loads.
struct Done(Vec<Counter>);

impl Done {
    /// The harness's per-path cell counters (`ftsim_cells_total`).
    fn harness() -> Self {
        let paths = ["resumed", "baseline", "forked", "cold"];
        Self(
            paths
                .map(|p| metrics::counter("ftsim_cells_total", &[("path", p)]))
                .to_vec(),
        )
    }

    /// The fabric's completed-cell counter (`ftsimd_cells_completed_total`).
    fn fabric() -> Self {
        Self(vec![metrics::counter("ftsimd_cells_completed_total", &[])])
    }

    fn get(&self) -> u64 {
        self.0.iter().map(Counter::get).sum()
    }
}

/// Runs `timed` while one watcher thread waits for `done` to rise.
fn watched<T: Send>(done: &Done, timed: impl FnOnce() -> T + Send) -> (T, Watched) {
    let before = done.get();
    let finished = AtomicBool::new(false);
    let wall = Instant::now();
    let start = cpu_seconds();
    let (out, first) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            while done.get() == before && !finished.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(200));
            }
            cpu_seconds() - start
        });
        let out = timed();
        finished.store(true, Ordering::SeqCst);
        let first = watcher.join().expect("the watcher thread does not panic");
        (out, first)
    });
    let cpu_s = cpu_seconds() - start;
    let times = Watched {
        cpu_s,
        first_cell_s: first.min(cpu_s),
        wall_s: wall.elapsed().as_secs_f64(),
    };
    (out, times)
}

/// Builds one simulator per (workload, budget, model) coordinate of the
/// grid, so lazy process set-up and allocator growth happen before the
/// timed region rather than inside it.
fn warm_up(w: &Workload) {
    for name in &w.spec.workloads {
        let p = profile(name).expect("benchmark workloads are registered profiles");
        for &budget in &w.spec.budgets {
            let program = Arc::new(p.program_for_instructions(budget));
            for model in &w.spec.models {
                let sim = ftsim::core::Simulator::builder()
                    .config(model_by_name(model).expect("benchmark models are presets"))
                    .program_shared(Arc::clone(&program))
                    .budget(budget)
                    .build()
                    .expect("benchmark coordinates build");
                std::hint::black_box(sim);
            }
        }
    }
}

impl Bench {
    pub fn new(w: Workload, reference: Reference, work_dir: PathBuf) -> Self {
        Self {
            w,
            reference,
            work_dir,
            oneshot: None,
            oneshot_wall_s: 0.0,
        }
    }

    /// One untraced repetition. `setup_start` is the process CPU time
    /// at which its set-up began (0, process start, for the first one).
    pub fn rep(&mut self, idx: usize, setup_start: f64) -> Result<Rep, String> {
        warm_up(&self.w);
        if self.w.one_shot {
            return Ok(self.one_shot_rep(setup_start));
        }
        let (store, job) = self.prepare_job(idx, &mut Tracer::new(false))?;
        let setup_s = cpu_seconds() - setup_start;
        let (t, failed) = self.drain(&store, &job, &mut Tracer::new(false));
        let _ = std::fs::remove_dir_all(store.root());
        Ok(Rep {
            setup_s,
            cpu_s: t.cpu_s,
            wall_s: t.wall_s,
            first_cell_s: t.first_cell_s,
            cells: self.pending_count(),
            failed,
        })
    }

    fn one_shot_rep(&mut self, setup_start: f64) -> Rep {
        let exp = self.w.experiment();
        let setup_s = cpu_seconds() - setup_start;
        let (records, t) = watched(&Done::harness(), || {
            catch_unwind(AssertUnwindSafe(|| exp.run()))
                .ok()
                .and_then(Result::ok)
        });
        let failed = match &records {
            Some(records) => self.reference.failed_cells(records).len(),
            None => self.reference.len(),
        };
        if failed == 0 && self.oneshot.is_none() {
            self.oneshot = records;
            self.oneshot_wall_s = t.wall_s;
        }
        Rep {
            setup_s,
            cpu_s: t.cpu_s,
            wall_s: t.wall_s,
            first_cell_s: t.first_cell_s,
            cells: self.reference.len(),
            failed,
        }
    }

    /// Number of grid cells a resumed job leaves to run.
    pub fn pending_count(&self) -> usize {
        (0..self.reference.len()).filter(|&i| pending(i)).count()
    }

    /// The one-shot records of the whole grid, produced (and checked
    /// against the reference) on first use.
    pub fn oneshot_records(&mut self) -> Result<&[RunRecord], String> {
        if self.oneshot.is_none() {
            let exp = self.w.experiment();
            let start = Instant::now();
            let records = exp.run().map_err(|e| format!("{}: {e}", self.w.name))?;
            self.oneshot_wall_s = start.elapsed().as_secs_f64();
            let failed = self.reference.failed_cells(&records);
            if let Some(&first) = failed.first() {
                return Err(format!(
                    "{}: one-shot run differs from the reference in {} cells (first: {})",
                    self.w.name,
                    failed.len(),
                    records
                        .get(first)
                        .map_or("missing".to_string(), RunRecord::cell_label)
                ));
            }
            self.oneshot = Some(records);
        }
        Ok(self.oneshot.as_deref().expect("filled above"))
    }

    /// The records a resumed job starts from: every non-pending cell.
    pub fn prior(&mut self) -> Result<Vec<RunRecord>, String> {
        Ok(self
            .oneshot_records()?
            .iter()
            .enumerate()
            .filter(|(i, _)| !pending(*i))
            .map(|(_, r)| r.clone())
            .collect())
    }

    /// Submits the workload's job into a fresh state directory and writes
    /// every non-pending cell's record into its `cells.csv`.
    pub fn prepare_job(&mut self, idx: usize, tr: &mut Tracer) -> Result<(JobStore, Job), String> {
        let prior = self.prior()?;
        let dir = self.work_dir.join(format!("state-{idx}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = JobStore::open(&dir).map_err(|e| e.to_string())?;
        let (id, _) = tr
            .span("daemon.submit", |_| store.submit(&self.w.spec))
            .map_err(|e| e.to_string())?;
        let job = store.job(&id).map_err(|e| e.to_string())?;
        tr.span("bench.prefill", |_| {
            std::fs::write(job.cells_path(), to_csv(&prior))
        })
        .map_err(|e| format!("pre-filling {}: {e}", job.cells_path().display()))?;
        Ok((store, job))
    }

    /// Runs `serve(drain)` with one worker on a prepared store; returns
    /// its timings and the number of pending cells whose finalized record
    /// is missing or differs from the one-shot run (at least 1 when
    /// `results.csv` differs at all).
    pub fn drain(&self, store: &JobStore, job: &Job, tr: &mut Tracer) -> (Watched, usize) {
        let opts = ServeOptions {
            drain: true,
            workers: 1,
            gc_interval: Duration::ZERO,
            ..ServeOptions::default()
        };
        let (served, t) = tr.span("daemon.serve", |_| {
            watched(&Done::fabric(), || {
                catch_unwind(AssertUnwindSafe(|| serve(store, &opts))).map_err(|_| ())
            })
        });
        let expected = self.oneshot.as_deref().expect("prepare_job filled it");
        let results = std::fs::read_to_string(job.results_path()).unwrap_or_default();
        let failed = if matches!(served, Ok(Ok(()))) && results == to_csv(expected) {
            0
        } else {
            let got = from_csv(&results).unwrap_or_default();
            (0..expected.len())
                .filter(|&i| pending(i) && got.get(i) != Some(&expected[i]))
                .count()
                .max(1)
        };
        (t, failed)
    }
}
