//! Throughput — simulated cycles/second and retired-instructions/second.
//!
//! Every paper figure is a grid of full-program simulations, so sweep
//! wall-time is bounded by how fast `Processor::cycle` turns. This target
//! measures that directly on two fixed workload sets:
//!
//! * `fig6_grid` — the exact shape of the Figure 6 sweep (fpppp on the
//!   R=2 rewind and R=3 majority machines across the fault-rate axis),
//!   the acceptance workload for scheduler performance work;
//! * `fault_free_trio` — gcc/fpppp/equake on SS-1 and SS-2 with no
//!   injection, isolating the fault-free steady-state cycle loop;
//! * `daemon_cells_per_sec` — a 4-cell smoke grid run end-to-end
//!   through the `ftsimd` fabric (submit → claim → stream → finalize),
//!   pricing the daemon's bookkeeping on top of raw simulation.
//!
//! Two observability rows price the instrumentation added by
//! `ftsim-obs`: `fig6_grid_profiled` reruns the Figure 6 grid with
//! `FTSIM_PROFILE`-style stage profiling forced on (its sampled timers
//! must stay under the 5% overhead budget documented in
//! `ftsim_core::profile`), and `daemon_cells_per_sec_metrics_off`
//! reruns the daemon grid with the metrics registry disabled so the
//! `obs_overhead` summary in the JSON can report metrics-on vs -off
//! daemon throughput.
//!
//! Grids run on one worker thread so the metric is per-core simulator
//! speed, independent of the host's core count. Each grid is measured
//! twice — cold, and as a `*_checkpointed` variant with checkpoint-forking
//! enabled (fault-free prefixes shared across cells; records are
//! byte-identical either way, so `sim_cycles` match and only wall time
//! moves). Each measurement is repeated `FTSIM_REPS` times (default 3,
//! minimum 1) and the best wall time wins, damping scheduler noise.
//!
//! `sim_cycles` sums every cell's full cycle count, so on the
//! `*_checkpointed` and daemon rows `cycles_per_second` is an as-if-cold
//! figure: it counts cycles restored from a checkpoint or served by a
//! family baseline. Each row's `simulated_cycles` is the cycles this
//! process actually simulated (the rise of `ftsim_sim_cycles_total`
//! across the kept repetition; `null` while the metrics registry is off).
//! `FTSIM_SMOKE=1` shrinks budgets and repetitions for CI.
//!
//! Results are printed and written to `BENCH_throughput.json` at the
//! workspace root, where the perf trajectory across PRs is recorded.

use ftsim::harness::{Experiment, RunRecord};
use ftsim_bench::banner;
use ftsim_core::MachineConfig;
use ftsim_obs::metrics;
use ftsim_stats::JsonValue;
use ftsim_workloads::profile;
use std::path::PathBuf;
use std::time::Instant;

struct GridResult {
    name: &'static str,
    cells: usize,
    sim_cycles: u64,
    /// Cycles actually simulated; `None` while the registry is off.
    simulated_cycles: Option<u64>,
    retired: u64,
    wall_s: f64,
}

impl GridResult {
    fn cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.wall_s
    }
    fn instr_per_sec(&self) -> f64 {
        self.retired as f64 / self.wall_s
    }
    fn cells_per_sec(&self) -> f64 {
        self.cells as f64 / self.wall_s
    }
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("name".into(), JsonValue::Str(self.name.into())),
            ("cells".into(), JsonValue::U64(self.cells as u64)),
            ("sim_cycles".into(), JsonValue::U64(self.sim_cycles)),
            (
                "simulated_cycles".into(),
                self.simulated_cycles
                    .map_or(JsonValue::Null, JsonValue::U64),
            ),
            ("retired_instructions".into(), JsonValue::U64(self.retired)),
            ("wall_seconds".into(), JsonValue::F64(self.wall_s)),
            (
                "cycles_per_second".into(),
                JsonValue::F64(self.cycles_per_sec()),
            ),
            (
                "instructions_per_second".into(),
                JsonValue::F64(self.instr_per_sec()),
            ),
            (
                "cells_per_second".into(),
                JsonValue::F64(self.cells_per_sec()),
            ),
        ])
    }
}

/// Worker threads every grid runs on — recorded in the JSON so the
/// per-core claim is auditable rather than assumed.
const WORKER_THREADS: usize = 1;

fn smoke() -> bool {
    std::env::var_os("FTSIM_SMOKE").is_some()
}

fn budget() -> u64 {
    if smoke() {
        5_000
    } else {
        ftsim_bench::budget()
    }
}

fn reps() -> usize {
    std::env::var("FTSIM_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke() { 1 } else { 3 })
        .max(1)
}

/// One repetition of a measurement: its wall time, its records and the
/// cycles it actually simulated.
type Rep = (f64, Vec<RunRecord>, Option<u64>);

/// Times `run` and counts the cycles it simulates
/// (`ftsim_sim_cycles_total`, which only counts while the registry is on).
fn timed<T>(run: impl FnOnce() -> T) -> (f64, T, Option<u64>) {
    let counter = metrics::counter("ftsim_sim_cycles_total", &[]);
    let before = counter.get();
    let start = Instant::now();
    let out = run();
    let wall = start.elapsed().as_secs_f64();
    (
        wall,
        out,
        metrics::enabled().then(|| counter.get() - before),
    )
}

/// The repetition with the best wall time, as a row. Simulated work is
/// identical across repetitions (the grid is deterministic), so only the
/// clock varies.
fn best_of(name: &'static str, reps: impl Iterator<Item = Rep>) -> GridResult {
    let (wall_s, records, simulated_cycles) = reps
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one repetition");
    let failed = records.iter().filter(|r| !r.ok()).count();
    if failed > 0 {
        // Wedged cells at extreme fault rates still burn (and therefore
        // still count) simulated cycles, but surface the count so a
        // regression that wedges everything can't masquerade as "fast".
        println!("  ({failed}/{} cells did not complete)", records.len());
    }
    GridResult {
        name,
        cells: records.len(),
        sim_cycles: records.iter().map(|r| r.cycles).sum(),
        simulated_cycles,
        retired: records.iter().map(|r| r.retired_instructions).sum(),
        wall_s,
    }
}

/// Runs `build()` `reps()` times, keeping the best wall time.
fn measure(name: &'static str, build: impl Fn() -> Experiment) -> GridResult {
    best_of(
        name,
        (0..reps()).map(|_| {
            let grid = build();
            timed(|| grid.run().expect("throughput grid is well-formed"))
        }),
    )
}

fn fig6_grid() -> Experiment {
    let rates: [f64; 10] = [
        0.0, 10.0, 30.0, 100.0, 300.0, 1_000.0, 3_000.0, 10_000.0, 30_000.0, 100_000.0,
    ];
    Experiment::grid()
        .workloads([profile("fpppp").expect("fpppp profile exists")])
        .models([MachineConfig::ss2(), MachineConfig::ss3_majority()])
        .fault_rates(rates)
        .seeds([42])
        .budget(budget())
        .threads(WORKER_THREADS)
        .checkpointing(false)
}

fn fault_free_trio() -> Experiment {
    let trio: Vec<_> = ["gcc", "fpppp", "equake"]
        .iter()
        .map(|n| profile(n).unwrap_or_else(|| panic!("profile {n} exists")))
        .collect();
    Experiment::grid()
        .workloads(trio)
        .models([MachineConfig::ss1(), MachineConfig::ss2()])
        .budget(budget())
        .threads(WORKER_THREADS)
        .checkpointing(false)
}

/// The same 4-cell smoke grid CI submits over HTTP, run end-to-end
/// through the daemon fabric (submit → claim → stream → finalize) in
/// one process. `cells_per_second` on this row is the
/// `daemon_cells_per_sec` figure tracked in `ROADMAP.md` — it prices
/// the fabric's overhead (claim files, per-row fsync, finalize) on top
/// of raw simulation, which the other rows measure.
fn measure_daemon(name: &'static str) -> GridResult {
    use ftsim_daemon::{JobSpec, JobStore, ServeOptions};
    best_of(
        name,
        (0..reps()).map(|rep| {
            let dir = std::env::temp_dir()
                .join(format!("ftsim-bench-daemon-{}-{rep}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let store = JobStore::open(&dir).expect("open bench state dir");
            let mut spec = JobSpec::new("throughput-smoke");
            spec.workloads = vec!["gcc".to_string()];
            spec.models = vec!["SS-2".to_string()];
            spec.fault_rates_pm = vec![0.0, 5_000.0];
            spec.seeds = vec![3, 4];
            spec.budgets = vec![budget()];
            spec.threads = WORKER_THREADS;
            let (id, _) = store.submit(&spec).expect("submit bench job");
            let (wall, (), simulated) = timed(|| {
                ftsim_daemon::serve(
                    &store,
                    &ServeOptions {
                        drain: true,
                        ..Default::default()
                    },
                )
                .expect("drain bench job")
            });
            let job = store.job(&id).expect("bench job exists");
            let text = std::fs::read_to_string(job.results_path()).expect("bench job finalized");
            let records = ftsim::harness::from_csv(&text).expect("bench results parse");
            std::fs::remove_dir_all(&dir).ok();
            (wall, records, simulated)
        }),
    )
}

fn main() {
    banner(
        "Throughput",
        "simulated cycles/second and retired-instructions/second (1 worker)",
        "sweep wall-time is bounded by Processor::cycle; this target tracks the \
         perf trajectory of the scheduler core across PRs",
    );
    println!(
        "budget {} instructions/cell, best of {} repetition(s)\n",
        budget(),
        reps()
    );

    let mut results = vec![
        measure("fig6_grid", fig6_grid),
        measure("fig6_grid_checkpointed", || fig6_grid().checkpointing(true)),
        measure("fault_free_trio", fault_free_trio),
        measure("fault_free_trio_checkpointed", || {
            fault_free_trio().checkpointing(true)
        }),
    ];

    // Same grid with stage profiling forced on: the sampled timers must
    // stay inside the 5% budget `ftsim_core::profile` documents.
    ftsim_core::profile::set_enabled(true);
    results.push(measure("fig6_grid_profiled", fig6_grid));
    ftsim_core::profile::set_enabled(false);

    // Daemon throughput with the metrics registry on (the default) and
    // off; the delta is the exporter's bookkeeping cost.
    results.push(measure_daemon("daemon_cells_per_sec"));
    ftsim_obs::metrics::set_enabled(false);
    results.push(measure_daemon("daemon_cells_per_sec_metrics_off"));
    ftsim_obs::metrics::set_enabled(true);

    for r in &results {
        let simulated = r.simulated_cycles.map_or("-".into(), |c| c.to_string());
        println!(
            "{:<32} {:>3} cells  {:>10} sim cycles ({:>10} simulated)  {:>7.3} s  {:>10.0} cycles/s  {:>10.0} instr/s",
            r.name,
            r.cells,
            r.sim_cycles,
            simulated,
            r.wall_s,
            r.cycles_per_sec(),
            r.instr_per_sec()
        );
    }

    // Observability overhead summary: profiled-vs-cold grid wall time
    // and metrics-on-vs-off daemon wall time, as percentages (positive =
    // instrumentation cost). Wall-clock noise can make either negative.
    let wall_of = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.wall_s)
            .unwrap_or(f64::NAN)
    };
    let pct = |on: f64, off: f64| (on - off) / off * 100.0;
    let profile_pct = pct(wall_of("fig6_grid_profiled"), wall_of("fig6_grid"));
    let metrics_pct = pct(
        wall_of("daemon_cells_per_sec"),
        wall_of("daemon_cells_per_sec_metrics_off"),
    );
    println!(
        "\nobs overhead: stage profiling {profile_pct:+.2}% (budget < 5%), \
         daemon metrics {metrics_pct:+.2}%"
    );

    let doc = JsonValue::obj([
        ("bench".into(), JsonValue::Str("throughput".into())),
        ("budget".into(), JsonValue::U64(budget())),
        ("reps".into(), JsonValue::U64(reps() as u64)),
        ("threads".into(), JsonValue::U64(WORKER_THREADS as u64)),
        (
            "grids".into(),
            JsonValue::Arr(results.iter().map(GridResult::to_json).collect()),
        ),
        (
            "obs_overhead".into(),
            JsonValue::obj([
                ("stage_profiling_pct".into(), JsonValue::F64(profile_pct)),
                ("daemon_metrics_pct".into(), JsonValue::F64(metrics_pct)),
            ]),
        ),
    ]);
    // Anchor at the workspace root (this crate lives two levels below it);
    // fall back to the cwd for a relocated binary.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = if root.join("Cargo.toml").exists() {
        root.join("BENCH_throughput.json")
    } else {
        PathBuf::from("BENCH_throughput.json")
    };
    std::fs::write(&path, doc.render_pretty(2) + "\n").expect("write BENCH_throughput.json");
    println!("\nwrote {}", path.display());
}
