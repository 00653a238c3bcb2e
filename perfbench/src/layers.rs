//! The traced run: per-layer metrics from spans around calls into each
//! layer, plus the exact work counters the program already keeps.
//!
//! It runs the workload's one-shot grid untraced and then twice traced
//! (`trace.overhead_frac` compares the two), drains a resumed `ftsimd`
//! job of the workload's grid twice, and then times single calls into
//! each layer on the workload's own coordinates. Every count is reported
//! as a count, and the self-check requires counts to repeat exactly
//! between the two traced passes and between the two drains.

use crate::bench::Bench;
use crate::clock::cpu_seconds;
use crate::span::Tracer;
use crate::stats::{mean, median, percentile};
use crate::Outcome;
use ftsim::core::profile::{self, StageProfile};
use ftsim::core::{OracleMode, Processor, Simulator};
use ftsim::faults::{per_million, FaultInjector, SiteMix};
use ftsim::harness::{from_csv_tolerant, CellPath, RunRecord, SweepPlan};
use ftsim::isa::Emulator;
use ftsim::obs::metrics;
use ftsim::stats::csv::AppendWriter;
use ftsim::workloads::profile as workload_profile;
use ftsim_daemon::model_by_name;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Appends timed by the append-latency probe: enough for a p99 with ten
/// samples beyond it.
const APPEND_PROBES: usize = 1_000;

/// Exact work counters of the program's metrics registry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Counts {
    /// `ftsim_cells_total` by path: resumed, baseline, forked, cold.
    cells: [u64; 4],
    sim_instructions: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    /// `ftsimd_claims_total` by event: acquired, renewed, stolen.
    claims: [u64; 3],
    append_bytes: u64,
    cells_completed: u64,
}

/// Per-stage metric names, in `STAGE_NAMES` order.
const STAGE_METRICS: [[&str; 2]; 5] = [
    ["core.stage.commit.calls", "core.stage.commit.est_ms"],
    ["core.stage.writeback.calls", "core.stage.writeback.est_ms"],
    ["core.stage.issue.calls", "core.stage.issue.est_ms"],
    ["core.stage.dispatch.calls", "core.stage.dispatch.est_ms"],
    ["core.stage.fetch.calls", "core.stage.fetch.est_ms"],
];

const PATHS: [CellPath; 4] = [
    CellPath::Resumed,
    CellPath::Baseline,
    CellPath::Forked,
    CellPath::Cold,
];

impl Counts {
    fn read() -> Self {
        let c = |name, labels: &[(&'static str, &str)]| metrics::counter(name, labels).get();
        Self {
            cells: PATHS.map(|p| c("ftsim_cells_total", &[("path", p.name())])),
            sim_instructions: c("ftsim_sim_instructions_total", &[]),
            checkpoints: c("ftsim_checkpoints_taken_total", &[]),
            checkpoint_bytes: c("ftsim_checkpoint_bytes_total", &[]),
            claims: ["acquired", "renewed", "stolen"]
                .map(|e| c("ftsimd_claims_total", &[("event", e)])),
            append_bytes: c("ftsimd_append_bytes_total", &[]),
            cells_completed: c("ftsimd_cells_completed_total", &[]),
        }
    }

    fn since(self, before: Self) -> Self {
        Self {
            cells: std::array::from_fn(|i| self.cells[i] - before.cells[i]),
            sim_instructions: self.sim_instructions - before.sim_instructions,
            checkpoints: self.checkpoints - before.checkpoints,
            checkpoint_bytes: self.checkpoint_bytes - before.checkpoint_bytes,
            claims: std::array::from_fn(|i| self.claims[i] - before.claims[i]),
            append_bytes: self.append_bytes - before.append_bytes,
            cells_completed: self.cells_completed - before.cells_completed,
        }
    }

    /// `f`'s result and the counts it added.
    fn over<T>(f: impl FnOnce() -> T) -> (T, Self) {
        let before = Self::read();
        let out = f();
        (out, Self::read().since(before))
    }

    /// The counts that must repeat exactly. Claim renewals are left out:
    /// a lease renews on a timer (every quarter lease), not per unit of
    /// work.
    fn exact(self) -> Self {
        Self {
            claims: [self.claims[0], 0, self.claims[2]],
            ..self
        }
    }
}

/// Runs a plan the way `Experiment::run` does on one thread (family
/// baselines first, then every cell in grid order), with a span per
/// call and stage profiling on.
fn cell_pass(tr: &mut Tracer, plan: &SweepPlan) -> (Vec<RunRecord>, StageProfile) {
    profile::set_enabled(true);
    for fi in 0..plan.family_count() {
        tr.span("harness.prepare_family", |_| plan.prepare_family(fi));
    }
    let mut stages = StageProfile::default();
    let mut records = Vec::with_capacity(plan.len());
    for idx in 0..plan.len() {
        let id = tr.enter();
        let (record, path, prof) = plan.run_cell_observed(idx);
        tr.exit(id, cell_span(path));
        stages.accumulate(&prof);
        records.push(record);
    }
    profile::set_enabled(false);
    (records, stages)
}

fn cell_span(path: CellPath) -> &'static str {
    match path {
        CellPath::Resumed => "harness.cell.resumed",
        CellPath::Baseline => "harness.cell.baseline",
        CellPath::Forked => "harness.cell.forked",
        CellPath::Cold => "harness.cell.cold",
    }
}

/// One traced pass over the workload's one-shot grid: `plan()` and the
/// cell pass. Returns the records, the stage profile and the wall.
/// The pass is one `harness.run` span, parent of the others.
fn traced_pass(tr: &mut Tracer, b: &Bench) -> Result<(Vec<RunRecord>, StageProfile, f64), String> {
    let start = Instant::now();
    let exp = b.w.experiment();
    let (records, stages) = tr.span("harness.run", |tr| {
        let plan = tr
            .span("harness.plan", |_| exp.plan())
            .map_err(|e| format!("{}: {e}", b.w.name))?;
        Ok::<_, String>(cell_pass(tr, &plan))
    })?;
    Ok((records, stages, start.elapsed().as_secs_f64()))
}

/// Median of the `ftsimd_lease_wait_ms` histogram, as the upper edge of
/// the bucket holding it (0 before any claim).
fn lease_wait_p50_ms() -> f64 {
    let text = metrics::render();
    let mut buckets = Vec::new();
    let mut total = 0.0;
    for line in text.lines() {
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        if let Some(le) = key.strip_prefix("ftsimd_lease_wait_ms_bucket{le=\"") {
            if let Ok(edge) = le.trim_end_matches("\"}").parse::<f64>() {
                buckets.push((edge, value));
            }
        } else if key == "ftsimd_lease_wait_ms_count" {
            total = value;
        }
    }
    buckets
        .into_iter()
        .find(|&(_, cumulative)| total > 0.0 && cumulative >= total / 2.0)
        .map_or(0.0, |(edge, _)| edge)
}

/// Times single calls into the cell-setup, cycle-loop and teardown
/// layers on every (workload, budget, model) coordinate of the grid, and
/// the fork-bound scan of every faulty cell. Returns the simulated
/// cycles of the `core.run` spans.
fn probe_coordinates(tr: &mut Tracer, b: &Bench, problems: &mut Vec<String>) -> u64 {
    let spec = &b.w.spec;
    let mut cycles = 0;
    for name in &spec.workloads {
        let p = workload_profile(name).expect("benchmark workloads are registered profiles");
        for &budget in &spec.budgets {
            let program =
                Arc::new(tr.span("workloads.program", |_| p.program_for_instructions(budget)));
            for model in &spec.models {
                let config = model_by_name(model).expect("benchmark models are presets");
                let builder = || {
                    Simulator::builder()
                        .config(config.clone())
                        .program_shared(Arc::clone(&program))
                        .oracle(OracleMode::Off)
                        .budget(budget)
                };
                let mut sim = tr
                    .span("core.build", |_| builder().build())
                    .expect("benchmark coordinates build");
                let proc = sim.processor_mut();
                black_box(tr.span("core.digest", |_| proc.state_digest()));
                // Step the fault-free machine to its budget, snapshotting
                // half-way, as a family baseline would.
                let retired = |p: &Processor| p.stats_snapshot().retired_instructions;
                let mut snapshot = None;
                while !proc.halted() && retired(proc) < budget {
                    if snapshot.is_none() && retired(proc) >= budget / 2 {
                        snapshot = Some(tr.span("core.snapshot", |_| proc.snapshot()));
                    }
                    for _ in 0..64 {
                        if proc.halted() {
                            break;
                        }
                        proc.cycle();
                    }
                }
                let retired = retired(proc);
                let mut emu = tr.span("isa.emulator_new", |_| Emulator::new(&program));
                if let Err(e) = tr.span("isa.oracle_replay", |_| emu.run_steps(retired)) {
                    problems.push(format!("{name}/{model}/{budget}: oracle replay: {e}"));
                }
                let diff = tr.span("mem.diff", |_| emu.mem().diff(proc.mem(), 4));
                if !diff.is_empty() {
                    problems.push(format!(
                        "{name}/{model}/{budget}: memory differs from the oracle"
                    ));
                }
                if let Some(cp) = snapshot {
                    tr.span("core.restore", |_| proc.restore_owned(cp));
                }
                let sim = builder().build().expect("benchmark coordinates build");
                match tr.span("core.run", |_| sim.run()) {
                    Ok(result) => cycles += result.cycles,
                    Err(e) => problems.push(format!("{name}/{model}/{budget}: {e}")),
                }
            }
        }
    }
    // The harness scans each live faulty cell's injector stream this far
    // ahead (budget × redundancy × 4 + 100k draws).
    let mixes: Vec<SiteMix> = spec
        .site_mixes
        .iter()
        .map(|m| SiteMix::preset(m).expect("benchmark mixes are presets"))
        .collect();
    for model in &spec.models {
        let r = u64::from(model_by_name(model).expect("preset").redundancy.r);
        for &budget in &spec.budgets {
            let horizon = budget * r * 4 + 100_000;
            for &rate in spec.fault_rates_pm.iter().filter(|&&r| r > 0.0) {
                for mix in &mixes {
                    for &seed in &spec.seeds {
                        let inj = FaultInjector::random_with_mix(per_million(rate), seed, mix);
                        black_box(
                            tr.span("faults.bound_scan", |_| inj.first_possible_fire(horizon)),
                        );
                    }
                }
            }
        }
    }
    cycles
}

/// Times `AppendWriter::append_row` (one write and fsync each) on a
/// scratch file in the state directory's filesystem.
fn probe_appends(tr: &mut Tracer, b: &Bench, row: &str) -> Result<(), String> {
    let path = b.work_dir.join("append-probe.csv");
    let (mut writer, _) =
        AppendWriter::open(&path, &RunRecord::csv_header()).map_err(|e| e.to_string())?;
    for _ in 0..APPEND_PROBES {
        tr.span("stats.append_row", |_| writer.append_row(row))
            .map_err(|e| format!("appending to {}: {e}", path.display()))?;
    }
    drop(writer);
    let _ = std::fs::remove_file(&path);
    Ok(())
}

/// The traced run of `b`'s workload: per-layer metrics in
/// `BENCHMARK.json` order, cells checked and failed, and self-check
/// failures.
pub fn traced_run(b: &mut Bench, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;

    // Untraced wall of the one-shot grid: three repetitions for a
    // one-shot workload; the fabric workload's set-up run otherwise.
    let untraced_wall = if b.w.one_shot {
        let mut walls = Vec::new();
        for idx in 0..3 {
            let rep = b.rep(idx, cpu_seconds())?;
            attempted += rep.cells;
            failed += rep.failed;
            walls.push(rep.wall_s);
        }
        median(&walls)
    } else {
        b.oneshot_records()?;
        b.oneshot_wall_s
    };

    // Two traced passes; their counts must agree exactly.
    let mut passes = Vec::new();
    for _ in 0..2 {
        let (pass, counts) = Counts::over(|| traced_pass(tr, b));
        let (records, stages, wall) = pass?;
        attempted += b.reference.len();
        failed += b.reference.failed_cells(&records).len();
        passes.push((records, stages, wall, counts));
    }
    let (records, stages, _, counts) = &passes[0];
    if (counts, stages.calls) != (&passes[1].3, passes[1].1.calls) {
        problems.push(format!(
            "work counters differ between traced passes: {counts:?} {:?} vs {:?} {:?}",
            stages.calls, passes[1].3, passes[1].1.calls
        ));
    }
    let traced_wall = mean(&[passes[0].2, passes[1].2]);
    let retired: u64 = records.iter().map(|r| r.retired_instructions).sum();
    for r in records {
        black_box(tr.span("harness.record_csv", |_| r.to_csv_row()));
    }

    // The fabric on the workload's grid: plan with and without resume,
    // then two drains of a mostly finished job.
    let prior = b.prior()?;
    let plain = b.w.experiment();
    tr.span("harness.plan", |_| plain.plan())
        .map_err(|e| e.to_string())?;
    let resumed = b.w.experiment().resume_from(prior.clone());
    tr.span("harness.plan_resume", |_| resumed.plan())
        .map_err(|e| e.to_string())?;
    let mut drains = Vec::new();
    for idx in 0..2 {
        let (store, job) = b.prepare_job(1_000 + idx, tr)?;
        let text = std::fs::read_to_string(job.cells_path()).map_err(|e| e.to_string())?;
        black_box(tr.span("harness.csv_parse", |_| from_csv_tolerant(&text)));
        let ((t, drain_failed), counts) = Counts::over(|| b.drain(&store, &job, tr));
        let _ = std::fs::remove_dir_all(store.root());
        attempted += b.pending_count();
        failed += drain_failed;
        drains.push((t.wall_s, counts));
    }
    let fabric = drains[0].1;
    if fabric.exact() != drains[1].1.exact() {
        problems.push(format!(
            "fabric counters differ between drains: {fabric:?} vs {:?}",
            drains[1].1
        ));
    }
    let resume_run = b.w.experiment().resume_from(prior);
    let start = Instant::now();
    let (rerun, resumed_counts) =
        Counts::over(|| tr.span("harness.resume_run", |_| resume_run.run()));
    let resume_wall = start.elapsed().as_secs_f64();
    let rerun = rerun.map_err(|e| e.to_string())?;
    attempted += b.reference.len();
    failed += b.reference.failed_cells(&rerun).len();

    let cycles = probe_coordinates(tr, b, &mut problems);
    probe_appends(tr, b, &records[0].to_csv_row())?;

    let d = |name: &str| tr.durations_ms(name);
    let per_call_ms = |name: &str| mean(&d(name));
    let mut m: Vec<(&'static str, f64, &'static str)> = vec![
        ("harness.plan_ms", per_call_ms("harness.plan"), "ms"),
        (
            "harness.plan_resume_ms",
            per_call_ms("harness.plan_resume"),
            "ms",
        ),
    ];
    for (path, name) in [
        (
            CellPath::Cold,
            ["harness.cell_ms.cold.p50", "harness.cell_ms.cold.p99"],
        ),
        (
            CellPath::Forked,
            ["harness.cell_ms.forked.p50", "harness.cell_ms.forked.p99"],
        ),
        (
            CellPath::Baseline,
            [
                "harness.cell_ms.baseline.p50",
                "harness.cell_ms.baseline.p99",
            ],
        ),
    ] {
        let cells = d(cell_span(path));
        m.push((name[0], percentile(&cells, 50.0), "ms"));
        m.push((name[1], percentile(&cells, 99.0), "ms"));
    }
    m.extend([
        ("harness.cells.cold", counts.cells[3] as f64, "count"),
        ("harness.cells.forked", counts.cells[2] as f64, "count"),
        ("harness.cells.baseline", counts.cells[1] as f64, "count"),
        (
            "harness.cells.resumed",
            resumed_counts.cells[0] as f64,
            "count",
        ),
        (
            "harness.simulated_instr_frac",
            counts.sim_instructions as f64 / retired.max(1) as f64,
            "ratio",
        ),
        (
            "harness.csv_parse_ms",
            per_call_ms("harness.csv_parse"),
            "ms",
        ),
        (
            "harness.record_csv_us",
            per_call_ms("harness.record_csv") * 1e3,
            "us",
        ),
        (
            "workloads.program_ms",
            per_call_ms("workloads.program"),
            "ms",
        ),
        (
            "faults.bound_scan_ms",
            per_call_ms("faults.bound_scan"),
            "ms",
        ),
        ("core.build_ms", per_call_ms("core.build"), "ms"),
        ("core.digest_ms", per_call_ms("core.digest"), "ms"),
        ("isa.emulator_new_ms", per_call_ms("isa.emulator_new"), "ms"),
        (
            "isa.oracle_replay_ms",
            per_call_ms("isa.oracle_replay"),
            "ms",
        ),
        ("mem.diff_ms", per_call_ms("mem.diff"), "ms"),
        (
            "core.run_cycles_per_s",
            cycles as f64 / (d("core.run").iter().sum::<f64>() / 1e3),
            "cycles/s",
        ),
    ]);
    let est_ns = stages.est_total_ns();
    for (i, [calls, est_ms]) in STAGE_METRICS.into_iter().enumerate() {
        m.push((calls, stages.calls[i] as f64, "count"));
        m.push((est_ms, est_ns[i] as f64 / 1e6, "ms"));
    }
    let appends = d("stats.append_row");
    m.extend([
        ("core.snapshot_us", per_call_ms("core.snapshot") * 1e3, "us"),
        ("core.restore_us", per_call_ms("core.restore") * 1e3, "us"),
        ("core.checkpoints", counts.checkpoints as f64, "count"),
        (
            "core.checkpoint_bytes",
            counts.checkpoint_bytes as f64,
            "bytes",
        ),
        (
            "stats.append_row_us.p50",
            percentile(&appends, 50.0) * 1e3,
            "us",
        ),
        (
            "stats.append_row_us.p99",
            percentile(&appends, 99.0) * 1e3,
            "us",
        ),
        ("daemon.submit_ms", per_call_ms("daemon.submit"), "ms"),
        (
            "daemon.serve_s",
            median(&drains.iter().map(|d| d.0).collect::<Vec<_>>()),
            "s",
        ),
        (
            "daemon.fabric_tax",
            median(&drains.iter().map(|d| d.0).collect::<Vec<_>>()) / resume_wall,
            "ratio",
        ),
        ("daemon.claims.acquired", fabric.claims[0] as f64, "count"),
        ("daemon.claims.renewed", fabric.claims[1] as f64, "count"),
        ("daemon.claims.stolen", fabric.claims[2] as f64, "count"),
        ("daemon.append_bytes", fabric.append_bytes as f64, "bytes"),
        (
            "daemon.cells_completed",
            fabric.cells_completed as f64,
            "count",
        ),
        ("daemon.lease_wait_ms.p50", lease_wait_p50_ms(), "ms"),
        (
            "trace.overhead_frac",
            traced_wall / untraced_wall - 1.0,
            "ratio",
        ),
        (
            "cells_failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ]);
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        problems,
    })
}
