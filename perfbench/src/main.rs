//! The ftsim benchmark: grid cells per second end to end on three
//! workloads, with a traced run for the per-layer metrics. See README.md.
//!
//! Usage: `ftsim-perfbench --workload <name> [--seed <n>] [--seconds <s>]
//! [--trace 0|1]`, or `ftsim-perfbench --bless` to re-record the
//! reference outputs. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod bench;
mod check;
mod clock;
mod grid;
mod layers;
mod span;
mod stats;

use bench::Bench;
use check::Reference;
use grid::Workload;
use span::Tracer;
use stats::median;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Untraced repetitions measured at least, however long they take.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// What a run reports: metrics (name, value, unit) in `BENCHMARK.json`
/// order, cells checked and failed, and self-check failures.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
}

/// Repeats the workload's closed loop for `seconds` of wall time (at
/// least `MIN_REPS` times) and reports the median of each end-to-end
/// metric, timed on the process CPU clock (see `clock`). Peak memory is read after the first repetition: later ones run on
/// fresh worker threads, whose allocator arenas may or may not reuse
/// the memory earlier repetitions freed, so the process peak past that
/// point depends on thread timing rather than on one grid's needs.
fn untraced(b: &mut Bench, seconds: u64) -> Result<Outcome, String> {
    let mut reps = Vec::new();
    let mut setup_start = 0.0;
    let mut window_start = None;
    let mut first_rep_rss = 0.0;
    loop {
        let rep = b.rep(reps.len(), setup_start)?;
        let start = *window_start
            .get_or_insert_with(|| Instant::now() - Duration::from_secs_f64(rep.wall_s));
        eprintln!(
            "perfbench: {} rep {}: setup {:.3} s, {} cells in {:.3} s ({:.3} s wall), \
             first cell {:.3} s, {} failed",
            b.w.name,
            reps.len(),
            rep.setup_s,
            rep.cells,
            rep.cpu_s,
            rep.wall_s,
            rep.first_cell_s,
            rep.failed
        );
        if reps.is_empty() {
            first_rep_rss = peak_rss_mib()?;
        }
        reps.push(rep);
        if reps.len() >= MIN_REPS && start.elapsed().as_secs() >= seconds {
            break;
        }
        setup_start = clock::cpu_seconds();
    }
    let med = |f: fn(&bench::Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    Ok(Outcome {
        metrics: vec![
            ("cells_per_s", med(|r| r.cells as f64 / r.cpu_s), "cells/s"),
            ("setup_s", med(|r| r.setup_s), "s"),
            ("peak_rss_mib", first_rep_rss, "MiB"),
            ("first_cell_s", med(|r| r.first_cell_s), "s"),
        ],
        attempted: reps.iter().map(|r| r.cells).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        problems: Vec::new(),
    })
}

/// The traced run; writes its spans to `trace_path`.
fn traced(b: &mut Bench, trace_path: &Path) -> Result<Outcome, String> {
    let mut tr = Tracer::new(true);
    let outcome = layers::traced_run(b, &mut tr)?;
    tr.write(trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    eprintln!("perfbench: spans written to {}", trace_path.display());
    Ok(outcome)
}

fn render(o: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = o.failed == 0 && o.problems.is_empty();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.attempted.max(1),
        o.failed
    )
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    if args.bless {
        check::bless()?;
        return Ok(String::new());
    }
    let w = Workload::new(&args.workload, args.seed).ok_or(format!(
        "unknown workload {:?}; expected one of {:?}",
        args.workload,
        grid::NAMES
    ))?;
    let reference = Reference::load(w.name, w.class)?;
    let run_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".run");
    let work_dir = run_dir.join(format!("{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("creating {}: {e}", work_dir.display()))?;
    let trace_path = run_dir.join(format!("trace-{}-seed{}.ndjson", w.name, args.seed));
    let mut b = Bench::new(w, reference, work_dir.clone());
    let outcome = if args.trace {
        traced(&mut b, &trace_path)
    } else {
        untraced(&mut b, args.seconds)
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let mut outcome = outcome?;
    for (name, value, unit) in &outcome.metrics {
        eprintln!("perfbench: {name} = {value} {unit}");
        if !value.is_finite() {
            outcome.problems.push(format!("{name} is not finite"));
        }
    }
    for p in &outcome.problems {
        eprintln!("perfbench: self-check failed: {p}");
    }
    outcome.metrics.iter_mut().for_each(|m| {
        if !m.1.is_finite() {
            m.1 = 0.0;
        }
    });
    Ok(render(&outcome))
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            if !line.is_empty() {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
