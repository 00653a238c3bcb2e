//! Work-counter tripwire for a daemon resuming a large, mostly finished
//! job: each `cells.csv` row is parsed once, and each of its bytes read
//! about once, per process, not once per claim, scheduling pass and
//! finalization. The same holds for the job's metadata and programs.
//!
//! A 2,048-cell job has 9 cells in 10 pre-filled into its `cells.csv`
//! (from a one-shot run of the same grid); an in-process `serve --drain`
//! runs the rest. The rows the daemon parsed, by the process counter
//! `ftsimd_cells_rows_parsed_total`, must equal the pre-filled rows plus
//! the appended rows. The bytes it read, by
//! `ftsimd_cells_bytes_read_total` (the record index's reads and the
//! writer's tail repairs), may not exceed twice the final file.
//! Re-reading or re-parsing the whole file per claim, per scheduling
//! pass and per finalization would cost several times that for every
//! one of the job's families.
//!
//! Across the drain's 16 claims the daemon parses `spec.json` once and
//! reads `status.json` twice (the first pass, and the finalize's update
//! of it), by `ftsimd_job_meta_reads_total`; builds each of the grid's 8
//! (workload, budget) programs once, by `ftsim_programs_built_total`; and
//! tries to finalize the job once, by `ftsimd_finalize_attempts_total`.
//! A daemon that re-reads, re-builds or re-finalizes per claim reads 16
//! or more on each.
//!
//! The cells the daemon ran, by `ftsimd_cells_completed_total`, must be
//! exactly the pending ones. An index that fails to match a pre-filled
//! row re-runs its cell and still finalizes a byte-identical
//! `results.csv`, so only this count shows it.
//!
//! The work of the drain is pinned too: the cells served from a
//! fault-free outcome, by `ftsim_cells_total{path="baseline"}`, and the
//! cycles simulated, by `ftsim_sim_cycles_total`. Each claimed family
//! resumes from its recorded rows, so a recorded fault-free cell serves
//! the family's pending fault-free cells and its faulty cells that
//! cannot fire; a planner that stops doing so re-simulates them, and
//! only these counts show it.
//!
//! The test is one function in its own binary: the counters are
//! process-wide.

use ftsim::harness::to_csv;
use ftsim_daemon::{serve, JobSpec, JobState, JobStore, ServeOptions};
use ftsim_obs::metrics;
use std::time::Duration;

const SPEC: &str = r#"
name = "resume-scale"
workloads = ["fpppp", "equake"]
models = ["SS-2", "SS-3M"]
fault_rates = [0.0, 300.0, 1000.0, 3000.0]
budgets = [200, 250, 300, 350]
seeds = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
    17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32,
]
checkpointing = true
"#;

/// Cell `idx` is left for the daemon; the rest are pre-filled.
fn pending(idx: usize) -> bool {
    idx % 10 == 9
}

#[test]
fn resuming_a_large_job_parses_each_row_about_once() {
    let spec = JobSpec::parse(SPEC).unwrap();
    let oneshot = spec.to_experiment().unwrap().run().unwrap();
    assert!(oneshot.len() >= 2_000, "{} cells", oneshot.len());
    assert!(oneshot.iter().all(|r| r.ok()), "errored cells would re-run");

    let dir = std::env::temp_dir().join(format!("ftsimd-resume-scale-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = JobStore::open(&dir).unwrap();
    let (id, _) = store.submit(&spec).unwrap();
    let job = store.job(&id).unwrap();
    let prefilled: Vec<_> = oneshot
        .iter()
        .enumerate()
        .filter(|&(i, _)| !pending(i))
        .map(|(_, r)| r.clone())
        .collect();
    std::fs::write(job.cells_path(), to_csv(&prefilled)).unwrap();

    let parsed = metrics::counter("ftsimd_cells_rows_parsed_total", &[]);
    let read = metrics::counter("ftsimd_cells_bytes_read_total", &[]);
    let completed = metrics::counter("ftsimd_cells_completed_total", &[]);
    let served = metrics::counter("ftsim_cells_total", &[("path", "baseline")]);
    let cycles = metrics::counter("ftsim_sim_cycles_total", &[]);
    let (before, read_before, completed_before) = (parsed.get(), read.get(), completed.get());
    let (served_before, cycles_before) = (served.get(), cycles.get());
    let once = [
        metrics::counter("ftsimd_job_meta_reads_total", &[("file", "spec")]),
        metrics::counter("ftsimd_job_meta_reads_total", &[("file", "status")]),
        metrics::counter("ftsim_programs_built_total", &[]),
        metrics::counter("ftsimd_finalize_attempts_total", &[]),
    ];
    let once_before: Vec<u64> = once.iter().map(metrics::Counter::get).collect();
    serve(
        &store,
        &ServeOptions {
            drain: true,
            workers: 1,
            poll: Duration::from_millis(1),
            gc_interval: Duration::ZERO,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let rows_parsed = parsed.get() - before;
    let bytes_read = read.get() - read_before;
    let cells_completed = completed.get() - completed_before;
    let work = (served.get() - served_before, cycles.get() - cycles_before);
    let per_drain: Vec<u64> = once
        .iter()
        .zip(&once_before)
        .map(|(counter, before)| counter.get() - before)
        .collect();

    assert_eq!(store.load_status(&job).unwrap().state, JobState::Done);
    assert_eq!(
        std::fs::read_to_string(job.results_path()).unwrap(),
        to_csv(&oneshot),
        "results.csv must be byte-identical to the one-shot run"
    );
    let appended = oneshot.len() - prefilled.len();
    assert_eq!(
        cells_completed, appended as u64,
        "the daemon must run exactly the {appended} pending cells"
    );
    assert_eq!(
        work,
        (118, 92_334),
        "cells served from a fault-free outcome, and cycles simulated, by the drain"
    );
    assert_eq!(
        per_drain,
        [1, 2, 8, 1],
        "spec.json parses, status.json reads, programs built and finalize attempts by the drain"
    );
    assert_eq!(
        rows_parsed,
        (prefilled.len() + appended) as u64,
        "cells.csv rows parsed resuming {} pre-filled and {appended} appended rows",
        prefilled.len()
    );
    let file_len = std::fs::metadata(job.cells_path()).unwrap().len();
    eprintln!("parsed {rows_parsed} rows, read {bytes_read} bytes of a {file_len}-byte cells.csv");
    assert!(
        bytes_read <= 2 * file_len,
        "read {bytes_read} bytes of a {file_len}-byte cells.csv (bound {})",
        2 * file_len
    );
    std::fs::remove_dir_all(&dir).ok();
}
