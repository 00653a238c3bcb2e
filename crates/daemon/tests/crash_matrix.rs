//! The crash matrix: for **every** registered persistence failpoint,
//! run a two-family grid under `FTSIM_CHAOS=<seed>:abort@<site>#1` —
//! killing the daemon dead at that exact operation — then restart it
//! clean with `serve --drain` and require the final results to be
//! byte-identical to a one-shot `Experiment::grid()` of the same spec.
//!
//! Sites a clean drain never reaches (quarantine, steal, remove) simply
//! complete on the first pass; the byte-identity assertion holds either
//! way, which is the point: no failpoint in the catalog can corrupt a
//! result, only delay it.

use ftsim::harness::to_csv;
use ftsim_daemon::{failpoints, JobSpec};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Two (workload, model) families, two fault rates: small enough to
/// re-run ~25 times, wide enough that every store/fabric/csv site is
/// exercised along the way.
const SPEC: &str = r#"
name = "crash-matrix"
workloads = ["gcc"]
models = ["SS-1", "SS-2"]
fault_rates = [0.0, 5000.0]
budgets = [1200]
seeds = [11]
"#;

fn ftsimd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ftsimd"))
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftsimd-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs an ftsimd subcommand with a clean environment (no inherited
/// chaos), asserting success, and returns stdout.
fn run_clean(state: &Path, args: &[&str]) -> String {
    let out = ftsimd()
        .args(args)
        .args(["--state", state.to_str().unwrap()])
        .env_remove("FTSIM_CHAOS")
        .output()
        .expect("spawn ftsimd");
    assert!(
        out.status.success(),
        "ftsimd {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Drains the queue under a chaos plan. The process is *allowed* to die
/// (that is the experiment); only spawn/reap failures are errors.
fn drain_under_chaos(state: &Path, plan: &str) {
    let status = ftsimd()
        .args([
            "serve",
            "--drain",
            "--workers",
            "1",
            "--poll-ms",
            "25",
            "--lease-ms",
            "300",
            "--state",
            state.to_str().unwrap(),
        ])
        .env("FTSIM_CHAOS", plan)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn chaos drain");
    // Aborted-by-plan (signal) and survived-to-drain are both legal.
    let _ = status;
}

fn drain_clean(state: &Path) {
    run_clean(
        state,
        &[
            "serve",
            "--drain",
            "--workers",
            "1",
            "--poll-ms",
            "25",
            "--lease-ms",
            "300",
        ],
    );
}

#[test]
fn every_registered_failpoint_survives_a_kill_and_restart() {
    let expected = to_csv(
        &JobSpec::parse(SPEC)
            .unwrap()
            .to_experiment()
            .unwrap()
            .run()
            .unwrap(),
    );

    // abort@<site>#1 for the whole catalog, plus deeper hits and
    // non-abort damage: a torn row append mid-sweep, and the finalize's
    // status rename (a drain's only status write) dropped after the
    // unlink-visible moment.
    let mut plans: Vec<String> = failpoints::CATALOG
        .iter()
        .map(|f| format!("1:abort@{}#1", f.site))
        .collect();
    plans.push(format!("1:abort@{}#3", failpoints::CSV_APPEND));
    plans.push(format!("1:torn@{}#2", failpoints::CSV_APPEND));
    plans.push(format!(
        "1:drop-rename@{}#1",
        failpoints::STORE_WRITE_STATUS
    ));

    for (i, plan) in plans.iter().enumerate() {
        let state = state_dir(&format!("matrix-{i}"));
        let spec_path = state.join("job.toml");
        std::fs::write(&spec_path, SPEC).unwrap();
        let job_id = run_clean(&state, &["submit", spec_path.to_str().unwrap()])
            .trim()
            .to_string();

        drain_under_chaos(&state, plan);
        // The clean restart must finish the job no matter where the
        // chaos run died (or whether it died at all).
        drain_clean(&state);

        let results = state.join("jobs").join(&job_id).join("results.csv");
        let from_file = std::fs::read_to_string(&results)
            .unwrap_or_else(|e| panic!("[{plan}] results.csv unreadable after drain: {e}"));
        assert_eq!(
            from_file, expected,
            "[{plan}] results.csv differs from the one-shot grid"
        );
        std::fs::remove_dir_all(&state).ok();
    }
}

/// Group commit: a daemon killed at a claim's sync, after it wrote the
/// claim's rows, loses none of them. The restart runs only the other
/// family, so `cells.csv` ends with one row per cell, and the results
/// equal the one-shot grid's byte for byte.
#[test]
fn a_kill_at_the_claim_sync_loses_no_written_row() {
    let expected = to_csv(
        &JobSpec::parse(SPEC)
            .unwrap()
            .to_experiment()
            .unwrap()
            .run()
            .unwrap(),
    );
    let state = state_dir("claim-sync");
    let spec_path = state.join("job.toml");
    std::fs::write(&spec_path, SPEC).unwrap();
    let job_id = run_clean(&state, &["submit", spec_path.to_str().unwrap()])
        .trim()
        .to_string();
    let job = state.join("jobs").join(&job_id);
    let rows = || {
        let text = std::fs::read_to_string(job.join("cells.csv")).unwrap();
        text.lines().count() - 1 // the header
    };

    drain_under_chaos(
        &state,
        &format!("1:abort@{}#1", failpoints::FABRIC_CELLS_SYNC),
    );
    assert!(!job.join("results.csv").exists(), "the kill came first");
    assert_eq!(rows(), 2, "the first claim wrote its family's two rows");

    drain_clean(&state);
    assert_eq!(rows(), 4, "the restart re-ran a written cell");
    let from_file = std::fs::read_to_string(job.join("results.csv")).unwrap();
    assert_eq!(from_file, expected);
    std::fs::remove_dir_all(&state).ok();
}
