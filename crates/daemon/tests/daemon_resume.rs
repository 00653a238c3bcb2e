//! End-to-end daemon test: submit a two-family grid job, kill the
//! serving daemon mid-sweep with SIGKILL, restart it, and require the
//! merged results to be **byte-identical** to a one-shot
//! `Experiment::grid()` run of the same spec — the daemon's load-bearing
//! guarantee (crash-safety changes cost, never records).

use ftsim::harness::to_csv;
use ftsim_daemon::JobSpec;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The job: two (workload, model) families crossed with fault rates that
/// exercise every execution path — baseline-served fault-free cells,
/// forked faulty cells, and cold-fallback cells whose first fault lands
/// before the first checkpoint.
const SPEC: &str = r#"
name = "resume-e2e"
workloads = ["fpppp", "gcc"]
models = ["SS-2", "SS-3M"]
fault_rates = [0.0, 200.0, 5000.0, 50000.0]
budgets = [4000]
seeds = [3]
oracle = "final"
checkpointing = true
threads = 2
"#;

fn ftsimd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ftsimd"))
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftsimd-e2e-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs an ftsimd subcommand to completion, asserting success, and
/// returns its stdout.
fn run_ok(state: &Path, args: &[&str]) -> String {
    let out = ftsimd()
        .args(args)
        .args(["--state", state.to_str().unwrap()])
        .output()
        .expect("spawn ftsimd");
    assert!(
        out.status.success(),
        "ftsimd {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Polls until `cells.csv` holds at least `rows` complete record rows,
/// then returns how many it saw.
fn wait_for_rows(cells: &Path, rows: usize, timeout: Duration) -> usize {
    let deadline = Instant::now() + timeout;
    loop {
        let seen = std::fs::read_to_string(cells)
            .map(|text| {
                let (records, _) = ftsim::harness::from_csv_tolerant(&text);
                records.len()
            })
            .unwrap_or(0);
        if seen >= rows {
            return seen;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {rows} streamed rows in {}",
            cells.display()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn kill_hard(child: &mut Child) {
    child.kill().expect("SIGKILL the daemon");
    child.wait().expect("reap the daemon");
}

#[test]
fn killed_daemon_resumes_to_byte_identical_results() {
    let state = state_dir("kill");
    let spec_path = state.join("job.toml");
    std::fs::create_dir_all(&state).unwrap();
    std::fs::write(&spec_path, SPEC).unwrap();

    let job_id = run_ok(&state, &["submit", spec_path.to_str().unwrap()])
        .trim()
        .to_string();
    assert!(job_id.ends_with("-resume-e2e"), "unexpected id `{job_id}`");

    // Re-submitting the identical spec attaches instead of duplicating.
    let again = run_ok(&state, &["submit", spec_path.to_str().unwrap()]);
    assert_eq!(again.trim(), job_id);

    // Serve in the background and SIGKILL as soon as at least one record
    // has been streamed — mid-sweep, with 15 of 16 cells outstanding.
    let mut daemon = ftsimd()
        .args(["serve", "--state", state.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serving daemon");
    let cells = state.join("jobs").join(&job_id).join("cells.csv");
    let seen = wait_for_rows(&cells, 1, Duration::from_secs(120));
    kill_hard(&mut daemon);
    assert!(
        seen < 16,
        "daemon finished all 16 cells before the kill; the restart would prove nothing"
    );

    // The killed job must not have final results yet.
    let results = state.join("jobs").join(&job_id).join("results.csv");
    assert!(!results.exists(), "no final results before completion");

    // Restart in drain mode: the job (`running` until the dead daemon's
    // lease expires) is picked up, resumed from the streamed rows, and
    // finished.
    run_ok(&state, &["serve", "--drain"]);

    let status = run_ok(&state, &["status", &job_id]);
    assert!(
        status.contains("state:  done"),
        "status after drain:\n{status}"
    );

    // The acceptance check: byte-identical to the equivalent
    // one-shot Experiment::grid() with checkpoint-forking enabled.
    let direct = JobSpec::parse(SPEC)
        .unwrap()
        .to_experiment()
        .unwrap()
        .run()
        .unwrap();
    assert!(direct.iter().any(|r| r.faults_injected > 0));
    let expected = to_csv(&direct);
    let from_file = std::fs::read_to_string(&results).unwrap();
    assert_eq!(
        from_file, expected,
        "results.csv differs from one-shot grid"
    );

    // `ftsimd results` prints the same bytes.
    let from_cli = run_ok(&state, &["results", &job_id]);
    assert_eq!(from_cli, expected);

    std::fs::remove_dir_all(&state).ok();
}

#[test]
fn stop_requeues_and_drain_finishes() {
    let state = state_dir("stop");
    let spec_path = state.join("job.toml");
    std::fs::create_dir_all(&state).unwrap();
    std::fs::write(&spec_path, SPEC).unwrap();
    let job_id = run_ok(&state, &["submit", spec_path.to_str().unwrap()])
        .trim()
        .to_string();

    // Ask for a graceful stop while the daemon sweeps: it finishes the
    // cells in flight, releases its claims, and exits on its own.
    let mut daemon = ftsimd()
        .args(["serve", "--state", state.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serving daemon");
    let cells = state.join("jobs").join(&job_id).join("cells.csv");
    wait_for_rows(&cells, 1, Duration::from_secs(120));
    run_ok(&state, &["stop"]);
    let exited = daemon.wait().expect("daemon exit");
    assert!(exited.success(), "graceful stop must exit cleanly");

    let status = run_ok(&state, &["status", &job_id]);
    assert!(
        status.contains("state:  queued") || status.contains("state:  done"),
        "after graceful stop:\n{status}"
    );

    run_ok(&state, &["serve", "--drain"]);
    let direct = JobSpec::parse(SPEC)
        .unwrap()
        .to_experiment()
        .unwrap()
        .run()
        .unwrap();
    let from_cli = run_ok(&state, &["results", &job_id]);
    assert_eq!(from_cli, to_csv(&direct));

    std::fs::remove_dir_all(&state).ok();
}
