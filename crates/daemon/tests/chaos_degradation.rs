//! Graceful-degradation end-to-end tests: corrupt state files are
//! quarantined (not fatal), a full disk pauses the job instead of
//! crash-looping, and the `--remote` client's retry/backoff survives a
//! lossy transport — all without the daemon ever panicking.

use ftsim::harness::to_csv;
use ftsim_daemon::JobSpec;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SPEC: &str = r#"
name = "degrade"
workloads = ["gcc"]
models = ["SS-1", "SS-2"]
fault_rates = [0.0, 5000.0]
budgets = [1200]
seeds = [5]
"#;

fn ftsimd() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ftsimd"));
    cmd.env_remove("FTSIM_CHAOS");
    cmd
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftsimd-degrade-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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

fn drain(state: &Path, chaos: Option<&str>) {
    let mut cmd = ftsimd();
    cmd.args([
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
    .stdout(Stdio::null())
    .stderr(Stdio::null());
    if let Some(plan) = chaos {
        cmd.env("FTSIM_CHAOS", plan);
    }
    let status = cmd.status().expect("spawn drain");
    assert!(
        status.success(),
        "drain must exit cleanly (chaos={chaos:?})"
    );
}

fn expected_csv() -> String {
    to_csv(
        &JobSpec::parse(SPEC)
            .unwrap()
            .to_experiment()
            .unwrap()
            .run()
            .unwrap(),
    )
}

/// Corrupt spec, corrupt status, and garbage lease debris: the healthy
/// job completes byte-identical, the broken one is parked `failed`, and
/// all three pieces of evidence land in `<state>/quarantine/`.
#[test]
fn corrupt_state_is_quarantined_and_healthy_jobs_complete() {
    let state = state_dir("quarantine");
    let spec_path = state.join("job.toml");
    std::fs::write(&spec_path, SPEC).unwrap();
    let healthy = run_ok(&state, &["submit", spec_path.to_str().unwrap()])
        .trim()
        .to_string();

    let broken_spec = SPEC.replace("degrade", "broken");
    std::fs::write(&spec_path, &broken_spec).unwrap();
    let broken = run_ok(&state, &["submit", spec_path.to_str().unwrap()])
        .trim()
        .to_string();

    // Scribble on the broken job's spec and the healthy job's status,
    // and drop unparseable debris where a claim lease should be.
    let jobs = state.join("jobs");
    std::fs::write(jobs.join(&broken).join("spec.json"), "{{{ not json").unwrap();
    std::fs::write(jobs.join(&healthy).join("status.json"), "garbage").unwrap();
    let claims = jobs.join(&healthy).join("claims");
    std::fs::create_dir_all(&claims).unwrap();
    std::fs::write(claims.join("gcc__1200__SS-1.json"), "not a lease").unwrap();

    // Debris older than 2x lease is steal-eligible; backdating is not
    // possible with a fresh file, so give the lease window time to age
    // out during the drain (300 ms lease, drain polls at 25 ms).
    drain(&state, None);

    let results = jobs.join(&healthy).join("results.csv");
    assert_eq!(
        std::fs::read_to_string(&results).unwrap(),
        expected_csv(),
        "healthy job must complete byte-identical despite the corruption"
    );
    let status = run_ok(&state, &["status", &broken]);
    assert!(
        status.contains("state:  failed"),
        "broken job parked failed:\n{status}"
    );

    let quarantine = state.join("quarantine");
    let quarantined: Vec<_> = std::fs::read_dir(&quarantine)
        .expect("quarantine dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        quarantined.iter().any(|n| n.contains("spec")),
        "corrupt spec quarantined: {quarantined:?}"
    );
    assert!(
        quarantined.iter().any(|n| n.contains("status")),
        "corrupt status quarantined: {quarantined:?}"
    );
    assert!(
        quarantined.iter().any(|n| n.ends_with(".reason")),
        "reason sidecars written: {quarantined:?}"
    );
    std::fs::remove_dir_all(&state).ok();
}

/// ENOSPC on the first cell append pauses the job with a visible
/// status; freeing space (dropping the plan) and re-submitting resumes
/// to byte-identical results.
#[test]
fn enospc_pauses_the_job_and_resubmit_resumes() {
    let state = state_dir("enospc");
    let spec_path = state.join("job.toml");
    std::fs::write(&spec_path, SPEC).unwrap();
    let job_id = run_ok(&state, &["submit", spec_path.to_str().unwrap()])
        .trim()
        .to_string();

    // Every cells.csv append fails with ENOSPC: the daemon must pause
    // the job (not crash, not spin) and still drain to a clean exit.
    drain(&state, Some("3:enospc@csv.append=1"));

    let status = run_ok(&state, &["status", &job_id]);
    assert!(
        status.contains("paused: no space left on device"),
        "pause reason visible in status:\n{status}"
    );
    assert!(
        !state
            .join("jobs")
            .join(&job_id)
            .join("results.csv")
            .exists(),
        "no results while paused"
    );

    // "Free space" (no chaos plan) and re-submit the identical spec:
    // attaching un-pauses, and the drain completes the sweep.
    let again = run_ok(&state, &["submit", spec_path.to_str().unwrap()]);
    assert_eq!(again.trim(), job_id, "re-submit attaches to the paused job");
    drain(&state, None);
    let results = state.join("jobs").join(&job_id).join("results.csv");
    assert_eq!(std::fs::read_to_string(&results).unwrap(), expected_csv());
    std::fs::remove_dir_all(&state).ok();
}

/// The `--remote` client completes submit → status → results against a
/// clean server while its own transport drops ~30% of sends and ~20%
/// of receives: exponential-backoff retry absorbs the loss.
#[test]
fn remote_client_survives_a_lossy_transport() {
    let state = state_dir("lossy");
    let spec_path = state.join("job.toml");
    std::fs::write(&spec_path, SPEC).unwrap();

    let mut server = ftsimd()
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--poll-ms",
            "25",
            "--state",
            state.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serving daemon");

    // The bound address lands in <state>/http.addr once the server is up.
    let addr_path = state.join("http.addr");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&addr_path) {
            break addr;
        }
        assert!(Instant::now() < deadline, "server never advertised");
        std::thread::sleep(Duration::from_millis(25));
    };

    let lossy = "7:eio@http.client.send=0.3,eio@http.client.recv=0.2";
    let remote_ok = |args: &[&str]| -> String {
        let out = ftsimd()
            .args(args)
            .args(["--remote", addr.trim()])
            .env("FTSIM_CHAOS", lossy)
            .output()
            .expect("spawn remote ftsimd");
        assert!(
            out.status.success(),
            "remote ftsimd {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };

    let job_id = remote_ok(&["submit", spec_path.to_str().unwrap()])
        .trim()
        .to_string();

    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = remote_ok(&["status", &job_id]);
        if status.contains("state:  done") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "job never finished; last status:\n{status}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    let results = remote_ok(&["results", &job_id]);
    assert_eq!(
        results,
        expected_csv(),
        "lossy-transport results match the one-shot grid"
    );

    // Shut the server down over the same lossy transport.
    remote_ok(&["stop"]);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(code) = server.try_wait().expect("poll server") {
            assert!(code.success(), "server exits cleanly on remote stop");
            break;
        }
        if Instant::now() >= deadline {
            server.kill().ok();
            panic!("server ignored remote stop");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    std::fs::remove_dir_all(&state).ok();
}

/// A results.csv write that fails during finalization is retried on the
/// next scheduler pass instead of ending `serve`: every seed here fails
/// at least one attempt, yet the drain exits cleanly with the job done
/// and its results byte-identical to a clean run.
#[test]
fn failed_finalize_is_retried_on_the_next_pass() {
    let spec = SPEC.replace("degrade", "finalize").replace("gcc", "fpppp");
    let expected = to_csv(
        &JobSpec::parse(&spec)
            .unwrap()
            .to_experiment()
            .unwrap()
            .run()
            .unwrap(),
    );
    for seed in [2, 3, 6] {
        let state = state_dir(&format!("finalize-{seed}"));
        let spec_path = state.join("job.toml");
        std::fs::write(&spec_path, &spec).unwrap();
        let job_id = run_ok(&state, &["submit", spec_path.to_str().unwrap()])
            .trim()
            .to_string();
        drain(
            &state,
            Some(&format!("{seed}:eio@fabric.finalize.results_csv=0.5")),
        );
        let status = run_ok(&state, &["status", &job_id]);
        assert!(
            status.contains("state:  done"),
            "seed {seed}: job finalized:\n{status}"
        );
        let results = state.join("jobs").join(&job_id).join("results.csv");
        assert_eq!(
            std::fs::read_to_string(&results).unwrap(),
            expected,
            "seed {seed}: results match a clean run"
        );
        std::fs::remove_dir_all(&state).ok();
    }
}
