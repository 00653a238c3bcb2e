//! Multi-process fabric tests: several `ftsimd serve` processes sharing
//! one state directory must partition a job by family claims, steal the
//! leases of crashed peers, and still produce results **byte-identical**
//! to a one-shot `Experiment::grid()` — the determinism invariant makes
//! the lease protocol a throughput optimization, never a correctness
//! mechanism, and these tests hold it to that.

use ftsim::harness::to_csv;
use ftsim_daemon::JobSpec;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Two (workload, model) families so two processes have distinct shards
/// to claim, with fault rates covering baseline, forked and cold cells.
const SPEC: &str = r#"
name = "fabric-e2e"
workloads = ["fpppp", "gcc"]
models = ["SS-2"]
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
    let dir = std::env::temp_dir().join(format!("ftsimd-fabric-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
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

fn submit(state: &Path, spec: &str) -> String {
    let spec_path = state.join("job.toml");
    std::fs::create_dir_all(state).unwrap();
    std::fs::write(&spec_path, spec).unwrap();
    run_ok(state, &["submit", spec_path.to_str().unwrap()])
        .trim()
        .to_string()
}

/// Spawns a serving daemon. `FTSIMD_TEST_LEASE_MODE` (set by the CI
/// tenancy job to `relaxed`, usually together with an ambient `nfs@`
/// chaos plan) selects the lease mode, so the same tests prove
/// byte-identity under both the O_EXCL and the owner-echo protocols.
fn spawn_serve(state: &Path, extra: &[&str]) -> Child {
    let mut cmd = ftsimd();
    cmd.args(["serve", "--state", state.to_str().unwrap()]);
    if let Ok(mode) = std::env::var("FTSIMD_TEST_LEASE_MODE") {
        cmd.args(["--lease-mode", &mode]);
    }
    cmd.args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serving daemon")
}

/// One raw `GET /healthz` against a daemon that advertised its address
/// in `<state>/http.addr`, returning the JSON body.
fn healthz(state: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(state.join("http.addr")) {
            let addr = addr.trim().to_string();
            if !addr.is_empty() {
                break addr;
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never advertised an address"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect to daemon");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: ftsimd\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 200"), "healthz: {response}");
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default()
}

/// The complete record rows `cells.csv` holds.
fn streamed_rows(cells: &Path) -> usize {
    std::fs::read_to_string(cells)
        .map(|text| ftsim::harness::from_csv_tolerant(&text).0.len())
        .unwrap_or(0)
}

/// Polls until `cells.csv` holds at least `rows` complete record rows.
fn wait_for_rows(cells: &Path, rows: usize, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        if streamed_rows(cells) >= rows {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {rows} streamed rows in {}",
            cells.display()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn one_shot_csv(spec: &str) -> String {
    let records = JobSpec::parse(spec)
        .unwrap()
        .to_experiment()
        .unwrap()
        .run()
        .unwrap();
    assert!(records.iter().any(|r| r.faults_injected > 0));
    to_csv(&records)
}

/// Two cooperating `serve --drain` processes on one state directory
/// split the job's families between them via claim files and finish it
/// byte-identical to the one-shot grid. Each process gets one worker so
/// neither can simply swallow the whole queue before the other starts.
#[test]
fn two_serve_processes_cooperate_to_byte_identical_results() {
    let state = state_dir("coop");
    let job_id = submit(&state, SPEC);

    let mut a = spawn_serve(&state, &["--drain", "--workers", "1"]);
    let mut b = spawn_serve(&state, &["--drain", "--workers", "1"]);
    let a_exit = a.wait().expect("first daemon exit");
    let b_exit = b.wait().expect("second daemon exit");
    assert!(
        a_exit.success() && b_exit.success(),
        "both drains exit clean"
    );

    let status = run_ok(&state, &["status", &job_id]);
    assert!(status.contains("state:  done"), "after drains:\n{status}");

    // Finalization removed the claim scaffolding with the job done.
    assert!(
        !state.join("jobs").join(&job_id).join("claims").exists(),
        "claims directory lingers after finalize"
    );

    let from_cli = run_ok(&state, &["results", &job_id]);
    assert_eq!(
        from_cli,
        one_shot_csv(SPEC),
        "cooperative results differ from one-shot grid"
    );

    std::fs::remove_dir_all(&state).ok();
}

/// SIGKILL a claim-holding daemon mid-family: its lease file survives
/// the crash, expires, and a second daemon steals the family and
/// finishes the job — byte-identical to the one-shot grid, with no cell
/// lost and none double-counted. Meanwhile the job reads `running` only
/// while the dead holder's lease is live, and `queued` once it expired:
/// liveness is read from the claims, which no crash can leave stale.
#[test]
fn killed_holders_lease_expires_and_a_survivor_finishes() {
    let state = state_dir("steal");
    // Four seeds: 32 cells, so the holder is still at work when killed.
    let spec = SPEC.replace("seeds = [3]", "seeds = [3, 4, 5, 6]");
    let job_id = submit(&state, &spec);
    let job_dir = state.join("jobs").join(&job_id);

    // Short leases so the test does not wait 30s for expiry.
    let mut holder = spawn_serve(&state, &["--lease-ms", "1500", "--listen", "127.0.0.1:0"]);
    wait_for_rows(&job_dir.join("cells.csv"), 1, Duration::from_secs(120));

    // With at least one cell streamed the holder owns a claim: healthz
    // must attribute it to the job's submitter (the default "" tenant).
    let health = healthz(&state);
    for field in [
        "\"live_claims\"",
        "\"live_claims_by_submitter\"",
        "\"watchdog_kills\"",
    ] {
        assert!(health.contains(field), "healthz missing {field}:\n{health}");
    }

    holder.kill().expect("SIGKILL the claim holder");
    holder.wait().expect("reap the claim holder");
    assert!(
        streamed_rows(&job_dir.join("cells.csv")) < 32,
        "holder finished all 32 cells before the kill; the steal would prove nothing"
    );
    let status = run_ok(&state, &["status", &job_id]);
    assert!(
        status.contains("state:  running"),
        "the dead holder's lease is still live:\n{status}"
    );

    // The crash left its claim file(s) behind — nothing cleaned them up.
    let leases = std::fs::read_dir(job_dir.join("claims"))
        .map(|d| d.count())
        .unwrap_or(0);
    assert!(leases > 0, "a SIGKILLed holder must leave its lease behind");

    // Past the last lease's expiry (renewed at the latest at the kill),
    // nobody is working on the job: both views read it queued.
    std::thread::sleep(Duration::from_millis(2_000));
    let status = run_ok(&state, &["status", &job_id]);
    assert!(
        status.contains("state:  queued"),
        "the dead holder's lease has expired:\n{status}"
    );
    let listing = run_ok(&state, &["jobs"]);
    assert!(
        listing
            .lines()
            .any(|l| l.split_whitespace().take(2).eq([job_id.as_str(), "queued"])),
        "the dead holder's lease has expired:\n{listing}"
    );

    // The survivor must wait out the dead peer's lease, steal the
    // family, resume from the streamed rows, and drain to done.
    let survivor = spawn_serve(&state, &["--drain", "--lease-ms", "1500"]);
    let exit = survivor.wait_with_output().expect("survivor daemon exit");
    assert!(exit.status.success(), "survivor drain exits clean");

    let status = run_ok(&state, &["status", &job_id]);
    assert!(status.contains("state:  done"), "after steal:\n{status}");

    let from_cli = run_ok(&state, &["results", &job_id]);
    assert_eq!(
        from_cli,
        one_shot_csv(&spec),
        "post-steal results differ from one-shot grid"
    );

    std::fs::remove_dir_all(&state).ok();
}
