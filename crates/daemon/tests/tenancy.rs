//! Multi-tenant hardening tests: admission quotas (429 + Retry-After),
//! bearer-token gating of mutating verbs (401), TTL garbage collection
//! that never touches live work, and the stuck-cell watchdog — a hung
//! cell is killed, retried, and the job still converges byte-identical
//! to the one-shot grid, or fails with a bounded strike count when the
//! hang is permanent.

use ftsim::harness::to_csv;
use ftsim_daemon::JobSpec;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn ftsimd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ftsimd"))
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftsimd-tenancy-{tag}-{}", std::process::id()));
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

fn submit(state: &Path, file: &str, spec: &str) -> String {
    let spec_path = state.join(file);
    std::fs::write(&spec_path, spec).unwrap();
    run_ok(state, &["submit", spec_path.to_str().unwrap()])
        .trim()
        .to_string()
}

/// Waits for `<state>/http.addr` to appear and parses the bound address.
fn wait_addr(state: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = std::fs::read_to_string(state.join("http.addr")) {
            let addr = addr.trim().to_string();
            if !addr.is_empty() {
                return addr;
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never advertised an address"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One raw HTTP exchange, returning (status code, response head, body).
/// Raw so the tests can assert on status lines and headers the `--remote`
/// client never surfaces (Retry-After, WWW-Authenticate).
fn http(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    bearer: Option<&str>,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    let auth = bearer.map_or(String::new(), |t| format!("Authorization: Bearer {t}\r\n"));
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: ftsimd\r\n{auth}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let code: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:?}"));
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("headerless response: {response:?}"));
    (code, head.to_string(), body.to_string())
}

fn one_shot_csv(spec: &str) -> String {
    let records = JobSpec::parse(spec)
        .unwrap()
        .to_experiment()
        .unwrap()
        .run()
        .unwrap();
    to_csv(&records)
}

/// One serving daemon with a bearer token and a one-live-job-per-submitter
/// quota. Unauthenticated mutation is refused with 401 (reads stay open);
/// an over-quota submitter gets a structured 429 with Retry-After while an
/// in-quota peer's submission sails through; /healthz reports version,
/// uptime and per-submitter claim counts.
#[test]
fn quotas_and_token_auth_over_http() {
    let state = state_dir("quota");
    let token_path = state.join("api.token");
    std::fs::write(&token_path, "tenancy-secret\n").unwrap();

    let mut daemon = ftsimd()
        .args(["serve", "--state", state.to_str().unwrap()])
        .args(["--listen", "127.0.0.1:0", "--workers", "1"])
        .args(["--token-file", token_path.to_str().unwrap()])
        .args(["--max-live-jobs", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serving daemon");
    let addr = wait_addr(&state);
    let tok = Some("tenancy-secret");

    // Big enough that alice's job is still live when her second submit
    // arrives; it is paused immediately after submission anyway.
    let alice1 = r#"
name = "alice-sweep"
submitter = "alice"
workloads = ["fpppp", "gcc"]
models = ["SS-2"]
fault_rates = [0.0, 200.0, 5000.0, 50000.0]
budgets = [4000]
seeds = [3, 4]
oracle = "final"
checkpointing = true
"#;
    let alice2 = r#"
name = "alice-encore"
submitter = "alice"
workloads = ["gcc"]
models = ["SS-1"]
budgets = [1000]
"#;
    let bob = r#"
name = "bob-probe"
submitter = "bob"
workloads = ["gcc"]
models = ["SS-1"]
budgets = [1000]
"#;

    // Mutating verbs are gated: no token and a wrong token both get 401
    // with a WWW-Authenticate challenge. Reads stay open.
    let (code, head, _) = http(&addr, "POST", "/jobs", alice1, None);
    assert_eq!(code, 401, "unauthenticated POST must be refused");
    assert!(head.contains("WWW-Authenticate: Bearer"), "head:\n{head}");
    let (code, _, _) = http(&addr, "POST", "/jobs", alice1, Some("wrong-secret"));
    assert_eq!(code, 401, "wrong token must be refused");
    let (code, _, _) = http(&addr, "GET", "/jobs", "", None);
    assert_eq!(code, 200, "reads stay open without credentials");

    // Authenticated submit lands; pause it at once so it stays live (a
    // paused job is non-terminal) without racing the worker.
    let (code, _, body) = http(&addr, "POST", "/jobs", alice1, tok);
    assert_eq!(code, 200, "authenticated submit: {body}");
    let id = body
        .split('"')
        .nth(3)
        .expect("job id in response")
        .to_string();
    let (code, _, _) = http(&addr, "POST", &format!("/jobs/{id}/stop"), "", tok);
    assert_eq!(code, 200);

    // Alice is at her live-job cap: structured refusal, in header and body.
    let (code, head, body) = http(&addr, "POST", "/jobs", alice2, tok);
    assert_eq!(code, 429, "over-quota submit must get 429: {body}");
    assert!(head.contains("Retry-After:"), "head:\n{head}");
    assert!(body.contains("retry_after_secs"), "body:\n{body}");
    assert!(
        body.contains("alice"),
        "refusal names the submitter: {body}"
    );

    // Bob is a different tenant; his submission is admitted.
    let (code, _, body) = http(&addr, "POST", "/jobs", bob, tok);
    assert_eq!(code, 200, "in-quota peer must proceed: {body}");
    assert!(body.contains("\"created\": true"), "body:\n{body}");

    // Health endpoint reports the new tenancy fields.
    let (code, _, body) = http(&addr, "GET", "/healthz", "", None);
    assert_eq!(code, 200);
    for field in [
        "\"version\"",
        "\"uptime_ms\"",
        "\"live_claims_by_submitter\"",
        "\"watchdog_kills\"",
    ] {
        assert!(body.contains(field), "healthz missing {field}:\n{body}");
    }

    let (code, _, _) = http(&addr, "POST", "/stop", "", tok);
    assert_eq!(code, 200);
    let exit = daemon.wait().expect("daemon exit");
    assert!(exit.success(), "daemon exits clean after POST /stop");

    std::fs::remove_dir_all(&state).ok();
}

/// TTL expiry and compaction through the `gc` verb: a finished job past
/// its TTL is removed, a finished job without one is compacted down to
/// its sealed results (still byte-identical to the one-shot grid), and a
/// queued job is untouchable even with its TTL elapsed — GC only ever
/// collects terminal state.
#[test]
fn gc_expires_terminal_jobs_but_never_live_ones() {
    let state = state_dir("gc");
    let doomed = r#"
name = "doomed"
workloads = ["gcc"]
models = ["SS-1"]
budgets = [1000]
ttl_secs = 1
"#;
    let sealed = r#"
name = "sealed"
workloads = ["gcc"]
models = ["SS-1"]
budgets = [1500]
"#;
    let alive = r#"
name = "alive"
workloads = ["gcc"]
models = ["SS-1"]
budgets = [2000]
ttl_secs = 1
"#;

    let doomed_id = submit(&state, "doomed.toml", doomed);
    let sealed_id = submit(&state, "sealed.toml", sealed);
    let mut drain = ftsimd()
        .args(["serve", "--state", state.to_str().unwrap(), "--drain"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn draining daemon");
    assert!(drain.wait().expect("drain exit").success());

    // Submitted after the drain so it stays queued — live, with an
    // already-elapsed TTL once the sleep below passes.
    let alive_id = submit(&state, "alive.toml", alive);

    std::thread::sleep(Duration::from_millis(1600));
    let report = run_ok(&state, &["gc"]);
    assert!(
        report.contains("expired 1 job(s)") && report.contains("compacted 1"),
        "gc report:\n{report}"
    );

    let jobs = state.join("jobs");
    assert!(
        !jobs.join(&doomed_id).exists(),
        "expired job must be removed"
    );
    assert!(jobs.join(&alive_id).exists(), "live job must survive GC");
    let status = run_ok(&state, &["status", &alive_id]);
    assert!(status.contains("state:  queued"), "after gc:\n{status}");

    // The sealed job lost its streamed cells.csv but kept the sealed
    // results — and they still match the one-shot grid byte for byte.
    assert!(!jobs.join(&sealed_id).join("cells.csv").exists());
    assert!(jobs.join(&sealed_id).join("results.csv").exists());
    let from_cli = run_ok(&state, &["results", &sealed_id]);
    assert_eq!(from_cli, one_shot_csv(sealed), "compaction altered results");

    // A second pass finds nothing left to reclaim.
    let report = run_ok(&state, &["gc"]);
    assert_eq!(report.trim(), "ftsimd: gc: nothing to reclaim");

    std::fs::remove_dir_all(&state).ok();
}

/// Spec with a single family (slug `gcc-2000-ss-1`) so a chaos delay at
/// `fabric.cell.gcc-2000-ss-1` targets exactly this job's cell gate.
const WD_SPEC: &str = r#"
name = "wd"
workloads = ["gcc"]
models = ["SS-1"]
fault_rates = [0.0, 5000.0]
seeds = [3, 4]
budgets = [2000]
oracle = "final"
checkpointing = true
"#;

fn spawn_wd_serve(state: &Path, chaos: &str, floor_ms: &str) -> Child {
    ftsimd()
        .args(["serve", "--state", state.to_str().unwrap()])
        .args(["--drain", "--workers", "1", "--cell-floor-ms", floor_ms])
        .env("FTSIM_CHAOS", chaos)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn draining daemon")
}

/// The first attempt at the family's first cell hangs (deterministic
/// hit-numbered delay, far past the watchdog floor); the watchdog kills
/// it, counts a strike, and the retry converges the job byte-identical
/// to the one-shot grid.
#[test]
fn watchdog_kills_a_hung_cell_and_the_retry_converges() {
    let state = state_dir("wd-retry");
    let job_id = submit(&state, "wd.toml", WD_SPEC);

    let drain = spawn_wd_serve(&state, "5:delay@fabric.cell.gcc-2000-ss-1#1:8000", "900");
    let out = drain.wait_with_output().expect("drain exit");
    assert!(out.status.success(), "drain exits clean");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("exceeded its 900ms deadline") && stderr.contains("strike 1/5"),
        "watchdog kill not reported:\n{stderr}"
    );

    let status = run_ok(&state, &["status", &job_id]);
    assert!(status.contains("state:  done"), "after retry:\n{status}");
    let from_cli = run_ok(&state, &["results", &job_id]);
    assert_eq!(
        from_cli,
        one_shot_csv(WD_SPEC),
        "watchdog retry broke byte-identity"
    );

    std::fs::remove_dir_all(&state).ok();
}

/// Every attempt hangs: after the strike cap the job is marked failed
/// with the offending cell named, instead of wedging the worker forever.
#[test]
fn permanently_stuck_cell_caps_strikes_and_fails_the_job() {
    let state = state_dir("wd-cap");
    let job_id = submit(&state, "wd.toml", WD_SPEC);

    let drain = spawn_wd_serve(&state, "5:delay@fabric.cell.gcc-2000-ss-1*=1:6000", "500");
    let out = drain.wait_with_output().expect("drain exit");
    assert!(out.status.success(), "drain exits clean");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("strike 5/5"),
        "strike cap never reached:\n{stderr}"
    );

    let status = run_ok(&state, &["status", &job_id]);
    assert!(
        status.contains("state:  failed") && status.contains("exceeded deadline"),
        "after strike cap:\n{status}"
    );

    std::fs::remove_dir_all(&state).ok();
}
