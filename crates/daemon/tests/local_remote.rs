//! Local/remote differential: every verb must do the same thing, and
//! print byte-identical stdout, whether it works on the state directory
//! itself or asks a `serve --listen` daemon over HTTP.
//!
//! * The read verbs — `jobs`, `status`, `results` and `report`, with and
//!   without `--json` and `--watch` — run over a plain done job and a
//!   done job whose `cells.csv` GC has compacted away, the case where a
//!   watch can only backfill from the sealed `results.csv`.
//! * `submit` prints the same id either way and re-submits attach to
//!   it, `stop <job>` pauses the job either way, `trace` prints the same
//!   journal lines once the fabric is idle, and a remote `stop` shuts
//!   the daemon down.

use ftsim_stats::JsonValue;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// One family, four cells.
const SPEC: &str = r#"
workloads = ["fpppp"]
models = ["SS-2"]
fault_rates = [0.0, 5000.0]
seeds = [3, 4]
budgets = [2000]
oracle = "final"
"#;

fn ftsimd() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ftsimd"));
    // Only the chaos case below sets a fault plan; nothing ambient may
    // leak in.
    for var in [
        "FTSIM_CHAOS",
        "FTSIMD_STATE",
        "FTSIMD_REMOTE",
        "FTSIMD_TOKEN",
    ] {
        cmd.env_remove(var);
    }
    cmd
}

fn run(cmd: &mut Command) -> Output {
    cmd.stderr(Stdio::piped()).output().expect("spawn ftsimd")
}

fn stdout_ok(out: Output, what: &str) -> String {
    assert!(
        out.status.success(),
        "{what} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn local(state: &Path, args: &[&str]) -> String {
    let out = run(ftsimd().args(args).arg("--state").arg(state));
    stdout_ok(out, &format!("ftsimd {args:?} --state"))
}

fn remote(addr: &str, args: &[&str]) -> String {
    let out = run(ftsimd().args(args).args(["--remote", addr]));
    stdout_ok(out, &format!("ftsimd {args:?} --remote"))
}

/// Writes the spec file of a job called `name` and returns its path.
fn spec_file(state: &Path, name: &str) -> String {
    let spec_path = state.join(format!("{name}.toml"));
    std::fs::write(&spec_path, format!("name = \"{name}\"\n{SPEC}")).unwrap();
    spec_path.to_str().unwrap().to_string()
}

fn submit_and_drain(state: &Path, name: &str) -> String {
    let id = local(state, &["submit", &spec_file(state, name)])
        .trim()
        .to_string();
    local(state, &["serve", "--drain"]);
    id
}

/// The body of a `GET path` answered `200`.
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: ftsimd\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "GET {path}: {response}"
    );
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default()
}

/// The `paused` field of each job `GET /jobs` lists, by id.
fn paused(addr: &str) -> Vec<(String, bool)> {
    let doc = JsonValue::parse(&http_get(addr, "/jobs")).expect("GET /jobs is JSON");
    let jobs = doc
        .get("jobs")
        .and_then(|j| j.as_arr())
        .expect("jobs array");
    jobs.iter()
        .map(|j| {
            let id = j.get("id").and_then(|v| v.as_str()).unwrap_or("?");
            let paused = j.get("paused").and_then(|v| v.as_bool());
            (id.to_string(), paused.expect("paused field"))
        })
        .collect()
}

/// Stops the listening daemon even when an assertion fails first.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

fn listen(state: &Path) -> (Daemon, String) {
    let child = ftsimd()
        .args(["serve", "--listen", "127.0.0.1:0", "--poll-ms", "50"])
        .arg("--state")
        .arg(state)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serving daemon");
    let daemon = Daemon(child);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = std::fs::read_to_string(state.join("http.addr")) {
            if !addr.trim().is_empty() {
                return (daemon, addr.trim().to_string());
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never advertised http.addr"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftsimd-lr-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn read_verbs_print_the_same_bytes_locally_and_over_http() {
    let state = state_dir("verbs");
    let compacted = submit_and_drain(&state, "lr-compacted");
    local(&state, &["gc"]);
    let done = submit_and_drain(&state, "lr-done");
    let cells = |id: &str| state.join("jobs").join(id).join("cells.csv");
    assert!(!cells(&compacted).exists(), "gc compacted the first job");
    assert!(cells(&done).exists(), "the second job keeps its cells.csv");

    let (_daemon, addr) = listen(&state);
    for args in [&["jobs"][..], &["status"][..]] {
        assert_eq!(local(&state, args), remote(&addr, args), "{args:?}");
    }
    for id in [&done, &compacted] {
        // `dir:` names the local state directory; remote has none.
        let status: String = local(&state, &["status", id])
            .lines()
            .filter(|l| !l.starts_with("dir:"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(status, remote(&addr, &["status", id]), "status {id}");
        for verb in ["results", "report"] {
            for extra in [&[][..], &["--json"], &["--watch", "--interval", "20"]] {
                let args: Vec<&str> = [verb, id.as_str()]
                    .into_iter()
                    .chain(extra.iter().copied())
                    .collect();
                let here = local(&state, &args);
                assert!(!here.is_empty(), "{args:?} printed nothing");
                assert_eq!(here, remote(&addr, &args), "{args:?}");
            }
        }
        // Every watch ends with the whole record set: header + 4 rows.
        let watched = local(&state, &["results", id, "--watch"]);
        assert_eq!(
            watched.lines().count(),
            5,
            "results {id} --watch:\n{watched}"
        );
    }
}

/// Half of all status reads fail; `report --watch` rides them out under
/// the watch retry budget and ends on the same snapshot as a clean run.
#[test]
fn report_watch_survives_failing_status_reads() {
    let state = state_dir("chaos");
    let id = submit_and_drain(&state, "lr-chaos");
    let args = ["report", id.as_str(), "--watch", "--interval", "20"];
    let clean = local(&state, &args);
    let out = run(ftsimd()
        .args(args)
        .arg("--state")
        .arg(&state)
        .env("FTSIM_CHAOS", "2:eio@store.read_status=0.5"));
    let chaotic = stdout_ok(out, "report --watch under chaos");
    assert_eq!(chaotic.lines().last(), clean.lines().last());
    assert!(clean
        .lines()
        .last()
        .is_some_and(|l| l.contains("\"state\":\"done\"")));
}

#[test]
fn submit_stop_and_trace_agree_locally_and_over_http() {
    let state = state_dir("mutate");
    // A drained job leaves trace journals behind.
    let drained = submit_and_drain(&state, "lr-drained");
    let (mut daemon, addr) = listen(&state);

    // submit: one id either way, and a re-submit attaches to it.
    let spec = spec_file(&state, "lr-drained");
    assert_eq!(remote(&addr, &["submit", &spec]).trim(), drained);
    let fresh = spec_file(&state, "lr-fresh");
    let created = remote(&addr, &["submit", &fresh]);
    assert_ne!(created.trim(), drained);
    assert_eq!(local(&state, &["submit", &fresh]), created);
    let created = created.trim().to_string();

    // stop <job>: the sentinel either way, and GET /jobs says paused.
    local(&state, &["stop", &drained]);
    remote(&addr, &["stop", &created]);
    for id in [&drained, &created] {
        assert!(state.join("jobs").join(id).join("stop").exists(), "{id}");
    }
    assert_eq!(
        paused(&addr),
        [(drained.clone(), true), (created.clone(), true)]
    );

    // trace: once no claim is live and the journals are still, the
    // same lines either way.
    let deadline = Instant::now() + Duration::from_secs(60);
    let trace = loop {
        let health = JsonValue::parse(&http_get(&addr, "/healthz")).expect("healthz is JSON");
        if health.get("live_claims").and_then(|v| v.as_u64()) == Some(0) {
            let before = local(&state, &["trace", "-n", "500"]);
            std::thread::sleep(Duration::from_millis(300));
            let after = local(&state, &["trace", "-n", "500"]);
            if before == after {
                break after;
            }
        }
        assert!(Instant::now() < deadline, "the fabric never went idle");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        trace.lines().count() > 4,
        "journals hold the drain:\n{trace}"
    );
    assert_eq!(trace, remote(&addr, &["trace", "-n", "500"]));

    // stop: a remote stop shuts the serving daemon down.
    remote(&addr, &["stop"]);
    let deadline = Instant::now() + Duration::from_secs(30);
    while daemon.0.try_wait().expect("poll daemon").is_none() {
        assert!(Instant::now() < deadline, "daemon ignored the stop");
        std::thread::sleep(Duration::from_millis(25));
    }
    std::fs::remove_dir_all(&state).ok();
}
