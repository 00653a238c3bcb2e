//! End-to-end observability tests: the `/metrics` exposition must parse
//! and stay monotonic across a two-process fabric run, `report?watch`
//! must stream prefix-consistent snapshots whose final line analyzes
//! exactly what `ftsimd report` reports, and — the hard constraint —
//! none of it may perturb the sweep: with metrics, tracing AND stage
//! profiling on (and chaos injecting failures into the exporters), the
//! results stay byte-identical to the one-shot grid.

use ftsim::harness::to_csv;
use ftsim_daemon::JobSpec;
use ftsim_stats::JsonValue;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Two (workload, model) families so two processes have distinct shards,
/// with fault rates covering baseline-served, forked and cold cells.
const SPEC: &str = r#"
name = "obs-e2e"
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
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ftsimd"));
    // Ambient chaos from an outer harness must not leak in; each test
    // sets exactly the plan it wants.
    cmd.env_remove("FTSIM_CHAOS");
    cmd
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftsimd-obs-{tag}-{}", std::process::id()));
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

fn spawn_serve(state: &Path, extra: &[&str]) -> Child {
    let mut cmd = ftsimd();
    cmd.args(["serve", "--state", state.to_str().unwrap()]);
    cmd.args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serving daemon")
}

/// Waits for `<state>/http.addr` to be advertised and returns it.
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

/// One raw GET, returning the response body.
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: ftsimd\r\nConnection: close\r\n\r\n").as_bytes(),
        )
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

/// Parses a Prometheus text exposition into `series -> value`, checking
/// every line is either a `# TYPE` comment or `name{labels} value`.
fn parse_prometheus(text: &str) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (name, kind) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            assert!(!name.is_empty(), "TYPE line without a name: {line}");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown metric type in: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            panic!("unparseable sample value in: {line}");
        });
        assert!(
            series
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic()),
            "sample series must start with a metric name: {line}"
        );
        out.insert(series.to_string(), value);
    }
    out
}

fn wait_done(state: &Path, job: &str) {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let status = run_ok(state, &["status", job]);
        if status.contains("state:  done") {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "job {job} never reached done:\n{status}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// `/metrics` parses as Prometheus text, shows both fabric-level
/// (`ftsimd_*`) and sim-level (`ftsim_*`) series, and every counter is
/// monotonic between a mid-run scrape and a post-run scrape — across a
/// fabric of two cooperating processes. `/trace` and `ftsimd trace`
/// expose the span journal with the cell lifecycle kinds.
#[test]
fn metrics_parse_and_stay_monotonic_across_a_two_process_fabric() {
    let state = state_dir("metrics");
    let job_id = submit(&state, SPEC);

    // A long-running listener plus a drain peer: the listener stays up
    // for the post-run scrape while the peer proves multi-process.
    let mut listener = spawn_serve(&state, &["--listen", "127.0.0.1:0", "--workers", "1"]);
    let mut peer = spawn_serve(&state, &["--drain", "--workers", "1"]);
    let addr = wait_addr(&state);

    let mid = parse_prometheus(&http_get(&addr, "/metrics"));
    wait_done(&state, &job_id);
    peer.wait().expect("peer drain exit");
    let end = parse_prometheus(&http_get(&addr, "/metrics"));

    // The fabric vitals and the sim-throughput series both surface.
    for series in [
        "ftsimd_claims_total{event=\"acquired\"}",
        "ftsimd_cells_completed_total",
        "ftsimd_append_bytes_total",
        "ftsimd_lease_wait_ms_count",
        "ftsimd_sched_pass_ms_count",
        "ftsimd_cells_bytes_read_total",
    ] {
        assert!(end.contains_key(series), "missing {series} in:\n{end:?}");
    }
    assert!(
        end.keys().any(|k| k.starts_with("ftsim_cells_total")),
        "per-worker sim series missing:\n{end:?}"
    );
    // This process completed at least one cell and appended its row.
    assert!(end["ftsimd_cells_completed_total"] >= 1.0);
    assert!(end["ftsimd_append_bytes_total"] > 0.0);
    // Counters and histogram buckets never move backwards.
    for (series, before) in &mid {
        let total_like = series.contains("_total")
            || series.contains("_bucket")
            || series.ends_with("_count")
            || series.ends_with("_sum");
        if !total_like {
            continue; // gauges may move either way
        }
        let after = end.get(series).copied().unwrap_or_else(|| {
            panic!("series {series} vanished between scrapes");
        });
        assert!(
            after >= *before,
            "counter {series} went backwards: {before} -> {after}"
        );
    }

    // healthz carries the new queue-depth and claim-age diagnostics.
    let health = http_get(&addr, "/healthz");
    let doc = JsonValue::parse(&health).expect("healthz is JSON");
    assert_eq!(doc.get("queued_cells").and_then(|v| v.as_u64()), Some(0));
    assert!(doc.get("oldest_live_claim_age_ms").is_some());
    let progress = doc.get("job_progress").expect("per-job progress");
    assert_eq!(
        progress
            .get(&job_id)
            .and_then(|j| j.get("cells_done"))
            .and_then(|v| v.as_u64()),
        Some(8)
    );

    // The trace journal stitched the cell lifecycle together: claims,
    // cell executions, appends and the finalizing merge, with one span
    // correlating a cell's events.
    let trace = http_get(&addr, "/trace?n=500");
    let events: Vec<JsonValue> = trace
        .lines()
        .map(|l| JsonValue::parse(l).expect("trace line is JSON"))
        .collect();
    assert!(!events.is_empty(), "trace journal is empty");
    let kind_of = |e: &JsonValue| {
        e.get("kind")
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string()
    };
    for kind in ["claim", "append", "merge"] {
        assert!(
            events.iter().any(|e| kind_of(e) == kind),
            "no {kind} event in:\n{trace}"
        );
    }
    // The CLI tail prints the same journal.
    let cli_trace = run_ok(&state, &["trace", "-n", "500"]);
    assert!(cli_trace.lines().any(|l| l.contains("\"claim\"")));

    run_ok(&state, &["stop"]);
    listener.wait().expect("listener exit");
    std::fs::remove_dir_all(&state).ok();
}

/// `report?watch` streams at least two incremental NDJSON snapshots on a
/// multi-family job, the snapshots are prefix-consistent (cell coverage
/// never shrinks), and the final snapshot analyzes exactly the records
/// `ftsimd report <job>` reports after the fact.
#[test]
fn report_watch_streams_prefix_consistent_snapshots() {
    let state = state_dir("watch");
    let job_id = submit(&state, SPEC);
    // Pause the job before any worker can claim it: the watch connects
    // while no cell is done, and only its first snapshot resumes the job,
    // so the stream holds two snapshot batches however fast the drain.
    run_ok(&state, &["stop", &job_id]);
    let mut daemon = spawn_serve(&state, &["--listen", "127.0.0.1:0", "--workers", "1"]);
    let addr = wait_addr(&state);

    // The server closes the stream after the terminal snapshot.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(
            format!(
                "GET /jobs/{job_id}/report?watch&interval=25 HTTP/1.1\r\nHost: f\r\nConnection: close\r\n\r\n"
            )
            .as_bytes(),
        )
        .expect("send watch request");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    assert!(line.starts_with("HTTP/1.1 200"), "{line}");
    loop {
        let mut header = String::new();
        let n = reader.read_line(&mut header).expect("headers");
        if n == 0 || header == "\r\n" {
            break;
        }
    }
    let mut snapshots: Vec<JsonValue> = Vec::new();
    loop {
        let mut body_line = String::new();
        match reader.read_line(&mut body_line) {
            Ok(0) => break,
            Ok(_) if body_line.trim().is_empty() => continue,
            Ok(_) => snapshots.push(JsonValue::parse(body_line.trim()).expect("snapshot is JSON")),
            Err(e) => panic!("reading watch stream: {e}"),
        }
        if snapshots.len() == 1 {
            // Resubmitting the identical spec un-pauses the job.
            assert_eq!(submit(&state, SPEC), job_id);
        }
    }
    assert!(
        snapshots.len() >= 2,
        "a multi-family job must stream at least two snapshots, got {}",
        snapshots.len()
    );
    let cells: Vec<u64> = snapshots
        .iter()
        .map(|s| s.get("cells").and_then(|v| v.as_u64()).unwrap())
        .collect();
    assert_eq!(cells[0], 0, "the first snapshot precedes every cell");
    assert!(
        cells.windows(2).all(|w| w[0] <= w[1]),
        "snapshot cell coverage shrank: {cells:?}"
    );
    let last = snapshots.last().unwrap();
    assert_eq!(last.get("state").and_then(|v| v.as_str()), Some("done"));
    assert_eq!(last.get("cells").and_then(|v| v.as_u64()), Some(8));

    // The final snapshot's report equals the post-hoc `ftsimd report`.
    let post_hoc = run_ok(&state, &["report", &job_id, "--json"]);
    assert_eq!(
        last.get("report").expect("snapshot report"),
        &JsonValue::parse(&post_hoc).expect("report --json parses"),
        "final watch snapshot diverges from ftsimd report"
    );

    // The CLI watch verb prints the same NDJSON snapshots (on the
    // already-terminal job: exactly the final one).
    let cli_watch = run_ok(&state, &["report", &job_id, "--watch", "--interval", "25"]);
    let cli_last = JsonValue::parse(cli_watch.lines().last().unwrap()).unwrap();
    assert_eq!(cli_last.get("cells").and_then(|v| v.as_u64()), Some(8));

    run_ok(&state, &["stop"]);
    daemon.wait().expect("daemon exit");
    std::fs::remove_dir_all(&state).ok();
}

/// The hard constraint: with stage profiling, metrics and tracing all
/// on — and chaos injecting EIO into both observability exporters — a
/// two-process fabric run (cold, forked and baseline-served cells alike)
/// stays byte-identical to the plain one-shot grid. Observability
/// observes; it never participates.
#[test]
fn profiling_and_metrics_never_perturb_the_golden_results() {
    let state = state_dir("determinism");
    let job_id = submit(&state, SPEC);

    let spawn_profiled = || {
        let mut cmd = ftsimd();
        cmd.args(["serve", "--state", state.to_str().unwrap()])
            .args(["--drain", "--workers", "1"])
            .env("FTSIM_PROFILE", "1")
            // Half of all exporter writes fail; the sweep must not care.
            .env("FTSIM_CHAOS", "9:eio@obs.*=0.5")
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        cmd.spawn().expect("spawn profiled daemon")
    };
    let mut a = spawn_profiled();
    let mut b = spawn_profiled();
    assert!(a.wait().expect("a exits").success());
    assert!(b.wait().expect("b exits").success());

    let status = run_ok(&state, &["status", &job_id]);
    assert!(status.contains("state:  done"), "{status}");

    // Byte-identity against the one-shot grid run in this process with
    // no profiling, no metrics and no chaos.
    let from_cli = run_ok(&state, &["results", &job_id]);
    let records = JobSpec::parse(SPEC)
        .unwrap()
        .to_experiment()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        from_cli,
        to_csv(&records),
        "observability perturbed the golden results"
    );

    // The survivor of the 50% EIO rate still collected profile rows for
    // the cells whose appends went through, and the CLI renders them.
    let profile_csv = state.join("jobs").join(&job_id).join("profile.csv");
    if profile_csv.exists() {
        let table = run_ok(&state, &["profile", &job_id]);
        assert!(table.contains("TOTAL"), "profile table:\n{table}");
        assert!(table.contains("cycles"), "profile table:\n{table}");
    }

    std::fs::remove_dir_all(&state).ok();
}
