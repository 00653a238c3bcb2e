//! The `ftsimd` command-line front end.
//!
//! ```text
//! ftsimd submit <spec.toml|spec.json> [--state DIR | --remote ADDR]
//! ftsimd serve  [--state DIR] [--drain] [--poll-ms N] [--listen ADDR]
//!               [--lease-ms N] [--lease-mode strict|relaxed] [--workers N]
//!               [--max-body BYTES] [--head-timeout-ms N] [--token-file FILE]
//!               [--gc-interval-ms N] [--max-live-jobs N]
//!               [--max-queued-cells N] [--max-state-bytes N]
//!               [--cell-floor-ms N]
//! ftsimd gc     [--state DIR] [--quarantine-retain-secs N]
//! ftsimd jobs   [--state DIR | --remote ADDR]
//! ftsimd status [JOB] [--state DIR | --remote ADDR]
//! ftsimd results <JOB> [--state DIR | --remote ADDR]
//!               [--json | --watch [--interval MS]]
//! ftsimd report <JOB> [--state DIR | --remote ADDR]
//!               [--json | --watch [--interval MS]]
//! ftsimd trace  [--state DIR | --remote ADDR] [-n N] [--follow]
//! ftsimd profile <JOB> [--state DIR]
//! ftsimd stop   [JOB] [--state DIR | --remote ADDR]
//! ```
//!
//! The state directory defaults to `./ftsimd-state`, overridable with
//! `--state` or the `FTSIMD_STATE` environment variable. `submit`
//! prints the job id alone on stdout (scripts capture it; the human
//! detail goes to stderr) and deduplicates byte-identical specs by
//! attaching to the existing job. `results` prints a job's records as
//! grid-order CSV — a finished job's sealed `results.csv`; for a job
//! still in flight the streamed records merged into grid order, with the
//! gaps reported on stderr — or, with `--watch`, follows the job's
//! `cells.csv` and streams each record as it completes, then backfills
//! whatever never streamed from the final canonical read (`--interval`
//! sets the poll cadence).
//! `report` runs the `ftsim-analysis` layer over a job's records:
//! outcome taxonomy (masked / detected / SDC / hang), per-site
//! sensitivity with Wilson intervals, detection-latency distributions,
//! and MTTF extrapolation — `--json` renders it as a JSON document.
//!
//! **One implementation per verb.** `submit`, `jobs`, `status`,
//! `results`, `report`, `trace` and `stop` — and the `--watch` forms —
//! get their documents from the daemon's `feed` module: one canonical
//! record read, one follow loop, one journal tail, and the listing,
//! status, submit and stop documents. This module only renders what it
//! returns, as the HTTP handlers do, and touches neither the store's
//! sentinels nor the trace journals itself. `status` without a job id
//! is `jobs`.
//!
//! **Remote mode.** Every verb except `serve`, `gc` and `profile` also
//! speaks to a running `ftsimd serve --listen <addr>` over its HTTP API
//! when given `--remote <addr>` (or `FTSIMD_REMOTE`): the client touches
//! no state directory at all. Each verb gets the same document either
//! from the `feed` function (locally) or from the socket (remotely) and
//! renders it with one code path, so its stdout is the same bytes either
//! way, bar the local-only `dir:` line of `status <job>`. The stderr
//! summaries name the daemon's address instead of the state directory.
//! `trace --follow` tails the journals on disk and is local-only. `stop`
//! with a job id pauses that job; without one it shuts the serving
//! daemon down.

use crate::fabric::LeaseMode;
use crate::feed::{
    jobs_doc, read_job, render, render_events, status_doc, stop_doc, submit_doc, trace_doc, watch,
    JournalTail, Verb,
};
use crate::gc::{gc_pass, GcOptions};
use crate::http::{http_request, http_stream};
use crate::runner::{install_signal_handlers, serve, ServeOptions};
use crate::store::{DaemonError, JobState, JobStore, QuotaPolicy};
use ftsim_stats::JsonValue;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

const USAGE: &str = "\
ftsimd — long-running sweep daemon for the ftsim fault-tolerant superscalar

USAGE:
    ftsimd submit <spec.toml|spec.json> [--state DIR | --remote ADDR]
    ftsimd serve  [--state DIR] [--drain] [--poll-ms N] [--listen ADDR]
                  [--lease-ms N] [--lease-mode strict|relaxed] [--workers N]
                  [--max-body BYTES] [--head-timeout-ms N] [--token-file FILE]
                  [--gc-interval-ms N] [--max-live-jobs N]
                  [--max-queued-cells N] [--max-state-bytes N]
                  [--cell-floor-ms N]
    ftsimd gc     [--state DIR] [--quarantine-retain-secs N]
    ftsimd jobs   [--state DIR | --remote ADDR]
    ftsimd status [JOB] [--state DIR | --remote ADDR]
    ftsimd results <JOB> [--state DIR | --remote ADDR]
                  [--json | --watch [--interval MS]]
    ftsimd report <JOB> [--state DIR | --remote ADDR]
                  [--json | --watch [--interval MS]]
    ftsimd trace  [--state DIR | --remote ADDR] [-n N] [--follow]
    ftsimd profile <JOB> [--state DIR]
    ftsimd stop   [JOB] [--state DIR | --remote ADDR]

COMMANDS:
    submit    Validate a job spec and enqueue it (or attach to an
              identical existing job). Prints the job id on stdout.
    serve     Run the daemon: execute queued jobs, streaming results;
              --drain exits once the queue is empty. Several serve
              processes may share one state directory — they partition
              work by family claims with --lease-ms expiry (default
              30000) and steal from crashed peers. --listen exposes the
              HTTP API (the bound address lands in <state>/http.addr);
              --workers caps this process's worker threads; --max-body
              and --head-timeout-ms bound HTTP request size (413) and
              slow-loris patience (408). --lease-mode relaxed verifies
              every claim by owner echo (for NFS-grade filesystems
              whose O_EXCL/rename are unreliable). --token-file FILE
              (or $FTSIMD_TOKEN) gates every mutating HTTP verb behind
              `Authorization: Bearer <token>` (401 without it).
              --max-live-jobs/--max-queued-cells/--max-state-bytes
              install a per-submitter admission quota (0 = unlimited;
              over-quota submissions get 429 + Retry-After).
              --gc-interval-ms sets the background TTL garbage
              collection cadence (default hourly; 0 disables).
              --cell-floor-ms sets the stuck-cell watchdog's budget for
              a family's first cell (default 120000). Ctrl-C,
              SIGTERM or `ftsimd stop` shut down gracefully (claimed
              work is re-queued and resumes from its streamed records).
    gc        Run one garbage-collection pass now: expire terminal jobs
              whose spec's ttl_secs/retain_secs elapsed, drop cells.csv
              working files sealed into results.csv, sweep stale-lease
              debris, and age out quarantine evidence older than
              --quarantine-retain-secs (default 7 days). Live jobs are
              never touched.
    jobs      List every job: state, cell progress, submitter, priority.
    status    Show the queue, or one job's progress (with per-family
              cells-done counts for a single job).
    results   Print a job's records as grid-order CSV (--json for JSON);
              --watch follows the streamed results until the job is
              done, polling every --interval MS (default 500).
    report    Analyze a job's records: outcome taxonomy, per-site
              sensitivity (Wilson 95% CIs), detection latency, MTTF.
              --json emits the report as a JSON document. --watch
              re-runs the analysis whenever new cells land and prints
              one compact JSON snapshot per line until the job is
              terminal (the final line covers the canonical results).
    trace     Print recent span events from the fabric's trace journals
              (<state>/trace/*.ndjson, merged across processes by
              timestamp), one JSON object per line. -n caps the tail
              (default 50); --follow keeps polling for new events until
              interrupted (local mode only).
    profile   Show a job's per-cell stage profile (profile.csv): calls
              and estimated wall time per pipeline stage. Rows exist
              only for cells run under FTSIM_PROFILE=1.
    stop      With a job id: pause that job (resubmit its spec to
              resume). Without: ask the serving daemon(s) on the state
              directory to shut down gracefully.

Any verb but serve accepts --remote ADDR (or $FTSIMD_REMOTE) to talk to
a `serve --listen` daemon over HTTP instead of a local state directory.
The state directory defaults to ./ftsimd-state, or $FTSIMD_STATE.
";

/// Flags that take a value (`--flag VALUE`); stored as `--flag=VALUE`.
/// The `true` entries are validated as unsigned integers at parse time.
const VALUE_FLAGS: [(&str, bool); 17] = [
    ("-n", true),
    ("--poll-ms", true),
    ("--interval", true),
    ("--lease-ms", true),
    ("--workers", true),
    ("--max-body", true),
    ("--head-timeout-ms", true),
    ("--gc-interval-ms", true),
    ("--max-live-jobs", true),
    ("--max-queued-cells", true),
    ("--max-state-bytes", true),
    ("--quarantine-retain-secs", true),
    ("--cell-floor-ms", true),
    ("--listen", false),
    ("--remote", false),
    ("--token-file", false),
    ("--lease-mode", false),
];

/// Parsed global options.
struct Args {
    state: String,
    remote: Option<String>,
    /// `$FTSIMD_TOKEN`, read once ([`env_token`]).
    token: Option<String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut state = std::env::var("FTSIMD_STATE").unwrap_or_else(|_| "ftsimd-state".to_string());
    let mut remote = std::env::var("FTSIMD_REMOTE").ok();
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--state" {
            state = iter
                .next()
                .ok_or("--state needs a directory argument")?
                .clone();
            continue;
        }
        if arg == "--remote" {
            remote = Some(iter.next().ok_or("--remote needs an address")?.clone());
            continue;
        }
        if let Some((name, numeric)) = VALUE_FLAGS.iter().find(|(n, _)| n == arg) {
            let value = iter.next().ok_or(format!("{name} needs an argument"))?;
            if *numeric {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("bad {name} value `{value}`"))?;
            }
            flags.push(format!("{name}={value}"));
            continue;
        }
        if arg.starts_with("--") {
            flags.push(arg.clone());
        } else {
            positional.push(arg.clone());
        }
    }
    Ok(Args {
        state,
        remote,
        token: env_token(),
        flags,
        positional,
    })
}

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find_map(|f| f.strip_prefix(name)?.strip_prefix('='))
    }

    /// A numeric flag's value (checked at parse time).
    fn num(&self, name: &str) -> Option<u64> {
        self.value(name).and_then(|v| v.parse().ok())
    }

    /// A millisecond flag's value as a duration, or `default`.
    fn ms(&self, name: &str, default: Duration) -> Duration {
        self.num(name).map_or(default, Duration::from_millis)
    }

    /// Rejects any flag the current command does not define — a typo
    /// must fail loudly, not silently change behavior (`--drian` running
    /// a drain-mode invocation as a forever-polling daemon, say).
    fn ensure_flags(&self, allowed: &[&str]) -> Result<(), String> {
        for flag in &self.flags {
            let name = flag.split_once('=').map_or(flag.as_str(), |(n, _)| n);
            if !allowed.contains(&name) {
                return Err(format!("unknown flag `{name}` for this command"));
            }
        }
        Ok(())
    }

    fn poll(&self) -> Duration {
        self.ms("--poll-ms", Duration::from_millis(500))
    }

    /// The watch poll cadence: `--interval MS`, falling back to
    /// `--poll-ms` for symmetry with serve, then 500 ms.
    fn interval_ms(&self) -> u64 {
        self.num("--interval")
            .or_else(|| self.num("--poll-ms"))
            .unwrap_or(500)
    }

    /// Remote mode: every verb but serve routes over HTTP when set.
    fn remote(&self) -> Option<&str> {
        self.remote.as_deref()
    }
}

/// Runs the CLI with the given arguments (everything after the program
/// name) and returns the process exit code. The `ftsimd` binary is a
/// one-line wrapper around this.
pub fn run(args: &[String]) -> i32 {
    match dispatch(args) {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("ftsimd: {message}");
            1
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return Err("missing command".to_string());
    };
    let parsed = parse_args(rest)?;
    match command.as_str() {
        "submit" => cmd_submit(&parsed),
        "serve" => cmd_serve(&parsed),
        "gc" => cmd_gc(&parsed),
        "jobs" => cmd_jobs(&parsed),
        "status" => cmd_status(&parsed),
        "results" => cmd_read(&parsed, Verb::Results),
        "report" => cmd_read(&parsed, Verb::Report),
        "trace" => cmd_trace(&parsed),
        "profile" => cmd_profile(&parsed),
        "stop" => cmd_stop(&parsed),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => {
            eprint!("{USAGE}");
            Err(format!("unknown command `{other}`"))
        }
    }
}

fn open_store(args: &Args) -> Result<JobStore, String> {
    JobStore::open(&args.state).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// Remote plumbing.

/// Performs one request to the daemon at `addr`, presenting the
/// client's token when it has one, and turns non-2xx responses (which
/// carry a JSON `{"error": ...}` body) into CLI errors.
fn remote_call(
    args: &Args,
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<String, String> {
    let (code, body) = http_request(addr, args.token.as_deref(), method, path, body)?;
    if (200..300).contains(&code) {
        return Ok(body);
    }
    let detail = JsonValue::parse(&body)
        .ok()
        .and_then(|v| v.get("error").and_then(|e| e.as_str().map(String::from)))
        .unwrap_or(body);
    Err(format!("remote {addr}: {detail} (http {code})"))
}

/// A verb's JSON document: what `local` returns for the state
/// directory, or — with `--remote` — the daemon's answer to
/// `method path` (which serves the same document).
fn document(
    args: &Args,
    method: &str,
    path: &str,
    body: Option<&str>,
    local: impl FnOnce(&JobStore) -> Result<JsonValue, DaemonError>,
) -> Result<JsonValue, String> {
    match args.remote() {
        Some(addr) => JsonValue::parse(&remote_call(args, addr, method, path, body)?)
            .map_err(|e| format!("remote {addr}: bad response: {e}")),
        None => local(&open_store(args)?).map_err(|e| e.to_string()),
    }
}

fn str_of(doc: &JsonValue, key: &str) -> String {
    doc.get(key)
        .and_then(|v| v.as_str())
        .unwrap_or("?")
        .to_string()
}

fn u64_of(doc: &JsonValue, key: &str) -> u64 {
    doc.get(key).and_then(|v| v.as_u64()).unwrap_or(0)
}

// ---------------------------------------------------------------------
// Verbs.

fn cmd_submit(args: &Args) -> Result<(), String> {
    args.ensure_flags(&[])?;
    let [path] = args.positional.as_slice() else {
        return Err("submit takes exactly one spec file".to_string());
    };
    // The client only reads the file; whoever submits validates it.
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading spec {path}: {e}"))?;
    let doc = document(args, "POST", "/jobs", Some(&text), |store| {
        submit_doc(store, &text)
    })?;
    let id = str_of(&doc, "id");
    if doc.get("created").and_then(|v| v.as_bool()) == Some(true) {
        let to = args
            .remote()
            .map_or_else(String::new, |addr| format!(" to {addr}"));
        eprintln!(
            "ftsimd: submitted job {id} ({} cells){to}",
            u64_of(&doc, "cells_total")
        );
    } else {
        eprintln!("ftsimd: identical spec already submitted as {id}; attaching");
    }
    println!("{id}");
    Ok(())
}

/// `--token-file FILE` (trimmed file contents) or `$FTSIMD_TOKEN`;
/// `None` leaves the HTTP API open.
fn serve_token(args: &Args) -> Result<Option<String>, String> {
    if let Some(path) = args.value("--token-file") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading token file {path}: {e}"))?;
        let token = text.trim().to_string();
        if token.is_empty() {
            return Err(format!("token file {path} is empty"));
        }
        return Ok(Some(token));
    }
    Ok(args.token.clone())
}

/// `$FTSIMD_TOKEN`, trimmed, unless unset or blank: the token `serve`
/// requires without `--token-file`, and the one the `--remote` client
/// presents.
fn env_token() -> Option<String> {
    std::env::var("FTSIMD_TOKEN")
        .ok()
        .map(|t| t.trim().to_string())
        .filter(|t| !t.is_empty())
}

/// The admission quota the serve flags describe, or `None` when no
/// quota flag was given (leaving `<state>/quota.json` untouched).
fn serve_quota(args: &Args) -> Option<QuotaPolicy> {
    let (live, cells, bytes) = (
        args.num("--max-live-jobs"),
        args.num("--max-queued-cells"),
        args.num("--max-state-bytes"),
    );
    if live.is_none() && cells.is_none() && bytes.is_none() {
        return None;
    }
    Some(QuotaPolicy {
        max_live_jobs: live.unwrap_or(0),
        max_queued_cells: cells.unwrap_or(0),
        max_state_bytes: bytes.unwrap_or(0),
    })
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    args.ensure_flags(&[
        "--drain",
        "--poll-ms",
        "--listen",
        "--lease-ms",
        "--lease-mode",
        "--workers",
        "--max-body",
        "--head-timeout-ms",
        "--token-file",
        "--gc-interval-ms",
        "--max-live-jobs",
        "--max-queued-cells",
        "--max-state-bytes",
        "--cell-floor-ms",
    ])?;
    if !args.positional.is_empty() {
        return Err("serve takes no positional arguments".to_string());
    }
    if args.remote().is_some() {
        return Err("serve runs against a state directory, not --remote".to_string());
    }
    install_signal_handlers();
    let store = open_store(args)?;
    let defaults = ServeOptions::default();
    let lease_mode = match args.value("--lease-mode") {
        Some(mode) => LeaseMode::parse(mode)
            .ok_or_else(|| format!("bad --lease-mode `{mode}` (strict or relaxed)"))?,
        None => defaults.lease_mode,
    };
    let opts = ServeOptions {
        drain: args.flag("--drain"),
        poll: args.poll(),
        lease: args.ms("--lease-ms", defaults.lease),
        workers: args
            .num("--workers")
            .map_or(defaults.workers, |n| n as usize),
        listen: args.value("--listen").map(String::from),
        max_body: args
            .num("--max-body")
            .map_or(defaults.max_body, |n| n as usize),
        head_timeout: args.ms("--head-timeout-ms", defaults.head_timeout),
        lease_mode,
        token: serve_token(args)?,
        gc_interval: args.ms("--gc-interval-ms", defaults.gc_interval),
        quota: serve_quota(args),
        cell_floor: args.ms("--cell-floor-ms", defaults.cell_floor),
    };
    eprintln!(
        "ftsimd: serving {} ({})",
        store.root().display(),
        if opts.drain {
            "drain mode"
        } else {
            "daemon mode"
        }
    );
    serve(&store, &opts).map_err(|e| e.to_string())
}

fn cmd_gc(args: &Args) -> Result<(), String> {
    args.ensure_flags(&["--quarantine-retain-secs"])?;
    if !args.positional.is_empty() {
        return Err("gc takes no positional arguments".to_string());
    }
    if args.remote().is_some() {
        return Err("gc runs against a state directory, not --remote".to_string());
    }
    let store = open_store(args)?;
    let mut opts = GcOptions::default();
    if let Some(secs) = args.num("--quarantine-retain-secs") {
        opts.quarantine_retain = Duration::from_secs(secs);
    }
    let report = gc_pass(&store, &opts).map_err(|e| e.to_string())?;
    if report.is_empty() {
        println!("ftsimd: gc: nothing to reclaim");
    } else {
        println!("ftsimd: gc: {report}");
    }
    Ok(())
}

fn cmd_jobs(args: &Args) -> Result<(), String> {
    args.ensure_flags(&[])?;
    if !args.positional.is_empty() {
        return Err("jobs takes no positional arguments".to_string());
    }
    let doc = document(args, "GET", "/jobs", None, jobs_doc)?;
    let place = match args.remote() {
        Some(addr) => format!("at {addr}"),
        None => format!("in {}", args.state),
    };
    let entries = doc
        .get("jobs")
        .and_then(|j| j.as_arr())
        .ok_or("job listing has no jobs array")?;
    if entries.is_empty() {
        println!("no jobs {place}");
    }
    for e in entries {
        let id = str_of(e, "id");
        let error = e.get("error").and_then(|v| v.as_str()).unwrap_or("");
        let Some(state) = e.get("state").and_then(|v| v.as_str()) else {
            println!("{id:<28} <unreadable status: {error}>");
            continue;
        };
        let submitter = str_of(e, "submitter");
        println!(
            "{:<28} {:<8} {:>6}/{:<6} {:<12} {}",
            id,
            state,
            u64_of(e, "cells_done"),
            u64_of(e, "cells_total"),
            if submitter.is_empty() {
                "-"
            } else {
                &submitter
            },
            error
        );
    }
    Ok(())
}

fn cmd_status(args: &Args) -> Result<(), String> {
    args.ensure_flags(&[])?;
    let id = match args.positional.as_slice() {
        [] => return cmd_jobs(args),
        [id] => id,
        _ => return Err("status takes at most one job id".to_string()),
    };
    let mut dir = None;
    let doc = document(args, "GET", &format!("/jobs/{id}/status"), None, |store| {
        let job = store.job(id)?;
        dir = Some(job.dir().to_path_buf());
        Ok(status_doc(store, &job))
    })?;
    let Some(state) = doc.get("state").and_then(|v| v.as_str()) else {
        return Err(str_of(&doc, "error"));
    };
    println!("job:    {id}");
    println!("state:  {state}");
    println!(
        "cells:  {}/{}",
        u64_of(&doc, "cells_done"),
        u64_of(&doc, "cells_total")
    );
    let error = str_of(&doc, "error");
    if !error.is_empty() {
        println!("error:  {error}");
    }
    if let Some(dir) = dir {
        println!("dir:    {}", dir.display());
    }
    if let Some(families) = doc.get("families").and_then(|f| f.as_arr()) {
        println!("families:");
        for f in families {
            println!(
                "  {:<10} budget {:>7}  {:<10} {:>4}/{}",
                str_of(f, "workload"),
                u64_of(f, "budget"),
                str_of(f, "model"),
                u64_of(f, "done"),
                u64_of(f, "total")
            );
        }
    }
    Ok(())
}

/// `results` and `report`: one canonical read rendered as CSV/JSON
/// records or as the analysis report, or — with `--watch` — the
/// matching follow stream, from the local store or over `--remote`.
fn cmd_read(args: &Args, verb: Verb) -> Result<(), String> {
    args.ensure_flags(&["--json", "--watch", "--poll-ms", "--interval"])?;
    let name = match verb {
        Verb::Results => "results",
        Verb::Report => "report",
    };
    let [id] = args.positional.as_slice() else {
        return Err(format!("{name} takes exactly one job id"));
    };
    let json = args.flag("--json");
    let watching = args.flag("--watch");
    if watching && json {
        return Err(match verb {
            Verb::Results => "--watch streams CSV rows; it cannot combine with --json",
            Verb::Report => "--watch already streams JSON snapshots; drop --json",
        }
        .to_string());
    }
    if let Some(addr) = args.remote() {
        let query = match (watching, json, verb) {
            (true, _, _) => format!("?watch&interval={}", args.interval_ms()),
            (false, true, Verb::Results) => "?json".to_string(),
            (false, false, Verb::Report) => "?format=text".to_string(),
            (false, _, _) => String::new(),
        };
        let path = format!("/jobs/{id}/{name}{query}");
        if watching {
            return forward_stream(args, addr, &path);
        }
        print!("{}", remote_call(args, addr, "GET", &path, None)?);
        return Ok(());
    }
    let store = open_store(args)?;
    let job = store.job(id).map_err(|e| e.to_string())?;
    if watching {
        let stdout = std::io::stdout();
        let poll = Duration::from_millis(args.interval_ms());
        let end = watch(
            &store,
            &job,
            verb,
            poll,
            &AtomicBool::new(false),
            &mut stdout.lock(),
        )?;
        if let (Verb::Results, Some(end)) = (verb, end) {
            eprintln!(
                "ftsimd: job {id} is {} — {} record(s) streamed{}",
                end.state,
                end.rows,
                if end.backfilled > 0 {
                    format!(
                        " ({} backfilled from the final merged read)",
                        end.backfilled
                    )
                } else {
                    String::new()
                }
            );
        }
        return Ok(());
    }
    let view = read_job(&store, &job).map_err(|e| e.to_string())?;
    if view.state != JobState::Done {
        let (n, total) = (view.records.len(), view.total);
        let coverage = match verb {
            Verb::Results => format!("{n} of {total} cells merged (grid order)"),
            Verb::Report => format!("report covers {n} of {total} cells"),
        };
        eprintln!("ftsimd: job {id} is {} — {coverage}", view.state);
    }
    print!("{}", render(&view.records, verb, json));
    Ok(())
}

/// A `--watch` over `--remote`: the server streams lines as cells land
/// and closes the connection when the job is terminal; the client
/// forwards them to stdout, stopping early if the downstream pipe
/// closes.
fn forward_stream(args: &Args, addr: &str, path: &str) -> Result<(), String> {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let code = http_stream(addr, args.token.as_deref(), path, &mut |line| {
        writeln!(out, "{line}").and_then(|()| out.flush()).is_ok()
    })?;
    if code != 200 {
        return Err(format!("remote {addr}: watch failed (http {code})"));
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    args.ensure_flags(&["-n", "--follow", "--poll-ms", "--interval"])?;
    if !args.positional.is_empty() {
        return Err("trace takes no positional arguments".to_string());
    }
    let n = args.num("-n").map_or(50, |n| n as usize);
    let follow = args.flag("--follow");
    let (text, tail) = match args.remote() {
        Some(_) if follow => {
            return Err(
                "--follow tails local journals; use plain `trace` over --remote".to_string(),
            );
        }
        Some(addr) => (
            remote_call(args, addr, "GET", &format!("/trace?n={n}"), None)?,
            None,
        ),
        None => {
            let mut tail = JournalTail::new(open_store(args)?.trace_dir());
            (trace_doc(&mut tail, n), Some(tail))
        }
    };
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut emit = |text: &str| {
        out.write_all(text.as_bytes())
            .and_then(|()| out.flush())
            .is_ok()
    };
    if !emit(&text) {
        return Ok(());
    }
    // Follow mode: later polls of the same tail print each new event
    // once, until interrupted or stdout closes.
    let Some(mut tail) = tail.filter(|_| follow) else {
        return Ok(());
    };
    let poll = Duration::from_millis(args.interval_ms());
    loop {
        std::thread::sleep(poll);
        if !emit(&render_events(&tail.poll())) {
            return Ok(());
        }
    }
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    args.ensure_flags(&[])?;
    let [id] = args.positional.as_slice() else {
        return Err("profile takes exactly one job id".to_string());
    };
    if args.remote().is_some() {
        return Err("profile reads the job's local profile.csv; --remote is not supported".into());
    }
    let store = open_store(args)?;
    let job = store.job(id).map_err(|e| e.to_string())?;
    let path = job.profile_path();
    let text = std::fs::read_to_string(&path).map_err(|_| {
        format!("no stage profile for {id}; run the sweep under FTSIM_PROFILE=1 to collect one")
    })?;
    let mut lines = text.lines();
    if lines.next() != Some(crate::fabric::profile_header().as_str()) {
        return Err(format!("unrecognized profile header in {}", path.display()));
    }
    use ftsim_core::profile::STAGE_NAMES;
    let stage_cols: String = STAGE_NAMES
        .map(|s| format!("{:>13}", format!("{s}_ms")))
        .concat();
    println!(
        "{:<42} {:<8} {:>10} {:>8}{stage_cols}",
        "cell", "path", "cycles", "samples"
    );
    let mut total_ns = [0u64; 5];
    let mut total_calls = [0u64; 5];
    let mut rows = 0u64;
    for line in lines {
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != 14 {
            continue; // torn tail row: the profile is best-effort
        }
        let num = |i: usize| cols[i].parse::<u64>().unwrap_or(0);
        let mut est = String::new();
        for s in 0..STAGE_NAMES.len() {
            total_calls[s] += num(4 + s);
            total_ns[s] += num(9 + s);
            est.push_str(&format!("{:>13.3}", num(9 + s) as f64 / 1e6));
        }
        println!(
            "{:<42} {:<8} {:>10} {:>8}{est}",
            cols[0],
            cols[1],
            num(2),
            num(3)
        );
        rows += 1;
    }
    let total: String = total_ns
        .map(|ns| format!("{:>13.3}", ns as f64 / 1e6))
        .concat();
    println!(
        "{:<42} {:<8} {:>10} {:>8}{total}",
        format!("TOTAL ({rows} cells)"),
        "",
        "",
        ""
    );
    println!(
        "stage calls: {}",
        STAGE_NAMES
            .iter()
            .zip(total_calls)
            .map(|(s, c)| format!("{s}={c}"))
            .collect::<Vec<_>>()
            .join("  ")
    );
    Ok(())
}

fn cmd_stop(args: &Args) -> Result<(), String> {
    args.ensure_flags(&[])?;
    let id = match args.positional.as_slice() {
        [] => None,
        [id] => Some(id.as_str()),
        _ => return Err("stop takes at most one job id".to_string()),
    };
    let path = id.map_or_else(|| "/stop".to_string(), |id| format!("/jobs/{id}/stop"));
    document(args, "POST", &path, None, |store| stop_doc(store, id))?;
    match id {
        Some(id) => eprintln!("ftsimd: job {id} paused; resubmit its spec to resume"),
        None => eprintln!(
            "ftsimd: stop requested; {} will finish its cell in flight and exit",
            args.remote().unwrap_or("the daemon")
        ),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_state_flags_and_positionals() {
        let args = parse_args(&strs(&[
            "job-1",
            "--state",
            "/tmp/x",
            "--json",
            "--poll-ms",
            "50",
        ]))
        .unwrap();
        assert_eq!(args.state, "/tmp/x");
        assert_eq!(args.positional, ["job-1"]);
        assert!(args.flag("--json"));
        assert_eq!(args.poll(), Duration::from_millis(50));

        assert!(parse_args(&strs(&["--state"])).is_err());
        assert!(parse_args(&strs(&["--poll-ms", "soon"])).is_err());
        assert!(parse_args(&strs(&["--lease-ms", "ages"])).is_err());
        assert!(parse_args(&strs(&["--remote"])).is_err());
    }

    #[test]
    fn interval_falls_back_to_poll_ms_then_default() {
        let args = parse_args(&strs(&["--interval", "75"])).unwrap();
        assert_eq!(args.interval_ms(), 75);
        let args = parse_args(&strs(&["--poll-ms", "40"])).unwrap();
        assert_eq!(args.interval_ms(), 40);
        let args = parse_args(&strs(&[])).unwrap();
        assert_eq!(args.interval_ms(), 500);
    }

    #[test]
    fn serve_value_flags_reach_serve_options() {
        let args = parse_args(&strs(&[
            "--lease-ms",
            "1500",
            "--workers",
            "2",
            "--listen",
            "127.0.0.1:0",
        ]))
        .unwrap();
        assert_eq!(args.value("--lease-ms"), Some("1500"));
        assert_eq!(args.value("--workers"), Some("2"));
        assert_eq!(args.value("--listen"), Some("127.0.0.1:0"));
    }

    #[test]
    fn mistyped_flags_fail_instead_of_changing_behavior() {
        // `--drian` must not silently run a forever-polling daemon.
        assert_eq!(run(&strs(&["serve", "--drian"])), 1);
        assert_eq!(run(&strs(&["results", "x", "--jsn"])), 1);
        assert_eq!(run(&strs(&["stop", "--force"])), 1);
        assert_eq!(run(&strs(&["jobs", "--all"])), 1);
    }

    #[test]
    fn report_watch_and_family_status_run_on_a_completed_job() {
        let dir = std::env::temp_dir().join(format!("ftsimd-cli-report-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = JobStore::open(&dir).unwrap();
        let mut spec = JobSpec::new("cli-report");
        spec.workloads = vec!["gcc".to_string()];
        spec.models = vec!["SS-2".to_string()];
        spec.fault_rates_pm = vec![0.0, 5_000.0];
        spec.site_mixes = vec!["uniform".to_string(), "addr-heavy".to_string()];
        spec.budgets = vec![1_200];
        let doc = submit_doc(&store, &spec.to_json()).unwrap();
        let id = str_of(&doc, "id");
        let job = store.job(&id).unwrap();
        serve(
            &store,
            &ServeOptions {
                drain: true,
                poll: Duration::from_millis(1),
                ..Default::default()
            },
        )
        .unwrap();

        let state = dir.to_string_lossy().to_string();
        // report renders the analysis sections over the job's records.
        assert_eq!(run(&strs(&["report", &id, "--state", &state])), 0);
        assert_eq!(run(&strs(&["report", &id, "--json", "--state", &state])), 0);
        // --watch on a terminal job prints everything streamed and exits.
        assert_eq!(
            run(&strs(&["results", &id, "--watch", "--state", &state])),
            0
        );
        // --watch and --json are mutually exclusive.
        assert_eq!(
            run(&strs(&[
                "results", &id, "--watch", "--json", "--state", &state
            ])),
            1
        );
        // jobs lists the finished job; single-job status includes the
        // per-family progress lines.
        assert_eq!(run(&strs(&["jobs", "--state", &state])), 0);
        assert_eq!(run(&strs(&["status", &id, "--state", &state])), 0);
        let (spec, status) = (
            store.load_spec(&job).unwrap(),
            store.load_status(&job).unwrap(),
        );
        let progress = crate::fabric::progress(&job, Some(&spec), Some(&status), true);
        assert_eq!(progress.done, 4);
        let families = progress.families.unwrap();
        assert_eq!(families.len(), 1, "one (workload, budget, model) shard");
        assert_eq!(families[0].family.workload, "gcc");
        assert_eq!(families[0].family.model, "SS-2");
        assert_eq!(families[0].family.budget, 1_200);
        assert_eq!((families[0].done, families[0].total), (4, 4));

        // Pausing the (already done) job writes its stop sentinel.
        assert_eq!(run(&strs(&["stop", &id, "--state", &state])), 0);
        assert!(store.job_stop_requested(&job));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_verb_runs_and_bad_serve_flags_fail_fast() {
        let dir = std::env::temp_dir().join(format!("ftsimd-cli-gc-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        JobStore::open(&dir).unwrap();
        let state = dir.to_string_lossy().to_string();
        // An empty store GC's cleanly (nothing to reclaim).
        assert_eq!(run(&strs(&["gc", "--state", &state])), 0);
        assert_eq!(
            run(&strs(&[
                "gc",
                "--state",
                &state,
                "--quarantine-retain-secs",
                "0"
            ])),
            0
        );
        // gc is local-only and rejects foreign flags.
        assert_eq!(run(&strs(&["gc", "--state", &state, "--json"])), 1);
        // A bad lease mode fails before the daemon starts serving.
        assert_eq!(
            run(&strs(&[
                "serve",
                "--state",
                &state,
                "--drain",
                "--lease-mode",
                "sideways"
            ])),
            1
        );
        // A missing token file is an error, not an open API.
        assert_eq!(
            run(&strs(&[
                "serve",
                "--state",
                &state,
                "--drain",
                "--token-file",
                "/nonexistent/token"
            ])),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_command_fails_with_usage() {
        assert_eq!(run(&strs(&["explode"])), 1);
        assert_eq!(run(&strs(&[])), 1);
        assert_eq!(run(&strs(&["help"])), 0);
    }
}
