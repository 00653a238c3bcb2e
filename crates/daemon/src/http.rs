//! The daemon's HTTP API: a hand-rolled HTTP/1.1 server over
//! [`std::net::TcpListener`] (this workspace takes no external
//! dependencies — the TOML-subset parser in `spec.rs` set the
//! precedent), plus the minimal client the `ftsimd --remote` paths use.
//!
//! The surface mirrors the CLI verbs one-to-one:
//!
//! | Route                       | Verb                               |
//! |-----------------------------|------------------------------------|
//! | `POST /jobs`                | submit-or-attach (body = spec)     |
//! | `GET /jobs`                 | list every job                     |
//! | `GET /jobs/<id>/status`     | one job's status + family progress |
//! | `GET /jobs/<id>/results`    | grid-order CSV (`?json`, `?watch`) |
//! | `GET /jobs/<id>/report`     | analysis report (JSON; `?format=text`) |
//! | `POST /jobs/<id>/stop`      | pause one job                      |
//! | `POST /stop`                | stop the serving daemon            |
//! | `GET /trace`                | recent span events (`?n=`, NDJSON) |
//! | `GET /healthz`              | fabric diagnostics (JSON)          |
//! | `GET /metrics`              | Prometheus text exposition         |
//!
//! The verb routes render what the `feed` module returns — the same
//! documents the local CLI prints — and every `?watch` stream is that
//! module's one follow loop writing into the socket. `/healthz` and
//! `/metrics` read one [`Census`] of the fabric.
//!
//! Responses carry `Connection: close` and either a `Content-Length`
//! or — for `?watch` streams — no length at all: the client reads to
//! EOF, which is what lets result rows flow as cells complete without
//! chunked-encoding machinery. The bound address is written to
//! `<state>/http.addr`, so `--listen 127.0.0.1:0` (tests, parallel CI)
//! is discoverable.

use crate::failpoints as fp;
use crate::feed::{
    jobs_doc, read_job, render, status_doc, stop_doc, submit_doc, trace_doc, watch, JournalTail,
    Verb,
};
use crate::store::{io_err, write_atomic, DaemonError, Job, JobState, JobStore};
use ftsim_chaos::retry::Backoff;
use ftsim_obs::metrics;
use ftsim_stats::JsonValue;
use std::cell::RefCell;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Largest request head (request line + headers) we accept; the body
/// bound is configurable via [`HttpLimits`].
const MAX_HEAD: usize = 16 * 1024;

/// Request-size and request-pacing bounds the server enforces, set from
/// `serve --max-body` / `--head-timeout-ms`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HttpLimits {
    /// Largest request body accepted; larger submissions get `413`.
    pub max_body: usize,
    /// Socket read timeout while parsing a request. A slow-loris client
    /// that dribbles its head slower than this gets `408`, freeing the
    /// handler thread.
    pub head_timeout: Duration,
}

impl Default for HttpLimits {
    fn default() -> Self {
        Self {
            max_body: 1024 * 1024,
            head_timeout: Duration::from_secs(10),
        }
    }
}

/// The daemon's HTTP listener, bound and advertised.
pub(crate) struct HttpServer {
    store: JobStore,
    listener: TcpListener,
    limits: HttpLimits,
    /// Bearer token gating every mutating (POST) verb; `None` leaves
    /// the API open (single-tenant default).
    token: Option<String>,
    started: std::time::Instant,
    stopped: Arc<AtomicBool>,
}

impl HttpServer {
    /// Binds `addr`, writes the bound address to `<state>/http.addr`,
    /// and returns the server ready to [`run`](Self::run).
    pub(crate) fn bind(
        store: &JobStore,
        addr: &str,
        limits: HttpLimits,
        token: Option<String>,
    ) -> Result<Self, DaemonError> {
        let listener =
            TcpListener::bind(addr).map_err(io_err(format!("binding http listener on {addr}")))?;
        let local = listener
            .local_addr()
            .map_err(io_err("reading bound http address"))?;
        listener
            .set_nonblocking(true)
            .map_err(io_err("configuring http listener"))?;
        write_atomic(
            fp::HTTP_ADDR_WRITE,
            &store.http_addr_path(),
            local.to_string().as_bytes(),
        )?;
        eprintln!("ftsimd: http api on {local}");
        Ok(Self {
            store: store.clone(),
            listener,
            limits,
            token,
            started: std::time::Instant::now(),
            stopped: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Accept loop: polls the (non-blocking) listener until
    /// `should_stop`, handling each connection on its own thread.
    /// In-flight `?watch` streams notice the shutdown via the shared
    /// `stopped` flag and end their response cleanly.
    pub(crate) fn run(&self, should_stop: &dyn Fn() -> bool, poll: Duration) {
        let nap = poll.min(Duration::from_millis(50));
        loop {
            if should_stop() {
                self.stopped.store(true, Ordering::SeqCst);
                return;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // The accept failpoint models the kernel handing us a
                    // connection that dies before we can serve it: drop
                    // it and keep accepting (clients retry).
                    if let Err(e) = ftsim_chaos::io().gate(fp::HTTP_ACCEPT) {
                        eprintln!("ftsimd: http accept: {e}");
                        continue;
                    }
                    let store = self.store.clone();
                    let stopped = Arc::clone(&self.stopped);
                    let limits = self.limits;
                    let token = self.token.clone();
                    let started = self.started;
                    std::thread::spawn(move || {
                        // A hung client must not wedge its thread forever.
                        stream.set_read_timeout(Some(limits.head_timeout)).ok();
                        handle(&store, stream, limits, token.as_deref(), started, &stopped);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(nap),
                Err(_) => std::thread::sleep(nap),
            }
        }
    }
}

/// One parsed request.
struct Request {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    body: String,
    /// The `Authorization: Bearer <token>` credential, if any.
    bearer: Option<String>,
}

impl Request {
    fn query(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A request the server refuses to process, with the HTTP status it
/// owes the client: `400` (malformed), `408` (slow loris / timeout),
/// `413` (oversized body) or `431` (oversized head).
struct ReqError {
    code: u16,
    message: String,
}

impl ReqError {
    fn new(code: u16, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

/// `408` for a socket read that timed out (a client dribbling bytes
/// slower than the head timeout), `400` otherwise.
fn read_error(context: &str, e: &std::io::Error) -> ReqError {
    use std::io::ErrorKind::{TimedOut, WouldBlock};
    if matches!(e.kind(), TimedOut | WouldBlock) {
        ReqError::new(408, format!("timed out {context}"))
    } else {
        ReqError::new(400, format!("{context}: {e}"))
    }
}

/// Reads and parses one HTTP/1.1 request from the stream.
fn read_request(stream: &mut TcpStream, limits: HttpLimits) -> Result<Request, ReqError> {
    ftsim_chaos::io()
        .gate(fp::HTTP_SERVER_READ)
        .map_err(|e| read_error("reading request", &e))?;
    // Read bytes until the blank line ending the head.
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() > MAX_HEAD {
            return Err(ReqError::new(431, "request head too large"));
        }
        match stream.read(&mut byte) {
            Ok(0) => return Err(ReqError::new(400, "connection closed mid-request")),
            Ok(_) => head.push(byte[0]),
            Err(e) => return Err(read_error("reading request", &e)),
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_ascii_uppercase();
    let target = parts.next().unwrap_or_default();
    if method.is_empty() || target.is_empty() {
        return Err(ReqError::new(
            400,
            format!("malformed request line `{request_line}`"),
        ));
    }
    let mut content_length = 0usize;
    let mut bearer = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ReqError::new(400, "bad content-length"))?;
            } else if name.trim().eq_ignore_ascii_case("authorization") {
                if let Some(cred) = value.trim().strip_prefix("Bearer ") {
                    bearer = Some(cred.trim().to_string());
                }
            }
        }
    }
    if content_length > limits.max_body {
        return Err(ReqError::new(
            413,
            format!(
                "request body of {content_length} bytes exceeds the {} byte limit",
                limits.max_body
            ),
        ));
    }
    let mut body = vec![0u8; content_length];
    stream
        .read_exact(&mut body)
        .map_err(|e| read_error("reading request body", &e))?;
    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_text
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();
    Ok(Request {
        method,
        path: path.to_string(),
        query,
        body: String::from_utf8_lossy(&body).into_owned(),
        bearer,
    })
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    }
}

thread_local! {
    /// `(verb, receive time)` of the request this handler thread is
    /// serving. Consumed (`take`) by the first response written, so the
    /// request-latency histogram gets exactly one sample per request
    /// even when a handler writes through `respond` more than once.
    static REQ_CTX: RefCell<Option<(String, std::time::Instant)>> = const { RefCell::new(None) };
}

/// Writes a complete response with a `Content-Length`.
fn respond(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
    respond_extra(stream, code, content_type, body, &[]);
}

/// [`respond`] with additional header lines (`Retry-After`,
/// `WWW-Authenticate`, ...), each given as `"Name: value"`.
fn respond_extra(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
    extra_headers: &[String],
) {
    // An injected respond failure drops the response on the floor: the
    // client sees a closed connection (and its retry layer re-asks).
    if let Err(e) = ftsim_chaos::io().gate(fp::HTTP_SERVER_RESPOND) {
        eprintln!("ftsimd: http respond: {e}");
        return;
    }
    let mut head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        status_text(code),
        body.len()
    );
    for header in extra_headers {
        head.push_str(header);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
    if let Some((verb, t0)) = REQ_CTX.with(|c| c.borrow_mut().take()) {
        let status = code.to_string();
        metrics::histogram(
            "ftsimd_http_request_ms",
            &[("verb", &verb), ("status", &status)],
            5,
            40,
        )
        .record(t0.elapsed().as_millis() as u64);
    }
}

fn respond_json(stream: &mut TcpStream, code: u16, body: &JsonValue) {
    respond(stream, code, "application/json", &body.render_pretty(2));
}

fn error_json(message: impl Into<String>) -> JsonValue {
    JsonValue::obj([("error".to_string(), JsonValue::Str(message.into()))])
}

/// Compares a presented credential against the configured token without
/// an early exit, so response timing does not leak how long a matching
/// prefix was.
fn token_matches(expected: &str, presented: &str) -> bool {
    let (a, b) = (expected.as_bytes(), presented.as_bytes());
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= (x ^ y) as usize;
    }
    diff == 0
}

/// Routes one request. Every handler failure turns into a JSON error
/// response; nothing here can take the accept loop down.
fn handle(
    store: &JobStore,
    mut stream: TcpStream,
    limits: HttpLimits,
    token: Option<&str>,
    started: std::time::Instant,
    stopped: &AtomicBool,
) {
    let t0 = std::time::Instant::now();
    let req = match read_request(&mut stream, limits) {
        Ok(req) => {
            REQ_CTX.with(|c| *c.borrow_mut() = Some((req.method.clone(), t0)));
            req
        }
        Err(e) => {
            respond_json(&mut stream, e.code, &error_json(e.message));
            // Drain what the client already sent (an oversized body, a
            // half-written head) before closing: dropping the socket
            // with unread data makes the kernel RST the connection,
            // which can destroy the error response before the client
            // reads it.
            let mut sink = [0u8; 4096];
            let mut drained = 0usize;
            while drained < 4 * 1024 * 1024 {
                match stream.read(&mut sink) {
                    Ok(n) if n > 0 => drained += n,
                    _ => break,
                }
            }
            return;
        }
    };
    // Every mutating verb is a POST; reads stay open so dashboards and
    // `results --watch` keep working without credentials.
    if req.method == "POST" {
        if let Some(expected) = token {
            let authorized = req
                .bearer
                .as_deref()
                .is_some_and(|presented| token_matches(expected, presented));
            if !authorized {
                respond_extra(
                    &mut stream,
                    401,
                    "application/json",
                    &error_json("missing or invalid bearer token").render_pretty(2),
                    &["WWW-Authenticate: Bearer".to_string()],
                );
                return;
            }
        }
    }
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => respond_doc(&mut stream, submit_doc(store, &req.body), 400),
        ("GET", ["jobs"]) => respond_doc(&mut stream, jobs_doc(store), 500),
        ("GET", ["jobs", id, "status"]) => {
            let doc = store.job(id).map(|job| status_doc(store, &job));
            respond_doc(&mut stream, doc, 500);
        }
        ("GET", ["jobs", id, "results"]) => {
            job_read(store, &mut stream, id, &req, Verb::Results, stopped);
        }
        ("GET", ["jobs", id, "report"]) => {
            job_read(store, &mut stream, id, &req, Verb::Report, stopped);
        }
        ("POST", ["jobs", id, "stop"]) => respond_doc(&mut stream, stop_doc(store, Some(id)), 500),
        ("POST", ["stop"]) => respond_doc(&mut stream, stop_doc(store, None), 500),
        ("GET", ["healthz"]) => healthz(store, &mut stream, started),
        ("GET", ["metrics"]) => metrics_endpoint(store, &mut stream),
        ("GET", ["trace"]) => {
            let n = req.query("n").and_then(|v| v.parse().ok()).unwrap_or(100);
            let body = trace_doc(&mut JournalTail::new(store.trace_dir()), n);
            respond(&mut stream, 200, "application/x-ndjson", &body);
        }
        (method, _) if method != "GET" && method != "POST" => {
            respond_json(&mut stream, 405, &error_json("use GET or POST"));
        }
        _ => respond_json(
            &mut stream,
            404,
            &error_json(format!("no route for {} {}", req.method, req.path)),
        ),
    }
}

/// Answers with a verb's document, or with its error as
/// `{"error": ...}`: `404` for an unknown job, `429` with `Retry-After`
/// for an over-quota submission, `failed` for anything else.
fn respond_doc(stream: &mut TcpStream, doc: Result<JsonValue, DaemonError>, failed: u16) {
    match doc {
        Ok(doc) => respond_json(stream, 200, &doc),
        Err(e @ DaemonError::NoSuchJob(_)) => respond_json(stream, 404, &error_json(e.to_string())),
        Err(
            e @ DaemonError::QuotaExceeded {
                retry_after_secs, ..
            },
        ) => {
            // Structured refusal: the client learns when to come back
            // both from the header and from the body.
            respond_extra(
                stream,
                429,
                "application/json",
                &JsonValue::obj([
                    ("error".to_string(), JsonValue::Str(e.to_string())),
                    (
                        "retry_after_secs".to_string(),
                        JsonValue::U64(retry_after_secs),
                    ),
                ])
                .render_pretty(2),
                &[format!("Retry-After: {retry_after_secs}")],
            );
        }
        Err(e) => respond_json(stream, failed, &error_json(e.to_string())),
    }
}

/// `GET /jobs/<id>/results` (grid-order CSV, `?json`) and
/// `GET /jobs/<id>/report` (analysis JSON, `?format=text`) over the
/// canonical read, or — with `?watch` — the matching [`watch`] stream.
fn job_read(
    store: &JobStore,
    stream: &mut TcpStream,
    id: &str,
    req: &Request,
    verb: Verb,
    stopped: &AtomicBool,
) {
    let job = match store.job(id) {
        Ok(job) => job,
        Err(e) => return respond_doc(stream, Err(e), 500),
    };
    if req.query("watch").is_some() {
        let interval = req
            .query("interval")
            .and_then(|v| v.parse().ok())
            .map_or(Duration::from_millis(500), Duration::from_millis);
        stream_watch(store, stream, &job, verb, interval, stopped);
        return;
    }
    let json = match verb {
        Verb::Results => req.query("json").is_some(),
        Verb::Report => req.query("format") != Some("text"),
    };
    let content_type = match (verb, json) {
        (_, true) => "application/json",
        (Verb::Results, false) => "text/csv",
        (Verb::Report, false) => "text/plain",
    };
    match read_job(store, &job) {
        Ok(view) => respond(
            stream,
            200,
            content_type,
            &render(&view.records, verb, json),
        ),
        Err(e) => respond_json(stream, 500, &error_json(e.to_string())),
    }
}

/// A `?watch` response: a head with no `Content-Length`, then the
/// [`watch`] stream until the job is terminal (or the daemon shuts
/// down) and the connection closes.
fn stream_watch(
    store: &JobStore,
    stream: &mut TcpStream,
    job: &Job,
    verb: Verb,
    interval: Duration,
    stopped: &AtomicBool,
) {
    let content_type = match verb {
        Verb::Results => "text/csv",
        Verb::Report => "application/x-ndjson",
    };
    let head =
        format!("HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nConnection: close\r\n\r\n");
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let mut sink = std::io::BufWriter::new(stream);
    if let Err(e) = watch(store, job, verb, interval, stopped, &mut sink) {
        // The client sees EOF and can re-watch.
        eprintln!("ftsimd: watch stream on {}: {e}; giving up", job.id);
    }
}

/// One pass over the fabric's jobs: what `/healthz` and `/metrics`
/// report about the queue, from each job's status (read once), its
/// progress ([`progress`](crate::fabric::progress)) and its live claims
/// (scanned once), which also give its
/// [`served`](crate::fabric::served) state.
struct Census {
    /// Jobs in the store.
    jobs: u64,
    /// Jobs whose status reads, by state.
    by_state: [(JobState, u64); 4],
    /// Cells not yet done across non-terminal jobs.
    queued_cells: u64,
    /// Live claims across every job.
    live_claims: u64,
    /// Age of the oldest live claim that carries a creation stamp.
    oldest_claim_ms: u64,
    /// Live claims per submitter, sorted by submitter.
    by_submitter: Vec<(String, u64)>,
    /// `(job id, {state, cells_done, cells_total})` per readable status.
    progress: Vec<(String, JsonValue)>,
}

/// Takes the [`Census`] of `store`.
///
/// # Errors
///
/// [`DaemonError`] when the jobs directory does not list.
fn census(store: &JobStore) -> Result<Census, DaemonError> {
    let jobs = store.jobs()?;
    let mut c = Census {
        jobs: jobs.len() as u64,
        by_state: [
            (JobState::Queued, 0),
            (JobState::Running, 0),
            (JobState::Done, 0),
            (JobState::Failed, 0),
        ],
        queued_cells: 0,
        live_claims: 0,
        oldest_claim_ms: 0,
        by_submitter: Vec::new(),
        progress: Vec::new(),
    };
    for job in &jobs {
        let status = store.load_status(job).ok();
        let live = crate::fabric::live_claims(job);
        // A done job's progress needs no spec, and it has no claims.
        let spec = match &status {
            Some(s) if s.state == JobState::Done && live.count == 0 => None,
            _ => store.load_spec(job).ok(),
        };
        if let Some(s) = &status {
            let state = crate::fabric::served(store, job, s, &live).state;
            if let Some(slot) = c.by_state.iter_mut().find(|(st, _)| *st == state) {
                slot.1 += 1;
            }
            let done = crate::fabric::progress(job, spec.as_ref(), Some(s), false).done;
            if !s.terminal() {
                c.queued_cells += s.cells_total.saturating_sub(done) as u64;
            }
            c.progress.push((
                job.id.clone(),
                JsonValue::obj([
                    ("state".to_string(), JsonValue::Str(state.to_string())),
                    ("cells_done".to_string(), JsonValue::U64(done as u64)),
                    (
                        "cells_total".to_string(),
                        JsonValue::U64(s.cells_total as u64),
                    ),
                ]),
            ));
        }
        if live.count == 0 {
            continue;
        }
        let claims = live.count as u64;
        c.live_claims += claims;
        c.oldest_claim_ms = c.oldest_claim_ms.max(live.oldest_age_ms);
        let submitter = spec.map(|s| s.submitter).unwrap_or_default();
        match c.by_submitter.iter_mut().find(|(who, _)| *who == submitter) {
            Some((_, n)) => *n += claims,
            None => c.by_submitter.push((submitter, claims)),
        }
    }
    c.by_submitter.sort();
    Ok(c)
}

/// `GET /metrics`: the Prometheus text exposition of every registered
/// metric, preceded by a scrape-time refresh of the store-derived gauges
/// (queue depth in cells, jobs by state, quarantine size) so one
/// process's scrape reflects fabric-wide state, not just its own
/// counters.
fn metrics_endpoint(store: &JobStore, stream: &mut TcpStream) {
    if let Ok(c) = census(store) {
        metrics::gauge("ftsimd_queued_cells", &[]).set(c.queued_cells);
        for (state, n) in &c.by_state {
            metrics::gauge("ftsimd_jobs", &[("state", &state.to_string())]).set(*n);
        }
    }
    metrics::gauge("ftsimd_quarantined_files", &[]).set(store.quarantined_count() as u64);
    respond(stream, 200, "text/plain; version=0.0.4", &metrics::render());
}

/// `GET /healthz`: fabric diagnostics for dashboards and smoke tests —
/// daemon version and uptime, job and live-claim counts (total and per
/// submitter), the fabric-wide queue depth in cells, the age of the
/// oldest live claim (0 when none carry a creation stamp), per-job
/// cell-progress counts, how many stale peer leases this process has
/// observed (and stolen), how many cells the stuck-cell watchdog has
/// killed, how many corrupt files sit in quarantine, and when the
/// scheduler last completed a pass (0 until the first one).
fn healthz(store: &JobStore, stream: &mut TcpStream, started: std::time::Instant) {
    let c = match census(store) {
        Ok(c) => c,
        Err(e) => {
            respond_json(stream, 500, &error_json(e.to_string()));
            return;
        }
    };
    respond_json(
        stream,
        200,
        &JsonValue::obj([
            ("status".to_string(), JsonValue::Str("ok".to_string())),
            (
                "version".to_string(),
                JsonValue::Str(env!("CARGO_PKG_VERSION").to_string()),
            ),
            (
                "uptime_ms".to_string(),
                JsonValue::U64(started.elapsed().as_millis() as u64),
            ),
            ("jobs".to_string(), JsonValue::U64(c.jobs)),
            ("live_claims".to_string(), JsonValue::U64(c.live_claims)),
            ("queued_cells".to_string(), JsonValue::U64(c.queued_cells)),
            (
                "oldest_live_claim_age_ms".to_string(),
                JsonValue::U64(c.oldest_claim_ms),
            ),
            ("job_progress".to_string(), JsonValue::Obj(c.progress)),
            (
                "live_claims_by_submitter".to_string(),
                JsonValue::Obj(
                    c.by_submitter
                        .into_iter()
                        .map(|(who, n)| (who, JsonValue::U64(n)))
                        .collect(),
                ),
            ),
            (
                "stale_leases_observed".to_string(),
                JsonValue::U64(crate::fabric::fobs().claims_stolen.get()),
            ),
            (
                "watchdog_kills".to_string(),
                JsonValue::U64(crate::fabric::fobs().watchdog_kills.get()),
            ),
            (
                "quarantined".to_string(),
                JsonValue::U64(store.quarantined_count() as u64),
            ),
            (
                "last_scheduler_pass_unix_ms".to_string(),
                JsonValue::U64(crate::fabric::last_scheduler_pass_ms()),
            ),
        ]),
    );
}

// ---------------------------------------------------------------------
// Client — what `ftsimd --remote <addr>` speaks. No filesystem access:
// everything the remote verbs show comes over the socket.

/// The `--remote` client's retry budget: 8 attempts, exponential from
/// 25 ms, capped at 2 s. Every daemon verb is idempotent (`POST /jobs`
/// is submit-*or-attach*, the stops are level-triggered sentinels), so
/// re-sending after a transport failure is always safe.
fn client_backoff() -> Backoff {
    Backoff::new(Duration::from_millis(25), Duration::from_secs(2), 8)
}

/// The `Authorization: Bearer ...\r\n` header line the client attaches
/// when it has a token; empty otherwise. Token-gated daemons refuse
/// mutating verbs without it (401).
fn client_auth_header(token: Option<&str>) -> String {
    token.map_or_else(String::new, |t| format!("Authorization: Bearer {t}\r\n"))
}

/// Performs one request with retry/backoff and returns `(status, body)`.
/// Transport failures — refused connections, dropped sockets, a torn
/// response — are retried under [`client_backoff`]; an HTTP error
/// status is a *response* and is returned, not retried.
pub(crate) fn http_request(
    addr: &str,
    token: Option<&str>,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    with_retries(|| http_request_once(addr, token, method, path, body).map_err(|e| (false, e)))
}

/// Runs `attempt` until it succeeds, fails for good (`(true, _)`), or
/// [`client_backoff`] runs out.
fn with_retries<T>(mut attempt: impl FnMut() -> Result<T, (bool, String)>) -> Result<T, String> {
    let mut backoff = client_backoff();
    loop {
        match attempt() {
            Ok(reply) => return Ok(reply),
            Err((true, e)) => return Err(e),
            Err((false, e)) => match backoff.next_delay() {
                Some(delay) => {
                    eprintln!("ftsimd: {e}; retrying");
                    std::thread::sleep(delay);
                }
                None => return Err(format!("{e} (after {} attempts)", backoff.attempts())),
            },
        }
    }
}

/// Connects to `addr` and sends one request, presenting `token` when
/// there is one; the returned stream is ready for the response.
fn send_request(
    addr: &str,
    token: Option<&str>,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<TcpStream, String> {
    ftsim_chaos::io()
        .gate(fp::HTTP_CLIENT_SEND)
        .map_err(|e| format!("sending request: {e}"))?;
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n{body}",
        body.len(),
        client_auth_header(token)
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("sending request: {e}"))?;
    ftsim_chaos::io()
        .gate(fp::HTTP_CLIENT_RECV)
        .map_err(|e| format!("reading response: {e}"))?;
    Ok(stream)
}

/// One request attempt. The body is read to EOF (every server response
/// carries `Connection: close`).
fn http_request_once(
    addr: &str,
    token: Option<&str>,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = send_request(addr, token, method, path, body)?;
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("reading response: {e}"))?;
    split_response(&response)
}

fn split_response(response: &str) -> Result<(u16, String), String> {
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or("malformed response (no header/body break)")?;
    let code = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    Ok((code, body.to_string()))
}

/// Performs a streaming GET, invoking `on_line` for each body line as
/// it arrives (used by `results --watch` over `--remote`). Stops early
/// when `on_line` returns `false` (e.g. a broken downstream pipe).
///
/// Transport failures *before the first body line* are retried under
/// [`client_backoff`] — once rows have been forwarded, a retry would
/// duplicate them, so a mid-stream failure is reported instead.
pub(crate) fn http_stream(
    addr: &str,
    token: Option<&str>,
    path: &str,
    on_line: &mut dyn FnMut(&str) -> bool,
) -> Result<u16, String> {
    with_retries(|| http_stream_once(addr, token, path, on_line))
}

/// One streaming attempt; failures carry whether any body line was
/// already delivered to `on_line` (which forbids a retry).
fn http_stream_once(
    addr: &str,
    token: Option<&str>,
    path: &str,
    on_line: &mut dyn FnMut(&str) -> bool,
) -> Result<u16, (bool, String)> {
    let fresh = |e: String| (false, e);
    let mut reader = BufReader::new(send_request(addr, token, "GET", path, None).map_err(fresh)?);
    // Head: read header lines until the blank one.
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| fresh(format!("reading status line: {e}")))?;
    let code: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| fresh("malformed status line".to_string()))?;
    loop {
        let mut header = String::new();
        let n = reader
            .read_line(&mut header)
            .map_err(|e| fresh(format!("reading headers: {e}")))?;
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    // Body: forward line by line until EOF or the sink gives up.
    let mut delivered = false;
    loop {
        let mut body_line = String::new();
        match reader.read_line(&mut body_line) {
            Ok(0) => return Ok(code),
            Ok(_) => {
                if !on_line(body_line.trim_end_matches(['\r', '\n'])) {
                    return Ok(code);
                }
                delivered = true;
            }
            Err(e) => return Err((delivered, format!("reading stream: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_comparison_matches_only_exact_credentials() {
        assert!(token_matches("s3cret", "s3cret"));
        assert!(!token_matches("s3cret", "s3cre"));
        assert!(!token_matches("s3cret", "s3creT"));
        assert!(!token_matches("s3cret", "s3cret-and-more"));
        assert!(!token_matches("s3cret", ""));
        assert!(token_matches("", ""));
    }

    #[test]
    fn response_splitting() {
        let (code, body) =
            split_response("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi").unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, "hi");
        assert!(split_response("garbage").is_err());
    }

    #[test]
    fn server_round_trip_over_a_real_socket() {
        let dir = std::env::temp_dir().join(format!("ftsimd-http-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = JobStore::open(&dir).unwrap();
        let server = HttpServer::bind(
            &store,
            "127.0.0.1:0",
            HttpLimits {
                max_body: 4 * 1024,
                head_timeout: Duration::from_millis(300),
            },
            None,
        )
        .unwrap();
        let addr = std::fs::read_to_string(store.http_addr_path()).unwrap();
        let stop = AtomicBool::new(false);
        // A failed assertion below must still stop the accept loop, or
        // the scope join would hang the test forever.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        std::thread::scope(|scope| {
            scope.spawn(|| server.run(&|| stop.load(Ordering::SeqCst), Duration::from_millis(10)));
            let _guard = StopOnDrop(&stop);

            // Submit over HTTP...
            let spec = "name = \"http-rt\"\nworkloads = [\"gcc\"]\nmodels = [\"SS-1\"]\nbudgets = [1000]\n";
            let (code, body) = http_request(&addr, None, "POST", "/jobs", Some(spec)).unwrap();
            assert_eq!(code, 200, "{body}");
            let doc = JsonValue::parse(&body).unwrap();
            let id = doc.get("id").unwrap().as_str().unwrap().to_string();
            assert_eq!(doc.get("created").unwrap().as_bool(), Some(true));

            // ...list and status see it...
            let (code, body) = http_request(&addr, None, "GET", "/jobs", None).unwrap();
            assert_eq!(code, 200);
            assert!(body.contains(&id));
            let (code, body) =
                http_request(&addr, None, "GET", &format!("/jobs/{id}/status"), None).unwrap();
            assert_eq!(code, 200);
            let doc = JsonValue::parse(&body).unwrap();
            assert_eq!(doc.get("state").unwrap().as_str(), Some("queued"));

            // ...a bad spec and a bad id are client errors...
            let (code, _) = http_request(&addr, None, "POST", "/jobs", Some("nope =")).unwrap();
            assert_eq!(code, 400);
            let (code, _) =
                http_request(&addr, None, "GET", "/jobs/0099-nope/status", None).unwrap();
            assert_eq!(code, 404);
            let (code, _) = http_request(&addr, None, "PUT", "/jobs", None).unwrap();
            assert_eq!(code, 405);

            // ...healthz reports fabric diagnostics...
            let (code, body) = http_request(&addr, None, "GET", "/healthz", None).unwrap();
            assert_eq!(code, 200);
            let doc = JsonValue::parse(&body).unwrap();
            assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
            assert_eq!(
                doc.get("version").unwrap().as_str(),
                Some(env!("CARGO_PKG_VERSION"))
            );
            assert!(doc.get("uptime_ms").unwrap().as_u64().is_some());
            assert_eq!(doc.get("jobs").unwrap().as_u64(), Some(1));
            assert_eq!(doc.get("live_claims").unwrap().as_u64(), Some(0));
            assert_eq!(doc.get("quarantined").unwrap().as_u64(), Some(0));
            assert_eq!(doc.get("watchdog_kills").unwrap().as_u64(), Some(0));
            assert!(doc.get("live_claims_by_submitter").is_some());
            assert!(doc.get("stale_leases_observed").is_some());
            assert!(doc.get("last_scheduler_pass_unix_ms").is_some());

            // ...an oversized body is refused with 413 before parsing...
            let big = "x".repeat(8 * 1024);
            let (code, _) = http_request(&addr, None, "POST", "/jobs", Some(&big)).unwrap();
            assert_eq!(code, 413);

            // ...a malformed request line gets 400, a slow-loris client
            // that never finishes its head gets 408...
            let mut raw = TcpStream::connect(&addr).unwrap();
            raw.write_all(b"NONSENSE\r\n\r\n").unwrap();
            let mut reply = String::new();
            raw.read_to_string(&mut reply).unwrap();
            assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
            let mut slow = TcpStream::connect(&addr).unwrap();
            slow.write_all(b"GET /jobs HT").unwrap(); // ...and stall
            let mut reply = String::new();
            slow.read_to_string(&mut reply).unwrap();
            assert!(reply.starts_with("HTTP/1.1 408"), "{reply}");

            // ...and a per-job stop pauses it.
            let (code, _) =
                http_request(&addr, None, "POST", &format!("/jobs/{id}/stop"), None).unwrap();
            assert_eq!(code, 200);
            let job = store.job(&id).unwrap();
            assert!(store.job_stop_requested(&job));
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}
