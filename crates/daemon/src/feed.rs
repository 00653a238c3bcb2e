//! One implementation per `ftsimd` verb: every verb that shows a job —
//! `jobs`, `status`, `results`, `report` and their `--watch` forms —
//! and every verb that changes the store or reads the fabric's trace —
//! `submit`, `stop` and `trace` — goes through this module. The local
//! CLI and the HTTP handlers only render what it returns, so
//! `ftsimd --remote` differs from a local run in transport alone.
//!
//! * [`read_job`] is the canonical read: a done job's records come from
//!   its sealed `results.csv`, anything else's from the streamed
//!   `cells.csv` merged into grid order.
//! * [`watch`] is the one follow loop, writing to any [`Write`] sink
//!   (stdout, or the socket after the response head).
//! * [`jobs_doc`] and [`status_doc`] are the listing and per-job status
//!   documents `GET /jobs` serves and the CLI prints.
//! * [`submit_doc`] and [`stop_doc`] are the answers of `POST /jobs`,
//!   `POST /stop` and `POST /jobs/<id>/stop`.
//! * [`JournalTail`] reads the trace journals: its first poll is the
//!   merged read [`trace_doc`] serves as `GET /trace`, and later polls
//!   are `trace --follow`.

use crate::fabric::{live_claims, progress, served};
use crate::log::{self, CellsTail};
use crate::spec::JobSpec;
use crate::store::{io_err, DaemonError, Job, JobState, JobStatus, JobStore};
use ftsim::harness::{from_csv, to_csv, to_json, RunRecord};
use ftsim_chaos::retry::Backoff;
use ftsim_obs::trace::{self, TraceEvent};
use ftsim_stats::JsonValue;
use std::collections::{HashMap, HashSet};
use std::io::{Read, Seek, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A job's served state and its records in grid order, read once.
pub(crate) struct JobView {
    /// The job's state as [`served`] serves it.
    pub state: JobState,
    /// The canonical records, in grid order.
    pub records: Vec<RunRecord>,
    /// Cells in the job's grid.
    pub total: usize,
}

/// The canonical read: the job's status, then its records in grid
/// order — the sealed `results.csv` of a done job, the merged streamed
/// records otherwise.
///
/// # Errors
///
/// [`DaemonError`] when the status, the spec or the records do not read.
pub(crate) fn read_job(store: &JobStore, job: &Job) -> Result<JobView, DaemonError> {
    let status = store.load_status(job)?;
    let (records, total) = canonical_records(store, job, status.state)?;
    Ok(JobView {
        state: served(store, job, &status, &live_claims(job)).state,
        records,
        total,
    })
}

/// The records [`read_job`] returns for a job seen in `state`, with the
/// grid's cell count.
fn canonical_records(
    store: &JobStore,
    job: &Job,
    state: JobState,
) -> Result<(Vec<RunRecord>, usize), DaemonError> {
    if state != JobState::Done {
        // The streamed records, newest row per cell, in grid order.
        let spec = store.load_spec(job)?;
        return log::with_log(job, &spec, |log| (log.records(), log.total()));
    }
    // A finished job's artifact is canonical — byte-identical to what
    // the one-shot Experiment would serialize, and the only record set
    // left once GC has dropped `cells.csv`.
    let path = job.results_path();
    let text =
        std::fs::read_to_string(&path).map_err(io_err(format!("reading {}", path.display())))?;
    let records = from_csv(&text).map_err(|e| DaemonError::Corrupt {
        path,
        message: e.to_string(),
    })?;
    let total = records.len();
    Ok((records, total))
}

/// One line of a `report --watch` stream: the job's state, how many
/// cells the snapshot covers, and the full analysis report, as one
/// compact JSON object.
fn report_snapshot(state: JobState, records: &[RunRecord]) -> String {
    JsonValue::obj([
        ("state".to_string(), JsonValue::Str(state.to_string())),
        ("cells".to_string(), JsonValue::U64(records.len() as u64)),
        (
            "report".to_string(),
            ftsim_analysis::analyze_records(records).to_json_value(),
        ),
    ])
    .render()
}

/// The retry budget a watch grants consecutive failed reads before it
/// gives up: 8 attempts, exponential from 25 ms, capped at 1 s.
fn watch_backoff() -> Backoff {
    Backoff::new(Duration::from_millis(25), Duration::from_secs(1), 8)
}

/// A record-reading verb: what [`render`] prints and what a [`watch`]
/// streams.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Verb {
    /// `results`: the records as grid-order CSV (or JSON). Watched: the
    /// CSV header, each record (in completion order) as it lands in
    /// `cells.csv`, then — at the terminal state — every canonical
    /// record the stream never carried.
    Results,
    /// `report`: the analysis report as text (or JSON). Watched: one
    /// compact JSON snapshot of the canonical record set per change in
    /// coverage, and always one at the terminal state.
    Report,
}

/// What a non-watch `results` / `report` prints for `records`.
pub(crate) fn render(records: &[RunRecord], verb: Verb, json: bool) -> String {
    match (verb, json) {
        (Verb::Results, true) => to_json(records),
        (Verb::Results, false) => to_csv(records),
        (Verb::Report, true) => ftsim_analysis::analyze_records(records).to_json(),
        (Verb::Report, false) => ftsim_analysis::analyze_records(records).render(),
    }
}

/// How a watch that saw its job reach a terminal state ended.
pub(crate) struct WatchEnd {
    /// The terminal state.
    pub state: JobState,
    /// Lines written after the CSV header, backfill included.
    pub rows: usize,
    /// Rows written by the terminal backfill.
    pub backfilled: usize,
}

/// Per-watch state between polls.
struct Feed {
    verb: Verb,
    /// Where the results feed stands in `cells.csv`.
    tail: CellsTail,
    /// Labels of the records streamed so far.
    seen: HashSet<String>,
    /// Record coverage of the last report snapshot written.
    last_cells: Option<usize>,
}

impl Feed {
    /// The lines one poll of a job with `status` owes the sink. An
    /// error is read trouble, retried under [`watch_backoff`].
    fn poll(
        &mut self,
        store: &JobStore,
        job: &Job,
        status: &JobStatus,
    ) -> Result<Vec<String>, String> {
        match self.verb {
            Verb::Results => self.tail(job),
            Verb::Report => {
                let (records, _) =
                    canonical_records(store, job, status.state).map_err(|e| e.to_string())?;
                if !status.terminal() && self.last_cells == Some(records.len()) {
                    return Ok(Vec::new());
                }
                self.last_cells = Some(records.len());
                let state = served(store, job, status, &live_claims(job)).state;
                Ok(vec![report_snapshot(state, &records)])
            }
        }
    }

    /// The records appended to `cells.csv` since the last poll, as CSV
    /// rows. Only the new suffix is parsed, so a poll costs O(new rows),
    /// and a torn tail row is left for a later poll. Should the tail have
    /// to start over (the file shrank or was replaced), rows already
    /// streamed are not streamed again.
    fn tail(&mut self, job: &Job) -> Result<Vec<String>, String> {
        let tail = self
            .tail
            .read(&job.cells_path())
            .map_err(|e| e.to_string())?;
        Ok(tail
            .records
            .iter()
            .filter(|r| self.seen.insert(r.cell_label()) || !tail.from_start)
            .map(RunRecord::to_csv_row)
            .collect())
    }

    /// The rows a results watch owes after the terminal state: every
    /// canonical record it never streamed — cells resumed from an
    /// earlier run, or a `cells.csv` GC already sealed into
    /// `results.csv`. Best effort: a job whose records do not read (a
    /// failed job's unresolvable spec) has nothing to add.
    fn backfill(&self, store: &JobStore, job: &Job, state: JobState) -> Vec<String> {
        if !matches!(self.verb, Verb::Results) {
            return Vec::new();
        }
        canonical_records(store, job, state)
            .map(|(records, _)| {
                records
                    .iter()
                    .filter(|r| !self.seen.contains(&r.cell_label()))
                    .map(RunRecord::to_csv_row)
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Writes `lines` and flushes; `false` once the sink has closed.
fn emit(out: &mut dyn Write, lines: &[String]) -> bool {
    lines.iter().all(|line| writeln!(out, "{line}").is_ok()) && out.flush().is_ok()
}

/// Follows a job until it reaches a terminal state, writing what
/// `verb` streams to `out` and polling every `poll`.
///
/// Each poll reads the status first and the records second: anything
/// streamed before a terminal status was set is seen by that poll's
/// read, so no record slips between the last poll and exit. Read
/// trouble (a flaky disk, an injected `eio@store.read_status`) backs
/// off under [`watch_backoff`], and a clean poll resets the budget.
///
/// Returns `Ok(Some(_))` after the terminal state's output, `Ok(None)`
/// when the sink closed or `stopped` was raised (a daemon shutting
/// down) first — neither is an error.
///
/// # Errors
///
/// The last read error, once the retry budget is exhausted.
pub(crate) fn watch(
    store: &JobStore,
    job: &Job,
    verb: Verb,
    poll: Duration,
    stopped: &AtomicBool,
    out: &mut dyn Write,
) -> Result<Option<WatchEnd>, String> {
    if matches!(verb, Verb::Results) && !emit(out, &[RunRecord::csv_header()]) {
        return Ok(None);
    }
    let mut feed = Feed {
        verb,
        tail: CellsTail::default(),
        seen: HashSet::new(),
        last_cells: None,
    };
    let mut rows = 0usize;
    let mut backoff = watch_backoff();
    loop {
        let polled = store
            .load_status(job)
            .map_err(|e| e.to_string())
            .and_then(|status| Ok((feed.poll(store, job, &status)?, status)));
        let (lines, status) = match polled {
            Ok(polled) => polled,
            Err(e) => match backoff.next_delay() {
                Some(delay) => {
                    std::thread::sleep(delay);
                    continue;
                }
                None => {
                    return Err(format!(
                        "watching {}: {e} (after {} consecutive failed reads)",
                        job.id,
                        backoff.attempts()
                    ))
                }
            },
        };
        backoff = watch_backoff();
        if !emit(out, &lines) {
            return Ok(None);
        }
        rows += lines.len();
        if status.terminal() {
            let backfill = feed.backfill(store, job, status.state);
            if !emit(out, &backfill) {
                return Ok(None);
            }
            return Ok(Some(WatchEnd {
                state: status.state,
                rows: rows + backfill.len(),
                backfilled: backfill.len(),
            }));
        }
        if stopped.load(Ordering::SeqCst) {
            return Ok(None);
        }
        std::thread::sleep(poll);
    }
}

/// One job's listing entry: its [`served`] state and error, the
/// cells-done count from [`progress`], plus the spec's submitter and
/// priority; with `by_family`, also the per-family progress, which is
/// best-effort decoration — an old job whose spec no longer resolves
/// still shows its totals, without `families`. The spec and the status
/// are read once. An unreadable status leaves `state` out and puts the
/// read error under `error`.
fn job_entry(store: &JobStore, job: &Job, by_family: bool) -> JsonValue {
    let (spec, status) = (store.load_spec(job).ok(), store.load_status(job));
    let progress = progress(job, spec.as_ref(), status.as_ref().ok(), by_family);
    let (submitter, priority) = spec.map(|s| (s.submitter, s.priority)).unwrap_or_default();
    let mut pairs = vec![("id".to_string(), JsonValue::Str(job.id.clone()))];
    match status {
        Ok(s) => {
            let shown = served(store, job, &s, &live_claims(job));
            pairs.extend([
                ("state".to_string(), JsonValue::Str(shown.state.to_string())),
                (
                    "cells_done".to_string(),
                    JsonValue::U64(progress.done as u64),
                ),
                (
                    "cells_total".to_string(),
                    JsonValue::U64(s.cells_total as u64),
                ),
                ("error".to_string(), JsonValue::Str(shown.error)),
            ])
        }
        Err(e) => pairs.push(("error".to_string(), JsonValue::Str(e.to_string()))),
    }
    pairs.extend([
        ("submitter".to_string(), JsonValue::Str(submitter)),
        ("priority".to_string(), JsonValue::I64(priority)),
        (
            "paused".to_string(),
            JsonValue::Bool(store.job_stop_requested(job)),
        ),
    ]);
    if let Some(families) = progress.families {
        pairs.push((
            "families".to_string(),
            JsonValue::Arr(
                families
                    .iter()
                    .map(|f| {
                        JsonValue::obj([
                            (
                                "workload".to_string(),
                                JsonValue::Str(f.family.workload.clone()),
                            ),
                            ("budget".to_string(), JsonValue::U64(f.family.budget)),
                            ("model".to_string(), JsonValue::Str(f.family.model.clone())),
                            ("done".to_string(), JsonValue::U64(f.done as u64)),
                            ("total".to_string(), JsonValue::U64(f.total as u64)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    JsonValue::Obj(pairs)
}

/// The job listing: `{"jobs": [entry, ...]}` in submission order.
///
/// # Errors
///
/// [`DaemonError`] when the jobs directory does not list.
pub(crate) fn jobs_doc(store: &JobStore) -> Result<JsonValue, DaemonError> {
    let entries = store
        .jobs()?
        .iter()
        .map(|job| job_entry(store, job, false))
        .collect();
    Ok(JsonValue::obj([(
        "jobs".to_string(),
        JsonValue::Arr(entries),
    )]))
}

/// One job's status document: its listing entry plus per-family
/// progress.
pub(crate) fn status_doc(store: &JobStore, job: &Job) -> JsonValue {
    job_entry(store, job, true)
}

/// Submits (or attaches to) the job `text` specifies: the
/// `{"id", "created", "cells_total"}` document `POST /jobs` answers and
/// `ftsimd submit` prints the id of.
///
/// # Errors
///
/// [`DaemonError`] when the spec does not parse or resolve, the
/// submitter is over quota, or the store does not write.
pub(crate) fn submit_doc(store: &JobStore, text: &str) -> Result<JsonValue, DaemonError> {
    let (id, created) = store.submit(&JobSpec::parse(text)?)?;
    let cells = store
        .job(&id)
        .and_then(|job| store.load_status(&job))
        .map_or(0, |s| s.cells_total as u64);
    Ok(JsonValue::obj([
        ("id".to_string(), JsonValue::Str(id)),
        ("created".to_string(), JsonValue::Bool(created)),
        ("cells_total".to_string(), JsonValue::U64(cells)),
    ]))
}

/// Pauses job `id`, or — with no id — asks the fabric's serving
/// daemons to shut down: `{"paused": id}` or `{"stopping": true}`, as
/// `POST /jobs/<id>/stop` and `POST /stop` answer.
///
/// # Errors
///
/// [`DaemonError::NoSuchJob`] for an unknown id, [`DaemonError::Io`]
/// when the sentinel does not write.
pub(crate) fn stop_doc(store: &JobStore, id: Option<&str>) -> Result<JsonValue, DaemonError> {
    Ok(match id {
        None => {
            store.request_stop()?;
            JsonValue::obj([("stopping".to_string(), JsonValue::Bool(true))])
        }
        Some(id) => {
            let job = store.job(id)?;
            store.request_job_stop(&job, "")?;
            JsonValue::obj([("paused".to_string(), JsonValue::Str(job.id))])
        }
    })
}

/// A journal's identity: its device and inode, or its path where the
/// platform has no file ids. A rotation renames `X.ndjson` to
/// `X.ndjson.1`, so a path would name a different file after it.
type JournalId = Result<(u64, u64), PathBuf>;

/// Where a reader stands in every NDJSON trace journal under a
/// directory (`<state>/trace/`, the rotated `.ndjson.1` generations
/// included). Offsets are keyed by file identity, so a journal renamed
/// aside is read on from where it was left, not again from its start.
pub(crate) struct JournalTail {
    dir: PathBuf,
    consumed: HashMap<JournalId, u64>,
}

impl JournalTail {
    /// A tail over `dir` that has read nothing yet.
    pub(crate) fn new(dir: PathBuf) -> Self {
        Self {
            dir,
            consumed: HashMap::new(),
        }
    }

    /// The events appended since the last poll — on the first poll,
    /// every event — merged across journals by timestamp. Only whole
    /// lines are consumed, so an append caught mid-write is read whole
    /// by the next poll. Damaged lines, like the torn tail of a crashed
    /// process's journal, are skipped, not errors. A journal that
    /// shrank is read again from its start.
    pub(crate) fn poll(&mut self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        let mut seen = HashMap::new();
        for entry in std::fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            let path = entry.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !name.contains(".ndjson") {
                continue;
            }
            let Ok(mut file) = std::fs::File::open(&path) else {
                continue;
            };
            let Ok(meta) = file.metadata() else { continue };
            let id = ftsim_stats::csv::file_id(&meta).ok_or_else(|| path.clone());
            let known = self.consumed.get(&id).copied();
            let at = known.filter(|&at| at <= meta.len()).unwrap_or(0);
            let mut bytes = Vec::new();
            let _ = file
                .seek(std::io::SeekFrom::Start(at))
                .and_then(|_| file.read_to_end(&mut bytes));
            let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            events.extend(
                String::from_utf8_lossy(&bytes[..whole])
                    .lines()
                    .filter_map(TraceEvent::parse_line),
            );
            seen.insert(id, at + whole as u64);
        }
        // Journals gone from the directory are forgotten, so a recycled
        // inode starts from zero.
        self.consumed = seen;
        events.sort_by_key(|e| e.ts_ms);
        events
    }
}

/// NDJSON lines, one per event, as `GET /trace` and `ftsimd trace`
/// print them.
pub(crate) fn render_events(events: &[TraceEvent]) -> String {
    events
        .iter()
        .map(|e| format!("{}\n", e.render_line()))
        .collect()
}

/// The `n` most recent span events across the whole fabric from
/// `tail`'s first poll — or, when no journal exists yet, this process's
/// in-memory ring — one JSON object per line, oldest first.
pub(crate) fn trace_doc(tail: &mut JournalTail, n: usize) -> String {
    let mut events = tail.poll();
    if events.is_empty() {
        events = trace::recent(n);
    }
    render_events(&events[events.len().saturating_sub(n)..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(ts_ms: u64, detail: &str) -> TraceEvent {
        TraceEvent {
            ts_ms,
            ..TraceEvent::new("cell", "job", "label", detail)
        }
    }

    fn append(path: &std::path::Path, events: &[TraceEvent]) {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap();
        f.write_all(render_events(events).as_bytes()).unwrap();
    }

    fn details(events: &[TraceEvent]) -> Vec<&str> {
        events.iter().map(|e| e.detail.as_str()).collect()
    }

    /// The sink rotates `X.ndjson` to `X.ndjson.1` and starts a fresh
    /// `X.ndjson`: a follow prints every new event exactly once, and
    /// nothing from before it started.
    #[test]
    fn journal_tail_reads_each_event_once_across_rotations() {
        let dir = std::env::temp_dir().join(format!("ftsimd-feed-tail-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let live = dir.join("owner.ndjson");
        let rotated = dir.join("owner.ndjson.1");
        let other = dir.join("peer.ndjson");
        append(&live, &[event(1, "a1"), event(3, "a3")]);
        append(&other, &[event(2, "b2")]);

        let mut tail = JournalTail::new(dir.clone());
        // The first poll is the merged read.
        assert_eq!(details(&tail.poll()), ["a1", "b2", "a3"]);
        assert!(tail.poll().is_empty(), "nothing new");

        // An append, a rotation, a fresh journal; a torn line waits.
        append(&live, &[event(4, "a4")]);
        std::fs::rename(&live, &rotated).unwrap();
        append(&live, &[event(6, "a6")]);
        append(&other, &[event(5, "b5")]);
        std::fs::OpenOptions::new()
            .append(true)
            .open(&other)
            .unwrap()
            .write_all(b"{\"ts_ms\": 7")
            .unwrap();
        assert_eq!(details(&tail.poll()), ["a4", "b5", "a6"]);

        // A second rotation replaces the old generation.
        append(&live, &[event(8, "a8")]);
        std::fs::rename(&live, &rotated).unwrap();
        append(&live, &[event(9, "a9")]);
        assert_eq!(details(&tail.poll()), ["a8", "a9"]);
        assert!(tail.poll().is_empty(), "nothing new");
        std::fs::remove_dir_all(&dir).ok();
    }
}
