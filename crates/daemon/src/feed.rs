//! The read side of `ftsimd`: every verb that shows a job — `jobs`,
//! `status`, `results`, `report` and their `--watch` forms — reads it
//! through this module. The local CLI and the HTTP handlers only render
//! what it returns, so `ftsimd --remote` differs from a local run in
//! transport alone.
//!
//! * [`read_job`] is the canonical read: a done job's records come from
//!   its sealed `results.csv`, anything else's from the streamed
//!   `cells.csv` merged into grid order.
//! * [`watch`] is the one follow loop, writing to any [`Write`] sink
//!   (stdout, or the socket after the response head).
//! * [`jobs_doc`] and [`status_doc`] are the listing and per-job status
//!   documents `GET /jobs` serves and the CLI prints.

use crate::fabric::{family_progress, merged_records};
use crate::store::{io_err, DaemonError, Job, JobState, JobStatus, JobStore};
use ftsim::harness::{from_csv, from_csv_tolerant_prefix, to_csv, to_json, RunRecord};
use ftsim_chaos::retry::Backoff;
use ftsim_stats::JsonValue;
use std::collections::HashSet;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A job's status and its records in grid order, read once.
pub(crate) struct JobView {
    /// The status the records were read under.
    pub status: JobStatus,
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
        status,
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
        return merged_records(job, &store.load_spec(job)?);
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
    /// Bytes of `cells.csv` fully parsed; always on a record boundary.
    consumed: usize,
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
                Ok(vec![report_snapshot(status.state, &records)])
            }
        }
    }

    /// The records appended to `cells.csv` since the last poll, as CSV
    /// rows. Only the new suffix is parsed, so a poll costs O(new rows),
    /// and the tolerant loader leaves a torn tail row for a later poll.
    fn tail(&mut self, job: &Job) -> Result<Vec<String>, String> {
        let text =
            match ftsim_chaos::io().read(crate::failpoints::FABRIC_CELLS_READ, &job.cells_path()) {
                Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
                Err(e) => return Err(e.to_string()),
            };
        if text.len() <= self.consumed {
            return Ok(Vec::new());
        }
        let rows = if self.consumed == 0 {
            let (rows, parsed) = from_csv_tolerant_prefix(&text);
            self.consumed = parsed;
            rows
        } else {
            // Re-prefix the unparsed suffix with the header so it parses
            // standalone.
            let header = RunRecord::csv_header();
            let doc = format!("{header}\n{}", &text[self.consumed..]);
            let (rows, parsed) = from_csv_tolerant_prefix(&doc);
            self.consumed += parsed.saturating_sub(header.len() + 1);
            rows
        };
        Ok(rows
            .iter()
            .map(|r| {
                self.seen.insert(r.cell_label());
                r.to_csv_row()
            })
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
        consumed: 0,
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

/// One job's listing entry: status plus the spec's submitter and
/// priority. An unreadable status leaves `state` out and puts the read
/// error under `error`.
fn job_entry(store: &JobStore, job: &Job) -> Vec<(String, JsonValue)> {
    let (submitter, priority) = store
        .load_spec(job)
        .map(|s| (s.submitter, s.priority))
        .unwrap_or_default();
    let mut pairs = vec![("id".to_string(), JsonValue::Str(job.id.clone()))];
    match store.load_status(job) {
        Ok(s) => pairs.extend([
            ("state".to_string(), JsonValue::Str(s.state.to_string())),
            (
                "cells_done".to_string(),
                JsonValue::U64(s.cells_done as u64),
            ),
            (
                "cells_total".to_string(),
                JsonValue::U64(s.cells_total as u64),
            ),
            ("error".to_string(), JsonValue::Str(s.error)),
        ]),
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
    pairs
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
        .map(|job| JsonValue::Obj(job_entry(store, job)))
        .collect();
    Ok(JsonValue::obj([(
        "jobs".to_string(),
        JsonValue::Arr(entries),
    )]))
}

/// One job's status document: its listing entry plus per-family
/// progress, which is best-effort decoration — an old job whose spec no
/// longer resolves still shows its totals, without `families`.
pub(crate) fn status_doc(store: &JobStore, job: &Job) -> JsonValue {
    let mut doc = job_entry(store, job);
    if let Ok(families) = family_progress(store, job) {
        doc.push((
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
    JsonValue::Obj(doc)
}
