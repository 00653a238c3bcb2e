//! The persistent job store: a state directory holding the queue.
//!
//! Everything the daemon knows lives in one directory tree, so jobs
//! survive restarts and crashes, and every state transition is visible
//! to `ftsimd status` while a sweep runs (its progress is read from
//! `cells.csv`):
//!
//! ```text
//! <state>/
//!   stop                      # graceful-shutdown sentinel (ftsimd stop)
//!   http.addr                 # bound HTTP address (serve --listen)
//!   quarantine/               # corrupt state files + .reason sidecars
//!   jobs/
//!     0001-fig6-mini/
//!       spec.json             # canonical job spec (JobSpec::to_json)
//!       status.json           # queued, done or failed; written atomically
//!       cells.csv             # incremental results, append-safe
//!       results.csv           # final records in grid order (done jobs)
//!       results.json          # same records as JSON (done jobs)
//!       stop                  # per-job pause sentinel, holds the reason
//!       claims/               # fabric claim leases, one per family
//!         gcc-4000-ss-2.lease
//! ```
//!
//! `status.json` is always replaced via write-to-temp + rename, so a
//! reader never sees a torn status; `cells.csv` is an
//! [`ftsim_stats::csv::AppendWriter`] log, so a killed daemon loses at
//! most the row in flight and the next `serve` resumes from the rest (a
//! crashed machine, at most the rows of the claims in flight: each claim
//! syncs its rows once, when it ends).

use crate::failpoints as fp;
use crate::spec::{JobSpec, SpecError};
use ftsim_obs::metrics;
use ftsim_stats::JsonValue;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Counts one read of a job's `spec.json` (`file = "spec"`) or
/// `status.json` (`"status"`) by this process.
fn count_meta_read(file: &str) {
    const FILES: [&str; 2] = ["spec", "status"];
    static READS: OnceLock<[metrics::Counter; 2]> = OnceLock::new();
    let reads = READS.get_or_init(|| {
        FILES.map(|f| metrics::counter("ftsimd_job_meta_reads_total", &[("file", f)]))
    });
    let at = FILES.iter().position(|&f| f == file);
    reads[at.expect("a job metadata file")].inc();
}

/// Daemon-level failure: I/O on the state directory, an unreadable
/// spec/status document, or a job that does not exist.
#[derive(Debug)]
pub enum DaemonError {
    /// Filesystem trouble, tagged with the path involved.
    Io {
        /// What the daemon was doing.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A spec failed to parse or resolve.
    Spec(SpecError),
    /// A grid failed validation (empty axis, invalid model…).
    Experiment(ftsim::harness::ExperimentError),
    /// A job id that is not in the store.
    NoSuchJob(String),
    /// A persisted document (status.json) that does not parse.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What was wrong.
        message: String,
    },
    /// A submission rejected by admission control: the submitter is over
    /// one of their per-tenant quotas. Maps to HTTP 429 with a
    /// `Retry-After` header.
    QuotaExceeded {
        /// The tenant label the quota applies to.
        submitter: String,
        /// Which limit tripped, human-readable.
        reason: String,
        /// Suggested wait before retrying, in seconds.
        retry_after_secs: u64,
    },
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::Io { context, source } => write!(f, "{context}: {source}"),
            DaemonError::Spec(e) => write!(f, "{e}"),
            DaemonError::Experiment(e) => write!(f, "invalid grid: {e}"),
            DaemonError::NoSuchJob(id) => write!(f, "no such job `{id}`"),
            DaemonError::Corrupt { path, message } => {
                write!(f, "corrupt state file {}: {message}", path.display())
            }
            DaemonError::QuotaExceeded {
                submitter,
                reason,
                retry_after_secs,
            } => {
                let who = if submitter.is_empty() {
                    "<anonymous>"
                } else {
                    submitter
                };
                write!(
                    f,
                    "quota exceeded for submitter `{who}`: {reason} (retry after {retry_after_secs}s)"
                )
            }
        }
    }
}

impl std::error::Error for DaemonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DaemonError::Io { source, .. } => Some(source),
            DaemonError::Spec(e) => Some(e),
            DaemonError::Experiment(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpecError> for DaemonError {
    fn from(e: SpecError) -> Self {
        DaemonError::Spec(e)
    }
}

impl From<ftsim::harness::ExperimentError> for DaemonError {
    fn from(e: ftsim::harness::ExperimentError) -> Self {
        DaemonError::Experiment(e)
    }
}

/// Tags an [`io::Error`] with what the daemon was doing.
pub(crate) fn io_err(context: impl Into<String>) -> impl FnOnce(io::Error) -> DaemonError {
    let context = context.into();
    move |source| DaemonError::Io { context, source }
}

/// A job's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted and not terminal: waiting for a worker, or being run.
    Queued,
    /// A queued job on which a live claim is held. This state is served,
    /// never persisted: every reader computes it from the job's claim
    /// leases, so a dead worker's job reads queued again once its lease
    /// expires.
    Running,
    /// Every cell has a record; `results.csv`/`results.json` are final.
    Done,
    /// The job itself is unrunnable (bad spec/grid) — distinct from
    /// individual cells failing, which still yields a `Done` job whose
    /// records carry per-cell errors.
    Failed,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            _ => return None,
        })
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A job's persisted status document: a lifecycle record, rewritten
/// only on a transition. It carries no progress count; how many cells
/// have a record is read from the job's `cells.csv`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Lifecycle state.
    pub state: JobState,
    /// Total grid cells in the job.
    pub cells_total: usize,
    /// Failure message for [`JobState::Failed`] jobs; empty otherwise.
    pub error: String,
    /// When the job was submitted (ms since the Unix epoch, lease
    /// clock); `0` for statuses written before timestamps existed.
    /// The TTL garbage-collection clock starts here.
    pub created_unix_ms: u64,
    /// When the job reached a terminal state (ms since the Unix epoch);
    /// `0` while live. The retention clock starts here.
    pub finished_unix_ms: u64,
}

impl JobStatus {
    /// A freshly submitted job of `cells_total` cells, created now.
    pub(crate) fn queued(cells_total: usize) -> Self {
        Self {
            state: JobState::Queued,
            cells_total,
            error: String::new(),
            created_unix_ms: ftsim_chaos::io().now_ms(),
            finished_unix_ms: 0,
        }
    }

    /// Whether the job is in a terminal state (done or failed) — the
    /// precondition for TTL/retention garbage collection.
    pub fn terminal(&self) -> bool {
        matches!(self.state, JobState::Done | JobState::Failed)
    }

    fn to_json(&self) -> String {
        JsonValue::obj([
            (
                "state".to_string(),
                JsonValue::Str(self.state.as_str().to_string()),
            ),
            (
                "cells_total".to_string(),
                JsonValue::U64(self.cells_total as u64),
            ),
            ("error".to_string(), JsonValue::Str(self.error.clone())),
            (
                "created_unix_ms".to_string(),
                JsonValue::U64(self.created_unix_ms),
            ),
            (
                "finished_unix_ms".to_string(),
                JsonValue::U64(self.finished_unix_ms),
            ),
        ])
        .render_pretty(2)
    }

    fn from_json(text: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let field = |name: &str| doc.get(name).ok_or_else(|| format!("missing `{name}`"));
        let state = match field("state")?.as_str().and_then(JobState::parse) {
            // Older daemons persisted `running`; who runs a job is read
            // from its claims now.
            Some(JobState::Running) => JobState::Queued,
            Some(state) => state,
            None => return Err("bad `state`".to_string()),
        };
        let cells_total = field("cells_total")?
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or("bad `cells_total`")?;
        // Timestamps were added later: statuses written by older daemons
        // lack them, and must keep parsing (0 = unknown, never GC'd by
        // the retention clock alone). Older daemons also wrote a
        // `cells_done` count, which is ignored.
        let stamp = |name: &str| doc.get(name).and_then(|v| v.as_u64()).unwrap_or(0);
        Ok(Self {
            state,
            cells_total,
            error: field("error")?.as_str().unwrap_or_default().to_string(),
            created_unix_ms: stamp("created_unix_ms"),
            finished_unix_ms: stamp("finished_unix_ms"),
        })
    }
}

/// Per-submitter admission-control limits, persisted at
/// `<state>/quota.json` so every ingress path — local `submit`, the HTTP
/// `POST /jobs` — enforces the same policy. Each limit applies to one
/// submitter's aggregate footprint; `0` disables that limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuotaPolicy {
    /// Maximum live (queued or running) jobs per submitter.
    pub max_live_jobs: u64,
    /// Maximum unfinished cells across a submitter's live jobs,
    /// counting the incoming job's own grid.
    pub max_queued_cells: u64,
    /// Maximum bytes of state-directory footprint across a submitter's
    /// job directories.
    pub max_state_bytes: u64,
}

impl QuotaPolicy {
    /// Whether every limit is disabled (the default open-door policy).
    pub fn unlimited(&self) -> bool {
        *self == QuotaPolicy::default()
    }

    fn to_json(self) -> String {
        JsonValue::obj([
            (
                "max_live_jobs".to_string(),
                JsonValue::U64(self.max_live_jobs),
            ),
            (
                "max_queued_cells".to_string(),
                JsonValue::U64(self.max_queued_cells),
            ),
            (
                "max_state_bytes".to_string(),
                JsonValue::U64(self.max_state_bytes),
            ),
        ])
        .render_pretty(2)
    }

    fn from_json(text: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let limit = |name: &str| -> Result<u64, String> {
            match doc.get(name) {
                None => Ok(0),
                Some(v) => v.as_u64().ok_or_else(|| format!("bad `{name}`")),
            }
        };
        Ok(Self {
            max_live_jobs: limit("max_live_jobs")?,
            max_queued_cells: limit("max_queued_cells")?,
            max_state_bytes: limit("max_state_bytes")?,
        })
    }
}

/// A handle to one job's state directory.
#[derive(Debug, Clone)]
pub struct Job {
    /// The job id (`NNNN-name`), also the directory name.
    pub id: String,
    dir: PathBuf,
}

impl Job {
    /// The job's state directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the canonical spec document.
    pub fn spec_path(&self) -> PathBuf {
        self.dir.join("spec.json")
    }

    /// Path of the atomically-replaced status document.
    pub fn status_path(&self) -> PathBuf {
        self.dir.join("status.json")
    }

    /// Path of the incremental (append-safe, completion-order) results.
    pub fn cells_path(&self) -> PathBuf {
        self.dir.join("cells.csv")
    }

    /// Path of the final grid-order CSV (exists once the job is done).
    pub fn results_path(&self) -> PathBuf {
        self.dir.join("results.csv")
    }

    /// Path of the final grid-order JSON (exists once the job is done).
    pub fn results_json_path(&self) -> PathBuf {
        self.dir.join("results.json")
    }

    /// Directory of the fabric's per-family claim leases. Living inside
    /// the job directory means `remove` and `--fresh` re-submissions
    /// clean claims up with everything else.
    pub fn claims_dir(&self) -> PathBuf {
        self.dir.join("claims")
    }

    /// Path of the per-job pause sentinel (`ftsimd stop <JOB>`).
    pub fn stop_path(&self) -> PathBuf {
        self.dir.join("stop")
    }

    /// Path of the best-effort per-cell stage-profile sidecar, appended
    /// when `FTSIM_PROFILE=1` is set on the worker (`ftsimd profile`).
    pub fn profile_path(&self) -> PathBuf {
        self.dir.join("profile.csv")
    }
}

/// The daemon's persistent state directory: a queue of jobs plus the
/// graceful-shutdown sentinel.
///
/// All mutation goes through atomic filesystem operations (append-only
/// logs, write-temp-then-rename documents), so any number of `ftsimd`
/// CLI invocations can inspect the store while one daemon serves it.
#[derive(Debug, Clone)]
pub struct JobStore {
    root: PathBuf,
}

impl JobStore {
    /// Opens (creating as needed) a state directory.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] when the directories cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, DaemonError> {
        let root = root.into();
        ftsim_chaos::io()
            .create_dir_all(fp::STORE_STATE_CREATE, &root.join("jobs"))
            .map_err(io_err(format!("creating state dir {}", root.display())))?;
        Ok(Self { root })
    }

    /// The state directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn jobs_dir(&self) -> PathBuf {
        self.root.join("jobs")
    }

    fn stop_path(&self) -> PathBuf {
        self.root.join("stop")
    }

    /// Path of the bound-HTTP-address document written by
    /// `serve --listen` (how clients and tests discover a `:0` bind).
    pub fn http_addr_path(&self) -> PathBuf {
        self.root.join("http.addr")
    }

    /// Path of the persisted admission-control policy.
    pub fn quota_path(&self) -> PathBuf {
        self.root.join("quota.json")
    }

    /// Directory of the per-process NDJSON trace journals (`ftsimd
    /// trace`, `GET /trace`). One file per fabric owner; merged on read.
    pub fn trace_dir(&self) -> PathBuf {
        self.root.join("trace")
    }

    /// Loads the admission-control policy; a missing file means no
    /// limits.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] or [`DaemonError::Corrupt`] — a policy that
    /// exists but does not parse must fail loudly rather than silently
    /// dropping the operator's limits.
    pub fn quota_policy(&self) -> Result<QuotaPolicy, DaemonError> {
        let path = self.quota_path();
        let text = match ftsim_chaos::io().read_to_string(fp::STORE_QUOTA_READ, &path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(QuotaPolicy::default()),
            Err(e) => return Err(io_err(format!("reading {}", path.display()))(e)),
        };
        QuotaPolicy::from_json(&text).map_err(|message| DaemonError::Corrupt { path, message })
    }

    /// Persists the admission-control policy atomically.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`].
    pub fn set_quota_policy(&self, policy: &QuotaPolicy) -> Result<(), DaemonError> {
        write_atomic(
            fp::STORE_QUOTA_WRITE,
            &self.quota_path(),
            policy.to_json().as_bytes(),
        )
    }

    /// Admission control for a new job: rejects the submission when the
    /// submitter's aggregate footprint (live jobs, queued cells including
    /// the incoming grid, state-directory bytes) would exceed the
    /// persisted [`QuotaPolicy`]. Attach-to-existing is never gated — it
    /// adds no state.
    fn admit(&self, spec: &JobSpec, new_cells: u64, jobs: &[Job]) -> Result<(), DaemonError> {
        let policy = self.quota_policy()?;
        if policy.unlimited() {
            return Ok(());
        }
        let mut live_jobs = 0u64;
        let mut queued_cells = new_cells;
        let mut state_bytes = 0u64;
        for job in jobs {
            let Ok(existing) = self.load_spec(job) else {
                // A specless job dir (crash mid-submit) is parked failed;
                // it cannot be attributed to anyone and never counts.
                continue;
            };
            if existing.submitter != spec.submitter {
                continue;
            }
            state_bytes = state_bytes.saturating_add(dir_size(job.dir()));
            match self.load_status(job) {
                Ok(status) if status.terminal() => {}
                Ok(status) => {
                    live_jobs += 1;
                    let done = crate::fabric::progress(job, Some(&existing), Some(&status), false);
                    queued_cells = queued_cells
                        .saturating_add(status.cells_total.saturating_sub(done.done) as u64);
                }
                // An unreadable status is conservatively live: the
                // scheduler will rebuild it, and under-admitting beats
                // letting a tenant smuggle work past a corrupt file.
                Err(_) => live_jobs += 1,
            }
        }
        let over = |reason: String| {
            Err(DaemonError::QuotaExceeded {
                submitter: spec.submitter.clone(),
                reason,
                retry_after_secs: QUOTA_RETRY_AFTER_SECS,
            })
        };
        if policy.max_live_jobs > 0 && live_jobs >= policy.max_live_jobs {
            return over(format!(
                "{live_jobs} live jobs at the limit of {}",
                policy.max_live_jobs
            ));
        }
        if policy.max_queued_cells > 0 && queued_cells > policy.max_queued_cells {
            return over(format!(
                "{queued_cells} queued cells (including this grid) over the limit of {}",
                policy.max_queued_cells
            ));
        }
        if policy.max_state_bytes > 0 && state_bytes >= policy.max_state_bytes {
            return over(format!(
                "{state_bytes} state bytes at the limit of {}",
                policy.max_state_bytes
            ));
        }
        Ok(())
    }

    /// Submits a job, or **attaches** to an existing one: if some job in
    /// the store has a byte-identical canonical spec, its id is returned
    /// with `created == false` instead of duplicating the work (this is
    /// what makes re-running a submission script incremental). Returns
    /// `(job_id, created)`.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Spec`]/[`DaemonError::Experiment`] when the spec
    /// does not resolve to a valid grid (rejected at submit time, not
    /// discovered mid-queue), or [`DaemonError::Io`].
    pub fn submit(&self, spec: &JobSpec) -> Result<(String, bool), DaemonError> {
        // Reject unrunnable jobs now, while the submitter is watching.
        let cells_total = ftsim::harness::Grid::new(&spec.to_experiment()?)?.cells();
        let canonical = spec.to_json();

        let jobs = self.jobs()?;
        for job in &jobs {
            // A job whose spec cannot be read (crash mid-submit, or the
            // spec was quarantined) never matches; it must not block
            // every future submission.
            let Ok(existing) =
                ftsim_chaos::io().read_to_string(fp::STORE_READ_SPEC, &job.spec_path())
            else {
                continue;
            };
            if existing == canonical {
                // Re-submitting a paused job un-pauses it: attaching is
                // the explicit "I want this to run" signal.
                self.clear_job_stop(job)?;
                return Ok((job.id.clone(), false));
            }
        }

        // Admission control: a brand-new job must fit its submitter's
        // quota (attaching, above, adds no state and is always allowed).
        self.admit(spec, cells_total as u64, &jobs)?;

        let next = jobs
            .iter()
            .filter_map(|j| j.id.split('-').next()?.parse::<u64>().ok())
            .max()
            .unwrap_or(0)
            + 1;
        // Claim the id with an exclusive `create_dir`: a concurrent
        // submitter racing for the same number loses the create and we
        // retry with the next one, instead of both writing into one
        // directory.
        let job = 'claimed: {
            for attempt in 0..64u64 {
                let id = format!("{:04}-{}", next + attempt, slug(&spec.name));
                let dir = self.jobs_dir().join(&id);
                match ftsim_chaos::io().create_dir(fp::STORE_JOB_DIR_CREATE, &dir) {
                    Ok(()) => break 'claimed Job { id, dir },
                    Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                    Err(e) => return Err(io_err(format!("creating {}", dir.display()))(e)),
                }
            }
            return Err(DaemonError::Io {
                context: "allocating a job id".to_string(),
                source: io::Error::new(io::ErrorKind::AlreadyExists, "64 consecutive ids taken"),
            });
        };
        let id = job.id.clone();
        // Atomic temp+rename: a crash mid-submit leaves either no spec (an
        // empty dir the scheduler ignores) or a complete one — never a
        // torn spec that would wedge the queue.
        write_atomic(fp::STORE_WRITE_SPEC, &job.spec_path(), canonical.as_bytes())?;
        self.write_status(&job, &JobStatus::queued(cells_total))?;
        Ok((id, true))
    }

    /// Removes a job and all its state (spec, streamed and final
    /// results). Used by `--fresh` re-submissions.
    ///
    /// # Errors
    ///
    /// [`DaemonError::NoSuchJob`] or [`DaemonError::Io`].
    pub fn remove(&self, id: &str) -> Result<(), DaemonError> {
        let job = self.job(id)?;
        ftsim_chaos::io()
            .remove_dir_all(fp::STORE_REMOVE_JOB, job.dir())
            .map_err(io_err(format!("removing {}", job.dir().display())))
    }

    /// All jobs, sorted by id (submission order).
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] when the jobs directory is unreadable.
    pub fn jobs(&self) -> Result<Vec<Job>, DaemonError> {
        let dir = self.jobs_dir();
        let mut jobs = Vec::new();
        let entries = ftsim_chaos::io()
            .list_dir(fp::STORE_LIST_JOBS, &dir)
            .map_err(io_err(format!("listing {}", dir.display())))?;
        for path in entries {
            if !path.is_dir() {
                continue;
            }
            if let Some(id) = path.file_name().and_then(|n| n.to_str()) {
                jobs.push(Job {
                    id: id.to_string(),
                    dir: path.clone(),
                });
            }
        }
        jobs.sort_by(|a, b| a.id.cmp(&b.id));
        Ok(jobs)
    }

    /// Looks one job up by id.
    ///
    /// # Errors
    ///
    /// [`DaemonError::NoSuchJob`] when absent.
    pub fn job(&self, id: &str) -> Result<Job, DaemonError> {
        let dir = self.jobs_dir().join(id);
        if !dir.is_dir() {
            return Err(DaemonError::NoSuchJob(id.to_string()));
        }
        Ok(Job {
            id: id.to_string(),
            dir,
        })
    }

    /// Loads a job's spec.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] or [`DaemonError::Spec`].
    pub fn load_spec(&self, job: &Job) -> Result<JobSpec, DaemonError> {
        count_meta_read("spec");
        let path = job.spec_path();
        let text = ftsim_chaos::io()
            .read_to_string(fp::STORE_READ_SPEC, &path)
            .map_err(io_err(format!("reading {}", path.display())))?;
        Ok(JobSpec::parse(&text)?)
    }

    /// Loads a job's status document.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] or [`DaemonError::Corrupt`].
    pub fn load_status(&self, job: &Job) -> Result<JobStatus, DaemonError> {
        count_meta_read("status");
        let path = job.status_path();
        let text = ftsim_chaos::io()
            .read_to_string(fp::STORE_READ_STATUS, &path)
            .map_err(io_err(format!("reading {}", path.display())))?;
        JobStatus::from_json(&text).map_err(|message| DaemonError::Corrupt { path, message })
    }

    /// Moves a job's status from one state to the next: reads it once,
    /// lets `f` derive the next status from it, and writes that once.
    /// `f` sees `None` when the status does not read (missing, corrupt, a
    /// failed read) and returns `None` to leave the file as it is.
    ///
    /// Lifecycle timestamps are kept here, not by `f`: `created_unix_ms`
    /// carries over from the prior status (a rebuild must not reset the
    /// TTL clock), and `finished_unix_ms` is stamped on the first
    /// transition into a terminal state and is zero while the job lives.
    ///
    /// The threads of one process take turns here, so a failure and a
    /// finalize of one job each read the status the other wrote.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] when the next status does not write.
    pub(crate) fn update_status(
        &self,
        job: &Job,
        f: impl FnOnce(Option<JobStatus>) -> Option<JobStatus>,
    ) -> Result<(), DaemonError> {
        static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _turn = TURN
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let prior = self.load_status(job).ok();
        let (created, finished) = prior
            .as_ref()
            .map_or((0, 0), |p| (p.created_unix_ms, p.finished_unix_ms));
        let Some(mut next) = f(prior) else {
            return Ok(());
        };
        let stamp = |ms: u64| {
            if ms == 0 {
                ftsim_chaos::io().now_ms()
            } else {
                ms
            }
        };
        next.created_unix_ms = stamp(created);
        next.finished_unix_ms = if next.terminal() { stamp(finished) } else { 0 };
        self.write_status(job, &next)
    }

    /// Replaces a job's status document atomically (write temp, rename),
    /// as given. Only a submit and a rebuild write a status from nothing;
    /// the two transitions, to done and to failed, go through
    /// [`update_status`](Self::update_status).
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`].
    pub(crate) fn write_status(&self, job: &Job, status: &JobStatus) -> Result<(), DaemonError> {
        write_atomic(
            fp::STORE_WRITE_STATUS,
            &job.status_path(),
            status.to_json().as_bytes(),
        )
    }

    /// Requests a graceful shutdown: the serving daemon finishes the cell
    /// in flight, releases its claims, and exits.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`].
    pub fn request_stop(&self) -> Result<(), DaemonError> {
        write_sentinel(&self.stop_path(), b"stop requested\n")
    }

    /// Whether a graceful shutdown has been requested.
    pub fn stop_requested(&self) -> bool {
        self.stop_path().exists()
    }

    /// Clears the shutdown sentinel (done by `serve` on startup, so a
    /// stale request from a previous shutdown does not kill the new
    /// daemon immediately).
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] (a missing sentinel is fine).
    pub fn clear_stop(&self) -> Result<(), DaemonError> {
        clear_sentinel(&self.stop_path())
    }

    /// Pauses one job: the fabric stops claiming its families (cells in
    /// flight finish and are kept). The sentinel holds `reason`, which
    /// readers serve as the job's error while it is paused (empty for
    /// `ftsimd stop <JOB>`). Re-submitting the identical spec un-pauses
    /// it, and the reason goes with the sentinel.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`].
    pub fn request_job_stop(&self, job: &Job, reason: &str) -> Result<(), DaemonError> {
        write_sentinel(&job.stop_path(), reason.as_bytes())
    }

    /// Whether a job is paused.
    pub fn job_stop_requested(&self, job: &Job) -> bool {
        job.stop_path().exists()
    }

    /// The reason a job's pause sentinel holds: empty when the job is
    /// not paused or the sentinel does not read. Trimmed, as older
    /// daemons wrote `paused` and a newline.
    pub(crate) fn pause_reason(&self, job: &Job) -> String {
        std::fs::read_to_string(job.stop_path()).map_or(String::new(), |r| r.trim().to_string())
    }

    /// Clears a job's pause sentinel.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] (a missing sentinel is fine).
    pub fn clear_job_stop(&self, job: &Job) -> Result<(), DaemonError> {
        clear_sentinel(&job.stop_path())
    }

    /// The directory corrupt state files are moved into.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    /// Moves a corrupt state file out of the way instead of letting it
    /// wedge the scheduler: `path` is renamed into
    /// `<state>/quarantine/` (name-mangled to stay unique) and a
    /// `.reason` sidecar records why. Returns the quarantined path.
    ///
    /// The move is a same-filesystem rename, so the evidence is
    /// preserved byte-for-byte for post-mortems while the live tree is
    /// clean again.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] — including when `path` no longer exists
    /// (quarantine races are possible between fabric peers; callers
    /// treat `NotFound` as "a peer got there first").
    pub fn quarantine(&self, path: &Path, reason: &str) -> Result<PathBuf, DaemonError> {
        let env = ftsim_chaos::io();
        let qdir = self.quarantine_dir();
        env.create_dir_all(fp::STORE_QUARANTINE, &qdir)
            .map_err(io_err(format!("creating {}", qdir.display())))?;
        // Mangle the path relative to the state root into one flat name:
        // jobs/0003-x/status.json → jobs__0003-x__status.json.
        let rel = path.strip_prefix(&self.root).unwrap_or(path);
        let mut base = String::new();
        for comp in rel.components() {
            if !base.is_empty() {
                base.push_str("__");
            }
            base.push_str(&comp.as_os_str().to_string_lossy().replace(['/', '\\'], "_"));
        }
        // Destination names are unconditionally unique: process id plus a
        // monotonic counter. A check-then-rename uniquifier would race
        // between fabric peers quarantining the same path — both compute
        // the same free name and the second rename silently destroys the
        // first capture.
        static QUARANTINE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = QUARANTINE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut dest = qdir.join(format!("{base}.q{}-{seq}", std::process::id()));
        // Belt and braces against pid reuse across reboots: the counter
        // makes same-process collisions impossible, so any survivor here
        // is from a dead process and bumping past it is safe.
        let mut n = 0u32;
        while dest.exists() {
            n += 1;
            dest = qdir.join(format!("{base}.q{}-{seq}.{n}", std::process::id()));
        }
        env.rename(fp::STORE_QUARANTINE, path, &dest)
            .map_err(io_err(format!(
                "quarantining {} to {}",
                path.display(),
                dest.display()
            )))?;
        let reason_path = PathBuf::from(format!("{}.reason", dest.display()));
        // Best-effort: losing the reason note must not fail the recovery
        // path that called us.
        let note = format!("{reason}\noriginal: {}\n", path.display());
        let _ = env.write_file(fp::STORE_QUARANTINE, &reason_path, note.as_bytes());
        Ok(dest)
    }

    /// Number of quarantined state files (excluding `.reason` sidecars).
    /// Zero when the quarantine directory does not exist.
    pub fn quarantined_count(&self) -> usize {
        ftsim_chaos::io()
            .list_dir(fp::STORE_QUARANTINE, &self.quarantine_dir())
            .map(|entries| {
                entries
                    .iter()
                    .filter(|p| p.extension().map(|e| e != "reason").unwrap_or(true))
                    .count()
            })
            .unwrap_or(0)
    }
}

/// Writes a stop or pause sentinel.
fn write_sentinel(path: &Path, text: &[u8]) -> Result<(), DaemonError> {
    ftsim_chaos::io()
        .write_file(fp::STORE_SENTINEL_WRITE, path, text)
        .map_err(io_err(format!("writing {}", path.display())))
}

/// Removes a stop or pause sentinel; a missing one is fine.
fn clear_sentinel(path: &Path) -> Result<(), DaemonError> {
    match ftsim_chaos::io().remove_file(fp::STORE_SENTINEL_CLEAR, path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => {
            Err(io_err(format!("removing {}", path.display()))(e))
        }
        _ => Ok(()),
    }
}

/// Replaces `path` atomically: write a sibling temp file, fsync, rename.
/// The temp name is unique per call (process id + counter), so
/// concurrent writers — e.g. two worker threads bumping a job's status —
/// never truncate each other's in-flight temp file; last rename wins
/// with complete contents either way.
///
/// Routed through the [`ftsim_chaos::IoEnv`] under `site`, so chaos
/// plans can tear the temp write or drop the rename at any caller.
pub(crate) fn write_atomic(site: &str, path: &Path, contents: &[u8]) -> Result<(), DaemonError> {
    ftsim_chaos::io()
        .write_atomic(site, path, contents)
        .map_err(io_err(format!("replacing {}", path.display())))
}

/// `Retry-After` hint handed to over-quota submitters: long enough for a
/// scheduler pass to finish cells or a GC pass to reclaim space, short
/// enough that a polite client retries within the same session.
pub(crate) const QUOTA_RETRY_AFTER_SECS: u64 = 30;

/// Total bytes under `dir`, recursively. Best-effort: entries that vanish
/// or error mid-walk count as zero — admission control must not fail a
/// submit because a sibling job was being finalized concurrently.
pub(crate) fn dir_size(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0u64;
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            total = total.saturating_add(dir_size(&entry.path()));
        } else {
            total = total.saturating_add(meta.len());
        }
    }
    total
}

/// Squashes a job name into a filesystem-safe slug.
fn slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if (c == '-' || c == '_' || c.is_whitespace()) && !out.ends_with('-') {
            out.push('-');
        }
    }
    let out = out.trim_matches('-').to_string();
    if out.is_empty() {
        "job".to_string()
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> JobStore {
        let dir = std::env::temp_dir().join(format!("ftsimd-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        JobStore::open(dir).unwrap()
    }

    fn small_spec(name: &str) -> JobSpec {
        let mut spec = JobSpec::new(name);
        spec.workloads = vec!["gcc".to_string()];
        spec.models = vec!["SS-1".to_string()];
        spec.budgets = vec![1_000];
        spec
    }

    #[test]
    fn submit_attach_and_remove() {
        let store = temp_store("submit");
        let (id, created) = store.submit(&small_spec("My Job!")).unwrap();
        assert!(created);
        assert_eq!(id, "0001-my-job");

        // Identical spec attaches instead of duplicating.
        let (again, created) = store.submit(&small_spec("My Job!")).unwrap();
        assert!(!created);
        assert_eq!(again, id);

        // A different spec gets the next id.
        let (other, created) = store.submit(&small_spec("other")).unwrap();
        assert!(created);
        assert_eq!(other, "0002-other");

        let status = store.load_status(&store.job(&id).unwrap()).unwrap();
        assert_eq!(status.state, JobState::Queued);
        assert_eq!(status.cells_total, 1);

        store.remove(&id).unwrap();
        assert!(matches!(store.job(&id), Err(DaemonError::NoSuchJob(_))));
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn unrunnable_specs_are_rejected_at_submit() {
        let store = temp_store("reject");
        let mut bad = small_spec("bad");
        bad.workloads = vec!["doom".to_string()];
        assert!(matches!(
            store.submit(&bad),
            Err(DaemonError::Spec(SpecError::UnknownWorkload(_)))
        ));
        let mut bad = small_spec("bad2");
        bad.fault_rates_pm = vec![-3.0];
        assert!(matches!(
            store.submit(&bad),
            Err(DaemonError::Experiment(_))
        ));
        assert!(store.jobs().unwrap().is_empty(), "nothing may be enqueued");
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn uncountable_grids_are_rejected_at_submit() {
        // Five axes of 20,000 repeated values: 3.2e21 cells, from a spec
        // small enough for one HTTP request.
        let store = temp_store("uncountable");
        let mut huge = small_spec("huge");
        let n = 20_000;
        huge.workloads = vec!["gcc".to_string(); n];
        huge.models = vec!["SS-1".to_string(); n];
        huge.fault_rates_pm = vec![0.0; n];
        huge.budgets = vec![1_000; n];
        huge.seeds = vec![1; n];
        assert!(huge.to_json().len() < crate::ServeOptions::default().max_body);
        assert!(matches!(
            store.submit(&huge),
            Err(DaemonError::Experiment(
                ftsim::harness::ExperimentError::TooManyCells
            ))
        ));
        assert!(store.jobs().unwrap().is_empty(), "nothing may be enqueued");
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn status_round_trips_and_stop_sentinel_works() {
        let store = temp_store("status");
        let mut spec = small_spec("s");
        spec.seeds = (1..=8).collect();
        let (id, _) = store.submit(&spec).unwrap();
        let job = store.job(&id).unwrap();
        let submitted = store.load_status(&job).unwrap();
        assert_eq!(submitted.cells_total, 8);
        store
            .update_status(&job, |prior| {
                let mut next = prior.unwrap();
                // An update cannot move the TTL clock.
                next.created_unix_ms = 1;
                next.finished_unix_ms = 1;
                Some(next)
            })
            .unwrap();
        // Three cells stream their records; the count comes from them.
        let plan = spec.to_experiment().unwrap().plan().unwrap();
        let identities: Vec<_> = (0..3).map(|idx| plan.identity(idx)).collect();
        std::fs::write(job.cells_path(), ftsim::harness::to_csv(&identities)).unwrap();
        let loaded = store.load_status(&job).unwrap();
        assert_eq!(loaded.state, JobState::Queued);
        assert_eq!(loaded.cells_total, 8);
        let progress = crate::fabric::progress(&job, Some(&spec), Some(&loaded), false);
        assert_eq!(progress.done, 3);
        // The status is a lifecycle record: no count is written, and one
        // an older daemon wrote is ignored.
        let text = std::fs::read_to_string(job.status_path()).unwrap();
        assert!(!text.contains("cells_done"), "{text}");
        let older = text.replacen('{', "{\"cells_done\": 5,", 1);
        assert_eq!(JobStatus::from_json(&older).unwrap(), loaded);
        // The submit-time creation stamp carries over...
        assert!(submitted.created_unix_ms > 0);
        assert_eq!(loaded.created_unix_ms, submitted.created_unix_ms);
        // ...and a live job has no finished stamp yet.
        assert_eq!(loaded.finished_unix_ms, 0);
        assert!(!loaded.terminal());

        // First terminal transition stamps finished_unix_ms exactly once.
        let to_done = |prior: Option<JobStatus>| {
            let mut next = prior.unwrap();
            next.state = JobState::Done;
            Some(next)
        };
        store.update_status(&job, to_done).unwrap();
        let sealed = store.load_status(&job).unwrap();
        assert!(sealed.terminal());
        assert!(sealed.finished_unix_ms >= sealed.created_unix_ms);
        store.update_status(&job, to_done).unwrap();
        assert_eq!(
            store.load_status(&job).unwrap().finished_unix_ms,
            sealed.finished_unix_ms,
            "finished stamp must not move on rewrite"
        );
        // Declining leaves the file as it is.
        store.update_status(&job, |_| None).unwrap();
        assert_eq!(store.load_status(&job).unwrap(), sealed);

        assert!(!store.stop_requested());
        store.request_stop().unwrap();
        assert!(store.stop_requested());
        store.clear_stop().unwrap();
        store.clear_stop().unwrap(); // idempotent
        assert!(!store.stop_requested());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn quarantine_moves_file_and_writes_reason() {
        let store = temp_store("quarantine");
        let (id, _) = store.submit(&small_spec("q")).unwrap();
        let job = store.job(&id).unwrap();
        std::fs::write(job.status_path(), "{ not json").unwrap();
        assert_eq!(store.quarantined_count(), 0);

        let dest = store
            .quarantine(&job.status_path(), "status.json does not parse")
            .unwrap();
        assert!(!job.status_path().exists(), "file must be moved away");
        assert_eq!(std::fs::read_to_string(&dest).unwrap(), "{ not json");
        let reason = std::fs::read_to_string(format!("{}.reason", dest.display())).unwrap();
        assert!(reason.contains("does not parse"));
        assert_eq!(store.quarantined_count(), 1);

        // A second file with the same mangled name stays distinct.
        std::fs::write(job.status_path(), "also bad").unwrap();
        let dest2 = store.quarantine(&job.status_path(), "again").unwrap();
        assert_ne!(dest, dest2);
        assert_eq!(store.quarantined_count(), 2);
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn quota_policy_round_trips_and_defaults_open() {
        let store = temp_store("quota-rt");
        // No quota.json on disk: everything is unlimited.
        assert!(store.quota_policy().unwrap().unlimited());

        let policy = QuotaPolicy {
            max_live_jobs: 2,
            max_queued_cells: 100,
            max_state_bytes: 1 << 20,
        };
        store.set_quota_policy(&policy).unwrap();
        assert_eq!(store.quota_policy().unwrap(), policy);

        // A corrupt policy file fails loudly instead of silently lifting
        // every limit.
        std::fs::write(store.quota_path(), "{ nope").unwrap();
        assert!(matches!(
            store.quota_policy(),
            Err(DaemonError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn over_quota_submit_rejected_while_in_quota_peer_proceeds() {
        let store = temp_store("quota-enforce");
        store
            .set_quota_policy(&QuotaPolicy {
                max_live_jobs: 1,
                max_queued_cells: 0,
                max_state_bytes: 0,
            })
            .unwrap();

        let mut first = small_spec("alice-1");
        first.submitter = "alice".to_string();
        store.submit(&first).unwrap();

        // Alice is at her live-job limit: a second distinct job is turned
        // away with the structured quota error...
        let mut second = small_spec("alice-2");
        second.submitter = "alice".to_string();
        let err = store.submit(&second).unwrap_err();
        match &err {
            DaemonError::QuotaExceeded {
                submitter,
                retry_after_secs,
                ..
            } => {
                assert_eq!(submitter, "alice");
                assert!(*retry_after_secs > 0);
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }

        // ...but re-submitting (attaching to) her existing job is free,
        let (_, created) = store.submit(&first).unwrap();
        assert!(!created, "attach must bypass admission");
        // and an unrelated tenant is not collateral damage.
        let mut bob = small_spec("bob-1");
        bob.submitter = "bob".to_string();
        assert!(store.submit(&bob).is_ok());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn quota_frees_up_when_jobs_turn_terminal() {
        let store = temp_store("quota-free");
        store
            .set_quota_policy(&QuotaPolicy {
                max_live_jobs: 1,
                max_queued_cells: 0,
                max_state_bytes: 0,
            })
            .unwrap();
        let mut first = small_spec("c-1");
        first.submitter = "carol".to_string();
        let (id, _) = store.submit(&first).unwrap();

        let mut second = small_spec("c-2");
        second.submitter = "carol".to_string();
        assert!(matches!(
            store.submit(&second),
            Err(DaemonError::QuotaExceeded { .. })
        ));

        // Finish the first job: the slot is released.
        let job = store.job(&id).unwrap();
        let mut status = store.load_status(&job).unwrap();
        status.state = JobState::Done;
        store.write_status(&job, &status).unwrap();
        assert!(store.submit(&second).is_ok());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn queued_cell_and_state_byte_quotas_enforced() {
        let store = temp_store("quota-cells");
        // The incoming grid itself counts against max_queued_cells.
        store
            .set_quota_policy(&QuotaPolicy {
                max_live_jobs: 0,
                max_queued_cells: 2,
                max_state_bytes: 0,
            })
            .unwrap();
        let mut wide = small_spec("wide");
        wide.submitter = "dave".to_string();
        wide.budgets = vec![1_000, 2_000, 4_000]; // 3 cells > limit of 2
        let err = store.submit(&wide).unwrap_err();
        assert!(
            err.to_string().contains("queued cells"),
            "unexpected: {err}"
        );

        // State-byte quota: any existing footprint at/over the cap blocks
        // new jobs from the same submitter.
        store
            .set_quota_policy(&QuotaPolicy {
                max_live_jobs: 0,
                max_queued_cells: 0,
                max_state_bytes: 1,
            })
            .unwrap();
        let mut one = small_spec("dave-1");
        one.submitter = "dave".to_string();
        store.submit(&one).unwrap(); // first job: zero prior footprint
        let mut two = small_spec("dave-2");
        two.submitter = "dave".to_string();
        assert!(matches!(
            store.submit(&two),
            Err(DaemonError::QuotaExceeded { .. })
        ));
        std::fs::remove_dir_all(store.root()).ok();
    }
}
