//! The sweep fabric: cooperative multi-process execution of one job
//! store.
//!
//! N `ftsimd serve` processes — on one host or many sharing a state
//! directory — partition work at **family** granularity: the
//! (workload, budget, model) groups that share a fault-free prefix
//! ([`FamilyId`]). Ownership is a *claim lease*, a small JSON file under
//! `<job>/claims/<family-slug>.lease` naming the owner and an expiry
//! time:
//!
//! * **Acquisition** only ever happens through an exclusive
//!   `create_new` of the claim file — the one filesystem primitive
//!   where exactly one racer wins.
//! * **Renewal** (the heartbeat) happens between cells: the holder
//!   re-reads the file, verifies it still names him, and atomically
//!   replaces it with a pushed-out expiry. A holder that finds someone
//!   else's name abandons the family mid-run.
//! * **Steal**: a lease past its expiry — the signature of a crashed or
//!   wedged peer — is first `rename`d to a unique stale name (only one
//!   renamer of a given path succeeds; the loser sees `NotFound`), then
//!   re-acquired through the normal `create_new` race.
//!
//! The protocol is deliberately only *mostly* exclusive. The harness's
//! determinism invariant — a record is a pure function of its cell
//! coordinates — makes duplicate execution benign: if a lost-claim
//! window lets two processes run the same cell, both append
//! byte-identical rows and the newest-wins merge keeps one. Leases are
//! therefore a throughput optimization, never a correctness mechanism,
//! which is what lets the whole fabric run on plain files with no
//! server. (Hosts sharing a state dir are assumed to have roughly
//! synchronized clocks; skew eats into the lease margin.)
//!
//! Scheduling — which family a free worker claims next — orders
//! candidate jobs by priority (descending), then by the submitter's
//! live-claim count (ascending: fair share across tenants), then by job
//! id (submission order). A job's `threads` field caps its live claims
//! fabric-wide, so one wide job cannot monopolize every process.

use crate::failpoints as fp;
use crate::log;
use crate::spec::JobSpec;
use crate::store::{io_err, write_atomic, DaemonError, Job, JobState, JobStatus, JobStore};
use ftsim::harness::{to_csv, to_json, CellPath, FamilyId, RunRecord};
use ftsim_chaos::retry::Backoff;
use ftsim_core::profile::{StageProfile, STAGE_NAMES};
use ftsim_obs::metrics;
use ftsim_obs::trace::{self, TraceEvent};
use ftsim_stats::csv::AppendWriter;
use ftsim_stats::JsonValue;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Fabric-level metric handles, resolved once per process. These count
/// protocol events (claims, steals, watchdog kills, appended bytes) —
/// the *fabric's* vitals, complementing the per-simulation counters the
/// harness registers (`ftsim_cells_total`, `ftsim_sim_cycles_total`).
/// Like every observability surface, they live entirely outside the
/// simulation: nothing here feeds back into scheduling or records.
struct FabricObs {
    claims_acquired: metrics::Counter,
    claims_renewed: metrics::Counter,
    claims_stolen: metrics::Counter,
    claims_released: metrics::Counter,
    /// Wall time from asking for a family to holding its lease,
    /// backoff included.
    lease_wait_ms: metrics::Histo,
    cells_completed: metrics::Counter,
    cells_retried: metrics::Counter,
    watchdog_kills: metrics::Counter,
    append_bytes: metrics::Counter,
    backoff_retries: metrics::Counter,
    jobs_finalized: metrics::Counter,
}

fn fobs() -> &'static FabricObs {
    static HANDLES: OnceLock<FabricObs> = OnceLock::new();
    let claim = |event| metrics::counter("ftsimd_claims_total", &[("event", event)]);
    HANDLES.get_or_init(|| FabricObs {
        claims_acquired: claim("acquired"),
        claims_renewed: claim("renewed"),
        claims_stolen: claim("stolen"),
        claims_released: claim("released"),
        lease_wait_ms: metrics::histogram("ftsimd_lease_wait_ms", &[], 5, 40),
        cells_completed: metrics::counter("ftsimd_cells_completed_total", &[]),
        cells_retried: metrics::counter("ftsimd_cells_retried_total", &[]),
        watchdog_kills: metrics::counter("ftsimd_watchdog_kills_total", &[]),
        append_bytes: metrics::counter("ftsimd_append_bytes_total", &[]),
        backoff_retries: metrics::counter(
            "ftsimd_backoff_retries_total",
            &[("site", "fabric.claim")],
        ),
        jobs_finalized: metrics::counter("ftsimd_jobs_finalized_total", &[]),
    })
}

/// Milliseconds since the Unix epoch — the fabric's shared clock.
/// Routed through the chaos layer so plans can skew it (`skew=MS`).
fn now_ms() -> u64 {
    ftsim_chaos::io().now_ms()
}

/// Stale (expired or unparseable) leases this process has stolen or
/// quarantined — surfaced by `GET /healthz` as a flaky-peer indicator.
static STALE_LEASES_OBSERVED: AtomicU64 = AtomicU64::new(0);

/// Wall-clock of this process's last completed scheduler pass
/// ([`next_assignment`]), for `GET /healthz` liveness checks.
static LAST_SCHED_PASS_MS: AtomicU64 = AtomicU64::new(0);

/// Stale leases this process has observed (see `GET /healthz`).
pub(crate) fn stale_leases_observed() -> u64 {
    STALE_LEASES_OBSERVED.load(Ordering::Relaxed)
}

/// Unix-ms timestamp of the last completed scheduler pass, 0 if none.
pub(crate) fn last_scheduler_pass_ms() -> u64 {
    LAST_SCHED_PASS_MS.load(Ordering::Relaxed)
}

/// How much the claim protocol trusts the filesystem's primitives
/// (`serve --lease-mode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LeaseMode {
    /// Trust `create_new` to be exclusive and `rename` to be atomic —
    /// correct on every local filesystem and NFSv3+ with proper locking.
    #[default]
    Strict,
    /// Assume a lowest-common-denominator NFS mount where `create_new`
    /// may silently lose its exclusivity: every acquisition is followed
    /// by a jittered re-read that must echo this process's owner id
    /// before the claim counts as held. Collisions become unlikely, not
    /// impossible — which is fine, because leases are a throughput
    /// optimization and duplicate execution is byte-identical.
    Relaxed,
}

impl LeaseMode {
    /// Parses a `--lease-mode` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "strict" => Some(Self::Strict),
            "relaxed" => Some(Self::Relaxed),
            _ => None,
        }
    }

    /// The flag spelling of this mode.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Strict => "strict",
            Self::Relaxed => "relaxed",
        }
    }
}

/// One process's fabric identity and lease policy.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// This worker's owner id, written into every claim it holds.
    pub owner: String,
    /// How long a claim lives without renewal before peers may steal it.
    pub lease: Duration,
    /// How much to trust the filesystem's claim primitives.
    pub mode: LeaseMode,
    /// Wall-clock budget for a cell of a family with no observed cell
    /// times yet (the first cell, which also pays for the family's
    /// baseline). Once a cell has completed, budgets derive from the
    /// family's observed maximum instead.
    pub cell_floor: Duration,
}

impl FabricConfig {
    /// A config with a process-unique owner id and the given lease.
    /// Multiple configs in one process (tests) get distinct owners.
    pub fn new(lease: Duration) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let host = std::env::var("HOSTNAME").unwrap_or_else(|_| "local".to_string());
        Self {
            owner: format!("{host}:{}:{seq}", std::process::id()),
            lease,
            mode: LeaseMode::Strict,
            cell_floor: DEFAULT_CELL_FLOOR,
        }
    }
}

/// The stuck-cell watchdog's default no-data budget, which
/// `serve --cell-floor-ms` overrides: two minutes, comfortably above any
/// baseline computation in the paper's budget range.
pub const DEFAULT_CELL_FLOOR: Duration = Duration::from_secs(120);

impl Default for FabricConfig {
    fn default() -> Self {
        Self::new(Duration::from_secs(30))
    }
}

/// A parsed claim-lease document.
struct Lease {
    owner: String,
    expires_unix_ms: u64,
    renewals: u64,
    /// When the claim was first acquired (preserved across renewals), so
    /// `/healthz` can report the oldest live claim's age. Additive field:
    /// leases written by older daemons parse with 0 here, which reads as
    /// "age unknown" and is skipped by the age scan.
    created_unix_ms: u64,
}

impl Lease {
    fn to_json(&self) -> String {
        JsonValue::obj([
            ("owner".to_string(), JsonValue::Str(self.owner.clone())),
            (
                "expires_unix_ms".to_string(),
                JsonValue::U64(self.expires_unix_ms),
            ),
            ("renewals".to_string(), JsonValue::U64(self.renewals)),
            (
                "created_unix_ms".to_string(),
                JsonValue::U64(self.created_unix_ms),
            ),
        ])
        .render_pretty(2)
    }

    fn parse(text: &str) -> Option<Self> {
        let doc = JsonValue::parse(text).ok()?;
        Some(Self {
            owner: doc.get("owner")?.as_str()?.to_string(),
            expires_unix_ms: doc.get("expires_unix_ms")?.as_u64()?,
            renewals: doc.get("renewals")?.as_u64()?,
            created_unix_ms: doc
                .get("created_unix_ms")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
        })
    }
}

fn read_lease(path: &Path) -> Option<Lease> {
    Lease::parse(
        &ftsim_chaos::io()
            .read_to_string(fp::FABRIC_LEASE_READ, path)
            .ok()?,
    )
}

/// A held claim on one family. Dropping the guard releases the claim
/// (best-effort — an unreleased claim simply expires).
#[derive(Debug)]
pub struct ClaimGuard {
    path: PathBuf,
    owner: String,
    lease: Duration,
    renewals: u64,
    renewed: Instant,
}

impl ClaimGuard {
    /// Renews the lease when it is due (past a quarter of the lease
    /// period — cheap enough to call after every cell). Returns `false`
    /// when the claim has been lost: the file no longer names this
    /// owner, so a peer stole an expired lease or finalization cleaned
    /// the claims up, and the caller must abandon the family. (Any cell
    /// the thief re-runs produces a byte-identical record, so the
    /// overlap is wasted work, not corruption.)
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] when the renewed lease cannot be written.
    pub fn renew(&mut self) -> Result<bool, DaemonError> {
        if self.renewed.elapsed() < self.lease / 4 {
            return Ok(true);
        }
        match read_lease(&self.path) {
            Some(l) if l.owner == self.owner => {
                self.renewals += 1;
                let doc = Lease {
                    owner: self.owner.clone(),
                    expires_unix_ms: now_ms() + self.lease.as_millis() as u64,
                    renewals: self.renewals,
                    created_unix_ms: l.created_unix_ms,
                };
                write_atomic(fp::FABRIC_CLAIM_RENEW, &self.path, doc.to_json().as_bytes())?;
                self.renewed = Instant::now();
                fobs().claims_renewed.inc();
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        // Release only what is still ours; a stolen claim belongs to the
        // thief now.
        if read_lease(&self.path).is_some_and(|l| l.owner == self.owner)
            && ftsim_chaos::io()
                .remove_file(fp::FABRIC_CLAIM_RELEASE, &self.path)
                .is_ok()
        {
            fobs().claims_released.inc();
        }
    }
}

/// Writes a fresh lease at `path` with `create_new` semantics. Returns
/// `Ok(false)` when someone else holds the file.
fn create_claim(path: &Path, owner: &str, lease: Duration) -> io::Result<bool> {
    let now = now_ms();
    let doc = Lease {
        owner: owner.to_string(),
        expires_unix_ms: now + lease.as_millis() as u64,
        renewals: 0,
        created_unix_ms: now,
    };
    ftsim_chaos::io().create_new(fp::FABRIC_CLAIM_CREATE, path, doc.to_json().as_bytes())
}

/// Tries to claim `family` in `job`. Returns `None` when the family is
/// held by a live lease (or this process lost the race for it).
///
/// Transient I/O errors (a flaky NFS mount, an injected EIO) retry a
/// few times with jittered exponential backoff before surfacing;
/// acquisition races are *not* retried — losing `create_new` means a
/// peer owns the family, which is the protocol working.
///
/// # Errors
///
/// [`DaemonError::Io`] for persistent claims-directory trouble.
pub fn try_claim(
    job: &Job,
    family: &FamilyId,
    cfg: &FabricConfig,
) -> Result<Option<ClaimGuard>, DaemonError> {
    let started = Instant::now();
    let mut backoff = Backoff::new(Duration::from_millis(5), Duration::from_millis(80), 3);
    let outcome = loop {
        match try_claim_once(job, family, cfg) {
            Ok(outcome) => break outcome,
            Err(e) => match backoff.next_delay() {
                Some(delay) => {
                    fobs().backoff_retries.inc();
                    std::thread::sleep(delay);
                }
                None => return Err(e),
            },
        }
    };
    if outcome.is_some() {
        let m = fobs();
        m.claims_acquired.inc();
        m.lease_wait_ms.record(started.elapsed().as_millis() as u64);
        trace::emit(TraceEvent::new(
            "claim",
            &job.id,
            &family.slug(),
            &format!("owner={}", cfg.owner),
        ));
    }
    Ok(outcome)
}

/// Relaxed-mode owner-echo verification: after a `create_new` that may
/// silently have lost its exclusivity (an NFS-grade mount — see
/// [`LeaseMode::Relaxed`]), wait a jittered beat for any racing write to
/// land, then re-read the lease. The claim stands only if the file still
/// echoes this process's owner id, which is process-unique
/// (`host:pid:seq`) — two racers cannot both read their own name out of
/// one file. An unreadable re-read walks away: a claim we cannot prove
/// we hold is a claim we do not hold.
fn claim_verified(path: &Path, cfg: &FabricConfig) -> bool {
    if cfg.mode == LeaseMode::Strict {
        return true;
    }
    // Deterministic per-owner jitter desynchronizes racing verifiers so
    // they do not re-read in lockstep.
    let mut jitter = Backoff::with_seed(
        Duration::from_millis(15),
        Duration::from_millis(60),
        1,
        fnv1a(cfg.owner.as_bytes()),
    );
    if let Some(delay) = jitter.next_delay() {
        std::thread::sleep(delay);
    }
    match ftsim_chaos::io().read_to_string(fp::FABRIC_CLAIM_VERIFY, path) {
        Ok(text) => Lease::parse(&text).is_some_and(|l| l.owner == cfg.owner),
        Err(_) => false,
    }
}

/// FNV-1a, for deriving a jitter seed from an owner id.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn try_claim_once(
    job: &Job,
    family: &FamilyId,
    cfg: &FabricConfig,
) -> Result<Option<ClaimGuard>, DaemonError> {
    let env = ftsim_chaos::io();
    let dir = job.claims_dir();
    env.create_dir_all(fp::FABRIC_CLAIM_CREATE, &dir)
        .map_err(io_err(format!("creating {}", dir.display())))?;
    let path = dir.join(format!("{}.lease", family.slug()));
    let claim = |path: &Path| {
        create_claim(path, &cfg.owner, cfg.lease)
            .map_err(io_err(format!("claiming {}", path.display())))
    };
    if claim(&path)? {
        if !claim_verified(&path, cfg) {
            return Ok(None); // the echo named a peer: we lost the race
        }
        return Ok(Some(ClaimGuard {
            path,
            owner: cfg.owner.clone(),
            lease: cfg.lease,
            renewals: 0,
            renewed: Instant::now(),
        }));
    }

    // The file exists. Decide live vs stealable: a parseable lease
    // speaks for itself; an unparseable one (a writer caught between
    // create and write, or torn by a crash) is presumed live until its
    // mtime is two leases old.
    let parseable = read_lease(&path).is_some();
    let stealable = match read_lease(&path) {
        Some(l) => l.expires_unix_ms <= now_ms(),
        None => match std::fs::metadata(&path).and_then(|m| m.modified()) {
            Ok(mtime) => mtime
                .elapsed()
                .map(|age| age >= cfg.lease * 2)
                .unwrap_or(false),
            Err(_) => return Ok(None), // vanished between create and stat
        },
    };
    if !stealable {
        return Ok(None);
    }

    // Steal: rename to a unique stale name first. `rename` of a given
    // source succeeds for exactly one racer, so two stealers cannot both
    // proceed; the loser's `NotFound` means somebody else is handling
    // it. Ownership itself still only comes from the `create_new` below.
    static STALE_SEQ: AtomicU64 = AtomicU64::new(0);
    let stale = dir.join(format!(
        "{}.stale.{}.{}",
        family.slug(),
        std::process::id(),
        STALE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    match env.rename(fp::FABRIC_CLAIM_STEAL, &path, &stale) {
        Ok(()) => {
            STALE_LEASES_OBSERVED.fetch_add(1, Ordering::Relaxed);
            fobs().claims_stolen.inc();
            if parseable {
                // Ordinary expiry of a crashed peer: debris.
                env.remove_file(fp::FABRIC_CLAIM_STEAL, &stale).ok();
            } else {
                // Aged-out garbage is evidence of a torn write or a
                // hostile filesystem — quarantine it for post-mortems
                // instead of destroying it. (Best-effort: failing to
                // file the evidence must not block the steal.)
                quarantine_debris(job, &stale, "unparseable claim lease aged past 2x lease");
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(format!("stealing {}", path.display()))(e)),
    }
    Ok(if claim(&path)? && claim_verified(&path, cfg) {
        Some(ClaimGuard {
            path,
            owner: cfg.owner.clone(),
            lease: cfg.lease,
            renewals: 0,
            renewed: Instant::now(),
        })
    } else {
        None
    })
}

/// Best-effort quarantine for debris discovered inside a job directory
/// (`<state>/jobs/<id>/...`): derives the state root from the job's
/// path. Failures are swallowed — the caller is already on a recovery
/// path and the debris has been renamed out of the protocol's way.
fn quarantine_debris(job: &Job, path: &Path, reason: &str) {
    let Some(root) = job.dir().parent().and_then(Path::parent) else {
        return;
    };
    if let Ok(store) = JobStore::open(root) {
        if let Err(e) = store.quarantine(path, reason) {
            eprintln!("ftsimd: could not quarantine {}: {e}", path.display());
        }
    }
}

/// Live (unexpired) claims held on a job, by any owner.
pub(crate) fn live_claims(job: &Job) -> usize {
    let Ok(entries) = ftsim_chaos::io().list_dir(fp::FABRIC_CLAIMS_LIST, &job.claims_dir()) else {
        return 0;
    };
    let now = now_ms();
    entries
        .iter()
        .filter(|p| p.extension().is_some_and(|x| x == "lease"))
        .filter(|p| read_lease(p).is_some_and(|l| l.expires_unix_ms > now))
        .count()
}

/// Age in milliseconds of the oldest live (unexpired) claim on a job,
/// or 0 when none carries a creation stamp — `/healthz` surfaces the
/// fabric-wide maximum as a wedged-family indicator (a claim alive far
/// past the typical family runtime is being renewed but not finishing).
/// Leases written by pre-stamp daemons lack `created_unix_ms` and are
/// skipped rather than misreported.
pub(crate) fn oldest_live_claim_age_ms(job: &Job) -> u64 {
    let Ok(entries) = ftsim_chaos::io().list_dir(fp::FABRIC_CLAIMS_LIST, &job.claims_dir()) else {
        return 0;
    };
    let now = now_ms();
    entries
        .iter()
        .filter(|p| p.extension().is_some_and(|x| x == "lease"))
        .filter_map(|p| read_lease(p))
        .filter(|l| l.expires_unix_ms > now && l.created_unix_ms > 0)
        .map(|l| now.saturating_sub(l.created_unix_ms))
        .max()
        .unwrap_or(0)
}

/// One family's progress within a job.
#[derive(Debug)]
pub(crate) struct FamilyProgress {
    /// The family coordinate.
    pub family: FamilyId,
    /// Cells of the family with a streamed (or final) record.
    pub done: usize,
    /// Cells in the family.
    pub total: usize,
}

/// Per-family cells-done counts for a job: its grid identities grouped
/// by family, each matched against the streamed `cells.csv`. A done
/// job counts every cell even if some were never streamed
/// (resume-matched cells are not re-appended), and needs no read.
pub(crate) fn family_progress(
    store: &JobStore,
    job: &Job,
) -> Result<Vec<FamilyProgress>, DaemonError> {
    let spec = store.load_spec(job)?;
    let done_job = store
        .load_status(job)
        .map(|s| s.state == JobState::Done)
        .unwrap_or(false);
    let progress = |log: &log::JobLog| {
        log.families()
            .map(|(family, done, total)| FamilyProgress {
                family: family.clone(),
                done: if done_job { total } else { done },
                total,
            })
            .collect()
    };
    if done_job {
        Ok(progress(&log::JobLog::new(&spec)?))
    } else {
        log::with_log(job, &spec, progress)
    }
}

/// A claimed unit of work: one family of one job.
#[derive(Debug)]
pub(crate) struct Assignment {
    /// The job being worked.
    pub job: Job,
    /// Its parsed spec.
    pub spec: JobSpec,
    /// The claimed family.
    pub family: FamilyId,
    /// The held lease.
    pub claim: ClaimGuard,
    /// Job-level cells-done count at claim time (this worker's view —
    /// peers advance it concurrently; stale counts are corrected by the
    /// next status bump or finalization).
    pub job_done: usize,
    /// Job-level cell total.
    pub job_total: usize,
}

/// What [`next_assignment`] found.
#[derive(Debug)]
pub(crate) enum NextWork {
    /// A family was claimed; run it.
    Work(Box<Assignment>),
    /// Nothing claimable right now. `incomplete` counts non-terminal,
    /// un-paused jobs — zero means the queue is truly drained, non-zero
    /// means work exists but is held by live foreign claims (or needs a
    /// lease to expire), so a draining server waits instead of exiting.
    Idle {
        /// Non-terminal, un-paused jobs left in the store.
        incomplete: usize,
    },
}

/// Picks and claims the next family to run, scanning jobs in scheduling
/// order: priority descending, then the submitter's live-claim count
/// ascending (fair share), then job id. Jobs whose spec no longer
/// parses or resolves are marked failed in passing (with the error in
/// their status) rather than wedging the queue. `only` restricts the
/// scan to one job id — the single-job ([`run_job`](crate::run_job))
/// special case.
///
/// # Errors
///
/// [`DaemonError`] only for store-level trouble (the queue itself being
/// unreadable).
pub(crate) fn next_assignment(
    store: &JobStore,
    cfg: &FabricConfig,
    only: Option<&str>,
) -> Result<NextWork, DaemonError> {
    struct Candidate {
        job: Job,
        spec: JobSpec,
        claims: usize,
    }
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut incomplete = 0usize;
    for job in store.jobs()? {
        if only.is_some_and(|id| id != job.id) {
            continue;
        }
        let status = match store.load_status(&job) {
            Ok(status) => status,
            Err(DaemonError::Corrupt { path, message }) => {
                // A torn or scribbled-on status must not wedge the job
                // forever: move the evidence aside and recompute the
                // truth from the spec and the streamed cells.
                eprintln!(
                    "ftsimd: job {}: corrupt status.json quarantined ({message})",
                    job.id
                );
                if let Err(e) = store.quarantine(&path, &message) {
                    eprintln!("ftsimd: quarantine failed: {e}");
                }
                match rebuild_status(store, &job) {
                    Ok(status) => status,
                    Err(e) => {
                        note_job_error(store, &job, e, &mut incomplete);
                        continue;
                    }
                }
            }
            Err(DaemonError::Io { source, .. }) if source.kind() == io::ErrorKind::NotFound => {
                // No status at all — a crash between claiming the job
                // dir and the first status write, or a dropped rename.
                match rebuild_status(store, &job) {
                    Ok(status) => status,
                    Err(e) => {
                        note_job_error(store, &job, e, &mut incomplete);
                        continue;
                    }
                }
            }
            Err(_) => {
                // Transient read error: the job is still outstanding
                // work; keep a draining server alive and retry on the
                // next pass.
                incomplete += 1;
                continue;
            }
        };
        if !matches!(status.state, JobState::Queued | JobState::Running) {
            log::forget(&job); // terminal: its index is no longer needed
            continue;
        }
        if store.job_stop_requested(&job) {
            continue; // paused: not claimable, not blocking drain
        }
        let spec = match store.load_spec(&job) {
            Ok(spec) => spec,
            Err(e) => {
                note_job_error(store, &job, e, &mut incomplete);
                continue;
            }
        };
        incomplete += 1;
        let claims = live_claims(&job);
        if spec.threads > 0 && claims >= spec.threads {
            continue; // at its fabric-wide concurrency cap
        }
        candidates.push(Candidate { job, spec, claims });
    }

    // Fair share: a submitter's weight is the live claims across all
    // their incomplete jobs.
    let mut by_submitter: HashMap<String, usize> = HashMap::new();
    for c in &candidates {
        *by_submitter.entry(c.spec.submitter.clone()).or_default() += c.claims;
    }
    candidates.sort_by(|a, b| {
        b.spec
            .priority
            .cmp(&a.spec.priority)
            .then_with(|| by_submitter[&a.spec.submitter].cmp(&by_submitter[&b.spec.submitter]))
            .then_with(|| a.job.id.cmp(&b.job.id))
    });

    for c in candidates {
        let scanned = log::with_log(&c.job, &c.spec, |log| {
            let missing: Vec<FamilyId> = log
                .families()
                .filter(|&(_, done, total)| done < total)
                .map(|(family, _, _)| family.clone())
                .collect();
            (log.done(), log.total(), missing)
        });
        let (job_done, job_total, missing) = match scanned {
            Ok(scanned) => scanned,
            Err(e) => {
                mark_failed(store, &c.job, &e);
                incomplete -= 1;
                continue;
            }
        };
        if missing.is_empty() {
            // Every cell has a record — e.g. a peer was killed after its
            // last cell but before finalizing. Finish the paperwork. A
            // failed finalize (a flaky disk) leaves the job incomplete,
            // and the next pass finalizes it again.
            match try_finalize(store, &c.job, &c.spec) {
                Ok(_) => incomplete -= 1,
                Err(e) => eprintln!("ftsimd: finalizing {}: {e}", c.job.id),
            }
            continue;
        }
        for family in missing {
            if let Some(claim) = try_claim(&c.job, &family, cfg)? {
                LAST_SCHED_PASS_MS.store(now_ms(), Ordering::Relaxed);
                return Ok(NextWork::Work(Box::new(Assignment {
                    job: c.job,
                    spec: c.spec,
                    family,
                    claim,
                    job_done,
                    job_total,
                })));
            }
        }
    }
    LAST_SCHED_PASS_MS.store(now_ms(), Ordering::Relaxed);
    Ok(NextWork::Idle { incomplete })
}

/// Recomputes a job's status document from first principles — the
/// spec's grid size and the streamed `cells.csv` — after the persisted
/// status was found missing or corrupt, and persists the rebuilt
/// document so dashboards see the recovery. Finalization (results
/// files, `Done`) is re-derived by the normal scheduler path once the
/// rebuilt job is scanned again.
///
/// # Errors
///
/// [`DaemonError`] when the spec itself is unreadable or unresolvable.
fn rebuild_status(store: &JobStore, job: &Job) -> Result<JobStatus, DaemonError> {
    let spec = store.load_spec(job)?;
    let (records, total) = merged_records(job, &spec)?;
    let status = JobStatus {
        state: if records.len() == total {
            // Every cell streamed: stays Running so the next scan's
            // finalize path writes the results files and flips to Done.
            JobState::Running
        } else {
            JobState::Queued
        },
        cells_total: total,
        cells_done: records.len(),
        error: String::new(),
        // write_status inherits the real submit timestamp from the prior
        // status when one survives; 0 means genuinely unknown.
        created_unix_ms: 0,
        finished_unix_ms: 0,
    };
    store.write_status(job, &status)?;
    eprintln!(
        "ftsimd: job {}: rebuilt status.json from cells.csv ({}/{} cells)",
        job.id, status.cells_done, status.cells_total
    );
    Ok(status)
}

/// Scheduler passes a job directory may sit without its `spec.json`
/// before it is declared an aborted submit. `submit` creates the job
/// directory and then writes the spec as two steps, so a concurrent
/// scan can catch the gap; the file appears whole (the write is atomic)
/// milliseconds later. A dead submit never fills the gap, and parking
/// it after the grace keeps `--drain` from waiting forever.
const SPECLESS_GRACE_PASSES: u32 = 8;

/// Counts consecutive-ish scan passes that found a job specless (keyed
/// by job id, process-local: the race this papers over is between
/// threads of one process, and a fresh process re-counts harmlessly).
fn specless_strikes(job_id: &str) -> u32 {
    static STRIKES: OnceLock<Mutex<HashMap<String, u32>>> = OnceLock::new();
    let mut map = STRIKES
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap();
    let n = map.entry(job_id.to_string()).or_insert(0);
    *n += 1;
    *n
}

/// Decides what a failed spec/status load means for the queue: a spec
/// that no longer parses is permanent (quarantine it, park the job as
/// failed), a spec still *missing* after a grace period is an aborted
/// submit (park the shell job too), an unresolvable grid is permanent —
/// and anything else is transient, so the job counts as incomplete (a
/// draining server keeps waiting) and is retried on the next pass.
fn note_job_error(store: &JobStore, job: &Job, err: DaemonError, incomplete: &mut usize) {
    match &err {
        DaemonError::Spec(_) => {
            if let Err(e) = store.quarantine(&job.spec_path(), &err.to_string()) {
                eprintln!("ftsimd: quarantine failed: {e}");
            }
            mark_failed(store, job, &err);
        }
        DaemonError::Io { source, .. } if source.kind() == io::ErrorKind::NotFound => {
            // Either a submit caught between creating the directory and
            // writing the spec, or one that died between the two. Give
            // the former time to land before declaring the latter.
            if specless_strikes(&job.id) > SPECLESS_GRACE_PASSES {
                mark_failed(store, job, &err);
            } else {
                *incomplete += 1;
            }
        }
        DaemonError::Experiment(_) => mark_failed(store, job, &err),
        _ => *incomplete += 1,
    }
}

/// Parks a job as failed with the error in its status (best-effort).
pub(crate) fn mark_failed(store: &JobStore, job: &Job, err: &DaemonError) {
    eprintln!("ftsimd: job {} failed: {err}", job.id);
    log::forget(job);
    let mut status = store.load_status(job).unwrap_or(JobStatus {
        state: JobState::Failed,
        cells_total: 0,
        cells_done: 0,
        error: String::new(),
        created_unix_ms: 0,
        finished_unix_ms: 0,
    });
    status.state = JobState::Failed;
    status.error = err.to_string();
    let _ = store.write_status(job, &status);
}

/// Best-effort status bump that never regresses a finalized job.
pub(crate) fn bump_status(store: &JobStore, job: &Job, state: JobState, done: usize, total: usize) {
    if let Ok(s) = store.load_status(job) {
        if s.state == JobState::Done {
            return;
        }
    }
    let _ = store.write_status(
        job,
        &JobStatus {
            state,
            cells_total: total,
            cells_done: done.min(total),
            error: String::new(),
            created_unix_ms: 0,
            finished_unix_ms: 0,
        },
    );
}

/// How a [`run_family`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FamilyOutcome {
    /// Every cell of the family has a record.
    Finished,
    /// A stop request interrupted the family; streamed rows are kept.
    Interrupted,
    /// The claim was lost (lease stolen after an expiry); the thief owns
    /// the family now and this worker's partial rows are still valid.
    Lost,
    /// The disk filled up (ENOSPC on a cell append): the job was paused
    /// with a visible status instead of crash-looping the worker. Every
    /// streamed row is kept; re-submitting the spec after freeing space
    /// resumes from them.
    Paused,
    /// The stuck-cell watchdog killed a cell that overran its wall-clock
    /// budget. The family's claim is released (drop the assignment) and
    /// the cell stays unrecorded, so it is re-queued on the next
    /// scheduler pass — until its strike count caps out and the job is
    /// marked failed instead.
    Stuck,
}

/// Cells a single coordinate may overrun its deadline before the whole
/// job is marked failed — enough to ride out scheduler noise and
/// probabilistic chaos delays, few enough that a deterministic hang
/// converges to a visible failure quickly.
const WATCHDOG_MAX_STRIKES: u64 = 5;

/// Cells killed by the stuck-cell watchdog in this process (see
/// `GET /healthz`).
static WATCHDOG_KILLS: AtomicU64 = AtomicU64::new(0);

/// Watchdog kills this process has performed.
pub(crate) fn watchdog_kills() -> u64 {
    WATCHDOG_KILLS.load(Ordering::Relaxed)
}

/// The per-cell wall-clock budget: with no completed cell observed yet
/// the configured floor applies (the first cell also pays for the
/// family baseline); afterwards, a generous multiple of the family's
/// observed maximum — a cell 16x slower than its slowest sibling is
/// wedged, not working.
fn cell_budget(observed_max: Duration, cfg: &FabricConfig) -> Duration {
    if observed_max.is_zero() {
        cfg.cell_floor
    } else {
        (observed_max * 16).max(Duration::from_secs(1))
    }
}

/// Reads the job's watchdog sidecar (`watchdog.json`: cell label →
/// strike count). The sidecar is advisory bookkeeping, not a result
/// artifact — a torn or missing file parses as "no strikes yet", which
/// only makes the watchdog more patient.
fn watchdog_strikes(job: &Job) -> Vec<(String, u64)> {
    let path = job.dir().join("watchdog.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Vec::new();
    };
    let Ok(JsonValue::Obj(pairs)) = JsonValue::parse(&text) else {
        return Vec::new();
    };
    pairs
        .into_iter()
        .filter_map(|(label, v)| Some((label, v.as_u64()?)))
        .collect()
}

/// Adds a strike for `label` in the job's watchdog sidecar and returns
/// the new count. Lost updates under concurrent writers only under-count
/// — strikes are a patience budget, not a correctness mechanism.
fn bump_watchdog_strike(job: &Job, label: &str) -> u64 {
    let mut strikes = watchdog_strikes(job);
    let count = match strikes.iter_mut().find(|(l, _)| l == label) {
        Some((_, n)) => {
            *n += 1;
            *n
        }
        None => {
            strikes.push((label.to_string(), 1));
            1
        }
    };
    let doc = JsonValue::Obj(
        strikes
            .into_iter()
            .map(|(l, n)| (l, JsonValue::U64(n)))
            .collect(),
    );
    let _ = std::fs::write(job.dir().join("watchdog.json"), doc.render_pretty(2));
    count
}

/// A cell overran its budget: count the strike, make the overrun visible
/// (healthz counter, stderr, and — once the strikes cap out — a terminal
/// failed status), and hand the family back to the scheduler.
fn note_stuck_cell(store: &JobStore, a: &Assignment, identity: &RunRecord, budget: Duration) {
    WATCHDOG_KILLS.fetch_add(1, Ordering::Relaxed);
    fobs().watchdog_kills.inc();
    fobs().cells_retried.inc();
    let label = identity.cell_label();
    let strikes = bump_watchdog_strike(&a.job, &label);
    trace::emit(TraceEvent::new(
        "watchdog",
        &a.job.id,
        &label,
        &format!("deadline_ms={}", budget.as_millis()),
    ));
    eprintln!(
        "ftsimd: job {}: cell {label} exceeded its {}ms deadline \
         (strike {strikes}/{WATCHDOG_MAX_STRIKES}); re-queueing",
        a.job.id,
        budget.as_millis(),
    );
    if strikes >= WATCHDOG_MAX_STRIKES {
        let err = DaemonError::Io {
            context: format!("cell {label} exceeded deadline ({strikes} strikes)"),
            source: io::Error::new(io::ErrorKind::TimedOut, "stuck-cell watchdog"),
        };
        mark_failed(store, &a.job, &err);
    }
}

/// Runs one claimed family to completion, streaming each record to the
/// job's `cells.csv` and renewing the claim between cells.
///
/// Execution goes through a **sub-experiment**: the job's spec narrowed
/// to the family's single workload, model and budget (full rate, mix
/// and seed axes). Because a record is a pure function of its cell
/// coordinates, the narrowed grid produces exactly the rows the full
/// grid would — same fork bounds, same baseline decisions — without
/// paying the whole job's planning cost per claim.
///
/// # Errors
///
/// [`DaemonError`] when the sub-grid cannot be built (the job is marked
/// failed by the caller's next scan) or streaming I/O breaks.
pub(crate) fn run_family(
    store: &JobStore,
    a: &mut Assignment,
    cfg: &FabricConfig,
    stop: &dyn Fn() -> bool,
) -> Result<FamilyOutcome, DaemonError> {
    let mut sub = a.spec.clone();
    sub.workloads = vec![a.family.workload.clone()];
    sub.models = vec![a.family.model.clone()];
    sub.budgets = vec![a.family.budget];
    sub.threads = 1; // cells run on this worker thread only

    let (mut writer, existing) =
        match AppendWriter::open(a.job.cells_path(), &RunRecord::csv_header()) {
            Ok(opened) => opened,
            // The open itself appends (the header, or the tail repair), so a
            // full disk can surface here just as well as on a row append.
            Err(e) if ftsim_chaos::is_enospc(&e) => return Ok(pause_for_enospc(store, &a.job)),
            Err(e) => {
                return Err(io_err(format!("opening {}", a.job.cells_path().display()))(
                    e,
                ))
            }
        };
    // Only the claimed family's records: the sub-grid has no other cells.
    let prior = log::family_records(&a.job, &a.spec, &a.family, &existing)?;
    let plan = std::sync::Arc::new(
        sub.to_experiment()?
            .resume_from(prior)
            .plan()
            .map_err(DaemonError::Experiment)?,
    );

    // Cells execute on a helper thread so the watchdog can abandon one
    // that wedges: the main thread feeds indices and waits with a
    // deadline. A chaos gate at `fabric.cell.<family-slug>` sits at the
    // top of each cell, so plans can hang exactly this family
    // (`delay@fabric.cell.<slug>*`) to exercise the watchdog. On every
    // exit path the index channel drops, the helper's `recv` fails, and
    // it unwinds on its own — including the abandonment case, where it
    // first finishes the wedged cell nobody is waiting for.
    let (idx_tx, idx_rx) = std::sync::mpsc::channel::<usize>();
    let (rec_tx, rec_rx) = std::sync::mpsc::channel::<(RunRecord, CellPath, StageProfile)>();
    {
        let plan = std::sync::Arc::clone(&plan);
        let site = format!("{}{}", fp::FABRIC_CELL_PREFIX, a.family.slug());
        std::thread::spawn(move || {
            while let Ok(idx) = idx_rx.recv() {
                let _ = ftsim_chaos::io().gate(&site);
                if rec_tx.send(plan.run_cell_observed(idx)).is_err() {
                    return; // abandoned by the watchdog
                }
            }
        });
    }

    let mut observed_max = Duration::ZERO;
    let mut done = a.job_done;
    for idx in 0..plan.len() {
        if plan.prior(idx).is_some() {
            continue; // already recorded (this pass resumed it)
        }
        if stop() {
            return Ok(FamilyOutcome::Interrupted);
        }
        if !a.claim.renew()? {
            return Ok(FamilyOutcome::Lost);
        }
        let budget = cell_budget(observed_max, cfg);
        let started = Instant::now();
        if idx_tx.send(idx).is_err() {
            return Err(DaemonError::Io {
                context: "cell worker thread died".to_string(),
                source: io::Error::new(io::ErrorKind::BrokenPipe, "worker channel closed"),
            });
        }
        let (record, path, stage_profile) = match rec_rx.recv_timeout(budget) {
            Ok(cell) => cell,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                note_stuck_cell(store, a, &plan.identity(idx), budget);
                return Ok(FamilyOutcome::Stuck);
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                return Err(DaemonError::Io {
                    context: "cell worker thread died".to_string(),
                    source: io::Error::new(io::ErrorKind::BrokenPipe, "worker channel closed"),
                });
            }
        };
        observed_max = observed_max.max(started.elapsed());
        let label = record.cell_label();
        trace::emit(TraceEvent::new(
            path.name(),
            &a.job.id,
            &label,
            &format!(
                "cycles={} ms={}",
                record.cycles,
                started.elapsed().as_millis()
            ),
        ));
        let row = record.to_csv_row();
        if let Err(e) = writer.append_row(&row) {
            if ftsim_chaos::is_enospc(&e) {
                return Ok(pause_for_enospc(store, &a.job));
            }
            return Err(io_err(format!(
                "appending to {}",
                a.job.cells_path().display()
            ))(e));
        }
        let m = fobs();
        m.cells_completed.inc();
        m.append_bytes.add(row.len() as u64 + 1); // the row plus its newline
        trace::emit(TraceEvent::new(
            "append",
            &a.job.id,
            &label,
            &format!("bytes={}", row.len() + 1),
        ));
        append_profile_row(&a.job, &label, path, &stage_profile);
        done += 1;
        // Keep `status` live for dashboards. The count is this worker's
        // view — concurrent peers make it momentarily stale, and the
        // next bump or finalization corrects it.
        bump_status(store, &a.job, JobState::Running, done, a.job_total);
    }
    a.job_done = done;
    Ok(FamilyOutcome::Finished)
}

/// Disk full while streaming cells. Losing the record is unavoidable,
/// but crashing the worker (and retrying into the same full disk) helps
/// nobody: pause the job with a status a human will actually see, keep
/// every streamed row, and let an identical re-submit resume once space
/// exists.
fn pause_for_enospc(store: &JobStore, job: &Job) -> FamilyOutcome {
    eprintln!(
        "ftsimd: job {}: disk full appending cells.csv; pausing the job",
        job.id
    );
    let _ = store.request_job_stop(job);
    if let Ok(mut status) = store.load_status(job) {
        if status.state != JobState::Done {
            status.error = "paused: no space left on device while appending cells.csv; \
                 free space and re-submit the spec to resume"
                .to_string();
            let _ = store.write_status(job, &status);
        }
    }
    FamilyOutcome::Paused
}

/// Header of the per-cell stage-profile sidecar (`<job>/profile.csv`):
/// one row per profiled cell — exact stage call counts plus estimated
/// per-stage wall nanoseconds (extrapolated from 1-in-64 cycle samples).
pub(crate) fn profile_header() -> String {
    let mut cols = vec!["label".to_string(), "path".to_string()];
    cols.extend(["cycles".to_string(), "samples".to_string()]);
    for s in STAGE_NAMES {
        cols.push(format!("{s}_calls"));
    }
    for s in STAGE_NAMES {
        cols.push(format!("{s}_est_ns"));
    }
    cols.join(",")
}

/// Best-effort append of one cell's stage profile to the job's
/// `profile.csv` sidecar. Empty profiles (profiling off, resumed cells)
/// are skipped. All errors — including a chaos-injected one at the
/// `obs.profile.append` failpoint — are swallowed: the sidecar is pure
/// observability and must never change a sweep's outcome. The site name
/// deliberately sits outside the `fabric.*` and `csv.*` globs ambient CI
/// chaos plans target, so enabling profiling does not consume their
/// injection budgets.
fn append_profile_row(job: &Job, label: &str, path: CellPath, prof: &StageProfile) {
    if prof.is_empty() {
        return;
    }
    if ftsim_chaos::io().gate(fp::OBS_PROFILE_APPEND).is_err() {
        return;
    }
    let file = job.profile_path();
    let fresh = !file.exists();
    let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&file)
    else {
        return;
    };
    use std::io::Write as _;
    if fresh {
        let _ = writeln!(f, "{}", profile_header());
    }
    let est = prof.est_total_ns();
    let mut row = format!("{label},{},{},{}", path.name(), prof.cycles, prof.samples);
    for calls in prof.calls {
        row.push_str(&format!(",{calls}"));
    }
    for ns in est {
        row.push_str(&format!(",{ns}"));
    }
    let _ = writeln!(f, "{row}");
}

/// Merges a job's streamed records into grid order (newest row per
/// cell), returning them with the grid's total cell count. An in-flight
/// job yields fewer records than the total; a finalizable one yields
/// exactly as many.
///
/// # Errors
///
/// [`DaemonError`] when the spec does not resolve to a grid.
pub(crate) fn merged_records(
    job: &Job,
    spec: &JobSpec,
) -> Result<(Vec<RunRecord>, usize), DaemonError> {
    log::with_log(job, spec, |log| (log.records(), log.total()))
}

/// Finalizes a job if — and only if — every grid cell has a streamed
/// record: assembles the records in grid order (newest row per cell)
/// and writes `results.csv`/`results.json` atomically, then marks the
/// job done and clears its claims. Concurrent finalizers write
/// byte-identical artifacts, so the last rename winning is harmless.
/// Returns whether the job is now finalized.
///
/// # Errors
///
/// [`DaemonError`] for unresolvable specs or I/O trouble.
pub(crate) fn try_finalize(
    store: &JobStore,
    job: &Job,
    spec: &JobSpec,
) -> Result<bool, DaemonError> {
    let complete = log::with_log(job, spec, |log| {
        (log.done() == log.total()).then(|| log.records())
    })?;
    let Some(records) = complete else {
        return Ok(false);
    };
    let total = records.len();
    write_atomic(
        fp::FABRIC_FINALIZE_RESULTS_CSV,
        &job.results_path(),
        to_csv(&records).as_bytes(),
    )?;
    write_atomic(
        fp::FABRIC_FINALIZE_RESULTS_JSON,
        &job.results_json_path(),
        to_json(&records).as_bytes(),
    )?;
    store.write_status(
        job,
        &JobStatus {
            state: JobState::Done,
            cells_total: total,
            cells_done: total,
            error: String::new(),
            created_unix_ms: 0,
            finished_unix_ms: 0,
        },
    )?;
    // Claims are scaffolding; a straggler holding one re-runs a cell to
    // a byte-identical row at worst.
    ftsim_chaos::io()
        .remove_dir_all(fp::FABRIC_FINALIZE_CLEAR_CLAIMS, &job.claims_dir())
        .ok();
    log::forget(job);
    fobs().jobs_finalized.inc();
    trace::emit(TraceEvent::new(
        "merge",
        &job.id,
        "",
        &format!("cells={total}"),
    ));
    Ok(true)
}

/// Re-queues `running` jobs that no live claim is working — the
/// graceful-shutdown sweep, so a stopped fabric leaves only `queued`
/// and terminal states behind (and the status files tell the truth:
/// nobody is running them).
pub(crate) fn requeue_unclaimed(store: &JobStore) -> Result<(), DaemonError> {
    for job in store.jobs()? {
        let Ok(status) = store.load_status(&job) else {
            continue;
        };
        if status.state == JobState::Running && live_claims(&job) == 0 {
            store.write_status(
                &job,
                &JobStatus {
                    state: JobState::Queued,
                    ..status
                },
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_job(tag: &str) -> (JobStore, Job) {
        let dir = std::env::temp_dir().join(format!("ftsimd-fabric-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = JobStore::open(dir).unwrap();
        let mut spec = JobSpec::new("claims");
        spec.workloads = vec!["gcc".to_string()];
        spec.models = vec!["SS-1".to_string()];
        spec.budgets = vec![1_000];
        let (id, _) = store.submit(&spec).unwrap();
        let job = store.job(&id).unwrap();
        (store, job)
    }

    fn family() -> FamilyId {
        FamilyId {
            workload: "gcc".to_string(),
            budget: 1_000,
            model: "SS-1".to_string(),
        }
    }

    #[test]
    fn claim_is_exclusive_until_released() {
        let (store, job) = temp_job("exclusive");
        let cfg_a = FabricConfig::new(Duration::from_secs(30));
        let cfg_b = FabricConfig::new(Duration::from_secs(30));
        assert_ne!(cfg_a.owner, cfg_b.owner);

        let held = try_claim(&job, &family(), &cfg_a).unwrap().unwrap();
        assert!(try_claim(&job, &family(), &cfg_b).unwrap().is_none());
        assert_eq!(live_claims(&job), 1);
        drop(held);
        assert_eq!(live_claims(&job), 0, "drop releases");
        assert!(try_claim(&job, &family(), &cfg_b).unwrap().is_some());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn expired_lease_is_stolen_and_old_holder_notices() {
        let (store, job) = temp_job("steal");
        let fast = FabricConfig::new(Duration::from_millis(40));
        let slow = FabricConfig::new(Duration::from_secs(30));

        let mut dying = try_claim(&job, &family(), &fast).unwrap().unwrap();
        std::thread::sleep(Duration::from_millis(80)); // lease expires
        let thief = try_claim(&job, &family(), &slow).unwrap();
        assert!(thief.is_some(), "an expired lease is stealable");
        // The original holder's heartbeat sees the loss...
        std::thread::sleep(Duration::from_millis(15)); // past lease/4
        assert!(!dying.renew().unwrap());
        // ...and its drop must not release the thief's claim.
        drop(dying);
        assert_eq!(live_claims(&job), 1);
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn renewal_extends_the_lease() {
        let (store, job) = temp_job("renew");
        let cfg = FabricConfig::new(Duration::from_millis(120));
        let other = FabricConfig::new(Duration::from_millis(120));
        let mut held = try_claim(&job, &family(), &cfg).unwrap().unwrap();
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(40));
            assert!(held.renew().unwrap());
            // The renewed lease is never stealable.
            assert!(try_claim(&job, &family(), &other).unwrap().is_none());
        }
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn unparseable_claim_is_held_until_stale() {
        let (store, job) = temp_job("torn");
        let cfg = FabricConfig::new(Duration::from_millis(60));
        std::fs::create_dir_all(job.claims_dir()).unwrap();
        let path = job.claims_dir().join(format!("{}.lease", family().slug()));
        std::fs::write(&path, b"{ torn").unwrap();
        // Fresh garbage is presumed a mid-write peer.
        assert!(try_claim(&job, &family(), &cfg).unwrap().is_none());
        // Two leases later it is debris.
        std::thread::sleep(Duration::from_millis(130));
        assert!(try_claim(&job, &family(), &cfg).unwrap().is_some());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn scheduling_prefers_priority_then_fair_share() {
        let dir = std::env::temp_dir().join(format!("ftsimd-fabric-sched-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = JobStore::open(&dir).unwrap();
        let mut base = JobSpec::new("low");
        base.workloads = vec!["gcc".to_string()];
        base.models = vec!["SS-1".to_string()];
        base.budgets = vec![1_000];
        base.submitter = "alice".to_string();
        store.submit(&base).unwrap();
        let mut vip = base.clone();
        vip.name = "high".to_string();
        vip.priority = 5;
        vip.submitter = "bob".to_string();
        let (vip_id, _) = store.submit(&vip).unwrap();

        let cfg = FabricConfig::new(Duration::from_secs(30));
        let NextWork::Work(a) = next_assignment(&store, &cfg, None).unwrap() else {
            panic!("claimable work expected");
        };
        assert_eq!(a.job.id, vip_id, "higher priority claims first");

        // With bob's job claimed, fair share points the next worker at
        // alice's equal-priority job, even though bob submitted another:
        let mut tie = base.clone();
        tie.name = "bob-second".to_string();
        tie.submitter = "bob".to_string();
        store.submit(&tie).unwrap();
        let NextWork::Work(b) = next_assignment(&store, &cfg, None).unwrap() else {
            panic!("claimable work expected");
        };
        assert_eq!(
            b.job.id, "0001-low",
            "fair share prefers the submitter with no live claims"
        );
        drop((a, b));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_status_is_quarantined_and_rebuilt() {
        let (store, job) = temp_job("corrupt-status");
        std::fs::write(job.status_path(), "{ definitely not json").unwrap();
        let cfg = FabricConfig::new(Duration::from_secs(30));
        let NextWork::Work(a) = next_assignment(&store, &cfg, None).unwrap() else {
            panic!("job must be schedulable again after the rebuild");
        };
        assert_eq!(a.job.id, job.id);
        drop(a);
        assert_eq!(store.quarantined_count(), 1, "evidence must be preserved");
        let rebuilt = store.load_status(&job).unwrap();
        assert_eq!(rebuilt.cells_total, 1);
        assert_eq!(rebuilt.cells_done, 0);
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn missing_status_is_rebuilt() {
        let (store, job) = temp_job("missing-status");
        std::fs::remove_file(job.status_path()).unwrap();
        let cfg = FabricConfig::new(Duration::from_secs(30));
        assert!(matches!(
            next_assignment(&store, &cfg, None).unwrap(),
            NextWork::Work(_)
        ));
        assert!(job.status_path().exists(), "rebuilt status must persist");
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn corrupt_spec_is_quarantined_and_job_parked_failed() {
        let (store, job) = temp_job("corrupt-spec");
        std::fs::write(job.spec_path(), "{{{{ not a spec").unwrap();
        let cfg = FabricConfig::new(Duration::from_secs(30));
        match next_assignment(&store, &cfg, None).unwrap() {
            NextWork::Idle { incomplete } => {
                assert_eq!(incomplete, 0, "a failed job must not block drain")
            }
            NextWork::Work(_) => panic!("a corrupt spec must not be runnable"),
        }
        assert!(
            !job.spec_path().exists(),
            "spec must be moved to quarantine"
        );
        assert!(store.quarantined_count() >= 1);
        let status = store.load_status(&job).unwrap();
        assert_eq!(status.state, JobState::Failed);
        assert!(!status.error.is_empty());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn paused_jobs_are_skipped_and_do_not_block_drain() {
        let (store, job) = temp_job("paused");
        store.request_job_stop(&job).unwrap();
        let cfg = FabricConfig::new(Duration::from_secs(30));
        match next_assignment(&store, &cfg, None).unwrap() {
            NextWork::Idle { incomplete } => assert_eq!(incomplete, 0),
            NextWork::Work(_) => panic!("paused jobs must not be claimed"),
        }
        // Re-submitting the identical spec un-pauses.
        let spec = store.load_spec(&job).unwrap();
        store.submit(&spec).unwrap();
        assert!(matches!(
            next_assignment(&store, &cfg, None).unwrap(),
            NextWork::Work(_)
        ));
        std::fs::remove_dir_all(store.root()).ok();
    }
}
