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
use ftsim::harness::{to_csv, to_json, CellPath, FamilyId, RunRecord, SweepPlan};
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
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Fabric-level metric handles, resolved once per process. These count
/// protocol events (claims, steals, watchdog kills, appended bytes) —
/// the *fabric's* vitals, complementing the per-simulation counters the
/// harness registers (`ftsim_cells_total`, `ftsim_sim_cycles_total`).
/// Like every observability surface, they live entirely outside the
/// simulation: nothing here feeds back into scheduling or records.
/// `GET /healthz` reads the steal and watchdog-kill counts from here.
pub(crate) struct FabricObs {
    claims_acquired: metrics::Counter,
    claims_renewed: metrics::Counter,
    /// Stale (expired or unparseable) leases this process has stolen or
    /// quarantined: a flaky-peer indicator.
    pub(crate) claims_stolen: metrics::Counter,
    claims_released: metrics::Counter,
    /// Wall time from asking for a family to holding its lease,
    /// backoff included.
    lease_wait_ms: metrics::Histo,
    /// Wall time of one scheduling pass ([`next_assignment`]).
    sched_pass_ms: metrics::Histo,
    cells_completed: metrics::Counter,
    cells_retried: metrics::Counter,
    /// Cells killed by the stuck-cell watchdog in this process.
    pub(crate) watchdog_kills: metrics::Counter,
    append_bytes: metrics::Counter,
    backoff_retries: metrics::Counter,
    /// [`try_finalize`] calls: one per job when only the scheduling pass
    /// that finds every cell recorded finalizes.
    finalize_attempts: metrics::Counter,
    jobs_finalized: metrics::Counter,
}

pub(crate) fn fobs() -> &'static FabricObs {
    static HANDLES: OnceLock<FabricObs> = OnceLock::new();
    let claim = |event| metrics::counter("ftsimd_claims_total", &[("event", event)]);
    HANDLES.get_or_init(|| FabricObs {
        claims_acquired: claim("acquired"),
        claims_renewed: claim("renewed"),
        claims_stolen: claim("stolen"),
        claims_released: claim("released"),
        lease_wait_ms: metrics::histogram("ftsimd_lease_wait_ms", &[], 5, 40),
        sched_pass_ms: metrics::histogram("ftsimd_sched_pass_ms", &[], 1, 40),
        cells_completed: metrics::counter("ftsimd_cells_completed_total", &[]),
        cells_retried: metrics::counter("ftsimd_cells_retried_total", &[]),
        watchdog_kills: metrics::counter("ftsimd_watchdog_kills_total", &[]),
        append_bytes: metrics::counter("ftsimd_append_bytes_total", &[]),
        backoff_retries: metrics::counter(
            "ftsimd_backoff_retries_total",
            &[("site", "fabric.claim")],
        ),
        finalize_attempts: metrics::counter("ftsimd_finalize_attempts_total", &[]),
        jobs_finalized: metrics::counter("ftsimd_jobs_finalized_total", &[]),
    })
}

/// Milliseconds since the Unix epoch — the fabric's shared clock.
/// Routed through the chaos layer so plans can skew it (`skew=MS`).
fn now_ms() -> u64 {
    ftsim_chaos::io().now_ms()
}

/// Wall-clock of this process's last completed scheduler pass
/// ([`next_assignment`]), for `GET /healthz` liveness checks.
static LAST_SCHED_PASS_MS: AtomicU64 = AtomicU64::new(0);

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
    let path = dir.join(format!("{}.lease", family.slug()));
    // The claims directory is made by a job's first claim, not every one:
    // only a create that finds no directory makes it.
    let claim = |path: &Path| {
        let created = match create_claim(path, &cfg.owner, cfg.lease) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => env
                .create_dir_all(fp::FABRIC_CLAIM_CREATE, &dir)
                .and_then(|()| create_claim(path, &cfg.owner, cfg.lease)),
            created => created,
        };
        created.map_err(io_err(format!("claiming {}", path.display())))
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
    let lease = read_lease(&path);
    let parseable = lease.is_some();
    let stealable = match lease {
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

/// The live (unexpired) claims on a job, from one scan of its claims
/// directory.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LiveClaims {
    /// Live claims held on the job, by any owner.
    pub count: usize,
    /// Age in milliseconds of the oldest live claim, or 0 when none
    /// carries a creation stamp — `/healthz` surfaces the fabric-wide
    /// maximum as a wedged-family indicator (a claim alive far past the
    /// typical family runtime is being renewed but not finishing).
    /// Leases written by pre-stamp daemons lack `created_unix_ms` and
    /// are skipped rather than misreported.
    pub oldest_age_ms: u64,
}

/// Scans a job's claims directory once for its [`LiveClaims`].
pub(crate) fn live_claims(job: &Job) -> LiveClaims {
    let mut live = LiveClaims::default();
    let Ok(entries) = ftsim_chaos::io().list_dir(fp::FABRIC_CLAIMS_LIST, &job.claims_dir()) else {
        return live;
    };
    let now = now_ms();
    for lease in entries
        .iter()
        .filter(|p| p.extension().is_some_and(|x| x == "lease"))
        .filter_map(|p| read_lease(p))
        .filter(|l| l.expires_unix_ms > now)
    {
        live.count += 1;
        if lease.created_unix_ms > 0 {
            live.oldest_age_ms = live
                .oldest_age_ms
                .max(now.saturating_sub(lease.created_unix_ms));
        }
    }
    live
}

/// A job's state and error as every reader serves them.
#[derive(Debug)]
pub(crate) struct Served {
    /// `running` for a non-terminal job with a live claim on it; the
    /// persisted state otherwise.
    pub state: JobState,
    /// The status's error for a terminal job, the pause reason for a
    /// paused one, empty otherwise.
    pub error: String,
}

/// What `status`, `jobs`, `results`, `report` and `/healthz` show of a
/// job whose status reads as `status` and whose claims scan as `live`.
/// Liveness is not persisted: the claim leases say who is working on a
/// job, and they expire on their own when the worker dies.
pub(crate) fn served(store: &JobStore, job: &Job, status: &JobStatus, live: &LiveClaims) -> Served {
    if status.terminal() {
        return Served {
            state: status.state,
            error: status.error.clone(),
        };
    }
    let state = if live.count > 0 {
        JobState::Running
    } else {
        JobState::Queued
    };
    Served {
        state,
        error: store.pause_reason(job),
    }
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

/// A job's progress, as every reader shows it.
#[derive(Debug)]
pub(crate) struct Progress {
    /// Cells with a streamed (or final) record.
    pub done: usize,
    /// Each family's progress in grid order, when asked for and the
    /// spec resolves.
    pub families: Option<Vec<FamilyProgress>>,
}

/// The progress of `job`, whose spec and status read as `spec` and
/// `status` (`None`: they did not). Progress has one source, the job's
/// `cells.csv` index; `status.json` carries no count. A done job counts
/// every cell even if some were never streamed (resume-matched cells
/// are not re-appended), and reads nothing. Any other job counts the
/// cells its index holds a record for, and none when the spec does not
/// resolve. `by_family` adds the per-family counts.
pub(crate) fn progress(
    job: &Job,
    spec: Option<&JobSpec>,
    status: Option<&JobStatus>,
    by_family: bool,
) -> Progress {
    let done_total = status
        .filter(|s| s.state == JobState::Done)
        .map(|s| s.cells_total);
    let tally = |log: &log::JobLog| Progress {
        done: done_total.unwrap_or_else(|| log.done()),
        families: by_family.then(|| {
            log.families()
                .enumerate()
                .map(|(f, (done, total))| FamilyProgress {
                    family: log.family(f),
                    done: if done_total.is_some() { total } else { done },
                    total,
                })
                .collect()
        }),
    };
    let indexed = match spec {
        Some(spec) if done_total.is_none() => log::with_log(job, spec, tally).ok(),
        Some(spec) if by_family => log::grid_of(spec)
            .ok()
            .map(|grid| tally(&log::JobLog::new(grid))),
        _ => None,
    };
    indexed.unwrap_or(Progress {
        done: done_total.unwrap_or(0),
        families: None,
    })
}

/// A claimed unit of work: one family of one job.
pub(crate) struct Assignment {
    /// The job being worked.
    pub job: Job,
    /// What this process keeps of the job: spec, index and programs.
    pub entry: Arc<log::Entry>,
    /// The claimed family.
    pub family: FamilyId,
    /// Its position in the job's family order.
    pub family_index: usize,
    /// The held lease.
    pub claim: ClaimGuard,
}

/// What [`next_assignment`] found.
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
/// their status) rather than wedging the queue.
///
/// # Errors
///
/// [`DaemonError`] only for store-level trouble (the queue itself being
/// unreadable).
pub(crate) fn next_assignment(
    store: &JobStore,
    cfg: &FabricConfig,
) -> Result<NextWork, DaemonError> {
    let started = Instant::now();
    let next = scheduling_pass(store, cfg);
    fobs()
        .sched_pass_ms
        .record(started.elapsed().as_millis() as u64);
    next
}

/// The body of [`next_assignment`]. Each job's spec and status come
/// from what this process keeps of it ([`log::job`], [`log::status`]),
/// read again only when their files change, and its next family from the
/// index's set of incomplete families, so a pass costs O(jobs + claims
/// tried), not O(families). A job whose every cell has a record is
/// finalized here, and only here.
fn scheduling_pass(store: &JobStore, cfg: &FabricConfig) -> Result<NextWork, DaemonError> {
    struct Candidate {
        job: Job,
        entry: Arc<log::Entry>,
        claims: usize,
    }
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut incomplete = 0usize;
    for job in store.jobs()? {
        let status = match log::status(store, &job) {
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
        if status.terminal() {
            log::forget(&job); // terminal: nothing of it is needed any more
            continue;
        }
        if store.job_stop_requested(&job) {
            continue; // paused: not claimable, not blocking drain
        }
        let entry = match log::entry(store, &job) {
            Ok(entry) => entry,
            Err(e) => {
                note_job_error(store, &job, e, &mut incomplete);
                continue;
            }
        };
        incomplete += 1;
        let claims = live_claims(&job).count;
        let threads = entry.spec().threads;
        if threads > 0 && claims >= threads {
            continue; // at its fabric-wide concurrency cap
        }
        candidates.push(Candidate { job, entry, claims });
    }

    // Fair share: a submitter's weight is the live claims across all
    // their incomplete jobs.
    let mut by_submitter: HashMap<String, usize> = HashMap::new();
    for c in &candidates {
        *by_submitter
            .entry(c.entry.spec().submitter.clone())
            .or_default() += c.claims;
    }
    candidates.sort_by(|a, b| {
        let (sa, sb) = (a.entry.spec(), b.entry.spec());
        sb.priority
            .cmp(&sa.priority)
            .then_with(|| by_submitter[&sa.submitter].cmp(&by_submitter[&sb.submitter]))
            .then_with(|| a.job.id.cmp(&b.job.id))
    });

    for c in candidates {
        // One read of `cells.csv` brings the index up to date for the
        // whole pass.
        let first = c.entry.with_log(&c.job, |log| {
            let f = log.next_incomplete(None)?;
            Some((f, log.family(f)))
        });
        let Some(mut next) = first else {
            // Every cell has a record: the last family just finished, or
            // a peer was killed after its last cell but before the
            // paperwork. A failed finalize (a flaky disk) leaves the job
            // incomplete, and the next pass finalizes it again.
            match try_finalize(store, &c.job, &c.entry) {
                Ok(true) => {
                    incomplete -= 1;
                    println!("ftsimd: job {} done", c.job.id);
                }
                Ok(false) => {}
                Err(e) => eprintln!("ftsimd: finalizing {}: {e}", c.job.id),
            }
            continue;
        };
        loop {
            let (family_index, family) = next;
            if let Some(claim) = try_claim(&c.job, &family, cfg)? {
                LAST_SCHED_PASS_MS.store(now_ms(), Ordering::Relaxed);
                return Ok(NextWork::Work(Box::new(Assignment {
                    job: c.job,
                    entry: c.entry,
                    family,
                    family_index,
                    claim,
                })));
            }
            match c.entry.next_incomplete(family_index) {
                Some(after) => next = after,
                None => break,
            }
        }
    }
    LAST_SCHED_PASS_MS.store(now_ms(), Ordering::Relaxed);
    Ok(NextWork::Idle { incomplete })
}

/// Recomputes a job's status document from the spec's grid size after
/// the persisted status was found missing or corrupt, and persists the
/// rebuilt document so dashboards see the recovery. The job is queued
/// again even if every cell has a record: the scan that follows finds
/// no family missing a cell and finalizes it (results files, `Done`).
/// The prior status is gone, so the TTL clock restarts now.
///
/// # Errors
///
/// [`DaemonError`] when the spec itself is unreadable or unresolvable.
fn rebuild_status(store: &JobStore, job: &Job) -> Result<JobStatus, DaemonError> {
    let status = JobStatus::queued(log::entry(store, job)?.cells());
    store.write_status(job, &status)?;
    eprintln!(
        "ftsimd: job {}: rebuilt status.json ({} cells)",
        job.id, status.cells_total
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
    let _ = store.update_status(job, |prior| {
        Some(JobStatus {
            state: JobState::Failed,
            error: err.to_string(),
            ..prior.unwrap_or_else(|| JobStatus::queued(0))
        })
    });
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
    /// with a visible reason instead of crash-looping the worker. Every
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

/// A cell order for a [`CellThread`]: the plan, the cell's index, and
/// the chaos gate the cell passes first.
type CellOrder = (Arc<SweepPlan>, usize, Arc<str>);

/// A cell's record, execution path and stage profile.
type CellDone = (RunRecord, CellPath, StageProfile);

/// A worker's cell thread, kept across its claims. Cells run on it so
/// that the stuck-cell watchdog can abandon one that wedges: the worker
/// sends each cell and waits for its record with a deadline. A thread
/// whose cell overran (or that died) is not reused; the next cell starts
/// a fresh one. The abandoned thread finishes the wedged cell nobody is
/// waiting for, finds its channels closed, and exits, as an idle one
/// does once its worker drops this.
#[derive(Default)]
pub(crate) struct CellThread {
    link: Option<(mpsc::Sender<CellOrder>, mpsc::Receiver<CellDone>)>,
}

impl CellThread {
    /// Runs cell `idx` of `plan` on the thread, behind the chaos gate at
    /// `site`, and waits at most `budget` for it. `Ok(None)`: the cell
    /// overran, and the thread is abandoned.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] when the thread died (a panicking cell).
    fn run(
        &mut self,
        plan: &Arc<SweepPlan>,
        idx: usize,
        site: &Arc<str>,
        budget: Duration,
    ) -> Result<Option<CellDone>, DaemonError> {
        let (orders, done) = self.link.get_or_insert_with(spawn_cell_thread);
        let reply = match orders.send((Arc::clone(plan), idx, Arc::clone(site))) {
            Ok(()) => done.recv_timeout(budget),
            Err(_) => Err(RecvTimeoutError::Disconnected),
        };
        if reply.is_err() {
            self.link = None;
        }
        match reply {
            Ok(cell) => Ok(Some(cell)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(DaemonError::Io {
                context: "cell worker thread died".to_string(),
                source: io::Error::new(io::ErrorKind::BrokenPipe, "worker channel closed"),
            }),
        }
    }
}

/// Starts a cell thread: it runs each order it receives until its
/// worker hangs up.
fn spawn_cell_thread() -> (mpsc::Sender<CellOrder>, mpsc::Receiver<CellDone>) {
    let (order_tx, order_rx) = mpsc::channel::<CellOrder>();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        while let Ok((plan, idx, site)) = order_rx.recv() {
            let _ = ftsim_chaos::io().gate(&site);
            if done_tx.send(plan.run_cell_observed(idx)).is_err() {
                return; // abandoned by the watchdog
            }
        }
    });
    (order_tx, done_rx)
}

/// Runs one claimed family to completion, streaming each record to the
/// job's `cells.csv` and renewing the claim between cells.
///
/// Execution goes through a **sub-experiment**: the job's experiment
/// narrowed to the family's single workload, model and budget (full
/// rate, mix and seed axes), running the program the job's entry shares
/// between claims ([`log::Entry::family_plan`]). Because a record is a
/// pure function of its cell coordinates, the narrowed grid produces
/// exactly the rows the full grid would — same fork bounds, same
/// baseline decisions — without paying the whole job's planning cost per
/// claim.
///
/// Rows are written as their cells finish and synced once, when the
/// claim ends (group commit): a killed process loses no written row,
/// and a crashed machine loses at most this claim's rows, which a resume
/// re-simulates to the same bytes. Cells run on the worker's
/// [`CellThread`], and a chaos gate at `fabric.cell.<family-slug>` sits
/// at the top of each, so plans can hang exactly this family
/// (`delay@fabric.cell.<slug>*`) to exercise the watchdog.
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
    cells: &mut CellThread,
) -> Result<FamilyOutcome, DaemonError> {
    let path = a.job.cells_path();
    let header = RunRecord::csv_header();
    let trusted = a.entry.trusted_prefix();
    let (mut writer, opened) = match AppendWriter::open_after(&path, &header, trusted) {
        Ok(opened) => opened,
        // The open itself appends (the header, or the tail repair), so a
        // full disk can surface here just as well as on a row append.
        Err(e) if ftsim_chaos::is_enospc(&e) => return Ok(pause_for_enospc(store, &a.job)),
        Err(e) => return Err(io_err(format!("opening {}", path.display()))(e)),
    };
    let plan = Arc::new(a.entry.family_plan(&a.job, a.family_index, &opened)?);
    let site: Arc<str> = format!("{}{}", fp::FABRIC_CELL_PREFIX, a.family.slug()).into();

    let mut written = 0usize;
    let mut run = || {
        let mut observed_max = Duration::ZERO;
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
            let Some((record, path, stage_profile)) = cells.run(&plan, idx, &site, budget)? else {
                note_stuck_cell(store, a, &plan.identity(idx), budget);
                return Ok(FamilyOutcome::Stuck);
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
            if let Err(e) = writer.write_row(&row) {
                if ftsim_chaos::is_enospc(&e) {
                    return Ok(pause_for_enospc(store, &a.job));
                }
                return Err(io_err(format!(
                    "appending to {}",
                    a.job.cells_path().display()
                ))(e));
            }
            written += 1;
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
        }
        Ok(FamilyOutcome::Finished)
    };
    let outcome = run();
    if written == 0 {
        return outcome;
    }
    // The claim's one sync. Should it fail, the rows are still written
    // and the index reads them; only a machine crash before a later sync
    // could lose them, and a resume re-simulates those cells.
    match writer.sync(fp::FABRIC_CELLS_SYNC) {
        Ok(()) => outcome,
        Err(_) if outcome.is_err() => outcome,
        Err(e) if ftsim_chaos::is_enospc(&e) => Ok(pause_for_enospc(store, &a.job)),
        Err(e) => Err(io_err(format!("syncing {}", path.display()))(e)),
    }
}

/// Disk full while streaming cells. Losing the record is unavoidable,
/// but crashing the worker (and retrying into the same full disk) helps
/// nobody: pause the job with a reason a human will actually see, keep
/// every streamed row, and let an identical re-submit resume once space
/// exists.
fn pause_for_enospc(store: &JobStore, job: &Job) -> FamilyOutcome {
    eprintln!(
        "ftsimd: job {}: disk full appending cells.csv; pausing the job",
        job.id
    );
    let _ = store.request_job_stop(
        job,
        "paused: no space left on device while appending cells.csv; \
         free space and re-submit the spec to resume",
    );
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

/// Finalizes a job if — and only if — every grid cell has a streamed
/// record. The scheduling pass that finds no family missing a cell calls
/// it, and nothing else does. It assembles the records in grid order
/// (newest row per cell)
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
    entry: &log::Entry,
) -> Result<bool, DaemonError> {
    fobs().finalize_attempts.inc();
    let complete = entry.with_log(job, |log| log.complete().then(|| log.records()));
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
    store.update_status(job, |_| {
        Some(JobStatus {
            state: JobState::Done,
            ..JobStatus::queued(total)
        })
    })?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use ftsim_stats::csv::file_id;

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

    /// Field `name` of the job's status document, as `status` serves it.
    fn shown(store: &JobStore, job: &Job, name: &str) -> String {
        let doc = crate::feed::status_doc(store, job);
        doc.get(name)
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string()
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
        assert_eq!(live_claims(&job).count, 1);
        drop(held);
        assert_eq!(live_claims(&job).count, 0, "drop releases");
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

        // The steal count `/healthz` reports. Other unit tests in this
        // process steal too, so it must rise by at least one.
        let stolen_before = fobs().claims_stolen.get();
        let thief = try_claim(&job, &family(), &slow).unwrap();
        assert!(thief.is_some(), "an expired lease is stealable");
        assert!(
            fobs().claims_stolen.get() > stolen_before,
            "the steal is counted"
        );
        // The original holder's heartbeat sees the loss...
        std::thread::sleep(Duration::from_millis(15)); // past lease/4
        assert!(!dying.renew().unwrap());
        // ...and its drop must not release the thief's claim.
        drop(dying);
        assert_eq!(live_claims(&job).count, 1);
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
        let NextWork::Work(a) = next_assignment(&store, &cfg).unwrap() else {
            panic!("claimable work expected");
        };
        assert_eq!(a.job.id, vip_id, "higher priority claims first");

        // With bob's job claimed, fair share points the next worker at
        // alice's equal-priority job, even though bob submitted another:
        let mut tie = base.clone();
        tie.name = "bob-second".to_string();
        tie.submitter = "bob".to_string();
        store.submit(&tie).unwrap();
        let NextWork::Work(b) = next_assignment(&store, &cfg).unwrap() else {
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
        let NextWork::Work(a) = next_assignment(&store, &cfg).unwrap() else {
            panic!("job must be schedulable again after the rebuild");
        };
        assert_eq!(a.job.id, job.id);
        drop(a);
        assert_eq!(store.quarantined_count(), 1, "evidence must be preserved");
        let rebuilt = store.load_status(&job).unwrap();
        assert_eq!(rebuilt.cells_total, 1);
        let spec = store.load_spec(&job).unwrap();
        assert_eq!(progress(&job, Some(&spec), Some(&rebuilt), false).done, 0);
        std::fs::remove_dir_all(store.root()).ok();
    }

    /// `status.json` is a lifecycle record: from submit to finalize,
    /// running families leaves the file byte for byte as it was. The
    /// served documents read `running` from the live claim, and count
    /// from the index.
    #[test]
    fn running_a_family_leaves_status_untouched() {
        let dir =
            std::env::temp_dir().join(format!("ftsimd-fabric-lifecycle-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = JobStore::open(&dir).unwrap();
        let mut spec = JobSpec::new("lifecycle");
        spec.workloads = vec!["gcc".to_string()];
        spec.models = vec!["SS-1".to_string(), "SS-2".to_string()];
        spec.fault_rates_pm = vec![0.0, 4_000.0];
        spec.budgets = vec![1_000];
        let (id, _) = store.submit(&spec).unwrap();
        let job = store.job(&id).unwrap();
        let cfg = FabricConfig::new(Duration::from_secs(30));
        // `cells_done` as `status` and `jobs` serve it.
        let served = || {
            let listing = crate::feed::jobs_doc(&store).unwrap();
            let listed = &listing.get("jobs").and_then(JsonValue::as_arr).unwrap()[0];
            [&crate::feed::status_doc(&store, &job), listed]
                .map(|doc| doc.get("cells_done").and_then(JsonValue::as_u64).unwrap() as usize)
        };
        let state = || shown(&store, &job, "state");
        // The bytes, and the file: an atomic rewrite is a new inode.
        let status_file = || {
            let meta = std::fs::metadata(job.status_path()).unwrap();
            (std::fs::read(job.status_path()).unwrap(), file_id(&meta))
        };
        let submitted = status_file();
        assert_eq!(served(), [0, 0]);
        assert_eq!(state(), "queued");

        for round in 1..=2 {
            let NextWork::Work(mut a) = next_assignment(&store, &cfg).unwrap() else {
                panic!("family {round} must be claimable");
            };
            assert_eq!(state(), "running", "a live claim is held");
            let outcome =
                run_family(&store, &mut a, &cfg, &|| false, &mut CellThread::default()).unwrap();
            assert_eq!(outcome, FamilyOutcome::Finished);
            drop(a);
            assert_eq!(state(), "queued", "no claim is held");
            assert!(
                status_file() == submitted,
                "family {round}'s run rewrote status.json"
            );
            let done = log::with_log(&job, &spec, log::JobLog::done).unwrap();
            assert_eq!(done, 2 * round);
            assert_eq!(served(), [done, done]);
        }
        let text = String::from_utf8(submitted.0).unwrap();
        assert!(!text.contains("cells_done"), "{text}");
        let entry = log::entry(&store, &job).unwrap();
        assert!(try_finalize(&store, &job, &entry).unwrap());
        assert_eq!(state(), "done");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What a process keeps of a job follows its spec file. A spec
    /// replaced under the live process is read again at the next pass,
    /// which rebuilds the job's experiment, index and programs; a corrupt
    /// one is quarantined and takes the job's state with the job. A job
    /// that finalizes leaves nothing behind.
    #[test]
    fn job_state_follows_the_spec_file_and_goes_with_the_job() {
        let dir = std::env::temp_dir().join(format!("ftsimd-fabric-state-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = JobStore::open(&dir).unwrap();
        let mut spec = JobSpec::new("state");
        spec.workloads = vec!["gcc".to_string()];
        spec.models = vec!["SS-1".to_string(), "SS-2".to_string()];
        spec.budgets = vec![1_000];
        let (id, _) = store.submit(&spec).unwrap();
        let job = store.job(&id).unwrap();
        let cfg = FabricConfig::new(Duration::from_secs(30));
        let mut cells = CellThread::default();
        let mut claim = || {
            let NextWork::Work(mut a) = next_assignment(&store, &cfg).unwrap() else {
                panic!("claimable work expected");
            };
            let outcome = run_family(&store, &mut a, &cfg, &|| false, &mut cells).unwrap();
            assert_eq!(outcome, FamilyOutcome::Finished);
        };

        // The first claim builds the (gcc, 1000) program, which the
        // job's other family will run too.
        claim();
        let (first, programs) = log::kept(&job).unwrap();
        assert_eq!((first.spec(), &programs[..]), (&spec, &[0][..]));

        // Replaced: another grid under the same job directory.
        let mut replaced = spec.clone();
        replaced.budgets = vec![1_200];
        let staging = job.dir().join("spec.json.new");
        std::fs::write(&staging, replaced.to_json()).unwrap();
        std::fs::rename(&staging, job.spec_path()).unwrap();
        let NextWork::Work(a) = next_assignment(&store, &cfg).unwrap() else {
            panic!("the replaced spec's families are claimable");
        };
        let (rebuilt, programs) = log::kept(&job).unwrap();
        assert!(!Arc::ptr_eq(&first, &rebuilt));
        assert_eq!(rebuilt.spec(), &replaced);
        assert!(programs.is_empty(), "{programs:?}");
        assert_eq!(a.family.budget, 1_200);
        drop(a);

        // Corrupt: quarantined, and the job fails with its state dropped.
        std::fs::write(job.spec_path(), "{ not a spec").unwrap();
        assert!(matches!(
            next_assignment(&store, &cfg).unwrap(),
            NextWork::Idle { incomplete: 0 }
        ));
        assert!(log::kept(&job).is_none());
        assert_eq!(store.load_status(&job).unwrap().state, JobState::Failed);
        assert_eq!(store.quarantined_count(), 1);

        // Finalized: nothing is kept once the job is done.
        spec.name = "state-done".to_string();
        let (id, _) = store.submit(&spec).unwrap();
        let done = store.job(&id).unwrap();
        claim();
        claim();
        assert!(log::kept(&done).is_some());
        assert!(matches!(
            next_assignment(&store, &cfg).unwrap(),
            NextWork::Idle { incomplete: 0 }
        ));
        assert_eq!(store.load_status(&done).unwrap().state, JobState::Done);
        assert!(log::kept(&done).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A status an older daemon left `running` (its worker killed) is
    /// queued work: only a live claim makes a job read `running`.
    #[test]
    fn a_legacy_running_status_with_no_live_claim_is_served_queued() {
        let (store, job) = temp_job("legacy-running");
        let text = std::fs::read_to_string(job.status_path()).unwrap();
        let legacy = text.replace("\"queued\"", "\"running\"");
        assert_ne!(legacy, text);
        std::fs::write(job.status_path(), legacy).unwrap();
        let state = || shown(&store, &job, "state");
        assert_eq!(store.load_status(&job).unwrap().state, JobState::Queued);
        assert_eq!(state(), "queued");
        let held = try_claim(&job, &family(), &FabricConfig::new(Duration::from_secs(30)))
            .unwrap()
            .unwrap();
        assert_eq!(state(), "running");
        drop(held);
        assert_eq!(state(), "queued");
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn missing_status_is_rebuilt() {
        let (store, job) = temp_job("missing-status");
        std::fs::remove_file(job.status_path()).unwrap();
        let cfg = FabricConfig::new(Duration::from_secs(30));
        assert!(matches!(
            next_assignment(&store, &cfg).unwrap(),
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
        match next_assignment(&store, &cfg).unwrap() {
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
        store.request_job_stop(&job, "paused: disk full").unwrap();
        let error = || shown(&store, &job, "error");
        assert_eq!(error(), "paused: disk full", "the reason is served");
        let cfg = FabricConfig::new(Duration::from_secs(30));
        match next_assignment(&store, &cfg).unwrap() {
            NextWork::Idle { incomplete } => assert_eq!(incomplete, 0),
            NextWork::Work(_) => panic!("paused jobs must not be claimed"),
        }
        // Re-submitting the identical spec un-pauses, and drops the reason.
        let spec = store.load_spec(&job).unwrap();
        store.submit(&spec).unwrap();
        assert_eq!(error(), "");
        assert!(matches!(
            next_assignment(&store, &cfg).unwrap(),
            NextWork::Work(_)
        ));
        std::fs::remove_dir_all(store.root()).ok();
    }
}
