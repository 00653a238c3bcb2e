//! Job execution: the fabric worker loop, incremental result streaming,
//! and the serve loop.
//!
//! Since the fabric landed, *all* execution — one process or many —
//! goes through the claim/lease scheduler in [`crate::fabric`]: a
//! worker thread repeatedly asks [`next_assignment`] for a family to
//! claim and runs it through a narrowed sub-experiment
//! ([`run_family`]) on its cell thread, which it keeps across claims.
//! The scheduling pass that finds every cell of a job recorded
//! finalizes it. A single `ftsimd serve` process is simply the
//! N=1 special case — its workers contend for claims nobody else
//! wants — which is what keeps the determinism goldens unchanged: the
//! records a family produces do not depend on who claimed it.
//!
//! Each completed cell's record is written to the job's `cells.csv`
//! before the worker moves on, and a claim's rows are synced once, when
//! it ends (group commit). Killing a daemon — gracefully or with
//! `SIGKILL` — loses at most the cells in flight, a machine crash at
//! most the rows of the claims in flight, and any surviving process
//! steals the dead one's families once their leases expire.
//!
//! When every cell has a record, the job's records are assembled in
//! grid order and written as `results.csv`/`results.json` —
//! byte-identical to what `Experiment::run` on the same axes would
//! serialize, which the daemon integration tests assert.

use crate::fabric::{
    next_assignment, run_family, CellThread, FabricConfig, FamilyOutcome, LeaseMode, NextWork,
};
use crate::failpoints as fp;
use crate::gc::{gc_pass, GcOptions};
use crate::store::{DaemonError, Job, JobStore, QuotaPolicy};
use ftsim::harness::FamilyId;
use ftsim_obs::{metrics, trace};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Journal size at which the per-process trace file is rotated aside
/// (renamed to `.ndjson.1`, one generation kept) so an unattended fabric
/// cannot grow an unbounded journal.
const TRACE_ROTATE_BYTES: u64 = 1024 * 1024;

/// Installs the process-wide observability hooks for a fabric process:
/// stamps every trace event with this worker's owner id, journals events
/// as NDJSON under `<state>/trace/<owner>.ndjson` (best-effort — any
/// error, including one injected at the `obs.trace.append` failpoint, is
/// swallowed), and forwards chaos injections into a counter and a
/// `chaos` trace event. Idempotent per process in effect: a second call
/// just re-points the sink.
///
/// The trace directory is created here, once; the sink never creates a
/// directory, so an event emitted after the state directory is gone (in
/// a process that outlives [`serve`]) leaves nothing behind.
///
/// Everything registered here observes the run without touching it: no
/// RNG is consumed, no simulation or fabric decision reads any of it.
pub(crate) fn install_observability(store: &JobStore, owner: &str) {
    trace::set_owner(owner);
    let dir = store.trace_dir();
    let _ = std::fs::create_dir_all(&dir);
    // Owner ids are `host:pid:seq`; ':' is path-hostile on some mounts.
    let journal = Journal::open(dir.join(format!("{}.ndjson", owner.replace(':', "-"))));
    trace::set_sink(Box::new(move |event| {
        if ftsim_chaos::io().gate(fp::OBS_TRACE_APPEND).is_err() {
            return;
        }
        let _ = journal.append(&event.render_line());
    }));
    // Chaos injections become visible fabric vitals. The re-entrancy
    // guard matters: emitting the trace event runs the sink, whose own
    // chaos gate could inject (a plan targeting `obs.*`) and re-enter
    // this observer forever.
    ftsim_chaos::set_injection_observer(|_code, site| {
        use std::cell::Cell;
        thread_local! {
            static IN_OBSERVER: Cell<bool> = const { Cell::new(false) };
        }
        if IN_OBSERVER.with(|g| g.replace(true)) {
            return;
        }
        metrics::counter("ftsimd_chaos_injections_total", &[("site", site)]).inc();
        trace::emit(trace::TraceEvent::new("chaos", "", "", site));
        IN_OBSERVER.with(|g| g.set(false));
    });
}

/// A process's trace journal, kept open between events: an `O_APPEND`
/// file and the bytes it holds, rotated aside (renamed to `.ndjson.1`,
/// one generation kept) once it reaches [`TRACE_ROTATE_BYTES`].
struct Journal {
    path: PathBuf,
    /// The open file and its length; `None` while it cannot be opened.
    file: Mutex<Option<(File, u64)>>,
}

impl Journal {
    fn open(path: PathBuf) -> Self {
        let file = Mutex::new(Self::open_file(&path).ok());
        Self { path, file }
    }

    /// Opens (creating, but never its directory) the file at `path`.
    fn open_file(path: &Path) -> std::io::Result<(File, u64)> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let len = file.metadata()?.len();
        Ok((file, len))
    }

    /// Appends `line` and its newline in one `write`, under the lock, so
    /// lines that worker threads of one process append at once land
    /// whole, one after another, never interleaved.
    fn append(&self, line: &str) -> std::io::Result<()> {
        // Each step leaves the slot valid, so a panicked holder's guard
        // is taken as is.
        let mut slot = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(*slot, Some((_, len)) if len >= TRACE_ROTATE_BYTES) {
            *slot = None;
            std::fs::rename(&self.path, self.path.with_extension("ndjson.1"))?;
        }
        if slot.is_none() {
            *slot = Some(Self::open_file(&self.path)?);
        }
        let (file, len) = slot.as_mut().expect("opened above");
        let bytes = format!("{line}\n");
        file.write_all(bytes.as_bytes())?;
        *len += bytes.len() as u64;
        Ok(())
    }
}

/// Process-wide graceful-shutdown flag, set by SIGINT/SIGTERM (via
/// [`install_signal_handlers`]) and polled between cells.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Whether a signal has requested shutdown.
pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

/// Installs SIGINT/SIGTERM handlers that flip the [`signalled`] flag, so
/// Ctrl-C gives the same graceful stop as `ftsimd stop`. No-op off Unix.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_: i32) {
            SIGNALLED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

/// Worker-pool width: `workers`, or every available core when zero.
fn worker_count(workers: usize) -> usize {
    if workers > 0 {
        workers
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// What one [`work_step`] did.
enum Step {
    /// Nothing was claimable; see [`NextWork::Idle`].
    Idle {
        /// Non-terminal, un-paused jobs left in the store.
        incomplete: usize,
    },
    /// A family was claimed and run.
    Ran(Box<Ran>),
}

/// A family of `job` that a [`work_step`] claimed and ran.
struct Ran {
    job: Job,
    family: FamilyId,
    /// How the family ended (`Err`: the run broke).
    outcome: Result<FamilyOutcome, DaemonError>,
}

/// One worker step of [`serve`]: claim the next family of any job and
/// run it on the worker's `cells` thread. The claim is all that marks
/// the job running: it is released when the step's assignment drops.
/// The job is finalized by the scheduling pass that finds its last cell
/// recorded, not here.
///
/// # Errors
///
/// [`DaemonError`] only when the store itself does not read.
fn work_step(
    store: &JobStore,
    cfg: &FabricConfig,
    should_stop: &dyn Fn() -> bool,
    cells: &mut CellThread,
) -> Result<Step, DaemonError> {
    let mut a = match next_assignment(store, cfg)? {
        NextWork::Work(a) => a,
        NextWork::Idle { incomplete } => return Ok(Step::Idle { incomplete }),
    };
    let outcome = run_family(store, &mut a, cfg, should_stop, cells);
    Ok(Step::Ran(Box::new(Ran {
        job: a.job,
        family: a.family,
        outcome,
    })))
}

/// Keeps the first error any worker hit in `slot` and raises `stop`, so
/// the other workers wind down.
fn fail(slot: &Mutex<Option<DaemonError>>, stop: &AtomicBool, e: DaemonError) {
    slot.lock().expect("failure lock").get_or_insert(e);
    stop.store(true, Ordering::SeqCst);
}

/// Serve-loop options.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Exit once every job is terminal instead of polling for new jobs —
    /// batch mode, used by tests and the examples. Work held by live
    /// foreign claims is *waited out* (their leases expire if the
    /// holder died), so a draining server never abandons an incomplete
    /// job.
    pub drain: bool,
    /// Queue poll interval when idle.
    pub poll: Duration,
    /// Claim-lease duration: how long a crashed peer's families stay
    /// unstealable.
    pub lease: Duration,
    /// Worker-thread count (`0` = one per available core).
    pub workers: usize,
    /// HTTP bind address (e.g. `127.0.0.1:0`); `None` disables the API.
    /// The bound address is written to `<state>/http.addr`.
    pub listen: Option<String>,
    /// Largest HTTP request body accepted (`--max-body`, bytes); larger
    /// submissions are refused with `413`.
    pub max_body: usize,
    /// Socket read timeout while parsing an HTTP request
    /// (`--head-timeout-ms`); a slow-loris client gets `408`.
    pub head_timeout: Duration,
    /// Claim-acquisition discipline (`--lease-mode`):
    /// [`LeaseMode::Strict`] trusts `O_EXCL`; [`LeaseMode::Relaxed`]
    /// verifies every claim by owner echo, for NFS-grade filesystems.
    pub lease_mode: LeaseMode,
    /// Bearer token gating mutating HTTP verbs (`--token-file` /
    /// `FTSIMD_TOKEN`); `None` leaves the API open.
    pub token: Option<String>,
    /// How often the serve loop runs a TTL garbage-collection pass
    /// (`--gc-interval-ms`); zero disables background GC (an explicit
    /// `ftsimd gc` still works).
    pub gc_interval: Duration,
    /// Admission-control policy to install at startup
    /// (`--max-live-jobs`/`--max-queued-cells`/`--max-state-bytes`);
    /// `None` leaves `<state>/quota.json` as it stands.
    pub quota: Option<QuotaPolicy>,
    /// The stuck-cell watchdog's budget for a family's first cell
    /// (`--cell-floor-ms`; see [`FabricConfig::cell_floor`]).
    pub cell_floor: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let limits = crate::http::HttpLimits::default();
        Self {
            drain: false,
            poll: Duration::from_millis(500),
            lease: Duration::from_secs(30),
            workers: 0,
            listen: None,
            max_body: limits.max_body,
            head_timeout: limits.head_timeout,
            lease_mode: LeaseMode::Strict,
            token: None,
            gc_interval: Duration::from_secs(3600),
            quota: None,
            cell_floor: crate::fabric::DEFAULT_CELL_FLOOR,
        }
    }
}

/// The daemon's main loop: a pool of fabric workers, each repeatedly
/// claiming the highest-priority family across **all** jobs and
/// running it. Work stealing falls out of the
/// claim protocol: an idle worker — this process's or any peer's —
/// claims whatever unclaimed (or expired-lease) family the scheduler
/// ranks first, so N cooperating processes drain one store together.
///
/// A job failing ([`JobState::Failed`](crate::JobState::Failed), e.g.
/// its spec no longer resolves) does not stop the daemon; the error is
/// reported on stderr and the queue moves on. On graceful shutdown
/// (signal, `ftsimd stop`, or a drained queue) the workers release
/// their claims, so the jobs they were running read `queued` again;
/// `status.json` is not touched.
///
/// With [`ServeOptions::listen`] set, an HTTP thread serves the daemon
/// API (`POST /jobs`, `GET /jobs`, status/results/report/stop) on the
/// bound address until the serve loop exits.
///
/// # Errors
///
/// [`DaemonError`] only for state-directory-level trouble (the queue
/// itself being unreadable/unwritable) or a bind failure.
pub fn serve(store: &JobStore, opts: &ServeOptions) -> Result<(), DaemonError> {
    store.clear_stop()?;
    let stop = AtomicBool::new(false);
    let mut cfg = FabricConfig::new(opts.lease);
    cfg.mode = opts.lease_mode;
    cfg.cell_floor = opts.cell_floor;
    install_observability(store, &cfg.owner);
    if let Some(quota) = &opts.quota {
        store.set_quota_policy(quota)?;
    }
    let should_stop = || stop.load(Ordering::SeqCst) || signalled() || store.stop_requested();
    let failure = Mutex::new(None);
    // Set when a drain-mode worker finds the queue empty; it also flips
    // `stop` so the HTTP and GC threads join instead of polling forever.
    let drained = AtomicBool::new(false);

    let http = match &opts.listen {
        Some(addr) => {
            let limits = crate::http::HttpLimits {
                max_body: opts.max_body,
                head_timeout: opts.head_timeout,
            };
            Some(crate::http::HttpServer::bind(
                store,
                addr,
                limits,
                opts.token.clone(),
            )?)
        }
        None => None,
    };

    std::thread::scope(|scope| {
        if let Some(server) = &http {
            scope.spawn(|| server.run(&should_stop, opts.poll));
        }
        if !opts.gc_interval.is_zero() {
            // Background TTL GC: nap in poll-sized slices so shutdown
            // is prompt, run a pass each time the interval elapses.
            scope.spawn(|| {
                let nap = opts
                    .poll
                    .min(Duration::from_millis(200))
                    .max(Duration::from_millis(1));
                let mut slept = Duration::ZERO;
                while !should_stop() {
                    std::thread::sleep(nap);
                    slept += nap;
                    if slept < opts.gc_interval {
                        continue;
                    }
                    slept = Duration::ZERO;
                    match gc_pass(store, &GcOptions::default()) {
                        Ok(report) if !report.is_empty() => {
                            println!("ftsimd: gc: {report}");
                        }
                        Ok(_) => {}
                        Err(e) => eprintln!("ftsimd: gc pass failed: {e}"),
                    }
                }
            });
        }
        for _ in 0..worker_count(opts.workers) {
            scope.spawn(|| {
                let mut cells = CellThread::default();
                while !should_stop() {
                    match work_step(store, &cfg, &should_stop, &mut cells) {
                        Ok(Step::Ran(ran)) => announce(*ran, opts.poll),
                        Ok(Step::Idle { incomplete }) => {
                            if incomplete == 0 && opts.drain {
                                drained.store(true, Ordering::SeqCst);
                                stop.store(true, Ordering::SeqCst);
                                break;
                            }
                            // Idle with incomplete jobs in drain mode means
                            // live foreign claims: wait for progress or for
                            // their leases to expire, then steal.
                            std::thread::sleep(opts.poll);
                        }
                        Err(e) => {
                            // The store itself is unreadable: fatal.
                            fail(&failure, &stop, e);
                            break;
                        }
                    }
                }
            });
        }
    });
    drop(http);

    if let Some(e) = failure.into_inner().expect("failure lock") {
        return Err(e);
    }
    if should_stop() && !drained.load(Ordering::SeqCst) {
        println!("ftsimd: stop requested, exiting");
    } else {
        println!("ftsimd: queue drained, exiting");
    }
    store.clear_stop()?;
    Ok(())
}

/// How `serve` reports one family's run: a job failing does not stop
/// the daemon, so every outcome is a line on stdout or stderr, and a
/// broken run waits one `poll` before the worker claims again.
fn announce(ran: Ran, poll: Duration) {
    let (id, family) = (&ran.job.id, &ran.family);
    match ran.outcome {
        // The scheduling pass announces the job done.
        Ok(FamilyOutcome::Finished) => {}
        Ok(FamilyOutcome::Interrupted) => println!("ftsimd: job {id} interrupted, re-queued"),
        Ok(FamilyOutcome::Lost) => {
            eprintln!("ftsimd: lost claim on {id} ({family}); peer took over");
        }
        Ok(FamilyOutcome::Paused) => eprintln!(
            "ftsimd: job {id} paused (disk full); resubmit its spec to resume once space is freed"
        ),
        // Already reported and strike-counted by the watchdog; the claim
        // released on drop and the cell re-queues.
        Ok(FamilyOutcome::Stuck) => {}
        Err(e) => {
            // Per-job trouble (bad sub-grid, broken stream): the job is
            // either parked failed or stays queued.
            eprintln!("ftsimd: job {id} failed: {e}");
            std::thread::sleep(poll);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;
    use crate::store::JobState;
    use ftsim::harness::{to_csv, to_json};

    fn temp_store(tag: &str) -> JobStore {
        let dir = std::env::temp_dir().join(format!("ftsimd-runner-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        JobStore::open(dir).unwrap()
    }

    fn spec() -> JobSpec {
        let mut spec = JobSpec::new("unit");
        spec.workloads = vec!["gcc".to_string(), "equake".to_string()];
        spec.models = vec!["SS-1".to_string(), "SS-2".to_string()];
        spec.fault_rates_pm = vec![0.0, 4_000.0];
        spec.budgets = vec![1_500];
        spec.seeds = vec![7];
        spec
    }

    fn drain(store: &JobStore) {
        serve(
            store,
            &ServeOptions {
                drain: true,
                poll: Duration::from_millis(1),
                ..Default::default()
            },
        )
        .unwrap();
    }

    #[test]
    fn job_results_match_one_shot_grid() {
        let store = temp_store("match");
        let (id, _) = store.submit(&spec()).unwrap();
        let job = store.job(&id).unwrap();
        drain(&store);
        assert_eq!(store.load_status(&job).unwrap().state, JobState::Done);

        let direct = spec().to_experiment().unwrap().run().unwrap();
        let from_daemon = std::fs::read_to_string(job.results_path()).unwrap();
        assert_eq!(from_daemon, to_csv(&direct));
        let json = std::fs::read_to_string(job.results_json_path()).unwrap();
        assert_eq!(json, to_json(&direct));
        assert!(
            !job.claims_dir().exists(),
            "finalization cleans the claim table"
        );

        // Re-running a done job's store is a no-op for serve (drain).
        drain(&store);
        assert_eq!(
            std::fs::read_to_string(job.results_path()).unwrap(),
            to_csv(&direct)
        );
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn serve_drains_the_queue_in_submission_order() {
        let store = temp_store("drain");
        let (a, _) = store.submit(&spec()).unwrap();
        let mut other = spec();
        other.name = "unit-b".to_string();
        other.workloads = vec!["gcc".to_string()];
        other.fault_rates_pm = vec![0.0];
        let (b, _) = store.submit(&other).unwrap();
        drain(&store);
        for id in [&a, &b] {
            let job = store.job(id).unwrap();
            assert_eq!(store.load_status(&job).unwrap().state, JobState::Done);
            assert!(job.results_path().exists());
        }
        std::fs::remove_dir_all(store.root()).ok();
    }

    /// Two worker threads journal at once: every line of the file is a
    /// whole event, and none is lost.
    #[test]
    fn concurrent_journal_appends_stay_whole_lines() {
        let store = temp_store("journal");
        let path = store.root().join("owner.ndjson");
        let journal = Journal::open(path.clone());
        const LINES: usize = 2_000;
        std::thread::scope(|scope| {
            for worker in 0..2 {
                let journal = &journal;
                scope.spawn(move || {
                    for i in 0..LINES {
                        let event = trace::TraceEvent::new(
                            "append",
                            "0001-job",
                            &format!("cell-{worker}-{i}"),
                            "bytes=120",
                        );
                        journal.append(&event.render_line()).unwrap();
                    }
                });
            }
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 * LINES);
        for line in lines {
            assert!(
                trace::TraceEvent::parse_line(line).is_some(),
                "unparseable journal line: {line:?}"
            );
        }
        std::fs::remove_dir_all(store.root()).ok();
    }

    /// A full journal is renamed aside once, before the line that would
    /// follow the limit, and a fresh file takes the rest.
    #[test]
    fn journal_rotates_into_one_older_generation() {
        let store = temp_store("rotate");
        let path = store.root().join("owner.ndjson");
        let journal = Journal::open(path.clone());
        let line = "x".repeat(999); // 1,000 bytes with its newline
        for _ in 0..1_100 {
            journal.append(&line).unwrap();
        }
        let lines = |p: &Path| std::fs::read_to_string(p).unwrap().lines().count();
        let full = TRACE_ROTATE_BYTES.div_ceil(1_000) as usize;
        assert_eq!(lines(&path.with_extension("ndjson.1")), full);
        assert_eq!(lines(&path), 1_100 - full);
        std::fs::remove_dir_all(store.root()).ok();
    }

    /// In a process that outlives `serve`, an event emitted after the
    /// state directory was removed recreates none of it.
    #[test]
    fn events_after_serve_leave_a_removed_state_directory_removed() {
        let store = temp_store("removed");
        drain(&store);
        assert!(
            store.trace_dir().is_dir(),
            "serve creates the trace directory"
        );
        std::fs::remove_dir_all(store.root()).unwrap();
        trace::emit(trace::TraceEvent::new("probe", "", "", ""));
        assert!(
            !store.root().exists(),
            "an event recreated {}",
            store.root().display()
        );
    }
}
