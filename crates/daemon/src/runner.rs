//! Job execution: the fabric worker loop, incremental result streaming,
//! and the serve loop.
//!
//! Since the fabric landed, *all* execution — one process or many —
//! goes through the claim/lease scheduler in [`crate::fabric`]: a
//! worker thread repeatedly asks [`next_assignment`] for a family to
//! claim, runs it through a narrowed sub-experiment
//! ([`run_family`]), and finalizes the job when its last cell lands
//! ([`try_finalize`]). A single `ftsimd serve` process is simply the
//! N=1 special case — its workers contend for claims nobody else
//! wants — which is what keeps the determinism goldens unchanged: the
//! records a family produces do not depend on who claimed it.
//!
//! Each completed cell's record is appended to the job's `cells.csv`
//! (one synced write per row) before the worker moves on, so killing a
//! daemon — gracefully or with `SIGKILL` — loses at most the cells in
//! flight, and any surviving process steals the dead one's families
//! once their leases expire.
//!
//! When every cell has a record, the job's records are assembled in
//! grid order and written as `results.csv`/`results.json` —
//! byte-identical to what `Experiment::run` on the same axes would
//! serialize, which the daemon integration tests assert.

use crate::fabric::{
    bump_status, next_assignment, requeue_unclaimed, run_family, try_finalize, FabricConfig,
    FamilyOutcome, LeaseMode, NextWork,
};
use crate::failpoints as fp;
use crate::gc::{gc_pass, GcOptions};
use crate::store::{DaemonError, Job, JobState, JobStore, QuotaPolicy};
use ftsim_obs::{metrics, trace};
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
/// Everything registered here observes the run without touching it: no
/// RNG is consumed, no simulation or fabric decision reads any of it.
pub(crate) fn install_observability(store: &JobStore, owner: &str) {
    trace::set_owner(owner);
    let dir = store.trace_dir();
    // Owner ids are `host:pid:seq`; ':' is path-hostile on some mounts.
    let path = dir.join(format!("{}.ndjson", owner.replace(':', "-")));
    trace::set_sink(Box::new(move |event| {
        if ftsim_chaos::io().gate(fp::OBS_TRACE_APPEND).is_err() {
            return;
        }
        let _ = std::fs::create_dir_all(&dir);
        if let Ok(meta) = std::fs::metadata(&path) {
            if meta.len() >= TRACE_ROTATE_BYTES {
                let _ = std::fs::rename(&path, path.with_extension("ndjson.1"));
            }
        }
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            use std::io::Write as _;
            let _ = writeln!(f, "{}", event.render_line());
        }
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

/// How a [`run_job`] call ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Every cell has a record; final results are on disk.
    Completed,
    /// A shutdown request interrupted the sweep; the job is re-queued
    /// with its streamed records intact.
    Interrupted,
    /// This process ran out of claimable work, but the job is not done:
    /// its remaining families are held by other fabric processes (or
    /// the job was paused). Whoever streams the last cell finalizes.
    Yielded,
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

/// Worker-pool width: the spec's `threads` cap, or every available core.
fn worker_count(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Runs one job until this process can make no more progress on it,
/// streaming records. This is the fabric restricted to a single job id:
/// workers claim its families one by one and run them; if another
/// process holds some families, the call returns
/// [`JobOutcome::Yielded`] instead of waiting.
///
/// Progress is visible throughout: `status.json` moves to `running`
/// with a live `cells_done` count, and `cells.csv` grows one synced row
/// per completed cell. `stop` is polled between cells (alongside the
/// store's stop sentinel and the process [`signalled`] flag); on
/// interruption the job goes back to `queued` and the next `serve`
/// resumes it.
///
/// # Errors
///
/// [`DaemonError`] for unrunnable jobs (bad spec/grid — the job is
/// marked `failed`) or state-directory I/O trouble.
pub fn run_job(store: &JobStore, job: &Job, stop: &AtomicBool) -> Result<JobOutcome, DaemonError> {
    run_job_with(store, job, stop, &FabricConfig::default())
}

/// [`run_job`] with an explicit fabric identity/lease policy.
///
/// # Errors
///
/// As [`run_job`].
pub fn run_job_with(
    store: &JobStore,
    job: &Job,
    stop: &AtomicBool,
    cfg: &FabricConfig,
) -> Result<JobOutcome, DaemonError> {
    // Surface unrunnable jobs now (marked failed by the scheduler scan),
    // and learn the worker width from the spec.
    let threads = match store.load_spec(job) {
        Ok(spec) => spec.threads,
        Err(e) => {
            crate::fabric::mark_failed(store, job, &e);
            return Err(e);
        }
    };
    let workers = worker_count(threads);
    let should_stop = || stop.load(Ordering::SeqCst) || signalled() || store.stop_requested();
    let failure: Mutex<Option<DaemonError>> = Mutex::new(None);
    let fail = |e: DaemonError| {
        let mut slot = failure.lock().expect("failure lock");
        if slot.is_none() {
            *slot = Some(e);
        }
        stop.store(true, Ordering::SeqCst);
    };

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if should_stop() {
                    break;
                }
                match next_assignment(store, cfg, Some(&job.id)) {
                    Ok(NextWork::Work(mut a)) => {
                        bump_status(store, &a.job, JobState::Running, a.job_done, a.job_total);
                        match run_family(store, &mut a, cfg, &should_stop) {
                            Ok(FamilyOutcome::Finished) => {
                                if let Err(e) = try_finalize(store, &a.job, &a.spec) {
                                    fail(e);
                                }
                            }
                            Ok(
                                FamilyOutcome::Interrupted
                                | FamilyOutcome::Lost
                                | FamilyOutcome::Paused
                                | FamilyOutcome::Stuck,
                            ) => {}
                            Err(e) => fail(e),
                        }
                    }
                    Ok(NextWork::Idle { .. }) => break,
                    Err(e) => {
                        fail(e);
                        break;
                    }
                }
            });
        }
    });

    let status = store.load_status(job)?;
    if let Some(e) = failure.into_inner().expect("failure lock") {
        // Streaming broke: the job stays queued (its log is still
        // consistent up to the failure) and the error propagates —
        // unless the scheduler already parked it as failed.
        if status.state == JobState::Running {
            bump_status(
                store,
                job,
                JobState::Queued,
                status.cells_done,
                status.cells_total,
            );
        }
        return Err(e);
    }
    match status.state {
        JobState::Done => Ok(JobOutcome::Completed),
        _ if should_stop() => {
            bump_status(
                store,
                job,
                JobState::Queued,
                status.cells_done,
                status.cells_total,
            );
            Ok(JobOutcome::Interrupted)
        }
        _ => {
            // No claimable work left here, but the job is not done:
            // foreign claims (or a pause) hold the rest.
            if status.state == JobState::Running && crate::fabric::live_claims(job) == 0 {
                bump_status(
                    store,
                    job,
                    JobState::Queued,
                    status.cells_done,
                    status.cells_total,
                );
            }
            Ok(JobOutcome::Yielded)
        }
    }
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
/// A job failing ([`JobState::Failed`], e.g. its spec no longer
/// resolves) does not stop the daemon; the error is reported on stderr
/// and the queue moves on. On graceful shutdown (signal, `ftsimd stop`,
/// or a drained queue) `running` jobs nobody is working are re-queued.
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
    let failure: Mutex<Option<DaemonError>> = Mutex::new(None);
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
            scope.spawn(|| loop {
                if should_stop() {
                    break;
                }
                match next_assignment(store, &cfg, None) {
                    Ok(NextWork::Work(mut a)) => {
                        bump_status(store, &a.job, JobState::Running, a.job_done, a.job_total);
                        match run_family(store, &mut a, &cfg, &should_stop) {
                            Ok(FamilyOutcome::Finished) => {
                                match try_finalize(store, &a.job, &a.spec) {
                                    Ok(true) => println!("ftsimd: job {} done", a.job.id),
                                    Ok(false) => {}
                                    Err(e) => {
                                        eprintln!("ftsimd: finalizing {}: {e}", a.job.id);
                                    }
                                }
                            }
                            Ok(FamilyOutcome::Interrupted) => {
                                println!("ftsimd: job {} interrupted, re-queued", a.job.id);
                            }
                            Ok(FamilyOutcome::Lost) => {
                                eprintln!(
                                    "ftsimd: lost claim on {} ({}); peer took over",
                                    a.job.id, a.family
                                );
                            }
                            Ok(FamilyOutcome::Paused) => {
                                eprintln!(
                                    "ftsimd: job {} paused (disk full); resubmit its spec \
                                     to resume once space is freed",
                                    a.job.id
                                );
                            }
                            Ok(FamilyOutcome::Stuck) => {
                                // Already reported and strike-counted by
                                // the watchdog; the claim releases on drop
                                // and the cell re-queues.
                            }
                            Err(e) => {
                                // Per-job trouble (bad sub-grid, broken
                                // stream): report and move on; the job is
                                // either parked failed or stays queued.
                                eprintln!("ftsimd: job {} failed: {e}", a.job.id);
                                std::thread::sleep(opts.poll);
                            }
                        }
                    }
                    Ok(NextWork::Idle { incomplete }) => {
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
                        let mut slot = failure.lock().expect("failure lock");
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                        stop.store(true, Ordering::SeqCst);
                        break;
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
    requeue_unclaimed(store)?;
    store.clear_stop()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;
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

    #[test]
    fn job_results_match_one_shot_grid() {
        let store = temp_store("match");
        let (id, _) = store.submit(&spec()).unwrap();
        let job = store.job(&id).unwrap();
        let outcome = run_job(&store, &job, &AtomicBool::new(false)).unwrap();
        assert_eq!(outcome, JobOutcome::Completed);
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
        serve(
            &store,
            &ServeOptions {
                drain: true,
                poll: Duration::from_millis(1),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(job.results_path()).unwrap(),
            to_csv(&direct)
        );
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn immediate_stop_requeues_with_no_progress_lost() {
        let store = temp_store("stop");
        let (id, _) = store.submit(&spec()).unwrap();
        let job = store.job(&id).unwrap();
        // A pre-set stop flag interrupts before any cell runs.
        let outcome = run_job(&store, &job, &AtomicBool::new(true)).unwrap();
        assert_eq!(outcome, JobOutcome::Interrupted);
        let status = store.load_status(&job).unwrap();
        assert_eq!(status.state, JobState::Queued);
        assert_eq!(status.cells_done, 0);

        // A later run completes and matches the one-shot grid.
        let outcome = run_job(&store, &job, &AtomicBool::new(false)).unwrap();
        assert_eq!(outcome, JobOutcome::Completed);
        let direct = spec().to_experiment().unwrap().run().unwrap();
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
        serve(
            &store,
            &ServeOptions {
                drain: true,
                poll: Duration::from_millis(1),
                ..Default::default()
            },
        )
        .unwrap();
        for id in [&a, &b] {
            let job = store.job(id).unwrap();
            assert_eq!(store.load_status(&job).unwrap().state, JobState::Done);
            assert!(job.results_path().exists());
        }
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn a_foreign_claim_makes_run_job_yield() {
        let store = temp_store("yield");
        let (id, _) = store.submit(&spec()).unwrap();
        let job = store.job(&id).unwrap();
        // A peer (different owner) claims one of the four families.
        let peer = FabricConfig::new(Duration::from_secs(30));
        let family = ftsim::harness::FamilyId {
            workload: "gcc".to_string(),
            budget: 1_500,
            model: "SS-1".to_string(),
        };
        let held = crate::fabric::try_claim(&job, &family, &peer)
            .unwrap()
            .expect("fresh claim");

        let outcome = run_job(&store, &job, &AtomicBool::new(false)).unwrap();
        assert_eq!(outcome, JobOutcome::Yielded, "peer holds gcc/SS-1");
        drop(held);
        // With the claim released, the job completes and matches the
        // one-shot grid.
        let outcome = run_job(&store, &job, &AtomicBool::new(false)).unwrap();
        assert_eq!(outcome, JobOutcome::Completed);
        let direct = spec().to_experiment().unwrap().run().unwrap();
        assert_eq!(
            std::fs::read_to_string(job.results_path()).unwrap(),
            to_csv(&direct)
        );
        std::fs::remove_dir_all(store.root()).ok();
    }
}
