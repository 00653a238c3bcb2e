//! TTL garbage collection for the job store.
//!
//! A GC pass reclaims four kinds of state, and **never touches a live
//! family**:
//!
//! - **Expired jobs** — terminal jobs whose spec carries a non-zero
//!   `ttl_secs` (clock starts at `created_unix_ms`) or `retain_secs`
//!   (clock starts at `finished_unix_ms`). The whole job directory is
//!   removed. Jobs with both knobs at zero are kept forever.
//! - **Compactable jobs** — `Done` jobs whose sealed `results.csv`
//!   holds every cell; the streamed `cells.csv` working file (which can
//!   exceed the sealed file several-fold after crash/duplicate runs) is
//!   dropped.
//! - **Stale-lease debris** — `*.stale.*` rename targets left in a
//!   job's `claims/` directory when a steal or its cleanup died
//!   mid-flight. These are inert under the lease protocol (only
//!   `<slug>.lease` itself is ever contended), so removal is safe for
//!   live and terminal jobs alike.
//! - **Aged quarantine files** — corrupt-state evidence older than
//!   [`GcOptions::quarantine_retain`], together with `.reason`
//!   sidecars.
//!
//! Every removal routes through [`crate::failpoints::STORE_GC_REMOVE`],
//! so chaos plans can fail or kill GC mid-pass; the pass is idempotent
//! and the next one finishes the job. Errors on individual entries are
//! swallowed (a peer may be GC'ing concurrently); the report counts
//! only what *this* pass reclaimed.

use std::fmt;
use std::path::Path;
use std::time::Duration;

use ftsim::harness::from_csv_tolerant;

use crate::failpoints as fp;
use crate::store::{DaemonError, Job, JobState, JobStore};

/// Tuning knobs for a GC pass.
#[derive(Debug, Clone)]
pub struct GcOptions {
    /// Quarantined files older than this (by mtime) are deleted.
    pub quarantine_retain: Duration,
}

impl Default for GcOptions {
    fn default() -> Self {
        Self {
            quarantine_retain: Duration::from_secs(7 * 24 * 60 * 60),
        }
    }
}

/// What one GC pass reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Job directories removed because their TTL or retention elapsed.
    pub expired_jobs: usize,
    /// Done jobs whose `cells.csv` was dropped in favour of the sealed
    /// `results.csv`.
    pub compacted_jobs: usize,
    /// `*.stale.*` lease-rename debris files removed from `claims/`.
    pub stale_lease_files: usize,
    /// Quarantine files (including `.reason` sidecars) aged out.
    pub quarantine_files: usize,
}

impl GcReport {
    /// Whether the pass found nothing to reclaim.
    pub fn is_empty(&self) -> bool {
        *self == GcReport::default()
    }
}

impl fmt::Display for GcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "expired {} job(s), compacted {}, removed {} stale lease file(s), \
             aged out {} quarantine file(s)",
            self.expired_jobs, self.compacted_jobs, self.stale_lease_files, self.quarantine_files
        )
    }
}

/// Runs one garbage-collection pass over the store.
///
/// # Errors
///
/// [`DaemonError::Io`] only when the jobs directory itself cannot be
/// listed; per-job and per-file failures are skipped (and retried by
/// the next pass) so one wedged entry cannot starve the rest.
pub fn gc_pass(store: &JobStore, opts: &GcOptions) -> Result<GcReport, DaemonError> {
    let mut report = GcReport::default();
    let now = ftsim_chaos::io().now_ms();

    for job in store.jobs()? {
        // An unreadable or corrupt status means we cannot prove the job
        // is terminal — leave it for the scheduler's quarantine/rebuild
        // machinery. Stale-lease debris is still safe to drop.
        let status = match store.load_status(&job) {
            Ok(s) => s,
            Err(_) => {
                report.stale_lease_files += sweep_stale_debris(&job);
                continue;
            }
        };
        if !status.terminal() {
            // Live family: debris sweep only, never expiry/compaction.
            report.stale_lease_files += sweep_stale_debris(&job);
            continue;
        }

        // Unreadable/missing spec (e.g. quarantined): (0, 0) — the
        // conservative reading is "no TTL", so the job is kept.
        let (ttl_secs, retain_secs) = store
            .load_spec(&job)
            .map(|s| (s.ttl_secs, s.retain_secs))
            .unwrap_or((0, 0));
        let ttl_elapsed = ttl_secs > 0
            && status.created_unix_ms > 0
            && now
                >= status
                    .created_unix_ms
                    .saturating_add(ttl_secs.saturating_mul(1_000));
        let retain_elapsed = retain_secs > 0
            && status.finished_unix_ms > 0
            && now
                >= status
                    .finished_unix_ms
                    .saturating_add(retain_secs.saturating_mul(1_000));
        if ttl_elapsed || retain_elapsed {
            if ftsim_chaos::io()
                .remove_dir_all(fp::STORE_GC_REMOVE, job.dir())
                .is_ok()
            {
                report.expired_jobs += 1;
            }
            continue;
        }

        report.stale_lease_files += sweep_stale_debris(&job);
        if status.state == JobState::Done && compact_done_job(&job, status.cells_total) {
            report.compacted_jobs += 1;
        }
    }

    report.quarantine_files += sweep_quarantine(&store.quarantine_dir(), opts.quarantine_retain);
    Ok(report)
}

/// Drops a Done job's streamed `cells.csv` once the sealed
/// `results.csv` provably holds every cell. Returns whether anything
/// was removed.
fn compact_done_job(job: &Job, cells_total: usize) -> bool {
    let cells = job.cells_path();
    if !cells.exists() {
        return false;
    }
    let Ok(sealed) = ftsim_chaos::io().read_to_string(fp::FABRIC_CELLS_READ, &job.results_path())
    else {
        return false;
    };
    let (records, dropped) = from_csv_tolerant(&sealed);
    if dropped != 0 || records.len() != cells_total || cells_total == 0 {
        return false;
    }
    ftsim_chaos::io()
        .remove_file(fp::STORE_GC_REMOVE, &cells)
        .is_ok()
}

/// Removes `*.stale.*` rename debris from a job's `claims/` directory.
/// Returns how many files went away.
fn sweep_stale_debris(job: &Job) -> usize {
    let dir = job.claims_dir();
    let Ok(entries) = ftsim_chaos::io().list_dir(fp::FABRIC_CLAIMS_LIST, &dir) else {
        return 0;
    };
    let mut removed = 0;
    for path in entries {
        let is_debris = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.contains(".stale."));
        if is_debris
            && ftsim_chaos::io()
                .remove_file(fp::STORE_GC_REMOVE, &path)
                .is_ok()
        {
            removed += 1;
        }
    }
    removed
}

/// Ages out quarantine evidence (and `.reason` sidecars) whose mtime is
/// older than `retain`. Returns how many files went away.
fn sweep_quarantine(dir: &Path, retain: Duration) -> usize {
    let Ok(entries) = ftsim_chaos::io().list_dir(fp::STORE_QUARANTINE, dir) else {
        return 0;
    };
    let mut removed = 0;
    for path in entries {
        let old_enough = std::fs::metadata(&path)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| mtime.elapsed().ok())
            .is_some_and(|age| age >= retain);
        if old_enough
            && ftsim_chaos::io()
                .remove_file(fp::STORE_GC_REMOVE, &path)
                .is_ok()
        {
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;
    use crate::store::JobStatus;

    fn temp_store(tag: &str) -> JobStore {
        let dir = std::env::temp_dir().join(format!("ftsimd-gc-{tag}-{}", std::process::id()));
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

    /// Rewrites a job's status with the given state and a creation stamp
    /// far enough in the past that a 1-second TTL has elapsed.
    fn backdate(store: &JobStore, id: &str, state: JobState) {
        let job = store.job(id).unwrap();
        let mut status = store.load_status(&job).unwrap();
        status.state = state;
        status.created_unix_ms = 1_000; // 1970: any TTL has elapsed
        if status.terminal() {
            status.finished_unix_ms = 1_000;
        }
        // Bypass update_status: its stamp carry-over is exactly what a
        // backdating test must avoid.
        std::fs::write(job.status_path(), status_json(&status)).unwrap();
    }

    fn status_json(status: &JobStatus) -> String {
        format!(
            "{{\"state\": \"{}\", \"cells_total\": {}, \"error\": \"\", \
             \"created_unix_ms\": {}, \"finished_unix_ms\": {}}}",
            status.state, status.cells_total, status.created_unix_ms, status.finished_unix_ms
        )
    }

    #[test]
    fn expired_terminal_job_is_removed_but_live_sibling_survives() {
        let store = temp_store("expiry");
        let mut spec = small_spec("doomed");
        spec.ttl_secs = 1;
        let (doomed, _) = store.submit(&spec).unwrap();
        let mut spec = small_spec("alive");
        spec.ttl_secs = 1;
        let (alive, _) = store.submit(&spec).unwrap();

        // Both created in 1970, but only the terminal one may be GC'd.
        backdate(&store, &doomed, JobState::Done);
        backdate(&store, &alive, JobState::Queued);

        let report = gc_pass(&store, &GcOptions::default()).unwrap();
        assert_eq!(report.expired_jobs, 1);
        assert!(matches!(store.job(&doomed), Err(DaemonError::NoSuchJob(_))));
        assert!(store.job(&alive).is_ok(), "live job must never be GC'd");

        // No TTL configured -> terminal jobs are kept forever.
        let (keeper, _) = store.submit(&small_spec("keeper")).unwrap();
        backdate(&store, &keeper, JobState::Done);
        let report = gc_pass(&store, &GcOptions::default()).unwrap();
        assert_eq!(report.expired_jobs, 0);
        assert!(store.job(&keeper).is_ok());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn retention_clock_starts_at_finish() {
        let store = temp_store("retain");
        let mut spec = small_spec("r");
        spec.retain_secs = 1;
        let (id, _) = store.submit(&spec).unwrap();
        let job = store.job(&id).unwrap();

        // Terminal but freshly finished: retention has not elapsed.
        store
            .update_status(&job, |prior| {
                let mut next = prior.unwrap();
                next.state = JobState::Failed;
                Some(next)
            })
            .unwrap();
        assert!(store.load_status(&job).unwrap().finished_unix_ms > 0);
        let report = gc_pass(&store, &GcOptions::default()).unwrap();
        assert_eq!(report.expired_jobs, 0);
        assert!(store.job(&id).is_ok());

        // Backdate the finish stamp: now it expires.
        backdate(&store, &id, JobState::Failed);
        let report = gc_pass(&store, &GcOptions::default()).unwrap();
        assert_eq!(report.expired_jobs, 1);
        assert!(matches!(store.job(&id), Err(DaemonError::NoSuchJob(_))));
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn done_job_with_complete_results_is_compacted() {
        let store = temp_store("compact");
        let (id, _) = store.submit(&small_spec("c")).unwrap();
        let job = store.job(&id).unwrap();

        // Fabricate a sealed two-row results.csv plus a bloated
        // three-row cells.csv; status says Done with 2 cells.
        use ftsim::harness::{to_csv, RunRecord};
        let rec = RunRecord::default();
        std::fs::write(job.results_path(), to_csv(&[rec.clone(), rec.clone()])).unwrap();
        std::fs::write(
            job.cells_path(),
            to_csv(&[rec.clone(), rec.clone(), rec.clone()]),
        )
        .unwrap();
        let mut status = store.load_status(&job).unwrap();
        status.state = JobState::Done;
        status.cells_total = 2;
        store.write_status(&job, &status).unwrap();

        let report = gc_pass(&store, &GcOptions::default()).unwrap();
        assert_eq!(report.compacted_jobs, 1);
        assert!(!job.cells_path().exists(), "cells.csv must be dropped");
        assert!(job.results_path().exists(), "sealed results must stay");

        // Second pass: nothing left to compact, and an *incomplete*
        // results.csv never triggers compaction.
        std::fs::write(job.cells_path(), to_csv(std::slice::from_ref(&rec))).unwrap();
        std::fs::write(job.results_path(), to_csv(&[rec])).unwrap();
        let report = gc_pass(&store, &GcOptions::default()).unwrap();
        assert_eq!(report.compacted_jobs, 0);
        assert!(job.cells_path().exists());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn stale_lease_debris_and_aged_quarantine_are_swept() {
        let store = temp_store("debris");
        let (id, _) = store.submit(&small_spec("d")).unwrap();
        let job = store.job(&id).unwrap();

        std::fs::create_dir_all(job.claims_dir()).unwrap();
        std::fs::write(job.claims_dir().join("fam.lease"), b"{}").unwrap();
        std::fs::write(job.claims_dir().join("fam.lease.stale.1.2"), b"{}").unwrap();

        std::fs::create_dir_all(store.quarantine_dir()).unwrap();
        std::fs::write(store.quarantine_dir().join("old.json"), b"x").unwrap();

        // Live job: the real lease survives, the debris does not; the
        // quarantine file is too young for the default 7-day retention.
        let report = gc_pass(&store, &GcOptions::default()).unwrap();
        assert_eq!(report.stale_lease_files, 1);
        assert_eq!(report.quarantine_files, 0);
        assert!(job.claims_dir().join("fam.lease").exists());
        assert!(!job.claims_dir().join("fam.lease.stale.1.2").exists());

        // Zero retention ages everything out immediately.
        let opts = GcOptions {
            quarantine_retain: Duration::ZERO,
        };
        let report = gc_pass(&store, &opts).unwrap();
        assert_eq!(report.quarantine_files, 1);
        assert!(!store.quarantine_dir().join("old.json").exists());
        std::fs::remove_dir_all(store.root()).ok();
    }
}
