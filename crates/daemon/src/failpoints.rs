//! The daemon's failpoint catalog.
//!
//! Every filesystem and socket operation in the daemon routes through
//! [`ftsim_chaos::IoEnv`] under one of these site names, so a chaos plan
//! (`FTSIM_CHAOS=<seed>:<spec>`) can target the exact primitive: fail it,
//! tear it, delay it, or abort the process there. The crash-matrix suite
//! iterates [`CATALOG`] and proves that a kill at each site followed by a
//! `serve --drain` restart yields results byte-identical to the one-shot
//! grid.
//!
//! Site names are **stable identifiers**: tests, CI chaos plans and the
//! docs' failure-model table all refer to them, so renaming one is a
//! breaking change to the failure model.

/// One entry of the failpoint catalog: where it sits and what recovery
/// the fabric owes when the operation dies there.
#[derive(Debug, Clone, Copy)]
pub struct Failpoint {
    /// Stable dotted site name, as used in `FTSIM_CHAOS` plans.
    pub site: &'static str,
    /// The guarded operation.
    pub op: &'static str,
    /// Expected recovery when the process dies or the op fails here.
    pub recovery: &'static str,
}

/// Creating the state directory tree (`JobStore::open`).
pub const STORE_STATE_CREATE: &str = "store.state.create";
/// Exclusive `create_dir` claiming a fresh job id at submit.
pub const STORE_JOB_DIR_CREATE: &str = "store.job_dir.create";
/// Atomic write of a job's canonical `spec.json`.
pub const STORE_WRITE_SPEC: &str = "store.write_spec";
/// Reading a job's `spec.json`.
pub const STORE_READ_SPEC: &str = "store.read_spec";
/// Atomic temp+rename replacement of a job's `status.json`.
pub const STORE_WRITE_STATUS: &str = "store.write_status";
/// Reading a job's `status.json`.
pub const STORE_READ_STATUS: &str = "store.read_status";
/// Listing the `jobs/` directory.
pub const STORE_LIST_JOBS: &str = "store.list_jobs";
/// Removing a job directory (`remove`, `--fresh` re-submission).
pub const STORE_REMOVE_JOB: &str = "store.remove_job";
/// Writing a stop/pause sentinel.
pub const STORE_SENTINEL_WRITE: &str = "store.sentinel.write";
/// Clearing a stop/pause sentinel.
pub const STORE_SENTINEL_CLEAR: &str = "store.sentinel.clear";
/// Moving a corrupt state file into `<state>/quarantine/`.
pub const STORE_QUARANTINE: &str = "store.quarantine";
/// Reading the admission-control policy (`<state>/quota.json`).
pub const STORE_QUOTA_READ: &str = "store.quota.read";
/// Atomic write of the admission-control policy.
pub const STORE_QUOTA_WRITE: &str = "store.quota.write";
/// Removing an expired job directory during a GC pass.
pub const STORE_GC_REMOVE: &str = "store.gc.remove";

/// Reading a family's claim lease document.
pub const FABRIC_LEASE_READ: &str = "fabric.lease.read";
/// Exclusive `create_new` of a claim lease.
pub const FABRIC_CLAIM_CREATE: &str = "fabric.claim.create";
/// Atomic rewrite of a held lease at heartbeat renewal.
pub const FABRIC_CLAIM_RENEW: &str = "fabric.claim.renew";
/// Removing an owned lease when a family finishes.
pub const FABRIC_CLAIM_RELEASE: &str = "fabric.claim.release";
/// Rename-to-stale of an expired peer lease before re-claiming.
pub const FABRIC_CLAIM_STEAL: &str = "fabric.claim.steal";
/// Listing a job's `claims/` directory.
pub const FABRIC_CLAIMS_LIST: &str = "fabric.claims.list";
/// Reading `cells.csv` for resume/merge.
pub const FABRIC_CELLS_READ: &str = "fabric.cells.read";
/// The group commit of a claim's `cells.csv` rows: one sync when the
/// claim ends.
pub const FABRIC_CELLS_SYNC: &str = "fabric.cells.sync";
/// Atomic write of the final grid-order `results.csv`.
pub const FABRIC_FINALIZE_RESULTS_CSV: &str = "fabric.finalize.results_csv";
/// Atomic write of the final `results.json`.
pub const FABRIC_FINALIZE_RESULTS_JSON: &str = "fabric.finalize.results_json";
/// Removing the `claims/` directory after finalization.
pub const FABRIC_FINALIZE_CLEAR_CLAIMS: &str = "fabric.finalize.clear_claims";
/// Verify-after-write reread of a relaxed-mode claim (`--lease-mode=relaxed`).
pub const FABRIC_CLAIM_VERIFY: &str = "fabric.claim.verify";
/// Per-family cell-execution gate; the full site is
/// `fabric.cell.<family-slug>`, so chaos plans can hang one family's cells
/// (`delay@fabric.cell.gcc-4000-ss-2*`) to exercise the stuck-cell watchdog.
pub const FABRIC_CELL_PREFIX: &str = "fabric.cell.";

/// Writing the bound-address advertisement (`<state>/http.addr`).
pub const HTTP_ADDR_WRITE: &str = "http.addr.write";
/// Accepting an HTTP connection.
pub const HTTP_ACCEPT: &str = "http.accept";
/// Reading an HTTP request head/body from the socket.
pub const HTTP_SERVER_READ: &str = "http.server.read";
/// Writing an HTTP response to the socket.
pub const HTTP_SERVER_RESPOND: &str = "http.server.respond";
/// Client: connecting and sending a request (`--remote`).
pub const HTTP_CLIENT_SEND: &str = "http.client.send";
/// Client: reading a response (`--remote`).
pub const HTTP_CLIENT_RECV: &str = "http.client.recv";

/// Failpoint site covering `AppendWriter::open` (lives in `ftsim-stats`).
pub const CSV_OPEN: &str = "csv.open";
/// Failpoint site covering each `cells.csv` row write
/// (`AppendWriter::write_row`; synced at the claim's end).
pub const CSV_APPEND: &str = "csv.append";

/// Best-effort append of a cell's stage-profile row to `<job>/profile.csv`.
/// Deliberately named outside the `fabric.*` and `csv.*` globs ambient CI
/// chaos plans target: observability writes are swallowed on failure and
/// must not consume those plans' injection budgets.
pub const OBS_PROFILE_APPEND: &str = "obs.profile.append";
/// Best-effort append of a trace event to the per-process NDJSON journal
/// under `<state>/trace/`. Same out-of-glob naming rationale as
/// [`OBS_PROFILE_APPEND`].
pub const OBS_TRACE_APPEND: &str = "obs.trace.append";

/// Every persistence failpoint the crash matrix kills at. Network sites
/// are excluded: an aborted server is client-visible, not a recovery
/// problem for the store.
pub const CATALOG: &[Failpoint] = &[
    Failpoint {
        site: STORE_STATE_CREATE,
        op: "create state directory tree",
        recovery: "next open re-creates; nothing was enqueued yet",
    },
    Failpoint {
        site: STORE_JOB_DIR_CREATE,
        op: "exclusive job-id claim (create_dir)",
        recovery: "a specless job dir is parked failed and never blocks dedup; re-submit claims the next id",
    },
    Failpoint {
        site: STORE_WRITE_SPEC,
        op: "atomic spec.json write",
        recovery: "rename is atomic: either no spec (job parked failed) or a complete one; other jobs proceed",
    },
    Failpoint {
        site: STORE_READ_SPEC,
        op: "spec.json read",
        recovery: "retryable; a corrupt spec is quarantined and the job marked failed",
    },
    Failpoint {
        site: STORE_WRITE_STATUS,
        op: "atomic status.json replace",
        recovery: "old status stays visible (rename is atomic); scheduler rebuilds missing/corrupt status from spec + cells.csv",
    },
    Failpoint {
        site: STORE_READ_STATUS,
        op: "status.json read",
        recovery: "retry on next scheduler pass; corrupt contents are quarantined and rebuilt",
    },
    Failpoint {
        site: STORE_LIST_JOBS,
        op: "jobs/ directory listing",
        recovery: "retry on next scheduler pass",
    },
    Failpoint {
        site: STORE_SENTINEL_WRITE,
        op: "stop/pause sentinel write",
        recovery: "sentinel is advisory; absence means the job keeps running, a torn one serves a cut pause reason",
    },
    Failpoint {
        site: STORE_SENTINEL_CLEAR,
        op: "stop/pause sentinel removal",
        recovery: "idempotent; next clear removes it",
    },
    Failpoint {
        site: FABRIC_LEASE_READ,
        op: "claim lease read",
        recovery: "treated as contended this pass; unreadable leases age out at 2x lease and are quarantined",
    },
    Failpoint {
        site: FABRIC_CLAIM_CREATE,
        op: "exclusive lease create_new",
        recovery: "claim not taken; family stays assignable, a torn lease ages out as unparseable",
    },
    Failpoint {
        site: FABRIC_CLAIM_RENEW,
        op: "lease heartbeat rewrite",
        recovery: "lease expires and a peer steals the family; duplicate cells merge newest-wins, byte-identical",
    },
    Failpoint {
        site: FABRIC_CLAIM_RELEASE,
        op: "lease removal on family completion",
        recovery: "leftover lease expires and is stolen or swept by finalize",
    },
    Failpoint {
        site: FABRIC_CLAIM_STEAL,
        op: "rename-to-stale of an expired lease",
        recovery: "steal aborts; the expired lease remains stealable on the next pass",
    },
    Failpoint {
        site: FABRIC_CLAIMS_LIST,
        op: "claims/ directory listing",
        recovery: "retry on next scheduler pass",
    },
    Failpoint {
        site: FABRIC_CELLS_READ,
        op: "cells.csv read (past the index's boundary, or whole) for resume/merge",
        recovery: "retry; tolerant parser drops at most the torn trailing row, which is re-run",
    },
    Failpoint {
        site: FABRIC_CELLS_SYNC,
        op: "claim-end sync of the claim's cells.csv rows",
        recovery: "written rows sit in the page cache and a restart resumes from them; a machine crash loses at most the claim's rows, which re-run byte-identically",
    },
    Failpoint {
        site: FABRIC_FINALIZE_RESULTS_CSV,
        op: "atomic results.csv write",
        recovery: "job stays queued with all cells done; next pass re-finalizes from cells.csv",
    },
    Failpoint {
        site: FABRIC_FINALIZE_RESULTS_JSON,
        op: "atomic results.json write",
        recovery: "same as results.csv: finalization is idempotent and re-runs",
    },
    Failpoint {
        site: FABRIC_FINALIZE_CLEAR_CLAIMS,
        op: "claims/ cleanup after finalize",
        recovery: "stale claims of a Done job are inert; next finalize sweep removes them",
    },
    Failpoint {
        site: CSV_OPEN,
        op: "cells.csv open/read-back/tail repair",
        recovery: "family assignment fails this pass and is retried; torn tails are repaired on the next successful open",
    },
    Failpoint {
        site: CSV_APPEND,
        op: "cells.csv row write (synced at the claim's end)",
        recovery: "at most the row in flight is torn; tolerant readers drop it and the cell re-runs (ENOSPC pauses the job instead)",
    },
    Failpoint {
        site: OBS_PROFILE_APPEND,
        op: "best-effort profile.csv row append",
        recovery: "error swallowed; the profile row is dropped and sweep results are unchanged",
    },
    Failpoint {
        site: OBS_TRACE_APPEND,
        op: "best-effort trace journal append",
        recovery: "error swallowed; the trace event is dropped and sweep results are unchanged",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_sites_are_unique_and_dotted() {
        let mut seen = std::collections::HashSet::new();
        for fp in CATALOG {
            assert!(seen.insert(fp.site), "duplicate site {}", fp.site);
            assert!(fp.site.contains('.'), "site {} not dotted", fp.site);
            assert!(!fp.recovery.is_empty());
        }
    }
}
