//! # ftsim-daemon — `ftsimd`, the long-running sweep daemon
//!
//! The paper's results come from large fault-injection sweeps; this
//! crate turns the one-shot [`Experiment`](ftsim::harness::Experiment)
//! grids into a **service**: jobs are submitted as TOML/JSON specs,
//! queued in a persistent state directory, executed by a worker pool
//! that shares each (workload, budget, model) family's fault-free
//! prefix through the checkpoint/fork engine, and streamed to disk as
//! cells complete — so heavy design-space exploration survives
//! shutdowns, crashes and restarts without re-simulating a single
//! finished cell.
//!
//! The pieces:
//!
//! * [`JobSpec`] — the spec format and its mapping onto experiment
//!   grids (workloads × models × fault rates × budgets × seeds, every
//!   workload and machine referenced by name);
//! * [`JobStore`] — the state directory: a persistent queue with
//!   per-job directories, atomically-replaced status documents, an
//!   append-safe incremental results log, and the graceful-shutdown
//!   sentinel;
//! * [`run_job`] / [`serve`] — execution: family-sharded workers,
//!   crash-safe streaming, resume-on-restart, and the daemon loop;
//! * the **fabric** ([`try_claim`], [`ClaimGuard`], [`FabricConfig`]) —
//!   per-family claim files with lease expiry and heartbeat renewal, so
//!   N `serve` processes on one state directory partition work, steal
//!   from crashed peers, and schedule by priority + submitter fair
//!   share; single-process operation is the N=1 special case;
//! * an HTTP API (`serve --listen`) and its `--remote` client — every
//!   daemon verb over a hand-rolled `std::net` server, no filesystem
//!   access required of submitters; mutating verbs can be gated behind
//!   a bearer token (`serve --token-file`); the read verbs (`jobs`,
//!   `status`, `results`, `report`, watched or not) have one
//!   implementation that the CLI and the HTTP handlers both render;
//! * **tenancy hardening** — per-submitter admission quotas
//!   ([`QuotaPolicy`], rejected work gets a structured
//!   429-with-retry-after), job TTLs with a garbage-collection pass
//!   ([`gc_pass`], also `ftsimd gc`), a stuck-cell watchdog with a
//!   bounded strike count, and an NFS-tolerant relaxed lease mode
//!   ([`LeaseMode`]) that verifies claims by owner echo instead of
//!   trusting `O_EXCL`;
//! * [`failpoints`] — the failure model: every filesystem and socket
//!   operation above routes through the [`ftsim_chaos::IoEnv`] layer
//!   (`FTSIM_CHAOS=<seed>:<spec>`) under a stable site name, so chaos
//!   plans, the crash-matrix suite and the docs all speak about the
//!   same catalog of failure sites;
//! * **observability** — [`ftsim_obs`] metrics and trace spans threaded
//!   through the fabric: Prometheus text on `GET /metrics` (fabric
//!   vitals + per-worker sim throughput), a per-process span journal
//!   under `<state>/trace/` merged by `GET /trace` / `ftsimd trace`,
//!   live analysis streaming (`GET /jobs/<id>/report?watch`, `ftsimd
//!   report --watch`), and `FTSIM_PROFILE=1` per-stage wall-time
//!   profiles rendered by `ftsimd profile`. None of it is simulation
//!   state: records stay byte-identical with the layer on, off, or
//!   failing;
//! * [`cli`] — the `ftsimd` command-line front end
//!   (`submit`/`serve`/`jobs`/`status`/`results`/`report`/`trace`/
//!   `profile`/`gc`/`stop`).
//!
//! The load-bearing invariant, inherited from the harness and checked
//! by this crate's integration test: **a job's final results are
//! byte-identical to a one-shot `Experiment::run` of the same axes**,
//! no matter how many times the daemon was killed and restarted along
//! the way. The daemon changes what a sweep *costs* and *survives* —
//! never what it measures.
//!
//! # Example
//!
//! Submit and drain a small job in-process (what `ftsimd submit` +
//! `ftsimd serve --drain` do across processes):
//!
//! ```
//! use ftsim_daemon::{JobSpec, JobStore, ServeOptions};
//!
//! let mut spec = JobSpec::new("doc-demo");
//! spec.workloads = vec!["gcc".to_string()];
//! spec.models = vec!["SS-1".to_string(), "SS-2".to_string()];
//! spec.budgets = vec![1_500];
//!
//! let dir = std::env::temp_dir().join("ftsimd-doc-demo");
//! # std::fs::remove_dir_all(&dir).ok();
//! let store = JobStore::open(&dir).unwrap();
//! let (job_id, created) = store.submit(&spec).unwrap();
//! assert!(created);
//! ftsim_daemon::serve(&store, &ServeOptions { drain: true, ..Default::default() }).unwrap();
//!
//! let job = store.job(&job_id).unwrap();
//! let text = std::fs::read_to_string(job.results_path()).unwrap();
//! let records = ftsim::harness::from_csv(&text).unwrap();
//! assert_eq!(records.len(), 2);
//! assert!(records.iter().all(|r| r.ok()));
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]

pub mod cli;
mod fabric;
pub mod failpoints;
mod feed;
mod gc;
mod http;
mod runner;
mod spec;
mod store;

pub use fabric::{try_claim, ClaimGuard, FabricConfig, LeaseMode};
pub use gc::{gc_pass, GcOptions, GcReport};
pub use runner::{install_signal_handlers, run_job, serve, signalled, JobOutcome, ServeOptions};
pub use spec::{model_by_name, JobSpec, SpecError};
pub use store::{DaemonError, Job, JobState, JobStatus, JobStore, QuotaPolicy};
