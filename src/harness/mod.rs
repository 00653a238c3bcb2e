//! The experiment harness: declarative sweep grids, a parallel runner,
//! and flat, serializable run records.
//!
//! The paper's evaluation is a cross-product — 11 workloads × machine
//! models × redundancy degree × fault frequency — and before this layer
//! existed every experiment hand-rolled that product as nested loops.
//! [`Experiment::grid`] expresses it declaratively:
//!
//! ```
//! use ftsim::harness::Experiment;
//! use ftsim_core::MachineConfig;
//! use ftsim_workloads::profile;
//!
//! let records = Experiment::grid()
//!     .workloads([profile("gcc").unwrap(), profile("fpppp").unwrap()])
//!     .models([MachineConfig::ss1(), MachineConfig::ss2()])
//!     .budget(3_000)
//!     .run()
//!     .unwrap();
//! assert_eq!(records.len(), 4); // 2 workloads x 2 models
//! assert!(records.iter().all(|r| r.ok() && r.ipc > 0.0));
//! ```
//!
//! Each cell of the grid is one independent, deterministic simulation, so
//! the runner fans cells out across `std::thread` workers (one per
//! available core by default) and reassembles results in grid order —
//! a parallel run yields **byte-identical** records to a sequential one.
//!
//! Results come back as [`RunRecord`]s: flat, self-describing rows
//! (model, workload, `R`, fault rate, site mix, seed, IPC, cycles, fault
//! fates, per-site fate tables, detection latencies, the final-state
//! digest, per-stage statistics) that serialize to CSV ([`to_csv`]) and
//! JSON ([`to_json`]) and parse back ([`from_csv`], [`from_json`])
//! without any external dependency.

mod experiment;
mod grid;
mod plan;
mod record;

pub use experiment::{Experiment, ExperimentError, Workload, DEFAULT_BUDGET};
pub use grid::Grid;
pub use plan::{checkpoint_interval, CellPath, FamilyId, SweepPlan};
pub use record::{
    expect_record, from_csv, from_csv_tolerant, from_csv_tolerant_prefix, from_json, record_for,
    to_csv, to_json, RecordError, RunRecord,
};
