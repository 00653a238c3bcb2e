//! Exact work counters of a small checkpointing grid, pinned as literals.
//!
//! Records are byte-identical whichever path produced them, so a change
//! that silently stops forking (or checkpoints a different machine state)
//! keeps every golden green and only costs wall time. These counters are
//! deterministic, so they can gate instead: which path served each cell,
//! how many checkpoints the baselines took, their approximate bytes, and
//! the cycles this process actually simulated.
//!
//! The binary holds exactly one `#[test]`, so the process-wide metrics
//! registry counts this grid and nothing else. The metric pins are
//! skipped when the registry is off (`FTSIM_OBS=0`). A change that
//! alters this work on purpose updates the literals and says why.

use ftsim::harness::{CellPath, Experiment};
use ftsim_core::{MachineConfig, OracleMode};
use ftsim_obs::metrics;

#[test]
fn checkpointing_grid_does_the_pinned_work() {
    let plan = Experiment::grid()
        .workloads([ftsim_workloads::profile("fpppp").expect("profile exists")])
        .models([MachineConfig::ss2(), MachineConfig::ss3_majority()])
        .fault_rates([0.0, 1_000.0, 10_000.0])
        .seeds([1, 2])
        .budget(1_500)
        .oracle(OracleMode::Final)
        .threads(1)
        .checkpointing(true)
        .plan()
        .expect("grid is well-formed");

    let mut paths = [0u64; 4];
    for idx in 0..plan.len() {
        let (record, path, _) = plan.run_cell_observed(idx);
        assert!(
            record.error.is_empty(),
            "cell {idx} failed: {}",
            record.error
        );
        paths[path as usize] += 1;
    }
    let by_path = [
        CellPath::Resumed,
        CellPath::Baseline,
        CellPath::Forked,
        CellPath::Cold,
    ]
    .map(|p| (p.name(), paths[p as usize]));
    assert_eq!(
        by_path,
        [("resumed", 0), ("baseline", 4), ("forked", 3), ("cold", 5)],
        "cells by path"
    );

    if !metrics::enabled() {
        return;
    }
    let counter = |name| metrics::counter(name, &[]).get();
    assert_eq!(counter("ftsim_checkpoints_taken_total"), 13);
    assert_eq!(counter("ftsim_checkpoint_bytes_total"), 11_614_464);
    assert_eq!(counter("ftsim_sim_cycles_total"), 20_091);
}
