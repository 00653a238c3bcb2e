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
//! registry counts this grid and nothing else. The grid is pulled cell by
//! cell first, then run whole by `Experiment::run` at one and two
//! threads; each pass must do the same work. Last, it is run again at
//! one and two threads resumed from all but three of its own records,
//! and must simulate only those three, or fewer where a recorded
//! fault-free cell serves one. A change that alters this work
//! on purpose updates the literals and says why.
//!
//! Stage profiling is switched on for the whole binary, so every cell
//! also returns the exact number of calls of each pipeline stage. Their
//! sums pin the cycle loop's work: a change to the scheduler's data
//! structures alone must leave them unchanged. They count executed
//! cycles, so they sit below `ftsim_sim_cycles_total`, which also counts
//! the quiet cycles the run loop fast-forwarded over.

use ftsim::harness::{CellPath, Experiment};
use ftsim_core::{profile, MachineConfig, OracleMode, StageProfile};
use ftsim_obs::metrics;

#[test]
fn checkpointing_grid_does_the_pinned_work() {
    profile::set_enabled(true);
    let grid = |threads| {
        Experiment::grid()
            .workloads([ftsim_workloads::profile("fpppp").expect("profile exists")])
            .models([MachineConfig::ss2(), MachineConfig::ss3_majority()])
            .fault_rates([0.0, 1_000.0, 10_000.0])
            .seeds([1, 2])
            .budget(1_500)
            .oracle(OracleMode::Final)
            .threads(threads)
            .checkpointing(true)
    };
    let plan = grid(1).plan().expect("grid is well-formed");

    let mut paths = [0u64; 4];
    let mut stages = StageProfile::default();
    for idx in 0..plan.len() {
        let (record, path, cell_profile) = plan.run_cell_observed(idx);
        stages.accumulate(&cell_profile);
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
    let calls: Vec<(&str, u64)> = profile::STAGE_NAMES.into_iter().zip(stages.calls).collect();
    assert_eq!(
        calls,
        [
            ("commit", 13_163),
            ("writeback", 13_163),
            ("issue", 13_163),
            ("dispatch", 13_163),
            ("fetch", 13_163),
        ],
        "stage calls"
    );

    let counter = |name| metrics::counter(name, &[]).get();
    assert_eq!(counter("ftsim_checkpoints_taken_total"), 13);
    assert_eq!(counter("ftsim_checkpoint_bytes_total"), 11_614_464);
    assert_eq!(counter("ftsim_sim_cycles_total"), 20_091);

    // The one-shot runner frees each family's baseline after its last
    // cell; one freed too early would be computed again, and only these
    // counters would show it. Each run must repeat the pull pass's work.
    // Cells by path (resumed, baseline, forked, cold), then checkpoints
    // taken, checkpoint bytes and simulated cycles.
    let snapshot = || -> Vec<u64> {
        let cells = by_path
            .iter()
            .map(|&(name, _)| metrics::counter("ftsim_cells_total", &[("path", name)]).get());
        let totals = [
            "ftsim_checkpoints_taken_total",
            "ftsim_checkpoint_bytes_total",
            "ftsim_sim_cycles_total",
        ]
        .map(counter);
        cells.chain(totals).collect()
    };
    let mut records = Vec::new();
    for threads in [1, 2] {
        let before = snapshot();
        records = grid(threads).run().expect("grid is well-formed");
        assert!(records.iter().all(|r| r.error.is_empty()));
        let delta: Vec<u64> = snapshot().iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(
            delta,
            [0, 4, 3, 5, 13, 11_614_464, 20_091],
            "Experiment::run at threads {threads}: cells by path, checkpoints, \
             checkpoint bytes, simulated cycles"
        );
    }

    // Resumed from all but three of its own records: a fault-free cell
    // (SS-2, seed 2), a faulty one (SS-2 at 10,000 per million, seed 1)
    // and a cold one (SS-3M at 1,000, seed 2). The fault-free cell is
    // served from SS-2's recorded fault-free cell (seed 1), so SS-2 runs
    // no baseline, takes no snapshots, and its faulty cell, whose first
    // possible fire lies too early to pay for a dedicated baseline, runs
    // cold. A matcher that misses a prior re-simulates that cell and
    // returns the same record, so only these counters would show it.
    const PENDING: [usize; 3] = [1, 4, 9];
    let prior: Vec<_> = records
        .iter()
        .enumerate()
        .filter(|(idx, _)| !PENDING.contains(idx))
        .map(|(_, r)| r.clone())
        .collect();
    for threads in [1, 2] {
        let before = snapshot();
        let resumed = grid(threads)
            .resume_from(prior.clone())
            .run()
            .expect("grid is well-formed");
        assert_eq!(resumed, records, "resumed records at threads {threads}");
        let delta: Vec<u64> = snapshot().iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(
            delta,
            [9, 1, 0, 2, 0, 0, 4_881],
            "resumed Experiment::run at threads {threads}: cells by path, checkpoints, \
             checkpoint bytes, simulated cycles"
        );
    }
}
