//! Scheduler-equivalence golden test.
//!
//! The event-driven scheduler (wakeup wait-lists, incremental ready queue,
//! pending-store list) must be *observationally identical* to the seed's
//! scan-based scheduler: same cycle counts, same fault fates, same
//! records, byte for byte. This test runs the workload tour plus
//! randomized fault plans through the experiment grid and compares the
//! CSV serialization of every record against a golden file generated
//! with the scan-based scheduler. The grids run twice, cold and with
//! checkpoint-forking, against that one golden file: forking changes what
//! is simulated, never a record.
//!
//! Regenerate the golden file (only when an *intentional* semantic change
//! lands, never to paper over a scheduler divergence) with:
//!
//! ```text
//! FTSIM_BLESS=1 cargo test --test scheduler_equivalence
//! ```

use ftsim::harness::{to_csv, Experiment, RunRecord};
use ftsim_core::{MachineConfig, OracleMode};
use ftsim_faults::SiteMix;
use ftsim_obs::metrics;
use ftsim_workloads::spec_profiles;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/scheduler_records.csv")
}

/// The tour: every calibrated benchmark profile on the paper's three
/// redundancy designs, fault-free and at a moderate random fault rate,
/// with the oracle checking final state.
fn tour_records(checkpointing: bool) -> Vec<RunRecord> {
    Experiment::grid()
        .workloads(spec_profiles())
        .models([
            MachineConfig::ss1(),
            MachineConfig::ss2(),
            MachineConfig::ss3_majority(),
        ])
        .fault_rates([0.0, 2_000.0])
        .budget(2_000)
        .seeds([9])
        .oracle(OracleMode::Final)
        .checkpointing(checkpointing)
        .run()
        .expect("tour grid is well-formed")
}

/// Randomized fault plans at a hostile rate across several seeds: lots of
/// rewinds, elections, squashes and (deterministically) wedged cells —
/// the paths a scheduler rewrite is most likely to perturb.
fn fault_storm_records(checkpointing: bool) -> Vec<RunRecord> {
    let storm: Vec<_> = ["gcc", "fpppp", "equake", "go"]
        .iter()
        .map(|n| ftsim_workloads::profile(n).unwrap_or_else(|| panic!("profile {n} exists")))
        .collect();
    Experiment::grid()
        .workloads(storm)
        .models([MachineConfig::ss2(), MachineConfig::ss3_majority()])
        .fault_rates([20_000.0])
        .budget(2_000)
        .seeds([1, 2, 3])
        .oracle(OracleMode::Off)
        .checkpointing(checkpointing)
        .run()
        .expect("storm grid is well-formed")
}

/// Weighted fault-site mixes on a few benchmarks: non-uniform mixes are
/// a sweep axis of their own, and their cells must stay byte-identical
/// under checkpoint forking.
fn site_mix_records(checkpointing: bool) -> Vec<RunRecord> {
    Experiment::grid()
        .workloads([
            ftsim_workloads::profile("fpppp").expect("profile exists"),
            ftsim_workloads::profile("gcc").expect("profile exists"),
        ])
        .models([MachineConfig::ss2(), MachineConfig::ss3_majority()])
        .fault_rates([0.0, 8_000.0])
        .site_mixes([
            SiteMix::uniform(),
            SiteMix::preset("addr-heavy").expect("preset exists"),
            SiteMix::preset("control-only").expect("preset exists"),
        ])
        .budget(2_000)
        .seeds([5])
        .oracle(OracleMode::Final)
        .checkpointing(checkpointing)
        .run()
        .expect("site-mix grid is well-formed")
}

/// Every grid's records, in one order, cold or forked.
fn records(checkpointing: bool) -> Vec<RunRecord> {
    let mut records = tour_records(checkpointing);
    records.extend(fault_storm_records(checkpointing));
    records.extend(site_mix_records(checkpointing));
    records
}

/// Asserts that `records` serialize byte for byte to the golden file.
fn assert_matches_golden(records: &[RunRecord], run: &str) {
    let csv = to_csv(records);
    let path = golden_path();
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden file {} missing: {e}", path.display()));
    if csv != golden {
        // Byte inequality: report the first divergent row for diagnosis.
        for (i, (got, want)) in csv.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                got, want,
                "{run} record row {i} diverged from the scan-based scheduler"
            );
        }
        assert_eq!(
            csv.lines().count(),
            golden.lines().count(),
            "{run} record count diverged from the scan-based scheduler"
        );
        panic!("{run} records diverged from golden (trailing bytes)");
    }
}

#[test]
fn scheduler_matches_golden_records() {
    let records = records(false);
    if std::env::var_os("FTSIM_BLESS").is_some() {
        let path = golden_path();
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, to_csv(&records)).expect("write golden");
        eprintln!("blessed {} records into {}", records.len(), path.display());
        return;
    }
    assert_matches_golden(&records, "cold");

    // Sanity on the golden corpus itself: it must exercise the paths that
    // matter — elections, fault rewinds, branch rewinds and squashes.
    assert!(records.iter().any(|r| r.fault_rewinds > 0));
    assert!(records.iter().any(|r| r.majority_elections > 0));
    assert!(records.iter().any(|r| r.branch_rewinds > 0));
    assert!(records.iter().any(|r| r.faults_squashed_wrong_path > 0));
    // ... and the site-mix axis: weighted cells that injected faults,
    // with per-site fate tables and measured detection latencies.
    assert!(records
        .iter()
        .any(|r| r.site_mix == "addr-heavy" && r.faults_injected > 0 && !r.site_fates.is_empty()));
    assert!(records
        .iter()
        .any(|r| r.site_mix == "control-only" && r.faults_injected > 0));
    assert!(records.iter().any(|r| r.detect_events > 0));
}

#[test]
fn forked_records_match_the_same_golden() {
    if std::env::var_os("FTSIM_BLESS").is_some() {
        return; // the cold run writes the golden file
    }
    let forked = metrics::counter("ftsim_cells_total", &[("path", "forked")]);
    let before = forked.get();
    assert_matches_golden(&records(true), "forked");
    // Only this test turns forking on, so the counter moved for it.
    assert!(
        !metrics::enabled() || forked.get() > before,
        "the forked run forked no cell"
    );
}
