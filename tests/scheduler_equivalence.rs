//! Scheduler-equivalence golden test.
//!
//! The event-driven scheduler (per-slot wakeup wait-lists; the ready,
//! parked and pending-store bitsets) must be *observationally identical*
//! to the seed's scan-based scheduler: same cycle counts, same fault
//! fates, same records, byte for byte. This test runs the workload tour plus
//! randomized fault plans through the experiment grid and compares the
//! CSV serialization of every record against a golden file generated
//! with the scan-based scheduler. The grids run twice, cold and with
//! checkpoint-forking, against that one golden file: forking changes what
//! is simulated, never a record.
//!
//! A second golden file pins the window-size extremes: the smallest RUU
//! a model allows (one replication group), a window whose size is not a
//! power of two, one just past the default 128 entries, and the 4,096
//! entries of an unbounded window. The default grids never leave 128
//! entries, so these are the only records over odd and wide windows.
//!
//! Regenerate the golden files (only when an *intentional* semantic change
//! lands, never to paper over a scheduler divergence) with:
//!
//! ```text
//! FTSIM_BLESS=1 cargo test --test scheduler_equivalence
//! ```

use ftsim::harness::{to_csv, Experiment, RunRecord};
use ftsim_core::{MachineConfig, OracleMode, Scale};
use ftsim_faults::SiteMix;
use ftsim_obs::metrics;
use ftsim_workloads::spec_profiles;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden_path() -> PathBuf {
    golden_dir().join("scheduler_records.csv")
}

fn ruu_golden_path() -> PathBuf {
    golden_dir().join("scheduler_records_ruu.csv")
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

/// `model` with an RUU of `entries` slots (its LSQ unchanged).
fn with_ruu(model: MachineConfig, entries: usize) -> MachineConfig {
    let mut config = model;
    config.ruu_size = entries;
    let name = format!("{}-ruu{entries}", config.name);
    config.named(&name)
}

/// The RUU-size extremes on SS-2 and SS-3M: `R` entries (one group in
/// flight), 96 and 130 (not powers of two, below and above the default
/// 128) and `Scale::Infinite` (4,096), fault-free and under a storm.
/// The budget is large enough that even the 4,096-slot ring wraps.
fn ruu_extreme_records(checkpointing: bool) -> Vec<RunRecord> {
    let models = [MachineConfig::ss2(), MachineConfig::ss3_majority()]
        .into_iter()
        .flat_map(|m| {
            let r = usize::from(m.redundancy.r);
            let inf = m.clone().with_ruu_scale(Scale::Infinite);
            let inf_name = format!("{}-ruu{}", inf.name, inf.ruu_size);
            [
                with_ruu(m.clone(), r),
                with_ruu(m.clone(), 96),
                with_ruu(m, 130),
                inf.named(&inf_name),
            ]
        });
    Experiment::grid()
        .workloads([
            ftsim_workloads::profile("fpppp").expect("profile exists"),
            ftsim_workloads::profile("gcc").expect("profile exists"),
        ])
        .models(models)
        .fault_rates([0.0, 20_000.0])
        .budget(6_000)
        .seeds([7])
        .oracle(OracleMode::Off)
        .checkpointing(checkpointing)
        .run()
        .expect("RUU-extremes grid is well-formed")
}

/// Every grid's records, in one order, cold or forked.
fn records(checkpointing: bool) -> Vec<RunRecord> {
    let mut records = tour_records(checkpointing);
    records.extend(fault_storm_records(checkpointing));
    records.extend(site_mix_records(checkpointing));
    records
}

/// Writes `records` as the golden file at `path`.
fn bless(records: &[RunRecord], path: &PathBuf) {
    std::fs::create_dir_all(golden_dir()).expect("mkdir golden");
    std::fs::write(path, to_csv(records)).expect("write golden");
    eprintln!("blessed {} records into {}", records.len(), path.display());
}

/// Asserts that `records` serialize byte for byte to the golden file at
/// `path`.
fn assert_matches_golden(records: &[RunRecord], path: &PathBuf, run: &str) {
    let csv = to_csv(records);
    let golden = std::fs::read_to_string(path)
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
        bless(&records, &golden_path());
        return;
    }
    assert_matches_golden(&records, &golden_path(), "cold");

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
    assert_matches_golden(&records(true), &golden_path(), "forked");
    // Only this test turns forking on, so the counter moved for it.
    assert!(forked.get() > before, "the forked run forked no cell");
}

#[test]
fn ruu_extremes_match_their_golden_cold_and_forked() {
    let records = ruu_extreme_records(false);
    if std::env::var_os("FTSIM_BLESS").is_some() {
        bless(&records, &ruu_golden_path());
        return;
    }
    assert_matches_golden(&records, &ruu_golden_path(), "RUU-extremes cold");
    assert_matches_golden(
        &ruu_extreme_records(true),
        &ruu_golden_path(),
        "RUU-extremes forked",
    );
    // The storm reaches the paths a slot ring can get wrong at every
    // size: fault rewinds and branch rewinds.
    for size in ["ruu2", "ruu3", "ruu96", "ruu130", "ruu4096"] {
        let cells: Vec<_> = records.iter().filter(|r| r.model.ends_with(size)).collect();
        assert!(!cells.is_empty(), "no {size} cells");
        assert!(cells.iter().any(|r| r.branch_rewinds > 0), "{size}");
        assert!(cells.iter().any(|r| r.fault_rewinds > 0), "{size}");
    }
}
