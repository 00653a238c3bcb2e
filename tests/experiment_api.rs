//! The redesigned experiment surface: builder misuse is reported (not
//! panicked), run records round-trip through CSV and JSON, and a parallel
//! [`Experiment::grid`] run is byte-identical to a sequential one, with
//! checkpoint forking and resume on or off.

use ftsim::core::{BuildError, ConfigError, MachineConfig, OracleMode, SimError, Simulator};
use ftsim::harness::{
    from_csv, from_json, to_csv, to_json, CellPath, Experiment, ExperimentError, FamilyId,
    RunRecord,
};
use ftsim::isa::asm;
use ftsim::workloads::{profile, spec_profiles};
use std::collections::HashSet;

#[test]
fn builder_reports_missing_pieces() {
    assert_eq!(
        Simulator::builder().build().unwrap_err(),
        BuildError::MissingConfig
    );
    assert_eq!(
        Simulator::builder()
            .config(MachineConfig::ss1())
            .build()
            .unwrap_err(),
        BuildError::MissingProgram
    );
    // The one-step run() surfaces the same misuse as a SimError.
    assert_eq!(
        Simulator::builder().run().unwrap_err(),
        SimError::Invalid(BuildError::MissingConfig)
    );
}

#[test]
fn builder_rejects_invalid_machines() {
    let program = asm::assemble("addi r1, r0, 1\nhalt\n").unwrap();

    let mut narrow = MachineConfig::ss3();
    narrow.commit_width = 2;
    let err = Simulator::builder()
        .config(narrow)
        .program(&program)
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        BuildError::Config(ConfigError::GroupExceedsCommit { width: 2, r: 3 })
    );

    let mut no_alu = MachineConfig::ss1();
    no_alu.fu.int_alu = 0;
    let err = Simulator::builder()
        .config(no_alu)
        .program(&program)
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        BuildError::Config(ConfigError::ZeroFuCount { unit: "int_alu" })
    );
}

#[test]
fn experiment_rejects_nonsense_grids() {
    // threshold > r is caught before any cell simulates.
    let bad = MachineConfig::ss2().with_redundancy(ftsim::core::RedundancyConfig {
        r: 2,
        majority: false,
        threshold: 3,
    });
    let err = Experiment::grid()
        .workloads([profile("gcc").unwrap()])
        .models([bad])
        .run()
        .unwrap_err();
    assert_eq!(
        err,
        ExperimentError::InvalidModel {
            model: "SS-2".to_string(),
            source: ConfigError::ThresholdExceedsR { threshold: 3, r: 2 },
        }
    );
    assert!(err.to_string().contains("threshold 3"));
}

#[test]
fn figure5_grid_runs_through_the_new_api() {
    // The Figure 5 shape — all 11 workloads x the paper's three machine
    // models — through Experiment::grid() on multiple threads, with both
    // exports exercised (budget kept small: this is an API test, the
    // full-budget run lives in the fig5 bench target).
    let grid = || {
        Experiment::grid()
            .workloads(spec_profiles())
            .models([
                MachineConfig::ss1(),
                MachineConfig::static2(),
                MachineConfig::ss2(),
            ])
            .budget(2_000)
    };
    assert_eq!(grid().cells(), 33);
    let records = grid().threads(4).run().unwrap();
    assert_eq!(records.len(), 33);
    assert!(records.iter().all(|r| r.ok() && r.ipc > 0.0));
    // Every (workload, model) pair appears exactly once.
    for p in spec_profiles() {
        for model in ["SS-1", "Static-2", "SS-2"] {
            assert_eq!(
                records
                    .iter()
                    .filter(|r| r.workload == p.name && r.model == model)
                    .count(),
                1,
                "{} on {model}",
                p.name
            );
        }
    }
    // Both serializations invert exactly.
    assert_eq!(from_csv(&to_csv(&records)).unwrap(), records);
    assert_eq!(from_json(&to_json(&records)).unwrap(), records);
}

#[test]
fn parallel_grid_is_byte_identical_to_sequential() {
    let grid = |threads: usize| {
        Experiment::grid()
            .workloads([profile("gcc").unwrap(), profile("equake").unwrap()])
            .models([MachineConfig::ss1(), MachineConfig::ss2()])
            .fault_rates([0.0, 2_000.0])
            .budget(2_000)
            .seeds([1, 2])
            .threads(threads)
            .run()
            .unwrap()
    };
    let sequential = grid(1);
    let parallel = grid(8);
    assert_eq!(sequential.len(), 16);
    assert_eq!(sequential, parallel);
    // Byte-identical, not merely equal: the serialized forms match too.
    assert_eq!(to_csv(&sequential), to_csv(&parallel));
    assert_eq!(to_json(&sequential), to_json(&parallel));
}

#[test]
fn checkpointed_resumed_grid_is_byte_identical_at_any_thread_count() {
    let grid = || {
        Experiment::grid()
            .workloads([profile("fpppp").unwrap(), profile("gcc").unwrap()])
            .models([MachineConfig::ss2(), MachineConfig::ss3_majority()])
            .fault_rates([0.0, 100.0, 20_000.0])
            .budget(3_000)
            .seeds([1, 3])
            .oracle(OracleMode::Final)
    };
    let reference = grid().threads(1).run().unwrap();
    // Resume from fpppp SS-2's fault-free cells and one faulty gcc cell.
    // That fpppp family keeps only faulty cells. Its fault-free run makes
    // 6,520 injector draws. At 100 per million, seed 1 cannot fire before
    // draw 6,865, so its run is the fault-free run: it is served from the
    // recorded fault-free cell. Seed 3 can first fire at draw 4,398, late
    // enough to fork, so the family runs a baseline that serves forks
    // alone (a dedicated baseline).
    let prior: Vec<RunRecord> = reference
        .iter()
        .filter(|r| {
            (r.workload == "fpppp" && r.model == "SS-2" && r.fault_rate_pm == 0.0)
                || (r.workload == "gcc" && r.fault_rate_pm == 100.0 && r.seed == 1)
        })
        .cloned()
        .collect();
    assert_eq!(prior.len(), 4);
    let resumed = || grid().checkpointing(true).resume_from(prior.clone());

    // The grid takes every path, and one family runs without a live
    // fault-free cell.
    let plan = resumed().plan().unwrap();
    let mut paths = Vec::new();
    let mut served_faulty = 0;
    for idx in 0..plan.len() {
        let (record, path, _) = plan.run_cell_observed(idx);
        if !paths.contains(&path) {
            paths.push(path);
        }
        // Only a recorded fault-free outcome serves a faulty cell.
        if path == CellPath::Baseline && record.fault_rate_pm > 0.0 {
            served_faulty += 1;
        }
    }
    assert!(
        served_faulty > 0,
        "no cell was served from a fault-free prior"
    );
    for path in [
        CellPath::Resumed,
        CellPath::Baseline,
        CellPath::Forked,
        CellPath::Cold,
    ] {
        assert!(
            paths.contains(&path),
            "no cell took the {} path",
            path.name()
        );
    }
    let fault_free_families: HashSet<FamilyId> = (0..plan.len())
        .filter(|&idx| plan.prior(idx).is_none())
        .map(|idx| plan.identity(idx))
        .filter(|r| r.fault_rate_pm == 0.0)
        .map(|r| FamilyId {
            workload: r.workload,
            budget: r.budget,
            model: r.model,
        })
        .collect();
    assert!(plan.family_count() > fault_free_families.len());

    for threads in [1, 2, 8] {
        let records = resumed().threads(threads).run().unwrap();
        assert_eq!(to_csv(&records), to_csv(&reference), "threads {threads}");
        assert_eq!(to_json(&records), to_json(&reference), "threads {threads}");
    }
}

#[test]
fn record_round_trip_preserves_fault_outcomes() {
    // A fault-injecting cell produces nontrivial fate counts and float
    // statistics; they must survive CSV and JSON round trips exactly.
    let records = Experiment::grid()
        .workloads([profile("fpppp").unwrap()])
        .models([MachineConfig::ss2(), MachineConfig::ss3_majority()])
        .fault_rates([5_000.0])
        .budget(3_000)
        .seeds([9])
        .oracle(OracleMode::Final)
        .run()
        .unwrap();
    assert!(records.iter().any(|r| r.faults_injected > 0));
    assert!(records.iter().all(|r| r.faults_escaped == 0));
    let via_csv = from_csv(&to_csv(&records)).unwrap();
    let via_json = from_json(&to_json(&records)).unwrap();
    assert_eq!(via_csv, records);
    assert_eq!(via_json, records);
    // Spot-check a float field's bit-exactness through both paths.
    for (orig, (a, b)) in records.iter().zip(via_csv.iter().zip(via_json.iter())) {
        assert_eq!(orig.ipc.to_bits(), a.ipc.to_bits());
        assert_eq!(
            orig.mean_rewind_penalty.to_bits(),
            b.mean_rewind_penalty.to_bits()
        );
    }
}

#[test]
fn failed_cells_become_error_records_not_aborts() {
    // An R=1 machine at an absurd fault rate with a tight cycle ceiling:
    // whether each seed survives is up to the dice, but the sweep itself
    // must always complete and account for every cell.
    let records = Experiment::grid()
        .workloads([profile("go").unwrap()])
        .models([MachineConfig::ss1()])
        .fault_rates([50_000.0])
        .budget(2_000)
        .seeds([1, 2, 3, 4])
        .oracle(OracleMode::Final)
        .run()
        .unwrap();
    assert_eq!(records.len(), 4);
    for r in &records {
        assert_eq!(r.ok(), r.error.is_empty());
    }
    // Error records still round-trip.
    assert_eq!(from_csv(&to_csv(&records)).unwrap(), records);
    assert_eq!(from_json(&to_json(&records)).unwrap(), records);
}
