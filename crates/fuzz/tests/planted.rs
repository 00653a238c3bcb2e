//! End-to-end validation of the catch-and-shrink loop against the
//! deliberately planted checkpoint-state defect in `ftsim-core` (its
//! `plant` feature: a load-issue stall counter that is folded into
//! `load_forwards` but kept outside `MachineState`, so forked runs
//! under-count relative to cold runs).
//!
//! This crate's dev-dependencies compile the defect in, and every test
//! in this binary arms it first with `ftsim_core::arm_plant()`. Arming
//! is process-wide and sticks, so it must happen before any simulation
//! in this process; every other test binary leaves the defect unarmed,
//! which is what keeps it invisible everywhere else.

use std::path::Path;
use std::sync::OnceLock;

use ftsim_fuzz::{check_seed, load_repro, replay, save_repro, shrink, Invariant, SeedOutcome};

/// How many seeds the scan may need before the plant is caught. Seed 21
/// trips it today, but the bound (not the index) is the contract.
const SCAN: u64 = 32;

fn plant() {
    ftsim_core::arm_plant();
}

/// First violating outcome in the scan range, computed once per process.
fn first_violation() -> &'static SeedOutcome {
    static FIRST: OnceLock<SeedOutcome> = OnceLock::new();
    FIRST.get_or_init(|| {
        plant();
        (0..SCAN)
            .map(|seed| check_seed(seed, None))
            .find(|o| o.violation.is_some())
            .expect("the planted defect must be caught within the scan range")
    })
}

#[test]
fn planted_defect_is_caught_as_forked_cold_divergence() {
    let outcome = first_violation();
    let v = outcome.violation.as_ref().expect("scan found a violation");
    assert_eq!(v.invariant, Invariant::ForkedColdIdentity);
    // The divergence is a record-field mismatch on a faulty cell of a
    // forked family, not a crash or an oracle error.
    assert!(v.rate_pm > 0.0, "plant diverges on forked (faulty) cells");
    assert!(!v.model.is_empty());
}

#[test]
fn shrinker_minimizes_program_and_plan() {
    plant();
    let outcome = first_violation();
    let repro = shrink(outcome, None).expect("violating outcome shrinks");
    assert_eq!(repro.invariant, Invariant::ForkedColdIdentity);

    let fp = repro.spec.generate();
    assert!(
        fp.emitted_blocks <= 12,
        "minimal program still emits {} blocks",
        fp.emitted_blocks
    );
    assert!(
        repro.spec.iterations <= 2,
        "minimal program still runs {} iterations",
        repro.spec.iterations
    );
    let plan = repro.plan.as_ref().expect(
        "a forked-cold divergence must pin an explicit fault plan \
         (the plant needs no fired fault, only a fork)",
    );
    assert!(
        plan.len() <= 1,
        "minimal plan still has {} events",
        plan.len()
    );

    // The minimal repro replays to the same verdict.
    let report = replay(&repro);
    assert!(
        report.reproduced,
        "minimal repro did not replay: {}",
        report.detail
    );
}

#[test]
fn shrinking_is_deterministic() {
    plant();
    let outcome = first_violation();
    let a = save_repro(&shrink(outcome, None).expect("shrinks"));
    let b = save_repro(&shrink(outcome, None).expect("shrinks"));
    assert_eq!(a, b, "same seed must shrink to a byte-identical repro");
}

#[test]
fn golden_repros_replay_to_their_pinned_verdicts() {
    plant();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/repros");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("golden repro directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "no golden repros checked in");
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable repro");
        let repro = load_repro(&text).expect("parseable repro");
        let report = replay(&repro);
        assert!(
            report.reproduced,
            "{} no longer reproduces {}: {}",
            path.display(),
            repro.invariant.name(),
            report.detail
        );
    }
}
