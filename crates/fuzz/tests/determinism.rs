//! Determinism of the fuzz loop: the same seed range must render
//! byte-identical verdict lines on every run, and truncated budgets must
//! stay invariant-clean (the harness knows a budget-limited run is not a
//! violation).
//!
//! This binary never calls `ftsim_core::arm_plant()`, so the planted
//! defect stays inert here even though the `plant` feature is compiled
//! in; the plant-specific behavior lives in `planted.rs` (its own
//! process, because arming is process-wide).

use ftsim_fuzz::check_seed;

#[test]
fn verdict_lines_are_byte_identical_across_runs() {
    let sweep = || {
        (0..8u64)
            .map(|seed| check_seed(seed, None).render())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let first = sweep();
    let second = sweep();
    assert_eq!(first, second);
    // Every line is a verdict, none a violation: the generator's programs
    // are oracle-clean by construction.
    assert_eq!(first.lines().count(), 8);
    for line in first.lines() {
        assert!(line.ends_with(" ok"), "unexpected violation: {line}");
    }
}

#[test]
fn truncated_budgets_stay_clean() {
    // A budget far below the predicted retirement truncates every cell;
    // the invariants must treat that as expected behavior, not failure.
    for seed in 0..4u64 {
        let outcome = check_seed(seed, Some(500));
        assert!(
            outcome.violation.is_none(),
            "seed {seed} violated under a truncating budget: {}",
            outcome.render()
        );
    }
}
