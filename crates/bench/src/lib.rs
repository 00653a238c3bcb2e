//! Shared harness for the paper-reproduction experiments.
//!
//! Every table and figure of the paper's evaluation has a `cargo bench`
//! target in this crate (`table1`, `table2`, `fig3`, `fig4`, `fig5`,
//! `fig6`, `sensitivity`); each prints the same rows or series the paper
//! reports, plus the paper's headline claim next to the measured value.
//! Simulator speed is not measured here: `perfbench/` at the repository
//! root is the speed benchmark.
//!
//! The sweep targets are built on [`ftsim::harness::Experiment`]: each
//! declares its grid (workloads × machine models × fault rates ×
//! budgets), lets the harness fan the cells out across worker threads,
//! and renders its tables from the returned [`RunRecord`]s — which are
//! also exported as CSV and JSON under `target/experiments/` (see
//! [`export_records`]).
//!
//! Instruction budgets are deliberately small (the paper simulates 1 B
//! instructions per benchmark; we default to 60 k per run, overridable via
//! the `FTSIM_BUDGET` environment variable) — the *shape* of every result
//! is stable well below the paper's budget because the synthetic workloads
//! are steady-state loops.

#![warn(missing_docs)]

use ftsim::harness::{to_csv, to_json, RunRecord};
use ftsim_core::MachineConfig;
use std::path::PathBuf;

pub use ftsim::harness::DEFAULT_BUDGET;

/// The per-run instruction budget (`FTSIM_BUDGET` env override).
///
/// # Examples
///
/// ```
/// let b = ftsim_bench::budget();
/// assert!(b >= 1_000);
/// ```
pub fn budget() -> u64 {
    std::env::var("FTSIM_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_BUDGET)
        .max(1_000)
}

/// The three machine models of Figure 5, in the paper's order.
pub fn figure5_models() -> [MachineConfig; 3] {
    [
        MachineConfig::ss1(),
        MachineConfig::static2(),
        MachineConfig::ss2(),
    ]
}

/// Writes `records` as `<name>.csv` and `<name>.json` under
/// `target/experiments/` (or `$FTSIM_OUT` when set), printing and
/// returning the two paths.
///
/// # Errors
///
/// Any I/O error creating the directory or writing the files.
pub fn export_records(name: &str, records: &[RunRecord]) -> std::io::Result<(PathBuf, PathBuf)> {
    // Anchor at the workspace root (this crate lives two levels below it)
    // so `cargo bench`'s package-relative cwd doesn't scatter outputs
    // across member directories. The anchor is a compile-time path, so a
    // binary relocated off its build machine falls back to the cwd.
    let dir = std::env::var_os("FTSIM_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            let anchored =
                PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
            if std::fs::create_dir_all(&anchored).is_ok() {
                anchored
            } else {
                PathBuf::from("target/experiments")
            }
        });
    std::fs::create_dir_all(&dir)?;
    let csv_path = dir.join(format!("{name}.csv"));
    let json_path = dir.join(format!("{name}.json"));
    std::fs::write(&csv_path, to_csv(records))?;
    std::fs::write(&json_path, to_json(records))?;
    println!(
        "exported {} records to {} and {}",
        records.len(),
        csv_path.display(),
        json_path.display()
    );
    Ok((csv_path, json_path))
}

pub use ftsim::harness::{expect_record, record_for};

/// Prints a standard experiment banner.
pub fn banner(id: &str, title: &str, paper_claim: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("paper: {paper_claim}");
    println!("================================================================");
}

/// Prints a `measured:` line used by the experiment summaries.
pub fn measured(text: &str) {
    println!("measured: {text}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsim_workloads::profile;

    #[test]
    fn budget_floor() {
        assert!(budget() >= 1_000);
    }

    #[test]
    fn figure5_models_are_distinct() {
        let m = figure5_models();
        assert_eq!(m[0].name, "SS-1");
        assert_eq!(m[1].name, "Static-2");
        assert_eq!(m[2].name, "SS-2");
    }

    #[test]
    fn record_lookup_finds_ok_cells() {
        use ftsim::harness::Experiment;
        let records = Experiment::grid()
            .workloads([profile("gcc").unwrap()])
            .models(figure5_models())
            .budget(1_500)
            .run()
            .unwrap();
        assert!(record_for(&records, "gcc", "SS-2").is_some());
        assert!(record_for(&records, "gcc", "SS-9").is_none());
    }
}
