//! Grids that repeat an axis value: one grid per axis (seed, workload,
//! fault rate, model, budget), each listing one value twice.
//!
//! A repeated value gives several grid cells the same identity, so one
//! record stands for all of them. Two paths must agree on that:
//! - an `ftsimd` drain of the job finalizes a `results.csv` equal to the
//!   one-shot run's `to_csv`;
//! - a one-shot run resumed from one record per distinct identity serves
//!   every cell, repeats included, from its prior.

use ftsim::harness::{to_csv, CellPath, RunRecord};
use ftsim_daemon::{serve, JobSpec, JobState, JobStore, ServeOptions};
use std::time::Duration;

/// The shared axes; each shape overrides one of them with a repeat.
const BASE: [(&str, &str); 5] = [
    ("workloads", r#"["fpppp", "gcc"]"#),
    ("models", r#"["SS-2"]"#),
    ("fault_rates", "[0.0, 1000.0]"),
    ("budgets", "[300]"),
    ("seeds", "[1, 2]"),
];

/// One repeated value per axis.
const SHAPES: [(&str, &str, &str); 5] = [
    ("seed", "seeds", "[1, 2, 1]"),
    ("workload", "workloads", r#"["fpppp", "gcc", "fpppp"]"#),
    ("rate", "fault_rates", "[0.0, 1000.0, 0.0]"),
    ("model", "models", r#"["SS-2", "SS-1", "SS-2"]"#),
    ("budget", "budgets", "[300, 400, 300]"),
];

fn spec(shape: &str, axis: &str, values: &str) -> JobSpec {
    let mut text = format!("name = \"repeated-{shape}\"\ncheckpointing = true\n");
    for (key, base) in BASE {
        let list = if key == axis { values } else { base };
        text.push_str(&format!("{key} = {list}\n"));
    }
    JobSpec::parse(&text).unwrap()
}

#[test]
fn repeated_axis_values_agree_across_drain_and_resume() {
    let dir = std::env::temp_dir().join(format!("ftsimd-repeated-axes-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = JobStore::open(&dir).unwrap();

    let mut jobs = Vec::new();
    for (shape, axis, values) in SHAPES {
        let spec = spec(shape, axis, values);
        let exp = spec.to_experiment().unwrap();
        let oneshot = exp.clone().run().unwrap();
        assert!(oneshot.iter().all(RunRecord::ok), "{shape}: errored cells");

        // One record per distinct identity serves every cell.
        let mut distinct: Vec<RunRecord> = Vec::new();
        for r in &oneshot {
            if !distinct.iter().any(|d| d.same_identity(r)) {
                distinct.push(r.clone());
            }
        }
        assert!(distinct.len() < oneshot.len(), "{shape}: nothing repeated");
        let plan = exp.resume_from(distinct).plan().unwrap();
        assert_eq!(plan.len(), oneshot.len(), "{shape}");
        for (idx, want) in oneshot.iter().enumerate() {
            let (record, path, _) = plan.run_cell_observed(idx);
            assert_eq!(path, CellPath::Resumed, "{shape}: cell {idx}");
            assert_eq!(&record, want, "{shape}: cell {idx}");
        }

        let (id, _) = store.submit(&spec).unwrap();
        jobs.push((shape, store.job(&id).unwrap(), oneshot));
    }

    serve(
        &store,
        &ServeOptions {
            drain: true,
            workers: 1,
            poll: Duration::from_millis(1),
            gc_interval: Duration::ZERO,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    for (shape, job, oneshot) in jobs {
        assert_eq!(
            store.load_status(&job).unwrap().state,
            JobState::Done,
            "{shape}"
        );
        assert_eq!(
            std::fs::read_to_string(job.results_path()).unwrap(),
            to_csv(&oneshot),
            "{shape}: results.csv must equal the one-shot run"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
