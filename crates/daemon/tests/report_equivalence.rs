//! The analysis-interoperability invariant: `ftsimd report` on a daemon
//! job and `Experiment::analyze()` on the equivalent one-shot grid must
//! produce identical tables — same per-site sensitivity, same outcome
//! taxonomy, same latency and MTTF numbers — because both are pure
//! functions of byte-identical record sets.

use ftsim_analysis::{analyze_records, Analyze, CellOutcome};
use ftsim_daemon::{serve, JobSpec, JobStore, ServeOptions};

fn spec() -> JobSpec {
    let mut spec = JobSpec::new("report-eq");
    spec.workloads = vec!["fpppp".to_string(), "gcc".to_string()];
    spec.models = vec!["SS-2".to_string(), "SS-3M".to_string()];
    spec.fault_rates_pm = vec![0.0, 4_000.0];
    // A non-uniform mix cell rides in the same checkpoint-fork family as
    // the uniform one — the fault-free prefix is mix-independent.
    spec.site_mixes = vec!["uniform".to_string(), "addr-heavy".to_string()];
    spec.budgets = vec![1_500];
    spec.seeds = vec![7];
    spec
}

#[test]
fn daemon_report_matches_one_shot_analyze() {
    let dir = std::env::temp_dir().join(format!("ftsimd-report-eq-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = JobStore::open(&dir).unwrap();
    let (id, _) = store.submit(&spec()).unwrap();
    let job = store.job(&id).unwrap();
    let drain = ServeOptions {
        drain: true,
        ..Default::default()
    };
    serve(&store, &drain).unwrap();

    // What `ftsimd report` analyzes: the job's canonical results.csv.
    let text = std::fs::read_to_string(job.results_path()).unwrap();
    let job_records = ftsim::harness::from_csv(&text).unwrap();
    let from_daemon = analyze_records(&job_records);

    // What the library user gets from the equivalent one-shot grid.
    let from_grid = spec().to_experiment().unwrap().analyze().unwrap();

    assert_eq!(
        from_daemon.sensitivity, from_grid.sensitivity,
        "per-site sensitivity tables diverged"
    );
    assert_eq!(from_daemon, from_grid, "full reports diverged");
    assert_eq!(
        from_daemon.sensitivity.render(),
        from_grid.sensitivity.render()
    );
    assert_eq!(from_daemon.render(), from_grid.render());

    // The corpus must actually exercise the analysis: faults at both
    // mixes, detections with measured latencies, and a clean taxonomy.
    assert!(from_grid
        .sensitivity
        .rows
        .iter()
        .any(|r| r.site_mix == "addr-heavy"));
    assert!(from_grid
        .sensitivity
        .rows
        .iter()
        .any(|r| r.site_mix == "uniform"));
    assert!(from_grid.latency.rows.iter().any(|r| r.events > 0));
    // All 8 rate-0 cells (2 workloads × 2 models × 2 mixes) are
    // fault-free; a 4000/M cell could join them only if its Bernoulli
    // stream never fired.
    assert!(from_grid.outcome_count(CellOutcome::FaultFree) >= 8);
    assert!(from_grid.outcome_count(CellOutcome::Detected) > 0);
    assert_eq!(
        from_grid.outcome_count(CellOutcome::Sdc),
        0,
        "R >= 2 redundancy must not leak SDCs"
    );
    std::fs::remove_dir_all(&dir).ok();
}
