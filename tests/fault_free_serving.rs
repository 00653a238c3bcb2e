//! A recorded fault-free outcome serves the cells whose run it is.
//!
//! With checkpointing on, a resumed plan serves a family's live
//! fault-free cells, and its faulty cells whose first possible fire lies
//! at or past the `D` draws a fault-free run makes, from a recorded
//! fault-free cell of the family. The rule rests on one equality: a run
//! makes exactly one injector draw per dispatched RUU entry, so a
//! record's `dispatched_entries` is its injector's draw count. The first
//! test checks that equality on fuzz programs, cold and forked. The
//! second resumes random registry grids from random subsets of their own
//! records and requires the records of a cold, checkpointing-off run,
//! byte for byte, with no simulated cycle charged to a served cell.

use ftsim::harness::{to_csv, CellPath, Experiment, RunRecord};
use ftsim_core::{fork_point, MachineConfig, OracleMode, Processor, Simulator};
use ftsim_faults::{per_million, FaultInjector};
use ftsim_obs::metrics;
use ftsim_workloads::FuzzSpec;
use proptest::prelude::*;
use std::sync::Mutex;

/// Drives `proc` one cycle at a time until it halts or reaches
/// `max_cycles` (a faulty machine may wedge), then checks that its
/// injector made one draw per dispatched entry.
fn assert_one_draw_per_entry(proc: &mut Processor, max_cycles: u64, cell: &str) {
    while !proc.halted() && proc.now() < max_cycles {
        proc.cycle();
    }
    assert_eq!(
        proc.stats_snapshot().dispatched_entries,
        proc.injector().drawn(),
        "{cell}: dispatched entries and injector draws differ"
    );
}

fn check_draws(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let spec = FuzzSpec::from_seed(seed);
        let program = spec.generate();
        let max_cycles = 20 * program.expected_retired.max(1_000);
        for config in [
            MachineConfig::ss1(),
            MachineConfig::ss2(),
            MachineConfig::ss3_majority(),
        ] {
            let sim = |rate_pm: f64| {
                Simulator::builder()
                    .config(config.clone())
                    .program(&program.program)
                    .injector(FaultInjector::random(per_million(rate_pm), seed))
                    .oracle(OracleMode::Off)
                    .budget(program.expected_retired)
                    .build()
                    .expect("fuzz cells build")
            };
            let (_, checkpoints) = sim(0.0).run_with_checkpoints(97, u64::MAX);
            for rate in [0.0, 300.0, 20_000.0] {
                let cell = format!("seed {seed}, {}, rate {rate}", config.name);
                assert_one_draw_per_entry(sim(rate).processor_mut(), max_cycles, &cell);

                // Forked from the newest checkpoint the cell may use.
                let bound = FaultInjector::random(per_million(rate), seed)
                    .first_possible_fire(u64::MAX)
                    .unwrap_or(u64::MAX);
                if let Some(cp) = fork_point(&checkpoints, bound) {
                    let mut forked = sim(rate);
                    forked.processor_mut().fork(cp.clone());
                    let cell = format!("{cell}, forked at cycle {}", cp.cycle());
                    assert_one_draw_per_entry(forked.processor_mut(), max_cycles, &cell);
                }
            }
        }
    }
}

#[test]
fn dispatched_entries_count_injector_draws_cold_and_forked() {
    check_draws(0..32);
}

const WORKLOADS: [&str; 4] = ["fpppp", "gcc", "go", "equake"];
const BUDGETS: [u64; 3] = [300, 600, 1_000];
const SEEDS: [u64; 4] = [1, 2, 3, 4];

fn model(i: usize) -> MachineConfig {
    match i {
        0 => MachineConfig::ss1(),
        1 => MachineConfig::ss2(),
        _ => MachineConfig::ss3_majority(),
    }
}

/// A grid's axes as indices into the lists above, its faulty rates as
/// exponents (`10^(k/4)` per million, 1 to 100k), the oracle mode, and a
/// draw per cell deciding whether the resume records it.
type Case = (
    (Vec<usize>, Vec<usize>, Vec<usize>),
    (Vec<usize>, Vec<usize>),
    (usize, Vec<bool>),
);

fn any_case() -> impl Strategy<Value = Case> {
    let axis = |n: usize, max: usize| prop::collection::vec(0..n, 1..max);
    (
        (axis(WORKLOADS.len(), 3), axis(3, 3), axis(BUDGETS.len(), 3)),
        (axis(21, 4), axis(SEEDS.len(), 3)),
        (0usize..2, prop::collection::vec(any::<bool>(), 64..65)),
    )
}

fn experiment(case: &Case) -> Experiment {
    let ((w, m, b), (rates, s), (oracle, _)) = case;
    let rates = rates.iter().map(|&k| 10f64.powf(k as f64 / 4.0).round());
    Experiment::grid()
        .workloads(
            w.iter()
                .map(|&i| ftsim_workloads::profile(WORKLOADS[i]).unwrap()),
        )
        .models(m.iter().map(|&i| model(i)))
        .fault_rates(std::iter::once(0.0).chain(rates))
        .budgets(b.iter().map(|&i| BUDGETS[i]))
        .seeds(s.iter().map(|&i| SEEDS[i]))
        .oracle([OracleMode::Off, OracleMode::Final][*oracle])
        .threads(1)
}

/// Serializes the cases of this binary's tests: each reads the
/// process-wide cycle counter around single cells.
static METRICS: Mutex<()> = Mutex::new(());

/// Runs `cases` random grids; returns how many faulty cells a recorded
/// fault-free outcome served.
fn check_grids(cases: u32, name: &str) -> usize {
    let _serial = METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let cycles = metrics::counter("ftsim_sim_cycles_total", &[]);
    let mut served_faulty = 0;
    proptest::run_cases(&ProptestConfig::with_cases(cases), name, |rng| {
        let case = any_case().gen_value(rng);
        let reference = experiment(&case).run().unwrap();
        // A random subset of the grid's records, with a fault-free one.
        let recorded = &(case.2).1;
        let mut prior: Vec<RunRecord> = reference
            .iter()
            .enumerate()
            .filter(|&(idx, _)| recorded[idx % recorded.len()])
            .map(|(_, r)| r.clone())
            .collect();
        if !prior.iter().any(|r| r.fault_rate_pm == 0.0) {
            prior.push(reference[0].clone());
        }

        let plan = experiment(&case)
            .checkpointing(true)
            .resume_from(prior)
            .plan()
            .unwrap();
        // Baselines first, so a cell's own call simulates only its cell.
        for fi in 0..plan.family_count() {
            plan.prepare_family(fi);
        }
        let mut records = Vec::new();
        for idx in 0..plan.len() {
            let before = cycles.get();
            let (record, path, _) = plan.run_cell_observed(idx);
            if path == CellPath::Baseline {
                prop_assert_eq!(cycles.get(), before, "cell {} simulated", idx);
                served_faulty += usize::from(record.fault_rate_pm > 0.0);
            }
            records.push(record);
        }
        for (idx, (got, cold)) in records.iter().zip(&reference).enumerate() {
            prop_assert!(
                got == cold,
                "cell {} ({}) differs from its cold run",
                idx,
                cold.cell_label()
            );
        }
        prop_assert_eq!(to_csv(&records), to_csv(&reference));
        Ok(())
    });
    served_faulty
}

#[test]
fn served_resumes_match_cold_runs_on_random_grids() {
    let served = check_grids(6, "served_resumes_match_cold_runs_on_random_grids");
    assert!(served > 0, "no faulty cell was served");
}

/// The wide variant the CI fuzz job runs on a release build.
#[test]
#[ignore = "minutes in a debug build; run with --release -- --ignored"]
fn served_resumes_match_cold_runs_on_256_random_grids() {
    let served = check_grids(256, "served_resumes_match_cold_runs_on_256_random_grids");
    assert!(served > 0, "no faulty cell was served");
}
