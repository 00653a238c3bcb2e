//! The grid's record→cell lookup agrees with `RunRecord::same_identity`,
//! and its families with grouping records by `FamilyId`, on random grids.
//!
//! The grids repeat axis values, hold both `0.0` and `-0.0` as fault
//! rates, and give several models one name with different redundancy
//! shapes, and several workloads one name with different suites. Nothing
//! is simulated: only identities are compared.

use ftsim::harness::{Experiment, FamilyId, Grid, RunRecord, Workload};
use ftsim_core::{MachineConfig, OracleMode, RedundancyConfig};
use ftsim_faults::SiteMix;
use proptest::prelude::*;

fn workload(i: usize) -> Workload {
    let tiny = || ftsim_isa::asm::assemble("addi r1, r0, 7\nhalt\n").unwrap();
    match i {
        0 => ftsim_workloads::profile("gcc").unwrap().into(),
        // An ad-hoc program under a profile's name: same name, no suite.
        1 => ("gcc", tiny()).into(),
        2 => ("tiny", tiny()).into(),
        _ => ftsim_workloads::profile("go").unwrap().into(),
    }
}

fn model(i: usize) -> MachineConfig {
    let shaped = |r, majority, threshold| MachineConfig {
        redundancy: RedundancyConfig {
            r,
            majority,
            threshold,
        },
        ..MachineConfig::ss1().named("M")
    };
    match i {
        0 => shaped(2, false, 2),
        1 => shaped(3, true, 2),
        2 => shaped(3, true, 3),
        3 => shaped(3, false, 2),
        _ => MachineConfig::ss1(),
    }
}

const RATES: [f64; 4] = [0.0, -0.0, 100.0, 1e6];
const MIXES: [&str; 3] = ["uniform", "addr-heavy", "control-only"];
const BUDGETS: [u64; 3] = [1_000, 2_000, 3_000];
const SEEDS: [u64; 3] = [0, 1, 2];

/// Axis choices, as indices into the option lists above: workloads,
/// models, rates, mixes, budgets, seeds, and the oracle mode.
type Axes = (
    Vec<usize>,
    Vec<usize>,
    Vec<usize>,
    Vec<usize>,
    Vec<usize>,
    Vec<usize>,
    usize,
);

fn any_axes() -> impl Strategy<Value = Axes> {
    let axis = |n: usize| prop::collection::vec(0..n, 1..4);
    (
        (axis(4), axis(5), axis(RATES.len())),
        (axis(MIXES.len()), axis(BUDGETS.len()), axis(SEEDS.len())),
        0usize..2,
    )
        .prop_map(|((w, m, r), (x, b, s), o)| (w, m, r, x, b, s, o))
}

fn experiment((w, m, r, x, b, s, o): &Axes) -> Experiment {
    Experiment::grid()
        .workloads(w.iter().map(|&i| workload(i)))
        .models(m.iter().map(|&i| model(i)))
        .fault_rates(r.iter().map(|&i| RATES[i]))
        .site_mixes(x.iter().map(|&i| SiteMix::preset(MIXES[i]).unwrap()))
        .budgets(b.iter().map(|&i| BUDGETS[i]))
        .seeds(s.iter().map(|&i| SEEDS[i]))
        .oracle([OracleMode::Off, OracleMode::Final][*o])
}

/// The identity half of every cell's record, in grid order.
fn identities(exp: &Experiment) -> Vec<RunRecord> {
    let plan = exp.clone().plan().unwrap();
    (0..plan.len()).map(|idx| plan.identity(idx)).collect()
}

/// The cells of `ids` that `record` stands for, by the reference
/// definition.
fn reference(ids: &[RunRecord], record: &RunRecord) -> Vec<usize> {
    (0..ids.len())
        .filter(|&j| ids[j].same_identity(record))
        .collect()
}

/// `record` changed in one identity field at a time, each to a value no
/// grid here holds.
fn perturbed(record: &RunRecord) -> Vec<RunRecord> {
    let mut out = vec![record.clone(); 4];
    out[0].suite = "no-such-suite".to_string();
    out[1].oracle = if record.oracle == "off" {
        "final"
    } else {
        "off"
    }
    .to_string();
    out[2].site_mix = "no-such-mix".to_string();
    out[3].threshold = 9;
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lookup_agrees_with_same_identity(axes in any_axes(), other in any_axes()) {
        let exp = experiment(&axes);
        let grid = Grid::new(&exp).unwrap();
        let ids = identities(&exp);
        prop_assert_eq!(grid.cells(), ids.len());
        prop_assert_eq!(grid.cells(), exp.cells());

        for (idx, id) in ids.iter().enumerate() {
            let cells: Vec<usize> = grid.cells_of(id).collect();
            prop_assert!(cells.contains(&idx), "cell {} not found from its identity", idx);
            prop_assert_eq!(&cells, &reference(&ids, id), "cell {}", idx);
            for p in perturbed(id) {
                prop_assert!(reference(&ids, &p).is_empty());
                prop_assert_eq!(grid.cells_of(&p).count(), 0, "{:?}", p.cell_label());
            }
        }
        // Records of another random grid, which share some axis values.
        for id in identities(&experiment(&other)) {
            let cells: Vec<usize> = grid.cells_of(&id).collect();
            prop_assert_eq!(&cells, &reference(&ids, &id), "{}", id.cell_label());
        }

        // Families: identities grouped by `FamilyId`, in first-cell order.
        let mut families: Vec<(FamilyId, Vec<usize>)> = Vec::new();
        for (idx, id) in ids.iter().enumerate() {
            let family = FamilyId {
                workload: id.workload.clone(),
                budget: id.budget,
                model: id.model.clone(),
            };
            match families.iter_mut().find(|(f, _)| *f == family) {
                Some((_, members)) => members.push(idx),
                None => families.push((family, vec![idx])),
            }
        }
        prop_assert_eq!(grid.family_count(), families.len());
        for (f, (family, members)) in families.iter().enumerate() {
            prop_assert_eq!(&grid.family(f), family);
            prop_assert_eq!(&grid.family_cells(f).collect::<Vec<_>>(), members);
            prop_assert_eq!(grid.family_cells(f).len(), members.len());
            for &idx in members {
                prop_assert_eq!(grid.family_of(idx), f);
            }
        }
    }
}
