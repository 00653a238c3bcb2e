//! The grid's coordinate system: a cell is its grid index.
//!
//! An [`Experiment`]'s cells are numbered workload-major, then model,
//! fault rate, site mix and budget, seed-minor. An index decodes by mixed
//! radix into its cell's axis positions, and a record maps back to the
//! cells it stands for through one lookup table per axis. The planner's
//! resume and the `ftsimd` record index both use this one mapping.

use crate::harness::experiment::{Experiment, ExperimentError};
use crate::harness::plan::FamilyId;
use crate::harness::record::RunRecord;
use std::collections::HashMap;
use std::hash::Hash;

/// The axis positions of one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cell {
    pub(crate) workload: usize,
    pub(crate) model: usize,
    pub(crate) rate: usize,
    pub(crate) mix: usize,
    pub(crate) budget: usize,
    pub(crate) seed: usize,
}

/// One axis's positions grouped by value, the groups numbered in order of
/// their first position. A repeated value gives a group several.
#[derive(Default)]
struct Axis<K> {
    group: HashMap<K, usize>,
    /// Per group: its value.
    values: Vec<K>,
    /// Per group: its positions, ascending.
    members: Vec<Vec<usize>>,
    /// Per position: its group.
    of: Vec<usize>,
}

impl<K: Hash + Eq + Clone + Default> Axis<K> {
    fn new(values: impl IntoIterator<Item = K>) -> Self {
        let mut axis = Self::default();
        for (pos, value) in values.into_iter().enumerate() {
            let next = axis.values.len();
            let g = *axis.group.entry(value.clone()).or_insert(next);
            if g == next {
                axis.values.push(value);
                axis.members.push(Vec::new());
            }
            axis.members[g].push(pos);
            axis.of.push(g);
        }
        axis
    }

    /// Per group, its positions by `qualifier`: the rest of an identity.
    fn split<Q: Hash + Eq>(&self, qualifier: impl Fn(usize) -> Q) -> Vec<HashMap<Q, Vec<usize>>> {
        let mut split: Vec<HashMap<Q, Vec<usize>>> =
            self.members.iter().map(|_| HashMap::new()).collect();
        for (pos, &g) in self.of.iter().enumerate() {
            split[g].entry(qualifier(pos)).or_default().push(pos);
        }
        split
    }
}

/// An experiment's grid, built at a cost in its axis lengths, not cells.
pub struct Grid {
    /// Axis lengths in grid order, outermost first.
    radix: [usize; 6],
    /// `0..` the longest axis, to list every position of an axis.
    every: Vec<usize>,
    /// The oracle mode's name, which every cell's record carries.
    oracle: &'static str,
    /// Workloads by name; per name, positions by suite.
    workloads: Axis<String>,
    suites: Vec<HashMap<String, Vec<usize>>>,
    /// Models by name; per name, positions by `(r, majority, threshold)`.
    models: Axis<String>,
    shapes: Vec<HashMap<(u8, bool, u8), Vec<usize>>>,
    /// Fault rates by bit pattern: `0.0` and `-0.0` differ.
    rates: Axis<u64>,
    mixes: Axis<String>,
    budgets: Axis<u64>,
    seeds: Axis<u64>,
}

impl Grid {
    /// Validates `exp` and builds its grid.
    ///
    /// # Errors
    ///
    /// [`ExperimentError`] when the grid is misconfigured, including one
    /// with more cells than a `usize` counts.
    pub fn new(exp: &Experiment) -> Result<Self, ExperimentError> {
        exp.validate()?;
        let radix = exp.axis_lengths();
        let workloads = Axis::new(exp.workloads.iter().map(|w| w.name().to_string()));
        let models = Axis::new(exp.models.iter().map(|m| m.name.clone()));
        Ok(Self {
            radix,
            every: (0..radix.into_iter().max().unwrap_or(0)).collect(),
            oracle: exp.oracle.name(),
            suites: workloads.split(|pos| exp.workloads[pos].suite().to_string()),
            shapes: models.split(|pos| {
                let shape = &exp.models[pos].redundancy;
                (shape.r, shape.majority, shape.threshold)
            }),
            workloads,
            models,
            rates: Axis::new(exp.fault_rates_pm.iter().map(|rate| rate.to_bits())),
            mixes: Axis::new(exp.site_mixes.iter().map(|mix| mix.name().to_string())),
            budgets: Axis::new(exp.budgets.iter().copied()),
            seeds: Axis::new(exp.seeds.iter().copied()),
        })
    }

    /// Cells in the grid ([`Experiment::cells`]).
    pub fn cells(&self) -> usize {
        self.radix.iter().product()
    }

    /// The cell at grid index `idx`.
    pub(crate) fn cell(&self, idx: usize) -> Cell {
        debug_assert!(idx < self.cells(), "cell {idx} of {}", self.cells());
        // Each axis's digit: the index over the product of the inner axes.
        let at =
            |axis: usize| idx / self.radix[axis + 1..].iter().product::<usize>() % self.radix[axis];
        Cell {
            workload: at(0),
            model: at(1),
            rate: at(2),
            mix: at(3),
            budget: at(4),
            seed: at(5),
        }
    }

    /// The grid indices of the cells `record` stands for, ascending: those
    /// whose identity [`RunRecord::same_identity`] matches. A repeated axis
    /// value gives several; a record of another grid or oracle mode, none.
    pub fn cells_of(&self, record: &RunRecord) -> impl Iterator<Item = usize> + '_ {
        self.product(self.positions_of(record).unwrap_or([&[]; 6]))
    }

    /// Per axis, the positions holding `record`'s value.
    fn positions_of(&self, r: &RunRecord) -> Option<[&[usize]; 6]> {
        if r.oracle != self.oracle {
            return None;
        }
        Some([
            self.suites[*self.workloads.group.get(&r.workload)?].get(&r.suite)?,
            self.shapes[*self.models.group.get(&r.model)?].get(&(r.r, r.majority, r.threshold))?,
            &self.rates.members[*self.rates.group.get(&r.fault_rate_pm.to_bits())?],
            &self.mixes.members[*self.mixes.group.get(&r.site_mix)?],
            &self.budgets.members[*self.budgets.group.get(&r.budget)?],
            &self.seeds.members[*self.seeds.group.get(&r.seed)?],
        ])
    }

    /// The grid index of every cell whose position on each axis is in
    /// that axis's list (each ascending), ascending.
    fn product<'a>(&'a self, lists: [&'a [usize]; 6]) -> impl ExactSizeIterator<Item = usize> + 'a {
        let count: usize = lists.iter().map(|list| list.len()).product();
        (0..count).map(move |mut k| {
            let (mut idx, mut scale) = (0, 1);
            for (list, len) in lists.iter().zip(self.radix).rev() {
                idx += list[k % list.len()] * scale;
                k /= list.len();
                scale *= len;
            }
            idx
        })
    }

    /// Number of families: the cells sharing a workload name, a model
    /// name and a budget form one.
    pub fn family_count(&self) -> usize {
        self.workloads.values.len() * self.models.values.len() * self.budgets.values.len()
    }

    /// The family of cell `idx`, numbered in order of first cell.
    pub fn family_of(&self, idx: usize) -> usize {
        let cell = self.cell(idx);
        (self.workloads.of[cell.workload] * self.models.values.len() + self.models.of[cell.model])
            * self.budgets.values.len()
            + self.budgets.of[cell.budget]
    }

    /// Family `f`'s workload, model and budget groups.
    fn family_groups(&self, f: usize) -> (usize, usize, usize) {
        let (models, budgets) = (self.models.values.len(), self.budgets.values.len());
        (f / (models * budgets), f / budgets % models, f % budgets)
    }

    /// Family `f`'s id.
    pub fn family(&self, f: usize) -> FamilyId {
        let (w, m, b) = self.family_groups(f);
        FamilyId {
            workload: self.workloads.values[w].clone(),
            budget: self.budgets.values[b],
            model: self.models.values[m].clone(),
        }
    }

    /// The (workload name, budget) program family `f` runs, numbered in
    /// grid order from 0; one program serves a family of each model.
    pub fn program_of(&self, f: usize) -> usize {
        let (w, _, b) = self.family_groups(f);
        w * self.budgets.values.len() + b
    }

    /// The families that run program `p` ([`Grid::program_of`]), one per
    /// model name, ascending.
    pub fn program_families(&self, p: usize) -> impl Iterator<Item = usize> {
        let (models, budgets) = (self.models.values.len(), self.budgets.values.len());
        let (w, b) = (p / budgets, p % budgets);
        (0..models).map(move |m| (w * models + m) * budgets + b)
    }

    /// Family `f`'s cells, ascending; its length is the family's size.
    pub fn family_cells(&self, f: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        let (w, m, b) = self.family_groups(f);
        let every = |axis: usize| &self.every[..self.radix[axis]];
        self.product([
            &self.workloads.members[w],
            &self.models.members[m],
            every(2),
            every(3),
            &self.budgets.members[b],
            every(5),
        ])
    }
}
