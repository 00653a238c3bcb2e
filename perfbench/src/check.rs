//! The output check: records against the reference outputs recorded with
//! `--bless` on the commit that defined the benchmark.
//!
//! Per input set the reference holds a digest of the canonical CSV in
//! grid order, one digest per cell (grid order gives each cell its
//! identity), and per machine model the simulated totals: cells, cycles
//! and retired instructions (IPC = retired / cycles). A speed change must
//! leave all of them equal.

use crate::grid::{Workload, NAMES, SEED_CLASSES};
use ftsim::harness::{to_csv, RunRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn cell_digest(r: &RunRecord) -> u32 {
    let h = fnv1a(r.to_csv_row().as_bytes());
    (h ^ (h >> 32)) as u32
}

/// Simulated totals of one machine model: cells, cycles, retired.
type Totals = BTreeMap<String, (u64, u64, u64)>;

fn totals(records: &[RunRecord]) -> Totals {
    let mut t = Totals::new();
    for r in records {
        let e = t.entry(r.model.clone()).or_default();
        e.0 += 1;
        e.1 += r.cycles;
        e.2 += r.retired_instructions;
    }
    t
}

/// Reference outputs of one workload on one input set.
#[derive(Debug, PartialEq)]
pub struct Reference {
    csv: u64,
    cells: Vec<u32>,
    totals: Totals,
}

/// The checked-in references, one file per workload.
fn reference_text(workload: &str) -> &'static str {
    match workload {
        "paper_sweep" => include_str!("../reference/paper_sweep.txt"),
        "short_cells" => include_str!("../reference/short_cells.txt"),
        "fabric_resume" => include_str!("../reference/fabric_resume.txt"),
        _ => "",
    }
}

impl Reference {
    /// The reference a record set would have.
    pub fn of(records: &[RunRecord]) -> Self {
        Self {
            csv: fnv1a(to_csv(records).as_bytes()),
            cells: records.iter().map(cell_digest).collect(),
            totals: totals(records),
        }
    }

    /// Loads the checked-in reference of `workload` on input set `class`.
    pub fn load(workload: &str, class: u64) -> Result<Self, String> {
        let mut found = false;
        let mut out = Self {
            csv: 0,
            cells: Vec::new(),
            totals: Totals::new(),
        };
        let bad = |line: &str| format!("malformed reference line for {workload}: {line}");
        for line in reference_text(workload).lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() < 2 || f[0].starts_with('#') || f[1].parse::<u64>() != Ok(class) {
                continue;
            }
            let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad(line));
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad(line));
            match (f[0], f.len()) {
                ("class", 4) => {
                    found = true;
                    out.cells.reserve(num(f[2])? as usize);
                    out.csv = hex(f[3])?;
                }
                ("total", 10) => {
                    out.totals
                        .insert(f[2].to_string(), (num(f[3])?, num(f[5])?, num(f[7])?));
                }
                ("cells", _) => {
                    for d in &f[2..] {
                        out.cells.push(hex(d)? as u32);
                    }
                }
                _ => return Err(bad(line)),
            }
        }
        if !found {
            return Err(format!(
                "no reference for {workload} input set {class}; record one with --bless"
            ));
        }
        Ok(out)
    }

    /// Number of cells the reference covers.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Grid indices of cells whose record is missing or differs from the
    /// reference. With all cells equal, a differing CSV digest or total
    /// (header or order change) fails every cell.
    pub fn failed_cells(&self, records: &[RunRecord]) -> Vec<usize> {
        let mut failed: Vec<usize> = (0..self.cells.len())
            .filter(|&i| records.get(i).map(cell_digest) != Some(self.cells[i]))
            .collect();
        if failed.is_empty() && *self != Self::of(records) {
            failed = (0..self.cells.len()).collect();
        }
        failed
    }

    fn render(&self, class: u64, out: &mut String) {
        let _ = writeln!(out, "class {class} {} {:016x}", self.cells.len(), self.csv);
        for (model, (cells, cycles, retired)) in &self.totals {
            let _ = writeln!(
                out,
                "total {class} {model} {cells} cycles {cycles} retired {retired} ipc {:.6}",
                *retired as f64 / (*cycles).max(1) as f64
            );
        }
        for chunk in self.cells.chunks(12) {
            let digests: Vec<String> = chunk.iter().map(|d| format!("{d:08x}")).collect();
            let _ = writeln!(out, "cells {class} {}", digests.join(" "));
        }
    }
}

/// Re-records every workload's reference from one-shot runs of the code
/// as built, one input set at a time, into `reference/` beside this
/// package's manifest. Only for a deliberate change of simulated results.
pub fn bless() -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");
    for name in NAMES {
        let mut text = format!(
            "# Reference outputs of `{name}` per input set (seed % {SEED_CLASSES}), \
             recorded with --bless.\n\
             # class <set> <cells> <csv digest>; total <set> <model> <cells> cycles retired ipc; \
             cells <set> <per-cell digests in grid order>\n"
        );
        for class in 0..SEED_CLASSES {
            let w = Workload::new(name, class).expect("listed workloads exist");
            let records = w.experiment().run().map_err(|e| format!("{name}: {e}"))?;
            eprintln!(
                "bless: {name} input set {class}: {} cells, {} not ok",
                records.len(),
                records.iter().filter(|r| !r.ok()).count()
            );
            Reference::of(&records).render(class, &mut text);
        }
        std::fs::write(dir.join(format!("{name}.txt")), text)
            .map_err(|e| format!("writing the {name} reference: {e}"))?;
    }
    Ok(())
}
