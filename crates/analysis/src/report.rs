//! The assembled analysis report: outcome summary, per-site sensitivity,
//! detection-latency distributions and MTTF extrapolation.

use crate::outcome::{classify, BaselineIndex, CellOutcome};
use crate::sensitivity::{SensitivityTable, Z_95};
use ftsim::harness::{Experiment, ExperimentError, RunRecord};
use ftsim_stats::{fmt_f, fmt_pct, wilson_interval, Histogram, JsonValue, Table};

/// Detection-latency distribution for one (model, site mix) group.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRow {
    /// Machine model name.
    pub model: String,
    /// Site-mix name.
    pub site_mix: String,
    /// Detection events summed over the group's cells.
    pub events: u64,
    /// Event-weighted mean injection→resolution latency in cycles.
    pub mean_cycles: f64,
    /// Event-weighted mean latency in retired instructions.
    pub mean_instructions: f64,
    /// Largest single detection latency in cycles.
    pub max_cycles: u64,
    /// Histogram of per-cell mean latencies (one sample per cell with at
    /// least one detection event), for percentile reporting.
    pub histogram: Histogram,
}

/// Per-(model, site mix) detection-latency report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyReport {
    /// Rows sorted by model then mix.
    pub rows: Vec<LatencyRow>,
}

impl LatencyReport {
    /// Builds the report from the records' detection-latency sums.
    pub fn build(records: &[RunRecord]) -> Self {
        let mut groups: Vec<(String, String, Vec<&RunRecord>)> = Vec::new();
        for r in records {
            if r.detect_events == 0 {
                continue;
            }
            match groups
                .iter_mut()
                .find(|(m, x, _)| *m == r.model && *x == r.site_mix)
            {
                Some((_, _, cells)) => cells.push(r),
                None => groups.push((r.model.clone(), r.site_mix.clone(), vec![r])),
            }
        }
        groups.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        let rows = groups
            .into_iter()
            .map(|(model, site_mix, cells)| {
                let events: u64 = cells.iter().map(|r| r.detect_events).sum();
                let cycles: u64 = cells.iter().map(|r| r.detect_latency_cycles).sum();
                let insts: u64 = cells.iter().map(|r| r.detect_latency_insts).sum();
                let max_cycles = cells
                    .iter()
                    .map(|r| r.detect_latency_max)
                    .max()
                    .unwrap_or(0);
                // One sample per cell: its mean detection latency, bucketed
                // into 16 equal-width bins spanning the observed maximum.
                let means: Vec<u64> = cells
                    .iter()
                    .map(|r| (r.detect_latency_cycles as f64 / r.detect_events as f64) as u64)
                    .collect();
                let top = means.iter().copied().max().unwrap_or(0);
                let mut histogram = Histogram::new((top / 16).max(1), 16);
                for m in means {
                    histogram.record(m);
                }
                LatencyRow {
                    model,
                    site_mix,
                    events,
                    mean_cycles: cycles as f64 / events as f64,
                    mean_instructions: insts as f64 / events as f64,
                    max_cycles,
                    histogram,
                }
            })
            .collect();
        Self { rows }
    }

    /// Renders the report as aligned text with p50/p90 of per-cell mean
    /// latencies.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "model",
            "mix",
            "events",
            "mean-cyc",
            "mean-inst",
            "p50",
            "p90",
            "max-cyc",
        ]);
        t.numeric();
        for row in &self.rows {
            t.row([
                row.model.clone(),
                row.site_mix.clone(),
                row.events.to_string(),
                fmt_f(row.mean_cycles, 1),
                fmt_f(row.mean_instructions, 1),
                fmt_f(row.histogram.percentile(50.0), 0),
                fmt_f(row.histogram.percentile(90.0), 0),
                row.max_cycles.to_string(),
            ]);
        }
        t.render()
    }
}

/// MTTF-style extrapolation for one (model, fault rate) coordinate.
#[derive(Debug, Clone, PartialEq)]
pub struct MttfRow {
    /// Machine model name.
    pub model: String,
    /// Fault rate in faults per million instructions.
    pub fault_rate_pm: f64,
    /// Cells aggregated (all site mixes, budgets and seeds at this
    /// coordinate).
    pub cells: u64,
    /// Cells classified [`CellOutcome::Sdc`].
    pub sdc_cells: u64,
    /// Cells classified [`CellOutcome::Hang`].
    pub hang_cells: u64,
    /// Total instructions retired by successful cells.
    pub retired_total: u64,
    /// Total cycles elapsed in successful cells.
    pub cycles_total: u64,
    /// Total escaped faults across the coordinate's cells.
    pub escaped_total: u64,
}

impl MttfRow {
    /// Probability that a cell at this coordinate ends in silent data
    /// corruption, with its Wilson 95% interval.
    pub fn p_sdc(&self) -> (f64, (f64, f64)) {
        let p = if self.cells == 0 {
            0.0
        } else {
            self.sdc_cells as f64 / self.cells as f64
        };
        (p, wilson_interval(self.sdc_cells, self.cells, Z_95))
    }

    /// Mean retired instructions between escaped faults — the workload's
    /// MTTF in instructions at this fault rate, extrapolated from the
    /// observed escape rate. `None` when nothing escaped (MTTF beyond
    /// the observed horizon).
    pub fn mttf_instructions(&self) -> Option<f64> {
        (self.escaped_total > 0).then(|| self.retired_total as f64 / self.escaped_total as f64)
    }

    /// Mean cycles between escaped faults; `None` when nothing escaped.
    pub fn mttf_cycles(&self) -> Option<f64> {
        (self.escaped_total > 0).then(|| self.cycles_total as f64 / self.escaped_total as f64)
    }
}

/// The MTTF table over every (model, fault rate) coordinate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MttfTable {
    /// Rows sorted by model then rate.
    pub rows: Vec<MttfRow>,
}

impl MttfTable {
    /// Builds the table, classifying each record against `baselines`.
    pub fn build(records: &[RunRecord], baselines: &BaselineIndex) -> Self {
        let mut rows: Vec<MttfRow> = Vec::new();
        for r in records {
            if r.fault_rate_pm == 0.0 {
                continue; // the fault-free axis extrapolates nothing
            }
            let outcome = classify(r, baselines);
            let row = match rows.iter_mut().find(|x| {
                x.model == r.model && x.fault_rate_pm.to_bits() == r.fault_rate_pm.to_bits()
            }) {
                Some(row) => row,
                None => {
                    rows.push(MttfRow {
                        model: r.model.clone(),
                        fault_rate_pm: r.fault_rate_pm,
                        cells: 0,
                        sdc_cells: 0,
                        hang_cells: 0,
                        retired_total: 0,
                        cycles_total: 0,
                        escaped_total: 0,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.cells += 1;
            match outcome {
                CellOutcome::Sdc => row.sdc_cells += 1,
                CellOutcome::Hang => row.hang_cells += 1,
                _ => {}
            }
            if r.ok() {
                row.retired_total += r.retired_instructions;
                row.cycles_total += r.cycles;
                row.escaped_total += r.faults_escaped;
            }
        }
        rows.sort_by(|a, b| {
            (&a.model, a.fault_rate_pm)
                .partial_cmp(&(&b.model, b.fault_rate_pm))
                .expect("rates are finite")
        });
        Self { rows }
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut t = Table::new([
            "model",
            "rate/M",
            "cells",
            "sdc",
            "hang",
            "P(sdc)",
            "ci95",
            "mttf-inst",
            "mttf-cyc",
        ]);
        t.numeric();
        for row in &self.rows {
            let (p, (lo, hi)) = row.p_sdc();
            let mttf = |v: Option<f64>| v.map_or("inf".to_string(), |x| fmt_f(x, 0));
            t.row([
                row.model.clone(),
                fmt_f(row.fault_rate_pm, 0),
                row.cells.to_string(),
                row.sdc_cells.to_string(),
                row.hang_cells.to_string(),
                fmt_pct(p),
                format!("[{},{}]", fmt_f(lo, 3), fmt_f(hi, 3)),
                mttf(row.mttf_instructions()),
                mttf(row.mttf_cycles()),
            ]);
        }
        t.render()
    }
}

/// The complete analysis of one record set.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// Number of records analyzed.
    pub cells: usize,
    /// Each cell's outcome, in record order.
    pub outcomes: Vec<CellOutcome>,
    /// Per-site sensitivity table.
    pub sensitivity: SensitivityTable,
    /// Detection-latency distributions.
    pub latency: LatencyReport,
    /// MTTF extrapolation per model × fault rate.
    pub mttf: MttfTable,
}

impl AnalysisReport {
    /// How many cells landed in `outcome`.
    pub fn outcome_count(&self, outcome: CellOutcome) -> usize {
        self.outcomes.iter().filter(|o| **o == outcome).count()
    }

    /// Renders the full report as text: outcome summary, sensitivity,
    /// latency and MTTF sections.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# outcome summary ({} cells)\n", self.cells));
        for o in CellOutcome::ALL {
            let n = self.outcome_count(o);
            if n > 0 {
                out.push_str(&format!("{:<11} {n}\n", o.label()));
            }
        }
        out.push_str("\n# per-site sensitivity\n");
        out.push_str(&self.sensitivity.render());
        out.push_str("\n# detection latency\n");
        out.push_str(&self.latency.render());
        out.push_str("\n# mttf extrapolation\n");
        out.push_str(&self.mttf.render());
        out
    }

    /// Renders the report as a JSON document — the machine-readable
    /// twin of [`AnalysisReport::render`], served by the daemon's
    /// `GET /jobs/<id>/report` endpoint. Same sections: outcome counts
    /// by label, sensitivity rows, latency rows, MTTF rows.
    pub fn to_json(&self) -> String {
        self.to_json_value().render_pretty(2)
    }

    /// The report as a JSON value, for embedding in a larger document
    /// (the daemon's `report --watch` snapshots); [`AnalysisReport::to_json`]
    /// is its pretty rendering.
    pub fn to_json_value(&self) -> JsonValue {
        let s = |v: &str| JsonValue::Str(v.to_string());
        let outcomes = JsonValue::Obj(
            CellOutcome::ALL
                .into_iter()
                .map(|o| {
                    (
                        o.label().to_string(),
                        JsonValue::U64(self.outcome_count(o) as u64),
                    )
                })
                .collect(),
        );
        let sensitivity = JsonValue::Arr(
            self.sensitivity
                .rows
                .iter()
                .map(|row| {
                    let (lo, hi) = row.p_escaped_interval();
                    JsonValue::obj([
                        ("model".to_string(), s(&row.model)),
                        ("site_mix".to_string(), s(&row.site_mix)),
                        ("site".to_string(), s(row.point.code())),
                        ("injected".to_string(), JsonValue::U64(row.counts.injected)),
                        ("detected".to_string(), JsonValue::U64(row.counts.detected)),
                        ("outvoted".to_string(), JsonValue::U64(row.counts.outvoted)),
                        ("masked".to_string(), JsonValue::U64(row.counts.masked)),
                        (
                            "squashed".to_string(),
                            JsonValue::U64(
                                row.counts.squashed_wrong_path + row.counts.squashed_by_rewind,
                            ),
                        ),
                        ("escaped".to_string(), JsonValue::U64(row.counts.escaped)),
                        ("p_caught".to_string(), JsonValue::F64(row.p_caught())),
                        ("p_escaped".to_string(), JsonValue::F64(row.p_escaped())),
                        (
                            "p_escaped_ci95".to_string(),
                            JsonValue::Arr(vec![JsonValue::F64(lo), JsonValue::F64(hi)]),
                        ),
                    ])
                })
                .collect(),
        );
        let latency = JsonValue::Arr(
            self.latency
                .rows
                .iter()
                .map(|row| {
                    JsonValue::obj([
                        ("model".to_string(), s(&row.model)),
                        ("site_mix".to_string(), s(&row.site_mix)),
                        ("events".to_string(), JsonValue::U64(row.events)),
                        ("mean_cycles".to_string(), JsonValue::F64(row.mean_cycles)),
                        (
                            "mean_instructions".to_string(),
                            JsonValue::F64(row.mean_instructions),
                        ),
                        (
                            "p50_cycles".to_string(),
                            JsonValue::F64(row.histogram.percentile(50.0)),
                        ),
                        (
                            "p90_cycles".to_string(),
                            JsonValue::F64(row.histogram.percentile(90.0)),
                        ),
                        ("max_cycles".to_string(), JsonValue::U64(row.max_cycles)),
                    ])
                })
                .collect(),
        );
        let mttf = JsonValue::Arr(
            self.mttf
                .rows
                .iter()
                .map(|row| {
                    let (p, (lo, hi)) = row.p_sdc();
                    let opt = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::F64);
                    JsonValue::obj([
                        ("model".to_string(), s(&row.model)),
                        (
                            "fault_rate_pm".to_string(),
                            JsonValue::F64(row.fault_rate_pm),
                        ),
                        ("cells".to_string(), JsonValue::U64(row.cells)),
                        ("sdc_cells".to_string(), JsonValue::U64(row.sdc_cells)),
                        ("hang_cells".to_string(), JsonValue::U64(row.hang_cells)),
                        ("p_sdc".to_string(), JsonValue::F64(p)),
                        (
                            "p_sdc_ci95".to_string(),
                            JsonValue::Arr(vec![JsonValue::F64(lo), JsonValue::F64(hi)]),
                        ),
                        (
                            "mttf_instructions".to_string(),
                            opt(row.mttf_instructions()),
                        ),
                        ("mttf_cycles".to_string(), opt(row.mttf_cycles())),
                    ])
                })
                .collect(),
        );
        JsonValue::obj([
            ("cells".to_string(), JsonValue::U64(self.cells as u64)),
            ("outcomes".to_string(), outcomes),
            ("sensitivity".to_string(), sensitivity),
            ("latency".to_string(), latency),
            ("mttf".to_string(), mttf),
        ])
    }
}

/// Analyzes a record set: classifies every cell against its family's
/// fault-free baseline and assembles the sensitivity, latency and MTTF
/// tables.
///
/// The function is pure in the records — the same records (in any
/// serialization, from a one-shot grid or a daemon job) produce the same
/// report, which is what makes `ftsimd report` and
/// [`Analyze::analyze`] interchangeable.
pub fn analyze_records(records: &[RunRecord]) -> AnalysisReport {
    let baselines = BaselineIndex::build(records);
    AnalysisReport {
        cells: records.len(),
        outcomes: records.iter().map(|r| classify(r, &baselines)).collect(),
        sensitivity: SensitivityTable::build(records),
        latency: LatencyReport::build(records),
        mttf: MttfTable::build(records, &baselines),
    }
}

/// Extension trait wiring the analysis layer into the experiment
/// harness: `experiment.analyze()` runs the grid and reports on it.
pub trait Analyze {
    /// Runs the grid and analyzes its records.
    ///
    /// # Errors
    ///
    /// [`ExperimentError`] when the grid is misconfigured.
    fn analyze(self) -> Result<AnalysisReport, ExperimentError>;
}

impl Analyze for Experiment {
    fn analyze(self) -> Result<AnalysisReport, ExperimentError> {
        Ok(analyze_records(&self.run()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faulty(model: &str, rate: f64, escaped: u64, detected: u64) -> RunRecord {
        RunRecord {
            workload: "gcc".to_string(),
            model: model.to_string(),
            budget: 1_000,
            fault_rate_pm: rate,
            site_mix: "uniform".to_string(),
            retired_instructions: 1_000,
            cycles: 3_000,
            state_digest: if escaped > 0 { 0xbad } else { 0xaaa },
            faults_injected: escaped + detected,
            faults_escaped: escaped,
            faults_detected: detected,
            detect_events: detected,
            detect_latency_cycles: detected * 40,
            detect_latency_insts: detected * 12,
            detect_latency_max: if detected > 0 { 55 } else { 0 },
            ..RunRecord::default()
        }
    }

    fn baseline(model: &str) -> RunRecord {
        RunRecord {
            workload: "gcc".to_string(),
            model: model.to_string(),
            budget: 1_000,
            site_mix: "uniform".to_string(),
            retired_instructions: 1_000,
            cycles: 2_500,
            state_digest: 0xaaa,
            ..RunRecord::default()
        }
    }

    #[test]
    fn report_assembles_all_sections() {
        let records = vec![
            baseline("SS-1"),
            faulty("SS-1", 100.0, 1, 0),
            faulty("SS-1", 100.0, 0, 2),
            faulty("SS-1", 2_000.0, 2, 1),
        ];
        let report = analyze_records(&records);
        assert_eq!(report.cells, 4);
        assert_eq!(report.outcome_count(CellOutcome::FaultFree), 1);
        assert_eq!(report.outcome_count(CellOutcome::Sdc), 2);
        assert_eq!(report.outcome_count(CellOutcome::Detected), 1);

        assert_eq!(report.mttf.rows.len(), 2);
        let low = &report.mttf.rows[0];
        assert_eq!(low.fault_rate_pm, 100.0);
        assert_eq!(low.cells, 2);
        assert_eq!(low.sdc_cells, 1);
        assert_eq!(low.escaped_total, 1);
        assert_eq!(low.mttf_instructions(), Some(2_000.0));
        assert_eq!(low.mttf_cycles(), Some(6_000.0));
        let (p, (lo, hi)) = low.p_sdc();
        assert_eq!(p, 0.5);
        assert!(lo < 0.5 && hi > 0.5);

        assert_eq!(report.latency.rows.len(), 1);
        let lat = &report.latency.rows[0];
        assert_eq!(lat.events, 3);
        assert!((lat.mean_cycles - 40.0).abs() < 1e-9);
        assert!((lat.mean_instructions - 12.0).abs() < 1e-9);
        assert_eq!(lat.max_cycles, 55);

        let text = report.render();
        for section in [
            "# outcome summary",
            "# per-site sensitivity",
            "# detection latency",
            "# mttf extrapolation",
        ] {
            assert!(text.contains(section), "missing {section}");
        }
        assert!(text.contains("sdc"));
        assert!(text.contains("inf") || text.contains("mttf"));
    }

    #[test]
    fn report_json_parses_and_carries_the_sections() {
        let records = vec![
            baseline("SS-1"),
            faulty("SS-1", 100.0, 1, 0),
            faulty("SS-1", 2_000.0, 2, 1),
        ];
        let report = analyze_records(&records);
        let doc = ftsim_stats::JsonValue::parse(&report.to_json()).unwrap();
        assert_eq!(doc.get("cells").and_then(|v| v.as_u64()), Some(3));
        let outcomes = doc.get("outcomes").unwrap();
        assert_eq!(
            outcomes
                .get(CellOutcome::Sdc.label())
                .and_then(|v| v.as_u64()),
            Some(2)
        );
        assert_eq!(
            doc.get("mttf").and_then(|v| v.as_arr()).map(|a| a.len()),
            Some(2)
        );
        let row = &doc.get("mttf").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            row.get("fault_rate_pm").and_then(|v| v.as_f64()),
            Some(100.0)
        );
        assert!(doc.get("latency").unwrap().as_arr().is_some());
        assert!(doc.get("sensitivity").unwrap().as_arr().is_some());
    }

    #[test]
    fn mttf_with_no_escapes_is_unbounded() {
        let records = vec![baseline("SS-2"), faulty("SS-2", 500.0, 0, 3)];
        let report = analyze_records(&records);
        let row = &report.mttf.rows[0];
        assert_eq!(row.escaped_total, 0);
        assert_eq!(row.mttf_instructions(), None);
        assert!(report.mttf.render().contains("inf"));
    }

    #[test]
    fn analysis_is_a_pure_function_of_the_records() {
        let records = vec![baseline("SS-1"), faulty("SS-1", 100.0, 1, 1)];
        assert_eq!(analyze_records(&records), analyze_records(&records));
    }
}
