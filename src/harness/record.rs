//! The flat, serializable result of one experiment cell.

use ftsim_core::SimResult;
use ftsim_isa::MixClass;
use ftsim_stats::{csv, json, JsonValue};
use std::fmt::{self, Write as _};

/// Record (de)serialization failure.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordError {
    /// The CSV header row does not match [`RunRecord::csv_header`].
    HeaderMismatch {
        /// The offending header row.
        found: String,
    },
    /// A row has the wrong number of cells.
    WrongWidth {
        /// Cells found.
        found: usize,
        /// Cells expected.
        expected: usize,
    },
    /// A cell or JSON field failed to convert.
    BadField {
        /// Field name.
        field: &'static str,
        /// Conversion failure message.
        message: String,
    },
    /// The JSON document has the wrong shape.
    BadDocument(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::HeaderMismatch { found } => {
                write!(f, "CSV header mismatch: got `{found}`")
            }
            RecordError::WrongWidth { found, expected } => {
                write!(f, "row has {found} cells, expected {expected}")
            }
            RecordError::BadField { field, message } => {
                write!(f, "field `{field}`: {message}")
            }
            RecordError::BadDocument(msg) => write!(f, "bad document: {msg}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// A field that can cross the CSV/JSON boundary losslessly.
///
/// A field's CSV cell is its `Display` text, quoted where needed; the
/// writers append it (and the JSON value) straight into the output.
trait Field: Sized + fmt::Display {
    /// Appends this field's CSV cell.
    fn write_cell(&self, out: &mut String) {
        // Numbers and booleans never need quoting.
        let _ = write!(out, "{self}");
    }
    fn from_cell(cell: &str) -> Result<Self, String>;
    /// Appends this field as [`Field::to_json`] renders.
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn to_json(&self) -> JsonValue;
    fn from_json(v: &JsonValue) -> Result<Self, String>;
}

impl Field for String {
    fn write_cell(&self, out: &mut String) {
        csv::push_escaped(out, self);
    }
    fn from_cell(cell: &str) -> Result<Self, String> {
        Ok(cell.to_string())
    }
    fn write_json(&self, out: &mut String) {
        json::write_str(out, self);
    }
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("expected string, got {v}"))
    }
}

impl Field for bool {
    fn from_cell(cell: &str) -> Result<Self, String> {
        cell.parse().map_err(|_| format!("bad bool `{cell}`"))
    }
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| format!("expected bool, got {v}"))
    }
}

impl Field for u8 {
    fn from_cell(cell: &str) -> Result<Self, String> {
        cell.parse().map_err(|_| format!("bad u8 `{cell}`"))
    }
    fn to_json(&self) -> JsonValue {
        JsonValue::U64(u64::from(*self))
    }
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        v.as_u64()
            .and_then(|x| u8::try_from(x).ok())
            .ok_or_else(|| format!("expected u8, got {v}"))
    }
}

impl Field for u64 {
    fn from_cell(cell: &str) -> Result<Self, String> {
        cell.parse().map_err(|_| format!("bad u64 `{cell}`"))
    }
    fn to_json(&self) -> JsonValue {
        JsonValue::U64(*self)
    }
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        v.as_u64().ok_or_else(|| format!("expected u64, got {v}"))
    }
}

impl Field for f64 {
    // `Display` on f64 is the shortest text that parses back to the
    // identical bits.
    fn from_cell(cell: &str) -> Result<Self, String> {
        cell.parse().map_err(|_| format!("bad f64 `{cell}`"))
    }
    fn write_json(&self, out: &mut String) {
        json::write_f64(out, *self);
    }
    fn to_json(&self) -> JsonValue {
        JsonValue::F64(*self)
    }
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        // The writer renders non-finite floats as `null` (JSON has no
        // NaN/inf literal); accept it back so round trips never fail.
        if matches!(v, JsonValue::Null) {
            return Ok(f64::NAN);
        }
        v.as_f64()
            .ok_or_else(|| format!("expected number, got {v}"))
    }
}

/// One experiment cell's complete result as a flat row.
///
/// Every field is a scalar so records export losslessly to CSV and JSON
/// and parse back; [`PartialEq`] compares bit-exactly (floats are
/// serialized with shortest-round-trip formatting).
///
/// A failed cell (machine wedged, cycle budget overrun — legitimately
/// possible at extreme fault rates, §2.2) is still a record: [`RunRecord::ok`]
/// is `false`, [`RunRecord::error`] carries the message, and the
/// performance fields are zero.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// Workload (benchmark) name.
    pub workload: String,
    /// Workload suite (e.g. `SPEC95 INT`), empty for ad-hoc programs.
    pub suite: String,
    /// Machine model name (e.g. `SS-2`).
    pub model: String,
    /// Redundancy degree `R`.
    pub r: u8,
    /// Whether commit-time disagreements are resolved by majority election.
    pub majority: bool,
    /// Copies that must agree for acceptance.
    pub threshold: u8,
    /// Injected fault rate in faults per million instructions.
    pub fault_rate_pm: f64,
    /// Fault-site mix name (a [`ftsim_faults::SiteMix`] preset such as
    /// `uniform` or `addr-heavy`) — part of the cell's identity.
    pub site_mix: String,
    /// Fault-injector seed for this cell.
    pub seed: u64,
    /// Committed-instruction budget for this cell.
    pub budget: u64,
    /// Oracle mode the cell ran under ([`ftsim_core::OracleMode::name`]:
    /// `off` or `final`) — part of the cell's identity, because a record
    /// produced without oracle verification must not satisfy a resumed
    /// grid that demands it.
    pub oracle: String,
    /// Error message for a failed cell; empty on success.
    pub error: String,
    /// Whether `halt` committed (false when the budget stopped the run).
    pub halted: bool,
    /// Elapsed cycles.
    pub cycles: u64,
    /// Committed architectural instructions.
    pub retired_instructions: u64,
    /// Committed architectural instructions per cycle.
    pub ipc: f64,
    /// Conditional branches committed.
    pub branches: u64,
    /// Mispredicted conditional branches.
    pub branch_mispredicts: u64,
    /// Branch-rewind (selective squash) events.
    pub branch_rewinds: u64,
    /// Full rewinds triggered by commit-stage fault detection.
    pub fault_rewinds: u64,
    /// Full rewinds triggered by the committed-PC control-flow check.
    pub pc_check_rewinds: u64,
    /// Majority elections that out-voted a corrupted copy.
    pub majority_elections: u64,
    /// Mean observed full-rewind penalty in cycles (the paper's `W`).
    pub mean_rewind_penalty: f64,
    /// Maximum observed single-rewind penalty in cycles.
    pub rewind_penalty_max: u64,
    /// Faults injected.
    pub faults_injected: u64,
    /// Faults detected at commit.
    pub faults_detected: u64,
    /// Faults out-voted by majority election.
    pub faults_outvoted: u64,
    /// Faults architecturally masked.
    pub faults_masked: u64,
    /// Faults squashed on the wrong path.
    pub faults_squashed_wrong_path: u64,
    /// Faults flushed by an unrelated rewind.
    pub faults_squashed_by_rewind: u64,
    /// Faults that escaped to committed state.
    pub faults_escaped: u64,
    /// Faults still unresolved at run end (0 for a drained run).
    pub faults_pending: u64,
    /// Dispatched RUU entries (including squashed ones).
    pub dispatched_entries: u64,
    /// Committed RUU entries (= instructions × R).
    pub retired_entries: u64,
    /// Dispatch stall cycles with a full RUU.
    pub dispatch_stalls_ruu: u64,
    /// Dispatch stall cycles with a full LSQ.
    pub dispatch_stalls_lsq: u64,
    /// Mean RUU occupancy per cycle.
    pub mean_ruu_occupancy: f64,
    /// Loads satisfied by store-to-load forwarding.
    pub load_forwards: u64,
    /// L1 instruction cache miss rate.
    pub il1_miss_rate: f64,
    /// L1 data cache miss rate.
    pub dl1_miss_rate: f64,
    /// Unified L2 miss rate.
    pub l2_miss_rate: f64,
    /// Committed dynamic-mix fraction: loads and stores.
    pub mix_mem: f64,
    /// Committed dynamic-mix fraction: integer (incl. branches).
    pub mix_int: f64,
    /// Committed dynamic-mix fraction: FP add class.
    pub mix_fp_add: f64,
    /// Committed dynamic-mix fraction: FP multiplies.
    pub mix_fp_mul: f64,
    /// Committed dynamic-mix fraction: FP divides.
    pub mix_fp_div: f64,
    /// FNV-1a digest of the final committed architectural state
    /// (registers, committed next-PC, halt flag, memory contents). At
    /// equal `retired_instructions`, a digest differing from the
    /// family's fault-free baseline means escaped faults silently
    /// corrupted committed state (SDC).
    pub state_digest: u64,
    /// Detection events measured (faults detected or out-voted at
    /// commit).
    pub detect_events: u64,
    /// Sum of injection→resolution detection latencies, in cycles.
    pub detect_latency_cycles: u64,
    /// Sum of injection→resolution detection latencies, in retired
    /// instructions.
    pub detect_latency_insts: u64,
    /// Largest single detection latency observed, in cycles.
    pub detect_latency_max: u64,
    /// Per-site fate counts in the compact
    /// [`ftsim_faults::SiteCounts`] encoding (empty when no faults were
    /// injected).
    pub site_fates: String,
}

/// Applies a macro to every `RunRecord` field, in serialization order.
macro_rules! with_fields {
    ($m:ident) => {
        $m! {
            workload, suite, model, r, majority, threshold, fault_rate_pm,
            site_mix, seed, budget, oracle, error, halted, cycles,
            retired_instructions, ipc, branches, branch_mispredicts,
            branch_rewinds, fault_rewinds, pc_check_rewinds,
            majority_elections, mean_rewind_penalty, rewind_penalty_max,
            faults_injected, faults_detected, faults_outvoted,
            faults_masked, faults_squashed_wrong_path,
            faults_squashed_by_rewind, faults_escaped, faults_pending,
            dispatched_entries, retired_entries, dispatch_stalls_ruu,
            dispatch_stalls_lsq, mean_ruu_occupancy, load_forwards,
            il1_miss_rate, dl1_miss_rate, l2_miss_rate, mix_mem, mix_int,
            mix_fp_add, mix_fp_mul, mix_fp_div, state_digest,
            detect_events, detect_latency_cycles, detect_latency_insts,
            detect_latency_max, site_fates
        }
    };
}

macro_rules! impl_record_serde {
    ($($field:ident),+ $(,)?) => {
        impl RunRecord {
            /// Number of columns in the flat representation.
            pub const WIDTH: usize = [$(stringify!($field)),+].len();

            /// Column names, in serialization order.
            pub const FIELDS: [&'static str; Self::WIDTH] = [$(stringify!($field)),+];

            /// The CSV header row matching [`RunRecord::to_csv_row`].
            pub fn csv_header() -> String {
                csv::join_row(Self::FIELDS)
            }

            /// This record as one CSV row (no trailing newline).
            pub fn to_csv_row(&self) -> String {
                let mut out = String::with_capacity(512);
                self.write_csv_row(&mut out);
                out
            }

            /// Appends this record's CSV row (no trailing newline).
            fn write_csv_row(&self, out: &mut String) {
                let mut sep = "";
                $(
                    out.push_str(sep);
                    sep = ",";
                    Field::write_cell(&self.$field, out);
                )+
            }

            /// Parses one parsed-CSV row (cells in header order).
            ///
            /// # Errors
            ///
            /// [`RecordError::WrongWidth`] or [`RecordError::BadField`].
            pub fn from_cells<S: AsRef<str>>(cells: &[S]) -> Result<Self, RecordError> {
                if cells.len() != Self::WIDTH {
                    return Err(RecordError::WrongWidth {
                        found: cells.len(),
                        expected: Self::WIDTH,
                    });
                }
                let mut iter = cells.iter();
                Ok(Self {
                    $($field: Field::from_cell(iter.next().expect("width checked").as_ref())
                        .map_err(|message| RecordError::BadField {
                            field: stringify!($field),
                            message,
                        })?,)+
                })
            }

            /// Appends this record as the object [`to_json`] renders at
            /// array depth 1: what [`RunRecord::to_json_value`] renders
            /// pretty with an indent of 2.
            fn write_json_object(&self, out: &mut String) {
                out.push('{');
                let mut sep = "";
                $(
                    out.push_str(sep);
                    sep = ",";
                    out.push_str(concat!("\n    \"", stringify!($field), "\": "));
                    Field::write_json(&self.$field, out);
                )+
                out.push_str("\n  }");
            }

            /// This record as a JSON object.
            pub fn to_json_value(&self) -> JsonValue {
                JsonValue::obj(vec![
                    $((stringify!($field).to_string(), Field::to_json(&self.$field)),)+
                ])
            }

            /// Parses a JSON object produced by [`RunRecord::to_json_value`].
            ///
            /// # Errors
            ///
            /// [`RecordError::BadField`] for a missing or mistyped field.
            pub fn from_json_value(v: &JsonValue) -> Result<Self, RecordError> {
                Ok(Self {
                    $($field: Field::from_json(v.get(stringify!($field)).ok_or(
                        RecordError::BadField {
                            field: stringify!($field),
                            message: "missing".to_string(),
                        },
                    )?)
                    .map_err(|message| RecordError::BadField {
                        field: stringify!($field),
                        message,
                    })?,)+
                })
            }
        }
    };
}

with_fields!(impl_record_serde);

impl RunRecord {
    /// Whether the cell simulated successfully.
    pub fn ok(&self) -> bool {
        self.error.is_empty()
    }

    /// Whether `self` and `other` describe the same grid cell: equal
    /// workload, suite, model, redundancy shape, fault rate (bit-exact),
    /// site mix, seed, budget and oracle mode. Outcome fields are ignored
    /// — this is how
    /// [`Experiment::resume_from`](crate::harness::Experiment::resume_from)
    /// decides a cell has already been simulated. Including the oracle
    /// mode means records swept with [`ftsim_core::OracleMode::Off`]
    /// never satisfy a resumed grid that demands
    /// [`ftsim_core::OracleMode::Final`] verification (and vice versa) —
    /// such cells are simply re-simulated. A [`crate::harness::Grid`]
    /// answers the same question for a whole grid at once.
    pub fn same_identity(&self, other: &RunRecord) -> bool {
        self.workload == other.workload
            && self.suite == other.suite
            && self.model == other.model
            && (self.r, self.majority, self.threshold) == (other.r, other.majority, other.threshold)
            && self.fault_rate_pm.to_bits() == other.fault_rate_pm.to_bits()
            && self.site_mix == other.site_mix
            && self.seed == other.seed
            && self.budget == other.budget
            && self.oracle == other.oracle
    }

    /// A compact, stable label for this record's grid cell, built from
    /// identity fields only. Distinct cells of one experiment grid get
    /// distinct labels (the redundancy shape and suite are implied by
    /// the model and workload names). Used for cell-granular bookkeeping
    /// that outlives a single process, like the daemon's stuck-cell
    /// watchdog strikes, and for error messages naming a cell.
    pub fn cell_label(&self) -> String {
        format!(
            "{}/{}/b{}/rate{}/{}/seed{}",
            self.workload, self.model, self.budget, self.fault_rate_pm, self.site_mix, self.seed
        )
    }

    /// Fills the outcome fields from a completed simulation.
    pub(crate) fn fill_outcome(mut self, result: &SimResult) -> Self {
        let s = &result.stats;
        self.error = String::new();
        self.halted = result.halted;
        self.cycles = result.cycles;
        self.retired_instructions = result.retired_instructions;
        self.ipc = result.ipc;
        self.branches = s.branches;
        self.branch_mispredicts = s.branch_mispredicts;
        self.branch_rewinds = s.branch_rewinds;
        self.fault_rewinds = s.fault_rewinds;
        self.pc_check_rewinds = s.pc_check_rewinds;
        self.majority_elections = s.majority_elections;
        self.mean_rewind_penalty = s.mean_rewind_penalty();
        self.rewind_penalty_max = s.rewind_penalty_max;
        self.faults_injected = s.faults.injected;
        self.faults_detected = s.faults.detected;
        self.faults_outvoted = s.faults.outvoted;
        self.faults_masked = s.faults.masked;
        self.faults_squashed_wrong_path = s.faults.squashed_wrong_path;
        self.faults_squashed_by_rewind = s.faults.squashed_by_rewind;
        self.faults_escaped = s.faults.escaped;
        self.faults_pending = s.faults.pending;
        self.dispatched_entries = s.dispatched_entries;
        self.retired_entries = s.retired_entries;
        self.dispatch_stalls_ruu = s.dispatch_stalls[0];
        self.dispatch_stalls_lsq = s.dispatch_stalls[1];
        self.mean_ruu_occupancy = s.mean_ruu_occupancy();
        self.load_forwards = s.load_forwards;
        self.il1_miss_rate = s.il1.miss_rate();
        self.dl1_miss_rate = s.dl1.miss_rate();
        self.l2_miss_rate = s.l2.miss_rate();
        self.mix_mem = s.mix_fraction(MixClass::Mem);
        self.mix_int = s.mix_fraction(MixClass::Int);
        self.mix_fp_add = s.mix_fraction(MixClass::FpAdd);
        self.mix_fp_mul = s.mix_fraction(MixClass::FpMul);
        self.mix_fp_div = s.mix_fraction(MixClass::FpDiv);
        self.state_digest = result.state_digest;
        self.detect_events = s.fault_latency.events;
        self.detect_latency_cycles = s.fault_latency.cycles_sum;
        self.detect_latency_insts = s.fault_latency.instructions_sum;
        self.detect_latency_max = s.fault_latency.cycles_max;
        self.site_fates = s.fault_sites.to_compact();
        self
    }

    /// This record's identity with every outcome field of `outcome`: the
    /// record of a cell whose run is `outcome`'s run. Only identity fields
    /// are named, so an outcome field added later is carried too.
    pub(crate) fn with_outcome_of(self, outcome: &RunRecord) -> Self {
        RunRecord {
            workload: self.workload,
            suite: self.suite,
            model: self.model,
            r: self.r,
            majority: self.majority,
            threshold: self.threshold,
            fault_rate_pm: self.fault_rate_pm,
            site_mix: self.site_mix,
            seed: self.seed,
            budget: self.budget,
            oracle: self.oracle,
            ..outcome.clone()
        }
    }

    /// Marks the record failed with `message`.
    pub(crate) fn fill_error(mut self, message: String) -> Self {
        self.error = message;
        self
    }
}

/// Looks the first *successful* record for `(workload, model)` up in grid
/// output; failed cells are skipped (use [`expect_record`] when a missing
/// or failed cell is an experiment bug worth aborting on).
pub fn record_for<'a>(
    records: &'a [RunRecord],
    workload: &str,
    model: &str,
) -> Option<&'a RunRecord> {
    records
        .iter()
        .find(|r| r.workload == workload && r.model == model && r.ok())
}

/// The successful record for `(workload, model)` in grid output.
///
/// # Panics
///
/// Panics when the cell is absent from the grid *or* present but failed —
/// in the latter case the panic carries the cell's own error message
/// rather than a misleading "missing" claim.
pub fn expect_record<'a>(records: &'a [RunRecord], workload: &str, model: &str) -> &'a RunRecord {
    let cell = records
        .iter()
        .find(|r| r.workload == workload && r.model == model)
        .unwrap_or_else(|| panic!("{workload} on {model} missing from grid output"));
    assert!(cell.ok(), "{workload} on {model} failed: {}", cell.error);
    cell
}

/// Serializes records to a CSV document (header + one row per record).
pub fn to_csv(records: &[RunRecord]) -> String {
    let mut out = RunRecord::csv_header();
    out.push('\n');
    for r in records {
        r.write_csv_row(&mut out);
        out.push('\n');
    }
    out
}

/// Parses a CSV document produced by [`to_csv`].
///
/// # Errors
///
/// [`RecordError`] for a wrong header, row width, or unparsable cell.
pub fn from_csv(text: &str) -> Result<Vec<RunRecord>, RecordError> {
    let rows = csv::parse(text).map_err(|e| RecordError::BadDocument(e.to_string()))?;
    let Some((header, body)) = rows.split_first() else {
        return Err(RecordError::BadDocument("empty CSV document".to_string()));
    };
    if header != &RunRecord::FIELDS[..] {
        return Err(RecordError::HeaderMismatch {
            found: header.join(","),
        });
    }
    body.iter().map(|row| RunRecord::from_cells(row)).collect()
}

/// Parses every intact record out of a possibly-corrupt CSV document,
/// returning them with the number of damaged lines discarded.
///
/// This is the crash-recovery counterpart of [`from_csv`], used by the
/// `ftsimd` daemon to reload its incremental results file after being
/// killed mid-write. Damage is skipped **wherever it sits**, not only at
/// the tail: the fabric's multi-writer append discipline means a torn
/// fragment from one process can be concatenated onto by a peer's next
/// row, leaving one merged garbage line *mid*-file with valid rows after
/// it. Every dropped line costs exactly the cells it carried — they are
/// simply re-simulated — while a parser that stopped at the first bad
/// line would hide every row behind it and re-simulate forever. A
/// document whose *header* is unreadable yields no records at all.
pub fn from_csv_tolerant(text: &str) -> (Vec<RunRecord>, usize) {
    let (records, dropped, _) = tolerant_parse(text);
    (records, dropped)
}

/// As [`from_csv_tolerant`], but also returns the **byte length of the
/// consumed prefix** — the boundary after the last line settled for
/// good, whether parsed or discarded (0 when nothing was): `(records,
/// dropped, consumed)`. A caller polling a growing log (the daemon's
/// record index and `results --watch`) can remember the boundary and
/// re-parse only the appended suffix on the next poll instead of the
/// whole file. An unterminated trailing line is never consumed: it is
/// either a row in flight (a live writer finishes it) or a torn fragment
/// (the next [`ftsim_stats::csv::AppendWriter`] open truncates it), and
/// both resolve at bytes the boundary has not passed. It still counts
/// as dropped, as in [`from_csv_tolerant`].
pub fn from_csv_tolerant_prefix(text: &str) -> (Vec<RunRecord>, usize, usize) {
    tolerant_parse(text)
}

fn tolerant_parse(text: &str) -> (Vec<RunRecord>, usize, usize) {
    if text.trim().is_empty() {
        return (Vec::new(), 0, 0);
    }
    let by_line = parse_lines(text);
    // An undamaged, newline-terminated document parses line by line to
    // the records the whole-document parse gives. Any other document
    // that the whole-document parse accepts (a quoted header, say)
    // keeps its records.
    if text.ends_with('\n') && by_line.1 > 0 {
        if let Ok(records) = from_csv(text) {
            return (records, 0, text.len());
        }
    }
    by_line
}

/// [`tolerant_parse`] line by line: every intact record, the damaged
/// lines and the consumed prefix's byte length.
fn parse_lines(text: &str) -> (Vec<RunRecord>, usize, usize) {
    // Header first: without it nothing below is trustworthy.
    let Some(first_nl) = text.find('\n') else {
        return (Vec::new(), 1, 0); // unterminated header fragment
    };
    if text[..first_nl].trim_end_matches('\r') != RunRecord::csv_header() {
        return (Vec::new(), text.lines().count(), 0);
    }
    let mut records = Vec::new();
    let mut dropped = 0usize;
    let mut pos = first_nl + 1;
    let mut consumed = pos;
    let mut cells: Vec<&str> = Vec::with_capacity(RunRecord::WIDTH);
    while pos < text.len() {
        let Some(end) = logical_row_end(&text[pos..]) else {
            // Unterminated tail — in flight or torn, not consumed either
            // way (see `from_csv_tolerant_prefix`).
            dropped += 1;
            break;
        };
        let line = &text[pos..pos + end];
        pos += end + 1;
        consumed = pos;
        if let Some(rec) = parse_line(line, &mut cells) {
            records.push(rec);
        } else {
            dropped += 1;
        }
    }
    (records, dropped, consumed)
}

/// The record on one logical CSV line (no newline), if it holds exactly
/// one. A line without quotes or carriage returns is split on its commas
/// in place, which is how [`csv::parse`] would split it; any other line
/// goes through [`csv::parse`]. `cells` is scratch space.
fn parse_line<'a>(line: &'a str, cells: &mut Vec<&'a str>) -> Option<RunRecord> {
    if !line.contains(['"', '\r']) {
        cells.clear();
        cells.extend(line.split(','));
        return RunRecord::from_cells(cells).ok();
    }
    match csv::parse(line).ok()?.as_slice() {
        [row] => RunRecord::from_cells(row).ok(),
        _ => None,
    }
}

/// Index of the newline ending the logical CSV row starting at `s[0]`,
/// skipping newlines embedded in quoted cells (quote-parity scan), or
/// `None` when the row runs off the end of the document unterminated.
fn logical_row_end(s: &str) -> Option<usize> {
    let mut in_quotes = false;
    for (i, b) in s.bytes().enumerate() {
        match b {
            b'"' => in_quotes = !in_quotes,
            b'\n' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

/// Serializes records to a pretty-printed JSON array: the array of
/// [`RunRecord::to_json_value`] objects rendered with an indent of 2.
pub fn to_json(records: &[RunRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  ");
        r.write_json_object(&mut out);
    }
    if !records.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// Parses a JSON document produced by [`to_json`].
///
/// # Errors
///
/// [`RecordError`] when the document is not an array of record objects.
pub fn from_json(text: &str) -> Result<Vec<RunRecord>, RecordError> {
    let doc = JsonValue::parse(text).map_err(|e| RecordError::BadDocument(e.to_string()))?;
    let items = doc
        .as_arr()
        .ok_or_else(|| RecordError::BadDocument("expected a JSON array".to_string()))?;
    items.iter().map(RunRecord::from_json_value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> RunRecord {
        RunRecord {
            workload: "fpppp".to_string(),
            suite: "SPEC95 FP".to_string(),
            model: "SS-2".to_string(),
            r: 2,
            majority: false,
            threshold: 2,
            fault_rate_pm: 3000.0,
            site_mix: "addr-heavy".to_string(),
            seed: 42,
            budget: 60_000,
            oracle: "final".to_string(),
            error: String::new(),
            halted: false,
            cycles: 123_456,
            retired_instructions: 60_010,
            ipc: 0.486_115_240_115,
            branches: 720,
            faults_injected: 17,
            faults_detected: 11,
            faults_masked: 6,
            mean_rewind_penalty: 29.636363636363637,
            mix_mem: 0.5243,
            mix_int: 0.1503,
            mix_fp_add: 0.1553,
            mix_fp_mul: 0.1684,
            mix_fp_div: 0.0016,
            state_digest: 0xdead_beef_0123_4567,
            detect_events: 11,
            detect_latency_cycles: 326,
            detect_latency_insts: 154,
            detect_latency_max: 61,
            site_fates: "res=9:0:0:0:7:0:2:0;ea=8:0:1:1:4:0:2:0".to_string(),
            ..RunRecord::default()
        }
    }

    #[test]
    fn csv_round_trip_is_exact() {
        let records = vec![sample(), RunRecord::default()];
        let text = to_csv(&records);
        assert_eq!(from_csv(&text).unwrap(), records);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let records = vec![sample(), RunRecord::default()];
        let text = to_json(&records);
        assert_eq!(from_json(&text).unwrap(), records);
    }

    #[test]
    fn csv_quotes_error_messages() {
        let mut r = sample();
        r.error = "wedged, after \"garbage\" control flow\nat cycle 9".to_string();
        let text = to_csv(&[r.clone()]);
        let back = from_csv(&text).unwrap();
        assert_eq!(back[0].error, r.error);
        assert!(!back[0].ok());
    }

    #[test]
    fn header_and_width_agree() {
        assert_eq!(RunRecord::FIELDS.len(), RunRecord::WIDTH);
        assert!(RunRecord::csv_header().starts_with("workload,suite,model,r,"));
        let err = from_csv("nope,header\n1,2\n").unwrap_err();
        assert!(matches!(err, RecordError::HeaderMismatch { .. }));
    }

    #[test]
    fn wrong_width_reported() {
        let err = RunRecord::from_cells(&["only".to_string()]).unwrap_err();
        assert_eq!(
            err,
            RecordError::WrongWidth {
                found: 1,
                expected: RunRecord::WIDTH
            }
        );
    }

    #[test]
    fn bad_fields_reported_by_name() {
        let mut cells: Vec<String> = to_csv(&[sample()])
            .lines()
            .nth(1)
            .unwrap()
            .split(',')
            .map(str::to_string)
            .collect();
        cells[3] = "not-a-number".to_string(); // the `r` column
        let err = RunRecord::from_cells(&cells).unwrap_err();
        assert!(
            matches!(err, RecordError::BadField { field: "r", .. }),
            "{err}"
        );
    }

    #[test]
    fn non_finite_floats_survive_json_round_trip() {
        // JSON has no NaN literal; the writer emits null and the parser
        // must take it back instead of failing the whole document.
        let mut r = sample();
        r.mean_rewind_penalty = f64::NAN;
        let back = from_json(&to_json(&[r])).unwrap();
        assert!(back[0].mean_rewind_penalty.is_nan());
    }

    #[test]
    fn tolerant_parse_drops_only_the_torn_tail() {
        let records = vec![sample(), RunRecord::default()];
        let mut text = to_csv(&records);
        let (back, dropped) = from_csv_tolerant(&text);
        assert_eq!((back, dropped), (records.clone(), 0));

        // A row torn mid-write (no newline, half the cells, an open
        // quote) must cost exactly that row.
        text.push_str("fpppp,\"SPEC95 FP,SS-2,2,false");
        let (back, dropped) = from_csv_tolerant(&text);
        assert_eq!(back, records);
        assert_eq!(dropped, 1);

        // A destroyed header yields nothing rather than garbage.
        let (back, dropped) = from_csv_tolerant("not,a,header\n");
        assert!(back.is_empty());
        assert!(dropped >= 1);

        assert_eq!(from_csv_tolerant(""), (Vec::new(), 0));
    }

    #[test]
    fn tolerant_parse_skips_interior_damage() {
        // The fabric's multi-writer appends can merge one process's torn
        // fragment with a peer's next row, leaving garbage *mid*-file.
        // Rows behind the damage must still parse — a tail-only parser
        // would hide them and the daemon would re-simulate forever.
        let records = vec![sample(), RunRecord::default()];
        let text = to_csv(&records);
        let mut lines: Vec<&str> = text.lines().collect();
        let merged = "gcc,SPEC95 I\u{fffd}gcc,torn-and-merged";
        lines.insert(2, merged); // between the two valid rows
        let damaged = format!("{}\n", lines.join("\n"));

        let (back, dropped) = from_csv_tolerant(&damaged);
        assert_eq!(back, records, "rows behind interior damage recovered");
        assert_eq!(dropped, 1);

        // The watch boundary consumes the damaged line (it is settled —
        // nothing will repair it in place) along with the intact rows.
        let (back, _, consumed) = from_csv_tolerant_prefix(&damaged);
        assert_eq!(back, records);
        assert_eq!(consumed, damaged.len());
    }

    #[test]
    fn tolerant_prefix_reports_the_resume_boundary() {
        let records = vec![sample(), RunRecord::default()];
        let text = to_csv(&records);
        let (back, _, consumed) = from_csv_tolerant_prefix(&text);
        assert_eq!(back, records);
        assert_eq!(consumed, text.len(), "complete document fully consumed");

        // A torn tail is excluded from the boundary: re-parsing the
        // suffix from `consumed` after the row completes yields exactly
        // the missing record (the --watch incremental-poll contract).
        let torn = format!("{text}fpppp,\"SPEC95");
        let (back, _, consumed) = from_csv_tolerant_prefix(&torn);
        assert_eq!(back, records);
        assert_eq!(consumed, text.len());
        let completed = to_csv(&[sample()]);
        let row = completed.lines().nth(1).unwrap();
        let grown = format!("{text}{row}\n");
        let suffix_doc = format!("{}\n{}", RunRecord::csv_header(), &grown[consumed..]);
        let (suffix_rows, _, _) = from_csv_tolerant_prefix(&suffix_doc);
        assert_eq!(suffix_rows, vec![sample()]);

        assert_eq!(from_csv_tolerant_prefix(""), (Vec::new(), 0, 0));
        assert_eq!(from_csv_tolerant_prefix("not,a,header\n").2, 0);
    }

    #[test]
    fn tolerant_parse_survives_multiline_quoted_cells() {
        // An error message with embedded newlines spans CSV lines; the
        // tolerant parser must keep the complete record and drop only
        // the truly torn tail after it.
        let mut failed = sample();
        failed.error = "wedged\nat cycle 9,\nafter \"garbage\"".to_string();
        let mut text = to_csv(&[failed.clone()]);
        text.push_str("gcc,SPEC9"); // torn next row
        let (back, dropped) = from_csv_tolerant(&text);
        assert_eq!(back, vec![failed]);
        assert_eq!(dropped, 1);
    }

    macro_rules! reference_row {
        ($($field:ident),+ $(,)?) => {
            /// The CSV row as first composed: every field's `Display`
            /// text, quoted and joined by [`csv::join_row`].
            fn reference_row(r: &RunRecord) -> String {
                csv::join_row(vec![$(r.$field.to_string()),+])
            }
        };
    }
    with_fields!(reference_row);

    fn reference_csv(records: &[RunRecord]) -> String {
        let mut out = format!("{}\n", RunRecord::csv_header());
        for r in records {
            out.push_str(&reference_row(r));
            out.push('\n');
        }
        out
    }

    /// The JSON document as first composed: the tree of
    /// [`RunRecord::to_json_value`] objects, rendered pretty.
    fn reference_json(records: &[RunRecord]) -> String {
        JsonValue::Arr(records.iter().map(RunRecord::to_json_value).collect()).render_pretty(2)
    }

    /// Records whose strings carry every byte CSV quoting reacts to plus
    /// non-ASCII text, and whose floats include NaN, ±inf, −0.0 and
    /// subnormals.
    fn awkward_records() -> Vec<RunRecord> {
        const STRINGS: &[&str] = &[
            "",
            "plain",
            "a,b",
            "say \"hi\"",
            "\"",
            "two\nlines",
            "cr\ronly",
            "crlf\r\n",
            "café ünï 日本 😀",
            "tab\tand\u{1}ctl\\",
            ",\",\n\r",
        ];
        const FLOATS: &[f64] = &[
            0.0,
            -0.0,
            1.0,
            -2.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            1e21,
            0.1 + 0.2,
            1.0 / 3.0,
        ];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut records = vec![sample(), RunRecord::default()];
        for _ in 0..64 {
            let mut r = sample();
            let mut s = || STRINGS[(next() % STRINGS.len() as u64) as usize].to_string();
            r.workload = s();
            r.suite = s();
            r.error = s();
            r.site_fates = s();
            r.oracle = s();
            let mut f = || FLOATS[(next() % FLOATS.len() as u64) as usize];
            r.fault_rate_pm = f();
            r.ipc = f();
            r.mean_rewind_penalty = f();
            r.l2_miss_rate = f();
            r.mix_fp_div = f();
            r.cycles = next();
            r.r = next() as u8;
            r.majority = next() % 2 == 0;
            records.push(r);
        }
        records
    }

    #[test]
    fn writers_match_the_reference_compositions_byte_for_byte() {
        let records = awkward_records();
        for r in &records {
            assert_eq!(r.to_csv_row(), reference_row(r));
        }
        assert_eq!(to_csv(&records), reference_csv(&records));
        assert_eq!(to_csv(&[]), reference_csv(&[]));
        assert_eq!(to_json(&records), reference_json(&records));
        assert_eq!(to_json(&records[..1]), reference_json(&records[..1]));
        assert_eq!(to_json(&[]), reference_json(&[]));
    }

    /// How [`parse_line`] judged a line before its comma split: through
    /// [`csv::parse`] and owned cells, always.
    fn reference_line(line: &str) -> Option<String> {
        match csv::parse(line).ok()?.as_slice() {
            [row] => RunRecord::from_cells(row).ok().map(|r| r.to_csv_row()),
            _ => None,
        }
    }

    #[test]
    fn line_split_accepts_exactly_what_the_parser_accepts() {
        // Mutations keep to logical lines: no newline outside quotes.
        const INSERTS: &[&str] = &[",", "\"", "\"\"", "\r", "x", "7", ".", "-", "é", ""];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut accepted = 0;
        for r in awkward_records() {
            let row = r.to_csv_row();
            for _ in 0..64 {
                let mut chars: Vec<char> = row.chars().collect();
                for _ in 0..=next() % 3 {
                    let at = (next() % (chars.len() as u64 + 1)) as usize;
                    match next() % 3 {
                        0 if at < chars.len() => {
                            chars.remove(at);
                        }
                        1 if at < chars.len() => {
                            chars[at] = ',';
                        }
                        _ => {
                            let ins = INSERTS[(next() % INSERTS.len() as u64) as usize];
                            chars.splice(at..at, ins.chars());
                        }
                    }
                }
                let line: String = chars.into_iter().collect();
                if line.contains('\n') && !line.contains('"') {
                    continue; // not a logical line
                }
                let want = reference_line(&line);
                accepted += usize::from(want.is_some());
                assert_eq!(
                    parse_line(&line, &mut Vec::new()).map(|r| r.to_csv_row()),
                    want,
                    "{line:?}"
                );
            }
            let back = parse_line(&row, &mut Vec::new()).map(|r| r.to_csv_row());
            assert_eq!(back, Some(row));
        }
        assert!(accepted > 0, "no mutated line parsed: the check is vacuous");
    }

    #[test]
    fn json_missing_field_reported() {
        let err = from_json("[{\"workload\": \"gcc\"}]").unwrap_err();
        assert!(matches!(err, RecordError::BadField { .. }));
        assert!(err.to_string().contains("missing"));
    }
}
