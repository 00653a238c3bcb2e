//! Sweep-job specifications: the TOML/JSON documents `ftsimd submit`
//! accepts, and their mapping onto [`Experiment`] grids.
//!
//! A spec names every grid axis by *name* — workloads are the Table 2
//! benchmark profiles, models are the paper's machine presets — so jobs
//! are plain text, diffable, and independent of the Rust API:
//!
//! ```toml
//! name = "fig6-mini"
//! workloads = ["fpppp", "gcc"]
//! models = ["SS-2", "SS-3M"]
//! fault_rates = [0.0, 200.0, 5000.0]
//! site_mixes = ["uniform", "addr-heavy"]
//! budgets = [4000]
//! seeds = [3]
//! oracle = "final"
//! checkpointing = true
//! ```
//!
//! The JSON form is the same document with JSON syntax; parsed specs
//! normalize to one canonical JSON rendering ([`JobSpec::to_json`]),
//! which is what the job store persists and compares for
//! submit-or-attach deduplication.

use ftsim::harness::{Experiment, Workload};
use ftsim_core::{MachineConfig, OracleMode, RedundancyConfig};
use ftsim_faults::SiteMix;
use ftsim_stats::JsonValue;
use std::fmt;

/// A job spec that fails to parse or to resolve against the simulator's
/// registries.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document is not syntactically valid TOML/JSON.
    Syntax(String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field holds the wrong type or an unusable value.
    BadField {
        /// Field name.
        field: &'static str,
        /// What was wrong with it.
        message: String,
    },
    /// A key the spec format does not define (typo guard).
    UnknownField(String),
    /// A workload name not in the benchmark registry.
    UnknownWorkload(String),
    /// A model name not in the machine registry.
    UnknownModel(String),
    /// A site-mix name not in the preset registry.
    UnknownSiteMix(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Syntax(msg) => write!(f, "spec syntax error: {msg}"),
            SpecError::MissingField(field) => write!(f, "spec is missing required field `{field}`"),
            SpecError::BadField { field, message } => {
                write!(f, "spec field `{field}`: {message}")
            }
            SpecError::UnknownField(key) => write!(f, "spec has unknown field `{key}`"),
            SpecError::UnknownWorkload(name) => write!(
                f,
                "unknown workload `{name}` (expected a Table 2 profile, e.g. gcc, fpppp, equake, \
                 or a graduated fuzz workload, e.g. fuzz-ras-7)"
            ),
            SpecError::UnknownModel(name) => write!(
                f,
                "unknown model `{name}` (expected SS-<r>, SS-<r>M or Static-2, e.g. SS-1, SS-2, SS-3M)"
            ),
            SpecError::UnknownSiteMix(name) => write!(
                f,
                "unknown site mix `{name}` (expected one of: {})",
                ftsim_faults::PRESET_NAMES.join(", ")
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// A declarative sweep job: the grid axes of an [`Experiment`] with every
/// workload and machine model referenced by name.
///
/// # Examples
///
/// ```
/// use ftsim_daemon::JobSpec;
///
/// let spec = JobSpec::parse(
///     r#"
///     name = "demo"
///     workloads = ["gcc"]
///     models = ["SS-1", "SS-2"]
///     budgets = [2000]
///     "#,
/// )
/// .unwrap();
/// assert_eq!(spec.name, "demo");
/// assert_eq!(spec.models, ["SS-1", "SS-2"]);
/// // Unset axes take the harness defaults: fault-free, seed 0.
/// assert_eq!(spec.fault_rates_pm, [0.0]);
/// let experiment = spec.to_experiment().unwrap();
/// assert_eq!(experiment.cells(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Human-readable job name (used in the job id).
    pub name: String,
    /// Workload axis: benchmark profile names (`gcc`, `fpppp`, …).
    pub workloads: Vec<String>,
    /// Model axis: machine preset names (`SS-1`, `SS-2`, `SS-3M`,
    /// `Static-2`, or any `SS-<r>`/`SS-<r>M`).
    pub models: Vec<String>,
    /// Fault-rate axis in faults per million instructions. Default:
    /// fault-free.
    pub fault_rates_pm: Vec<f64>,
    /// Fault-site-mix axis: [`SiteMix`] preset names (`uniform`,
    /// `addr-heavy`, `control-only`, `data-only`). Default: uniform.
    pub site_mixes: Vec<String>,
    /// Committed-instruction budget axis. Default: the harness's
    /// [`DEFAULT_BUDGET`](ftsim::harness::DEFAULT_BUDGET).
    pub budgets: Vec<u64>,
    /// Fault-injector seed axis. Default: `[0]`.
    pub seeds: Vec<u64>,
    /// Whether each cell verifies final state against the in-order
    /// oracle. Default: off (performance sweeps).
    pub oracle: OracleMode,
    /// Whether families share fault-free prefixes via checkpoint-forking.
    /// Default: **on** — prefix sharing is the daemon's point, and it
    /// never changes a record.
    pub checkpointing: bool,
    /// Worker-thread cap (`0` = one per available core). Default: `0`.
    /// In the fabric this also caps how many *claims* (families) may run
    /// concurrently for this job across all cooperating processes.
    pub threads: usize,
    /// Scheduling priority: higher runs first when the fabric picks the
    /// next family to claim. Default: `0`.
    pub priority: i64,
    /// Who submitted the job — a free-form tenant label used for
    /// fair-share scheduling across submitters. Default: `""`.
    pub submitter: String,
    /// Maximum job lifetime in seconds, measured from submission. Once a
    /// job is **terminal** and older than this, garbage collection may
    /// remove it (GC never touches a live job, TTL or not). `0` disables
    /// the lifetime bound. Default: `0`.
    pub ttl_secs: u64,
    /// How long to retain a terminal job's artifacts after it finishes,
    /// in seconds; past this, garbage collection may remove it. `0`
    /// means retain forever (unless `ttl_secs` expires it). Default: `0`.
    pub retain_secs: u64,
}

impl JobSpec {
    /// A spec with the given name and the documented axis defaults;
    /// callers fill the workload and model axes.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            workloads: Vec::new(),
            models: Vec::new(),
            fault_rates_pm: vec![0.0],
            site_mixes: vec!["uniform".to_string()],
            budgets: vec![ftsim::harness::DEFAULT_BUDGET],
            seeds: vec![0],
            oracle: OracleMode::Off,
            checkpointing: true,
            threads: 0,
            priority: 0,
            submitter: String::new(),
            ttl_secs: 0,
            retain_secs: 0,
        }
    }

    /// Parses a spec from TOML or JSON, deciding by the first
    /// non-whitespace character (`{` means JSON).
    ///
    /// # Errors
    ///
    /// [`SpecError`] for syntax errors, missing/mistyped/unknown fields.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let doc = if text.trim_start().starts_with('{') {
            JsonValue::parse(text).map_err(|e| SpecError::Syntax(e.to_string()))?
        } else {
            toml_to_json(text)?
        };
        Self::from_fields(&doc)
    }

    /// Builds a spec from a parsed JSON object (shared by both syntaxes).
    fn from_fields(doc: &JsonValue) -> Result<Self, SpecError> {
        let JsonValue::Obj(pairs) = doc else {
            return Err(SpecError::Syntax("spec must be a table/object".to_string()));
        };
        const KNOWN: [&str; 14] = [
            "name",
            "workloads",
            "models",
            "fault_rates",
            "site_mixes",
            "budgets",
            "seeds",
            "oracle",
            "checkpointing",
            "threads",
            "priority",
            "submitter",
            "ttl_secs",
            "retain_secs",
        ];
        if let Some((key, _)) = pairs.iter().find(|(k, _)| !KNOWN.contains(&k.as_str())) {
            return Err(SpecError::UnknownField(key.clone()));
        }

        let name = doc
            .get("name")
            .ok_or(SpecError::MissingField("name"))?
            .as_str()
            .ok_or_else(|| bad("name", "must be a string"))?
            .to_string();
        if name.trim().is_empty() {
            return Err(bad("name", "must be non-empty"));
        }
        let mut spec = Self::new(name);
        spec.workloads =
            string_list(doc, "workloads")?.ok_or(SpecError::MissingField("workloads"))?;
        spec.models = string_list(doc, "models")?.ok_or(SpecError::MissingField("models"))?;
        if let Some(rates) = f64_list(doc, "fault_rates")? {
            spec.fault_rates_pm = rates;
        }
        if let Some(mixes) = string_list(doc, "site_mixes")? {
            spec.site_mixes = mixes;
        }
        if let Some(budgets) = u64_list(doc, "budgets")? {
            spec.budgets = budgets;
        }
        if let Some(seeds) = u64_list(doc, "seeds")? {
            spec.seeds = seeds;
        }
        if let Some(v) = doc.get("oracle") {
            spec.oracle = v
                .as_str()
                .and_then(OracleMode::from_name)
                .ok_or_else(|| bad("oracle", "must be \"off\" or \"final\""))?;
        }
        if let Some(v) = doc.get("checkpointing") {
            spec.checkpointing = v
                .as_bool()
                .ok_or_else(|| bad("checkpointing", "must be a bool"))?;
        }
        if let Some(v) = doc.get("threads") {
            spec.threads = v
                .as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| bad("threads", "must be a non-negative integer"))?;
        }
        if let Some(v) = doc.get("priority") {
            spec.priority = v
                .as_i64()
                .ok_or_else(|| bad("priority", "must be an integer"))?;
        }
        if let Some(v) = doc.get("submitter") {
            spec.submitter = v
                .as_str()
                .ok_or_else(|| bad("submitter", "must be a string"))?
                .to_string();
        }
        if let Some(v) = doc.get("ttl_secs") {
            spec.ttl_secs = v
                .as_u64()
                .ok_or_else(|| bad("ttl_secs", "must be a non-negative integer"))?;
        }
        if let Some(v) = doc.get("retain_secs") {
            spec.retain_secs = v
                .as_u64()
                .ok_or_else(|| bad("retain_secs", "must be a non-negative integer"))?;
        }
        Ok(spec)
    }

    /// The canonical JSON rendering of this spec — what the job store
    /// persists as `spec.json` and compares to deduplicate re-submissions.
    /// `parse(to_json())` round-trips exactly.
    pub fn to_json(&self) -> String {
        let oracle = self.oracle.name();
        JsonValue::obj([
            ("name".to_string(), JsonValue::Str(self.name.clone())),
            (
                "workloads".to_string(),
                JsonValue::Arr(
                    self.workloads
                        .iter()
                        .map(|w| JsonValue::Str(w.clone()))
                        .collect(),
                ),
            ),
            (
                "models".to_string(),
                JsonValue::Arr(
                    self.models
                        .iter()
                        .map(|m| JsonValue::Str(m.clone()))
                        .collect(),
                ),
            ),
            (
                "fault_rates".to_string(),
                JsonValue::Arr(
                    self.fault_rates_pm
                        .iter()
                        .map(|&r| JsonValue::F64(r))
                        .collect(),
                ),
            ),
            (
                "site_mixes".to_string(),
                JsonValue::Arr(
                    self.site_mixes
                        .iter()
                        .map(|m| JsonValue::Str(m.clone()))
                        .collect(),
                ),
            ),
            (
                "budgets".to_string(),
                JsonValue::Arr(self.budgets.iter().map(|&b| JsonValue::U64(b)).collect()),
            ),
            (
                "seeds".to_string(),
                JsonValue::Arr(self.seeds.iter().map(|&s| JsonValue::U64(s)).collect()),
            ),
            ("oracle".to_string(), JsonValue::Str(oracle.to_string())),
            (
                "checkpointing".to_string(),
                JsonValue::Bool(self.checkpointing),
            ),
            ("threads".to_string(), JsonValue::U64(self.threads as u64)),
            ("priority".to_string(), JsonValue::I64(self.priority)),
            (
                "submitter".to_string(),
                JsonValue::Str(self.submitter.clone()),
            ),
            ("ttl_secs".to_string(), JsonValue::U64(self.ttl_secs)),
            ("retain_secs".to_string(), JsonValue::U64(self.retain_secs)),
        ])
        .render_pretty(2)
    }

    /// Resolves the spec's names against the workload and model
    /// registries and builds the equivalent [`Experiment`] grid. The
    /// returned experiment is exactly what a one-shot
    /// [`Experiment::run`] of the same axes would use — that equivalence
    /// is what makes daemon results byte-identical to library results.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownWorkload`] / [`SpecError::UnknownModel`] for
    /// unresolvable names (grid-shape validation happens later, in
    /// [`Experiment::plan`]).
    pub fn to_experiment(&self) -> Result<Experiment, SpecError> {
        let workloads: Vec<Workload> = self
            .workloads
            .iter()
            .map(|name| {
                // Table 2 profiles first, then the graduated fuzz-workload
                // registry (stable `fuzz-*` names, regenerated from their
                // frozen generation specs).
                ftsim_workloads::profile(name)
                    .map(Workload::from)
                    .or_else(|| {
                        ftsim_workloads::graduated(name).map(|g| Workload::Program {
                            name: g.name.to_string(),
                            program: g.generate().program,
                        })
                    })
                    .ok_or_else(|| SpecError::UnknownWorkload(name.clone()))
            })
            .collect::<Result<_, _>>()?;
        let models: Vec<MachineConfig> = self
            .models
            .iter()
            .map(|name| model_by_name(name).ok_or_else(|| SpecError::UnknownModel(name.clone())))
            .collect::<Result<_, _>>()?;
        let mixes: Vec<SiteMix> = self
            .site_mixes
            .iter()
            .map(|name| {
                SiteMix::preset(name).ok_or_else(|| SpecError::UnknownSiteMix(name.clone()))
            })
            .collect::<Result<_, _>>()?;
        Ok(Experiment::grid()
            .workloads(workloads)
            .models(models)
            .fault_rates(self.fault_rates_pm.iter().copied())
            .site_mixes(mixes)
            .budgets(self.budgets.iter().copied())
            .seeds(self.seeds.iter().copied())
            .oracle(self.oracle)
            .threads(self.threads)
            .checkpointing(self.checkpointing))
    }
}

fn bad(field: &'static str, message: &str) -> SpecError {
    SpecError::BadField {
        field,
        message: message.to_string(),
    }
}

fn list<'a>(doc: &'a JsonValue, field: &'static str) -> Result<Option<&'a [JsonValue]>, SpecError> {
    match doc.get(field) {
        None => Ok(None),
        Some(v) => {
            let items = v.as_arr().ok_or_else(|| bad(field, "must be an array"))?;
            if items.is_empty() {
                return Err(bad(field, "must be non-empty"));
            }
            Ok(Some(items))
        }
    }
}

fn string_list(doc: &JsonValue, field: &'static str) -> Result<Option<Vec<String>>, SpecError> {
    list(doc, field)?
        .map(|items| {
            items
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| bad(field, "must contain only strings"))
                })
                .collect()
        })
        .transpose()
}

fn f64_list(doc: &JsonValue, field: &'static str) -> Result<Option<Vec<f64>>, SpecError> {
    list(doc, field)?
        .map(|items| {
            items
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| bad(field, "must contain only numbers"))
                })
                .collect()
        })
        .transpose()
}

fn u64_list(doc: &JsonValue, field: &'static str) -> Result<Option<Vec<u64>>, SpecError> {
    list(doc, field)?
        .map(|items| {
            items
                .iter()
                .map(|v| {
                    v.as_u64()
                        .ok_or_else(|| bad(field, "must contain only non-negative integers"))
                })
                .collect()
        })
        .transpose()
}

/// Resolves a machine-model name: the paper presets (`SS-1`, `SS-2`,
/// `SS-3`, `SS-3M`, `Static-2`) plus the generalized redundancy family
/// `SS-<r>` / `SS-<r>M` for `r` in 1–8 (Table 1 hardware with `r`-way
/// replication, rewind-only or majority recovery). Matching is
/// case-insensitive.
///
/// # Examples
///
/// ```
/// use ftsim_daemon::model_by_name;
///
/// assert_eq!(model_by_name("SS-2").unwrap().redundancy.r, 2);
/// assert!(model_by_name("ss-3m").unwrap().redundancy.majority);
/// assert_eq!(model_by_name("Static-2").unwrap().name, "Static-2");
/// assert!(model_by_name("SS-9000").is_none());
/// ```
pub fn model_by_name(name: &str) -> Option<MachineConfig> {
    let lower = name.to_ascii_lowercase();
    match lower.as_str() {
        "ss-1" => return Some(MachineConfig::ss1()),
        "ss-2" => return Some(MachineConfig::ss2()),
        "ss-3" => return Some(MachineConfig::ss3()),
        "ss-3m" => return Some(MachineConfig::ss3_majority()),
        "static-2" => return Some(MachineConfig::static2()),
        _ => {}
    }
    // Generalized SS-<r> / SS-<r>M: Table 1 hardware, r-way replication.
    let digits = lower.strip_prefix("ss-")?;
    let (digits, majority) = match digits.strip_suffix('m') {
        Some(d) => (d, true),
        None => (digits, false),
    };
    let r: u8 = digits.parse().ok().filter(|&r| (1..=8).contains(&r))?;
    if r == 1 && majority {
        return None; // majority election needs R >= 2 live copies
    }
    let redundancy = if r == 1 {
        RedundancyConfig::none()
    } else if majority {
        RedundancyConfig::majority(r)
    } else {
        RedundancyConfig::rewind(r)
    };
    let suffix = if majority { "M" } else { "" };
    Some(
        MachineConfig::ss1()
            .with_redundancy(redundancy)
            .named(&format!("SS-{r}{suffix}")),
    )
}

/// Parses the TOML subset job specs use — top-level `key = value` pairs
/// with string/number/bool scalars and (possibly multi-line) arrays of
/// scalars, `#` comments — into the same [`JsonValue`] object shape the
/// JSON syntax yields. Nested tables are not part of the spec format.
fn toml_to_json(text: &str) -> Result<JsonValue, SpecError> {
    let mut pairs: Vec<(String, JsonValue)> = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((lineno, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| SpecError::Syntax(format!("line {}: {msg}", lineno + 1));
        let (key, mut value) = line
            .split_once('=')
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .ok_or_else(|| err("expected `key = value`"))?;
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(err("bad key (expected [A-Za-z0-9_]+)"));
        }
        // A multi-line array continues until brackets balance.
        while value.starts_with('[') && !brackets_balanced(&value) {
            let (_, cont) = lines.next().ok_or_else(|| err("unterminated array"))?;
            value.push(' ');
            value.push_str(strip_comment(cont).trim());
        }
        if pairs.iter().any(|(k, _)| *k == key) {
            return Err(err("duplicate key"));
        }
        pairs.push((key, toml_value(&value).map_err(|msg| err(&msg))?));
    }
    Ok(JsonValue::Obj(pairs))
}

/// Strips a `#` comment, respecting `"`-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn brackets_balanced(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

/// Parses one TOML scalar or array-of-scalars.
fn toml_value(text: &str) -> Result<JsonValue, String> {
    let text = text.trim();
    if let Some(body) = text.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array".to_string())?;
        let mut items = Vec::new();
        for part in split_array_items(body)? {
            let part = part.trim();
            if !part.is_empty() {
                items.push(toml_value(part)?);
            }
        }
        return Ok(JsonValue::Arr(items));
    }
    if let Some(body) = text.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .filter(|b| !b.contains('"'))
            .ok_or_else(|| format!("bad string `{text}`"))?;
        return Ok(JsonValue::Str(body.to_string()));
    }
    match text {
        "true" => return Ok(JsonValue::Bool(true)),
        "false" => return Ok(JsonValue::Bool(false)),
        _ => {}
    }
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(JsonValue::U64(n));
        }
        if let Ok(n) = text.parse::<i64>() {
            return Ok(JsonValue::I64(n));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::F64)
        .map_err(|_| format!("bad value `{text}`"))
}

/// Splits array contents on commas outside quotes.
fn split_array_items(body: &str) -> Result<Vec<String>, String> {
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    for c in body.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                current.push(c);
            }
            ',' if !in_str => items.push(std::mem::take(&mut current)),
            _ => current.push(c),
        }
    }
    if in_str {
        return Err("unterminated string in array".to_string());
    }
    items.push(current);
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOML: &str = r#"
        # A miniature Figure 6 sweep.
        name = "fig6-mini"
        workloads = ["fpppp", "gcc"]
        models = [
            "SS-2",   # rewind recovery
            "SS-3M",  # majority election
        ]
        fault_rates = [0.0, 200.0, 5000.0]
        site_mixes = ["uniform", "addr-heavy"]
        budgets = [4000]
        seeds = [3]
        oracle = "final"
        checkpointing = true
        threads = 2
    "#;

    #[test]
    fn toml_and_json_parse_to_the_same_spec() {
        let from_toml = JobSpec::parse(TOML).unwrap();
        assert_eq!(from_toml.name, "fig6-mini");
        assert_eq!(from_toml.workloads, ["fpppp", "gcc"]);
        assert_eq!(from_toml.models, ["SS-2", "SS-3M"]);
        assert_eq!(from_toml.fault_rates_pm, [0.0, 200.0, 5000.0]);
        assert_eq!(from_toml.site_mixes, ["uniform", "addr-heavy"]);
        assert_eq!(from_toml.budgets, [4000]);
        assert_eq!(from_toml.seeds, [3]);
        assert_eq!(from_toml.oracle, OracleMode::Final);
        assert!(from_toml.checkpointing);
        assert_eq!(from_toml.threads, 2);

        let from_json = JobSpec::parse(&from_toml.to_json()).unwrap();
        assert_eq!(from_json, from_toml);
    }

    #[test]
    fn defaults_fill_unset_axes() {
        let spec =
            JobSpec::parse("name = \"d\"\nworkloads = [\"gcc\"]\nmodels = [\"SS-1\"]\n").unwrap();
        assert_eq!(spec.fault_rates_pm, [0.0]);
        assert_eq!(spec.site_mixes, ["uniform"]);
        assert_eq!(spec.budgets, [ftsim::harness::DEFAULT_BUDGET]);
        assert_eq!(spec.seeds, [0]);
        assert_eq!(spec.oracle, OracleMode::Off);
        assert!(spec.checkpointing, "prefix sharing defaults on");
        assert_eq!(spec.threads, 0);
    }

    #[test]
    fn priority_and_submitter_round_trip() {
        let spec = JobSpec::parse(
            "name = \"vip\"\nworkloads = [\"gcc\"]\nmodels = [\"SS-1\"]\npriority = -2\nsubmitter = \"alice\"\n",
        )
        .unwrap();
        assert_eq!(spec.priority, -2);
        assert_eq!(spec.submitter, "alice");
        let back = JobSpec::parse(&spec.to_json()).unwrap();
        assert_eq!(back, spec);

        let defaults =
            JobSpec::parse("name = \"d\"\nworkloads = [\"gcc\"]\nmodels = [\"SS-1\"]\n").unwrap();
        assert_eq!(defaults.priority, 0);
        assert_eq!(defaults.submitter, "");
    }

    #[test]
    fn ttl_and_retain_round_trip() {
        let spec = JobSpec::parse(
            "name = \"t\"\nworkloads = [\"gcc\"]\nmodels = [\"SS-1\"]\nttl_secs = 3600\nretain_secs = 60\n",
        )
        .unwrap();
        assert_eq!(spec.ttl_secs, 3600);
        assert_eq!(spec.retain_secs, 60);
        let back = JobSpec::parse(&spec.to_json()).unwrap();
        assert_eq!(back, spec);

        // Unset means "keep forever": both lifetime bounds default off.
        let defaults =
            JobSpec::parse("name = \"d\"\nworkloads = [\"gcc\"]\nmodels = [\"SS-1\"]\n").unwrap();
        assert_eq!(defaults.ttl_secs, 0);
        assert_eq!(defaults.retain_secs, 0);

        let bad = JobSpec::parse(
            "name = \"t\"\nworkloads = [\"gcc\"]\nmodels = [\"SS-1\"]\nttl_secs = -5\n",
        )
        .unwrap_err();
        assert!(matches!(
            bad,
            SpecError::BadField {
                field: "ttl_secs",
                ..
            }
        ));
    }

    #[test]
    fn errors_name_the_problem() {
        let missing = JobSpec::parse("workloads = [\"gcc\"]\nmodels = [\"SS-1\"]\n").unwrap_err();
        assert_eq!(missing, SpecError::MissingField("name"));

        let unknown = JobSpec::parse(
            "name = \"x\"\nworkloads = [\"gcc\"]\nmodels = [\"SS-1\"]\nbudge = [1]\n",
        )
        .unwrap_err();
        assert_eq!(unknown, SpecError::UnknownField("budge".to_string()));

        let mistyped = JobSpec::parse(
            "name = \"x\"\nworkloads = [\"gcc\"]\nmodels = [\"SS-1\"]\noracle = \"maybe\"\n",
        )
        .unwrap_err();
        assert!(matches!(
            mistyped,
            SpecError::BadField {
                field: "oracle",
                ..
            }
        ));

        let empty =
            JobSpec::parse("name = \"x\"\nworkloads = []\nmodels = [\"SS-1\"]\n").unwrap_err();
        assert!(matches!(
            empty,
            SpecError::BadField {
                field: "workloads",
                ..
            }
        ));

        let bad_syntax = JobSpec::parse("name \"x\"\n").unwrap_err();
        assert!(matches!(bad_syntax, SpecError::Syntax(_)));
    }

    #[test]
    fn registries_resolve_names() {
        let spec = JobSpec::parse(TOML).unwrap();
        let exp = spec.to_experiment().unwrap();
        assert_eq!(exp.cells(), 2 * 2 * 3 * 2);

        let mut bad = spec.clone();
        bad.workloads = vec!["doom".to_string()];
        assert_eq!(
            bad.to_experiment().unwrap_err(),
            SpecError::UnknownWorkload("doom".to_string())
        );
        let mut bad = spec.clone();
        bad.models = vec!["SS-0".to_string()];
        assert_eq!(
            bad.to_experiment().unwrap_err(),
            SpecError::UnknownModel("SS-0".to_string())
        );
        let mut bad = spec;
        bad.site_mixes = vec!["everything-at-once".to_string()];
        let err = bad.to_experiment().unwrap_err();
        assert_eq!(
            err,
            SpecError::UnknownSiteMix("everything-at-once".to_string())
        );
        assert!(err.to_string().contains("addr-heavy"), "{err}");
    }

    #[test]
    fn graduated_fuzz_workloads_resolve() {
        let spec = JobSpec::parse(
            "name = \"grad\"\nworkloads = [\"fuzz-ras-7\", \"gcc\"]\nmodels = [\"SS-2\"]\n\
             budgets = [2000]\n",
        )
        .unwrap();
        let exp = spec.to_experiment().unwrap();
        assert_eq!(exp.cells(), 2);
        let plan = exp.plan().unwrap();
        assert_eq!(plan.identity(0).workload, "fuzz-ras-7");
        assert_eq!(plan.identity(0).suite, "");
        assert_eq!(plan.identity(1).workload, "gcc");
    }

    #[test]
    fn generalized_model_names() {
        let m = model_by_name("SS-4").unwrap();
        assert_eq!(m.name, "SS-4");
        assert_eq!(m.redundancy.r, 4);
        assert!(!m.redundancy.majority);
        let m = model_by_name("ss-5m").unwrap();
        assert_eq!(m.name, "SS-5M");
        assert!(m.redundancy.majority);
        assert!(model_by_name("SS-0").is_none());
        assert!(model_by_name("turbo").is_none());
    }
}
