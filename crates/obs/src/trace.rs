//! The structured trace journal: a bounded ring of span events.
//!
//! Every interesting step of a cell's life emits a [`TraceEvent`]:
//! `claim` when a process wins a family lease, `baseline` when a family's
//! fault-free prefix is simulated, `fork`/`cold` when a cell executes,
//! `append` when its record lands in `cells.csv`, `merge` when a job
//! finalizes, and `chaos` when the failpoint layer injects a fault. The
//! span ID ties one cell's events together **across processes**: it is
//! [`span_id`]`(job, cell label)`, an FNV-1a hash both sides of a stolen
//! lease compute identically without coordination.
//!
//! Events land in an in-process ring (bounded, oldest dropped) and are
//! forwarded to an optional [sink](set_sink) — the daemon points it at a
//! per-process NDJSON journal under `<state>/trace/` so `ftsimd trace`
//! and `GET /trace` can merge the view across the whole fabric. Emission
//! is best-effort by construction: the sink returns nothing, and a
//! failing sink must swallow its own errors.

use ftsim_stats::JsonValue;
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Ring capacity: enough for the recent history of a busy worker without
/// letting an unbounded sweep grow the process.
const RING_CAP: usize = 4_096;

/// One timestamped span event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Milliseconds since the Unix epoch at emission.
    pub ts_ms: u64,
    /// Span ID correlating one cell across processes (see [`span_id`]);
    /// 0 for events outside any cell (job-level merges, chaos hits).
    pub span: u64,
    /// Event kind: `claim`, `baseline`, `fork`, `cold`, `cell`,
    /// `append`, `merge`, `chaos`, ...
    pub kind: String,
    /// Job ID, empty when unknown at the emission site.
    pub job: String,
    /// Cell label or family slug the event concerns.
    pub label: String,
    /// Free-form detail (cycles simulated, bytes appended, chaos site).
    pub detail: String,
    /// Emitting fabric owner (`host:pid:seq`), empty outside the daemon.
    pub owner: String,
}

impl TraceEvent {
    /// Builds an event stamped with the current wall clock.
    pub fn new(kind: &str, job: &str, label: &str, detail: &str) -> Self {
        Self {
            ts_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            span: if job.is_empty() && label.is_empty() {
                0
            } else {
                span_id(job, label)
            },
            kind: kind.to_string(),
            job: job.to_string(),
            label: label.to_string(),
            detail: detail.to_string(),
            owner: String::new(),
        }
    }

    /// This event as a JSON object (`span` rendered as a hex string so
    /// IDs survive JSON readers that truncate to 53-bit floats).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("ts_ms".to_string(), JsonValue::U64(self.ts_ms)),
            (
                "span".to_string(),
                JsonValue::Str(format!("{:016x}", self.span)),
            ),
            ("kind".to_string(), JsonValue::Str(self.kind.clone())),
            ("job".to_string(), JsonValue::Str(self.job.clone())),
            ("label".to_string(), JsonValue::Str(self.label.clone())),
            ("detail".to_string(), JsonValue::Str(self.detail.clone())),
            ("owner".to_string(), JsonValue::Str(self.owner.clone())),
        ])
    }

    /// One compact NDJSON line (no trailing newline).
    pub fn render_line(&self) -> String {
        self.to_json_value().render()
    }

    /// Parses a line produced by [`TraceEvent::render_line`]. Returns
    /// `None` for damaged lines (a torn journal tail is not an error).
    pub fn parse_line(line: &str) -> Option<Self> {
        let v = JsonValue::parse(line.trim()).ok()?;
        let s = |k: &str| v.get(k).and_then(JsonValue::as_str).map(str::to_string);
        Some(Self {
            ts_ms: v.get("ts_ms").and_then(JsonValue::as_u64)?,
            span: u64::from_str_radix(&s("span")?, 16).ok()?,
            kind: s("kind")?,
            job: s("job")?,
            label: s("label")?,
            detail: s("detail")?,
            owner: s("owner")?,
        })
    }
}

/// The span ID of one grid cell: FNV-1a over `job`, a `/` separator and
/// `label`. Cooperating processes derive identical IDs for the same cell
/// of the same job, which is what lets `ftsimd trace` stitch a claim in
/// one process to the append in the process that stole its lease.
pub fn span_id(job: &str, label: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in job.bytes().chain([b'/']).chain(label.bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

fn ring() -> &'static Mutex<VecDeque<TraceEvent>> {
    static RING: OnceLock<Mutex<VecDeque<TraceEvent>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(128)))
}

type Sink = Box<dyn Fn(&TraceEvent) + Send + Sync>;

/// The installed sink, shareable so [`emit`] can invoke it without
/// holding the slot lock (see the re-entrancy note in `emit`).
type SharedSink = std::sync::Arc<dyn Fn(&TraceEvent) + Send + Sync>;

fn sink_slot() -> &'static Mutex<Option<SharedSink>> {
    static SINK: OnceLock<Mutex<Option<SharedSink>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Installs (or replaces) the process-wide event sink. The daemon uses
/// this to journal events as NDJSON under its state directory; the sink
/// MUST swallow its own I/O errors — emission is best-effort and must
/// never perturb the run being observed.
pub fn set_sink(sink: Sink) {
    *sink_slot().lock().expect("trace sink lock") = Some(std::sync::Arc::from(sink));
}

/// Emits one event: stamps the process-wide owner (if one was set),
/// pushes it into the bounded ring and forwards it to the sink.
pub fn emit(mut event: TraceEvent) {
    if event.owner.is_empty() {
        if let Some(owner) = owner_slot().lock().expect("owner lock").as_ref() {
            event.owner = owner.clone();
        }
    }
    {
        let mut ring = ring().lock().expect("trace ring lock");
        if ring.len() == RING_CAP {
            ring.pop_front();
        }
        ring.push_back(event.clone());
    }
    // Clone the sink out and release the slot lock before invoking it:
    // a sink may itself emit (the chaos injection observer traces the
    // faults it injects into the sink's own failpoint), and a held lock
    // would deadlock that re-entrant emit.
    let sink = sink_slot().lock().expect("trace sink lock").clone();
    if let Some(sink) = sink {
        sink(&event);
    }
}

fn owner_slot() -> &'static Mutex<Option<String>> {
    static OWNER: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    OWNER.get_or_init(|| Mutex::new(None))
}

/// Sets the owner string stamped onto every subsequently emitted event
/// (the fabric's `host:pid:seq` identity).
pub fn set_owner(owner: &str) {
    *owner_slot().lock().expect("owner lock") = Some(owner.to_string());
}

/// The most recent `n` events from the in-process ring, oldest first.
pub fn recent(n: usize) -> Vec<TraceEvent> {
    let ring = ring().lock().expect("trace ring lock");
    let skip = ring.len().saturating_sub(n);
    ring.iter().skip(skip).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_agree_across_call_sites() {
        let a = span_id("job-1", "gcc/SS-2/b4000/rate0/uniform/seed3");
        let b = span_id("job-1", "gcc/SS-2/b4000/rate0/uniform/seed3");
        assert_eq!(a, b);
        assert_ne!(a, span_id("job-2", "gcc/SS-2/b4000/rate0/uniform/seed3"));
        // The separator prevents (job, label) boundary ambiguity.
        assert_ne!(span_id("ab", "c"), span_id("a", "bc"));
    }

    #[test]
    fn events_round_trip_through_ndjson() {
        let mut e = TraceEvent::new(
            "fork",
            "job-9",
            "gcc/SS-2/b4000/rate200/uniform/seed3",
            "cycles=1234",
        );
        e.owner = "host:1:2".to_string();
        let line = e.render_line();
        assert!(!line.contains('\n'));
        assert_eq!(TraceEvent::parse_line(&line), Some(e));
        assert_eq!(TraceEvent::parse_line("{torn"), None);
    }

    #[test]
    fn ring_keeps_recent_events_and_stays_bounded() {
        for i in 0..(RING_CAP + 10) {
            emit(TraceEvent::new(
                "cell",
                "ring-job",
                &format!("cell-{i}"),
                "",
            ));
        }
        let ring = ring().lock().unwrap();
        assert!(ring.len() <= RING_CAP);
        drop(ring);
        let tail = recent(5);
        assert_eq!(tail.len(), 5);
        assert!(tail[4].label.ends_with(&format!("{}", RING_CAP + 9)));
    }
}
