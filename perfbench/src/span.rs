//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer; nothing inside the program is instrumented. Each span keeps
//! its name, start, end and parent. A layer's self time is its duration
//! minus the time its child spans cover (children are nested calls on the
//! same thread, so they never overlap).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The recorder. Disabled, it records nothing and costs one branch.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose name is decided when it closes (a cell's
    /// execution path is known only afterwards).
    pub fn enter(&mut self) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: "",
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `enter` opened, naming it.
    pub fn exit(&mut self, id: Option<usize>, name: &'static str) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        let span = &mut self.spans[id];
        span.name = name;
        span.end_ns = end;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.enter();
        let out = f(self);
        self.exit(id, name);
        out
    }

    fn duration_ms(s: &Span) -> f64 {
        s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6
    }

    /// Durations in milliseconds of every span called `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Self::duration_ms)
            .collect()
    }

    /// Total self time per span name, in milliseconds.
    fn self_ms(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 / 1e6;
            e.2 += total.saturating_sub(child) as f64 / 1e6;
        }
        out
    }

    /// Writes every span (one JSON object per line) and a per-name
    /// summary with self time to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, (count, total, own)) in self.self_ms() {
            writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{count},\"total_ms\":{total},\"self_ms\":{own}}}"
            )?;
        }
        out.flush()
    }
}
