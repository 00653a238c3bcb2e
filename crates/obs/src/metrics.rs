//! The process-wide metrics registry.
//!
//! Metrics are registered on first use under a stable name plus a small
//! label set and live for the life of the process. Handles are cheap
//! clones ([`Counter`]/[`Gauge`] wrap one `Arc<AtomicU64>`, [`Histo`] an
//! `Arc<Mutex<ftsim_stats::Histogram>>`), so hot paths resolve a metric
//! once and update it lock-free thereafter. [`render`] produces the
//! Prometheus text exposition format the daemon serves at `/metrics`.
//!
//! The registry is **observation only**: it is always on, and nothing the
//! simulation computes ever reads it back, so records are the same
//! whatever its values.

use ftsim_stats::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram of `u64` observations over fixed-width buckets.
#[derive(Debug, Clone)]
pub struct Histo {
    inner: Arc<Mutex<Histogram>>,
    width: u64,
}

impl Histo {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.inner.lock().expect("histogram lock").record(v);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.inner.lock().expect("histogram lock").count()
    }
}

#[derive(Debug)]
enum Kind {
    Counter(Counter),
    Gauge(Gauge),
    Histo(Histo),
}

impl Kind {
    fn type_name(&self) -> &'static str {
        match self {
            Kind::Counter(_) => "counter",
            Kind::Gauge(_) => "gauge",
            Kind::Histo(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Entry {
    name: &'static str,
    /// Sorted `key="value"` pairs, pre-rendered (and escaped) at
    /// registration so exposition is a plain concatenation.
    labels: Vec<(&'static str, String)>,
    kind: Kind,
}

fn registry() -> &'static Mutex<Vec<Entry>> {
    static REGISTRY: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn labels_of(labels: &[(&'static str, &str)]) -> Vec<(&'static str, String)> {
    let mut out: Vec<(&'static str, String)> =
        labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect();
    out.sort_by_key(|(k, _)| *k);
    out
}

/// Returns the counter registered under `name` + `labels`, creating it
/// at zero on first use.
pub fn counter(name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
    let labels = labels_of(labels);
    let mut reg = registry().lock().expect("metrics registry lock");
    if let Some(e) = reg.iter().find(|e| e.name == name && e.labels == labels) {
        match &e.kind {
            Kind::Counter(c) => return c.clone(),
            other => panic!("metric {name} already registered as {}", other.type_name()),
        }
    }
    let c = Counter(Arc::new(AtomicU64::new(0)));
    reg.push(Entry {
        name,
        labels,
        kind: Kind::Counter(c.clone()),
    });
    c
}

/// Returns the gauge registered under `name` + `labels`, creating it at
/// zero on first use.
pub fn gauge(name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
    let labels = labels_of(labels);
    let mut reg = registry().lock().expect("metrics registry lock");
    if let Some(e) = reg.iter().find(|e| e.name == name && e.labels == labels) {
        match &e.kind {
            Kind::Gauge(g) => return g.clone(),
            other => panic!("metric {name} already registered as {}", other.type_name()),
        }
    }
    let g = Gauge(Arc::new(AtomicU64::new(0)));
    reg.push(Entry {
        name,
        labels,
        kind: Kind::Gauge(g.clone()),
    });
    g
}

/// Returns the histogram registered under `name` + `labels`, creating
/// it on first use with `buckets` fixed-width buckets of `bucket_width`
/// each (later calls reuse the first geometry).
pub fn histogram(
    name: &'static str,
    labels: &[(&'static str, &str)],
    bucket_width: u64,
    buckets: usize,
) -> Histo {
    let labels = labels_of(labels);
    let mut reg = registry().lock().expect("metrics registry lock");
    if let Some(e) = reg.iter().find(|e| e.name == name && e.labels == labels) {
        match &e.kind {
            Kind::Histo(h) => return h.clone(),
            other => panic!("metric {name} already registered as {}", other.type_name()),
        }
    }
    let h = Histo {
        inner: Arc::new(Mutex::new(Histogram::new(bucket_width, buckets))),
        width: bucket_width.max(1),
    };
    reg.push(Entry {
        name,
        labels,
        kind: Kind::Histo(h.clone()),
    });
    h
}

/// Escapes a label value for the exposition format.
fn escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(&'static str, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Renders every registered metric in the Prometheus text exposition
/// format: `# TYPE` lines once per metric name, then one sample line per
/// label set (histograms expand to cumulative `_bucket` series plus
/// `_sum` and `_count`).
pub fn render() -> String {
    let reg = registry().lock().expect("metrics registry lock");
    let mut out = String::new();
    let mut typed: Vec<&'static str> = Vec::new();
    // Entries are rendered grouped by name, in first-registration order
    // of the names, so scrapes are stable across processes with the same
    // code paths.
    let mut names: Vec<&'static str> = Vec::new();
    for e in reg.iter() {
        if !names.contains(&e.name) {
            names.push(e.name);
        }
    }
    for name in names {
        for e in reg.iter().filter(|e| e.name == name) {
            if !typed.contains(&e.name) {
                typed.push(e.name);
                out.push_str(&format!("# TYPE {} {}\n", e.name, e.kind.type_name()));
            }
            match &e.kind {
                Kind::Counter(c) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        e.name,
                        label_block(&e.labels, None),
                        c.get()
                    ));
                }
                Kind::Gauge(g) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        e.name,
                        label_block(&e.labels, None),
                        g.get()
                    ));
                }
                Kind::Histo(h) => {
                    let inner = h.inner.lock().expect("histogram lock");
                    let mut cumulative = 0u64;
                    for (lower, count) in inner.iter() {
                        cumulative += count;
                        let le = (lower + h.width).to_string();
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            e.name,
                            label_block(&e.labels, Some(("le", &le))),
                            cumulative
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        e.name,
                        label_block(&e.labels, Some(("le", "+Inf"))),
                        inner.count()
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        e.name,
                        label_block(&e.labels, None),
                        inner.sum()
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        e.name,
                        label_block(&e.labels, None),
                        inner.count()
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_per_label_set() {
        let a = counter("ftsim_test_total", &[("kind", "a")]);
        let b = counter("ftsim_test_total", &[("kind", "b")]);
        let a2 = counter("ftsim_test_total", &[("kind", "a")]);
        a.inc();
        a2.add(2);
        b.inc();
        assert_eq!(a.get(), 3, "same label set shares one cell");
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn exposition_renders_types_values_and_buckets() {
        let c = counter("ftsim_render_total", &[("site", "a\"b")]);
        c.add(7);
        let g = gauge("ftsim_render_gauge", &[]);
        g.set(3);
        let h = histogram("ftsim_render_ms", &[], 10, 4);
        h.record(5);
        h.record(15);
        h.record(1_000); // overflow bucket
        let text = render();
        assert!(text.contains("# TYPE ftsim_render_total counter"));
        assert!(text.contains("ftsim_render_total{site=\"a\\\"b\"} 7"));
        assert!(text.contains("# TYPE ftsim_render_gauge gauge"));
        assert!(text.contains("ftsim_render_gauge 3"));
        assert!(text.contains("ftsim_render_ms_bucket{le=\"10\"} 1"));
        assert!(text.contains("ftsim_render_ms_bucket{le=\"20\"} 2"));
        assert!(text.contains("ftsim_render_ms_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("ftsim_render_ms_count 3"));
    }

    #[test]
    fn labels_are_order_insensitive() {
        let a = counter("ftsim_label_order_total", &[("x", "1"), ("y", "2")]);
        let b = counter("ftsim_label_order_total", &[("y", "2"), ("x", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }
}
