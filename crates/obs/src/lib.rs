//! Observability for the ftsim fabric: a metrics registry with
//! Prometheus-text exposition and a bounded structured trace journal.
//!
//! The simulator's determinism contract makes observability delicate:
//! records must be pure functions of cell coordinates, byte-identical
//! whether a cell ran cold, forked from a checkpoint, or raced another
//! process. Everything in this crate therefore lives **outside** the
//! simulation — counters, gauges, histograms and trace events observe
//! runs without feeding anything back into them. No RNG is consumed, no
//! [`Processor`](../ftsim_core/struct.Processor.html) field is added, and
//! every export path is best-effort: an injected I/O fault in an exporter
//! must never change sweep results.
//!
//! Two surfaces:
//!
//! * [`metrics`] — lock-cheap counters/gauges/histograms registered under
//!   stable names, rendered as Prometheus text by [`metrics::render`]
//!   (the daemon serves it at `GET /metrics`). The registry is always
//!   on: there is no switch to turn it off, so a counter a test or a
//!   dashboard reads always counts.
//! * [`trace`] — a bounded ring of timestamped span events (claim →
//!   baseline-warm → fork/cold → append → merge lifecycle, plus
//!   chaos-injection hits) with an optional sink the daemon points at an
//!   NDJSON journal under its state directory. Span IDs are derived from
//!   `(job, cell label)` with FNV-1a, so cooperating processes agree on
//!   them without coordination.

#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histo};
pub use trace::{span_id, TraceEvent};
