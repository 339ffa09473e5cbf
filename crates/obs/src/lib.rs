//! # servet-obs
//!
//! The observability substrate of the Servet workspace: span-based scoped
//! timers, monotonic counters, and log-bucketed latency histograms behind
//! a cheap global registry, with a human-readable summary printer.
//! Everything is `std`-only — no dependencies — so every crate
//! in the workspace (and the CI doc sandbox) can use it freely.
//!
//! The three primitives, in increasing cost order:
//!
//! * [`Counter`] — one relaxed atomic add; always on; for event totals
//!   (`mcalibrator.samples`, `advice.computed`).
//! * [`Histogram`] — one relaxed add into a log2 bucket plus min/max;
//!   always on; for latency distributions (the registry server records one
//!   per NDJSON op).
//! * [`span()`] — an RAII guard that appends to a bounded global log on
//!   drop; for *phase*-level timing (suite stages, calibration sweeps,
//!   advice computations). `servet --trace` renders the log as a tree.
//!
//! ## Usage
//!
//! ```
//! // Phase timing: the guard records the span when it drops.
//! {
//!     let _phase = servet_obs::span("demo.phase");
//!     servet_obs::counter("demo.items").add(3);
//!     servet_obs::histogram("demo.latency_ns").record(1_250);
//! }
//! let spans = servet_obs::spans_snapshot();
//! assert!(spans.iter().any(|s| s.name == "demo.phase"));
//! assert!(servet_obs::counter("demo.items").get() >= 3);
//! // Human-readable dump of everything recorded so far:
//! assert!(servet_obs::summary().contains("demo.items"));
//! ```
//!
//! Components that need isolation from the global namespace (the registry
//! server's per-op latencies, unit tests) own a [`Metrics`] registry or
//! raw [`Histogram`]/[`Counter`] values directly; the global registry is
//! a convenience, not a requirement.

#![warn(missing_docs)]

pub mod counter;
pub mod export;
pub mod histogram;
pub mod metrics;
pub mod scope;
pub mod span;

pub use counter::Counter;
pub use export::{summary, summary_from};
pub use histogram::{bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use metrics::Metrics;
pub use scope::{RunScope, ScopeData};
pub use span::{
    dropped_spans, format_ns, render_span_tree, span, spans_snapshot, take_spans, SpanGuard,
    SpanRecord, MAX_SPANS,
};

use std::sync::Arc;

/// The counter named `name`: the active [`RunScope`]'s private counter
/// when one is installed on this thread, the global registry's otherwise
/// (created on first use either way). Scoped totals merge into the global
/// registry when the scope finishes.
pub fn counter(name: &str) -> Arc<Counter> {
    match scope::current() {
        Some(scope) => scope.counter(name),
        None => metrics::global().counter(name),
    }
}

/// The histogram named `name` in the global registry (created on first
/// use).
pub fn histogram(name: &str) -> Arc<Histogram> {
    metrics::global().histogram(name)
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_round_trip() {
        crate::counter("facade.count").add(2);
        crate::histogram("facade.lat").record(512);
        {
            let _g = crate::span("facade.span");
        }
        assert!(crate::counter("facade.count").get() >= 2);
        let text = crate::summary();
        assert!(text.contains("facade.count"), "{text}");
        assert!(text.contains("facade.lat"), "{text}");
    }
}
