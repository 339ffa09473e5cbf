//! The human-readable summary of everything recorded. Consumers that want
//! machine-readable output (the run manifest in `servet-core`, the
//! registry's `stats` response) serialize the snapshot structs themselves.

use crate::metrics::Metrics;
use crate::span::{self, format_ns};
use std::fmt::Write as _;

/// Human-readable summary of `metrics` plus the span log — the body of
/// the CLI's `--trace` footer.
pub(crate) fn summary_from(metrics: &Metrics) -> String {
    let mut out = String::new();
    let counters = metrics.counters_snapshot();
    if !counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &counters {
            let _ = writeln!(out, "  {name:<44} {value}");
        }
    }
    let histograms = metrics.histograms_snapshot();
    let occupied: Vec<_> = histograms.iter().filter(|(_, s)| !s.is_empty()).collect();
    if !occupied.is_empty() {
        out.push_str("histograms:\n");
        for (name, s) in occupied {
            let _ = writeln!(
                out,
                "  {name:<32} n={:<8} mean={:<10} p50={:<10} p99={:<10} max={}",
                s.count,
                format_ns(s.mean() as u64),
                format_ns(s.quantile(0.50)),
                format_ns(s.quantile(0.99)),
                format_ns(s.max),
            );
        }
    }
    let spans = span::spans_snapshot();
    let _ = writeln!(
        out,
        "spans: {} recorded ({} dropped)",
        spans.len(),
        span::dropped_spans()
    );
    out
}

/// `summary_from` over the global metric registry.
pub fn summary() -> String {
    summary_from(crate::metrics::global())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mentions_counters_histograms_and_spans() {
        let m = Metrics::new();
        m.counter("sum.c").add(7);
        m.histogram("sum.h").record(2_000_000);
        let text = summary_from(&m);
        assert!(text.contains("sum.c"), "{text}");
        assert!(text.contains("n=1"), "{text}");
        assert!(text.contains("2.00 ms"), "{text}");
        assert!(text.contains("spans:"), "{text}");
    }
}
