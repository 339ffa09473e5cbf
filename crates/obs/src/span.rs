//! Scoped span timers and the process-wide span log.
//!
//! [`span("name")`](span) returns a guard that, on drop, appends one
//! [`SpanRecord`] — name, nesting depth, start offset, wall duration — to
//! a global log. Nesting depth is tracked per thread, so a span opened
//! while another is live on the same thread renders as its child in
//! [`render_span_tree`]. Recording is one `Mutex` push per *completed*
//! span; spans are meant for phase-level instrumentation (a suite stage, a
//! calibration sweep, one advice computation), not per-sample loops —
//! counters and histograms cover those.
//!
//! The log is bounded ([`MAX_SPANS`]): once full, further spans are
//! dropped and counted, so a long-lived server cannot leak memory through
//! instrumentation. [`take_spans`] drains the log (the CLI's `--trace`
//! does this once at exit); [`spans_snapshot`] copies it without draining
//! (the run-manifest writer does this). Spans are always recorded, on the
//! thread that opened them.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Upper bound on retained span records; beyond it spans are dropped and
/// counted in [`dropped_spans`].
pub const MAX_SPANS: usize = 65_536;

static DROPPED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// The process-wide epoch every `start_ns` is relative to (first use of
/// any span pins it).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn log() -> &'static Mutex<Vec<SpanRecord>> {
    static LOG: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(Vec::new()))
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, dot-separated by convention (`"suite.cache_size"`).
    pub name: String,
    /// Nesting depth on its thread at open time (0 = top level).
    pub depth: usize,
    /// Start, nanoseconds since the process-wide span epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Free-form payload attached via [`SpanGuard::annotate`] — e.g. the
    /// coherence traffic a suite stage generated. Rendered in brackets
    /// after the name by [`render_span_tree`].
    pub annotation: Option<String>,
}

/// Live guard for an open span; dropping it records the span.
#[derive(Debug)]
pub struct SpanGuard {
    name: String,
    depth: usize,
    start: Instant,
    annotation: Option<String>,
}

impl SpanGuard {
    /// Wall time elapsed since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Attach a payload to the span's record (last call wins).
    pub fn annotate(&mut self, text: impl Into<String>) {
        self.annotation = Some(text.into());
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let duration = self.start.elapsed();
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let record = SpanRecord {
            name: std::mem::take(&mut self.name),
            depth: self.depth,
            start_ns: saturating_ns(self.start.saturating_duration_since(epoch())),
            duration_ns: saturating_ns(duration),
            annotation: self.annotation.take(),
        };
        // An active per-run scope on this thread owns the record; it
        // reaches the global log when the scope merges on finish.
        if let Some(scope) = crate::scope::current() {
            scope.record_span(record);
            return;
        }
        append_to_global(std::iter::once(record));
    }
}

/// Append records to the bounded global log, counting overflow into
/// [`dropped_spans`]. Used by the direct recording path and by
/// [`crate::RunScope`] when a finished scope merges its spans back.
pub(crate) fn append_to_global(records: impl IntoIterator<Item = SpanRecord>) {
    let mut log = log().lock().unwrap_or_else(|e| e.into_inner());
    for record in records {
        if log.len() >= MAX_SPANS {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        } else {
            log.push(record);
        }
    }
}

fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Open a span; it records itself when the returned guard drops.
pub fn span(name: impl Into<String>) -> SpanGuard {
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    let _ = epoch(); // pin the epoch no later than the first span's start
    SpanGuard {
        name: name.into(),
        depth,
        start: Instant::now(),
        annotation: None,
    }
}

/// Drain the span log, returning every record accumulated so far and
/// resetting the drop counter.
pub fn take_spans() -> Vec<SpanRecord> {
    DROPPED.store(0, Ordering::Relaxed);
    std::mem::take(&mut *log().lock().unwrap_or_else(|e| e.into_inner()))
}

/// Copy of the span log without draining it.
pub fn spans_snapshot() -> Vec<SpanRecord> {
    log().lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Spans discarded because the log was full.
pub fn dropped_spans() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Render spans as an indented tree, one line per span, sorted by start
/// time with children indented under their parents:
///
/// ```text
///    1.23 s   suite
///  890.12 ms    suite.cache_size
///  880.01 ms      mcalibrator.sweep
/// ```
pub fn render_span_tree(spans: &[SpanRecord]) -> String {
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.start_ns, s.depth));
    let mut out = String::new();
    for s in ordered {
        out.push_str(&format!(
            "{:>10}  {}{}",
            format_ns(s.duration_ns),
            "  ".repeat(s.depth),
            s.name
        ));
        if let Some(note) = &s.annotation {
            out.push_str(&format!("  [{note}]"));
        }
        out.push('\n');
    }
    out
}

/// Human-readable rendering of a nanosecond quantity (`"417 ns"`,
/// `"12.34 us"`, `"8.90 ms"`, `"1.23 s"`).
pub fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The span log is process-global, so every assertion here filters by
    // test-unique span names instead of assuming an empty log.

    #[test]
    fn spans_record_name_depth_and_duration() {
        {
            let _outer = span("t1.outer");
            let _inner = span("t1.inner");
        }
        let spans = spans_snapshot();
        let outer = spans.iter().find(|s| s.name == "t1.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "t1.inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(outer.duration_ns >= inner.duration_ns);
    }

    #[test]
    fn tree_rendering_indents_children() {
        let spans = vec![
            SpanRecord {
                name: "root".into(),
                depth: 0,
                start_ns: 0,
                duration_ns: 2_000_000,
                annotation: None,
            },
            SpanRecord {
                name: "child".into(),
                depth: 1,
                start_ns: 10,
                duration_ns: 1_500,
                annotation: Some("inv=3".into()),
            },
        ];
        let tree = render_span_tree(&spans);
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("2.00 ms") && lines[0].ends_with("root"));
        assert!(lines[1].contains("1.50 us") && lines[1].ends_with("  child  [inv=3]"));
    }

    #[test]
    fn annotations_survive_to_the_record() {
        {
            let mut g = span("t5.annotated");
            g.annotate("first");
            g.annotate("coh inv=7");
        }
        let spans = spans_snapshot();
        let rec = spans.iter().find(|s| s.name == "t5.annotated").unwrap();
        assert_eq!(rec.annotation.as_deref(), Some("coh inv=7"));
    }

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(0), "0 ns");
        assert_eq!(format_ns(999), "999 ns");
        assert_eq!(format_ns(1_500), "1.50 us");
        assert_eq!(format_ns(2_250_000), "2.25 ms");
        assert_eq!(format_ns(3_000_000_000), "3.00 s");
    }
}
