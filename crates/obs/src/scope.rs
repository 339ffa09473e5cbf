//! Per-run observability scopes.
//!
//! The global span log and metric registry are process-wide, which is the
//! right default for a CLI that runs one measurement per process — but it
//! corrupts per-run records as soon as several suite runs execute
//! concurrently (the zoo driver runs hundreds): spans from different runs
//! interleave in the global log and counter totals can no longer be
//! attributed to a run.
//!
//! A [`RunScope`] fixes that. While a scope is active on a thread, every
//! [`span()`](crate::span()) completed on that thread and every
//! [`counter()`](crate::counter()) resolved on it records into the
//! scope's private sink instead of the globals. [`RunScope::finish`]
//! returns the collected [`ScopeData`] and *merges* it into the global
//! view (spans appended to the global log, counter totals added to the
//! global registry), so process-wide reporting — `servet --trace`, the
//! metric summary — still sees everything.
//!
//! A scope records the thread that opened it: a worker thread spawned
//! *inside* a scoped region records into the globals (`HostPlatform`'s
//! concurrent kernels count there). Histograms stay global too: none of
//! the per-run records consume them, and their merge semantics
//! (bucket-wise addition) would complicate the scope for no consumer.
//!
//! Counters resolved through the facade are scope-routed at *lookup*
//! time: a `Arc<Counter>` obtained inside a scope and cached past
//! [`RunScope::finish`] keeps counting into a sink nobody reads. Resolve
//! counters per event (as all workspace call sites do) or keep the Arc's
//! lifetime inside the scope.

use crate::counter::Counter;
use crate::metrics::Metrics;
use crate::span::{self, SpanRecord};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The sink a [`RunScope`] shares with its thread's active-scope stack.
#[derive(Debug, Default)]
pub(crate) struct ScopeShared {
    spans: Mutex<Vec<SpanRecord>>,
    counters: Metrics,
}

impl ScopeShared {
    pub(crate) fn record_span(&self, record: SpanRecord) {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(record);
    }

    pub(crate) fn counter(&self, name: &str) -> Arc<Counter> {
        self.counters.counter(name)
    }
}

thread_local! {
    /// Innermost-active-last stack of scopes on this thread.
    static ACTIVE: RefCell<Vec<Arc<ScopeShared>>> = const { RefCell::new(Vec::new()) };
}

/// The scope recording on the current thread, if any (the innermost one).
pub(crate) fn current() -> Option<Arc<ScopeShared>> {
    ACTIVE.with(|stack| stack.borrow().last().cloned())
}

fn push(shared: &Arc<ScopeShared>) {
    ACTIVE.with(|stack| stack.borrow_mut().push(Arc::clone(shared)));
}

/// Remove the innermost occurrence of `shared` from this thread's stack.
fn pop(shared: &Arc<ScopeShared>) {
    ACTIVE.with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(at) = stack.iter().rposition(|s| Arc::ptr_eq(s, shared)) {
            stack.remove(at);
        }
    });
}

/// Everything a scope collected: its spans (in completion order) and its
/// counter totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScopeData {
    /// Spans completed while the scope was active, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Counter name → total accumulated inside the scope.
    pub counters: BTreeMap<String, u64>,
}

/// An active per-run collection scope. Create with [`RunScope::begin`];
/// end with [`RunScope::finish`] (or drop, which merges into the global
/// view without returning the data).
#[derive(Debug)]
pub struct RunScope {
    shared: Arc<ScopeShared>,
    finished: bool,
}

impl RunScope {
    /// Start recording this thread's spans and counters into a fresh
    /// private sink.
    pub fn begin() -> Self {
        let shared = Arc::new(ScopeShared::default());
        push(&shared);
        Self {
            shared,
            finished: false,
        }
    }

    /// Stop recording, merge the collected data into the global span log
    /// and metric registry, and return it. Call on the thread that called
    /// [`RunScope::begin`].
    pub fn finish(mut self) -> ScopeData {
        self.finish_inner().expect("scope finished twice")
    }

    fn finish_inner(&mut self) -> Option<ScopeData> {
        if self.finished {
            return None;
        }
        self.finished = true;
        pop(&self.shared);
        let spans =
            std::mem::take(&mut *self.shared.spans.lock().unwrap_or_else(|e| e.into_inner()));
        let counters = self.shared.counters.counters_snapshot();
        // Merge into the process-wide view so global reporting still
        // covers scoped runs.
        span::append_to_global(spans.iter().cloned());
        for (name, total) in &counters {
            if *total > 0 {
                crate::metrics::global().counter(name).add(*total);
            }
        }
        Some(ScopeData { spans, counters })
    }
}

impl Drop for RunScope {
    fn drop(&mut self) {
        let _ = self.finish_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_collects_spans_and_counters_separately_from_global() {
        let before_global = crate::counter("scope.test.events").get();
        let scope = RunScope::begin();
        {
            let _s = crate::span("scope.test.phase");
            crate::counter("scope.test.events").add(3);
        }
        let data = scope.finish();
        assert_eq!(data.counters.get("scope.test.events"), Some(&3));
        assert!(data.spans.iter().any(|s| s.name == "scope.test.phase"));
        // Merged into the global view on finish.
        assert_eq!(crate::counter("scope.test.events").get(), before_global + 3);
        assert!(crate::spans_snapshot()
            .iter()
            .any(|s| s.name == "scope.test.phase"));
    }

    #[test]
    fn concurrent_scopes_do_not_interleave() {
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let t1 = s.spawn(|| {
                let scope = RunScope::begin();
                barrier.wait();
                for _ in 0..50 {
                    let _s = crate::span("scope.test.a");
                    crate::counter("scope.test.a").incr();
                }
                scope.finish()
            });
            let t2 = s.spawn(|| {
                let scope = RunScope::begin();
                barrier.wait();
                for _ in 0..50 {
                    let _s = crate::span("scope.test.b");
                    crate::counter("scope.test.b").incr();
                }
                scope.finish()
            });
            (t1.join().unwrap(), t2.join().unwrap())
        });
        assert_eq!(a.spans.len(), 50);
        assert!(a.spans.iter().all(|s| s.name == "scope.test.a"));
        assert_eq!(a.counters.get("scope.test.a"), Some(&50));
        assert_eq!(a.counters.get("scope.test.b"), None);
        assert_eq!(b.spans.len(), 50);
        assert!(b.spans.iter().all(|s| s.name == "scope.test.b"));
    }

    #[test]
    fn nested_scopes_route_to_the_innermost() {
        let outer = RunScope::begin();
        {
            let inner = RunScope::begin();
            crate::counter("scope.test.nested").incr();
            let inner_data = inner.finish();
            assert_eq!(inner_data.counters.get("scope.test.nested"), Some(&1));
        }
        crate::counter("scope.test.outer_only").incr();
        let outer_data = outer.finish();
        assert_eq!(outer_data.counters.get("scope.test.nested"), None);
        assert_eq!(outer_data.counters.get("scope.test.outer_only"), Some(&1));
    }

    #[test]
    fn dropped_scope_still_merges_into_global() {
        let before = crate::counter("scope.test.dropped").get();
        {
            let _scope = RunScope::begin();
            crate::counter("scope.test.dropped").add(2);
        }
        assert_eq!(crate::counter("scope.test.dropped").get(), before + 2);
    }
}
