//! Named metric registries and the process-global default.
//!
//! A [`Metrics`] maps names to shared [`Counter`]s and [`Histogram`]s.
//! Lookup takes a `Mutex` once per *name resolution*; callers on hot
//! paths keep the returned `Arc` and update it lock-free thereafter.
//! [`global()`] is the process-wide instance the convenience functions in
//! the crate root use; components wanting isolation (the registry
//! server's per-op latencies, tests) own their `Metrics` or their raw
//! `Histogram`s directly.

use crate::counter::Counter;
use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A named collection of counters and histograms.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Metrics {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created on first use. The
    /// same name always yields the same counter.
    pub(crate) fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The histogram registered under `name`, created on first use.
    pub(crate) fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Name → value for every registered counter.
    pub(crate) fn counters_snapshot(&self) -> BTreeMap<String, u64> {
        self.counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Name → snapshot for every registered histogram.
    pub(crate) fn histograms_snapshot(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }
}

/// The process-global metric registry.
pub(crate) fn global() -> &'static Metrics {
    static GLOBAL: OnceLock<Metrics> = OnceLock::new();
    GLOBAL.get_or_init(Metrics::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_instance() {
        let m = Metrics::new();
        m.counter("a").add(2);
        m.counter("a").add(3);
        assert_eq!(m.counter("a").get(), 5);
        m.histogram("h").record(7);
        assert_eq!(m.histogram("h").snapshot().count, 1);
    }

    #[test]
    fn snapshots_are_sorted_by_name() {
        let m = Metrics::new();
        m.counter("z").incr();
        m.counter("a").incr();
        let names: Vec<String> = m.counters_snapshot().into_keys().collect();
        assert_eq!(names, vec!["a".to_string(), "z".to_string()]);
    }

    #[test]
    fn global_is_shared() {
        let name = "obs.test.global_is_shared";
        global().counter(name).add(4);
        assert!(global().counter(name).get() >= 4);
    }
}
