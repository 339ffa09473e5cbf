//! Memory-concurrency advice from the measured scalability curves.
//!
//! §III-C of the paper: "autotuning could optimize codes by limiting the
//! number of cores accessing to memory if a poorly scalable memory system
//! is detected". Given the Fig. 6 characterization, this module answers
//! the concrete question a memory-bound kernel asks: *how many threads
//! should touch memory at once, and on which cores?*

use serde::{Deserialize, Serialize};
use servet_core::platform::CoreId;
use servet_core::MemOverheadResult;

/// Default tolerance of [`advise_memory_threads`]: a thread count whose
/// aggregate is within 5 % of the best is enough.
pub const DEFAULT_TOLERANCE: f64 = 0.05;

/// Advice for a memory-bound parallel region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConcurrencyAdvice {
    /// Recommended number of concurrently streaming cores per colliding
    /// group.
    pub threads_per_group: usize,
    /// Aggregate bandwidth (GB/s) the group achieves at that thread count.
    pub aggregate_gbs: f64,
    /// Aggregate bandwidth if every core of the group streamed.
    pub full_aggregate_gbs: f64,
    /// The cores of one representative group, in the measured sweep order
    /// (prefix of length `threads_per_group` is the recommended set).
    pub group: Vec<CoreId>,
}

/// Pick the smallest concurrency whose aggregate bandwidth is within
/// `tolerance` (e.g. [`DEFAULT_TOLERANCE`]) of the best aggregate seen on
/// the strongest overhead class. Returns `None` when no contention was
/// measured (every core may stream freely).
pub fn advise_memory_threads(
    memory: &MemOverheadResult,
    tolerance: f64,
) -> Option<ConcurrencyAdvice> {
    servet_obs::counter("autotune.threads.calls").incr();
    let class = memory.overheads.first()?;
    let group = class.groups.first()?.clone();
    if class.scalability.is_empty() {
        return None;
    }
    // Aggregate curve: 1 core at the reference, then the measured sweep.
    let mut aggregates: Vec<(usize, f64)> = vec![(1, memory.reference_gbs)];
    aggregates.extend(
        class
            .scalability
            .iter()
            .map(|&(n, per_core)| (n, per_core * n as f64)),
    );
    let best = aggregates
        .iter()
        .map(|&(_, a)| a)
        .fold(f64::NEG_INFINITY, f64::max);
    let &(threads, aggregate) = aggregates
        .iter()
        .find(|&&(_, a)| a >= best * (1.0 - tolerance))
        .expect("best exists in the list");
    let full = aggregates.last().expect("non-empty").1;
    Some(ConcurrencyAdvice {
        threads_per_group: threads,
        aggregate_gbs: aggregate,
        full_aggregate_gbs: full,
        group,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use servet_core::characterize_memory;
    use servet_core::SimPlatform;

    #[test]
    fn saturated_bus_recommends_few_threads() {
        // tiny_smp: 3 GB/s FSB, 2 GB/s per core. Aggregate: 1 core -> 2,
        // 2+ cores -> 3 (saturated). Recommendation: 2 threads.
        let mut p = SimPlatform::tiny().with_noise(0.0);
        let memory = characterize_memory(&mut p);
        let advice = advise_memory_threads(&memory, 0.05).unwrap();
        assert_eq!(advice.threads_per_group, 2, "{advice:?}");
        assert!((advice.aggregate_gbs - 3.0).abs() < 0.1);
        assert!((advice.full_aggregate_gbs - 3.0).abs() < 0.1);
        assert_eq!(advice.group.len(), 4);
    }

    #[test]
    fn numa_bus_advice() {
        // tiny_numa: per-pair buses of 2.5 GB/s, cores of 2.0 GB/s. The
        // strongest class is the bus: 1 core -> 2.0, 2 cores -> 2.5.
        // Going to 2 threads buys 25%: recommended.
        let mut p = SimPlatform::tiny_numa().with_noise(0.0);
        let memory = characterize_memory(&mut p);
        let advice = advise_memory_threads(&memory, 0.05).unwrap();
        assert_eq!(advice.threads_per_group, 2);
        assert!((advice.aggregate_gbs - 2.5).abs() < 0.1);
        assert_eq!(advice.group, vec![0, 1]);
    }

    #[test]
    fn no_contention_no_advice() {
        // A machine whose bus outruns its cores: no overhead class at all.
        let mut spec = servet_sim::presets::tiny_smp();
        spec.memory.resources[0].capacity_gbs = 100.0;
        let machine = servet_sim::Machine::new(spec);
        let mut p = SimPlatform::new(machine, None).with_noise(0.0);
        let memory = characterize_memory(&mut p);
        assert!(advise_memory_threads(&memory, 0.05).is_none());
    }

    #[test]
    fn tolerance_trades_threads_for_bandwidth() {
        let mut p = SimPlatform::tiny().with_noise(0.0);
        let memory = characterize_memory(&mut p);
        // A huge tolerance accepts the single-threaded aggregate.
        let lax = advise_memory_threads(&memory, 0.5).unwrap();
        assert_eq!(lax.threads_per_group, 1);
    }
}
