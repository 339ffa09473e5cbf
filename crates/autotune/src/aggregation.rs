//! Message aggregation decisions from measured interconnect scalability.
//!
//! §III-D: "Sending concurrently N messages of size S usually costs more
//! than sending one message of size N*S. Thus, it is possible to optimize
//! the communication performance by gathering messages in poorly scalable
//! systems." This module makes that call from a measured
//! [`CommResult`]: compare the predicted cost of `n` concurrent messages
//! of size `s` (isolated latency × measured slowdown at `n`) against one
//! message of size `n·s` plus a per-message gather cost.

use serde::{Deserialize, Serialize};
use servet_core::CommResult;

/// The verdict for one (layer, message count, size) question.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AggregationDecision {
    /// Predicted cost of sending the messages concurrently, µs.
    pub concurrent_us: f64,
    /// Predicted cost of gathering and sending one large message, µs.
    pub aggregated_us: f64,
    /// Whether gathering is predicted to win.
    pub aggregate: bool,
}

/// Measured slowdown of `n` concurrent messages on `layer`, interpolated
/// from the scalability sweep (linear between sampled counts, clamped at
/// the ends).
pub fn slowdown_at(comm: &CommResult, layer: usize, n: usize) -> f64 {
    let sweep = &comm.layers[layer].scalability;
    if sweep.is_empty() || n <= 1 {
        return 1.0;
    }
    if let Some(&(_, _, s)) = sweep.iter().find(|&&(count, _, _)| count == n) {
        return s;
    }
    let below = sweep.iter().rev().find(|&&(count, _, _)| count < n);
    let above = sweep.iter().find(|&&(count, _, _)| count > n);
    match (below, above) {
        (Some(&(n0, _, s0)), Some(&(n1, _, s1))) => {
            let f = (n - n0) as f64 / (n1 - n0) as f64;
            s0 + f * (s1 - s0)
        }
        (Some(&(_, _, s0)), None) => s0,
        (None, Some(&(_, _, s1))) => s1,
        (None, None) => 1.0,
    }
}

/// Price of a message between two cores the profile measured no layer
/// for (out-of-range cores): large enough to keep a search inside the
/// measured machine.
pub(crate) const UNMEASURED_PAIR_US: f64 = 1e6;

/// Predicted latency (µs) of one of `n` concurrent `size`-byte messages on
/// `layer`: the layer's latency at that size × the measured slowdown at
/// `n`. The one message price every profile-side decision pays; `None`
/// (a pair in no measured layer) costs [`UNMEASURED_PAIR_US`].
pub(crate) fn message_us(comm: &CommResult, layer: Option<usize>, size: usize, n: usize) -> f64 {
    match layer {
        Some(l) => comm.layers[l].latency_for_size(size) * slowdown_at(comm, l, n),
        None => UNMEASURED_PAIR_US,
    }
}

/// Decide whether `n` messages of `size` bytes on `layer` should be
/// gathered into one. `gather_ns_per_byte` models the local copy cost of
/// packing (a memcpy through cache, ~0.1–0.5 ns/B).
pub fn aggregation_decision(
    comm: &CommResult,
    layer: usize,
    n: usize,
    size: usize,
    gather_ns_per_byte: f64,
) -> AggregationDecision {
    assert!(layer < comm.layers.len(), "layer out of range");
    assert!(n >= 1);
    let concurrent_us = message_us(comm, Some(layer), size, n);
    let pack_us = (n * size) as f64 * gather_ns_per_byte / 1000.0;
    let aggregated_us = comm.layers[layer].latency_for_size(n * size) + pack_us;
    AggregationDecision {
        concurrent_us,
        aggregated_us,
        aggregate: aggregated_us < concurrent_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use servet_core::SimPlatform;
    use servet_core::{characterize_communication, CommConfig};

    fn comm() -> CommResult {
        let mut p = SimPlatform::tiny_cluster();
        let mut cfg = CommConfig::small(8 * 1024);
        cfg.scalability_counts = vec![1, 2, 4, 8];
        characterize_communication(&mut p, &cfg)
    }

    #[test]
    fn slowdown_interpolates() {
        let c = comm();
        let inter = c.layers.len() - 1;
        let s1 = slowdown_at(&c, inter, 1);
        let s8 = slowdown_at(&c, inter, 8);
        assert!((s1 - 1.0).abs() < 0.1);
        assert!(s8 > s1, "s8 = {s8}");
        let s6 = slowdown_at(&c, inter, 6);
        let s4 = slowdown_at(&c, inter, 4);
        assert!(s4 <= s6 && s6 <= s8, "{s4} {s6} {s8}");
        // Beyond the sweep: clamped.
        assert_eq!(slowdown_at(&c, inter, 100), s8);
    }

    #[test]
    fn poorly_scalable_layer_prefers_aggregation() {
        // Inter-node on the tiny cluster degrades with concurrency; many
        // small messages should be gathered.
        let c = comm();
        let inter = c.layers.len() - 1;
        let d = aggregation_decision(&c, inter, 8, 512, 0.2);
        assert!(
            d.aggregate,
            "expected aggregation: concurrent {} vs aggregated {}",
            d.concurrent_us, d.aggregated_us
        );
    }

    #[test]
    fn scalable_layer_keeps_messages_separate() {
        // The shared-cache layer barely degrades; for large messages the
        // rendezvous cost of one huge message plus packing loses.
        let c = comm();
        let d = aggregation_decision(&c, 0, 2, 256 * 1024, 0.3);
        assert!(
            !d.aggregate,
            "expected no aggregation: concurrent {} vs aggregated {}",
            d.concurrent_us, d.aggregated_us
        );
    }

    #[test]
    fn single_message_never_aggregates() {
        let c = comm();
        let d = aggregation_decision(&c, 0, 1, 1024, 0.2);
        assert!(!d.aggregate);
        assert!(d.aggregated_us >= d.concurrent_us);
    }

    #[test]
    #[should_panic]
    fn bad_layer_panics() {
        let c = comm();
        aggregation_decision(&c, 99, 2, 64, 0.2);
    }
}
