//! Hierarchy-aware collective algorithm selection.
//!
//! The paper's §I cites hierarchy-aware collectives (refs. \[5\]-\[7\]) as a
//! prime consumer of topology knowledge. Given a measured
//! [`MachineProfile`], this module predicts the completion time of each
//! broadcast algorithm *using only profile data* (per-layer latencies and
//! the measured contention sweep) and picks the winner. The test suite
//! then verifies the pick against the ground-truth virtual cluster.

use crate::aggregation::{message_us, UNMEASURED_PAIR_US};
use serde::{Deserialize, Serialize};
use servet_core::profile::MachineProfile;
use servet_net::collectives::broadcast_schedule_us;
pub use servet_net::collectives::BcastAlgorithm;

/// Predicted cost of one algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BcastPrediction {
    /// The algorithm.
    pub algorithm: BcastAlgorithm,
    /// Predicted completion time, µs.
    pub predicted_us: f64,
}

/// Predict the completion time of `algo` broadcasting `size` bytes from
/// core 0 to cores `0..ranks` (identity rank→core mapping): the cluster's
/// schedule, each round costing its slowest message at the round's
/// message count.
pub(crate) fn predict_broadcast_us(
    profile: &MachineProfile,
    algo: BcastAlgorithm,
    ranks: usize,
    size: usize,
) -> f64 {
    assert!(ranks >= 1 && ranks <= profile.total_cores);
    let per_node = profile.cores_per_node.max(1);
    let nodes: Vec<usize> = (0..ranks).map(|r| r / per_node).collect();
    let comm = profile.communication.as_ref();
    broadcast_schedule_us(algo, &nodes, |pairs| {
        pairs
            .iter()
            .map(|&(a, b)| {
                comm.map_or(UNMEASURED_PAIR_US, |c| {
                    message_us(c, c.layer_of(a, b), size, pairs.len())
                })
            })
            .fold(0.0, f64::max)
    })
}

/// Pick the algorithm with the lowest predicted time; returns all
/// predictions, best first.
pub fn select_broadcast(
    profile: &MachineProfile,
    ranks: usize,
    size: usize,
) -> Vec<BcastPrediction> {
    servet_obs::counter("autotune.bcast.rankings").incr();
    let mut preds: Vec<BcastPrediction> = BcastAlgorithm::all()
        .into_iter()
        .map(|algorithm| BcastPrediction {
            algorithm,
            predicted_us: predict_broadcast_us(profile, algorithm, ranks, size),
        })
        .collect();
    preds.sort_by(|a, b| a.predicted_us.total_cmp(&b.predicted_us));
    preds
}

#[cfg(test)]
mod tests {
    use super::*;
    use servet_core::SimPlatform;
    use servet_core::{run_full_suite, SuiteConfig};
    use servet_net::collectives::broadcast_time_us;

    fn profile() -> MachineProfile {
        let mut p = SimPlatform::tiny_cluster().with_noise(0.003);
        let cfg = SuiteConfig {
            skip_shared: true,
            skip_memory: true,
            ..SuiteConfig::small(256 * 1024)
        };
        run_full_suite(&mut p, &cfg).profile
    }

    #[test]
    fn flat_is_sum_binomial_is_less() {
        let prof = profile();
        let flat = predict_broadcast_us(&prof, BcastAlgorithm::Flat, 8, 8 * 1024);
        let tree = predict_broadcast_us(&prof, BcastAlgorithm::BinomialTree, 8, 8 * 1024);
        assert!(tree < flat, "tree {tree} vs flat {flat}");
    }

    #[test]
    fn selection_orders_predictions() {
        let prof = profile();
        let preds = select_broadcast(&prof, 8, 8 * 1024);
        assert_eq!(preds.len(), 3);
        assert!(preds
            .windows(2)
            .all(|w| w[0].predicted_us <= w[1].predicted_us));
    }

    #[test]
    fn predicted_winner_wins_on_ground_truth() {
        // The profile-driven pick must match (or tie within 10 %) the
        // empirically best algorithm on the actual virtual cluster.
        let prof = profile();
        let pick = select_broadcast(&prof, 8, 8 * 1024)[0].algorithm;
        let mut best = (BcastAlgorithm::Flat, f64::INFINITY);
        let mut picked_time = f64::INFINITY;
        for algo in BcastAlgorithm::all() {
            let mut cluster = servet_net::presets::tiny_cluster();
            let t = broadcast_time_us(&mut cluster, algo, 8, 8 * 1024);
            if t < best.1 {
                best = (algo, t);
            }
            if algo == pick {
                picked_time = t;
            }
        }
        assert!(
            picked_time <= best.1 * 1.10,
            "picked {pick:?} at {picked_time}, best {best:?}"
        );
    }

    #[test]
    fn single_rank_is_free() {
        // +0.0 exactly: a sum that starts at −0.0 prints "-0.0".
        let prof = profile();
        for algo in BcastAlgorithm::all() {
            assert_eq!(predict_broadcast_us(&prof, algo, 1, 1024).to_bits(), 0);
        }
    }

    #[test]
    fn hierarchical_wins_across_nodes_for_small_messages() {
        let prof = profile();
        // All 8 cores span two nodes; the hierarchical tree should not
        // lose to the flat broadcast.
        let hier = predict_broadcast_us(&prof, BcastAlgorithm::Hierarchical, 8, 4 * 1024);
        let flat = predict_broadcast_us(&prof, BcastAlgorithm::Flat, 8, 4 * 1024);
        assert!(hier < flat);
    }
}
