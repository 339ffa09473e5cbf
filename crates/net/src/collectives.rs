//! Broadcast algorithms over the virtual cluster.
//!
//! The paper's motivation (§I, §V): codes that know the machine's
//! communication layers can pick hierarchy-aware collective algorithms
//! (e.g. Sistare et al., Sanders & Träff, Tipparaju et al. — refs \[5\]-\[7\])
//! instead of topology-blind ones. The three simulated broadcasts here
//! let the autotuning crate *evaluate* that choice against the same
//! network model the Servet benchmarks characterize.

use crate::cluster::VirtualCluster;
use serde::{Deserialize, Serialize};

/// Broadcast algorithm choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BcastAlgorithm {
    /// Root sends to every rank, one message at a time.
    Flat,
    /// Classic binomial tree over rank order, topology-blind.
    BinomialTree,
    /// Hierarchy-aware: binomial tree among node leaders over the network,
    /// then binomial trees inside each node in parallel.
    Hierarchical,
}

impl BcastAlgorithm {
    /// All algorithm variants.
    pub fn all() -> [BcastAlgorithm; 3] {
        [
            BcastAlgorithm::Flat,
            BcastAlgorithm::BinomialTree,
            BcastAlgorithm::Hierarchical,
        ]
    }

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            BcastAlgorithm::Flat => "flat",
            BcastAlgorithm::BinomialTree => "binomial",
            BcastAlgorithm::Hierarchical => "hierarchical",
        }
    }
}

/// Simulated completion time (µs) of broadcasting `size` bytes from rank 0
/// to `ranks` ranks using `algo`.
///
/// `ranks` must not exceed the cluster's rank count. Rank 0 is always the
/// root; callers wanting another root can re-pin affinities.
pub fn broadcast_time_us(
    c: &mut VirtualCluster,
    algo: BcastAlgorithm,
    ranks: usize,
    size: usize,
) -> f64 {
    assert!(ranks >= 1 && ranks <= c.num_ranks());
    match algo {
        BcastAlgorithm::Flat => {
            let mut t = 0.0;
            for r in 1..ranks {
                t += c.send_latency_us(0, r, size);
            }
            t
        }
        BcastAlgorithm::BinomialTree => binomial_time(c, &(0..ranks).collect::<Vec<_>>(), size),
        BcastAlgorithm::Hierarchical => {
            // Group ranks by the node their core sits on.
            let nodes = group_by_node(c, ranks);
            // Stage 1: binomial among node leaders.
            let leaders: Vec<usize> = nodes.iter().map(|g| g[0]).collect();
            let t_inter = binomial_time(c, &leaders, size);
            // Stage 2: per-node binomial trees, concurrently; the stage
            // costs as much as the slowest node.
            let t_intra = nodes
                .iter()
                .map(|g| binomial_time(c, g, size))
                .fold(0.0, f64::max);
            t_inter + t_intra
        }
    }
}

/// Completion time of a binomial-tree broadcast over the given ranks
/// (first rank is the root). Each round's messages are sent concurrently.
fn binomial_time(c: &mut VirtualCluster, ranks: &[usize], size: usize) -> f64 {
    let n = ranks.len();
    if n <= 1 {
        return 0.0;
    }
    let mut t = 0.0;
    let mut have = 1usize; // ranks[0..have] already hold the data
    while have < n {
        let senders = have.min(n - have);
        let pairs: Vec<(usize, usize)> =
            (0..senders).map(|i| (ranks[i], ranks[have + i])).collect();
        let lats = c.concurrent_send_latency_us(&pairs, size);
        t += lats.iter().copied().fold(0.0, f64::max);
        have += senders;
    }
    t
}

/// Ranks `0..ranks` grouped by node, each group in rank order.
fn group_by_node(c: &VirtualCluster, ranks: usize) -> Vec<Vec<usize>> {
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for r in 0..ranks {
        let node = c.topology().node_of(c.core_of_rank(r));
        match groups.iter_mut().find(|(n, _)| *n == node) {
            Some((_, g)) => g.push(r),
            None => groups.push((node, vec![r])),
        }
    }
    groups.sort_by_key(|(n, _)| *n);
    groups.into_iter().map(|(_, g)| g).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn flat_broadcast_is_sum_of_sends() {
        let mut c = presets::tiny_cluster();
        let t = broadcast_time_us(&mut c, BcastAlgorithm::Flat, 4, 1024);
        assert!(t > 0.0);
        // 3 sends, each ≥ the fastest layer's latency.
        assert!(t >= 3.0 * 0.3 * 0.9);
    }

    #[test]
    fn binomial_beats_flat_at_scale() {
        let mut c1 = presets::finis_terrae_cluster(2);
        let mut c2 = presets::finis_terrae_cluster(2);
        let flat = broadcast_time_us(&mut c1, BcastAlgorithm::Flat, 32, 16 * 1024);
        let tree = broadcast_time_us(&mut c2, BcastAlgorithm::BinomialTree, 32, 16 * 1024);
        assert!(tree < flat, "tree {tree} vs flat {flat}");
    }

    #[test]
    fn hierarchical_beats_blind_binomial_across_nodes() {
        // Rank order interleaves nodes badly for the blind tree only when
        // ranks alternate; with the identity affinity the blind binomial
        // sends many inter-node messages, the hierarchical one sends
        // exactly log2(#nodes) rounds of them.
        let mut c1 = presets::finis_terrae_cluster(4);
        let mut c2 = presets::finis_terrae_cluster(4);
        let blind = broadcast_time_us(&mut c1, BcastAlgorithm::BinomialTree, 64, 32 * 1024);
        let hier = broadcast_time_us(&mut c2, BcastAlgorithm::Hierarchical, 64, 32 * 1024);
        assert!(hier < blind, "hier {hier} vs blind {blind}");
    }

    #[test]
    fn single_rank_broadcast_is_free() {
        let mut c = presets::tiny_cluster();
        for algo in BcastAlgorithm::all() {
            assert_eq!(broadcast_time_us(&mut c, algo, 1, 4096), 0.0);
        }
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(BcastAlgorithm::Flat.name(), "flat");
        assert_eq!(BcastAlgorithm::BinomialTree.name(), "binomial");
        assert_eq!(BcastAlgorithm::Hierarchical.name(), "hierarchical");
    }

    #[test]
    fn group_by_node_partitions_ranks() {
        let c = presets::finis_terrae_cluster(2);
        let groups = group_by_node(&c, 32);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], (0..16).collect::<Vec<_>>());
        assert_eq!(groups[1], (16..32).collect::<Vec<_>>());
    }
}
