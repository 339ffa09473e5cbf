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
    let nodes: Vec<usize> = (0..ranks)
        .map(|r| c.topology().node_of(c.core_of_rank(r)))
        .collect();
    broadcast_schedule_us(algo, &nodes, |pairs| {
        c.concurrent_send_latency_us(pairs, size)
            .into_iter()
            .fold(0.0, f64::max)
    })
}

/// Completion time of broadcasting from rank 0 to the ranks `0..nodes.len()`
/// with `algo`, where rank `r` sits on node `nodes[r]`.
///
/// The schedule is the algorithm's definition; the price is the caller's.
/// `round` prices one round, the `(sender, receiver)` rank pairs whose
/// messages travel concurrently, and rounds run one after another:
/// * flat is `ranks − 1` one-message rounds from the root;
/// * binomial doubles the ranks holding the data each round;
/// * hierarchical runs a binomial tree among the node leaders (each node's
///   first rank, in the order rank 0's node first), then one binomial tree
///   per node, concurrently, costing as much as the slowest node.
pub fn broadcast_schedule_us(
    algo: BcastAlgorithm,
    nodes: &[usize],
    mut round: impl FnMut(&[(usize, usize)]) -> f64,
) -> f64 {
    let ranks: Vec<usize> = (0..nodes.len()).collect();
    match algo {
        BcastAlgorithm::Flat => (1..nodes.len()).fold(0.0, |t, r| t + round(&[(0, r)])),
        BcastAlgorithm::BinomialTree => binomial_us(&ranks, &mut round),
        BcastAlgorithm::Hierarchical => {
            let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
            for (r, &node) in nodes.iter().enumerate() {
                match groups.iter_mut().find(|(n, _)| *n == node) {
                    Some((_, g)) => g.push(r),
                    None => groups.push((node, vec![r])),
                }
            }
            let leaders: Vec<usize> = groups.iter().map(|(_, g)| g[0]).collect();
            let inter = binomial_us(&leaders, &mut round);
            inter
                + groups
                    .iter()
                    .map(|(_, g)| binomial_us(g, &mut round))
                    .fold(0.0, f64::max)
        }
    }
}

/// Binomial tree over `ranks` rooted at `ranks[0]`: each round, every rank
/// holding the data sends to one that does not.
fn binomial_us(ranks: &[usize], round: &mut impl FnMut(&[(usize, usize)]) -> f64) -> f64 {
    let mut t = 0.0;
    let mut have = 1; // ranks[..have] already hold the data
    while have < ranks.len() {
        let senders = have.min(ranks.len() - have);
        let pairs: Vec<(usize, usize)> =
            (0..senders).map(|i| (ranks[i], ranks[have + i])).collect();
        t += round(&pairs);
        have += senders;
    }
    t
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
        // +0.0 exactly: a sum that starts at −0.0 prints "-0.0".
        let mut c = presets::tiny_cluster();
        for algo in BcastAlgorithm::all() {
            assert_eq!(broadcast_time_us(&mut c, algo, 1, 4096).to_bits(), 0);
        }
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(BcastAlgorithm::Flat.name(), "flat");
        assert_eq!(BcastAlgorithm::BinomialTree.name(), "binomial");
        assert_eq!(BcastAlgorithm::Hierarchical.name(), "hierarchical");
    }

    /// Every round of an algorithm's schedule, and its cost when each
    /// round costs 1.
    fn rounds(algo: BcastAlgorithm, nodes: &[usize]) -> (Vec<Vec<(usize, usize)>>, f64) {
        let mut seen = Vec::new();
        let t = broadcast_schedule_us(algo, nodes, |pairs| {
            seen.push(pairs.to_vec());
            1.0
        });
        (seen, t)
    }

    #[test]
    fn schedules_list_their_rounds() {
        let (flat, t) = rounds(BcastAlgorithm::Flat, &[0; 4]);
        assert_eq!(flat, [vec![(0, 1)], vec![(0, 2)], vec![(0, 3)]]);
        assert_eq!(t, 3.0);
        let (binomial, t) = rounds(BcastAlgorithm::BinomialTree, &[0; 8]);
        assert_eq!(
            binomial,
            [
                vec![(0, 1)],
                vec![(0, 2), (1, 3)],
                vec![(0, 4), (1, 5), (2, 6), (3, 7)],
            ]
        );
        assert_eq!(t, 3.0);
        // 2 nodes × 4 ranks: the leaders' round, then both nodes' trees,
        // which overlap: 1 + max(2, 2).
        let (hier, t) = rounds(BcastAlgorithm::Hierarchical, &[0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(
            hier,
            [
                vec![(0, 4)],
                vec![(0, 1)],
                vec![(0, 2), (1, 3)],
                vec![(4, 5)],
                vec![(4, 6), (5, 7)],
            ]
        );
        assert_eq!(t, 3.0);
    }

    #[test]
    fn group_by_node_partitions_ranks() {
        // On 2 nodes × 16 cores: the leaders are each node's first rank,
        // every later message stays inside one node, and every other rank
        // receives exactly once.
        let c = presets::finis_terrae_cluster(2);
        let nodes: Vec<usize> = (0..32)
            .map(|r| c.topology().node_of(c.core_of_rank(r)))
            .collect();
        let (hier, _) = rounds(BcastAlgorithm::Hierarchical, &nodes);
        assert_eq!(hier[0], [(0, 16)]);
        let mut reached: Vec<usize> = hier[1..]
            .iter()
            .flatten()
            .map(|&(a, b)| {
                assert_eq!(nodes[a], nodes[b]);
                b
            })
            .collect();
        reached.sort_unstable();
        assert_eq!(reached, (1..16).chain(17..32).collect::<Vec<_>>());
    }

    #[test]
    fn hierarchical_tree_is_rooted_at_rank_zero() {
        // Rank 0 on node 1: its node leads the leaders' tree.
        let (hier, _) = rounds(BcastAlgorithm::Hierarchical, &[1, 1, 0, 0]);
        assert_eq!(hier, [vec![(0, 2)], vec![(0, 1)], vec![(2, 3)]]);
    }
}
