//! Contention of concurrent messages on shared interconnect resources.
//!
//! §III-D: "Sending concurrently N messages of size S usually costs more
//! than sending one message of size N*S" — cluster networks and memory
//! buses serialize part of each transfer. The model here assigns every
//! message a bottleneck resource from its communication layer and applies a
//! linear slowdown `1 + alpha * (n - 1)` where `n` is the number of
//! concurrent messages on that resource. `alpha` is per-resource: an
//! InfiniBand link with `alpha ≈ 0.19` reproduces the paper's "32 concurrent
//! messages → 7× slower" observation; cache-to-cache transfers have no
//! shared resource and scale almost perfectly.

use crate::topology::{ClusterTopology, GlobalCore, Layer};
use serde::{Deserialize, Serialize};

/// A shared interconnect resource, identified structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Resource {
    /// The memory bus / shared-memory path of a node.
    NodeBus(usize),
    /// The network interface of a node (inter-node messages consume the NIC
    /// of both endpoints' nodes; we charge the sender's).
    Nic(usize),
    /// The cluster switch fabric.
    Switch,
}

/// Per-resource-kind slowdown coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContentionModel {
    /// Slowdown slope for messages sharing a node's memory bus
    /// (intra-node transfers that leave the shared caches).
    pub alpha_bus: f64,
    /// Slowdown slope for messages sharing a NIC / network link.
    pub alpha_nic: f64,
    /// Slowdown slope for shared-cache transfers (near zero: no common
    /// resource beyond the cache itself).
    pub alpha_cache: f64,
}

impl ContentionModel {
    /// Slowdown slope of a resource.
    pub(crate) fn alpha(&self, r: Resource) -> f64 {
        match r {
            Resource::NodeBus(_) => self.alpha_bus,
            Resource::Nic(_) | Resource::Switch => self.alpha_nic,
        }
    }

    /// Slowdown factor for each of `pairs` when all send concurrently.
    ///
    /// Each message takes the worst slowdown over the resources it crosses;
    /// a message crossing no shared resource still pays `alpha_cache`.
    pub(crate) fn slowdowns(
        &self,
        topo: &ClusterTopology,
        pairs: &[(GlobalCore, GlobalCore)],
    ) -> Vec<f64> {
        // Concurrent messages per resource: each node's bus, then each
        // node's NIC, then the switch.
        let nodes = topo.num_nodes;
        let slot = |r: Resource| match r {
            Resource::NodeBus(node) => node,
            Resource::Nic(node) => nodes + node,
            Resource::Switch => 2 * nodes,
        };
        let crossings: Vec<([Resource; 3], usize)> =
            pairs.iter().map(|&(a, b)| crossed(topo, a, b)).collect();
        let mut load = vec![0usize; 2 * nodes + 1];
        for (rs, n) in &crossings {
            for &r in &rs[..*n] {
                load[slot(r)] += 1;
            }
        }
        let others = (pairs.len() as f64 - 1.0).max(0.0);
        crossings
            .iter()
            .map(|(rs, n)| match &rs[..*n] {
                [] => 1.0 + self.alpha_cache * others,
                rs => rs.iter().fold(1.0, |slow: f64, &r| {
                    slow.max(1.0 + self.alpha(r) * (load[slot(r)] as f64 - 1.0))
                }),
            })
            .collect()
    }
}

/// The resources a message between `a` and `b` crosses, as the first `n`
/// of three: none within a shared cache, the node's bus within a node,
/// and both NICs and the switch between nodes.
fn crossed(topo: &ClusterTopology, a: GlobalCore, b: GlobalCore) -> ([Resource; 3], usize) {
    let (node_a, node_b) = (topo.node_of(a), topo.node_of(b));
    let bus = [Resource::NodeBus(node_a); 3];
    match topo.layer_between(a, b) {
        Layer::SharedCache => (bus, 0),
        Layer::IntraProcessor | Layer::IntraCell | Layer::IntraNode => (bus, 1),
        Layer::InterNode => (
            [
                Resource::Nic(node_a),
                Resource::Nic(node_b),
                Resource::Switch,
            ],
            3,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn model() -> ContentionModel {
        ContentionModel {
            alpha_bus: 0.25,
            alpha_nic: 6.0 / 31.0,
            alpha_cache: 0.01,
        }
    }

    #[test]
    fn single_message_no_slowdown() {
        let topo = presets::finis_terrae_topology(2);
        let s = model().slowdowns(&topo, &[(0, 16)]);
        assert!((s[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infiniband_32_messages_roughly_7x() {
        // Paper Fig. 10(b): one of 32 concurrent InfiniBand messages is ~7×
        // slower than an isolated one.
        let topo = presets::finis_terrae_topology(2);
        let pairs: Vec<(usize, usize)> = (0..16).map(|i| (i, 16 + i)).collect();
        let pairs: Vec<(usize, usize)> = pairs
            .iter()
            .chain(
                pairs
                    .iter()
                    .map(|&(a, b)| (b, a))
                    .collect::<Vec<_>>()
                    .iter(),
            )
            .copied()
            .collect();
        assert_eq!(pairs.len(), 32);
        let s = model().slowdowns(&topo, &pairs);
        for &v in &s {
            assert!((v - 7.0).abs() < 0.5, "slowdown = {v}");
        }
    }

    #[test]
    fn shared_cache_messages_scale() {
        let topo = presets::dunnington_topology();
        // All L2-sharing pairs at once: (i, i+12) for i in 0..12.
        let pairs: Vec<(usize, usize)> = (0..12).map(|i| (i, i + 12)).collect();
        let s = model().slowdowns(&topo, &pairs);
        for &v in &s {
            assert!(v < 1.2, "cache-layer slowdown = {v}");
        }
    }

    #[test]
    fn bus_messages_contend() {
        let topo = presets::dunnington_topology();
        // Cross-processor messages share the node bus.
        let pairs: Vec<(usize, usize)> = vec![(0, 3), (1, 4), (2, 5), (12, 15)];
        let s = model().slowdowns(&topo, &pairs);
        let expect = 1.0 + 0.25 * 3.0;
        for &v in &s {
            assert!((v - expect).abs() < 1e-9, "{v} != {expect}");
        }
    }

    #[test]
    fn mixed_traffic_isolates_layers() {
        let topo = presets::dunnington_topology();
        // One shared-cache message plus three bus messages: the cache
        // message must stay near 1.
        let pairs = vec![(0, 12), (1, 4), (2, 5), (3, 6)];
        let s = model().slowdowns(&topo, &pairs);
        assert!(s[0] < 1.1, "cache message slowed: {}", s[0]);
        assert!(s[1] > 1.4, "bus message unslowed: {}", s[1]);
    }

    #[test]
    fn resources_for_layers() {
        let m = model();
        let resources = |topo: &ClusterTopology, a, b| {
            let (rs, n) = crossed(topo, a, b);
            rs[..n].to_vec()
        };
        let topo = presets::finis_terrae_topology(2);
        assert_eq!(resources(&topo, 0, 1), vec![Resource::NodeBus(0)]);
        let inter = resources(&topo, 0, 16);
        assert!(inter.contains(&Resource::Nic(0)));
        assert!(inter.contains(&Resource::Nic(1)));
        assert!(inter.contains(&Resource::Switch));
        let dun = presets::dunnington_topology();
        assert!(resources(&dun, 0, 12).is_empty());
        assert!((m.alpha(Resource::Switch) - 6.0 / 31.0).abs() < 1e-12);
    }
}
