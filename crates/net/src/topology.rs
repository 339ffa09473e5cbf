//! Cluster topology: core placement and ground-truth communication layers.
//!
//! A cluster is `num_nodes` identical shared-memory nodes. Within a node,
//! each core belongs to a cell (NUMA domain), a processor (socket) and
//! possibly an L2-sharing group; between nodes, messages cross the
//! interconnection network. The communication layer of a core pair is fully
//! determined by the closest structure the two cores share — this is the
//! hierarchy the paper's Fig. 7 benchmark discovers experimentally.

use serde::{Deserialize, Serialize};

/// A cluster-wide core index: `node * cores_per_node + local_core`.
pub(crate) type GlobalCore = usize;

/// Communication layer between two cores, ordered from fastest to slowest.
///
/// Not every machine exhibits every layer: Dunnington (single node) has
/// `SharedCache` / `IntraProcessor` / `IntraNode`; Finis Terrae has
/// `IntraCell` / `IntraNode` / `InterNode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Layer {
    /// The pair shares a cache level (e.g. Dunnington L2 pairs): transfers
    /// can complete inside the cache.
    SharedCache,
    /// Same socket, no shared cache between exactly this pair (e.g. two
    /// cores of a hexa-core sharing only L3).
    IntraProcessor,
    /// Same NUMA cell, different sockets.
    IntraCell,
    /// Same node, different cells (or different sockets on a flat node).
    IntraNode,
    /// Different nodes: the message crosses the cluster network.
    InterNode,
}

/// Placement of every core of a cluster.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterTopology {
    /// Human-readable cluster name.
    pub name: String,
    /// Number of identical nodes.
    pub num_nodes: usize,
    /// Cores per node.
    pub cores_per_node: usize,
    /// `cell_of[local_core]` — NUMA cell within the node.
    pub cell_of: Vec<usize>,
    /// `proc_of[local_core]` — socket within the node.
    pub proc_of: Vec<usize>,
    /// `l2_group_of[local_core]` — L2 sharing group within the node; cores
    /// with private L2s get unique group ids.
    pub l2_group_of: Vec<usize>,
}

impl ClusterTopology {
    /// Validate internal consistency.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.num_nodes == 0 || self.cores_per_node == 0 {
            return Err("empty cluster".into());
        }
        for (name, v) in [
            ("cell_of", &self.cell_of),
            ("proc_of", &self.proc_of),
            ("l2_group_of", &self.l2_group_of),
        ] {
            if v.len() != self.cores_per_node {
                return Err(format!(
                    "{name} has {} entries, want {}",
                    v.len(),
                    self.cores_per_node
                ));
            }
        }
        Ok(())
    }

    /// Total number of cores in the cluster.
    pub fn total_cores(&self) -> usize {
        self.num_nodes * self.cores_per_node
    }

    /// Node of a global core.
    pub(crate) fn node_of(&self, core: GlobalCore) -> usize {
        core / self.cores_per_node
    }

    /// Local index of a global core within its node.
    pub(crate) fn local_of(&self, core: GlobalCore) -> usize {
        core % self.cores_per_node
    }

    /// Ground-truth communication layer between two distinct cores.
    pub fn layer_between(&self, a: GlobalCore, b: GlobalCore) -> Layer {
        assert_ne!(a, b, "no layer between a core and itself");
        if self.node_of(a) != self.node_of(b) {
            return Layer::InterNode;
        }
        let (la, lb) = (self.local_of(a), self.local_of(b));
        if self.l2_group_of[la] == self.l2_group_of[lb] {
            Layer::SharedCache
        } else if self.proc_of[la] == self.proc_of[lb] {
            Layer::IntraProcessor
        } else if self.cell_of[la] == self.cell_of[lb]
            && self.cell_of.iter().any(|&c| c != self.cell_of[la])
        {
            Layer::IntraCell
        } else {
            Layer::IntraNode
        }
    }

    /// The distinct layers this topology exhibits, fastest first.
    pub fn layers_present(&self) -> Vec<Layer> {
        let total = self.total_cores();
        let mut layers = Vec::new();
        for a in 0..total {
            for b in a + 1..total {
                let l = self.layer_between(a, b);
                if !layers.contains(&l) {
                    layers.push(l);
                }
            }
        }
        layers.sort();
        layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn dunnington_layers() {
        let t = presets::dunnington_topology();
        t.validate().unwrap();
        assert_eq!(t.total_cores(), 24);
        // Paper Fig. 10(a): core 0 ↔ 12 share L2; 0 ↔ 1 share the hexa-core;
        // 0 ↔ 3 are on different processors.
        assert_eq!(t.layer_between(0, 12), Layer::SharedCache);
        assert_eq!(t.layer_between(0, 1), Layer::IntraProcessor);
        assert_eq!(t.layer_between(0, 13), Layer::IntraProcessor);
        assert_eq!(t.layer_between(0, 3), Layer::IntraNode);
        let layers = t.layers_present();
        assert_eq!(
            layers,
            vec![Layer::SharedCache, Layer::IntraProcessor, Layer::IntraNode]
        );
    }

    #[test]
    fn finis_terrae_layer_structure() {
        // Cores 0-7 in cell 0, 8-15 in cell 1, 16+ on node 1. The Itanium
        // dual-cores have private L2s, so a same-socket pair is
        // IntraProcessor, never SharedCache.
        let t = presets::finis_terrae_topology(2);
        t.validate().unwrap();
        assert_eq!(t.total_cores(), 32);
        assert_eq!(t.layer_between(0, 1), Layer::IntraProcessor);
        assert_eq!(t.layer_between(0, 2), Layer::IntraCell);
        assert_eq!(t.layer_between(0, 8), Layer::IntraNode);
        assert_eq!(t.layer_between(0, 16), Layer::InterNode);
        assert_eq!(t.layer_between(5, 21), Layer::InterNode);
        let layers = t.layers_present();
        assert_eq!(
            layers,
            vec![
                Layer::IntraProcessor,
                Layer::IntraCell,
                Layer::IntraNode,
                Layer::InterNode
            ]
        );
    }

    #[test]
    fn layer_is_symmetric() {
        let t = presets::finis_terrae_topology(2);
        for a in 0..12 {
            for b in a + 1..12 {
                assert_eq!(t.layer_between(a, b), t.layer_between(b, a));
            }
        }
    }

    #[test]
    #[should_panic]
    fn self_layer_panics() {
        let t = presets::dunnington_topology();
        t.layer_between(3, 3);
    }

    #[test]
    fn node_and_local_math() {
        let t = presets::finis_terrae_topology(3);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(16), 1);
        assert_eq!(t.node_of(47), 2);
        assert_eq!(t.local_of(17), 1);
    }

    #[test]
    fn validation_catches_bad_lengths() {
        let mut t = presets::dunnington_topology();
        t.cell_of.pop();
        assert!(t.validate().is_err());
    }

    #[test]
    fn layer_ordering_fastest_first() {
        assert!(Layer::SharedCache < Layer::IntraProcessor);
        assert!(Layer::IntraProcessor < Layer::IntraCell);
        assert!(Layer::IntraCell < Layer::IntraNode);
        assert!(Layer::IntraNode < Layer::InterNode);
    }
}
