//! Cluster presets: the paper's two evaluation clusters.
//!
//! The latency parameters are representative of the middleware the paper
//! used (MPICH2 1.1.1 shared memory on Dunnington; HP MPI 2.2.5.1 with SHM
//! and InfiniBand IBV devices on Finis Terrae). As with the machine presets,
//! the *shape* is what matters: layer ordering, the ~2× intra/inter-node
//! gap, eager→rendezvous knees, and the contention coefficients that make
//! 32 concurrent InfiniBand messages ~7× slower.

use crate::cluster::VirtualCluster;
use crate::contention::ContentionModel;
use crate::model::{CommModel, LayerModel, ProtocolSegment};
use crate::topology::{ClusterTopology, Layer};

const KB: usize = 1024;
const MB: usize = 1024 * 1024;

fn seg(max_size: usize, base_us: f64, per_byte_ns: f64) -> ProtocolSegment {
    ProtocolSegment {
        max_size,
        base_us,
        per_byte_ns,
    }
}

/// Topology of the 24-core Dunnington node (a single-node "cluster").
///
/// Socket `p` holds cores `{3p..3p+2} ∪ {3p+12..3p+14}`; L2 pairs are
/// `(3p+i, 3p+12+i)` — matching the spec in `servet_sim::presets` and the
/// paper's Fig. 8(a).
pub fn dunnington_topology() -> ClusterTopology {
    let cores = 24;
    let mut proc_of = vec![0usize; cores];
    let mut l2_group_of = vec![0usize; cores];
    for p in 0..4 {
        for i in 0..3 {
            proc_of[3 * p + i] = p;
            proc_of[3 * p + 12 + i] = p;
            l2_group_of[3 * p + i] = 3 * p + i;
            l2_group_of[3 * p + 12 + i] = 3 * p + i;
        }
    }
    ClusterTopology {
        name: "dunnington".into(),
        num_nodes: 1,
        cores_per_node: cores,
        cell_of: vec![0; cores],
        proc_of,
        l2_group_of,
    }
}

/// Communication model of the Dunnington node (MPICH2 shared memory).
pub fn dunnington_comm_model() -> CommModel {
    CommModel::new(
        vec![
            (
                Layer::SharedCache,
                LayerModel::new(vec![
                    seg(64 * KB, 0.4, 0.15),
                    seg(2 * MB, 2.0, 0.25),
                    seg(usize::MAX, 3.0, 0.50),
                ]),
            ),
            (
                Layer::IntraProcessor,
                LayerModel::new(vec![
                    seg(64 * KB, 0.6, 0.20),
                    seg(8 * MB, 2.5, 0.30),
                    seg(usize::MAX, 3.5, 0.55),
                ]),
            ),
            (
                Layer::IntraNode,
                LayerModel::new(vec![seg(64 * KB, 0.9, 0.45), seg(usize::MAX, 3.0, 0.50)]),
            ),
        ],
        0.02,
    )
}

/// Topology of `nodes` Finis Terrae nodes: 16 cores per node in two cells
/// of four dual-core sockets; all caches private.
pub fn finis_terrae_topology(nodes: usize) -> ClusterTopology {
    let cores = 16;
    ClusterTopology {
        name: "finis_terrae".into(),
        num_nodes: nodes,
        cores_per_node: cores,
        cell_of: (0..cores).map(|c| c / 8).collect(),
        proc_of: (0..cores).map(|c| c / 2).collect(),
        // Private L2s: unique group per core.
        l2_group_of: (0..cores).collect(),
    }
}

/// Communication model of Finis Terrae (HP MPI: SHM intra-node, IBV
/// inter-node over 20 Gbps InfiniBand).
pub fn finis_terrae_comm_model() -> CommModel {
    CommModel::new(
        vec![
            (
                Layer::IntraProcessor,
                LayerModel::new(vec![seg(64 * KB, 0.5, 0.25), seg(usize::MAX, 2.0, 0.40)]),
            ),
            (
                Layer::IntraCell,
                LayerModel::new(vec![seg(64 * KB, 0.7, 0.33), seg(usize::MAX, 2.4, 0.45)]),
            ),
            (
                Layer::IntraNode,
                LayerModel::new(vec![seg(64 * KB, 0.9, 0.42), seg(usize::MAX, 3.0, 0.50)]),
            ),
            (
                Layer::InterNode,
                LayerModel::new(vec![seg(12 * KB, 3.0, 0.40), seg(usize::MAX, 8.0, 0.38)]),
            ),
        ],
        0.02,
    )
}

/// Default contention coefficients: `alpha_nic = 6/31` makes one of 32
/// concurrent InfiniBand messages exactly 7× slower (paper Fig. 10b);
/// buses degrade a little faster per extra message; shared-cache
/// transfers barely contend.
pub fn contention_default() -> ContentionModel {
    ContentionModel {
        alpha_bus: 0.25,
        alpha_nic: 6.0 / 31.0,
        alpha_cache: 0.01,
    }
}

/// The Dunnington node as a ready-to-measure cluster.
pub fn dunnington_cluster() -> VirtualCluster {
    VirtualCluster::new(
        dunnington_topology(),
        dunnington_comm_model(),
        contention_default(),
    )
}

/// `nodes` Finis Terrae nodes as a ready-to-measure cluster. The paper
/// uses 2 nodes (32 cores), "enough to characterize all the different
/// communication costs".
pub fn finis_terrae_cluster(nodes: usize) -> VirtualCluster {
    VirtualCluster::new(
        finis_terrae_topology(nodes),
        finis_terrae_comm_model(),
        contention_default(),
    )
}

/// A 2-node × 4-core toy cluster for fast tests: cores 0-1 share a cache,
/// all four cores of a node share the bus.
pub fn tiny_cluster() -> VirtualCluster {
    let topo = ClusterTopology {
        name: "tiny".into(),
        num_nodes: 2,
        cores_per_node: 4,
        cell_of: vec![0; 4],
        proc_of: vec![0, 0, 1, 1],
        l2_group_of: vec![0, 0, 1, 2],
    };
    let model = CommModel::new(
        vec![
            (
                Layer::SharedCache,
                LayerModel::new(vec![seg(16 * KB, 0.3, 0.1), seg(usize::MAX, 1.0, 0.2)]),
            ),
            (
                Layer::IntraProcessor,
                LayerModel::new(vec![seg(16 * KB, 0.5, 0.15), seg(usize::MAX, 1.5, 0.3)]),
            ),
            (
                Layer::IntraNode,
                LayerModel::new(vec![seg(16 * KB, 0.8, 0.3), seg(usize::MAX, 2.0, 0.45)]),
            ),
            (
                Layer::InterNode,
                LayerModel::new(vec![seg(8 * KB, 2.0, 0.4), seg(usize::MAX, 6.0, 0.4)]),
            ),
        ],
        0.02,
    );
    VirtualCluster::new(topo, model, contention_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dunnington_layer_latency_ordering_at_l1_size() {
        // Fig. 10(a): at the 32 KB (L1) message size, shared-L2 beats
        // intra-processor beats inter-processor.
        let m = dunnington_comm_model();
        let s = 32 * KB;
        let sc = m.latency_us(Layer::SharedCache, s);
        let ip = m.latency_us(Layer::IntraProcessor, s);
        let inode = m.latency_us(Layer::IntraNode, s);
        assert!(sc < ip && ip < inode, "{sc} {ip} {inode}");
        // Layers must be separable by the suite's clustering tolerance.
        assert!(ip / sc > 1.2, "ip/sc = {}", ip / sc);
        assert!(inode / ip > 1.2, "inode/ip = {}", inode / ip);
    }

    #[test]
    fn finis_terrae_inter_node_roughly_2x() {
        let m = finis_terrae_comm_model();
        let s = 16 * KB;
        let intra = [
            m.latency_us(Layer::IntraProcessor, s),
            m.latency_us(Layer::IntraCell, s),
            m.latency_us(Layer::IntraNode, s),
        ];
        let inter = m.latency_us(Layer::InterNode, s);
        let mean_intra: f64 = intra.iter().sum::<f64>() / 3.0;
        let ratio = inter / mean_intra;
        assert!((1.7..3.0).contains(&ratio), "ratio = {ratio}");
        // Adjacent intra layers separable at ≥ 20 %.
        assert!(intra[1] / intra[0] > 1.2);
        assert!(intra[2] / intra[1] > 1.2);
    }

    #[test]
    fn infiniband_asymptotic_bandwidth() {
        // 20 Gbps InfiniBand ≈ 2.5 GB/s effective.
        let m = finis_terrae_comm_model();
        let bw = m.layer(Layer::InterNode).bandwidth_gbs(16 * MB);
        assert!((2.0..3.0).contains(&bw), "bw = {bw}");
    }

    #[test]
    fn shared_cache_bandwidth_beats_bus_at_medium_sizes() {
        let m = dunnington_comm_model();
        let s = MB;
        let sc = m.layer(Layer::SharedCache).bandwidth_gbs(s);
        let inn = m.layer(Layer::IntraNode).bandwidth_gbs(s);
        assert!(sc > inn, "{sc} vs {inn}");
    }

    #[test]
    fn tiny_cluster_is_consistent() {
        let c = tiny_cluster();
        assert_eq!(c.num_ranks(), 8);
        assert_eq!(c.topology().layers_present(None).len(), 4);
    }

    #[test]
    fn preset_clusters_construct() {
        assert_eq!(dunnington_cluster().num_ranks(), 24);
        assert_eq!(finis_terrae_cluster(2).num_ranks(), 32);
        assert_eq!(
            finis_terrae_cluster(1)
                .topology()
                .layers_present(None)
                .len(),
            3
        );
    }
}
