//! Property end-to-end tests: the Servet benchmarks must recover the
//! ground truth of *generated* machines, not just the hand-built presets.
//! The domains are small, so each property enumerates its own.

use servet::core::{
    characterize_communication, characterize_memory, detect_shared_caches, CommConfig, SimPlatform,
};
use servet::net::{ClusterTopology, CommModel, Layer, LayerModel, ProtocolSegment, VirtualCluster};
use servet::sim::spec::{MachineSpec, MemResource};
use servet::sim::{Machine, KB};

/// A random partition of `0..cores` into groups of size `group`.
fn grouping(cores: usize, group: usize, shuffle_seed: u64) -> Vec<Vec<usize>> {
    // Deterministic pseudo-shuffle: rotate by the seed.
    let mut ids: Vec<usize> = (0..cores).collect();
    ids.rotate_left((shuffle_seed as usize) % cores);
    ids.chunks(group).map(|c| c.to_vec()).collect()
}

fn machine_with_l2_groups(groups: Vec<Vec<usize>>) -> MachineSpec {
    let mut spec = servet::sim::presets::tiny_smp();
    spec.name = "random_l2".into();
    spec.caches[1].sharing = groups;
    spec.caches[1].size = 128 * KB;
    spec
}

/// The shared-cache benchmark recovers arbitrary L2 pairings.
#[test]
fn shared_cache_recovers_random_pairings() {
    for rot in 0u64..4 {
        let groups = grouping(4, 2, rot);
        let spec = machine_with_l2_groups(groups.clone());
        let truth = spec.sharing_pairs(2);
        let machine = Machine::with_seed(spec, 1000 + rot);
        let mut platform = SimPlatform::new(machine, None).with_noise(0.003);
        let result = detect_shared_caches(&mut platform, &[8 * KB, 128 * KB]);
        assert_eq!(result.levels[1].sharing_pairs, truth, "rot {rot}");
        assert!(result.levels[0].sharing_pairs.is_empty(), "rot {rot}");
    }
}

/// The memory-overhead benchmark recovers arbitrary bus groupings.
#[test]
fn memory_groups_recover_random_buses() {
    for rot in 0u64..8 {
        // Bus capacities spread evenly over [1.2, 3.0) GB/s.
        let cap = 1.2 + 0.225 * rot as f64;
        let cores = 8usize;
        let mut spec = servet::sim::presets::tiny_smp();
        spec.name = "random_mem".into();
        spec.num_cores = cores;
        for c in &mut spec.caches {
            c.sharing = (0..cores).map(|x| vec![x]).collect();
        }
        let groups = grouping(cores, 2, rot);
        spec.memory.resources = groups
            .iter()
            .enumerate()
            .map(|(i, g)| MemResource {
                name: format!("bus{i}"),
                capacity_gbs: cap,
                cores: g.clone(),
            })
            .collect();
        spec.memory.core_stream_gbs = 2.0;
        let machine = Machine::with_seed(spec, 2000 + rot);
        let mut platform = SimPlatform::new(machine, None).with_noise(0.003);
        let result = characterize_memory(&mut platform);
        // One overhead class whose groups are exactly the buses (sorted).
        assert_eq!(result.num_classes(), 1, "rot {rot}, cap {cap}");
        let mut expected: Vec<Vec<usize>> = groups
            .into_iter()
            .map(|mut g| {
                g.sort_unstable();
                g
            })
            .collect();
        expected.sort();
        let mut got = result.overheads[0].groups.clone();
        got.sort();
        assert_eq!(got, expected, "rot {rot}, cap {cap}");
        // And the magnitude is the fair share of the bus.
        let bw = result.overheads[0].bandwidth_gbs;
        assert!(
            (bw - (cap / 2.0).min(2.0)).abs() < 0.1,
            "rot {rot}, cap {cap}: bw = {bw}"
        );
    }
}

/// The communication benchmark finds exactly the layers a random
/// cluster topology exhibits, and classifies every pair correctly.
#[test]
fn comm_layers_recover_random_topologies() {
    for nodes in 1usize..3 {
        for procs_per_node in 1usize..3 {
            for rot in 0usize..4 {
                comm_layers_recovered(nodes, procs_per_node, rot);
            }
        }
    }
}

fn comm_layers_recovered(nodes: usize, procs_per_node: usize, rot: usize) {
    let cores_per_node = procs_per_node * 2;
    let mut proc_of: Vec<usize> = (0..cores_per_node).map(|c| c / 2).collect();
    proc_of.rotate_left(rot % cores_per_node);
    let topo = ClusterTopology {
        name: "random".into(),
        num_nodes: nodes,
        cores_per_node,
        cell_of: vec![0; cores_per_node],
        proc_of,
        l2_group_of: (0..cores_per_node).collect(),
    };
    let expected_layers = topo.layers_present();
    let seg = |max: usize, base: f64, per: f64| ProtocolSegment {
        max_size: max,
        base_us: base,
        per_byte_ns: per,
    };
    let model = CommModel::new(
        vec![
            (
                Layer::IntraProcessor,
                LayerModel::new(vec![seg(usize::MAX, 0.5, 0.15)]),
            ),
            (
                Layer::IntraNode,
                LayerModel::new(vec![seg(usize::MAX, 1.0, 0.3)]),
            ),
            (
                Layer::InterNode,
                LayerModel::new(vec![seg(usize::MAX, 3.0, 0.4)]),
            ),
        ],
        0.015,
    );
    let cluster = VirtualCluster::new(
        topo.clone(),
        model,
        servet::net::presets::contention_default(),
    );
    let machine = Machine::new(machine_with_l2_groups((0..4).map(|c| vec![c]).collect()));
    let mut platform = SimPlatform::new(machine, Some(cluster)).with_noise(0.0);
    let result = characterize_communication(&mut platform, &CommConfig::small(8 * KB));
    let case = format!("{nodes} nodes × {procs_per_node} procs, rot {rot}");
    assert_eq!(result.num_layers(), expected_layers.len(), "{case}");
    // Every measured pair sits in the layer matching the topology:
    // layers are sorted fastest-first and so is `expected_layers`.
    for &((a, b), _) in &result.pair_latency {
        let truth = topo.layer_between(a, b);
        let idx = expected_layers.iter().position(|&l| l == truth).unwrap();
        assert_eq!(result.layer_of(a, b), Some(idx), "{case}: pair ({a}, {b})");
    }
}
