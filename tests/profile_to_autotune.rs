//! Cross-crate flow: measure with servet-core, persist the profile, and
//! drive every servet-autotune consumer from the reloaded file — the
//! paper's install-once / consult-at-runtime workflow (§IV-E).

use servet::autotune::tiling::select_tile;
use servet::autotune::{
    aggregation_decision, select_broadcast, BcastAlgorithm, CommPattern, Placer,
};
use servet::prelude::*;

fn measured_profile() -> MachineProfile {
    let mut platform = SimPlatform::tiny_cluster().with_noise(0.003);
    let report = run_full_suite(&mut platform, &SuiteConfig::small(256 * 1024));
    // Persist and reload, as a real application would.
    let dir = std::env::temp_dir().join("servet-autotune-flow");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("profile.json");
    report.profile.save(&path).unwrap();
    MachineProfile::load(&path).unwrap()
}

#[test]
fn placement_from_reloaded_profile() {
    let profile = measured_profile();
    let placer = Placer::new(&profile);
    // Ranks 0..3 exchange with ranks 4..7 (shift by 4): linear placement
    // puts each pair across sockets; the placer should do better or equal.
    let pattern = CommPattern::shift(8, 4, 8 * 1024);
    let linear = placer.linear(&pattern);
    let greedy = placer.greedy(&pattern);
    assert!(greedy.cost_us <= linear.cost_us);
    // Mapping is a valid assignment of distinct cores.
    let mut cores = greedy.mapping.clone();
    cores.sort_unstable();
    cores.dedup();
    assert_eq!(cores.len(), pattern.ranks);
}

#[test]
fn tiling_from_reloaded_profile() {
    let profile = measured_profile();
    let l1 = select_tile(&profile, 1, 8, 3, 0.75).unwrap();
    let l2 = select_tile(&profile, 2, 8, 3, 0.75).unwrap();
    assert!(l1.tile < l2.tile);
    assert!(3 * l2.tile * l2.tile * 8 <= profile.cache_size(2).unwrap());
}

#[test]
fn aggregation_from_reloaded_profile() {
    let profile = measured_profile();
    let comm = profile.communication.as_ref().unwrap();
    let inter = comm.num_layers() - 1;
    // Tiny messages over the degrading inter-node layer: gather.
    let d = aggregation_decision(comm, inter, 8, 128, 0.3);
    assert!(d.aggregate, "{d:?}");
    // Huge intra-node messages: keep separate.
    let d = aggregation_decision(comm, 0, 2, 512 * 1024, 0.3);
    assert!(!d.aggregate, "{d:?}");
}

#[test]
fn collective_selection_from_reloaded_profile() {
    let profile = measured_profile();
    let predictions = select_broadcast(&profile, 8, 8 * 1024);
    assert_eq!(predictions.len(), 3);
    // Flat broadcast can never be predicted fastest on an 8-rank,
    // two-node machine.
    assert_ne!(predictions[0].algorithm, BcastAlgorithm::Flat);
}

#[test]
fn profile_queries_consistent_with_raw_results() {
    let profile = measured_profile();
    let comm = profile.communication.as_ref().unwrap();
    // The profile's latency query must agree with the layer data it wraps.
    for &(a, b) in &[(0usize, 1usize), (0, 4), (2, 3)] {
        let via_profile = profile.latency_us(a, b, 4096).unwrap();
        let layer = comm.layer_of(a, b).unwrap();
        let via_layer = comm.layers[layer].latency_for_size(4096);
        assert_eq!(via_profile, via_layer);
    }
    // Memory prediction for the full machine equals the measured
    // scalability endpoint.
    let memory = profile.memory.as_ref().unwrap();
    let all: Vec<usize> = (0..profile.cores_per_node).collect();
    let predicted = profile.memory_bandwidth_gbs(&all).unwrap();
    let endpoint = memory.overheads[0]
        .scalability
        .last()
        .map(|&(_, bw)| bw)
        .unwrap();
    assert!((predicted - endpoint).abs() < 1e-9);
}
