//! End-to-end suite runs on simulated machines.
//!
//! Fast cases (tiny machines) run in every profile; the paper-scale
//! machines are release-only (`--release`), since the cycle engine in
//! debug mode makes the full sweeps slow.

use servet::prelude::*;

#[test]
fn tiny_cluster_full_pipeline() {
    let mut platform = SimPlatform::tiny_cluster().with_noise(0.003);
    let report = run_full_suite(&mut platform, &SuiteConfig::small(256 * 1024));
    let profile = &report.profile;

    // Ground truth of the tiny machine: 8 KB L1, 64 KB L2, all private,
    // one FSB contention class, four communication layers.
    assert_eq!(profile.cache_size(1), Some(8 * 1024));
    assert_eq!(profile.cache_size(2), Some(64 * 1024));
    assert!(!profile.shared_caches.as_ref().unwrap().any_shared());
    assert_eq!(profile.memory.as_ref().unwrap().num_classes(), 1);
    assert_eq!(profile.communication.as_ref().unwrap().num_layers(), 4);
    assert!(report.timings.total_s() > 0.0);
}

#[test]
fn tiny_shared_l2_topology_recovered() {
    let mut platform = SimPlatform::tiny_shared_l2().with_noise(0.003);
    let report = run_full_suite(&mut platform, &SuiteConfig::small(384 * 1024));
    let shared = report.profile.shared_caches.as_ref().unwrap();
    assert_eq!(shared.levels[1].groups, vec![vec![0, 1], vec![2, 3]]);
    assert_eq!(report.profile.cores_sharing_cache(2, 0), vec![1]);
    assert!(report.profile.cores_sharing_cache(1, 0).is_empty());
}

#[test]
fn tiny_numa_memory_structure_recovered() {
    let mut platform = SimPlatform::tiny_numa().with_noise(0.003);
    let report = run_full_suite(&mut platform, &SuiteConfig::small(256 * 1024));
    let memory = report.profile.memory.as_ref().unwrap();
    assert_eq!(memory.num_classes(), 2);
    assert_eq!(memory.overheads[0].groups[0], vec![0, 1]);
    assert_eq!(memory.overheads[1].groups[0], vec![0, 1, 2, 3]);
}

#[test]
fn suite_is_deterministic_for_fixed_seed() {
    let run = || {
        let mut platform = SimPlatform::tiny_cluster().with_seed(99).with_noise(0.004);
        run_full_suite(&mut platform, &SuiteConfig::small(256 * 1024))
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn profile_json_file_round_trip() {
    let mut platform = SimPlatform::tiny_cluster().with_noise(0.002);
    let report = run_full_suite(&mut platform, &SuiteConfig::small(256 * 1024));
    let dir = std::env::temp_dir().join("servet-int-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("profile.json");
    report.profile.save(&path).unwrap();
    let loaded = MachineProfile::load(&path).unwrap();
    assert_eq!(loaded, report.profile);
    std::fs::remove_file(&path).ok();
}

/// The paper's own measurement: its Fig. 1 loop over every listed size.
fn paper_suite() -> SuiteConfig {
    SuiteConfig {
        mcalibrator: McalibratorConfig::paper(),
        ..Default::default()
    }
}

#[cfg_attr(debug_assertions, ignore = "paper-scale machine; run with --release")]
#[test]
fn dunnington_full_suite_matches_paper() {
    let mut platform = SimPlatform::dunnington();
    let report = run_full_suite(&mut platform, &paper_suite());
    let profile = &report.profile;

    // §IV-A: cache sizes.
    assert_eq!(profile.cache_size(1), Some(32 * 1024));
    assert_eq!(profile.cache_size(2), Some(3 * 1024 * 1024));
    assert_eq!(profile.cache_size(3), Some(12 * 1024 * 1024));

    // Fig. 8a: core 0 shares L2 with 12, L3 with {1,2,12,13,14}.
    assert_eq!(profile.cores_sharing_cache(2, 0), vec![12]);
    assert_eq!(profile.cores_sharing_cache(3, 0), vec![1, 2, 12, 13, 14]);

    // Fig. 9a: a single uniform overhead class.
    assert_eq!(profile.memory.as_ref().unwrap().num_classes(), 1);

    // Fig. 10a: three communication layers, shared-L2 fastest.
    let comm = profile.communication.as_ref().unwrap();
    assert_eq!(comm.num_layers(), 3);
    assert_eq!(comm.layer_of(0, 12), Some(0));
}

#[cfg_attr(debug_assertions, ignore = "paper-scale machine; run with --release")]
#[test]
fn finis_terrae_full_suite_matches_paper() {
    let mut platform = SimPlatform::finis_terrae(2);
    let report = run_full_suite(&mut platform, &paper_suite());
    let profile = &report.profile;

    assert_eq!(profile.cache_size(1), Some(16 * 1024));
    assert_eq!(profile.cache_size(2), Some(256 * 1024));
    assert_eq!(profile.cache_size(3), Some(9 * 1024 * 1024));
    assert!(!profile.shared_caches.as_ref().unwrap().any_shared());

    // Fig. 9a: bus and cell overhead classes.
    let memory = profile.memory.as_ref().unwrap();
    assert_eq!(memory.num_classes(), 2);
    assert_eq!(memory.overheads[0].groups[0], vec![0, 1, 2, 3]);
    assert_eq!(memory.overheads[1].groups[0], (0..8).collect::<Vec<_>>());

    // Fig. 10: four layers; the paper's 7x InfiniBand degradation.
    let comm = profile.communication.as_ref().unwrap();
    assert_eq!(comm.num_layers(), 4);
    let ib = comm.layers.last().unwrap();
    let at32 = ib
        .scalability
        .iter()
        .find(|&&(n, _, _)| n == 32)
        .expect("32-message sweep");
    assert!((6.0..8.0).contains(&at32.2), "slowdown = {}", at32.2);
}

#[cfg_attr(debug_assertions, ignore = "paper-scale machines; run with --release")]
#[test]
fn cache_detection_robust_across_seeds() {
    // The paper's 10/10 result should not depend on one lucky page-
    // allocation seed.
    for seed in [11u64, 222, 3333] {
        for (spec, truth) in [
            (
                servet::sim::presets::dempsey(),
                vec![16 * 1024, 2 * 1024 * 1024],
            ),
            (
                servet::sim::presets::finis_terrae_node(),
                vec![16 * 1024, 256 * 1024, 9 * 1024 * 1024],
            ),
        ] {
            let name = spec.name.clone();
            let machine = servet::sim::Machine::with_seed(spec, seed);
            let mut platform = servet::core::SimPlatform::new(machine, None).with_seed(seed);
            let sweep = mcalibrator(&mut platform, 0, &McalibratorConfig::default());
            let levels =
                detect_cache_levels(&sweep, platform.page_size(), &DetectConfig::default());
            let sizes: Vec<usize> = levels.iter().map(|l| l.size).collect();
            assert_eq!(sizes, truth, "{name} seed {seed}");
        }
    }
}

/// One sweep and detection of `spec` under `seed`, inside a scope: the
/// detected sizes, the right end of the last window a Fig. 3 fit was
/// handed, and the candidates the fits scored.
fn detect(
    spec: &servet::sim::spec::MachineSpec,
    seed: u64,
    config: &McalibratorConfig,
) -> (Vec<usize>, usize, u64) {
    let scope = servet::obs::RunScope::begin();
    let machine = servet::sim::Machine::with_seed(spec.clone(), seed);
    let mut platform = servet::core::SimPlatform::new(machine, None).with_seed(seed);
    let sweep = mcalibrator(&mut platform, 0, config);
    let levels = detect_cache_levels(&sweep, platform.page_size(), &DetectConfig::default());
    let data = scope.finish();
    let window_end = data
        .spans
        .iter()
        .filter(|s| s.name == "cache_detect.probabilistic_fit")
        .filter_map(|s| s.annotation.as_ref()?.rsplit_once("..")?.1.parse().ok())
        .max()
        .unwrap_or(0);
    (
        levels.iter().map(|l| l.size).collect(),
        window_end,
        data.counters["cache_detect.candidates_scored"],
    )
}

/// The trap a merged two-pass series sets: were the dense samples to stop
/// at the bracket's edge, the L2 window would run on into the 16/32/64 MB
/// skeleton points, admit every tentative size up to 64 MB and cost the
/// fit four times as much. The dense walk ends on the window walk's own
/// two flat steps, so the window ends where the full sweep's does.
#[cfg_attr(debug_assertions, ignore = "paper-scale machine; run with --release")]
#[test]
fn bracketed_window_stops_inside_the_dense_samples() {
    let bracketed = McalibratorConfig::default();
    for seed in [1u64, 2, 3] {
        let spec = servet::sim::presets::dempsey();
        let (_, full_end, full_scored) = detect(&spec, seed, &McalibratorConfig::paper());
        let (_, end, scored) = detect(&spec, seed, &bracketed);
        assert!(
            end <= full_end + bracketed.linear_step,
            "seed {seed}: window ends at {end}, full sweep's at {full_end}"
        );
        assert!(
            scored * 10 <= full_scored * 11,
            "seed {seed}: {scored} candidates scored, full sweep {full_scored}"
        );
    }
}

/// The bracketed sweep agrees with the hardware on the paper's machines
/// as a rate over machine seeds, not on pinned ones: every level of
/// Dempsey, Athlon and Finis Terrae, and Dunnington's L1 and L3 (its 3 MB
/// L2 is the low-margin window of ROADMAP item 6 under either sweep).
#[cfg_attr(debug_assertions, ignore = "paper-scale machines; run with --release")]
#[test]
fn bracketed_sweep_finds_the_paper_machines_levels_on_most_seeds() {
    const KB: usize = 1024;
    const MB: usize = 1024 * KB;
    // (machine, its levels, index of a level left out of the count)
    let machines = [
        (servet::sim::presets::dempsey(), vec![16 * KB, 2 * MB], None),
        (
            servet::sim::presets::athlon3200(),
            vec![64 * KB, 512 * KB],
            None,
        ),
        (
            servet::sim::presets::finis_terrae_node(),
            vec![16 * KB, 256 * KB, 9 * MB],
            None,
        ),
        (
            servet::sim::presets::dunnington(),
            vec![32 * KB, 3 * MB, 12 * MB],
            Some(1),
        ),
    ];
    for (spec, truth, left_out) in machines {
        let right = (1..=20)
            .filter(|&seed| {
                let (sizes, ..) = detect(&spec, seed, &McalibratorConfig::default());
                sizes.len() == truth.len()
                    && (0..truth.len()).all(|i| Some(i) == left_out || sizes[i] == truth[i])
            })
            .count();
        assert!(right >= 18, "{}: right on {right} of 20 seeds", spec.name);
    }
}
