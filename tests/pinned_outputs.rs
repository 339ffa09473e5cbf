//! Digests of what the suite's and the zoo's fixed constants produce.
//!
//! The thresholds, probe grids and perturbation ranges are consts beside
//! the stage that reads them. Moving any of them moves a number below:
//! the zoo's population (sizes, sharing, bus and coherence scales, noise)
//! or a measured profile (Fig. 5 ratio and array size, Fig. 6 tolerance,
//! micro-probe grids, false-sharing sweep, Fig. 7 tolerance).

use servet::autotune::collectives::select_broadcast;
use servet::autotune::placement::{CommPattern, Placer};
use servet::core::manifest::RunManifest;
use servet::core::zoo::{generate_population, ZooConfig};
use servet::core::{run_full_suite, SimPlatform, SuiteConfig};
use servet::net::collectives::{broadcast_time_us, BcastAlgorithm};
use servet::net::presets::finis_terrae_cluster;
use servet::registry::profile_digest;
use servet::sim::{KB, MB};

/// FNV-1a 64 over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The 64 + 4 machine population: every spec field (through `Debug`, whose
/// floats are the shortest digits that parse back to the same bits) and
/// each machine's noise bits.
#[test]
fn zoo_population_is_pinned() {
    let mut config = ZooConfig::new(64, 1, 42);
    config.mb_machines = 4;
    let population = generate_population(&config);
    assert_eq!(population.len(), 68);
    let digest = population.iter().fold(0xcbf2_9ce4_8422_2325, |h, m| {
        let h = fnv1a(h, format!("{:?}", m.spec).as_bytes());
        let h = fnv1a(h, &m.sim_seed.to_le_bytes());
        fnv1a(h, &m.noise.to_bits().to_le_bytes())
    });
    assert_eq!(format!("{digest:016x}"), "171ec7c675753e32");
}

/// Every optional stage on: the paper's four, the micro probes and the
/// false-sharing sweep with its miss decomposition.
#[test]
fn tiny_cluster_profile_is_pinned() {
    let config = SuiteConfig {
        run_micro: true,
        run_false_sharing: true,
        ..SuiteConfig::small(256 * 1024)
    };
    let profile = run_full_suite(&mut SimPlatform::tiny_cluster(), &config).profile;
    // The digest hashes canonical JSON, whose float digits are the JSON
    // writer's: the workspace's stand-in writes `{:?}` digits, the
    // published serde_json writes ryu's, and the two differ at 1e-5.
    if serde_json::to_string(&1e-5_f64).unwrap() != "1e-5" {
        eprintln!("published serde_json: profile digest not comparable, skipped");
        return;
    }
    assert_eq!(
        profile_digest(&profile),
        "be1ff7746f07c3d48c75e27b59eef1fc05fe0706d5a7bde250dcdf555cba3d4b"
    );
}

/// A manifest written when the Fig. 5, Fig. 6, micro-probe and
/// false-sharing settings and `comm.max_cores` were config fields still
/// loads: the fields it carries beyond today's `SuiteConfig` are ignored.
#[test]
fn manifest_with_stage_configs_still_loads() {
    let json = include_str!("data/manifest_with_stage_configs.json");
    for field in [
        "\"shared\"",
        "\"memory\"",
        "\"micro\"",
        "\"false_sharing\"",
        "\"max_cores\"",
    ] {
        assert!(json.contains(field), "fixture lost {field}");
    }
    let manifest = RunManifest::from_json(json).expect("old manifest loads");
    assert_eq!(manifest.machine, "tiny_smp");
    assert!(manifest.config.skip_comm && manifest.config.skip_memory);
    assert_eq!(manifest.config.mcalibrator.max_size, 64 * 1024);
    assert!(manifest.spans.iter().any(|s| s.name == "suite.cache_size"));
    let again = RunManifest::from_json(&manifest.to_json()).unwrap();
    assert_eq!(again, manifest);
}

/// The communication decisions, priced by the measured profile and by the
/// cluster: the broadcast ranking on the tiny cluster's profile, the
/// cluster's broadcast times on two Finis Terrae sizes (one cluster per
/// size, so the jitter draws' order is pinned too), and the placer's
/// linear, greedy and annealed costs on `app_placement`'s four patterns.
#[test]
fn communication_decisions_are_pinned() {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| digest = fnv1a(digest, bytes);
    let config = SuiteConfig {
        skip_shared: true,
        skip_memory: true,
        ..SuiteConfig::small(256 * KB)
    };
    let tiny = run_full_suite(&mut SimPlatform::tiny_cluster(), &config).profile;
    for ranks in [1, 2, 3, 5, 8] {
        for bytes in [64, 8 * KB, MB] {
            for prediction in select_broadcast(&tiny, ranks, bytes) {
                eat(prediction.algorithm.name().as_bytes());
                eat(&prediction.predicted_us.to_bits().to_le_bytes());
            }
        }
    }
    for nodes in [2, 4] {
        let mut cluster = finis_terrae_cluster(nodes);
        for ranks in [1, 2, 5, 16, 17, 31, 16 * nodes] {
            for bytes in [64, 32 * KB] {
                for algorithm in BcastAlgorithm::all() {
                    let t = broadcast_time_us(&mut cluster, algorithm, ranks, bytes);
                    eat(&t.to_bits().to_le_bytes());
                }
            }
        }
    }
    let config = SuiteConfig {
        skip_shared: true,
        skip_memory: true,
        ..SuiteConfig::default()
    };
    let ft = run_full_suite(&mut SimPlatform::finis_terrae(2), &config).profile;
    let placer = Placer::new(&ft);
    for pattern in [
        CommPattern::shift(16, 8, 16 * KB),
        CommPattern::ring(32, 16 * KB),
        CommPattern::stencil2d(4, 4, 16 * KB),
        CommPattern::master_worker(16, 16 * KB),
    ] {
        for placed in [
            placer.linear(&pattern),
            placer.greedy(&pattern),
            placer.anneal(&pattern, 11, 4000),
        ] {
            eat(&placed.cost_us.to_bits().to_le_bytes());
        }
    }
    assert_eq!(format!("{digest:016x}"), "b460da365717add4");
}
