//! Shared-cache detection (paper Fig. 5).
//!
//! For each cache level, a single core traversing an array of `(2/3)·CS`
//! provides the reference cost; then every pair of cores traverses one such
//! array each, concurrently. Two arrays of that size cannot coexist in one
//! cache instance, so pairs that share the cache evict each other and their
//! cost ratio against the reference exceeds 2; pairs with private instances
//! stay near 1.

use crate::platform::{CoreId, Platform, SharedStreamJob};
use serde::{Deserialize, Serialize};
use servet_stats::groups_from_pairs;

/// Traversal stride in bytes: the mcalibrator stride.
const STRIDE: usize = 1024;

/// Ratio above which a pair is declared sharing: the paper's `ratio > 2`.
const SHARING_RATIO: f64 = 2.0;

/// Array size as a fraction of the cache size: the paper's 2/3, "a little
/// larger than CS/2", so two such arrays cannot share one instance.
const SIZE_FRACTION: f64 = 2.0 / 3.0;

/// The Fig. 5 array size for a cache of `cs` bytes.
fn array_size(cs: usize) -> usize {
    (((cs as f64) * SIZE_FRACTION) as usize).max(STRIDE)
}

/// Results for one cache level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharedLevel {
    /// 1-based cache level.
    pub level: u8,
    /// Cache size used to derive the array size, bytes.
    pub cache_size: usize,
    /// Single-core reference cost, cycles per access.
    pub reference_cycles: f64,
    /// Measured ratio for every pair tested.
    pub pair_ratios: Vec<((CoreId, CoreId), f64)>,
    /// Pairs whose ratio exceeded the threshold — the paper's `Psc[i]`.
    pub sharing_pairs: Vec<(CoreId, CoreId)>,
    /// Core groups inferred from the sharing pairs (each group shares one
    /// cache instance).
    pub groups: Vec<Vec<CoreId>>,
}

/// Coherence-vs-capacity split of the misses of a two-core write probe
/// at one cache level's working-set size — §III-B's interference, seen
/// through the MESI layer instead of a cost ratio.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LevelMissDecomposition {
    /// 1-based cache level whose size set the probe's working set.
    pub level: u8,
    /// Cache size the working set was derived from, bytes.
    pub cache_size: usize,
    /// Misses to lines the peer core had invalidated (true sharing and
    /// ping-pong — the coherence component of the Fig. 5 slowdown).
    pub coherence_misses: u64,
    /// Misses to lines simply evicted (the capacity component).
    pub capacity_misses: u64,
    /// `coherence_misses / (coherence_misses + capacity_misses)`.
    pub coherence_fraction: f64,
}

/// Results for all levels — the paper's `Psc[0..l-1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharedCacheResult {
    /// One entry per cache level, in level order.
    pub levels: Vec<SharedLevel>,
    /// Per-level miss decomposition, when the platform exposes coherence
    /// traffic (filled by the suite's coherence stage; empty otherwise,
    /// and in profiles written before the field existed).
    #[serde(default)]
    pub miss_decomposition: Vec<LevelMissDecomposition>,
}

impl SharedCacheResult {
    /// Whether any level is shared between any cores.
    pub fn any_shared(&self) -> bool {
        self.levels.iter().any(|l| !l.sharing_pairs.is_empty())
    }

    /// The cores sharing the given level with `core` (excluding itself).
    pub(crate) fn cores_sharing_with(&self, level: u8, core: CoreId) -> Vec<CoreId> {
        self.levels
            .iter()
            .find(|l| l.level == level)
            .map(|l| {
                l.groups
                    .iter()
                    .find(|g| g.contains(&core))
                    .map(|g| g.iter().copied().filter(|&c| c != core).collect())
                    .unwrap_or_default()
            })
            .unwrap_or_default()
    }
}

/// Run the Fig. 5 benchmark for every detected cache level.
///
/// `cache_sizes[i]` is the size of level `i + 1` as estimated by the
/// cache-size benchmark.
pub fn detect_shared_caches(
    platform: &mut dyn Platform,
    cache_sizes: &[usize],
) -> SharedCacheResult {
    let cores = platform.num_cores();
    let mut levels = Vec::with_capacity(cache_sizes.len());
    for (i, &cs) in cache_sizes.iter().enumerate() {
        let size = array_size(cs);
        let reference = platform.traverse_cycles(0, size, STRIDE);
        let mut pair_ratios = Vec::new();
        let mut sharing_pairs = Vec::new();
        for a in 0..cores {
            for b in a + 1..cores {
                let costs = platform.traverse_concurrent_cycles(&[(a, size), (b, size)], STRIDE);
                // Both cores run the same workload; judge the pair by the
                // mean of the two costs.
                let pair_cost = (costs[0] + costs[1]) / 2.0;
                let ratio = pair_cost / reference;
                pair_ratios.push(((a, b), ratio));
                if ratio > SHARING_RATIO {
                    sharing_pairs.push((a, b));
                }
            }
        }
        let groups = groups_from_pairs(&sharing_pairs);
        levels.push(SharedLevel {
            level: (i + 1) as u8,
            cache_size: cs,
            reference_cycles: reference,
            pair_ratios,
            sharing_pairs,
            groups,
        });
    }
    SharedCacheResult {
        levels,
        miss_decomposition: Vec::new(),
    }
}

/// Decompose the misses behind each level's Fig. 5 interference into
/// coherence and capacity misses.
///
/// Two cores write one shared buffer sized like the level's Fig. 5
/// arrays, touching the *same* lines: line steals show up as coherence
/// misses, while cold first-touches and plain evictions land in the
/// capacity bucket. A high coherence fraction says the interference at
/// that working-set size is line ping-pong, not eviction pressure.
///
/// Runs as part of the suite's coherence stage — after the paper's own
/// benchmarks — so their measurements are untouched. Requires
/// [`Platform::supports_coherence_probes`].
pub(crate) fn decompose_shared_misses(
    platform: &mut dyn Platform,
    cache_sizes: &[usize],
) -> Vec<LevelMissDecomposition> {
    assert!(
        platform.supports_coherence_probes(),
        "platform {:?} cannot observe coherence traffic",
        platform.name()
    );
    cache_sizes
        .iter()
        .enumerate()
        .map(|(i, &cs)| {
            let size = array_size(cs);
            let count = (size / STRIDE).max(1);
            let jobs: Vec<SharedStreamJob> = [0, 1]
                .into_iter()
                .map(|core| SharedStreamJob {
                    core,
                    offset: 0,
                    stride: STRIDE,
                    count,
                    write: true,
                })
                .collect();
            platform.take_coherence_traffic(); // drain unrelated traffic
            platform.shared_stream_cycles(size, &jobs);
            let t = platform.take_coherence_traffic().unwrap_or_default();
            LevelMissDecomposition {
                level: (i + 1) as u8,
                cache_size: cs,
                coherence_misses: t.coherence_misses,
                capacity_misses: t.capacity_misses,
                coherence_fraction: t.coherence_miss_fraction(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_platform::SimPlatform;
    use servet_sim::KB;

    #[test]
    fn tiny_shared_l2_topology_recovered() {
        // Ground truth: L1 private, L2 shared by {0,1} and {2,3}.
        let mut p = SimPlatform::tiny_shared_l2().with_noise(0.003);
        let result = detect_shared_caches(&mut p, &[8 * KB, 128 * KB]);
        assert_eq!(result.levels.len(), 2);
        assert!(
            result.levels[0].sharing_pairs.is_empty(),
            "L1 must be private"
        );
        assert_eq!(result.levels[1].sharing_pairs, vec![(0, 1), (2, 3)]);
        assert_eq!(result.levels[1].groups, vec![vec![0, 1], vec![2, 3]]);
        assert!(result.any_shared());
        assert_eq!(result.cores_sharing_with(2, 0), vec![1]);
        assert_eq!(result.cores_sharing_with(2, 3), vec![2]);
        assert!(result.cores_sharing_with(1, 0).is_empty());
        assert!(result.cores_sharing_with(9, 0).is_empty());
    }

    #[test]
    fn private_caches_yield_no_pairs() {
        let mut p = SimPlatform::tiny().with_noise(0.003);
        let result = detect_shared_caches(&mut p, &[8 * KB, 64 * KB]);
        assert!(!result.any_shared());
        // Every measured ratio should be near 1.
        for level in &result.levels {
            for &(_, r) in &level.pair_ratios {
                assert!(r < 1.6, "ratio {r} too high for private caches");
            }
        }
    }

    #[test]
    fn pair_count_is_all_pairs() {
        let mut p = SimPlatform::tiny().with_noise(0.0);
        let result = detect_shared_caches(&mut p, &[8 * KB]);
        assert_eq!(result.levels[0].pair_ratios.len(), 6); // C(4,2)
    }

    #[test]
    fn decomposition_shows_ping_pong_as_coherence_misses() {
        let mut p = SimPlatform::tiny().with_noise(0.0);
        let decomp = decompose_shared_misses(&mut p, &[8 * KB, 64 * KB]);
        assert_eq!(decomp.len(), 2);
        for d in &decomp {
            // Same-line writers: every steady-state miss is a line steal.
            assert!(
                d.coherence_misses > d.capacity_misses,
                "level {}: {} coherence vs {} capacity",
                d.level,
                d.coherence_misses,
                d.capacity_misses
            );
            assert!(d.coherence_fraction > 0.5);
        }
        assert_eq!(decomp[0].level, 1);
        assert_eq!(decomp[1].cache_size, 64 * KB);
    }

    #[test]
    #[should_panic(expected = "cannot observe coherence traffic")]
    fn decomposition_requires_coherence_probes() {
        let mut p = SimPlatform::athlon3200();
        decompose_shared_misses(&mut p, &[8 * KB]);
    }

    #[test]
    fn reference_cycles_reasonable() {
        let mut p = SimPlatform::tiny().with_noise(0.0);
        let result = detect_shared_caches(&mut p, &[8 * KB]);
        // (2/3)·8 KB fits the 8 KB L1: the reference is the L1 hit cost.
        let r = result.levels[0].reference_cycles;
        assert!((r - 2.0).abs() < 0.5, "reference = {r}");
    }
}
