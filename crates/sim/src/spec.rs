//! Machine specifications.
//!
//! A [`MachineSpec`] is the ground truth the Servet benchmarks must recover:
//! cache sizes and sharing topology, memory resources and their capacities.
//! The integration tests assert that what the suite *measures* on a
//! simulated machine matches what the spec *declares*.

use serde::{Deserialize, Serialize};

use crate::coherence::CoherenceSpec;

/// Index of a logical core as numbered by the (simulated) OS.
pub type CoreId = usize;

/// Most cache levels a [`MachineSpec`] may declare (real hierarchies stop
/// at 3 or 4).
pub(crate) const MAX_LEVELS: usize = 8;

/// Most ways one cache set, or entries one TLB, may have: the cache model
/// counts a set's resident lines in a `u16`.
const MAX_WAYS: usize = u16::MAX as usize;

/// How a cache level is indexed.
///
/// L1 caches are typically virtually indexed; lower levels are physically
/// indexed (Hennessy & Patterson, cited by the paper in §III-A). Physical
/// indexing combined with random page-frame allocation is what smears the
/// miss-rate transition and forces the probabilistic size algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Indexing {
    /// Set index taken from the virtual address.
    Virtual,
    /// Set index taken from the physical address.
    Physical,
}

/// One cache level of the machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheLevelSpec {
    /// 1-based level number (1 = closest to the core).
    pub level: u8,
    /// Capacity in bytes of one cache instance.
    pub size: usize,
    /// Line size in bytes.
    pub line_size: usize,
    /// Number of ways.
    pub associativity: usize,
    /// Virtual or physical indexing.
    pub indexing: Indexing,
    /// Groups of cores sharing one physical cache instance. The groups must
    /// partition all cores; a private cache has one singleton group per core.
    pub sharing: Vec<Vec<CoreId>>,
    /// Cost in cycles of an access that hits at this level.
    pub hit_cycles: f64,
}

impl CacheLevelSpec {
    /// Number of sets in one instance.
    pub(crate) fn num_sets(&self) -> usize {
        self.size / (self.line_size * self.associativity)
    }

    /// Whether this level is shared by more than one core.
    pub(crate) fn is_shared(&self) -> bool {
        self.sharing.iter().any(|g| g.len() > 1)
    }

    /// The group of cores sharing the instance that serves `core`.
    #[cfg(test)]
    pub(crate) fn sharing_group(&self, core: CoreId) -> &[CoreId] {
        self.sharing
            .iter()
            .find(|g| g.contains(&core))
            .map(|g| g.as_slice())
            .expect("core not covered by sharing groups")
    }

    /// Whether `a` and `b` are served by the same cache instance.
    #[cfg(test)]
    pub(crate) fn shares(&self, a: CoreId, b: CoreId) -> bool {
        self.sharing_group(a).contains(&b)
    }
}

/// A shared memory-path resource (front-side bus, cell controller, memory
/// controller) with a streaming capacity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemResource {
    /// Human-readable name ("fsb", "bus0", "cell1", ...).
    pub name: String,
    /// Aggregate streaming capacity in GB/s.
    pub capacity_gbs: f64,
    /// Cores whose memory traffic crosses this resource.
    pub cores: Vec<CoreId>,
}

/// The memory system below the last cache level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemorySpec {
    /// Cycles for a load that misses every cache level (unloaded latency).
    pub latency_cycles: f64,
    /// Maximum streaming bandwidth of a single core in GB/s (what STREAM
    /// measures with one thread).
    pub core_stream_gbs: f64,
    /// Shared resources; listed innermost-first (the bus a core sits on
    /// before the controller it reaches through it).
    pub resources: Vec<MemResource>,
}

/// A data TLB: a fully associative LRU translation cache.
///
/// None of the paper's benchmarks measure the TLB, and its machines'
/// TLB reach (hundreds of pages) keeps it out of the measured ranges'
/// way, so the paper presets leave this `None`. The TLB-entries micro
/// probe (an extension, after Saavedra & Smith's original methodology,
/// the paper's ref. \[15\]) uses machines that set it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TlbSpec {
    /// Number of entries.
    pub entries: usize,
    /// Cycles added to an access whose page translation misses.
    pub miss_cycles: f64,
}

/// Page-frame allocation policy of the simulated OS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PageAllocPolicy {
    /// Frames drawn uniformly at random from a large physical memory —
    /// Linux-like, no page coloring. This is the hard case for cache-size
    /// detection and the default in all paper presets.
    Random,
    /// Page coloring: frame color matches virtual-page color, so physically
    /// indexed caches behave like virtually indexed ones.
    Colored,
    /// Virtually contiguous memory is physically contiguous (superpages),
    /// the non-portable workaround of Yotov et al. the paper improves on.
    Contiguous,
}

/// Full description of a simulated machine (one shared-memory node).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Machine name ("dunnington", ...).
    pub name: String,
    /// Core clock in GHz; converts cycles to wall time.
    pub clock_ghz: f64,
    /// Number of logical cores.
    pub num_cores: usize,
    /// OS page size in bytes.
    pub page_size: usize,
    /// Cache levels ordered from L1 outward.
    pub caches: Vec<CacheLevelSpec>,
    /// Memory system parameters.
    pub memory: MemorySpec,
    /// OS page-frame allocation policy.
    pub page_alloc: PageAllocPolicy,
    /// Largest stride in bytes the hardware prefetcher covers (0 disables
    /// prefetching). The paper assumes "up to 256 or 512 bytes".
    pub prefetch_max_stride: usize,
    /// Optional data TLB (see [`TlbSpec`]).
    #[serde(default)]
    pub tlb: Option<TlbSpec>,
    /// Optional MESI coherence layer: snoop-bus transaction latencies.
    /// `None` disables coherence modeling entirely (the pre-coherence
    /// behavior); machines with it set still time read-only workloads
    /// identically, since clean sharing issues no transactions.
    #[serde(default)]
    pub coherence: Option<CoherenceSpec>,
}

impl MachineSpec {
    /// Validate internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_cores == 0 {
            return Err("machine has no cores".into());
        }
        if !self.page_size.is_power_of_two() {
            return Err(format!("page size {} not a power of two", self.page_size));
        }
        if self.caches.len() > MAX_LEVELS {
            return Err(format!(
                "{} cache levels, at most {MAX_LEVELS} supported",
                self.caches.len()
            ));
        }
        let mut prev_size = 0usize;
        for c in &self.caches {
            if c.line_size == 0 || !c.line_size.is_power_of_two() {
                return Err(format!("L{} line size {} invalid", c.level, c.line_size));
            }
            if c.associativity == 0 {
                return Err(format!("L{} associativity is zero", c.level));
            }
            if c.associativity > MAX_WAYS {
                return Err(format!(
                    "L{} associativity {} above {MAX_WAYS}",
                    c.level, c.associativity
                ));
            }
            if c.size % (c.line_size * c.associativity) != 0 {
                return Err(format!(
                    "L{} size {} not divisible by line*assoc",
                    c.level, c.size
                ));
            }
            if !c.num_sets().is_power_of_two() {
                return Err(format!(
                    "L{} set count {} not a power of two",
                    c.level,
                    c.num_sets()
                ));
            }
            if c.size < prev_size {
                return Err(format!("L{} smaller than the level above it", c.level));
            }
            prev_size = c.size;
            // Sharing groups must partition all cores.
            let mut seen = vec![false; self.num_cores];
            for g in &c.sharing {
                for &core in g {
                    if core >= self.num_cores {
                        return Err(format!("L{} sharing group references core {core}", c.level));
                    }
                    if seen[core] {
                        return Err(format!("L{} core {core} in two sharing groups", c.level));
                    }
                    seen[core] = true;
                }
            }
            if seen.iter().any(|&s| !s) {
                return Err(format!(
                    "L{} sharing groups do not cover all cores",
                    c.level
                ));
            }
            if c.indexing == Indexing::Virtual && c.is_shared() {
                return Err(format!(
                    "L{} is virtually indexed but shared across cores",
                    c.level
                ));
            }
        }
        // No access may cost less than nothing: the replay cutoff's lower
        // bound (`Machine::run_streams`) rests on every component of an
        // access's cost being non-negative.
        let costs = self
            .caches
            .iter()
            .map(|c| (format!("L{} hit_cycles", c.level), c.hit_cycles))
            .chain([("memory latency_cycles".into(), self.memory.latency_cycles)])
            .chain(self.tlb.map(|t| ("TLB miss_cycles".into(), t.miss_cycles)));
        for (name, v) in costs {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} = {v} must be finite and >= 0"));
            }
        }
        if let Some(tlb) = &self.tlb {
            if tlb.entries == 0 {
                return Err("TLB with zero entries".into());
            }
            if tlb.entries > MAX_WAYS {
                return Err(format!(
                    "TLB with {} entries, above {MAX_WAYS}",
                    tlb.entries
                ));
            }
        }
        if let Some(coherence) = &self.coherence {
            coherence.validate()?;
            if self.num_cores > 64 {
                return Err(format!(
                    "coherence directory supports at most 64 cores, machine has {}",
                    self.num_cores
                ));
            }
        }
        for r in &self.memory.resources {
            if r.capacity_gbs <= 0.0 {
                return Err(format!("resource {} has non-positive capacity", r.name));
            }
            for &core in &r.cores {
                if core >= self.num_cores {
                    return Err(format!("resource {} references core {core}", r.name));
                }
            }
        }
        Ok(())
    }

    /// Number of cache levels.
    pub fn num_levels(&self) -> usize {
        self.caches.len()
    }

    /// Size in bytes of level `level` (1-based).
    pub fn cache_size(&self, level: u8) -> Option<usize> {
        self.caches
            .iter()
            .find(|c| c.level == level)
            .map(|c| c.size)
    }

    /// Ground-truth list of core pairs sharing cache level `level`
    /// (1-based), sorted — what the Fig. 5 benchmark should discover.
    pub fn sharing_pairs(&self, level: u8) -> Vec<(CoreId, CoreId)> {
        let Some(c) = self.caches.iter().find(|c| c.level == level) else {
            return Vec::new();
        };
        let mut pairs = Vec::new();
        for g in &c.sharing {
            for i in 0..g.len() {
                for j in i + 1..g.len() {
                    let (a, b) = (g[i].min(g[j]), g[i].max(g[j]));
                    pairs.push((a, b));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// Convert a cycle count to seconds at this machine's clock.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn presets_validate() {
        for spec in [
            presets::dunnington(),
            presets::finis_terrae_node(),
            presets::dempsey(),
            presets::athlon3200(),
            presets::tiny_smp(),
            presets::tiny_shared_l2(),
        ] {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn dunnington_ground_truth() {
        let d = presets::dunnington();
        assert_eq!(d.num_cores, 24);
        assert_eq!(d.cache_size(1), Some(32 * crate::KB));
        assert_eq!(d.cache_size(2), Some(3 * crate::MB));
        assert_eq!(d.cache_size(3), Some(12 * crate::MB));
        // Paper Fig. 8(a): core 0 shares L2 with core 12, L3 with
        // {0,1,2,12,13,14}.
        let l2 = &d.caches[1];
        assert!(l2.shares(0, 12));
        assert!(!l2.shares(0, 1));
        let l3 = &d.caches[2];
        for c in [1, 2, 12, 13, 14] {
            assert!(l3.shares(0, c), "L3 should pair 0 with {c}");
        }
        assert!(!l3.shares(0, 3));
        assert_eq!(l3.sharing_group(0).len(), 6);
    }

    #[test]
    fn finis_terrae_all_private() {
        let ft = presets::finis_terrae_node();
        assert_eq!(ft.num_cores, 16);
        for c in &ft.caches {
            assert!(!c.is_shared(), "L{} should be private", c.level);
            assert_eq!(c.sharing.len(), 16);
        }
        assert_eq!(ft.cache_size(1), Some(16 * crate::KB));
        assert_eq!(ft.cache_size(2), Some(256 * crate::KB));
        assert_eq!(ft.cache_size(3), Some(9 * crate::MB));
    }

    #[test]
    fn sharing_pairs_ground_truth() {
        let d = presets::dunnington();
        let l2 = d.sharing_pairs(2);
        assert_eq!(l2.len(), 12); // 12 pairs of cores sharing an L2
        assert!(l2.contains(&(0, 12)));
        let l3 = d.sharing_pairs(3);
        assert_eq!(l3.len(), 4 * 15); // C(6,2) per processor * 4
        let l1 = d.sharing_pairs(1);
        assert!(l1.is_empty());
        assert!(d.sharing_pairs(9).is_empty());
    }

    #[test]
    fn validation_rejects_overlapping_groups() {
        let mut spec = presets::tiny_smp();
        spec.caches[0].sharing = vec![vec![0, 1], vec![1]];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_uncovered_cores() {
        let mut spec = presets::tiny_smp();
        spec.caches[0].sharing = vec![vec![0]];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_shared_virtual_cache() {
        let mut spec = presets::tiny_shared_l2();
        spec.caches[1].indexing = Indexing::Virtual;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let mut spec = presets::tiny_smp();
        spec.caches[0].size = 1000; // not divisible by line*assoc
        assert!(spec.validate().is_err());
        let mut spec = presets::tiny_smp();
        spec.caches[0].associativity = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_negative_and_non_finite_costs() {
        let mut spec = presets::tiny_smp();
        spec.caches[1].hit_cycles = -1.0;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("L2 hit_cycles"), "{err}");
        let mut spec = presets::tiny_smp();
        spec.memory.latency_cycles = f64::NAN;
        assert!(spec.validate().is_err());
        let mut spec = presets::tiny_with_tlb();
        spec.tlb.as_mut().expect("preset has a TLB").miss_cycles = -25.0;
        assert!(spec.validate().is_err());
    }

    /// Each spec below used to pass `validate` and then trip an `assert!`
    /// while the machine was being built.
    #[test]
    fn validation_rejects_too_many_levels() {
        let mut spec = presets::tiny_smp();
        let outer = spec.caches.last().expect("preset has caches").clone();
        while spec.caches.len() <= MAX_LEVELS {
            let level = spec.caches.len() as u8 + 1;
            spec.caches.push(CacheLevelSpec {
                level,
                ..outer.clone()
            });
        }
        let err = spec.validate().unwrap_err();
        assert!(err.contains("cache levels"), "{err}");
        spec.caches.pop();
        spec.validate().expect("exactly MAX_LEVELS levels are fine");
    }

    #[test]
    fn validation_rejects_oversized_associativity() {
        let mut spec = presets::tiny_smp();
        let l2 = &mut spec.caches[1];
        l2.associativity = MAX_WAYS + 1;
        l2.size = l2.line_size * l2.associativity;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("associativity"), "{err}");
    }

    #[test]
    fn validation_rejects_oversized_tlb() {
        let mut spec = presets::tiny_with_tlb();
        let tlb = spec.tlb.as_mut().expect("preset has a TLB");
        tlb.entries = MAX_WAYS;
        spec.validate().expect("MAX_WAYS entries are fine");
        spec.tlb.as_mut().expect("preset has a TLB").entries = MAX_WAYS + 1;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("TLB"), "{err}");
    }

    #[test]
    fn cycles_to_seconds() {
        let d = presets::dunnington();
        let s = d.cycles_to_seconds(2.4e9);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_coherence() {
        let mut spec = presets::tiny_smp();
        let mut c = spec.coherence.expect("preset has coherence");
        c.upgrade_cycles = f64::INFINITY;
        spec.coherence = Some(c);
        assert!(spec.validate().is_err());
    }

    #[test]
    fn every_preset_has_coherence_parameters() {
        for spec in [
            presets::dunnington(),
            presets::finis_terrae_node(),
            presets::dempsey(),
            presets::athlon3200(),
            presets::tiny_smp(),
            presets::tiny_shared_l2(),
            presets::tiny_numa(),
        ] {
            assert!(spec.coherence.is_some(), "{} lacks coherence", spec.name);
        }
    }

    #[test]
    fn spec_serde_round_trip() {
        let d = presets::dunnington();
        let json = serde_json::to_string(&d).unwrap();
        let back: MachineSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
