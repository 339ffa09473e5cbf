//! Micro-benchmark extensions: cache line size and L1 associativity.
//!
//! The paper's related work (X-Ray, P-Ray — §II) measures these two
//! parameters as well; Servet's published scope stops at sizes, sharing,
//! memory and communication. This module adds the missing probes in
//! Servet's own style — portable timing experiments over the
//! [`Platform`] trait — so a [`crate::profile::MachineProfile`] can carry
//! the full picture a code generator needs (line size for padding and
//! false-sharing avoidance, associativity for conflict-aware layouts).
//!
//! Both probes use *irregular* access patterns
//! ([`Platform::traverse_pattern_cycles`]) because a fixed small stride
//! would be hidden by the hardware prefetcher — the same concern that
//! drives mcalibrator's 1 KB stride choice in §III-A.

use crate::platform::{CoreId, Platform};
use serde::{Deserialize, Serialize};

/// Results of the micro probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MicroProfile {
    /// Detected cache line size, bytes.
    pub line_size: Option<usize>,
    /// Detected L1 associativity (ways).
    pub l1_associativity: Option<usize>,
    /// Detected data-TLB entry count (grid granularity).
    #[serde(default)]
    pub tlb_entries: Option<usize>,
}

/// Candidate line sizes (bytes), ascending powers of two.
const LINE_CANDIDATES: [usize; 6] = [16, 32, 64, 128, 256, 512];

/// Largest associativity probed.
const MAX_ASSOCIATIVITY: usize = 32;

/// Number of probe bases for the line-size experiment.
const LINE_PROBE_BASES: usize = 512;

/// Candidate page counts for the TLB probe, ascending.
const TLB_CANDIDATES: [usize; 9] = [8, 16, 32, 48, 64, 96, 128, 192, 256];

/// Detect the cache line size with the pair-probe pattern.
///
/// For each candidate stride `s`, pairs `(base, base + s)` are visited
/// with the bases in a scrambled order. When `s` is smaller than a line
/// the second access of each pair hits the line just fetched; once `s`
/// reaches the line size both accesses miss — the average cost jumps by
/// roughly 2× at exactly the line size.
pub(crate) fn detect_line_size(platform: &mut dyn Platform, core: CoreId) -> Option<usize> {
    line_size_over(platform, core, &LINE_CANDIDATES)
}

/// [`detect_line_size`] over the given candidate strides.
fn line_size_over(
    platform: &mut dyn Platform,
    core: CoreId,
    candidates: &[usize],
) -> Option<usize> {
    let bases = LINE_PROBE_BASES;
    let spacing = 1024u64; // bases on distinct, well-separated lines
    let size = (bases as u64 * spacing) as usize + 1024;
    let mut costs = Vec::with_capacity(candidates.len());
    for &s in candidates {
        assert!(
            (s as u64) < spacing,
            "candidate stride must stay below the base spacing"
        );
        let offsets = pair_probe_pattern(bases, spacing, s as u64);
        let cycles = platform.traverse_pattern_cycles(core, size, &offsets);
        costs.push(cycles);
    }
    // The *first* knee above the small-stride plateau is the innermost
    // (L1 / coherence) line size. Outer levels may use longer lines —
    // Itanium's L2/L3 move 128 B — which show up as further knees that
    // must not be confused with it.
    let lo = costs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = costs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if hi < lo * 1.2 {
        return None; // no knee: line size outside the candidate range
    }
    candidates
        .iter()
        .zip(&costs)
        .find(|&(_, &c)| c > lo * 1.2)
        .map(|(&s, _)| s)
}

/// Scrambled pair-probe offsets: for each base (visited in a scrambled
/// order), `[base, base + delta]`.
fn pair_probe_pattern(bases: usize, spacing: u64, delta: u64) -> Vec<u64> {
    let mut offsets = Vec::with_capacity(2 * bases);
    // Visit bases in the order (i * STEP) mod bases with STEP coprime to
    // any power of two, so consecutive pairs are far apart and stride
    // prefetchers never see two equal strides in a row.
    const STEP: usize = 241;
    for i in 0..bases {
        let b = ((i * STEP) % bases) as u64 * spacing;
        offsets.push(b);
        offsets.push(b + delta);
    }
    offsets
}

/// Detect the associativity of the (virtually indexed) L1 cache.
///
/// `k` lines spaced exactly `l1_size` bytes apart map to the same set
/// regardless of the actual way count; accessed cyclically under LRU they
/// all hit while `k ≤ ways` and all miss once `k > ways`. The detected
/// associativity is the largest `k` still served at the L1 hit cost.
pub(crate) fn detect_l1_associativity(
    platform: &mut dyn Platform,
    core: CoreId,
    l1_size: usize,
) -> Option<usize> {
    let max_k = MAX_ASSOCIATIVITY;
    let mut costs = Vec::with_capacity(max_k);
    for k in 1..=max_k {
        let cycle: Vec<u64> = (0..k as u64).map(|i| i * l1_size as u64).collect();
        // Repeat the cycle so the measured pass is long enough to average.
        let reps = 512usize.div_ceil(k).max(2);
        let offsets: Vec<u64> = std::iter::repeat_with(|| cycle.iter().copied())
            .take(reps)
            .flatten()
            .collect();
        let size = k * l1_size + 64;
        costs.push(platform.traverse_pattern_cycles(core, size, &offsets));
    }
    // The L1 ways are exhausted at the *first* clear jump above the
    // single-line cost; later rises (the next level thrashing at large k)
    // must not be confused with it.
    let base = costs[0];
    // position() returns k-1 for the first thrashing k, i.e. the way count.
    costs
        .iter()
        .position(|&c| c > base * 2.0)
        .filter(|&ways| ways >= 1)
}

/// Detect the number of data-TLB entries.
///
/// One access per page over `k` pages, cyclically: while `k` fits the TLB
/// every translation hits; beyond it, LRU thrashes and every access pays
/// the miss penalty. Returns the largest candidate page count that still
/// ran at the base cost — the TLB's capacity at the candidate grid's
/// granularity. `None` when no jump is visible (TLB larger than the
/// largest candidate, or no TLB cost at all).
pub(crate) fn detect_tlb_entries(platform: &mut dyn Platform, core: CoreId) -> Option<usize> {
    tlb_entries_over(platform, core, &TLB_CANDIDATES)
}

/// [`detect_tlb_entries`] over the given candidate page counts.
fn tlb_entries_over(
    platform: &mut dyn Platform,
    core: CoreId,
    candidates: &[usize],
) -> Option<usize> {
    let page = platform.page_size() as u64;
    // One access per page, but offset by one extra cache line per page so
    // the accessed lines spread across cache sets instead of aliasing
    // into the page-stride sets — the Saavedra & Smith trick that keeps
    // the cache out of the TLB measurement's way.
    let stride = page + 64;
    let mut costs = Vec::with_capacity(candidates.len());
    for &k in candidates {
        let cycle: Vec<u64> = (0..k as u64).map(|i| i * stride).collect();
        let reps = 1024usize.div_ceil(k).max(2);
        let offsets: Vec<u64> = std::iter::repeat_with(|| cycle.iter().copied())
            .take(reps)
            .flatten()
            .collect();
        let size = k * stride as usize + 64;
        costs.push(platform.traverse_pattern_cycles(core, size, &offsets));
    }
    // First jump above the small-working-set plateau. The baseline drifts
    // as k crosses cache capacities too, so the jump must be sharp
    // (double) to count as the TLB edge.
    let base = costs[0];
    let jump = costs.iter().position(|&c| c > base * 2.0)?;
    if jump == 0 {
        return None; // already thrashing at the smallest candidate
    }
    Some(candidates[jump - 1])
}

/// Run both micro probes. `l1_size` comes from the cache-size benchmark.
pub fn run_micro_probes(platform: &mut dyn Platform, core: CoreId, l1_size: usize) -> MicroProfile {
    MicroProfile {
        line_size: detect_line_size(platform, core),
        l1_associativity: detect_l1_associativity(platform, core, l1_size),
        tlb_entries: detect_tlb_entries(platform, core),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_platform::SimPlatform;
    use servet_sim::KB;

    #[test]
    fn line_size_detected_on_tiny() {
        let mut p = SimPlatform::tiny().with_noise(0.003);
        let line = detect_line_size(&mut p, 0);
        assert_eq!(line, Some(64));
    }

    #[test]
    fn line_size_detected_on_dunnington() {
        let mut p = SimPlatform::dunnington().with_noise(0.003);
        let line = detect_line_size(&mut p, 0);
        assert_eq!(line, Some(64));
    }

    #[test]
    fn l1_associativity_detected_on_tiny() {
        // tiny_smp L1: 8 KB 2-way.
        let mut p = SimPlatform::tiny().with_noise(0.003);
        let ways = detect_l1_associativity(&mut p, 0, 8 * KB);
        assert_eq!(ways, Some(2));
    }

    #[test]
    fn l1_associativity_detected_on_paper_machines() {
        // Dunnington L1: 32 KB 8-way; Finis Terrae L1: 16 KB 4-way.
        let mut dun = SimPlatform::dunnington().with_noise(0.003);
        assert_eq!(detect_l1_associativity(&mut dun, 0, 32 * KB), Some(8));
        let mut ft = SimPlatform::finis_terrae(1).with_noise(0.003);
        assert_eq!(detect_l1_associativity(&mut ft, 0, 16 * KB), Some(4));
    }

    #[test]
    fn combined_probe_struct() {
        let mut p = SimPlatform::tiny().with_noise(0.0);
        let micro = run_micro_probes(&mut p, 0, 8 * KB);
        assert_eq!(micro.line_size, Some(64));
        assert_eq!(micro.l1_associativity, Some(2));
        let json = serde_json::to_string(&micro).unwrap();
        let back: MicroProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(micro, back);
    }

    /// Candidates for the tiny machines: their 8 KB L1 holds only 128
    /// distinct lines, so the sweep must stay below that.
    const TINY_TLB_CANDIDATES: [usize; 6] = [8, 16, 32, 48, 64, 96];

    #[test]
    fn tlb_entries_detected() {
        let machine = servet_sim::Machine::new(servet_sim::presets::tiny_with_tlb());
        let mut p = SimPlatform::new(machine, None).with_noise(0.003);
        let entries = tlb_entries_over(&mut p, 0, &TINY_TLB_CANDIDATES);
        assert_eq!(entries, Some(64));
    }

    #[test]
    fn tlb_probe_none_without_tlb() {
        let mut p = SimPlatform::tiny().with_noise(0.003);
        assert_eq!(tlb_entries_over(&mut p, 0, &TINY_TLB_CANDIDATES), None);
    }

    #[test]
    fn pair_probe_offsets_are_distinct() {
        let offsets = pair_probe_pattern(512, 1024, 64);
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), offsets.len());
        assert_eq!(offsets.len(), 1024);
    }

    #[test]
    fn line_probe_none_when_flat() {
        // With candidates all below the line size, no knee appears.
        let mut p = SimPlatform::tiny().with_noise(0.0);
        assert_eq!(line_size_over(&mut p, 0, &[8, 16, 32]), None);
    }
}
