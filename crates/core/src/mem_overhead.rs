//! Memory access overhead characterization (paper Fig. 6).
//!
//! A STREAM-like copy on an isolated core gives the reference bandwidth;
//! then every pair of cores copies concurrently. Pairs whose bandwidth
//! drops below the reference are clustered by overhead magnitude (the
//! paper's `BW` / `Pm` arrays), the clusters' pair lists are folded into
//! core *groups* (cores that collide on the same resource), and the
//! effective bandwidth of each group is swept over the number of concurrent
//! cores — the memory-scalability curve autotuners use to decide whether to
//! limit the number of memory-bound threads (§III-C).

use crate::platform::{CoreId, Platform};
use serde::{Deserialize, Serialize};
use servet_stats::cluster::cluster_by_tolerance;
use servet_stats::groups_from_pairs;

/// Relative tolerance when clustering similar bandwidths: the paper's "b
/// is similar to a given BW\[i\]".
const CLUSTER_TOLERANCE: f64 = 0.12;

/// Minimum relative drop below the reference to call a pair degraded
/// (absorbs measurement noise).
const OVERHEAD_THRESHOLD: f64 = 0.05;

/// Largest group size swept in the scalability characterization.
const MAX_GROUP_SWEEP: usize = 64;

/// One overhead magnitude and the pairs/groups that exhibit it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadClass {
    /// Representative per-core bandwidth under contention, GB/s — the
    /// paper's `BW[i]`.
    pub bandwidth_gbs: f64,
    /// Core pairs with this overhead — the paper's `Pm[i]`.
    pub pairs: Vec<(CoreId, CoreId)>,
    /// Core groups inferred from the pairs.
    pub groups: Vec<Vec<CoreId>>,
    /// Effective per-core bandwidth when `n` cores of the first group
    /// stream concurrently; entry `k` is for `k + 2` cores (paper
    /// Fig. 9b).
    pub scalability: Vec<(usize, f64)>,
}

/// Full result of the memory overhead benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemOverheadResult {
    /// Isolated-core bandwidth, GB/s (the paper's `ref`).
    pub reference_gbs: f64,
    /// Bandwidth of every pair tested (first core's view), for Fig. 9a.
    pub pair_bandwidth: Vec<((CoreId, CoreId), f64)>,
    /// Overhead classes, strongest (lowest bandwidth) first.
    pub overheads: Vec<OverheadClass>,
}

impl MemOverheadResult {
    /// Number of distinct overhead magnitudes — the paper's `n`.
    pub fn num_classes(&self) -> usize {
        self.overheads.len()
    }

    /// The per-core bandwidth expected when `cores` stream concurrently,
    /// estimated from the measured scalability curves: the strongest
    /// overhead class containing at least two of the cores governs.
    pub(crate) fn predicted_bandwidth(&self, cores: &[CoreId]) -> f64 {
        for class in &self.overheads {
            // Count how many of the requested cores fall in one group.
            let worst = class
                .groups
                .iter()
                .map(|g| cores.iter().filter(|c| g.contains(c)).count())
                .max()
                .unwrap_or(0);
            if worst >= 2 {
                if let Some(&(_, bw)) = class.scalability.iter().rev().find(|&&(n, _)| n <= worst) {
                    return bw;
                }
                return class.bandwidth_gbs;
            }
        }
        self.reference_gbs
    }
}

/// Run the Fig. 6 benchmark.
pub fn characterize_memory(platform: &mut dyn Platform) -> MemOverheadResult {
    let cores = platform.num_cores();
    let reference = platform.copy_bandwidth_gbs(&[0])[0];
    let mut pair_bandwidth = Vec::new();
    let mut degraded: Vec<(f64, (CoreId, CoreId))> = Vec::new();
    for a in 0..cores {
        for b in a + 1..cores {
            let bw = platform.copy_bandwidth_gbs(&[a, b]);
            let b_a = bw[0];
            pair_bandwidth.push(((a, b), b_a));
            if b_a < reference * (1.0 - OVERHEAD_THRESHOLD) {
                degraded.push((b_a, (a, b)));
            }
        }
    }
    // Cluster similar bandwidths — the BW / Pm construction.
    let clusters = cluster_by_tolerance(degraded, CLUSTER_TOLERANCE);
    let mut overheads: Vec<OverheadClass> = clusters
        .into_iter()
        .map(|c| {
            let groups = groups_from_pairs(&c.members);
            OverheadClass {
                bandwidth_gbs: c.value,
                pairs: c.members,
                groups,
                scalability: Vec::new(),
            }
        })
        .collect();
    overheads.sort_by(|x, y| x.bandwidth_gbs.total_cmp(&y.bandwidth_gbs));
    // Scalability: "characterizing the effective bandwidth ... only
    // requires one group per overhead" — sweep the first group of each
    // class. Cores are added in an order that avoids the *stronger*
    // classes' bottlenecks for as long as possible (e.g. the cell sweep
    // spreads across buses before doubling up on one), so each curve
    // shows its own resource.
    for i in 0..overheads.len() {
        let Some(group) = overheads[i].groups.first().cloned() else {
            continue;
        };
        let stronger: Vec<Vec<CoreId>> = overheads[..i]
            .iter()
            .flat_map(|c| c.groups.iter().cloned())
            .collect();
        let order = diversity_order(&group, &stronger);
        let limit = order.len().min(MAX_GROUP_SWEEP);
        for n in 2..=limit {
            let active: Vec<CoreId> = order[..n].to_vec();
            let bw = platform.copy_bandwidth_gbs(&active);
            overheads[i].scalability.push((n, bw[0]));
        }
    }
    MemOverheadResult {
        reference_gbs: reference,
        pair_bandwidth,
        overheads,
    }
}

/// Order `group` so that each successive core adds the least co-membership
/// with already-selected cores in any of the `stronger` groups.
fn diversity_order(group: &[CoreId], stronger: &[Vec<CoreId>]) -> Vec<CoreId> {
    let mut remaining: Vec<CoreId> = group.to_vec();
    let mut selected: Vec<CoreId> = Vec::with_capacity(group.len());
    while !remaining.is_empty() {
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let clashes: usize = stronger
                    .iter()
                    .filter(|g| g.contains(&c))
                    .map(|g| selected.iter().filter(|s| g.contains(s)).count())
                    .sum();
                (i, clashes)
            })
            .min_by_key(|&(_, clashes)| clashes)
            .expect("remaining non-empty");
        selected.push(remaining.remove(pos));
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_platform::SimPlatform;

    #[test]
    fn tiny_numa_finds_two_overhead_classes() {
        // tiny_numa ground truth: per-pair buses (2.5 GB/s for 2 cores →
        // 1.25 each) and per-cell controllers (3.5 GB/s for 4 cores).
        // Pair same bus: 1.25; pair same cell, different bus: 1.75;
        // pair cross-cell: 2.0 = reference (no overhead).
        let mut p = SimPlatform::tiny_numa().with_noise(0.003);
        let r = characterize_memory(&mut p);
        assert!(
            (r.reference_gbs - 2.0).abs() < 0.1,
            "ref = {}",
            r.reference_gbs
        );
        assert_eq!(r.num_classes(), 2, "{:#?}", r.overheads);
        // Strongest overhead first.
        assert!(r.overheads[0].bandwidth_gbs < r.overheads[1].bandwidth_gbs);
        assert!((r.overheads[0].bandwidth_gbs - 1.25).abs() < 0.1);
        assert!((r.overheads[1].bandwidth_gbs - 1.75).abs() < 0.1);
        // Bus groups: {0,1},{2,3},{4,5},{6,7}; cell groups {0..4},{4..8}.
        assert_eq!(r.overheads[0].groups.len(), 4);
        assert_eq!(r.overheads[0].groups[0], vec![0, 1]);
        assert_eq!(r.overheads[1].groups.len(), 2);
        assert_eq!(r.overheads[1].groups[0], vec![0, 1, 2, 3]);
        // The cell sweep spreads across buses first, so its curve starts at
        // the cell-pair bandwidth and ends cell-bound: 3.5 GB/s / 4 cores.
        let cell_curve = &r.overheads[1].scalability;
        assert!((cell_curve[0].1 - 1.75).abs() < 0.1, "{cell_curve:?}");
        assert!(
            (cell_curve.last().unwrap().1 - 0.875).abs() < 0.05,
            "{cell_curve:?}"
        );
    }

    #[test]
    fn uniform_bus_yields_single_class() {
        // tiny_smp: one FSB — every pair degrades identically (the
        // Dunnington shape of Fig. 9a).
        let mut p = SimPlatform::tiny().with_noise(0.003);
        let r = characterize_memory(&mut p);
        assert_eq!(r.num_classes(), 1, "{:#?}", r.overheads);
        assert_eq!(r.overheads[0].groups.len(), 1);
        assert_eq!(r.overheads[0].groups[0], vec![0, 1, 2, 3]);
        // 3.0 GB/s bus split two ways.
        assert!((r.overheads[0].bandwidth_gbs - 1.5).abs() < 0.1);
    }

    #[test]
    fn scalability_curve_decreases() {
        let mut p = SimPlatform::tiny().with_noise(0.0);
        let r = characterize_memory(&mut p);
        let curve = &r.overheads[0].scalability;
        assert!(!curve.is_empty());
        for w in curve.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 1e-9,
                "scalability not decreasing: {curve:?}"
            );
        }
        // 4 cores on a 3 GB/s bus → 0.75 each.
        let last = curve.last().unwrap();
        assert_eq!(last.0, 4);
        assert!((last.1 - 0.75).abs() < 0.05);
    }

    #[test]
    fn predicted_bandwidth_uses_classes() {
        let mut p = SimPlatform::tiny_numa().with_noise(0.0);
        let r = characterize_memory(&mut p);
        // Two cores on one bus → strongest class.
        let bus_pair = r.predicted_bandwidth(&[0, 1]);
        assert!((bus_pair - 1.25).abs() < 0.1, "bus pair = {bus_pair}");
        // Cross-cell cores → no shared class → reference.
        let cross = r.predicted_bandwidth(&[0, 4]);
        assert!((cross - 2.0).abs() < 0.1, "cross = {cross}");
        // Single core → reference.
        assert!((r.predicted_bandwidth(&[3]) - r.reference_gbs).abs() < 1e-9);
    }

    #[test]
    fn pair_bandwidth_covers_all_pairs() {
        let mut p = SimPlatform::tiny().with_noise(0.0);
        let r = characterize_memory(&mut p);
        assert_eq!(r.pair_bandwidth.len(), 6);
    }
}
