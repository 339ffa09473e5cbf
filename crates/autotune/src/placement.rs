//! Profile-guided process placement.
//!
//! Given an application's communication pattern (how much each pair of
//! ranks talks) and a [`MachineProfile`] with measured per-layer latencies,
//! find a rank→core mapping that minimizes predicted communication cost.
//! This is the MPIPP idea (paper ref. \[9\]) with one crucial difference the
//! paper emphasizes: the costs are *measured by Servet*, not read from
//! vendor documentation.

use crate::aggregation::message_us;
use serde::{Deserialize, Serialize};
use servet_core::profile::MachineProfile;
use servet_core::CommResult;
use servet_stats::rng::ChaCha8Rng;

/// A communication pattern: `weight[i][j]` messages of `message_size`
/// bytes between ranks `i` and `j` per iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommPattern {
    /// Number of ranks.
    pub ranks: usize,
    /// Symmetric weight matrix, `ranks × ranks`, row-major.
    pub weight: Vec<f64>,
    /// Message size in bytes used when costing the pattern.
    pub message_size: usize,
}

impl CommPattern {
    fn idx(&self, a: usize, b: usize) -> usize {
        a * self.ranks + b
    }

    /// Weight between two ranks.
    pub(crate) fn weight_between(&self, a: usize, b: usize) -> f64 {
        self.weight[self.idx(a, b)]
    }

    /// Cost (µs per iteration) of the pattern under `mapping` (`mapping[rank]`
    /// is the rank's core): every talking pair of ranks, both directions'
    /// weight, times `latency` of one `message_size` message between the
    /// pair's cores. The caller prices the message: [`Placer`] from the
    /// measured profile, a ground-truth check from the machine itself.
    pub fn cost(&self, mapping: &[usize], mut latency: impl FnMut(usize, usize) -> f64) -> f64 {
        assert_eq!(mapping.len(), self.ranks);
        let mut total = 0.0;
        for a in 0..self.ranks {
            for b in a + 1..self.ranks {
                let w = self.weight_between(a, b) + self.weight_between(b, a);
                if w > 0.0 {
                    total += w * latency(mapping[a], mapping[b]);
                }
            }
        }
        total
    }

    /// A ring: each rank talks to its two neighbours.
    pub fn ring(ranks: usize, message_size: usize) -> Self {
        let mut p = Self {
            ranks,
            weight: vec![0.0; ranks * ranks],
            message_size,
        };
        for r in 0..ranks {
            let next = (r + 1) % ranks;
            let (i, j) = (p.idx(r, next), p.idx(next, r));
            p.weight[i] = 1.0;
            p.weight[j] = 1.0;
        }
        p
    }

    /// A 2-D five-point stencil on a `rows × cols` process grid
    /// (`ranks = rows * cols`).
    pub fn stencil2d(rows: usize, cols: usize, message_size: usize) -> Self {
        let ranks = rows * cols;
        let mut p = Self {
            ranks,
            weight: vec![0.0; ranks * ranks],
            message_size,
        };
        for r in 0..rows {
            for c in 0..cols {
                let me = r * cols + c;
                let mut link = |other: usize| {
                    let (i, j) = (p.idx(me, other), p.idx(other, me));
                    p.weight[i] = 1.0;
                    p.weight[j] = 1.0;
                };
                if r + 1 < rows {
                    link((r + 1) * cols + c);
                }
                if c + 1 < cols {
                    link(r * cols + c + 1);
                }
            }
        }
        p
    }

    /// Shift (circular exchange): rank `i` exchanges with rank
    /// `(i + offset) mod ranks` — the pattern of transposes and butterfly
    /// stages, and a worst case for linear placement when `offset` strides
    /// across the machine hierarchy.
    pub fn shift(ranks: usize, offset: usize, message_size: usize) -> Self {
        let mut p = Self {
            ranks,
            weight: vec![0.0; ranks * ranks],
            message_size,
        };
        for r in 0..ranks {
            let other = (r + offset) % ranks;
            if other != r {
                let (i, j) = (p.idx(r, other), p.idx(other, r));
                p.weight[i] = 1.0;
                p.weight[j] = 1.0;
            }
        }
        p
    }

    /// Master-worker: rank 0 exchanges with everyone else.
    pub fn master_worker(ranks: usize, message_size: usize) -> Self {
        let mut p = Self {
            ranks,
            weight: vec![0.0; ranks * ranks],
            message_size,
        };
        for r in 1..ranks {
            let (i, j) = (p.idx(0, r), p.idx(r, 0));
            p.weight[i] = 1.0;
            p.weight[j] = 1.0;
        }
        p
    }
}

/// Result of a placement search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementResult {
    /// `mapping[rank]` is the core the rank is pinned to.
    pub mapping: Vec<usize>,
    /// Predicted communication cost (µs per iteration) of the mapping.
    pub cost_us: f64,
}

/// Placement optimizer over a machine profile.
pub struct Placer<'a> {
    profile: &'a MachineProfile,
    comm: &'a CommResult,
}

impl<'a> Placer<'a> {
    /// Build a placer over a profile that includes communication results.
    pub fn new(profile: &'a MachineProfile) -> Self {
        let comm = profile
            .communication
            .as_ref()
            .expect("profile lacks communication data");
        Self { profile, comm }
    }

    /// Predicted cost (µs) of running `pattern` under `mapping`: each
    /// message priced as one isolated message on its pair's layer.
    pub(crate) fn cost(&self, pattern: &CommPattern, mapping: &[usize]) -> f64 {
        pattern.cost(mapping, |a, b| {
            if a == b {
                return 0.0;
            }
            message_us(self.comm, self.comm.layer_of(a, b), pattern.message_size, 1)
        })
    }

    /// The naive mapping: rank `i` on core `i`.
    pub fn linear(&self, pattern: &CommPattern) -> PlacementResult {
        let mapping: Vec<usize> = (0..pattern.ranks).collect();
        let cost_us = self.cost(pattern, &mapping);
        PlacementResult { mapping, cost_us }
    }

    /// A random mapping (baseline).
    pub fn random(&self, pattern: &CommPattern, seed: u64) -> PlacementResult {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut mapping: Vec<usize> = (0..self.profile.total_cores).collect();
        rng.shuffle(&mut mapping);
        mapping.truncate(pattern.ranks);
        let cost_us = self.cost(pattern, &mapping);
        PlacementResult { mapping, cost_us }
    }

    /// Greedy hill climbing by pairwise swaps until no swap improves.
    pub fn greedy(&self, pattern: &CommPattern) -> PlacementResult {
        let mut mapping: Vec<usize> = (0..pattern.ranks).collect();
        let mut cost = self.cost(pattern, &mapping);
        loop {
            let mut improved = false;
            for i in 0..mapping.len() {
                for j in i + 1..mapping.len() {
                    mapping.swap(i, j);
                    let c = self.cost(pattern, &mapping);
                    if c + 1e-12 < cost {
                        cost = c;
                        improved = true;
                    } else {
                        mapping.swap(i, j);
                    }
                }
            }
            if !improved {
                break;
            }
        }
        PlacementResult {
            mapping,
            cost_us: cost,
        }
    }

    /// Simulated annealing over swaps; never returns a mapping worse than
    /// its linear starting point.
    pub fn anneal(&self, pattern: &CommPattern, seed: u64, iterations: usize) -> PlacementResult {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut mapping: Vec<usize> = (0..pattern.ranks).collect();
        let mut cost = self.cost(pattern, &mapping);
        let mut best = mapping.clone();
        let mut best_cost = cost;
        let t0 = (cost / pattern.ranks.max(1) as f64).max(1e-6);
        for it in 0..iterations {
            let temp = t0 * (1.0 - it as f64 / iterations as f64).max(1e-3);
            let i = rng.gen_range(0..mapping.len());
            let j = rng.gen_range(0..mapping.len());
            if i == j {
                continue;
            }
            mapping.swap(i, j);
            let c = self.cost(pattern, &mapping);
            let accept = c < cost || rng.f64() < ((cost - c) / temp).exp();
            if accept {
                cost = c;
                if c < best_cost {
                    best_cost = c;
                    best = mapping.clone();
                }
            } else {
                mapping.swap(i, j);
            }
        }
        PlacementResult {
            mapping: best,
            cost_us: best_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use servet_core::SimPlatform;
    use servet_core::{run_full_suite, SuiteConfig};

    fn profile() -> MachineProfile {
        let mut p = SimPlatform::tiny_cluster().with_noise(0.003);
        let cfg = SuiteConfig {
            skip_shared: true,
            skip_memory: true,
            ..SuiteConfig::small(256 * 1024)
        };
        run_full_suite(&mut p, &cfg).profile
    }

    #[test]
    fn pattern_generators_are_symmetric() {
        for p in [
            CommPattern::ring(6, 1024),
            CommPattern::stencil2d(2, 3, 1024),
            CommPattern::master_worker(4, 1024),
        ] {
            for a in 0..p.ranks {
                assert_eq!(p.weight_between(a, a), 0.0);
                for b in 0..p.ranks {
                    assert_eq!(p.weight_between(a, b), p.weight_between(b, a));
                }
            }
        }
    }

    #[test]
    fn stencil_links_neighbours_only() {
        let p = CommPattern::stencil2d(2, 2, 64);
        assert_eq!(p.weight_between(0, 1), 1.0);
        assert_eq!(p.weight_between(0, 2), 1.0);
        assert_eq!(p.weight_between(0, 3), 0.0);
    }

    #[test]
    fn greedy_never_worse_than_linear() {
        let prof = profile();
        let placer = Placer::new(&prof);
        for pattern in [
            CommPattern::ring(8, 8 * 1024),
            CommPattern::stencil2d(2, 4, 8 * 1024),
            CommPattern::master_worker(8, 8 * 1024),
        ] {
            let lin = placer.linear(&pattern);
            let greedy = placer.greedy(&pattern);
            assert!(
                greedy.cost_us <= lin.cost_us + 1e-9,
                "greedy {} vs linear {}",
                greedy.cost_us,
                lin.cost_us
            );
        }
    }

    #[test]
    fn anneal_never_worse_than_linear() {
        let prof = profile();
        let placer = Placer::new(&prof);
        let pattern = CommPattern::ring(8, 8 * 1024);
        let lin = placer.linear(&pattern);
        let ann = placer.anneal(&pattern, 42, 2000);
        assert!(ann.cost_us <= lin.cost_us + 1e-9);
    }

    #[test]
    fn placement_beats_adversarial_pattern() {
        // A ring over ranks laid out to cross the node boundary repeatedly
        // is exactly what a good placer fixes: pairs of heavy talkers land
        // on the shared-cache cores.
        let prof = profile();
        let placer = Placer::new(&prof);
        // Master-worker: the workers should cluster around the master's
        // node; the greedy result must beat random placements on average.
        let pattern = CommPattern::master_worker(6, 8 * 1024);
        let greedy = placer.greedy(&pattern);
        let mut rand_costs = Vec::new();
        for seed in 0..8 {
            rand_costs.push(placer.random(&pattern, seed).cost_us);
        }
        let mean_rand: f64 = rand_costs.iter().sum::<f64>() / rand_costs.len() as f64;
        assert!(
            greedy.cost_us < mean_rand,
            "greedy {} vs mean random {mean_rand}",
            greedy.cost_us
        );
    }

    #[test]
    fn cost_accounts_weights() {
        let prof = profile();
        let placer = Placer::new(&prof);
        let mut pattern = CommPattern::ring(4, 1024);
        let base = placer.cost(&pattern, &[0, 1, 2, 3]);
        for w in pattern.weight.iter_mut() {
            *w *= 2.0;
        }
        let doubled = placer.cost(&pattern, &[0, 1, 2, 3]);
        assert!((doubled - 2.0 * base).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn placer_requires_comm_profile() {
        let mut p = SimPlatform::tiny().with_noise(0.0);
        let cfg = SuiteConfig {
            skip_comm: true,
            ..SuiteConfig::small(128 * 1024)
        };
        let prof = run_full_suite(&mut p, &cfg).profile;
        Placer::new(&prof);
    }
}
