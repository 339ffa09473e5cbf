//! Streaming memory bandwidth model with max-min fair sharing.
//!
//! The memory-overhead benchmark (paper §III-C) measures STREAM-like copy
//! bandwidth for an isolated core and for concurrent groups. What governs the
//! shape of Fig. 9 is *capacity sharing*: cores on the same bus split the bus,
//! cores in the same cell split the cell controller, and a core never exceeds
//! its own load/store throughput. This module computes the steady-state
//! allocation by progressive filling (max-min fairness): every active flow is
//! grown at the same rate until some resource saturates, flows through that
//! resource are frozen, and the rest keep growing.

use crate::spec::{CoreId, MemorySpec};

/// Max-min fair allocation of streaming bandwidth.
///
/// `active` lists the flows (cores concurrently streaming); `per_core_cap` is
/// each flow's intrinsic maximum; `resources` are `(capacity, member cores)`
/// constraints. Returns the bandwidth of each flow, in `active` order.
///
/// Duplicate cores in `active` are allowed and are treated as separate flows
/// on the same core's resources (the per-core cap then applies to each flow
/// individually, which benchmark callers never rely on).
pub fn maxmin_fair(
    active: &[CoreId],
    per_core_cap: f64,
    resources: &[(f64, Vec<CoreId>)],
) -> Vec<f64> {
    let n = active.len();
    let mut rate = vec![0.0f64; n];
    let mut fixed = vec![false; n];
    // Flows traversing each resource.
    let members: Vec<Vec<usize>> = resources
        .iter()
        .map(|(_, cores)| (0..n).filter(|&i| cores.contains(&active[i])).collect())
        .collect();
    loop {
        let unfixed: Vec<usize> = (0..n).filter(|&i| !fixed[i]).collect();
        if unfixed.is_empty() {
            break;
        }
        // Largest equal increment every unfixed flow can take.
        let mut delta = unfixed
            .iter()
            .map(|&i| per_core_cap - rate[i])
            .fold(f64::INFINITY, f64::min);
        for (ri, (cap, _)) in resources.iter().enumerate() {
            let used: f64 = members[ri].iter().map(|&i| rate[i]).sum();
            let unfixed_here = members[ri].iter().filter(|&&i| !fixed[i]).count();
            if unfixed_here > 0 {
                delta = delta.min((cap - used) / unfixed_here as f64);
            }
        }
        let delta = delta.max(0.0);
        for &i in &unfixed {
            rate[i] += delta;
        }
        // Freeze flows that hit their own cap or sit on a saturated resource.
        let mut froze = false;
        for &i in &unfixed {
            if per_core_cap - rate[i] <= 1e-12 {
                fixed[i] = true;
                froze = true;
            }
        }
        for (ri, (cap, _)) in resources.iter().enumerate() {
            let used: f64 = members[ri].iter().map(|&i| rate[i]).sum();
            if cap - used <= 1e-9 {
                for &i in &members[ri] {
                    if !fixed[i] {
                        fixed[i] = true;
                        froze = true;
                    }
                }
            }
        }
        if !froze {
            // No constraint binds (e.g. zero active flows on every
            // resource): everyone is at the per-core cap already.
            break;
        }
    }
    rate
}

/// The memory system of one machine, ready to answer bandwidth queries.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    per_core_cap: f64,
    resources: Vec<(f64, Vec<CoreId>)>,
}

impl MemorySystem {
    /// Build from a machine's memory spec.
    pub fn new(spec: &MemorySpec) -> Self {
        Self {
            per_core_cap: spec.core_stream_gbs,
            resources: spec
                .resources
                .iter()
                .map(|r| (r.capacity_gbs, r.cores.clone()))
                .collect(),
        }
    }

    /// Bandwidth (GB/s) of each core in `active` when all stream
    /// concurrently.
    pub fn bandwidth(&self, active: &[CoreId]) -> Vec<f64> {
        maxmin_fair(active, self.per_core_cap, &self.resources)
    }

    /// Bandwidth of a single isolated core — the benchmark's reference
    /// value (`ref` in paper Fig. 6).
    #[cfg(test)]
    pub(crate) fn reference(&self, core: CoreId) -> f64 {
        self.bandwidth(&[core])[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn single_flow_gets_min_of_caps() {
        let r = maxmin_fair(&[0], 4.0, &[(6.4, vec![0, 1])]);
        assert!(close(r[0], 4.0));
        let r = maxmin_fair(&[0], 4.0, &[(3.0, vec![0, 1])]);
        assert!(close(r[0], 3.0));
    }

    #[test]
    fn two_flows_split_a_bus() {
        let r = maxmin_fair(&[0, 1], 4.0, &[(6.4, vec![0, 1])]);
        assert!(close(r[0], 3.2) && close(r[1], 3.2));
    }

    #[test]
    fn no_resources_means_core_cap() {
        let r = maxmin_fair(&[0, 1, 2], 4.0, &[]);
        assert!(r.iter().all(|&x| close(x, 4.0)));
    }

    #[test]
    fn empty_active_is_empty() {
        assert!(maxmin_fair(&[], 4.0, &[(1.0, vec![0])]).is_empty());
    }

    #[test]
    fn conservation_on_saturated_resource() {
        let r = maxmin_fair(&[0, 1, 2, 3], 4.0, &[(6.0, vec![0, 1, 2, 3])]);
        let total: f64 = r.iter().sum();
        assert!(close(total, 6.0), "total = {total}");
        assert!(r.iter().all(|&x| close(x, 1.5)));
    }

    #[test]
    fn unconstrained_flow_unaffected_by_others() {
        // Cores 0,1 share a tight bus; core 5 is on an uncontended one.
        let r = maxmin_fair(&[0, 1, 5], 4.0, &[(3.0, vec![0, 1]), (10.0, vec![5])]);
        assert!(close(r[0], 1.5) && close(r[1], 1.5));
        assert!(close(r[2], 4.0));
    }

    #[test]
    fn nested_resources_tightest_binds() {
        // Bus (2 cores, 4.5) inside a cell (4 cores, 6.0).
        let resources = [
            (4.5, vec![0, 1]),
            (4.5, vec![2, 3]),
            (6.0, vec![0, 1, 2, 3]),
        ];
        // Two cores on the same bus: bus would allow 2.25 each but the cell
        // allows 3.0 each — bus binds.
        let r = maxmin_fair(&[0, 1], 4.0, &resources);
        assert!(close(r[0], 2.25), "{r:?}");
        // Two cores on different buses: cell binds at 3.0 each.
        let r = maxmin_fair(&[0, 2], 4.0, &resources);
        assert!(close(r[0], 3.0), "{r:?}");
        // All four: cell splits 6.0 four ways.
        let r = maxmin_fair(&[0, 1, 2, 3], 4.0, &resources);
        assert!(r.iter().all(|&x| close(x, 1.5)), "{r:?}");
    }

    #[test]
    fn finis_terrae_pair_structure() {
        // The Fig. 9(a) shape: same-bus pairs worst, same-cell pairs 25 %
        // below reference, cross-cell pairs unaffected.
        let ft = presets::finis_terrae_node();
        let ms = MemorySystem::new(&ft.memory);
        let reference = ms.reference(0);
        assert!(close(reference, 4.0));
        let same_bus = ms.bandwidth(&[0, 1])[0];
        let same_cell = ms.bandwidth(&[0, 4])[0];
        let cross_cell = ms.bandwidth(&[0, 8])[0];
        assert!(close(same_bus, 2.25), "same_bus = {same_bus}");
        assert!(close(same_cell, 3.0), "same_cell = {same_cell}");
        assert!(close(cross_cell, 4.0), "cross_cell = {cross_cell}");
        assert!(same_bus < same_cell && same_cell < cross_cell);
    }

    #[test]
    fn dunnington_pairs_uniform() {
        // Fig. 9(a): on Dunnington every pair sees the same overhead.
        let d = presets::dunnington();
        let ms = MemorySystem::new(&d.memory);
        let reference = ms.reference(0);
        let mut values = Vec::new();
        for b in 1..d.num_cores {
            values.push(ms.bandwidth(&[0, b])[0]);
        }
        assert!(values.iter().all(|&v| close(v, values[0])));
        assert!(values[0] < reference);
    }

    #[test]
    fn scalability_plateaus_at_capacity() {
        // Effective aggregate bandwidth on Dunnington plateaus at the FSB
        // capacity — the Fig. 9(b) curve.
        let d = presets::dunnington();
        let ms = MemorySystem::new(&d.memory);
        for n in 2..=8usize {
            let cores: Vec<CoreId> = (0..n).collect();
            let bw = ms.bandwidth(&cores);
            let total: f64 = bw.iter().sum();
            assert!(close(total, 6.4), "n = {n}, total = {total}");
        }
    }
}
