//! The virtual cluster: ranks, affinity, timed messaging.
//!
//! [`VirtualCluster`] plays the role MPI plays in the paper's reference
//! implementation: processes (ranks) are pinned to cores (the paper uses the
//! `sched` library for affinity), point-to-point messages are timed, and
//! several messages can be sent concurrently. Every latency is *virtual*,
//! and the cluster keeps no clock: the execution times of Table I come
//! from `servet_core::SimPlatform`'s ledger, which charges
//! each latency measurement a fixed setup plus the measured latency times
//! the ping-pong repetitions a real run would make.

use crate::contention::ContentionModel;
use crate::model::CommModel;
use crate::topology::{ClusterTopology, GlobalCore};
use servet_stats::rng::splitmix64;

/// Deterministic hash → `[0, 1)` float, used for measurement jitter.
fn jitter_unit(mut seed: u64) -> f64 {
    (splitmix64(&mut seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// A simulated multicore cluster with an MPI-like timed messaging surface.
#[derive(Debug, Clone)]
pub struct VirtualCluster {
    topo: ClusterTopology,
    model: CommModel,
    contention: ContentionModel,
    /// `affinity[rank]` — the core each rank is pinned to.
    affinity: Vec<GlobalCore>,
    /// Operation counter; salts the jitter.
    ops: u64,
    seed: u64,
}

impl VirtualCluster {
    /// Create a cluster with one rank per core, rank `i` pinned to core `i`.
    pub fn new(topo: ClusterTopology, model: CommModel, contention: ContentionModel) -> Self {
        topo.validate().expect("invalid topology");
        let n = topo.total_cores();
        Self {
            topo,
            model,
            contention,
            affinity: (0..n).collect(),
            ops: 0,
            seed: 0xC0FFEE,
        }
    }

    /// Change the jitter seed (distinct seeds give distinct measurement
    /// noise streams).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The cluster topology.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topo
    }

    /// The ground-truth communication model the tests check measurements
    /// against.
    #[cfg(test)]
    pub(crate) fn model(&self) -> &CommModel {
        &self.model
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.affinity.len()
    }

    /// Pin ranks to cores. Cores must be distinct and in range.
    pub fn set_affinity(&mut self, affinity: Vec<GlobalCore>) {
        let mut seen = vec![false; self.topo.total_cores()];
        for &c in &affinity {
            assert!(c < self.topo.total_cores(), "core {c} out of range");
            assert!(!seen[c], "core {c} pinned twice");
            seen[c] = true;
        }
        self.affinity = affinity;
    }

    /// Core a rank is pinned to.
    pub(crate) fn core_of_rank(&self, rank: usize) -> GlobalCore {
        self.affinity[rank]
    }

    /// Deterministic multiplicative jitter for the next measurement.
    fn jitter(&mut self, a: GlobalCore, b: GlobalCore, size: usize) -> f64 {
        let j = self.model.jitter;
        if j == 0.0 {
            return 1.0;
        }
        self.ops += 1;
        let h = self
            .seed
            .wrapping_mul(31)
            .wrapping_add(a as u64)
            .wrapping_mul(31)
            .wrapping_add(b as u64)
            .wrapping_mul(31)
            .wrapping_add(size as u64)
            .wrapping_mul(31)
            .wrapping_add(self.ops);
        1.0 + j * (2.0 * jitter_unit(h) - 1.0)
    }

    /// Latency in µs of one message from `rank_a` to `rank_b`.
    ///
    /// This is the `l = Latency sending a message between the two cores`
    /// step of the paper's Fig. 7.
    pub fn send_latency_us(&mut self, rank_a: usize, rank_b: usize, size: usize) -> f64 {
        let (a, b) = (self.core_of_rank(rank_a), self.core_of_rank(rank_b));
        assert_ne!(a, b, "rank {rank_a} and {rank_b} share core {a}");
        let layer = self.topo.layer_between(a, b);
        let base = self.model.latency_us(layer, size);
        base * self.jitter(a, b, size)
    }

    /// Mean one-way latency over `reps` ping-pong iterations.
    pub fn ping_pong_us(&mut self, rank_a: usize, rank_b: usize, size: usize, reps: usize) -> f64 {
        assert!(reps > 0);
        let mut total = 0.0;
        for _ in 0..reps {
            total += self.send_latency_us(rank_a, rank_b, size);
            total += self.send_latency_us(rank_b, rank_a, size);
        }
        total / (2.0 * reps as f64)
    }

    /// Latencies when all `pairs` (by rank) send one `size`-byte message
    /// concurrently — the scalability probe of §III-D.
    pub fn concurrent_send_latency_us(
        &mut self,
        pairs: &[(usize, usize)],
        size: usize,
    ) -> Vec<f64> {
        let core_pairs: Vec<(GlobalCore, GlobalCore)> = pairs
            .iter()
            .map(|&(ra, rb)| (self.core_of_rank(ra), self.core_of_rank(rb)))
            .collect();
        let slowdowns = self.contention.slowdowns(&self.topo, &core_pairs);
        let mut out = Vec::with_capacity(pairs.len());
        for (&(a, b), &slow) in core_pairs.iter().zip(&slowdowns) {
            let layer = self.topo.layer_between(a, b);
            let base = self.model.latency_us(layer, size);
            out.push(base * slow * self.jitter(a, b, size));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::topology::Layer;

    fn ft() -> VirtualCluster {
        presets::finis_terrae_cluster(2)
    }

    #[test]
    fn latency_reflects_layers() {
        let mut c = ft();
        let intra_proc = c.send_latency_us(0, 1, 16 * 1024);
        let intra_cell = c.send_latency_us(0, 2, 16 * 1024);
        let intra_node = c.send_latency_us(0, 8, 16 * 1024);
        let inter_node = c.send_latency_us(0, 16, 16 * 1024);
        assert!(intra_proc < intra_cell);
        assert!(intra_cell < intra_node);
        assert!(intra_node < inter_node);
        // Paper: intra-node ≈ 2× faster than inter-node.
        let intra_avg = (intra_proc + intra_cell + intra_node) / 3.0;
        let ratio = inter_node / intra_avg;
        assert!((1.5..3.5).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let mut c1 = ft();
        let mut c2 = ft();
        for _ in 0..32 {
            let a = c1.send_latency_us(0, 16, 1024);
            let b = c2.send_latency_us(0, 16, 1024);
            assert_eq!(a, b);
        }
        let base = c1.model().latency_us(Layer::InterNode, 1024);
        let j = c1.model().jitter;
        let t = c1.send_latency_us(0, 16, 1024);
        assert!(t >= base * (1.0 - j) && t <= base * (1.0 + j));
    }

    #[test]
    fn repeated_sends_vary_within_jitter() {
        let mut c = ft();
        let a = c.send_latency_us(0, 16, 4096);
        let b = c.send_latency_us(0, 16, 4096);
        assert_ne!(a, b, "jitter should vary across trials");
    }

    #[test]
    fn ping_pong_averages() {
        let mut c = ft();
        let m = c.ping_pong_us(0, 16, 16 * 1024, 8);
        let base = c.model().latency_us(Layer::InterNode, 16 * 1024);
        assert!((m - base).abs() / base < 0.05, "mean {m} vs base {base}");
    }

    #[test]
    fn concurrent_sends_slow_down() {
        let mut c = ft();
        let solo = c.send_latency_us(0, 16, 16 * 1024);
        let pairs: Vec<(usize, usize)> = (0..16).map(|i| (i, 16 + i)).collect();
        let lat = c.concurrent_send_latency_us(&pairs, 16 * 1024);
        let worst = lat.iter().copied().fold(0.0, f64::max);
        assert!(
            worst > 3.0 * solo,
            "16 concurrent IB messages: {worst} vs {solo}"
        );
    }

    /// One message meets no contention: its concurrent price is the
    /// point-to-point price bit for bit, with the same jitter draw — so a
    /// broadcast round of one message may be priced either way.
    #[test]
    fn one_concurrent_message_is_a_send() {
        for make in [ft as fn() -> VirtualCluster, presets::dunnington_cluster] {
            let (mut alone, mut concurrent) = (make(), make());
            let topo = alone.topology().clone();
            for layer in topo.layers_present() {
                let (a, b) = (1..topo.total_cores())
                    .map(|b| (0, b))
                    .find(|&(a, b)| topo.layer_between(a, b) == layer)
                    .expect("a pair from core 0 on every layer");
                for size in [64, 4096, 1 << 20] {
                    let one = concurrent.concurrent_send_latency_us(&[(a, b)], size);
                    let send = alone.send_latency_us(a, b, size);
                    assert_eq!(one[0].to_bits(), send.to_bits(), "{layer:?} {size} B");
                }
            }
        }
    }

    #[test]
    fn affinity_changes_layers() {
        let mut c = ft();
        // Pin rank 0 to core 0 and rank 1 to core 16: the rank pair now
        // crosses the network.
        let mut aff: Vec<usize> = (0..32).collect();
        aff.swap(1, 16);
        c.set_affinity(aff);
        assert_eq!(c.core_of_rank(1), 16);
        let t01 = c.send_latency_us(0, 1, 16 * 1024);
        let base = c.model().latency_us(Layer::InterNode, 16 * 1024);
        assert!((t01 - base).abs() / base < 0.05);
        assert_eq!(c.num_ranks(), 32);
    }

    #[test]
    #[should_panic]
    fn duplicate_affinity_panics() {
        let mut c = ft();
        c.set_affinity(vec![0, 0]);
    }

    #[test]
    #[should_panic]
    fn rank_out_of_range_panics() {
        let mut c = ft();
        c.set_affinity(vec![0, 1]);
        // Rank 2 no longer exists after shrinking the job to 2 ranks.
        c.send_latency_us(0, 2, 64);
    }
}
