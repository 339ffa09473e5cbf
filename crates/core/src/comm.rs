//! Communication cost determination (paper §III-D, Fig. 7).
//!
//! Three stages, as in the paper:
//!
//! 1. **Layer discovery** — the latency of an L1-sized message is measured
//!    for every pair of cores; pairs with similar latencies are grouped
//!    into *communication layers* (the `L` / `Pl` arrays of Fig. 7). The
//!    L1 message size is chosen "because it allows to find differences in
//!    communications when sharing other cache levels".
//! 2. **Point-to-point characterization** — one representative pair per
//!    layer is micro-benchmarked across message sizes; every other pair of
//!    the layer is assumed to perform like its representative.
//! 3. **Scalability** — all cores of a layer send concurrently; comparing
//!    with the isolated latency quantifies the interconnect's degradation
//!    (e.g. the paper's 7× for 32 concurrent InfiniBand messages), which
//!    autotuned codes use to decide whether to gather messages.

use crate::platform::{CoreId, Platform};
use serde::{Deserialize, Serialize};
use servet_stats::cluster::cluster_by_tolerance;
use servet_stats::summary::mean;

/// Relative tolerance when clustering "similar" probe latencies into
/// layers (Fig. 7).
const CLUSTER_TOLERANCE: f64 = 0.15;

/// Configuration of the communication benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommConfig {
    /// Message size of the layer-discovery probe; the paper uses the L1
    /// cache size.
    pub probe_size: usize,
    /// Message sizes of the point-to-point sweep.
    pub p2p_sizes: Vec<usize>,
    /// Concurrent message counts probed per layer (capped by the layer's
    /// population).
    pub scalability_counts: Vec<usize>,
}

impl CommConfig {
    /// Default configuration given a detected L1 size.
    pub fn with_l1_size(l1: usize) -> Self {
        Self {
            probe_size: l1,
            p2p_sizes: (4..=24).map(|e| 1usize << e).collect(), // 16 B .. 16 MB
            scalability_counts: vec![1, 2, 4, 8, 16, 24, 32],
        }
    }

    /// A light configuration for tests.
    pub fn small(l1: usize) -> Self {
        Self {
            probe_size: l1,
            p2p_sizes: (6..=18).step_by(3).map(|e| 1usize << e).collect(),
            scalability_counts: vec![1, 2, 4, 8],
        }
    }
}

/// One point of a point-to-point sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct P2pPoint {
    /// Message size, bytes.
    pub size: usize,
    /// One-way latency, µs.
    pub latency_us: f64,
    /// Effective bandwidth, GB/s.
    pub bandwidth_gbs: f64,
}

/// One discovered communication layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommLayer {
    /// Representative probe latency, µs — the paper's `L[i]`.
    pub latency_us: f64,
    /// Core pairs in this layer — the paper's `Pl[i]`.
    pub pairs: Vec<(CoreId, CoreId)>,
    /// The pair micro-benchmarked on behalf of the layer.
    pub representative: (CoreId, CoreId),
    /// Point-to-point sweep of the representative pair.
    pub p2p: Vec<P2pPoint>,
    /// `(concurrent messages, mean latency µs, slowdown vs isolated)`.
    pub scalability: Vec<(usize, f64, f64)>,
}

impl CommLayer {
    /// Interpolated one-way latency for an arbitrary message size, from
    /// the p2p sweep (log-linear between sampled sizes, linear
    /// extrapolation at the ends).
    pub fn latency_for_size(&self, size: usize) -> f64 {
        assert!(!self.p2p.is_empty(), "layer has no p2p sweep");
        let pts = &self.p2p;
        if size <= pts[0].size {
            return pts[0].latency_us;
        }
        if let Some(last) = pts.last() {
            if size >= last.size {
                // Extrapolate with the tail's per-byte cost.
                if pts.len() >= 2 {
                    let a = &pts[pts.len() - 2];
                    let per_byte =
                        (last.latency_us - a.latency_us) / (last.size - a.size).max(1) as f64;
                    return last.latency_us + per_byte * (size - last.size) as f64;
                }
                return last.latency_us;
            }
        }
        let hi = pts.iter().position(|p| p.size >= size).expect("covered");
        let (a, b) = (&pts[hi - 1], &pts[hi]);
        let frac = (size - a.size) as f64 / (b.size - a.size) as f64;
        a.latency_us + frac * (b.latency_us - a.latency_us)
    }
}

/// Full result of the communication benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommResult {
    /// Probe message size used for layer discovery, bytes.
    pub probe_size: usize,
    /// `true` when the probe size is the configured default rather than a
    /// detected L1 size — the suite fell back because cache detection
    /// returned no levels. A consumer comparing profiles must not read a
    /// fallback size as a detection result.
    #[serde(default)]
    pub probe_size_fallback: bool,
    /// Latency of every probed pair, for Fig. 10a.
    pub pair_latency: Vec<((CoreId, CoreId), f64)>,
    /// Discovered layers, fastest first.
    pub layers: Vec<CommLayer>,
}

impl CommResult {
    /// Number of layers — the paper's `n`.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Index of the layer containing the pair, if it was probed.
    pub fn layer_of(&self, a: CoreId, b: CoreId) -> Option<usize> {
        let key = (a.min(b), a.max(b));
        self.layers.iter().position(|l| l.pairs.contains(&key))
    }

    /// Estimated one-way latency between two cores for any message size:
    /// the pair's layer performs like its representative (§III-D).
    pub fn predicted_latency_us(&self, a: CoreId, b: CoreId, size: usize) -> Option<f64> {
        self.layer_of(a, b)
            .map(|i| self.layers[i].latency_for_size(size))
    }
}

/// Run the full communication benchmark.
pub fn characterize_communication(platform: &mut dyn Platform, config: &CommConfig) -> CommResult {
    assert!(platform.supports_messaging(), "platform cannot message");
    let total = platform.total_cores();

    // Stage 1: probe every pair and cluster latencies (Fig. 7).
    let mut pair_latency = Vec::new();
    let mut measurements = Vec::new();
    for a in 0..total {
        for b in a + 1..total {
            let l = platform.message_latency_us(a, b, config.probe_size);
            pair_latency.push(((a, b), l));
            measurements.push((l, (a, b)));
        }
    }
    let mut clusters = cluster_by_tolerance(measurements, CLUSTER_TOLERANCE);
    clusters.sort_by(|x, y| x.value.total_cmp(&y.value));

    // Stages 2 and 3 per layer.
    let mut layers = Vec::with_capacity(clusters.len());
    for c in clusters {
        let representative = c.members[0];
        let p2p = config
            .p2p_sizes
            .iter()
            .map(|&size| {
                let latency_us =
                    platform.message_latency_us(representative.0, representative.1, size);
                P2pPoint {
                    size,
                    latency_us,
                    bandwidth_gbs: if latency_us > 0.0 {
                        size as f64 / (latency_us * 1000.0)
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        let messages = layer_messages(&c.members);
        let isolated =
            platform.message_latency_us(representative.0, representative.1, config.probe_size);
        let mut scalability = Vec::new();
        for &n in &config.scalability_counts {
            if n > messages.len() {
                break;
            }
            let lats = platform.concurrent_message_latency_us(&messages[..n], config.probe_size);
            let avg = mean(&lats);
            scalability.push((n, avg, avg / isolated));
        }
        layers.push(CommLayer {
            latency_us: c.value,
            pairs: c.members,
            representative,
            p2p,
            scalability,
        });
    }
    CommResult {
        probe_size: config.probe_size,
        probe_size_fallback: false,
        pair_latency,
        layers,
    }
}

/// Build the concurrent-message set of a layer: every core involved in the
/// layer sends one message to a partner it shares the layer with — `N`
/// cores yield `N` concurrent messages, matching the paper's "all the cores
/// in a given layer concurrently sending one message".
fn layer_messages(pairs: &[(CoreId, CoreId)]) -> Vec<(CoreId, CoreId)> {
    let mut cores: Vec<CoreId> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
    cores.sort_unstable();
    cores.dedup();
    let mut messages = Vec::with_capacity(cores.len());
    for &c in &cores {
        if let Some(&(a, b)) = pairs.iter().find(|&&(a, b)| a == c || b == c) {
            let partner = if a == c { b } else { a };
            messages.push((c, partner));
        }
    }
    messages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_platform::SimPlatform;
    use servet_sim::KB;

    fn tiny() -> SimPlatform {
        SimPlatform::tiny_cluster()
    }

    #[test]
    fn tiny_cluster_layers_discovered() {
        // tiny cluster ground truth: SharedCache {0,1}, IntraProcessor
        // {2,3}, IntraNode (cross-socket), InterNode.
        let mut p = tiny();
        let r = characterize_communication(&mut p, &CommConfig::small(8 * KB));
        assert_eq!(
            r.num_layers(),
            4,
            "{:#?}",
            r.layers.iter().map(|l| l.latency_us).collect::<Vec<_>>()
        );
        // Fastest layer holds exactly the shared-cache pairs (0,1), (4,5).
        assert_eq!(r.layers[0].pairs, vec![(0, 1), (4, 5)]);
        // Slowest layer is inter-node, 4×4 = 16 pairs.
        assert_eq!(r.layers.last().unwrap().pairs.len(), 16);
        // Latencies strictly ordered.
        for w in r.layers.windows(2) {
            assert!(w[0].latency_us < w[1].latency_us);
        }
    }

    #[test]
    fn layer_lookup_and_prediction() {
        let mut p = tiny();
        let r = characterize_communication(&mut p, &CommConfig::small(8 * KB));
        assert_eq!(r.layer_of(0, 1), Some(0));
        assert_eq!(r.layer_of(1, 0), Some(0));
        let inter = r.layer_of(0, 4).unwrap();
        assert_eq!(inter, r.num_layers() - 1);
        let small = r.predicted_latency_us(0, 4, 64).unwrap();
        let large = r.predicted_latency_us(0, 4, 256 * KB).unwrap();
        assert!(small < large);
        assert!(r.predicted_latency_us(0, 1, 64).unwrap() < small);
    }

    #[test]
    fn p2p_bandwidth_grows_with_size() {
        let mut p = tiny();
        let r = characterize_communication(&mut p, &CommConfig::small(8 * KB));
        for layer in &r.layers {
            let first = layer.p2p.first().unwrap().bandwidth_gbs;
            let last = layer.p2p.last().unwrap().bandwidth_gbs;
            assert!(last > first, "bandwidth should grow: {first} -> {last}");
        }
    }

    #[test]
    fn scalability_reports_slowdown() {
        let mut p = tiny();
        let r = characterize_communication(&mut p, &CommConfig::small(8 * KB));
        let inter = r.layers.last().unwrap();
        let last = inter.scalability.last().unwrap();
        assert!(last.0 >= 4);
        assert!(last.2 > 1.3, "inter-node slowdown = {}", last.2);
        // Isolated message has slowdown ≈ 1.
        let first = inter.scalability.first().unwrap();
        assert_eq!(first.0, 1);
        assert!((first.2 - 1.0).abs() < 0.15, "{}", first.2);
    }

    #[test]
    fn layer_messages_one_per_core() {
        let msgs = layer_messages(&[(0, 1), (0, 2), (3, 4)]);
        assert_eq!(msgs.len(), 5);
        // Each core appears exactly once as a sender.
        let senders: Vec<usize> = msgs.iter().map(|&(a, _)| a).collect();
        assert_eq!(senders, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn interpolation_brackets() {
        let layer = CommLayer {
            latency_us: 1.0,
            pairs: vec![(0, 1)],
            representative: (0, 1),
            p2p: vec![
                P2pPoint {
                    size: 64,
                    latency_us: 1.0,
                    bandwidth_gbs: 0.064,
                },
                P2pPoint {
                    size: 1024,
                    latency_us: 2.0,
                    bandwidth_gbs: 0.512,
                },
            ],
            scalability: Vec::new(),
        };
        assert_eq!(layer.latency_for_size(16), 1.0);
        assert_eq!(layer.latency_for_size(64), 1.0);
        let mid = layer.latency_for_size(544);
        assert!(mid > 1.0 && mid < 2.0);
        // Extrapolation beyond the last point keeps the tail slope.
        assert!(layer.latency_for_size(2048) > 2.0);
    }

    #[test]
    #[should_panic]
    fn messaging_unsupported_panics() {
        let mut p = SimPlatform::tiny(); // no cluster
        characterize_communication(&mut p, &CommConfig::small(8 * KB));
    }
}
