//! The platform abstraction the benchmarks run against.
//!
//! Every Servet benchmark (Figs. 1, 5, 6, 7 of the paper) is written once
//! against [`Platform`] and runs unchanged on:
//!
//! * [`crate::sim_platform::SimPlatform`] — the simulated machines and
//!   clusters of `servet-sim` / `servet-net` (used by every experiment
//!   reproduction in this repository), and
//! * `servet_host::HostPlatform` — real timed loops on the machine the
//!   program runs on.
//!
//! The trait's operations are exactly the measurement primitives the
//! paper's benchmarks need — a strided traversal timed in cycles, a
//! concurrent traversal, a STREAM-like copy bandwidth, a message latency,
//! and a concurrent-message latency — plus an elapsed-time ledger used to
//! reproduce Table I.

use servet_sim::{CoherenceSpec, CoherenceTraffic};

/// A core index. For cache and memory benchmarks, cores `0..num_cores()`
/// of one shared-memory node; for communication benchmarks, global cores
/// `0..total_cores()` across the cluster.
pub type CoreId = usize;

/// One concurrent-traversal job: `(core, array_size_bytes)`.
pub type TraverseJob = (CoreId, usize);

/// One access stream of a shared-buffer coherence probe: `count`
/// accesses per pass over one buffer shared by every stream of the
/// probe, starting at byte `offset`, `stride` bytes apart.
///
/// This is the primitive under the false-sharing sweep (two cores
/// writing a sub-line distance apart) and the cache-mediated
/// communication model (§III-D): producer writes, consumer reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedStreamJob {
    /// Core executing the stream.
    pub core: CoreId,
    /// Byte offset of the stream's first access within the buffer.
    pub offset: usize,
    /// Stride in bytes between accesses.
    pub stride: usize,
    /// Accesses per pass.
    pub count: usize,
    /// Whether the accesses are stores.
    pub write: bool,
}

/// The measurement surface of a machine under test.
pub trait Platform {
    /// Machine name, used in reports.
    fn name(&self) -> &str;

    /// Cores of one shared-memory node (cache and memory benchmarks).
    fn num_cores(&self) -> usize;

    /// Cores across the whole cluster (communication benchmarks). Equals
    /// [`Self::num_cores`] for a single node.
    fn total_cores(&self) -> usize {
        self.num_cores()
    }

    /// OS page size in bytes, an input to the probabilistic cache-size
    /// algorithm (Fig. 3).
    fn page_size(&self) -> usize;

    /// Average cycles per access of a strided traversal of a fresh
    /// `size`-byte array on `core` — the measured body of mcalibrator
    /// (Fig. 1).
    fn traverse_cycles(&mut self, core: CoreId, size: usize, stride: usize) -> f64;

    /// Run one traversal per job concurrently; returns average cycles per
    /// access for each job, in order (Fig. 5's concurrent invocation).
    fn traverse_concurrent_cycles(&mut self, jobs: &[TraverseJob], stride: usize) -> Vec<f64>;

    /// STREAM-like copy bandwidth in GB/s of each core in `active` while
    /// all of them stream concurrently (Fig. 6's measurement).
    fn copy_bandwidth_gbs(&mut self, active: &[CoreId]) -> Vec<f64>;

    /// Average cycles per access of an *arbitrary* access pattern over a
    /// fresh `size`-byte array: `offsets` are byte offsets visited in
    /// order (one warm-up pass, then measured passes).
    ///
    /// The paper's benchmarks only need fixed strides; the micro-benchmark
    /// extensions (`crate::micro`) use irregular patterns to defeat the
    /// prefetcher when probing line size and associativity.
    fn traverse_pattern_cycles(&mut self, core: CoreId, size: usize, offsets: &[u64]) -> f64;

    /// Whether message-passing benchmarks are available (false on a
    /// unicore machine such as the Athlon).
    fn supports_messaging(&self) -> bool {
        self.total_cores() > 1
    }

    /// Mean one-way latency in µs of a `size`-byte message between global
    /// cores `a` and `b` (Fig. 7's measurement).
    fn message_latency_us(&mut self, a: CoreId, b: CoreId, size: usize) -> f64;

    /// Latencies when every pair sends a `size`-byte message concurrently
    /// (the scalability probe of §III-D).
    fn concurrent_message_latency_us(
        &mut self,
        pairs: &[(CoreId, CoreId)],
        size: usize,
    ) -> Vec<f64>;

    /// Whether shared-buffer coherence probes ([`Self::shared_stream_cycles`])
    /// are available. False by default: only platforms that can run
    /// read/write streams over one shared buffer — and tell the cost
    /// apart from noise — should opt in.
    fn supports_coherence_probes(&self) -> bool {
        false
    }

    /// Average cycles per access for each stream of a shared-buffer
    /// probe over a fresh `buffer_bytes` buffer (one warm-up pass, then
    /// measured passes), in job order.
    ///
    /// Only meaningful when [`Self::supports_coherence_probes`] is true;
    /// the default implementation panics so that unsupported platforms
    /// fail loudly rather than return fabricated numbers.
    fn shared_stream_cycles(&mut self, buffer_bytes: usize, jobs: &[SharedStreamJob]) -> Vec<f64> {
        let _ = (buffer_bytes, jobs);
        panic!(
            "platform {:?} does not support coherence probes (gate on supports_coherence_probes)",
            self.name()
        );
    }

    /// Coherence traffic accumulated by shared-buffer probes since the
    /// last call, when the platform can observe it (hardware platforms
    /// usually cannot; the simulator can).
    fn take_coherence_traffic(&mut self) -> Option<CoherenceTraffic> {
        None
    }

    /// Running total of coherence traffic observed over the platform's
    /// whole lifetime, *without* draining anything — monotone even
    /// across [`Self::take_coherence_traffic`] calls, so callers can
    /// snapshot it around a suite stage and diff
    /// ([`CoherenceTraffic::since`]) to attribute traffic to the stage.
    /// `None` when the platform cannot observe coherence traffic.
    fn coherence_traffic_total(&self) -> Option<CoherenceTraffic> {
        None
    }

    /// The machine's coherence transaction latencies, when known. Run
    /// manifests record these so a zoo run is reproducible from the
    /// manifest alone.
    fn coherence_params(&self) -> Option<CoherenceSpec> {
        None
    }

    /// Wall-clock (or virtual) seconds consumed by all measurements so far.
    /// The suite reads deltas of this to reproduce Table I.
    fn elapsed_seconds(&self) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivially fake platform exercising the trait's defaults.
    struct Fake {
        cores: usize,
    }

    impl Platform for Fake {
        fn name(&self) -> &str {
            "fake"
        }
        fn num_cores(&self) -> usize {
            self.cores
        }
        fn page_size(&self) -> usize {
            4096
        }
        fn traverse_cycles(&mut self, _c: CoreId, _s: usize, _st: usize) -> f64 {
            1.0
        }
        fn traverse_concurrent_cycles(&mut self, jobs: &[TraverseJob], _st: usize) -> Vec<f64> {
            vec![1.0; jobs.len()]
        }
        fn copy_bandwidth_gbs(&mut self, active: &[CoreId]) -> Vec<f64> {
            vec![1.0; active.len()]
        }
        fn traverse_pattern_cycles(&mut self, _c: CoreId, _s: usize, _o: &[u64]) -> f64 {
            1.0
        }
        fn message_latency_us(&mut self, _a: CoreId, _b: CoreId, _s: usize) -> f64 {
            1.0
        }
        fn concurrent_message_latency_us(
            &mut self,
            pairs: &[(CoreId, CoreId)],
            _s: usize,
        ) -> Vec<f64> {
            vec![1.0; pairs.len()]
        }
        fn elapsed_seconds(&self) -> f64 {
            0.0
        }
    }

    #[test]
    fn default_total_cores_equals_num_cores() {
        let f = Fake { cores: 4 };
        assert_eq!(f.total_cores(), 4);
    }

    #[test]
    fn default_messaging_support() {
        assert!(Fake { cores: 2 }.supports_messaging());
        assert!(!Fake { cores: 1 }.supports_messaging());
    }

    #[test]
    fn coherence_probes_default_to_unsupported() {
        let mut f = Fake { cores: 4 };
        assert!(!f.supports_coherence_probes());
        assert!(f.take_coherence_traffic().is_none());
        assert!(f.coherence_params().is_none());
    }

    #[test]
    #[should_panic(expected = "does not support coherence probes")]
    fn default_shared_stream_panics() {
        let mut f = Fake { cores: 4 };
        f.shared_stream_cycles(
            1024,
            &[SharedStreamJob {
                core: 0,
                offset: 0,
                stride: 64,
                count: 4,
                write: true,
            }],
        );
    }
}
