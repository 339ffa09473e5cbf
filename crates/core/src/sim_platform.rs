//! [`Platform`] implementation backed by the simulator substrate.
//!
//! A [`SimPlatform`] bundles one node's [`servet_sim::Machine`] (cache and
//! memory benchmarks run within a node, as in the paper) with an optional
//! [`servet_net::VirtualCluster`] spanning every node (communication
//! benchmarks). Measurements pick up a small deterministic multiplicative
//! noise so the suite's tolerance-based clustering is exercised the way a
//! real machine would exercise it.
//!
//! The platform also keeps the **virtual-time ledger**: every measurement
//! charges what the *real* benchmark would have cost — the simulated
//! operation time scaled by the repetition count a real implementation
//! needs for stable numbers, plus a fixed per-measurement setup overhead
//! (process spawn, affinity call, barrier) — four constants, below.
//! Table I of the paper is reproduced from this ledger.

use crate::platform::{CoreId, Platform, SharedStreamJob, TraverseJob};
use servet_net::VirtualCluster;
use servet_sim::machine::SharedJob;
use servet_sim::{CoherenceSpec, CoherenceTraffic, Machine, MemorySystem};
use servet_stats::rng::ChaCha8Rng;

// What one real-world measurement costs beyond the simulated operation
// itself — the Table I ledger's four constants.

/// Fixed setup seconds per measurement (allocation, affinity,
/// synchronization).
const SETUP_S: f64 = 0.4;
/// How many times a real benchmark repeats a traversal measurement.
const TRAVERSE_REPS: f64 = 128.0;
/// Bytes a real STREAM-like copy moves per bandwidth measurement.
const COPY_BYTES: f64 = 8.0 * 1024.0 * 1024.0 * 1024.0;
/// Ping-pong iterations per latency measurement.
const MESSAGE_REPS: f64 = 8_000.0;

/// Trials for concurrent traversals (each trial re-allocates every job's
/// array).
const CONCURRENT_TRIALS: usize = 2;

/// How many freshly-allocated arrays a traversal measurement averages
/// over. Averaging across page mappings is what a real benchmark's
/// repetition loop achieves: the measured miss rate approaches the
/// binomial expectation of Fig. 3. Small arrays span few pages (noisy,
/// cheap to re-measure), so the trial count scales until several thousand
/// page samples back each estimate. A single-core trial costs drawing
/// its page table, about 18–25 ns a page, and the census that prices the
/// passes from it (`Machine::traverse_shared`): one count per access of a
/// pass and cache level, the passes' clock being added in per-binade runs
/// — not a replay of every access through the caches (EXPERIMENTS.md,
/// "Performance", has both costs per page and per access). So the cost
/// of a measurement is roughly constant across sizes while trials ×
/// pages is held near 4096 (256 to 2048 pages), and grows with the
/// pages beyond.
fn traverse_trials(size: usize, page_size: usize) -> usize {
    let pages = (size / page_size).max(1);
    (4096usize.div_ceil(pages)).clamp(2, 16)
}

/// Simulator-backed platform.
pub struct SimPlatform {
    machine: Machine,
    memsys: MemorySystem,
    cluster: Option<VirtualCluster>,
    /// Relative measurement noise (uniform ±noise).
    noise: f64,
    rng: ChaCha8Rng,
    elapsed_s: f64,
    /// Coherence traffic already drained out of the machine via
    /// [`Platform::take_coherence_traffic`]; added back to the machine's
    /// live counters so [`Platform::coherence_traffic_total`] stays
    /// monotone across drains.
    drained_traffic: CoherenceTraffic,
}

impl SimPlatform {
    /// Wrap a machine (and optionally a cluster sharing its node type).
    pub fn new(machine: Machine, cluster: Option<VirtualCluster>) -> Self {
        let memsys = MemorySystem::new(&machine.spec().memory);
        Self {
            machine,
            memsys,
            cluster,
            noise: 0.005,
            rng: ChaCha8Rng::seed_from_u64(0xBEEF),
            elapsed_s: 0.0,
            drained_traffic: CoherenceTraffic::default(),
        }
    }

    /// The paper's Dunnington node with its 24-core single-node cluster.
    pub fn dunnington() -> Self {
        Self::new(
            Machine::new(servet_sim::presets::dunnington()),
            Some(servet_net::presets::dunnington_cluster()),
        )
    }

    /// `nodes` Finis Terrae nodes (the paper uses 2 for communications).
    pub fn finis_terrae(nodes: usize) -> Self {
        Self::new(
            Machine::new(servet_sim::presets::finis_terrae_node()),
            Some(servet_net::presets::finis_terrae_cluster(nodes)),
        )
    }

    /// The Dempsey dual-core (no cluster: cache benchmarks only in §IV-A).
    pub fn dempsey() -> Self {
        Self::new(Machine::new(servet_sim::presets::dempsey()), None)
    }

    /// The unicore Athlon 3200.
    pub fn athlon3200() -> Self {
        Self::new(Machine::new(servet_sim::presets::athlon3200()), None)
    }

    /// A fast small platform for tests.
    pub fn tiny() -> Self {
        Self::new(Machine::new(servet_sim::presets::tiny_smp()), None)
    }

    /// A fast small platform whose L2 is shared by core pairs.
    pub fn tiny_shared_l2() -> Self {
        Self::new(Machine::new(servet_sim::presets::tiny_shared_l2()), None)
    }

    /// A fast small NUMA platform with per-pair buses and per-cell
    /// controllers.
    pub fn tiny_numa() -> Self {
        Self::new(Machine::new(servet_sim::presets::tiny_numa()), None)
    }

    /// A fast 2×4-core cluster for communication tests.
    pub fn tiny_cluster() -> Self {
        let mut spec = servet_sim::presets::tiny_smp();
        spec.name = "tiny_cluster".into();
        Self::new(
            Machine::new(spec),
            Some(servet_net::presets::tiny_cluster()),
        )
    }

    /// Override the measurement noise (0 disables it).
    pub fn with_noise(mut self, noise: f64) -> Self {
        self.noise = noise;
        self
    }

    /// Override the RNG seed for noise.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = ChaCha8Rng::seed_from_u64(seed);
        self
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    fn noisy(&mut self, value: f64) -> f64 {
        if self.noise == 0.0 {
            value
        } else {
            value * (1.0 + self.noise * (self.rng.f64() * 2.0 - 1.0))
        }
    }

    /// Charge the ledger for a traversal measurement covering `accesses`
    /// accesses at `cycles` each.
    fn charge_traverse(&mut self, accesses: f64, cycles: f64) {
        let secs = self
            .machine
            .spec()
            .cycles_to_seconds(accesses * cycles * TRAVERSE_REPS);
        self.elapsed_s += SETUP_S + secs;
    }

    /// The Fig. 1 loop on every job's core at once, `stride` bytes apart
    /// over a private array of the job's size: the mean over `trials`
    /// fresh arrays of one warm-up and two measured passes, charged as the
    /// slowest job's and each read with noise. Every trial starts from a
    /// reset machine, so a one-job trial is priced from its census — its
    /// cost tracks the array's pages, not its accesses — and the cache
    /// contents the census owes are dropped by the next trial's reset,
    /// never written.
    fn strided_trials(&mut self, jobs: &[TraverseJob], stride: usize, trials: usize) -> Vec<f64> {
        assert!(stride > 0, "stride must be positive");
        let mut totals = vec![0.0f64; jobs.len()];
        for _ in 0..trials {
            let arrays: Vec<_> = jobs
                .iter()
                .map(|&(_, size)| self.machine.alloc_array(size))
                .collect();
            self.machine.reset();
            let sim_jobs: Vec<SharedJob<'_>> = jobs
                .iter()
                .zip(&arrays)
                .map(|(&(core, size), array)| SharedJob {
                    core,
                    array,
                    offset: 0,
                    stride,
                    count: size.div_ceil(stride).max(1),
                    write: false,
                })
                .collect();
            let cycles = self.machine.traverse_shared(&sim_jobs, 1, 2);
            for (t, c) in totals.iter_mut().zip(&cycles) {
                *t += c;
            }
        }
        let cycles: Vec<f64> = totals.iter().map(|t| t / trials as f64).collect();
        let worst = cycles.iter().copied().fold(0.0, f64::max);
        let accesses = jobs
            .iter()
            .map(|&(_, s)| (trials * (s / stride).max(1)) as f64)
            .fold(0.0, f64::max);
        self.charge_traverse(accesses, worst);
        cycles.into_iter().map(|c| self.noisy(c)).collect()
    }
}

impl Platform for SimPlatform {
    fn name(&self) -> &str {
        &self.machine.spec().name
    }

    fn num_cores(&self) -> usize {
        self.machine.spec().num_cores
    }

    fn total_cores(&self) -> usize {
        self.cluster
            .as_ref()
            .map_or(self.num_cores(), |c| c.topology().total_cores())
    }

    fn page_size(&self) -> usize {
        self.machine.spec().page_size
    }

    fn traverse_cycles(&mut self, core: CoreId, size: usize, stride: usize) -> f64 {
        let trials = traverse_trials(size, self.machine.spec().page_size);
        self.strided_trials(&[(core, size)], stride, trials)[0]
    }

    fn traverse_concurrent_cycles(&mut self, jobs: &[TraverseJob], stride: usize) -> Vec<f64> {
        self.strided_trials(jobs, stride, CONCURRENT_TRIALS)
    }

    fn copy_bandwidth_gbs(&mut self, active: &[CoreId]) -> Vec<f64> {
        let bw = self.memsys.bandwidth(active);
        // A real measurement streams `copy_bytes` on each core; the run
        // lasts as long as the slowest core.
        let slowest = bw.iter().copied().fold(f64::INFINITY, f64::min);
        if slowest.is_finite() && slowest > 0.0 {
            self.elapsed_s += SETUP_S + COPY_BYTES / (slowest * 1e9);
        }
        bw.into_iter().map(|b| self.noisy(b)).collect()
    }

    fn traverse_pattern_cycles(&mut self, core: CoreId, size: usize, offsets: &[u64]) -> f64 {
        assert!(!offsets.is_empty());
        let trials = traverse_trials(size, self.machine.spec().page_size).min(4);
        let mut total = 0.0;
        for _ in 0..trials {
            let array = self.machine.alloc_array(size);
            self.machine.reset();
            // Warm-up pass, then one measured pass (run_trace replays the
            // exact sequence).
            self.machine.run_trace(core, &array, offsets);
            total += self.machine.run_trace(core, &array, offsets);
        }
        let cycles = total / trials as f64;
        self.charge_traverse((trials * offsets.len()) as f64, cycles);
        self.noisy(cycles)
    }

    fn message_latency_us(&mut self, a: CoreId, b: CoreId, size: usize) -> f64 {
        let cluster = self
            .cluster
            .as_mut()
            .expect("platform has no cluster: messaging unsupported");
        let t = cluster.ping_pong_us(a, b, size, 4);
        self.elapsed_s += SETUP_S + 2.0 * t * 1e-6 * MESSAGE_REPS;
        t
    }

    fn concurrent_message_latency_us(
        &mut self,
        pairs: &[(CoreId, CoreId)],
        size: usize,
    ) -> Vec<f64> {
        let cluster = self
            .cluster
            .as_mut()
            .expect("platform has no cluster: messaging unsupported");
        let lats = cluster.concurrent_send_latency_us(pairs, size);
        let worst = lats.iter().copied().fold(0.0, f64::max);
        self.elapsed_s += SETUP_S + worst * 1e-6 * MESSAGE_REPS;
        lats
    }

    fn supports_messaging(&self) -> bool {
        self.cluster.is_some() && self.total_cores() > 1
    }

    fn supports_coherence_probes(&self) -> bool {
        self.machine.spec().coherence.is_some() && self.num_cores() > 1
    }

    fn shared_stream_cycles(&mut self, buffer_bytes: usize, jobs: &[SharedStreamJob]) -> Vec<f64> {
        let array = self.machine.alloc_shared_array(buffer_bytes);
        self.machine.reset();
        let sim_jobs: Vec<SharedJob<'_>> = jobs
            .iter()
            .map(|j| SharedJob {
                core: j.core,
                array: &array,
                offset: j.offset,
                stride: j.stride,
                count: j.count,
                write: j.write,
            })
            .collect();
        let cycles = self.machine.traverse_shared(&sim_jobs, 1, 4);
        let worst = cycles.iter().copied().fold(0.0, f64::max);
        let accesses = jobs.iter().map(|j| j.count).max().unwrap_or(1) as f64 * 4.0;
        self.charge_traverse(accesses, worst);
        cycles.into_iter().map(|c| self.noisy(c)).collect()
    }

    fn take_coherence_traffic(&mut self) -> Option<CoherenceTraffic> {
        let taken = self.machine.take_coherence_traffic();
        if let Some(t) = &taken {
            self.drained_traffic = self.drained_traffic.plus(t);
        }
        taken
    }

    fn coherence_traffic_total(&self) -> Option<CoherenceTraffic> {
        self.machine
            .coherence_traffic()
            .map(|live| self.drained_traffic.plus(&live))
    }

    fn coherence_params(&self) -> Option<CoherenceSpec> {
        self.machine.spec().coherence
    }

    fn elapsed_seconds(&self) -> f64 {
        self.elapsed_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcalibrator::McalibratorConfig;
    use servet_sim::KB;

    #[test]
    fn traverse_reflects_hierarchy() {
        let mut p = SimPlatform::tiny().with_noise(0.0);
        let small = p.traverse_cycles(0, 4 * KB, KB);
        let large = p.traverse_cycles(0, 512 * KB, KB);
        assert!(small < large);
        assert!((small - 2.0).abs() < 0.5, "small = {small}");
    }

    #[test]
    fn noise_is_bounded() {
        let mut p = SimPlatform::tiny().with_noise(0.01).with_seed(7);
        let vals: Vec<f64> = (0..8).map(|_| p.traverse_cycles(0, 4 * KB, KB)).collect();
        for v in &vals {
            assert!((v - 2.0).abs() / 2.0 < 0.011, "v = {v}");
        }
        // And actually varies.
        assert!(vals.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn concurrent_traverse_matches_machine_behavior() {
        let mut p = SimPlatform::tiny_shared_l2().with_noise(0.0);
        let size = 2 * 128 * KB / 3;
        let reference = p.traverse_cycles(0, size, KB);
        let pair = p.traverse_concurrent_cycles(&[(0, size), (1, size)], KB);
        assert!(pair[0] / reference > 2.0);
    }

    /// The pattern probe's measured pass starts from a free bus, not
    /// behind its own warm-up pass: 1 KB steps over 128 KB read what the
    /// strided traversal reads.
    #[test]
    fn pattern_probe_reads_the_strided_traversal() {
        let mut p = SimPlatform::tiny().with_noise(0.0);
        let size = 128 * KB;
        let offsets: Vec<u64> = (0..size as u64).step_by(KB).collect();
        let pattern = p.traverse_pattern_cycles(0, size, &offsets);
        let strided = p.traverse_cycles(0, size, KB);
        assert!(
            (pattern / strided - 1.0).abs() < 0.05,
            "pattern {pattern} vs strided {strided}"
        );
    }

    /// Every trial of mcalibrator's sweep on Dempsey and `tiny_smp` is
    /// priced from its census, at every size of the full sweep: each
    /// trial resets the machine and walks a private array at 1 KB, beyond
    /// the prefetcher, and neither machine has a middle level.
    #[test]
    fn cache_sweeps_are_priced_by_the_census() {
        let cases = [
            (SimPlatform::dempsey(), McalibratorConfig::default()),
            (SimPlatform::tiny(), McalibratorConfig::small(256 * KB)),
        ];
        for (mut p, config) in cases {
            for size in config.sizes() {
                let before = p.machine().census_priced();
                p.traverse_cycles(0, size, config.stride);
                let trials = traverse_trials(size, p.page_size()) as u64;
                let priced = p.machine().census_priced() - before;
                assert_eq!(priced, trials, "{} at {size} bytes", p.name());
            }
        }
    }

    #[test]
    fn copy_bandwidth_contends() {
        let mut p = SimPlatform::tiny().with_noise(0.0);
        let solo = p.copy_bandwidth_gbs(&[0])[0];
        let both = p.copy_bandwidth_gbs(&[0, 1]);
        assert!(both[0] < solo);
    }

    #[test]
    fn messaging_requires_cluster() {
        let p = SimPlatform::tiny();
        assert!(!p.supports_messaging());
        let p = SimPlatform::dunnington();
        assert!(p.supports_messaging());
        assert_eq!(p.total_cores(), 24);
    }

    #[test]
    #[should_panic]
    fn message_without_cluster_panics() {
        let mut p = SimPlatform::tiny();
        p.message_latency_us(0, 1, 64);
    }

    #[test]
    fn message_latency_layers() {
        let mut p = SimPlatform::finis_terrae(2);
        let intra = p.message_latency_us(0, 1, 16 * KB);
        let inter = p.message_latency_us(0, 16, 16 * KB);
        assert!(inter > intra);
    }

    #[test]
    fn ledger_accumulates() {
        let mut p = SimPlatform::tiny().with_noise(0.0);
        assert_eq!(p.elapsed_seconds(), 0.0);
        p.traverse_cycles(0, 4 * KB, KB);
        let t1 = p.elapsed_seconds();
        assert!(t1 > 0.0);
        p.copy_bandwidth_gbs(&[0]);
        assert!(p.elapsed_seconds() > t1);
    }

    #[test]
    fn shared_stream_shows_false_sharing() {
        let mut p = SimPlatform::tiny().with_noise(0.0);
        assert!(p.supports_coherence_probes());
        let job = |core, offset| SharedStreamJob {
            core,
            offset,
            stride: 64,
            count: 8,
            write: true,
        };
        let hot = p.shared_stream_cycles(4 * KB, &[job(0, 0), job(1, 8)]);
        let hot_traffic = p.take_coherence_traffic().unwrap();
        let cold = p.shared_stream_cycles(4 * KB, &[job(0, 0), job(1, 1024)]);
        let cold_traffic = p.take_coherence_traffic().unwrap();
        assert!(hot[0] > 3.0 * cold[0], "hot {hot:?} vs cold {cold:?}");
        assert!(hot_traffic.invalidations > cold_traffic.invalidations);
        assert!(p.coherence_params().is_some());
    }

    #[test]
    fn presets_construct() {
        assert_eq!(SimPlatform::dunnington().num_cores(), 24);
        assert_eq!(SimPlatform::finis_terrae(2).total_cores(), 32);
        assert_eq!(SimPlatform::dempsey().num_cores(), 2);
        assert_eq!(SimPlatform::athlon3200().num_cores(), 1);
        assert!(!SimPlatform::athlon3200().supports_messaging());
        assert_eq!(SimPlatform::tiny_numa().num_cores(), 8);
        assert_eq!(SimPlatform::tiny_cluster().total_cores(), 8);
    }
}
