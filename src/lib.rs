//! # servet
//!
//! A Rust reproduction of **Servet: A Benchmark Suite for Autotuning on
//! Multicore Clusters** (J. González-Domínguez, G. L. Taboada,
//! B. B. Fraguela, M. J. Martín, J. Touriño — IPDPS 2010).
//!
//! Servet *measures* the hardware parameters autotuned parallel codes
//! need — cache sizes and sharing topology, memory-access bottlenecks,
//! communication layers and their scalability — instead of trusting
//! vendor specifications. This facade crate re-exports the whole
//! workspace:
//!
//! * [`core`] (`servet-core`) — the benchmark suite itself: mcalibrator,
//!   the probabilistic cache-size algorithm, shared-cache detection,
//!   memory-overhead characterization, communication-cost determination,
//!   the [`core::MachineProfile`] they produce, and the
//!   [`core::zoo`] batch driver that measures whole populations of
//!   perturbed machines (`servet zoo`) and scores detection accuracy
//!   against ground truth.
//! * [`sim`] (`servet-sim`) — the machine simulator substrate: cache
//!   hierarchies, virtual memory, prefetchers, memory buses.
//! * [`net`] (`servet-net`) — the cluster interconnect simulator:
//!   communication layers, protocol models, contention, collectives.
//! * [`host`] (`servet-host`) — the real-hardware backend.
//! * [`autotune`] (`servet-autotune`) — consumers of the profile:
//!   process placement, tiling, message aggregation, collective
//!   selection.
//! * [`tune`] (`servet-tune`) — search-based autotuning: countable
//!   parameter spaces, four search strategies over a pluggable
//!   evaluation oracle (simulator trace replay or a closed-form model
//!   over a measured profile), and the zoo comparison that races search
//!   against the analytic advice (`servet tune`).
//! * [`registry`] (`servet-registry`) — the serving layer: a
//!   content-addressed profile store, sharded caches, a memoized advice
//!   engine and tune engine, and an event-driven TCP server that
//!   multiplexes thousands of connections over a fixed worker pool
//!   (`servet serve` / `servet query` / `servet loadgen`).
//! * [`stats`] (`servet-stats`) — binomial tails, gradients, clustering,
//!   union-find, regression.
//! * [`obs`] (`servet-obs`) — spans, counters, and latency histograms;
//!   `servet --trace` renders the span tree of any run.
//!
//! `ARCHITECTURE.md` at the repository root maps these crates to the
//! paper's sections and to each other.
//!
//! ## Quickstart
//!
//! ```
//! use servet::prelude::*;
//!
//! // Measure a (simulated) 24-core Dunnington node end to end.
//! let mut platform = SimPlatform::tiny_cluster();     // use ::dunnington() for the real thing
//! let config = SuiteConfig::small(256 * 1024);        // ::default() for full machines
//! let report = run_full_suite(&mut platform, &config);
//! let profile = &report.profile;
//! assert!(profile.num_cache_levels() >= 1);
//!
//! // The profile is what applications consult at run time.
//! let json = profile.to_json();
//! assert!(json.contains("cache_levels"));
//! ```

pub use servet_autotune as autotune;
pub use servet_core as core;
pub use servet_host as host;
pub use servet_net as net;
pub use servet_obs as obs;
pub use servet_registry as registry;
pub use servet_sim as sim;
pub use servet_stats as stats;
pub use servet_tune as tune;

/// The most common imports, for examples and downstream users.
pub mod prelude {
    pub use servet_autotune::aggregation::aggregation_decision;
    pub use servet_autotune::collectives::select_broadcast;
    pub use servet_autotune::placement::{CommPattern, Placer};
    pub use servet_autotune::tiling::select_tile;
    pub use servet_core::cache_detect::{detect_cache_levels, DetectConfig};
    pub use servet_core::comm::{characterize_communication, CommConfig};
    pub use servet_core::mcalibrator::{mcalibrator, McalibratorConfig, Sweep};
    pub use servet_core::mem_overhead::{characterize_memory, MemOverheadConfig};
    pub use servet_core::platform::Platform;
    pub use servet_core::profile::MachineProfile;
    pub use servet_core::shared_cache::{detect_shared_caches, SharedCacheConfig};
    pub use servet_core::sim_platform::SimPlatform;
    pub use servet_core::suite::{run_full_suite, run_suite, SuiteConfig};
    pub use servet_core::zoo::{generate_population, run_zoo, ZooConfig, ZooReport};
    pub use servet_host::HostPlatform;
    pub use servet_registry::{
        compute_advice, AdviceOutcome, AdviceQuery, Registry, RegistryClient,
        RetryingRegistryClient,
    };
    pub use servet_tune::{
        analytic_config, kernel_space, tune, Oracle, ParamSpace, ProfileOracle, SimOracle,
        Strategy, TuneOptions, TuneOutcome,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let p = SimPlatform::tiny();
        assert_eq!(p.num_cores(), 4);
        let _ = HostPlatform::new();
    }
}
