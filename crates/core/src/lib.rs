//! # servet-core
//!
//! The Servet benchmark suite (González-Domínguez et al., *Servet: A
//! Benchmark Suite for Autotuning on Multicore Clusters*, IPDPS 2010),
//! reproduced in Rust.
//!
//! Servet measures — rather than reads from vendor specifications — the
//! hardware parameters that matter to autotuned parallel codes on multicore
//! clusters:
//!
//! 1. **cache sizes** of every level ([`mcalibrator()`](mcalibrator::mcalibrator) + [`cache_detect`],
//!    paper Figs. 1–4), portable across page-coloring and
//!    randomly-allocating OSes thanks to the probabilistic algorithm;
//! 2. **which cores share which caches** (`shared_cache`, Fig. 5);
//! 3. **memory-access bottlenecks and their magnitudes** (`mem_overhead`,
//!    Fig. 6), including the scalability of concurrent accesses;
//! 4. **communication layers, per-layer point-to-point performance and
//!    interconnect scalability** (`comm`, Fig. 7).
//!
//! All benchmarks are written against the [`Platform`] trait;
//! [`SimPlatform`] runs them on the simulated machines of
//! `servet-sim`/`servet-net`, and `servet-host` runs them on real hardware.
//! [`run_full_suite`] executes everything and produces a
//! [`MachineProfile`] that can be stored "in a file to be consulted
//! by the applications" (§IV-E), which the `servet-autotune` crate consumes.
//! Each run can also emit a [`RunManifest`] — the measurement
//! methodology (config, span tree, counters) that produced the profile.
//!
//! The hot paths are instrumented with `servet-obs` spans and counters;
//! `servet --trace` renders the resulting span tree.

#![warn(missing_docs)]

pub mod cache_detect;
mod comm;
mod false_sharing;
pub mod manifest;
mod mcalibrator;
mod mem_overhead;
mod micro;
pub mod platform;
pub mod profile;
mod shared_cache;
mod sim_platform;
mod suite;
pub mod zoo;

pub use cache_detect::{detect_cache_levels, CacheLevelEstimate, DetectConfig, DetectionMethod};
pub use comm::{characterize_communication, CommConfig, CommLayer, CommResult, P2pPoint};
pub use false_sharing::{detect_false_sharing, CacheCommModel, FalseSharingResult, StridePoint};
pub use manifest::{manifest_path, RunManifest, SpanEntry, MANIFEST_VERSION};
pub use mcalibrator::{mcalibrator, McalibratorConfig, McalibratorOutput, Sweep};
pub use mem_overhead::{characterize_memory, MemOverheadResult, OverheadClass};
pub use micro::{run_micro_probes, MicroProfile};
pub use platform::{CoreId, Platform};
pub use profile::{write_atomic, MachineProfile, SCHEMA_VERSION};
pub use shared_cache::{
    detect_shared_caches, LevelMissDecomposition, SharedCacheResult, SharedLevel,
};
pub use sim_platform::SimPlatform;
pub use suite::{run_full_suite, run_suite, SuiteConfig, SuiteReport, SuiteTimings};
pub use zoo::{generate_population, run_zoo, ProfileSink, ZooConfig, ZooMachine, ZooReport};
