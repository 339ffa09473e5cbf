//! # servet-sim
//!
//! Machine simulator substrate for the Servet reproduction.
//!
//! The paper ran its benchmarks on real multicore clusters (Dunnington,
//! Finis Terrae, Dempsey, Athlon). This crate builds the equivalent machines
//! in software so the *same benchmark algorithms* can observe the same
//! phenomena deterministically:
//!
//! * [`spec`] — machine descriptions: cache levels with explicit sharing
//!   groups, physical/virtual indexing, memory resources (buses, cells,
//!   controllers) with capacities.
//! * [`presets`] — the paper's four evaluation machines plus small synthetic
//!   machines for fast tests.
//! * [`cache`] — set-associative LRU caches.
//! * [`coherence`] — per-line MESI state machines and a snoop-bus
//!   transaction model layered over the caches: false sharing,
//!   invalidation/writeback/intervention traffic, coherence-miss vs
//!   capacity-miss classification.
//! * [`vm`] — per-process address spaces with random (Linux-like), colored,
//!   or contiguous page-frame allocation. Random allocation is what makes
//!   physically indexed caches *probabilistic*, the effect the paper's
//!   Fig. 3 algorithm exploits.
//! * [`prefetch`] — a stride prefetcher covering strides up to 512 B, which
//!   is why mcalibrator strides by 1 KB.
//! * [`machine`] — the cycle engine: single-core traversals and lockstep
//!   multi-core traversals over the shared cache state, with memory-bus
//!   serialization. Rewritten for throughput (packed LRU ways, hashed
//!   MESI directory, block-replay lockstep); results are bit-identical
//!   to the retained pre-rewrite engine.
//! * [`mod@reference`] — that retained engine, [`reference::ReferenceMachine`]:
//!   the original data structures and access loop, kept as the oracle for
//!   the differential tests.
//! * [`membw`] — max-min fair streaming-bandwidth model of the memory
//!   system, used by the STREAM-like memory overhead benchmark.

pub mod cache;
pub mod coherence;
pub mod machine;
pub mod membw;
pub mod perturb;
pub mod prefetch;
pub mod presets;
pub mod reference;
pub mod spec;
pub mod vm;

pub use cache::SetAssocCache;
pub use coherence::{CoherenceEngine, CoherenceSpec, CoherenceTraffic, MesiState};
pub use machine::{Machine, SimArray, StreamJob, TraceJob};
pub use membw::{maxmin_fair, MemorySystem};
pub use perturb::{perturb, PerturbConfig};
pub use prefetch::StridePrefetcher;
pub use reference::ReferenceMachine;
pub use spec::{CacheLevelSpec, CoreId, Indexing, MachineSpec, MemResource, MemorySpec};
pub use vm::{AddressSpace, PageAllocPolicy};

/// Kibibyte.
pub const KB: usize = 1024;
/// Mebibyte.
pub const MB: usize = 1024 * 1024;
