//! # servet-host
//!
//! Real-hardware backend for the Servet suite: implements
//! [`servet_core::Platform`] with timed loops on the machine the program is
//! running on, the way the paper's original C + MPI implementation does.
//!
//! * `kernels` — the measurement kernels: the paper's Fig. 1 traversal
//!   loop with the stride *read from the array* (so an optimizing compiler
//!   cannot collapse it), a STREAM-like copy, and a thread ping-pong.
//! * `affinity` — CPU pinning via `sched_setaffinity` (the paper pins MPI
//!   processes "with the `sched` system library").
//! * `sysinfo` — the OS's own sysfs view of the cache hierarchy, used
//!   only to cross-check measurements, never to produce them.
//! * `platform` — the [`HostPlatform`] gluing them together.
//!
//! Times are reported in nanoseconds where the simulator reports cycles;
//! every detection algorithm in `servet-core` is scale-free (plateaus,
//! gradients, ratios), so the unit does not matter.
//!
//! On a unicore container the cache-size benchmark is fully functional;
//! pair benchmarks degrade to time-sliced threads and are useful as smoke
//! tests only — run on a real multicore for meaningful topology results.

mod affinity;
mod kernels;
mod platform;
mod sysinfo;

pub use platform::HostPlatform;
pub use sysinfo::{compare_with_reported, reported_caches, ReportedCache};
