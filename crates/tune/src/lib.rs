//! # servet-tune
//!
//! Search-based autotuning over countable parameter spaces.
//!
//! §IV-E of the paper closes with the point of Servet: the measured
//! machine parameters "guide optimizations" — pick the tile, the thread
//! count, the placement, the padding. `servet-autotune` does that
//! *analytically*, one closed-form rule per decision. This crate adds
//! the other school of autotuning (ATLAS, FFTW, AutoTuneTMP): declare
//! the decision space, then *search* it against an evaluation oracle,
//! and let the two schools check each other.
//!
//! * `space` — countable parameter spaces: named dimensions
//!   (`fixed_set`, `log2`) with a mixed-radix index, neighbor
//!   and axis enumeration, and a stable digest the registry memoizes by.
//! * `oracle` — what "fast" means: [`SimOracle`] replays the
//!   kernel's access trace on the machine simulator (makespan in
//!   cycles); [`ProfileOracle`] prices the same kernel with a
//!   closed-form model over a measured profile, which is what a registry
//!   can serve for machines it has never run on.
//!   [`analytic_config`] snaps `servet-autotune`'s advice onto a
//!   space's grid as the baseline.
//! * `search` — the strategies: exhaustive, line (coordinate
//!   descent), neighborhood (hill climbing), and seeded monte-carlo.
//!   All score candidates through one memoizing parallel scorer and are
//!   bit-deterministic in `(strategy, seed)` for any worker count.
//! * [`compare`] — the zoo gate: race every strategy against the
//!   analytic config across the seeded machine population and report
//!   per-strategy parity.

#![warn(missing_docs)]

pub mod compare;
mod oracle;
mod search;
mod space;

pub use compare::{run_compare, CompareConfig, CompareReport, MachineComparison, StrategySummary};
pub use oracle::{
    analytic_config, kernel_space, Oracle, ProfileOracle, SimOracle, PAD, PLACEMENT, THREADS, TILE,
};
pub use search::{tune, Strategy, TuneOptions, TuneOutcome, EXHAUSTIVE_LIMIT};
pub use space::{Config, Param, ParamSpace, Point};
