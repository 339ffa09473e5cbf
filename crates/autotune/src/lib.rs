//! # servet-autotune
//!
//! Autotuning consumers of Servet machine profiles — the *point* of the
//! suite. §V of the paper: "The information about the possible overheads
//! can be used to automatically map the processes to certain cores ...
//! Tiling is one of the most widely used optimization techniques and our
//! suite can help ... it is possible to adapt the behavior of an
//! application to maximize its performance."
//!
//! * [`placement`] — profile-guided process→core mapping (greedy hill
//!   climbing and simulated annealing) against linear and random baselines,
//!   in the spirit of MPIPP (the paper's ref. \[9\]) but fed by *measured*
//!   latencies instead of vendor specifications.
//! * [`tiling`] — tile-size selection for blocked matrix multiplication
//!   from the detected cache sizes, with a trace-replay evaluator.
//! * `aggregation` — gather-vs-send decisions from the measured
//!   interconnect scalability ("it is possible to optimize the
//!   communication performance by gathering messages in poorly scalable
//!   systems", §III-D).
//! * [`collectives`] — hierarchy-aware broadcast algorithm selection from
//!   the measured communication layers.
//! * `padding` — per-thread padding and alignment from the measured
//!   false-sharing sweep, with the micro-probe line size as fallback.

mod aggregation;
pub mod collectives;
pub mod concurrency;
mod padding;
pub mod placement;
pub mod tiling;

pub use aggregation::{aggregation_decision, slowdown_at, AggregationDecision};
pub use collectives::{select_broadcast, BcastAlgorithm, BcastPrediction};
pub use concurrency::{advise_memory_threads, ConcurrencyAdvice};
pub use padding::{advise_padding, PaddingAdvice};
pub use placement::{CommPattern, PlacementResult, Placer};
pub use tiling::{select_tile, TileChoice};
