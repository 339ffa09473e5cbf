//! # servet-stats
//!
//! Statistics substrate for the Servet benchmark suite.
//!
//! Every detection algorithm in the paper reduces raw timing series to a
//! handful of statistical primitives, collected here:
//!
//! * [`binomial`] — the binomial tail probability `P(X > K)` that drives the
//!   probabilistic cache-size algorithm (paper Fig. 3), computed stably in
//!   log space so that page counts in the tens of thousands do not overflow,
//!   and cheaply via mode-seeded incremental recurrences (one log-gamma
//!   evaluation per tail sum, plus the batched [`sf_curves`] that yields
//!   the whole predicted curves of up to eight candidates sharing an
//!   associativity in a single pass, one lane each).
//! * `gradient` — gradients `C[k+1]/C[k]` of a measurement series and peak
//!   detection over them (paper Figs. 2b and 4).
//! * [`cluster`] — one-dimensional tolerance clustering used to group "similar"
//!   bandwidths (paper Fig. 6) and latencies (paper Fig. 7).
//! * `groups` — the pair-list → core-group inference the paper describes
//!   in §III-C ("the pairs (0,1),(0,2),(3,4),(3,5) identify two groups
//!   {0,1,2} and {3,4,5}").
//! * [`par`] — the workspace's one fan-out: a closure over a list on
//!   scoped threads, results in list order for any worker count.
//! * `regress` — a least-squares line, the fit behind the Hockney / LogGP
//!   baseline communication models of §III-D.
//! * [`rng`] — the workspace's one seeded generator (splitmix64 and
//!   ChaCha8), std-only so a seed draws the same numbers on every machine.
//! * [`summary`] — the arithmetic and geometric means and the mode of the
//!   five best Fig. 3 candidates.

pub mod binomial;
pub mod cluster;
mod gradient;
mod groups;
pub mod par;
mod regress;
pub mod rng;
pub mod summary;

pub use binomial::{sf_curve, sf_curves, Binomial};
pub use cluster::{cluster_by_tolerance, Cluster};
pub use gradient::{find_peaks, gradient, merge_peaks, step, Peak};
pub use groups::groups_from_pairs;
pub use regress::{fit_line, LineFit};
pub use summary::{geometric_mean, mean, mode};
