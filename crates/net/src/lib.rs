//! # servet-net
//!
//! Cluster interconnect simulator for the Servet reproduction.
//!
//! The communication-cost benchmark (paper §III-D) measures message latency
//! between every pair of cores of a multicore cluster, groups pairs into
//! *communication layers*, characterizes each layer's point-to-point
//! bandwidth across message sizes, and probes each interconnect's
//! scalability under concurrent messages. This crate provides the cluster
//! those measurements run against:
//!
//! * `topology` — where each core sits (node / cell / processor /
//!   L2-sharing group) and the ground-truth communication layer between any
//!   two cores.
//! * `model` — per-layer piecewise latency models with eager/rendezvous
//!   protocol switches and cache-exhaustion knees, the structure that makes
//!   single-line models (Hockney, LogP) inaccurate on multicore clusters.
//! * [`contention`] — slowdown of concurrent messages sharing a bus or an
//!   InfiniBand link (the paper's "a message sent through the InfiniBand
//!   network when there are other 31 messages is 7 times slower").
//! * `cluster` — [`VirtualCluster`]: ranks, affinity, timed
//!   sends and concurrent sends. It keeps no clock: Table I's times come
//!   from the ledger of the suite's simulated platform
//!   (`servet_core::SimPlatform`).
//! * [`collectives`] — three broadcast algorithms timed on the cluster.
//! * `baselines` — Hockney and LogGP model fits (§III-D's related work),
//!   implemented as comparison baselines.
//! * [`presets`] — the paper's two cluster configurations: the Dunnington
//!   node and Finis Terrae over InfiniBand.

mod baselines;
mod cluster;
pub mod collectives;
pub mod contention;
mod model;
pub mod presets;
mod topology;

pub use baselines::{mean_relative_error, HockneyModel, LogGpModel};
pub use cluster::VirtualCluster;
pub use contention::ContentionModel;
pub use model::{CommModel, LayerModel, ProtocolSegment};
pub use topology::{ClusterTopology, Layer};
