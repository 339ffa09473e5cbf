//! The four workloads. Each loads one layer, so that a change to a layer
//! has a workload that shows it and workloads that must not move.

pub mod pipeline;
pub mod registry_session;
pub mod suite;
pub mod suite_replay;
pub mod tune_search;
