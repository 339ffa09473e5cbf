//! # servet-bench
//!
//! The experiment harness: regenerates **every table and figure** of the
//! paper's evaluation (§IV) on the simulated machines, plus the ablations
//! and application studies listed in `DESIGN.md`.
//!
//! Each experiment lives in [`experiments`] as a function that produces a
//! [`report::Report`]: the printed series mirror what the paper plots, and
//! each experiment *asserts its shape criteria* (who wins, by roughly what
//! factor, where the crossovers fall) before returning — so running the
//! harness doubles as an end-to-end regression test of the reproduction.
//!
//! One binary runs them: `cargo run --release -p servet-bench -- [id…]`,
//! with the ids of [`experiments::ALL`] (none = all 14).

pub mod experiments;
pub mod report;

pub use report::Report;
