//! All experiments, one function per paper artifact.
//!
//! Every function is pure measurement + reporting: it builds the needed
//! simulated platforms internally, runs the *actual Servet benchmarks*
//! against them (never reading ground truth except to assert shape
//! criteria), and returns a [`crate::Report`].

pub mod cache;
pub mod comm;
pub mod memory;
pub mod placement;
pub mod shared;
pub mod timings;

use crate::Report;
use std::thread;

/// Run every experiment, returning all reports in paper order.
///
/// Experiments are independent (each builds its own simulated platforms),
/// so each runs on a thread of its own and the scheduler shares out the
/// cores.
pub fn run_all() -> Vec<Report> {
    let jobs: [fn() -> Report; 14] = [
        cache::fig2,
        cache::sec4a,
        shared::fig8,
        memory::fig9a,
        memory::fig9b,
        comm::fig10a,
        comm::fig10b,
        comm::fig10c,
        comm::fig10d,
        timings::table1,
        cache::ablation_cache,
        comm::ablation_models,
        placement::app_placement,
        cache::ext_micro,
    ];
    thread::scope(|s| {
        let running: Vec<_> = jobs.iter().map(|job| s.spawn(job)).collect();
        running
            .into_iter()
            .map(|handle| handle.join().expect("an experiment panicked"))
            .collect()
    })
}
