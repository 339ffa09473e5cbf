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
use servet_stats::par;

/// An experiment: the id the `servet-bench` binary takes (and the
/// directory it writes under `results/`), and the function that
/// regenerates the artifact.
pub(crate) type Experiment = (&'static str, fn() -> Report);

/// Every experiment, in paper order. DESIGN.md §5 says what each shows.
pub const ALL: [Experiment; 14] = [
    ("fig2", cache::fig2),
    ("sec4a", cache::sec4a),
    ("fig8", shared::fig8),
    ("fig9a", memory::fig9a),
    ("fig9b", memory::fig9b),
    ("fig10a", comm::fig10a),
    ("fig10b", comm::fig10b),
    ("fig10c", comm::fig10c),
    ("fig10d", comm::fig10d),
    ("table1", timings::table1),
    ("ablation_cache", cache::ablation_cache),
    ("ablation_models", comm::ablation_models),
    ("app_placement", placement::app_placement),
    ("ext_micro", cache::ext_micro),
];

/// Run the experiments named in `ids` (every one when `ids` is empty),
/// returning their reports in paper order.
///
/// Experiments are independent (each builds its own simulated platforms),
/// so each gets a worker of its own and the scheduler shares out the
/// cores. A failed shape check panics, and so does this call.
pub fn run(ids: &[String]) -> Vec<Report> {
    let chosen: Vec<&Experiment> = ALL
        .iter()
        .filter(|(id, _)| ids.is_empty() || ids.iter().any(|want| want == id))
        .collect();
    par::map(&chosen, &mut vec![(); chosen.len()], |_, (_, job)| job())
}
