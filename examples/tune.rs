//! Search-based autotuning end to end: declare the blocked-matmul
//! decision space, search it with every strategy against the machine
//! simulator, and check the winners against the closed-form advice the
//! measured profile would give — the two schools of autotuning
//! (§IV-E's "guide optimizations" vs ATLAS-style empirical search)
//! validating each other.
//!
//! ```text
//! cargo run --release --example tune
//! ```

use servet::registry::{compute_tune, TuneQuery};
use servet::sim::presets;
use servet::tune::compare::ground_truth_profile;
use servet::tune::{analytic_config, tune, Oracle, SimOracle, Strategy, TuneOptions};

fn main() {
    // 1. The machine and the kernel: a 4-core SMP running a 64x64
    //    blocked matmul whose 96 KB working set spills the 64 KB L2, so
    //    tile choice genuinely matters.
    let n = 64;
    let oracle = SimOracle::new(presets::tiny_smp(), 42, n);
    let space = oracle.space();
    println!(
        "decision space for a {n}x{n} matmul on '{}': {} configurations",
        oracle.spec().name,
        space.len()
    );
    for p in &space.params {
        println!("  {:<10} {:?}", p.name, p.values);
    }

    // 2. The analytic baseline: what servet-autotune would advise from
    //    a measured profile, snapped onto the same grid.
    let profile = ground_truth_profile(oracle.spec());
    let advised = analytic_config(&profile, &space);
    let advised_score = oracle.evaluate(&advised);
    let show = |config: &servet::tune::Config| {
        config
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "\nanalytic advice: {}  ({advised_score:.0} cycles)",
        show(&advised)
    );

    // 3. Search the space with every strategy; each reports what it
    //    found and how much of the space it had to price to find it.
    println!("\nsearching (simulator oracle, cycles = makespan of the slowest thread):");
    for strategy in Strategy::ALL {
        let outcome = tune(&oracle, &space, &TuneOptions::new(strategy), 2);
        println!(
            "  {:<12} {}  score {:>9.0}  ratio {:.3}  ({:>2}/{} evaluated)",
            strategy.name(),
            show(&outcome.best),
            outcome.best_score,
            outcome.best_score / advised_score,
            outcome.evaluations,
            space.len()
        );
    }

    // 4. The registry's view: a closed-form oracle over the measured
    //    profile prices candidates without a simulator. This session is
    //    what `servet query tune` serves for machines the registry has
    //    only profiles for. Line search suffices on its convex surface.
    let query = TuneQuery {
        space: None,
        options: TuneOptions::new(Strategy::Line),
        n,
    };
    let outcome = compute_tune(&profile, &query, 1).expect("n is within the served range");
    println!(
        "\nprofile-oracle line search (what the registry serves): {}  ({} evaluations)",
        show(&outcome.best),
        outcome.evaluations
    );
}
