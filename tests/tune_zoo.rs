//! The population-wide acceptance gate for search-based autotuning:
//! across the seeded machine zoo, the cheap search strategies must land
//! within 1 % of the analytically-advised configuration on at least
//! 90 % of machines. This is the claim `servet-tune` makes in
//! `TUNING.md` — search and advice check each other — enforced over the
//! same 64-machine population the zoo accuracy gates use.

use servet::tune::{run_compare, CompareConfig, Strategy};

#[test]
fn search_reaches_analytic_parity_across_the_zoo() {
    let mut config = CompareConfig::new(64, 2, 42);
    config.n = 16; // keeps the debug-build gate in seconds, parity unaffected
    let report = run_compare(&config);

    assert_eq!(report.per_machine.len(), 64);
    for summary in &report.summary {
        assert!(
            summary.parity >= 0.90,
            "{} parity {:.1}% below the 90% gate (matched {}/{})",
            summary.strategy,
            100.0 * summary.parity,
            summary.matched,
            summary.total
        );
        // Geometric-mean ratio near 1 means the matches are not a few
        // lucky machines padding out large losses elsewhere.
        assert!(
            summary.mean_ratio <= 1.02,
            "{} geo-mean ratio {:.3} drifted from parity",
            summary.strategy,
            summary.mean_ratio
        );
        assert!(summary.mean_evaluations > 0.0);
    }
    assert!(report.parity(Strategy::Line).is_some());
    assert!(report.parity(Strategy::MonteCarlo).is_some());

    // The report is worker-count invariant: a serial rerun of a slice
    // of the population reproduces the parallel run's rows exactly.
    let mut serial = CompareConfig::new(8, 1, 42);
    serial.n = 16;
    let serial_report = run_compare(&serial);
    for (a, b) in serial_report
        .per_machine
        .iter()
        .zip(report.per_machine.iter().take(8))
    {
        assert_eq!(a, b, "machine {} differs between worker counts", a.index);
    }
}
