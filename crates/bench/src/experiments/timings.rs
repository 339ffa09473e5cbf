//! Table I: execution times of the four benchmarks on both clusters.
//!
//! The simulator's virtual-time ledger charges each measurement what the
//! real benchmark would cost (repetitions × simulated operation time, plus
//! per-measurement setup), so the *structure* of Table I — which stages
//! dominate, and how the two machines compare per stage — re-emerges from
//! the number of pairs, levels and layers each machine has.
//!
//! The suite runs with the paper's Fig. 1 loop (every listed size), which
//! is what its "2'" was measured with; a second, cache-stage-only run with
//! the suite's bracketed default adds the row that says what that costs.

use crate::report::Report;
use servet_core::mcalibrator::McalibratorConfig;
use servet_core::sim_platform::SimPlatform;
use servet_core::suite::{run_full_suite, SuiteConfig, SuiteReport};

/// Paper Table I, in minutes.
const PAPER_MINUTES: [(&str, f64, f64); 4] = [
    ("Cache Size Estimate", 2.0, 2.0),
    ("Determination of Shared Caches", 11.0, 3.0),
    ("Memory Access Overhead", 20.0, 5.0),
    ("Communication Costs", 22.0, 33.0),
];

/// Table I reproduction.
pub fn table1() -> Report {
    let mut report = Report::new(
        "table1",
        "benchmark execution times in minutes (paper Table I)",
    );

    let paper = SuiteConfig {
        mcalibrator: McalibratorConfig::paper(),
        ..SuiteConfig::default()
    };
    let cache_stage_only = SuiteConfig {
        skip_shared: true,
        skip_memory: true,
        skip_comm: true,
        ..SuiteConfig::default()
    };
    let mut dun = SimPlatform::dunnington();
    let dun_report = run_full_suite(&mut dun, &paper);
    let dun_bracketed = run_full_suite(&mut SimPlatform::dunnington(), &cache_stage_only);
    let mut ft = SimPlatform::finis_terrae(2);
    let ft_report = run_full_suite(&mut ft, &paper);
    let ft_bracketed = run_full_suite(&mut SimPlatform::finis_terrae(2), &cache_stage_only);

    let dun_t = &dun_report.timings;
    let ft_t = &ft_report.timings;
    let rows_measured = [
        dun_t.cache_size_s,
        dun_t.shared_caches_s,
        dun_t.memory_overhead_s,
        dun_t.communication_s,
    ];
    let rows_ft = [
        ft_t.cache_size_s,
        ft_t.shared_caches_s,
        ft_t.memory_overhead_s,
        ft_t.communication_s,
    ];

    report.section(
        "execution times, measured (virtual) vs paper",
        &["benchmark", "dunnington", "paper", "finis terrae", "paper"],
    );
    for (i, (name, paper_dun, paper_ft)) in PAPER_MINUTES.iter().enumerate() {
        report.row(&[
            name.to_string(),
            format!("{:.1}'", rows_measured[i] / 60.0),
            format!("{paper_dun:.0}'"),
            format!("{:.1}'", rows_ft[i] / 60.0),
            format!("{paper_ft:.0}'"),
        ]);
        if i == 0 {
            report.row(&[
                format!("{name} (bracketed)"),
                format!("{:.1}'", dun_bracketed.timings.cache_size_s / 60.0),
                "-".to_string(),
                format!("{:.1}'", ft_bracketed.timings.cache_size_s / 60.0),
                "-".to_string(),
            ]);
        }
    }
    report.row(&[
        "Total".to_string(),
        format!("{:.1}'", dun_t.total_s() / 60.0),
        "55'".to_string(),
        format!("{:.1}'", ft_t.total_s() / 60.0),
        "43'".to_string(),
    ]);

    // Shape criteria: the orderings the paper's table exhibits.
    report.check(
        "cache-size stage is (near-)cheapest on both machines",
        rows_measured[0] <= 1.25 * rows_measured.iter().copied().fold(f64::INFINITY, f64::min)
            && rows_ft[0] <= 1.25 * rows_ft.iter().copied().fold(f64::INFINITY, f64::min),
    );
    report.check(
        "dunnington: shared caches cost more than on finis terrae (276 vs 120 pairs x 3 levels)",
        rows_measured[1] > rows_ft[1],
    );
    report.check(
        "dunnington: memory overhead costs more than on finis terrae",
        rows_measured[2] > rows_ft[2],
    );
    report.check(
        "finis terrae: communication costs more than on dunnington (496 vs 276 pairs + IB)",
        rows_ft[3] > rows_measured[3],
    );
    report.check(
        "communication dominates on finis terrae (paper: 33' of 43')",
        rows_ft[3] == rows_ft.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    );
    report.check_range(
        "dunnington total within 2x of the paper's 55 minutes",
        dun_t.total_s() / 60.0,
        55.0 / 2.0,
        55.0 * 2.0,
    );
    report.check_range(
        "finis terrae total within 2x of the paper's 43 minutes",
        ft_t.total_s() / 60.0,
        43.0 / 2.0,
        43.0 * 2.0,
    );

    // While we have both full profiles, cross-check the suite outputs.
    report.check(
        "dunnington suite recovered all three cache sizes",
        dun_report.profile.cache_size(1) == Some(32 * 1024)
            && dun_report.profile.cache_size(2) == Some(3 * 1024 * 1024)
            && dun_report.profile.cache_size(3) == Some(12 * 1024 * 1024),
    );
    report.check(
        "finis terrae suite found no shared caches",
        !ft_report
            .profile
            .shared_caches
            .as_ref()
            .expect("ran")
            .any_shared(),
    );
    report.check(
        "bracketed sweep: the cache-size stage costs at most half the full sweep's on both machines",
        dun_bracketed.timings.cache_size_s <= 0.5 * rows_measured[0]
            && ft_bracketed.timings.cache_size_s <= 0.5 * rows_ft[0],
    );
    let l1_and_last = |r: &SuiteReport| {
        let levels = &r.profile.cache_levels;
        (
            levels.first().map(|l| l.size),
            levels.last().map(|l| l.size),
        )
    };
    report.check(
        "bracketed sweep: same L1 and last-level sizes as the full sweep on both machines",
        l1_and_last(&dun_bracketed) == l1_and_last(&dun_report)
            && l1_and_last(&ft_bracketed) == l1_and_last(&ft_report),
    );
    report.note("measured times are virtual: simulated operation time x real-world repetition counts + per-measurement setup");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use servet_core::platform::Platform;

    /// The ledger mechanics on a small machine: stage times positive and
    /// ordered sensibly.
    #[test]
    fn ledger_logic_small() {
        let mut p = SimPlatform::tiny_cluster();
        let report = run_full_suite(&mut p, &SuiteConfig::small(256 * 1024));
        let t = report.timings;
        assert!(t.cache_size_s > 0.0);
        assert!(t.total_s() >= t.communication_s);
        assert!(p.elapsed_seconds() >= t.total_s() * 0.99);
    }
}
