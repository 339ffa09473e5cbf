//! Application study: profile-guided process placement (the paper's §V
//! motivation, in the spirit of MPIPP but with measured costs).

use crate::report::Report;
use servet_autotune::{CommPattern, Placer};
use servet_core::profile::MachineProfile;
use servet_core::{run_full_suite, SimPlatform, SuiteConfig};
use servet_net::VirtualCluster;

/// Ground-truth cost of a mapping: the pattern priced on the actual
/// virtual cluster, each pair's cores pinned to ranks 0 and 1 and
/// ping-ponged (something the placer never sees — it only knows the
/// measured profile).
fn ground_truth_cost(
    cluster: &mut VirtualCluster,
    pattern: &CommPattern,
    mapping: &[usize],
) -> f64 {
    pattern.cost(mapping, |a, b| {
        let mut aff: Vec<usize> = vec![a, b];
        aff.extend((0..cluster.topology().total_cores()).filter(|&c| c != a && c != b));
        cluster.set_affinity(aff);
        cluster.ping_pong_us(0, 1, pattern.message_size, 2)
    })
}

fn ft_profile() -> MachineProfile {
    let mut platform = SimPlatform::finis_terrae(2);
    let config = SuiteConfig {
        skip_shared: true,
        skip_memory: true,
        ..SuiteConfig::default()
    };
    run_full_suite(&mut platform, &config).profile
}

/// Placement study on Finis Terrae (2 nodes, 32 cores).
pub(crate) fn app_placement() -> Report {
    let mut report = Report::new(
        "app_placement",
        "profile-guided process placement vs naive mappings (paper SS V)",
    );
    let profile = ft_profile();
    let placer = Placer::new(&profile);

    let patterns: Vec<(&str, CommPattern)> = vec![
        (
            "shift(16, 8) one node",
            CommPattern::shift(16, 8, 16 * 1024),
        ),
        ("ring(32)", CommPattern::ring(32, 16 * 1024)),
        ("stencil 4x4", CommPattern::stencil2d(4, 4, 16 * 1024)),
        (
            "master-worker(16)",
            CommPattern::master_worker(16, 16 * 1024),
        ),
    ];

    report.section(
        "predicted cost (us/iteration) by mapping strategy",
        &[
            "pattern",
            "linear",
            "random",
            "greedy",
            "anneal",
            "gain vs linear",
        ],
    );
    let mut gains = Vec::new();
    for (name, pattern) in &patterns {
        let linear = placer.linear(pattern);
        let random = placer.random(pattern, 7);
        let greedy = placer.greedy(pattern);
        let anneal = placer.anneal(pattern, 11, 4000);
        let best = greedy.cost_us.min(anneal.cost_us);
        let gain = linear.cost_us / best;
        gains.push((
            name.to_string(),
            pattern.clone(),
            greedy.mapping.clone(),
            gain,
        ));
        report.row(&[
            name.to_string(),
            format!("{:.1}", linear.cost_us),
            format!("{:.1}", random.cost_us),
            format!("{:.1}", greedy.cost_us),
            format!("{:.1}", anneal.cost_us),
            format!("{gain:.2}x"),
        ]);
        report.check(
            &format!("{name}: optimized never worse than linear"),
            best <= linear.cost_us * (1.0 + 1e-9),
        );
    }
    let shift_gain = gains[0].3;
    report.check_range(
        "shift pattern: topology-aware placement wins clearly",
        shift_gain,
        1.25,
        10.0,
    );

    // Validate the headline case against ground truth the placer never saw.
    report.section(
        "ground-truth validation (virtual cluster), shift(16, 8)",
        &["mapping", "measured cost us"],
    );
    let pattern = &gains[0].1;
    let mut cluster = servet_net::presets::finis_terrae_cluster(2);
    let linear_map: Vec<usize> = (0..pattern.ranks).collect();
    let gt_linear = ground_truth_cost(&mut cluster, pattern, &linear_map);
    let gt_greedy = ground_truth_cost(&mut cluster, pattern, &gains[0].2);
    report.row(&["linear".into(), format!("{gt_linear:.1}")]);
    report.row(&["greedy (profile-guided)".into(), format!("{gt_greedy:.1}")]);
    report.check_range(
        "ground truth confirms the predicted gain",
        gt_linear / gt_greedy,
        1.2,
        10.0,
    );
    report.note("the placer only consumes the measured MachineProfile; ground truth comes from the independent cluster model");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_cost_positive() {
        let mut cluster = servet_net::presets::tiny_cluster();
        let pattern = CommPattern::ring(4, 1024);
        let cost = ground_truth_cost(&mut cluster, &pattern, &[0, 1, 2, 3]);
        assert!(cost > 0.0);
        // A mapping that forces every ring link across nodes costs more.
        let worse = ground_truth_cost(&mut cluster, &pattern, &[0, 4, 1, 5]);
        assert!(worse > cost);
    }
}
