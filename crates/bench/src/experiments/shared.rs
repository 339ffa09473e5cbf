//! Fig. 8: shared-cache detection on Dunnington and Finis Terrae.

use crate::report::Report;
use servet_core::{detect_shared_caches, SimPlatform};
use servet_sim::{KB, MB};

/// Fig. 8(a,b): the cache-access overhead ratio for pairs containing
/// core 0, per cache level, on both clusters.
pub(crate) fn fig8() -> Report {
    let mut report = Report::new(
        "fig8",
        "shared-cache detection ratios, pairs with core 0 (paper Fig. 8)",
    );

    // --- Dunnington: L2 {0,12}; L3 {0,1,2,12,13,14} (paper Fig. 8a).
    let mut dun = SimPlatform::dunnington();
    let result = detect_shared_caches(&mut dun, &[32 * KB, 3 * MB, 12 * MB]);
    report.section(
        "dunnington: ratio vs core paired with 0",
        &["pair", "L1 ratio", "L2 ratio", "L3 ratio"],
    );
    for other in 1..24 {
        let cells: Vec<String> = std::iter::once(format!("(0,{other})"))
            .chain(result.levels.iter().map(|l| {
                let r = l
                    .pair_ratios
                    .iter()
                    .find(|&&((a, b), _)| (a, b) == (0, other))
                    .map(|&(_, r)| r)
                    .unwrap_or(f64::NAN);
                format!("{r:.2}")
            }))
            .collect();
        report.row(&cells);
    }
    let l2 = &result.levels[1];
    let l3 = &result.levels[2];
    report.check("L1 is private", result.levels[0].sharing_pairs.is_empty());
    report.check(
        "L2: core 0 pairs exactly with core 12",
        l2.sharing_pairs
            .iter()
            .filter(|&&(a, _)| a == 0)
            .eq([&(0, 12)]),
    );
    let l3_with_0: Vec<usize> = l3
        .sharing_pairs
        .iter()
        .filter(|&&(a, _)| a == 0)
        .map(|&(_, b)| b)
        .collect();
    report.check(
        "L3: core 0 shares with {1,2,12,13,14}",
        l3_with_0 == vec![1, 2, 12, 13, 14],
    );
    report.check(
        "L2 groups are the 12 hardware pairs",
        l2.groups.len() == 12 && l2.groups.iter().all(|g| g.len() == 2),
    );
    report.check(
        "L3 groups are the 4 hexa-core processors",
        l3.groups.len() == 4 && l3.groups.iter().all(|g| g.len() == 6),
    );
    report.note(format!(
        "dunnington L2 reference {:.1} cy, shared-pair ratios {:.2}..{:.2}",
        l2.reference_cycles,
        l2.sharing_pairs
            .iter()
            .map(|p| l2.pair_ratios.iter().find(|(q, _)| q == p).unwrap().1)
            .fold(f64::INFINITY, f64::min),
        l2.sharing_pairs
            .iter()
            .map(|p| l2.pair_ratios.iter().find(|(q, _)| q == p).unwrap().1)
            .fold(f64::NEG_INFINITY, f64::max),
    ));

    // --- Finis Terrae: everything private; "all the ratios are below 2".
    let mut ft = SimPlatform::finis_terrae(1);
    let result = detect_shared_caches(&mut ft, &[16 * KB, 256 * KB, 9 * MB]);
    report.section(
        "finis terrae: ratio vs core paired with 0",
        &["pair", "L1 ratio", "L2 ratio", "L3 ratio"],
    );
    for other in 1..16 {
        let cells: Vec<String> = std::iter::once(format!("(0,{other})"))
            .chain(result.levels.iter().map(|l| {
                let r = l
                    .pair_ratios
                    .iter()
                    .find(|&&((a, b), _)| (a, b) == (0, other))
                    .map(|&(_, r)| r)
                    .unwrap_or(f64::NAN);
                format!("{r:.2}")
            }))
            .collect();
        report.row(&cells);
    }
    report.check(
        "finis terrae: no shared caches detected",
        !result.any_shared(),
    );
    let worst = result
        .levels
        .iter()
        .flat_map(|l| l.pair_ratios.iter().map(|&(_, r)| r))
        .fold(f64::NEG_INFINITY, f64::max);
    report.check_range("finis terrae: worst ratio below 2", worst, 0.0, 2.0);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use servet_core::platform::Platform;

    /// A reduced Fig. 8 on the tiny shared-L2 machine proves the
    /// experiment logic without the full 276-pair sweep.
    #[test]
    fn shared_detection_logic_small() {
        let mut p = SimPlatform::tiny_shared_l2();
        let r = detect_shared_caches(&mut p, &[8 * KB, 128 * KB]);
        assert_eq!(r.levels[1].groups, vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(p.num_cores(), 4);
    }
}
