//! Fig. 9: memory access overhead characterization.

use crate::report::Report;
use servet_core::{characterize_memory, MemOverheadResult, SimPlatform};

fn run(platform: &mut SimPlatform) -> MemOverheadResult {
    characterize_memory(platform)
}

/// Fig. 9(a): per-core bandwidth when core 0 streams concurrently with
/// each other core, on both clusters.
pub(crate) fn fig9a() -> Report {
    let mut report = Report::new(
        "fig9a",
        "memory bandwidth with two simultaneous accesses (paper Fig. 9a)",
    );

    // --- Dunnington: one FSB — same overhead for every pair.
    let mut dun = SimPlatform::dunnington();
    let result = run(&mut dun);
    report.section(
        "dunnington: core 0 + partner",
        &["partner", "bandwidth GB/s", "vs ref"],
    );
    let reference = result.reference_gbs;
    let mut dun_values = Vec::new();
    for &((a, b), bw) in &result.pair_bandwidth {
        if a == 0 {
            report.row(&[
                b.to_string(),
                format!("{bw:.2}"),
                format!("{:.2}", bw / reference),
            ]);
            dun_values.push(bw);
        }
    }
    report.note(format!(
        "dunnington reference (isolated core 0): {reference:.2} GB/s"
    ));
    report.check(
        "dunnington: exactly one overhead class",
        result.num_classes() == 1,
    );
    let spread = dun_values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        / dun_values.iter().copied().fold(f64::INFINITY, f64::min);
    report.check_range(
        "dunnington: same magnitude independently of the pair",
        spread,
        1.0,
        1.05,
    );
    report.check(
        "dunnington: pairs do degrade",
        dun_values[0] < reference * 0.95,
    );

    // --- Finis Terrae: bus < cell < no overhead (cross-cell).
    let mut ft = SimPlatform::finis_terrae(1);
    let result = run(&mut ft);
    report.section(
        "finis terrae: core 0 + partner",
        &["partner", "bandwidth GB/s", "vs ref"],
    );
    let reference = result.reference_gbs;
    let grab = |b: usize| {
        result
            .pair_bandwidth
            .iter()
            .find(|&&((x, y), _)| x == 0 && y == b)
            .map(|&(_, bw)| bw)
            .expect("pair measured")
    };
    for b in 1..16 {
        let bw = grab(b);
        report.row(&[
            b.to_string(),
            format!("{bw:.2}"),
            format!("{:.2}", bw / reference),
        ]);
    }
    // Paper: cores 1-3 lowest (shared bus); 4-7 ~25 % below ref (same
    // cell); 8-15 no particular overhead.
    let bus = (1..4).map(grab).fold(f64::NEG_INFINITY, f64::max);
    let cell = (4..8).map(grab).fold(f64::NEG_INFINITY, f64::max);
    let cross = (8..16).map(grab).fold(f64::INFINITY, f64::min);
    report.check("ft: bus pairs are the slowest", bus < cell);
    report.check_range(
        "ft: cell pairs ~25% below reference",
        cell / reference,
        0.70,
        0.80,
    );
    report.check_range(
        "ft: cross-cell pairs at reference",
        cross / reference,
        0.95,
        1.05,
    );
    report.check(
        "ft: two overhead classes (bus, cell)",
        result.num_classes() == 2,
    );
    report
}

/// Fig. 9(b): effective per-core bandwidth as more cores of a colliding
/// group stream concurrently.
pub(crate) fn fig9b() -> Report {
    let mut report = Report::new(
        "fig9b",
        "memory bandwidth with multiple simultaneous accesses (paper Fig. 9b)",
    );

    let mut dun = SimPlatform::dunnington();
    let result = run(&mut dun);
    report.section(
        "dunnington: cores streaming concurrently (FSB group)",
        &["cores", "GB/s per core"],
    );
    let class = &result.overheads[0];
    for &(n, bw) in &class.scalability {
        report.row(&[n.to_string(), format!("{bw:.2}")]);
    }
    // Saturated FSB: per-core bandwidth ~ capacity / n.
    let (n_last, bw_last) = *class.scalability.last().expect("sweep ran");
    let (n_mid, bw_mid) = class.scalability[class.scalability.len() / 2];
    report.check(
        "dunnington: aggregate bandwidth plateaus (bw ~ C/n)",
        (bw_last * n_last as f64 - bw_mid * n_mid as f64).abs() < 0.15 * bw_mid * n_mid as f64,
    );
    report.check(
        "dunnington: group covers all 24 cores",
        class.groups[0].len() == 24,
    );

    let mut ft = SimPlatform::finis_terrae(1);
    let result = run(&mut ft);
    report.check("ft: two curves (bus and cell)", result.overheads.len() == 2);
    for (label, class) in ["bus", "cell"].iter().zip(&result.overheads) {
        report.section(
            &format!("finis terrae: {label} group"),
            &["cores", "GB/s per core"],
        );
        for &(n, bw) in &class.scalability {
            report.row(&[n.to_string(), format!("{bw:.2}")]);
        }
        let decreasing = class
            .scalability
            .windows(2)
            .all(|w| w[1].1 <= w[0].1 + 1e-9);
        report.check(
            &format!("ft {label}: per-core bandwidth non-increasing"),
            decreasing,
        );
    }
    let bus_at_2 = result.overheads[0]
        .scalability
        .first()
        .expect("bus sweep")
        .1;
    let cell_at_2 = result.overheads[1]
        .scalability
        .first()
        .expect("cell sweep")
        .1;
    report.check(
        "ft: bus curve below cell curve at 2 cores",
        bus_at_2 < cell_at_2,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same logic on the tiny NUMA machine: two classes, curves decrease.
    #[test]
    fn memory_experiment_logic_small() {
        let mut p = SimPlatform::tiny_numa();
        let r = run(&mut p);
        assert_eq!(r.num_classes(), 2);
        for class in &r.overheads {
            assert!(class
                .scalability
                .windows(2)
                .all(|w| w[1].1 <= w[0].1 + 1e-9));
        }
    }
}
