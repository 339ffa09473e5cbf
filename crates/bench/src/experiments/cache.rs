//! Cache-size experiments: Fig. 2, §IV-A, and the detection ablations.

use crate::report::{fmt_size, Report};
use servet_core::cache_detect::{
    detect_cache_levels, probabilistic_size_with_model, CandidateGrid, DetectConfig, MissRateModel,
};
use servet_core::platform::Platform;
use servet_core::{mcalibrator, McalibratorConfig, SimPlatform};
use servet_sim::spec::MachineSpec;
use servet_sim::{Machine, PageAllocPolicy, KB, MB};
use servet_stats::{find_peaks, par};

/// Machine seeds `sec4a` states its detection rate over.
const SEEDS: u64 = 20;

/// Ground truth for the four paper machines (§IV-A: "10 cache sizes in
/// total ... all the estimates agreed with the specifications").
pub(crate) fn paper_machines() -> Vec<(&'static str, SimPlatform, Vec<usize>)> {
    vec![
        ("dempsey", SimPlatform::dempsey(), vec![16 * KB, 2 * MB]),
        (
            "athlon3200",
            SimPlatform::athlon3200(),
            vec![64 * KB, 512 * KB],
        ),
        (
            "dunnington",
            SimPlatform::dunnington(),
            vec![32 * KB, 3 * MB, 12 * MB],
        ),
        (
            "finis_terrae",
            SimPlatform::finis_terrae(1),
            vec![16 * KB, 256 * KB, 9 * MB],
        ),
    ]
}

/// Fig. 2(a,b): mcalibrator cycles and gradients on Dempsey and
/// Dunnington (the two architectures the paper uses to explain the
/// algorithm).
pub(crate) fn fig2() -> Report {
    let mut report = Report::new(
        "fig2",
        "mcalibrator cycles per access and gradients (paper Fig. 2)",
    );
    for (name, mut platform) in [
        ("dempsey", SimPlatform::dempsey()),
        ("dunnington", SimPlatform::dunnington()),
    ] {
        let out = mcalibrator(&mut platform, 0, &McalibratorConfig::paper());
        let gradients = out.gradients();
        report.section(
            &format!("{name}: cycles and gradient vs array size"),
            &["size", "cycles/access", "gradient"],
        );
        for (i, (&size, cycles)) in out.sizes.iter().zip(&out.cycles).enumerate() {
            // One gradient fewer than sizes: the last row has none.
            let g = gradients
                .get(i)
                .map_or("-".to_string(), |g| format!("{g:.3}"));
            report.row(&[fmt_size(size), format!("{cycles:.2}"), g]);
        }
        // Shape criteria from the paper's Fig. 2 discussion.
        let peaks = find_peaks(&gradients, 1.15);
        match name {
            "dempsey" => {
                // First peak at 16 KB (L1); high gradients over a wide
                // range around [512 KB, 2 MB] (physically indexed L2 with
                // random pages).
                report.check("L1 peak at 16K", out.sizes[peaks[0].index] == 16 * KB);
                let wide = peaks.iter().skip(1).any(|p| p.width() >= 2);
                report.check("L2 transition is smeared (wide peak)", wide);
                let idx_512k = out.sizes.iter().position(|&s| s == 512 * KB).unwrap();
                let idx_2m = out.sizes.iter().position(|&s| s == 2 * MB).unwrap();
                let rises = (idx_512k..=idx_2m).any(|i| gradients[i] > 1.15);
                report.check("gradient rises within [512K, 2M]", rises);
            }
            _ => {
                // Dunnington: L1 at 32 KB; a wide L3 region reaching into
                // the ~12 MB range (paper: algorithm over [3 MB, 14 MB]).
                report.check("L1 peak at 32K", out.sizes[peaks[0].index] == 32 * KB);
                let last = peaks.last().expect("has peaks");
                report.check(
                    "large-cache transition region reaches beyond 9M",
                    out.sizes[last.end] >= 9 * MB,
                );
            }
        }
        report.note(format!(
            "{name}: {} sizes swept, {} gradient peaks",
            out.len(),
            peaks.len()
        ));
    }
    report
}

/// §IV-A: full cache-size detection on the four machines. The table is
/// the default seed's; the check is a rate over machine seeds 1–20, so
/// no one page placement decides it.
pub(crate) fn sec4a() -> Report {
    let mut report = Report::new(
        "sec4a",
        "cache size estimates on four machines (paper §IV-A)",
    );
    report.section(
        "detected vs specification",
        &[
            "machine",
            "level",
            "detected",
            "specified",
            "method",
            "exact",
        ],
    );
    let machines = paper_machines();
    // One worker per machine: the seed sweeps are most of the experiment.
    let rates = par::map(
        &machines,
        &mut vec![(); machines.len()],
        |_, (name, platform, truth)| (*name, seeds_exact(platform.machine().spec(), truth)),
    );
    let mut correct = 0usize;
    let mut total = 0usize;
    for (name, mut platform, truth) in machines {
        let out = mcalibrator(&mut platform, 0, &McalibratorConfig::paper());
        let levels = detect_cache_levels(&out, platform.page_size(), &DetectConfig::default());
        for (i, &expected) in truth.iter().enumerate() {
            total += 1;
            let (detected, method) = levels
                .get(i)
                .map(|l| (l.size, format!("{:?}", l.method)))
                .unwrap_or((0, "missing".into()));
            let exact = detected == expected;
            correct += exact as usize;
            report.row(&[
                name.to_string(),
                format!("L{}", i + 1),
                fmt_size(detected),
                fmt_size(expected),
                method,
                exact.to_string(),
            ]);
        }
        report.check(
            &format!("{name}: level count matches"),
            levels.len() == truth.len(),
        );
    }
    report.note(format!(
        "{correct}/{total} cache sizes exact on the default seed (paper: 10/10)"
    ));
    report.section(
        &format!("machine seeds 1-{SEEDS} with every level exact"),
        &["machine", "seeds"],
    );
    for (name, exact_seeds) in rates {
        report.row(&[name.to_string(), format!("{exact_seeds}/{SEEDS}")]);
        report.check(
            &format!("{name}: every level exact on at least 18 of {SEEDS} machine seeds"),
            exact_seeds >= 18,
        );
    }
    report
}

/// How many of machine seeds `1..=SEEDS` detect exactly the levels
/// `truth` on `spec` under the paper's full sweep.
fn seeds_exact(spec: &MachineSpec, truth: &[usize]) -> usize {
    (1..=SEEDS)
        .filter(|&seed| {
            let machine = Machine::with_seed(spec.clone(), seed);
            let mut platform = SimPlatform::new(machine, None).with_seed(seed);
            let out = mcalibrator(&mut platform, 0, &McalibratorConfig::paper());
            let levels = detect_cache_levels(&out, platform.page_size(), &DetectConfig::default());
            levels.iter().map(|l| l.size).eq(truth.iter().copied())
        })
        .count()
}

/// Detection ablations: what each design choice of §III-A buys.
///
/// 1. **Probabilistic vs peaks-only** on a random-paging OS;
/// 2. **size-biased vs paper-approximation** miss-rate model;
/// 3. **page coloring** restoring sharp transitions;
/// 4. **the 1 KB stride** defeating the prefetcher (64 B stride fails).
pub(crate) fn ablation_cache() -> Report {
    let mut report = Report::new(
        "ablation_cache",
        "cache detection ablations (design choices of paper §III-A)",
    );

    // --- 1 + 2: probabilistic algorithm and miss-rate model, Dempsey L2.
    let mut platform = SimPlatform::dempsey();
    let out = mcalibrator(&mut platform, 0, &McalibratorConfig::paper());
    let gradients = out.gradients();
    let peaks = find_peaks(&gradients, 1.15);
    // Peaks-only estimate of L2: position of the max gradient after L1 —
    // the naive reading the paper says "would erroneously estimate 1 MB".
    let l1 = peaks[0].index;
    let naive_idx = (l1 + 1..gradients.len())
        .max_by(|&a, &b| gradients[a].total_cmp(&gradients[b]))
        .expect("has samples");
    let naive = out.sizes[naive_idx];
    // Probabilistic estimates under both models over the same window.
    let window: Vec<usize> = (l1 + 1..out.sizes.len()).collect();
    let sizes: Vec<usize> = window.iter().map(|&i| out.sizes[i]).collect();
    let cycles: Vec<f64> = window.iter().map(|&i| out.cycles[i]).collect();
    let grid = CandidateGrid::default();
    let biased =
        probabilistic_size_with_model(&sizes, &cycles, 4096, &grid, MissRateModel::SizeBiased)
            .unwrap_or(0);
    let paperx =
        probabilistic_size_with_model(&sizes, &cycles, 4096, &grid, MissRateModel::PaperApprox)
            .unwrap_or(0);
    report.section("dempsey L2 (truth 2M) by method", &["method", "estimate"]);
    report.row(&["gradient peaks only".into(), fmt_size(naive)]);
    report.row(&["probabilistic, size-biased".into(), fmt_size(biased)]);
    report.row(&["probabilistic, paper approx".into(), fmt_size(paperx)]);
    report.check("naive peak reading is wrong", naive != 2 * MB);
    report.check("size-biased probabilistic is exact", biased == 2 * MB);
    report.note(
        "the paper-approximation model P(X>K) underestimates miss rates at \
         low associativity; the size-biased fit keeps the same framework \
         exact",
    );

    // --- 3: page coloring makes the L2 transition sharp again.
    let mut spec = servet_sim::presets::dempsey();
    spec.page_alloc = PageAllocPolicy::Colored;
    let mut colored = SimPlatform::new(Machine::new(spec), None);
    let out_colored = mcalibrator(&mut colored, 0, &McalibratorConfig::paper());
    let levels = detect_cache_levels(&out_colored, 4096, &DetectConfig::default());
    report.section(
        "dempsey under a page-coloring OS",
        &["level", "detected", "method"],
    );
    for l in &levels {
        report.row(&[
            format!("L{}", l.level),
            fmt_size(l.size),
            format!("{:?}", l.method),
        ]);
    }
    report.check(
        "coloring: L2 found by peak position (no probabilistic pass)",
        levels.len() == 2
            && levels[1].size == 2 * MB
            && format!("{:?}", levels[1].method) == "GradientPeak",
    );

    // --- 4: the stride choice. A 64 B stride is covered by the
    // prefetcher, flattening the curve and hiding cache levels.
    let mut strided = SimPlatform::dunnington();
    let cfg_1k = McalibratorConfig::paper();
    let cfg_64 = McalibratorConfig {
        stride: 64,
        ..cfg_1k
    };
    let out_1k = mcalibrator(&mut strided, 0, &cfg_1k);
    let out_64 = mcalibrator(&mut strided, 0, &cfg_64);
    let span = |o: &servet_core::McalibratorOutput| {
        let max = o.cycles.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = o.cycles.iter().copied().fold(f64::INFINITY, f64::min);
        max / min
    };
    report.section(
        "dunnington curve dynamic range by stride",
        &["stride", "max/min cycles"],
    );
    report.row(&["1024".into(), format!("{:.1}", span(&out_1k))]);
    report.row(&["64".into(), format!("{:.1}", span(&out_64))]);
    report.check(
        "1 KB stride sees the hierarchy, 64 B stride is prefetched flat",
        span(&out_1k) > 4.0 * span(&out_64),
    );
    report
}

/// Extension experiment: the line-size and L1-associativity micro probes
/// (capabilities of the related work X-Ray / P-Ray that the published
/// Servet does not cover) across all four machines.
pub(crate) fn ext_micro() -> Report {
    use servet_core::run_micro_probes;
    let mut report = Report::new(
        "ext_micro",
        "micro-probe extensions: line size and L1 associativity",
    );
    report.section(
        "detected vs specification",
        &["machine", "line B", "true", "L1 ways", "true"],
    );
    // (machine, true line size, true L1 ways, L1 size)
    let cases: Vec<(&str, SimPlatform, usize, usize, usize)> = vec![
        ("dempsey", SimPlatform::dempsey(), 64, 8, 16 * KB),
        ("athlon3200", SimPlatform::athlon3200(), 64, 2, 64 * KB),
        ("dunnington", SimPlatform::dunnington(), 64, 8, 32 * KB),
        ("finis_terrae", SimPlatform::finis_terrae(1), 64, 4, 16 * KB),
    ];
    for (name, mut platform, true_line, true_ways, l1) in cases {
        let micro = run_micro_probes(&mut platform, 0, l1);
        report.row(&[
            name.to_string(),
            micro.line_size.map(|v| v.to_string()).unwrap_or("-".into()),
            true_line.to_string(),
            micro
                .l1_associativity
                .map(|v| v.to_string())
                .unwrap_or("-".into()),
            true_ways.to_string(),
        ]);
        report.check(
            &format!("{name}: line size exact"),
            micro.line_size == Some(true_line),
        );
        report.check(
            &format!("{name}: L1 associativity exact"),
            micro.l1_associativity == Some(true_ways),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    /// The experiments are heavy (full mcalibrator sweeps in debug mode),
    /// so unit tests here only cover the cheap helpers; the experiments
    /// themselves run as release binaries and in the release integration
    /// suite.
    use super::*;

    #[test]
    fn paper_machine_table() {
        let machines = paper_machines();
        assert_eq!(machines.len(), 4);
        let caches: usize = machines.iter().map(|(_, _, t)| t.len()).sum();
        assert_eq!(caches, 10);
    }
}
