//! Cache level and size detection (paper Figs. 3 and 4).
//!
//! The overall algorithm (Fig. 4) reads the gradient of the mcalibrator
//! curve:
//!
//! * the **first** rise always gives the L1 size directly: L1 caches are
//!   virtually indexed, so their transition is one step — the first
//!   above-threshold step of the series, whatever follows it (a smeared L2
//!   rise can run on from it without a flat step between, and its largest
//!   jump is then not L1's);
//! * a later **sharp** peak (one array size) means the OS applies page
//!   coloring — the position gives the size directly;
//! * a later **wide** peak means random page placement smeared the
//!   transition of a physically indexed cache — the **probabilistic
//!   algorithm** (Fig. 3) compares the measured miss-rate curve with the
//!   binomial prediction `P(X > K), X ~ B(NP, K·PS/CS)` for every tentative
//!   `(CS, K)` and picks the statistical mode of the best-fitting sizes.
//!
//! The fit is one serial loop over the candidate grid
//! (`scored_candidates`): one `O(max np)` recurrence pass per pack of up
//! to eight tentative sizes that share an associativity. A pass steps
//! toward the window's right end only until the last of its candidates'
//! curves settles (can no longer change), so its cost follows the
//! transition rather than how far past it the window runs. The sweep
//! that feeds it costs tens of times more on the simulator even when
//! bracketed
//! ([`Sweep::Bracketed`](crate::mcalibrator::Sweep)), whose dense samples
//! run on to the same two flat steps the window walk stops at.

use crate::mcalibrator::{is_flat_step, McalibratorOutput};
use serde::{Deserialize, Serialize};
use servet_sim::{KB, MB};
use servet_stats::binomial::sf_curves;
use servet_stats::summary::mode;
use servet_stats::{find_peaks, merge_peaks};

/// How a cache level's size was determined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectionMethod {
    /// Position of a sharp gradient peak (virtually indexed cache, or a
    /// page-coloring OS).
    GradientPeak,
    /// The Fig. 3 probabilistic algorithm over a smeared transition.
    Probabilistic,
}

/// One detected cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheLevelEstimate {
    /// 1-based level number in discovery order.
    pub level: u8,
    /// Estimated size in bytes.
    pub size: usize,
    /// How the estimate was obtained.
    pub method: DetectionMethod,
}

/// The tentative `(cache size, associativity)` search grid of Fig. 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateGrid {
    /// Tentative cache sizes, bytes.
    pub sizes: Vec<usize>,
    /// Tentative associativities.
    pub assocs: Vec<usize>,
}

/// Tentative sizes: powers of two scaled by the multipliers real cache
/// geometries use. Covers every cache of the paper's machines (256 KB,
/// 512 KB, 2 MB, 3 MB = 1.5·2 MB, 9 MB = 1.125·8 MB, 12 MB = 1.5·8 MB)
/// and the common 1.25× family (2.5 MB, 10 MB), without inviting the
/// CS/K degeneracy a dense linear grid creates: an unrealistic size like
/// 1.875 MB can imitate 2 MB at a different associativity.
fn realistic_sizes(min: usize, max: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut base = min;
    while base <= max {
        for m in [8usize, 9, 10, 12] {
            let s = base / 8 * m;
            if s <= max {
                sizes.push(s);
            }
        }
        base *= 2;
    }
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

impl Default for CandidateGrid {
    fn default() -> Self {
        Self {
            sizes: realistic_sizes(64 * KB, 64 * MB),
            assocs: vec![2, 4, 8, 12, 16, 18, 24, 32],
        }
    }
}

impl CandidateGrid {
    /// A small grid for little test machines.
    pub(crate) fn small() -> Self {
        Self {
            sizes: realistic_sizes(8 * KB, MB),
            assocs: vec![2, 4, 8, 16],
        }
    }

    /// The grid restricted to sizes within `[lo, hi]`.
    fn restricted(&self, lo: usize, hi: usize) -> Vec<usize> {
        let v: Vec<usize> = self
            .sizes
            .iter()
            .copied()
            .filter(|&s| s >= lo && s <= hi)
            .collect();
        if v.is_empty() {
            self.sizes.clone()
        } else {
            v
        }
    }
}

/// Which binomial tail predicts the miss rate of a page-set model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MissRateModel {
    /// Size-biased page view: a page misses when its own set holds more
    /// than `K` pages, i.e. when at least `K` of the *other* `NP - 1`
    /// pages share its set — `P(B(NP-1, p) >= K)`. Pages are likelier to
    /// sit in crowded sets, so this is what a traversal actually measures;
    /// it matters at low associativity.
    SizeBiased,
    /// The paper's formula as printed: `P(X > K), X ~ B(NP, p)`. A good
    /// approximation at the high associativities of the paper's machines,
    /// kept for the ablation benchmark.
    PaperApprox,
}

/// Predicted miss rate of a cyclic traversal of `np` pages over a
/// physically indexed cache with page-set hit probability `p` and
/// associativity `k`: the scalar model the batched curves and the
/// mcalibrator tests are checked against.
#[cfg(test)]
pub(crate) fn predicted_miss_rate(np: u64, p: f64, k: usize, model: MissRateModel) -> f64 {
    use servet_stats::Binomial;
    match model {
        MissRateModel::SizeBiased => {
            if np == 0 {
                return 0.0;
            }
            Binomial::new(np - 1, p).sf(k as u64 - 1)
        }
        MissRateModel::PaperApprox => Binomial::new(np, p).sf(k as u64),
    }
}

/// The predicted miss rate for every page count in `np` and every
/// page-set probability in `ps` at associativity `k`: row `i` of the
/// result (`np.len()` values) is the curve of `ps[i]`. Every candidate
/// that shares `k` rides the same `O(max(np))` recurrence pass (see
/// [`sf_curves`]) instead of an independent binomial tail walk per sample.
fn predicted_miss_curves(np: &[u64], ps: &[f64], k: usize, model: MissRateModel) -> Vec<f64> {
    match model {
        MissRateModel::SizeBiased => {
            // sf_{n-1}(k-1); np = 0 maps to n = 0 ≤ k-1, which sf_curves
            // already answers with 0 — matching the scalar form.
            let shifted: Vec<u64> = np.iter().map(|&n| n.saturating_sub(1)).collect();
            sf_curves(&shifted, ps, k as u64 - 1)
        }
        MissRateModel::PaperApprox => sf_curves(np, ps, k as u64),
    }
}

/// The probabilistic cache-size algorithm (paper Fig. 3).
///
/// `sizes`/`cycles` are the mcalibrator samples of the transition window of
/// one cache level. Returns the statistical mode of the tentative size over
/// the five `(CS, K)` candidates with the lowest divergence between the
/// measured miss-rate curve and the binomial prediction, or `None` when the
/// window carries no signal (flat cycles).
pub fn probabilistic_size(
    sizes: &[usize],
    cycles: &[f64],
    page_size: usize,
    grid: &CandidateGrid,
) -> Option<usize> {
    probabilistic_size_with_model(sizes, cycles, page_size, grid, MissRateModel::SizeBiased)
}

/// [`probabilistic_size`] with an explicit miss-rate model (ablation hook).
pub fn probabilistic_size_with_model(
    sizes: &[usize],
    cycles: &[f64],
    page_size: usize,
    grid: &CandidateGrid,
    model: MissRateModel,
) -> Option<usize> {
    let mut span = servet_obs::span("cache_detect.probabilistic_fit");
    if let (Some(lo), Some(hi)) = (sizes.first(), sizes.last()) {
        span.annotate(format!("window {lo}..{hi}"));
    }
    let scored = scored_candidates(sizes, cycles, page_size, grid, model)?;
    let _rank = servet_obs::span("cache_detect.fit.rank");
    let best: Vec<usize> = scored.iter().take(5).map(|&(_, cs)| cs).collect();
    mode(&best)
}

/// The scored `(divergence, CS)` ranking behind [`probabilistic_size`]:
/// every `(CS, K)` candidate of the grid that can explain the window,
/// sorted by `(divergence, CS)`.
///
/// The tie-break on `CS` makes the ranking — and therefore the detected
/// size — independent of grid iteration order. Returns `None` when the
/// window carries no signal (under two samples, or flat cycles).
pub(crate) fn scored_candidates(
    sizes: &[usize],
    cycles: &[f64],
    page_size: usize,
    grid: &CandidateGrid,
    model: MissRateModel,
) -> Option<Vec<(f64, usize)>> {
    assert_eq!(sizes.len(), cycles.len());
    if sizes.len() < 2 {
        return None;
    }
    // Two-point normalization: both the measured cycles and each
    // candidate's predicted miss-rate curve are normalized to the window's
    // endpoints. The paper normalizes by the window's MIN/MAX, which
    // assumes the window reaches full saturation; anchoring prediction and
    // measurement to the same two samples removes that assumption, so the
    // fit is insensitive to exactly where the window was cut.
    let c_first = cycles[0];
    let c_last = *cycles.last().expect("non-empty window");
    let span = c_last - c_first;
    if span <= 0.0 {
        return None;
    }
    let mr: Vec<f64> = cycles
        .iter()
        .map(|&c| ((c - c_first) / span).clamp(0.0, 1.1))
        .collect();
    let np: Vec<u64> = sizes.iter().map(|&s| (s / page_size) as u64).collect();
    // Only consider tentative sizes commensurate with the window: the true
    // size lies inside (or just below) the smeared transition.
    let lo = sizes[0] / 2;
    let hi = *sizes.last().expect("non-empty window");
    let tentative = grid.restricted(lo, hi);

    let mut scored: Vec<(f64, usize)> = Vec::new();
    {
        let _span = servet_obs::span("cache_detect.fit.score");
        // Every tentative size's predicted curve at one associativity
        // comes from one batch; the candidates are then scored in
        // `(cs, k)` order. The endpoints are the first/last points of
        // each curve rather than two extra binomial evaluations.
        let curves: Vec<Vec<f64>> = grid
            .assocs
            .iter()
            .map(|&k| {
                let ps: Vec<f64> = tentative
                    .iter()
                    .map(|&cs| (k * page_size) as f64 / cs as f64)
                    .collect();
                predicted_miss_curves(&np, &ps, k, model)
            })
            .collect();
        for (row, &cs) in tentative.iter().enumerate() {
            for by_k in &curves {
                let curve = &by_k[row * np.len()..][..np.len()];
                let p_first = curve[0];
                let p_last = *curve.last().expect("non-empty window");
                let p_span = p_last - p_first;
                if p_span < 0.05 {
                    // The candidate predicts an essentially flat window: it
                    // cannot explain the observed transition at all.
                    continue;
                }
                let mut div = 0.0;
                for (i, &predicted_raw) in curve.iter().enumerate() {
                    let predicted = (predicted_raw - p_first) / p_span;
                    div += (mr[i] - predicted).abs();
                }
                scored.push((div, cs));
            }
        }
    }
    servet_obs::counter("cache_detect.candidates_scored").add(scored.len() as u64);
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    Some(scored)
}

/// Configuration for the overall level-detection algorithm (Fig. 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectConfig {
    /// Gradients above this are rises (the paper's "gradient larger
    /// than 1", with headroom for measurement noise).
    pub gradient_threshold: f64,
    /// Below-threshold samples bridged when merging wobbly transition
    /// regions beyond L1.
    pub merge_gap: usize,
    /// The Fig. 3 candidate grid.
    pub grid: CandidateGrid,
}

impl Default for DetectConfig {
    fn default() -> Self {
        Self {
            gradient_threshold: 1.15,
            merge_gap: 1,
            grid: CandidateGrid::default(),
        }
    }
}

impl DetectConfig {
    /// Configuration for small test machines.
    pub(crate) fn small() -> Self {
        Self {
            gradient_threshold: 1.15,
            merge_gap: 1,
            grid: CandidateGrid::small(),
        }
    }
}

/// Detect the number of cache levels and their sizes (paper Fig. 4).
pub fn detect_cache_levels(
    out: &McalibratorOutput,
    page_size: usize,
    config: &DetectConfig,
) -> Vec<CacheLevelEstimate> {
    let _span = servet_obs::span("cache_detect.levels");
    let gradients = out.gradients();
    let first_peaks = find_peaks(&gradients, config.gradient_threshold);
    let Some(first) = first_peaks.first() else {
        return Vec::new();
    };
    let mut levels = Vec::new();
    // The first rise is always L1 (virtually indexed, so its transition is
    // one step): gradient[k] is the rise between S[k] and S[k+1], so S at
    // the region's first step gives the last size that fits. The region's
    // maximum can be a later level's jump running on from L1's.
    let l1_index = first.start;
    levels.push(CacheLevelEstimate {
        level: 1,
        size: out.sizes[l1_index],
        method: DetectionMethod::GradientPeak,
    });
    // Re-scan the gradients beyond L1. Lower, physically indexed levels
    // produce wide sampled-binomial transitions that can wobble under the
    // threshold mid-rise, so nearby regions are merged before
    // classification.
    let rest = &gradients[l1_index + 1..];
    let rest_peaks = merge_peaks(
        find_peaks(rest, config.gradient_threshold),
        rest,
        config.merge_gap,
    );
    for (peak_no, peak) in rest_peaks.iter().enumerate() {
        let level = (levels.len() + 1) as u8;
        let index = peak.index + l1_index + 1;
        let (start, end) = (peak.start + l1_index + 1, peak.end + l1_index + 1);
        if peak.is_sharp() {
            // Page coloring (or a virtually indexed level): position speaks.
            levels.push(CacheLevelEstimate {
                level,
                size: out.sizes[index],
                method: DetectionMethod::GradientPeak,
            });
        } else {
            // Smeared transition: Fig. 3 over the window around the peak,
            // padded so the min/max normalization sees both plateaus — but
            // never past the L1 transition, whose far cheaper hits would
            // corrupt the window's hit-time estimate. On the right, the
            // window follows the post-transition plateau to saturation
            // (the binomial tail flattens slowly) and stops before the
            // next detected level's rise.
            let next_rise = rest_peaks
                .get(peak_no + 1)
                .map(|p| p.start + l1_index + 1)
                .unwrap_or(gradients.len());
            let lo = start.saturating_sub(1).max(l1_index + 1);
            let hi = saturated_window_end(&gradients, end, config.gradient_threshold, next_rise)
                .min(out.sizes.len() - 1);
            // Adjacency guard: a distinct level below the previous one
            // must be at least twice its size (equal-size levels are
            // indistinguishable by a size sweep). When L2 = 2×L1 the
            // window starts right at the L1 edge and `restricted`'s
            // `sizes[0]/2` bound would admit tentative sizes at or below
            // L1, which can out-fit the true size on a window this
            // short — so they are cut from the grid up front.
            let floor = levels.last().map(|l| l.size * 2).unwrap_or(0);
            let mut grid = config.grid.clone();
            grid.sizes.retain(|&s| s >= floor);
            let (sizes, cycles) = (&out.sizes[lo..=hi], &out.cycles[lo..=hi]);
            if let Some(size) = probabilistic_size(sizes, cycles, page_size, &grid) {
                levels.push(CacheLevelEstimate {
                    level,
                    size,
                    method: DetectionMethod::Probabilistic,
                });
            }
        }
    }
    levels
}

/// Walk right from a transition region's last gradient index toward
/// saturation: the sampled binomial tail keeps rising slowly (gradients
/// drift from just under the detection threshold down to 1.0) long after
/// the above-threshold region ends, and the Fig. 3 fit needs that tail —
/// a window cut mid-transition ranks smaller tentative sizes first. The
/// walk stops at two consecutive truly-flat steps (the plateau proper),
/// at a gradient back above the threshold, at a clear gradient
/// *increase* (a decaying tail is non-increasing, so turning upward
/// means the next level's smeared rise has begun below the detection
/// threshold — e.g. an L3 whose early slope never clears it), or at
/// `limit` (the next detected level's above-threshold region),
/// whichever comes first. Returns the last sample index to include in
/// the window.
///
/// An earlier revision capped the walk at 8 samples below a tighter
/// plateau bound — correct for sweeps whose linear step is a large
/// fraction of the cache size, but on densely sampled sweeps it
/// truncated every window mid-tail and biased the detected sizes low.
fn saturated_window_end(
    gradients: &[f64],
    region_end: usize,
    threshold: f64,
    limit: usize,
) -> usize {
    // A rise is judged against the lowest gradient the walk has seen and
    // must persist: sampled-binomial noise throws isolated one-sample
    // spikes well above the tail's floor on dense sweeps, but they fall
    // straight back, while a real next-level climb keeps every following
    // sample up there. Samples still mid-streak when the walk exits
    // (e.g. a rise running into `limit`) are trimmed off the window.
    const RISE: f64 = 0.06;
    let mut j = region_end + 1;
    let mut floor = f64::INFINITY;
    let mut flats = 0;
    let mut rising = 0;
    while j < limit && j < gradients.len() && gradients[j] < threshold {
        let g = gradients[j];
        if g > floor + RISE {
            rising += 1;
            if rising >= 2 {
                break;
            }
        } else {
            rising = 0;
            floor = floor.min(g);
            if is_flat_step(g) {
                flats += 1;
                if flats >= 2 {
                    j += 1;
                    break;
                }
            } else {
                flats = 0;
            }
        }
        j += 1;
    }
    j.saturating_sub(rising)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcalibrator::{mcalibrator, McalibratorConfig};
    use crate::sim_platform::SimPlatform;
    use servet_sim::PageAllocPolicy;
    use servet_stats::Binomial;

    /// Synthetic miss-rate curve generated from the model: the algorithm
    /// must recover the generating size.
    #[test]
    fn probabilistic_recovers_generating_size() {
        let page = 4 * KB;
        let true_cs = 2 * MB;
        let true_k = 8usize;
        let sizes: Vec<usize> = (1..=8).map(|i| i * 512 * KB).collect();
        let p = (true_k * page) as f64 / true_cs as f64;
        let cycles: Vec<f64> = sizes
            .iter()
            .map(|&s| {
                let mr =
                    predicted_miss_rate((s / page) as u64, p, true_k, MissRateModel::SizeBiased);
                14.0 + 286.0 * mr
            })
            .collect();
        let got = probabilistic_size(&sizes, &cycles, page, &CandidateGrid::default());
        assert_eq!(got, Some(true_cs));
    }

    /// The two miss-rate models agree at high associativity and diverge at
    /// low associativity — the reason the size-biased form is the default.
    #[test]
    fn miss_rate_models_diverge_at_low_k() {
        let low_biased = predicted_miss_rate(56, 1.0 / 16.0, 4, MissRateModel::SizeBiased);
        let low_paper = predicted_miss_rate(56, 1.0 / 16.0, 4, MissRateModel::PaperApprox);
        assert!(low_biased > low_paper * 1.4, "{low_biased} vs {low_paper}");
        let hi_biased = predicted_miss_rate(3072, 1.0 / 128.0, 24, MissRateModel::SizeBiased);
        let hi_paper = predicted_miss_rate(3072, 1.0 / 128.0, 24, MissRateModel::PaperApprox);
        assert!(
            (hi_biased - hi_paper).abs() < 0.1,
            "{hi_biased} vs {hi_paper}"
        );
        assert_eq!(
            predicted_miss_rate(0, 0.5, 4, MissRateModel::SizeBiased),
            0.0
        );
    }

    #[test]
    fn probabilistic_rejects_flat_window() {
        let sizes = vec![64 * KB, 128 * KB, 256 * KB];
        let cycles = vec![10.0, 10.0, 10.0];
        assert_eq!(
            probabilistic_size(&sizes, &cycles, 4 * KB, &CandidateGrid::default()),
            None
        );
        assert_eq!(
            probabilistic_size(&sizes[..1], &cycles[..1], 4 * KB, &CandidateGrid::default()),
            None
        );
    }

    #[test]
    fn tiny_machine_levels_detected() {
        // tiny_smp ground truth: 8 KB L1, 64 KB L2.
        let mut p = SimPlatform::tiny().with_noise(0.002);
        let out = mcalibrator(&mut p, 0, &McalibratorConfig::small(512 * KB));
        let levels = detect_cache_levels(&out, 4 * KB, &DetectConfig::small());
        assert_eq!(levels.len(), 2, "{levels:?}");
        assert_eq!(levels[0].size, 8 * KB);
        assert_eq!(levels[0].method, DetectionMethod::GradientPeak);
        assert_eq!(levels[1].size, 64 * KB, "{levels:?}");
    }

    /// L1 is the first step of the first rise, not its largest: a smeared
    /// L2 rise that follows L1's without a flat step between puts its own,
    /// larger jump in the same above-threshold region.
    #[test]
    fn l1_is_the_first_step_of_the_first_rise() {
        let out = McalibratorOutput {
            sizes: (0..8).map(|i| (16 * KB) << i).collect(),
            // 64 KB L1 (3 -> 6 cycles), then a 512 KB L2 rising from 128 KB.
            cycles: vec![3.0, 3.0, 3.0, 6.0, 15.0, 60.0, 170.0, 180.0],
            stride: KB,
        };
        let levels = detect_cache_levels(&out, 4 * KB, &DetectConfig::default());
        assert_eq!(levels[0].size, 64 * KB, "{levels:?}");
        assert_eq!(levels[0].method, DetectionMethod::GradientPeak);
    }

    /// The same on the machine that showed it: the Athlon's 512 KB
    /// physically indexed L2 starts rising at the doubling step after its
    /// 64 KB L1 (the region's maximum read 256 KB on 7 of these seeds).
    #[test]
    fn athlon_l1_is_64k_on_every_seed() {
        let config = McalibratorConfig {
            max_size: 4 * MB,
            ..Default::default()
        };
        for seed in 1..=20 {
            let machine = servet_sim::Machine::with_seed(servet_sim::presets::athlon3200(), seed);
            let mut p = SimPlatform::new(machine, None).with_seed(seed);
            let out = mcalibrator(&mut p, 0, &config);
            let levels = detect_cache_levels(&out, 4 * KB, &DetectConfig::default());
            assert_eq!(levels[0].size, 64 * KB, "seed {seed}: {levels:?}");
        }
    }

    /// Regression for the zoo's `L2 = 2×L1` adjacency miss class
    /// (ROADMAP item 8). When L2 = 2×L1 the fit's window starts right at
    /// the L1 edge, so the `sizes[0]/2` bound admitted tentative sizes at
    /// or below L1 (16 KB or 20 KB for a true 32 KB L2) that no distinct
    /// second level can have. The 2×-floor guard cuts them from the grid.
    ///
    /// Every adjacency machine of the 12-machine zoos with seeds 1–100
    /// (17 of them): none may read below 2×L1, and at least 13 must read
    /// exactly — 13 measured. Without the floor, 4 of them read below
    /// 2×L1 and only 6 exactly.
    #[test]
    fn adjacent_l2_is_not_detected_below_twice_l1() {
        use crate::zoo::{generate_population, ZooConfig};
        let (mut machines, mut exact) = (0, 0);
        for zoo_seed in 1..=100 {
            let cfg = ZooConfig::new(12, 1, zoo_seed);
            for m in generate_population(&cfg) {
                let truth: Vec<usize> = m.spec.caches.iter().map(|c| c.size).collect();
                if truth[1] != truth[0] * 2 {
                    continue;
                }
                machines += 1;
                let sim = servet_sim::Machine::with_seed(m.spec.clone(), m.sim_seed);
                let mut p = SimPlatform::new(sim, None)
                    .with_noise(m.noise)
                    .with_seed(m.sim_seed);
                let out = mcalibrator(&mut p, 0, &cfg.suite.mcalibrator);
                let levels = detect_cache_levels(&out, m.spec.page_size, &cfg.suite.detect);
                let got: Vec<usize> = levels.iter().map(|l| l.size).collect();
                let what = format!("zoo seed {zoo_seed} machine {}: {got:?}", m.index);
                assert!(got.len() >= 2 && got[1] >= 2 * got[0], "{what}");
                exact += usize::from(got == truth);
            }
        }
        assert_eq!(machines, 17, "the scan's population moved");
        assert!(
            exact >= 13,
            "{exact} of {machines} adjacency machines exact"
        );
    }

    #[test]
    fn page_coloring_gives_sharp_second_peak() {
        // With a coloring OS the L2 transition is sharp and the gradient
        // position gives the size directly — the paper's "page coloring"
        // branch of Fig. 4.
        let mut spec = servet_sim::presets::tiny_smp();
        spec.page_alloc = PageAllocPolicy::Colored;
        let machine = servet_sim::Machine::new(spec);
        let mut p = crate::sim_platform::SimPlatform::new(machine, None).with_noise(0.0);
        let out = mcalibrator(&mut p, 0, &McalibratorConfig::small(512 * KB));
        let levels = detect_cache_levels(&out, 4 * KB, &DetectConfig::small());
        assert_eq!(levels.len(), 2, "{levels:?}");
        assert_eq!(levels[1].size, 64 * KB);
        assert_eq!(levels[1].method, DetectionMethod::GradientPeak);
    }

    /// A realistic smeared window (2 MB 8-way cache, sampled every 512 KB)
    /// with measurement-like jitter baked in deterministically.
    fn smeared_window(points: usize) -> (Vec<usize>, Vec<f64>) {
        let page = 4 * KB;
        let (true_cs, true_k) = (2 * MB, 8usize);
        let p = (true_k * page) as f64 / true_cs as f64;
        let sizes: Vec<usize> = (1..=points).map(|i| i * 512 * KB).collect();
        let cycles: Vec<f64> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let mr =
                    predicted_miss_rate((s / page) as u64, p, true_k, MissRateModel::SizeBiased);
                // ±0.4 % deterministic wobble so ties are realistic.
                let wobble = 1.0 + 0.004 * ((i * 2654435761) % 1000) as f64 / 1000.0;
                (14.0 + 286.0 * mr) * wobble
            })
            .collect();
        (sizes, cycles)
    }

    /// The detected size is the mode of the ranking's five best sizes, on
    /// both miss-rate models.
    #[test]
    fn detected_size_is_mode_of_top_five_candidates() {
        let (sizes, cycles) = smeared_window(10);
        let grid = CandidateGrid::default();
        for model in [MissRateModel::SizeBiased, MissRateModel::PaperApprox] {
            let scored = scored_candidates(&sizes, &cycles, 4 * KB, &grid, model).unwrap();
            assert!(!scored.is_empty());
            let best: Vec<usize> = scored.iter().take(5).map(|&(_, cs)| cs).collect();
            let got = probabilistic_size_with_model(&sizes, &cycles, 4 * KB, &grid, model);
            assert_eq!(got, mode(&best));
        }
    }

    /// Equal-divergence candidates must rank by CS, not by grid iteration
    /// order — reversing the grid must not change the ranking.
    #[test]
    fn candidate_ranking_breaks_ties_deterministically() {
        let (sizes, cycles) = smeared_window(8);
        let grid = CandidateGrid::default();
        let mut reversed = grid.clone();
        reversed.sizes.reverse();
        reversed.assocs.reverse();
        let model = MissRateModel::SizeBiased;
        let a = scored_candidates(&sizes, &cycles, 4 * KB, &grid, model).unwrap();
        let b = scored_candidates(&sizes, &cycles, 4 * KB, &reversed, model).unwrap();
        let key = |v: &[(f64, usize)]| -> Vec<(u64, usize)> {
            v.iter().map(|&(d, cs)| (d.to_bits(), cs)).collect()
        };
        // Same candidate set either way; the sorted (divergence, CS) keys
        // must agree exactly.
        let (mut ka, mut kb) = (key(&a), key(&b));
        ka.sort_unstable();
        kb.sort_unstable();
        assert_eq!(ka, kb);
        let top_a: Vec<usize> = a.iter().take(5).map(|&(_, cs)| cs).collect();
        let top_b: Vec<usize> = b.iter().take(5).map(|&(_, cs)| cs).collect();
        assert_eq!(top_a, top_b, "tie-break must neutralize grid order");
    }

    /// The batched curves are the scalar model evaluated at every sample.
    #[test]
    fn predicted_miss_curve_matches_scalar_model() {
        let np: Vec<u64> = (0..=12).map(|i| i * 137).collect();
        for model in [MissRateModel::SizeBiased, MissRateModel::PaperApprox] {
            for &(ps, k) in &[
                (&[0.015625f64, 0.001, 0.5][..], 8usize),
                (&[0.25][..], 2),
                (&[0.001, 0.015625][..], 24),
            ] {
                let curves = predicted_miss_curves(&np, ps, k, model);
                for (curve, &p) in curves.chunks(np.len()).zip(ps) {
                    for (i, &pages) in np.iter().enumerate() {
                        let want = predicted_miss_rate(pages, p, k, model);
                        assert!(
                            (curve[i] - want).abs() < 1e-9,
                            "curve[{i}] = {} vs scalar {want} (p={p}, k={k}, {model:?})",
                            curve[i]
                        );
                    }
                }
            }
        }
    }

    /// FNV-1a 64 over `bytes`, continuing from `hash`.
    fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        hash
    }

    /// The `(divergence bits, CS)` rankings of three sets of windows,
    /// each under both miss-rate models, folded into one FNV-1a digest:
    /// BENCH_fit's 64-point window, and every smeared window the detector
    /// fits in a seed-1 sweep of each paper machine. A change to the fit's
    /// arithmetic that moves any divergence by one ulp, or reorders the
    /// ranking, moves the digest.
    #[test]
    fn candidate_rankings_are_pinned() {
        const PAGE: usize = 4 * KB;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut windows = 0;
        let mut fold = |sizes: &[usize], cycles: &[f64], page: usize, grid: &CandidateGrid| {
            windows += 1;
            for model in [MissRateModel::SizeBiased, MissRateModel::PaperApprox] {
                let scored =
                    scored_candidates(sizes, cycles, page, grid, model).unwrap_or_default();
                digest = fnv1a(digest, &scored.len().to_le_bytes());
                for (div, cs) in scored {
                    digest = fnv1a(digest, &div.to_bits().to_le_bytes());
                    digest = fnv1a(digest, &cs.to_le_bytes());
                }
            }
        };

        // BENCH_fit's window: a smeared 2 MB / 8-way transition, 64 points
        // from 1 MB to 4 MB with a deterministic ±0.4 % wobble.
        let p = (8 * PAGE) as f64 / (2 * MB) as f64;
        let (sizes, cycles): (Vec<usize>, Vec<f64>) = (0..64)
            .map(|i| {
                let size = MB + i * (3 * MB) / 64;
                let miss = Binomial::new((size / PAGE) as u64 - 1, p).sf(7);
                let wobble = ((i * 2_654_435_761) % 1000) as f64 / 1000.0 - 0.5;
                (size, 10.0 + 60.0 * miss + 0.25 * wobble)
            })
            .unzip();
        fold(&sizes, &cycles, PAGE, &CandidateGrid::default());

        for spec in servet_sim::presets::paper_machines() {
            let page = spec.page_size;
            let mut platform =
                SimPlatform::new(servet_sim::Machine::with_seed(spec, 1), None).with_seed(1);
            let out = mcalibrator(&mut platform, 0, &McalibratorConfig::default());
            let config = DetectConfig::default();
            let scope = servet_obs::RunScope::begin();
            let levels = detect_cache_levels(&out, page, &config);
            let spans = scope.finish().spans;
            // Each fit records one span annotated with its window's end
            // sizes, and pushes one level; its grid drops the sizes under
            // twice the level before it.
            let mut fitted =
                (0..levels.len()).filter(|&k| levels[k].method == DetectionMethod::Probabilistic);
            for span in spans
                .iter()
                .filter(|s| s.name == "cache_detect.probabilistic_fit")
            {
                let window = span
                    .annotation
                    .as_deref()
                    .and_then(|a| a.strip_prefix("window "));
                let (lo, hi) = window.and_then(|w| w.split_once("..")).expect("a window");
                let at = |size: &str| {
                    let size: usize = size.parse().unwrap();
                    out.sizes.iter().position(|&s| s == size).unwrap()
                };
                let (lo, hi) = (at(lo), at(hi));
                let k = fitted.next().expect("every fitted window gives a level");
                let mut grid = config.grid.clone();
                grid.sizes.retain(|&s| s >= levels[k - 1].size * 2);
                fold(&out.sizes[lo..=hi], &out.cycles[lo..=hi], page, &grid);
            }
            assert_eq!(fitted.next(), None, "a level without its window");
        }
        assert_eq!(windows, 7, "the fitted windows moved");
        assert_eq!(
            digest, 0xcbb0_e6b4_260c_1988,
            "the candidate rankings moved"
        );
    }

    #[test]
    fn grid_restriction_falls_back_to_full() {
        let g = CandidateGrid::default();
        let r = g.restricted(1, 2);
        assert_eq!(r.len(), g.sizes.len());
        let r = g.restricted(MB, 2 * MB);
        assert!(!r.is_empty() && r.len() < g.sizes.len());
        assert!(r.iter().all(|&s| (MB..=2 * MB).contains(&s)));
    }

    #[test]
    fn default_grid_covers_paper_caches() {
        let g = CandidateGrid::default();
        for cs in [256 * KB, 512 * KB, 2 * MB, 3 * MB, 9 * MB, 12 * MB] {
            assert!(g.sizes.contains(&cs), "grid missing {cs}");
        }
        for k in [4usize, 8, 12, 18, 24] {
            assert!(g.assocs.contains(&k));
        }
    }
}
