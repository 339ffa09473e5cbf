//! mcalibrator — the strided-traversal measurement kernel (paper Fig. 1).
//!
//! Arrays of growing size are traversed with a fixed stride and the average
//! number of cycles per access is recorded. The paper's choices, kept here:
//!
//! * **1 KB stride** — "big enough to avoid influences of the hardware
//!   prefetcher … larger than any existing cache line size and … a divisor
//!   of any cache size";
//! * sizes **double up to 2 MB** and then grow **by 1 MB**, so the small
//!   caches are sampled geometrically and the large ones densely enough for
//!   the probabilistic algorithm;
//! * the real kernel reads its stride *from the array* (`j += A[j]`) to
//!   defeat compiler optimization — a concern for the host backend;
//!   the simulator backend performs the same address sequence directly.
//!
//! # Which of those sizes are measured
//!
//! [`Sweep::Full`] is the paper's loop: every size of
//! [`McalibratorConfig::sizes`], ascending, once. It is what Fig. 2 plots
//! and what Table I's "Cache Size Estimate" row was timed with, so the
//! paper-reproduction experiments name it. Most of its cost lies on
//! plateaus the detector never reads — 57 of the default 72 sizes are
//! past 7 MB, where a traversal costs in proportion to the array.
//!
//! [`Sweep::Bracketed`], the suite's default, measures a subset of the
//! same list in two passes:
//!
//! 1. a **geometric skeleton** across the whole range — the first size,
//!    then each first listed size at least twice the last one taken, then
//!    the last (15 of the default 72). Every cache level shows up as a
//!    skeleton interval whose gradient leaves the flat band
//!    `1/1.02 … 1.02`;
//! 2. a **dense fill**, ascending: every listed size inside each maximal
//!    run of such intervals, and then on past the run's right edge, one
//!    listed size at a time, until two consecutive steps are flat
//!    (`is_flat_step` — the predicate the Fig. 4 window walk in
//!    [`crate::cache_detect`] stops on), the next run begins, or the list
//!    ends. Walking on to saturation is what keeps the Fig. 3 window
//!    inside dense samples: a window that ran on into the far skeleton
//!    points would admit every tentative size up to `max_size`.
//!
//! The output is one ascending series either way; the sizes left out lie
//! on flat segments, where linear interpolation between their neighbours
//! says what they would have read. A curve that never flattens (a noisy
//! host) fills every run to the end of the list, which is the full sweep
//! and never more. The samples are **not** the full sweep's own: the
//! simulator keys page placement on its allocation counter and draws
//! noise from one sequential stream, so measuring in another order reads
//! other numbers (EXPERIMENTS.md, "Machine zoo", separates what the
//! order costs from what the omission costs).

use crate::platform::{CoreId, Platform};
use serde::{Deserialize, Serialize};
use servet_sim::{KB, MB};
use servet_stats::{gradient, step};

/// Which of [`McalibratorConfig::sizes`] a sweep measures (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Sweep {
    /// A doubling skeleton, then `linear_step` samples only where the
    /// curve moves and on to saturation.
    Bracketed,
    /// Every size, ascending — the paper's Fig. 1 loop. Also what a
    /// config written before the field existed reads as, since that is
    /// what it ran.
    #[default]
    Full,
}

/// Sweep configuration (the paper's `MIN_CACHE` / `MAX_CACHE` loop).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McalibratorConfig {
    /// First array size tested, bytes.
    pub min_size: usize,
    /// Last array size tested (inclusive), bytes. Must comfortably exceed
    /// the largest cache.
    pub max_size: usize,
    /// Traversal stride, bytes.
    pub stride: usize,
    /// Sizes double until this threshold, then grow by `linear_step`.
    pub double_until: usize,
    /// Linear increment beyond `double_until`, bytes.
    pub linear_step: usize,
    /// Which of the sizes are measured.
    #[serde(default)]
    pub sweep: Sweep,
}

impl Default for McalibratorConfig {
    fn default() -> Self {
        Self {
            min_size: 4 * KB,
            max_size: 64 * MB,
            stride: KB,
            double_until: 2 * MB,
            linear_step: MB,
            sweep: Sweep::Bracketed,
        }
    }
}

impl McalibratorConfig {
    /// A reduced sweep for small machines (tests): up to `max_size`,
    /// keeping the paper's proportions (sampling step no finer than the
    /// caches' size gaps, so page-coloring transitions stay sharp).
    pub(crate) fn small(max_size: usize) -> Self {
        Self {
            min_size: KB,
            max_size,
            stride: KB,
            double_until: 32 * KB,
            linear_step: 32 * KB,
            sweep: Sweep::Bracketed,
        }
    }

    /// The paper's own measurement: its constants and its Fig. 1 loop over
    /// every listed size ([`Sweep::Full`]) — what Fig. 2 plots and §IV-A and
    /// Table I were measured with.
    pub fn paper() -> Self {
        Self {
            sweep: Sweep::Full,
            ..Self::default()
        }
    }

    /// Check that the configuration describes a finite, non-empty sweep.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_size == 0 {
            return Err("min_size is zero".into());
        }
        if self.min_size > self.max_size {
            return Err(format!(
                "min_size {} above max_size {}",
                self.min_size, self.max_size
            ));
        }
        if self.stride == 0 {
            return Err("stride is zero".into());
        }
        if self.linear_step == 0 {
            return Err("linear_step is zero".into());
        }
        Ok(())
    }

    /// The sequence of array sizes this configuration visits; empty when
    /// the configuration does not [`validate`](Self::validate).
    pub fn sizes(&self) -> Vec<usize> {
        let mut out = Vec::new();
        if self.validate().is_err() {
            return out;
        }
        let mut next = Some(self.min_size);
        while let Some(s) = next.filter(|&s| s <= self.max_size) {
            out.push(s);
            next = if s < self.double_until {
                s.checked_mul(2)
            } else {
                s.checked_add(self.linear_step)
            };
        }
        out
    }
}

/// The output arrays `S` and `C` of the paper's Fig. 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McalibratorOutput {
    /// Array sizes tested, bytes.
    pub sizes: Vec<usize>,
    /// Average cycles per access during the traversal of each size.
    pub cycles: Vec<f64>,
    /// Stride used, bytes.
    pub stride: usize,
}

impl McalibratorOutput {
    /// The gradient series `C[k+1] / C[k]` (paper Fig. 2b).
    pub fn gradients(&self) -> Vec<f64> {
        gradient(&self.cycles)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }
}

/// Whether a gradient step lies on a plateau proper: two of these in a
/// row end both the Fig. 4 saturation walk and a bracket's dense fill.
/// NaN is not flat, so an unanswered measurement keeps either walking.
pub(crate) fn is_flat_step(gradient: f64) -> bool {
    gradient < 1.005
}

/// A skeleton interval whose gradient leaves `1/ACTIVE … ACTIVE` holds
/// (part of) a transition and is sampled densely. The zoo's largest
/// measurement noise (±0.6 % on either end) moves the gradient of a
/// plateau interval by 1.2 % at most.
const ACTIVE: f64 = 1.02;

/// Run the mcalibrator sweep on `core`.
///
/// An invalid `config` is a recorded fallback, not a panic: nothing is
/// measured, the output is empty and `mcalibrator.invalid_config` counts
/// it (callers that take configs from outside check
/// [`McalibratorConfig::validate`] first).
pub fn mcalibrator(
    platform: &mut dyn Platform,
    core: CoreId,
    config: &McalibratorConfig,
) -> McalibratorOutput {
    let mut span = servet_obs::span("mcalibrator.sweep");
    if config.validate().is_err() {
        servet_obs::counter("mcalibrator.invalid_config").incr();
    }
    let listed = config.sizes();
    let mut measure = |size| platform.traverse_cycles(core, size, config.stride);
    let readings: Vec<Option<f64>> = match config.sweep {
        Sweep::Full => listed.iter().map(|&s| Some(measure(s))).collect(),
        Sweep::Bracketed => {
            let (readings, brackets) = bracketed(&listed, measure);
            span.annotate(match brackets.as_slice() {
                [] => "brackets: none".to_string(),
                closed => format!("brackets: {}", closed.join("; ")),
            });
            readings
        }
    };
    let (sizes, cycles): (Vec<usize>, Vec<f64>) = listed
        .iter()
        .zip(readings)
        .filter_map(|(&size, reading)| Some((size, reading?)))
        .unzip();
    servet_obs::counter("mcalibrator.samples").add(sizes.len() as u64);
    servet_obs::counter("mcalibrator.sizes_skipped").add((listed.len() - sizes.len()) as u64);
    McalibratorOutput {
        sizes,
        cycles,
        stride: config.stride,
    }
}

/// The two passes of [`Sweep::Bracketed`] over `sizes` (module docs):
/// the reading of every size measured, `None` for the ones left out, and
/// one `lo..hi (why it closed)` line per bracket.
fn bracketed(
    sizes: &[usize],
    mut measure: impl FnMut(usize) -> f64,
) -> (Vec<Option<f64>>, Vec<String>) {
    let n = sizes.len();
    let mut cycles: Vec<Option<f64>> = vec![None; n];
    let mut at = |i: usize| *cycles[i].get_or_insert_with(|| measure(sizes[i]));

    // Pass 1. Below `double_until` the list itself doubles, so one rule
    // gives the whole skeleton.
    let mut skeleton: Vec<usize> = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let doubled = skeleton.last().is_none_or(|&j| size / 2 >= sizes[j]);
        if doubled || i + 1 == n {
            skeleton.push(i);
            at(i);
        }
    }
    let active: Vec<bool> = skeleton
        .windows(2)
        .map(|w| !(1.0 / ACTIVE..=ACTIVE).contains(&step(at(w[0]), at(w[1]))))
        .collect();

    // Pass 2. During a walk `skeleton[k]` is the first skeleton point at
    // or after the dense samples' right end `i`.
    let mut brackets = Vec::new();
    let mut k = 0;
    while k < active.len() {
        if !active[k] {
            k += 1;
            continue;
        }
        let lo = skeleton[k];
        while k < active.len() && active[k] {
            k += 1;
        }
        let edge = skeleton[k];
        for i in lo + 1..edge {
            at(i);
        }
        let (mut i, mut flats) = (edge, 0);
        let why = loop {
            if flats == 2 {
                break "two flat steps";
            }
            if i + 1 == n {
                break "max_size";
            }
            if i == skeleton[k] && active.get(k) == Some(&true) {
                break "next bracket";
            }
            i += 1;
            flats = if is_flat_step(step(at(i - 1), at(i))) {
                flats + 1
            } else {
                0
            };
            if skeleton[k] < i {
                k += 1;
            }
        };
        brackets.push(format!("{}..{} ({why})", sizes[lo], sizes[i]));
    }
    (cycles, brackets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_detect::{
        detect_cache_levels, predicted_miss_rate, DetectConfig, MissRateModel,
    };
    use crate::platform::{SharedStreamJob, TraverseJob};
    use crate::sim_platform::SimPlatform;
    use servet_stats::rng::ChaCha8Rng;

    /// A platform whose traversal cost is `curve(size)` and which logs
    /// every size it is asked for. The sweep may call nothing else.
    struct Curve<F> {
        curve: F,
        asked: Vec<usize>,
    }

    impl<F: FnMut(usize) -> f64> Curve<F> {
        fn new(curve: F) -> Self {
            Self {
                curve,
                asked: Vec::new(),
            }
        }
    }

    impl<F: FnMut(usize) -> f64> Platform for Curve<F> {
        fn name(&self) -> &str {
            "curve"
        }
        fn num_cores(&self) -> usize {
            1
        }
        fn page_size(&self) -> usize {
            4 * KB
        }
        fn traverse_cycles(&mut self, core: CoreId, size: usize, stride: usize) -> f64 {
            assert_eq!((core, stride), (0, KB));
            self.asked.push(size);
            (self.curve)(size)
        }
        fn traverse_concurrent_cycles(&mut self, _: &[TraverseJob], _: usize) -> Vec<f64> {
            unreachable!("a sweep only traverses")
        }
        fn copy_bandwidth_gbs(&mut self, _: &[CoreId]) -> Vec<f64> {
            unreachable!("a sweep only traverses")
        }
        fn traverse_pattern_cycles(&mut self, _: CoreId, _: usize, _: &[u64]) -> f64 {
            unreachable!("a sweep only traverses")
        }
        fn message_latency_us(&mut self, _: CoreId, _: CoreId, _: usize) -> f64 {
            unreachable!("a sweep only traverses")
        }
        fn concurrent_message_latency_us(&mut self, _: &[(CoreId, CoreId)], _: usize) -> Vec<f64> {
            unreachable!("a sweep only traverses")
        }
        fn shared_stream_cycles(&mut self, _: usize, _: &[SharedStreamJob]) -> Vec<f64> {
            unreachable!("a sweep only traverses")
        }
        fn elapsed_seconds(&self) -> f64 {
            unreachable!("a sweep only traverses")
        }
    }

    fn full(config: McalibratorConfig) -> McalibratorConfig {
        McalibratorConfig {
            sweep: Sweep::Full,
            ..config
        }
    }

    #[test]
    fn default_config_matches_paper_shape() {
        let sizes = McalibratorConfig::default().sizes();
        assert_eq!(sizes[0], 4 * KB);
        // Doubling: 4K 8K ... 2M = 10 points.
        assert_eq!(sizes[9], 2 * MB);
        assert_eq!(sizes[10], 3 * MB);
        assert_eq!(*sizes.last().unwrap(), 64 * MB);
        // Strictly increasing.
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn small_config_is_dense() {
        let sizes = McalibratorConfig::small(128 * KB).sizes();
        assert!(sizes.len() >= 8, "{sizes:?}");
        assert!(*sizes.last().unwrap() <= 128 * KB);
    }

    #[test]
    fn sweep_on_tiny_machine_shows_plateaus() {
        // tiny_smp: 8 KB L1 (2 cy), 64 KB L2 (10 cy), memory (100+ cy).
        let mut p = SimPlatform::tiny().with_noise(0.0);
        let out = mcalibrator(&mut p, 0, &McalibratorConfig::small(256 * KB));
        assert_eq!(out.len(), out.sizes.len());
        assert!(!out.is_empty());
        // Cost at 4 KB is the L1 hit; at the top it is memory-bound.
        let first = out.cycles[0];
        let last = *out.cycles.last().unwrap();
        assert!((first - 2.0).abs() < 0.5, "first = {first}");
        assert!(last > 50.0, "last = {last}");
        // Gradient has at least one clear peak (the L1 exhaustion).
        let g = out.gradients();
        assert!(g.iter().copied().fold(0.0, f64::max) > 1.5);
    }

    #[test]
    fn cycles_trend_upward() {
        // Random page mapping makes individual samples of the transition
        // region noisy (each size draws a fresh mapping), so the series is
        // only required to avoid large dips and to end far above its start.
        let mut p = SimPlatform::tiny().with_noise(0.0);
        let out = mcalibrator(&mut p, 0, &McalibratorConfig::small(256 * KB));
        for w in out.cycles.windows(2) {
            assert!(w[1] >= w[0] * 0.80, "cycles dipped: {:?}", w);
        }
        assert!(*out.cycles.last().unwrap() > out.cycles[0] * 10.0);
    }

    /// A rejected shape fails `validate` with `why`, lists no sizes (in
    /// finite time) and sweeps nothing, counting the fallback.
    fn assert_rejected(config: McalibratorConfig, why: &str) {
        assert_eq!(config.validate(), Err(why.to_string()));
        assert!(config.sizes().is_empty());
        for config in [config, full(config)] {
            let scope = servet_obs::RunScope::begin();
            let mut p = Curve::new(|_| unreachable!("nothing to measure"));
            let out = mcalibrator(&mut p, 0, &config);
            assert!(out.is_empty() && out.cycles.is_empty());
            let counters = scope.finish().counters;
            assert_eq!(counters["mcalibrator.invalid_config"], 1);
            assert_eq!(counters["mcalibrator.samples"], 0);
        }
    }

    #[test]
    fn zero_min_size_is_rejected() {
        let config = McalibratorConfig {
            min_size: 0,
            ..Default::default()
        };
        assert_rejected(config, "min_size is zero");
    }

    #[test]
    fn min_size_above_max_size_is_rejected() {
        let config = McalibratorConfig {
            max_size: 0,
            ..Default::default()
        };
        assert_rejected(config, "min_size 4096 above max_size 0");
    }

    #[test]
    fn zero_stride_is_rejected() {
        let config = McalibratorConfig {
            stride: 0,
            ..Default::default()
        };
        assert_rejected(config, "stride is zero");
    }

    /// The shape `sizes()` used to loop on for ever.
    #[test]
    fn zero_linear_step_is_rejected() {
        let config = McalibratorConfig {
            linear_step: 0,
            ..Default::default()
        };
        assert_rejected(config, "linear_step is zero");
    }

    #[test]
    fn sizes_stop_at_the_top_of_the_address_space() {
        let config = McalibratorConfig {
            max_size: usize::MAX,
            double_until: usize::MAX,
            ..Default::default()
        };
        assert_eq!(config.validate(), Ok(()));
        assert_eq!(config.sizes().last(), Some(&(1 << (usize::BITS - 1))));
    }

    #[test]
    fn a_config_from_before_the_field_reads_as_full() {
        let json = r#"{"min_size":4096,"max_size":67108864,"stride":1024,
                       "double_until":2097152,"linear_step":1048576}"#;
        let old: McalibratorConfig = serde_json::from_str(json).unwrap();
        assert_eq!(old, McalibratorConfig::paper());
        let now = serde_json::to_string(&McalibratorConfig::default()).unwrap();
        assert!(now.contains(r#""sweep":"Bracketed""#), "{now}");
    }

    /// `Sweep::Full` is the paper's Fig. 1 loop: one traversal per listed
    /// size, ascending, and no other platform call (`Curve` panics on
    /// any) — independent of any random stream.
    #[test]
    fn full_sweep_measures_every_listed_size_once_in_order() {
        for config in [
            McalibratorConfig::default(),
            McalibratorConfig::small(256 * KB),
        ] {
            let mut p = Curve::new(|size| size as f64);
            let out = mcalibrator(&mut p, 0, &full(config));
            assert_eq!(p.asked, config.sizes());
            assert_eq!(out.sizes, config.sizes());
            assert_eq!(
                out.cycles,
                p.asked.iter().map(|&s| s as f64).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn skeleton_doubles_across_the_whole_range() {
        // A flat curve has no bracket: the skeleton is all that is read.
        let mut p = Curve::new(|_| 3.0);
        let out = mcalibrator(&mut p, 0, &McalibratorConfig::default());
        let mut want: Vec<usize> = (0..15).map(|i| (4 * KB) << i).collect();
        assert_eq!(want.len(), 15);
        assert_eq!(out.sizes, want);
        // A top that is not a doubling of the last point is still read.
        let mut p = Curve::new(|_| 3.0);
        let config = McalibratorConfig {
            max_size: 40 * MB,
            ..Default::default()
        };
        want.pop();
        want.push(40 * MB);
        assert_eq!(mcalibrator(&mut p, 0, &config).sizes, want);
    }

    /// One cache level of a closed-form hierarchy.
    #[derive(Clone, Copy)]
    enum Level {
        /// Every access beyond `size` misses (virtually indexed, or page
        /// colouring): a one-step transition.
        Sharp(usize),
        /// Physically indexed under random placement: the binomial
        /// transition of `(size, associativity)`.
        Smeared(usize, usize),
    }

    /// Cycles per access of a hierarchy with hit times `latency` (one more
    /// entry than `levels`: memory): a pure function of the array size.
    fn hierarchy(levels: &[Level], latency: &[f64], size: usize) -> f64 {
        let mut cycles = latency[0];
        for (level, step) in levels.iter().zip(latency.windows(2)) {
            let miss = match *level {
                Level::Sharp(cs) => f64::from(u8::from(size > cs)),
                Level::Smeared(cs, k) => predicted_miss_rate(
                    (size / (4 * KB)) as u64,
                    (k * 4 * KB) as f64 / cs as f64,
                    k,
                    MissRateModel::SizeBiased,
                ),
            };
            cycles += (step[1] - step[0]) * miss;
        }
        cycles
    }

    /// Sweep and detect under a scope: the output, the levels, and the
    /// `window lo..hi` each Fig. 3 fit was handed.
    fn sweep_and_detect(
        curve: impl FnMut(usize) -> f64,
        config: &McalibratorConfig,
    ) -> (McalibratorOutput, Vec<usize>, Vec<String>) {
        let scope = servet_obs::RunScope::begin();
        let out = mcalibrator(&mut Curve::new(curve), 0, config);
        let levels = detect_cache_levels(&out, 4 * KB, &DetectConfig::default());
        let windows = scope
            .finish()
            .spans
            .into_iter()
            .filter(|s| s.name == "cache_detect.probabilistic_fit")
            .map(|s| s.annotation.expect("every fit names its window"))
            .collect();
        (out, levels.iter().map(|l| l.size).collect(), windows)
    }

    /// ROADMAP 2a where it can hold: when a measurement depends on the
    /// size alone, the bracketed sweep hands the detector the very
    /// samples the full sweep does, and less of the plateaus.
    #[test]
    fn bracketed_fits_the_same_samples_as_full_on_closed_form_curves() {
        use Level::{Sharp, Smeared};
        let cases: [(&[Level], &[f64]); 4] = [
            (&[Sharp(16 * KB), Smeared(2 * MB, 8)], &[3.0, 14.0, 300.0]),
            (&[Sharp(16 * KB), Sharp(2 * MB)], &[3.0, 14.0, 300.0]),
            (
                &[Sharp(32 * KB), Smeared(3 * MB, 12), Smeared(12 * MB, 24)],
                &[3.0, 12.0, 40.0, 280.0],
            ),
            (
                &[Sharp(16 * KB), Sharp(256 * KB), Smeared(9 * MB, 18)],
                &[2.0, 6.0, 14.0, 250.0],
            ),
        ];
        let config = McalibratorConfig::default();
        for (levels, latency) in cases {
            let truth: Vec<usize> = levels
                .iter()
                .map(|l| match *l {
                    Sharp(cs) | Smeared(cs, _) => cs,
                })
                .collect();
            let curve = |size| hierarchy(levels, latency, size);
            let (all, all_levels, all_windows) = sweep_and_detect(curve, &full(config));
            let (some, some_levels, some_windows) = sweep_and_detect(curve, &config);
            assert_eq!(all_levels, truth);
            assert_eq!(some_levels, truth);
            assert!(
                some.len() * 3 < all.len() * 2,
                "{} of {}",
                some.len(),
                all.len()
            );
            // Same reading wherever both measured ...
            for (size, cycles) in some.sizes.iter().zip(&some.cycles) {
                let i = all.sizes.binary_search(size).expect("a listed size");
                assert_eq!(cycles.to_bits(), all.cycles[i].to_bits());
            }
            // ... same windows, and every listed size inside one measured.
            assert_eq!(some_windows, all_windows, "{truth:?}");
            for window in &all_windows {
                let (lo, hi) = window["window ".len()..].split_once("..").unwrap();
                let (lo, hi): (usize, usize) = (lo.parse().unwrap(), hi.parse().unwrap());
                for size in all.sizes.iter().filter(|&&s| lo <= s && s <= hi) {
                    assert!(some.sizes.contains(size), "{size} of {window} skipped");
                }
            }
        }
    }

    /// What must hold of a bracketed sweep whatever the platform answers.
    fn assert_well_formed(config: &McalibratorConfig, curve: impl FnMut(usize) -> f64) -> usize {
        let listed = config.sizes();
        let scope = servet_obs::RunScope::begin();
        let mut p = Curve::new(curve);
        let out = mcalibrator(&mut p, 0, config);
        let counters = scope.finish().counters;
        assert!(out.sizes.windows(2).all(|w| w[0] < w[1]), "{:?}", out.sizes);
        assert!(out.sizes.iter().all(|s| listed.binary_search(s).is_ok()));
        assert_eq!(out.sizes.first(), listed.first());
        assert_eq!(out.sizes.last(), listed.last());
        assert_eq!(out.cycles.len(), out.sizes.len());
        // Never twice, never more than the full sweep.
        let mut asked = p.asked.clone();
        asked.sort_unstable();
        assert_eq!(asked, out.sizes, "asked {:?}", p.asked);
        assert_eq!(counters["mcalibrator.samples"], out.len() as u64);
        assert_eq!(
            counters["mcalibrator.samples"] + counters["mcalibrator.sizes_skipped"],
            listed.len() as u64
        );
        out.len()
    }

    #[test]
    fn bracketed_sweep_is_well_formed_on_random_configs_and_curves() {
        let mut rng = ChaCha8Rng::seed_from_u64(2010);
        for case in 0..200 {
            let min_size = KB << rng.gen_range(0..3usize);
            let double_until = min_size << rng.gen_range(0..8usize);
            let linear_step = (double_until >> rng.gen_range(0..3usize)).max(KB);
            let config = McalibratorConfig {
                min_size,
                max_size: double_until.max(min_size) + linear_step * rng.gen_range(0..80usize),
                stride: KB,
                double_until,
                linear_step,
                sweep: Sweep::Bracketed,
            };
            config.validate().unwrap();
            // Up to three transitions of random place and width on a
            // rising floor, under up to 1 % of multiplicative noise.
            let noise = rng.gen_range(0.0..0.01);
            let steps: Vec<(f64, f64, f64)> = (0..rng.gen_range(0..4usize))
                .map(|_| {
                    let at = rng.gen_range(min_size as f64..config.max_size as f64 + 1.0);
                    (at, at * rng.gen_range(0.01..0.5), rng.gen_range(2.0..10.0))
                })
                .collect();
            let mut jitter = ChaCha8Rng::seed_from_u64(case);
            let measured = assert_well_formed(&config, |size| {
                let clean = steps.iter().fold(2.0, |c, &(at, width, rise)| {
                    c * (1.0 + rise / (1.0 + ((at - size as f64) / width).exp()))
                });
                clean * (1.0 + noise * (jitter.f64() * 2.0 - 1.0))
            });
            assert!(measured <= config.sizes().len());
        }
    }

    #[test]
    fn bracketed_sweep_terminates_on_degenerate_answers() {
        let config = McalibratorConfig::default();
        let skeleton = 15;
        // Nothing to divide by: every interval reads as flat.
        assert_eq!(assert_well_formed(&config, |_| f64::NAN), skeleton);
        assert_eq!(assert_well_formed(&config, |_| 0.0), skeleton);
        // Never flat: every size is measured, and none twice.
        let every = config.sizes().len();
        assert_eq!(assert_well_formed(&config, |size| size as f64), every);
        // One unanswered call (a replay out of step) is not flat either.
        let measured = assert_well_formed(&config, |size| match size {
            s if s == 4 * MB => f64::NAN,
            s => hierarchy(&[Level::Sharp(16 * KB)], &[3.0, 200.0], s),
        });
        assert!(skeleton < measured && measured <= every);
    }
}
