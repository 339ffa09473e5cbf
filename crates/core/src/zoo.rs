//! The machine zoo: batched suite runs over a randomized machine
//! population.
//!
//! The paper validates Servet on four hand-picked machines (§IV). The zoo
//! scales that validation: it generates a seeded population of perturbed
//! [`MachineSpec`]s from the small presets (cache sizes, associativities,
//! sharing topologies, bus capacities and noise all vary — see
//! [`servet_sim::perturb()`]), fans the full suite out across worker
//! threads, optionally streams every profile into a registry through a
//! [`ProfileSink`], and aggregates a [`ZooReport`]: per-field detection
//! accuracy against each spec's ground truth plus per-stage virtual-time
//! distributions.
//!
//! Everything is deterministic in `(seed, machines)`: per-machine RNG
//! streams are derived from the zoo seed, each run goes through the
//! scope-pure [`run_suite`], results land in
//! index-ordered slots, and the report holds only virtual (ledger) times —
//! so the same seed yields a byte-identical report **regardless of the
//! worker count**.
//!
//! The driver lives in `servet-core` and therefore cannot name the
//! registry client (`servet-registry` depends on this crate); the
//! [`ProfileSink`] trait inverts that edge, and the `servet` CLI plugs a
//! retrying registry client in.

use crate::manifest::RunManifest;
use crate::sim_platform::SimPlatform;
use crate::suite::{run_suite, SuiteConfig, SuiteReport, SuiteTimings};
use serde::{Deserialize, Serialize};
use servet_sim::spec::MachineSpec;
use servet_sim::{perturb, Machine, KB, MB};
use servet_stats::rng::{splitmix64, ChaCha8Rng};
use std::collections::BTreeMap;
use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// Parameters of one zoo run.
#[derive(Debug, Clone)]
pub struct ZooConfig {
    /// Population size.
    pub machines: usize,
    /// Worker threads running suites concurrently (min 1).
    pub workers: usize,
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Suite configuration every machine runs with.
    pub suite: SuiteConfig,
    /// Extra MB-range machines (perturbations of
    /// [`servet_sim::presets::mb_smp`]) appended *after* the `machines`
    /// standard members, so enabling them never shifts the standard
    /// population's derived seeds. Zero by default.
    pub mb_machines: usize,
    /// Suite the MB-range members run with — a wider, coarser
    /// mcalibrator sweep sized for multi-megabyte caches (see
    /// `ZooConfig::mb_suite`).
    pub mb_suite: SuiteConfig,
}

impl ZooConfig {
    /// A zoo of `machines` machines with the default suite (shared-cache
    /// detection on, memory/comm stages off for speed — zoo machines are
    /// single nodes, so comm would be skipped anyway).
    ///
    /// The mcalibrator sweep keeps the paper's proportions at zoo scale:
    /// the paper samples 3–12 MB caches every 1 MB (8–33 % of the cache
    /// size), so the zoo's 16–256 KB perturbed caches are sampled every
    /// 8 KB. The stock `small()` step of 32 KB leaves a 64 KB L2's
    /// transition window with barely two interior points — too few for
    /// the Fig. 3 fit to separate the true size from its multiplier
    /// neighbors under noise.
    pub fn new(machines: usize, workers: usize, seed: u64) -> Self {
        Self {
            machines,
            workers,
            seed,
            suite: SuiteConfig {
                skip_memory: true,
                mcalibrator: crate::mcalibrator::McalibratorConfig {
                    min_size: KB,
                    max_size: 1024 * KB,
                    stride: KB,
                    double_until: 16 * KB,
                    linear_step: 8 * KB,
                    sweep: crate::mcalibrator::Sweep::Bracketed,
                },
                detect: crate::cache_detect::DetectConfig {
                    gradient_threshold: 1.10,
                    merge_gap: 5,
                    ..crate::cache_detect::DetectConfig::small()
                },
                // The coherence extension runs after the paper's stages,
                // so enabling it cannot move their noise draws.
                run_false_sharing: true,
                ..SuiteConfig::small(1024 * KB)
            },
            mb_machines: 0,
            mb_suite: Self::mb_suite(),
        }
    }

    /// Suite configuration for the MB-range members: the same stages as
    /// the standard zoo suite, but with the mcalibrator sweep rescaled
    /// for caches in the 16 KB – 4 MB band the perturbed
    /// [`servet_sim::presets::mb_smp`] spans. Doubling ends at 64 KB
    /// (so every perturbed L1 — 16/32/64 KB — sits in the dense region)
    /// and the linear tail steps 64 KB up to 8 MB (every perturbed L2 —
    /// 1/2/4 MB — lands on the grid with plenty of interior points).
    /// Affordable only on the packed fast-path engine: the sweep
    /// replays ~10⁸ simulated accesses per machine.
    pub(crate) fn mb_suite() -> SuiteConfig {
        SuiteConfig {
            skip_memory: true,
            mcalibrator: crate::mcalibrator::McalibratorConfig {
                min_size: 4 * KB,
                max_size: 8 * MB,
                stride: KB,
                double_until: 64 * KB,
                linear_step: 64 * KB,
                sweep: crate::mcalibrator::Sweep::Bracketed,
            },
            detect: crate::cache_detect::DetectConfig {
                gradient_threshold: 1.10,
                merge_gap: 5,
                ..crate::cache_detect::DetectConfig::small()
            },
            run_false_sharing: true,
            ..SuiteConfig::small(8 * MB)
        }
    }

    /// Total population size: standard members plus MB-range members.
    pub fn population_size(&self) -> usize {
        self.machines + self.mb_machines
    }

    /// The suite configuration population member `index` runs with.
    pub(crate) fn suite_for(&self, index: usize) -> &SuiteConfig {
        if index < self.machines {
            &self.suite
        } else {
            &self.mb_suite
        }
    }
}

/// One member of the population: the ground-truth spec plus the derived
/// per-machine seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct ZooMachine {
    /// Position in the population (stable across worker counts).
    pub index: usize,
    /// Name of the preset the spec was perturbed from.
    pub base: String,
    /// Ground-truth machine description.
    pub spec: MachineSpec,
    /// Seed for the simulator's page allocator and measurement noise.
    pub sim_seed: u64,
    /// Relative measurement noise of this machine.
    pub noise: f64,
}

/// Range each machine's relative measurement noise is drawn from.
const NOISE: Range<f64> = 0.001..0.006;

/// Mix a machine index into the master seed so each machine gets an
/// independent, reproducible stream: the `index`-th output of the
/// splitmix64 stream that starts at `master`.
fn derive_seed(master: u64, index: usize) -> u64 {
    let mut state = master.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64));
    splitmix64(&mut state)
}

/// Generate the deterministic population for `config`: machine `i` is a
/// perturbation of preset `i % 3` under a seed derived from the zoo seed.
/// When [`ZooConfig::mb_machines`] is non-zero, that many perturbations
/// of the MB-range [`servet_sim::presets::mb_smp`] preset follow at
/// indices `machines..machines + mb_machines`; because their seeds
/// derive from those later indices, the standard prefix is byte-identical
/// with MB members on or off.
pub fn generate_population(config: &ZooConfig) -> Vec<ZooMachine> {
    let bases = [
        servet_sim::presets::tiny_smp(),
        servet_sim::presets::tiny_shared_l2(),
        servet_sim::presets::tiny_numa(),
    ];
    let mb_base = servet_sim::presets::mb_smp();
    (0..config.population_size())
        .map(|index| {
            let machine_seed = derive_seed(config.seed, index);
            let base = if index < config.machines {
                &bases[index % bases.len()]
            } else {
                &mb_base
            };
            let spec = perturb(base, machine_seed);
            let noise = ChaCha8Rng::seed_from_u64(machine_seed ^ 0x004E_015E).gen_range(NOISE);
            ZooMachine {
                index,
                base: base.name.clone(),
                spec,
                sim_seed: machine_seed ^ 0x5EED,
                noise,
            }
        })
        .collect()
}

/// Where a zoo run streams each finished profile. Implementations are
/// per-worker (created by the sink factory passed to [`run_zoo`]), so
/// they need no internal synchronization.
pub trait ProfileSink: Send {
    /// Publish one machine's results. An error aborts the zoo run.
    fn publish(
        &mut self,
        machine: &ZooMachine,
        report: &SuiteReport,
        manifest: &RunManifest,
    ) -> io::Result<()>;
}

/// Ground-truth comparison of one machine's run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineEval {
    /// True number of cache levels.
    pub true_levels: usize,
    /// Detected number of cache levels.
    pub detected_levels: usize,
    /// Per true level: `(level, true size, detected size)`; the detected
    /// entry is `None` when the level was missed entirely.
    pub level_sizes: Vec<(u8, usize, Option<usize>)>,
    /// Per evaluated level `> 1`: `(level, sharing pairs correct)`.
    /// Empty when the shared-cache stage was skipped or level counts
    /// disagree (pairs would compare against the wrong level).
    pub sharing_levels: Vec<(u8, bool)>,
    /// The comm stage fell back to the configured probe size because no
    /// cache level was detected.
    pub probe_size_fallback: bool,
    /// `(true innermost line size, advised padding)` when the
    /// false-sharing stage ran; the advice is correct when it is at
    /// least the line size. Absent (and in pre-coherence reports) when
    /// the stage was off or unsupported.
    #[serde(default)]
    pub padding: Option<(usize, Option<usize>)>,
}

impl MachineEval {
    /// The advised padding cures false sharing on this machine: at least
    /// the true line size. `None` when the stage did not run.
    pub fn padding_correct(&self) -> Option<bool> {
        self.padding
            .map(|(line, advised)| advised.is_some_and(|p| p >= line))
    }
}

/// Compare what the suite measured against what the spec declares.
pub fn evaluate(spec: &MachineSpec, report: &SuiteReport) -> MachineEval {
    let profile = &report.profile;
    let level_sizes: Vec<(u8, usize, Option<usize>)> = spec
        .caches
        .iter()
        .map(|c| (c.level, c.size, profile.cache_size(c.level)))
        .collect();
    let mut sharing_levels = Vec::new();
    if let Some(shared) = &profile.shared_caches {
        if profile.cache_levels.len() == spec.num_levels() {
            for c in spec.caches.iter().filter(|c| c.level > 1) {
                let truth = spec.sharing_pairs(c.level);
                let detected = shared
                    .levels
                    .iter()
                    .find(|l| l.level == c.level)
                    .map(|l| l.sharing_pairs.clone())
                    .unwrap_or_default();
                sharing_levels.push((c.level, detected == truth));
            }
        }
    }
    let padding = profile.false_sharing.as_ref().and_then(|fs| {
        spec.caches
            .first()
            .map(|l1| (l1.line_size, fs.advised_padding))
    });
    MachineEval {
        true_levels: spec.num_levels(),
        detected_levels: profile.cache_levels.len(),
        level_sizes,
        sharing_levels,
        probe_size_fallback: profile
            .communication
            .as_ref()
            .is_some_and(|c| c.probe_size_fallback),
        padding,
    }
}

/// One machine's row in the [`ZooReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineRow {
    /// Population index.
    pub index: usize,
    /// Perturbed machine name.
    pub name: String,
    /// Preset the machine derives from.
    pub base: String,
    /// Ground-truth comparison.
    pub eval: MachineEval,
    /// Virtual per-stage times of the run.
    pub timings: SuiteTimings,
    /// Spans the run's own manifest holds (scope-pure: only this run's).
    pub manifest_spans: usize,
}

/// Population-level detection-accuracy counts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ZooAccuracy {
    /// Machines in the population.
    pub machines: usize,
    /// Machines whose detected level count matches the truth.
    pub level_count_correct: usize,
    /// True cache levels across the population.
    pub cache_sizes_total: usize,
    /// True cache levels whose size was detected exactly.
    pub cache_sizes_correct: usize,
    /// Sharing-topology comparisons performed.
    pub sharing_total: usize,
    /// Sharing-topology comparisons that matched the ground truth.
    pub sharing_correct: usize,
    /// Runs whose comm stage fell back to the configured probe size —
    /// counted apart so a fallback never masquerades as a detection.
    pub probe_fallbacks: usize,
    /// Machines whose false-sharing stage ran.
    #[serde(default)]
    pub padding_total: usize,
    /// Machines whose advised padding was at least the true line size.
    #[serde(default)]
    pub padding_correct: usize,
}

impl ZooAccuracy {
    /// Fraction of true cache levels whose size was recovered exactly.
    pub fn cache_size_accuracy(&self) -> f64 {
        if self.cache_sizes_total == 0 {
            return 1.0;
        }
        self.cache_sizes_correct as f64 / self.cache_sizes_total as f64
    }

    /// Fraction of sharing comparisons that matched.
    pub fn sharing_accuracy(&self) -> f64 {
        if self.sharing_total == 0 {
            return 1.0;
        }
        self.sharing_correct as f64 / self.sharing_total as f64
    }

    /// Fraction of false-sharing stages whose advised padding cures the
    /// ping-pong (at least the true line size).
    pub fn padding_accuracy(&self) -> f64 {
        if self.padding_total == 0 {
            return 1.0;
        }
        self.padding_correct as f64 / self.padding_total as f64
    }
}

/// Distribution of one suite stage's virtual time over the population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTimeStats {
    /// Minimum seconds.
    pub min_s: f64,
    /// Maximum seconds.
    pub max_s: f64,
    /// Arithmetic mean seconds.
    pub mean_s: f64,
    /// Sum over the population.
    pub total_s: f64,
}

impl StageTimeStats {
    fn from_samples(samples: impl Iterator<Item = f64>) -> Option<Self> {
        let mut n = 0usize;
        let (mut min, mut max, mut total) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for s in samples {
            n += 1;
            min = min.min(s);
            max = max.max(s);
            total += s;
        }
        (n > 0).then(|| Self {
            min_s: min,
            max_s: max,
            mean_s: total / n as f64,
            total_s: total,
        })
    }
}

/// The zoo run's aggregate output, written as `zoo_report.json`.
/// Deterministic in `(seed, machines)` — it holds no wall-clock data and
/// every collection is ordered by population index or name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZooReport {
    /// Master seed of the run.
    pub seed: u64,
    /// Population size, MB-range members included.
    pub machines: usize,
    /// Aggregate detection accuracy.
    pub accuracy: ZooAccuracy,
    /// Stage name → virtual-time distribution over the population.
    pub stage_times: BTreeMap<String, StageTimeStats>,
    /// Per-machine rows, in population order.
    pub per_machine: Vec<MachineRow>,
}

impl ZooReport {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("zoo report serializes")
    }
}

/// Run one machine of the zoo: a scope-pure suite run on a fresh
/// simulator seeded from the machine's derived seeds.
pub(crate) fn run_machine(machine: &ZooMachine, suite: &SuiteConfig) -> (SuiteReport, RunManifest) {
    let sim = Machine::with_seed(machine.spec.clone(), machine.sim_seed);
    let mut platform = SimPlatform::new(sim, None)
        .with_noise(machine.noise)
        .with_seed(machine.sim_seed);
    run_suite(&mut platform, suite)
}

/// Run the whole zoo: generate the population, fan suite runs out across
/// `config.workers` workers ([`servet_stats::par::map`]), stream each
/// result through the sink the factory creates for its worker
/// (`make_sink(worker)` returning `Ok(None)` disables streaming for that
/// worker), and aggregate the report.
///
/// The report is identical for any worker count: every row lands in its
/// population slot, and all aggregation happens afterwards in index order.
/// The first sink error fails the run, and no machine starts after it.
pub fn run_zoo<F>(config: &ZooConfig, make_sink: F) -> io::Result<ZooReport>
where
    F: Fn(usize) -> io::Result<Option<Box<dyn ProfileSink>>>,
{
    let _zoo_span = servet_obs::span("zoo");
    let population = generate_population(config);
    let workers = config.workers.max(1).min(population.len().max(1));
    let mut sinks = (0..workers)
        .map(make_sink)
        .collect::<io::Result<Vec<_>>>()?;
    // Machines are claimed in index order, so one skipped once a sink has
    // failed comes after the failure: the first error in index order is a
    // real one.
    let failed = AtomicBool::new(false);
    let rows = servet_stats::par::map(&population, &mut sinks, |sink, machine| {
        if failed.load(Ordering::Relaxed) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let (report, manifest) = run_machine(machine, config.suite_for(machine.index));
        if let Some(sink) = sink.as_mut() {
            sink.publish(machine, &report, &manifest)
                .inspect_err(|_| failed.store(true, Ordering::Relaxed))?;
        }
        servet_obs::counter("zoo.machines_run").incr();
        Ok(MachineRow {
            index: machine.index,
            name: machine.spec.name.clone(),
            base: machine.base.clone(),
            eval: evaluate(&machine.spec, &report),
            timings: report.timings,
            manifest_spans: manifest.spans.len(),
        })
    });
    let per_machine = rows.into_iter().collect::<io::Result<Vec<_>>>()?;
    Ok(aggregate(config, per_machine))
}

/// Fold per-machine rows into the population report. Separated from
/// [`run_zoo`] so tests can aggregate synthetic rows.
fn aggregate(config: &ZooConfig, per_machine: Vec<MachineRow>) -> ZooReport {
    let mut accuracy = ZooAccuracy {
        machines: per_machine.len(),
        ..ZooAccuracy::default()
    };
    for row in &per_machine {
        let eval = &row.eval;
        if eval.true_levels == eval.detected_levels {
            accuracy.level_count_correct += 1;
        }
        accuracy.cache_sizes_total += eval.level_sizes.len();
        accuracy.cache_sizes_correct += eval
            .level_sizes
            .iter()
            .filter(|(_, t, d)| Some(*t) == *d)
            .count();
        accuracy.sharing_total += eval.sharing_levels.len();
        accuracy.sharing_correct += eval.sharing_levels.iter().filter(|(_, ok)| *ok).count();
        if eval.probe_size_fallback {
            accuracy.probe_fallbacks += 1;
        }
        if let Some(correct) = eval.padding_correct() {
            accuracy.padding_total += 1;
            if correct {
                accuracy.padding_correct += 1;
            }
        }
    }

    type StageTime = fn(&SuiteTimings) -> f64;
    let mut stage_times = BTreeMap::new();
    let stages: [(&str, StageTime); 6] = [
        ("cache_size", |t| t.cache_size_s),
        ("micro_probes", |t| t.micro_probes_s),
        ("shared_caches", |t| t.shared_caches_s),
        ("memory_overhead", |t| t.memory_overhead_s),
        ("communication", |t| t.communication_s),
        ("false_sharing", |t| t.false_sharing_s),
    ];
    for (name, pick) in stages {
        if let Some(stats) =
            StageTimeStats::from_samples(per_machine.iter().map(|r| pick(&r.timings)))
        {
            if stats.total_s > 0.0 {
                stage_times.insert(name.to_string(), stats);
            }
        }
    }

    ZooReport {
        seed: config.seed,
        machines: per_machine.len(),
        accuracy,
        stage_times,
        per_machine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn tiny_zoo(machines: usize, workers: usize, seed: u64) -> ZooConfig {
        let mut cfg = ZooConfig::new(machines, workers, seed);
        // Keep unit tests fast: size detection only.
        cfg.suite.skip_shared = true;
        cfg
    }

    #[test]
    fn population_is_deterministic_and_valid() {
        let a = generate_population(&ZooConfig::new(12, 1, 7));
        let b = generate_population(&ZooConfig::new(12, 4, 7));
        assert_eq!(a, b, "population must not depend on worker count");
        for m in &a {
            m.spec
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", m.spec.name));
            assert!(NOISE.contains(&m.noise));
        }
        let distinct: std::collections::BTreeSet<&str> =
            a.iter().map(|m| m.spec.name.as_str()).collect();
        assert_eq!(distinct.len(), 12, "names must be unique");
    }

    #[test]
    fn different_seeds_give_different_populations() {
        let a = generate_population(&ZooConfig::new(6, 1, 1));
        let b = generate_population(&ZooConfig::new(6, 1, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn mb_members_append_without_shifting_the_standard_prefix() {
        let plain = ZooConfig::new(6, 1, 9);
        let mut with_mb = ZooConfig::new(6, 1, 9);
        with_mb.mb_machines = 2;
        let a = generate_population(&plain);
        let b = generate_population(&with_mb);
        assert_eq!(b.len(), 8);
        assert_eq!(a, b[..6], "standard members must not move");
        for m in &b[6..] {
            assert_eq!(m.base, "mb_smp");
            m.spec
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", m.spec.name));
            assert!(
                m.spec.caches.iter().any(|c| c.size >= 1024 * 1024),
                "{} should keep an MB-range cache after perturbation",
                m.spec.name
            );
            assert_eq!(with_mb.suite_for(m.index).mcalibrator.max_size, 8 << 20);
        }
        assert_eq!(with_mb.suite_for(0).mcalibrator.max_size, 1024 * 1024);
    }

    #[test]
    fn zoo_report_is_worker_count_invariant() {
        let report1 = run_zoo(&tiny_zoo(6, 1, 11), |_| Ok(None)).unwrap();
        let report4 = run_zoo(&tiny_zoo(6, 4, 11), |_| Ok(None)).unwrap();
        assert_eq!(report1, report4);
        assert_eq!(report1.to_json(), report4.to_json());
        assert_eq!(report1.per_machine.len(), 6);
        // Index order regardless of completion order.
        for (i, row) in report1.per_machine.iter().enumerate() {
            assert_eq!(row.index, i);
        }
    }

    #[test]
    fn sink_receives_every_machine_and_errors_abort() {
        struct Counting(std::sync::Arc<AtomicUsize>);
        impl ProfileSink for Counting {
            fn publish(
                &mut self,
                _machine: &ZooMachine,
                report: &SuiteReport,
                manifest: &RunManifest,
            ) -> io::Result<()> {
                assert_eq!(report.profile.machine, manifest.machine);
                self.0.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }
        let published = std::sync::Arc::new(AtomicUsize::new(0));
        let report = run_zoo(&tiny_zoo(5, 2, 3), |_| {
            Ok(Some(
                Box::new(Counting(published.clone())) as Box<dyn ProfileSink>
            ))
        })
        .unwrap();
        assert_eq!(published.load(Ordering::Relaxed), 5);
        assert_eq!(report.per_machine.len(), 5);

        struct Failing;
        impl ProfileSink for Failing {
            fn publish(
                &mut self,
                _machine: &ZooMachine,
                _report: &SuiteReport,
                _manifest: &RunManifest,
            ) -> io::Result<()> {
                Err(io::Error::other("sink down"))
            }
        }
        let err = run_zoo(&tiny_zoo(3, 2, 3), |_| {
            Ok(Some(Box::new(Failing) as Box<dyn ProfileSink>))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "sink down");
    }

    #[test]
    fn false_sharing_advice_is_scored_against_the_true_line_size() {
        let report = run_zoo(&tiny_zoo(6, 2, 21), |_| Ok(None)).unwrap();
        assert_eq!(report.accuracy.padding_total, 6);
        assert_eq!(
            report.accuracy.padding_correct,
            6,
            "{:#?}",
            report
                .per_machine
                .iter()
                .map(|r| (&r.name, r.eval.padding))
                .collect::<Vec<_>>()
        );
        assert_eq!(report.accuracy.padding_accuracy(), 1.0);
        assert!(report.stage_times.contains_key("false_sharing"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = run_zoo(&tiny_zoo(3, 2, 5), |_| Ok(None)).unwrap();
        let back: ZooReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn manifests_hold_only_their_own_runs() {
        // Even with concurrent workers, each run's manifest has exactly
        // one suite root span — the per-run scope keeps runs apart.
        struct SpanCheck;
        impl ProfileSink for SpanCheck {
            fn publish(
                &mut self,
                machine: &ZooMachine,
                _report: &SuiteReport,
                manifest: &RunManifest,
            ) -> io::Result<()> {
                let roots = manifest.spans.iter().filter(|s| s.name == "suite").count();
                assert_eq!(roots, 1, "{}: {roots} suite roots", machine.spec.name);
                Ok(())
            }
        }
        run_zoo(&tiny_zoo(8, 4, 13), |_| {
            Ok(Some(Box::new(SpanCheck) as Box<dyn ProfileSink>))
        })
        .unwrap();
    }
}
