//! Zoo-scale validation: does *search* find configurations as good as
//! the *analytic* advice, machine after machine?
//!
//! `servet-autotune` derives its advice (tile size, thread count,
//! placement, padding) analytically from a profile. This module runs the
//! other road on the whole machine zoo: for each member of the seeded
//! population, build the ground-truth profile straight from the spec,
//! snap the analytic advice onto the kernel space, then let each search
//! strategy loose on the [`SimOracle`] and
//! score both on the same simulator. A strategy "matches" a machine when
//! its best makespan is within `epsilon` of the analytic config's (and
//! "improves" when it is more than `epsilon` better). The report's
//! per-strategy parity fraction is the CI gate: informed search should
//! match or beat the closed-form advice on at least 90 % of machines —
//! if it doesn't, either a strategy regressed or the advice and the
//! simulator have drifted apart.

use crate::oracle::{analytic_config, kernel_space, Oracle, SimOracle};
use crate::search::{tune, Strategy, TuneOptions, TuneOutcome};
use crate::space::Config;
use serde::{Deserialize, Serialize};
use servet_core::cache_detect::{CacheLevelEstimate, DetectionMethod};
use servet_core::profile::{MachineProfile, SCHEMA_VERSION};
use servet_core::zoo::{generate_population, ZooConfig};
use servet_core::{MicroProfile, SharedCacheResult, SharedLevel};
use servet_sim::spec::MachineSpec;
use servet_stats::par;
use servet_stats::summary::{geometric_mean, mean};

/// Parameters of one comparison run.
#[derive(Debug, Clone)]
pub struct CompareConfig {
    /// Population size (the zoo's `machines`).
    pub machines: usize,
    /// Worker threads; machines are compared in parallel, results come
    /// back in index order, so the report is worker-count invariant.
    pub workers: usize,
    /// Master seed shared with the zoo population generator.
    pub seed: u64,
    /// Matrix edge of the kernel being tuned.
    pub n: usize,
    /// Strategies to race against the analytic config.
    pub strategies: Vec<Strategy>,
    /// Relative tolerance: a strategy matches a machine when
    /// `best / analytic <= 1 + epsilon`.
    pub epsilon: f64,
}

impl CompareConfig {
    /// A comparison over `machines` zoo members with the default kernel
    /// size (n = 24), tolerance (1 %), and the two cheap strategies the
    /// CI smoke runs (line search and monte-carlo).
    pub fn new(machines: usize, workers: usize, seed: u64) -> Self {
        Self {
            machines,
            workers: workers.max(1),
            seed,
            n: 24,
            strategies: vec![Strategy::Line, Strategy::MonteCarlo],
            epsilon: 0.01,
        }
    }
}

/// The profile an *omniscient* Servet run would produce for a spec:
/// exact cache sizes, exact sharing groups, exact line size. This is
/// what the analytic advice is derived from in the comparison, so any
/// parity gap measures search-vs-advice, never detection error.
pub fn ground_truth_profile(spec: &MachineSpec) -> MachineProfile {
    let levels = spec
        .caches
        .iter()
        .map(|c| {
            let groups: Vec<Vec<usize>> =
                c.sharing.iter().filter(|g| g.len() > 1).cloned().collect();
            let mut sharing_pairs = Vec::new();
            for g in &groups {
                for (i, &a) in g.iter().enumerate() {
                    for &b in &g[i + 1..] {
                        sharing_pairs.push((a, b));
                    }
                }
            }
            SharedLevel {
                level: c.level,
                cache_size: c.size,
                reference_cycles: 0.0,
                pair_ratios: Vec::new(),
                sharing_pairs,
                groups,
            }
        })
        .collect();
    MachineProfile {
        schema_version: SCHEMA_VERSION,
        machine: spec.name.clone(),
        cores_per_node: spec.num_cores,
        total_cores: spec.num_cores,
        page_size: spec.page_size,
        mcalibrator: None,
        cache_levels: spec
            .caches
            .iter()
            .map(|c| CacheLevelEstimate {
                level: c.level,
                size: c.size,
                method: DetectionMethod::GradientPeak,
            })
            .collect(),
        shared_caches: Some(SharedCacheResult {
            levels,
            miss_decomposition: Vec::new(),
        }),
        memory: None,
        communication: None,
        micro: Some(MicroProfile {
            line_size: spec.caches.first().map(|c| c.line_size),
            l1_associativity: spec.caches.first().map(|c| c.associativity),
            tlb_entries: None,
        }),
        false_sharing: None,
    }
}

/// One strategy's showing on one machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct StrategyResult {
    /// Strategy that ran.
    pub strategy: Strategy,
    /// Its winning configuration.
    pub best: Config,
    /// Winning makespan, cycles.
    pub best_score: f64,
    /// Distinct configurations it evaluated.
    pub evaluations: usize,
    /// `best_score / analytic_score` — below 1 means search won.
    pub ratio: f64,
    /// Whether the ratio is within the run's epsilon of parity.
    pub matched: bool,
}

/// Search vs analytic on one zoo machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineComparison {
    /// Population index.
    pub index: usize,
    /// Preset the machine was perturbed from.
    pub base: String,
    /// Perturbed machine name.
    pub machine: String,
    /// Core count.
    pub cores: usize,
    /// The analytic configuration on the kernel grid.
    pub analytic: Config,
    /// Its simulated makespan, cycles.
    pub analytic_score: f64,
    /// One entry per strategy, in [`CompareConfig::strategies`] order.
    pub(crate) results: Vec<StrategyResult>,
}

/// Aggregate of one strategy across the population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategySummary {
    /// Strategy summarized.
    pub strategy: Strategy,
    /// Machines where the strategy matched or beat the analytic config.
    pub matched: usize,
    /// Machines where it was more than epsilon *better*.
    pub improved: usize,
    /// Population size.
    pub total: usize,
    /// `matched / total` — the CI gate reads this.
    pub parity: f64,
    /// Geometric mean of the per-machine score ratios.
    pub mean_ratio: f64,
    /// Mean evaluations per machine (search cost).
    pub mean_evaluations: f64,
}

/// The full comparison report (`servet tune --zoo --out FILE`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareReport {
    /// Population size.
    pub machines: usize,
    /// Master seed.
    pub seed: u64,
    /// Kernel matrix edge.
    pub n: usize,
    /// Parity tolerance.
    pub epsilon: f64,
    /// Per-machine detail, population order.
    pub per_machine: Vec<MachineComparison>,
    /// Per-strategy aggregates, [`CompareConfig::strategies`] order.
    pub summary: Vec<StrategySummary>,
}

impl CompareReport {
    /// Parity fraction for a strategy, if it was part of the run.
    pub fn parity(&self, strategy: Strategy) -> Option<f64> {
        self.summary
            .iter()
            .find(|s| s.strategy == strategy)
            .map(|s| s.parity)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("compare report serializes")
    }
}

/// Compare one machine: analytic config vs every requested strategy,
/// all scored by the same fresh-machine simulator oracle.
fn compare_machine(
    index: usize,
    base: &str,
    spec: &MachineSpec,
    sim_seed: u64,
    config: &CompareConfig,
) -> MachineComparison {
    let oracle = SimOracle::new(spec.clone(), sim_seed, config.n);
    let space = kernel_space(spec.num_cores, config.n);
    let truth = ground_truth_profile(spec);
    let analytic = analytic_config(&truth, &space);
    let analytic_score = oracle.evaluate(&analytic);
    let results = config
        .strategies
        .iter()
        .map(|&strategy| {
            let opts = TuneOptions::new(strategy).with_seed(sim_seed);
            let TuneOutcome {
                best,
                best_score,
                evaluations,
                ..
            } = tune(&oracle, &space, &opts, 1);
            let ratio = best_score / analytic_score;
            StrategyResult {
                strategy,
                best,
                best_score,
                evaluations,
                ratio,
                matched: ratio <= 1.0 + config.epsilon,
            }
        })
        .collect();
    MachineComparison {
        index,
        base: base.to_string(),
        machine: spec.name.clone(),
        cores: spec.num_cores,
        analytic,
        analytic_score,
        results,
    }
}

/// Run the comparison over the zoo population. Machines are compared by
/// `workers` workers ([`par::map`]); the report is byte-identical for any
/// worker count.
pub fn run_compare(config: &CompareConfig) -> CompareReport {
    let _span = servet_obs::span("tune.compare");
    let population = generate_population(&ZooConfig::new(
        config.machines,
        config.workers,
        config.seed,
    ));
    let per_machine = par::map(&population, &mut vec![(); config.workers.max(1)], |_, m| {
        compare_machine(m.index, &m.base, &m.spec, m.sim_seed, config)
    });
    let total = per_machine.len();
    let summary = config
        .strategies
        .iter()
        .enumerate()
        .map(|(si, &strategy)| {
            let rows: Vec<&StrategyResult> = per_machine.iter().map(|m| &m.results[si]).collect();
            let matched = rows.iter().filter(|r| r.matched).count();
            let improved = rows
                .iter()
                .filter(|r| r.ratio < 1.0 - config.epsilon)
                .count();
            let ratios: Vec<f64> = rows.iter().map(|r| r.ratio).collect();
            let evaluations: Vec<f64> = rows.iter().map(|r| r.evaluations as f64).collect();
            StrategySummary {
                strategy,
                matched,
                improved,
                total,
                parity: if total == 0 {
                    1.0
                } else {
                    matched as f64 / total as f64
                },
                mean_ratio: if ratios.is_empty() {
                    1.0
                } else {
                    geometric_mean(&ratios)
                },
                mean_evaluations: mean(&evaluations),
            }
        })
        .collect();
    CompareReport {
        machines: config.machines,
        seed: config.seed,
        n: config.n,
        epsilon: config.epsilon,
        per_machine,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_profile_mirrors_the_spec() {
        let spec = servet_sim::presets::tiny_shared_l2();
        let p = ground_truth_profile(&spec);
        assert_eq!(p.total_cores, spec.num_cores);
        assert_eq!(p.num_cache_levels(), spec.caches.len());
        // tiny_shared_l2's L2 is shared by {0,1} and {2,3}.
        assert_eq!(p.cores_sharing_cache(2, 0), vec![1]);
        assert_eq!(p.cores_sharing_cache(2, 3), vec![2]);
        assert!(p.cores_sharing_cache(1, 0).is_empty(), "L1s are private");
        assert_eq!(p.line_size(), Some(spec.caches[0].line_size));
    }

    #[test]
    fn compare_runs_are_worker_count_invariant() {
        let mut config = CompareConfig::new(3, 1, 42);
        config.n = 16;
        config.strategies = vec![Strategy::MonteCarlo];
        let one = run_compare(&config);
        config.workers = 3;
        let three = run_compare(&config);
        assert_eq!(one, three);
        assert_eq!(one.per_machine.len(), 3);
        assert_eq!(one.summary.len(), 1);
    }

    #[test]
    fn report_json_round_trips() {
        let mut config = CompareConfig::new(2, 1, 7);
        config.n = 16;
        let report = run_compare(&config);
        let back: CompareReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }
}
