//! Search strategies over a [`ParamSpace`], scored by an [`Oracle`].
//!
//! Four strategies, in the AutoTuneTMP lineage:
//!
//! * **exhaustive** — score every point; the ground truth the others are
//!   judged against.
//! * **line** — coordinate descent: sweep one dimension at a time with
//!   the others held fixed, repeat for a few sweeps or until a whole
//!   sweep stops moving. Cheap and exact on separable cost surfaces.
//! * **neighborhood** — steepest-descent hill climbing over the ±1
//!   neighborhood; stops at the first local minimum.
//! * **monte-carlo** — a seeded uniform sample of the space; the
//!   baseline that needs no structure at all.
//!
//! Every strategy funnels its candidate points through one memoizing
//! scorer that evaluates previously-unseen configurations in parallel
//! ([`servet_stats::par::map`]). Each point's score depends only on the
//! point, candidate batches are sorted before workers claim them, and the
//! final argmin tie-breaks by `(score, point)` — so the winner is
//! bit-identical for any worker count, and reruns with the same seed
//! replay exactly.

use crate::oracle::Oracle;
use crate::space::{Config, ParamSpace, Point};
use serde::{Deserialize, Serialize};
use servet_stats::par;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Hard cap on points an exhaustive search will enumerate; beyond this
/// the space is declared wrong for the strategy, not worth hours of
/// simulation.
pub const EXHAUSTIVE_LIMIT: usize = 1 << 20;

/// Which search strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Strategy {
    /// Score every point of the space.
    Exhaustive,
    /// Coordinate descent: per-dimension sweeps.
    Line,
    /// Steepest-descent over the ±1 neighborhood.
    Neighborhood,
    /// Seeded uniform random sampling.
    MonteCarlo,
}

impl Strategy {
    /// All strategies, in report order.
    pub const ALL: [Strategy; 4] = [
        Strategy::Exhaustive,
        Strategy::Line,
        Strategy::Neighborhood,
        Strategy::MonteCarlo,
    ];

    /// CLI-style name (`monte-carlo`, not `monte_carlo`).
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Exhaustive => "exhaustive",
            Strategy::Line => "line",
            Strategy::Neighborhood => "neighborhood",
            Strategy::MonteCarlo => "monte-carlo",
        }
    }

    /// Parse a CLI or wire name; accepts both `-` and `_` separators.
    pub fn parse(s: &str) -> Option<Strategy> {
        match s.replace('_', "-").as_str() {
            "exhaustive" | "brute-force" => Some(Strategy::Exhaustive),
            "line" | "line-search" => Some(Strategy::Line),
            "neighborhood" | "neighbourhood" => Some(Strategy::Neighborhood),
            "monte-carlo" | "mc" => Some(Strategy::MonteCarlo),
            _ => None,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn default_seed() -> u64 {
    0x5EED
}
fn default_sweeps() -> usize {
    2
}
fn default_steps() -> usize {
    16
}
fn default_samples() -> usize {
    24
}

/// Knobs of a tuning session. This struct (minus the worker count,
/// which never changes the result) is what the registry hashes into its
/// memoization key, so every field has a serde default: an old client
/// omitting a new knob still lands on the same cache entry as one
/// sending the default explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TuneOptions {
    /// Strategy to run.
    pub strategy: Strategy,
    /// Seed for the monte-carlo sampler (ignored by the deterministic
    /// strategies, but always part of the memo key).
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Full coordinate-descent passes for [`Strategy::Line`].
    #[serde(default = "default_sweeps")]
    pub sweeps: usize,
    /// Maximum downhill moves for [`Strategy::Neighborhood`].
    #[serde(default = "default_steps")]
    pub steps: usize,
    /// Points drawn by [`Strategy::MonteCarlo`].
    #[serde(default = "default_samples")]
    pub samples: usize,
}

impl TuneOptions {
    /// Defaults for a strategy.
    pub fn new(strategy: Strategy) -> Self {
        Self {
            strategy,
            seed: default_seed(),
            sweeps: default_sweeps(),
            steps: default_steps(),
            samples: default_samples(),
        }
    }

    /// Same options, different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// What a tuning session found.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneOutcome {
    /// Name of the oracle that scored the candidates.
    pub oracle: String,
    /// Strategy that ran.
    pub strategy: Strategy,
    /// Digest of the space that was searched (the registry memoizes by
    /// this plus the profile digest and options).
    pub space_digest: String,
    /// Number of points in the space.
    pub space_len: usize,
    /// Distinct configurations scored — one the oracle scores as another
    /// ([`Oracle::canonical`]) counts though it shares that one's
    /// evaluation.
    pub evaluations: usize,
    /// The winning configuration.
    pub best: Config,
    /// Its score (oracle-specific units; lower is better).
    pub best_score: f64,
}

impl TuneOutcome {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("tune outcome serializes")
    }
}

/// Memoizing, parallel scorer shared by all strategies.
///
/// # Evaluations that stop early
///
/// Every evaluation is handed the smallest score seen so far — the
/// *incumbent* — as [`Oracle::evaluate_bounded`]'s cutoff, and an oracle
/// that can tell its score will be higher may stop there. The memo entry
/// of such a pruned point is then only a bound, strictly above a score
/// already in the memo, and that is all any strategy ever asks of a
/// loser, so every [`TuneOutcome`] is the one unbounded evaluation gives:
///
/// * exhaustive and monte-carlo take one argmin over the memo; a pruned
///   point's true score and its entry are both strictly above the
///   incumbent it was pruned against, which is in the memo;
/// * line's and neighbourhood's `at` is, by induction, the best point
///   evaluated so far (line moves to the best of a candidate set that
///   contains `at`, neighbourhood only to a candidate strictly better
///   than `memo[at]`), and its entry is exact. The incumbent a candidate
///   is pruned against is therefore `at` or a member of its own batch —
///   a point it is compared with, and loses to pruned or not;
/// * a score *equal* to the cutoff comes back exact, so `(score, point)`
///   tie-breaks see the same values.
///
/// Which points get pruned depends on the order they are scored in, and so
/// on the worker count; the outcome does not. `evaluations` counts the
/// distinct points scored, pruned or not.
///
/// # Configurations that are the same program
///
/// A point whose configuration [`Oracle::canonical`] maps to another point
/// of the space — its *representative* — is not evaluated: it takes the
/// representative's score, and each representative is evaluated once a
/// session, whoever asks first: `scores` holds one entry per
/// representative, and `memo` one per point asked for, copied from it
/// whatever batch evaluated it. That changes no outcome either. A copied
/// exact score is exact. A copied bound was pruned against an incumbent
/// `I` that is in the memo, so it and the alias's true score are both
/// strictly above `I`. Copied in a later batch, the alias still meets a
/// point scoring at most `I` — the argmin over the memo, or line's and
/// neighbourhood's `at`, the best point so far — and loses to it either
/// way; copied within the batch, the second case above holds as it is.
struct Scorer<'a> {
    oracle: &'a dyn Oracle,
    space: &'a ParamSpace,
    workers: usize,
    /// Every point asked for, with its representative's score.
    memo: BTreeMap<Point, f64>,
    /// Every representative evaluated, with its score — whether or not
    /// anyone has asked for the point itself.
    scores: BTreeMap<Point, f64>,
    /// The configuration each point is written into in turn on this
    /// thread, for `canonical` and for evaluation: building a fresh one per
    /// point costs about what a profile oracle's evaluation does.
    config: Config,
    /// Bits of the smallest non-negative score seen, shared by a batch's
    /// workers. Non-negative `f64`s order as their bits do, so `fetch_min`
    /// on the bits is `min` on the scores; a negative or NaN score has its
    /// sign or payload bits above `∞`'s and never lowers it, which only
    /// leaves the cutoff higher than it could be.
    incumbent: AtomicU64,
}

impl<'a> Scorer<'a> {
    fn new(oracle: &'a dyn Oracle, space: &'a ParamSpace, workers: usize) -> Self {
        Self {
            oracle,
            space,
            workers: workers.max(1),
            memo: BTreeMap::new(),
            scores: BTreeMap::new(),
            config: Config::new(),
            incumbent: AtomicU64::new(f64::INFINITY.to_bits()),
        }
    }

    /// Score every not-yet-seen point in `points`: evaluate each of their
    /// representatives not scored before once, fanning those evaluations
    /// out across workers — on this thread when there is one worker or one
    /// point (most line and neighbourhood batches) — and give every point
    /// its representative's score. Each slot's *exact* score depends only
    /// on its own point, so which worker scored it is invisible in the
    /// results.
    fn score_batch(&mut self, points: &[Point]) {
        let mut todo: Vec<Point> = points
            .iter()
            .filter(|p| !self.memo.contains_key(*p))
            .cloned()
            .collect();
        todo.sort_unstable();
        todo.dedup();
        if todo.is_empty() {
            return;
        }
        let _span = servet_obs::span("tune.score_batch");
        servet_obs::counter("tune.evaluations").add(todo.len() as u64);
        let (oracle, space, incumbent) = (self.oracle, self.space, &self.incumbent);
        let mut config = std::mem::take(&mut self.config);
        // The point of the space each one is scored as: the one the oracle
        // names, or itself.
        let reps: Vec<Point> = todo
            .iter()
            .map(|p| {
                space.set_config(p, &mut config);
                oracle
                    .canonical(&config)
                    .and_then(|canon| space.point_of(&canon))
                    .unwrap_or_else(|| p.clone())
            })
            .collect();
        // The representatives never scored, each once, highest first. The
        // order decides only how soon a good incumbent turns up, never the
        // outcome, and dimensions list their values ascending (tile edge,
        // thread count, padding): a kernel worth tuning is rarely at its
        // best in the all-smallest corner that ascending order would spend
        // its first evaluations in.
        let mut run: Vec<&Point> = reps
            .iter()
            .filter(|r| !self.scores.contains_key(*r))
            .collect();
        run.sort_unstable_by(|a, b| b.cmp(a));
        run.dedup();
        servet_obs::counter("tune.evaluations_aliased").add((todo.len() - run.len()) as u64);
        // The session's configuration is the first worker's; any other
        // starts empty and fills its keys on its first point.
        let mut configs = vec![config];
        configs.resize_with(self.workers.min(run.len()).max(1), Config::new);
        // Relaxed: the incumbent is a number and publishes nothing else; a
        // stale read is a higher, still valid, cutoff.
        let scores = par::map(&run, &mut configs, |config, rep| {
            space.set_config(rep, config);
            let cutoff = f64::from_bits(incumbent.load(Ordering::Relaxed));
            let score = oracle.evaluate_bounded(config, cutoff);
            incumbent.fetch_min(score.to_bits(), Ordering::Relaxed);
            score
        });
        self.config = configs.swap_remove(0);
        self.scores.extend(run.into_iter().cloned().zip(scores));
        for (p, rep) in todo.into_iter().zip(&reps) {
            self.memo.insert(p, self.scores[rep]);
        }
    }

    /// Best point among an explicit candidate list (must be scored),
    /// tie-breaking by `(score, point)`.
    fn best_of<'p>(&self, candidates: impl Iterator<Item = &'p Point>) -> (Point, f64) {
        candidates
            .map(|p| (p, self.memo[p]))
            .min_by(|(pa, sa), (pb, sb)| sa.total_cmp(sb).then_with(|| pa.cmp(pb)))
            .map(|(p, s)| (p.clone(), s))
            .expect("non-empty candidate list")
    }

    /// Best point over everything evaluated so far.
    fn best(&self) -> (Point, f64) {
        self.best_of(self.memo.keys())
    }
}

/// Run one tuning session. `workers` threads score candidates in
/// parallel; the result is identical for any positive worker count.
pub fn tune(
    oracle: &dyn Oracle,
    space: &ParamSpace,
    options: &TuneOptions,
    workers: usize,
) -> TuneOutcome {
    let _span = servet_obs::span("tune.search");
    let mut scorer = Scorer::new(oracle, space, workers);
    match options.strategy {
        Strategy::Exhaustive => {
            assert!(
                space.len() <= EXHAUSTIVE_LIMIT,
                "space of {} points is too large for exhaustive search",
                space.len()
            );
            let all: Vec<Point> = (0..space.len()).map(|i| space.point(i)).collect();
            scorer.score_batch(&all);
        }
        Strategy::Line => {
            let mut at = space.midpoint();
            for _ in 0..options.sweeps.max(1) {
                let before = at.clone();
                for dim in 0..space.params.len() {
                    let line = space.axis(&at, dim);
                    scorer.score_batch(&line);
                    at = scorer.best_of(line.iter()).0;
                }
                if at == before {
                    break; // a full sweep moved nothing: converged
                }
            }
        }
        Strategy::Neighborhood => {
            let mut at = space.midpoint();
            scorer.score_batch(std::slice::from_ref(&at));
            for _ in 0..options.steps.max(1) {
                let hood = space.neighbors(&at);
                scorer.score_batch(&hood);
                let (next, next_score) = scorer.best_of(hood.iter());
                if next_score < scorer.memo[&at] {
                    at = next;
                } else {
                    break; // local minimum
                }
            }
        }
        Strategy::MonteCarlo => {
            let mut state = options.seed;
            let draws: Vec<Point> = (0..options.samples.max(1))
                .map(|_| space.random_point(&mut state))
                .collect();
            scorer.score_batch(&draws);
        }
    }
    let (best_point, best_score) = scorer.best();
    servet_obs::counter("tune.sessions").incr();
    TuneOutcome {
        oracle: oracle.name(),
        strategy: options.strategy,
        space_digest: space.digest(),
        space_len: space.len(),
        evaluations: scorer.memo.len(),
        best: space.config(&best_point),
        best_score,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Param;

    /// Deterministic synthetic oracle: a convex bowl over the value
    /// grid, with an optional per-call jitter keyed off the point so
    /// ties exist.
    struct Bowl {
        target: Vec<f64>,
    }

    impl Oracle for Bowl {
        fn name(&self) -> String {
            "bowl".into()
        }
        fn evaluate(&self, config: &Config) -> f64 {
            // Separable quadratic in the *values*, minimized at target.
            config
                .values()
                .zip(&self.target)
                .map(|(&v, t)| {
                    let d = v as f64 - t;
                    d * d
                })
                .sum()
        }
    }

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            Param::log2("a", 0, 5), // 1..32
            Param::fixed_set("b", &[0, 10, 20, 30, 40]),
            Param::fixed_set("c", &[3, 7, 11]),
        ])
    }

    fn bowl() -> Bowl {
        // BTreeMap iterates a, b, c.
        Bowl {
            target: vec![8.0, 20.0, 7.0],
        }
    }

    fn expect_best(outcome: &TuneOutcome) {
        assert_eq!(outcome.best["a"], 8);
        assert_eq!(outcome.best["b"], 20);
        assert_eq!(outcome.best["c"], 7);
        assert_eq!(outcome.best_score, 0.0);
    }

    #[test]
    fn exhaustive_finds_the_global_minimum() {
        let s = space();
        let out = tune(&bowl(), &s, &TuneOptions::new(Strategy::Exhaustive), 2);
        expect_best(&out);
        assert_eq!(out.evaluations, s.len());
        assert_eq!(out.space_len, s.len());
    }

    #[test]
    fn line_search_converges_on_separable_surface() {
        let s = space();
        let out = tune(&bowl(), &s, &TuneOptions::new(Strategy::Line), 2);
        expect_best(&out);
        assert!(out.evaluations < s.len(), "line search must not enumerate");
    }

    #[test]
    fn neighborhood_descends_to_the_minimum() {
        let s = space();
        let out = tune(&bowl(), &s, &TuneOptions::new(Strategy::Neighborhood), 2);
        expect_best(&out);
        assert!(out.evaluations < s.len());
    }

    #[test]
    fn monte_carlo_is_seed_deterministic() {
        let s = space();
        let opts = TuneOptions::new(Strategy::MonteCarlo).with_seed(99);
        let a = tune(&bowl(), &s, &opts, 1);
        let b = tune(&bowl(), &s, &opts, 3);
        assert_eq!(a, b, "same seed, different workers: identical outcome");
        let c = tune(&bowl(), &s, &opts.with_seed(100), 1);
        // A different seed draws different points (scores may tie, the
        // evaluation count almost surely differs on this space).
        assert!(c.evaluations <= opts.samples);
    }

    #[test]
    fn every_strategy_is_worker_count_invariant() {
        let s = space();
        for strategy in Strategy::ALL {
            let opts = TuneOptions::new(strategy);
            let one = tune(&bowl(), &s, &opts, 1);
            let many = tune(&bowl(), &s, &opts, 5);
            assert_eq!(one, many, "{strategy} varies with worker count");
        }
    }

    /// The most eager oracle the contract allows: anything above the
    /// cutoff comes back as `∞`, and is counted.
    struct Eager<O> {
        inner: O,
        pruned: AtomicU64,
    }

    impl<O: Oracle> Oracle for Eager<O> {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn evaluate(&self, config: &Config) -> f64 {
            self.inner.evaluate(config)
        }
        fn evaluate_bounded(&self, config: &Config, cutoff: f64) -> f64 {
            let exact = self.inner.evaluate(config);
            if exact > cutoff {
                self.pruned.fetch_add(1, Ordering::Relaxed);
                return f64::INFINITY;
            }
            exact
        }
    }

    /// A surface of three plateaus: most candidates tie, so the outcome
    /// rests on the `(score, point)` tie-break.
    struct Plateaus;

    impl Oracle for Plateaus {
        fn name(&self) -> String {
            "plateaus".into()
        }
        fn evaluate(&self, config: &Config) -> f64 {
            (config.values().sum::<u64>() % 3) as f64
        }
    }

    #[test]
    fn pruned_evaluations_never_change_an_outcome() {
        fn check(oracle: impl Oracle) {
            let s = space();
            let eager = Eager {
                inner: oracle,
                pruned: AtomicU64::new(0),
            };
            for strategy in Strategy::ALL {
                for seed in [1, 2, 3] {
                    let opts = TuneOptions::new(strategy).with_seed(seed);
                    let exact = tune(&eager.inner, &s, &opts, 1);
                    for workers in [1, 3] {
                        let pruned = tune(&eager, &s, &opts, workers);
                        assert_eq!(pruned, exact, "{strategy} seed {seed} workers {workers}");
                    }
                }
            }
            assert!(eager.pruned.load(Ordering::Relaxed) > 0, "nothing pruned");
        }
        check(bowl());
        check(Plateaus);
    }

    /// `inner` blind to dimension `c`: it scores every configuration as the
    /// one with `c = 3` and says so through `canonical` — or, when `stray`,
    /// names an equally scored configuration off the grid, `c = 4`.
    /// Counts the evaluations it is asked for.
    struct Blind<O> {
        inner: O,
        stray: bool,
        evaluations: AtomicU64,
    }

    fn with_c(config: &Config, c: u64) -> Config {
        let mut seen = config.clone();
        seen.insert("c".into(), c);
        seen
    }

    impl<O: Oracle> Oracle for Blind<O> {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn evaluate(&self, config: &Config) -> f64 {
            self.evaluate_bounded(config, f64::INFINITY)
        }
        fn evaluate_bounded(&self, config: &Config, cutoff: f64) -> f64 {
            self.evaluations.fetch_add(1, Ordering::Relaxed);
            self.inner.evaluate_bounded(&with_c(config, 3), cutoff)
        }
        fn canonical(&self, config: &Config) -> Option<Config> {
            let canon = with_c(config, if self.stray { 4 } else { 3 });
            (canon != *config).then_some(canon)
        }
    }

    /// An oracle forwarding everything but `canonical`.
    struct Unaliased<'a>(&'a dyn Oracle);

    impl Oracle for Unaliased<'_> {
        fn name(&self) -> String {
            self.0.name()
        }
        fn evaluate(&self, config: &Config) -> f64 {
            self.0.evaluate(config)
        }
        fn evaluate_bounded(&self, config: &Config, cutoff: f64) -> f64 {
            self.0.evaluate_bounded(config, cutoff)
        }
    }

    #[test]
    fn aliased_points_share_an_evaluation_and_change_no_outcome() {
        /// Evaluations over every session with aliasing, and without.
        fn check(inner: impl Oracle, stray: bool) -> (u64, u64) {
            let s = space();
            let blind = Blind {
                inner: Eager {
                    inner,
                    pruned: AtomicU64::new(0),
                },
                stray,
                evaluations: AtomicU64::new(0),
            };
            let unaliased = Unaliased(&blind);
            let (mut with, mut without) = (0, 0);
            let count = |oracle: &dyn Oracle, opts: &TuneOptions, workers, total: &mut u64| {
                let before = blind.evaluations.load(Ordering::Relaxed);
                let outcome = tune(oracle, &s, opts, workers);
                *total += blind.evaluations.load(Ordering::Relaxed) - before;
                outcome
            };
            for strategy in Strategy::ALL {
                for seed in [1, 2, 3] {
                    let opts = TuneOptions::new(strategy).with_seed(seed);
                    for workers in [1, 3] {
                        let plain = count(&unaliased, &opts, workers, &mut without);
                        let aliased = count(&blind, &opts, workers, &mut with);
                        assert_eq!(aliased, plain, "{strategy} seed {seed} workers {workers}");
                    }
                }
            }
            (with, without)
        }
        for (name, (with, without)) in [
            ("bowl", check(bowl(), false)),
            ("plateaus", check(Plateaus, false)),
        ] {
            assert!(
                with < without,
                "{name}: {with} evaluations aliased, {without} not"
            );
        }
        let (with, without) = check(bowl(), true);
        assert_eq!(with, without, "a canonical form off the grid is ignored");
    }

    /// `inner`, counting the evaluations it is asked for.
    struct Counted<'a> {
        inner: &'a dyn Oracle,
        evaluations: AtomicU64,
    }

    impl Oracle for Counted<'_> {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn evaluate(&self, config: &Config) -> f64 {
            self.evaluate_bounded(config, f64::INFINITY)
        }
        fn evaluate_bounded(&self, config: &Config, cutoff: f64) -> f64 {
            self.evaluations.fetch_add(1, Ordering::Relaxed);
            self.inner.evaluate_bounded(config, cutoff)
        }
        fn canonical(&self, config: &Config) -> Option<Config> {
            self.inner.canonical(config)
        }
    }

    /// Every strategy at seeds 1–3 and workers 1 and 3, against the
    /// simulator (whose `canonical` aliases and whose cutoff prunes) and a
    /// profile oracle: FNV-1a over each outcome's best configuration, the
    /// bits of its score, its evaluation count and the evaluations the
    /// oracle was asked for. Taken before the scorer kept one score per
    /// representative; any change to which points are scored, or how
    /// often, moves it.
    #[test]
    fn search_outcomes_and_oracle_calls_are_pinned() {
        use crate::compare::ground_truth_profile;
        use crate::oracle::{ProfileOracle, SimOracle};
        let spec = servet_sim::presets::tiny_smp();
        let sim = SimOracle::new(spec.clone(), 1, 16);
        let profile = ProfileOracle::new(ground_truth_profile(&spec), 48);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &byte in bytes {
                digest = (digest ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (oracle, space) in [
            (&sim as &dyn Oracle, sim.space()),
            (&profile, profile.space()),
        ] {
            let counted = Counted {
                inner: oracle,
                evaluations: AtomicU64::new(0),
            };
            for strategy in Strategy::ALL {
                for seed in [1, 2, 3] {
                    for workers in [1, 3] {
                        let before = counted.evaluations.load(Ordering::Relaxed);
                        let opts = TuneOptions::new(strategy).with_seed(seed);
                        let out = tune(&counted, &space, &opts, workers);
                        let calls = counted.evaluations.load(Ordering::Relaxed) - before;
                        for (name, value) in &out.best {
                            eat(name.as_bytes());
                            eat(&value.to_le_bytes());
                        }
                        eat(&out.best_score.to_bits().to_le_bytes());
                        eat(&(out.evaluations as u64).to_le_bytes());
                        eat(&calls.to_le_bytes());
                    }
                }
            }
        }
        assert_eq!(digest, 0x4183_aa06_5ec4_53ad);
    }

    #[test]
    fn strategy_names_round_trip() {
        for strategy in Strategy::ALL {
            assert_eq!(Strategy::parse(strategy.name()), Some(strategy));
        }
        assert_eq!(Strategy::parse("monte_carlo"), Some(Strategy::MonteCarlo));
        assert_eq!(Strategy::parse("nope"), None);
    }

    #[test]
    fn options_deserialize_with_defaults() {
        let parsed: TuneOptions = serde_json::from_str(r#"{"strategy":"line"}"#).unwrap();
        assert_eq!(parsed, TuneOptions::new(Strategy::Line));
    }

    #[test]
    fn outcome_json_round_trips() {
        let s = space();
        for strategy in Strategy::ALL {
            let out = tune(&bowl(), &s, &TuneOptions::new(strategy), 1);
            let back: TuneOutcome = serde_json::from_str(&out.to_json()).unwrap();
            assert_eq!(back, out, "{strategy}");
        }
    }
}
