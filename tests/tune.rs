//! End-to-end search-based autotuning: the `servet-tune` strategies
//! driven through the public facade, against both oracles, plus the
//! registry `tune` operation over a live loopback server.

use servet::prelude::*;
use servet::registry::TuneQuery;
use servet::sim::presets;
use servet::tune::compare::ground_truth_profile;
use servet::tune::{
    analytic_config, tune, Oracle, ProfileOracle, SimOracle, Strategy, TuneOptions,
};

/// Every strategy must return the *identical* outcome for any positive
/// worker count: candidate batches are scored in parallel but landed in
/// index-ordered slots, and ties break on the point, not on arrival.
#[test]
fn tuning_is_deterministic_across_worker_counts() {
    let oracle = SimOracle::new(presets::tiny_smp(), 7, 16);
    let space = oracle.space();
    for strategy in Strategy::ALL {
        let options = TuneOptions::new(strategy).with_seed(11);
        let one = tune(&oracle, &space, &options, 1);
        let many = tune(&oracle, &space, &options, 4);
        assert_eq!(one, many, "{strategy} must not depend on worker count");
        assert_eq!(
            one.best_score.to_bits(),
            many.best_score.to_bits(),
            "{strategy} scores must be bit-identical"
        );
    }
}

/// An oracle that forwards `evaluate` alone — what a timing wrapper
/// written before `evaluate_bounded` existed does — so the search gets
/// every score exact.
struct Unbounded<'a>(&'a SimOracle);

impl Oracle for Unbounded<'_> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn evaluate(&self, config: &servet::tune::Config) -> f64 {
        self.0.evaluate(config)
    }
}

/// Evaluations cut off at the incumbent are invisible: every session
/// equals the one in which nothing is ever cut off.
#[test]
fn pruned_search_equals_unbounded_search() {
    for spec in [
        presets::tiny_smp(),
        presets::tiny_shared_l2(),
        presets::tiny_numa(),
    ] {
        for seed in [7, 8] {
            let oracle = SimOracle::new(spec.clone(), seed, 16);
            let space = oracle.space();
            for strategy in Strategy::ALL {
                let options = TuneOptions::new(strategy).with_seed(seed);
                let exact = tune(&Unbounded(&oracle), &space, &options, 1);
                for workers in [1, 3] {
                    let pruned = tune(&oracle, &space, &options, workers);
                    assert_eq!(
                        pruned, exact,
                        "{} seed {seed} {strategy} workers {workers}",
                        spec.name
                    );
                }
            }
        }
    }
}

/// Exhaustive search can never lose to the analytic advice, because the
/// advice is snapped onto the same grid exhaustive enumerates; the
/// cheaper strategies must stay close behind on the simulator oracle.
#[test]
fn search_matches_or_beats_analytic_advice_on_tiny_smp() {
    let n = 64; // 3·n²·8 = 96 KB spills tiny_smp's 64 KB L2, so tiling matters
    let oracle = SimOracle::new(presets::tiny_smp(), 42, n);
    let space = oracle.space();
    let truth = ground_truth_profile(oracle.spec());
    let advised = analytic_config(&truth, &space);
    let advised_score = oracle.evaluate(&advised);

    let exhaustive = tune(&oracle, &space, &TuneOptions::new(Strategy::Exhaustive), 2);
    assert!(
        exhaustive.best_score <= advised_score,
        "exhaustive ({}) lost to the analytic config ({advised_score})",
        exhaustive.best_score
    );
    assert_eq!(exhaustive.evaluations, space.len());

    for strategy in [Strategy::Line, Strategy::MonteCarlo] {
        let outcome = tune(&oracle, &space, &TuneOptions::new(strategy), 2);
        assert!(
            outcome.best_score <= advised_score * 1.05,
            "{strategy} ended {}x off the analytic score",
            outcome.best_score / advised_score
        );
        assert!(
            outcome.evaluations < space.len(),
            "{strategy} must search less than the full space"
        );
    }
}

/// The profile oracle prices the same kernel from a measured profile —
/// the registry's view of a machine it never ran on. Its surface is
/// convex enough that line search lands on the exhaustive optimum.
#[test]
fn line_search_converges_on_the_profile_oracle() {
    let profile = ground_truth_profile(&presets::tiny_shared_l2());
    let oracle = ProfileOracle::new(profile, 48);
    let space = oracle.space();
    let best = tune(&oracle, &space, &TuneOptions::new(Strategy::Exhaustive), 1);
    let line = tune(&oracle, &space, &TuneOptions::new(Strategy::Line), 1);
    assert_eq!(
        line.best_score.to_bits(),
        best.best_score.to_bits(),
        "line search must find the exhaustive optimum on the closed-form surface"
    );
    assert!(line.evaluations < best.evaluations);
}

/// The `tune` wire operation: computed once, memoized on repeat, and
/// identical to the in-process engine.
#[test]
fn registry_tune_memoizes_over_the_wire() {
    use servet::registry::{serve, Registry, ServerConfig};
    use std::sync::Arc;

    let profile = {
        let mut platform = SimPlatform::tiny_cluster().with_noise(0.003);
        run_full_suite(&mut platform, &SuiteConfig::small(256 * 1024)).profile
    };

    let dir = std::env::temp_dir().join(format!(
        "servet-it-tune-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(Registry::open(&dir).unwrap());
    let server = serve(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.addr();

    {
        let mut client = RegistryClient::connect(addr).unwrap();
        client.put(&profile, Some("tiny")).unwrap();

        let query = TuneQuery {
            space: None,
            options: TuneOptions::new(Strategy::Line),
            n: 48,
        };
        let (digest, cached_first, first) = client.tune("tiny", &query).unwrap();
        assert!(!cached_first, "first tune computes");
        let (digest2, cached_second, second) = client.tune("tiny", &query).unwrap();
        assert!(cached_second, "identical repeat must be memoized");
        assert_eq!(digest, digest2);
        assert_eq!(first, second);

        // The wire answer is the in-process answer.
        let oracle = ProfileOracle::new(profile.clone(), 48);
        let space = oracle.space();
        let local = tune(&oracle, &space, &query.options, 1);
        assert_eq!(first.best, local.best);
        assert_eq!(first.best_score.to_bits(), local.best_score.to_bits());

        // A different seed is a different memo entry.
        let reseeded = TuneQuery {
            options: TuneOptions::new(Strategy::MonteCarlo).with_seed(99),
            ..query
        };
        let (_, cached_third, _) = client.tune("tiny", &reseeded).unwrap();
        assert!(!cached_third, "new options must compute fresh");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
