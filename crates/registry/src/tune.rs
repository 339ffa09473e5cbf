//! The tune engine: search-based autotuning served from stored
//! profiles, memoized per `(profile digest, space digest, options)`.
//!
//! The shape mirrors [`crate::advice::AdviceEngine`] exactly — profiles
//! are content-addressed and immutable, the search strategies are
//! deterministic in their options, and the profile oracle is a pure
//! function of the profile, so a tuning session's outcome can never go
//! stale and is a perfect memoization target. Unlike the advice memo
//! key (digest + serialized query), the tune key is built from the
//! *space digest* plus a canonical rendering of the options, so two
//! clients declaring the same space differently (`log2` sugar vs an
//! explicit value list) share one cache entry.

use crate::cache::{CacheStats, Memo};
use serde::{Deserialize, Serialize};
use servet_core::profile::MachineProfile;
use servet_tune::{
    kernel_space, tune, ParamSpace, ProfileOracle, Strategy, TuneOptions, TuneOutcome,
    EXHAUSTIVE_LIMIT,
};

fn default_n() -> usize {
    64
}

/// Largest kernel edge the server will price. The profile oracle is
/// closed-form (cost is independent of `n`'s magnitude), but the value
/// still parameterizes working-set math, so bound it to something sane.
const MAX_N: usize = 4096;

/// One tuning request against a stored profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneQuery {
    /// The space to search. Omitted means the standard kernel space for
    /// the profiled machine ([`kernel_space`] over its core count).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub space: Option<ParamSpace>,
    /// Strategy and its budgets/seed.
    pub options: TuneOptions,
    /// Kernel matrix edge the profile oracle prices.
    #[serde(default = "default_n")]
    pub n: usize,
}

impl TuneQuery {
    /// The space this query searches, or the refusal the `tune` op
    /// answers with: `n` out of range, a sent space that fails
    /// [`ParamSpace::check`], or an exhaustive search past the engine's
    /// limit (its panic, as a typed refusal). An omitted space is the
    /// standard kernel space for the profiled machine.
    pub fn space_for(&self, profile: &MachineProfile) -> Result<ParamSpace, String> {
        if !(8..=MAX_N).contains(&self.n) {
            return Err(format!("n must be between 8 and {MAX_N}, got {}", self.n));
        }
        let space = match &self.space {
            Some(space) => space.check().map(|()| space.clone())?,
            None => kernel_space(profile.total_cores.max(1), self.n),
        };
        if self.options.strategy == Strategy::Exhaustive && space.len() > EXHAUSTIVE_LIMIT {
            return Err(format!(
                "space of {} points is too large for exhaustive search",
                space.len()
            ));
        }
        Ok(space)
    }
}

/// Run a tuning session directly (no memoization) — the single code path
/// shared by `servet tune --profile` and the server, as
/// [`crate::advice::compute_advice`] is for advice. The outcome does not
/// depend on `workers`; a refusal is the text the wire reply carries.
pub fn compute_tune(
    profile: &MachineProfile,
    query: &TuneQuery,
    workers: usize,
) -> Result<TuneOutcome, String> {
    let space = query.space_for(profile)?;
    let oracle = ProfileOracle::new(profile.clone(), query.n);
    Ok(tune(&oracle, &space, &query.options, workers))
}

/// A memoizing tuning engine over stored profiles, the `tune` operation
/// of the wire protocol.
pub struct TuneEngine {
    cache: Memo<String, TuneOutcome>,
}

impl Default for TuneEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl TuneEngine {
    /// An engine whose memo holds up to 4096 sessions.
    pub fn new() -> Self {
        Self {
            cache: Memo::new(4096),
        }
    }

    /// The memoization key: profile digest, space digest, and a
    /// canonical rendering of every option that can change the result.
    /// (No serializer involved, so the key is stable across serde
    /// versions and environments.)
    fn memo_key(digest: &str, space: &ParamSpace, options: &TuneOptions, n: usize) -> String {
        format!(
            "{digest}:{}:{}:s{}:w{}:t{}:m{}:n{n}",
            space.digest(),
            options.strategy.name(),
            options.seed,
            options.sweeps,
            options.steps,
            options.samples,
        )
    }

    /// The memo key of a query [`Self::tune`] would run, or the refusal
    /// it answers with. The key hashes the resolved space, so an explicit
    /// identical space shares the memo entry with the omitted form.
    fn session(
        digest: &str,
        profile: &MachineProfile,
        query: &TuneQuery,
    ) -> Result<String, String> {
        let space = query.space_for(profile)?;
        Ok(Self::memo_key(digest, &space, &query.options, query.n))
    }

    /// Whether [`Self::tune`] would answer this query from the memo cache
    /// — decided without counting a hit or a miss.
    pub(crate) fn is_memoized(
        &self,
        digest: &str,
        profile: &MachineProfile,
        query: &TuneQuery,
    ) -> bool {
        Self::session(digest, profile, query).is_ok_and(|key| self.cache.peek(&key).is_some())
    }

    /// Run (or recall) [`compute_tune`]'s session for the profile stored
    /// under `digest`, on one worker. The second element reports whether
    /// the memo cache served it. A refused query is answered before the
    /// memo and never stored; a search that runs always succeeds.
    pub fn tune(
        &self,
        digest: &str,
        profile: &MachineProfile,
        query: &TuneQuery,
    ) -> (Result<TuneOutcome, String>, bool) {
        let key = match Self::session(digest, profile, query) {
            Ok(key) => key,
            Err(e) => return (Err(e), false),
        };
        let (outcome, cached) = self.cache.get_or_insert_with(key, || {
            let _span = servet_obs::span("tune.compute");
            compute_tune(profile, query, 1).expect("a query with a memo key runs")
        });
        (Ok(outcome), cached)
    }

    /// Memo-cache counters (the serving tests assert on the hit count).
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use servet_core::suite::{run_full_suite, SuiteConfig};
    use servet_core::SimPlatform;
    use servet_tune::{Param, Strategy};

    fn measured_profile() -> MachineProfile {
        let mut platform = SimPlatform::tiny_cluster().with_noise(0.003);
        run_full_suite(&mut platform, &SuiteConfig::small(256 * 1024)).profile
    }

    #[test]
    fn memoization_hits_on_repeat_and_on_equivalent_spaces() {
        let profile = measured_profile();
        // A literal digest: the engine never re-derives it.
        let digest = "a".repeat(64);
        let engine = TuneEngine::new();
        let query = TuneQuery {
            space: None,
            options: TuneOptions::new(Strategy::Line),
            n: 64,
        };

        assert!(!engine.is_memoized(&digest, &profile, &query));
        let (first, cached) = engine.tune(&digest, &profile, &query);
        assert!(!cached);
        let first = first.expect("line search succeeds");
        assert!(!first.best.is_empty());

        // The check agrees with the next call and counts nothing.
        assert!(engine.is_memoized(&digest, &profile, &query));
        assert_eq!((engine.stats().hits, engine.stats().misses), (0, 1));
        let (second, cached) = engine.tune(&digest, &profile, &query);
        assert!(cached, "second identical query must be memoized");
        assert_eq!(first, second.unwrap());
        assert_eq!(engine.stats().hits, 1);

        // Declaring the default space explicitly lands on the same entry
        // (the key hashes the materialized space, not the request text).
        let explicit = TuneQuery {
            space: Some(kernel_space(profile.total_cores, 64)),
            options: TuneOptions::new(Strategy::Line),
            n: 64,
        };
        let (third, cached) = engine.tune(&digest, &profile, &explicit);
        assert!(cached, "equivalent explicit space must share the entry");
        assert_eq!(first, third.unwrap());

        // A different digest must not share entries.
        let (_, cached) = engine.tune("other-digest", &profile, &query);
        assert!(!cached);

        // Nor different options.
        let hotter = TuneQuery {
            space: None,
            options: TuneOptions::new(Strategy::MonteCarlo).with_seed(7),
            n: 64,
        };
        let (_, cached) = engine.tune(&digest, &profile, &hotter);
        assert!(!cached);
    }

    #[test]
    fn strategies_agree_on_the_profile_oracle() {
        // The profile oracle's surface is benign enough that line search
        // should land on the exhaustive optimum for the kernel space.
        let profile = measured_profile();
        let digest = "b".repeat(64);
        let engine = TuneEngine::new();
        let outcome = |strategy| {
            let query = TuneQuery {
                space: None,
                options: TuneOptions::new(strategy),
                n: 64,
            };
            engine.tune(&digest, &profile, &query).0.unwrap()
        };
        let exhaustive = outcome(Strategy::Exhaustive);
        let line = outcome(Strategy::Line);
        assert_eq!(exhaustive.best_score, line.best_score);
        assert!(line.evaluations < exhaustive.evaluations);
    }

    #[test]
    fn invalid_inputs_are_typed_errors_not_panics() {
        let profile = measured_profile();
        let engine = TuneEngine::new();

        let empty = TuneQuery {
            space: Some(ParamSpace { params: Vec::new() }),
            options: TuneOptions::new(Strategy::Exhaustive),
            n: 64,
        };
        let (out, _) = engine.tune("d", &profile, &empty);
        assert!(out.unwrap_err().contains("no parameters"));

        let dup = TuneQuery {
            space: Some(ParamSpace {
                params: vec![Param::fixed_set("x", &[1]), Param::fixed_set("x", &[2])],
            }),
            options: TuneOptions::new(Strategy::Exhaustive),
            n: 64,
        };
        let (out, _) = engine.tune("d", &profile, &dup);
        assert!(out.unwrap_err().contains("duplicate"));

        let tiny_n = TuneQuery {
            space: None,
            options: TuneOptions::new(Strategy::Line),
            n: 2,
        };
        let (out, _) = engine.tune("d", &profile, &tiny_n);
        assert!(out.unwrap_err().contains("n must be"));

        let huge = TuneQuery {
            space: Some(ParamSpace {
                params: (0..7)
                    .map(|i| Param::fixed_set(&format!("p{i}"), &(0..8u64).collect::<Vec<_>>()))
                    .collect(),
            }),
            options: TuneOptions::new(Strategy::Exhaustive),
            n: 64,
        };
        let (out, _) = engine.tune("d", &profile, &huge);
        assert!(out.unwrap_err().contains("too large"), "8^7 points");
    }
}
