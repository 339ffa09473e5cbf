//! Search-based autotuning served from stored profiles: the `tune`
//! query and the session it runs.
//!
//! Profiles are content-addressed and immutable, the search strategies
//! are deterministic in their options, and the profile oracle is a pure
//! function of the profile, so a session's outcome can never go stale:
//! the [`Registry`](crate::Registry) memoizes it per `(profile digest,
//! space digest, options)`. Unlike the advice memo key (digest +
//! serialized query), the tune key is built from the *space digest* plus
//! a canonical rendering of the options, so two clients declaring the
//! same space differently (`log2` sugar vs an explicit value list) share
//! one cache entry.

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
    Ok(search(profile, &query.space_for(profile)?, query, workers))
}

/// The session `query` runs over `space`, the space
/// [`TuneQuery::space_for`] resolved it to.
pub(crate) fn search(
    profile: &MachineProfile,
    space: &ParamSpace,
    query: &TuneQuery,
    workers: usize,
) -> TuneOutcome {
    let oracle = ProfileOracle::new(profile.clone(), query.n);
    tune(&oracle, space, &query.options, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use crate::{Registry, Request, Response};
    use servet_core::SimPlatform;
    use servet_core::{run_full_suite, SuiteConfig};
    use servet_tune::{Param, Strategy};

    fn measured_profile() -> MachineProfile {
        let mut platform = SimPlatform::tiny_cluster().with_noise(0.003);
        run_full_suite(&mut platform, &SuiteConfig::small(256 * 1024)).profile
    }

    fn temp_registry(tag: &str) -> Registry {
        let dir = std::env::temp_dir().join(format!("servet-tune-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Registry::open(dir).unwrap()
    }

    fn tune_request(key: &str, space: Option<ParamSpace>, options: TuneOptions) -> Request {
        Request::Tune {
            key: key.into(),
            query: TuneQuery {
                space,
                options,
                n: 64,
            },
        }
    }

    fn tuned(response: Response) -> (TuneOutcome, bool) {
        match response {
            Response::Tuned {
                cached, outcome, ..
            } => (outcome, cached),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn memoization_hits_on_repeat_and_on_equivalent_spaces() {
        let profile = measured_profile();
        let registry = temp_registry("memo");
        let digest = registry.put(profile.clone(), Some("tiny")).unwrap();
        let line = tune_request("tiny", None, TuneOptions::new(Strategy::Line));

        // Not memoized: the event loop hands it back, counting nothing.
        assert_eq!(registry.handle_in_memory(line.clone()), Err(line.clone()));
        assert_eq!(registry.tunes.stats(), CacheStats::default());
        let (first, cached) = tuned(registry.handle(line.clone()));
        assert!(!cached);
        assert!(!first.best.is_empty());

        // The in-memory check agrees with the next dispatch and counts
        // nothing itself: the one hit is the dispatch's.
        let (second, cached) = tuned(registry.handle_in_memory(line.clone()).unwrap());
        assert!(cached, "second identical query must be memoized");
        assert_eq!(first, second);
        let stats = registry.tunes.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        // Declaring the default space explicitly lands on the same entry
        // (the key hashes the materialized space, not the request text),
        // on the event loop's path as on the dispatch's.
        let explicit = tune_request(
            &digest,
            Some(kernel_space(profile.total_cores, 64)),
            TuneOptions::new(Strategy::Line),
        );
        let (third, cached) = tuned(registry.handle_in_memory(explicit).unwrap());
        assert!(cached, "equivalent explicit space must share the entry");
        assert_eq!(first, third);

        // A different digest must not share entries.
        let mut other = profile.clone();
        other.machine = "other".into();
        registry.put(other, Some("other")).unwrap();
        let other_line = tune_request("other", None, TuneOptions::new(Strategy::Line));
        assert_eq!(
            registry.handle_in_memory(other_line.clone()),
            Err(other_line.clone())
        );
        let (_, cached) = tuned(registry.handle(other_line));
        assert!(!cached);

        // Nor different options.
        let hotter = tune_request(
            "tiny",
            None,
            TuneOptions::new(Strategy::MonteCarlo).with_seed(7),
        );
        assert_eq!(
            registry.handle_in_memory(hotter.clone()),
            Err(hotter.clone())
        );
        let (_, cached) = tuned(registry.handle(hotter));
        assert!(!cached);
    }

    #[test]
    fn strategies_agree_on_the_profile_oracle() {
        // The profile oracle's surface is benign enough that line search
        // should land on the exhaustive optimum for the kernel space.
        let registry = temp_registry("agree");
        registry.put(measured_profile(), Some("tiny")).unwrap();
        let outcome = |strategy| {
            let request = tune_request("tiny", None, TuneOptions::new(strategy));
            tuned(registry.handle(request)).0
        };
        let exhaustive = outcome(Strategy::Exhaustive);
        let line = outcome(Strategy::Line);
        assert_eq!(exhaustive.best_score, line.best_score);
        assert!(line.evaluations < exhaustive.evaluations);
    }

    #[test]
    fn invalid_inputs_are_typed_errors_not_panics() {
        let registry = temp_registry("invalid");
        registry.put(measured_profile(), Some("tiny")).unwrap();
        let exhaustive = || TuneOptions::new(Strategy::Exhaustive);
        let refusal = |request: Request| {
            // Not in memory (a refusal is never stored), so the loop
            // hands it back; the dispatch answers it with a typed error.
            assert_eq!(
                registry.handle_in_memory(request.clone()),
                Err(request.clone())
            );
            match registry.handle(request) {
                Response::Error { error } => error,
                other => panic!("unexpected {other:?}"),
            }
        };

        let empty = tune_request(
            "tiny",
            Some(ParamSpace { params: Vec::new() }),
            exhaustive(),
        );
        assert!(refusal(empty).contains("no parameters"));

        let dup = ParamSpace {
            params: vec![Param::fixed_set("x", &[1]), Param::fixed_set("x", &[2])],
        };
        assert!(refusal(tune_request("tiny", Some(dup), exhaustive())).contains("duplicate"));

        let tiny_n = Request::Tune {
            key: "tiny".into(),
            query: TuneQuery {
                space: None,
                options: TuneOptions::new(Strategy::Line),
                n: 2,
            },
        };
        assert!(refusal(tiny_n).contains("n must be"));

        let huge = ParamSpace {
            params: (0..7)
                .map(|i| Param::fixed_set(&format!("p{i}"), &(0..8u64).collect::<Vec<_>>()))
                .collect(),
        };
        let huge = refusal(tune_request("tiny", Some(huge), exhaustive()));
        assert!(huge.contains("too large"), "8^7 points");

        // Refused before the memo: nothing stored, nothing counted.
        assert_eq!(registry.tunes.stats(), CacheStats::default());
    }
}
