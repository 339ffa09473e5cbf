//! Analytic advice: the `servet-autotune` consumers behind a uniform
//! query type.
//!
//! Profiles are immutable once stored (they are content-addressed), so an
//! advice answer never goes stale: the [`Registry`](crate::Registry)
//! memoizes it per `(profile digest, resolved query)`. The
//! query and outcome types are serde structs shared verbatim between the
//! wire protocol, the `servet query advise` client, and the in-process
//! `servet advise --json` path, so every consumer sees byte-identical
//! answers.

use serde::{Deserialize, Serialize};
use servet_autotune::concurrency::{self, advise_memory_threads, ConcurrencyAdvice};
use servet_autotune::tiling::{self, select_tile, TileChoice};
use servet_autotune::{advise_padding, select_broadcast, BcastPrediction, PaddingAdvice};
use servet_core::profile::MachineProfile;

fn default_tolerance() -> f64 {
    concurrency::DEFAULT_TOLERANCE
}
fn default_level() -> u8 {
    tiling::DEFAULT_LEVEL
}
fn default_elem_size() -> usize {
    tiling::DEFAULT_ELEM_SIZE
}
fn default_matrices() -> usize {
    tiling::DEFAULT_MATRICES
}
fn default_occupancy() -> f64 {
    tiling::DEFAULT_OCCUPANCY
}
fn default_bytes() -> usize {
    32 * 1024
}

/// One advice request against a stored profile. Field defaults mirror the
/// long-standing `servet advise` CLI defaults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum AdviceQuery {
    /// How many threads should touch memory at once (§V, memory-bound
    /// regions)?
    Threads {
        /// Accept an aggregate within this fraction of the best.
        #[serde(default = "default_tolerance")]
        tolerance: f64,
    },
    /// Tile-size selection for a blocked matmul.
    Tile {
        /// Cache level the tile targets (1-based).
        #[serde(default = "default_level")]
        level: u8,
        /// Bytes per matrix element.
        #[serde(default = "default_elem_size")]
        elem_size: usize,
        /// Concurrently resident tiles.
        #[serde(default = "default_matrices")]
        matrices: usize,
        /// Fraction of the cache the tiles may fill.
        #[serde(default = "default_occupancy")]
        occupancy: f64,
    },
    /// Broadcast-algorithm ranking.
    Bcast {
        /// Participating ranks; 0 (the default) means every measured core.
        #[serde(default)]
        ranks: usize,
        /// Message size in bytes.
        #[serde(default = "default_bytes")]
        bytes: usize,
    },
    /// Per-thread padding and alignment against false sharing.
    Padding,
}

impl AdviceQuery {
    /// Resolve profile-dependent defaults so that equivalent queries
    /// memoize to the same key: `ranks: 0` becomes the profile's core
    /// count, and rank counts are clamped to it (as the CLI always did).
    pub(crate) fn resolved(&self, profile: &MachineProfile) -> AdviceQuery {
        match *self {
            AdviceQuery::Bcast { ranks, bytes } => {
                let all = profile.total_cores.max(1);
                let ranks = if ranks == 0 { all } else { ranks.min(all) };
                AdviceQuery::Bcast { ranks, bytes }
            }
            ref other => other.clone(),
        }
    }
}

/// The answer to an [`AdviceQuery`], wrapping the `servet-autotune`
/// result types unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum AdviceOutcome {
    /// Memory-concurrency advice; `None` means no contention was measured
    /// (use every core).
    Threads {
        /// The recommendation, if the memory system saturates.
        advice: Option<ConcurrencyAdvice>,
    },
    /// The selected tile.
    Tile {
        /// Tile edge and provenance.
        choice: TileChoice,
    },
    /// All broadcast predictions, best first.
    Bcast {
        /// Ranks actually priced (after default resolution).
        ranks: usize,
        /// Message bytes priced.
        bytes: usize,
        /// Predictions sorted by predicted time.
        predictions: Vec<BcastPrediction>,
    },
    /// The padding recommendation.
    Padding {
        /// Padding, alignment and provenance.
        advice: PaddingAdvice,
    },
}

/// Compute advice directly (no memoization) — the single code path shared
/// by the CLI and the server. Errors are human-readable strings matching
/// the CLI's long-standing diagnostics.
pub fn compute_advice(
    profile: &MachineProfile,
    query: &AdviceQuery,
) -> Result<AdviceOutcome, String> {
    match query.resolved(profile) {
        AdviceQuery::Threads { tolerance } => {
            let memory = profile
                .memory
                .as_ref()
                .ok_or("profile has no memory characterization")?;
            Ok(AdviceOutcome::Threads {
                advice: advise_memory_threads(memory, tolerance),
            })
        }
        AdviceQuery::Tile {
            level,
            elem_size,
            matrices,
            occupancy,
        } => select_tile(profile, level, elem_size, matrices, occupancy)
            .map(|choice| AdviceOutcome::Tile { choice })
            .ok_or_else(|| format!("profile has no cache level {level}")),
        AdviceQuery::Bcast { ranks, bytes } => {
            if profile.communication.is_none() {
                return Err("profile has no communication characterization".to_string());
            }
            Ok(AdviceOutcome::Bcast {
                ranks,
                bytes,
                predictions: select_broadcast(profile, ranks, bytes),
            })
        }
        AdviceQuery::Padding => advise_padding(profile)
            .map(|advice| AdviceOutcome::Padding { advice })
            .ok_or_else(|| "profile has no false-sharing sweep or line-size probe".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Registry, Request, Response};
    use servet_core::SimPlatform;
    use servet_core::{run_full_suite, SuiteConfig};

    fn measured_profile() -> MachineProfile {
        let mut platform = SimPlatform::tiny_cluster().with_noise(0.003);
        run_full_suite(&mut platform, &SuiteConfig::small(256 * 1024)).profile
    }

    fn temp_registry(tag: &str) -> Registry {
        let dir = std::env::temp_dir().join(format!("servet-advice-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Registry::open(dir).unwrap()
    }

    #[test]
    fn advice_matches_direct_calls() {
        let profile = measured_profile();
        let tile = compute_advice(
            &profile,
            &AdviceQuery::Tile {
                level: 2,
                elem_size: 8,
                matrices: 3,
                occupancy: 0.75,
            },
        )
        .unwrap();
        let direct = select_tile(&profile, 2, 8, 3, 0.75).unwrap();
        assert_eq!(tile, AdviceOutcome::Tile { choice: direct });

        let bcast = compute_advice(
            &profile,
            &AdviceQuery::Bcast {
                ranks: 0,
                bytes: 8192,
            },
        )
        .unwrap();
        match bcast {
            AdviceOutcome::Bcast {
                ranks, predictions, ..
            } => {
                assert_eq!(ranks, profile.total_cores);
                assert_eq!(predictions, select_broadcast(&profile, ranks, 8192));
            }
            other => panic!("wrong outcome {other:?}"),
        }
    }

    #[test]
    fn missing_sections_are_clear_errors() {
        let mut profile = measured_profile();
        profile.memory = None;
        profile.communication = None;
        let err = compute_advice(&profile, &AdviceQuery::Threads { tolerance: 0.05 }).unwrap_err();
        assert!(err.contains("memory"), "{err}");
        let err = compute_advice(
            &profile,
            &AdviceQuery::Bcast {
                ranks: 4,
                bytes: 1024,
            },
        )
        .unwrap_err();
        assert!(err.contains("communication"), "{err}");
        let err = compute_advice(
            &profile,
            &AdviceQuery::Tile {
                level: 9,
                elem_size: 8,
                matrices: 3,
                occupancy: 0.75,
            },
        )
        .unwrap_err();
        assert!(err.contains("cache level 9"), "{err}");
    }

    #[test]
    fn memoization_hits_on_repeat_and_on_equivalent_queries() {
        let profile = measured_profile();
        let registry = temp_registry("memo");
        let digest = registry.put(profile.clone(), Some("tiny")).unwrap();
        let advise = |key: &str, ranks, bytes| match registry.handle(Request::Advise {
            key: key.into(),
            query: AdviceQuery::Bcast { ranks, bytes },
        }) {
            Response::Advice {
                cached, outcome, ..
            } => (outcome, cached),
            other => panic!("unexpected {other:?}"),
        };

        let (first, cached) = advise("tiny", 0, 8192);
        assert!(!cached);
        assert_eq!(registry.stats().advice_hits, 0);

        let (second, cached) = advise("tiny", 0, 8192);
        assert!(cached, "second identical query must be memoized");
        assert_eq!(first, second);
        assert_eq!(registry.stats().advice_hits, 1);

        // ranks: 0 resolves to total_cores — the explicit form hits too,
        // on the event loop's path as on the dispatch's.
        let explicit = Request::Advise {
            key: digest,
            query: AdviceQuery::Bcast {
                ranks: profile.total_cores,
                bytes: 8192,
            },
        };
        match registry.handle_in_memory(explicit) {
            Ok(Response::Advice {
                cached, outcome, ..
            }) => {
                assert!(
                    cached,
                    "resolved-equivalent query must share the memo entry"
                );
                assert_eq!(outcome, first);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(registry.stats().advice_hits, 2);

        // A different digest must not share entries.
        let mut other = profile.clone();
        other.machine = "other".into();
        registry.put(other, Some("other")).unwrap();
        let (_, cached) = advise("other", 0, 8192);
        assert!(!cached);

        // Nor a different message size.
        let (_, cached) = advise("tiny", 0, 4096);
        assert!(!cached);
    }

    #[test]
    fn padding_advice_flows_through_the_engine() {
        let mut platform = SimPlatform::tiny_cluster().with_noise(0.003);
        let profile = run_full_suite(
            &mut platform,
            &SuiteConfig {
                run_false_sharing: true,
                ..SuiteConfig::small(256 * 1024)
            },
        )
        .profile;
        let outcome = compute_advice(&profile, &AdviceQuery::Padding).unwrap();
        match outcome {
            AdviceOutcome::Padding { advice } => {
                assert!(advice.measured);
                assert!(advice.pad_bytes >= 64, "{advice:?}");
            }
            other => panic!("wrong outcome {other:?}"),
        }
    }

    #[test]
    fn padding_without_measurements_is_a_clear_error() {
        let mut profile = measured_profile();
        profile.false_sharing = None;
        profile.micro = None;
        let err = compute_advice(&profile, &AdviceQuery::Padding).unwrap_err();
        assert!(err.contains("false-sharing"), "{err}");
    }

    #[test]
    fn errors_are_memoized_too() {
        let mut profile = measured_profile();
        profile.memory = None;
        let registry = temp_registry("errors");
        registry.put(profile, Some("tiny")).unwrap();
        let request = Request::Advise {
            key: "tiny".into(),
            query: AdviceQuery::Threads { tolerance: 0.05 },
        };
        for hits in [0, 1] {
            match registry.handle(request.clone()) {
                Response::Error { error } => assert!(error.contains("memory"), "{error}"),
                other => panic!("unexpected {other:?}"),
            }
            let stats = registry.stats();
            assert_eq!((stats.advice_hits, stats.advice_misses), (hits, 1));
        }
    }
}
