//! The per-run measurement manifest: *how* a profile was measured.
//!
//! A [`crate::profile::MachineProfile`] records what Servet concluded; a
//! [`RunManifest`] records how the conclusion was reached — the exact
//! [`SuiteConfig`] used, the per-stage timings (Table I), the observed
//! span tree of the run (wall-clock, from `servet-obs`), and the event
//! counters (samples swept, candidates scored). Tørring et al. and
//! Cooper & Xu both argue that benchmark-derived parameters are only
//! trustworthy when the measurement methodology travels with them; the
//! manifest is that record, written by `servet simulate/probe --out` as a
//! `<profile>.manifest.json` sibling of the profile file.

use crate::profile::write_atomic;
use crate::suite::{SuiteConfig, SuiteReport, SuiteTimings};
use serde::{Deserialize, Serialize};
use servet_sim::CoherenceSpec;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Manifest schema version written by this build.
pub const MANIFEST_VERSION: u32 = 1;

/// One completed measurement span (the serde mirror of
/// `servet_obs::SpanRecord`, so manifests stay readable without the obs
/// crate in scope).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEntry {
    /// Span name, dot-separated (`"suite.cache_size"`).
    pub name: String,
    /// Nesting depth at open time (0 = top level).
    pub depth: usize,
    /// Start, nanoseconds since the run's span epoch.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub duration_ns: u64,
    /// Span payload (e.g. per-stage coherence traffic). Absent in
    /// manifests written before the field existed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub annotation: Option<String>,
}

/// The measurement record of one suite run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Manifest schema version ([`MANIFEST_VERSION`]).
    pub manifest_version: u32,
    /// Machine the profile describes.
    pub machine: String,
    /// `schema_version` of the profile this manifest accompanies.
    pub profile_schema_version: u32,
    /// Per-stage suite timings (platform clock — virtual on simulators).
    pub timings: SuiteTimings,
    /// The full configuration the suite ran with.
    pub config: SuiteConfig,
    /// Wall-clock span tree of the run, in completion order.
    #[serde(default)]
    pub spans: Vec<SpanEntry>,
    /// Event counters of the run.
    #[serde(default)]
    pub counters: BTreeMap<String, u64>,
    /// Coherence bus/snoop transaction latencies of the measured
    /// platform, when known — the simulator parameters a zoo run needs
    /// to be reproducible from the manifest alone. Absent for platforms
    /// that cannot report them and in manifests from before the field.
    #[serde(default)]
    pub coherence: Option<CoherenceSpec>,
}

impl RunManifest {
    /// Build a manifest from a finished per-run scope
    /// ([`servet_obs::RunScope`]): spans and counters are exactly the
    /// run's own, no matter how many suites the process runs
    /// concurrently. This is what [`crate::suite::run_suite`] returns.
    pub(crate) fn from_scope(
        report: &SuiteReport,
        config: &SuiteConfig,
        data: servet_obs::ScopeData,
    ) -> Self {
        Self {
            manifest_version: MANIFEST_VERSION,
            machine: report.profile.machine.clone(),
            profile_schema_version: report.profile.schema_version,
            timings: report.timings,
            config: config.clone(),
            spans: data
                .spans
                .into_iter()
                .map(|s| SpanEntry {
                    name: s.name,
                    depth: s.depth,
                    start_ns: s.start_ns,
                    duration_ns: s.duration_ns,
                    annotation: s.annotation,
                })
                .collect(),
            counters: data.counters,
            coherence: None,
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serializes")
    }

    /// Parse from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Write the manifest atomically (same guarantee as profile saves).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_atomic(path, self.to_json().as_bytes())
    }

    /// Load a manifest previously written by [`Self::save`].
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let text = fs::read_to_string(path)?;
        Self::from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// The manifest path that accompanies a profile path: the profile's
/// extension (if any) is replaced by `manifest.json` —
/// `dun.json` → `dun.manifest.json`, `dun` → `dun.manifest.json`.
pub fn manifest_path(profile_path: impl AsRef<Path>) -> PathBuf {
    let mut path = profile_path.as_ref().to_path_buf();
    path.set_extension("manifest.json");
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_platform::SimPlatform;
    use crate::suite::run_suite;

    #[test]
    fn manifest_path_replaces_extension() {
        assert_eq!(
            manifest_path("out/dun.json"),
            PathBuf::from("out/dun.manifest.json")
        );
        assert_eq!(manifest_path("dun"), PathBuf::from("dun.manifest.json"));
    }

    fn tiny_run() -> (SuiteReport, SuiteConfig, RunManifest) {
        let mut p = SimPlatform::tiny().with_noise(0.0);
        let config = SuiteConfig {
            skip_comm: true,
            ..SuiteConfig::small(128 * 1024)
        };
        let (report, manifest) = run_suite(&mut p, &config);
        (report, config, manifest)
    }

    #[test]
    fn capture_records_config_spans_and_counters() {
        let (report, config, manifest) = tiny_run();
        assert_eq!(manifest.manifest_version, MANIFEST_VERSION);
        assert_eq!(manifest.machine, report.profile.machine);
        assert_eq!(manifest.config, config);
        for name in ["suite", "suite.cache_size", "mcalibrator.sweep"] {
            assert!(
                manifest.spans.iter().any(|s| s.name == name),
                "missing span {name}: {:?}",
                manifest.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
            );
        }
        assert!(
            manifest.counters.get("mcalibrator.samples").copied() >= Some(1),
            "{:?}",
            manifest.counters
        );
    }

    #[test]
    fn manifest_round_trips_through_file() {
        let (_, _, manifest) = tiny_run();
        let dir = std::env::temp_dir().join("servet-manifest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = manifest_path(dir.join("tiny.json"));
        manifest.save(&path).unwrap();
        assert_eq!(RunManifest::load(&path).unwrap(), manifest);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_optional_fields_default() {
        let json = r#"{
            "manifest_version": 1,
            "machine": "m",
            "profile_schema_version": 1,
            "timings": {"cache_size_s": 1.0, "shared_caches_s": 0.0,
                        "memory_overhead_s": 0.0, "communication_s": 0.0},
            "config": null
        }"#;
        // `config: null` is invalid — only spans/counters may be absent.
        assert!(RunManifest::from_json(json).is_err());
    }
}
