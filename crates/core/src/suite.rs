//! The full Servet suite: run every benchmark and time each stage.
//!
//! Reproduces the paper's top-level flow — cache sizes first (their outputs
//! feed the shared-cache benchmark's array sizes and the communication
//! benchmark's probe size), then shared caches, memory overhead and
//! communication costs — and records per-stage execution time for Table I.

use crate::cache_detect::{detect_cache_levels, DetectConfig};
use crate::comm::{characterize_communication, CommConfig};
use crate::false_sharing::{detect_false_sharing, FalseSharingConfig};
use crate::mcalibrator::{mcalibrator, McalibratorConfig};
use crate::mem_overhead::{characterize_memory, MemOverheadConfig};
use crate::micro::{run_micro_probes, MicroConfig};
use crate::platform::Platform;
use crate::profile::MachineProfile;
use crate::shared_cache::{decompose_shared_misses, detect_shared_caches, SharedCacheConfig};
use serde::{Deserialize, Serialize};
use servet_sim::CoherenceTraffic;

/// Which benchmarks to run and with what parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteConfig {
    /// mcalibrator sweep parameters.
    pub mcalibrator: McalibratorConfig,
    /// Cache-level detection parameters.
    pub detect: DetectConfig,
    /// Shared-cache benchmark parameters.
    pub shared: SharedCacheConfig,
    /// Memory-overhead benchmark parameters.
    pub memory: MemOverheadConfig,
    /// Communication benchmark tolerance/sweep parameters; the probe size
    /// is replaced by the detected L1 size at run time.
    pub comm: CommConfig,
    /// Skip the shared-cache benchmark.
    pub skip_shared: bool,
    /// Skip the memory-overhead benchmark.
    pub skip_memory: bool,
    /// Skip the communication benchmark.
    pub skip_comm: bool,
    /// Run the micro-probe extensions (line size, L1 associativity) after
    /// the cache-size stage. Off by default: they are extensions beyond
    /// the paper's published suite.
    pub run_micro: bool,
    /// Micro-probe parameters.
    pub micro: MicroConfig,
    /// Run the false-sharing sweep after every other stage. Off by
    /// default: it is an extension beyond the paper's published suite and
    /// needs [`Platform::supports_coherence_probes`]. Older configs
    /// without the field read as off.
    #[serde(default)]
    pub run_false_sharing: bool,
    /// False-sharing sweep parameters.
    #[serde(default)]
    pub false_sharing: FalseSharingConfig,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self {
            mcalibrator: McalibratorConfig::default(),
            detect: DetectConfig::default(),
            shared: SharedCacheConfig::default(),
            memory: MemOverheadConfig::default(),
            comm: CommConfig::with_l1_size(32 * 1024),
            skip_shared: false,
            skip_memory: false,
            skip_comm: false,
            run_micro: false,
            micro: MicroConfig::default(),
            run_false_sharing: false,
            false_sharing: FalseSharingConfig::default(),
        }
    }
}

impl SuiteConfig {
    /// A light configuration for small test machines.
    pub fn small(max_cache: usize) -> Self {
        Self {
            mcalibrator: McalibratorConfig::small(max_cache),
            detect: DetectConfig::small(),
            shared: SharedCacheConfig::default(),
            memory: MemOverheadConfig::default(),
            comm: CommConfig::small(8 * 1024),
            skip_shared: false,
            skip_memory: false,
            skip_comm: false,
            run_micro: false,
            micro: MicroConfig::default(),
            run_false_sharing: false,
            false_sharing: FalseSharingConfig::default(),
        }
    }
}

/// Wall (or virtual) seconds each stage of the suite consumed — the rows of
/// the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SuiteTimings {
    /// Cache Size Estimate row. Exactly the mcalibrator sweep plus level
    /// detection — the paper's benchmark, nothing else.
    pub cache_size_s: f64,
    /// Time in the optional micro-probe extensions (line size, L1
    /// associativity). Zero unless [`SuiteConfig::run_micro`] is set.
    /// Kept out of [`cache_size_s`](Self::cache_size_s) so that row stays
    /// comparable with Table I; older reports without this field read as
    /// zero.
    #[serde(default)]
    pub micro_probes_s: f64,
    /// Determination of Shared Caches row.
    pub shared_caches_s: f64,
    /// Memory Access Overhead row.
    pub memory_overhead_s: f64,
    /// Communication Costs row.
    pub communication_s: f64,
    /// Time in the optional false-sharing sweep. Zero unless
    /// [`SuiteConfig::run_false_sharing`] is set; older reports without
    /// the field read as zero.
    #[serde(default)]
    pub false_sharing_s: f64,
}

impl SuiteTimings {
    /// Total seconds across every stage, extensions included.
    pub fn total_s(&self) -> f64 {
        self.cache_size_s
            + self.micro_probes_s
            + self.shared_caches_s
            + self.memory_overhead_s
            + self.communication_s
            + self.false_sharing_s
    }
}

/// The suite's full output: the machine profile plus stage timings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteReport {
    /// The measured machine profile.
    pub profile: MachineProfile,
    /// Per-stage execution times.
    pub timings: SuiteTimings,
}

/// Render a per-stage coherence-traffic delta for span annotations.
fn format_traffic(t: &CoherenceTraffic) -> String {
    format!(
        "coh inv={} wb={} intv={} upg={} miss={}coh/{}cap",
        t.invalidations,
        t.writebacks,
        t.interventions,
        t.upgrades,
        t.coherence_misses,
        t.capacity_misses
    )
}

/// Annotate `span` with the coherence traffic generated since `before`
/// (a [`Platform::coherence_traffic_total`] snapshot taken at stage
/// entry). No-op when the platform cannot observe traffic or the stage
/// generated none — private-traversal stages stay unannotated.
fn annotate_coherence(
    span: &mut servet_obs::SpanGuard,
    before: Option<CoherenceTraffic>,
    platform: &dyn Platform,
) {
    let (Some(before), Some(now)) = (before, platform.coherence_traffic_total()) else {
        return;
    };
    let delta = now.since(&before);
    if !delta.is_empty() {
        span.annotate(format_traffic(&delta));
    }
}

/// Run the complete Servet suite on a platform.
pub fn run_full_suite(platform: &mut dyn Platform, config: &SuiteConfig) -> SuiteReport {
    // Wall-clock spans for `servet --trace` and the run manifest; the
    // platform's own clock (virtual on the simulator) still feeds the
    // Table I timings below.
    let _suite_span = servet_obs::span("suite");
    let t0 = platform.elapsed_seconds();

    // Stage 1: cache size estimate (Figs. 1-4).
    let mut stage_span = servet_obs::span("suite.cache_size");
    let coh0 = platform.coherence_traffic_total();
    let sweep = mcalibrator(platform, 0, &config.mcalibrator);
    let cache_levels = detect_cache_levels(&sweep, platform.page_size(), &config.detect);
    annotate_coherence(&mut stage_span, coh0, platform);
    drop(stage_span);
    let t1 = platform.elapsed_seconds();

    // Stage 1b: optional micro-probe extensions, timed apart from the
    // cache-size stage so `cache_size_s` stays faithful to Table I.
    let micro = if config.run_micro {
        let mut micro_span = servet_obs::span("suite.micro_probes");
        let coh0 = platform.coherence_traffic_total();
        let micro = cache_levels
            .first()
            .map(|l1| run_micro_probes(platform, 0, l1.size, &config.micro));
        annotate_coherence(&mut micro_span, coh0, platform);
        micro
    } else {
        None
    };
    let t1m = platform.elapsed_seconds();

    // Stage 2: shared caches (Fig. 5).
    let mut stage_span = servet_obs::span("suite.shared_caches");
    let coh0 = platform.coherence_traffic_total();
    let mut shared = if config.skip_shared || platform.num_cores() < 2 {
        None
    } else {
        let sizes: Vec<usize> = cache_levels.iter().map(|c| c.size).collect();
        Some(detect_shared_caches(platform, &sizes, &config.shared))
    };
    annotate_coherence(&mut stage_span, coh0, platform);
    drop(stage_span);
    let t2 = platform.elapsed_seconds();

    let micro_probes_s = t1m - t1;
    let shared_caches_s = t2 - t1m;

    // Stage 3: memory access overhead (Fig. 6).
    let mut stage_span = servet_obs::span("suite.memory_overhead");
    let coh0 = platform.coherence_traffic_total();
    let memory = if config.skip_memory || platform.num_cores() < 2 {
        None
    } else {
        Some(characterize_memory(platform, &config.memory))
    };
    annotate_coherence(&mut stage_span, coh0, platform);
    drop(stage_span);
    let t3 = platform.elapsed_seconds();

    // Stage 4: communication costs (Fig. 7), probing with the detected L1
    // size.
    let mut stage_span = servet_obs::span("suite.communication");
    let coh0 = platform.coherence_traffic_total();
    let communication = if config.skip_comm || !platform.supports_messaging() {
        None
    } else {
        let mut comm_cfg = config.comm.clone();
        let fell_back = match cache_levels.first() {
            Some(l1) => {
                comm_cfg.probe_size = l1.size;
                false
            }
            // No detected L1 to probe with: keep the configured default,
            // but say so — a profile must distinguish "detected 32 KB"
            // from "fell back to 32 KB".
            None => {
                servet_obs::counter("suite.comm_probe_size_fallback").incr();
                true
            }
        };
        let mut result = characterize_communication(platform, &comm_cfg);
        result.probe_size_fallback = fell_back;
        Some(result)
    };
    annotate_coherence(&mut stage_span, coh0, platform);
    drop(stage_span);
    let t4 = platform.elapsed_seconds();

    // Stage 5: coherence extensions — the false-sharing sweep and the
    // §III-B miss decomposition. Last, so that platforms with seeded
    // measurement noise draw for the paper's own stages exactly as they
    // did before this stage existed.
    let false_sharing = if config.run_false_sharing && platform.supports_coherence_probes() {
        let mut fs_span = servet_obs::span("suite.false_sharing");
        // The stage drains machine counters internally (the sweep
        // classifies per-configuration traffic), which is exactly why
        // the annotation diffs the *monotone* lifetime total instead.
        let coh0 = platform.coherence_traffic_total();
        if let Some(shared) = shared.as_mut() {
            let sizes: Vec<usize> = cache_levels.iter().map(|c| c.size).collect();
            shared.miss_decomposition = decompose_shared_misses(platform, &sizes, &config.shared);
        }
        let fs = detect_false_sharing(platform, &config.false_sharing);
        annotate_coherence(&mut fs_span, coh0, platform);
        Some(fs)
    } else {
        None
    };
    let t5 = platform.elapsed_seconds();

    SuiteReport {
        profile: MachineProfile {
            schema_version: crate::profile::SCHEMA_VERSION,
            machine: platform.name().to_string(),
            cores_per_node: platform.num_cores(),
            total_cores: platform.total_cores(),
            page_size: platform.page_size(),
            mcalibrator: Some(sweep),
            cache_levels,
            shared_caches: shared,
            memory,
            communication,
            micro,
            false_sharing,
        },
        timings: SuiteTimings {
            cache_size_s: t1 - t0,
            micro_probes_s,
            shared_caches_s,
            memory_overhead_s: t3 - t2,
            communication_s: t4 - t3,
            false_sharing_s: t5 - t4,
        },
    }
}

/// Run the complete suite as a *pure* function of the platform and
/// config: every span and counter the run produces is collected into a
/// private per-run scope and returned inside an exact [`RunManifest`](crate::manifest::RunManifest),
/// untouched by whatever other runs execute concurrently in the process.
///
/// This is the entry point for batched drivers (the machine zoo) and for
/// anything that wants a manifest that is guaranteed to describe *this*
/// run only. [`run_full_suite`] remains for callers that manage
/// observability themselves. The scope still merges into the global view
/// on completion, so `servet --trace` output is unchanged.
pub fn run_suite(
    platform: &mut dyn Platform,
    config: &SuiteConfig,
) -> (SuiteReport, crate::manifest::RunManifest) {
    let scope = servet_obs::RunScope::begin();
    let report = run_full_suite(platform, config);
    let mut manifest = crate::manifest::RunManifest::from_scope(&report, config, scope.finish());
    manifest.coherence = platform.coherence_params();
    (report, manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_platform::SimPlatform;
    use servet_sim::KB;

    #[test]
    fn full_suite_on_tiny_cluster() {
        let mut p = SimPlatform::tiny_cluster().with_noise(0.003);
        let report = run_full_suite(&mut p, &SuiteConfig::small(256 * KB));
        let profile = &report.profile;
        // Caches: 8 KB L1, 64 KB L2.
        assert_eq!(profile.cache_size(1), Some(8 * KB));
        assert_eq!(profile.cache_size(2), Some(64 * KB));
        // Private caches on tiny_smp.
        assert!(!profile.shared_caches.as_ref().unwrap().any_shared());
        // One memory overhead class (single FSB).
        assert_eq!(profile.memory.as_ref().unwrap().num_classes(), 1);
        // Four communication layers.
        assert_eq!(profile.communication.as_ref().unwrap().num_layers(), 4);
        // Probe size followed the detected L1.
        assert_eq!(profile.communication.as_ref().unwrap().probe_size, 8 * KB);
        // Timings all positive, total consistent; no micro probes ran.
        let t = &report.timings;
        assert!(t.cache_size_s > 0.0);
        assert_eq!(t.micro_probes_s, 0.0);
        assert!(t.shared_caches_s > 0.0);
        assert!(t.memory_overhead_s > 0.0);
        assert!(t.communication_s > 0.0);
        assert!(
            (t.total_s()
                - (t.cache_size_s
                    + t.micro_probes_s
                    + t.shared_caches_s
                    + t.memory_overhead_s
                    + t.communication_s))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn false_sharing_stage_annotates_its_span_with_coherence_traffic() {
        let mut p = SimPlatform::tiny().with_noise(0.0);
        let cfg = SuiteConfig {
            skip_comm: true,
            skip_memory: true,
            run_false_sharing: true,
            ..SuiteConfig::small(128 * KB)
        };
        let (_report, manifest) = run_suite(&mut p, &cfg);
        let fs = manifest
            .spans
            .iter()
            .find(|s| s.name == "suite.false_sharing")
            .expect("false-sharing stage span missing");
        let note = fs
            .annotation
            .as_deref()
            .expect("false-sharing span must carry its coherence traffic");
        assert!(note.starts_with("coh inv="), "unexpected annotation {note}");
        // Private-traversal stages generate no coherence traffic, so
        // their spans stay unannotated.
        let cs = manifest
            .spans
            .iter()
            .find(|s| s.name == "suite.cache_size")
            .unwrap();
        assert_eq!(cs.annotation, None);
    }

    #[test]
    fn micro_probes_are_timed_apart_from_the_cache_size_stage() {
        let cfg = SuiteConfig {
            skip_comm: true,
            ..SuiteConfig::small(128 * KB)
        };
        let without = run_full_suite(&mut SimPlatform::tiny().with_noise(0.0), &cfg);
        let with_micro = run_full_suite(
            &mut SimPlatform::tiny().with_noise(0.0),
            &SuiteConfig {
                run_micro: true,
                ..cfg
            },
        );
        assert_eq!(without.timings.micro_probes_s, 0.0);
        assert!(with_micro.timings.micro_probes_s > 0.0);
        // Table I's cache-size row must not absorb the micro-probe time:
        // the platform clock is virtual and noise-free, so the stage cost
        // is identical with and without the probes.
        assert!(
            (with_micro.timings.cache_size_s - without.timings.cache_size_s).abs()
                < 1e-9 * without.timings.cache_size_s.max(1.0),
            "cache_size_s {} vs {}",
            with_micro.timings.cache_size_s,
            without.timings.cache_size_s
        );
    }

    #[test]
    fn comm_probe_size_fallback_is_recorded() {
        // A sweep capped below the L1 size detects no cache levels, so the
        // comm stage cannot use a detected L1 as its probe size and must
        // fall back to the configured default — and say so.
        let mut p = SimPlatform::tiny_cluster().with_noise(0.0);
        let cfg = SuiteConfig {
            skip_shared: true,
            skip_memory: true,
            ..SuiteConfig::small(2 * KB)
        };
        let report = run_full_suite(&mut p, &cfg);
        assert!(
            report.profile.cache_levels.is_empty(),
            "expected no detected levels, got {:?}",
            report.profile.cache_levels
        );
        let comm = report.profile.communication.as_ref().unwrap();
        assert!(comm.probe_size_fallback);
        assert_eq!(comm.probe_size, cfg.comm.probe_size);
    }

    #[test]
    fn invalid_sweep_config_is_a_recorded_fallback() {
        // `run_suite` keeps its signature, so a sweep that fails
        // `McalibratorConfig::validate` measures nothing and says so; the
        // later stages run on as they do when no level is detected.
        let mut p = SimPlatform::tiny_cluster().with_noise(0.0);
        let cfg = SuiteConfig {
            mcalibrator: McalibratorConfig {
                linear_step: 0,
                ..McalibratorConfig::small(256 * KB)
            },
            ..SuiteConfig::small(256 * KB)
        };
        let (report, manifest) = run_suite(&mut p, &cfg);
        assert!(report.profile.mcalibrator.as_ref().unwrap().is_empty());
        assert!(report.profile.cache_levels.is_empty());
        assert_eq!(manifest.counters["mcalibrator.invalid_config"], 1);
        assert_eq!(manifest.counters["mcalibrator.samples"], 0);
        assert!(report.profile.communication.unwrap().probe_size_fallback);
    }

    #[test]
    fn detected_probe_size_is_not_flagged_as_fallback() {
        let mut p = SimPlatform::tiny_cluster().with_noise(0.003);
        let report = run_full_suite(&mut p, &SuiteConfig::small(256 * KB));
        let comm = report.profile.communication.as_ref().unwrap();
        assert!(!comm.probe_size_fallback);
        assert_eq!(comm.probe_size, 8 * KB);
    }

    #[test]
    fn run_suite_returns_an_exact_manifest() {
        let mut p = SimPlatform::tiny().with_noise(0.0);
        let cfg = SuiteConfig {
            skip_comm: true,
            ..SuiteConfig::small(128 * KB)
        };
        let (report, manifest) = run_suite(&mut p, &cfg);
        assert_eq!(manifest.machine, report.profile.machine);
        // Exactly this run's spans: one suite root, regardless of what
        // other tests in the process record concurrently.
        assert_eq!(
            manifest.spans.iter().filter(|s| s.name == "suite").count(),
            1
        );
        assert!(manifest.spans.iter().any(|s| s.name == "suite.cache_size"));
        assert!(
            manifest.counters.get("mcalibrator.samples").copied() >= Some(1),
            "{:?}",
            manifest.counters
        );
        // Satellite record: the coherence bus latencies travel with the
        // manifest so a zoo run is reproducible from it alone.
        assert!(manifest.coherence.is_some());
        assert_eq!(manifest.coherence, p.coherence_params());
    }

    #[test]
    fn unicore_machine_skips_parallel_stages() {
        let mut p = SimPlatform::athlon3200().with_noise(0.002);
        let cfg = SuiteConfig {
            mcalibrator: McalibratorConfig {
                max_size: 4 * 1024 * 1024,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = run_full_suite(&mut p, &cfg);
        let profile = &report.profile;
        assert_eq!(profile.cache_size(1), Some(64 * KB));
        assert_eq!(profile.cache_size(2), Some(512 * KB));
        assert!(profile.shared_caches.is_none());
        assert!(profile.memory.is_none());
        assert!(profile.communication.is_none());
        assert_eq!(report.timings.shared_caches_s, 0.0);
    }

    #[test]
    fn skip_flags_respected() {
        let mut p = SimPlatform::tiny_cluster().with_noise(0.0);
        let cfg = SuiteConfig {
            skip_shared: true,
            skip_memory: true,
            skip_comm: true,
            ..SuiteConfig::small(256 * KB)
        };
        let report = run_full_suite(&mut p, &cfg);
        assert!(report.profile.shared_caches.is_none());
        assert!(report.profile.memory.is_none());
        assert!(report.profile.communication.is_none());
    }

    #[test]
    fn false_sharing_stage_fills_the_profile_without_touching_other_stages() {
        let cfg = SuiteConfig {
            skip_comm: true,
            ..SuiteConfig::small(128 * KB)
        };
        let without = run_full_suite(&mut SimPlatform::tiny().with_noise(0.003), &cfg);
        let with_fs = run_full_suite(
            &mut SimPlatform::tiny().with_noise(0.003),
            &SuiteConfig {
                run_false_sharing: true,
                ..cfg
            },
        );
        assert!(without.profile.false_sharing.is_none());
        assert_eq!(without.timings.false_sharing_s, 0.0);
        let fs = with_fs.profile.false_sharing.as_ref().unwrap();
        assert!(
            fs.advised_padding.unwrap_or(0) >= 64,
            "advised padding {:?} below the 64 B line",
            fs.advised_padding
        );
        assert!(with_fs.timings.false_sharing_s > 0.0);
        // The miss decomposition rides along, one entry per level.
        let decomp = &with_fs
            .profile
            .shared_caches
            .as_ref()
            .unwrap()
            .miss_decomposition;
        assert_eq!(decomp.len(), with_fs.profile.cache_levels.len());
        // The coherence stage runs after every paper stage, so their
        // noisy measurements are identical with and without it.
        assert_eq!(with_fs.profile.cache_levels, without.profile.cache_levels);
        assert_eq!(with_fs.profile.mcalibrator, without.profile.mcalibrator);
        assert_eq!(
            with_fs.profile.shared_caches.as_ref().unwrap().levels,
            without.profile.shared_caches.as_ref().unwrap().levels
        );
    }

    #[test]
    fn unicore_machine_skips_the_false_sharing_stage() {
        let mut p = SimPlatform::athlon3200().with_noise(0.002);
        let cfg = SuiteConfig {
            run_false_sharing: true,
            mcalibrator: McalibratorConfig {
                max_size: 4 * 1024 * 1024,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = run_full_suite(&mut p, &cfg);
        assert!(report.profile.false_sharing.is_none());
        assert_eq!(report.timings.false_sharing_s, 0.0);
    }

    #[test]
    fn report_serializes() {
        let mut p = SimPlatform::tiny().with_noise(0.0);
        let cfg = SuiteConfig {
            skip_comm: true,
            ..SuiteConfig::small(128 * KB)
        };
        let report = run_full_suite(&mut p, &cfg);
        let json = serde_json::to_string(&report).unwrap();
        let back: SuiteReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
