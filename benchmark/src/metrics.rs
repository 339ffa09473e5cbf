//! The names every later issue uses: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root is exactly what [`describe`] prints (a test holds them equal);
//! README.md is the glossary.

use serde::Serialize;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 24;

/// The command the driver runs, from the root of a checkout.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// A workload's name and the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "pipeline",
        "six machines, spec to suite to profile to put/advise/tune over loopback: the simulator is at least 90% of it at MB and KB cache scale",
    ),
    (
        "suite_replay",
        "the same six suites against a recording of the platform: core and stats do all the work, sim none - the cost of the analysis on real hardware",
    ),
    (
        "tune_search",
        "four search strategies against the simulator oracle: multi-job trace replay is 99% of it, a simulator path pipeline never takes",
    ),
    (
        "registry_session",
        "one closed-loop client, one cold 756-request session per round on one CPU: the serving layer alone, writes beside reads, memo misses beside hits",
    ),
];

/// Whether a larger value of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::{Higher, Lower};

/// End-to-end metrics: name, unit, direction, and the share of the
/// parent's median by which the value may worsen.
pub const END_TO_END: [(&str, &str, Better, f64); 3] = [
    ("setup_s", "s", Lower, 0.25),
    ("round_p10_ms", "ms", Lower, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.10),
];

/// Per-layer metrics: name (layer = crate), unit, direction. Every traced
/// run prints all of them; a layer the workload does not touch reads 0.
pub const PER_LAYER: [(&str, &str, Better); 98] = [
    // sim: platform-call spans inside run_suite (per round), slot times,
    // oracle evaluations, and direct replays of BENCH_sim's traces.
    ("sim.traverse_ms", "ms", Lower),
    ("sim.traverse_calls", "count", Lower),
    ("sim.traverse_concurrent_ms", "ms", Lower),
    ("sim.traverse_concurrent_calls", "count", Lower),
    ("sim.traverse_pattern_ms", "ms", Lower),
    ("sim.copy_bandwidth_ms", "ms", Lower),
    ("sim.shared_stream_ms", "ms", Lower),
    ("sim.machine_new_us", "us", Lower),
    ("sim.suite_dempsey_ms", "ms", Lower),
    ("sim.suite_zoo_kb_ms", "ms", Lower),
    ("sim.oracle_eval_ms", "ms", Lower),
    ("sim.oracle_evals", "count", Lower),
    ("sim.replay_private_macc_per_s", "Macc/s", Higher),
    ("sim.replay_shared_coherent_macc_per_s", "Macc/s", Higher),
    ("sim.replay_blocked_shared_macc_per_s", "Macc/s", Higher),
    ("sim.l1_misses", "count", Lower),
    ("sim.l2_misses", "count", Lower),
    ("sim.invalidations", "count", Lower),
    ("sim.writebacks", "count", Lower),
    // net: the closed-form interconnect model — the no-change control.
    ("net.message_ms", "ms", Lower),
    ("net.message_calls", "count", Lower),
    ("net.concurrent_message_ms", "ms", Lower),
    ("net.concurrent_message_calls", "count", Lower),
    ("net.send_latency_ns", "ns", Lower),
    ("net.bcast_model_us", "us", Lower),
    // core and stats: the suite's own analysis.
    ("core.self_ms", "ms", Lower),
    ("core.platform_calls", "count", Lower),
    ("core.candidates_scored", "count", Lower),
    ("core.stage_cache_size_ms", "ms", Lower),
    ("core.stage_shared_caches_ms", "ms", Lower),
    ("core.stage_memory_overhead_ms", "ms", Lower),
    ("core.stage_communication_ms", "ms", Lower),
    ("core.stage_false_sharing_ms", "ms", Lower),
    ("core.fit_window_us", "us", Lower),
    ("core.profile_json_us", "us", Lower),
    ("stats.sf_single_us", "us", Lower),
    ("stats.sf_curve_64_us", "us", Lower),
    // Simulated seconds (the paper's Table I) and detection accuracy:
    // exact per seed, moved by no host-time optimisation.
    ("core.t1_cache_size_s", "s", Lower),
    ("core.t1_shared_caches_s", "s", Lower),
    ("core.t1_memory_overhead_s", "s", Lower),
    ("core.t1_communication_s", "s", Lower),
    ("core.t1_false_sharing_s", "s", Lower),
    ("core.detect_accuracy", "frac", Higher),
    ("core.sharing_accuracy", "frac", Higher),
    ("core.padding_accuracy", "frac", Higher),
    // autotune: the analytic advice.
    ("autotune.advice_battery_us", "us", Lower),
    ("autotune.analytic_config_us", "us", Lower),
    // tune: the search sessions.
    ("tune.session_ms.exhaustive", "ms", Lower),
    ("tune.session_ms.line", "ms", Lower),
    ("tune.session_ms.neighborhood", "ms", Lower),
    ("tune.session_ms.monte-carlo", "ms", Lower),
    ("tune.self_ms", "ms", Lower),
    ("tune.evaluations", "count", Lower),
    ("tune.parity", "count", Higher),
    ("tune.profile_oracle_eval_us", "us", Lower),
    ("tune.scorer_scaling_w2", "ratio", Higher),
    // registry: slot time per request, the server's own histograms,
    // in-process handling, and the pieces under a request.
    ("registry.start_us", "us", Lower),
    ("registry.put_new_us", "us", Lower),
    ("registry.get_cold_us", "us", Lower),
    ("registry.get_warm_us", "us", Lower),
    ("registry.advise_miss_us", "us", Lower),
    ("registry.advise_hit_us", "us", Lower),
    ("registry.tune_miss_us", "us", Lower),
    ("registry.tune_hit_us", "us", Lower),
    ("registry.put_again_us", "us", Lower),
    ("registry.list_us", "us", Lower),
    ("registry.stats_us", "us", Lower),
    ("registry.shutdown_us", "us", Lower),
    ("registry.server_put_us_p50", "us", Lower),
    ("registry.server_get_us_p50", "us", Lower),
    ("registry.server_advise_us_p50", "us", Lower),
    ("registry.server_tune_us_p50", "us", Lower),
    ("registry.server_list_us_p50", "us", Lower),
    ("registry.handle_get_us", "us", Lower),
    ("registry.handle_put_us", "us", Lower),
    ("registry.handle_advise_hit_us", "us", Lower),
    ("registry.wire_overhead_us", "us", Lower),
    ("registry.canonical_json_us", "us", Lower),
    ("registry.profile_parse_us", "us", Lower),
    ("registry.sha256_mb_per_s", "MB/s", Higher),
    ("registry.bytes_per_req", "B", Lower),
    ("registry.requests", "count", Higher),
    ("registry.busy_rejects", "count", Lower),
    ("registry.advice_memo_hit_frac", "frac", Higher),
    ("registry.profile_cache_hit_frac", "frac", Higher),
    ("registry.unpinned_round_ms", "ms", Lower),
    ("registry.pipeline_wire_ms", "ms", Lower),
    // obs: the floor under every suite stage.
    ("obs.span_ns", "ns", Lower),
    ("obs.histogram_record_ns", "ns", Lower),
    // harness: the run itself.
    ("harness.rounds", "count", Higher),
    ("harness.slots", "count", Higher),
    ("harness.round_p50_ms", "ms", Lower),
    ("harness.round_p90_ms", "ms", Lower),
    ("harness.round_mean_ms", "ms", Lower),
    ("harness.ops_per_s", "1/s", Higher),
    ("harness.setup_repeats", "count", Higher),
    ("harness.trace_overhead_frac", "frac", Lower),
    ("harness.trace_coverage_frac", "frac", Higher),
];

#[derive(Serialize)]
struct WorkloadEntry {
    name: &'static str,
    why: &'static str,
}

#[derive(Serialize)]
struct EndToEndEntry {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
}

#[derive(Serialize)]
struct PerLayerEntry {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
}

#[derive(Serialize)]
struct Description {
    command: Vec<&'static str>,
    paths: Vec<&'static str>,
    run_seconds: u64,
    workloads: Vec<WorkloadEntry>,
    end_to_end: Vec<EndToEndEntry>,
    per_layer: Vec<PerLayerEntry>,
}

fn word(better: Better) -> &'static str {
    match better {
        Lower => "lower",
        Higher => "higher",
    }
}

/// The contents of `BENCHMARK.json`.
pub fn describe() -> String {
    let description = Description {
        command: COMMAND.to_vec(),
        paths: vec!["benchmark"],
        run_seconds: RUN_SECONDS,
        workloads: WORKLOADS
            .iter()
            .map(|&(name, why)| WorkloadEntry { name, why })
            .collect(),
        end_to_end: END_TO_END
            .iter()
            .map(|&(name, unit, better, bound)| EndToEndEntry {
                name,
                unit,
                better: word(better),
                bound,
            })
            .collect(),
        per_layer: PER_LAYER
            .iter()
            .map(|&(name, unit, better)| PerLayerEntry {
                name,
                unit,
                better: word(better),
            })
            .collect(),
    };
    let mut json = serde_json::to_string_pretty(&description).expect("description serializes");
    json.push('\n');
    json
}

/// The values of one run, by metric name.
#[derive(Debug, Default)]
pub struct Values(std::collections::BTreeMap<&'static str, f64>);

impl Values {
    /// Set `name`; panics on a name that is in neither table, so a typo
    /// cannot print a metric `BENCHMARK.json` does not declare.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, 0 when the workload never set it.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_is_what_the_tables_print() {
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            describe(),
            "regenerate with `servet-benchmark --describe`"
        );
    }

    #[test]
    fn tables_meet_the_contract() {
        let mut names = BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in all {
            assert!(names.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for unit in units {
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for (name, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {} chars",
                why.len()
            );
        }
        for (name, _, _, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{name}");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == Lower));
        assert!(PER_LAYER.len() <= 128);
        assert!(describe().len() <= 64 * 1024);
    }
}
