//! What `pipeline` and `suite_replay` share: one suite run on one of the
//! six machines, its output, and the per-layer metrics read from it.

use crate::machines::{fraction, Accuracy, MachineCase, DETECT_FLOOR};
use crate::metrics::Values;
use crate::platform::{CallNames, Traced};
use crate::timing::SlotSamples;
use crate::trace::{Profile, Tracer};
use servet_core::platform::Platform;
use servet_core::{run_suite, SuiteConfig, SuiteReport};
use std::collections::BTreeMap;

/// Span the benchmark puts around `run_suite`.
pub const RUN_SUITE: &str = "core.run_suite";

/// The suite's stages: the `RunManifest` span that carries the stage's
/// host time, the metric it feeds, and the metric of its simulated time.
const STAGES: [(&str, &str, &str); 5] = [
    (
        "suite.cache_size",
        "core.stage_cache_size_ms",
        "core.t1_cache_size_s",
    ),
    (
        "suite.shared_caches",
        "core.stage_shared_caches_ms",
        "core.t1_shared_caches_s",
    ),
    (
        "suite.memory_overhead",
        "core.stage_memory_overhead_ms",
        "core.t1_memory_overhead_s",
    ),
    (
        "suite.communication",
        "core.stage_communication_ms",
        "core.t1_communication_s",
    ),
    (
        "suite.false_sharing",
        "core.stage_false_sharing_ms",
        "core.t1_false_sharing_s",
    ),
];

/// What one suite run yields. The report and the counters are
/// deterministic per seed; the stage times are host time.
#[derive(Debug, Clone)]
pub struct SuiteOutput {
    pub report: SuiteReport,
    /// The run's own counters (`RunManifest.counters`).
    pub counters: BTreeMap<String, u64>,
    /// Host milliseconds of each of [`STAGES`], from `RunManifest.spans`.
    stage_ms: [f64; 5],
}

impl SuiteOutput {
    /// Whether the deterministic part equals `other`'s.
    pub fn same_results(&self, other: &SuiteOutput) -> bool {
        self.report == other.report && self.counters == other.counters
    }
}

/// Run `suite` on `platform` inside a [`RUN_SUITE`] span; in a traced
/// round every measurement call gets a span named from `names`.
pub fn run_one(
    platform: &mut dyn Platform,
    suite: &SuiteConfig,
    tracer: &mut Tracer,
    names: &'static CallNames,
) -> SuiteOutput {
    let (report, manifest) = tracer.span(RUN_SUITE, |t| {
        if t.enabled() {
            run_suite(&mut Traced::new(platform, t, names), suite)
        } else {
            run_suite(platform, suite)
        }
    });
    let mut stage_ms = [0.0; 5];
    for span in &manifest.spans {
        if let Some(at) = STAGES.iter().position(|s| s.0 == span.name) {
            stage_ms[at] += span.duration_ns as f64 / 1e6;
        }
    }
    SuiteOutput {
        report,
        counters: manifest.counters,
        stage_ms,
    }
}

/// Host time of each stage in each slot, one sample per checked round.
#[derive(Debug)]
pub struct StageSamples([SlotSamples; 5]);

impl StageSamples {
    pub fn new(slots: usize) -> Self {
        Self(std::array::from_fn(|_| SlotSamples::new(slots)))
    }

    /// One sample per stage: its host time summed over the suite runs
    /// the slot made.
    pub fn record(&mut self, slot: usize, outputs: &[SuiteOutput]) {
        for (stage, samples) in self.0.iter_mut().enumerate() {
            samples.0[slot].push(outputs.iter().map(|o| o.stage_ms[stage]).sum());
        }
    }
}

/// Detected cache levels must not fall under the frozen floor.
pub fn check_accuracy(cases: &[MachineCase], reference: &[&SuiteOutput]) -> Result<(), String> {
    let mut accuracy = Accuracy::default();
    for (case, output) in cases.iter().zip(reference) {
        accuracy.add(&case.spec, &output.report);
    }
    if accuracy.levels_correct < DETECT_FLOOR {
        return Err(format!(
            "only {} of {} cache levels detected correctly, floor is {DETECT_FLOOR}",
            accuracy.levels_correct, accuracy.levels
        ));
    }
    Ok(())
}

/// The `core.*` metrics both suite workloads report: `run_suite`'s self
/// time and platform calls from the spans, stage host times, and the
/// exact figures of the reference round (Table I in simulated seconds,
/// candidates scored, detection accuracy).
pub fn layer_metrics(
    cases: &[MachineCase],
    reference: &[&SuiteOutput],
    stages: &StageSamples,
    profile: &Profile,
    call_names: &CallNames,
    values: &mut Values,
) {
    values.set("core.self_ms", profile.self_ms(RUN_SUITE));
    let mut distinct: Vec<&str> = call_names.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    values.set(
        "core.platform_calls",
        distinct
            .iter()
            .map(|name| profile.calls_per_round(name))
            .sum(),
    );
    let mut accuracy = Accuracy::default();
    let mut candidates = 0;
    let mut simulated = [0.0; 5];
    for (case, output) in cases.iter().zip(reference) {
        accuracy.add(&case.spec, &output.report);
        candidates += output
            .counters
            .get("cache_detect.candidates_scored")
            .copied()
            .unwrap_or(0);
        let t = &output.report.timings;
        let stages = [
            t.cache_size_s,
            t.shared_caches_s,
            t.memory_overhead_s,
            t.communication_s,
            t.false_sharing_s,
        ];
        for (sum, s) in simulated.iter_mut().zip(stages) {
            *sum += s;
        }
    }
    values.set("core.candidates_scored", candidates as f64);
    for (at, (_, host, table1)) in STAGES.iter().enumerate() {
        values.set(host, stages.0[at].fast_sum());
        values.set(table1, simulated[at]);
    }
    values.set(
        "core.detect_accuracy",
        fraction(accuracy.levels_correct, accuracy.levels),
    );
    values.set(
        "core.sharing_accuracy",
        fraction(accuracy.sharing_correct, accuracy.sharing),
    );
    values.set(
        "core.padding_accuracy",
        fraction(accuracy.padding_correct, accuracy.padding),
    );
}
