//! End-to-end observability tests: a traced suite run produces a span
//! tree and a run manifest, and a live loopback server reports per-op
//! request-latency histograms through the extended `stats` protocol —
//! the library-level counterparts of `servet --trace suite` and
//! `servet query stats`.

use servet::core::{manifest_path, RunManifest, MANIFEST_VERSION};
use servet::prelude::*;
use servet::registry::{serve, AdviceQuery, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn traced_report() -> (servet::core::SuiteReport, SuiteConfig) {
    let mut platform = SimPlatform::tiny_cluster().with_noise(0.003);
    let config = SuiteConfig::small(256 * 1024);
    let report = run_full_suite(&mut platform, &config);
    (report, config)
}

/// The suite's instrumentation end to end: every stage span appears in
/// the global log, nested correctly, and the rendered tree names each
/// phase with a duration.
#[test]
fn suite_run_produces_a_phase_span_tree() {
    let (_report, _config) = traced_report();
    let spans = servet::obs::spans_snapshot();
    // Other tests in this binary run suites concurrently, so the global
    // log can hold several runs' records. Pick one completed `suite`
    // span and require each stage to appear *inside its interval* — a
    // run's own stages always do.
    let suite = spans
        .iter()
        .find(|s| s.name == "suite")
        .expect("suite span missing");
    let within = |name: &str| {
        spans.iter().find(|s| {
            s.name == name
                && s.depth == suite.depth + 1
                && s.start_ns >= suite.start_ns
                && s.start_ns + s.duration_ns <= suite.start_ns + suite.duration_ns
        })
    };
    for stage in [
        "suite.cache_size",
        "suite.shared_caches",
        "suite.memory_overhead",
        "suite.communication",
    ] {
        assert!(within(stage).is_some(), "{stage} not nested under suite");
    }
    // The sweep nests one level deeper, inside the cache-size stage.
    let cache_stage = within("suite.cache_size").unwrap();
    assert!(
        spans.iter().any(|s| s.name == "mcalibrator.sweep"
            && s.depth == cache_stage.depth + 1
            && s.start_ns >= cache_stage.start_ns),
        "mcalibrator.sweep not nested under suite.cache_size"
    );

    let tree = servet::obs::render_span_tree(&spans);
    assert!(tree.contains("suite.cache_size"), "{tree}");
    assert!(tree.lines().count() >= 5, "{tree}");

    // Counters moved too.
    assert!(servet::obs::counter("mcalibrator.samples").get() > 0);
    assert!(servet::obs::counter("cache_detect.candidates_scored").get() > 0);
}

/// The run manifest: captured from a report, saved next to the profile,
/// loaded back identical, with the measurement spans inside.
#[test]
fn manifest_saves_alongside_the_profile() {
    let (report, config) = traced_report();
    let dir = std::env::temp_dir().join(format!(
        "servet-it-manifest-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let profile_path = dir.join("tiny.json");
    report.profile.save(&profile_path).unwrap();

    let manifest = RunManifest::capture(&report, &config);
    let mpath = manifest_path(&profile_path);
    assert_eq!(mpath, dir.join("tiny.manifest.json"));
    manifest.save(&mpath).unwrap();

    let loaded = RunManifest::load(&mpath).unwrap();
    assert_eq!(loaded, manifest);
    assert_eq!(loaded.manifest_version, MANIFEST_VERSION);
    assert_eq!(loaded.machine, report.profile.machine);
    assert_eq!(loaded.config, config);
    assert!(loaded.spans.iter().any(|s| s.name == "suite"));
    assert!(loaded.counters.contains_key("mcalibrator.samples"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bracketed sweep's decision travels with the profile: how many
/// listed sizes it left out, and each bracket with why it closed.
#[test]
fn manifest_records_the_sweep_brackets() {
    // To 512 KB: the tiny machine's curve is still settling at 256 KB, so
    // a sweep that ends there has no plateau to leave out.
    let mut platform = SimPlatform::tiny_cluster().with_noise(0.003);
    let config = SuiteConfig::small(512 * 1024);
    let (_, manifest) = run_suite(&mut platform, &config);
    let (samples, skipped) = (
        manifest.counters["mcalibrator.samples"],
        manifest.counters["mcalibrator.sizes_skipped"],
    );
    assert!(skipped > 0, "{:?}", manifest.counters);
    assert_eq!(
        (samples + skipped) as usize,
        config.mcalibrator.sizes().len()
    );
    let sweep = manifest
        .spans
        .iter()
        .find(|s| s.name == "mcalibrator.sweep")
        .expect("the sweep's span");
    let brackets = sweep.annotation.as_deref().expect("brackets annotated");
    // One bracket from the 8 KB L1 through the 64 KB L2's smeared rise,
    // closed by the plateau behind it.
    assert!(
        brackets.starts_with("brackets: 8192..") && brackets.ends_with("(two flat steps)"),
        "{brackets}"
    );
}

/// The extended stats protocol over a live loopback server: after real
/// traffic, `stats` reports one latency digest per exercised op, and the
/// digests are internally consistent.
#[test]
fn served_stats_reports_per_op_latency_histograms() {
    let dir = std::env::temp_dir().join(format!(
        "servet-it-opstats-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(Registry::open(&dir).unwrap());
    let server = serve(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let (report, _config) = traced_report();
    let mut client = RegistryClient::connect(server.addr()).unwrap();
    client.put(&report.profile, Some("tiny")).unwrap();
    client.get_profile("tiny").unwrap();
    for _ in 0..3 {
        client
            .advise(
                "tiny",
                &AdviceQuery::Tile {
                    level: 1,
                    elem_size: 8,
                    matrices: 3,
                    occupancy: 0.75,
                },
            )
            .unwrap();
    }
    let stats = client.stats().unwrap();

    let op = |name: &str| {
        stats
            .ops
            .iter()
            .find(|o| o.op == name)
            .unwrap_or_else(|| panic!("no latency digest for {name}: {:?}", stats.ops))
    };
    assert_eq!(op("put").count, 1);
    assert_eq!(op("get").count, 1);
    assert_eq!(op("advise").count, 3);
    for name in ["put", "get", "advise"] {
        let o = op(name);
        assert!(o.min_ns <= o.max_ns, "{name}: {o:?}");
        assert!(
            o.p50_ns <= o.p99_ns && o.p99_ns <= o.max_ns,
            "{name}: {o:?}"
        );
        assert!(o.total_ns >= o.max_ns, "{name}: {o:?}");
        assert_eq!(
            o.buckets.iter().map(|&(_, n)| n).sum::<u64>(),
            o.count,
            "{name}: bucket counts must sum to the sample count"
        );
    }
    // The stats request itself records only after its response is built,
    // so the wire copy lacks a `stats` digest — but the in-process view
    // taken afterwards must have one.
    assert!(stats.ops.iter().all(|o| o.op != "stats"));
    let direct = registry.stats();
    assert!(direct.ops.iter().any(|o| o.op == "stats"));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
