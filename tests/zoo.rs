//! Machine-zoo acceptance tests (ISSUE 6): the batched driver measures a
//! deterministic population of perturbed machines, scores detection
//! against ground truth, and streams every profile into a live registry.
//!
//! The bars promoted here from the crate-level unit tests:
//! * the report is a pure function of `(seed, machines)` — any worker
//!   count produces byte-identical `zoo_report.json`;
//! * cache-size detection stays ≥ 95% correct over a 64-machine zoo;
//! * a live loopback registry receives one profile per machine.

use servet::core::zoo::{run_zoo, ProfileSink, ZooConfig, ZooMachine};
use servet::core::{RunManifest, SuiteReport};
use servet::prelude::*;
use servet::registry::{serve, RetryPolicy, RetryingRegistryClient, ServerConfig};
use std::io;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn zoo_report_is_a_pure_function_of_seed_and_population() {
    let a = run_zoo(&ZooConfig::new(10, 1, 42), |_| Ok(None)).unwrap();
    let b = run_zoo(&ZooConfig::new(10, 3, 42), |_| Ok(None)).unwrap();
    assert_eq!(a, b, "worker count leaked into the report");
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "zoo_report.json differs across worker counts"
    );

    let c = run_zoo(&ZooConfig::new(10, 3, 43), |_| Ok(None)).unwrap();
    let names = |r: &servet::core::zoo::ZooReport| {
        r.per_machine
            .iter()
            .map(|m| m.name.clone())
            .collect::<Vec<_>>()
    };
    assert_ne!(names(&a), names(&c), "seed had no effect on the population");
}

#[test]
fn sixty_four_machine_zoo_hits_the_accuracy_bar() {
    let report = run_zoo(&ZooConfig::new(64, 8, 42), |_| Ok(None)).unwrap();
    assert_eq!(report.machines, 64);
    assert_eq!(report.per_machine.len(), 64);

    let acc = &report.accuracy;
    assert!(
        acc.cache_size_accuracy() >= 0.95,
        "cache-size detection accuracy {:.3} below the 0.95 bar \
         ({} of {} sizes correct over {} machines)",
        acc.cache_size_accuracy(),
        acc.cache_sizes_correct,
        acc.cache_sizes_total,
        acc.machines
    );
    // Exact, not a bar: the Fig. 5 ratio and array size are consts, and
    // this population puts pair ratios close enough to 2 that moving the
    // ratio to 2.1 reads 51 of 64.
    assert_eq!((acc.sharing_correct, acc.sharing_total), (56, 64));
    // A machine that fell back to the configured comm probe size must be
    // counted as a fallback, never silently scored as a detection.
    for row in &report.per_machine {
        if row.eval.probe_size_fallback {
            assert_eq!(row.eval.detected_levels, 0, "fallback with levels detected");
        }
    }
    // Per-run scope purity at population scale: every manifest carries
    // its own suite span tree, none is empty, none absorbed a sibling's.
    for row in &report.per_machine {
        assert!(
            row.manifest_spans >= 1,
            "machine {} produced an empty manifest",
            row.name
        );
    }
    // Stage timings aggregate only stages that actually ran.
    assert!(report.stage_times.contains_key("cache_size"));
    assert!(!report.stage_times.contains_key("memory_overhead"));
    // The false-sharing stage runs zoo-wide: every machine is scored,
    // and the advised padding covers the machine's true line size even
    // under coherence-latency perturbation (the classification counts
    // MESI invalidations, which noise and latency scaling cannot move).
    assert_eq!(
        acc.padding_total, 64,
        "false-sharing stage skipped machines"
    );
    assert!(
        acc.padding_accuracy() >= 0.95,
        "padding advice accuracy {:.3} below the 0.95 bar ({} of {})",
        acc.padding_accuracy(),
        acc.padding_correct,
        acc.padding_total
    );
    assert!(report.stage_times.contains_key("false_sharing"));
}

/// The MB-range member (ISSUE 10): a perturbed `mb_smp` — 32 KB L1 over
/// a 2 MB shared L2 — runs the full zoo suite with the wide mcalibrator
/// sweep. Affordable only on the packed fast-path engine; the generous
/// wall-clock bound is there to catch a throughput regression that would
/// make MB-range sweeps unaffordable again, not to time the machine.
#[test]
fn mb_range_machine_completes_its_sweep_within_budget() {
    let mut cfg = ZooConfig::new(0, 1, 42);
    cfg.mb_machines = 1;
    let start = std::time::Instant::now();
    let report = run_zoo(&cfg, |_| Ok(None)).unwrap();
    let wall = start.elapsed();

    assert_eq!(report.machines, 1);
    let row = &report.per_machine[0];
    assert_eq!(row.base, "mb_smp");
    assert_eq!(row.eval.true_levels, 2);
    assert!(
        row.eval
            .level_sizes
            .iter()
            .any(|(_, true_size, _)| *true_size >= 1024 * 1024),
        "perturbed mb_smp lost its MB-range level: {:?}",
        row.eval.level_sizes
    );
    // The sweep must actually produce its stage-time lines — the
    // cache-size row is the expensive one, and the coherence extension
    // must have run too.
    assert!(
        report.stage_times.contains_key("cache_size"),
        "no cache_size stage-time line: {:?}",
        report.stage_times.keys().collect::<Vec<_>>()
    );
    assert!(report.stage_times.contains_key("false_sharing"));
    assert!(
        row.timings.cache_size_s > 0.0,
        "cache-size sweep reported zero virtual time"
    );
    assert!(
        wall < Duration::from_secs(120),
        "MB-range sweep took {wall:?} — fast-path regression?"
    );
}

/// The sink the `servet zoo` CLI uses, reduced to its essentials: each
/// worker owns a retrying client and puts every measured profile under
/// the machine's (unique) perturbed name.
struct TestSink {
    client: RetryingRegistryClient,
}

impl ProfileSink for TestSink {
    fn publish(
        &mut self,
        machine: &ZooMachine,
        report: &SuiteReport,
        _manifest: &RunManifest,
    ) -> io::Result<()> {
        self.client
            .with_retry(|c| c.put(&report.profile, Some(&machine.spec.name)))
            .map(|_| ())
    }
}

#[test]
fn zoo_streams_one_profile_per_machine_into_a_live_registry() {
    const MACHINES: usize = 8;
    let dir = std::env::temp_dir().join(format!(
        "servet-zoo-it-{}-{:?}",
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
            // A deliberately tight pool so the zoo's fan-in exercises
            // the busy/retry path now and then.
            workers: 2,
            backlog: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let report = run_zoo(&ZooConfig::new(MACHINES, 4, 7), |_worker| {
        Ok(Some(Box::new(TestSink {
            client: RetryingRegistryClient::new(addr, RetryPolicy::default()),
        }) as Box<dyn ProfileSink>))
    })
    .unwrap();
    assert_eq!(report.per_machine.len(), MACHINES);

    let mut client = RegistryClient::connect(addr).unwrap();
    let entries = client.list().unwrap();
    assert_eq!(
        entries.iter().flat_map(|e| e.aliases.iter()).count(),
        MACHINES,
        "each zoo machine must land under its own alias"
    );
    for row in &report.per_machine {
        assert!(
            entries.iter().any(|e| e.aliases.contains(&row.name)),
            "machine {} never reached the registry",
            row.name
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
