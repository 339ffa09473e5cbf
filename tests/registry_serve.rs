//! End-to-end serving tests: a live loopback `servet-registry` server,
//! exercised the way autotuned applications would use it — store a
//! measured profile once, then ask for advice from many concurrent
//! clients (ROADMAP north star: profiles served, not re-parsed).

use servet::prelude::*;
use servet::registry::{profile_digest, serve, AdviceOutcome, AdviceQuery, Response, ServerConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn measured_tiny_profile() -> MachineProfile {
    let mut platform = SimPlatform::tiny_cluster().with_noise(0.003);
    run_full_suite(&mut platform, &SuiteConfig::small(256 * 1024)).profile
}

fn start_server(tag: &str) -> (Arc<Registry>, servet::registry::ServerHandle, SocketAddr) {
    start_server_with(
        tag,
        ServerConfig {
            read_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    )
}

fn start_server_with(
    tag: &str,
    config: ServerConfig,
) -> (Arc<Registry>, servet::registry::ServerHandle, SocketAddr) {
    let dir = std::env::temp_dir().join(format!(
        "servet-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(Registry::open(&dir).unwrap());
    let server = serve(Arc::clone(&registry), "127.0.0.1:0", config).unwrap();
    let addr = server.addr();
    (registry, server, addr)
}

/// Count live threads of this process whose name starts with `prefix`
/// (the kernel truncates names to 15 bytes, so keep prefixes short).
#[cfg(target_os = "linux")]
fn threads_with_prefix(prefix: &str) -> usize {
    let mut count = 0;
    if let Ok(entries) = std::fs::read_dir("/proc/self/task") {
        for entry in entries.flatten() {
            if let Ok(name) = std::fs::read_to_string(entry.path().join("comm")) {
                if name.trim_end().starts_with(prefix) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// The acceptance smoke test: a simulated `tiny` profile served over
/// loopback answers `advise tile` and `advise bcast` *identically* to the
/// in-process CLI path.
#[test]
fn loopback_smoke_matches_in_process_advice() {
    let (_registry, server, addr) = start_server("smoke");
    let profile = measured_tiny_profile();

    let mut client = RegistryClient::connect(addr).unwrap();
    let digest = client.put(&profile, Some("tiny")).unwrap();
    assert_eq!(digest, profile_digest(&profile));

    // The profile itself round-trips the wire bit-for-bit.
    let (got_digest, got_profile) = client.get_profile("tiny").unwrap();
    assert_eq!(got_digest, digest);
    assert_eq!(got_profile, profile);

    let tile_query = AdviceQuery::Tile {
        level: 2,
        elem_size: 8,
        matrices: 3,
        occupancy: 0.75,
    };
    let bcast_query = AdviceQuery::Bcast {
        ranks: 0,
        bytes: 8 * 1024,
    };
    for query in [tile_query, bcast_query] {
        let in_process = compute_advice(&profile, &query).unwrap();
        let (_, _, over_the_wire) = client.advise("tiny", &query).unwrap();
        assert_eq!(
            over_the_wire, in_process,
            "wire and in-process advice must be identical for {query:?}"
        );
    }
    server.shutdown();
}

/// The second identical advise is served from the memoization cache,
/// observable through the exposed hit counter and the `cached` flag.
#[test]
fn repeated_advise_hits_the_memo_cache() {
    let (registry, server, addr) = start_server("memo");
    let profile = measured_tiny_profile();

    let mut client = RegistryClient::connect(addr).unwrap();
    client.put(&profile, Some("tiny")).unwrap();

    let query = AdviceQuery::Bcast {
        ranks: 0,
        bytes: 16 * 1024,
    };
    let hits_before = client.stats().unwrap().advice_hits;

    let (_, cached_first, first) = client.advise("tiny", &query).unwrap();
    assert!(!cached_first, "first query computes");
    let (_, cached_second, second) = client.advise("tiny", &query).unwrap();
    assert!(cached_second, "second identical query must be memoized");
    assert_eq!(first, second);

    let stats = client.stats().unwrap();
    assert!(
        stats.advice_hits > hits_before,
        "advice hit counter must increase: {stats:?}"
    );
    assert_eq!(registry.stats().advice_hits, stats.advice_hits);
    server.shutdown();
}

/// ≥ 8 concurrent client threads doing mixed put/get/advise against a
/// live loopback server, all of them checking their answers.
#[test]
fn hammer_mixed_operations_from_many_threads() {
    const THREADS: usize = 10;
    const ROUNDS: usize = 12;

    let (registry, server, addr) = start_server("hammer");
    let base = measured_tiny_profile();

    // Seed one shared profile every thread queries.
    RegistryClient::connect(addr)
        .unwrap()
        .put(&base, Some("shared"))
        .unwrap();
    let shared_tile = compute_advice(
        &base,
        &AdviceQuery::Tile {
            level: 1,
            elem_size: 8,
            matrices: 3,
            occupancy: 0.75,
        },
    )
    .unwrap();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let base = &base;
            let shared_tile = &shared_tile;
            s.spawn(move || {
                let mut client = RegistryClient::connect(addr).unwrap();
                for round in 0..ROUNDS {
                    // put: a thread-distinct variant of the profile.
                    let mut mine = base.clone();
                    mine.machine = format!("tiny-{t}");
                    let my_name = format!("tiny-{t}");
                    let my_digest = client.put(&mine, Some(&my_name)).unwrap();

                    // get: both the shared alias and my own.
                    let (_, got) = client.get_profile("shared").unwrap();
                    assert_eq!(&got, base, "thread {t} round {round}");
                    let (d, got_mine) = client.get_profile(&my_name).unwrap();
                    assert_eq!(d, my_digest);
                    assert_eq!(got_mine.machine, format!("tiny-{t}"));

                    // advise: answers must match the in-process path.
                    let (_, _, outcome) = client
                        .advise(
                            "shared",
                            &AdviceQuery::Tile {
                                level: 1,
                                elem_size: 8,
                                matrices: 3,
                                occupancy: 0.75,
                            },
                        )
                        .unwrap();
                    assert_eq!(&outcome, shared_tile, "thread {t} round {round}");

                    let (_, _, bcast) = client
                        .advise(
                            &my_name,
                            &AdviceQuery::Bcast {
                                ranks: 0,
                                bytes: 4096 * (1 + t),
                            },
                        )
                        .unwrap();
                    match bcast {
                        AdviceOutcome::Bcast { predictions, .. } => {
                            assert!(!predictions.is_empty())
                        }
                        other => panic!("thread {t}: unexpected {other:?}"),
                    }

                    // An unknown key is an error, not a hang or a panic.
                    match client.get("nonesuch").unwrap() {
                        Response::Error { .. } => {}
                        other => panic!("thread {t}: unexpected {other:?}"),
                    }
                }
            });
        }
    });

    let stats = registry.stats();
    // One shared profile + one per thread.
    assert_eq!(stats.profiles, 1 + THREADS);
    // Every thread re-asked the same shared tile query each round: after
    // a thread's first round, its queries must all hit the memo cache
    // (only first-round queries can race the initial computation).
    assert!(
        stats.advice_hits >= (THREADS * (ROUNDS - 1)) as u64,
        "expected heavy memoization, got {stats:?}"
    );
    let entries = registry.list().unwrap();
    assert_eq!(entries.len(), 1 + THREADS);
    assert!(entries
        .iter()
        .any(|e| e.aliases == vec!["shared".to_string()]));
    server.shutdown();
}

/// The worker-pool acceptance bar: 64 genuinely concurrent connections
/// (all connected before any issues a request) are every one served
/// correctly while the server runs exactly `workers + 1` threads, and
/// the per-op latency digests keep flowing.
#[test]
fn hammer_64_concurrent_connections_with_bounded_pool() {
    const CLIENTS: usize = 64;
    const WORKERS: usize = 8;
    let (registry, server, addr) = start_server_with(
        "pool64",
        ServerConfig {
            read_timeout: Duration::from_secs(30),
            workers: WORKERS,
            backlog: CLIENTS,
            thread_prefix: "hammer64".into(),
            ..ServerConfig::default()
        },
    );
    let base = measured_tiny_profile();
    RegistryClient::connect(addr)
        .unwrap()
        .put(&base, Some("shared"))
        .unwrap();

    let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let barrier = Arc::clone(&barrier);
            let base = &base;
            s.spawn(move || {
                let mut client = RegistryClient::connect(addr).unwrap();
                // Hold until all 64 connections are established so they
                // are genuinely concurrent, then do real work.
                barrier.wait();
                for _ in 0..3 {
                    let (_, got) = client.get_profile("shared").unwrap();
                    assert_eq!(&got, base);
                }
            });
        }

        // Sample the server's thread count while the storm is live: the
        // seed client plus all 64 have been admitted, yet the pool is
        // exactly workers + acceptor.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while registry.stats().accept.accepted < (CLIENTS + 1) as u64 {
            assert!(
                std::time::Instant::now() < deadline,
                "accept stalled: {:?}",
                registry.stats().accept
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        #[cfg(target_os = "linux")]
        assert_eq!(
            threads_with_prefix("hammer64"),
            WORKERS + 1,
            "server must not spawn per-connection threads"
        );
    });

    let stats = registry.stats();
    assert!(stats.accept.accepted >= (CLIENTS + 1) as u64);
    assert_eq!(stats.accept.rejected, 0, "backlog sized to fit: {stats:?}");
    assert!(stats.accept.queue_depth_max >= 1);
    let get_op = stats
        .ops
        .iter()
        .find(|o| o.op == "get")
        .expect("per-op latency digest for get");
    assert!(
        get_op.count >= (CLIENTS * 3) as u64,
        "expected ≥ {} gets, got {}",
        CLIENTS * 3,
        get_op.count
    );
    server.shutdown();
    #[cfg(target_os = "linux")]
    assert_eq!(threads_with_prefix("hammer64"), 0, "pool threads leaked");
}

/// Stale server sockets must not leak between tests: after shutdown the
/// port refuses further protocol exchanges.
#[test]
fn shutdown_stops_serving() {
    let (_registry, server, addr) = start_server("stop");
    let mut client = RegistryClient::connect(addr).unwrap();
    client.list().unwrap();
    server.shutdown();
    // Either the connect fails or the first call does; both prove the
    // server is gone.
    if let Ok(mut c) = RegistryClient::connect(addr) {
        c.set_timeout(Some(Duration::from_millis(500))).unwrap();
        assert!(c.list().is_err());
    }
}
