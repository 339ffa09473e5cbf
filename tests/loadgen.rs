//! The serving claims no benchmark workload carries, checked against an
//! in-process server: a held connection plateau costs request traffic
//! nothing, the admission cap refuses exactly the connections beyond it,
//! and the reported throughput is the traffic's, not the hold's. Sizes
//! keep the tests, run side by side, under a 1024-descriptor soft limit
//! (each held connection is one client and one server socket).

use servet::registry::loadgen::{self, LoadgenConfig};
use servet::registry::{serve, Registry, ServerConfig, ServerHandle};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn start_server(tag: &str, max_conns: usize) -> (Arc<Registry>, ServerHandle, PathBuf) {
    let dir = std::env::temp_dir().join(format!("servet-it-loadgen-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(Registry::open(&dir).unwrap());
    let config = ServerConfig {
        max_conns,
        ..ServerConfig::default()
    };
    let server = serve(Arc::clone(&registry), "127.0.0.1:0", config).unwrap();
    (registry, server, dir)
}

/// 256 parked connections multiplexed on the event loop while 1000
/// closed-loop requests flow through the worker pool: nothing is
/// rejected, evicted or failed.
#[test]
fn held_plateau_with_request_traffic_is_clean() {
    let (registry, server, dir) = start_server("plateau", 1024);
    let report = loadgen::run(&LoadgenConfig {
        addr: server.addr(),
        conns: 256,
        ops: 1000,
        hold: Duration::from_millis(200),
        ..LoadgenConfig::default()
    })
    .unwrap();
    let server_side = registry.stats().accept;
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(report.clean(), "{report:?}");
    assert_eq!(report.conns_opened, 256);
    assert_eq!(report.busy_rejects, 0);
    assert_eq!(report.early_closes, 0);
    assert_eq!(report.ops_done, 1000);
    assert_eq!(report.latency.expect("ops were issued").count, 1000);
    assert_eq!(server_side.rejected, 0, "{server_side:?}");
}

/// The negative control: offer twice the admission cap and every
/// connection beyond it draws the `busy:` line — no more, no fewer.
#[test]
fn admission_cap_rejects_exactly_the_overflow() {
    let (registry, server, dir) = start_server("cap", 64);
    let report = loadgen::run(&LoadgenConfig {
        addr: server.addr(),
        conns: 128,
        hold: Duration::from_millis(500),
        ..LoadgenConfig::default()
    })
    .unwrap();
    let server_side = registry.stats().accept;
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(report.conns_opened, 128, "{report:?}");
    assert_eq!(report.busy_rejects, 64, "{report:?}");
    assert_eq!(report.early_closes, 0, "{report:?}");
    assert!(!report.clean());
    assert_eq!(server_side.accepted, 64, "{server_side:?}");
    assert_eq!(server_side.rejected, 64, "{server_side:?}");
}

/// Throughput counts the request traffic, not the hold after it: a few
/// hundred requests against a 2 s hold still read faster than
/// `ops_done / hold`, which is what timing the hold too gives at most.
#[test]
fn throughput_excludes_the_hold() {
    let (_registry, server, dir) = start_server("throughput", 64);
    let hold = Duration::from_secs(2);
    let report = loadgen::run(&LoadgenConfig {
        addr: server.addr(),
        conns: 4,
        ops: 300,
        hold,
        ..LoadgenConfig::default()
    })
    .unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(report.ops_done, 300, "{report:?}");
    assert!(report.elapsed_s >= hold.as_secs_f64(), "{report:?}");
    assert!(
        report.throughput_ops_per_s > report.ops_done as f64 / hold.as_secs_f64(),
        "{report:?}"
    );
}
