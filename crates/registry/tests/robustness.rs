//! Malformed-input robustness: clients that lie, stall, vanish, or
//! flood must cost the server a bounded amount of memory and exactly
//! zero extra threads.
//!
//! Every test here reads raw wire bytes (no serializer in the client
//! path) because the server's own defensive replies — oversized-line
//! and `busy:` rejections — are hand-built lines, emitted even when no
//! JSON backend is available.

use servet_registry::{serve, Registry, ServerConfig, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn temp_registry(tag: &str) -> Arc<Registry> {
    let dir = std::env::temp_dir().join(format!("servet-robust-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Arc::new(Registry::open(dir).unwrap())
}

/// Poll `cond` until it holds or a 30 s deadline passes.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for: {what}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Count live threads of this process whose name starts with `prefix`.
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

#[test]
fn oversized_line_is_rejected_with_error_and_eof() {
    let registry = temp_registry("oversized");
    let server = serve(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Newline-free garbage one byte past the cap: an unterminated line
    // the server has read whole when it trips, so nothing is left unread
    // behind the refusal. The server must answer with a typed error,
    // then hang up.
    stream.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains(&format!("line exceeds {MAX_LINE_BYTES} bytes")),
        "want oversized rejection, got: {line:?}"
    );
    // And the connection is closed behind the error.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no bytes expected after the rejection");

    assert!(
        registry.stats().events.oversized_rejected >= 1,
        "oversized rejection must be counted"
    );
    wait_until("oversized conn reaped", || {
        registry.stats().events.conns_open == 0
    });
    server.shutdown();
}

#[test]
fn slow_loris_half_line_is_killed_at_the_idle_deadline() {
    let registry = temp_registry("loris");
    let server = serve(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Duration::from_millis(120),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Trickle a request prefix one byte at a time, then go quiet without
    // ever finishing the line. Each byte re-arms the deadline; silence
    // must not.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    for byte in b"{\"cmd\"" {
        stream.write_all(&[*byte]).unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut buf = Vec::new();
    // EOF (not a response): the half line was never dispatched.
    stream.read_to_end(&mut buf).unwrap();
    assert!(
        buf.is_empty(),
        "a never-completed line must not produce a reply, got {buf:?}"
    );

    let events = registry.stats().events;
    assert!(
        events.deadline_kills >= 1,
        "stalled connection must die by deadline, events: {events:?}"
    );
    assert!(
        events.partial_reads >= 1,
        "the trickle must register as partial reads, events: {events:?}"
    );
    wait_until("loris conn reaped", || {
        registry.stats().events.conns_open == 0
    });
    server.shutdown();
}

#[test]
fn half_open_peers_are_reaped_and_conns_drop_to_zero() {
    let registry = temp_registry("halfopen");
    let server = serve(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // A herd of clients that connect and then never speak. Hold the
    // sockets so the OS cannot deliver FINs — the server's only way out
    // is its own idle deadline.
    let silent: Vec<TcpStream> = (0..16)
        .map(|_| TcpStream::connect(server.addr()).unwrap())
        .collect();
    wait_until("all admitted", || registry.stats().events.conns_peak >= 16);
    wait_until("all reaped by deadline", || {
        registry.stats().events.conns_open == 0
    });
    let events = registry.stats().events;
    assert!(
        events.deadline_kills >= 16,
        "every silent conn must die by deadline, events: {events:?}"
    );
    drop(silent);
    server.shutdown();
}

#[test]
fn mid_request_disconnect_does_not_wedge_the_server() {
    let registry = temp_registry("middisc");
    let server = serve(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig {
            read_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Fire a complete request line and slam the connection before the
    // reply can land: the completion finds no connection and must be
    // dropped on the floor, not crash the loop.
    for _ in 0..8 {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"{\"cmd\":\"list\"}\n").unwrap();
        drop(stream);
    }
    wait_until("abandoned requests drained", || {
        let accept = registry.stats().accept;
        accept.accepted >= 8 && accept.queue_depth == 0
    });
    wait_until("abandoned conns reaped", || {
        registry.stats().events.conns_open == 0
    });

    // The server still serves: a fresh client gets a reply line (any
    // shape — this wire path asserts liveness, not content).
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"not json at all\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"reply\":\"error\""),
        "server must still answer after abandoned requests, got: {line:?}"
    );
    server.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn misbehaving_clients_never_grow_the_thread_count() {
    use std::sync::atomic::Ordering;

    let registry = temp_registry("threads");
    const WORKERS: usize = 2;
    let server = serve(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig {
            workers: WORKERS,
            read_timeout: Duration::from_millis(150),
            thread_prefix: "rob5".into(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let baseline = WORKERS + 1; // worker pool + the event loop
                                // Freshly spawned threads set their name from inside the thread
                                // body, so give the pool a moment to come up before counting.
    wait_until("server threads named", || {
        threads_with_prefix("rob5") == baseline
    });

    // Three flavors of abuse at once: instant disconnects, oversized
    // floods, and silent half-open peers.
    let flood = vec![b'y'; MAX_LINE_BYTES + 1];
    let mut held = Vec::new();
    for i in 0..24 {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        match i % 3 {
            0 => drop(stream),
            1 => {
                let _ = stream.write_all(&flood);
                held.push(stream);
            }
            _ => held.push(stream),
        }
        assert!(
            threads_with_prefix("rob5") <= baseline,
            "connection #{i} must not spawn a thread"
        );
    }
    // "No connection open" is also true before the event loop has accepted
    // the first one — and dropping `held` then would close the floods
    // unread. It means "all reaped" only once all 24 have been admitted.
    wait_until("all abusers admitted", || {
        registry.stats().accept.accepted >= 24
    });
    wait_until("abusers reaped", || registry.stats().events.conns_open == 0);
    let live = server.live_threads();
    assert_eq!(live.load(Ordering::SeqCst), baseline);
    wait_until("no thread beyond the pool", || {
        threads_with_prefix("rob5") == baseline
    });
    drop(held);

    let events = registry.stats().events;
    assert!(events.oversized_rejected >= 8, "events: {events:?}");
    server.shutdown();
    assert_eq!(live.load(Ordering::SeqCst), 0, "pool threads leaked");
    wait_until("threads gone after shutdown", || {
        threads_with_prefix("rob5") == 0
    });
}
