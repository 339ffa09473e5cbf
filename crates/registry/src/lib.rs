//! # servet-registry
//!
//! The serving layer over Servet machine profiles. The paper's workflow
//! (§IV-E) measures a machine **once** and lets every autotuned code
//! consult the result; this crate turns that file-on-disk convention into
//! a long-lived, concurrent service:
//!
//! * [`digest`] — a dependency-free SHA-256; profiles are keyed by the
//!   digest of their canonical JSON.
//! * `store` — the content-addressed on-disk store with atomic writes
//!   and a named-alias index (`"dunnington"` → digest).
//! * `cache` — `Memo`, a single-lock FIFO map with hit/miss/
//!   eviction counters, used for parsed profiles, memoized advice and
//!   memoized tuning sessions.
//! * `advice` — the `servet-autotune` consumers (`advise_memory_threads`,
//!   `select_tile`, `select_broadcast`) behind one serde query/outcome
//!   type.
//! * `tune` — search-based tuning sessions (the `servet-tune`
//!   strategies over the profile-oracle cost model) behind one serde
//!   query type.
//! * `registry` — store + memos behind a single request dispatch: the
//!   registry memoizes advice per `(digest, resolved query)` and tuning
//!   sessions per `(digest, space digest, options)` — content addressing
//!   makes answers immortal, so each is computed once per stored profile.
//! * `protocol` — the newline-delimited JSON wire types (documented in
//!   `DESIGN.md`).
//! * `poll` / `conn` — the std-only event-loop substrate: a private
//!   readiness poller, which only the server waits on, chosen by the
//!   target (epoll through libc's own entry points on Linux, a scan
//!   poller elsewhere) and the per-connection `Conn` state
//!   machine that buffers partial NDJSON lines across readiness events.
//! * `server` / `client` — an event-driven TCP server: one loop
//!   thread multiplexes every connection (10k+ sockets, `workers + 1`
//!   threads total), answers what is already in memory and feeds the
//!   other parsed requests to a fixed worker pool over a bounded queue
//!   (idle deadlines in one heap with one
//!   entry per connection, one typed `busy:` line
//!   on overload at both admission and execution,
//!   drain-deadline shutdown); plus the blocking client used by
//!   `servet query`, and the reconnecting
//!   [`RetryingRegistryClient`] (decorrelated-jitter backoff)
//!   that `servet zoo` streams profiles through.
//!
//! Request handling is instrumented with per-operation latency histograms
//! (`servet-obs`), surfaced through the `stats` protocol command beside
//! the front end's counters, which the [`Registry`] owns and the server
//! bumps once per event — see [`OpLatency`], [`AcceptStats`],
//! [`EventStats`] and
//! `crates/registry/README.md` for the wire format.
//!
//! ```no_run
//! use servet_registry::{serve, Registry, ServerConfig};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(Registry::open("/var/lib/servet")?);
//! let server = serve(registry, "127.0.0.1:7431", ServerConfig::default())?;
//! println!("serving on {}", server.addr());
//! server.join();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

mod advice;
mod cache;
mod client;
mod conn;
pub mod digest;
pub mod loadgen;
mod poll;
mod protocol;
mod registry;
mod server;
mod store;
mod tune;

pub use advice::{compute_advice, AdviceOutcome, AdviceQuery};
pub use client::{RegistryClient, RetryPolicy, RetryingRegistryClient};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use protocol::{AcceptStats, EventStats, OpLatency, Request, Response, ServerStats};
pub use registry::Registry;
pub use server::{serve, ServerConfig, ServerHandle, MAX_LINE_BYTES};
pub use store::{canonical_json, profile_digest, StoreEntry};
pub use tune::{compute_tune, TuneQuery};
