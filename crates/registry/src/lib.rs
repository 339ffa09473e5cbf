//! # servet-registry
//!
//! The serving layer over Servet machine profiles. The paper's workflow
//! (§IV-E) measures a machine **once** and lets every autotuned code
//! consult the result; this crate turns that file-on-disk convention into
//! a long-lived, concurrent service:
//!
//! * [`digest`] — a dependency-free SHA-256; profiles are keyed by the
//!   digest of their canonical JSON.
//! * [`store`] — the content-addressed on-disk store with atomic writes
//!   and a named-alias index (`"dunnington"` → digest).
//! * [`cache`] — a sharded `RwLock` in-memory cache with hit/miss/
//!   eviction counters, used for parsed profiles and memoized advice.
//! * [`advice`] — the `servet-autotune` consumers (`advise_memory_threads`,
//!   `select_tile`, `select_broadcast`) behind one serde query/outcome
//!   type, memoized per `(digest, query)` — content addressing makes
//!   answers immortal.
//! * [`tune`] — search-based tuning sessions (the `servet-tune`
//!   strategies over the profile-oracle cost model), memoized per
//!   `(digest, space digest, options)` so a session is computed once per
//!   stored profile, ever.
//! * [`registry`] — store + caches behind a single request dispatch.
//! * [`protocol`] — the newline-delimited JSON wire types (documented in
//!   `DESIGN.md`).
//! * [`poll`] / [`conn`] — the std-only event-loop substrate: a
//!   readiness [`poll::Poller`] chosen by the target (epoll through
//!   libc's own entry points on Linux, a scan poller elsewhere) and the
//!   per-connection [`conn::Conn`] state machine that buffers partial
//!   NDJSON lines across readiness events.
//! * [`server`] / [`client`] — an event-driven TCP server: one loop
//!   thread multiplexes every connection (10k+ sockets, `workers + 1`
//!   threads total) and feeds parsed request lines to a fixed worker
//!   pool over a bounded queue (idle deadlines in one heap with one
//!   entry per connection, a typed `busy:`
//!   rejection on overload at both admission and execution,
//!   drain-deadline shutdown); plus the blocking client used by
//!   `servet query`, and the reconnecting
//!   [`client::RetryingRegistryClient`] (decorrelated-jitter backoff)
//!   that `servet zoo` streams profiles through.
//!
//! Request handling is instrumented with per-operation latency histograms
//! (`servet-obs`), surfaced through the `stats` protocol command — see
//! [`protocol::OpLatency`] and `crates/registry/README.md` for the wire
//! format.
//!
//! ```no_run
//! use servet_registry::prelude::*;
//! use std::sync::Arc;
//!
//! let registry = Arc::new(Registry::open("/var/lib/servet")?);
//! let server = serve(registry, "127.0.0.1:7431", ServerConfig::default())?;
//! println!("serving on {}", server.addr());
//! server.join();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod advice;
pub mod cache;
pub mod client;
pub mod conn;
pub mod digest;
pub mod loadgen;
pub mod poll;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod store;
pub mod tune;

pub use advice::{compute_advice, AdviceEngine, AdviceOutcome, AdviceQuery};
pub use cache::{CacheStats, ShardedCache};
pub use client::{
    is_retryable, is_server_busy, Backoff, RegistryClient, RetryPolicy, RetryingRegistryClient,
};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use protocol::{
    busy_response, is_busy_error, AcceptStats, EventStats, OpLatency, Request, Response,
    ServerStats, BUSY_PREFIX,
};
pub use registry::{AcceptCounters, EventCounters, Registry};
pub use server::{serve, ServerConfig, ServerHandle};
pub use store::{canonical_json, profile_digest, ProfileStore, StoreEntry};
pub use tune::{TuneEngine, TuneQuery};

/// The common imports for serving and querying.
pub mod prelude {
    pub use crate::advice::{compute_advice, AdviceOutcome, AdviceQuery};
    pub use crate::client::{RegistryClient, RetryPolicy, RetryingRegistryClient};
    pub use crate::protocol::{Request, Response};
    pub use crate::registry::Registry;
    pub use crate::server::{serve, ServerConfig};
    pub use crate::store::profile_digest;
    pub use crate::tune::{TuneEngine, TuneQuery};
}
