//! The registry proper: the content-addressed store fronted by a sharded
//! parsed-profile cache and the memoizing advice engine, behind a single
//! [`Registry::handle`] dispatch that the TCP server, the CLI, and the
//! tests all share.

use crate::advice::{AdviceEngine, AdviceQuery};
use crate::cache::ShardedCache;
use crate::protocol::{AcceptStats, EventStats, OpLatency, Request, Response, ServerStats};
use crate::store::{ProfileStore, StoreEntry};
use crate::tune::{TuneEngine, TuneQuery};
use servet_core::profile::MachineProfile;
use servet_obs::Histogram;
use servet_tune::TuneOutcome;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-operation handling-latency histograms, owned by the registry (not
/// the process-global `servet-obs` metrics) so concurrently running
/// registries — tests, embedded servers — never mix their numbers.
#[derive(Debug, Default)]
struct OpMetrics {
    put: Histogram,
    get: Histogram,
    list: Histogram,
    advise: Histogram,
    tune: Histogram,
    stats: Histogram,
}

impl OpMetrics {
    fn histogram(&self, request: &Request) -> &Histogram {
        match request {
            Request::Put { .. } => &self.put,
            Request::Get { .. } => &self.get,
            Request::List => &self.list,
            Request::Advise { .. } => &self.advise,
            Request::Tune { .. } => &self.tune,
            Request::Stats => &self.stats,
        }
    }

    /// Wire digests for every operation seen so far, in protocol order.
    fn snapshot(&self) -> Vec<OpLatency> {
        [
            ("put", &self.put),
            ("get", &self.get),
            ("list", &self.list),
            ("advise", &self.advise),
            ("tune", &self.tune),
            ("stats", &self.stats),
        ]
        .into_iter()
        .filter(|(_, h)| !h.is_empty())
        .map(|(op, h)| OpLatency::from_snapshot(op, &h.snapshot()))
        .collect()
    }
}

/// Live accept-path counters, owned by the registry so the `stats`
/// operation can report the serving layer's health next to the per-op
/// latency digests. The TCP front end increments them; an in-process
/// registry simply reports zeros.
///
/// Under the event-driven front end `accepted`/`rejected` count
/// *connections* (admission), while the queue-depth pair tracks
/// *requests* waiting in the bounded worker queue — a connection is no
/// longer queued as a unit of work, its parsed request lines are.
#[derive(Debug, Default)]
pub struct AcceptCounters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_max: AtomicU64,
    drain_killed: AtomicU64,
}

impl AcceptCounters {
    /// A connection passed admission and now multiplexes on the event
    /// loop.
    pub fn conn_admitted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was turned away — at admission (`max_conns` live
    /// connections already) or because the request queue was full when
    /// its request arrived. Either way the peer got the one-line
    /// `busy:` rejection and a close.
    pub fn conn_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A request is about to be offered to the worker queue. Counted
    /// into the depth *before* the offer so a racing worker's
    /// [`Self::request_dequeued`] can never underflow it.
    pub fn request_enqueued(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    /// A worker took a queued request into service.
    pub fn request_dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// The queue was full ([`Self::request_enqueued`] already ran): roll
    /// the depth back; the caller also counts the connection rejected.
    pub fn request_rejected(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// A connection was killed for overstaying the shutdown drain
    /// grace period.
    pub fn drain_killed(&self) {
        self.drain_killed.fetch_add(1, Ordering::Relaxed);
    }

    /// Current values as the wire struct.
    pub fn snapshot(&self) -> AcceptStats {
        AcceptStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_max: self.queue_depth_max.load(Ordering::Relaxed),
            drain_killed: self.drain_killed.load(Ordering::Relaxed),
        }
    }
}

/// Live event-loop counters, owned by the registry for the same reason
/// as [`AcceptCounters`]: concurrently running registries must never
/// mix their numbers through process globals.
#[derive(Debug, Default)]
pub struct EventCounters {
    ready_events: AtomicU64,
    wakeups: AtomicU64,
    partial_reads: AtomicU64,
    deadline_kills: AtomicU64,
    oversized_rejected: AtomicU64,
    conns_open: AtomicU64,
    conns_peak: AtomicU64,
}

impl EventCounters {
    /// `n` readiness events came back from one poller wait.
    pub fn ready(&self, n: u64) {
        self.ready_events.fetch_add(n, Ordering::Relaxed);
    }

    /// The loop was woken by the wake channel (completion or shutdown).
    pub fn wakeup(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// A read pass buffered bytes without completing a line.
    pub fn partial_read(&self) {
        self.partial_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was killed by its read/idle deadline.
    pub fn deadline_kill(&self) {
        self.deadline_kills.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was closed for an oversized request line.
    pub fn oversized(&self) {
        self.oversized_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was registered with the event loop.
    pub fn conn_opened(&self) {
        let open = self.conns_open.fetch_add(1, Ordering::Relaxed) + 1;
        self.conns_peak.fetch_max(open, Ordering::Relaxed);
    }

    /// A connection was deregistered.
    pub fn conn_closed(&self) {
        self.conns_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current values as the wire struct.
    pub fn snapshot(&self) -> EventStats {
        EventStats {
            ready_events: self.ready_events.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            partial_reads: self.partial_reads.load(Ordering::Relaxed),
            deadline_kills: self.deadline_kills.load(Ordering::Relaxed),
            oversized_rejected: self.oversized_rejected.load(Ordering::Relaxed),
            conns_open: self.conns_open.load(Ordering::Relaxed),
            conns_peak: self.conns_peak.load(Ordering::Relaxed),
        }
    }
}

/// What [`Registry::advise`] and [`Registry::tune`] return: `None` for an
/// unknown key, otherwise the profile's digest, the outcome or the
/// engine's refusal, and whether it was a memo hit.
pub type Answer<T> = io::Result<Option<(String, Result<T, String>, bool)>>;

/// A profile registry over one store directory.
pub struct Registry {
    store: ProfileStore,
    /// digest → parsed profile, so repeated advice/get on hot profiles
    /// skips disk and JSON parsing.
    profiles: ShardedCache<String, Arc<MachineProfile>>,
    advice: AdviceEngine,
    tuner: TuneEngine,
    requests: AtomicU64,
    ops: OpMetrics,
    accept: AcceptCounters,
    events: EventCounters,
}

impl Registry {
    /// Open a registry rooted at `dir` with default cache geometry.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self {
            store: ProfileStore::open(dir)?,
            profiles: ShardedCache::new(8, 64),
            advice: AdviceEngine::new(),
            tuner: TuneEngine::new(),
            requests: AtomicU64::new(0),
            ops: OpMetrics::default(),
            accept: AcceptCounters::default(),
            events: EventCounters::default(),
        })
    }

    /// The underlying store.
    pub fn store(&self) -> &ProfileStore {
        &self.store
    }

    /// The accept-path counters the TCP front end maintains.
    pub fn accept_counters(&self) -> &AcceptCounters {
        &self.accept
    }

    /// The event-loop counters the TCP front end maintains.
    pub fn event_counters(&self) -> &EventCounters {
        &self.events
    }

    /// Store a profile (optionally aliased); returns its digest.
    pub fn put(&self, profile: MachineProfile, name: Option<&str>) -> io::Result<String> {
        let digest = self.store.put(&profile)?;
        if let Some(name) = name {
            self.store.alias(name, &digest)?;
        }
        self.profiles.insert(digest.clone(), Arc::new(profile));
        Ok(digest)
    }

    /// Resolve `key` and fetch its profile, serving hot digests from the
    /// in-memory cache.
    pub fn get(&self, key: &str) -> io::Result<Option<(String, Arc<MachineProfile>)>> {
        let Some(digest) = self.store.resolve(key)? else {
            return Ok(None);
        };
        if let Some(profile) = self.profiles.get(&digest) {
            return Ok(Some((digest, profile)));
        }
        let profile = Arc::new(self.store.load(&digest)?);
        self.profiles.insert(digest.clone(), Arc::clone(&profile));
        Ok(Some((digest, profile)))
    }

    /// List the stored profiles.
    pub fn list(&self) -> io::Result<Vec<StoreEntry>> {
        self.store.list()
    }

    /// Advice for the profile under `key`; the bool reports a memo hit.
    pub fn advise(&self, key: &str, query: &AdviceQuery) -> Answer<crate::advice::AdviceOutcome> {
        let Some((digest, profile)) = self.get(key)? else {
            return Ok(None);
        };
        let (outcome, cached) = self.advice.advise(&digest, &profile, query);
        Ok(Some((digest, outcome, cached)))
    }

    /// Run (or recall) a tuning session for the profile under `key`; the
    /// bool reports a memo hit.
    pub fn tune(&self, key: &str, query: &TuneQuery) -> Answer<TuneOutcome> {
        let Some((digest, profile)) = self.get(key)? else {
            return Ok(None);
        };
        let (outcome, cached) = self.tuner.tune(&digest, &profile, query);
        Ok(Some((digest, outcome, cached)))
    }

    /// Counter snapshot, including per-operation latency digests.
    pub fn stats(&self) -> ServerStats {
        ServerStats::from_caches(
            self.store.len().unwrap_or(0),
            self.requests.load(Ordering::Relaxed),
            self.advice.stats(),
            self.profiles.stats(),
            self.ops.snapshot(),
            self.accept.snapshot(),
            self.events.snapshot(),
        )
    }

    /// Handle one protocol request — the single dispatch shared by the
    /// TCP server and in-process callers. Never panics on bad input;
    /// failures become [`Response::Error`]. Handling time is recorded
    /// into the per-operation latency histograms that [`Self::stats`]
    /// reports.
    pub fn handle(&self, request: Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let histogram = self.ops.histogram(&request);
        let start = Instant::now();
        let response = self.dispatch(request);
        histogram.record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        response
    }

    fn dispatch(&self, request: Request) -> Response {
        match request {
            Request::Put { profile, name } => {
                // Verify the content round-trips under our schema before
                // accepting it (rejects too-new schema versions too).
                if profile.schema_version > servet_core::profile::SCHEMA_VERSION {
                    return Response::Error {
                        error: format!(
                            "profile schema_version {} is newer than the supported version {}",
                            profile.schema_version,
                            servet_core::profile::SCHEMA_VERSION
                        ),
                    };
                }
                match self.put(*profile, name.as_deref()) {
                    Ok(digest) => Response::Stored { digest },
                    Err(e) => Response::Error {
                        error: e.to_string(),
                    },
                }
            }
            Request::Get { key } => match self.get(&key) {
                Ok(Some((digest, profile))) => Response::Profile {
                    digest,
                    profile: Box::new((*profile).clone()),
                },
                Ok(None) => Response::Error {
                    error: format!("no profile matches {key:?}"),
                },
                Err(e) => Response::Error {
                    error: e.to_string(),
                },
            },
            Request::List => match self.list() {
                Ok(entries) => Response::Listing { entries },
                Err(e) => Response::Error {
                    error: e.to_string(),
                },
            },
            Request::Advise { key, query } => match self.advise(&key, &query) {
                Ok(Some((digest, Ok(outcome), cached))) => Response::Advice {
                    digest,
                    cached,
                    outcome,
                },
                Ok(Some((_, Err(error), _))) => Response::Error { error },
                Ok(None) => Response::Error {
                    error: format!("no profile matches {key:?}"),
                },
                Err(e) => Response::Error {
                    error: e.to_string(),
                },
            },
            Request::Tune { key, query } => match self.tune(&key, &query) {
                Ok(Some((digest, Ok(outcome), cached))) => Response::Tuned {
                    digest,
                    cached,
                    outcome,
                },
                Ok(Some((_, Err(error), _))) => Response::Error { error },
                Ok(None) => Response::Error {
                    error: format!("no profile matches {key:?}"),
                },
                Err(e) => Response::Error {
                    error: e.to_string(),
                },
            },
            Request::Stats => Response::Stats {
                stats: self.stats(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::profile_digest;
    use servet_core::suite::{run_full_suite, SuiteConfig};
    use servet_core::SimPlatform;

    fn measured_profile() -> MachineProfile {
        let mut platform = SimPlatform::tiny_cluster().with_noise(0.003);
        run_full_suite(&mut platform, &SuiteConfig::small(256 * 1024)).profile
    }

    fn temp_registry(tag: &str) -> Registry {
        let dir =
            std::env::temp_dir().join(format!("servet-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Registry::open(dir).unwrap()
    }

    #[test]
    fn handle_covers_the_protocol() {
        let registry = temp_registry("handle");
        let profile = measured_profile();
        let digest = profile_digest(&profile);

        let resp = registry.handle(Request::Put {
            profile: Box::new(profile.clone()),
            name: Some("tiny".into()),
        });
        assert_eq!(
            resp,
            Response::Stored {
                digest: digest.clone()
            }
        );

        match registry.handle(Request::Get { key: "tiny".into() }) {
            Response::Profile {
                digest: d,
                profile: p,
            } => {
                assert_eq!(d, digest);
                assert_eq!(*p, profile);
            }
            other => panic!("unexpected {other:?}"),
        }

        match registry.handle(Request::List) {
            Response::Listing { entries } => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].aliases, vec!["tiny".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }

        let advise = Request::Advise {
            key: "tiny".into(),
            query: AdviceQuery::Tile {
                level: 1,
                elem_size: 8,
                matrices: 3,
                occupancy: 0.75,
            },
        };
        match registry.handle(advise.clone()) {
            Response::Advice { cached, .. } => assert!(!cached),
            other => panic!("unexpected {other:?}"),
        }
        match registry.handle(advise) {
            Response::Advice { cached, .. } => assert!(cached),
            other => panic!("unexpected {other:?}"),
        }

        match registry.handle(Request::Stats) {
            Response::Stats { stats } => {
                assert_eq!(stats.profiles, 1);
                assert_eq!(stats.advice_hits, 1);
                assert!(stats.requests >= 5);
                // Every exercised operation has a latency digest.
                let op = |name: &str| stats.ops.iter().find(|o| o.op == name);
                for name in ["put", "get", "list", "advise"] {
                    let entry = op(name).unwrap_or_else(|| panic!("no digest for {name}"));
                    assert!(entry.count >= 1);
                    assert!(entry.max_ns >= entry.min_ns);
                    assert!(entry.p99_ns >= entry.p50_ns);
                    assert!(!entry.buckets.is_empty());
                }
                // This Stats request itself is still in flight, so `stats`
                // may or may not appear; it must once a second one lands.
                assert_eq!(op("ghost"), None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match registry.handle(Request::Stats) {
            Response::Stats { stats } => {
                let entry = stats.ops.iter().find(|o| o.op == "stats").unwrap();
                assert!(entry.count >= 1);
            }
            other => panic!("unexpected {other:?}"),
        }

        match registry.handle(Request::Get {
            key: "ghost".into(),
        }) {
            Response::Error { error } => assert!(error.contains("ghost")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn accept_counters_track_depth_and_high_water() {
        let registry = temp_registry("accept");
        let c = registry.accept_counters();
        assert_eq!(c.snapshot(), AcceptStats::default());
        // Three connections admitted, each with a request queued...
        for _ in 0..3 {
            c.conn_admitted();
            c.request_enqueued();
        }
        // ...one request taken by a worker, then a fourth connection's
        // request finds the queue full (roll back + conn rejection) and
        // a drain kill lands during shutdown.
        c.request_dequeued();
        c.request_enqueued();
        c.request_rejected();
        c.conn_rejected();
        c.drain_killed();
        let snap = c.snapshot();
        assert_eq!(snap.accepted, 3);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.queue_depth, 2);
        assert_eq!(snap.queue_depth_max, 3);
        assert_eq!(snap.drain_killed, 1);
        // And the stats surface carries them.
        assert_eq!(registry.stats().accept, snap);
    }

    #[test]
    fn event_counters_track_open_high_water() {
        let registry = temp_registry("events");
        let c = registry.event_counters();
        assert_eq!(c.snapshot(), crate::protocol::EventStats::default());
        c.conn_opened();
        c.conn_opened();
        c.conn_closed();
        c.conn_opened();
        c.ready(5);
        c.wakeup();
        c.partial_read();
        c.deadline_kill();
        c.oversized();
        let snap = c.snapshot();
        assert_eq!(snap.conns_open, 2);
        assert_eq!(snap.conns_peak, 2);
        assert_eq!(snap.ready_events, 5);
        assert_eq!(snap.wakeups, 1);
        assert_eq!(snap.partial_reads, 1);
        assert_eq!(snap.deadline_kills, 1);
        assert_eq!(snap.oversized_rejected, 1);
        assert_eq!(registry.stats().events, snap);
    }

    #[test]
    fn tune_dispatch_memoizes_and_reports_latency() {
        use servet_tune::{Strategy, TuneOptions};
        let registry = temp_registry("tune");
        registry.put(measured_profile(), Some("tiny")).unwrap();
        let request = Request::Tune {
            key: "tiny".into(),
            query: TuneQuery {
                space: None,
                options: TuneOptions::new(Strategy::Line),
                n: 64,
            },
        };
        let first = match registry.handle(request.clone()) {
            Response::Tuned {
                cached, outcome, ..
            } => {
                assert!(!cached, "first session computes");
                outcome
            }
            other => panic!("unexpected {other:?}"),
        };
        match registry.handle(request) {
            Response::Tuned {
                cached, outcome, ..
            } => {
                assert!(cached, "second identical session is memoized");
                assert_eq!(outcome, first);
            }
            other => panic!("unexpected {other:?}"),
        }
        match registry.handle(Request::Stats) {
            Response::Stats { stats } => {
                let op = stats.ops.iter().find(|o| o.op == "tune").expect("tune op");
                assert_eq!(op.count, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unknown key: typed error, not a panic.
        match registry.handle(Request::Tune {
            key: "ghost".into(),
            query: TuneQuery {
                space: None,
                options: TuneOptions::new(Strategy::MonteCarlo),
                n: 64,
            },
        }) {
            Response::Error { error } => assert!(error.contains("ghost")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn too_new_profile_is_refused() {
        let registry = temp_registry("schema");
        let mut profile = measured_profile();
        profile.schema_version = servet_core::profile::SCHEMA_VERSION + 1;
        match registry.handle(Request::Put {
            profile: Box::new(profile),
            name: None,
        }) {
            Response::Error { error } => assert!(error.contains("newer"), "{error}"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
