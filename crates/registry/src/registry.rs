//! The registry proper: the content-addressed store fronted by three
//! memos — parsed profiles, advice answers and tuning sessions — behind
//! a single [`Registry::handle`] dispatch that the TCP server, the CLI,
//! and the tests all share. [`Registry::handle_in_memory`] is the same
//! dispatch, restricted to the requests whose answer is already in
//! memory; it looks a tuning session up under the key the dispatch
//! stores it under.

use crate::advice::{compute_advice, AdviceOutcome, AdviceQuery};
use crate::cache::Memo;
use crate::digest::looks_like_digest;
use crate::protocol::{AcceptStats, EventStats, OpLatency, Request, Response, ServerStats};
use crate::store::{ProfileStore, StoreEntry};
use crate::tune::{search, TuneQuery};
use servet_core::profile::MachineProfile;
use servet_obs::Histogram;
use servet_tune::{ParamSpace, TuneOutcome};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The longest request line the server's event loop parses itself, and
/// the largest profile a `get` answered by [`Registry::handle_in_memory`]
/// carries: a bound on what one request may cost the loop thread, not a
/// protocol limit. Longer lines and larger profiles go to a worker.
pub(crate) const IN_MEMORY_BYTES: usize = 16 * 1024;

/// Parsed profiles the registry keeps in memory.
const PROFILE_MEMO: usize = 512;
/// Advice answers the registry keeps in memory.
const ADVICE_MEMO: usize = 4096;
/// Tuning sessions the registry keeps in memory.
const TUNE_MEMO: usize = 4096;

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

/// The TCP front end's counters, owned by the registry so the `stats`
/// operation reports the serving layer's state next to the per-op latency
/// digests, and so concurrently running registries never mix their
/// numbers through process globals. Each method is one event, called at
/// the one place in the server where it happens; an in-process registry
/// reports zeros.
#[derive(Debug, Default)]
pub(crate) struct FrontEnd {
    accepted: AtomicU64,
    rejected: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_max: AtomicU64,
    drain_killed: AtomicU64,
    ready_events: AtomicU64,
    wakeups: AtomicU64,
    answered_on_loop: AtomicU64,
    partial_reads: AtomicU64,
    deadline_kills: AtomicU64,
    oversized_rejected: AtomicU64,
    conns_open: AtomicU64,
    conns_peak: AtomicU64,
    socket_reads: AtomicU64,
    socket_writes: AtomicU64,
}

impl FrontEnd {
    /// A connection passed admission and now multiplexes on the event
    /// loop.
    pub(crate) fn admitted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let open = self.conns_open.fetch_add(1, Ordering::Relaxed) + 1;
        self.conns_peak.fetch_max(open, Ordering::Relaxed);
    }

    /// A connection was deregistered.
    pub(crate) fn closed(&self) {
        self.conns_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// A peer got the `busy:` line and a close: at admission (`max_conns`
    /// live connections already) or because the request queue was full.
    pub(crate) fn refused(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A request is about to be offered to the worker queue. Counted into
    /// the depth *before* the offer so a racing worker's
    /// [`Self::dequeued`] can never underflow it.
    pub(crate) fn enqueued(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    /// A request left the worker queue: a worker took it into service, or
    /// the offer failed.
    pub(crate) fn dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// A connection was killed for overstaying the shutdown drain grace
    /// period.
    pub(crate) fn drain_killed(&self) {
        self.drain_killed.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` readiness events came back from one poller wait.
    pub(crate) fn ready(&self, n: u64) {
        self.ready_events.fetch_add(n, Ordering::Relaxed);
    }

    /// The loop took `n` worker replies off its completion queue,
    /// including replies whose connection has died since.
    pub(crate) fn handoffs(&self, n: u64) {
        self.wakeups.fetch_add(n, Ordering::Relaxed);
    }

    /// The loop answered a request line itself, without a worker.
    pub(crate) fn answered_on_loop(&self) {
        self.answered_on_loop.fetch_add(1, Ordering::Relaxed);
    }

    /// A read pass buffered bytes without completing a line.
    pub(crate) fn partial_read(&self) {
        self.partial_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was killed by its read/idle deadline.
    pub(crate) fn deadline_kill(&self) {
        self.deadline_kills.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was closed for an oversized request line.
    pub(crate) fn oversized(&self) {
        self.oversized_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// One `read` call on a connection socket is about to be made.
    pub(crate) fn socket_read(&self) {
        self.socket_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// One `write` call on a connection socket is about to be made.
    pub(crate) fn socket_write(&self) {
        self.socket_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Current values as the two wire structs.
    fn snapshot(&self) -> (AcceptStats, EventStats) {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let accept = AcceptStats {
            accepted: load(&self.accepted),
            rejected: load(&self.rejected),
            queue_depth: load(&self.queue_depth),
            queue_depth_max: load(&self.queue_depth_max),
            drain_killed: load(&self.drain_killed),
        };
        let events = EventStats {
            ready_events: load(&self.ready_events),
            wakeups: load(&self.wakeups),
            answered_on_loop: load(&self.answered_on_loop),
            partial_reads: load(&self.partial_reads),
            deadline_kills: load(&self.deadline_kills),
            oversized_rejected: load(&self.oversized_rejected),
            conns_open: load(&self.conns_open),
            conns_peak: load(&self.conns_peak),
            socket_reads: load(&self.socket_reads),
            socket_writes: load(&self.socket_writes),
        };
        (accept, events)
    }
}

/// A parsed profile in the cache, with the byte length of its canonical
/// JSON — about what a `get` reply carrying it weighs.
#[derive(Clone)]
struct CachedProfile {
    profile: Arc<MachineProfile>,
    json_len: usize,
}

/// The advice memo's key: the digest and the serialized query, resolved
/// against the profile first so that equivalent queries share an entry.
fn advice_key(digest: &str, resolved: &AdviceQuery) -> String {
    let q = serde_json::to_string(resolved).expect("query serializes");
    format!("{digest}:{q}")
}

/// The tune memo's key and the space the session searches, or the
/// refusal the query draws. The key is the digest, the space digest and
/// a canonical rendering of every option that can change the result (no
/// serializer involved, so it is stable across serde versions), so an
/// explicit space equal to the omitted default shares its entry.
fn tune_key(
    digest: &str,
    profile: &MachineProfile,
    query: &TuneQuery,
) -> Result<(String, ParamSpace), String> {
    let space = query.space_for(profile)?;
    let o = &query.options;
    let key = format!(
        "{digest}:{}:{}:s{}:w{}:t{}:m{}:n{}",
        space.digest(),
        o.strategy.name(),
        o.seed,
        o.sweeps,
        o.steps,
        o.samples,
        query.n,
    );
    Ok((key, space))
}

/// A profile registry over one store directory.
pub struct Registry {
    store: ProfileStore,
    /// digest → parsed profile, so repeated advice/get on hot profiles
    /// skips disk and JSON parsing.
    profiles: Memo<String, CachedProfile>,
    /// [`advice_key`] → answer or refusal; content addressing makes
    /// answers immortal.
    advice: Memo<String, Result<AdviceOutcome, String>>,
    /// [`tune_key`] → session outcome; a refused query is never stored.
    pub(crate) tunes: Memo<String, TuneOutcome>,
    requests: AtomicU64,
    ops: OpMetrics,
    /// The TCP front end's counters; the server bumps them.
    pub(crate) front_end: FrontEnd,
}

impl Registry {
    /// Open a registry rooted at `dir` with the default memo capacities.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self {
            store: ProfileStore::open(dir)?,
            profiles: Memo::new(PROFILE_MEMO),
            advice: Memo::new(ADVICE_MEMO),
            tunes: Memo::new(TUNE_MEMO),
            requests: AtomicU64::new(0),
            ops: OpMetrics::default(),
            front_end: FrontEnd::default(),
        })
    }

    /// The underlying store.
    #[cfg(test)]
    pub(crate) fn store(&self) -> &ProfileStore {
        &self.store
    }

    /// Store a profile (optionally aliased); returns its digest.
    pub(crate) fn put(&self, profile: MachineProfile, name: Option<&str>) -> io::Result<String> {
        let (digest, json_len) = self.store.put(&profile)?;
        if let Some(name) = name {
            self.store.alias(name, &digest)?;
        }
        self.cache_profile(&digest, Arc::new(profile), json_len);
        Ok(digest)
    }

    fn cache_profile(&self, digest: &str, profile: Arc<MachineProfile>, json_len: usize) {
        self.profiles
            .insert(digest.to_string(), CachedProfile { profile, json_len });
    }

    /// Resolve `key` and fetch its profile, serving hot digests from the
    /// in-memory cache. An alias or a full digest whose profile is cached
    /// is answered from the cache without looking at the store directory:
    /// the cache is trusted, as [`Self::list`] trusts it, so a blob deleted
    /// or damaged behind a cached digest is not noticed until the profile
    /// leaves the cache or the registry is reopened. Any other key resolves
    /// through the store. Counts one profile-cache hit or miss for a key
    /// that names a stored profile, nothing for one that does not.
    pub(crate) fn get(&self, key: &str) -> io::Result<Option<(String, Arc<MachineProfile>)>> {
        let digest = match self.cached_profile(key) {
            Some((digest, _)) => digest,
            None => match self.store.resolve(key)? {
                Some(digest) => digest,
                None => return Ok(None),
            },
        };
        if let Some(cached) = self.profiles.get(&digest) {
            return Ok(Some((digest, cached.profile)));
        }
        let (profile, json_len) = self.store.load(&digest)?;
        let profile = Arc::new(profile);
        self.cache_profile(&digest, Arc::clone(&profile), json_len);
        Ok(Some((digest, profile)))
    }

    /// List the stored profiles. A profile in the cache is summarised from
    /// there, with the trust `Self::get` already places in the cache
    /// (its file is not re-read or re-hashed); only the others are loaded
    /// from disk. Listing counts no cache hit or miss and caches nothing.
    pub fn list(&self) -> io::Result<Vec<StoreEntry>> {
        self.store
            .list(|digest| self.profiles.peek(digest).map(|c| c.profile))
    }

    /// Counter snapshot, including per-operation latency digests.
    pub fn stats(&self) -> ServerStats {
        let advice = self.advice.stats();
        let profiles = self.profiles.stats();
        let (accept, events) = self.front_end.snapshot();
        ServerStats {
            profiles: self.store.len().unwrap_or(0),
            requests: self.requests.load(Ordering::Relaxed),
            advice_hits: advice.hits,
            advice_misses: advice.misses,
            advice_evictions: advice.evictions,
            profile_hits: profiles.hits,
            profile_misses: profiles.misses,
            ops: self.ops.snapshot(),
            accept,
            events,
        }
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

    /// [`Self::handle`], for a request whose answer needs no file contents
    /// and no search: a `get` or `advise` for a cached profile (a `get`
    /// only while the profile is within [`IN_MEMORY_BYTES`]), or a `tune`
    /// whose session is memoized. `advise` is closed-form and its rank
    /// counts are clamped to the profile, so its cost is bounded.
    ///
    /// Any other request — `put`, `list`, `stats`, an uncached profile, a
    /// search to run, a digest-prefix key (resolving one lists the store
    /// directory) — comes back untouched for [`Self::handle`] to run
    /// elsewhere, with nothing counted: requests, latency histograms and
    /// cache hits and misses count each request once, whichever way it
    /// goes. The check peeks at the caches; should an entry be evicted
    /// between the check and the dispatch, the request is still answered
    /// correctly, only from disk.
    pub(crate) fn handle_in_memory(&self, request: Request) -> Result<Response, Request> {
        let in_memory = match &request {
            Request::Get { key } => self
                .cached_profile(key)
                .is_some_and(|(_, cached)| cached.json_len <= IN_MEMORY_BYTES),
            Request::Advise { key, .. } => self.cached_profile(key).is_some(),
            Request::Tune { key, query } => {
                self.cached_profile(key).is_some_and(|(digest, cached)| {
                    tune_key(&digest, &cached.profile, query)
                        .is_ok_and(|(memo_key, _)| self.tunes.peek(&memo_key).is_some())
                })
            }
            Request::Put { .. } | Request::List | Request::Stats => false,
        };
        if in_memory {
            Ok(self.handle(request))
        } else {
            Err(request)
        }
    }

    /// The cached profile an alias or a full digest names, found without
    /// the store directory and without counting a cache hit or miss.
    fn cached_profile(&self, key: &str) -> Option<(String, CachedProfile)> {
        let digest = self
            .store
            .alias_target(key)
            .or_else(|| looks_like_digest(key).then(|| key.to_string()))?;
        let cached = self.profiles.peek(&digest)?;
        Some((digest, cached))
    }

    /// The reply about the profile `key` names: `answer`'s, or the error
    /// for a key that names no profile or a store that failed.
    fn about(
        &self,
        key: &str,
        answer: impl FnOnce(String, Arc<MachineProfile>) -> Response,
    ) -> Response {
        match self.get(key) {
            Ok(Some((digest, profile))) => answer(digest, profile),
            Ok(None) => Response::Error {
                error: format!("no profile matches {key:?}"),
            },
            Err(e) => Response::Error {
                error: e.to_string(),
            },
        }
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
            Request::Get { key } => self.about(&key, |digest, profile| Response::Profile {
                digest,
                profile: Box::new((*profile).clone()),
            }),
            Request::List => match self.list() {
                Ok(entries) => Response::Listing { entries },
                Err(e) => Response::Error {
                    error: e.to_string(),
                },
            },
            Request::Advise { key, query } => self.about(&key, |digest, profile| {
                let resolved = query.resolved(&profile);
                let memo_key = advice_key(&digest, &resolved);
                match self.advice.get_or_insert_with(memo_key, || {
                    let _span = servet_obs::span("advice.compute");
                    compute_advice(&profile, &resolved)
                }) {
                    (Ok(outcome), cached) => Response::Advice {
                        digest,
                        cached,
                        outcome,
                    },
                    (Err(error), _) => Response::Error { error },
                }
            }),
            Request::Tune { key, query } => self.about(&key, |digest, profile| {
                let (memo_key, space) = match tune_key(&digest, &profile, &query) {
                    Ok(session) => session,
                    Err(error) => return Response::Error { error },
                };
                let (outcome, cached) = self.tunes.get_or_insert_with(memo_key, || {
                    let _span = servet_obs::span("tune.compute");
                    search(&profile, &space, &query, 1)
                });
                Response::Tuned {
                    digest,
                    cached,
                    outcome,
                }
            }),
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
    use servet_core::SimPlatform;
    use servet_core::{run_full_suite, SuiteConfig};

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

    /// What `handle_in_memory` answers, and that what it hands back has
    /// counted nothing.
    #[test]
    fn handle_in_memory_answers_only_from_memory() {
        use servet_tune::{Strategy, TuneOptions};
        let dir = temp_registry("in-memory").store().dir().to_path_buf();
        let registry = Registry::open(&dir).unwrap();
        let profile = measured_profile();
        let digest = profile_digest(&profile);
        let get = |key: &str| Request::Get { key: key.into() };
        let tile = AdviceQuery::Tile {
            level: 1,
            elem_size: 8,
            matrices: 3,
            occupancy: 0.75,
        };
        let advise = Request::Advise {
            key: "tiny".into(),
            query: tile.clone(),
        };
        let tune = Request::Tune {
            key: digest.clone(),
            query: TuneQuery {
                space: None,
                options: TuneOptions::new(Strategy::Line),
                n: 64,
            },
        };
        // Handed back untouched, and nothing counted.
        let handed_back = |request: Request| {
            let (before, tunes) = (registry.stats(), registry.tunes.stats());
            assert_eq!(registry.handle_in_memory(request.clone()), Err(request));
            assert_eq!(registry.tunes.stats(), tunes);
            let after = registry.stats();
            assert_eq!((after.requests, after.ops), (before.requests, before.ops));
            assert_eq!(
                (after.profile_hits, after.profile_misses),
                (before.profile_hits, before.profile_misses)
            );
            assert_eq!(
                (after.advice_hits, after.advice_misses),
                (before.advice_hits, before.advice_misses)
            );
        };
        let put = Request::Put {
            profile: Box::new(profile.clone()),
            name: Some("tiny".into()),
        };
        for request in [get("tiny"), put.clone(), Request::List, Request::Stats] {
            handed_back(request);
        }
        registry.handle(put);

        // Alias and full digest resolve from memory; a prefix lists the
        // directory.
        for key in ["tiny", digest.as_str()] {
            assert_eq!(
                registry.handle_in_memory(get(key)),
                Ok(registry.handle(get(key)))
            );
        }
        handed_back(get(&digest[..12]));
        handed_back(get("ghost"));
        // Advice is closed-form: answered on a memo miss too.
        match registry.handle_in_memory(advise.clone()) {
            Ok(Response::Advice { cached, .. }) => assert!(!cached),
            other => panic!("unexpected {other:?}"),
        }
        // A search is not run here; a memoized one is recalled.
        handed_back(tune.clone());
        registry.handle(tune.clone());
        match registry.handle_in_memory(tune) {
            Ok(Response::Tuned { cached, .. }) => assert!(cached),
            other => panic!("unexpected {other:?}"),
        }

        // A profile past the size bound: its advice still, its get not.
        let mut big = profile.clone();
        big.machine = "x".repeat(IN_MEMORY_BYTES);
        registry.put(big, Some("big")).unwrap();
        handed_back(get("big"));
        assert!(registry
            .handle_in_memory(Request::Advise {
                key: "big".into(),
                query: tile,
            })
            .is_ok());

        // A fresh registry over the same store has nothing in memory
        // until a worker-side `handle` loads it.
        let reopened = Registry::open(&dir).unwrap();
        assert_eq!(reopened.handle_in_memory(get("tiny")), Err(get("tiny")));
        reopened.handle(get("tiny"));
        assert!(reopened.handle_in_memory(get("tiny")).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `list` summarises a cached profile from memory, as `get` serves it
    /// from memory: neither re-reads the file.
    #[test]
    fn list_trusts_the_profile_cache() {
        let registry = temp_registry("list-cache");
        let digest = registry.put(measured_profile(), Some("tiny")).unwrap();
        let entries = registry.list().unwrap();
        assert_eq!(entries[0].machine, measured_profile().machine);
        // Replace the file behind the cache's back with another profile.
        let mut impostor = measured_profile();
        impostor.machine = "impostor".into();
        let path = registry.store().dir().join(format!("{digest}.json"));
        std::fs::write(&path, crate::store::canonical_json(&impostor)).unwrap();
        assert_eq!(registry.list().unwrap(), entries);
        assert_eq!(registry.stats().profile_hits, 0, "listing counts no hit");
        // A registry that has to load it finds the corruption.
        let cold = Registry::open(registry.store().dir()).unwrap();
        let err = cold.list().unwrap_err();
        assert!(err.to_string().contains("corruption"), "{err}");
    }

    /// `get` and `advise` by a cached digest answer from the cache without
    /// looking for its file; a registry that has to find it does not.
    #[test]
    fn get_trusts_the_profile_cache() {
        let registry = temp_registry("get-cache");
        let digest = registry.put(measured_profile(), None).unwrap();
        std::fs::remove_file(registry.store().dir().join(format!("{digest}.json"))).unwrap();
        let hits = || registry.stats().profile_hits;
        let get = Request::Get {
            key: digest.clone(),
        };
        let advise = Request::Advise {
            key: digest.clone(),
            query: AdviceQuery::Tile {
                level: 1,
                elem_size: 8,
                matrices: 3,
                occupancy: 0.75,
            },
        };
        assert!(matches!(
            registry.handle(get.clone()),
            Response::Profile { digest: d, .. } if d == digest
        ));
        assert_eq!(hits(), 1);
        assert!(matches!(
            registry.handle(advise.clone()),
            Response::Advice { digest: d, .. } if d == digest
        ));
        assert_eq!(hits(), 2);
        assert_eq!(registry.stats().profile_misses, 0);

        let cold = Registry::open(registry.store().dir()).unwrap();
        for request in [get, advise] {
            match cold.handle(request) {
                Response::Error { error } => {
                    assert_eq!(error, format!("no profile matches {digest:?}"))
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let stats = cold.stats();
        assert_eq!((stats.profile_hits, stats.profile_misses), (0, 0));
    }

    #[test]
    fn accept_counters_track_depth_and_high_water() {
        let registry = temp_registry("accept");
        let front = &registry.front_end;
        assert_eq!(registry.stats().accept, AcceptStats::default());
        // Three connections admitted, each with a request queued...
        for _ in 0..3 {
            front.admitted();
            front.enqueued();
        }
        // ...one request taken by a worker, then another finds the queue
        // full (rolled back, its peer refused) and a drain kill lands
        // during shutdown.
        front.dequeued();
        front.enqueued();
        front.dequeued();
        front.refused();
        front.drain_killed();
        assert_eq!(
            registry.stats().accept,
            AcceptStats {
                accepted: 3,
                rejected: 1,
                queue_depth: 2,
                queue_depth_max: 3,
                drain_killed: 1,
            }
        );
    }

    #[test]
    fn event_counters_track_open_high_water() {
        let registry = temp_registry("events");
        let front = &registry.front_end;
        assert_eq!(registry.stats().events, EventStats::default());
        front.admitted();
        front.admitted();
        front.closed();
        front.admitted();
        front.ready(5);
        front.handoffs(1);
        front.answered_on_loop();
        front.partial_read();
        front.deadline_kill();
        front.oversized();
        front.socket_read();
        front.socket_read();
        front.socket_write();
        assert_eq!(
            registry.stats().events,
            EventStats {
                ready_events: 5,
                wakeups: 1,
                answered_on_loop: 1,
                partial_reads: 1,
                deadline_kills: 1,
                oversized_rejected: 1,
                conns_open: 2,
                conns_peak: 2,
                socket_reads: 2,
                socket_writes: 1,
            }
        );
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
