//! The registry wire protocol: newline-delimited JSON, one request and
//! one response per line.
//!
//! Requests are tagged by `"cmd"`, responses by `"reply"`; the payloads
//! reuse the exact serde types the rest of the workspace consumes
//! ([`MachineProfile`], [`AdviceQuery`], [`AdviceOutcome`],
//! [`StoreEntry`]), so an answer read off the wire is the same value the
//! in-process API returns. `DESIGN.md` documents the JSON shapes.

use crate::advice::{AdviceOutcome, AdviceQuery};
use crate::cache::CacheStats;
use crate::store::StoreEntry;
use crate::tune::TuneQuery;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use servet_core::profile::MachineProfile;
use servet_tune::TuneOutcome;
use std::io::{self, BufRead, Write};

/// Prefix of the [`Response::Error`] diagnostic written when the server
/// rejects a connection because its accept queue is full. Clients match
/// on this prefix (via [`is_busy_error`]) to tell "server overloaded,
/// retry with backoff" apart from a request the server actually refused.
pub const BUSY_PREFIX: &str = "busy:";

/// The error text of [`busy_response`], which the event loop also
/// hand-builds into a reply line with no serializer in the path.
pub(crate) const BUSY_ERROR: &str = "busy: accept queue full, retry with backoff";

/// The one-line rejection written (best effort) before the server closes
/// a connection it cannot queue.
pub fn busy_response() -> Response {
    Response::Error {
        error: BUSY_ERROR.into(),
    }
}

/// Whether a protocol-level error string is the server-busy rejection.
pub fn is_busy_error(error: &str) -> bool {
    error.starts_with(BUSY_PREFIX)
}

/// Whether a raw, still-unparsed reply line carries the server-busy
/// rejection. A string-level match on the error field: busy lines are
/// hand-built by the server (never routed through the JSON encoder), so
/// transports can classify a rejection before — or without — parsing.
pub fn is_busy_line(line: &str) -> bool {
    line.contains("\"error\":\"busy:")
}

/// A client request, one JSON object per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "cmd", rename_all = "snake_case")]
pub enum Request {
    /// Store a profile, optionally binding an alias to it.
    Put {
        /// The profile to store.
        profile: Box<MachineProfile>,
        /// Alias to bind to the stored digest.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        name: Option<String>,
    },
    /// Fetch a profile by alias, digest, or unique digest prefix.
    Get {
        /// Alias, digest, or unique digest prefix.
        key: String,
    },
    /// List every stored profile.
    List,
    /// Ask for autotuning advice against a stored profile.
    Advise {
        /// Alias, digest, or unique digest prefix.
        key: String,
        /// The advice query.
        query: AdviceQuery,
    },
    /// Run (or recall) a search-based tuning session against a stored
    /// profile.
    Tune {
        /// Alias, digest, or unique digest prefix.
        key: String,
        /// The tuning query: space (optional), strategy options, kernel
        /// size.
        query: TuneQuery,
    },
    /// Fetch server counters.
    Stats,
}

/// Per-operation request-latency digest reported by [`Response::Stats`].
///
/// One entry per protocol operation that has been exercised since server
/// startup, derived from a log2-bucketed `servet_obs::Histogram`. The
/// `buckets` field carries the raw `(upper_bound, count)` pairs so clients
/// can compute their own quantiles; old clients that predate this field
/// simply ignore it, and old servers that omit `ops` deserialize to an
/// empty vec.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpLatency {
    /// Operation name: `put`, `get`, `list`, `advise`, `tune`, or
    /// `stats`.
    pub op: String,
    /// Requests of this operation observed.
    pub count: u64,
    /// Total handling time, nanoseconds (saturating).
    pub total_ns: u64,
    /// Fastest observed request, nanoseconds.
    pub min_ns: u64,
    /// Slowest observed request, nanoseconds.
    pub max_ns: u64,
    /// Median latency estimate, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency estimate, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile latency estimate, nanoseconds. Defaults to
    /// zero when talking to servers that predate the field.
    #[serde(default)]
    pub p999_ns: u64,
    /// Non-empty log2 buckets as `(upper_bound, count)` pairs.
    #[serde(default)]
    pub buckets: Vec<(u64, u64)>,
}

impl OpLatency {
    /// Build the wire entry for `op` from a histogram snapshot.
    pub fn from_snapshot(op: &str, snap: &servet_obs::HistogramSnapshot) -> Self {
        Self {
            op: op.to_string(),
            count: snap.count,
            total_ns: snap.sum,
            min_ns: snap.min,
            max_ns: snap.max,
            p50_ns: snap.quantile(0.50),
            p99_ns: snap.quantile(0.99),
            p999_ns: snap.quantile(0.999),
            buckets: snap.buckets.clone(),
        }
    }
}

/// Accept-path counters reported by [`Response::Stats`]: how the TCP
/// front end's bounded worker pool is coping with its connection load.
///
/// All fields default to zero so replies from servers that predate the
/// worker pool (or from in-process registries that never serve TCP)
/// still parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AcceptStats {
    /// Connections handed to the worker pool since startup.
    #[serde(default)]
    pub accepted: u64,
    /// Connections dropped because the accept queue was full.
    #[serde(default)]
    pub rejected: u64,
    /// Requests currently queued awaiting a free worker.
    #[serde(default)]
    pub queue_depth: u64,
    /// High-water mark of `queue_depth` since startup.
    #[serde(default)]
    pub queue_depth_max: u64,
    /// Connections killed because they did not drain within the
    /// shutdown grace period ([`ServerConfig::drain_grace`]).
    ///
    /// [`ServerConfig::drain_grace`]: crate::server::ServerConfig::drain_grace
    #[serde(default)]
    pub drain_killed: u64,
}

/// Event-loop counters reported by [`Response::Stats`]: how the
/// readiness-driven front end is multiplexing its connections.
///
/// All fields default to zero so replies from servers that predate the
/// event loop still parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EventStats {
    /// Readiness events delivered by the poller since startup.
    #[serde(default)]
    pub ready_events: u64,
    /// Times the loop was woken by a worker completion or shutdown
    /// (as opposed to socket readiness).
    #[serde(default)]
    pub wakeups: u64,
    /// Read passes that buffered bytes without completing a line —
    /// requests arriving fragmented across readiness events.
    #[serde(default)]
    pub partial_reads: u64,
    /// Connections killed by the read/idle deadline.
    #[serde(default)]
    pub deadline_kills: u64,
    /// Connections closed for exceeding the request-line size cap.
    #[serde(default)]
    pub oversized_rejected: u64,
    /// Connections currently registered with the event loop.
    #[serde(default)]
    pub conns_open: u64,
    /// High-water mark of `conns_open` since startup.
    #[serde(default)]
    pub conns_peak: u64,
}

/// Counter snapshot reported by [`Response::Stats`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Profiles currently on disk.
    pub profiles: usize,
    /// Requests handled since startup.
    pub requests: u64,
    /// Advice memo-cache hits.
    pub advice_hits: u64,
    /// Advice memo-cache misses.
    pub advice_misses: u64,
    /// Advice memo-cache evictions.
    pub advice_evictions: u64,
    /// Parsed-profile cache hits.
    pub profile_hits: u64,
    /// Parsed-profile cache misses.
    pub profile_misses: u64,
    /// Per-operation latency digests (only operations seen so far).
    #[serde(default)]
    pub ops: Vec<OpLatency>,
    /// Accept-path counters of the serving worker pool.
    #[serde(default)]
    pub accept: AcceptStats,
    /// Event-loop counters of the readiness-driven front end.
    #[serde(default)]
    pub events: EventStats,
}

impl ServerStats {
    /// Fold the cache snapshots, the per-op latency digests and the
    /// accept- and event-path counters into the wire struct.
    #[allow(clippy::too_many_arguments)]
    pub fn from_caches(
        profiles: usize,
        requests: u64,
        advice: CacheStats,
        profile_cache: CacheStats,
        ops: Vec<OpLatency>,
        accept: AcceptStats,
        events: EventStats,
    ) -> Self {
        Self {
            profiles,
            requests,
            advice_hits: advice.hits,
            advice_misses: advice.misses,
            advice_evictions: advice.evictions,
            profile_hits: profile_cache.hits,
            profile_misses: profile_cache.misses,
            ops,
            accept,
            events,
        }
    }
}

/// A server response, one JSON object per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "reply", rename_all = "snake_case")]
pub enum Response {
    /// The profile was stored (or already present) under this digest.
    Stored {
        /// Content digest of the stored profile.
        digest: String,
    },
    /// A stored profile.
    Profile {
        /// The resolved digest.
        digest: String,
        /// The profile itself.
        profile: Box<MachineProfile>,
    },
    /// Every stored profile.
    Listing {
        /// One entry per stored profile, digest-sorted.
        entries: Vec<StoreEntry>,
    },
    /// An advice answer.
    Advice {
        /// The resolved digest the advice was computed against.
        digest: String,
        /// Whether the memo cache served it.
        cached: bool,
        /// The outcome, shared with `servet advise --json`.
        outcome: AdviceOutcome,
    },
    /// A tuning answer.
    Tuned {
        /// The resolved digest the session ran against.
        digest: String,
        /// Whether the memo cache served it.
        cached: bool,
        /// The outcome, shared with `servet tune --json`.
        outcome: TuneOutcome,
    },
    /// Server counters.
    Stats {
        /// The counters.
        stats: ServerStats,
    },
    /// The request failed; the connection stays usable.
    Error {
        /// Human-readable diagnostic.
        error: String,
    },
}

/// Serialize `msg` as one JSON line and flush it.
pub fn write_message<T: Serialize>(writer: &mut impl Write, msg: &T) -> io::Result<()> {
    let mut line = serde_json::to_string(msg).map_err(io::Error::other)?;
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Read one JSON line into `T`. `Ok(None)` means a clean EOF before any
/// byte; a line that fails to parse is an `InvalidData` error.
pub fn read_message<T: DeserializeOwned>(reader: &mut impl BufRead) -> io::Result<Option<T>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty line"));
    }
    serde_json::from_str(trimmed)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_wire_shapes() {
        let req = Request::Advise {
            key: "tiny".into(),
            query: AdviceQuery::Bcast {
                ranks: 8,
                bytes: 4096,
            },
        };
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"cmd\":\"advise\""), "{json}");
        assert!(json.contains("\"kind\":\"bcast\""), "{json}");
        assert_eq!(serde_json::from_str::<Request>(&json).unwrap(), req);
    }

    #[test]
    fn query_defaults_fill_in() {
        // A terse hand-written query relies on the serde defaults.
        let q: AdviceQuery = serde_json::from_str(r#"{"kind":"tile"}"#).unwrap();
        assert_eq!(
            q,
            AdviceQuery::Tile {
                level: 1,
                elem_size: 8,
                matrices: 3,
                occupancy: 0.75
            }
        );
        let q: AdviceQuery = serde_json::from_str(r#"{"kind":"threads"}"#).unwrap();
        assert_eq!(q, AdviceQuery::Threads { tolerance: 0.05 });
        let q: AdviceQuery = serde_json::from_str(r#"{"kind":"bcast"}"#).unwrap();
        assert_eq!(
            q,
            AdviceQuery::Bcast {
                ranks: 0,
                bytes: 32 * 1024
            }
        );
    }

    #[test]
    fn line_round_trip() {
        let resp = Response::Stored {
            digest: "d".repeat(64),
        };
        let mut buf = Vec::new();
        write_message(&mut buf, &resp).unwrap();
        assert!(buf.ends_with(b"\n"));
        let mut reader = io::BufReader::new(&buf[..]);
        let back: Response = read_message(&mut reader).unwrap().unwrap();
        assert_eq!(back, resp);
        // EOF after the single line.
        assert!(read_message::<Response>(&mut reader).unwrap().is_none());
    }

    #[test]
    fn stats_round_trip_with_ops() {
        let h = servet_obs::Histogram::new();
        for v in [800u64, 1200, 95_000] {
            h.record(v);
        }
        let stats = ServerStats {
            profiles: 2,
            requests: 7,
            ops: vec![OpLatency::from_snapshot("advise", &h.snapshot())],
            ..Default::default()
        };
        let resp = Response::Stats {
            stats: stats.clone(),
        };
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("\"op\":\"advise\""), "{json}");
        assert_eq!(serde_json::from_str::<Response>(&json).unwrap(), resp);
        let op = &stats.ops[0];
        assert_eq!(op.count, 3);
        assert_eq!(op.min_ns, 800);
        assert_eq!(op.max_ns, 95_000);
        assert!(op.p50_ns >= 800 && op.p50_ns <= 2047, "{}", op.p50_ns);
        assert_eq!(op.p99_ns, 95_000);
        assert_eq!(op.p999_ns, 95_000);
    }

    #[test]
    fn accept_stats_round_trip_and_default() {
        let stats = ServerStats {
            profiles: 1,
            accept: AcceptStats {
                accepted: 70,
                rejected: 3,
                queue_depth: 2,
                queue_depth_max: 9,
                drain_killed: 1,
            },
            ..Default::default()
        };
        let json = serde_json::to_string(&stats).unwrap();
        assert!(json.contains("\"rejected\":3"), "{json}");
        assert_eq!(serde_json::from_str::<ServerStats>(&json).unwrap(), stats);
        // A pre-pool server omits "accept" entirely: all-zero default.
        let old = r#"{"profiles":1,"requests":2,"advice_hits":0,"advice_misses":0,
            "advice_evictions":0,"profile_hits":0,"profile_misses":0}"#;
        let parsed: ServerStats = serde_json::from_str(old).unwrap();
        assert_eq!(parsed.accept, AcceptStats::default());
        assert_eq!(parsed.events, EventStats::default());
        // A pre-drain-deadline reply omits "drain_killed" inside accept.
        let pre_drain = r#"{"accepted":70,"rejected":3,"queue_depth":2,"queue_depth_max":9}"#;
        let parsed: AcceptStats = serde_json::from_str(pre_drain).unwrap();
        assert_eq!(parsed.accepted, 70);
        assert_eq!(parsed.drain_killed, 0);
    }

    #[test]
    fn event_stats_round_trip_and_default() {
        let stats = ServerStats {
            profiles: 1,
            events: EventStats {
                ready_events: 1000,
                wakeups: 40,
                partial_reads: 7,
                deadline_kills: 2,
                oversized_rejected: 1,
                conns_open: 3,
                conns_peak: 512,
            },
            ..Default::default()
        };
        let json = serde_json::to_string(&stats).unwrap();
        assert!(json.contains("\"conns_peak\":512"), "{json}");
        assert_eq!(serde_json::from_str::<ServerStats>(&json).unwrap(), stats);
        // A pre-event-loop entry omits the p999 field: defaults to 0.
        let pre = r#"{"op":"get","count":1,"total_ns":5,"min_ns":5,"max_ns":5,
            "p50_ns":5,"p99_ns":5}"#;
        let parsed: OpLatency = serde_json::from_str(pre).unwrap();
        assert_eq!(parsed.p999_ns, 0);
        assert!(parsed.buckets.is_empty());
    }

    #[test]
    fn stats_without_ops_field_still_parses() {
        // A pre-observability server omits "ops" entirely; the field must
        // default to empty rather than fail the whole stats reply.
        let json = r#"{"reply":"stats","stats":{"profiles":1,"requests":2,
            "advice_hits":0,"advice_misses":0,"advice_evictions":0,
            "profile_hits":0,"profile_misses":0}}"#;
        match serde_json::from_str::<Response>(json).unwrap() {
            Response::Stats { stats } => {
                assert_eq!(stats.profiles, 1);
                assert!(stats.ops.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn busy_rejection_is_recognizable_on_the_wire() {
        let mut buf = Vec::new();
        write_message(&mut buf, &busy_response()).unwrap();
        let mut reader = io::BufReader::new(&buf[..]);
        match read_message::<Response>(&mut reader).unwrap().unwrap() {
            Response::Error { error } => assert!(is_busy_error(&error), "{error}"),
            other => panic!("unexpected {other:?}"),
        }
        // An ordinary protocol error must NOT look busy, or clients would
        // retry requests the server deliberately refused.
        assert!(!is_busy_error("no profile named tiny"));
    }

    #[test]
    fn busy_line_matches_raw_wire_bytes_without_parsing() {
        // The exact shape the server hand-builds for both busy flavors.
        assert!(is_busy_line(
            "{\"reply\":\"error\",\"error\":\"busy: accept queue full, retry with backoff\"}"
        ));
        assert!(is_busy_line(
            "{\"reply\":\"error\",\"error\":\"busy: server overloaded, retry with backoff\"}"
        ));
        // Ordinary errors and non-error replies must not look busy.
        assert!(!is_busy_line(
            "{\"reply\":\"error\",\"error\":\"no profile named tiny\"}"
        ));
        assert!(!is_busy_line("{\"reply\":\"listing\",\"entries\":[]}"));
    }

    #[test]
    fn garbage_line_is_invalid_data() {
        let mut reader = io::BufReader::new(&b"{nope\n"[..]);
        let err = read_message::<Request>(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
