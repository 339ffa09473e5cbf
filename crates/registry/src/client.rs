//! A small blocking client for the registry protocol — the transport
//! behind `servet query`, the zoo's profile streaming, and the serving
//! tests.
//!
//! Two clients live here. [`RegistryClient`] is one connection, one
//! request at a time, and surfaces every failure to the caller.
//! [`RetryingRegistryClient`] wraps it for unattended callers (the zoo
//! driver streaming hundreds of profiles): its one method,
//! [`RetryingRegistryClient::with_retry`], runs any [`RegistryClient`]
//! call, reconnecting and retrying it with decorrelated-jitter backoff
//! ([`Backoff`]) when the server is
//! overloaded — the typed `busy:` rejection,
//! [`crate::protocol::BUSY_ERROR`] — or the connection drops
//! mid-flight, while still failing fast on errors a retry cannot cure
//! (a malformed request, an unknown profile key).

use crate::advice::{AdviceOutcome, AdviceQuery};
use crate::protocol::{is_busy_error, read_message, write_message, Request, Response};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use servet_core::profile::MachineProfile;
use servet_stats::rng::splitmix64;

/// The value of the one reply kind a request expects: `$reply => $value`
/// picks it out, a `Response::Error` becomes [`protocol_error`]'s error,
/// and a reply of any other kind is [`io::ErrorKind::InvalidData`].
macro_rules! reply {
    ($response:expr, $reply:pat => $value:expr) => {
        match $response {
            $reply => Ok($value),
            Response::Error { error } => Err(protocol_error(error)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response {other:?}"),
            )),
        }
    };
}

/// One connection to a registry server.
pub struct RegistryClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RegistryClient {
    /// Connect to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Self::from_stream(stream)
    }

    /// Wrap an already-connected stream.
    pub(crate) fn from_stream(stream: TcpStream) -> io::Result<Self> {
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Abandon a response not arriving within `timeout` instead of
    /// blocking forever.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Send one request and wait for its response line.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        write_message(&mut self.writer, request)?;
        read_message(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// Store `profile` (optionally aliased); returns its digest.
    pub fn put(&mut self, profile: &MachineProfile, name: Option<&str>) -> io::Result<String> {
        let request = Request::Put {
            profile: Box::new(profile.clone()),
            name: name.map(str::to_string),
        };
        reply!(self.call(&request)?, Response::Stored { digest } => digest)
    }

    /// Fetch the raw response for a `get` (callers match on it).
    pub fn get(&mut self, key: &str) -> io::Result<Response> {
        self.call(&Request::Get {
            key: key.to_string(),
        })
    }

    /// Fetch a profile, treating protocol-level errors as `io::Error`.
    pub fn get_profile(&mut self, key: &str) -> io::Result<(String, MachineProfile)> {
        reply!(self.get(key)?, Response::Profile { digest, profile } => (digest, *profile))
    }

    /// List stored profiles.
    pub fn list(&mut self) -> io::Result<Vec<crate::store::StoreEntry>> {
        reply!(self.call(&Request::List)?, Response::Listing { entries } => entries)
    }

    /// Ask for advice; returns `(digest, cached, outcome)`.
    pub fn advise(
        &mut self,
        key: &str,
        query: &AdviceQuery,
    ) -> io::Result<(String, bool, AdviceOutcome)> {
        let request = Request::Advise {
            key: key.to_string(),
            query: query.clone(),
        };
        let response = self.call(&request)?;
        reply!(response, Response::Advice { digest, cached, outcome } => (digest, cached, outcome))
    }

    /// Run (or recall) a tuning session; returns `(digest, cached,
    /// outcome)`.
    pub fn tune(
        &mut self,
        key: &str,
        query: &crate::tune::TuneQuery,
    ) -> io::Result<(String, bool, servet_tune::TuneOutcome)> {
        let request = Request::Tune {
            key: key.to_string(),
            query: query.clone(),
        };
        let response = self.call(&request)?;
        reply!(response, Response::Tuned { digest, cached, outcome } => (digest, cached, outcome))
    }

    /// Fetch server counters.
    pub fn stats(&mut self) -> io::Result<crate::protocol::ServerStats> {
        reply!(self.call(&Request::Stats)?, Response::Stats { stats } => stats)
    }
}

/// Map a protocol-level `Response::Error` string to an [`io::Error`]:
/// the server's `busy:` rejection becomes [`io::ErrorKind::WouldBlock`]
/// (recognized by [`is_server_busy`]); everything else is an opaque
/// application error.
fn protocol_error(error: String) -> io::Error {
    if is_busy_error(&error) {
        io::Error::new(io::ErrorKind::WouldBlock, error)
    } else {
        io::Error::other(error)
    }
}

/// Whether `e` is the server's "accept queue full" rejection — the one
/// failure that explicitly invites a retry with backoff.
pub(crate) fn is_server_busy(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::WouldBlock && is_busy_error(&e.to_string())
}

/// Whether a fresh connection and another attempt could plausibly cure
/// `e`: the typed busy rejection, or transport failures a mid-flight
/// server close produces. Application errors (bad request, unknown key)
/// are not retryable — repeating them would repeat the answer.
pub(crate) fn is_retryable(e: &io::Error) -> bool {
    is_server_busy(e)
        || matches!(
            e.kind(),
            io::ErrorKind::UnexpectedEof
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::ConnectionRefused
        )
}

/// Backoff schedule for [`RetryingRegistryClient`]. Retry sleeps are
/// decorrelated: after the first, each is drawn uniformly from
/// `[initial_backoff, 3 × previous]` (capped at `max_backoff`), so a
/// fleet of clients rejected together *returns* spread out instead of as
/// a synchronized thundering herd — the difference between one `busy:`
/// storm and many.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included); at least 1 is always made.
    pub attempts: usize,
    /// Sleep before the second attempt, and the floor of every later one.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the jitter stream. The sequence is a pure function of
    /// the seed, so tests are deterministic; fleet drivers (`servet
    /// zoo`) seed each worker differently to actually decorrelate.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 5,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0,
        }
    }
}

/// The materialized sleep sequence of a [`RetryPolicy`]: decorrelated
/// jitter, `min(cap, uniform(base, 3 × previous))`. The first delay is
/// always exactly `initial_backoff`.
#[derive(Debug)]
pub(crate) struct Backoff {
    base: Duration,
    cap: Duration,
    prev: Option<Duration>,
    rng: u64,
}

impl Backoff {
    /// A sequence for `policy` drawing jitter from `seed` (overriding
    /// [`RetryPolicy::jitter_seed`]).
    pub(crate) fn seeded(policy: &RetryPolicy, seed: u64) -> Self {
        Self {
            base: policy.initial_backoff,
            cap: policy.max_backoff.max(policy.initial_backoff),
            prev: None,
            rng: seed,
        }
    }

    /// The next sleep. Always within
    /// `[initial_backoff, max_backoff]`.
    pub(crate) fn next_delay(&mut self) -> Duration {
        let next = match self.prev {
            None => self.base,
            Some(prev) => {
                let lo = self.base.as_nanos().min(u64::MAX as u128) as u64;
                let hi = (prev.as_nanos().min(u64::MAX as u128) as u64)
                    .saturating_mul(3)
                    .max(lo);
                let span = hi - lo;
                let draw = if span == 0 {
                    lo
                } else {
                    lo + splitmix64(&mut self.rng) % (span + 1)
                };
                Duration::from_nanos(draw).min(self.cap)
            }
        };
        self.prev = Some(next);
        next
    }
}

/// A reconnecting, retrying registry client for unattended bulk callers
/// (`servet zoo` streaming a population of profiles).
///
/// Each operation runs against a lazily-(re)established connection; on a
/// retryable failure the connection is discarded and the
/// operation retried after a jittered backoff, up to
/// [`RetryPolicy::attempts`]. The last error is returned when the budget
/// runs out. Retries are counted on the `registry.client.retries`
/// counter.
pub struct RetryingRegistryClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    conn: Option<RegistryClient>,
    /// Rolling jitter state: each operation derives a fresh backoff
    /// stream from it, so retries of successive operations do not
    /// repeat one another's sleeps.
    rng: u64,
}

impl RetryingRegistryClient {
    /// A retrying client for the server at `addr` (not contacted until
    /// the first operation).
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> Self {
        let rng = policy.jitter_seed;
        Self {
            addr,
            policy,
            conn: None,
            rng,
        }
    }

    /// Run `op` against the connection, reconnecting and retrying it on a
    /// retryable failure, so any [`RegistryClient`] call
    /// gets the policy: `client.with_retry(|c| c.put(&profile, None))`.
    pub fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut RegistryClient) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut backoff = Backoff::seeded(&self.policy, splitmix64(&mut self.rng));
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..self.policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff.next_delay());
                servet_obs::counter("registry.client.retries").incr();
            }
            let conn = match self.conn.as_mut() {
                Some(conn) => conn,
                None => match RegistryClient::connect(self.addr) {
                    Ok(conn) => self.conn.insert(conn),
                    Err(e) if is_retryable(&e) => {
                        last_err = Some(e);
                        continue;
                    }
                    Err(e) => return Err(e),
                },
            };
            match op(conn) {
                Ok(value) => return Ok(value),
                Err(e) if is_retryable(&e) => {
                    // The server hung up (or told us it is saturated):
                    // this connection is dead either way.
                    self.conn = None;
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("retry budget exhausted")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::BUSY_ERROR;
    use std::io::BufRead as _;
    use std::net::TcpListener;

    /// A one-shot fake server: accept one connection, read one request
    /// line, answer `response`, close. Reading the request first means
    /// the close is a clean FIN (no unread data → no RST racing the
    /// response to the client).
    fn one_shot_server(response: Response) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let mut stream = stream;
            write_message(&mut stream, &response).unwrap();
        });
        (addr, handle)
    }

    #[test]
    fn busy_rejection_maps_to_the_typed_busy_error() {
        let (addr, server) = one_shot_server(Response::Error {
            error: BUSY_ERROR.into(),
        });
        let mut client = RegistryClient::connect(addr).unwrap();
        let err = client.list().unwrap_err();
        assert!(is_server_busy(&err), "wanted busy, got {err:?}");
        assert!(is_retryable(&err));
        server.join().unwrap();
    }

    #[test]
    fn application_errors_are_not_retryable() {
        let (addr, server) = one_shot_server(Response::Error {
            error: "no profile named tiny".into(),
        });
        let mut client = RegistryClient::connect(addr).unwrap();
        let err = client.list().unwrap_err();
        assert!(!is_server_busy(&err));
        assert!(!is_retryable(&err), "must not retry {err:?}");
        server.join().unwrap();
    }

    #[test]
    fn retrying_client_gives_up_after_its_budget() {
        // A listener that is never accepted from: every connection gets
        // queued by the kernel, and the requests time out... too slow.
        // Instead: refuse outright by binding and dropping.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let mut client = RetryingRegistryClient::new(
            addr,
            RetryPolicy {
                attempts: 3,
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
                ..RetryPolicy::default()
            },
        );
        let err = client.with_retry(|c| c.list()).unwrap_err();
        assert!(
            is_retryable(&err),
            "last error should be the refusal: {err:?}"
        );
    }

    #[test]
    fn jittered_backoff_is_seeded_and_stays_in_envelope() {
        let policy = RetryPolicy {
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(400),
            jitter_seed: 42,
            ..RetryPolicy::default()
        };
        let draw = |seed: u64| -> Vec<Duration> {
            let mut seq = Backoff::seeded(&policy, seed);
            (0..12).map(|_| seq.next_delay()).collect()
        };
        // Deterministic: the sequence is a pure function of the seed.
        assert_eq!(draw(42), draw(42));
        // The first delay is the floor exactly; every later one obeys
        // the decorrelated-jitter envelope
        // [base, min(cap, 3 × previous)].
        let delays = draw(42);
        assert_eq!(delays[0], policy.initial_backoff);
        for pair in delays.windows(2) {
            let envelope = (pair[0] * 3).min(policy.max_backoff);
            assert!(
                pair[1] >= policy.initial_backoff
                    && pair[1] <= envelope.max(policy.initial_backoff),
                "delay {:?} escaped [{:?}, {:?}]",
                pair[1],
                policy.initial_backoff,
                envelope
            );
        }
        // Different seeds decorrelate (the whole point): two workers
        // must not sleep in lockstep.
        assert_ne!(draw(42), draw(43), "seeds 42/43 drew identical sleeps");
    }
}
