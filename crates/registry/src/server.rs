//! The event-driven TCP front end: one readiness loop multiplexing
//! every connection, speaking the newline-delimited JSON protocol of
//! the `protocol` module.
//!
//! A single loop thread (`<prefix>-accept`) owns the listener, a
//! readiness poller (epoll on Linux, the scan poller elsewhere), a
//! heap of idle deadlines, and every live `Conn`. The heap
//! holds one entry per connection and is never searched: activity only
//! assigns `Conn::deadline`, and an entry that surfaces
//! early is pushed back at that value (see `EventLoop::expire_deadlines`).
//! Sockets are nonblocking; the loop reads
//! complete request lines out of per-connection buffers and parses those
//! of up to `IN_MEMORY_BYTES`. A readiness event costs one `read` when
//! what is waiting fits in one chunk (`Conn::read_ready` stops at a
//! short first read; readiness is level-triggered, so anything left
//! raises the next event), and a small reply one `write`: the
//! `socket_reads` and `socket_writes` counters of [`crate::EventStats`]
//! count them.
//!
//! **Which thread answers what.** The loop answers a request itself
//! when the answer is already in memory (`Registry::handle_in_memory`:
//! a cached `get` or `advise`, a memoized `tune`) and when the line does
//! not parse. The hand-over to a worker and back — a channel, a
//! completion queue and a one-byte wake socket, four context switches on
//! one CPU — costs several times the handling of such a request. Every
//! other request goes, already parsed, to [`ServerConfig::workers`]
//! CPU-bound worker threads through a bounded channel of
//! [`ServerConfig::backlog`] slots (a line too long to parse on the loop
//! goes raw); a worker executes it against the [`Registry`], serializes
//! the reply and pushes it back through the completion queue and the wake
//! socket. Either way a reply is produced under `catch_unwind`, so a
//! panicking handler costs its request, not a thread.
//!
//! Thousands of idle connections therefore cost no threads: the server
//! runs exactly `workers + 1` threads no matter how many clients
//! connect (see [`ServerConfig::max_conns`] for the admission cap).
//! Overload is explicit at two layers, both answered with a one-line
//! `busy:` rejection (`BUSY_ERROR`) and a close:
//!
//! * **admission** — more than `max_conns` live connections;
//! * **execution** — a parsed request finds the worker queue full.
//!
//! A connection takes its next line only when it has no request with a
//! worker and no unflushed output, so replies keep request order and a
//! client that does not read holds at most one reply of server memory;
//! meanwhile the loop stops reading that socket, so pipelining clients
//! are backpressured by the kernel. The loop takes at most
//! `LINES_PER_TURN` (16) lines from one connection per turn, picking the
//! rest up on the next turn, so one pipelining client cannot monopolise
//! it. Unterminated lines longer than [`MAX_LINE_BYTES`] are refused.
//!
//! [`ServerHandle::shutdown`] stops accepting, closes every idle
//! connection at once, lets in-flight requests finish for up to
//! [`ServerConfig::drain_grace`], then kills stragglers (counted as
//! `drain_killed` in [`crate::AcceptStats`]) and joins every
//! thread. Loop health is exported through
//! [`crate::EventStats`] via the `stats` operation.

use crate::conn::Conn;
use crate::poll::{deepen_listen_backlog, raise_nofile_limit, raw_fd, Event, Interest, Poller};
use crate::protocol::{write_message, Request, Response, BUSY_ERROR};
use crate::registry::{Registry, IN_MEMORY_BYTES};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller token of the listening socket.
const LISTENER: u64 = 0;
/// Poller token of the wake-pipe read end.
const WAKE: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN: u64 = 2;

/// Request lines the loop takes from one connection in one turn.
const LINES_PER_TURN: usize = 16;

/// Longest accepted request line. An unterminated line growing past this
/// is refused with an error response and a close (the slow-loris bound:
/// per-connection memory stays finite).
pub const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// The error line of a request whose handler panicked.
const PANICKED: &str = "internal: request handler panicked";

/// Tunables for [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Idle deadline: a connection with no complete request and no
    /// read activity for this long is disconnected.
    pub read_timeout: Duration,
    /// Worker threads executing requests. The server never runs more
    /// threads than this plus the event loop, no matter how many
    /// clients connect.
    pub workers: usize,
    /// Parsed requests that may wait for a free worker. When all
    /// workers are busy and this many requests are queued, further
    /// requests are answered with a one-line `busy:` rejection
    /// (`BUSY_ERROR`) and the connection is
    /// closed. `0` means rendezvous: a request is accepted only if a
    /// worker is blocked waiting for one — useful in tests that need
    /// rejection to be deterministic.
    pub backlog: usize,
    /// Prefix for server thread names (`<prefix>-accept` for the event
    /// loop, `<prefix>-worker-N`), useful for telling pools apart in
    /// `/proc/<pid>/task` or a debugger.
    pub thread_prefix: String,
    /// Live-connection admission cap. Arrivals beyond it get the
    /// `busy:` line and a close instead of degrading everyone.
    pub max_conns: usize,
    /// How long [`ServerHandle::shutdown`] waits for in-flight
    /// requests to finish before killing their connections.
    pub drain_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_secs(30),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 8),
            backlog: 128,
            thread_prefix: "servet".into(),
            max_conns: 10_240,
            drain_grace: Duration::from_secs(5),
        }
    }
}

/// Wakes the event loop out of `Poller::wait` from another thread by
/// writing one byte into a nonblocking loopback socket the loop polls.
struct Waker {
    tx: TcpStream,
}

impl Waker {
    fn wake(&self) {
        // WouldBlock means bytes are already pending: the loop will
        // wake regardless, so every outcome here is fine.
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// A loopback socket pair standing in for a pipe: `(read end, write
/// end)`, both nonblocking.
fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true).ok();
    Ok((rx, tx))
}

/// One request headed for a worker: parsed by the loop, or a raw line
/// longer than the loop parses.
struct Job {
    conn: u64,
    request: Result<Request, Vec<u8>>,
}

/// One serialized response line headed back to the loop.
struct Completion {
    conn: u64,
    line: Vec<u8>,
}

/// A running server; dropping it shuts it down.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    loop_thread: Option<JoinHandle<()>>,
    waker: Arc<Waker>,
    live_threads: Arc<AtomicUsize>,
}

impl ServerHandle {
    /// The address actually bound (resolves `:0` to the chosen port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The number of this server's threads — the event loop and its
    /// workers — whose bodies have not yet returned. Each thread's drop
    /// guard decrements it before the thread can be joined, so it reads
    /// exactly 0 once [`shutdown`](Self::shutdown) returns.
    pub fn live_threads(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.live_threads)
    }

    /// Stop accepting, drain in-flight requests for up to the
    /// configured grace, close every connection, and join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Block until the server stops on its own (it never does unless
    /// the process is killed) — the body of `servet serve`.
    pub fn join(mut self) {
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.loop_thread.is_some() {
            self.shutdown_inner();
        }
    }
}

/// Parse a raw request line; the error is the reply's diagnostic.
fn parse(raw: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(raw)
        .map_err(|e| format!("bad request: {e}"))?
        .trim();
    if text.is_empty() {
        return Err("bad request: empty line".into());
    }
    serde_json::from_str::<Request>(text).map_err(|e| format!("bad request: {e}"))
}

/// Where a request line goes: its reply line, when the loop can answer
/// it from memory, or the worker it has to wait for.
enum Route {
    Reply(Vec<u8>),
    Worker(Result<Request, Vec<u8>>),
}

/// Route one complete request line. Runs on the loop thread, so it
/// parses only lines up to [`IN_MEMORY_BYTES`] and answers only what
/// [`Registry::handle_in_memory`] does — under `catch_unwind`, as a
/// worker would.
fn route(registry: &Registry, line: Vec<u8>) -> Route {
    if line.len() > IN_MEMORY_BYTES {
        return Route::Worker(Err(line));
    }
    let request = match parse(&line) {
        Ok(request) => request,
        Err(error) => return Route::Reply(error_line(&error)),
    };
    let answered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        registry
            .handle_in_memory(request)
            .map(|response| encode_line(&response))
    }));
    match answered {
        Ok(Ok(reply)) => Route::Reply(reply),
        Ok(Err(request)) => Route::Worker(Ok(request)),
        Err(_) => Route::Reply(error_line(PANICKED)),
    }
}

/// Serialize a response as one newline-terminated JSON line.
fn encode_line(response: &Response) -> Vec<u8> {
    // Error replies are hand-built: byte-stable, serializer-independent,
    // and available even when the JSON backend is broken — clients can
    // always read why they were refused.
    if let Response::Error { error } = response {
        return error_line(error);
    }
    let mut buf = Vec::with_capacity(128);
    if write_message(&mut buf, response).is_err() {
        buf.clear();
        buf = error_line("internal: response serialization failed");
    }
    buf
}

/// Hand-build an error reply line with no serializer in the path. The
/// event loop uses this for its own replies (busy, oversized) so a
/// broken or panicking serializer can never take the loop thread down
/// with it.
fn error_line(message: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(message.len() + 32);
    buf.extend_from_slice(b"{\"reply\":\"error\",\"error\":\"");
    for byte in message.bytes() {
        match byte {
            b'"' => buf.extend_from_slice(b"\\\""),
            b'\\' => buf.extend_from_slice(b"\\\\"),
            b'\n' => buf.extend_from_slice(b"\\n"),
            b'\r' => buf.extend_from_slice(b"\\r"),
            b'\t' => buf.extend_from_slice(b"\\t"),
            0x00..=0x1f => {
                buf.extend_from_slice(format!("\\u{byte:04x}").as_bytes());
            }
            _ => buf.push(byte),
        }
    }
    buf.extend_from_slice(b"\"}\n");
    buf
}

/// Bind `addr` and serve `registry` until [`ServerHandle::shutdown`].
///
/// Spawns `config.workers` worker threads plus one event-loop thread;
/// requests the loop cannot answer from memory flow to workers through a
/// channel bounded by `config.backlog`, their responses flow back
/// through a completion queue.
pub fn serve(
    registry: Arc<Registry>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let prefix = config.thread_prefix.clone();
    let live_threads = Arc::new(AtomicUsize::new(0));
    let (event_loop, workers) = EventLoop::new(registry, listener, config, &live_threads)?;
    let shutdown = Arc::clone(&event_loop.shutdown);
    let waker = Arc::clone(&event_loop.waker);
    let alive = LiveThread::new(&live_threads);
    let loop_thread = std::thread::Builder::new()
        .name(format!("{prefix}-accept"))
        .spawn(move || {
            let _alive = alive;
            event_loop.run(workers)
        })?;

    Ok(ServerHandle {
        addr,
        shutdown,
        loop_thread: Some(loop_thread),
        waker,
        live_threads,
    })
}

/// One running server thread in [`ServerHandle::live_threads`]: counted
/// when made, before the spawn, and uncounted when the thread's body
/// drops it (or when a failed spawn drops the body unrun).
struct LiveThread(Arc<AtomicUsize>);

impl LiveThread {
    fn new(count: &Arc<AtomicUsize>) -> Self {
        count.fetch_add(1, Ordering::SeqCst);
        Self(Arc::clone(count))
    }
}

impl Drop for LiveThread {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The body of one worker thread: execute jobs until the channel closes.
fn work(
    registry: &Registry,
    jobs: &Mutex<mpsc::Receiver<Job>>,
    completions: &Mutex<Vec<Completion>>,
    waker: &Waker,
) {
    loop {
        // Hold the receiver lock only for the blocking recv so the other
        // workers keep draining the queue.
        let received = match jobs.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => break,
        };
        let Ok(job) = received else { break };
        registry.front_end.dequeued();
        // A panicking handler must cost its request, not the worker —
        // and never leave the client waiting forever on a response that
        // will not come.
        let line = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            encode_line(&match job.request.or_else(|line| parse(&line)) {
                Ok(request) => registry.handle(request),
                Err(error) => Response::Error { error },
            })
        }))
        .unwrap_or_else(|_| error_line(PANICKED));
        if let Ok(mut queue) = completions.lock() {
            queue.push(Completion {
                conn: job.conn,
                line,
            });
        }
        waker.wake();
    }
}

/// The readiness loop: accepts, reads, dispatches, flushes, expires.
struct EventLoop {
    registry: Arc<Registry>,
    config: ServerConfig,
    poller: Poller,
    listener: TcpListener,
    wake_rx: TcpStream,
    waker: Arc<Waker>,
    conns: HashMap<u64, Conn>,
    /// Exactly one `(wake-up, token)` entry per live connection, never
    /// later than that connection's [`Conn::deadline`]. A closed
    /// connection's entry is dropped when it surfaces; tokens are never
    /// reused, so it can match nothing else.
    deadlines: BinaryHeap<Reverse<(Instant, u64)>>,
    /// Connections that still held lines when their turn's budget ran
    /// out: advanced again next turn, with no new bytes to wait for.
    backlogged: HashSet<u64>,
    next_token: u64,
    /// Dropped at shutdown so workers drain the queue and exit.
    job_tx: Option<mpsc::SyncSender<Job>>,
    completions: Arc<Mutex<Vec<Completion>>>,
    shutdown: Arc<AtomicBool>,
}

impl EventLoop {
    /// A loop over `listener`, registered with its poller, and the
    /// worker threads it feeds.
    fn new(
        registry: Arc<Registry>,
        listener: TcpListener,
        config: ServerConfig,
        live_threads: &Arc<AtomicUsize>,
    ) -> io::Result<(Self, Vec<JoinHandle<()>>)> {
        listener.set_nonblocking(true)?;
        // A 10k-connection storm overruns std's hardcoded 128-deep kernel
        // accept backlog; deepen it (and the fd limit) best-effort.
        deepen_listen_backlog(&listener, config.max_conns.clamp(128, 65_535) as i32);
        let _ = raise_nofile_limit();

        let (wake_rx, wake_tx) = wake_pair()?;
        let waker = Arc::new(Waker { tx: wake_tx });
        let mut poller = Poller::new()?;
        poller.register(raw_fd(&listener), LISTENER, Interest::READ)?;
        poller.register(raw_fd(&wake_rx), WAKE, Interest::READ)?;

        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(config.backlog);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let registry = Arc::clone(&registry);
            let job_rx = Arc::clone(&job_rx);
            let completions = Arc::clone(&completions);
            let waker = Arc::clone(&waker);
            let alive = LiveThread::new(live_threads);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("{}-worker-{i}", config.thread_prefix))
                    .spawn(move || {
                        let _alive = alive;
                        work(&registry, &job_rx, &completions, &waker)
                    })?,
            );
        }

        let event_loop = EventLoop {
            registry,
            config,
            poller,
            listener,
            wake_rx,
            waker,
            conns: HashMap::new(),
            deadlines: BinaryHeap::new(),
            backlogged: HashSet::new(),
            next_token: FIRST_CONN,
            job_tx: Some(job_tx),
            completions,
            shutdown: Arc::new(AtomicBool::new(false)),
        };
        Ok((event_loop, workers))
    }

    fn run(mut self, workers: Vec<JoinHandle<()>>) {
        let mut events: Vec<Event> = Vec::new();
        let mut drain_deadline: Option<Instant> = None;
        while !self.tick(&mut events, &mut drain_deadline) {}
        // Dropping the sender wakes every worker out of recv once the
        // queue is drained; join them so shutdown is total.
        drop(self.job_tx.take());
        for worker in workers {
            let _ = worker.join();
        }
    }

    /// One pass of the event loop; returns `true` when the loop should
    /// exit (poller failure, or drain complete).
    fn tick(&mut self, events: &mut Vec<Event>, drain_deadline: &mut Option<Instant>) -> bool {
        let now = Instant::now();
        let timeout = self.poll_timeout(now, *drain_deadline);
        if self.poller.wait(events, timeout).is_err() {
            return true;
        }
        if !events.is_empty() {
            self.registry.front_end.ready(events.len() as u64);
        }
        let backlogged = std::mem::take(&mut self.backlogged);
        for &ev in events.iter() {
            match ev.token {
                LISTENER => self.accept_ready(drain_deadline.is_some()),
                WAKE => self.drain_waker(),
                token => self.conn_event(token, ev),
            }
        }
        self.apply_completions();
        for token in backlogged {
            self.advance(token, 0);
        }
        self.expire_deadlines();

        if drain_deadline.is_none() && self.shutdown.load(Ordering::SeqCst) {
            *drain_deadline = Some(Instant::now() + self.config.drain_grace);
            self.begin_drain();
        }
        if let Some(deadline) = *drain_deadline {
            if self.conns.is_empty() {
                return true;
            }
            if Instant::now() >= deadline {
                self.kill_remaining();
                return true;
            }
        }
        false
    }

    /// How long the poller may sleep: not at all while a connection has
    /// lines left over from its turn, else until the earliest idle
    /// deadline or, while draining, the drain deadline — forever when
    /// there is neither.
    fn poll_timeout(&self, now: Instant, drain: Option<Instant>) -> Option<Duration> {
        if !self.backlogged.is_empty() {
            return Some(Duration::ZERO);
        }
        let earliest = self.deadlines.peek().map(|&Reverse((at, _))| at);
        let wake = earliest.into_iter().chain(drain).min();
        wake.map(|at| at.saturating_duration_since(now))
    }

    /// Accept everything the kernel has queued. New arrivals past the
    /// admission cap (or during drain) are turned away immediately.
    fn accept_ready(&mut self, draining: bool) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if draining {
                        let _ = stream.shutdown(Shutdown::Both);
                        continue;
                    }
                    if self.conns.len() >= self.config.max_conns {
                        self.reject_conn(stream);
                        continue;
                    }
                    self.admit(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Tell an un-admitted client *why* before hanging up, so it sees a
    /// distinct "server busy" rejection rather than an opaque EOF. Best
    /// effort under a short write timeout — a rejection must never
    /// stall the loop behind a slow client.
    fn reject_conn(&mut self, stream: TcpStream) {
        self.registry.front_end.refused();
        let mut stream = stream;
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
        let _ = stream.write_all(&error_line(BUSY_ERROR));
        let _ = stream.shutdown(Shutdown::Both);
    }

    fn admit(&mut self, stream: TcpStream) {
        let token = self.next_token;
        let deadline = Instant::now() + self.config.read_timeout;
        let Ok(conn) = Conn::new(stream, deadline) else {
            return;
        };
        if self
            .poller
            .register(raw_fd(conn.stream()), token, Interest::READ)
            .is_err()
        {
            conn.shutdown();
            return;
        }
        self.next_token += 1;
        self.deadlines.push(Reverse((deadline, token)));
        self.registry.front_end.admitted();
        self.conns.insert(token, conn);
    }

    /// Swallow pending wake bytes (their only job was ending the wait).
    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// React to readiness on one connection, then advance its state
    /// machine.
    fn conn_event(&mut self, token: u64, ev: Event) {
        let mut dead = false;
        let mut read_bytes = 0usize;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return; // already closed; stale event
            };
            if (ev.readable || ev.hangup) && !conn.inflight && !conn.closing {
                // Cap buffered-but-unparsed input a little above the
                // line limit so the overflow check can trip.
                let cap = MAX_LINE_BYTES + 64 * 1024;
                match conn.read_ready(cap, &self.registry.front_end) {
                    Ok(bytes) => read_bytes = bytes,
                    Err(_) => dead = true,
                }
            }
            if !dead
                && ev.writable
                && conn.wants_write()
                && conn.flush(&self.registry.front_end).is_err()
            {
                dead = true;
            }
        }
        if dead {
            self.close_conn(token);
        } else {
            self.advance(token, read_bytes);
        }
    }

    /// Advance one connection's state machine: flush output, answer or
    /// dispatch buffered lines while the connection is idle and its
    /// turn's budget lasts, decide close, sync poller interest, move the
    /// idle deadline. Safe to call any time.
    fn advance(&mut self, token: u64, read_bytes: usize) {
        let mut remove = false;
        if let Some(conn) = self.conns.get_mut(&token) {
            let mut taken = 0;
            loop {
                if conn.wants_write() && conn.flush(&self.registry.front_end).is_err() {
                    remove = true;
                    break;
                }
                if !conn.idle() {
                    break;
                }
                if taken == LINES_PER_TURN {
                    if !conn.lines.is_empty() {
                        self.backlogged.insert(token);
                    }
                    break;
                }
                let Some(line) = conn.lines.pop_line() else {
                    if conn.lines.line_overflows(MAX_LINE_BYTES) {
                        self.registry.front_end.oversized();
                        conn.queue_write(&error_line(&format!(
                            "bad request: line exceeds {MAX_LINE_BYTES} bytes"
                        )));
                        conn.closing = true;
                        continue;
                    }
                    if taken == 0 && read_bytes > 0 && !conn.lines.is_empty() {
                        self.registry.front_end.partial_read();
                    }
                    break;
                };
                taken += 1;
                match route(&self.registry, line) {
                    Route::Reply(reply) => {
                        self.registry.front_end.answered_on_loop();
                        conn.queue_write(&reply);
                        // As for a worker's reply: a peer that never reads
                        // it is reaped one timeout from now.
                        conn.deadline = Instant::now() + self.config.read_timeout;
                    }
                    Route::Worker(request) => {
                        self.registry.front_end.enqueued();
                        let sent = self.job_tx.as_ref().map(|tx| {
                            tx.try_send(Job {
                                conn: token,
                                request,
                            })
                        });
                        match sent {
                            Some(Ok(())) => conn.inflight = true,
                            Some(Err(mpsc::TrySendError::Full(_))) => {
                                self.registry.front_end.dequeued();
                                self.registry.front_end.refused();
                                conn.queue_write(&error_line(BUSY_ERROR));
                                conn.closing = true;
                            }
                            Some(Err(mpsc::TrySendError::Disconnected(_))) | None => {
                                self.registry.front_end.dequeued();
                                conn.closing = true;
                            }
                        }
                    }
                }
            }
            if !remove {
                if conn.closing && conn.drained() {
                    remove = true;
                } else if conn.peer_eof && conn.drained() && conn.lines.is_empty() {
                    remove = true; // clean EOF, nothing pending
                }
            }
            if !remove && !conn.inflight && read_bytes > 0 {
                conn.deadline = Instant::now() + self.config.read_timeout;
            }
            if !remove {
                let want = conn.desired_interest();
                if want != conn.registered {
                    if self
                        .poller
                        .modify(raw_fd(conn.stream()), token, want)
                        .is_err()
                    {
                        remove = true;
                    } else {
                        conn.registered = want;
                    }
                }
            }
        }
        if remove {
            self.close_conn(token);
        }
    }

    /// Deliver finished responses back onto their connections.
    fn apply_completions(&mut self) {
        let batch = match self.completions.lock() {
            Ok(mut queue) => std::mem::take(&mut *queue),
            Err(_) => return,
        };
        // One hand-off per reply a worker ran, delivered or not: one
        // drain of the wake channel can swallow several wake bytes.
        self.registry.front_end.handoffs(batch.len() as u64);
        for done in batch {
            let token = done.conn;
            {
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue; // connection died while the request ran
                };
                conn.inflight = false;
                conn.queue_write(&done.line);
                // Also for a peer that has half-closed: if it then never
                // reads its reply, this is what reaps it.
                conn.deadline = Instant::now() + self.config.read_timeout;
            }
            self.advance(token, 0);
        }
    }

    /// Kill connections whose idle deadline passed. An entry that
    /// surfaces while its request is in flight (the time is ours, not the
    /// client's) or after activity moved the deadline goes back in at the
    /// connection's current deadline, so the heap needs no cancellation.
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        while let Some(&Reverse((at, token))) = self.deadlines.peek() {
            if at > now {
                break;
            }
            self.deadlines.pop();
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // closed since; this was its one entry
            };
            if conn.inflight {
                conn.deadline = now + self.config.read_timeout;
            }
            if conn.deadline > now {
                self.deadlines.push(Reverse((conn.deadline, token)));
            } else {
                self.registry.front_end.deadline_kill();
                self.close_conn(token);
            }
        }
    }

    /// Enter drain: stop watching the listener, close idle connections
    /// immediately, and flag the rest to close as soon as their
    /// in-flight work flushes.
    fn begin_drain(&mut self) {
        let _ = self.poller.deregister(raw_fd(&self.listener), LISTENER);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.closing = true;
            }
            self.advance(token, 0);
        }
    }

    /// The drain grace expired: kill whatever is left.
    fn kill_remaining(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.registry.front_end.drain_killed();
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(raw_fd(conn.stream()), token);
            conn.shutdown();
            self.registry.front_end.closed();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RegistryClient;
    use crate::protocol::read_message;
    use servet_core::profile::MachineProfile;
    use servet_core::SimPlatform;
    use servet_core::{run_full_suite, SuiteConfig};
    use std::io::{BufRead, BufReader};

    fn measured_profile() -> MachineProfile {
        let mut platform = SimPlatform::tiny_cluster().with_noise(0.003);
        run_full_suite(&mut platform, &SuiteConfig::small(256 * 1024)).profile
    }

    fn temp_registry(tag: &str) -> Arc<Registry> {
        let dir = std::env::temp_dir().join(format!("servet-server-{tag}-{}", std::process::id()));
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

    /// Count live threads of this process whose name starts with
    /// `prefix` (names are truncated to 15 bytes by the kernel, so keep
    /// prefixes short).
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
    fn round_trip_over_loopback() {
        let registry = temp_registry("loopback");
        let server = serve(
            Arc::clone(&registry),
            "127.0.0.1:0",
            ServerConfig {
                read_timeout: Duration::from_secs(5),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let profile = measured_profile();

        let mut client = RegistryClient::connect(server.addr()).unwrap();
        let digest = client.put(&profile, Some("tiny")).unwrap();
        match client.get("tiny").unwrap() {
            Response::Profile {
                digest: d,
                profile: p,
            } => {
                assert_eq!(d, digest);
                assert_eq!(*p, profile, "profile must round-trip the wire exactly");
            }
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    /// A request that fits one read costs one `read` call, not a second
    /// one to find `WouldBlock`, and its reply one `write`.
    #[test]
    fn a_loop_answered_request_costs_one_read() {
        const N: u64 = 20;
        let registry = temp_registry("one-read");
        let server = serve(
            Arc::clone(&registry),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap();
        let mut client = RegistryClient::connect(server.addr()).unwrap();
        let digest = client.put(&measured_profile(), None).unwrap();
        let before = registry.stats().events;
        for _ in 0..N {
            assert!(matches!(
                client.get(&digest).unwrap(),
                Response::Profile { .. }
            ));
        }
        let after = registry.stats().events;
        assert_eq!(after.answered_on_loop - before.answered_on_loop, N);
        let reads = after.socket_reads - before.socket_reads;
        assert!(reads <= N + 1, "{reads} reads for {N} requests");
        assert_eq!(after.socket_writes - before.socket_writes, N);
        server.shutdown();
    }

    #[test]
    fn malformed_line_gets_error_and_connection_survives() {
        use std::io::Write as _;
        let registry = temp_registry("malformed");
        let server = serve(
            Arc::clone(&registry),
            "127.0.0.1:0",
            ServerConfig {
                read_timeout: Duration::from_secs(5),
                ..ServerConfig::default()
            },
        )
        .unwrap();

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"{definitely not json\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let resp: Response = read_message(&mut reader).unwrap().unwrap();
        assert!(matches!(resp, Response::Error { .. }));

        // Same connection still works afterwards.
        write_message(&mut stream, &Request::List).unwrap();
        let resp: Response = read_message(&mut reader).unwrap().unwrap();
        assert!(matches!(resp, Response::Listing { .. }));
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_dropped_after_timeout() {
        let registry = temp_registry("timeout");
        let server = serve(
            Arc::clone(&registry),
            "127.0.0.1:0",
            ServerConfig {
                read_timeout: Duration::from_millis(100),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream);
        // Say nothing: the server should hang up on us.
        let got: io::Result<Option<Response>> = read_message(&mut reader);
        assert!(matches!(got, Ok(None)), "expected EOF, got {got:?}");
        assert!(
            registry.stats().events.deadline_kills >= 1,
            "idle kill must be counted"
        );
        server.shutdown();
    }

    /// Requests re-arm the idle deadline without any timer work: a
    /// client that speaks every 80 ms outlives three 200 ms timeouts'
    /// worth of wall time, and is killed one timeout after it stops —
    /// not before (a deadline fired early) and not much later (the move
    /// was lost and the loop slept past it).
    #[test]
    fn activity_moves_the_idle_deadline() {
        let read_timeout = Duration::from_millis(200);
        let registry = temp_registry("activity");
        let server = serve(
            Arc::clone(&registry),
            "127.0.0.1:0",
            ServerConfig {
                read_timeout,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let events = || registry.stats().events;

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        let mut last_send = Instant::now();
        for round in 0..8 {
            std::thread::sleep(Duration::from_millis(80));
            last_send = Instant::now();
            stream.write_all(b"{\"cmd\":\"list\"}\n").unwrap();
            line.clear();
            let got = reader.read_line(&mut line).unwrap();
            assert!(got > 0, "killed while active, round {round}");
        }
        assert_eq!(events().deadline_kills, 0);

        // Silence. The deadline was set when the last reply was queued,
        // which is after the request left here and before the reply
        // arrived: bound the kill from below by the former and from above
        // by the latter.
        let last_reply = Instant::now();
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");
        assert!(
            last_send.elapsed() >= read_timeout,
            "killed {:?} after its last request",
            last_send.elapsed()
        );
        assert!(
            last_reply.elapsed() <= Duration::from_secs(2),
            "killed {:?} after its last reply",
            last_reply.elapsed()
        );
        assert_eq!(events().deadline_kills, 1);
        server.shutdown();
    }

    /// A peer that sends a request, half-closes, and then never reads a
    /// reply too large for the socket buffers leaves the server with
    /// output it cannot flush and no more input to wait for. Only the
    /// idle deadline can reap it, so the completion must set one although
    /// the peer is at EOF.
    #[test]
    fn stalled_reader_after_half_close_is_reaped() {
        let registry = temp_registry("stalled");
        // A reply that loopback cannot absorb with the reader stalled
        // (the size `conn.rs::partial_flush_survives_a_full_socket_buffer`
        // needs): pad the raw sweep until the profile's JSON passes 8 MiB.
        let samples = 230_000;
        let mut profile = measured_profile();
        profile.mcalibrator = Some(servet_core::McalibratorOutput {
            sizes: vec![usize::MAX; samples],
            cycles: vec![std::f64::consts::PI; samples],
            stride: 64,
        });
        assert!(serde_json::to_string(&profile).unwrap().len() > 8 * 1024 * 1024);
        registry.put(profile, Some("big")).unwrap();

        let server = serve(
            Arc::clone(&registry),
            "127.0.0.1:0",
            ServerConfig {
                read_timeout: Duration::from_millis(200),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let events = || registry.stats().events;

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"{\"cmd\":\"get\",\"key\":\"big\"}\n")
            .unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        // Only a worker's completion wakes the loop here.
        wait_until("the reply to reach the loop", || events().wakeups >= 1);
        let replied = Instant::now();
        while events().conns_open != 0 {
            assert!(
                replied.elapsed() < Duration::from_secs(2),
                "stalled half-closed connection never reaped: {:?}",
                events()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(events().deadline_kills, 1);
        drop(stream);
        server.shutdown();
        // Unlike the other stores here this one is 9 MB.
        let _ = std::fs::remove_dir_all(registry.store().dir());
    }

    /// The loop driven turn by turn on this thread, so its connections can
    /// be inspected between turns. A pipelined burst longer than a turn's
    /// budget, mixing loop answers with worker hand-offs, comes back in
    /// order; then a client that floods cached gets and never reads is
    /// held to one unflushed reply, does not stop another connection
    /// being served, and is reaped at its idle deadline.
    #[test]
    fn pipelined_burst_keeps_order_and_a_flooder_holds_one_reply() {
        let read_timeout = Duration::from_secs(2);
        let registry = temp_registry("turns");
        let shadow = temp_registry("turns-shadow");
        let profile = measured_profile();
        for r in [&registry, &shadow] {
            r.put(profile.clone(), Some("tiny")).unwrap();
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = ServerConfig {
            read_timeout,
            workers: 1,
            ..ServerConfig::default()
        };
        let live = Arc::new(AtomicUsize::new(0));
        let (mut ev, workers) =
            EventLoop::new(Arc::clone(&registry), listener, config, &live).unwrap();
        let (mut events, mut drain) = (Vec::new(), None);
        let mut turn_until = |ev: &mut EventLoop, what: &str, done: &dyn Fn(&EventLoop) -> bool| {
            let deadline = Instant::now() + Duration::from_secs(30);
            while !done(ev) {
                assert!(Instant::now() < deadline, "timed out waiting for: {what}");
                assert!(!ev.tick(&mut events, &mut drain), "the loop stopped");
            }
        };
        let get = "{\"cmd\":\"get\",\"key\":\"tiny\"}\n";
        let tune =
            "{\"cmd\":\"tune\",\"key\":\"tiny\",\"query\":{\"options\":{\"strategy\":\"line\"}}}\n";
        let mut other = profile.clone();
        other.machine = "burst".into();
        let put = serde_json::to_string(&Request::Put {
            profile: Box::new(other),
            name: Some("burst".into()),
        })
        .unwrap()
            + "\n";

        // Two turns' worth of cached gets, then a put and a tune miss for
        // the worker, an advise on what the put stored, a malformed line,
        // a memoized tune.
        let mut burst = get.repeat(2 * LINES_PER_TURN + 1);
        burst += &put;
        burst += tune;
        burst += "{\"cmd\":\"advise\",\"key\":\"burst\",\"query\":{\"kind\":\"tile\"}}\n";
        burst += "{nope\n";
        burst += tune;
        let expected: Vec<Vec<u8>> = burst
            .lines()
            .map(|line| match parse(line.as_bytes()) {
                Ok(request) => encode_line(&shadow.handle(request)),
                Err(error) => error_line(&error),
            })
            .collect();
        let replies = expected.len();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(burst.as_bytes()).unwrap();
            let mut reader = BufReader::new(stream);
            (0..replies)
                .map(|_| {
                    let mut line = Vec::new();
                    reader.read_until(b'\n', &mut line).unwrap();
                    line
                })
                .collect::<Vec<_>>()
        });
        turn_until(&mut ev, "the burst's replies", &|_| client.is_finished());
        assert!(client.join().unwrap() == expected, "replies out of order");
        let events_seen = registry.stats().events;
        assert_eq!(events_seen.answered_on_loop, replies as u64 - 2);
        assert_eq!(events_seen.wakeups, 2, "the put and the tune miss");
        turn_until(&mut ev, "the burst's connection closed", &|ev| {
            ev.conns.is_empty()
        });

        // The flood: far more gets than loopback buffers hold replies.
        let flooder_token = ev.next_token;
        let mut flooder = TcpStream::connect(addr).unwrap();
        flooder.write_all(get.repeat(2000).as_bytes()).unwrap();
        flooder.shutdown(Shutdown::Write).unwrap();
        turn_until(&mut ev, "the flooder's replies to back up", &|ev| {
            ev.conns
                .get(&flooder_token)
                .is_some_and(|conn| conn.wants_write())
        });
        let answered = registry.stats().events.answered_on_loop;
        let conn = &ev.conns[&flooder_token];
        let reply_len = expected[0].len();
        assert!(
            conn.pending_output() <= reply_len,
            "{} bytes unflushed, a reply is {reply_len}",
            conn.pending_output()
        );
        assert!(!conn.lines.is_empty() && !conn.desired_interest().readable);
        assert!(answered - events_seen.answered_on_loop < 2000);

        // Another connection is served meanwhile.
        let reader = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(get.as_bytes()).unwrap();
            let mut line = Vec::new();
            BufReader::new(stream).read_until(b'\n', &mut line).unwrap();
            line
        });
        turn_until(&mut ev, "the other client's reply", &|_| {
            reader.is_finished()
        });
        assert_eq!(reader.join().unwrap(), expected[0]);
        assert!(ev.conns.contains_key(&flooder_token), "reaped too early");

        turn_until(&mut ev, "the flooder to be reaped", &|ev| {
            ev.conns.is_empty()
        });
        assert_eq!(registry.stats().events.deadline_kills, 1);
        drop(flooder);
        ev.shutdown.store(true, Ordering::SeqCst);
        ev.waker.wake();
        ev.run(workers);
    }

    #[test]
    fn shutdown_closes_live_connections_promptly() {
        let registry = temp_registry("shutdown");
        let server = serve(
            Arc::clone(&registry),
            "127.0.0.1:0",
            ServerConfig {
                read_timeout: Duration::from_secs(60),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream);
        let start = std::time::Instant::now();
        server.shutdown();
        // Despite the 60 s read timeout, our connection dies immediately.
        let got: io::Result<Option<Response>> = read_message(&mut reader);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "shutdown took {:?}",
            start.elapsed()
        );
        // EOF or a reset error are both acceptable.
        assert!(!matches!(got, Ok(Some(_))), "unexpected message {got:?}");
    }

    /// The acceptance bar for the event loop: 64 concurrent connections
    /// are all admitted AND served while the server runs exactly
    /// `workers + 1` threads.
    #[cfg(target_os = "linux")]
    #[test]
    fn worker_pool_bounds_server_threads_under_load() {
        const CLIENTS: usize = 64;
        const WORKERS: usize = 4;
        let registry = temp_registry("pool");
        let server = serve(
            Arc::clone(&registry),
            "127.0.0.1:0",
            ServerConfig {
                workers: WORKERS,
                backlog: CLIENTS,
                thread_prefix: "pool64".into(),
                read_timeout: Duration::from_secs(30),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();

        // Every client sends one request, reads its reply, then holds
        // the connection open until the main thread has sampled the
        // server's thread count. The request is raw bytes and the reply
        // is read as a raw line — no serializer anywhere in the client
        // path — so a client thread always reaches the barrier even
        // when no JSON backend is available; missing the barrier would
        // deadlock the whole test.
        let served = Arc::new(std::sync::Barrier::new(CLIENTS + 1));
        let release = Arc::new(std::sync::Barrier::new(CLIENTS + 1));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let served = Arc::clone(&served);
                let release = Arc::clone(&release);
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(20)))
                        .unwrap();
                    let sent = stream.write_all(b"{\"cmd\":\"list\"}\n").is_ok();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut line = String::new();
                    let got = reader.read_line(&mut line).unwrap_or(0);
                    served.wait();
                    release.wait();
                    drop(stream);
                    assert!(sent, "every client must get its request out");
                    assert!(got > 0, "every client must draw a reply line");
                })
            })
            .collect();

        served.wait();
        // 64 live, served connections, yet the server is exactly the
        // fixed pool plus the event loop.
        assert_eq!(threads_with_prefix("pool64"), WORKERS + 1);
        let snap = registry.stats().accept;
        assert_eq!(snap.accepted, CLIENTS as u64);
        assert_eq!(snap.rejected, 0, "nothing rejected: {snap:?}");
        assert_eq!(snap.queue_depth, 0, "all requests drained: {snap:?}");
        let events = registry.stats().events;
        assert_eq!(events.conns_open, CLIENTS as u64, "{events:?}");
        assert!(events.conns_peak >= CLIENTS as u64, "{events:?}");

        release.wait();
        for c in clients {
            c.join().unwrap();
        }
        let live = server.live_threads();
        assert_eq!(live.load(Ordering::SeqCst), WORKERS + 1);
        server.shutdown();
        assert_eq!(live.load(Ordering::SeqCst), 0, "pool threads leaked");
        // A joined thread can linger in /proc/self/task for a moment
        // after `join` returns, so the kernel's view is waited for.
        wait_until("pool threads gone from /proc", || {
            threads_with_prefix("pool64") == 0
        });
    }

    /// Admission control: arrivals past `max_conns` get the typed
    /// `busy:` line and an EOF, and a freed slot re-opens the door.
    #[test]
    fn over_admission_cap_rejects_with_busy_line() {
        use std::io::{BufRead as _, Write as _};
        let registry = temp_registry("reject");
        let server = serve(
            Arc::clone(&registry),
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                backlog: 4,
                max_conns: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let accept = || registry.stats().accept;
        let events = || registry.stats().events;

        let first = TcpStream::connect(server.addr()).unwrap();
        wait_until("first connection admitted", || events().conns_open == 1);
        let _second = TcpStream::connect(server.addr()).unwrap();
        wait_until("second connection admitted", || events().conns_open == 2);
        // The third is over the cap: busy line, then a close.
        let turned_away = TcpStream::connect(server.addr()).unwrap();
        wait_until("third connection rejected", || accept().rejected == 1);
        // The busy line is hand-built (never JSON-encoded): read it raw,
        // it must be that line byte for byte.
        let mut reader = BufReader::new(turned_away);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(
            line.as_bytes(),
            error_line(BUSY_ERROR),
            "expected busy rejection"
        );
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "expected EOF");

        // Freeing a slot lets the next arrival in: a (malformed)
        // request line still draws a response line.
        drop(first);
        wait_until("slot freed", || events().conns_open == 1);
        let mut admitted = TcpStream::connect(server.addr()).unwrap();
        admitted.write_all(b"not json\n").unwrap();
        let mut line = String::new();
        BufReader::new(admitted.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(!line.trim().is_empty(), "admitted connection never served");

        let snap = accept();
        assert_eq!(snap.accepted, 3);
        assert_eq!(snap.rejected, 1);
        server.shutdown();
    }

    /// A full request queue answers with the same typed `busy:` line.
    /// With one worker and a rendezvous queue, concurrent clients must
    /// collide with an executing request quickly.
    #[test]
    fn saturated_request_queue_rejects_with_busy_line() {
        use std::io::{BufRead as _, Write as _};
        let registry = temp_registry("busyq");
        let server = serve(
            Arc::clone(&registry),
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                backlog: 0,
                read_timeout: Duration::from_secs(10),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let hammers: Vec<_> = (0..4)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || -> Option<String> {
                    while !stop.load(Ordering::SeqCst) {
                        let Ok(mut stream) = TcpStream::connect(addr) else {
                            continue;
                        };
                        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                        if stream.write_all(b"{\"cmd\":\"list\"}\n").is_err() {
                            continue;
                        }
                        let mut reader = BufReader::new(stream);
                        let mut line = String::new();
                        if reader.read_line(&mut line).unwrap_or(0) == 0 {
                            continue;
                        }
                        if line.as_bytes() == error_line(BUSY_ERROR) {
                            // The busy line is followed by a close.
                            let mut rest = String::new();
                            assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0);
                            stop.store(true, Ordering::SeqCst);
                            return Some(line);
                        }
                    }
                    None
                })
            })
            .collect();
        wait_until("a request-level rejection", || stop.load(Ordering::SeqCst));
        let busy_lines: Vec<String> = hammers
            .into_iter()
            .filter_map(|h| h.join().unwrap())
            .collect();
        assert!(!busy_lines.is_empty());
        assert!(registry.stats().accept.rejected >= 1);
        server.shutdown();
    }

    /// The client-facing half of the busy protocol: a put against a
    /// server at its admission cap maps to the distinct "server busy"
    /// error, and the retrying client rides out the rejection with
    /// backoff once the slot frees up.
    #[test]
    fn rejected_client_retries_and_succeeds() {
        use crate::client::{is_retryable, RetryPolicy, RetryingRegistryClient};

        let registry = temp_registry("retry");
        let server = serve(
            Arc::clone(&registry),
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                // One admission slot: with it occupied, every further
                // arrival is deterministically rejected.
                max_conns: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let accept = || registry.stats().accept;
        let events = || registry.stats().events;
        let profile = measured_profile();

        // Occupy the only slot.
        let busy = TcpStream::connect(server.addr()).unwrap();
        wait_until("first connection admitted", || events().conns_open == 1);

        // A plain client is turned away. Depending on how the server's
        // close races the put's write it sees the typed busy error or a
        // reset/EOF — every one of them retryable, none of them the
        // opaque application error the old EOF-only close produced.
        let mut plain = RegistryClient::connect(server.addr()).unwrap();
        plain.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let err = plain.put(&profile, Some("tiny")).unwrap_err();
        assert!(is_retryable(&err), "wanted retryable, got {err:?}");
        wait_until("rejection counted", || accept().rejected >= 1);

        // Free the slot shortly; the retrying client's backoff must
        // carry it past the rejections to a successful put.
        let freer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            drop(busy);
        });
        let mut retrying = RetryingRegistryClient::new(
            server.addr(),
            RetryPolicy {
                attempts: 40,
                initial_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(100),
                ..RetryPolicy::default()
            },
        );
        let digest = retrying
            .with_retry(|c| c.put(&profile, Some("tiny")))
            .unwrap();
        let (got_digest, got) = retrying.with_retry(|c| c.get_profile("tiny")).unwrap();
        assert_eq!(got_digest, digest);
        assert_eq!(got, profile);

        freer.join().unwrap();
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_connections() {
        let registry = temp_registry("drain");
        let server = serve(
            Arc::clone(&registry),
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                backlog: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let events = || registry.stats().events;

        let a = TcpStream::connect(server.addr()).unwrap();
        let b = TcpStream::connect(server.addr()).unwrap();
        let c = TcpStream::connect(server.addr()).unwrap();
        wait_until("three connections admitted", || events().conns_open == 3);

        // Shutdown must close every live connection, promptly, and
        // without needing the drain-kill hammer (they are all idle).
        let start = std::time::Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "shutdown took {:?}",
            start.elapsed()
        );
        assert_eq!(registry.stats().accept.drain_killed, 0);
        for stream in [a, b, c] {
            let mut reader = BufReader::new(stream);
            let got: io::Result<Option<Response>> = read_message(&mut reader);
            assert!(!matches!(got, Ok(Some(_))), "unexpected message {got:?}");
        }
    }
}
