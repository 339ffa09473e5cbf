//! Per-connection state for the event-driven server: nonblocking
//! socket ownership, partial-line buffering across readiness events,
//! and a pending-output buffer with flush tracking.
//!
//! A connection is a small state machine driven by the event loop:
//!
//! ```text
//!          readable                 complete line          response
//!   ┌────► reading ── buffer ─────► in-flight ──────────► flushing ──┐
//!   │      (accumulate bytes,       (request queued        (write    │
//!   │       split NDJSON lines)      to a worker;           buffer   │
//!   │                                socket reads           drains)  │
//!   │                                paused = natural               ─┘
//!   └────────────────────────────────backpressure)──────────────────┘
//! ```
//!
//! At most **one request is in flight per connection** — exactly the
//! ordering guarantee the blocking worker-per-connection model gave —
//! and while one is, the loop stops reading from that socket, so a
//! pipelining client is backpressured by the kernel socket buffer
//! rather than by server memory.

use crate::poll::Interest;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Assembles newline-delimited frames from arbitrary byte chunks.
#[derive(Debug, Default)]
pub struct LineBuffer {
    buf: Vec<u8>,
    /// Bytes already scanned for `\n` (avoids rescanning on every
    /// partial read).
    scanned: usize,
}

impl LineBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a chunk received from the socket.
    pub fn extend(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes currently buffered (complete and partial lines).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pop the next complete line (without its `\n`), if any.
    pub fn pop_line(&mut self) -> Option<Vec<u8>> {
        let nl = self.buf[self.scanned..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| i + self.scanned);
        match nl {
            Some(i) => {
                let mut line: Vec<u8> = self.buf.drain(..=i).collect();
                line.pop(); // the newline
                self.scanned = 0;
                Some(line)
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }

    /// True when the *unterminated* trailing segment exceeds `max`
    /// bytes — an oversized (or endless) line the server must refuse
    /// rather than buffer without bound. Complete lines already queued
    /// ahead of it never count against the cap.
    pub fn line_overflows(&self, max: usize) -> bool {
        if self.buf.len() <= max {
            return false;
        }
        let tail_start = match self.buf.iter().rposition(|&b| b == b'\n') {
            Some(i) => i + 1,
            None => 0,
        };
        self.buf.len() - tail_start > max
    }
}

/// What a read pass over a ready socket produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Bytes appended to the line buffer.
    pub bytes: usize,
    /// The peer half-closed (clean EOF).
    pub eof: bool,
}

/// One live client connection owned by the event loop.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// The poller token this connection is registered under.
    pub token: u64,
    /// Incoming bytes not yet consumed as lines.
    pub lines: LineBuffer,
    /// Outgoing bytes not yet accepted by the kernel.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// A request from this connection is queued or executing.
    pub inflight: bool,
    /// The peer sent FIN; no more input will arrive.
    pub peer_eof: bool,
    /// Discard further input; close once the write buffer drains.
    pub closing: bool,
    /// When this connection may be killed as idle. Activity only assigns
    /// it: the event loop's deadline heap holds one entry per connection
    /// and compares against this field when the entry surfaces.
    pub deadline: Instant,
    /// Interest currently registered with the poller.
    pub registered: Interest,
}

impl Conn {
    /// Adopt an accepted socket (made nonblocking here).
    pub fn new(stream: TcpStream, token: u64, deadline: Instant) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            token,
            lines: LineBuffer::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            inflight: false,
            peer_eof: false,
            closing: false,
            deadline,
            registered: Interest::READ,
        })
    }

    /// The underlying socket (for poller registration and shutdown).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Drain the socket into the line buffer until `WouldBlock`, EOF,
    /// or `max_buffered` bytes are pending. Sets [`Self::peer_eof`] on
    /// EOF; transport errors bubble up (caller closes).
    pub fn read_ready(&mut self, max_buffered: usize) -> io::Result<ReadOutcome> {
        let mut chunk = [0u8; 8 * 1024];
        let mut total = 0usize;
        loop {
            if self.lines.len() >= max_buffered {
                break; // backpressure: stop pulling until lines drain
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    self.lines.extend(&chunk[..n]);
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(ReadOutcome {
            bytes: total,
            eof: self.peer_eof,
        })
    }

    /// Queue response bytes for writing.
    pub fn queue_write(&mut self, bytes: &[u8]) {
        // Compact the consumed prefix before growing.
        if self.write_pos > 0 {
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
        self.write_buf.extend_from_slice(bytes);
    }

    /// Push queued bytes into the kernel until done or `WouldBlock`.
    /// Returns `true` once the buffer is fully flushed.
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "kernel accepted zero bytes",
                    ))
                }
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.write_buf.clear();
        self.write_pos = 0;
        Ok(true)
    }

    /// Output still pending flush.
    pub fn wants_write(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// The interest this connection should be registered for right now:
    /// reads are paused while a request is in flight (backpressure) or
    /// the connection is closing; writes are armed only while output is
    /// pending (level-triggered pollers would spin otherwise).
    pub fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.inflight && !self.closing && !self.peer_eof,
            writable: self.wants_write(),
        }
    }

    /// Nothing left to do for this peer: no in-flight request, output
    /// flushed, and either the peer hung up or we are closing.
    pub fn drained(&self) -> bool {
        !self.inflight && !self.wants_write()
    }

    /// Send FIN both ways (the poller deregisters separately).
    pub fn shutdown(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_split_across_arbitrary_chunks() {
        let mut lb = LineBuffer::new();
        lb.extend(b"{\"cmd\":");
        assert_eq!(lb.pop_line(), None);
        lb.extend(b"\"list\"}\n{\"cmd\"");
        assert_eq!(lb.pop_line().as_deref(), Some(&b"{\"cmd\":\"list\"}"[..]));
        assert_eq!(lb.pop_line(), None);
        lb.extend(b":\"stats\"}\n");
        assert_eq!(lb.pop_line().as_deref(), Some(&b"{\"cmd\":\"stats\"}"[..]));
        assert!(lb.is_empty());
    }

    #[test]
    fn byte_at_a_time_assembly() {
        // The slow-loris shape: one byte per readiness event.
        let mut lb = LineBuffer::new();
        for b in b"{\"cmd\":\"list\"}" {
            lb.extend(&[*b]);
            assert_eq!(lb.pop_line(), None);
        }
        lb.extend(b"\n");
        assert_eq!(lb.pop_line().as_deref(), Some(&b"{\"cmd\":\"list\"}"[..]));
    }

    #[test]
    fn overflow_only_counts_the_unterminated_head() {
        let mut lb = LineBuffer::new();
        lb.extend(b"tiny\n");
        lb.extend(&[b'x'; 64]);
        // 69 bytes total but the unterminated head is 64: a 64-byte cap
        // flags it, a 100-byte cap does not — and a buffer whose excess
        // is complete lines does not overflow.
        assert!(!lb.line_overflows(100));
        assert!(lb.line_overflows(32));
        assert_eq!(lb.pop_line().as_deref(), Some(&b"tiny"[..]));
        assert!(!lb.line_overflows(64));
        assert!(lb.line_overflows(32));
    }

    #[test]
    fn empty_lines_pop_as_empty_frames() {
        let mut lb = LineBuffer::new();
        lb.extend(b"\n\n");
        assert_eq!(lb.pop_line().as_deref(), Some(&b""[..]));
        assert_eq!(lb.pop_line().as_deref(), Some(&b""[..]));
        assert_eq!(lb.pop_line(), None);
    }

    fn pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn conn_reads_flushes_and_tracks_interest() {
        let (mut client, server_side) = pair();
        let mut conn = Conn::new(server_side, 5, Instant::now()).unwrap();
        assert_eq!(conn.desired_interest(), Interest::READ);

        client.write_all(b"{\"cmd\":\"list\"}\n").unwrap();
        client.flush().unwrap();
        // Give loopback a moment, then drain.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let got = conn.read_ready(1 << 20).unwrap();
        assert!(got.bytes > 0 && !got.eof);
        assert!(conn.lines.pop_line().is_some());

        // In-flight pauses reads; queued output arms writes.
        conn.inflight = true;
        conn.queue_write(b"{\"reply\":\"ok\"}\n");
        let want = conn.desired_interest();
        assert!(!want.readable && want.writable);
        assert!(conn.flush().unwrap(), "tiny write must flush at once");
        conn.inflight = false;
        assert_eq!(conn.desired_interest(), Interest::READ);
        assert!(conn.drained());

        // Peer reads the reply and closes cleanly: the close surfaces
        // as EOF (an unread reply would turn the close into a reset).
        let mut reply = [0u8; 15];
        client.read_exact(&mut reply).unwrap();
        drop(client);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let got = conn.read_ready(1 << 20).unwrap();
        assert!(got.eof);
        assert!(!conn.desired_interest().readable);
    }

    #[test]
    fn partial_flush_survives_a_full_socket_buffer() {
        let (client, server_side) = pair();
        let mut conn = Conn::new(server_side, 1, Instant::now()).unwrap();
        // Queue far more than loopback buffers absorb with the reader
        // stalled: flush must make partial progress and report pending.
        let blob = vec![b'z'; 8 * 1024 * 1024];
        conn.queue_write(&blob);
        let first = conn.flush().unwrap();
        assert!(!first, "8 MiB cannot flush into a stalled socket");
        assert!(conn.wants_write());
        // Drain the client side; repeated flushes finish the job.
        let reader = std::thread::spawn(move || {
            let mut sink = client;
            let mut total = 0usize;
            let mut buf = [0u8; 65536];
            loop {
                match sink.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => total += n,
                    Err(_) => break,
                }
            }
            total
        });
        let deadline = Instant::now() + std::time::Duration::from_secs(20);
        while !conn.flush().unwrap() {
            assert!(Instant::now() < deadline, "flush never completed");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        conn.shutdown();
        assert_eq!(reader.join().unwrap(), blob.len());
    }
}
