//! Readiness polling for the event-driven TCP front end — nothing beyond
//! std and the libc it already links, in the same spirit as the
//! dependency-free SHA-256 in [`crate::digest`].
//!
//! A [`Poller`] watches a set of file descriptors for read/write
//! readiness. The target picks the one poller that is compiled in:
//!
//! * **epoll** (every Linux target): `epoll_create1` / `epoll_ctl` /
//!   `epoll_wait` declared `extern "C"` in `mod sys` against the C library
//!   std links — no `libc` crate, no per-architecture code. This is the
//!   O(ready) poller that lets one thread multiplex 10k+ sockets.
//! * **scan** (everything else): a pure-std degraded mode that reports
//!   every registered descriptor as ready after a short sleep. Callers
//!   must treat readiness as a hint (sockets are nonblocking and
//!   `WouldBlock` is normal), which makes this trivially correct —
//!   just not efficient. It is the only poller off Linux, and is compiled
//!   into Linux test builds so the same tests run against both.
//!
//! Both have the same five methods (`new`, `register`, `modify`,
//! `deregister`, `wait`). Readiness is **level-triggered**: an event fires
//! as long as the condition holds, so the event loop may do partial reads
//! and writes without tracking edge state.

#[cfg(unix)]
use std::os::fd::RawFd;
#[cfg(not(unix))]
type RawFd = i32;

/// The descriptor to register `socket` under.
#[cfg(unix)]
pub(crate) fn raw_fd<T: std::os::fd::AsRawFd>(socket: &T) -> RawFd {
    socket.as_raw_fd()
}
/// No descriptors here; the scan poller never looks at one.
#[cfg(not(unix))]
pub(crate) fn raw_fd<T>(_socket: &T) -> RawFd {
    -1
}

/// What to watch a descriptor for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Wake when the descriptor is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub(crate) const READ: Self = Self {
        readable: true,
        writable: false,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// Data can be read (includes peer half-close / EOF).
    pub readable: bool,
    /// Data can be written.
    pub writable: bool,
    /// The peer hung up or the socket errored; the owner should read
    /// to EOF and close.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
pub(crate) use epoll::Poller;
#[cfg(not(target_os = "linux"))]
pub(crate) use scan::Poller;

/// The C-library entry points this module needs, declared against the
/// libc that std already links, with the two structs and the constants
/// they take. Failures are read from `io::Error::last_os_error()`, so
/// `ErrorKind` matching works exactly as with std I/O.
#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::c_int;

    /// `epoll_event` with the kernel's x86_64 packing (4-byte aligned,
    /// 12 bytes); other architectures use the natural C layout.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        /// `EPOLL*` readiness bits.
        pub events: u32,
        /// Caller-owned token returned verbatim.
        pub data: u64,
    }

    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    /// Always reported, no need to register.
    pub(super) const EPOLLERR: u32 = 0x008;
    /// Always reported, no need to register.
    pub(super) const EPOLLHUP: u32 = 0x010;
    /// The peer shut down its writing half.
    pub(super) const EPOLLRDHUP: u32 = 0x2000;

    pub(super) const EPOLL_CTL_ADD: c_int = 1;
    pub(super) const EPOLL_CTL_DEL: c_int = 2;
    pub(super) const EPOLL_CTL_MOD: c_int = 3;
    pub(super) const EPOLL_CLOEXEC: c_int = 0x80000;

    /// `struct rlimit` where `rlim_t` is 64 bits wide: every LP64 Linux.
    #[cfg(target_pointer_width = "64")]
    #[repr(C)]
    pub(super) struct Rlimit {
        pub cur: u64,
        pub max: u64,
    }

    /// 7 in the generic Linux ABI; mips and sparc kept older numbers.
    #[cfg(target_pointer_width = "64")]
    pub(super) const RLIMIT_NOFILE: c_int =
        if cfg!(any(target_arch = "mips64", target_arch = "mips64r6")) {
            5
        } else if cfg!(target_arch = "sparc64") {
            6
        } else {
            7
        };

    extern "C" {
        pub(super) fn epoll_create1(flags: c_int) -> c_int;
        pub(super) fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent)
            -> c_int;
        pub(super) fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub(super) fn close(fd: c_int) -> c_int;
        pub(super) fn listen(fd: c_int, backlog: c_int) -> c_int;
        #[cfg(target_pointer_width = "64")]
        pub(super) fn getrlimit(resource: c_int, limit: *mut Rlimit) -> c_int;
        #[cfg(target_pointer_width = "64")]
        pub(super) fn setrlimit(resource: c_int, limit: *const Rlimit) -> c_int;
    }
}

/// Best-effort raise of the soft `RLIMIT_NOFILE` to the hard limit —
/// thousands of multiplexed sockets need it. Returns the resulting
/// (possibly unchanged) soft limit, or `None` where it cannot be read or
/// set: callers keep the current limit. A no-op off 64-bit Linux.
pub(crate) fn raise_nofile_limit() -> Option<u64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut limit = sys::Rlimit { cur: 0, max: 0 };
        // SAFETY: `limit` is a live `struct rlimit` the call fills.
        if unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut limit) } != 0 {
            return None;
        }
        if limit.cur < limit.max {
            limit.cur = limit.max;
            // SAFETY: `limit` is a live, initialised `struct rlimit` the
            // call only reads.
            if unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &limit) } != 0 {
                return None;
            }
        }
        Some(limit.cur)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}

/// Deepen a listener's kernel accept backlog, best effort, by calling
/// `listen` again on the listening socket (std's `TcpListener::bind`
/// hardcodes 128, which a 10k-connection storm overruns). A no-op off
/// Linux.
pub(crate) fn deepen_listen_backlog(listener: &std::net::TcpListener, backlog: i32) {
    #[cfg(target_os = "linux")]
    // SAFETY: the descriptor stays open while `listener` is borrowed, and
    // `listen` on a listening socket only changes its backlog.
    unsafe {
        sys::listen(raw_fd(listener), backlog);
    }
    #[cfg(not(target_os = "linux"))]
    let _ = (listener, backlog);
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::{sys, Event, Interest, RawFd};
    use std::io;
    use std::time::Duration;

    /// A level-triggered readiness poller over registered descriptors:
    /// Linux `epoll`.
    pub(crate) struct Poller {
        epfd: RawFd,
        buf: Vec<sys::EpollEvent>,
    }

    fn bits(interest: Interest) -> u32 {
        let mut e = 0;
        if interest.readable {
            // A level-triggered RDHUP on a descriptor nobody reads would
            // fire on every wait once the peer half-closes.
            e |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if interest.writable {
            e |= sys::EPOLLOUT;
        }
        e
    }

    impl Poller {
        /// A new epoll instance; an `epoll_create1` failure is returned
        /// as is.
        pub(crate) fn new() -> io::Result<Self> {
            // SAFETY: takes no pointers.
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self {
                epfd,
                buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = sys::EpollEvent {
                events: bits(interest),
                data: token,
            };
            // SAFETY: `ev` is a live `epoll_event` the call only reads
            // (and ignores for `EPOLL_CTL_DEL`).
            if unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Start watching `fd` under `token`.
        pub(crate) fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Change what `fd` is watched for.
        pub(crate) fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Stop watching `fd`.
        pub(crate) fn deregister(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_DEL, fd, token, Interest::READ)
        }

        /// Block until at least one descriptor is ready or `timeout`
        /// elapses (`None` = wait forever; a fraction of a millisecond is
        /// rounded up, so a caller sleeping to a deadline does not spin
        /// short of it); ready events replace the contents of `events`.
        /// Returns the number of events. Retries `EINTR` internally.
        pub(crate) fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            let timeout_ms = match timeout {
                None => -1,
                Some(t) => t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
            };
            let n = loop {
                // SAFETY: `buf` is a live array of `buf.len()` events for
                // the call to fill.
                let n = unsafe {
                    sys::epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as i32,
                        timeout_ms,
                    )
                };
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for raw in &self.buf[..n] {
                let got = raw.events;
                events.push(Event {
                    token: raw.data,
                    readable: got & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                    writable: got & sys::EPOLLOUT != 0,
                    hangup: got & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `epfd` came from `epoll_create1` and is closed once.
            unsafe {
                sys::close(self.epfd);
            }
        }
    }
}

#[cfg(any(test, not(target_os = "linux")))]
mod scan {
    use super::{Event, Interest, RawFd};
    use std::io;
    use std::time::Duration;

    /// A level-triggered readiness poller over registered descriptors:
    /// the degraded pure-std one. Every registered descriptor is
    /// reported ready (for its registered interest) after a short nap.
    /// Sound because sockets are nonblocking — a spurious "readable"
    /// costs one `WouldBlock` — but O(registered) wakeups per tick.
    pub(crate) struct Poller {
        entries: Vec<(RawFd, u64, Interest)>,
    }

    impl Poller {
        /// An empty poller; never fails.
        pub(crate) fn new() -> io::Result<Self> {
            Ok(Self {
                entries: Vec::new(),
            })
        }

        /// Start watching `fd` under `token`.
        pub(crate) fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.entries.push((fd, token, interest));
            Ok(())
        }

        /// Change what `fd` is watched for.
        pub(crate) fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            for e in &mut self.entries {
                if e.0 == fd && e.1 == token {
                    e.2 = interest;
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        /// Stop watching `fd`.
        pub(crate) fn deregister(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
            let before = self.entries.len();
            self.entries.retain(|e| !(e.0 == fd && e.1 == token));
            if self.entries.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        /// Nap for `timeout` (at most 5 ms, so spurious readiness stays
        /// responsive), then report every registered descriptor; the
        /// events replace the contents of `events`. Returns their number.
        pub(crate) fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            let nap = timeout
                .unwrap_or(Duration::from_millis(5))
                .min(Duration::from_millis(5));
            std::thread::sleep(nap);
            for &(_, token, interest) in &self.entries {
                events.push(Event {
                    token,
                    readable: interest.readable,
                    writable: interest.writable,
                    hangup: false,
                });
            }
            Ok(events.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{self, Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    /// A connected loopback socket pair.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    /// What the event loop relies on, once per poller compiled for this
    /// target. `$exact` is false for the scan poller, which reports
    /// spuriously by design (a read must disprove it).
    macro_rules! poller_tests {
        ($name:ident, $exact:expr) => {
            mod $name {
                use super::*;
                use crate::poll::$name::Poller;

                #[test]
                fn readable_after_peer_writes() {
                    let (mut a, mut b) = pair();
                    b.set_nonblocking(true).unwrap();
                    let mut poller = Poller::new().unwrap();
                    poller.register(raw_fd(&b), 7, Interest::READ).unwrap();

                    let mut events = Vec::new();
                    // Nothing to read yet: a short wait returns empty.
                    poller
                        .wait(&mut events, Some(Duration::from_millis(20)))
                        .unwrap();
                    if $exact {
                        assert!(events.is_empty(), "{events:?}");
                    }

                    a.write_all(b"x").unwrap();
                    a.flush().unwrap();
                    // Readiness must arrive (promptly).
                    let deadline = std::time::Instant::now() + Duration::from_secs(5);
                    let mut got = false;
                    while std::time::Instant::now() < deadline && !got {
                        poller
                            .wait(&mut events, Some(Duration::from_millis(50)))
                            .unwrap();
                        for e in &events {
                            if e.token == 7 && e.readable {
                                let mut buf = [0u8; 8];
                                match b.read(&mut buf) {
                                    Ok(n) if n > 0 => got = true,
                                    Ok(_) => panic!("unexpected EOF"),
                                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                                    Err(e) => panic!("{e}"),
                                }
                            }
                        }
                    }
                    assert!(got, "readable event never delivered");
                }

                #[test]
                fn write_interest_fires_and_can_be_dropped() {
                    let (_a, b) = pair();
                    b.set_nonblocking(true).unwrap();
                    let mut poller = Poller::new().unwrap();
                    poller
                        .register(
                            raw_fd(&b),
                            3,
                            Interest {
                                readable: true,
                                writable: true,
                            },
                        )
                        .unwrap();
                    let mut events = Vec::new();
                    poller
                        .wait(&mut events, Some(Duration::from_millis(100)))
                        .unwrap();
                    assert!(
                        events.iter().any(|e| e.token == 3 && e.writable),
                        "an idle socket must be writable: {events:?}"
                    );
                    // Back to read-only: no more writable events.
                    poller.modify(raw_fd(&b), 3, Interest::READ).unwrap();
                    if $exact {
                        poller
                            .wait(&mut events, Some(Duration::from_millis(50)))
                            .unwrap();
                        assert!(
                            !events.iter().any(|e| e.token == 3 && e.writable),
                            "{events:?}"
                        );
                    }
                    poller.deregister(raw_fd(&b), 3).unwrap();
                    poller
                        .wait(&mut events, Some(Duration::from_millis(20)))
                        .unwrap();
                    assert!(events.is_empty(), "{events:?}");
                }

                #[test]
                fn peer_close_reports_readable_eof() {
                    let (a, mut b) = pair();
                    b.set_nonblocking(true).unwrap();
                    let mut poller = Poller::new().unwrap();
                    let paused = Interest {
                        readable: false,
                        writable: false,
                    };
                    poller.register(raw_fd(&b), 9, paused).unwrap();
                    drop(a);
                    let mut events = Vec::new();
                    // Reads paused (a request in flight): the peer's FIN
                    // must wait its turn, not spin the loop.
                    poller
                        .wait(&mut events, Some(Duration::from_millis(50)))
                        .unwrap();
                    if $exact {
                        assert!(events.is_empty(), "{events:?}");
                    }
                    poller.modify(raw_fd(&b), 9, Interest::READ).unwrap();
                    let deadline = std::time::Instant::now() + Duration::from_secs(5);
                    let mut saw_eof = false;
                    while std::time::Instant::now() < deadline && !saw_eof {
                        poller
                            .wait(&mut events, Some(Duration::from_millis(50)))
                            .unwrap();
                        for e in &events {
                            if e.token == 9 && (e.readable || e.hangup) {
                                let mut buf = [0u8; 8];
                                match b.read(&mut buf) {
                                    Ok(0) => saw_eof = true,
                                    Ok(_) => {}
                                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => {}
                                    Err(_) => saw_eof = true, // reset also proves the close
                                }
                            }
                        }
                    }
                    assert!(saw_eof, "close never surfaced");
                }
            }
        };
    }

    #[cfg(target_os = "linux")]
    poller_tests!(epoll, true);
    poller_tests!(scan, false);

    #[cfg(target_os = "linux")]
    #[test]
    fn default_poller_is_epoll_on_linux() {
        let _: super::epoll::Poller = Poller::new().unwrap();
    }

    /// The kernel packs `epoll_event` to 12 bytes on x86 (32-bit x86 gets
    /// there by `u64`'s 4-byte alignment) and leaves it at 16 elsewhere; a
    /// wrong size corrupts every event after the first in a wait.
    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_event_has_the_kernel_layout() {
        let want = match std::env::consts::ARCH {
            "x86_64" | "x86" => 12,
            _ => 16,
        };
        assert_eq!(std::mem::size_of::<sys::EpollEvent>(), want);
    }

    #[test]
    fn nofile_raise_reports_a_limit() {
        // Must not error out on 64-bit Linux; elsewhere it's a None no-op.
        let limit = raise_nofile_limit();
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        assert!(limit.unwrap() >= 1024);
        #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
        assert!(limit.is_none());
    }
}
