//! Readiness polling for the event-driven TCP front end — std-only, in
//! the same spirit as the dependency-free SHA-256 in [`crate::digest`].
//!
//! A [`Poller`] watches a set of file descriptors for read/write
//! readiness. Two backends exist, best-first:
//!
//! * **epoll** (Linux on x86_64/aarch64): `epoll_create1` /
//!   `epoll_ctl` / `epoll_pwait` issued as raw syscalls through thin
//!   inline-asm wrappers in [`sys`] — no `libc` crate, no FFI. This is
//!   the O(ready) backend that lets one thread multiplex 10k+ sockets.
//! * **scan** (everything else): a pure-std degraded mode that reports
//!   every registered descriptor as ready after a short sleep. Callers
//!   must treat readiness as a hint (sockets are nonblocking and
//!   `WouldBlock` is normal), which makes this trivially correct —
//!   just not efficient. It exists so the crate still builds and works
//!   on targets without the syscall wrappers.
//!
//! Readiness is **level-triggered** on every backend: an event fires as
//! long as the condition holds, so the event loop may do partial reads
//! and writes without tracking edge state.

use std::io;
use std::time::Duration;

#[cfg(unix)]
use std::os::fd::RawFd;
#[cfg(not(unix))]
type RawFd = i32;

/// What to watch a descriptor for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Self = Self {
        readable: true,
        writable: false,
    };
    /// Read + write interest — a connection with buffered output.
    pub const READ_WRITE: Self = Self {
        readable: true,
        writable: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
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

/// Which polling mechanism a [`Poller`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Linux `epoll` via raw syscalls.
    Epoll,
    /// Pure-std spurious-readiness scanning — the degraded fallback.
    Scan,
}

/// A level-triggered readiness poller over registered descriptors.
pub struct Poller {
    imp: Impl,
}

enum Impl {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Epoll(epoll::Epoll),
    Scan(scan::Scan),
}

impl Poller {
    /// The best poller this platform offers: epoll where the syscall
    /// wrappers exist (an `epoll_create1` failure is returned as is), the
    /// scan fallback elsewhere.
    pub fn new() -> io::Result<Self> {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            Self::with_backend(Backend::Epoll)
        }
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            Self::with_backend(Backend::Scan)
        }
    }

    /// A poller on a specific backend (tests compare backends; callers
    /// on exotic targets may force `Scan`).
    pub fn with_backend(backend: Backend) -> io::Result<Self> {
        match backend {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Backend::Epoll => Ok(Self {
                imp: Impl::Epoll(epoll::Epoll::new()?),
            }),
            Backend::Scan => Ok(Self {
                imp: Impl::Scan(scan::Scan::new()),
            }),
            #[cfg(not(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            )))]
            _ => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "no syscall backend on this target; use Backend::Scan",
            )),
        }
    }

    /// The backend actually in use.
    pub fn backend(&self) -> Backend {
        match &self.imp {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Impl::Epoll(_) => Backend::Epoll,
            Impl::Scan(_) => Backend::Scan,
        }
    }

    /// Start watching `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Impl::Epoll(e) => e.register(fd, token, interest),
            Impl::Scan(s) => s.register(fd, token, interest),
        }
    }

    /// Change what `fd` is watched for.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Impl::Epoll(e) => e.modify(fd, token, interest),
            Impl::Scan(s) => s.modify(fd, token, interest),
        }
    }

    /// Stop watching `fd`.
    pub fn deregister(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Impl::Epoll(e) => e.deregister(fd),
            Impl::Scan(s) => s.deregister(fd, token),
        }
    }

    /// Block until at least one descriptor is ready or `timeout`
    /// elapses (`None` = wait forever); ready events are appended to
    /// `events` (cleared first). Returns the number of events.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        match &mut self.imp {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Impl::Epoll(e) => e.wait(events, timeout),
            Impl::Scan(s) => s.wait(events, timeout),
        }
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("backend", &self.backend())
            .finish()
    }
}

/// Thin raw-syscall wrappers (Linux x86_64/aarch64 only) — the whole
/// "libc" this crate needs, in ~60 lines of inline asm.
///
/// Every wrapper returns `io::Result`; negative raw returns are mapped
/// through `io::Error::from_raw_os_error(-ret)` so `ErrorKind` matching
/// works exactly as with std I/O.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub mod sys {
    use std::io;
    use std::os::fd::RawFd;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const CLOSE: usize = 3;
        pub const LISTEN: usize = 50;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EPOLL_CREATE1: usize = 291;
        pub const PRLIMIT64: usize = 302;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const CLOSE: usize = 57;
        pub const LISTEN: usize = 201;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const EPOLL_CREATE1: usize = 20;
        pub const PRLIMIT64: usize = 261;
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        std::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a as isize => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
        ret
    }

    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    /// `epoll_event` with the kernel's x86_64 packing (4-byte aligned,
    /// 12 bytes); other architectures use the natural 16-byte layout.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        /// `EPOLL*` readiness bits.
        pub events: u32,
        /// Caller-owned token returned verbatim.
        pub data: u64,
    }

    /// `EPOLLIN`.
    pub const EPOLLIN: u32 = 0x001;
    /// `EPOLLOUT`.
    pub const EPOLLOUT: u32 = 0x004;
    /// `EPOLLERR` (always reported, no need to register).
    pub const EPOLLERR: u32 = 0x008;
    /// `EPOLLHUP` (always reported, no need to register).
    pub const EPOLLHUP: u32 = 0x010;
    /// `EPOLLRDHUP` — peer shut down its writing half.
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// `EPOLL_CTL_ADD`.
    pub const EPOLL_CTL_ADD: i32 = 1;
    /// `EPOLL_CTL_DEL`.
    pub const EPOLL_CTL_DEL: i32 = 2;
    /// `EPOLL_CTL_MOD`.
    pub const EPOLL_CTL_MOD: i32 = 3;

    const EPOLL_CLOEXEC: usize = 0x80000;

    /// `epoll_create1(EPOLL_CLOEXEC)` — a new epoll instance.
    pub fn epoll_create1() -> io::Result<RawFd> {
        check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })
            .map(|fd| fd as RawFd)
    }

    /// `epoll_ctl(epfd, op, fd, event)`.
    pub fn epoll_ctl(
        epfd: RawFd,
        op: i32,
        fd: RawFd,
        event: Option<&mut EpollEvent>,
    ) -> io::Result<()> {
        let ptr = event.map_or(0usize, |e| e as *mut EpollEvent as usize);
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                epfd as usize,
                op as usize,
                fd as usize,
                ptr,
                0,
                0,
            )
        })
        .map(|_| ())
    }

    /// `epoll_pwait(epfd, events, maxevents, timeout_ms, NULL)`;
    /// `timeout_ms < 0` blocks forever. Retries `EINTR` internally.
    pub fn epoll_wait(
        epfd: RawFd,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        loop {
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    epfd as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    timeout_ms as isize as usize,
                    0, // sigmask = NULL
                    8, // sigsetsize
                )
            };
            match check(ret) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => return other,
            }
        }
    }

    /// `close(fd)`.
    pub fn close(fd: RawFd) {
        let _ = unsafe { syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0) };
    }

    /// Re-`listen(fd, backlog)` on an already listening socket to deepen
    /// its kernel accept backlog (std's `TcpListener::bind` hardcodes
    /// 128, which a 10k-connection storm overruns).
    pub fn listen(fd: RawFd, backlog: i32) -> io::Result<()> {
        check(unsafe { syscall6(nr::LISTEN, fd as usize, backlog as usize, 0, 0, 0, 0) })
            .map(|_| ())
    }

    #[repr(C)]
    struct Rlimit64 {
        cur: u64,
        max: u64,
    }

    const RLIMIT_NOFILE: usize = 7;

    /// Raise the soft `RLIMIT_NOFILE` to the hard limit (via
    /// `prlimit64`) and return the resulting soft limit. Thousands of
    /// multiplexed sockets need it; callers treat failure as "keep the
    /// current limit".
    pub fn raise_nofile_limit() -> io::Result<u64> {
        let mut old = Rlimit64 { cur: 0, max: 0 };
        check(unsafe {
            syscall6(
                nr::PRLIMIT64,
                0,
                RLIMIT_NOFILE,
                0,
                &mut old as *mut Rlimit64 as usize,
                0,
                0,
            )
        })?;
        if old.cur >= old.max {
            return Ok(old.cur);
        }
        let new = Rlimit64 {
            cur: old.max,
            max: old.max,
        };
        check(unsafe {
            syscall6(
                nr::PRLIMIT64,
                0,
                RLIMIT_NOFILE,
                &new as *const Rlimit64 as usize,
                0,
                0,
                0,
            )
        })?;
        Ok(new.cur)
    }
}

/// Best-effort soft fd-limit raise; returns the (possibly unchanged)
/// soft limit, or `None` where unknowable. A no-op shim off Linux.
pub fn raise_nofile_limit() -> Option<u64> {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        sys::raise_nofile_limit().ok()
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        None
    }
}

/// Deepen a listener's kernel accept backlog, best effort (no-op off
/// Linux).
pub fn deepen_listen_backlog(listener: &std::net::TcpListener, backlog: i32) {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        use std::os::fd::AsRawFd;
        let _ = sys::listen(listener.as_raw_fd(), backlog);
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        let _ = (listener, backlog);
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod epoll {
    use super::{sys, Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    pub struct Epoll {
        epfd: RawFd,
        buf: Vec<sys::EpollEvent>,
    }

    fn bits(interest: Interest) -> u32 {
        let mut e = sys::EPOLLRDHUP;
        if interest.readable {
            e |= sys::EPOLLIN;
        }
        if interest.writable {
            e |= sys::EPOLLOUT;
        }
        e
    }

    impl Epoll {
        pub fn new() -> io::Result<Self> {
            Ok(Self {
                epfd: sys::epoll_create1()?,
                buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = sys::EpollEvent {
                events: bits(interest),
                data: token,
            };
            sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, Some(&mut ev))
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = sys::EpollEvent {
                events: bits(interest),
                data: token,
            };
            sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, Some(&mut ev))
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, None)
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let timeout_ms = match timeout {
                None => -1,
                Some(t) => t.as_millis().min(i32::MAX as u128) as i32,
            };
            let n = sys::epoll_wait(self.epfd, &mut self.buf, timeout_ms)?;
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

    impl Drop for Epoll {
        fn drop(&mut self) {
            sys::close(self.epfd);
        }
    }
}

mod scan {
    use super::{Event, Interest};
    use std::io;
    use std::time::Duration;

    use super::RawFd;

    /// The degraded pure-std backend: every registered descriptor is
    /// reported ready (for its registered interest) after a short nap.
    /// Sound because sockets are nonblocking — a spurious "readable"
    /// costs one `WouldBlock` — but O(registered) wakeups per tick.
    pub struct Scan {
        entries: Vec<(RawFd, u64, Interest)>,
    }

    impl Scan {
        pub fn new() -> Self {
            Self {
                entries: Vec::new(),
            }
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.entries.push((fd, token, interest));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            for e in &mut self.entries {
                if e.0 == fd && e.1 == token {
                    e.2 = interest;
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn deregister(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
            let before = self.entries.len();
            self.entries.retain(|e| !(e.0 == fd && e.1 == token));
            if self.entries.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            // Cap the nap so spurious readiness stays responsive.
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
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    #[cfg(unix)]
    use std::os::fd::AsRawFd;

    /// A connected loopback socket pair.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn backends() -> Vec<Backend> {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            vec![Backend::Epoll, Backend::Scan]
        }
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            vec![Backend::Scan]
        }
    }

    #[test]
    fn readable_after_peer_writes_on_every_backend() {
        for backend in backends() {
            let (mut a, mut b) = pair();
            b.set_nonblocking(true).unwrap();
            let mut poller = Poller::with_backend(backend).unwrap();
            poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

            let mut events = Vec::new();
            // Nothing to read yet: a short wait returns empty (the scan
            // backend reports spuriously, which a read must disprove).
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            if backend != Backend::Scan {
                assert!(events.is_empty(), "{backend:?}: {events:?}");
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
                            Ok(_) => panic!("{backend:?}: unexpected EOF"),
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                            Err(e) => panic!("{backend:?}: {e}"),
                        }
                    }
                }
            }
            assert!(got, "{backend:?}: readable event never delivered");
        }
    }

    #[test]
    fn write_interest_fires_and_can_be_dropped() {
        for backend in backends() {
            let (_a, b) = pair();
            b.set_nonblocking(true).unwrap();
            let mut poller = Poller::with_backend(backend).unwrap();
            poller
                .register(b.as_raw_fd(), 3, Interest::READ_WRITE)
                .unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 3 && e.writable),
                "{backend:?}: an idle socket must be writable: {events:?}"
            );
            // Back to read-only: no more writable events (except Scan's
            // by-design spurious ones).
            poller.modify(b.as_raw_fd(), 3, Interest::READ).unwrap();
            if backend != Backend::Scan {
                poller
                    .wait(&mut events, Some(Duration::from_millis(50)))
                    .unwrap();
                assert!(
                    !events.iter().any(|e| e.token == 3 && e.writable),
                    "{backend:?}: {events:?}"
                );
            }
            poller.deregister(b.as_raw_fd(), 3).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}: {events:?}");
        }
    }

    #[test]
    fn peer_close_reports_readable_eof() {
        for backend in backends() {
            let (a, mut b) = pair();
            b.set_nonblocking(true).unwrap();
            let mut poller = Poller::with_backend(backend).unwrap();
            poller.register(b.as_raw_fd(), 9, Interest::READ).unwrap();
            drop(a);
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            let mut saw_eof = false;
            let mut events = Vec::new();
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
            assert!(saw_eof, "{backend:?}: close never surfaced");
        }
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn default_backend_is_epoll_on_linux() {
        assert_eq!(Poller::new().unwrap().backend(), Backend::Epoll);
    }

    #[test]
    fn nofile_raise_reports_a_limit() {
        // Must not error out on Linux; elsewhere it's a None no-op.
        let limit = raise_nofile_limit();
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        assert!(limit.unwrap() >= 1024);
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        assert!(limit.is_none());
    }
}
