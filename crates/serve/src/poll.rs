//! Thin, dependency-free wrappers over the Linux readiness APIs the
//! event-loop server needs: `epoll_create1`/`epoll_ctl`/`epoll_wait`,
//! `eventfd`, and a `RLIMIT_NOFILE` raise for the load generator's
//! connection herd.
//!
//! Everything is declared with `extern "C"` against the platform libc —
//! the workspace stays offline and std-only, no `libc`/`mio` crates.
//!
//! Safety model: every fd created here is owned by the wrapping struct
//! and closed on drop; raw-fd arguments are taken as `RawFd` from live
//! std types (`TcpListener`/`TcpStream`) whose lifetime the caller
//! manages — an fd must be [`Poller::del`]eted before its owner closes
//! it (or the epoll set simply forgets it on close, which is also fine
//! for level-triggered use).

use std::io;
use std::os::unix::io::RawFd;

// --- raw libc surface ---

#[allow(non_camel_case_types)]
type c_int = i32;

/// One readiness notification, laid out exactly as the kernel ABI wants
/// it (packed on x86-64, natural alignment elsewhere).
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bitmask (`EPOLLIN` | `EPOLLOUT` | ...).
    pub events: u32,
    /// Caller-chosen token, returned verbatim.
    pub data: u64,
}

/// One readiness notification, laid out exactly as the kernel ABI wants
/// it (packed on x86-64, natural alignment elsewhere).
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bitmask (`EPOLLIN` | `EPOLLOUT` | ...).
    pub events: u32,
    /// Caller-chosen token, returned verbatim.
    pub data: u64,
}

/// Readable (or a peer hangup pending read of the final bytes).
pub const EPOLLIN: u32 = 0x001;
/// Writable without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, no need to register).
pub const EPOLLERR: u32 = 0x008;
/// Peer hung up (always reported, no need to register).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const EINTR: c_int = 4;
const EAGAIN: c_int = 11;

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: c_int = 7;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    fn __errno_location() -> *mut c_int;
}

fn errno() -> c_int {
    unsafe { *__errno_location() }
}

fn last_error() -> io::Error {
    io::Error::from_raw_os_error(errno())
}

// --- epoll ---

/// An owned `epoll` instance.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// A fresh epoll set (`epoll_create1(EPOLL_CLOEXEC)`).
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        let arg = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        if unsafe { epoll_ctl(self.epfd, op, fd, arg) } < 0 {
            return Err(last_error());
        }
        Ok(())
    }

    /// Register `fd` with `interest`, reporting readiness as `token`.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Change a registered fd's interest set.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Remove `fd` from the set.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait for readiness, filling `events`. `timeout_ms < 0` blocks
    /// indefinitely, `0` polls. Returns the number of events written;
    /// `EINTR` is retried internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    events.as_mut_ptr(),
                    events.len().min(i32::MAX as usize) as c_int,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            if errno() != EINTR {
                return Err(last_error());
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { close(self.epfd) };
    }
}

// --- eventfd ---

/// An owned nonblocking `eventfd` used as a cross-thread wakeup: any
/// thread [`signal`](Self::signal)s it, the poll loop sees `EPOLLIN` and
/// [`drain`](Self::drain)s the counter. Both operations are async-safe
/// single syscalls, so `&EventFd` is shared freely across threads.
pub struct EventFd {
    fd: RawFd,
}

// SAFETY: signal/drain are single read/write syscalls on an eventfd,
// which the kernel serializes; no interior state beyond the fd.
unsafe impl Send for EventFd {}
unsafe impl Sync for EventFd {}

impl EventFd {
    /// A fresh counter at zero (`eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)`).
    pub fn new() -> io::Result<EventFd> {
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(last_error());
        }
        Ok(EventFd { fd })
    }

    /// The raw fd, for epoll registration.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Add 1 to the counter, waking any poller. Saturation (the counter
    /// at `u64::MAX - 1`) means a wake is already pending — success.
    pub fn signal(&self) {
        let one = 1u64.to_ne_bytes();
        loop {
            let n = unsafe { write(self.fd, one.as_ptr(), 8) };
            if n == 8 || (n < 0 && errno() == EAGAIN) {
                return;
            }
            if n < 0 && errno() != EINTR {
                return; // nothing useful to do with a broken eventfd
            }
        }
    }

    /// Reset the counter to zero so the next signal re-arms `EPOLLIN`.
    /// Returns `true` when at least one signal had been pending.
    pub fn drain(&self) -> bool {
        let mut buf = [0u8; 8];
        loop {
            let n = unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
            if n == 8 {
                return true;
            }
            if n < 0 && errno() == EINTR {
                continue;
            }
            return false; // EAGAIN: already drained
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

// --- rlimit ---

/// Best-effort raise of the open-file soft limit to at least `want`
/// (capped at the hard limit). Returns the resulting soft limit. The
/// idle-connection bench needs thousands of sockets; default soft
/// limits are often 1024.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    if lim.cur >= want {
        return lim.cur;
    }
    let new = RLimit {
        cur: want.min(lim.max),
        max: lim.max,
    };
    if unsafe { setrlimit(RLIMIT_NOFILE, &new) } == 0 {
        new.cur
    } else {
        lim.cur
    }
}

/// The current open-file soft limit, or 0 when it cannot be read. The
/// load generator's preflight compares this against its fd budget so a
/// too-small limit fails fast instead of half-opening the herd.
pub fn nofile_limit() -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    lim.cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn eventfd_signals_wake_the_poller_and_drain_rearms() {
        let poller = Poller::new().unwrap();
        let efd = EventFd::new().unwrap();
        poller.add(efd.fd(), EPOLLIN, 42).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];

        // Nothing pending: a zero-timeout wait sees no events.
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);

        efd.signal();
        efd.signal(); // coalesces into one readable counter
        let n = poller.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        // Copy out of the packed struct before asserting (no unaligned refs).
        let (tok, bits) = (events[0].data, events[0].events);
        assert_eq!(tok, 42);
        assert!(bits & EPOLLIN != 0);

        assert!(efd.drain(), "two signals were pending");
        assert!(!efd.drain(), "counter is reset");
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0, "level rearmed");
    }

    #[test]
    fn poller_reports_socket_readability_by_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), EPOLLIN, 7).unwrap();

        let mut client = TcpStream::connect(addr).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        let n = poller.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        let tok = events[0].data;
        assert_eq!(tok, 7, "listener token");

        let (server_side, _) = listener.accept().unwrap();
        poller.add(server_side.as_raw_fd(), EPOLLIN, 9).unwrap();
        client.write_all(b"x").unwrap();
        let n = poller.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        let tok = events[0].data;
        assert_eq!(tok, 9, "connection token");

        // Interest can be modified and removed.
        poller
            .modify(server_side.as_raw_fd(), EPOLLIN | EPOLLOUT, 9)
            .unwrap();
        let n = poller.wait(&mut events, 2000).unwrap();
        assert!(n >= 1);
        poller.del(server_side.as_raw_fd()).unwrap();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn nofile_limit_raise_is_monotone() {
        let before = raise_nofile_limit(0);
        let after = raise_nofile_limit(before.max(256));
        assert!(after >= before);
    }
}
