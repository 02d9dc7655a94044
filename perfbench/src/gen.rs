//! The load generator: one thread driving one connection open loop.
//!
//! Every op has an intended send time. The same thread writes each frame
//! when it falls due and drains replies in between, so there is no
//! writer/reader hand-off to add scheduler noise. The daemon answers one
//! request per connection at a time, in order, so reply `k` belongs to
//! request `k`. Latency is taken from the intended send time (so a stall
//! charges every op queued behind it); service time from the actual send.
//!
//! Between sends the thread blocks in `ppoll(2)` on the socket until a
//! reply is readable or the next op falls due (nanosecond timeout, with
//! the thread's timer slack cut to 1 ns), so replies are stamped when
//! they land and the generator uses no CPU while it waits.
//! Nothing is decoded here: reply bodies are kept and checked after the
//! timed window.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Threads the generator runs (this one).
pub const THREADS: usize = 1;
/// Connections the generator drives.
pub const CONNECTIONS: usize = 1;
/// Requests allowed in flight on the connection. When the window is full
/// the generator waits and the schedule keeps charging.
pub const WINDOW: usize = 32;
/// No reply for this long with requests outstanding ends the phase; the
/// outstanding requests count as unanswered.
const STALL_LIMIT: Duration = Duration::from_secs(10);
/// Longest single wait when no send is pending, so the stall limit is
/// checked.
const MAX_WAIT_NS: u64 = 100_000_000;

// `ppoll(2)` and `prctl(2)` from the platform libc.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Block until `sock` is readable (or writable, when `want_write`) or
/// `timeout_ns` has passed. Errors and `EINTR` just end the wait: the
/// caller's next read or write reports them.
fn wait(sock: &TcpStream, want_write: bool, timeout_ns: u64) {
    let mut fd = PollFd {
        fd: sock.as_raw_fd(),
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    // SAFETY: one valid pollfd and timespec, both live for the call.
    unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
}

/// One op, encoded before the clock starts.
pub struct Planned {
    /// Intended send time, nanoseconds after the phase start.
    pub due_ns: u64,
    /// The full frame (length prefix included).
    pub frame: Vec<u8>,
}

/// What one phase measured. Index `k` of every vector is op `k`.
#[derive(Default)]
pub struct Phase {
    /// Actual send time (ns after the phase start).
    pub sent_ns: Vec<u64>,
    /// Reply time (ns after the phase start); `None` if never answered.
    pub done_ns: Vec<Option<u64>>,
    /// Reply body (version + type + payload).
    pub body: Vec<Vec<u8>>,
    /// Worst lateness of a send against its intended time.
    pub send_lag_max_ns: u64,
    /// First send to last reply.
    pub wall: Duration,
}

impl Phase {
    /// Ops that got a reply.
    pub fn answered(&self) -> usize {
        self.done_ns.iter().filter(|d| d.is_some()).count()
    }
}

fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Run `plan` against `addr` and return every op's timing and reply.
pub fn drive(addr: &str, plan: &[Planned]) -> std::io::Result<Phase> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    sock.set_nonblocking(true)?;
    // Timed waits end on time, not up to the default 50 µs late. This
    // sets the calling thread's slack only.
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument.
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
    let n = plan.len();
    let mut ph = Phase {
        sent_ns: vec![0; n],
        done_ns: vec![None; n],
        body: vec![Vec::new(); n],
        ..Phase::default()
    };
    let mut out: Vec<u8> = Vec::new();
    let mut out_pos = 0usize;
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut scratch = vec![0u8; 1 << 16];
    let (mut next, mut done) = (0usize, 0usize);
    let mut last_progress = Instant::now();
    let t0 = Instant::now();
    while done < n {
        let mut busy = false;
        let now = since(t0);
        while next < n && plan[next].due_ns <= now && next - done < WINDOW {
            out.extend_from_slice(&plan[next].frame);
            ph.sent_ns[next] = now;
            ph.send_lag_max_ns = ph.send_lag_max_ns.max(now - plan[next].due_ns);
            next += 1;
        }
        if out_pos < out.len() {
            match sock.write(&out[out_pos..]) {
                Ok(k) => {
                    out_pos += k;
                    busy = true;
                    if out_pos == out.len() {
                        out.clear();
                        out_pos = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => break,
            }
        }
        match sock.read(&mut scratch) {
            Ok(0) => break,
            Ok(k) => {
                let t = since(t0);
                inbuf.extend_from_slice(&scratch[..k]);
                let mut pos = 0;
                while inbuf.len() - pos >= 4 && done < next {
                    let len = u32::from_le_bytes(inbuf[pos..pos + 4].try_into().expect("4 bytes"))
                        as usize;
                    if inbuf.len() - pos - 4 < len {
                        break;
                    }
                    ph.body[done] = inbuf[pos + 4..pos + 4 + len].to_vec();
                    ph.done_ns[done] = Some(t);
                    done += 1;
                    pos += 4 + len;
                }
                inbuf.drain(..pos);
                busy = true;
                last_progress = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(_) => break,
        }
        if busy {
            continue;
        }
        if done == next {
            last_progress = Instant::now();
        } else if last_progress.elapsed() > STALL_LIMIT {
            break;
        }
        // Wait for a reply, room to write, or the next op's due time.
        let timeout = if next < n && next - done < WINDOW {
            plan[next].due_ns.saturating_sub(since(t0))
        } else {
            MAX_WAIT_NS
        };
        if timeout > 0 {
            wait(&sock, out_pos < out.len(), timeout.min(MAX_WAIT_NS));
        }
    }
    let first = ph.sent_ns.first().copied().unwrap_or(0);
    let last = ph.done_ns.iter().flatten().max().copied().unwrap_or(first);
    ph.wall = Duration::from_nanos(last.saturating_sub(first));
    Ok(ph)
}
