//! Per-connection state for the readiness-polled server: incremental
//! length-prefixed frame accumulation, buffered partial writes, and the
//! idle/write deadlines — everything one nonblocking socket needs
//! between readiness notifications.
//!
//! The pieces are transport-agnostic ([`FrameAccumulator`] eats byte
//! slices, [`WriteBuf`] drains into any `Write`), so the protocol state
//! machine is unit-testable without sockets; [`Conn`] binds them to a
//! `TcpStream` plus the deadline bookkeeping the event loop's timer
//! heap reads.
//!
//! Deadline semantics: the idle clock for a frame starts when the
//! previous frame completed (or the connection was accepted) and is
//! **not** extended by partial progress — a peer dripping one byte per
//! poll interval (slow loris) is evicted after `idle_timeout` just like
//! an entirely silent one.
//! The write clock starts when buffered output stalls and clears when
//! the buffer drains.

use crate::proto::{ProtoError, MAX_FRAME_BYTES};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Incremental parser for `[len: u32 LE][body]` frames fed by arbitrary
/// byte chunks. Validates each length prefix exactly like
/// [`crate::proto::read_frame`]: a prefix below 2 or above
/// [`MAX_FRAME_BYTES`] poisons the stream (framing is unrecoverable).
#[derive(Default)]
pub struct FrameAccumulator {
    buf: Vec<u8>,
    pos: usize,
    /// Set once a length prefix was rejected; every later call reports
    /// the same error (the stream cannot resynchronize).
    poisoned: Option<ProtoError>,
}

impl FrameAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed freshly-read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when a frame (or its header) has started but not finished
    /// — the state the slow-loris deadline applies to.
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// Pop the next complete frame body (length prefix stripped), if
    /// the buffered bytes contain one.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtoError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        if self.buffered() < 4 {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap());
        if len < 2 {
            self.poisoned = Some(ProtoError::TooShort);
            return Err(ProtoError::TooShort);
        }
        if len > MAX_FRAME_BYTES {
            self.poisoned = Some(ProtoError::Oversized(len));
            return Err(ProtoError::Oversized(len));
        }
        let total = 4 + len as usize;
        if self.buffered() < total {
            self.compact();
            return Ok(None);
        }
        let body = self.buf[self.pos + 4..self.pos + total].to_vec();
        self.pos += total;
        self.compact();
        Ok(Some(body))
    }

    /// Drop consumed bytes once they dominate the buffer, so a
    /// long-lived connection's buffer stays proportional to its unread
    /// backlog, not its history.
    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Buffered outbound frames with partial-write resumption: responses
/// are appended as fully-encoded frames and flushed as far as the
/// socket accepts, keeping a cursor so `EPOLLOUT` can continue exactly
/// where the kernel buffer filled up. Frames are kept as separate
/// buffers and flushed with `write_vectored` (`writev`), so queuing a
/// frame never copies its bytes and a backlog of responses goes out in
/// one scatter-gather syscall.
#[derive(Default)]
pub struct WriteBuf {
    /// Queued frames.
    frames: VecDeque<Vec<u8>>,
    /// Bytes of `frames[0]` already written.
    head: usize,
}

/// Most frames handed to one `write_vectored` call; a longer backlog
/// just takes another call.
const MAX_IOVECS: usize = 64;

impl WriteBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a fully-encoded frame (length prefix included) without
    /// copying it.
    pub fn push_frame(&mut self, frame: Vec<u8>) {
        self.frames.push_back(frame);
    }

    /// Unwritten bytes pending.
    pub fn pending(&self) -> usize {
        self.frames.iter().map(Vec::len).sum::<usize>() - self.head
    }

    /// Queued frames not yet fully written.
    pub fn frames_pending(&self) -> usize {
        self.frames.len()
    }

    /// `true` when everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Drop `n` written bytes from the front of the queue.
    fn consume(&mut self, mut n: usize) {
        while n > 0 {
            let front_left = self.frames[0].len() - self.head;
            if n >= front_left {
                n -= front_left;
                self.head = 0;
                self.frames.pop_front();
            } else {
                self.head += n;
                n = 0;
            }
        }
    }

    /// Write as much as `w` accepts. Returns `Ok(true)` when the buffer
    /// fully drained, `Ok(false)` when the writer would block with
    /// bytes still pending. `Interrupted` is retried; `WouldBlock` is
    /// not an error.
    pub fn write_to(&mut self, w: &mut impl Write) -> std::io::Result<bool> {
        while !self.frames.is_empty() {
            let wrote = if self.frames.len() == 1 {
                w.write(&self.frames[0][self.head..])
            } else {
                let mut slices: Vec<std::io::IoSlice<'_>> =
                    Vec::with_capacity(self.frames.len().min(MAX_IOVECS));
                slices.push(std::io::IoSlice::new(&self.frames[0][self.head..]));
                for f in self.frames.iter().skip(1).take(MAX_IOVECS - 1) {
                    slices.push(std::io::IoSlice::new(f));
                }
                w.write_vectored(&slices)
            };
            match wrote {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.consume(n),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.head = 0;
        Ok(true)
    }
}

/// What [`Conn::read_ready`] observed on the socket.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The socket is drained for now; the connection stays open.
    Open,
    /// Peer closed its end (EOF). Clean only at a frame boundary — the
    /// caller checks `mid_frame()`.
    PeerClosed,
    /// Transport error; the connection is dead.
    Failed,
}

/// One nonblocking connection: socket, parser, write buffer, dispatch
/// queue and deadlines. The event loop owns a `Conn` per live socket
/// and drives it from readiness and timer events.
pub struct Conn {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// The epoll token (also the key in the connection table). Tokens
    /// are never reused, so late worker completions for a closed
    /// connection drop harmlessly.
    pub token: u64,
    /// Inbound frame parser.
    pub acc: FrameAccumulator,
    /// Outbound buffer (responses in order). The event loop queues
    /// replies here and flushes once per poll iteration, so several
    /// frames go out in a single `writev`.
    pub out: WriteBuf,
    /// Complete frame bodies not yet dispatched, in arrival order. When
    /// nothing from this connection is in flight, the event loop takes
    /// the next run off the front (up to 32 consecutive requests, ending
    /// early at a `Shutdown` or undecodable frame); frames that arrive
    /// while a run is in flight wait here for the next one.
    pub pending: VecDeque<Vec<u8>>,
    /// A run of this connection's requests is on the worker pool.
    /// Cleared only when the run's last reply arrives — all of a run's
    /// replies come back together.
    pub in_flight: bool,
    /// Close once the write buffer drains (set after framing errors and
    /// during drain).
    pub closing: bool,
    /// The epoll interest bits currently registered for this socket
    /// (server-maintained; `0` until registration).
    pub interest: u32,
    /// A framing violation was observed; the Malformed error is sent
    /// (and the connection closed) only after the complete frames that
    /// arrived ahead of it have been answered: answer-then-close, in
    /// order, for pipelined clients.
    pub poison: Option<ProtoError>,
    /// Idle/slow-loris deadline: when the frame being awaited must be
    /// complete.
    pub read_deadline: Instant,
    /// When stalled buffered output must have drained (set while
    /// `out` is non-empty).
    pub write_deadline: Option<Instant>,
    /// Peer sent EOF (or `shutdown(SHUT_WR)`): stop reading, but finish
    /// answering what was already received before closing.
    pub read_closed: bool,
    /// A cluster peer-protocol frame was seen on this connection:
    /// pooled node-to-node connections sit idle between forwards by
    /// design, so the idle deadline stops evicting (the write deadline
    /// still applies — a stuck peer is still a stuck peer).
    pub is_peer: bool,
    idle_timeout: Duration,
    write_timeout: Duration,
}

impl Conn {
    /// Wrap a freshly-accepted nonblocking socket.
    pub fn new(
        stream: TcpStream,
        token: u64,
        now: Instant,
        idle_timeout: Duration,
        write_timeout: Duration,
    ) -> Self {
        Conn {
            stream,
            token,
            acc: FrameAccumulator::new(),
            out: WriteBuf::new(),
            pending: VecDeque::new(),
            in_flight: false,
            closing: false,
            interest: 0,
            poison: None,
            read_deadline: now + idle_timeout,
            write_deadline: None,
            read_closed: false,
            is_peer: false,
            idle_timeout,
            write_timeout,
        }
    }

    /// Restart the idle clock (a frame completed, or a response opened
    /// the wait for the next request).
    pub fn touch_read(&mut self, now: Instant) {
        self.read_deadline = now + self.idle_timeout;
    }

    /// The earliest instant this connection needs timer attention, or
    /// `None` when no deadline currently applies.
    ///
    /// Mirrors [`expired`](Self::expired): the read deadline can only
    /// evict while nothing is in flight and no output is buffered, so
    /// while it is suppressed it must not be handed to the timer heap —
    /// re-arming an already-past instant would make the event loop's
    /// timer drain pop it again immediately and spin forever. Every
    /// state change that lifts the suppression (a completion lands, the
    /// write buffer drains) passes through the server's `settle`, which
    /// re-arms from here.
    pub fn next_deadline(&self) -> Option<Instant> {
        let read_armed = !self.in_flight && self.out.is_empty() && !self.is_peer;
        match (self.write_deadline, read_armed) {
            (Some(w), true) => Some(w.min(self.read_deadline)),
            (Some(w), false) => Some(w),
            (None, true) => Some(self.read_deadline),
            (None, false) => None,
        }
    }

    /// `true` when a deadline has passed and the connection must be
    /// evicted: a stalled write always kills; an idle expiry kills only
    /// when no request is in flight (compute time is not idle time).
    pub fn expired(&self, now: Instant) -> bool {
        if let Some(w) = self.write_deadline {
            if now >= w {
                return true;
            }
        }
        now >= self.read_deadline && !self.in_flight && self.out.is_empty() && !self.is_peer
    }

    /// Pull everything the socket has, feeding the frame parser.
    /// Complete frames land in `pending`; framing violations surface as
    /// `Err` (the caller answers Malformed and marks the conn closing).
    pub fn read_ready(&mut self) -> Result<ReadOutcome, ProtoError> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(ReadOutcome::PeerClosed),
                Ok(n) => {
                    self.acc.push(&chunk[..n]);
                    let mut completed = false;
                    while let Some(body) = self.acc.next_frame()? {
                        self.pending.push_back(body);
                        completed = true;
                    }
                    if completed {
                        self.touch_read(Instant::now());
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(ReadOutcome::Open)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Ok(ReadOutcome::Failed),
            }
        }
    }

    /// Continue writing buffered output (the `EPOLLOUT` handler).
    pub fn flush(&mut self, now: Instant) -> std::io::Result<bool> {
        let drained = self.out.write_to(&mut self.stream)?;
        if drained {
            self.write_deadline = None;
        } else if self.write_deadline.is_none() {
            self.write_deadline = Some(now + self.write_timeout);
        }
        Ok(drained)
    }

    /// `true` once everything this connection still owes has been
    /// delivered and it should be dropped: a hard close (`closing`)
    /// waits only for the write buffer; a peer EOF (`read_closed`)
    /// additionally waits for queued requests and in-flight compute.
    pub fn done(&self) -> bool {
        (self.closing && self.out.is_empty())
            || (self.read_closed
                && self.pending.is_empty()
                && !self.in_flight
                && self.out.is_empty()
                && self.poison.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_of(body: &[u8]) -> Vec<u8> {
        let mut f = (body.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(body);
        f
    }

    #[test]
    fn accumulator_reassembles_byte_dribbles() {
        let mut acc = FrameAccumulator::new();
        let frame = frame_of(&[1, 2, 3, 4, 5]);
        // One byte at a time: no frame until the last byte lands.
        for (i, b) in frame.iter().enumerate() {
            assert!(acc.next_frame().unwrap().is_none(), "partial at byte {i}");
            acc.push(&[*b]);
            assert!(acc.mid_frame());
        }
        assert_eq!(acc.next_frame().unwrap().unwrap(), vec![1, 2, 3, 4, 5]);
        assert!(!acc.mid_frame(), "boundary after the frame");
        assert!(acc.next_frame().unwrap().is_none());
    }

    #[test]
    fn accumulator_splits_coalesced_frames_in_order() {
        let mut acc = FrameAccumulator::new();
        let mut bytes = frame_of(&[9, 9]);
        bytes.extend_from_slice(&frame_of(&[7, 7, 7]));
        bytes.extend_from_slice(&frame_of(&[5, 5])[..3]); // partial third
        acc.push(&bytes);
        assert_eq!(acc.next_frame().unwrap().unwrap(), vec![9, 9]);
        assert_eq!(acc.next_frame().unwrap().unwrap(), vec![7, 7, 7]);
        assert!(acc.next_frame().unwrap().is_none());
        assert!(acc.mid_frame(), "third frame is mid-flight");
    }

    #[test]
    fn accumulator_rejects_bad_prefixes_permanently() {
        let mut acc = FrameAccumulator::new();
        acc.push(&1u32.to_le_bytes());
        assert_eq!(acc.next_frame(), Err(ProtoError::TooShort));
        // Poisoned: even after more bytes arrive the error persists.
        acc.push(&frame_of(&[1, 2]));
        assert_eq!(acc.next_frame(), Err(ProtoError::TooShort));

        let mut acc = FrameAccumulator::new();
        acc.push(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert!(matches!(acc.next_frame(), Err(ProtoError::Oversized(_))));
    }

    #[test]
    fn accumulator_compacts_consumed_bytes() {
        let mut acc = FrameAccumulator::new();
        let body = vec![0xAB; 4 << 10];
        for _ in 0..8 {
            acc.push(&frame_of(&body));
            assert_eq!(acc.next_frame().unwrap().unwrap().len(), body.len());
        }
        assert_eq!(acc.buffered(), 0);
        assert_eq!(acc.buf.len(), 0, "fully-consumed buffer is dropped");
    }

    /// A writer that accepts a fixed number of bytes per call, then
    /// signals `WouldBlock` — a socket with a tiny send buffer.
    struct Throttled {
        taken: Vec<u8>,
        per_call: usize,
        calls_left: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.calls_left == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.calls_left -= 1;
            let n = buf.len().min(self.per_call);
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buf_resumes_partial_writes_across_blocks() {
        let mut wb = WriteBuf::new();
        let frame = frame_of(&[1, 2, 3, 4, 5, 6, 7, 8]);
        wb.push_frame(frame.clone());
        let mut w = Throttled {
            taken: Vec::new(),
            per_call: 5,
            calls_left: 1,
        };
        assert!(!wb.write_to(&mut w).unwrap(), "blocked after 5 bytes");
        assert_eq!(wb.pending(), frame.len() - 5);

        // A second frame queues behind the stalled first.
        let frame2 = frame_of(&[9, 9]);
        wb.push_frame(frame2.clone());
        w.calls_left = 10;
        assert!(wb.write_to(&mut w).unwrap(), "drains when unblocked");
        let mut want = frame.clone();
        want.extend_from_slice(&frame2);
        assert_eq!(w.taken, want, "byte order preserved across the stall");
        assert!(wb.is_empty());
    }

    /// A writer that exercises the scatter-gather path: takes a byte
    /// budget per call across *all* slices, so partial writes can end
    /// mid-frame and mid-slice.
    struct Vectored {
        taken: Vec<u8>,
        per_call: usize,
        calls_left: usize,
    }

    impl Write for Vectored {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[std::io::IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            if self.calls_left == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.calls_left -= 1;
            let mut budget = self.per_call;
            let mut wrote = 0;
            for b in bufs {
                let n = b.len().min(budget);
                self.taken.extend_from_slice(&b[..n]);
                wrote += n;
                budget -= n;
                if budget == 0 {
                    break;
                }
            }
            Ok(wrote)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buf_vectored_preserves_frame_order_across_partial_writes() {
        let frames: Vec<Vec<u8>> = (0..5u8)
            .map(|i| frame_of(&vec![i; 3 + i as usize * 4]))
            .collect();
        let want: Vec<u8> = frames.iter().flatten().copied().collect();

        let mut wb = WriteBuf::new();
        for f in &frames {
            wb.push_frame(f.clone());
        }
        assert_eq!(wb.frames_pending(), 5, "frames stay apart");
        assert_eq!(wb.pending(), want.len());

        // Partial budget cuts mid-frame; the cursor must resume exactly.
        let mut w = Vectored {
            taken: Vec::new(),
            per_call: 7,
            calls_left: 2,
        };
        assert!(!wb.write_to(&mut w).unwrap(), "blocked mid-backlog");
        assert_eq!(wb.pending(), want.len() - 14);
        w.calls_left = usize::MAX;
        assert!(wb.write_to(&mut w).unwrap(), "drains when unblocked");
        assert_eq!(w.taken, want, "bytes identical and in order");
        assert!(wb.is_empty());
    }

    #[test]
    fn conn_deadlines_follow_frame_completion_not_bytes() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let t0 = Instant::now();
        let idle = Duration::from_millis(500);
        let mut conn = Conn::new(server_side, 1, t0, idle, Duration::from_secs(5));
        let d0 = conn.read_deadline;

        // Partial header: reading it must NOT move the idle deadline.
        use std::io::Write as _;
        (&client).write_all(&[0x06, 0x00]).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(conn.read_ready().unwrap(), ReadOutcome::Open);
        assert!(conn.acc.mid_frame());
        assert_eq!(conn.read_deadline, d0, "slow loris gets no extension");
        assert!(!conn.expired(t0), "not expired before the deadline");
        assert!(conn.expired(d0), "expired once the deadline passes");

        // Completing the frame restarts the clock.
        (&client)
            .write_all(&[0x00, 0x00, 1, 1, 1, 1, 1, 1])
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(conn.read_ready().unwrap(), ReadOutcome::Open);
        assert_eq!(conn.pending.len(), 1, "frame completed");
        assert!(conn.read_deadline > d0, "deadline re-armed");

        // In-flight compute suppresses idle eviction; a stalled write
        // deadline does not.
        conn.in_flight = true;
        assert!(!conn.expired(conn.read_deadline + idle));
        conn.write_deadline = Some(t0);
        assert!(conn.expired(t0), "stalled write always evicts");
    }

    /// `next_deadline` must track `expired` exactly: whenever the read
    /// deadline cannot evict (request in flight, or buffered output),
    /// it must not be offered to the timer heap — a past instant that
    /// can never fire would spin the event loop's timer drain forever.
    #[test]
    fn next_deadline_is_suppressed_exactly_when_eviction_is() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let t0 = Instant::now();
        let idle = Duration::from_millis(100);
        let mut conn = Conn::new(server_side, 1, t0, idle, Duration::from_secs(5));

        // Idle connection: the read deadline is live.
        assert_eq!(conn.next_deadline(), Some(conn.read_deadline));

        // In flight with nothing buffered: no deadline at all, even
        // though read_deadline (an instant in the past from the heap's
        // perspective once it lapses) still holds its old value.
        conn.in_flight = true;
        assert_eq!(conn.next_deadline(), None);
        assert!(!conn.expired(conn.read_deadline + idle));

        // Buffered output: only the write deadline counts, never the
        // (possibly long-past) read deadline.
        conn.out.push_frame(vec![0u8; 8]);
        let w = t0 + Duration::from_secs(5);
        conn.write_deadline = Some(w);
        assert_eq!(conn.next_deadline(), Some(w));
        conn.in_flight = false;
        assert_eq!(conn.next_deadline(), Some(w), "output alone suppresses");

        // Invariant the timer drain relies on: a live (non-expired)
        // connection's next deadline is strictly in the future.
        let lapsed = conn.read_deadline + idle;
        assert!(!conn.expired(lapsed));
        assert!(conn.next_deadline().is_none_or(|t| t > lapsed));
    }
}
