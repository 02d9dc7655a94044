//! Cluster-tier state for `repf-serve`: the node's view of the
//! consistent-hash [`Ring`], its own advertised identity, and a pool of
//! reusable peer connections carrying pipelined `PeerStream`s.
//!
//! The cluster design in one paragraph: the seeded ring
//! ([`crate::ring`]) is the single source of truth for session → node
//! placement; every daemon, the replay harness and the load generator
//! compute identical placement from `(seed, vnodes, member list)`.
//! Membership changes arrive as `RingSet` requests (normal frames on
//! normal connections); a node adopting a new ring synchronously ships
//! every session it no longer owns to the new owner — full profile,
//! version counter and cached model — *before* acknowledging, and the
//! session-store tombstones it leaves behind let it forward in-flight
//! requests during the handoff window, so clients holding a stale map
//! never see a wrong-node error. Misdirected requests are wrapped in
//! `PeerForward` frames with a hop budget, and the receiver handles
//! them locally (chasing at most a short tombstone chain), which makes
//! forwarding loop-free by construction.
//!
//! Orchestration ([`apply_membership`], used by `repf ring` and the
//! replay harness) applies a membership change *losers first*: nodes
//! leaving the ring (or losing keys) adopt before the nodes gaining
//! keys, so by the time any node starts claiming ownership of a session
//! its state has already been imported. Joiners are told last.
//!
//! Peer traffic is pipelined per run: a worker executing one
//! connection's run of requests sends each peer a single
//! `PeerStream` — every forward and model pull for that peer, in run
//! order, in one write on one pooled connection — and reads the replies
//! back in order as execution reaches them. A single call is a stream
//! of one frame.
//!
//! Timeouts and retries: peer connections carry a hard read/write
//! timeout, so a wedged peer costs its stream an `Internal` error rather
//! than a stuck worker, and mutual-forwarding storms degrade into those
//! errors instead of deadlocking worker pools. A stream is written again
//! only when its *pooled* connection fails with EOF or a reset before
//! any reply byte arrived: the peer closed the idle connection and saw
//! none of it. It is then written once more, on a fresh connection. A
//! timeout, a fresh connection failing, or a failure after replies
//! started answers every request of the stream still waiting with
//! `Internal` and sends nothing again, because the peer may already
//! have applied those frames — a forwarded submit is never applied
//! twice.
//!
//! Known accepted imperfection, by design and documented here rather
//! than hidden: a submit that lands between a migration's final
//! snapshot and its version-checked removal forces a re-export (bounded
//! retries; on exhaustion the session simply stays put and keeps being
//! served locally — no client-visible error).

use crate::client::{Client, ClientError};
use crate::metrics::Metrics;
use crate::proto::{ProtoError, Request, Response, MAX_FRAME_BYTES};
use crate::ring::{Ring, DEFAULT_RING_SEED, DEFAULT_VNODES};
use crate::session::ShardedSessionStore;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Hop budget on a freshly-forwarded request: how long a tombstone
/// chain may be chased before giving up with the local answer.
pub const MAX_FORWARD_HOPS: u8 = 4;

/// How often a migration re-exports after a submit raced the snapshot
/// before giving up and leaving the session where it is.
pub const MIGRATE_REDO_MAX: u32 = 8;

/// Read/write timeout on peer connections: a wedged peer turns into an
/// `Internal` error for the requests of its stream, never a stuck
/// worker.
const PEER_TIMEOUT: Duration = Duration::from_secs(5);

/// Idle peer connections kept pooled per destination.
const MAX_IDLE_PEER_CONNS: usize = 4;

/// The ring(s) a node currently honors.
struct RingState {
    /// Monotone epoch; `RingSet` carrying an older epoch is ignored.
    epoch: u64,
    /// The ring in force (`None` until clustered).
    ring: Option<Ring>,
    /// The ring the current one replaced — consulted during the handoff
    /// window to forward reads for sessions that may not have finished
    /// migrating to this node yet.
    prev: Option<Ring>,
}

/// Where a session-addressed request must run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Route {
    /// Execute on this node.
    Local,
    /// Forward to the named peer.
    Forward(String),
}

/// One node's cluster-tier state: its advertised identity, the ring
/// epoch pair, and the peer connection pool.
pub struct ClusterState {
    /// This node's name on the ring — the advertised address every
    /// other party uses for it. Set once, right after bind.
    self_addr: OnceLock<String>,
    rings: Mutex<RingState>,
    /// Idle pooled connections per peer address, each with nothing
    /// left to read.
    pool: Mutex<HashMap<String, Vec<PeerConn>>>,
}

impl Default for ClusterState {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterState {
    /// Fresh, un-clustered state (epoch 0, no ring).
    pub fn new() -> Self {
        ClusterState {
            self_addr: OnceLock::new(),
            rings: Mutex::new(RingState {
                epoch: 0,
                ring: None,
                prev: None,
            }),
            pool: Mutex::new(HashMap::new()),
        }
    }

    /// Record this node's advertised address (first caller wins).
    pub fn set_self_addr(&self, addr: String) {
        let _ = self.self_addr.set(addr);
    }

    /// The advertised address, or `""` before bind.
    pub fn self_addr(&self) -> &str {
        self.self_addr.get().map(String::as_str).unwrap_or("")
    }

    /// `true` once a ring is in force.
    pub fn is_clustered(&self) -> bool {
        self.rings.lock().unwrap().ring.is_some()
    }

    /// Current `(epoch, ring)` — the `RingGet` answer.
    pub fn snapshot(&self) -> (u64, Option<Ring>) {
        let rs = self.rings.lock().unwrap();
        (rs.epoch, rs.ring.clone())
    }

    /// `session`'s owner under the current ring (`None` until
    /// clustered), read under the lock without copying the ring.
    pub fn owner_of(&self, session: &str) -> Option<String> {
        let rs = self.rings.lock().expect("ring state lock poisoned");
        rs.ring.as_ref()?.owner(session).map(str::to_string)
    }

    /// Adopt `ring` at `epoch`. Rejected (returning the current epoch)
    /// when `epoch` does not advance — duplicate or stale `RingSet`s
    /// must not re-trigger migration sweeps. On success the previous
    /// ring is retained for handoff-window forwarding.
    pub fn install_ring(&self, epoch: u64, ring: Ring) -> Result<(), u64> {
        let mut rs = self.rings.lock().unwrap();
        if rs.ring.is_some() && epoch <= rs.epoch {
            return Err(rs.epoch);
        }
        rs.prev = rs.ring.take();
        rs.ring = Some(ring);
        rs.epoch = epoch;
        Ok(())
    }

    /// Decide where a session-addressed request runs. The order
    /// encodes the handoff-window invariants:
    ///
    /// 1. the session is live here → [`Route::Local`] (stickiness: a
    ///    mid-migration ring disagreement never splits a session's
    ///    history across nodes);
    /// 2. a tombstone says it migrated away → forward to its new home;
    /// 3. this node owns it under the current ring but a *previous*
    ///    ring named someone else → forward reads there once (the old
    ///    owner either still holds it or holds a tombstone for it);
    ///    submits stay local — the owner is where sessions are born;
    /// 4. someone else owns it → forward to the owner;
    /// 5. otherwise local (including the un-clustered case).
    pub fn route(&self, session: &str, is_submit: bool, store: &ShardedSessionStore) -> Route {
        let rs = self.rings.lock().unwrap();
        let Some(ring) = rs.ring.as_ref() else {
            return Route::Local;
        };
        let me = self.self_addr();
        if store.contains(session) {
            return Route::Local;
        }
        if let Some(dest) = store.tombstone_of(session) {
            if dest != me {
                return Route::Forward(dest);
            }
        }
        let Some(owner) = ring.owner(session) else {
            return Route::Local;
        };
        if owner == me {
            if !is_submit {
                if let Some(prev_owner) = rs.prev.as_ref().and_then(|p| p.owner(session)) {
                    if prev_owner != me {
                        return Route::Forward(prev_owner.to_string());
                    }
                }
            }
            Route::Local
        } else {
            Route::Forward(owner.to_string())
        }
    }

    /// The one peer worth asking for a cached model of `session`: its
    /// owner under the previous ring, when that was a different node.
    /// (Sessions only change hands on ring changes, so the previous
    /// owner is the only plausible remote holder of a fresh fit.)
    pub fn pull_candidate(&self, session: &str) -> Option<String> {
        let rs = self.rings.lock().unwrap();
        rs.ring.as_ref()?;
        let prev_owner = rs.prev.as_ref()?.owner(session)?;
        if prev_owner == self.self_addr() {
            return None;
        }
        Some(prev_owner.to_string())
    }

    /// Call `dest` with one request: a `PeerStream` of one frame,
    /// counted in `metrics`. The error is the message an `Internal`
    /// reply carries.
    pub fn call(&self, dest: &str, req: &Request, metrics: &Metrics) -> Result<Response, String> {
        let mut stream = self.stream(dest);
        stream.push(req);
        stream.send(metrics);
        stream.reply(0)
    }

    /// An empty stream to `dest`; frames queue with
    /// [`PeerStream::push`] and leave together on [`PeerStream::send`].
    pub(crate) fn stream(&self, dest: &str) -> PeerStream<'_> {
        PeerStream {
            cluster: self,
            dest: dest.to_string(),
            frames: Vec::new(),
            queued: 0,
            conn: None,
            pooled: false,
            received: false,
            read: 0,
            stashed: Vec::new(),
            failed: None,
        }
    }

    fn pooled(&self, dest: &str) -> Option<PeerConn> {
        let mut pool = self.pool.lock().expect("peer pool lock poisoned");
        pool.get_mut(dest).and_then(Vec::pop)
    }

    fn park(&self, dest: &str, conn: PeerConn) {
        let mut pool = self.pool.lock().expect("peer pool lock poisoned");
        let idle = pool.entry(dest.to_string()).or_default();
        if idle.len() < MAX_IDLE_PEER_CONNS {
            idle.push(conn);
        }
    }
}

/// A peer connection with its reply buffer. Bytes read past the reply
/// being taken stay buffered for the next one.
struct PeerConn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Start of the unread bytes in `buf`.
    head: usize,
}

/// Smallest read issued while waiting for a reply, so short replies
/// that arrived together are taken in one `read`.
const READ_CHUNK: usize = 4096;

/// Reply buffers larger than this (a pulled model's) are freed rather
/// than kept with a pooled connection.
const MAX_IDLE_BUF_BYTES: usize = 64 << 10;

impl PeerConn {
    fn connect(dest: &str) -> std::io::Result<PeerConn> {
        let stream = TcpStream::connect(dest)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(PEER_TIMEOUT))?;
        stream.set_write_timeout(Some(PEER_TIMEOUT))?;
        Ok(PeerConn {
            stream,
            buf: Vec::new(),
            head: 0,
        })
    }

    /// Read until `want` unread bytes are buffered. `got_any` is set as
    /// soon as one byte arrives.
    fn fill(&mut self, want: usize, got_any: &mut bool) -> std::io::Result<()> {
        while self.buf.len() - self.head < want {
            let len = self.buf.len();
            let missing = want - (len - self.head);
            self.buf.resize(len + missing.max(READ_CHUNK), 0);
            let n = match self.stream.read(&mut self.buf[len..]) {
                Ok(n) => n,
                Err(e) => {
                    self.buf.truncate(len);
                    if e.kind() == ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(e);
                }
            };
            self.buf.truncate(len + n);
            if n == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            *got_any = true;
        }
        Ok(())
    }

    /// The next reply frame's body (version + type + payload), read in
    /// full; the caller consumes it with [`consume`](Self::consume).
    fn next_frame(&mut self, got_any: &mut bool) -> Result<std::ops::Range<usize>, ClientError> {
        self.fill(4, got_any)?;
        let prefix = self.buf[self.head..self.head + 4].try_into();
        let len = u32::from_le_bytes(prefix.expect("four bytes were filled"));
        if len < 2 {
            return Err(ClientError::Proto(ProtoError::TooShort));
        }
        if len > MAX_FRAME_BYTES {
            return Err(ClientError::Proto(ProtoError::Oversized(len)));
        }
        self.fill(4 + len as usize, got_any)?;
        let body = self.head + 4..self.head + 4 + len as usize;
        Ok(body)
    }

    /// Drop the frame [`next_frame`](Self::next_frame) returned.
    fn consume(&mut self, body: std::ops::Range<usize>) {
        self.head = body.end;
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head >= READ_CHUNK && self.head * 2 >= self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }
}

/// One run's requests to one peer, pipelined: every frame queued with
/// [`push`](Self::push) leaves in one write on one pooled connection
/// ([`send`](Self::send)), and the replies are read back in order as
/// [`reply`](Self::reply) asks for them. A daemon answers each
/// connection in order, so reply `k` belongs to frame `k`; no request
/// IDs are needed.
///
/// Failure rule: when a *pooled* connection fails with EOF or a reset
/// before any reply byte arrived, the peer had closed it while it sat
/// idle, so the whole stream is written once more on a fresh
/// connection. Any other failure — a timeout, a fresh connection
/// failing, or a failure after replies started — answers every reply
/// not yet read with an error and never resends: the peer may already
/// have applied those frames.
///
/// Dropping the stream reads and discards the replies nobody asked for,
/// then pools the connection again.
pub(crate) struct PeerStream<'a> {
    cluster: &'a ClusterState,
    dest: String,
    /// The queued frames, back to back; kept until the first reply byte
    /// arrives, for the one resend the failure rule allows.
    frames: Vec<u8>,
    queued: usize,
    conn: Option<PeerConn>,
    /// `conn` came from the pool (a resend is allowed).
    pooled: bool,
    /// A reply byte arrived (no resend any more).
    received: bool,
    /// Replies read off the connection so far.
    read: usize,
    /// Replies read past the one asked for, by index, kept undecoded
    /// until asked for: frames are taken in order, except that a model
    /// pull may be taken after a later frame's reply.
    stashed: Vec<(usize, Vec<u8>)>,
    /// Why the stream broke; every reply not yet read answers with it.
    failed: Option<String>,
}

impl PeerStream<'_> {
    /// The peer this stream talks to.
    pub(crate) fn dest(&self) -> &str {
        &self.dest
    }

    /// Queue `req`; returns its index among the stream's replies.
    pub(crate) fn push(&mut self, req: &Request) -> usize {
        self.frames.extend_from_slice(&req.encode());
        self.queued += 1;
        self.queued - 1
    }

    /// Write every queued frame in one write: on a pooled connection
    /// when one is idle, else on a fresh one. Counted in `metrics` as
    /// one peer batch.
    pub(crate) fn send(&mut self, metrics: &Metrics) {
        if self.queued == 0 {
            return;
        }
        metrics.cluster_peer_batches.fetch_add(1, Ordering::Relaxed);
        metrics
            .cluster_peer_batch_frames
            .fetch_add(self.queued as u64, Ordering::Relaxed);
        match self.cluster.pooled(&self.dest) {
            Some(conn) => {
                self.pooled = true;
                if let Err(e) = self.write_on(conn) {
                    self.retry_or_fail(e);
                }
            }
            None => self.send_fresh(),
        }
    }

    fn send_fresh(&mut self) {
        self.pooled = false;
        if let Err(e) = PeerConn::connect(&self.dest).and_then(|conn| self.write_on(conn)) {
            self.fail(e.into());
        }
    }

    fn write_on(&mut self, mut conn: PeerConn) -> std::io::Result<()> {
        conn.stream.write_all(&self.frames)?;
        self.conn = Some(conn);
        Ok(())
    }

    /// Apply the failure rule to a transport error.
    fn retry_or_fail(&mut self, e: std::io::Error) {
        self.conn = None;
        match Client::map_closed(e) {
            ClientError::Disconnected if self.pooled && !self.received => self.send_fresh(),
            e => self.fail(e),
        }
    }

    fn fail(&mut self, e: ClientError) {
        self.conn = None;
        self.frames = Vec::new();
        self.failed = Some(format!("peer {} unreachable: {e}", self.dest));
    }

    /// Read the next reply off the connection and hand its body to `f`.
    fn next_body<R>(&mut self, f: impl FnOnce(&[u8]) -> R) -> Result<R, String> {
        loop {
            let Some(conn) = self.conn.as_mut() else {
                return Err(self.failed.clone().unwrap_or_default());
            };
            match conn.next_frame(&mut self.received) {
                Ok(body) => {
                    self.frames = Vec::new();
                    let out = f(&conn.buf[body.clone()]);
                    conn.consume(body);
                    self.read += 1;
                    return Ok(out);
                }
                Err(ClientError::Io(e)) => self.retry_or_fail(e),
                Err(e) => self.fail(e),
            }
        }
    }

    /// The reply to frame `k`, decoded; each reply is taken once.
    /// Replies before `k` that were never asked for are read and stashed
    /// on the way.
    pub(crate) fn reply(&mut self, k: usize) -> Result<Response, String> {
        self.reply_sized(k).map(|(resp, _)| resp)
    }

    /// [`reply`](Self::reply), with the reply frame's size in bytes.
    pub(crate) fn reply_sized(&mut self, k: usize) -> Result<(Response, usize), String> {
        let decode = |body: &[u8]| {
            let resp = Response::decode(body).map_err(ClientError::Proto);
            resp.map(|r| (r, 4 + body.len()))
        };
        let decoded = if let Some(i) = self.stashed.iter().position(|(j, _)| *j == k) {
            decode(&self.stashed.swap_remove(i).1)
        } else if k < self.read {
            return Err(format!("peer {}: reply {k} was already taken", self.dest));
        } else {
            while self.read < k {
                let j = self.read;
                let body = self.next_body(<[u8]>::to_vec)?;
                self.stashed.push((j, body));
            }
            self.next_body(decode)?
        };
        decoded.map_err(|e| format!("peer {} unreachable: {e}", self.dest))
    }
}

impl Drop for PeerStream<'_> {
    /// Read and discard the replies nobody asked for, then pool the
    /// connection; a connection that fails meanwhile is dropped.
    fn drop(&mut self) {
        // Nothing here is worth a resend.
        self.pooled = false;
        while self.read < self.queued && self.conn.is_some() {
            let _ = self.next_body(|_| ());
        }
        if let Some(mut conn) = self.conn.take() {
            if conn.head == conn.buf.len() {
                if conn.buf.capacity() > MAX_IDLE_BUF_BYTES {
                    conn.buf = Vec::new();
                }
                self.cluster.park(&self.dest, conn);
            }
        }
    }
}

/// A target ring membership, as orchestrated by `repf ring` and the
/// replay harness.
#[derive(Clone, Debug)]
pub struct RingSpec {
    /// Placement seed (every party must use the same one).
    pub seed: u64,
    /// Virtual nodes per member.
    pub vnodes: u32,
    /// The member list (advertised addresses).
    pub nodes: Vec<String>,
}

impl RingSpec {
    /// A spec over `nodes` with the default seed and vnode count.
    pub fn new(nodes: Vec<String>) -> Self {
        RingSpec {
            seed: DEFAULT_RING_SEED,
            vnodes: DEFAULT_VNODES,
            nodes,
        }
    }
}

/// What one node reported while a membership change was applied.
#[derive(Clone, Debug)]
pub struct NodeAck {
    /// The contact address the `RingSet` was sent to.
    pub addr: String,
    /// Epoch the node acknowledged.
    pub epoch: u64,
    /// Sessions it migrated away while adopting.
    pub migrated: u64,
}

/// Outcome of [`apply_membership`].
#[derive(Clone, Debug)]
pub struct RingChangeReport {
    /// The epoch the new ring was installed under.
    pub epoch: u64,
    /// Per-node acknowledgements, in the order the change was applied.
    pub acks: Vec<NodeAck>,
}

impl RingChangeReport {
    /// Total sessions migrated across all nodes.
    pub fn migrated(&self) -> u64 {
        self.acks.iter().map(|a| a.migrated).sum()
    }
}

/// Apply a membership change across a cluster: tell every node in
/// `contacts` (the union of old and new members) to adopt
/// `spec`, **losers first** — leavers drain before survivors start
/// claiming their keys, and joiners (nodes that were never clustered)
/// are told last, after their state has been pushed to them. The next
/// epoch is one past the highest any contact reports.
pub fn apply_membership(
    contacts: &[String],
    spec: &RingSpec,
) -> Result<RingChangeReport, ClientError> {
    assert!(!contacts.is_empty(), "membership change needs contacts");
    // Learn every contact's current epoch (and weed out duplicates).
    let mut seen: Vec<String> = Vec::new();
    let mut infos: Vec<(String, u64)> = Vec::new();
    for addr in contacts {
        if seen.contains(addr) {
            continue;
        }
        seen.push(addr.clone());
        let mut c = Client::connect(addr.as_str())?;
        c.set_timeout(Some(PEER_TIMEOUT))?;
        match c.call(&Request::RingGet)? {
            Response::RingInfo { epoch, .. } => infos.push((addr.clone(), epoch)),
            _ => return Err(ClientError::Unexpected("want RingInfo")),
        }
    }
    let epoch = infos.iter().map(|(_, e)| *e).max().unwrap_or(0) + 1;
    // Losers first: contacts leaving the member set, then standing
    // members (clustered before), then joiners (epoch 0) last.
    let class = |addr: &String, node_epoch: u64| -> u8 {
        if !spec.nodes.contains(addr) {
            0 // leaving: must drain before anyone claims its keys
        } else if node_epoch > 0 {
            1 // standing member: may shed keys to joiners
        } else {
            2 // joiner: told last, after its state arrived
        }
    };
    let mut ordered = infos;
    ordered.sort_by_key(|(addr, e)| class(addr, *e));
    let set = Request::RingSet {
        epoch,
        seed: spec.seed,
        vnodes: spec.vnodes,
        nodes: spec.nodes.clone(),
    };
    let mut acks = Vec::with_capacity(ordered.len());
    for (addr, _) in &ordered {
        let mut c = Client::connect(addr.as_str())?;
        // Migration sweeps ship whole profiles; give them room.
        c.set_timeout(Some(Duration::from_secs(60)))?;
        match c.call(&set)? {
            Response::RingAck {
                epoch: acked,
                migrated,
            } => acks.push(NodeAck {
                addr: addr.clone(),
                epoch: acked,
                migrated,
            }),
            _ => return Err(ClientError::Unexpected("want RingAck")),
        }
    }
    Ok(RingChangeReport { epoch, acks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::SampleBatch;

    fn store_with(names: &[&str]) -> ShardedSessionStore {
        let s = ShardedSessionStore::new(1 << 20, 2);
        for n in names {
            s.submit(
                n,
                SampleBatch {
                    total_refs: 10,
                    sample_period: 1,
                    line_bytes: 64,
                    ..SampleBatch::default()
                },
            )
            .unwrap();
        }
        s
    }

    fn clustered(me: &str, members: &[&str]) -> ClusterState {
        let cs = ClusterState::new();
        cs.set_self_addr(me.to_string());
        cs.install_ring(
            1,
            Ring::new(1, 64, members.iter().map(|s| s.to_string()).collect()),
        )
        .unwrap();
        cs
    }

    #[test]
    fn unclustered_state_is_always_local() {
        let cs = ClusterState::new();
        cs.set_self_addr("a:1".into());
        let store = store_with(&[]);
        assert!(!cs.is_clustered());
        assert_eq!(cs.route("anything", false, &store), Route::Local);
        assert_eq!(cs.route("anything", true, &store), Route::Local);
        assert_eq!(cs.snapshot().0, 0);
        assert_eq!(cs.owner_of("anything"), None);
    }

    #[test]
    fn owner_of_agrees_with_the_ring() {
        let cs = clustered("a:1", &["a:1", "b:2", "c:3"]);
        let ring = cs.snapshot().1.unwrap();
        for i in 0..200 {
            let s = format!("s{i}");
            assert_eq!(cs.owner_of(&s).as_deref(), ring.owner(&s));
        }
    }

    #[test]
    fn live_sessions_are_sticky_regardless_of_ownership() {
        let cs = clustered("a:1", &["a:1", "b:2"]);
        let ring = cs.snapshot().1.unwrap();
        // Find a session owned by b — it must still run locally while
        // the local store holds it.
        let foreign = (0..500)
            .map(|i| format!("s{i}"))
            .find(|s| ring.owner(s) == Some("b:2"))
            .unwrap();
        let store = store_with(&[foreign.as_str()]);
        assert_eq!(cs.route(&foreign, false, &store), Route::Local);
        // Once it is gone (no tombstone — e.g. evicted), ownership wins.
        let empty = store_with(&[]);
        assert_eq!(
            cs.route(&foreign, false, &empty),
            Route::Forward("b:2".into())
        );
        assert_eq!(
            cs.route(&foreign, true, &empty),
            Route::Forward("b:2".into()),
            "submits follow ownership too"
        );
    }

    #[test]
    fn tombstones_outrank_ring_ownership() {
        let cs = clustered("a:1", &["a:1", "b:2"]);
        let ring = cs.snapshot().1.unwrap();
        let mine = (0..500)
            .map(|i| format!("s{i}"))
            .find(|s| ring.owner(s) == Some("a:1"))
            .unwrap();
        let store = store_with(&[mine.as_str()]);
        let v = store.version_of(&mine).unwrap();
        assert!(store.remove_migrated(&mine, v, "c:3"));
        assert_eq!(
            cs.route(&mine, false, &store),
            Route::Forward("c:3".into()),
            "a tombstone forwards even when the ring says this node owns it"
        );
    }

    #[test]
    fn handoff_window_forwards_reads_to_previous_owner() {
        let cs = ClusterState::new();
        cs.set_self_addr("a:1".into());
        let old = Ring::new(1, 64, vec!["b:2".into(), "c:3".into()]);
        cs.install_ring(1, old.clone()).unwrap();
        let new = Ring::new(1, 64, vec!["a:1".into(), "b:2".into(), "c:3".into()]);
        cs.install_ring(2, new.clone()).unwrap();
        let store = store_with(&[]);
        // A session this node now owns but has not received yet: reads
        // chase the previous owner; submits are born here.
        let gained = (0..1000)
            .map(|i| format!("s{i}"))
            .find(|s| new.owner(s) == Some("a:1"))
            .unwrap();
        let prev_owner = old.owner(&gained).unwrap().to_string();
        assert_eq!(
            cs.route(&gained, false, &store),
            Route::Forward(prev_owner.clone())
        );
        assert_eq!(cs.route(&gained, true, &store), Route::Local);
        assert_eq!(cs.pull_candidate(&gained), Some(prev_owner));
    }

    /// Read one request frame off a fake peer's connection.
    fn next_frame(conn: &mut TcpStream) -> Vec<u8> {
        crate::proto::read_frame(conn)
            .expect("read")
            .expect("a frame")
    }

    fn entry(version: u64) -> Response {
        Response::ModelEntry {
            version,
            model: None,
        }
    }

    #[test]
    fn a_stream_takes_replies_out_of_order_and_drains_the_rest() {
        let peer = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let dest = peer.local_addr().expect("addr").to_string();
        let fake = std::thread::spawn(move || {
            let (mut conn, _) = peer.accept().expect("accept");
            let mut replies = Vec::new();
            for version in 0..3 {
                next_frame(&mut conn);
                replies.extend_from_slice(&entry(version).encode());
            }
            conn.write_all(&replies).expect("answer");
            conn
        });
        let cs = ClusterState::new();
        let metrics = Metrics::new();
        let mut stream = cs.stream(&dest);
        for _ in 0..3 {
            stream.push(&Request::Ping);
        }
        stream.send(&metrics);
        assert_eq!(stream.reply(1), Ok(entry(1)));
        assert_eq!(stream.reply(0), Ok(entry(0)), "reply 0 was kept");
        drop(stream);
        let pool = cs.pool.lock().expect("pool");
        assert_eq!(
            pool[&dest].len(),
            1,
            "reply 2 was drained and the connection pooled"
        );
        assert_eq!(metrics.cluster_peer_batches.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.cluster_peer_batch_frames.load(Ordering::Relaxed), 3);
        drop(fake.join().expect("fake peer"));
    }

    #[test]
    fn a_pooled_connection_closed_while_idle_is_written_once_more() {
        let peer = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let dest = peer.local_addr().expect("addr").to_string();
        let (closed, wait_closed) = std::sync::mpsc::channel();
        let fake = std::thread::spawn(move || {
            let (mut first, _) = peer.accept().expect("accept");
            next_frame(&mut first);
            first.write_all(&Response::Pong.encode()).expect("answer");
            drop(first);
            closed.send(()).expect("signal");
            let (mut second, _) = peer.accept().expect("accept again");
            let frame = next_frame(&mut second);
            second.write_all(&Response::Pong.encode()).expect("answer");
            (frame, second)
        });
        let cs = ClusterState::new();
        let metrics = Metrics::new();
        assert_eq!(cs.call(&dest, &Request::Ping, &metrics), Ok(Response::Pong));
        wait_closed.recv().expect("peer closed its end");
        assert_eq!(
            cs.call(&dest, &Request::Ping, &metrics),
            Ok(Response::Pong),
            "the stream went out again on a fresh connection"
        );
        let (frame, _second) = fake.join().expect("fake peer");
        assert_eq!(frame, Request::Ping.encode()[4..]);
        assert_eq!(metrics.cluster_peer_batches.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn install_ring_rejects_stale_epochs() {
        let cs = clustered("a:1", &["a:1"]);
        let r = Ring::new(2, 64, vec!["a:1".into(), "b:2".into()]);
        assert_eq!(cs.install_ring(1, r.clone()), Err(1), "same epoch: stale");
        assert_eq!(cs.install_ring(0, r.clone()), Err(1));
        assert!(cs.install_ring(5, r).is_ok());
        assert_eq!(cs.snapshot().0, 5);
    }
}
