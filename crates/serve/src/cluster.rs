//! Cluster-tier state for `repf-serve`: the node's view of the
//! consistent-hash [`Ring`], its own advertised identity, and a pool of
//! reusable peer connections for node-to-node calls.
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
//! Known accepted imperfections, by design and documented here rather
//! than hidden: a submit that lands between a migration's final
//! snapshot and its version-checked removal forces a re-export (bounded
//! retries; on exhaustion the session simply stays put and keeps being
//! served locally — no client-visible error), and peer calls carry a
//! hard timeout so mutual-forwarding storms degrade into `Internal`
//! errors instead of deadlocking worker pools.

use crate::client::{Client, ClientError};
use crate::proto::{Request, Response};
use crate::ring::{Ring, DEFAULT_RING_SEED, DEFAULT_VNODES};
use crate::session::ShardedSessionStore;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Hop budget on a freshly-forwarded request: how long a tombstone
/// chain may be chased before giving up with the local answer.
pub const MAX_FORWARD_HOPS: u8 = 4;

/// How often a migration re-exports after a submit raced the snapshot
/// before giving up and leaving the session where it is.
pub const MIGRATE_REDO_MAX: u32 = 8;

/// Read/write timeout on peer connections: a wedged peer turns into an
/// `Internal` error for the one forwarded request, never a stuck worker.
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
    /// Idle pooled connections per peer address.
    pool: Mutex<HashMap<String, Vec<Client>>>,
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

    /// Call `dest` over a pooled connection, reconnecting once on a
    /// transport failure (the pooled socket may have been idled out).
    pub fn call(&self, dest: &str, req: &Request) -> Result<Response, ClientError> {
        let pooled = self.pool.lock().unwrap().get_mut(dest).and_then(Vec::pop);
        let had_pooled = pooled.is_some();
        let mut client = match pooled {
            Some(c) => c,
            None => Self::connect(dest)?,
        };
        match client.call_any(req) {
            Ok(resp) => {
                self.park(dest, client);
                Ok(resp)
            }
            Err(e) if had_pooled => {
                // The pooled socket was stale; one fresh attempt.
                drop(e);
                let mut fresh = Self::connect(dest)?;
                let resp = fresh.call_any(req)?;
                self.park(dest, fresh);
                Ok(resp)
            }
            Err(e) => Err(e),
        }
    }

    fn connect(dest: &str) -> Result<Client, ClientError> {
        let mut c = Client::connect(dest)?;
        c.set_timeout(Some(PEER_TIMEOUT))?;
        Ok(c)
    }

    fn park(&self, dest: &str, client: Client) {
        let mut pool = self.pool.lock().unwrap();
        let idle = pool.entry(dest.to_string()).or_default();
        if idle.len() < MAX_IDLE_PEER_CONNS {
            idle.push(client);
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
