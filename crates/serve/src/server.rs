//! The TCP daemon: one readiness-polled I/O thread plus a bounded
//! request worker pool built on [`repf_sim::WorkerPool`]. Linux-only
//! (see the crate docs).
//!
//! ## Connection I/O
//!
//! A single I/O thread drives every socket nonblocking through
//! [`crate::poll`]'s `epoll`/`eventfd` wrappers, with per-connection
//! state machines ([`crate::conn`]) for incremental frame reads,
//! buffered partial writes and idle/slow-loris deadlines on a sorted
//! deadline heap. Compute runs on the bounded worker pool: an idle
//! connection's queued frames leave as one *run* (up to 32 requests,
//! handled in arrival order inside one worker job, with the run's peer
//! traffic sent as one stream per peer — see `ServeState::handle_run`),
//! and the run's replies come back together over an eventfd-woken
//! queue and leave in one `writev`. 10k mostly-idle connections cost
//! one thread and zero timer churn. The replay oracle checks every
//! reply byte against direct in-process computation.
//!
//! Degradation-first design, in order of what can go wrong:
//!
//! * **overload** — requests flow through the pool's bounded queue; when
//!   it is full the connection answers [`Response::Busy`] immediately
//!   instead of buffering without bound; accepts beyond `max_conns` are
//!   shed the same way (counted under `connections.shed`);
//! * **malformed input** — framing violations get a
//!   [`Response::Error`] and close only that connection; payload-level
//!   decode errors get an error response and the connection lives on;
//!   the process never dies on client bytes;
//! * **stuck peers** — per-connection idle *and* write deadlines; an
//!   idle or mid-frame-stalled connection is dropped after
//!   `idle_timeout`, a stalled writer after `write_timeout`;
//! * **accept errors** — persistent `accept` failures (EMFILE, ...) are
//!   counted (`accept.errors`) and back off exponentially instead of
//!   hot-looping;
//! * **shutdown** — the `Shutdown` control message (or
//!   [`ServerHandle::shutdown`]) signals an eventfd, stops accepting,
//!   lets every connection finish its in-flight run, drains the worker
//!   queue, and joins all threads.

use crate::cluster::{ClusterState, PeerStream, Route, MAX_FORWARD_HOPS, MIGRATE_REDO_MAX};
use crate::conn::{Conn, ReadOutcome as ConnRead};
use crate::metrics::Metrics;
use crate::poll::{EpollEvent, EventFd, Poller, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::proto::{self, ErrorCode, MachineId, ModelWire, Request, Response, SampleBatch, Target};
use crate::ring::{Ring, DEFAULT_RING_SEED, DEFAULT_VNODES};
use crate::session::{Fit, PullAnswer, ShardedSessionStore, SubmitRejected};
use repf_core::analyze_with_model;
use repf_sim::{amd_phenom_ii, intel_i7_2600k, Exec, PlanCache, SubmitError, WorkerPool};
use repf_statstack::{CoRunModel, StatStackBuilder, StatStackModel};
use repf_trace::hash::FxHashMap;
use repf_trace::Pc;
use repf_workloads::BuildOptions;
use std::collections::{BinaryHeap, HashMap};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default entry bound on the co-run remote-model cache; at the cap the
/// map is cleared wholesale rather than evicted piecemeal —
/// deterministic, and cache contents only affect pull traffic, never
/// response bytes. Configurable via [`ServeConfig::remote_model_cache_cap`].
pub const REMOTE_MODEL_CACHE_CAP: usize = 64;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (the bound address is
    /// reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Request worker threads (0 → the evaluation engine's default).
    pub threads: usize,
    /// Bounded request-queue depth; a full queue answers `Busy`.
    pub queue_depth: usize,
    /// Session-store byte budget, split evenly across the shards. While
    /// the store fits it nothing is evicted; past it, W-TinyLFU
    /// admission decides which sessions stay.
    pub session_budget_bytes: usize,
    /// Session-store shard count (0 counts as 1); submits and queries to
    /// sessions in different shards never contend on a lock.
    pub shards: usize,
    /// Open-connection cap; accepts past it are shed with a `Busy`
    /// response (`connections.shed`).
    pub max_conns: usize,
    /// Drop a connection after this long without a complete frame.
    pub idle_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Run-length scale for server-side benchmark profiling (the
    /// `BuildOptions::refs_scale` behind `Target::Benchmark` queries).
    pub refs_scale: f64,
    /// Other cluster members' advertised addresses. Non-empty starts
    /// the node clustered: the initial ring (epoch 1) is built over
    /// `peers ∪ {advertise}` and session-addressed requests whose ring
    /// owner is another node are forwarded there. Empty (default) keeps
    /// the single-node behavior bit-identical to before the cluster
    /// tier existed; the node can still be clustered later by `RingSet`.
    pub peers: Vec<String>,
    /// The address this node is known by on the ring (what peers and
    /// the `repf ring` CLI dial). Defaults to the bound address — set
    /// it explicitly when binding a wildcard or port 0 behind a NAT.
    pub advertise: Option<String>,
    /// Consistent-hash ring seed for the initial `--peers` ring; every
    /// member must agree.
    pub cluster_seed: u64,
    /// Virtual nodes per ring member for the initial `--peers` ring.
    pub vnodes: u32,
    /// Entry bound on the co-run remote-model cache (cleared wholesale
    /// at the cap). Cache contents never affect response bytes, only
    /// pull traffic, so shrinking this is safe — tests use it to force
    /// eviction and observe re-pulls.
    pub remote_model_cache_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 0,
            queue_depth: 64,
            session_budget_bytes: 64 << 20,
            shards: 8,
            max_conns: 4096,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            refs_scale: 0.05,
            peers: Vec::new(),
            advertise: None,
            cluster_seed: DEFAULT_RING_SEED,
            vnodes: DEFAULT_VNODES,
            remote_model_cache_cap: REMOTE_MODEL_CACHE_CAP,
        }
    }
}

/// A model pulled from a peer: the owner it came from, the version that
/// owner reported, and the model.
type PulledModel = (String, u64, Arc<StatStackModel>);

/// Shared server state: sessions, per-machine plan caches, metrics.
pub(crate) struct ServeState {
    sessions: ShardedSessionStore,
    /// Lazy plan caches for the two Table II machines; compute-once
    /// across concurrent clients via [`PlanCache`]'s per-slot cells.
    plans_amd: PlanCache,
    plans_intel: PlanCache,
    /// Server metrics, readable through the `Stats` request.
    pub metrics: Metrics,
    /// Cluster-tier state: ring epochs, self identity, peer pool.
    pub(crate) cluster: ClusterState,
    /// Current models of peer-owned sessions pulled for co-run queries,
    /// keyed by session name with the owner they came from and the
    /// version that owner reported (versions are per node). A later
    /// pull quotes the copy, and the owner may answer with just the
    /// samples it lacks. Bounded: at the cap the whole map is cleared
    /// (deterministic, and cache contents only affect pull traffic,
    /// never response bytes); installing a ring clears it too.
    remote_models: Mutex<FxHashMap<String, PulledModel>>,
    remote_model_cache_cap: usize,
    shutting_down: AtomicBool,
    /// Wakes the I/O loop out of its poll when shutdown is requested
    /// from another thread.
    wake: EventFd,
}

impl ServeState {
    fn new(cfg: &ServeConfig) -> std::io::Result<Self> {
        let opts = BuildOptions {
            refs_scale: cfg.refs_scale,
            ..Default::default()
        };
        Ok(ServeState {
            sessions: ShardedSessionStore::new(cfg.session_budget_bytes, cfg.shards),
            plans_amd: PlanCache::lazy(&amd_phenom_ii(), &opts),
            plans_intel: PlanCache::lazy(&intel_i7_2600k(), &opts),
            metrics: Metrics::new(),
            cluster: ClusterState::new(),
            remote_models: Mutex::new(FxHashMap::default()),
            remote_model_cache_cap: cfg.remote_model_cache_cap.max(1),
            shutting_down: AtomicBool::new(false),
            wake: EventFd::new()?,
        })
    }

    /// Raise the shutdown flag and wake whatever is parked in a poll.
    pub(crate) fn request_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.wake.signal();
    }

    fn cache_for(&self, machine: MachineId) -> &PlanCache {
        match machine {
            MachineId::Amd => &self.plans_amd,
            MachineId::Intel => &self.plans_intel,
        }
    }

    fn machine_config(machine: MachineId) -> repf_sim::MachineConfig {
        match machine {
            MachineId::Amd => amd_phenom_ii(),
            MachineId::Intel => intel_i7_2600k(),
        }
    }

    /// Execute one request: a run of one.
    pub(crate) fn handle(&self, req: Request) -> Response {
        let mut out = self.handle_run(vec![req]);
        out.pop().expect("one reply per request")
    }

    /// Execute one connection's run of requests, in order, on a worker
    /// thread; one reply per request, in request order. The answer
    /// equals executing the requests one at a time, but each peer is
    /// called once per run instead of once per request:
    ///
    /// 1. [`plan`](Self::plan) walks the run in order, routing each
    ///    session-addressed request once. A forward joins its owner's
    ///    [`PeerStream`] as a `PeerForward`; each `CoRun`/`Place` member
    ///    that is not live here and has a peer owner adds a
    ///    `ModelPullCurrent` to that owner's stream.
    /// 2. Every stream leaves in one write on one pooled connection.
    /// 3. The run executes in order. Forwarded replies and pulled models
    ///    are read off the streams as execution reaches them.
    ///
    /// Every frame for one session goes to one owner, in run order, on
    /// one connection, and a daemon answers each connection in order, so
    /// a pull sees exactly the submits planned before it. Requests that
    /// can move a session onto or off this node (`RingSet`,
    /// `SessionImport`, `PeerForward`) end a segment: the requests after
    /// them are planned once they have run.
    pub(crate) fn handle_run(&self, mut reqs: Vec<Request>) -> Vec<Response> {
        let mut out = Vec::with_capacity(reqs.len());
        let mut start = 0;
        while start < reqs.len() {
            let end = reqs[start..]
                .iter()
                .position(Self::moves_sessions)
                .map_or(reqs.len(), |k| start + k + 1);
            self.run_segment(&mut reqs[start..end], &mut out);
            start = end;
        }
        out
    }

    fn moves_sessions(req: &Request) -> bool {
        matches!(
            req,
            Request::RingSet { .. } | Request::SessionImport { .. } | Request::PeerForward { .. }
        )
    }

    /// Plan, send and execute one segment of a run.
    fn run_segment(&self, reqs: &mut [Request], out: &mut Vec<Response>) {
        let mut plan = self.plan(reqs);
        for stream in &mut plan.streams {
            stream.send(&self.metrics);
        }
        for (i, req) in reqs.iter_mut().enumerate() {
            self.metrics.count_request(req.kind_index());
            plan.at = i;
            let resp = match plan.forwards.get(i).copied().flatten() {
                Some((stream, seq)) => plan.streams[stream]
                    .reply(seq)
                    .unwrap_or_else(Self::internal),
                None => self.execute(req, &mut plan),
            };
            out.push(resp);
        }
        // Dropping the plan drains the replies nobody took and pools
        // the connections again.
    }

    /// The planning pass of [`handle_run`](Self::handle_run). An
    /// un-clustered node, or a segment with nothing to route, plans
    /// nothing.
    fn plan(&self, reqs: &[Request]) -> RunPlan<'_> {
        let mut plan = RunPlan::default();
        let routed = |r: &Request| {
            Self::session_target(r).is_some()
                || matches!(r, Request::CoRun { .. } | Request::Place { .. })
        };
        if !reqs.iter().any(routed) || !self.cluster.is_clustered() {
            return plan;
        }
        let me = self.cluster.self_addr();
        // Sessions a locally planned submit creates: live here once it
        // runs, so later requests for them stay local too.
        let mut born: Vec<&str> = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            plan.forwards.push(None);
            if let Some((session, is_submit)) = Self::session_target(req) {
                let route = if born.contains(&session) {
                    Route::Local
                } else {
                    self.cluster.route(session, is_submit, &self.sessions)
                };
                match route {
                    Route::Forward(dest) => {
                        let stream = plan.stream_to(&self.cluster, &dest);
                        let seq = plan.streams[stream].push(&Request::PeerForward {
                            hops: MAX_FORWARD_HOPS,
                            frame: req.encode()[4..].to_vec(),
                        });
                        plan.forwards[i] = Some((stream, seq));
                        self.metrics
                            .cluster_forwarded
                            .fetch_add(1, Ordering::Relaxed);
                        if is_submit {
                            // A later pull must see this submit.
                            for p in plan.pulls.iter_mut().filter(|p| p.session == session) {
                                p.open = false;
                            }
                        }
                    }
                    Route::Local => {
                        if is_submit && !self.sessions.contains(session) {
                            born.push(session);
                        }
                    }
                }
            } else if let Some(names) = Self::members(req) {
                for name in names {
                    if born.contains(&name.as_str()) || self.sessions.contains(name) {
                        continue;
                    }
                    let Some(owner) = self.cluster.owner_of(name).filter(|o| o != me) else {
                        continue;
                    };
                    // A second pull of the session reuses the first one's
                    // reply while no forwarded submit lies between them.
                    let p = match plan.pulls.iter().position(|p| p.open && p.session == *name) {
                        Some(p) => p,
                        None => self.plan_pull(&mut plan, &owner, name),
                    };
                    plan.member_pulls.push((i, p));
                    plan.pulls[p].uses += 1;
                }
            }
        }
        plan
    }

    /// Execute one request here (its route, if any, was local).
    /// Peer-protocol requests dispatch to their cluster handlers;
    /// everything else runs through [`handle_local`](Self::handle_local).
    fn execute(&self, req: &mut Request, plan: &mut RunPlan) -> Response {
        match req {
            Request::RingGet => return self.handle_ring_get(),
            Request::RingSet {
                epoch,
                seed,
                vnodes,
                nodes,
            } => return self.handle_ring_set(*epoch, *seed, *vnodes, nodes),
            Request::PeerForward { hops, frame } => return self.handle_peer_forward(*hops, frame),
            Request::SessionImport {
                session,
                version,
                batch,
                model,
            } => {
                return self.handle_session_import(
                    session,
                    *version,
                    std::mem::take(batch),
                    model.take(),
                )
            }
            Request::ModelPull { session, version } => {
                return self.handle_model_pull(session, *version)
            }
            Request::ModelPullCurrent {
                session,
                cached_version,
                cached_samples,
            } => return self.handle_model_pull_current(session, *cached_version, *cached_samples),
            _ => {}
        }
        let resp = self.handle_local(req, plan);
        // Routing said local but the session migrated away between the
        // check and the handler (a ring change raced us): chase the
        // tombstone it left behind instead of answering "unknown
        // session". A submit creates its session, so it never gets
        // here with its batch already taken.
        if Self::is_unknown_session(&resp) {
            if let Some((session, _)) = Self::session_target(req) {
                if let Some(dest) = self.sessions.tombstone_of(session) {
                    return self.forward(&dest, req);
                }
            }
        }
        resp
    }

    fn internal(message: String) -> Response {
        Response::Error {
            code: ErrorCode::Internal,
            message,
        }
    }

    /// Execute one request on this node, no routing. Forwarded peer
    /// frames land here too, so this must never re-forward — that is
    /// what makes forwarding loop-free. A submit moves its batch out of
    /// `req` into the store, leaving an empty batch behind. `CoRun` and
    /// `Place` take their peer-owned members' models from `plan`.
    fn handle_local(&self, req: &mut Request, plan: &mut RunPlan) -> Response {
        let metrics = &self.metrics;
        match req {
            Request::Ping => Response::Pong,
            Request::Submit { session, batch } => {
                self.handle_submit(session, std::mem::take(batch))
            }
            Request::QueryMrc {
                target,
                sizes_bytes,
            } => metrics
                .mrc_latency
                .time(|| self.handle_mrc(target, sizes_bytes)),
            Request::QueryPcMrc {
                target,
                pc,
                sizes_bytes,
            } => metrics
                .mrc_latency
                .time(|| self.handle_pc_mrc(target, *pc, sizes_bytes)),
            Request::QueryPlan {
                target,
                machine,
                delta,
            } => metrics
                .plan_latency
                .time(|| self.handle_plan(target, *machine, *delta)),
            Request::CoRun {
                sessions,
                sizes_bytes,
                intensities,
            } => metrics
                .corun_latency
                .time(|| self.handle_co_run(sessions, sizes_bytes, intensities, plan)),
            Request::Place {
                sessions,
                groups,
                capacity,
                size_bytes,
                intensities,
            } => {
                let resp = metrics.placement_latency.time(|| {
                    self.handle_place(sessions, *groups, *capacity, *size_bytes, intensities, plan)
                });
                if let Response::Placement {
                    nodes_explored,
                    pruned,
                    ..
                } = &resp
                {
                    self.metrics
                        .placement_nodes_explored
                        .fetch_add(*nodes_explored, Ordering::Relaxed);
                    self.metrics
                        .placement_pruned
                        .fetch_add(*pruned, Ordering::Relaxed);
                }
                resp
            }
            Request::Stats => Response::Stats(self.stats_pairs()),
            Request::Shutdown => {
                self.request_shutdown();
                Response::ShuttingDown
            }
            // Peer-protocol requests are dispatched in `execute`; one
            // arriving here was nested inside a forward.
            Request::RingGet
            | Request::RingSet { .. }
            | Request::PeerForward { .. }
            | Request::SessionImport { .. }
            | Request::ModelPull { .. }
            | Request::ModelPullCurrent { .. } => Response::Error {
                code: ErrorCode::Malformed,
                message: "peer request cannot be forwarded".into(),
            },
        }
    }

    /// The session a request addresses, and whether it creates state.
    fn session_target(req: &Request) -> Option<(&str, bool)> {
        match req {
            Request::Submit { session, .. } => Some((session, true)),
            Request::QueryMrc {
                target: Target::Session(s),
                ..
            }
            | Request::QueryPcMrc {
                target: Target::Session(s),
                ..
            }
            | Request::QueryPlan {
                target: Target::Session(s),
                ..
            } => Some((s, false)),
            _ => None,
        }
    }

    fn is_unknown_session(resp: &Response) -> bool {
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::UnknownSession,
                ..
            }
        )
    }

    // --- cluster tier ---

    fn handle_ring_get(&self) -> Response {
        let (epoch, ring) = self.cluster.snapshot();
        let (seed, vnodes, nodes) = match &ring {
            Some(r) => (r.seed(), r.vnodes(), r.nodes().to_vec()),
            None => (DEFAULT_RING_SEED, DEFAULT_VNODES, Vec::new()),
        };
        Response::RingInfo {
            epoch,
            seed,
            vnodes,
            nodes,
            self_addr: self.cluster.self_addr().to_string(),
        }
    }

    /// Adopt a new ring, then synchronously migrate away every session
    /// this node no longer owns before acknowledging — the orchestrator
    /// applies changes losers-first, so once the ack is out the new
    /// owners hold the state (or a tombstone points at them).
    fn handle_ring_set(&self, epoch: u64, seed: u64, vnodes: u32, nodes: &[String]) -> Response {
        let ring = Ring::new(seed, vnodes, nodes.to_vec());
        match self.cluster.install_ring(epoch, ring) {
            Err(current) => Response::RingAck {
                epoch: current,
                migrated: 0,
            },
            Ok(()) => {
                // Sessions move only on ring changes, and an imported
                // session keeps its exporter's version, which may name
                // another history on a copy pulled before the move.
                // Pulled copies are dropped here, so every pull quotes
                // only versions of the ring now in force.
                self.remote_models
                    .lock()
                    .expect("remote model cache poisoned")
                    .clear();
                self.metrics
                    .cluster_ring_epoch
                    .store(epoch, Ordering::Relaxed);
                self.metrics
                    .cluster_ring_nodes
                    .store(nodes.len() as u64, Ordering::Relaxed);
                self.update_share_gauge();
                let migrated = self.migrate_departed();
                Response::RingAck { epoch, migrated }
            }
        }
    }

    fn update_share_gauge(&self) {
        let (_, ring) = self.cluster.snapshot();
        let share = ring
            .as_ref()
            .and_then(|r| r.index_of(self.cluster.self_addr()).map(|i| r.share(i)))
            .unwrap_or(0.0);
        self.metrics
            .cluster_ring_share_ppm
            .store((share * 1e6) as u64, Ordering::Relaxed);
    }

    /// Ship every session whose ring owner is no longer this node to
    /// its new home. Returns how many moved.
    fn migrate_departed(&self) -> u64 {
        let (_, Some(ring)) = self.cluster.snapshot() else {
            return 0;
        };
        let me = self.cluster.self_addr();
        let departing: Vec<(String, String)> = self
            .sessions
            .session_names()
            .into_iter()
            .filter_map(|name| match ring.owner(&name) {
                Some(owner) if owner != me => Some((name, owner.to_string())),
                _ => None,
            })
            .collect();
        if departing.is_empty() {
            return 0;
        }
        self.metrics
            .cluster_migrations_started
            .fetch_add(1, Ordering::Relaxed);
        let mut moved = 0u64;
        let mut failed = 0u64;
        for (name, owner) in &departing {
            let start = Instant::now();
            if self.migrate_session(name, owner) {
                moved += 1;
                self.metrics
                    .cluster_migrated_sessions
                    .fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .migration_latency
                    .record_us(start.elapsed().as_micros() as u64);
            } else {
                failed += 1;
            }
        }
        if failed == 0 {
            self.metrics
                .cluster_migrations_completed
                .fetch_add(1, Ordering::Relaxed);
        }
        moved
    }

    /// Move one session to `dest`: export a snapshot, push it as a
    /// `SessionImport`, then remove the local copy — but only if the
    /// version is still the one exported. A submit racing the snapshot
    /// fails that check and the loop re-exports; on exhaustion (or an
    /// unreachable peer) the session stays local and keeps being
    /// served correctly here. Returns `true` when the session is gone
    /// from this node.
    fn migrate_session(&self, name: &str, dest: &str) -> bool {
        for _ in 0..MIGRATE_REDO_MAX {
            let Some(export) = self.sessions.export(name) else {
                return true; // evicted or already migrated: nothing to move
            };
            let model = export.model.map(|m| ModelWire::from(m.to_parts()));
            let req = Request::SessionImport {
                session: name.to_string(),
                version: export.version,
                batch: export.batch,
                model,
            };
            match self.cluster.call(dest, &req, &self.metrics) {
                Ok(Response::Imported) => {
                    if self.sessions.remove_migrated(name, export.version, dest) {
                        let bytes = self.sessions.bytes();
                        self.metrics.store_bytes.store(bytes, Ordering::Relaxed);
                        return true;
                    }
                    // A submit landed between export and removal; the
                    // peer holds a stale snapshot we are about to
                    // overwrite with a fresh one.
                }
                Ok(_) | Err(_) => return false,
            }
        }
        false
    }

    /// A request another node decided belongs here. Handle it locally —
    /// chasing at most `hops` tombstones if the session has already
    /// moved on — and never re-route, so forwarding cannot loop.
    fn handle_peer_forward(&self, hops: u8, frame: &[u8]) -> Response {
        self.metrics
            .cluster_peer_requests
            .fetch_add(1, Ordering::Relaxed);
        let mut inner = match Request::decode(frame) {
            Ok(Request::PeerForward { .. }) => {
                self.metrics.malformed.fetch_add(1, Ordering::Relaxed);
                return Response::Error {
                    code: ErrorCode::Malformed,
                    message: "nested peer forward".into(),
                };
            }
            Ok(r) => r,
            Err(e) => {
                self.metrics.malformed.fetch_add(1, Ordering::Relaxed);
                return Response::Error {
                    code: ErrorCode::Malformed,
                    message: format!("forwarded frame: {e}"),
                };
            }
        };
        self.metrics.count_request(inner.kind_index());
        if let Some((session, _)) = Self::session_target(&inner) {
            if hops > 0 && !self.sessions.contains(session) {
                if let Some(dest) = self.sessions.tombstone_of(session) {
                    return self.forward_frame(&dest, frame.to_vec(), hops - 1);
                }
            }
        }
        let resp = self.handle_local(&mut inner, &mut RunPlan::default());
        if hops > 0 && Self::is_unknown_session(&resp) {
            if let Some((session, _)) = Self::session_target(&inner) {
                if let Some(dest) = self.sessions.tombstone_of(session) {
                    return self.forward_frame(&dest, frame.to_vec(), hops - 1);
                }
            }
        }
        resp
    }

    /// Accept a migrated session: whole profile, version counter, and
    /// the cached model when the source had a fresh one (sparing this
    /// node the refit — counted as a remote model hit).
    fn handle_session_import(
        &self,
        session: &str,
        version: u64,
        batch: SampleBatch,
        model: Option<ModelWire>,
    ) -> Response {
        let model = model.map(|w| Arc::new(StatStackModel::from_parts(w.into_parts())));
        let had_model = model.is_some();
        match self.sessions.import(session, version, batch, model) {
            Ok(o) => {
                self.metrics
                    .evictions
                    .fetch_add(o.evicted as u64, Ordering::Relaxed);
                self.metrics
                    .store_bytes
                    .store(o.store_bytes, Ordering::Relaxed);
                if had_model {
                    self.metrics
                        .cluster_model_remote_hits
                        .fetch_add(1, Ordering::Relaxed);
                }
                Response::Imported
            }
            Err(SubmitRejected::InconsistentLineBytes) => Response::Error {
                code: ErrorCode::InconsistentBatch,
                message: "imported batch has inconsistent line_bytes".into(),
            },
            Err(SubmitRejected::ZeroLineBytes) => zero_line_bytes(),
        }
    }

    /// A peer asks for our cached model of `(session, version)` so it
    /// can skip its own fit. Answers `None` unless the exact version is
    /// cached — never triggers a fit here.
    fn handle_model_pull(&self, session: &str, version: u64) -> Response {
        Response::ModelEntry {
            version,
            model: self
                .sessions
                .cached_model_at(session, version)
                .map(|m| ModelWire::from(m.to_parts())),
        }
    }

    /// A peer resolving a co-run query asks for this session's *current*
    /// model, quoting the version and sample counts of the copy it
    /// holds. One shard lock decides the answer: the version alone when
    /// that copy is current, the samples it lacks when the store can name
    /// them, and otherwise the whole model. Only the last may fit — the
    /// same fit a local query of the session would do, taking the lock
    /// again after `try_pull_model`, which may call a peer and so must
    /// not hold it — and its reply carries the version read under the
    /// fit's own lock, so a racing submit can never pair an older model
    /// with a newer version.
    fn handle_model_pull_current(
        &self,
        session: &str,
        cached_version: u64,
        cached_samples: Option<(u64, u64)>,
    ) -> Response {
        let answer = self
            .sessions
            .pull_current(session, cached_version, cached_samples);
        let fit = match answer {
            Some(PullAnswer::Current(version)) => {
                return Response::ModelEntry {
                    version,
                    model: None,
                }
            }
            Some(PullAnswer::Tail {
                version,
                completed,
                dangling,
            }) => {
                return Response::ModelTail {
                    version,
                    completed,
                    dangling,
                }
            }
            Some(PullAnswer::Whole) => self.current_fit(session),
            None => None,
        };
        match fit {
            Some(Fit { model, version, .. }) => Response::ModelEntry {
                version,
                model: Some(ModelWire::from(model.to_parts())),
            },
            None => Response::Error {
                code: ErrorCode::UnknownSession,
                message: format!("unknown session '{session}'"),
            },
        }
    }

    /// The session's current fitted model and the version it covers,
    /// from the version-checked cache (refitting incrementally on a
    /// stale version), after trying to pull the fit from a peer that
    /// may already hold it.
    fn current_fit(&self, name: &str) -> Option<Fit> {
        self.try_pull_model(name);
        let fit = self.sessions.fitted(name)?;
        self.metrics.count_model_cache(fit.hit);
        Some(fit)
    }

    /// Before fitting a session model locally, try to fetch the fit
    /// from the one peer that plausibly has it (the session's owner
    /// under the previous ring). Saves the fleet from refitting a model
    /// that already exists somewhere — a fit happens at most once per
    /// session version cluster-wide.
    fn try_pull_model(&self, name: &str) {
        let Some(peer) = self.cluster.pull_candidate(name) else {
            return;
        };
        let Some(version) = self.sessions.version_of(name) else {
            return;
        };
        if self.sessions.cached_model_at(name, version).is_some() {
            return;
        }
        let req = Request::ModelPull {
            session: name.to_string(),
            version,
        };
        if let Ok(Response::ModelEntry { model: Some(w), .. }) =
            self.cluster.call(&peer, &req, &self.metrics)
        {
            let model = Arc::new(StatStackModel::from_parts(w.into_parts()));
            if self.sessions.install_model(name, version, model) {
                self.metrics
                    .cluster_model_remote_hits
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Relay `req` to `dest` wrapped in a `PeerForward`, and relay the
    /// answer back verbatim. Encoding is canonical, so the bytes the
    /// client sees are identical to `dest` answering it directly —
    /// which is what keeps replay digests placement-invariant.
    fn forward(&self, dest: &str, req: &Request) -> Response {
        self.forward_frame(dest, req.encode()[4..].to_vec(), MAX_FORWARD_HOPS)
    }

    fn forward_frame(&self, dest: &str, frame: Vec<u8>, hops: u8) -> Response {
        self.metrics
            .cluster_forwarded
            .fetch_add(1, Ordering::Relaxed);
        self.cluster
            .call(dest, &Request::PeerForward { hops, frame }, &self.metrics)
            .unwrap_or_else(Self::internal)
    }

    /// The `Stats` payload: the metrics snapshot plus per-shard session
    /// store gauges (`sessions.shard.N.*`), read lock-by-lock so the
    /// answer is consistent per shard.
    fn stats_pairs(&self) -> Vec<(String, f64)> {
        let mut out = self.metrics.snapshot();
        out.push((
            "cluster.tombstones".into(),
            self.sessions.tombstone_count() as f64,
        ));
        let shards = self.sessions.shard_stats();
        out.push(("sessions.shards".into(), shards.len() as f64));
        for (i, s) in shards.iter().enumerate() {
            out.push((format!("sessions.shard.{i}.bytes"), s.bytes as f64));
            out.push((
                format!("sessions.shard.{i}.budget_bytes"),
                s.budget_bytes as f64,
            ));
            out.push((format!("sessions.shard.{i}.sessions"), s.sessions as f64));
            out.push((format!("sessions.shard.{i}.evictions"), s.evictions as f64));
        }
        // Store aggregates: admission/doorkeeper/sketch counters and
        // per-segment byte gauges.
        let sum = |f: fn(&crate::session::ShardStats) -> u64| -> f64 {
            shards.iter().map(f).sum::<u64>() as f64
        };
        out.push((
            "store.admission.accepted".into(),
            sum(|s| s.admission_accepted),
        ));
        out.push((
            "store.admission.rejected".into(),
            sum(|s| s.admission_rejected),
        ));
        out.push(("store.doorkeeper.hits".into(), sum(|s| s.doorkeeper_hits)));
        out.push(("store.sketch.resets".into(), sum(|s| s.sketch_resets)));
        out.push(("store.segment.window.bytes".into(), sum(|s| s.window_bytes)));
        out.push((
            "store.segment.probation.bytes".into(),
            sum(|s| s.probation_bytes),
        ));
        out.push((
            "store.segment.protected.bytes".into(),
            sum(|s| s.protected_bytes),
        ));
        out.push(("store.access.drains".into(), sum(|s| s.access_drains)));
        out.push(("store.access.dropped".into(), sum(|s| s.access_dropped)));
        out
    }

    fn handle_submit(&self, session: &str, batch: SampleBatch) -> Response {
        let start = Instant::now();
        let out = self.sessions.submit(session, batch);
        self.metrics
            .submit_latency
            .record_us(start.elapsed().as_micros() as u64);
        match out {
            Ok(o) => {
                self.metrics
                    .evictions
                    .fetch_add(o.evicted as u64, Ordering::Relaxed);
                self.metrics
                    .store_bytes
                    .store(o.store_bytes, Ordering::Relaxed);
                Response::Accepted {
                    store_bytes: o.store_bytes,
                    evicted: o.evicted,
                }
            }
            Err(SubmitRejected::InconsistentLineBytes) => Response::Error {
                code: ErrorCode::InconsistentBatch,
                message: "line_bytes differs from the session's earlier batches".into(),
            },
            Err(SubmitRejected::ZeroLineBytes) => zero_line_bytes(),
        }
    }

    /// Hand the target's fitted model to `f`.
    ///
    /// Session models are cached per session and invalidated by version:
    /// every submit bumps the session's version, and a query reuses the
    /// published `Arc<StatStackModel>` when versions match — the fit is
    /// dropped from the hot path entirely, and `f` runs outside the shard
    /// lock. On a stale version the shard refits once (incrementally,
    /// merging only the batches submitted since the last fit) and
    /// republishes, so N concurrent queries of a hot session do one fit,
    /// not N. Benchmark models come from the plan cache's compute-once
    /// slot and are shared by all queries.
    fn with_model(&self, target: &Target, f: impl FnOnce(&StatStackModel) -> Response) -> Response {
        match target {
            Target::Session(name) => match self.current_fit(name).map(|f| f.model) {
                None => Response::Error {
                    code: ErrorCode::UnknownSession,
                    message: format!("unknown session '{name}'"),
                },
                Some(model) => f(&model),
            },
            Target::Benchmark(id) => f(self.plans_amd.model(*id)),
        }
    }

    fn handle_mrc(&self, target: &Target, sizes: &[u64]) -> Response {
        if let Some(err) = Self::validate_sizes(sizes) {
            return err;
        }
        self.with_model(target, |m| Response::Mrc {
            ratios: sizes.iter().map(|&b| m.miss_ratio_bytes(b)).collect(),
        })
    }

    fn handle_pc_mrc(&self, target: &Target, pc: u32, sizes: &[u64]) -> Response {
        if let Some(err) = Self::validate_sizes(sizes) {
            return err;
        }
        self.with_model(target, |m| Response::PcMrc {
            ratios: m
                .pc_mrc_bytes(repf_trace::Pc(pc), sizes)
                .map(|curve| curve.ratios().to_vec()),
        })
    }

    fn handle_plan(&self, target: &Target, machine: MachineId, delta: f64) -> Response {
        match target {
            Target::Benchmark(id) => {
                let cache = self.cache_for(machine);
                if cache.peek(*id).is_some() {
                    self.metrics.plan_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.metrics.plan_misses.fetch_add(1, Ordering::Relaxed);
                }
                let plans = cache.get(*id);
                Response::Plan(proto::PlanWire::from_plan(&plans.plan_nt, plans.delta))
            }
            Target::Session(name) => {
                if !delta.is_finite() || delta <= 0.0 {
                    return Response::Error {
                        code: ErrorCode::Unsupported,
                        message: "session plan queries need a positive finite delta".into(),
                    };
                }
                let cfg = Self::machine_config(machine).analysis_config(delta);
                // Plans need the profile and the model together, so this
                // runs under the shard lock — but still reuses the cached
                // fit (the expensive part).
                let answer = self
                    .sessions
                    .with_profile_and_model(name, |profile, model| {
                        analyze_with_model(profile, model, &cfg)
                    })
                    .map(|(analysis, hit)| {
                        self.metrics.count_model_cache(hit);
                        analysis
                    });
                let Some(analysis) = answer else {
                    return Response::Error {
                        code: ErrorCode::UnknownSession,
                        message: format!("unknown session '{name}'"),
                    };
                };
                Response::Plan(proto::PlanWire::from_plan(&analysis.plan, delta))
            }
        }
    }

    /// The size-list check of `QueryMrc`, `QueryPcMrc` and `CoRun`:
    /// empty, then longer than [`proto::MAX_QUERY_SIZES`]. Part of the
    /// replay contract, like the session-list checks below.
    fn validate_sizes(sizes: &[u64]) -> Option<Response> {
        let message = if sizes.is_empty() {
            "empty size list".to_string()
        } else if sizes.len() > proto::MAX_QUERY_SIZES {
            format!(
                "{} sizes exceed the cap of {}",
                sizes.len(),
                proto::MAX_QUERY_SIZES
            )
        } else {
            return None;
        };
        Some(Response::Error {
            code: ErrorCode::Unsupported,
            message,
        })
    }

    /// Shared validation prefix for `CoRun` and `Place`: empty list,
    /// over-limit list, duplicate name, then (when present) an
    /// intensity-count mismatch. Returns the first violation as the
    /// error response. Validation order is part of the replay contract
    /// (the oracle mirrors it byte for byte).
    fn validate_session_list(names: &[String], intensities: &[f64]) -> Option<Response> {
        if names.is_empty() {
            return Some(Response::Error {
                code: ErrorCode::Unsupported,
                message: "empty session list".into(),
            });
        }
        if names.len() > proto::MAX_CORUN_SESSIONS {
            return Some(Response::Error {
                code: ErrorCode::Unsupported,
                message: format!(
                    "co-run of {} sessions exceeds the cap of {}",
                    names.len(),
                    proto::MAX_CORUN_SESSIONS
                ),
            });
        }
        for (i, name) in names.iter().enumerate() {
            if names[..i].contains(name) {
                return Some(Response::Error {
                    code: ErrorCode::Unsupported,
                    message: format!("duplicate session '{name}'"),
                });
            }
        }
        if !intensities.is_empty() && intensities.len() != names.len() {
            return Some(Response::Error {
                code: ErrorCode::Unsupported,
                message: format!(
                    "{} intensities for {} sessions",
                    intensities.len(),
                    names.len()
                ),
            });
        }
        None
    }

    /// The members a `CoRun` or `Place` resolves, when its bounds admit
    /// it: a refused request resolves (and plans) nothing.
    fn members(req: &Request) -> Option<&[String]> {
        match req {
            Request::CoRun {
                sessions,
                sizes_bytes,
                intensities,
            } if Self::co_run_refusal(sessions, sizes_bytes, intensities).is_none() => {
                Some(sessions)
            }
            Request::Place {
                sessions,
                groups,
                capacity,
                intensities,
                ..
            } if Self::place_refusal(sessions, *groups, *capacity, intensities).is_none() => {
                Some(sessions)
            }
            _ => None,
        }
    }

    /// Resolve every listed session to its current model (locally, from
    /// the run's planned pulls, or by pulling it from its owner now),
    /// failing on the first unresolvable name in request order.
    fn resolve_models(
        &self,
        names: &[String],
        plan: &mut RunPlan,
    ) -> Result<Vec<Arc<StatStackModel>>, Response> {
        let mut models = Vec::with_capacity(names.len());
        for name in names {
            match self.member_model(name, plan)? {
                Some(m) => models.push(m),
                None => {
                    return Err(Response::Error {
                        code: ErrorCode::UnknownSession,
                        message: format!("unknown session '{name}'"),
                    })
                }
            }
        }
        Ok(models)
    }

    /// `CoRun`'s bounds, in the order the replay oracle mirrors: empty
    /// list, over-limit list, duplicate name, intensity mismatch, then
    /// empty or over-limit sizes.
    fn co_run_refusal(names: &[String], sizes: &[u64], intensities: &[f64]) -> Option<Response> {
        Self::validate_session_list(names, intensities).or_else(|| Self::validate_sizes(sizes))
    }

    /// Predict the named sessions' shared-cache behaviour when co-run.
    /// Validation order is part of the replay contract (the oracle
    /// mirrors it byte for byte): [`co_run_refusal`](Self::co_run_refusal),
    /// then first unresolvable session in request order. An empty
    /// `intensities` keeps the sample-count inference bit-exact; a
    /// full-length one overrides it.
    fn handle_co_run(
        &self,
        names: &[String],
        sizes: &[u64],
        intensities: &[f64],
        plan: &mut RunPlan,
    ) -> Response {
        if let Some(err) = Self::co_run_refusal(names, sizes, intensities) {
            return err;
        }
        let metrics = &self.metrics;
        let resolved = metrics
            .corun_resolve_latency
            .time(|| self.resolve_models(names, plan));
        let models = match resolved {
            Ok(m) => m,
            Err(e) => return e,
        };
        let answer = metrics.corun_compose_latency.time(|| {
            let mut co = CoRunModel::new();
            for (i, m) in models.iter().enumerate() {
                if intensities.is_empty() {
                    co.push(m);
                } else {
                    co.push_with_intensity(m, intensities[i]);
                }
            }
            co.answer_bytes(sizes)
        });
        Response::CoRun {
            per_session: names.iter().cloned().zip(answer.per_member).collect(),
            throughput: answer.throughput,
        }
    }

    /// `Place`'s bounds, in the order the replay oracle mirrors: empty
    /// list, over-limit list, duplicate name, intensity mismatch, zero
    /// groups/capacity, infeasible N > G·k, then a search tree over
    /// [`proto::MAX_PLACE_TREE_NODES`].
    fn place_refusal(
        names: &[String],
        groups: u32,
        capacity: u32,
        intensities: &[f64],
    ) -> Option<Response> {
        if let Some(err) = Self::validate_session_list(names, intensities) {
            return Some(err);
        }
        let message = if groups == 0 || capacity == 0 {
            "groups and capacity must be positive".to_string()
        } else if names.len() as u64 > groups as u64 * capacity as u64 {
            format!(
                "{} sessions do not fit in {groups} groups of {capacity}",
                names.len()
            )
        } else {
            let tree = repf_statstack::tree_nodes(names.len(), groups, capacity);
            if tree <= proto::MAX_PLACE_TREE_NODES {
                return None;
            }
            format!(
                "placement search tree of {tree} nodes exceeds the cap of {}",
                proto::MAX_PLACE_TREE_NODES
            )
        };
        Some(Response::Error {
            code: ErrorCode::Unsupported,
            message,
        })
    }

    /// Search co-run placements of the named sessions into `groups`
    /// cache-sharing groups of at most `capacity` members each,
    /// minimizing the predicted aggregate miss ratio at `size_bytes`.
    /// Validation order (the replay oracle mirrors it):
    /// [`place_refusal`](Self::place_refusal), then first unresolvable
    /// session in request order. Models resolve through the same
    /// `ModelPullCurrent` pulls as co-run, so any ring member answers
    /// with identical bytes. The search runs on the calling worker
    /// alone, so one request holds one worker rather than every core;
    /// the answer is the same at any thread count.
    fn handle_place(
        &self,
        names: &[String],
        groups: u32,
        capacity: u32,
        size_bytes: u64,
        intensities: &[f64],
        plan: &mut RunPlan,
    ) -> Response {
        if let Some(err) = Self::place_refusal(names, groups, capacity, intensities) {
            return err;
        }
        let metrics = &self.metrics;
        let resolved = metrics
            .placement_resolve_latency
            .time(|| self.resolve_models(names, plan));
        let models = match resolved {
            Ok(m) => m,
            Err(e) => return e,
        };
        let refs: Vec<&StatStackModel> = models.iter().map(|m| m.as_ref()).collect();
        let weights: Vec<f64> = if intensities.is_empty() {
            refs.iter().map(|m| m.sample_count() as f64).collect()
        } else {
            intensities.to_vec()
        };
        let result = metrics.placement_search_latency.time(|| {
            repf_statstack::placement::place(&refs, &weights, groups, capacity, size_bytes, 1)
        });
        Response::Placement {
            groups: result
                .groups
                .iter()
                .map(|g| g.iter().map(|&i| names[i].clone()).collect())
                .collect(),
            total_miss_ratio: result.total_miss_ratio,
            throughput: result.throughput,
            nodes_explored: result.nodes_explored,
            pruned: result.pruned,
        }
    }

    /// Resolve one co-run member to its current model: locally when the
    /// session lives here, else from its ring owner — through the pull
    /// the run planned for it, or a pull of its own when none was
    /// planned. `Err` is the `Internal` reply of an unreachable owner.
    fn member_model(
        &self,
        name: &str,
        plan: &mut RunPlan,
    ) -> Result<Option<Arc<StatStackModel>>, Response> {
        if let Some(Fit { model, .. }) = self.current_fit(name) {
            return Ok(Some(model));
        }
        if let Some(p) = plan.pull_of(name) {
            return self.take_pull(plan, p).map_err(Self::internal);
        }
        let Some(owner) = self.cluster.owner_of(name) else {
            return Ok(None);
        };
        if owner == self.cluster.self_addr() {
            return Ok(None); // we are the owner and don't have it: unknown
        }
        let mut single = RunPlan::default();
        let p = self.plan_pull(&mut single, &owner, name);
        single.streams[0].send(&self.metrics);
        self.take_pull(&mut single, p).map_err(Self::internal)
    }

    /// Queue a `ModelPullCurrent` of `name` on `plan`'s stream to
    /// `owner`, quoting the version of the copy cached from that owner.
    fn plan_pull<'a>(&'a self, plan: &mut RunPlan<'a>, owner: &str, name: &str) -> usize {
        let cached = self.remote_model(owner, name);
        let stream = plan.stream_to(&self.cluster, owner);
        let seq = plan.streams[stream].push(&Request::ModelPullCurrent {
            session: name.to_string(),
            cached_version: cached.as_ref().map_or(u64::MAX, |(v, _)| *v),
            cached_samples: cached.as_ref().map(|(_, m)| m.sample_split()),
        });
        plan.pulls.push(Pull {
            session: name.to_string(),
            stream,
            seq,
            cached,
            open: true,
            uses: 0,
            held: None,
        });
        plan.pulls.len() - 1
    }

    /// The model pull `p` of `plan` answered: read its reply the first
    /// time a member asks, and hand later planned members of the same
    /// session the same model. A transfer, whole or tail, is counted
    /// once, in `cluster.model.remote_hits` and `cluster.pull_bytes`
    /// (a tail in `cluster.pull_tails` too), and cached under the owner
    /// and the version it reported; "your cached version is current"
    /// serves the copy whose version the pull quoted (held since
    /// planning, so eviction cannot race).
    fn take_pull(
        &self,
        plan: &mut RunPlan,
        p: usize,
    ) -> Result<Option<Arc<StatStackModel>>, String> {
        let pull = &mut plan.pulls[p];
        pull.uses = pull.uses.saturating_sub(1);
        let taken = match pull.held.take() {
            Some(held) => held,
            None => self.read_pull(pull, &mut plan.streams[pull.stream]),
        };
        // Later members of the session share it; after the last one the
        // run stops holding a model the cache may already have replaced.
        if pull.uses > 0 {
            pull.held = Some(taken.clone());
        }
        taken
    }

    /// Read pull `pull`'s reply off `stream` and resolve it to a model.
    /// A tail extends the copy the pull quoted; a tail answering a pull
    /// that quoted none breaks the peer protocol and is an error.
    fn read_pull(
        &self,
        pull: &mut Pull,
        stream: &mut PeerStream,
    ) -> Result<Option<Arc<StatStackModel>>, String> {
        let cached = pull.cached.take();
        let (resp, bytes) = stream.reply_sized(pull.seq)?;
        let metrics = &self.metrics;
        let (version, model) = match resp {
            Response::ModelEntry {
                version,
                model: Some(w),
            } => (version, StatStackModel::from_parts(w.into_parts())),
            Response::ModelTail {
                version,
                completed,
                dangling,
            } => {
                let Some((_, copy)) = cached else {
                    return Err(format!(
                        "peer {}: a model tail of '{}' answers a pull that quoted no copy",
                        stream.dest(),
                        pull.session
                    ));
                };
                let mut tail = StatStackBuilder::new(copy.line_bytes());
                tail.push_samples(
                    completed.into_iter().map(|(pc, d)| (Pc(pc), d)),
                    dangling.into_iter().map(|(pc, n)| (Pc(pc), n)),
                );
                metrics.cluster_pull_tails.fetch_add(1, Ordering::Relaxed);
                (version, copy.extend(&tail))
            }
            Response::ModelEntry {
                version,
                model: None,
            } => return Ok(cached.filter(|(v, _)| *v == version).map(|(_, m)| m)),
            _ => return Ok(None),
        };
        let model = Arc::new(model);
        metrics
            .cluster_model_remote_hits
            .fetch_add(1, Ordering::Relaxed);
        metrics
            .cluster_pull_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        let mut cache = self
            .remote_models
            .lock()
            .expect("remote model cache poisoned");
        if cache.len() >= self.remote_model_cache_cap && !cache.contains_key(&pull.session) {
            cache.clear();
        }
        let entry = (stream.dest().to_string(), version, Arc::clone(&model));
        cache.insert(pull.session.clone(), entry);
        Ok(Some(model))
    }

    /// The cached model of `session` pulled from `owner`, with the
    /// version the owner reported. Entries pulled from another owner do
    /// not count: versions are per node.
    fn remote_model(&self, owner: &str, session: &str) -> Option<(u64, Arc<StatStackModel>)> {
        let cache = self
            .remote_models
            .lock()
            .expect("remote model cache poisoned");
        let (from, version, model) = cache.get(session)?;
        (from == owner).then(|| (*version, Arc::clone(model)))
    }
}

/// The peer traffic [`ServeState::plan`] laid out for one segment of a
/// run: one stream per peer, where each forwarded request's reply is,
/// and the model pulls the `CoRun`/`Place` members take.
#[derive(Default)]
struct RunPlan<'a> {
    streams: Vec<PeerStream<'a>>,
    /// Per request: `(stream, reply index)` when it was forwarded.
    /// Empty when nothing was planned.
    forwards: Vec<Option<(usize, usize)>>,
    pulls: Vec<Pull>,
    /// `(request, pull)` for each member that takes a planned pull, in
    /// request order.
    member_pulls: Vec<(usize, usize)>,
    /// The request executing now.
    at: usize,
}

/// One planned `ModelPullCurrent`.
struct Pull {
    session: String,
    stream: usize,
    /// Its reply's index in the stream.
    seq: usize,
    /// The cached copy the pull quoted: served on a "current" reply,
    /// extended by a tail reply.
    cached: Option<(u64, Arc<StatStackModel>)>,
    /// A later member of the session may reuse this pull: no forwarded
    /// submit to the session was planned since.
    open: bool,
    /// Planned members that have not taken the model yet.
    uses: usize,
    /// The model, once read, while planned members still need it.
    held: Option<Result<Option<Arc<StatStackModel>>, String>>,
}

impl<'a> RunPlan<'a> {
    /// The index of the stream to `dest`, opened on first use.
    fn stream_to(&mut self, cluster: &'a ClusterState, dest: &str) -> usize {
        match self.streams.iter().position(|s| s.dest() == dest) {
            Some(i) => i,
            None => {
                self.streams.push(cluster.stream(dest));
                self.streams.len() - 1
            }
        }
    }

    /// The pull planned for member `name` of the executing request.
    fn pull_of(&self, name: &str) -> Option<usize> {
        let at = self.at;
        self.member_pulls
            .iter()
            .skip_while(|(i, _)| *i < at)
            .take_while(|(i, _)| *i == at)
            .map(|&(_, p)| p)
            .find(|&p| self.pulls[p].session == name)
    }
}

/// A running server. Dropping the handle does *not* stop the server; use
/// [`shutdown`](Self::shutdown) or send the `Shutdown` control message.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    io_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `true` once a shutdown has been requested (control message or
    /// [`shutdown`](Self::shutdown)).
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutting_down.load(Ordering::SeqCst)
    }

    /// Request shutdown and wait for the drain to finish.
    pub fn shutdown(mut self) {
        self.state.request_shutdown();
        self.join_inner();
    }

    /// Block until the server exits (e.g. on a client `Shutdown` control
    /// message).
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        if let Some(h) = self.io_thread.take() {
            // Wake the I/O loop out of its poll so it observes the flag
            // (a no-op nudge when shutdown was not requested: the loop
            // just re-checks and parks again).
            self.state.wake.signal();
            h.join().expect("I/O thread panicked");
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.io_thread.is_some() && self.is_shutting_down() {
            self.join_inner();
        }
    }
}

/// Bind and start the daemon; returns once the listener is live.
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServeState::new(&cfg)?);
    // Cluster identity and the optional static `--peers` ring: the
    // advertised address is what every other party dials and hashes,
    // defaulting to the just-bound address (resolving port 0).
    let self_addr = cfg.advertise.clone().unwrap_or_else(|| addr.to_string());
    state.cluster.set_self_addr(self_addr.clone());
    if !cfg.peers.is_empty() {
        let mut members = cfg.peers.clone();
        members.push(self_addr);
        let ring = Ring::new(cfg.cluster_seed, cfg.vnodes, members);
        let n = ring.len() as u64;
        if state.cluster.install_ring(1, ring).is_ok() {
            state.metrics.cluster_ring_epoch.store(1, Ordering::Relaxed);
            state.metrics.cluster_ring_nodes.store(n, Ordering::Relaxed);
            state.update_share_gauge();
        }
    }
    let threads = if cfg.threads == 0 {
        Exec::from_env().threads()
    } else {
        cfg.threads
    };
    let loop_state = Arc::clone(&state);
    let io_thread = std::thread::Builder::new()
        .name("repf-serve-io".into())
        .spawn(move || epoll_loop(listener, loop_state, cfg, threads))?;
    Ok(ServerHandle {
        addr,
        state,
        io_thread: Some(io_thread),
    })
}

/// The refusal of a `Submit` or `SessionImport` batch whose
/// `line_bytes` is 0.
fn zero_line_bytes() -> Response {
    Response::Error {
        code: ErrorCode::InconsistentBatch,
        message: "line_bytes must be at least 1".into(),
    }
}

/// Best-effort `Busy` answer to a connection shed at accept time
/// (over `max_conns`): the socket's send buffer is empty, so one
/// nonblocking write either takes the whole 6-byte frame or the peer
/// was never going to hear from us anyway.
fn shed_connection(stream: TcpStream, state: &ServeState) {
    state.metrics.shed.fetch_add(1, Ordering::Relaxed);
    stream.set_nonblocking(true).ok();
    let frame = Response::Busy.encode();
    let _ = (&stream).write_all(&frame);
}

/// Exponential accept-error backoff: EMFILE and friends are persistent,
/// so hot-looping `accept` burns a core without helping. Start small,
/// double to a cap, reset on the next successful accept.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(500);

fn grow_backoff(b: Duration) -> Duration {
    (b * 2).min(ACCEPT_BACKOFF_MAX)
}

/// Most requests in one run, and most frames in one worker job.
const DISPATCH_CHUNK_MAX: usize = 32;

/// One run's replies, in request order, tagged with its connection.
type Completion = (u64, Vec<Response>);

/// Completed work handed from the worker pool back to the I/O thread:
/// one entry per run behind a mutex, with an eventfd wake so the I/O
/// thread learns about completions while parked.
struct CompletionQueue {
    done: Mutex<Vec<Completion>>,
    ready: EventFd,
}

impl CompletionQueue {
    fn new() -> std::io::Result<Self> {
        Ok(CompletionQueue {
            done: Mutex::new(Vec::new()),
            ready: EventFd::new()?,
        })
    }

    /// One lock acquisition for a whole job's runs, and an eventfd
    /// signal only on the empty→non-empty transition: the I/O thread
    /// drains the whole queue per wake (`drain_into`), so intermediate
    /// signals would only add spurious `epoll_wait` round trips.
    fn push_batch(&self, items: Vec<Completion>) {
        if items.is_empty() {
            return;
        }
        let was_empty = {
            let mut q = self.done.lock().expect("completion queue");
            let was_empty = q.is_empty();
            q.extend(items);
            was_empty
        };
        if was_empty {
            self.ready.signal();
        }
    }

    /// Take everything queued in one lock acquisition.
    ///
    /// Safe with coalesced signals: a worker that pushes after this
    /// drain sees an empty queue and signals; one that pushed before it
    /// had its items taken right here.
    fn drain_into(&self, out: &mut Vec<Completion>) {
        let mut q = self.done.lock().expect("completion queue");
        out.append(&mut q);
    }
}

/// Epoll tokens 0–2 are the loop's own fds; connections start at 3.
const TOK_LISTENER: u64 = 0;
const TOK_WAKE: u64 = 1;
const TOK_COMPLETION: u64 = 2;
const TOK_FIRST_CONN: u64 = 3;

/// Floor applied when `fire_timers` re-arms a popped-but-live entry: a
/// deadline at or before the drain loop's fixed `now` would pop right
/// back out and livelock the I/O thread, so eviction is allowed to run
/// this much late instead.
const TIMER_REARM_GRACE: Duration = Duration::from_millis(10);

/// The readiness-polled event loop: every socket nonblocking on one
/// thread, compute on the worker pool, completions back over
/// [`CompletionQueue`]. See the module docs for the degradation rules.
fn epoll_loop(listener: TcpListener, state: Arc<ServeState>, cfg: ServeConfig, threads: usize) {
    let pool = WorkerPool::new(threads, cfg.queue_depth);
    let poller = Poller::new().expect("epoll instance");
    listener
        .set_nonblocking(true)
        .expect("listener nonblocking");
    poller
        .add(listener.as_raw_fd(), EPOLLIN, TOK_LISTENER)
        .expect("register listener");
    poller
        .add(state.wake.fd(), EPOLLIN, TOK_WAKE)
        .expect("register wake eventfd");
    let completions = Arc::new(CompletionQueue::new().expect("completion eventfd"));
    poller
        .add(completions.ready.fd(), EPOLLIN, TOK_COMPLETION)
        .expect("register completion eventfd");

    let mut lp = EpollLoop {
        state,
        cfg,
        pool,
        poller,
        listener,
        completions,
        conns: HashMap::new(),
        timers: BinaryHeap::new(),
        next_token: TOK_FIRST_CONN,
        accepting: true,
        accept_backoff: ACCEPT_BACKOFF_MIN,
        accept_resume: None,
        draining: false,
        touched: Vec::new(),
        dispatch: Vec::new(),
        comp_buf: Vec::new(),
        pool_full: false,
    };
    lp.run();
    lp.pool.shutdown();
}

/// Deadline-heap entry: earliest first.
type TimerEntry = std::cmp::Reverse<(Instant, u64)>;

/// Readiness and completions only *collect* work during the event
/// sweep; decode, pool dispatch and socket flushes run once per poll
/// iteration in [`finish_batch`](Self::finish_batch).
struct EpollLoop {
    state: Arc<ServeState>,
    cfg: ServeConfig,
    pool: WorkerPool,
    poller: Poller,
    listener: TcpListener,
    completions: Arc<CompletionQueue>,
    conns: HashMap<u64, Conn>,
    /// Sorted deadline heap over `(instant, token)`; entries are cheap
    /// and validated against the connection's live state when they pop,
    /// so stale ones are harmless.
    timers: BinaryHeap<TimerEntry>,
    next_token: u64,
    accepting: bool,
    accept_backoff: Duration,
    /// When accept errors paused the listener, the instant to resume.
    accept_resume: Option<Instant>,
    draining: bool,
    /// Tokens that saw activity this poll iteration (reads, completions)
    /// and still need pending-frame processing + one deferred flush.
    touched: Vec<u64>,
    /// Runs of decoded requests, one per connection, awaiting pool
    /// submit.
    dispatch: Vec<(u64, Vec<Request>)>,
    /// Reused drain buffer for [`CompletionQueue::drain_into`].
    comp_buf: Vec<Completion>,
    /// Latched when a pool submit fails within the current iteration:
    /// the rest of the batch answers `Busy` inline instead of retrying a
    /// queue that was full microseconds ago.
    pool_full: bool,
}

impl EpollLoop {
    fn run(&mut self) {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
        loop {
            let timeout = self.poll_timeout();
            let n = match self.poller.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => continue, // EINTR is retried inside; others: re-park
            };
            let now = Instant::now();
            for ev in &events[..n] {
                match ev.data {
                    TOK_LISTENER => self.accept_ready(now),
                    TOK_WAKE => {
                        self.state.wake.drain();
                    }
                    TOK_COMPLETION => self.completions_ready(now),
                    token => self.conn_ready(token, ev.events, now),
                }
            }
            self.finish_batch(now);
            let now = Instant::now();
            self.fire_timers(now);
            if self.state.shutting_down.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.draining && self.conns.is_empty() {
                return;
            }
        }
    }

    /// The next `epoll_wait` timeout in ms: the nearest live deadline
    /// (connection timer or accept-backoff resume), or block forever.
    fn poll_timeout(&mut self) -> i32 {
        let now = Instant::now();
        let mut next: Option<Instant> = self.accept_resume;
        // Skip heap entries whose connection is gone; the first live one
        // bounds the sleep (it may be stale-early, which only costs a
        // spurious wakeup).
        while let Some(std::cmp::Reverse((t, token))) = self.timers.peek().copied() {
            if self.conns.contains_key(&token) {
                next = Some(next.map_or(t, |n| n.min(t)));
                break;
            }
            self.timers.pop();
        }
        match next {
            None => -1,
            Some(t) => {
                let ms = t.saturating_duration_since(now).as_millis();
                // +1 rounds up so we never wake a hair before the
                // deadline and spin.
                (ms.min(i32::MAX as u128 - 1) as i32).saturating_add(1)
            }
        }
    }

    fn arm_timer(&mut self, token: u64) {
        if let Some(t) = self.conns.get(&token).and_then(|c| c.next_deadline()) {
            self.timers.push(std::cmp::Reverse((t, token)));
        }
    }

    /// Pop due timers; evict expired connections, re-arm live ones, and
    /// resume a backoff-paused listener.
    fn fire_timers(&mut self, now: Instant) {
        while let Some(std::cmp::Reverse((t, token))) = self.timers.peek().copied() {
            if t > now {
                break;
            }
            self.timers.pop();
            let Some(c) = self.conns.get(&token) else {
                continue;
            };
            if c.expired(now) {
                // Idle / slow-loris / stalled-write eviction: drop
                // silently.
                self.close_conn(token);
            } else if let Some(next) = c.next_deadline() {
                // `next_deadline` mirrors `expired`, so a live
                // connection's deadline lies in the future — but never
                // trust that enough to re-push an instant `<= now`:
                // this drain loop would pop it again immediately (with
                // `now` fixed) and spin the I/O thread forever.
                let next = next.max(now + TIMER_REARM_GRACE);
                self.timers.push(std::cmp::Reverse((next, token)));
            }
        }
        if let Some(t) = self.accept_resume {
            if now >= t && !self.draining {
                self.accept_resume = None;
                if self
                    .poller
                    .add(self.listener.as_raw_fd(), EPOLLIN, TOK_LISTENER)
                    .is_ok()
                {
                    self.accepting = true;
                } else {
                    // Could not re-register: try again after another
                    // backoff period rather than never accepting again.
                    self.accept_resume = Some(now + self.accept_backoff);
                }
            }
        }
    }

    fn accept_ready(&mut self, now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.accept_backoff = ACCEPT_BACKOFF_MIN;
                    if self.draining {
                        continue; // raced a shutdown: refuse quietly
                    }
                    if self.conns.len() >= self.cfg.max_conns {
                        shed_connection(stream, &self.state);
                        continue;
                    }
                    self.admit(stream, now);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Persistent accept failure (EMFILE, ...): count it,
                    // unregister the listener and retry after a backoff —
                    // a level-triggered poller would otherwise spin.
                    self.state
                        .metrics
                        .accept_errors
                        .fetch_add(1, Ordering::Relaxed);
                    if self.accepting {
                        let _ = self.poller.del(self.listener.as_raw_fd());
                        self.accepting = false;
                    }
                    self.accept_resume = Some(now + self.accept_backoff);
                    self.accept_backoff = grow_backoff(self.accept_backoff);
                    break;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream, now: Instant) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        stream.set_nodelay(true).ok();
        let token = self.next_token;
        self.next_token += 1;
        let mut conn = Conn::new(
            stream,
            token,
            now,
            self.cfg.idle_timeout,
            self.cfg.write_timeout,
        );
        if self
            .poller
            .add(conn.stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
            .is_err()
        {
            return; // fd table full; the socket just closes
        }
        conn.interest = EPOLLIN | EPOLLRDHUP;
        self.state
            .metrics
            .connections
            .fetch_add(1, Ordering::Relaxed);
        self.state
            .metrics
            .open_conns
            .fetch_add(1, Ordering::Relaxed);
        self.conns.insert(token, conn);
        self.arm_timer(token);
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(c) = self.conns.remove(&token) {
            let _ = self.poller.del(c.stream.as_raw_fd());
            self.state
                .metrics
                .open_conns
                .fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Readiness on a connection socket.
    fn conn_ready(&mut self, token: u64, bits: u32, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if bits & EPOLLERR != 0 {
            self.close_conn(token);
            return;
        }
        if bits & EPOLLHUP != 0 && (conn.read_closed || conn.closing) {
            // Both directions are gone and reading already stopped:
            // nothing queued can ever be delivered, and with read
            // interest dropped a level-triggered HUP would otherwise
            // keep waking the loop for a connection it can't advance.
            self.close_conn(token);
            return;
        }
        if bits & EPOLLOUT != 0 {
            match conn.flush(now) {
                Ok(_) => {}
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        if bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0 && !conn.closing && !conn.read_closed {
            match conn.read_ready() {
                Ok(ConnRead::Open) => {}
                Ok(ConnRead::PeerClosed) => {
                    if conn.acc.mid_frame() {
                        // EOF inside a frame: transport failure.
                        self.close_conn(token);
                        return;
                    }
                    conn.read_closed = true;
                }
                Ok(ConnRead::Failed) => {
                    self.close_conn(token);
                    return;
                }
                Err(e) => {
                    // Framing violation: the stream can never
                    // resynchronize, so stop reading — but the complete
                    // frames that arrived coalesced ahead of the bad
                    // prefix are still answered first, in arrival order.
                    // `process_pending` emits the Malformed error and
                    // hangs up once `pending` drains.
                    self.state.metrics.malformed.fetch_add(1, Ordering::Relaxed);
                    self.state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    let conn = self.conns.get_mut(&token).expect("checked above");
                    conn.poison = Some(e);
                    conn.read_closed = true;
                }
            }
        }
        // Defer decode/dispatch/flush to `finish_batch`, once per poll
        // iteration across every touched connection.
        self.touched.push(token);
    }

    /// Reconcile a connection's epoll interest and deadline after any
    /// activity, or close it when it owes nothing more.
    fn settle(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.done() {
            self.close_conn(token);
            return;
        }
        if self.draining && !conn.in_flight && conn.out.is_empty() {
            // Drain closes everything that has nothing in flight; queued
            // but undispatched frames are abandoned.
            self.close_conn(token);
            return;
        }
        // Read interest must drop once reading has stopped (`closing`
        // or `read_closed`): with level-triggered epoll, an EOF'd or
        // unread socket stays permanently readable, and keeping EPOLLIN
        // registered would spin the loop at 100% CPU while the
        // connection waits on in-flight compute or a stalled write.
        let want_read = !conn.closing && !conn.read_closed;
        let want_write = !conn.out.is_empty();
        let mut interest = 0u32;
        if want_read {
            interest |= EPOLLIN | EPOLLRDHUP;
        }
        if want_write {
            interest |= EPOLLOUT;
        }
        if interest != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), interest, token)
                .is_ok()
        {
            conn.interest = interest;
        }
        self.arm_timer(token);
    }

    /// Worker-pool completions: drain the eventfd once, take every
    /// queued run in one lock acquisition, and only *queue* the reply
    /// frames — the socket writes happen in `finish_batch`'s single
    /// flush pass. A run's replies arrive together, so its connection
    /// is idle again once they are queued.
    fn completions_ready(&mut self, now: Instant) {
        self.completions.ready.drain();
        let mut batch = std::mem::take(&mut self.comp_buf);
        self.completions.drain_into(&mut batch);
        if !batch.is_empty() {
            let replies: usize = batch.iter().map(|(_, run)| run.len()).sum();
            let m = &self.state.metrics;
            m.io_batch_completion_drains.fetch_add(1, Ordering::Relaxed);
            m.io_batch_completions
                .fetch_add(replies as u64, Ordering::Relaxed);
        }
        for (token, replies) in batch.drain(..) {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // connection died while computing
            };
            conn.in_flight = false;
            for resp in replies {
                if matches!(resp, Response::Error { .. }) {
                    self.state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                }
                conn.out.push_frame(resp.encode_reply());
            }
            // The replies open the wait for the next request: restart
            // the idle clock.
            conn.touch_read(now);
            self.touched.push(token);
        }
        self.comp_buf = batch; // keep the allocation
    }

    /// The once-per-poll-iteration tail of the event loop: process
    /// every touched connection's pending frames (collecting runs into
    /// `dispatch`), submit the collected runs to the pool in chunked
    /// jobs, then flush each touched connection exactly once (a `writev`
    /// across all its queued frames) and settle its interest/timers.
    fn finish_batch(&mut self, now: Instant) {
        if self.touched.is_empty() {
            return;
        }
        let mut tokens = std::mem::take(&mut self.touched);
        tokens.sort_unstable();
        tokens.dedup();
        let mut round = tokens.clone();
        loop {
            for &token in &round {
                self.process_pending(token);
            }
            if self.dispatch.is_empty() {
                break;
            }
            let runs = std::mem::take(&mut self.dispatch);
            // Tokens whose submit failed got a Busy answer per frame and
            // cleared `in_flight`; their next pending frame (if any)
            // still needs processing, so they loop back around — with
            // `pool_full` latched, the whole backlog drains as inline
            // Busy.
            round = self.submit_dispatch(runs);
            if round.is_empty() {
                break;
            }
        }
        for &token in &tokens {
            self.flush_conn(token, now);
        }
        self.pool_full = false;
    }

    /// Take the connection's next run off `pending` while nothing from
    /// it is in flight, answering inline what never reaches the pool.
    /// A run is every consecutive complete frame that decodes to a
    /// request other than `Shutdown`, up to [`DISPATCH_CHUNK_MAX`]; it
    /// runs in arrival order inside one worker job, so reply order per
    /// connection holds at any pool width. A `Shutdown` or undecodable
    /// frame ends the run and is answered in its own slot once the
    /// run's replies are back.
    fn process_pending(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut run = Vec::new();
        while !conn.in_flight && !conn.closing && !self.draining {
            let Some(body) = conn.pending.front() else {
                // Once every complete frame ahead of a framing violation
                // has been answered (no run is being built), the
                // Malformed error goes out and the connection hangs up.
                if let Some(e) = conn.poison.take_if(|_| run.is_empty()) {
                    conn.out.push_frame(
                        Response::Error {
                            code: ErrorCode::Malformed,
                            message: e.to_string(),
                        }
                        .encode(),
                    );
                    conn.closing = true;
                }
                break;
            };
            match Request::decode(body) {
                // Answered after the run: this frame waits in `pending`.
                Ok(Request::Shutdown) | Err(_) if !run.is_empty() => break,
                Ok(Request::Shutdown) => {
                    // Inline: the pressure-release valve must work with a
                    // saturated queue. `handle` raises the flag; the
                    // drain starts at the end of this poll iteration.
                    let resp = self.state.handle(Request::Shutdown);
                    conn.pending.clear();
                    conn.out.push_frame(resp.encode());
                    conn.closing = true;
                }
                Ok(req) => {
                    conn.pending.pop_front();
                    conn.is_peer |= req.is_peer_kind();
                    if self.pool_full {
                        self.state.metrics.busy.fetch_add(1, Ordering::Relaxed);
                        conn.out.push_frame(Response::Busy.encode());
                    } else {
                        run.push(req);
                        if run.len() == DISPATCH_CHUNK_MAX {
                            break;
                        }
                    }
                }
                Err(e) => {
                    // Payload decode failure: frame boundaries are
                    // sound, so answer and keep the connection.
                    conn.pending.pop_front();
                    self.state.metrics.malformed.fetch_add(1, Ordering::Relaxed);
                    self.state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    conn.out.push_frame(
                        Response::Error {
                            code: ErrorCode::Malformed,
                            message: e.to_string(),
                        }
                        .encode(),
                    );
                }
            }
        }
        if !run.is_empty() {
            conn.in_flight = true;
            self.dispatch.push((token, run));
        }
    }

    /// Submit the collected runs as worker-pool jobs: each job handles
    /// whole runs serially and pushes their replies back as one
    /// `push_batch` (one completion-queue lock, at most one eventfd
    /// signal). A run is never split, so two jobs on different workers
    /// can never reorder one connection's replies. Job size adapts — one
    /// run per job at low load, runs packed up to `DISPATCH_CHUNK_MAX`
    /// frames per job under a burst of short runs.
    ///
    /// Returns the tokens whose runs could not be enqueued: their
    /// connections were answered `Busy` once per frame, in order, and
    /// cleared `in_flight`, and the caller loops them through
    /// `process_pending` again so the rest of their backlog drains.
    fn submit_dispatch(&mut self, runs: Vec<(u64, Vec<Request>)>) -> Vec<u64> {
        let frames: usize = runs.iter().map(|(_, run)| run.len()).sum();
        let job_frames = frames
            .div_ceil(self.pool.threads().max(1))
            .clamp(1, DISPATCH_CHUNK_MAX);
        let mut retry: Vec<u64> = Vec::new();
        let mut it = runs.into_iter().peekable();
        while let Some(first) = it.next() {
            let mut n = first.1.len();
            let mut job = vec![first];
            while let Some(next) = it.next_if(|(_, run)| n + run.len() <= job_frames) {
                n += next.1.len();
                job.push(next);
            }
            let shape: Vec<(u64, usize)> = job.iter().map(|(t, run)| (*t, run.len())).collect();
            if !self.pool_full {
                let st = Arc::clone(&self.state);
                let cq = Arc::clone(&self.completions);
                let work = Box::new(move || {
                    let done = job
                        .into_iter()
                        .map(|(token, run)| (token, st.handle_run(run)))
                        .collect();
                    cq.push_batch(done);
                });
                match self.pool.try_submit(work) {
                    Ok(()) => {
                        let m = &self.state.metrics;
                        m.io_batch_dispatch_jobs.fetch_add(1, Ordering::Relaxed);
                        m.io_batch_dispatch_frames
                            .fetch_add(n as u64, Ordering::Relaxed);
                        continue;
                    }
                    Err(SubmitError::Busy) | Err(SubmitError::Closed) => {
                        self.pool_full = true;
                        // fall through: answer this job Busy below
                    }
                }
            }
            for (token, len) in shape {
                self.state
                    .metrics
                    .busy
                    .fetch_add(len as u64, Ordering::Relaxed);
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                conn.in_flight = false;
                for _ in 0..len {
                    conn.out.push_frame(Response::Busy.encode());
                }
                retry.push(token);
            }
        }
        retry
    }

    /// One deferred flush per touched connection per poll iteration: a
    /// single `writev` covers every frame queued for it this round.
    fn flush_conn(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let frames = conn.out.frames_pending();
        if frames > 0 {
            if conn.flush(now).is_err() {
                self.close_conn(token);
                return;
            }
            self.state
                .metrics
                .io_batch_flushes
                .fetch_add(1, Ordering::Relaxed);
            self.state
                .metrics
                .io_batch_flush_frames
                .fetch_add(frames as u64, Ordering::Relaxed);
        }
        self.settle(token);
    }

    /// Enter the drain: stop accepting, finish in-flight runs, flush,
    /// close. Runs once.
    fn begin_drain(&mut self) {
        self.draining = true;
        if self.accepting {
            let _ = self.poller.del(self.listener.as_raw_fd());
            self.accepting = false;
        }
        self.accept_resume = None;
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.settle(token);
        }
    }
}
