//! `repf-serve` — profiling-as-a-service over a binary wire protocol.
//!
//! A small, dependency-free TCP daemon that serves the repo's cache
//! models on demand: clients submit sparse sampling profiles
//! ([`SampleBatch`]) into named sessions, then query application or
//! per-PC miss-ratio curves at arbitrary cache sizes and full prefetch
//! plans (MDDLI delinquent-load selection + stride + distance + bypass)
//! for either their own sessions or the built-in benchmark pool.
//!
//! The crate is Linux-only: connection I/O runs on `epoll` and
//! `eventfd`, so other targets stop at a `compile_error!`.
//!
//! Layout:
//!
//! * [`proto`] — the versioned, length-prefixed frame format and every
//!   request/response type, with exact-consumption decoding.
//! * [`session`] — the LRU-evicting per-session profile store with a
//!   hard byte budget, sharded by session-name hash into independently
//!   locked slices with per-session cached StatStack fits (versioned
//!   invalidation, incremental refits).
//! * [`server`] — the daemon: a readiness-polled epoll event loop over
//!   a bounded worker-pool request queue with `Busy` shedding, a
//!   `max_conns` accept cap, per-connection timeouts, malformed input
//!   rejection that never kills the process, and an eventfd-signalled
//!   drain-then-exit shutdown control message.
//! * [`conn`] — the per-connection nonblocking state machine the event
//!   loop drives: incremental frame accumulation, buffered partial
//!   writes, idle/write deadlines.
//! * [`poll`] — thin `extern "C"` wrappers over Linux
//!   `epoll`/`eventfd` (no external crates).
//! * [`client`] — a blocking client with typed helpers for every
//!   request.
//! * [`metrics`] — the lock-free server metrics registry behind the
//!   `Stats` request.
//! * [`trace_file`] — versioned binary trace files capturing request
//!   frames for record/replay.
//! * [`replay`] — the deterministic multi-node record/replay harness:
//!   seeded trace generation, ring-partitioned replay against 1..N
//!   daemons (with optional mid-trace node drain/join churn), a direct
//!   StatStack/analyze oracle and a divergence reporter that dumps the
//!   minimal offending request prefix.
//! * [`ring`] — the seeded consistent-hash ring with virtual nodes that
//!   owns session → node placement for every party (daemons, replay,
//!   loadgen, CLI).
//! * [`cluster`] — the cluster tier: ring epochs, the peer connection
//!   pool, request forwarding, live session migration with tombstone
//!   chasing, and the losers-first membership orchestrator.

#[cfg(not(target_os = "linux"))]
compile_error!("repf-serve is Linux-only: its event loop is built on epoll and eventfd");

pub mod client;
pub mod cluster;
pub mod conn;
pub mod loadgen;
pub mod metrics;
pub mod poll;
pub mod proto;
pub mod replay;
pub mod ring;
pub mod server;
pub mod session;
pub mod tinylfu;
pub mod trace_file;

pub use client::{Client, ClientError};
pub use cluster::{
    apply_membership, ClusterState, NodeAck, RingChangeReport, RingSpec, Route, MAX_FORWARD_HOPS,
};
pub use loadgen::{
    fd_budget, generate_ops, op_session_name, preflight_fd_budget, request_for, run_load,
    LoadConfig, LoadReport, Op, OpKind, OpMix, ServerStatsDelta, ZipfGen, FD_RESERVE,
};
pub use metrics::{LatencyHisto, LogHisto, Metrics};
pub use proto::{
    ErrorCode, MachineId, ModelWire, PlanWire, ProtoError, Request, Response, SampleBatch, Target,
    PROTO_VERSION,
};
pub use ring::{Ring, DEFAULT_RING_SEED, DEFAULT_VNODES};
pub use replay::{
    generate_trace, replay_against, replay_clustered, replay_spawned, ChurnEvent, Divergence,
    GenConfig, Oracle, ReplayConfig, ReplayReport, ReplayRng, RingChange,
};
pub use server::{start, ServeConfig, ServerHandle};
pub use session::{
    SessionExport, ShardStats, ShardedSessionStore, SessionStore, StorePolicy, SubmitOutcome,
    SubmitRejected,
};
pub use tinylfu::{Doorkeeper, FreqSketch, TinyLfu};
pub use trace_file::{Trace, TraceError, TraceRecorder, TRACE_MAGIC, TRACE_VERSION};
