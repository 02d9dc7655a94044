//! The wire protocol: a versioned, length-prefixed binary framing with
//! typed request/response payloads.
//!
//! ## Frame layout
//!
//! ```text
//! [ len: u32 LE ] [ version: u8 = 1 ] [ type: u8 ] [ payload ... ]
//! ```
//!
//! `len` counts everything after itself (version + type + payload) and is
//! capped at [`MAX_FRAME_BYTES`]; oversized, truncated or garbage frames
//! are rejected with a typed [`ProtoError`], never a panic. All integers
//! are little-endian; `f64` travels as its IEEE-754 bit pattern
//! ([`f64::to_bits`]), so a miss ratio computed on the server is
//! **bit-identical** after the round trip; strings are `u16` length +
//! UTF-8; vectors are `u32` count + elements.
//!
//! Every decoder checks that the payload is *exactly* consumed — trailing
//! bytes are as malformed as missing ones.

use repf_sampling::{DanglingSample, ReuseSample, StrideSample};
use repf_statstack::ModelParts;
use repf_trace::{AccessKind, Pc};
use repf_workloads::BenchmarkId;
use std::io::{Read, Write};

/// Protocol version this build speaks (the frame's third byte).
pub const PROTO_VERSION: u8 = 1;

/// Hard cap on one frame's `len` field (16 MiB): a submit batch larger
/// than this must be split by the client; anything bigger on the wire is
/// a protocol error, not an allocation.
pub const MAX_FRAME_BYTES: u32 = 16 << 20;

/// Most sessions one [`Request::CoRun`] or [`Request::Place`] may name.
/// The composition walk is `O(sessions²)` per size, each remote session
/// may cost a model pull, and the placement search space grows
/// super-exponentially in the session count, so the server refuses
/// larger mixes with an `Unsupported` error rather than absorbing
/// unbounded work per request.
pub const MAX_CORUN_SESSIONS: usize = 16;

/// Most cache sizes one [`Request::QueryMrc`], [`Request::QueryPcMrc`]
/// or [`Request::CoRun`] may list; the server refuses longer lists with
/// an `Unsupported` error before any model is touched. Work grows with
/// the list, and so does the reply: at this cap a
/// [`MAX_CORUN_SESSIONS`]-member co-run answers in at most 5.5 MB
/// (4.5 MB of ratios plus up to 1 MiB of echoed names), inside
/// [`MAX_FRAME_BYTES`]. The event-loop tests send 20,000 sizes to
/// build up large replies; the benchmark sends at most 3.
pub const MAX_QUERY_SIZES: usize = 32_768;

/// Largest canonical search tree (`repf_statstack::tree_nodes`) one
/// [`Request::Place`] may ask for; the server refuses larger shapes
/// with an `Unsupported` error before any model is resolved. When
/// every grouping ties, nothing prunes and the search visits the whole
/// tree. The cap admits 12 sessions in 3 groups of 4 (18,378 nodes)
/// and refuses 12 sessions in 12 groups of 12 (5,034,585 nodes, 8.8 s
/// on one worker of a 2-vCPU VM). At 16 sessions only the trivial
/// shapes (one group, or groups of one) remain.
pub const MAX_PLACE_TREE_NODES: u64 = 20_000;

/// Why a frame or payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The length prefix was below the 2-byte (version + type) minimum.
    TooShort,
    /// The length prefix exceeded [`MAX_FRAME_BYTES`].
    Oversized(u32),
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown message-type byte.
    BadType(u8),
    /// Payload ended before a field, or a field was out of range.
    Malformed(&'static str),
    /// Payload had bytes left over after the last field.
    TrailingBytes(usize),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::TooShort => write!(f, "frame shorter than version+type"),
            ProtoError::Oversized(n) => write!(f, "frame of {n} bytes exceeds cap"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::BadType(t) => write!(f, "unknown message type {t:#04x}"),
            ProtoError::Malformed(what) => write!(f, "malformed payload: {what}"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Machine-readable error category carried by [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Frame or payload did not decode.
    Malformed,
    /// Named session does not exist.
    UnknownSession,
    /// Benchmark index out of range.
    UnknownBenchmark,
    /// Submitted batch disagrees with the session's line size, or its
    /// line size is 0.
    InconsistentBatch,
    /// Request understood but refused (e.g. empty size list).
    Unsupported,
    /// Server-side failure.
    Internal,
}

impl ErrorCode {
    fn to_u16(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::UnknownSession => 2,
            ErrorCode::UnknownBenchmark => 3,
            ErrorCode::InconsistentBatch => 4,
            ErrorCode::Unsupported => 5,
            ErrorCode::Internal => 6,
        }
    }

    fn from_u16(v: u16) -> Result<Self, ProtoError> {
        Ok(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownSession,
            3 => ErrorCode::UnknownBenchmark,
            4 => ErrorCode::InconsistentBatch,
            5 => ErrorCode::Unsupported,
            6 => ErrorCode::Internal,
            _ => return Err(ProtoError::Malformed("error code")),
        })
    }
}

/// What a query addresses: a client-submitted session or a built-in
/// benchmark (profiled server-side, shared through the plan cache).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Target {
    /// A named session populated by [`Request::Submit`].
    Session(String),
    /// One of the 12 built-in Table I benchmarks.
    Benchmark(BenchmarkId),
}

/// Which Table II machine a plan query analyzes for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachineId {
    /// AMD Phenom II X4.
    Amd,
    /// Intel Core i7-2600K.
    Intel,
}

/// One batch of sparse-sampler output submitted to a session. Mirrors the
/// fields of [`repf_sampling::Profile`] so a profile can be shipped
/// losslessly (possibly split over several batches).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SampleBatch {
    /// References covered by this batch (accumulates on the session).
    pub total_refs: u64,
    /// Mean sampling period the batch was gathered at.
    pub sample_period: u64,
    /// Cache-line size the watchpoints used (must match across batches).
    pub line_bytes: u64,
    /// Completed reuse samples.
    pub reuse: Vec<ReuseSample>,
    /// Never-reused samples.
    pub dangling: Vec<DanglingSample>,
    /// Completed stride samples.
    pub strides: Vec<StrideSample>,
}

impl SampleBatch {
    /// A batch carrying one whole profile.
    pub fn from_profile(p: &repf_sampling::Profile) -> Self {
        SampleBatch {
            total_refs: p.total_refs,
            sample_period: p.sample_period,
            line_bytes: p.line_bytes,
            reuse: p.reuse.clone(),
            dangling: p.dangling.clone(),
            strides: p.strides.clone(),
        }
    }
}

/// One prefetch directive on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirectiveWire {
    /// Instrumented load.
    pub pc: u32,
    /// Lookahead in bytes.
    pub distance_bytes: i64,
    /// Stride the distance was computed from.
    pub stride: i64,
    /// Non-temporal hint.
    pub nta: bool,
}

/// A prefetch plan on the wire: directives in ascending PC order plus the
/// Δ the distances were computed with.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanWire {
    /// Cycles-per-memop Δ used for the distance computation.
    pub delta: f64,
    /// Directives, sorted by PC.
    pub directives: Vec<DirectiveWire>,
}

impl PlanWire {
    /// Wire form of a library plan (directives in sorted-PC order).
    pub fn from_plan(plan: &repf_core::PrefetchPlan, delta: f64) -> Self {
        PlanWire {
            delta,
            directives: plan
                .iter_sorted()
                .map(|(pc, d)| DirectiveWire {
                    pc: pc.0,
                    distance_bytes: d.distance_bytes,
                    stride: d.stride,
                    nta: d.nta,
                })
                .collect(),
        }
    }

    /// Rebuild the library plan this wire form describes.
    pub fn to_plan(&self) -> repf_core::PrefetchPlan {
        let mut plan = repf_core::PrefetchPlan::empty();
        for d in &self.directives {
            plan.insert(
                Pc(d.pc),
                repf_core::PrefetchDirective {
                    distance_bytes: d.distance_bytes,
                    nta: d.nta,
                    stride: d.stride,
                },
            );
        }
        plan
    }
}

/// A fitted StatStack model on the wire: the serialization of
/// [`repf_statstack::ModelParts`], shipped between cluster nodes so a
/// session profiled on its owner is never refit elsewhere. Canonical
/// ordering (sorted distances, PC-sorted per-PC entries) means the wire
/// bytes are a pure function of the model and a round trip reassembles a
/// bit-identical fit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelWire {
    /// Line size the underlying profile used.
    pub line_bytes: u64,
    /// Dangling (never-reused) sample count.
    pub dangling: u64,
    /// All completed distances, sorted ascending.
    pub sorted: Vec<u64>,
    /// Per-PC `(pc, dangling, sorted distances)`, sorted by PC.
    pub per_pc: Vec<(u32, u64, Vec<u64>)>,
}

impl ModelWire {
    /// Wire form of borrowed model parts (copies every distance vector;
    /// the peer paths move parts in with [`From<ModelParts>`] instead).
    pub fn from_parts(parts: &ModelParts) -> Self {
        parts.clone().into()
    }

    /// The model parts this wire form describes, copied (the peer paths
    /// move them out with [`into_parts`](Self::into_parts) instead).
    pub fn to_parts(&self) -> ModelParts {
        self.clone().into_parts()
    }

    /// Rebuild the model parts this wire form describes, moving every
    /// distance vector out rather than copying it.
    pub fn into_parts(self) -> ModelParts {
        ModelParts {
            line_bytes: self.line_bytes,
            sorted: self.sorted,
            dangling: self.dangling,
            per_pc: self
                .per_pc
                .into_iter()
                .map(|(pc, dangling, distances)| (Pc(pc), distances, dangling))
                .collect(),
        }
    }
}

impl From<ModelParts> for ModelWire {
    /// Wire form of disassembled model parts, moving every distance
    /// vector in rather than copying it.
    fn from(parts: ModelParts) -> Self {
        ModelWire {
            line_bytes: parts.line_bytes,
            dangling: parts.dangling,
            sorted: parts.sorted,
            per_pc: parts
                .per_pc
                .into_iter()
                .map(|(pc, distances, dangling)| (pc.0, dangling, distances))
                .collect(),
        }
    }
}

/// Metrics labels of the request types, indexed by
/// [`Request::kind_index`]; the `Stats` reply lists `requests.<kind>` in
/// this order.
pub const REQUEST_KINDS: [&str; 15] = [
    "ping",
    "submit",
    "mrc",
    "pc_mrc",
    "plan",
    "co_run",
    "place",
    "stats",
    "shutdown",
    "ring_get",
    "ring_set",
    "peer_forward",
    "session_import",
    "model_pull",
    "model_pull_current",
];

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Append a sample batch to the named session (created on first use).
    Submit {
        /// Session name (client-chosen key).
        session: String,
        /// The samples.
        batch: SampleBatch,
    },
    /// Application miss ratios at the given cache sizes (bytes).
    QueryMrc {
        /// Session or benchmark to model.
        target: Target,
        /// Cache sizes in bytes.
        sizes_bytes: Vec<u64>,
    },
    /// Per-PC miss ratios at the given cache sizes (bytes).
    QueryPcMrc {
        /// Session or benchmark to model.
        target: Target,
        /// The load instruction.
        pc: u32,
        /// Cache sizes in bytes.
        sizes_bytes: Vec<u64>,
    },
    /// Full prefetch plan (MDDLI + stride + distance + bypass).
    QueryPlan {
        /// Session or benchmark to analyze.
        target: Target,
        /// Machine whose hierarchy/latencies the analysis targets.
        machine: MachineId,
        /// Δ (cycles per memop) for session targets; benchmark targets
        /// use the server's measured Δ and ignore this.
        delta: f64,
    },
    /// Server metrics snapshot.
    Stats,
    /// Control message: stop accepting, drain in-flight work, exit.
    Shutdown,
    /// Cluster admin: report the node's current ring membership.
    RingGet,
    /// Cluster admin: adopt a new consistent-hash ring. The node
    /// synchronously migrates every session it no longer owns to the new
    /// owner before acknowledging; stale epochs are rejected (the ack
    /// carries the node's current epoch either way).
    RingSet {
        /// Monotone configuration epoch; must exceed the node's current.
        epoch: u64,
        /// Ring seed (all parties must agree).
        seed: u64,
        /// Virtual nodes per member.
        vnodes: u32,
        /// Member identities (advertised addresses).
        nodes: Vec<String>,
    },
    /// Peer message: handle the wrapped request on behalf of the sender.
    /// `frame` is an encoded [`Request`] body (version + type + payload,
    /// no length prefix). The receiver answers it *locally* — except
    /// when the session has a tombstone pointing at a newer owner and
    /// `hops` has budget left — so misdirected requests can never loop.
    PeerForward {
        /// Forwarding hops already taken (tombstone chains bound this).
        hops: u8,
        /// The wrapped request frame body.
        frame: Vec<u8>,
    },
    /// Peer message: install a migrated session — full profile, version
    /// counter, and the cached model fit if the exporter had one —
    /// replacing any local entry and clearing any tombstone.
    SessionImport {
        /// Session name.
        session: String,
        /// Version counter carried over from the exporting node.
        version: u64,
        /// The session's full accumulated profile.
        batch: SampleBatch,
        /// The exporter's cached fit for `version`, if it had one.
        model: Option<ModelWire>,
    },
    /// Peer message: fetch the cached model for `(session, version)` if
    /// this node has exactly that fit. Never triggers a fit.
    ModelPull {
        /// Session name.
        session: String,
        /// Exact version the fit must be for.
        version: u64,
    },
    /// Peer message: fetch the *current* fitted model of a live session,
    /// whatever its version — the co-run resolution path. Unlike
    /// [`ModelPull`](Request::ModelPull) this may trigger a fit on the
    /// owner (the same fit a local query would). The caller states the
    /// version it already holds and that copy's sample counts. The owner
    /// answers with a [`ModelEntry`](Response::ModelEntry) carrying the
    /// version alone when the session is still at that version, with a
    /// [`ModelTail`](Response::ModelTail) of the samples submitted since
    /// when it can name them, and with a `ModelEntry` carrying the whole
    /// model otherwise.
    ModelPullCurrent {
        /// Session name.
        session: String,
        /// Version the caller has cached (`u64::MAX` = nothing cached).
        cached_version: u64,
        /// The cached copy's `(completed, dangling)` sample counts. A
        /// trailing field, present only with a quoted version: a pull
        /// with no cached copy encodes to the bytes it had before the
        /// field existed.
        cached_samples: Option<(u64, u64)>,
    },
    /// Predicted shared-cache behaviour of the named sessions co-running
    /// on one cache: per-session miss ratios plus a mix-throughput
    /// estimate at each size. Sessions may live on other ring nodes; the
    /// receiving node resolves them via
    /// [`ModelPullCurrent`](Request::ModelPullCurrent).
    CoRun {
        /// Co-running sessions (order defines the reply order; no
        /// duplicates; at most `MAX_CORUN_SESSIONS` on the server).
        sessions: Vec<String>,
        /// Shared-cache sizes in bytes.
        sizes_bytes: Vec<u64>,
        /// Optional per-session interleaving intensities (one per
        /// session when non-empty). Empty means "infer from sample
        /// counts" — and encodes to the PR 9 wire bytes exactly, so
        /// recorded traces and digests predate this field unharmed.
        intensities: Vec<f64>,
    },
    /// Search for the partition of the named sessions into cache-sharing
    /// groups that minimizes the predicted aggregate shared miss ratio
    /// at one cache size (the `repf_statstack::placement` engine).
    /// Sessions may live on other ring nodes; the receiving node
    /// resolves them via [`ModelPullCurrent`](Request::ModelPullCurrent),
    /// so the reply is byte-identical from every member.
    Place {
        /// Sessions to place (no duplicates; at most
        /// `MAX_CORUN_SESSIONS` on the server).
        sessions: Vec<String>,
        /// Number of cache-sharing groups available.
        groups: u32,
        /// Sessions per group at most.
        capacity: u32,
        /// The shared-cache size each group competes for, in bytes.
        size_bytes: u64,
        /// Optional per-session intensities, as in
        /// [`CoRun`](Request::CoRun) (empty = infer from sample counts).
        intensities: Vec<f64>,
    },
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Batch accepted.
    Accepted {
        /// Bytes the session store holds after the submit.
        store_bytes: u64,
        /// Sessions evicted to make room.
        evicted: u32,
    },
    /// Application miss ratios, one per requested size.
    Mrc {
        /// Miss ratios (bit-exact f64s).
        ratios: Vec<f64>,
    },
    /// Per-PC miss ratios; `None` when the PC has no samples.
    PcMrc {
        /// Ratios, or `None` for an unsampled PC.
        ratios: Option<Vec<f64>>,
    },
    /// A prefetch plan.
    Plan(PlanWire),
    /// Metrics snapshot: `(name, value)` pairs in registry order.
    Stats(Vec<(String, f64)>),
    /// Acknowledges [`Request::Shutdown`]; the server drains and exits.
    ShuttingDown,
    /// Reply to [`Request::RingGet`]: the node's current ring.
    RingInfo {
        /// Current configuration epoch (0 = never clustered).
        epoch: u64,
        /// Ring seed.
        seed: u64,
        /// Virtual nodes per member.
        vnodes: u32,
        /// Member identities.
        nodes: Vec<String>,
        /// This node's advertised identity.
        self_addr: String,
    },
    /// Reply to [`Request::RingSet`]: the epoch now in force and how
    /// many sessions were migrated away while adopting it.
    RingAck {
        /// The node's epoch after the request (unchanged if stale).
        epoch: u64,
        /// Sessions exported to their new owners.
        migrated: u64,
    },
    /// Reply to [`Request::SessionImport`].
    Imported,
    /// Reply to [`Request::ModelPull`] /
    /// [`Request::ModelPullCurrent`]: the fit, if available.
    ModelEntry {
        /// The version `model` is for. Exact-version pulls echo the
        /// requested version; current-model pulls report the version the
        /// model covers, read under the lock the fit was taken under, or
        /// the caller's version when that is still current.
        version: u64,
        /// The fit — `None` on an exact-version cache miss, or when a
        /// current-model pull matched the caller's `cached_version`.
        model: Option<ModelWire>,
    },
    /// Reply to a [`Request::ModelPullCurrent`] that carried
    /// `cached_samples`: the samples the caller's copy lacks. A profile
    /// only grows, so a copy of `c` completed and `d` dangling samples
    /// lacks exactly the completed samples from rank `c` on and the
    /// dangling ones from rank `d` on; the caller extends its copy by
    /// them (`StatStackModel::extend`) and holds the owner's model at
    /// `version`, bit for bit. A completed sample costs 12 bytes here
    /// against 16 in a [`ModelWire`], and the dangling samples cost 12
    /// bytes per PC against 16, so a tail never outgrows the whole
    /// model's reply.
    ModelTail {
        /// The session version the copy reaches once extended.
        version: u64,
        /// Completed samples as `(end pc, reuse distance)`, in
        /// submission order.
        completed: Vec<(u32, u64)>,
        /// Dangling samples as `(pc, count)`, sorted by PC.
        dangling: Vec<(u32, u64)>,
    },
    /// Reply to [`Request::CoRun`]: per-session predicted shared-cache
    /// miss ratios (request order) and the mix-throughput estimate, one
    /// entry per requested size. All f64s are bit-exact on the wire.
    CoRun {
        /// `(session, ratios)` per co-running session, in request order.
        per_session: Vec<(String, Vec<f64>)>,
        /// Weighted-speedup-style throughput estimate per size.
        throughput: Vec<f64>,
    },
    /// Reply to [`Request::Place`]: the searched-best assignment.
    /// Everything here — the counters included — is a deterministic
    /// function of the request and the session models, so replay
    /// digests cover the whole reply.
    Placement {
        /// Non-empty groups in canonical order (ordered by their
        /// earliest-named member; members in request-name order).
        groups: Vec<Vec<String>>,
        /// Σ over sessions of the predicted shared miss ratio
        /// (bit-exact f64) — the minimized objective.
        total_miss_ratio: f64,
        /// Σ over groups of the mix-throughput estimate.
        throughput: f64,
        /// Search-tree nodes the branch-and-bound visited.
        nodes_explored: u64,
        /// Branches cut by the admissible bound.
        pruned: u64,
    },
    /// The bounded request queue is full — retry later.
    Busy,
    /// The request failed.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// --- message type bytes ---
const T_PING: u8 = 0x01;
const T_SUBMIT: u8 = 0x02;
const T_QUERY_MRC: u8 = 0x03;
const T_QUERY_PC_MRC: u8 = 0x04;
const T_QUERY_PLAN: u8 = 0x05;
const T_STATS: u8 = 0x06;
const T_SHUTDOWN: u8 = 0x07;
const T_CO_RUN: u8 = 0x08;
const T_PLACE: u8 = 0x09;
const T_RING_GET: u8 = 0x10;
const T_RING_SET: u8 = 0x11;
const T_PEER_FORWARD: u8 = 0x12;
const T_SESSION_IMPORT: u8 = 0x13;
const T_MODEL_PULL: u8 = 0x14;
const T_MODEL_PULL_CURRENT: u8 = 0x15;
const T_PONG: u8 = 0x81;
const T_ACCEPTED: u8 = 0x82;
const T_MRC: u8 = 0x83;
const T_PC_MRC: u8 = 0x84;
const T_PLAN: u8 = 0x85;
const T_STATS_REPLY: u8 = 0x86;
const T_SHUTTING_DOWN: u8 = 0x87;
const T_CO_RUN_REPLY: u8 = 0x88;
const T_PLACE_REPLY: u8 = 0x89;
const T_RING_INFO: u8 = 0x90;
const T_RING_ACK: u8 = 0x91;
const T_IMPORTED: u8 = 0x92;
const T_MODEL_ENTRY: u8 = 0x93;
const T_MODEL_TAIL: u8 = 0x94;
const T_BUSY: u8 = 0xE0;
const T_ERROR: u8 = 0xE1;

// --- encoding primitives ---

struct Enc(Vec<u8>);

impl Enc {
    /// A frame under construction: the 4-byte length prefix is reserved
    /// up front and filled in by [`into_frame`](Self::into_frame), so the
    /// body is written once, straight into the buffer that goes out.
    fn frame() -> Self {
        Enc(vec![0; 4])
    }

    /// Fill in the length prefix and hand over the finished frame.
    fn into_frame(mut self) -> Vec<u8> {
        let len = (self.0.len() - 4) as u32;
        self.0[..4].copy_from_slice(&len.to_le_bytes());
        self.0
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn string(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize);
        self.u16(s.len() as u16);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn kind(&mut self, k: AccessKind) {
        self.u8(match k {
            AccessKind::Load => 0,
            AccessKind::Store => 1,
        });
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtoError::Malformed("field past end of payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, ProtoError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn string(&mut self) -> Result<String, ProtoError> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::Malformed("non-utf8 string"))
    }
    fn kind(&mut self) -> Result<AccessKind, ProtoError> {
        match self.u8()? {
            0 => Ok(AccessKind::Load),
            1 => Ok(AccessKind::Store),
            _ => Err(ProtoError::Malformed("access kind")),
        }
    }

    /// Element count for a vector of at-least-`min_elem_bytes` elements.
    /// Bounding by the remaining payload keeps a hostile count from
    /// pre-allocating gigabytes.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, ProtoError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes) > remaining {
            return Err(ProtoError::Malformed("count larger than payload"));
        }
        Ok(n)
    }

    /// True when payload bytes remain — how optional trailing fields
    /// (e.g. co-run intensities) detect their presence.
    fn has_remaining(&self) -> bool {
        self.pos < self.buf.len()
    }

    fn finish(self) -> Result<(), ProtoError> {
        let left = self.buf.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes(left))
        }
    }
}

fn enc_target(e: &mut Enc, t: &Target) {
    match t {
        Target::Session(name) => {
            e.u8(0);
            e.string(name);
        }
        Target::Benchmark(id) => {
            e.u8(1);
            let ix = BenchmarkId::all().iter().position(|b| b == id).unwrap();
            e.u8(ix as u8);
        }
    }
}

fn dec_target(d: &mut Dec) -> Result<Target, ProtoError> {
    match d.u8()? {
        0 => Ok(Target::Session(d.string()?)),
        1 => {
            let ix = d.u8()? as usize;
            BenchmarkId::all()
                .get(ix)
                .copied()
                .map(Target::Benchmark)
                .ok_or(ProtoError::Malformed("benchmark index"))
        }
        _ => Err(ProtoError::Malformed("target tag")),
    }
}

fn enc_batch(e: &mut Enc, b: &SampleBatch) {
    e.u64(b.total_refs);
    e.u64(b.sample_period);
    e.u64(b.line_bytes);
    e.u32(b.reuse.len() as u32);
    for r in &b.reuse {
        e.u32(r.start_pc.0);
        e.kind(r.start_kind);
        e.u32(r.end_pc.0);
        e.kind(r.end_kind);
        e.u64(r.distance);
        e.u64(r.start_index);
    }
    e.u32(b.dangling.len() as u32);
    for s in &b.dangling {
        e.u32(s.pc.0);
        e.kind(s.kind);
        e.u64(s.start_index);
    }
    e.u32(b.strides.len() as u32);
    for s in &b.strides {
        e.u32(s.pc.0);
        e.kind(s.kind);
        e.i64(s.stride);
        e.u64(s.recurrence);
    }
}

fn dec_batch(d: &mut Dec) -> Result<SampleBatch, ProtoError> {
    let total_refs = d.u64()?;
    let sample_period = d.u64()?;
    let line_bytes = d.u64()?;
    let n = d.count(26)?;
    let mut reuse = Vec::with_capacity(n);
    for _ in 0..n {
        reuse.push(ReuseSample {
            start_pc: Pc(d.u32()?),
            start_kind: d.kind()?,
            end_pc: Pc(d.u32()?),
            end_kind: d.kind()?,
            distance: d.u64()?,
            start_index: d.u64()?,
        });
    }
    let n = d.count(13)?;
    let mut dangling = Vec::with_capacity(n);
    for _ in 0..n {
        dangling.push(DanglingSample {
            pc: Pc(d.u32()?),
            kind: d.kind()?,
            start_index: d.u64()?,
        });
    }
    let n = d.count(21)?;
    let mut strides = Vec::with_capacity(n);
    for _ in 0..n {
        strides.push(StrideSample {
            pc: Pc(d.u32()?),
            kind: d.kind()?,
            stride: d.i64()?,
            recurrence: d.u64()?,
        });
    }
    Ok(SampleBatch {
        total_refs,
        sample_period,
        line_bytes,
        reuse,
        dangling,
        strides,
    })
}

fn enc_nodes(e: &mut Enc, nodes: &[String]) {
    e.u32(nodes.len() as u32);
    for n in nodes {
        e.string(n);
    }
}

fn dec_nodes(d: &mut Dec) -> Result<Vec<String>, ProtoError> {
    let n = d.count(2)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(d.string()?);
    }
    Ok(v)
}

fn enc_bytes(e: &mut Enc, bytes: &[u8]) {
    e.u32(bytes.len() as u32);
    e.0.extend_from_slice(bytes);
}

fn dec_bytes(d: &mut Dec) -> Result<Vec<u8>, ProtoError> {
    let n = d.count(1)?;
    Ok(d.take(n)?.to_vec())
}

fn enc_u64s(e: &mut Enc, v: &[u64]) {
    e.u32(v.len() as u32);
    for &x in v {
        e.u64(x);
    }
}

fn dec_u64s(d: &mut Dec) -> Result<Vec<u64>, ProtoError> {
    let n = d.count(8)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(d.u64()?);
    }
    Ok(v)
}

fn enc_model(e: &mut Enc, m: &ModelWire) {
    e.u64(m.line_bytes);
    e.u64(m.dangling);
    enc_u64s(e, &m.sorted);
    e.u32(m.per_pc.len() as u32);
    for (pc, dangling, distances) in &m.per_pc {
        e.u32(*pc);
        e.u64(*dangling);
        enc_u64s(e, distances);
    }
}

fn dec_model(d: &mut Dec) -> Result<ModelWire, ProtoError> {
    let line_bytes = d.u64()?;
    if line_bytes == 0 {
        // No session fits at line size 0, and every byte-sized query of
        // such a model would divide by it.
        return Err(ProtoError::Malformed("model line_bytes is 0"));
    }
    let dangling = d.u64()?;
    let sorted = dec_u64s(d)?;
    let n = d.count(16)?; // pc + dangling + count
    let mut per_pc = Vec::with_capacity(n);
    for _ in 0..n {
        let pc = d.u32()?;
        let pc_dangling = d.u64()?;
        per_pc.push((pc, pc_dangling, dec_u64s(d)?));
    }
    Ok(ModelWire {
        line_bytes,
        dangling,
        sorted,
        per_pc,
    })
}

fn enc_pairs(e: &mut Enc, v: &[(u32, u64)]) {
    e.u32(v.len() as u32);
    for &(pc, x) in v {
        e.u32(pc);
        e.u64(x);
    }
}

fn dec_pairs(d: &mut Dec) -> Result<Vec<(u32, u64)>, ProtoError> {
    let n = d.count(12)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push((d.u32()?, d.u64()?));
    }
    Ok(v)
}

fn enc_f64s(e: &mut Enc, v: &[f64]) {
    e.u32(v.len() as u32);
    for &x in v {
        e.f64(x);
    }
}

fn dec_f64s(d: &mut Dec) -> Result<Vec<f64>, ProtoError> {
    let n = d.count(8)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(d.f64()?);
    }
    Ok(v)
}

fn enc_sizes(e: &mut Enc, sizes: &[u64]) {
    e.u32(sizes.len() as u32);
    for &s in sizes {
        e.u64(s);
    }
}

fn dec_sizes(d: &mut Dec) -> Result<Vec<u64>, ProtoError> {
    let n = d.count(8)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(d.u64()?);
    }
    Ok(v)
}

impl Request {
    /// Serialize into a full frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::frame();
        e.u8(PROTO_VERSION);
        match self {
            Request::Ping => e.u8(T_PING),
            Request::Submit { session, batch } => {
                e.u8(T_SUBMIT);
                e.string(session);
                enc_batch(&mut e, batch);
            }
            Request::QueryMrc {
                target,
                sizes_bytes,
            } => {
                e.u8(T_QUERY_MRC);
                enc_target(&mut e, target);
                enc_sizes(&mut e, sizes_bytes);
            }
            Request::QueryPcMrc {
                target,
                pc,
                sizes_bytes,
            } => {
                e.u8(T_QUERY_PC_MRC);
                enc_target(&mut e, target);
                e.u32(*pc);
                enc_sizes(&mut e, sizes_bytes);
            }
            Request::QueryPlan {
                target,
                machine,
                delta,
            } => {
                e.u8(T_QUERY_PLAN);
                enc_target(&mut e, target);
                e.u8(match machine {
                    MachineId::Amd => 0,
                    MachineId::Intel => 1,
                });
                e.f64(*delta);
            }
            Request::Stats => e.u8(T_STATS),
            Request::Shutdown => e.u8(T_SHUTDOWN),
            Request::RingGet => e.u8(T_RING_GET),
            Request::RingSet {
                epoch,
                seed,
                vnodes,
                nodes,
            } => {
                e.u8(T_RING_SET);
                e.u64(*epoch);
                e.u64(*seed);
                e.u32(*vnodes);
                enc_nodes(&mut e, nodes);
            }
            Request::PeerForward { hops, frame } => {
                e.u8(T_PEER_FORWARD);
                e.u8(*hops);
                enc_bytes(&mut e, frame);
            }
            Request::SessionImport {
                session,
                version,
                batch,
                model,
            } => {
                e.u8(T_SESSION_IMPORT);
                e.string(session);
                e.u64(*version);
                enc_batch(&mut e, batch);
                match model {
                    None => e.u8(0),
                    Some(m) => {
                        e.u8(1);
                        enc_model(&mut e, m);
                    }
                }
            }
            Request::ModelPull { session, version } => {
                e.u8(T_MODEL_PULL);
                e.string(session);
                e.u64(*version);
            }
            Request::ModelPullCurrent {
                session,
                cached_version,
                cached_samples,
            } => {
                e.u8(T_MODEL_PULL_CURRENT);
                e.string(session);
                e.u64(*cached_version);
                // Trailing optional field, omitted when absent.
                if let Some((completed, dangling)) = cached_samples {
                    e.u64(*completed);
                    e.u64(*dangling);
                }
            }
            Request::CoRun {
                sessions,
                sizes_bytes,
                intensities,
            } => {
                e.u8(T_CO_RUN);
                enc_nodes(&mut e, sessions);
                enc_sizes(&mut e, sizes_bytes);
                // Trailing optional field: omitted entirely when empty,
                // so default-intensity requests encode to the PR 9
                // bytes and recorded traces stay loadable bit-for-bit.
                if !intensities.is_empty() {
                    enc_f64s(&mut e, intensities);
                }
            }
            Request::Place {
                sessions,
                groups,
                capacity,
                size_bytes,
                intensities,
            } => {
                e.u8(T_PLACE);
                enc_nodes(&mut e, sessions);
                e.u32(*groups);
                e.u32(*capacity);
                e.u64(*size_bytes);
                enc_f64s(&mut e, intensities);
            }
        }
        e.into_frame()
    }

    /// Decode a frame body (version + type + payload, no length prefix).
    pub fn decode(body: &[u8]) -> Result<Request, ProtoError> {
        let mut d = Dec::new(body);
        check_version(&mut d)?;
        let t = d.u8()?;
        let req = match t {
            T_PING => Request::Ping,
            T_SUBMIT => Request::Submit {
                session: d.string()?,
                batch: dec_batch(&mut d)?,
            },
            T_QUERY_MRC => Request::QueryMrc {
                target: dec_target(&mut d)?,
                sizes_bytes: dec_sizes(&mut d)?,
            },
            T_QUERY_PC_MRC => Request::QueryPcMrc {
                target: dec_target(&mut d)?,
                pc: d.u32()?,
                sizes_bytes: dec_sizes(&mut d)?,
            },
            T_QUERY_PLAN => Request::QueryPlan {
                target: dec_target(&mut d)?,
                machine: match d.u8()? {
                    0 => MachineId::Amd,
                    1 => MachineId::Intel,
                    _ => return Err(ProtoError::Malformed("machine id")),
                },
                delta: d.f64()?,
            },
            T_STATS => Request::Stats,
            T_SHUTDOWN => Request::Shutdown,
            T_RING_GET => Request::RingGet,
            T_RING_SET => Request::RingSet {
                epoch: d.u64()?,
                seed: d.u64()?,
                vnodes: d.u32()?,
                nodes: dec_nodes(&mut d)?,
            },
            T_PEER_FORWARD => Request::PeerForward {
                hops: d.u8()?,
                frame: dec_bytes(&mut d)?,
            },
            T_SESSION_IMPORT => Request::SessionImport {
                session: d.string()?,
                version: d.u64()?,
                batch: dec_batch(&mut d)?,
                model: match d.u8()? {
                    0 => None,
                    1 => Some(dec_model(&mut d)?),
                    _ => return Err(ProtoError::Malformed("option tag")),
                },
            },
            T_MODEL_PULL => Request::ModelPull {
                session: d.string()?,
                version: d.u64()?,
            },
            T_MODEL_PULL_CURRENT => Request::ModelPullCurrent {
                session: d.string()?,
                cached_version: d.u64()?,
                cached_samples: if d.has_remaining() {
                    Some((d.u64()?, d.u64()?))
                } else {
                    None
                },
            },
            T_CO_RUN => {
                let sessions = dec_nodes(&mut d)?;
                let sizes_bytes = dec_sizes(&mut d)?;
                let intensities = if d.has_remaining() {
                    dec_f64s(&mut d)?
                } else {
                    Vec::new()
                };
                Request::CoRun {
                    sessions,
                    sizes_bytes,
                    intensities,
                }
            }
            T_PLACE => Request::Place {
                sessions: dec_nodes(&mut d)?,
                groups: d.u32()?,
                capacity: d.u32()?,
                size_bytes: d.u64()?,
                intensities: dec_f64s(&mut d)?,
            },
            other => return Err(ProtoError::BadType(other)),
        };
        d.finish()?;
        Ok(req)
    }

    /// This request type's slot in [`REQUEST_KINDS`] (and in the
    /// metrics counter array).
    pub fn kind_index(&self) -> usize {
        match self {
            Request::Ping => 0,
            Request::Submit { .. } => 1,
            Request::QueryMrc { .. } => 2,
            Request::QueryPcMrc { .. } => 3,
            Request::QueryPlan { .. } => 4,
            Request::CoRun { .. } => 5,
            Request::Place { .. } => 6,
            Request::Stats => 7,
            Request::Shutdown => 8,
            Request::RingGet => 9,
            Request::RingSet { .. } => 10,
            Request::PeerForward { .. } => 11,
            Request::SessionImport { .. } => 12,
            Request::ModelPull { .. } => 13,
            Request::ModelPullCurrent { .. } => 14,
        }
    }

    /// The metrics label for this request type.
    pub fn kind_name(&self) -> &'static str {
        REQUEST_KINDS[self.kind_index()]
    }

    /// True for the node-to-node / cluster-admin message kinds: a
    /// connection that sends one is a peer (or the ring CLI), not a
    /// latency-sensitive client, and is exempted from idle eviction.
    pub fn is_peer_kind(&self) -> bool {
        matches!(
            self,
            Request::RingGet
                | Request::RingSet { .. }
                | Request::PeerForward { .. }
                | Request::SessionImport { .. }
                | Request::ModelPull { .. }
                | Request::ModelPullCurrent { .. }
        )
    }
}

impl Response {
    /// [`encode`](Self::encode) for the wire: a reply whose frame would
    /// exceed [`MAX_FRAME_BYTES`], which every reader refuses, goes out
    /// as an `Unsupported` error naming its size instead.
    pub fn encode_reply(&self) -> Vec<u8> {
        let frame = self.encode();
        let len = frame.len() - 4;
        if len <= MAX_FRAME_BYTES as usize {
            return frame;
        }
        Response::Error {
            code: ErrorCode::Unsupported,
            message: format!("reply of {len} bytes exceeds the frame cap of {MAX_FRAME_BYTES}"),
        }
        .encode()
    }

    /// Serialize into a full frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::frame();
        e.u8(PROTO_VERSION);
        match self {
            Response::Pong => e.u8(T_PONG),
            Response::Accepted {
                store_bytes,
                evicted,
            } => {
                e.u8(T_ACCEPTED);
                e.u64(*store_bytes);
                e.u32(*evicted);
            }
            Response::Mrc { ratios } => {
                e.u8(T_MRC);
                e.u32(ratios.len() as u32);
                for &r in ratios {
                    e.f64(r);
                }
            }
            Response::PcMrc { ratios } => {
                e.u8(T_PC_MRC);
                match ratios {
                    None => e.u8(0),
                    Some(rs) => {
                        e.u8(1);
                        e.u32(rs.len() as u32);
                        for &r in rs {
                            e.f64(r);
                        }
                    }
                }
            }
            Response::Plan(p) => {
                e.u8(T_PLAN);
                e.f64(p.delta);
                e.u32(p.directives.len() as u32);
                for d in &p.directives {
                    e.u32(d.pc);
                    e.i64(d.distance_bytes);
                    e.i64(d.stride);
                    e.u8(d.nta as u8);
                }
            }
            Response::Stats(pairs) => {
                e.u8(T_STATS_REPLY);
                e.u32(pairs.len() as u32);
                for (k, v) in pairs {
                    e.string(k);
                    e.f64(*v);
                }
            }
            Response::ShuttingDown => e.u8(T_SHUTTING_DOWN),
            Response::RingInfo {
                epoch,
                seed,
                vnodes,
                nodes,
                self_addr,
            } => {
                e.u8(T_RING_INFO);
                e.u64(*epoch);
                e.u64(*seed);
                e.u32(*vnodes);
                enc_nodes(&mut e, nodes);
                e.string(self_addr);
            }
            Response::RingAck { epoch, migrated } => {
                e.u8(T_RING_ACK);
                e.u64(*epoch);
                e.u64(*migrated);
            }
            Response::Imported => e.u8(T_IMPORTED),
            Response::ModelEntry { version, model } => {
                e.u8(T_MODEL_ENTRY);
                e.u64(*version);
                match model {
                    None => e.u8(0),
                    Some(m) => {
                        e.u8(1);
                        enc_model(&mut e, m);
                    }
                }
            }
            Response::ModelTail {
                version,
                completed,
                dangling,
            } => {
                e.u8(T_MODEL_TAIL);
                e.u64(*version);
                enc_pairs(&mut e, completed);
                enc_pairs(&mut e, dangling);
            }
            Response::CoRun {
                per_session,
                throughput,
            } => {
                e.u8(T_CO_RUN_REPLY);
                e.u32(per_session.len() as u32);
                for (name, ratios) in per_session {
                    e.string(name);
                    e.u32(ratios.len() as u32);
                    for &r in ratios {
                        e.f64(r);
                    }
                }
                e.u32(throughput.len() as u32);
                for &t in throughput {
                    e.f64(t);
                }
            }
            Response::Placement {
                groups,
                total_miss_ratio,
                throughput,
                nodes_explored,
                pruned,
            } => {
                e.u8(T_PLACE_REPLY);
                e.u32(groups.len() as u32);
                for g in groups {
                    enc_nodes(&mut e, g);
                }
                e.f64(*total_miss_ratio);
                e.f64(*throughput);
                e.u64(*nodes_explored);
                e.u64(*pruned);
            }
            Response::Busy => e.u8(T_BUSY),
            Response::Error { code, message } => {
                e.u8(T_ERROR);
                e.u16(code.to_u16());
                e.string(message);
            }
        }
        e.into_frame()
    }

    /// Decode a frame body (version + type + payload, no length prefix).
    pub fn decode(body: &[u8]) -> Result<Response, ProtoError> {
        let mut d = Dec::new(body);
        check_version(&mut d)?;
        let t = d.u8()?;
        let resp = match t {
            T_PONG => Response::Pong,
            T_ACCEPTED => Response::Accepted {
                store_bytes: d.u64()?,
                evicted: d.u32()?,
            },
            T_MRC => {
                let n = d.count(8)?;
                let mut ratios = Vec::with_capacity(n);
                for _ in 0..n {
                    ratios.push(d.f64()?);
                }
                Response::Mrc { ratios }
            }
            T_PC_MRC => {
                let present = d.u8()?;
                let ratios = match present {
                    0 => None,
                    1 => {
                        let n = d.count(8)?;
                        let mut rs = Vec::with_capacity(n);
                        for _ in 0..n {
                            rs.push(d.f64()?);
                        }
                        Some(rs)
                    }
                    _ => return Err(ProtoError::Malformed("option tag")),
                };
                Response::PcMrc { ratios }
            }
            T_PLAN => {
                let delta = d.f64()?;
                let n = d.count(21)?;
                let mut directives = Vec::with_capacity(n);
                for _ in 0..n {
                    directives.push(DirectiveWire {
                        pc: d.u32()?,
                        distance_bytes: d.i64()?,
                        stride: d.i64()?,
                        nta: match d.u8()? {
                            0 => false,
                            1 => true,
                            _ => return Err(ProtoError::Malformed("nta flag")),
                        },
                    });
                }
                Response::Plan(PlanWire { delta, directives })
            }
            T_STATS_REPLY => {
                let n = d.count(10)?;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = d.string()?;
                    let v = d.f64()?;
                    pairs.push((k, v));
                }
                Response::Stats(pairs)
            }
            T_SHUTTING_DOWN => Response::ShuttingDown,
            T_RING_INFO => Response::RingInfo {
                epoch: d.u64()?,
                seed: d.u64()?,
                vnodes: d.u32()?,
                nodes: dec_nodes(&mut d)?,
                self_addr: d.string()?,
            },
            T_RING_ACK => Response::RingAck {
                epoch: d.u64()?,
                migrated: d.u64()?,
            },
            T_IMPORTED => Response::Imported,
            T_MODEL_ENTRY => Response::ModelEntry {
                version: d.u64()?,
                model: match d.u8()? {
                    0 => None,
                    1 => Some(dec_model(&mut d)?),
                    _ => return Err(ProtoError::Malformed("option tag")),
                },
            },
            T_MODEL_TAIL => Response::ModelTail {
                version: d.u64()?,
                completed: dec_pairs(&mut d)?,
                dangling: dec_pairs(&mut d)?,
            },
            T_CO_RUN_REPLY => {
                let n = d.count(6)?; // string len + ratio count
                let mut per_session = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = d.string()?;
                    let k = d.count(8)?;
                    let mut ratios = Vec::with_capacity(k);
                    for _ in 0..k {
                        ratios.push(d.f64()?);
                    }
                    per_session.push((name, ratios));
                }
                let k = d.count(8)?;
                let mut throughput = Vec::with_capacity(k);
                for _ in 0..k {
                    throughput.push(d.f64()?);
                }
                Response::CoRun {
                    per_session,
                    throughput,
                }
            }
            T_PLACE_REPLY => {
                let n = d.count(4)?; // at least a member count per group
                let mut groups = Vec::with_capacity(n);
                for _ in 0..n {
                    groups.push(dec_nodes(&mut d)?);
                }
                Response::Placement {
                    groups,
                    total_miss_ratio: d.f64()?,
                    throughput: d.f64()?,
                    nodes_explored: d.u64()?,
                    pruned: d.u64()?,
                }
            }
            T_BUSY => Response::Busy,
            T_ERROR => Response::Error {
                code: ErrorCode::from_u16(d.u16()?)?,
                message: d.string()?,
            },
            other => return Err(ProtoError::BadType(other)),
        };
        d.finish()?;
        Ok(resp)
    }
}

fn check_version(d: &mut Dec) -> Result<(), ProtoError> {
    match d.u8() {
        Ok(PROTO_VERSION) => Ok(()),
        Ok(v) => Err(ProtoError::BadVersion(v)),
        Err(_) => Err(ProtoError::TooShort),
    }
}

/// Read one frame body from `r`. Returns:
///
/// * `Ok(Some(body))` — a frame arrived (body = version + type + payload);
/// * `Ok(None)` — clean EOF at a frame boundary;
/// * `Err(FrameReadError::Proto)` — length prefix violated the protocol
///   (the stream is now unsynchronized and should be closed after an
///   error response);
/// * `Err(FrameReadError::Io)` — transport error / timeout / mid-frame EOF.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameReadError> {
    let mut len_buf = [0u8; 4];
    if !read_exact_or_eof(r, &mut len_buf)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf);
    if len < 2 {
        return Err(FrameReadError::Proto(ProtoError::TooShort));
    }
    if len > MAX_FRAME_BYTES {
        return Err(FrameReadError::Proto(ProtoError::Oversized(len)));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body).map_err(FrameReadError::Io)?;
    Ok(Some(body))
}

/// Why [`read_frame`] failed.
#[derive(Debug)]
pub enum FrameReadError {
    /// Transport error (including timeouts and mid-frame EOF).
    Io(std::io::Error),
    /// The length prefix itself was invalid.
    Proto(ProtoError),
}

impl From<std::io::Error> for FrameReadError {
    fn from(e: std::io::Error) -> Self {
        FrameReadError::Io(e)
    }
}

/// `read_exact` that distinguishes clean EOF before the first byte
/// (`Ok(false)`) from a mid-buffer EOF (error).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, FrameReadError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(FrameReadError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                )));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    Ok(true)
}

/// Write a fully-encoded frame to `w` and flush it.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> std::io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_layout_is_len_version_type() {
        let f = Request::Ping.encode();
        assert_eq!(&f[0..4], &2u32.to_le_bytes());
        assert_eq!(f[4], PROTO_VERSION);
        assert_eq!(f[5], T_PING);
        assert_eq!(f.len(), 6);
    }

    #[test]
    fn request_roundtrip_all_types() {
        let reqs = vec![
            Request::Ping,
            Request::Submit {
                session: "s1".into(),
                batch: SampleBatch {
                    total_refs: 10,
                    sample_period: 3,
                    line_bytes: 64,
                    reuse: vec![ReuseSample {
                        start_pc: Pc(1),
                        start_kind: AccessKind::Load,
                        end_pc: Pc(2),
                        end_kind: AccessKind::Store,
                        distance: 5,
                        start_index: 7,
                    }],
                    dangling: vec![DanglingSample {
                        pc: Pc(3),
                        kind: AccessKind::Load,
                        start_index: 9,
                    }],
                    strides: vec![StrideSample {
                        pc: Pc(4),
                        kind: AccessKind::Load,
                        stride: -64,
                        recurrence: 11,
                    }],
                },
            },
            Request::QueryMrc {
                target: Target::Session("abc".into()),
                sizes_bytes: vec![1024, 65536],
            },
            Request::QueryPcMrc {
                target: Target::Benchmark(BenchmarkId::Mcf),
                pc: 42,
                sizes_bytes: vec![32768],
            },
            Request::QueryPlan {
                target: Target::Benchmark(BenchmarkId::Libquantum),
                machine: MachineId::Intel,
                delta: 2.25,
            },
            Request::Stats,
            Request::Shutdown,
            Request::CoRun {
                sessions: vec!["a".into(), "b".into(), "c".into()],
                sizes_bytes: vec![1 << 16, 6 << 20],
                intensities: vec![],
            },
            Request::CoRun {
                sessions: vec!["a".into(), "b".into()],
                sizes_bytes: vec![1 << 16],
                intensities: vec![1000.0, 0.25],
            },
            Request::Place {
                sessions: vec!["a".into(), "b".into(), "c".into(), "d".into()],
                groups: 2,
                capacity: 2,
                size_bytes: 6 << 20,
                intensities: vec![],
            },
            Request::Place {
                sessions: vec!["a".into(), "b".into()],
                groups: 1,
                capacity: 2,
                size_bytes: 1 << 16,
                intensities: vec![2.5, f64::MIN_POSITIVE],
            },
        ];
        for req in reqs {
            let f = req.encode();
            let body = &f[4..];
            assert_eq!(Request::decode(body).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn response_roundtrip_all_types() {
        let resps = vec![
            Response::Pong,
            Response::Accepted {
                store_bytes: 1 << 20,
                evicted: 3,
            },
            Response::Mrc {
                ratios: vec![0.5, 0.25, f64::MIN_POSITIVE],
            },
            Response::PcMrc { ratios: None },
            Response::PcMrc {
                ratios: Some(vec![1.0, 0.0]),
            },
            Response::Plan(PlanWire {
                delta: 1.5,
                directives: vec![DirectiveWire {
                    pc: 9,
                    distance_bytes: -4096,
                    stride: -64,
                    nta: true,
                }],
            }),
            Response::Stats(vec![("req.ping".into(), 2.0)]),
            Response::ShuttingDown,
            Response::Busy,
            Response::Error {
                code: ErrorCode::UnknownSession,
                message: "no such session".into(),
            },
            Response::CoRun {
                per_session: vec![
                    ("a".into(), vec![0.5, 0.25]),
                    ("b".into(), vec![1.0, f64::MIN_POSITIVE]),
                ],
                throughput: vec![1.75, 2.0],
            },
            Response::CoRun {
                per_session: vec![],
                throughput: vec![],
            },
            Response::Placement {
                groups: vec![vec!["a".into(), "c".into()], vec!["b".into(), "d".into()]],
                total_miss_ratio: 0.375,
                throughput: 3.5,
                nodes_explored: 421,
                pruned: 77,
            },
            Response::Placement {
                groups: vec![vec!["solo".into()]],
                total_miss_ratio: f64::MIN_POSITIVE,
                throughput: 1.0,
                nodes_explored: 1,
                pruned: 0,
            },
        ];
        for resp in resps {
            let f = resp.encode();
            assert_eq!(Response::decode(&f[4..]).unwrap(), resp, "{resp:?}");
        }
    }

    fn sample_model() -> ModelWire {
        ModelWire {
            line_bytes: 64,
            dangling: 3,
            sorted: vec![1, 5, 9, 400_000],
            per_pc: vec![(100, 1, vec![5, 400_000]), (200, 2, vec![1, 9])],
        }
    }

    #[test]
    fn peer_request_roundtrip_all_types() {
        let reqs = vec![
            Request::RingGet,
            Request::RingSet {
                epoch: 7,
                seed: 0xDEAD,
                vnodes: 64,
                nodes: vec!["127.0.0.1:9001".into(), "127.0.0.1:9002".into()],
            },
            Request::PeerForward {
                hops: 2,
                frame: Request::Ping.encode()[4..].to_vec(),
            },
            Request::SessionImport {
                session: "replay-s1".into(),
                version: 4,
                batch: SampleBatch {
                    total_refs: 99,
                    sample_period: 7,
                    line_bytes: 64,
                    reuse: vec![],
                    dangling: vec![],
                    strides: vec![],
                },
                model: Some(sample_model()),
            },
            Request::SessionImport {
                session: "bare".into(),
                version: 1,
                batch: SampleBatch::default(),
                model: None,
            },
            Request::ModelPull {
                session: "s".into(),
                version: 2,
            },
            Request::ModelPullCurrent {
                session: "s".into(),
                cached_version: u64::MAX,
                cached_samples: None,
            },
        ];
        for req in reqs {
            let f = req.encode();
            assert_eq!(Request::decode(&f[4..]).unwrap(), req, "{req:?}");
            for cut in 0..f.len() - 5 {
                assert!(
                    Request::decode(&f[4..4 + cut]).is_err(),
                    "truncation at {cut}"
                );
            }
        }
    }

    #[test]
    fn peer_response_roundtrip_all_types() {
        let resps = vec![
            Response::RingInfo {
                epoch: 3,
                seed: 11,
                vnodes: 32,
                nodes: vec!["a:1".into(), "b:2".into(), "c:3".into()],
                self_addr: "b:2".into(),
            },
            Response::RingAck {
                epoch: 3,
                migrated: 17,
            },
            Response::Imported,
            Response::ModelEntry {
                version: 0,
                model: None,
            },
            Response::ModelEntry {
                version: 9,
                model: Some(sample_model()),
            },
        ];
        for resp in resps {
            let f = resp.encode();
            assert_eq!(Response::decode(&f[4..]).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn a_pull_without_sample_counts_keeps_its_old_bytes() {
        let pull = Request::ModelPullCurrent {
            session: "s1".into(),
            cached_version: u64::MAX,
            cached_samples: None,
        };
        let mut want = 14u32.to_le_bytes().to_vec();
        want.extend_from_slice(&[PROTO_VERSION, T_MODEL_PULL_CURRENT]);
        want.extend_from_slice(&2u16.to_le_bytes());
        want.extend_from_slice(b"s1");
        want.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(pull.encode(), want);
    }

    #[test]
    fn a_pull_with_sample_counts_roundtrips() {
        let bare = Request::ModelPullCurrent {
            session: "s1".into(),
            cached_version: 41,
            cached_samples: None,
        };
        let pull = Request::ModelPullCurrent {
            session: "s1".into(),
            cached_version: 41,
            cached_samples: Some((2096, 17)),
        };
        let f = pull.encode();
        assert_eq!(f.len(), bare.encode().len() + 16, "two trailing u64s");
        assert_eq!(Request::decode(&f[4..]).unwrap(), pull);
        // Cut inside the counts: malformed, never a pull without them.
        for cut in 1..16 {
            assert!(
                Request::decode(&f[4..f.len() - cut]).is_err(),
                "cut {cut} bytes"
            );
        }
        assert_eq!(Request::decode(&f[4..f.len() - 16]).unwrap(), bare);
    }

    #[test]
    fn model_tails_roundtrip() {
        let tails = [
            Response::ModelTail {
                version: 3,
                completed: vec![],
                dangling: vec![],
            },
            Response::ModelTail {
                version: 4,
                completed: vec![],
                dangling: vec![(7, 3)],
            },
            Response::ModelTail {
                version: u64::MAX - 1,
                completed: (0..500u32).map(|i| (i % 37, u64::from(i) * 7919)).collect(),
                dangling: (0..64u32).map(|pc| (pc * 3, u64::from(pc) + 1)).collect(),
            },
        ];
        for tail in tails {
            let f = tail.encode();
            assert_eq!(Response::decode(&f[4..]).unwrap(), tail, "{tail:?}");
            for cut in 0..f.len() - 5 {
                assert!(
                    Response::decode(&f[4..4 + cut]).is_err(),
                    "truncation at {cut}"
                );
            }
        }
    }

    #[test]
    fn a_tail_claiming_more_entries_than_its_bytes_is_refused() {
        let tail = Response::ModelTail {
            version: 1,
            completed: vec![(1, 2)],
            dangling: vec![(5, 1)],
        };
        let f = tail.encode();
        // The completed count follows the length prefix, the version and
        // type bytes and the u64 version; the dangling count follows the
        // one 12-byte completed entry. Three entries need 36 bytes, and
        // at most 28 follow either count.
        for at in [4 + 2 + 8, 4 + 2 + 8 + 4 + 12] {
            for claim in [3u32, u32::MAX] {
                let mut bad = f.clone();
                bad[at..at + 4].copy_from_slice(&claim.to_le_bytes());
                assert_eq!(
                    Response::decode(&bad[4..]),
                    Err(ProtoError::Malformed("count larger than payload")),
                    "count {claim} at byte {at}"
                );
            }
        }
    }

    #[test]
    fn a_tail_is_never_larger_than_the_whole_model() {
        // The tail of a copy holding nothing is the whole history: 12
        // bytes per completed sample and per dangling PC, against 16 in
        // the model's reply.
        let mut profile = repf_sampling::Profile {
            line_bytes: 64,
            ..Default::default()
        };
        for i in 0..3000u64 {
            let pc = Pc(1 + (i * 7 % 40) as u32);
            profile.reuse.push(ReuseSample {
                start_pc: pc,
                start_kind: AccessKind::Load,
                end_pc: pc,
                end_kind: AccessKind::Load,
                distance: i * 31 % 100_000,
                start_index: i,
            });
            if i % 5 == 0 {
                profile.dangling.push(DanglingSample {
                    pc: Pc(1 + (i % 60) as u32),
                    kind: AccessKind::Load,
                    start_index: i,
                });
            }
        }
        let model = repf_statstack::StatStackModel::from_profile(&profile);
        let whole = Response::ModelEntry {
            version: 9,
            model: Some(ModelWire::from(model.to_parts())),
        };
        let mut dangling: Vec<(u32, u64)> = Vec::new();
        for (pc, n) in model.sampled_pcs().into_iter().map(|pc| {
            let n = profile.dangling.iter().filter(|d| d.pc == pc).count();
            (pc.0, n as u64)
        }) {
            if n > 0 {
                dangling.push((pc, n));
            }
        }
        let tail = Response::ModelTail {
            version: 9,
            completed: profile
                .reuse
                .iter()
                .map(|r| (r.end_pc.0, r.distance))
                .collect(),
            dangling,
        };
        let (t, w) = (tail.encode().len(), whole.encode().len());
        assert!(t <= w, "tail {t} bytes, whole model {w} bytes");
    }

    #[test]
    fn zero_line_models_are_malformed() {
        let zero = ModelWire {
            line_bytes: 0,
            ..sample_model()
        };
        let import = Request::SessionImport {
            session: "s".into(),
            version: 1,
            batch: SampleBatch {
                line_bytes: 64,
                ..SampleBatch::default()
            },
            model: Some(zero.clone()),
        };
        let entry = Response::ModelEntry {
            version: 1,
            model: Some(zero),
        };
        let want = ProtoError::Malformed("model line_bytes is 0");
        assert_eq!(Request::decode(&import.encode()[4..]).unwrap_err(), want);
        assert_eq!(Response::decode(&entry.encode()[4..]).unwrap_err(), want);
    }

    #[test]
    fn model_wire_parts_roundtrip() {
        use repf_statstack::StatStackModel;
        let wire = sample_model();
        let parts = wire.to_parts();
        assert_eq!(ModelWire::from_parts(&parts), wire);
        let model = StatStackModel::from_parts(parts);
        assert_eq!(model.sample_count(), 4 + 3);
        assert_eq!(model.line_bytes(), 64);
        assert_eq!(
            ModelWire::from_parts(&model.to_parts()),
            wire,
            "model → parts → wire is canonical"
        );
    }

    #[test]
    fn hostile_model_counts_do_not_allocate() {
        // A ModelEntry claiming u32::MAX sorted distances in 4 bytes.
        let mut e = Enc(Vec::new());
        e.u8(PROTO_VERSION);
        e.u8(T_MODEL_ENTRY);
        e.u64(3); // version
        e.u8(1);
        e.u64(64);
        e.u64(0);
        e.u32(u32::MAX);
        assert!(matches!(
            Response::decode(&e.0),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn hostile_corun_counts_do_not_allocate() {
        // A CoRun request claiming u32::MAX session names in 4 bytes.
        let mut e = Enc(Vec::new());
        e.u8(PROTO_VERSION);
        e.u8(T_CO_RUN);
        e.u32(u32::MAX);
        assert!(matches!(
            Request::decode(&e.0),
            Err(ProtoError::Malformed(_))
        ));
        // A CoRun reply claiming u32::MAX per-session entries.
        let mut e = Enc(Vec::new());
        e.u8(PROTO_VERSION);
        e.u8(T_CO_RUN_REPLY);
        e.u32(u32::MAX);
        assert!(matches!(
            Response::decode(&e.0),
            Err(ProtoError::Malformed(_))
        ));
        // Plausible outer count, hostile inner ratio count.
        let mut e = Enc(Vec::new());
        e.u8(PROTO_VERSION);
        e.u8(T_CO_RUN_REPLY);
        e.u32(1);
        e.string("s");
        e.u32(u32::MAX);
        assert!(matches!(
            Response::decode(&e.0),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn corun_wire_without_intensities_is_the_pr9_encoding() {
        // Empty intensities must vanish from the wire entirely: the
        // committed golden trace (and every recorded trace) carries
        // intensity-free CoRun frames that must decode unchanged.
        let req = Request::CoRun {
            sessions: vec!["a".into(), "b".into()],
            sizes_bytes: vec![1 << 20],
            intensities: vec![],
        };
        let f = req.encode();
        let mut by_hand = Enc(Vec::new());
        by_hand.u8(PROTO_VERSION);
        by_hand.u8(T_CO_RUN);
        enc_nodes(&mut by_hand, &["a".into(), "b".into()]);
        enc_sizes(&mut by_hand, &[1 << 20]);
        assert_eq!(&f[4..], &by_hand.0[..], "no trailing field when empty");
        assert_eq!(Request::decode(&f[4..]).unwrap(), req);
    }

    #[test]
    fn hostile_place_counts_do_not_allocate() {
        // A Place request claiming u32::MAX session names in 4 bytes.
        let mut e = Enc(Vec::new());
        e.u8(PROTO_VERSION);
        e.u8(T_PLACE);
        e.u32(u32::MAX);
        assert!(matches!(
            Request::decode(&e.0),
            Err(ProtoError::Malformed(_))
        ));
        // Plausible sessions, hostile intensity count.
        let mut e = Enc(Vec::new());
        e.u8(PROTO_VERSION);
        e.u8(T_PLACE);
        enc_nodes(&mut e, &["s".into()]);
        e.u32(2);
        e.u32(2);
        e.u64(1 << 20);
        e.u32(u32::MAX);
        assert!(matches!(
            Request::decode(&e.0),
            Err(ProtoError::Malformed(_))
        ));
        // A Placement reply claiming u32::MAX groups.
        let mut e = Enc(Vec::new());
        e.u8(PROTO_VERSION);
        e.u8(T_PLACE_REPLY);
        e.u32(u32::MAX);
        assert!(matches!(
            Response::decode(&e.0),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn place_truncation_is_malformed_not_panic() {
        let f = Request::Place {
            sessions: vec!["left".into(), "right".into()],
            groups: 2,
            capacity: 1,
            size_bytes: 6 << 20,
            intensities: vec![1.0, 2.0],
        }
        .encode();
        for cut in 0..f.len() - 4 {
            assert!(
                Request::decode(&f[4..4 + cut]).is_err(),
                "truncation at {cut}"
            );
        }
        let f = Response::Placement {
            groups: vec![vec!["left".into()], vec!["right".into()]],
            total_miss_ratio: 0.5,
            throughput: 1.75,
            nodes_explored: 10,
            pruned: 3,
        }
        .encode();
        for cut in 0..f.len() - 4 {
            assert!(
                Response::decode(&f[4..4 + cut]).is_err(),
                "truncation at {cut}"
            );
        }
        // Trailing bytes after a complete Place payload are rejected.
        let mut f = Request::Place {
            sessions: vec!["s".into()],
            groups: 1,
            capacity: 1,
            size_bytes: 1,
            intensities: vec![],
        }
        .encode();
        f.push(0);
        assert_eq!(Request::decode(&f[4..]), Err(ProtoError::TrailingBytes(1)));
    }

    #[test]
    fn corun_truncation_is_malformed_not_panic() {
        let sessions = vec!["left".to_string(), "right".to_string()];
        let sizes_bytes = vec![1u64 << 20, 6 << 20];
        let f = Request::CoRun {
            sessions: sessions.clone(),
            sizes_bytes: sizes_bytes.clone(),
            intensities: vec![3.0, 4.0],
        }
        .encode();
        // One cut length is special: chopping the whole trailing
        // intensities field leaves a *valid* PR 9 frame.
        let pr9 = Request::CoRun {
            sessions: sessions.clone(),
            sizes_bytes: sizes_bytes.clone(),
            intensities: vec![],
        }
        .encode();
        let pr9_body_len = pr9.len() - 4;
        for cut in 0..f.len() - 4 {
            let got = Request::decode(&f[4..4 + cut]);
            if cut == pr9_body_len {
                assert_eq!(
                    got.unwrap(),
                    Request::CoRun {
                        sessions: sessions.clone(),
                        sizes_bytes: sizes_bytes.clone(),
                        intensities: vec![],
                    },
                    "intensity-free prefix is the legacy frame"
                );
            } else {
                assert!(got.is_err(), "truncation at {cut}");
            }
        }
        let f = Response::CoRun {
            per_session: vec![("left".into(), vec![0.5]), ("right".into(), vec![0.75])],
            throughput: vec![1.5],
        }
        .encode();
        for cut in 0..f.len() - 4 {
            assert!(
                Response::decode(&f[4..4 + cut]).is_err(),
                "truncation at {cut}"
            );
        }
    }

    #[test]
    fn f64_roundtrip_is_bit_exact() {
        for v in [0.1, 1.0 / 3.0, f64::MAX, -0.0, f64::NAN] {
            let f = Response::Mrc { ratios: vec![v] }.encode();
            let Response::Mrc { ratios } = Response::decode(&f[4..]).unwrap() else {
                panic!()
            };
            assert_eq!(ratios[0].to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_payload_is_malformed_not_panic() {
        let f = Request::QueryMrc {
            target: Target::Session("abcdef".into()),
            sizes_bytes: vec![1, 2, 3],
        }
        .encode();
        let body = &f[4..];
        for cut in 0..body.len() {
            let r = Request::decode(&body[..cut]);
            assert!(r.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut f = Request::Ping.encode();
        f.push(0xFF); // extra byte past the payload
        assert_eq!(Request::decode(&f[4..]), Err(ProtoError::TrailingBytes(1)));
    }

    #[test]
    fn kind_indices_are_distinct_and_cover_the_table() {
        let s = || "s".to_string();
        let target = || Target::Session(s());
        let every_variant = [
            Request::Ping,
            Request::Submit {
                session: s(),
                batch: SampleBatch::default(),
            },
            Request::QueryMrc {
                target: target(),
                sizes_bytes: vec![],
            },
            Request::QueryPcMrc {
                target: target(),
                pc: 0,
                sizes_bytes: vec![],
            },
            Request::QueryPlan {
                target: target(),
                machine: MachineId::Amd,
                delta: 0.0,
            },
            Request::Stats,
            Request::Shutdown,
            Request::RingGet,
            Request::RingSet {
                epoch: 0,
                seed: 0,
                vnodes: 0,
                nodes: vec![],
            },
            Request::PeerForward {
                hops: 0,
                frame: vec![],
            },
            Request::SessionImport {
                session: s(),
                version: 0,
                batch: SampleBatch::default(),
                model: None,
            },
            Request::ModelPull {
                session: s(),
                version: 0,
            },
            Request::ModelPullCurrent {
                session: s(),
                cached_version: 0,
                cached_samples: None,
            },
            Request::CoRun {
                sessions: vec![],
                sizes_bytes: vec![],
                intensities: vec![],
            },
            Request::Place {
                sessions: vec![],
                groups: 0,
                capacity: 0,
                size_bytes: 0,
                intensities: vec![],
            },
        ];
        let mut slots: Vec<usize> = every_variant.iter().map(Request::kind_index).collect();
        slots.sort_unstable();
        let want: Vec<usize> = (0..REQUEST_KINDS.len()).collect();
        assert_eq!(slots, want, "one distinct slot per table entry");
        // The labels (the `requests.<kind>` Stats keys) stay pinned.
        let names: Vec<&str> = every_variant.iter().map(Request::kind_name).collect();
        assert_eq!(
            names.join(" "),
            "ping submit mrc pc_mrc plan stats shutdown ring_get ring_set peer_forward \
             session_import model_pull model_pull_current co_run place"
        );
    }

    #[test]
    fn bad_version_and_type() {
        assert_eq!(
            Request::decode(&[9, T_PING]),
            Err(ProtoError::BadVersion(9))
        );
        assert_eq!(
            Request::decode(&[PROTO_VERSION, 0x7F]),
            Err(ProtoError::BadType(0x7F))
        );
        assert_eq!(Request::decode(&[]), Err(ProtoError::TooShort));
    }

    #[test]
    fn hostile_count_does_not_allocate() {
        // A QueryMrc claiming u32::MAX sizes in a tiny payload.
        let mut e = Enc(Vec::new());
        e.u8(PROTO_VERSION);
        e.u8(T_QUERY_MRC);
        e.u8(0);
        e.string("s");
        e.u32(u32::MAX);
        assert!(matches!(
            Request::decode(&e.0),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn replies_over_the_frame_cap_encode_as_typed_errors() {
        // An `Mrc` frame's length field counts version, type, a 4-byte
        // count and 8 bytes per ratio: 6 + 8·n.
        let fits = (MAX_FRAME_BYTES as usize - 6) / 8;
        let ok = Response::Mrc {
            ratios: vec![0.5; fits],
        };
        assert_eq!(ok.encode_reply(), ok.encode());
        let over = Response::Mrc {
            ratios: vec![0.5; fits + 1],
        };
        let frame = over.encode_reply();
        let body = read_frame(&mut frame.as_slice())
            .expect("the replacement frame is readable")
            .expect("one frame");
        match Response::decode(&body).expect("decodes") {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Unsupported);
                assert!(message.contains("exceeds the frame cap"), "{message}");
            }
            other => panic!("want an error, got {other:?}"),
        }
    }

    #[test]
    fn the_largest_co_run_reply_fits_a_frame() {
        // Every session name at the u16 length limit, every list at
        // the size cap.
        let name = "n".repeat(u16::MAX as usize);
        let worst = Response::CoRun {
            per_session: (0..MAX_CORUN_SESSIONS)
                .map(|_| (name.clone(), vec![0.5; MAX_QUERY_SIZES]))
                .collect(),
            throughput: vec![1.0; MAX_QUERY_SIZES],
        };
        let frame = worst.encode_reply();
        assert_eq!(frame, worst.encode());
        assert!(frame.len() - 4 <= MAX_FRAME_BYTES as usize);
    }

    #[test]
    fn read_frame_rejects_oversized_and_short() {
        let mut over = Vec::new();
        over.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut over.as_slice()),
            Err(FrameReadError::Proto(ProtoError::Oversized(_)))
        ));
        let mut short = Vec::new();
        short.extend_from_slice(&1u32.to_le_bytes());
        short.push(PROTO_VERSION);
        assert!(matches!(
            read_frame(&mut short.as_slice()),
            Err(FrameReadError::Proto(ProtoError::TooShort))
        ));
        // Clean EOF at a boundary.
        assert!(read_frame(&mut (&[] as &[u8])).unwrap().is_none());
        // EOF mid-header.
        assert!(matches!(
            read_frame(&mut (&[1u8, 0][..])),
            Err(FrameReadError::Io(_))
        ));
    }

    #[test]
    fn plan_wire_roundtrips_library_plan() {
        let mut plan = repf_core::PrefetchPlan::empty();
        plan.insert(
            Pc(5),
            repf_core::PrefetchDirective {
                distance_bytes: 512,
                nta: true,
                stride: 64,
            },
        );
        plan.insert(
            Pc(2),
            repf_core::PrefetchDirective {
                distance_bytes: -128,
                nta: false,
                stride: -16,
            },
        );
        let wire = PlanWire::from_plan(&plan, 2.0);
        assert_eq!(wire.directives[0].pc, 2, "sorted by pc");
        let back = wire.to_plan();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(Pc(5)).unwrap().distance_bytes, 512);
        assert!(back.get(Pc(5)).unwrap().nta);
    }
}
