//! Open-loop, coordinated-omission-safe load generator for the serve
//! daemon (`repf load`; perfbench's serving workloads reuse its op
//! schedule).
//!
//! ## Why open-loop
//!
//! A closed-loop client (send, wait, send) slows *itself* down when the
//! server stalls: the stalled seconds vanish from the latency record
//! because no requests were outstanding while the client politely
//! waited — the classic *coordinated omission* trap. This generator
//! instead fixes an arrival schedule up front (`generate_ops`): op `i`
//! is *intended* to start at `t0 + i/rate`, no matter how the server is
//! doing. Every response is then accounted twice:
//!
//! * **intended latency** — completion minus the *scheduled* start, the
//!   number a user arriving at that moment would experience;
//! * **service latency** — completion minus the instant the bytes
//!   actually left, the number a coordinated-omission-blind harness
//!   would (mis)report.
//!
//! When the server keeps up the two agree; when it stalls, the intended
//! histogram keeps charging while requests queue behind the stall, and
//! the gap between the two p99s *is* the coordinated omission a
//! closed-loop harness would have hidden. The headline numbers always
//! come from the intended histogram.
//!
//! ## Workload shape
//!
//! Session popularity is zipfian ([`ZipfGen`], YCSB-style: rank `i` is
//! drawn with weight `1/(i+1)^s`), op kinds follow a YCSB-like mix
//! ([`OpMix`]), and everything derives from one splitmix64 stream
//! ([`ReplayRng`]) — equal seeds give bit-identical op sequences
//! (asserted by `tests/loadgen.rs`), so a run is reproducible from its
//! `(seed, mix, rate, duration)` tuple alone.
//!
//! The driver herd is deliberately small: `drivers` paced connections
//! carry the schedule (each with up to `pipeline` requests in flight)
//! while `conns - drivers` extra connections sit parked, so "10k open
//! connections" costs file descriptors, not 10k threads — matching how
//! the epoll server itself treats idle sockets as nearly free.

use crate::metrics::LogHisto;
use crate::proto::{self, FrameReadError, Request, Response, SampleBatch, Target};
use crate::replay::ReplayRng;
use crate::ring::{Ring, DEFAULT_RING_SEED, DEFAULT_VNODES};
use repf_metrics::json::Json;
use repf_sampling::{ReuseSample, StrideSample};
use repf_trace::{AccessKind, Pc};
use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// YCSB-like op mixes over the serve protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpMix {
    /// 50% submit / 40% MRC query / 10% per-PC MRC query — ingest-bound.
    SubmitHeavy,
    /// 5% submit / 80% MRC query / 15% per-PC MRC query — read-mostly.
    QueryHeavy,
    /// 100% per-PC MRC sweeps over a 16-point size ladder — the most
    /// expensive read path, every op walks a full curve.
    Scan,
    /// The query-heavy mix polluted by a 10% stream of one-shot submits
    /// to never-queried `churn-c{i}` sessions — the cache-pollution
    /// workload for the store's admission filter: under a tight byte
    /// budget a recency-only store would let the churn evict the
    /// zipf-hot working set; W-TinyLFU admission refuses it.
    ScanChurn,
}

impl OpMix {
    /// CLI / JSON name.
    pub fn as_str(&self) -> &'static str {
        match self {
            OpMix::SubmitHeavy => "submit-heavy",
            OpMix::QueryHeavy => "query-heavy",
            OpMix::Scan => "scan",
            OpMix::ScanChurn => "scan-churn",
        }
    }

    /// Every mix, for sweeps.
    pub const ALL: [OpMix; 4] = [
        OpMix::SubmitHeavy,
        OpMix::QueryHeavy,
        OpMix::Scan,
        OpMix::ScanChurn,
    ];
}

impl std::str::FromStr for OpMix {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "submit-heavy" => Ok(OpMix::SubmitHeavy),
            "query-heavy" => Ok(OpMix::QueryHeavy),
            "scan" => Ok(OpMix::Scan),
            "scan-churn" => Ok(OpMix::ScanChurn),
            other => Err(format!(
                "unknown mix '{other}' (submit-heavy|query-heavy|scan|scan-churn)"
            )),
        }
    }
}

impl std::fmt::Display for OpMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What one generated op does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Submit a small deterministic sample batch to the session.
    Submit,
    /// Whole-session MRC over the standard 6-point ladder.
    Mrc,
    /// Per-PC MRC sweep over the 16-point scan ladder.
    PcMrc {
        /// The delinquent PC queried.
        pc: u32,
    },
    /// One-shot submit to a unique `churn-c{id}` session nothing ever
    /// queries again — pure pollution pressure on the session store.
    ChurnSubmit {
        /// Unique churn id (the op's schedule index, so names never
        /// repeat within a run).
        id: u32,
    },
}

/// One scheduled operation — a pure function of `(LoadConfig, index)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Intended start, microseconds after the run's `t0`.
    pub offset_us: u64,
    /// Target session index (zipf-ranked: 0 is hottest).
    pub session: u32,
    /// Operation kind.
    pub kind: OpKind,
    /// Per-op seed for deterministic payload materialization
    /// ([`request_for`]).
    pub op_seed: u64,
}

/// Load-run knobs.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// RNG seed; equal seeds give bit-identical op sequences.
    pub seed: u64,
    /// Op mix.
    pub mix: OpMix,
    /// Target arrival rate, ops/second (open-loop schedule).
    pub rate: f64,
    /// Scheduled run length (`rate * duration` ops total).
    pub duration: Duration,
    /// Open connections: `drivers` paced + the rest parked idle.
    pub conns: usize,
    /// Paced driver connections; 0 resolves to `min(conns, 8)`.
    pub drivers: usize,
    /// Max in-flight requests per driver. `1` recovers a closed-loop
    /// client (useful to *demonstrate* coordinated omission; see
    /// `tests/loadgen.rs`).
    pub pipeline: usize,
    /// Distinct sessions (`load-s0` .. `load-s{n-1}`), preloaded with
    /// one batch each before the clock starts.
    pub sessions: u32,
    /// Zipf exponent for session popularity (YCSB default 0.99).
    pub zipf_s: f64,
    /// Ring seed for cluster fan-out: must match the daemons' ring so
    /// every op lands on its session's owner (zero misdirected
    /// requests, the cross-node plan-cache numbers stay honest).
    pub ring_seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            seed: 0x10AD_5EED,
            mix: OpMix::QueryHeavy,
            rate: 1000.0,
            duration: Duration::from_secs(2),
            conns: 8,
            drivers: 0,
            pipeline: 32,
            sessions: 16,
            zipf_s: 0.99,
            ring_seed: DEFAULT_RING_SEED,
        }
    }
}

/// Seeded zipfian rank sampler: rank `i` (0-based) is drawn with weight
/// `1/(i+1)^s` via inverse CDF over the cumulative weights — no `rand`
/// dependency, bit-stable across runs for a fixed [`ReplayRng`] stream.
pub struct ZipfGen {
    cum: Vec<f64>,
}

impl ZipfGen {
    /// A sampler over `n` ranks with exponent `s` (`n` ≥ 1).
    pub fn new(n: u32, s: f64) -> Self {
        assert!(n >= 1, "zipf needs at least one rank");
        let mut cum = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / f64::from(i + 1).powf(s);
            cum.push(total);
        }
        ZipfGen { cum }
    }

    /// Draw one rank in `0..n`.
    pub fn draw(&self, rng: &mut ReplayRng) -> u32 {
        // 53 uniform bits → f64 in [0, 1): the standard bit-exact
        // mapping, so the draw sequence is a pure function of the seed.
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
        let target = u * self.cum[self.cum.len() - 1];
        let idx = self.cum.partition_point(|&c| c <= target);
        idx.min(self.cum.len() - 1) as u32
    }
}

/// The delinquent PCs the load batches populate (mirrors the replay
/// generator: PC 100 is the far-reuse strided miss, the others hit).
const LOAD_PCS: [u32; 3] = [100, 200, 300];

/// 6-point MRC ladder for [`OpKind::Mrc`] queries.
const MRC_SIZES: [u64; 6] = [32 << 10, 128 << 10, 256 << 10, 1 << 20, 4 << 20, 8 << 20];

/// Name of load session `i`.
pub fn session_name(i: u32) -> String {
    format!("load-s{i}")
}

/// Name of one-shot churn session `id` ([`OpKind::ChurnSubmit`]).
pub fn churn_name(id: u32) -> String {
    format!("churn-c{id}")
}

/// The session an op addresses on the wire — the zipf-ranked load
/// session for ordinary ops, the unique churn session for
/// [`OpKind::ChurnSubmit`]. Routing (ring ownership) must use this, not
/// `session_name(op.session)`, or churn ops land on the wrong node.
pub fn op_session_name(op: &Op) -> String {
    match op.kind {
        OpKind::ChurnSubmit { id } => churn_name(id),
        _ => session_name(op.session),
    }
}

/// The 16-point size ladder a [`OpKind::PcMrc`] scan sweeps (1–16 MiB).
pub fn scan_sizes() -> Vec<u64> {
    (1..=16u64).map(|i| i << 20).collect()
}

/// The full arrival schedule: a pure function of `cfg` (same seed ⇒
/// bit-identical `Vec<Op>`; see `tests/loadgen.rs`).
pub fn generate_ops(cfg: &LoadConfig) -> Vec<Op> {
    assert!(cfg.rate > 0.0, "rate must be positive");
    let mut rng = ReplayRng::new(cfg.seed);
    let zipf = ZipfGen::new(cfg.sessions.max(1), cfg.zipf_s);
    let total = (cfg.rate * cfg.duration.as_secs_f64()).ceil().max(1.0) as u64;
    let mut ops = Vec::with_capacity(total as usize);
    for i in 0..total {
        let offset_us = ((i as f64) * 1_000_000.0 / cfg.rate) as u64;
        let session = zipf.draw(&mut rng);
        let roll = rng.below(100);
        let kind = match cfg.mix {
            OpMix::SubmitHeavy => {
                if roll < 50 {
                    OpKind::Submit
                } else if roll < 90 {
                    OpKind::Mrc
                } else {
                    OpKind::PcMrc {
                        pc: LOAD_PCS[rng.below(LOAD_PCS.len() as u64) as usize],
                    }
                }
            }
            OpMix::QueryHeavy => {
                if roll < 5 {
                    OpKind::Submit
                } else if roll < 85 {
                    OpKind::Mrc
                } else {
                    OpKind::PcMrc {
                        pc: LOAD_PCS[rng.below(LOAD_PCS.len() as u64) as usize],
                    }
                }
            }
            OpMix::Scan => OpKind::PcMrc {
                pc: LOAD_PCS[rng.below(LOAD_PCS.len() as u64) as usize],
            },
            OpMix::ScanChurn => {
                // Deliberately no plain `Submit` arm: the zipf-hot
                // working set is preloaded once and never grows, so the
                // only byte pressure on the store is the churn stream —
                // a hot session the store evicts is lost for the rest of
                // the run, exactly the pollution cost admission is there
                // to prevent.
                if roll < 10 {
                    OpKind::ChurnSubmit { id: i as u32 }
                } else if roll < 85 {
                    OpKind::Mrc
                } else {
                    OpKind::PcMrc {
                        pc: LOAD_PCS[rng.below(LOAD_PCS.len() as u64) as usize],
                    }
                }
            }
        };
        let op_seed = rng.next_u64();
        ops.push(Op {
            offset_us,
            session,
            kind,
            op_seed,
        });
    }
    ops
}

/// A small deterministic sample batch, materialized from a per-op seed
/// (the submit payload; mirrors the replay generator's shape at 1/4 the
/// sample count so ingest stays cheap relative to queries). `session`
/// is the zipf rank the batch belongs to: a quarter of the non-far
/// samples carry a rank-keyed LLC-scale reuse distance (~2–8 MB
/// spans), so different sessions saturate at different shared-cache
/// sizes. Without that component every load session is bimodal —
/// always-hit short reuse plus always-miss far reuse — and
/// co-run/placement questions over load sessions degenerate to ties.
fn load_batch(seed: u64, samples: u64, session: u32) -> SampleBatch {
    let mut rng = ReplayRng::new(seed);
    let mut b = SampleBatch {
        total_refs: 40_000 + rng.below(20_000),
        sample_period: 1009,
        line_bytes: 64,
        ..SampleBatch::default()
    };
    for i in 0..samples {
        let pc = LOAD_PCS[rng.below(LOAD_PCS.len() as u64) as usize];
        let distance = if pc == 100 {
            400_000 + rng.below(600_000)
        } else if rng.below(4) == 0 {
            30_000 + 7_000 * u64::from(session) + rng.below(3_000)
        } else {
            1 + rng.below(48)
        };
        b.reuse.push(ReuseSample {
            start_pc: Pc(pc),
            start_kind: AccessKind::Load,
            end_pc: Pc(pc),
            end_kind: AccessKind::Load,
            distance,
            start_index: i * 4000 + rng.below(1000),
        });
        if rng.below(3) == 0 {
            b.strides.push(StrideSample {
                pc: Pc(pc),
                kind: AccessKind::Load,
                stride: if pc == 100 { 64 } else { 8 },
                recurrence: 6 + rng.below(10),
            });
        }
    }
    b
}

/// Materialize the wire request for one op — pure, so the full request
/// trace is reproducible from the config alone.
pub fn request_for(op: &Op) -> Request {
    let session = op_session_name(op);
    match op.kind {
        OpKind::Submit => Request::Submit {
            session,
            batch: load_batch(op.op_seed, 16, op.session),
        },
        // Churn one-shots carry 3x the ordinary submit payload: scan
        // pollution is a few large never-reused footprints, not many
        // tiny ones, and each arrival has to be big relative to the
        // store's slack for admission to be the thing that matters.
        OpKind::ChurnSubmit { .. } => Request::Submit {
            session,
            batch: load_batch(op.op_seed, 48, op.session),
        },
        OpKind::Mrc => Request::QueryMrc {
            target: Target::Session(session),
            sizes_bytes: MRC_SIZES.to_vec(),
        },
        OpKind::PcMrc { pc } => Request::QueryPcMrc {
            target: Target::Session(session),
            pc,
            sizes_bytes: scan_sizes(),
        },
    }
}

/// The request that preloads session `i` before the clock starts (so
/// queries never race the first submit into `UnknownSession`).
pub fn preload_request(cfg: &LoadConfig, i: u32) -> Request {
    Request::Submit {
        session: session_name(i),
        batch: load_batch(cfg.seed.wrapping_add(u64::from(i) + 1), 60, i),
    }
}

/// What a load run measured.
pub struct LoadReport {
    /// The config that produced it.
    pub cfg: LoadConfig,
    /// Target nodes the run fanned out over.
    pub nodes: usize,
    /// Connections actually opened (drivers + parked; may fall short of
    /// `cfg.conns` if the OS ran out of descriptors).
    pub conns_open: usize,
    /// Resolved driver count (across all nodes).
    pub drivers: usize,
    /// Requests put on the wire.
    pub sent: u64,
    /// Responses matching their request kind.
    pub completed: u64,
    /// `Busy` responses (overload shedding, not an error).
    pub busy: u64,
    /// `UnknownSession` answers to query ops: the session existed at
    /// preload but the store has since evicted it. A *session-store
    /// miss*, not a client error — the store's hit ratio under churn is
    /// built on this count.
    pub unknown: u64,
    /// Query ops (MRC / per-PC MRC) answered from a live session.
    pub query_hits: u64,
    /// Everything wrong: server errors, kind mismatches, transport or
    /// framing failures, responses never received.
    pub errors: u64,
    /// `t0` → last response, across all drivers.
    pub wall: Duration,
    /// Latency from *intended* start (the coordinated-omission-safe
    /// headline).
    pub intended: LogHisto,
    /// Latency from actual send (what a CO-blind harness would report).
    pub service: LogHisto,
    /// Worst pacing slip: how late a send left relative to its schedule.
    pub max_send_lag_us: u64,
    /// Server-side counter deltas over the run (post minus pre, summed
    /// across nodes), sampled via `stats` right after preload and again
    /// after the last driver joins. `None` if either sample failed.
    pub server: Option<ServerStatsDelta>,
}

/// Server-side counters the load harness snapshots around a run, so
/// hit-ratio and eviction comparisons don't require scraping `stats`
/// output by hand.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStatsDelta {
    /// `sessions.evictions` delta.
    pub evictions: u64,
    /// `model_cache.hits` delta.
    pub model_cache_hits: u64,
    /// `model_cache.misses` delta.
    pub model_cache_misses: u64,
    /// `store.admission.accepted` delta.
    pub admission_accepted: u64,
    /// `store.admission.rejected` delta.
    pub admission_rejected: u64,
}

/// One absolute `stats` snapshot summed across all nodes. Deltas of two
/// of these bracket a run.
fn sample_server_counters(addrs: &[String]) -> Option<ServerStatsDelta> {
    let mut acc = ServerStatsDelta::default();
    for addr in addrs {
        let mut c = crate::client::Client::connect(addr.as_str()).ok()?;
        c.set_timeout(Some(Duration::from_secs(10))).ok()?;
        let mut tries = 0;
        let pairs = loop {
            match c.stats() {
                Ok(p) => break p,
                Err(crate::client::ClientError::Busy) if tries < 50 => {
                    tries += 1;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => return None,
            }
        };
        for (k, v) in pairs {
            let v = v as u64;
            match k.as_str() {
                "sessions.evictions" => acc.evictions += v,
                "model_cache.hits" => acc.model_cache_hits += v,
                "model_cache.misses" => acc.model_cache_misses += v,
                "store.admission.accepted" => acc.admission_accepted += v,
                "store.admission.rejected" => acc.admission_rejected += v,
                _ => {}
            }
        }
    }
    Some(acc)
}

impl ServerStatsDelta {
    fn delta(post: ServerStatsDelta, pre: ServerStatsDelta) -> ServerStatsDelta {
        ServerStatsDelta {
            evictions: post.evictions.saturating_sub(pre.evictions),
            model_cache_hits: post.model_cache_hits.saturating_sub(pre.model_cache_hits),
            model_cache_misses: post
                .model_cache_misses
                .saturating_sub(pre.model_cache_misses),
            admission_accepted: post
                .admission_accepted
                .saturating_sub(pre.admission_accepted),
            admission_rejected: post
                .admission_rejected
                .saturating_sub(pre.admission_rejected),
        }
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("sessions_evictions", Json::Num(self.evictions as f64)),
            ("model_cache_hits", Json::Num(self.model_cache_hits as f64)),
            (
                "model_cache_misses",
                Json::Num(self.model_cache_misses as f64),
            ),
            (
                "admission_accepted",
                Json::Num(self.admission_accepted as f64),
            ),
            (
                "admission_rejected",
                Json::Num(self.admission_rejected as f64),
            ),
        ])
    }
}

impl LoadReport {
    /// Completed ops per wall second.
    pub fn achieved_rate(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }

    /// Fraction of query ops answered from a live session:
    /// `query_hits / (query_hits + unknown)`. `None` when the run
    /// issued no queries.
    pub fn session_hit_ratio(&self) -> Option<f64> {
        let total = self.query_hits + self.unknown;
        if total > 0 {
            Some(self.query_hits as f64 / total as f64)
        } else {
            None
        }
    }

    fn histo_json(h: &LogHisto) -> Json {
        Json::obj([
            ("count", Json::Num(h.count() as f64)),
            ("mean_us", Json::Num(h.mean_us())),
            ("p50_us", Json::Num(h.quantile_us(0.50))),
            ("p99_us", Json::Num(h.quantile_us(0.99))),
            ("p999_us", Json::Num(h.quantile_us(0.999))),
            ("max_us", Json::Num(h.max_us() as f64)),
        ])
    }

    /// The machine-readable report (`repf load` prints this).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("mix", Json::str(self.cfg.mix.as_str())),
            ("seed", Json::Num(self.cfg.seed as f64)),
            ("target_rate", Json::Num(self.cfg.rate)),
            ("duration_secs", Json::Num(self.cfg.duration.as_secs_f64())),
            ("nodes", Json::Num(self.nodes as f64)),
            ("conns", Json::Num(self.conns_open as f64)),
            ("drivers", Json::Num(self.drivers as f64)),
            ("pipeline", Json::Num(self.cfg.pipeline as f64)),
            ("sessions", Json::Num(f64::from(self.cfg.sessions))),
            ("zipf_s", Json::Num(self.cfg.zipf_s)),
            ("sent", Json::Num(self.sent as f64)),
            ("completed", Json::Num(self.completed as f64)),
            ("busy", Json::Num(self.busy as f64)),
            ("unknown", Json::Num(self.unknown as f64)),
            ("query_hits", Json::Num(self.query_hits as f64)),
            (
                "session_hit_ratio",
                self.session_hit_ratio().map_or(Json::Null, Json::Num),
            ),
            ("errors", Json::Num(self.errors as f64)),
            ("achieved_rate", Json::Num(self.achieved_rate())),
            ("max_send_lag_us", Json::Num(self.max_send_lag_us as f64)),
            (
                "server",
                self.server.map_or(Json::Null, ServerStatsDelta::to_json),
            ),
            ("intended", Self::histo_json(&self.intended)),
            ("service", Self::histo_json(&self.service)),
        ])
    }
}

/// A pre-encoded scheduled op, ready for the wire.
struct EncodedOp {
    offset_us: u64,
    kind: OpKind,
    frame: Vec<u8>,
}

/// In-flight bookkeeping for one sent request.
struct Stamp {
    kind: OpKind,
    offset_us: u64,
    sent_at: Instant,
}

/// Writer/reader shared state for one driver connection.
struct DriverState {
    window: VecDeque<Stamp>,
    sent: u64,
    done_writing: bool,
    dead: bool,
}

struct DriverShared {
    m: Mutex<DriverState>,
    cv: Condvar,
}

/// What one driver measured.
#[derive(Default)]
struct DriverOut {
    sent: u64,
    completed: u64,
    busy: u64,
    unknown: u64,
    query_hits: u64,
    errors: u64,
    intended: LogHisto,
    service: LogHisto,
    max_lag_us: u64,
    last_done: Option<Instant>,
}

/// Consecutive 5-second read timeouts before a driver declares the
/// server hung and abandons its window.
const READER_MAX_STALLS: u32 = 3;

fn reader_loop(mut rd: TcpStream, shared: &DriverShared, t0: Instant) -> DriverOut {
    let mut out = DriverOut::default();
    let mut received = 0u64;
    let mut stalls = 0u32;
    loop {
        {
            let st = shared.m.lock().expect("driver state");
            if (st.done_writing && received == st.sent) || (st.dead && st.window.is_empty()) {
                break;
            }
        }
        match proto::read_frame(&mut rd) {
            Ok(Some(body)) => {
                stalls = 0;
                let now = Instant::now();
                let stamp = {
                    let mut st = shared.m.lock().expect("driver state");
                    let s = st.window.pop_front();
                    if s.is_some() {
                        shared.cv.notify_all();
                    }
                    s
                };
                let Some(stamp) = stamp else {
                    // A response with nothing outstanding: the stream
                    // is unsynchronized; stop trusting it.
                    out.errors += 1;
                    break;
                };
                received += 1;
                out.last_done = Some(now);
                let ok = match (stamp.kind, Response::decode(&body)) {
                    (
                        OpKind::Submit | OpKind::ChurnSubmit { .. },
                        Ok(Response::Accepted { .. }),
                    ) => true,
                    (OpKind::Mrc, Ok(Response::Mrc { .. }))
                    | (OpKind::PcMrc { .. }, Ok(Response::PcMrc { .. })) => {
                        out.query_hits += 1;
                        true
                    }
                    // A query hitting an evicted session is a session-
                    // store miss, not a client error: the store's
                    // eviction/admission policy decided that session
                    // was not worth keeping.
                    (
                        OpKind::Mrc | OpKind::PcMrc { .. },
                        Ok(Response::Error {
                            code: proto::ErrorCode::UnknownSession,
                            ..
                        }),
                    ) => {
                        out.unknown += 1;
                        false
                    }
                    (_, Ok(Response::Busy)) => {
                        out.busy += 1;
                        false
                    }
                    _ => {
                        out.errors += 1;
                        false
                    }
                };
                if ok {
                    out.completed += 1;
                    let done_us = now.duration_since(t0).as_micros() as u64;
                    out.intended
                        .record_us(done_us.saturating_sub(stamp.offset_us));
                    out.service
                        .record_us(now.duration_since(stamp.sent_at).as_micros() as u64);
                }
            }
            Ok(None) => break, // server closed
            Err(FrameReadError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                stalls += 1;
                if stalls >= READER_MAX_STALLS {
                    break;
                }
            }
            Err(_) => {
                out.errors += 1;
                break;
            }
        }
    }
    // Whatever is still outstanding was never answered.
    let mut st = shared.m.lock().expect("driver state");
    out.errors += st.window.len() as u64;
    st.window.clear();
    st.dead = true;
    drop(st);
    shared.cv.notify_all();
    out
}

fn run_driver(
    stream: TcpStream,
    rd: TcpStream,
    pipeline: usize,
    t0: Instant,
    ops: Vec<EncodedOp>,
) -> std::io::Result<DriverOut> {
    let pipeline = pipeline.max(1);
    let shared = Arc::new(DriverShared {
        m: Mutex::new(DriverState {
            window: VecDeque::new(),
            sent: 0,
            done_writing: false,
            dead: false,
        }),
        cv: Condvar::new(),
    });
    rd.set_read_timeout(Some(Duration::from_secs(5)))?;
    let rshared = Arc::clone(&shared);
    let reader = std::thread::Builder::new()
        .name("repf-load-rd".into())
        .spawn(move || reader_loop(rd, &rshared, t0))?;

    let mut wr = stream;
    let mut max_lag_us = 0u64;
    for op in &ops {
        let target = t0 + Duration::from_micros(op.offset_us);
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        // Open-loop with a bounded window: when the pipeline is full we
        // *wait* (the schedule keeps charging — that lateness is exactly
        // what the intended histogram records), we never skip ops.
        {
            let mut st = shared.m.lock().expect("driver state");
            while st.window.len() >= pipeline && !st.dead {
                st = shared.cv.wait(st).expect("driver state");
            }
            if st.dead {
                break;
            }
            let sent_at = Instant::now();
            max_lag_us =
                max_lag_us.max(sent_at.saturating_duration_since(target).as_micros() as u64);
            st.window.push_back(Stamp {
                kind: op.kind,
                offset_us: op.offset_us,
                sent_at,
            });
            st.sent += 1;
        }
        if wr.write_all(&op.frame).is_err() {
            let mut st = shared.m.lock().expect("driver state");
            st.dead = true;
            drop(st);
            shared.cv.notify_all();
            break;
        }
    }
    let sent = {
        let mut st = shared.m.lock().expect("driver state");
        st.done_writing = true;
        st.sent
    };
    shared.cv.notify_all();
    let mut out = reader.join().expect("load reader panicked");
    out.sent = sent;
    out.max_lag_us = max_lag_us;
    Ok(out)
}

/// Descriptors the preflight reserves beyond the herd itself: the
/// preload clients, stdio, and whatever the allocator/runtime holds.
pub const FD_RESERVE: u64 = 64;

/// The descriptor budget one run needs: the full connection herd, one
/// extra descriptor per driver (the reader half is a `try_clone`), and
/// a fixed reserve.
pub fn fd_budget(conns: usize, total_drivers: usize) -> u64 {
    conns.max(total_drivers) as u64 + total_drivers as u64 + FD_RESERVE
}

/// Fail-fast check that `RLIMIT_NOFILE` covers [`fd_budget`] — after a
/// best-effort raise. A herd that half-opens because the OS ran out of
/// descriptors mid-run produces silently wrong latency numbers; better
/// to stop up front and say exactly what `ulimit -n` value is needed.
pub fn preflight_fd_budget(conns: usize, total_drivers: usize) -> std::io::Result<()> {
    let need = fd_budget(conns, total_drivers);
    let have = crate::poll::raise_nofile_limit(need);
    if have < need {
        return Err(std::io::Error::other(format!(
            "fd budget: need {need} descriptors ({} connections + {total_drivers} driver reader \
             clones + {FD_RESERVE} reserve) but RLIMIT_NOFILE allows {have}; \
             raise it with `ulimit -n {need}` or lower --conns",
            conns.max(total_drivers),
        )));
    }
    Ok(())
}

/// Run one open-loop load against one or more live servers.
///
/// With a single address this is the classic single-node run. With
/// several, the generator builds the same consistent-hash ring the
/// daemons use (`cfg.ring_seed`) and fans out: each node gets its own
/// driver set, every op is sent to its session's owner, and sessions
/// are preloaded through their owners — so a correctly-seeded run never
/// relies on peer forwarding and the fleet-wide plan-cache numbers
/// measure sharing, not misdirection.
///
/// Preloads every session, parks `conns - drivers` idle connections
/// (spread round-robin over the nodes), then paces the generated
/// schedule over the driver connections and merges their measurements.
pub fn run_load(addrs: &[String], cfg: &LoadConfig) -> std::io::Result<LoadReport> {
    if addrs.is_empty() {
        return Err(std::io::Error::other("load needs at least one address"));
    }
    let nodes = addrs.len();
    let drivers_per_node = if cfg.drivers == 0 {
        cfg.conns.clamp(1, 8)
    } else {
        cfg.drivers.min(cfg.conns.max(1)).max(1)
    };
    let total_drivers = drivers_per_node * nodes;
    preflight_fd_budget(cfg.conns, total_drivers)?;

    let ring = Ring::new(cfg.ring_seed, DEFAULT_VNODES, addrs.to_vec());

    // Preload sessions on throwaway connections — through each
    // session's ring owner — so queries never see UnknownSession and no
    // session starts life on the wrong node.
    {
        let mut pre: Vec<crate::client::Client> = Vec::with_capacity(nodes);
        for addr in addrs {
            let mut c = crate::client::Client::connect(addr.as_str())
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            c.set_timeout(Some(Duration::from_secs(10)))
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            pre.push(c);
        }
        for s in 0..cfg.sessions {
            let owner = ring.owner_index(&session_name(s)).unwrap_or(0);
            let req = preload_request(cfg, s);
            let mut tries = 0;
            loop {
                match pre[owner].call(&req) {
                    Ok(_) => break,
                    Err(crate::client::ClientError::Busy) if tries < 50 => {
                        tries += 1;
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) => {
                        return Err(std::io::Error::other(format!(
                            "preload of load-s{s} failed: {e}"
                        )))
                    }
                }
            }
        }
    }

    // Bracket the run with server-side counter snapshots (best-effort:
    // a failed sample yields `server: null` in the report, never a
    // failed run).
    let pre_counters = sample_server_counters(addrs);

    // Driver connections first (they must exist) — including the reader
    // half's descriptor clone, so parking the herd can never starve a
    // driver of its fds — then the rest of the herd, stopping early if
    // the OS runs out of descriptors. Driver `d` talks to node
    // `d / drivers_per_node`.
    let mut driver_streams = Vec::with_capacity(total_drivers);
    for d in 0..total_drivers {
        let s = TcpStream::connect(addrs[d / drivers_per_node].as_str())?;
        s.set_nodelay(true).ok();
        let rd = s.try_clone()?;
        driver_streams.push((s, rd));
    }
    let mut idle: Vec<TcpStream> = Vec::new();
    for i in total_drivers..cfg.conns {
        match TcpStream::connect(addrs[i % nodes].as_str()) {
            Ok(s) => idle.push(s),
            Err(_) => break,
        }
    }
    let conns_open = total_drivers + idle.len();

    // Generate, route each op to its session's owner, round-robin over
    // that node's drivers, pre-encode (so encoding cost never perturbs
    // pacing).
    let ops = generate_ops(cfg);
    let mut per: Vec<Vec<EncodedOp>> = (0..total_drivers).map(|_| Vec::new()).collect();
    let mut next_on_node = vec![0usize; nodes];
    for op in &ops {
        let node = ring.owner_index(&op_session_name(op)).unwrap_or(0);
        let lane = node * drivers_per_node + next_on_node[node] % drivers_per_node;
        next_on_node[node] += 1;
        per[lane].push(EncodedOp {
            offset_us: op.offset_us,
            kind: op.kind,
            frame: request_for(op).encode(),
        });
    }

    let t0 = Instant::now();
    let mut handles = Vec::with_capacity(total_drivers);
    for ((stream, rd), ops) in driver_streams.into_iter().zip(per) {
        let pipeline = cfg.pipeline;
        handles.push(
            std::thread::Builder::new()
                .name("repf-load-wr".into())
                .spawn(move || run_driver(stream, rd, pipeline, t0, ops))?,
        );
    }

    let mut report = LoadReport {
        cfg: cfg.clone(),
        nodes,
        conns_open,
        drivers: total_drivers,
        sent: 0,
        completed: 0,
        busy: 0,
        unknown: 0,
        query_hits: 0,
        errors: 0,
        wall: Duration::ZERO,
        intended: LogHisto::new(),
        service: LogHisto::new(),
        max_send_lag_us: 0,
        server: None,
    };
    let mut last_done: Option<Instant> = None;
    for h in handles {
        let out = h.join().expect("load driver panicked")?;
        report.sent += out.sent;
        report.completed += out.completed;
        report.busy += out.busy;
        report.unknown += out.unknown;
        report.query_hits += out.query_hits;
        report.errors += out.errors;
        report.intended.merge(&out.intended);
        report.service.merge(&out.service);
        report.max_send_lag_us = report.max_send_lag_us.max(out.max_lag_us);
        if let Some(t) = out.last_done {
            last_done = Some(last_done.map_or(t, |l| l.max(t)));
        }
    }
    report.wall = last_done.map_or(Duration::ZERO, |t| t.duration_since(t0));
    drop(idle);
    report.server = match (pre_counters, sample_server_counters(addrs)) {
        (Some(pre), Some(post)) => Some(ServerStatsDelta::delta(post, pre)),
        _ => None,
    };
    Ok(report)
}
