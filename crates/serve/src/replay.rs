//! Deterministic multi-node record/replay: the standing harness every
//! serve change is verified against.
//!
//! Three pieces:
//!
//! * **generator** — [`generate_trace`] walks a seeded RNG over
//!   sessions × {submit, MRC, per-PC MRC, plan, co-run, stats, ping} and
//!   captures every request frame through a [`TraceRecorder`]; the same
//!   seed always produces byte-identical traces.
//! * **replay client** — [`replay_against`] drives 1..N daemons from one
//!   trace with a fixed interleaving (trace order, one in-flight request)
//!   and a seeded per-node partitioning by session hash, so a session's
//!   requests land on one node in their recorded order and the responses
//!   are independent of the node count.
//! * **oracle + divergence reporter** — every deterministic response
//!   (MRC, per-PC MRC, plan, ping — not `Accepted`/`Stats`, whose bytes
//!   legitimately depend on node-local store occupancy) is compared
//!   bit-for-bit against a direct in-process
//!   [`StatStackModel`]/[`analyze`] oracle; a mismatch produces a
//!   [`Divergence`] carrying the minimal offending request prefix (the
//!   diverging session's history) and the differing response bytes.
//!
//! Responses that are *not* bit-compared are still type-checked (a
//! submit must yield `Accepted`, a stats request must yield `Stats`).
//! The harness assumes the daemons' session budget exceeds the trace's
//! footprint — the oracle never evicts, so an evicting daemon diverges
//! (by design: eviction under replay is a configuration error).
//!
//! A replay's [`digest`](ReplayReport::digest) is an FNV-1a hash over
//! the deterministic response bodies in trace order; it is invariant
//! across node counts and is what the golden-trace regression test pins.

use crate::client::{Client, ClientError};
use crate::cluster::{apply_membership, RingSpec};
use crate::proto::{
    ErrorCode, MachineId, Request, Response, SampleBatch, Target, MAX_CORUN_SESSIONS,
    MAX_PLACE_TREE_NODES, MAX_QUERY_SIZES,
};
use crate::ring::{Ring, DEFAULT_VNODES};
use crate::server::{start, ServeConfig, ServerHandle};
use crate::trace_file::{Trace, TraceRecorder};
use repf_core::analyze;
use repf_sampling::{Profile, ReuseSample, StrideSample};
use repf_sim::{amd_phenom_ii, intel_i7_2600k};
use repf_statstack::{CoRunModel, StatStackModel};
use repf_trace::hash::FxHashMap;
use repf_trace::{AccessKind, Pc};
use std::net::SocketAddr;
use std::time::Duration;

// --- seeded deterministic RNG (splitmix64; no external deps) ---

/// A tiny deterministic RNG: splitmix64 over a counter. Identical
/// sequences on every platform and build.
#[derive(Clone, Debug)]
pub struct ReplayRng(u64);

impl ReplayRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        ReplayRng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform pick in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

// --- trace generator ---

/// Knobs for the deterministic request generator.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// RNG seed; equal seeds produce byte-identical traces.
    pub seed: u64,
    /// Distinct sessions (`replay-s0` .. `replay-s{n-1}`).
    pub sessions: u32,
    /// Submit-then-query rounds per session.
    pub rounds: u32,
    /// Reuse samples per submitted batch.
    pub samples_per_batch: u32,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            seed: 0x5EED_0F2E_C02D,
            sessions: 4,
            rounds: 3,
            samples_per_batch: 60,
        }
    }
}

/// The session name the generator uses for index `i`.
pub fn session_name(i: u32) -> String {
    format!("replay-s{i}")
}

/// Candidate cache sizes the generator queries at.
const GEN_SIZES: [u64; 6] = [32 << 10, 128 << 10, 256 << 10, 1 << 20, 4 << 20, 8 << 20];

/// PCs the generated batches sample (plus one deliberately absent PC in
/// per-PC queries).
const GEN_PCS: [u32; 3] = [100, 200, 300];

fn gen_batch(rng: &mut ReplayRng, samples: u32) -> SampleBatch {
    let mut b = SampleBatch {
        total_refs: 250_000 + rng.below(250_000),
        sample_period: 1009,
        line_bytes: 64,
        ..SampleBatch::default()
    };
    for i in 0..u64::from(samples) {
        let pc = GEN_PCS[rng.below(GEN_PCS.len() as u64) as usize];
        // PC 100 is a far-reuse strided load (misses everywhere); the
        // others mostly hit, so generated plans are non-trivial.
        let distance = if pc == 100 {
            400_000 + rng.below(600_000)
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

/// One trace in three carries explicit per-session intensity weights;
/// the rest leave them empty (the sample-count-inference wire form).
fn gen_intensities(rng: &mut ReplayRng, k: u64) -> Vec<f64> {
    if rng.below(3) != 0 {
        return Vec::new();
    }
    (0..k).map(|_| 0.5 + rng.below(8) as f64 * 0.5).collect()
}

/// Generate a deterministic trace: each round submits one batch per
/// session and follows with a seeded mix of MRC, per-PC MRC, plan, ping,
/// co-run, placement and stats requests. The whole walk is a pure
/// function of `cfg`.
pub fn generate_trace(cfg: &GenConfig) -> Trace {
    let mut rng = ReplayRng::new(cfg.seed);
    let mut rec = TraceRecorder::new(cfg.seed);
    for _round in 0..cfg.rounds {
        for s in 0..cfg.sessions {
            let session = session_name(s);
            rec.record(Request::Submit {
                session: session.clone(),
                batch: gen_batch(&mut rng, cfg.samples_per_batch),
            });
            let queries = 1 + rng.below(3);
            for _ in 0..queries {
                let target = Target::Session(session.clone());
                match rng.below(8) {
                    0 | 1 => {
                        let n = 1 + rng.below(GEN_SIZES.len() as u64) as usize;
                        let mut sizes: Vec<u64> =
                            (0..n).map(|_| GEN_SIZES[rng.below(6) as usize]).collect();
                        sizes.sort_unstable();
                        rec.record(Request::QueryMrc {
                            target,
                            sizes_bytes: sizes,
                        });
                    }
                    2 => {
                        // Sampled PCs and one absent PC, so the `None`
                        // encoding is exercised too.
                        let pc = if rng.below(4) == 0 {
                            9999
                        } else {
                            GEN_PCS[rng.below(3) as usize]
                        };
                        rec.record(Request::QueryPcMrc {
                            target,
                            pc,
                            sizes_bytes: GEN_SIZES[..3].to_vec(),
                        });
                    }
                    3 => {
                        let machine = if rng.below(2) == 0 {
                            MachineId::Amd
                        } else {
                            MachineId::Intel
                        };
                        let delta = [2.0, 3.5, 4.0][rng.below(3) as usize];
                        rec.record(Request::QueryPlan {
                            target,
                            machine,
                            delta,
                        });
                    }
                    4 => rec.record(Request::Ping),
                    5 => {
                        // Co-run over a run of sessions starting at a
                        // random index — early rounds naturally include
                        // not-yet-submitted names, so the UnknownSession
                        // path is part of the digest too.
                        let pool = u64::from(cfg.sessions.max(1));
                        let k = (2 + rng.below(3)).min(pool);
                        let first = rng.below(pool);
                        let sessions: Vec<String> = (0..k)
                            .map(|j| session_name(((first + j) % pool) as u32))
                            .collect();
                        let n = 1 + rng.below(GEN_SIZES.len() as u64) as usize;
                        let mut sizes: Vec<u64> =
                            (0..n).map(|_| GEN_SIZES[rng.below(6) as usize]).collect();
                        sizes.sort_unstable();
                        // One trace in three overrides the inferred
                        // intensities, so both wire forms are replayed.
                        let intensities = gen_intensities(&mut rng, k);
                        rec.record(Request::CoRun {
                            sessions,
                            sizes_bytes: sizes,
                            intensities,
                        });
                    }
                    6 => {
                        // Placement over a run of sessions; group shape
                        // is always feasible (G·cap ≥ k) so the search
                        // itself — not just validation — is replayed.
                        let pool = u64::from(cfg.sessions.max(1));
                        let k = (2 + rng.below(3)).min(pool);
                        let first = rng.below(pool);
                        let sessions: Vec<String> = (0..k)
                            .map(|j| session_name(((first + j) % pool) as u32))
                            .collect();
                        let groups = (1 + rng.below(2)) as u32;
                        let capacity = k.div_ceil(u64::from(groups)) as u32 + rng.below(2) as u32;
                        let size_bytes = GEN_SIZES[rng.below(6) as usize];
                        let intensities = gen_intensities(&mut rng, k);
                        rec.record(Request::Place {
                            sessions,
                            groups,
                            capacity,
                            size_bytes,
                            intensities,
                        });
                    }
                    _ => rec.record(Request::Stats),
                }
            }
        }
    }
    rec.finish()
}

// --- routing ---

/// The session a request addresses, when it addresses one.
pub fn session_of(req: &Request) -> Option<&str> {
    match req {
        Request::Submit { session, .. } => Some(session),
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
        } => Some(s),
        _ => None,
    }
}

/// Session→node partitioning, delegated to the cluster tier's
/// consistent-hash [`Ring`] — the same placement the daemons, the load
/// generator and the `repf ring` CLI compute, so a session's entire
/// history lands on its ring owner in recorded order. Returns an index
/// into [`Ring::nodes`] (the sorted member list).
pub fn node_of(req: &Request, index: usize, ring: &Ring) -> usize {
    match session_of(req) {
        Some(name) => ring.owner_index(name).expect("replay ring is non-empty"),
        // Session-less requests (ping, stats, benchmark queries) round-
        // robin deterministically by trace position.
        None => index % ring.len(),
    }
}

// --- oracle ---

struct OracleSession {
    profile: Profile,
    version: u64,
    fitted: Option<(u64, StatStackModel)>,
}

/// A direct in-process reference: accumulates submitted batches per
/// session and answers queries straight from
/// [`StatStackModel::from_profile`] and [`analyze`] — no daemon, no
/// cache, no sharding. What the daemons must agree with, bit for bit.
#[derive(Default)]
pub struct Oracle {
    sessions: FxHashMap<String, OracleSession>,
}

impl Oracle {
    /// An empty oracle.
    pub fn new() -> Self {
        Oracle::default()
    }

    fn model_of(&mut self, name: &str) -> Option<&StatStackModel> {
        let s = self.sessions.get_mut(name)?;
        let stale = match &s.fitted {
            Some((v, _)) => *v != s.version,
            None => true,
        };
        if stale {
            s.fitted = Some((s.version, StatStackModel::from_profile(&s.profile)));
        }
        Some(&s.fitted.as_ref().unwrap().1)
    }

    fn unknown(name: &str) -> Response {
        Response::Error {
            code: ErrorCode::UnknownSession,
            message: format!("unknown session '{name}'"),
        }
    }

    /// Mirrors the server's `validate_sizes`: empty, then longer than
    /// [`MAX_QUERY_SIZES`].
    fn validate_sizes(sizes: &[u64]) -> Option<Response> {
        if sizes.is_empty() {
            return Some(Self::unsupported("empty size list".into()));
        }
        if sizes.len() > MAX_QUERY_SIZES {
            return Some(Self::unsupported(format!(
                "{} sizes exceed the cap of {MAX_QUERY_SIZES}",
                sizes.len()
            )));
        }
        None
    }

    fn unsupported(message: String) -> Response {
        Response::Error {
            code: ErrorCode::Unsupported,
            message,
        }
    }

    /// The shared `CoRun`/`Place` validation prefix, mirroring the
    /// server's `validate_session_list` byte for byte: empty list,
    /// over-limit list, duplicate name, intensity-count mismatch.
    fn validate_session_list(names: &[String], intensities: &[f64]) -> Option<Response> {
        if names.is_empty() {
            return Some(Self::unsupported("empty session list".into()));
        }
        if names.len() > MAX_CORUN_SESSIONS {
            return Some(Self::unsupported(format!(
                "co-run of {} sessions exceeds the cap of {MAX_CORUN_SESSIONS}",
                names.len()
            )));
        }
        for (i, name) in names.iter().enumerate() {
            if names[..i].contains(name) {
                return Some(Self::unsupported(format!("duplicate session '{name}'")));
            }
        }
        if !intensities.is_empty() && intensities.len() != names.len() {
            return Some(Self::unsupported(format!(
                "{} intensities for {} sessions",
                intensities.len(),
                names.len()
            )));
        }
        None
    }

    /// Fit every named session (first unresolvable name errors, in
    /// request order), then gather the now-current model refs.
    fn fitted_models(&mut self, names: &[String]) -> Result<Vec<&StatStackModel>, Response> {
        // First pass fits (mutable borrow per name), second pass gathers
        // the now-current refs for composition.
        for name in names {
            if self.model_of(name).is_none() {
                return Err(Self::unknown(name));
            }
        }
        Ok(names
            .iter()
            .map(|n| {
                &self.sessions[n.as_str()]
                    .fitted
                    .as_ref()
                    .expect("fitted above")
                    .1
            })
            .collect())
    }

    /// The exact co-run response a correct daemon produces, mirroring
    /// `handle_co_run`'s validation order byte for byte and answering
    /// through the same [`CoRunModel`] the server uses.
    fn co_run(&mut self, names: &[String], sizes: &[u64], intensities: &[f64]) -> Response {
        if let Some(err) = Self::validate_session_list(names, intensities) {
            return err;
        }
        if let Some(err) = Self::validate_sizes(sizes) {
            return err;
        }
        let models = match self.fitted_models(names) {
            Ok(m) => m,
            Err(e) => return e,
        };
        let mut co = CoRunModel::new();
        for (i, m) in models.into_iter().enumerate() {
            if intensities.is_empty() {
                co.push(m);
            } else {
                co.push_with_intensity(m, intensities[i]);
            }
        }
        let answer = co.answer_bytes(sizes);
        Response::CoRun {
            per_session: names.iter().cloned().zip(answer.per_member).collect(),
            throughput: answer.throughput,
        }
    }

    /// The exact placement response a correct daemon produces, mirroring
    /// `handle_place`'s validation order and answering through the same
    /// single-threaded-equivalent search (bit-identical at any thread
    /// count by construction, so one thread is the simplest reference).
    fn place(
        &mut self,
        names: &[String],
        groups: u32,
        capacity: u32,
        size_bytes: u64,
        intensities: &[f64],
    ) -> Response {
        if let Some(err) = Self::validate_session_list(names, intensities) {
            return err;
        }
        if groups == 0 || capacity == 0 {
            return Self::unsupported("groups and capacity must be positive".into());
        }
        if names.len() as u64 > u64::from(groups) * u64::from(capacity) {
            return Self::unsupported(format!(
                "{} sessions do not fit in {groups} groups of {capacity}",
                names.len()
            ));
        }
        let tree = repf_statstack::tree_nodes(names.len(), groups, capacity);
        if tree > MAX_PLACE_TREE_NODES {
            return Self::unsupported(format!(
                "placement search tree of {tree} nodes exceeds the cap of {MAX_PLACE_TREE_NODES}"
            ));
        }
        let models = match self.fitted_models(names) {
            Ok(m) => m,
            Err(e) => return e,
        };
        let weights: Vec<f64> = if intensities.is_empty() {
            models.iter().map(|m| m.sample_count() as f64).collect()
        } else {
            intensities.to_vec()
        };
        let result =
            repf_statstack::placement::place(&models, &weights, groups, capacity, size_bytes, 1);
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

    /// Apply `req` to the oracle's state and return the exact response a
    /// correct daemon must produce — or `None` when the response is
    /// legitimately node-dependent (`Submit`, `Stats`) or out of the
    /// oracle's scope (benchmark targets, shutdown).
    pub fn expected(&mut self, req: &Request) -> Option<Response> {
        match req {
            Request::Ping => Some(Response::Pong),
            Request::Submit { session, batch } => {
                if batch.line_bytes == 0 {
                    return None; // refused before any session exists
                }
                let s = self
                    .sessions
                    .entry(session.clone())
                    .or_insert_with(|| OracleSession {
                        profile: Profile {
                            sample_period: batch.sample_period,
                            line_bytes: batch.line_bytes,
                            ..Profile::default()
                        },
                        version: 0,
                        fitted: None,
                    });
                if s.profile.line_bytes == batch.line_bytes {
                    s.version += 1;
                    s.profile.total_refs += batch.total_refs;
                    s.profile.sample_period = batch.sample_period;
                    s.profile.reuse.extend(batch.reuse.iter().cloned());
                    s.profile.dangling.extend(batch.dangling.iter().cloned());
                    s.profile.strides.extend(batch.strides.iter().cloned());
                }
                // `Accepted{store_bytes,..}` depends on what else the
                // node holds — type-checked, not bit-compared.
                None
            }
            Request::QueryMrc {
                target: Target::Session(name),
                sizes_bytes,
            } => {
                if let Some(err) = Self::validate_sizes(sizes_bytes) {
                    return Some(err);
                }
                Some(match self.model_of(name) {
                    None => Self::unknown(name),
                    Some(m) => Response::Mrc {
                        ratios: sizes_bytes.iter().map(|&b| m.miss_ratio_bytes(b)).collect(),
                    },
                })
            }
            Request::QueryPcMrc {
                target: Target::Session(name),
                pc,
                sizes_bytes,
            } => {
                if let Some(err) = Self::validate_sizes(sizes_bytes) {
                    return Some(err);
                }
                Some(match self.model_of(name) {
                    None => Self::unknown(name),
                    Some(m) => Response::PcMrc {
                        ratios: m
                            .pc_mrc_bytes(Pc(*pc), sizes_bytes)
                            .map(|c| c.ratios().to_vec()),
                    },
                })
            }
            Request::QueryPlan {
                target: Target::Session(name),
                machine,
                delta,
            } => {
                if !delta.is_finite() || *delta <= 0.0 {
                    return Some(Response::Error {
                        code: ErrorCode::Unsupported,
                        message: "session plan queries need a positive finite delta".into(),
                    });
                }
                let machine_cfg = match machine {
                    MachineId::Amd => amd_phenom_ii(),
                    MachineId::Intel => intel_i7_2600k(),
                };
                let cfg = machine_cfg.analysis_config(*delta);
                let Some(s) = self.sessions.get(name.as_str()) else {
                    return Some(Self::unknown(name));
                };
                let analysis = analyze(&s.profile, &cfg);
                Some(Response::Plan(crate::proto::PlanWire::from_plan(
                    &analysis.plan,
                    *delta,
                )))
            }
            Request::CoRun {
                sessions,
                sizes_bytes,
                intensities,
            } => Some(self.co_run(sessions, sizes_bytes, intensities)),
            Request::Place {
                sessions,
                groups,
                capacity,
                size_bytes,
                intensities,
            } => Some(self.place(sessions, *groups, *capacity, *size_bytes, intensities)),
            // Benchmark targets share the server-side plan cache; they
            // are deterministic but out of the oracle's scope.
            Request::QueryMrc { .. } | Request::QueryPcMrc { .. } | Request::QueryPlan { .. } => {
                None
            }
            Request::Stats | Request::Shutdown => None,
            // Peer-protocol requests never appear in client traces; a
            // recorded one is skipped by the replay loop anyway.
            Request::RingGet
            | Request::RingSet { .. }
            | Request::PeerForward { .. }
            | Request::SessionImport { .. }
            | Request::ModelPull { .. }
            | Request::ModelPullCurrent { .. } => None,
        }
    }
}

// --- replay ---

/// Replay knobs.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// Partition-hash seed for session→node routing.
    pub seed: u64,
    /// Per-call client timeout.
    pub timeout: Duration,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            seed: 0,
            timeout: Duration::from_secs(30),
        }
    }
}

/// One detected mismatch between a node's response and the oracle.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Trace index of the offending request.
    pub index: usize,
    /// Node that answered.
    pub node: usize,
    /// Session the request addressed, if any.
    pub session: Option<String>,
    /// The offending request.
    pub request: Request,
    /// Why the response was rejected.
    pub reason: &'static str,
    /// The node's response, as an encoded frame body.
    pub got: Vec<u8>,
    /// The oracle's response, as an encoded frame body (empty for
    /// type-only checks).
    pub want: Vec<u8>,
    /// Offset of the first differing byte.
    pub first_diff: usize,
    /// The minimal offending request prefix: every earlier request that
    /// touched the same session, plus the offending request itself —
    /// replaying just these reproduces the divergence.
    pub prefix: Vec<Request>,
}

impl Divergence {
    /// The minimal repro as a saveable trace.
    pub fn prefix_trace(&self) -> Trace {
        Trace {
            seed: 0,
            records: self.prefix.clone(),
        }
    }
}

fn hex_window(bytes: &[u8], around: usize) -> String {
    let start = around.saturating_sub(8);
    let end = (around + 8).min(bytes.len());
    let mut s = String::new();
    for (i, b) in bytes[start..end].iter().enumerate() {
        if start + i == around {
            s.push('[');
        }
        s.push_str(&format!("{b:02x}"));
        if start + i == around {
            s.push(']');
        }
        s.push(' ');
    }
    s
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "divergence at trace index {} on node {} ({}): {}",
            self.index,
            self.node,
            self.session.as_deref().unwrap_or("<no session>"),
            self.reason
        )?;
        writeln!(f, "  request: {:?}", self.request.kind_name())?;
        writeln!(
            f,
            "  got  ({} B) ...{}",
            self.got.len(),
            hex_window(&self.got, self.first_diff)
        )?;
        writeln!(
            f,
            "  want ({} B) ...{}",
            self.want.len(),
            hex_window(&self.want, self.first_diff)
        )?;
        write!(
            f,
            "  minimal prefix: {} request(s) ending at index {}",
            self.prefix.len(),
            self.index
        )
    }
}

/// What a replay run produced.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Requests sent (shutdown records are skipped, not sent).
    pub requests: u64,
    /// Shutdown records skipped (the harness owns node lifecycles).
    pub skipped: u64,
    /// Requests routed to each node.
    pub per_node: Vec<u64>,
    /// Responses bit-compared against the oracle.
    pub checked: u64,
    /// FNV-1a digest over deterministic response bodies in trace order;
    /// invariant across node counts.
    pub digest: u64,
    /// Every detected mismatch, in trace order.
    pub divergences: Vec<Divergence>,
}

impl ReplayReport {
    /// `true` when every checked response matched the oracle.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Response bodies folded into the digest: the deterministic kinds. A
/// `Stats` or `Accepted` body depends on node-local occupancy and
/// timing, so including them would make the digest node-count-dependent.
fn digestible(resp: &Response) -> bool {
    matches!(
        resp,
        Response::Pong
            | Response::Mrc { .. }
            | Response::PcMrc { .. }
            | Response::Plan(_)
            | Response::CoRun { .. }
            | Response::Placement { .. }
            | Response::Error { .. }
    )
}

/// The response type `req` must produce (when not bit-compared).
/// `Error` is always admissible — the oracle decides exactness.
fn kind_matches(req: &Request, resp: &Response) -> bool {
    matches!(
        (req, resp),
        (_, Response::Error { .. })
            | (Request::Ping, Response::Pong)
            | (Request::Submit { .. }, Response::Accepted { .. })
            | (Request::QueryMrc { .. }, Response::Mrc { .. })
            | (Request::QueryPcMrc { .. }, Response::PcMrc { .. })
            | (Request::QueryPlan { .. }, Response::Plan(_))
            | (Request::CoRun { .. }, Response::CoRun { .. })
            | (Request::Place { .. }, Response::Placement { .. })
            | (Request::Stats, Response::Stats(_))
            | (Request::Shutdown, Response::ShuttingDown)
    )
}

/// Strip the length prefix from an encoded frame.
fn body(resp: &Response) -> Vec<u8> {
    resp.encode_reply()[4..].to_vec()
}

/// The per-request replay machinery shared by the static and the
/// churned entry points: oracle tracking, Busy backoff, digest folding
/// and divergence capture. The caller owns routing.
struct ReplayCore<'a> {
    trace: &'a Trace,
    oracle: Oracle,
    history: FxHashMap<String, Vec<usize>>,
    report: ReplayReport,
}

impl<'a> ReplayCore<'a> {
    fn new(trace: &'a Trace, nodes: usize) -> Self {
        ReplayCore {
            trace,
            oracle: Oracle::new(),
            history: FxHashMap::default(),
            report: ReplayReport {
                requests: 0,
                skipped: 0,
                per_node: vec![0; nodes],
                checked: 0,
                digest: 0xcbf2_9ce4_8422_2325,
                divergences: Vec::new(),
            },
        }
    }

    /// Send `trace.records[i]` to `client` (node `node` for the
    /// report), check it, and fold it into the digest.
    fn step(&mut self, i: usize, node: usize, client: &mut Client) -> Result<(), ClientError> {
        let req = &self.trace.records[i];
        self.report.per_node[node] += 1;
        self.report.requests += 1;
        // A sequential replay keeps at most one request in any node's
        // queue, but an externally-shared daemon may still shed load —
        // back off briefly on Busy rather than failing the run.
        let mut resp = client.call_any(req)?;
        let mut retries = 0;
        while matches!(resp, Response::Busy) && retries < 50 {
            std::thread::sleep(Duration::from_millis(10));
            resp = client.call_any(req)?;
            retries += 1;
        }
        let session = session_of(req).map(str::to_string);
        let expected = self.oracle.expected(req);
        if let Some(name) = &session {
            self.history.entry(name.clone()).or_default().push(i);
        }
        if digestible(&resp) && !matches!(req, Request::Stats) {
            fnv1a(&mut self.report.digest, &body(&resp));
        }
        let mut diverge = |reason: &'static str, got: Vec<u8>, want: Vec<u8>| {
            let first_diff = got
                .iter()
                .zip(&want)
                .position(|(g, w)| g != w)
                .unwrap_or_else(|| got.len().min(want.len()));
            let prefix = match &session {
                Some(name) => self.history[name]
                    .iter()
                    .map(|&ix| self.trace.records[ix].clone())
                    .collect(),
                None => vec![req.clone()],
            };
            self.report.divergences.push(Divergence {
                index: i,
                node,
                session: session.clone(),
                request: req.clone(),
                reason,
                got,
                want,
                first_diff,
                prefix,
            });
        };
        match expected {
            Some(want) => {
                self.report.checked += 1;
                let got_b = body(&resp);
                let want_b = body(&want);
                if got_b != want_b {
                    diverge("response bytes differ from oracle", got_b, want_b);
                }
            }
            None => {
                if !kind_matches(req, &resp) {
                    diverge(
                        "response type does not match request",
                        body(&resp),
                        Vec::new(),
                    );
                }
            }
        }
        Ok(())
    }
}

/// Replay `trace` against already-running daemons at `addrs`, in trace
/// order with one in-flight request — barrier-free but fully
/// reproducible. Routing is the cluster ring over the address strings
/// (seeded by `cfg.seed`); `per_node` in the report is indexed by the
/// `addrs` argument order. Transport failures abort the run.
pub fn replay_against(
    addrs: &[SocketAddr],
    trace: &Trace,
    cfg: &ReplayConfig,
) -> Result<ReplayReport, ClientError> {
    assert!(!addrs.is_empty(), "replay needs at least one node");
    // Same fail-fast descriptor preflight as the load generator: one
    // client per node plus the fixed reserve, checked (after a
    // best-effort raise) before any connection opens, so a low
    // `ulimit -n` stops a multi-node fan-out up front instead of
    // half-connecting.
    crate::loadgen::preflight_fd_budget(addrs.len(), 0)?;
    let names: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    let ring = Ring::new(cfg.seed, DEFAULT_VNODES, names.clone());
    // The ring sorts members; map ring indexes back to argument order.
    let order: Vec<usize> = ring
        .nodes()
        .iter()
        .map(|n| {
            names
                .iter()
                .position(|a| a == n)
                .expect("member from input")
        })
        .collect();
    let mut clients = Vec::with_capacity(addrs.len());
    for a in addrs {
        let mut c = Client::connect(a)?;
        c.set_timeout(Some(cfg.timeout))?;
        clients.push(c);
    }
    let mut core = ReplayCore::new(trace, addrs.len());
    for i in 0..trace.records.len() {
        if matches!(trace.records[i], Request::Shutdown) {
            core.report.skipped += 1;
            continue;
        }
        let node = order[node_of(&trace.records[i], i, &ring)];
        core.step(i, node, &mut clients[node])?;
    }
    Ok(core.report)
}

/// A ring-membership change injected mid-trace by
/// [`replay_clustered`].
#[derive(Clone, Debug)]
pub enum RingChange {
    /// Remove the node at this spawn index from the ring (the daemon
    /// keeps running and forwards stragglers — drain, not kill).
    Drain(usize),
    /// Spawn a fresh node and add it to the ring.
    Join,
}

/// When to inject a [`RingChange`]: before sending trace record `at`.
#[derive(Clone, Debug)]
pub struct ChurnEvent {
    /// Trace index the change precedes.
    pub at: usize,
    /// The membership change.
    pub change: RingChange,
}

/// Replay `trace` against an `n`-node *cluster*: the daemons share a
/// consistent-hash ring (installed via `RingSet`, epoch 1), sessions
/// are routed to their ring owner, and each [`ChurnEvent`] injects a
/// live membership change — drain or join — mid-trace, with the
/// affected sessions migrating between nodes while the replay
/// continues. The response digest must equal a single-node replay of
/// the same trace; that equality is the cluster tier's core
/// correctness test.
pub fn replay_clustered(
    n: usize,
    trace: &Trace,
    serve_cfg: &ServeConfig,
    replay_cfg: &ReplayConfig,
    churn: &[ChurnEvent],
) -> Result<ReplayReport, ClientError> {
    let spawn = || {
        start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            peers: Vec::new(),
            ..serve_cfg.clone()
        })
    };
    let mut nodes: Vec<ServerHandle> = Vec::new();
    for _ in 0..n.max(1) {
        nodes.push(spawn()?);
    }
    let addr_of = |h: &ServerHandle| h.addr().to_string();
    let mut members: Vec<String> = nodes.iter().map(addr_of).collect();
    let spec = |members: &[String]| RingSpec {
        seed: replay_cfg.seed,
        vnodes: DEFAULT_VNODES,
        nodes: members.to_vec(),
    };
    let run = (|| -> Result<ReplayReport, ClientError> {
        apply_membership(&members, &spec(&members))?;
        let mut ring = Ring::new(replay_cfg.seed, DEFAULT_VNODES, members.clone());
        let mut clients: FxHashMap<String, Client> = FxHashMap::default();
        // Reserve report slots for joiners up front so `per_node` is
        // indexed by spawn order across the whole run.
        let joins = churn
            .iter()
            .filter(|c| matches!(c.change, RingChange::Join))
            .count();
        let mut core = ReplayCore::new(trace, nodes.len() + joins);
        let mut churn = churn.to_vec();
        churn.sort_by_key(|c| c.at);
        let mut next_churn = 0usize;
        for i in 0..trace.records.len() {
            while next_churn < churn.len() && churn[next_churn].at <= i {
                match churn[next_churn].change {
                    RingChange::Drain(k) => {
                        let gone = addr_of(&nodes[k]);
                        members.retain(|m| *m != gone);
                        assert!(!members.is_empty(), "drain would empty the ring");
                    }
                    RingChange::Join => {
                        let h = spawn()?;
                        members.push(addr_of(&h));
                        nodes.push(h);
                    }
                }
                // Contacts are the union of old and new members: drained
                // nodes keep running (they must shed their keys first)
                // and a joiner must be told the ring too — a ringless
                // joiner would answer session queries fine but could
                // never resolve peer-owned co-run members.
                let contacts: Vec<String> = nodes.iter().map(addr_of).collect();
                // Losers-first ordering happens inside apply_membership;
                // it returns only when every migration has completed.
                apply_membership(&contacts, &spec(&members))?;
                ring = Ring::new(replay_cfg.seed, DEFAULT_VNODES, members.clone());
                next_churn += 1;
            }
            if matches!(trace.records[i], Request::Shutdown) {
                core.report.skipped += 1;
                continue;
            }
            let addr = ring.nodes()[node_of(&trace.records[i], i, &ring)].clone();
            let node = nodes
                .iter()
                .position(|h| addr_of(h) == addr)
                .expect("ring member is a spawned node");
            if !clients.contains_key(&addr) {
                let mut c = Client::connect(addr.as_str())?;
                c.set_timeout(Some(replay_cfg.timeout))?;
                clients.insert(addr.clone(), c);
            }
            core.step(i, node, clients.get_mut(&addr).expect("just inserted"))?;
        }
        Ok(core.report)
    })();
    for node in nodes {
        node.shutdown();
    }
    run
}

/// Start `n` loopback daemons on ephemeral ports with `serve_cfg`
/// (address overridden), replay `trace` against them, then shut every
/// node down. The convenience entry the tests, CLI and bench share.
/// With `n > 1` the daemons get the same ring the harness routes by
/// installed (no churn — see [`replay_clustered`] for that), so
/// co-run requests landing on a non-owner can pull peer session models;
/// every session-targeted request still lands on its owner and is
/// answered purely locally.
pub fn replay_spawned(
    n: usize,
    trace: &Trace,
    serve_cfg: &ServeConfig,
    replay_cfg: &ReplayConfig,
) -> Result<ReplayReport, ClientError> {
    let nodes: Vec<ServerHandle> = (0..n.max(1))
        .map(|_| {
            start(ServeConfig {
                addr: "127.0.0.1:0".into(),
                ..serve_cfg.clone()
            })
        })
        .collect::<std::io::Result<_>>()?;
    let addrs: Vec<SocketAddr> = nodes.iter().map(|h| h.addr()).collect();
    let report = (|| {
        if addrs.len() > 1 {
            let members: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
            apply_membership(
                &members,
                &RingSpec {
                    seed: replay_cfg.seed,
                    vnodes: DEFAULT_VNODES,
                    nodes: members.clone(),
                },
            )?;
        }
        replay_against(&addrs, trace, replay_cfg)
    })();
    for node in nodes {
        node.shutdown();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_seed_sensitive() {
        let cfg = GenConfig::default();
        let a = generate_trace(&cfg);
        let b = generate_trace(&cfg);
        assert_eq!(a, b, "same seed, same trace");
        assert!(!a.is_empty());
        let c = generate_trace(&GenConfig {
            seed: cfg.seed ^ 1,
            ..cfg
        });
        assert_ne!(a, c, "different seed, different trace");
        // Every session submits every round.
        let submits = a
            .records
            .iter()
            .filter(|r| matches!(r, Request::Submit { .. }))
            .count();
        assert_eq!(submits as u32, cfg.sessions * cfg.rounds);
    }

    #[test]
    fn routing_is_stable_and_session_sticky() {
        let trace = generate_trace(&GenConfig::default());
        for nodes in [1usize, 2, 3, 5] {
            let members: Vec<String> = (0..nodes)
                .map(|k| format!("127.0.0.1:{}", 9000 + k))
                .collect();
            let ring = Ring::new(7, DEFAULT_VNODES, members);
            let mut session_node: FxHashMap<String, usize> = FxHashMap::default();
            for (i, req) in trace.records.iter().enumerate() {
                let n = node_of(req, i, &ring);
                assert!(n < nodes);
                assert_eq!(n, node_of(req, i, &ring), "stable");
                if let Some(s) = session_of(req) {
                    let prev = session_node.entry(s.to_string()).or_insert(n);
                    assert_eq!(*prev, n, "session {s} stays on one node");
                }
            }
        }
    }

    #[test]
    fn oracle_mirrors_store_semantics() {
        let mut o = Oracle::new();
        assert_eq!(o.expected(&Request::Ping), Some(Response::Pong));
        // Unknown session errors exactly like the server.
        let q = Request::QueryMrc {
            target: Target::Session("ghost".into()),
            sizes_bytes: vec![1 << 20],
        };
        match o.expected(&q) {
            Some(Response::Error { code, message }) => {
                assert_eq!(code, ErrorCode::UnknownSession);
                assert_eq!(message, "unknown session 'ghost'");
            }
            other => panic!("want UnknownSession, got {other:?}"),
        }
        // Submit is applied but not bit-compared.
        let mut rng = ReplayRng::new(1);
        let sub = Request::Submit {
            session: "s".into(),
            batch: gen_batch(&mut rng, 40),
        };
        assert_eq!(o.expected(&sub), None);
        let q = Request::QueryMrc {
            target: Target::Session("s".into()),
            sizes_bytes: vec![32 << 10, 8 << 20],
        };
        match o.expected(&q) {
            Some(Response::Mrc { ratios }) => assert_eq!(ratios.len(), 2),
            other => panic!("want Mrc, got {other:?}"),
        }
        // Stats is never bit-compared.
        assert_eq!(o.expected(&Request::Stats), None);
    }
}
