//! The serving workloads: `query`, `ingest` and `ring`.
//!
//! A pass is a number of rounds. Each round starts its daemon(s)
//! in-process, preloads the sessions, runs a nominal-rate open-loop phase
//! (latency) and then a fixed number of ops offered far above saturation
//! (capacity), all through one generator connection to node 0. After the
//! timed window every reply is checked against the replay oracle.

use crate::affinity::{self, CpuSet};
use crate::gen::{self, Planned};
use crate::report::{beyond, median, quantile, Outcome, Values, HANDLER_CLASSES, OP_KINDS};
use repf_serve::loadgen::{preload_request, session_name};
use repf_serve::{
    apply_membership, generate_ops, request_for, Client, LoadConfig, Op as LoadOp,
    OpKind as LoadKind, OpMix, Oracle, ReplayRng, Request, Response, Ring, RingSpec, ServeConfig,
    ServerHandle, Target, ZipfGen, DEFAULT_RING_SEED, DEFAULT_VNODES,
};
use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

/// Which serving workload.
#[derive(Clone, Copy)]
pub enum Kind {
    /// One daemon, read-mostly `query-heavy` schedule.
    Query,
    /// One daemon, `submit-heavy` schedule over 256 sessions.
    Ingest,
    /// Three daemons on one ring; MRC, submit, co-run and placement.
    Ring,
}

/// The fixed shape of one workload.
struct Spec {
    nodes: usize,
    sessions: u32,
    /// The loadgen schedule, or `None` for the ring mix.
    mix: Option<OpMix>,
    /// Nominal open-loop rate, ops/s: about a quarter of capacity, so the
    /// median op does not queue (see README.md).
    nominal_rate: f64,
    /// Expected capacity, ops/s: sizes the overload phase's op count.
    capacity: f64,
    /// The oracle checks one query in this many (submits always apply).
    check_one_in: u64,
}

fn spec(kind: Kind) -> Spec {
    match kind {
        Kind::Query => Spec {
            nodes: 1,
            sessions: 16,
            mix: Some(OpMix::QueryHeavy),
            nominal_rate: 10_000.0,
            capacity: 35_000.0,
            check_one_in: 1,
        },
        Kind::Ingest => Spec {
            nodes: 1,
            sessions: 256,
            mix: Some(OpMix::SubmitHeavy),
            nominal_rate: 5_000.0,
            capacity: 17_000.0,
            check_one_in: 4,
        },
        Kind::Ring => Spec {
            nodes: 3,
            sessions: 16,
            mix: None,
            nominal_rate: 2_000.0,
            capacity: 8_500.0,
            check_one_in: 1,
        },
    }
}

/// Rounds per pass, each on a fresh fleet; the end-to-end metrics are
/// medians over rounds.
const ROUNDS: usize = 10;
/// Share of the pass's seconds spent at the nominal rate.
const NOMINAL_SHARE: f64 = 0.6;
/// Share of the pass's seconds the overload phase is sized to take.
const OVERLOAD_SHARE: f64 = 0.3;
/// The overload phase offers this multiple of the expected capacity.
const OVERLOAD_OFFER: f64 = 8.0;
/// A run is marked generator-bound when the worst send lag at the
/// nominal rate exceeds this many inter-arrival gaps.
const GEN_BOUND_GAPS: f64 = 100.0;
/// Seed salts separating the phases' schedules and the check sample.
const OVERLOAD_SALT: u64 = 0x0F3E_10AD;
const CHECK_SALT: u64 = 0xC4EC_0000;
/// Ring mix per block of 100 ops (shuffled per block from the seed).
/// The counts give node 0's service time the split the workload is for:
/// about 60 % MRC and submit traffic (forwarding, peer pool, model
/// pulls), 20 % co-run composition and 20 % placement search, at the
/// median service times measured on a 2-core x86-64 VM (MRC 0.09 ms
/// local and 0.13 ms forwarded, submit 0.125 ms, co-run 0.30 ms, place
/// 3.3 ms; see README.md). MRC and submit run 70:30, so most forwarded
/// queries and co-runs meet a new model version and pulls ship bytes.
/// Every run prints each kind's measured share of service time. Fixed
/// counts per block keep the shares the same on every seed; independent
/// draws would move capacity with the seed.
const RING_BLOCK: [(usize, usize); 4] = [(MRC, 61), (SUBMIT, 26), (CORUN, 12), (PLACE, 1)];
/// Ring co-run and placement shapes.
const CORUN_SESSIONS: usize = 4;
const CORUN_SIZES: [u64; 3] = [1 << 20, 4 << 20, 8 << 20];
const PLACE_SESSIONS: usize = 8;
const PLACE_GROUPS: u32 = 2;
const PLACE_CAPACITY: u32 = 4;
/// The shared LLC size placements are searched at (8 MiB, Table II).
const LLC_BYTES: u64 = 8 << 20;

/// Op-kind indexes into [`OP_KINDS`].
const SUBMIT: usize = 0;
const MRC: usize = 1;
const PCMRC: usize = 2;
const MRC_FWD: usize = 3;
const CORUN: usize = 4;
const PLACE: usize = 5;

fn io_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// The running daemons and the session names the workload addresses.
struct Fleet {
    nodes: Vec<ServerHandle>,
    addrs: Vec<String>,
    names: Vec<String>,
    /// Session `i` is owned by node 0, the generator's entry node.
    local: Vec<bool>,
    preloads: Vec<Request>,
}

impl Fleet {
    fn shutdown(self) {
        for n in self.nodes {
            n.shutdown();
        }
    }
}

/// Point a session-addressed load request at `name`.
fn renamed(req: Request, name: &str) -> Request {
    match req {
        Request::Submit { batch, .. } => Request::Submit {
            session: name.into(),
            batch,
        },
        Request::QueryMrc { sizes_bytes, .. } => Request::QueryMrc {
            target: Target::Session(name.into()),
            sizes_bytes,
        },
        other => other,
    }
}

fn load_cfg(spec: &Spec, seed: u64, rate: f64, count: usize) -> LoadConfig {
    LoadConfig {
        seed,
        mix: spec.mix.unwrap_or(OpMix::QueryHeavy),
        rate,
        duration: Duration::from_secs_f64(count as f64 / rate),
        sessions: spec.sessions,
        zipf_s: 0.99,
        ..LoadConfig::default()
    }
}

/// Start the daemons (one worker thread each, every other setting at its
/// default), join the ring and preload every session through node 0.
fn start_fleet(spec: &Spec, seed: u64) -> io::Result<Fleet> {
    let nodes = (0..spec.nodes)
        .map(|_| {
            repf_serve::start(ServeConfig {
                addr: "127.0.0.1:0".into(),
                threads: 1,
                ..ServeConfig::default()
            })
        })
        .collect::<io::Result<Vec<_>>>()?;
    let addrs: Vec<String> = nodes.iter().map(|h| h.addr().to_string()).collect();
    let (names, local): (Vec<String>, Vec<bool>) = if spec.nodes > 1 {
        apply_membership(&addrs, &RingSpec::new(addrs.clone())).map_err(io_err)?;
        // Ports differ per run, so pick names whose owners follow a fixed
        // pattern: session i is local when i % 3 == 1, so about 2/3 of
        // sessions (and of zipf traffic) are forwarded on every run.
        let ring = Ring::new(DEFAULT_RING_SEED, DEFAULT_VNODES, addrs.clone());
        let ix = |a: &String| ring.nodes().iter().position(|n| n == a);
        let owners: Vec<usize> = addrs.iter().filter_map(ix).collect();
        (0..spec.sessions)
            .map(|i| {
                let want = owners[[1, 0, 2][i as usize % 3]];
                let name = (0..10_000)
                    .map(|k| format!("ring-s{i:02}-{k:04}"))
                    .find(|n| ring.owner_index(n) == Some(want))
                    .expect("a name owned by every node exists");
                (name, want == owners[0])
            })
            .unzip()
    } else {
        (
            (0..spec.sessions).map(session_name).collect(),
            vec![true; spec.sessions as usize],
        )
    };
    let cfg = load_cfg(spec, seed, 1.0, 1);
    let mut c = Client::connect(addrs[0].as_str()).map_err(io_err)?;
    c.set_timeout(Some(Duration::from_secs(10)))
        .map_err(io_err)?;
    let mut preloads = Vec::with_capacity(names.len());
    for (i, name) in names.iter().enumerate() {
        let req = renamed(preload_request(&cfg, i as u32), name);
        match c.call(&req).map_err(io_err)? {
            Response::Accepted { .. } => preloads.push(req),
            other => return Err(io_err(format!("preload of {name}: {other:?}"))),
        }
    }
    Ok(Fleet {
        nodes,
        addrs,
        names,
        local,
        preloads,
    })
}

/// One scheduled op: intended send time (ns), kind index, request.
struct Op {
    due_ns: u64,
    kind: usize,
    req: Request,
}

fn zipf_distinct(rng: &mut ReplayRng, zipf: &ZipfGen, k: usize, names: &[String]) -> Vec<String> {
    let mut picked: Vec<u32> = Vec::with_capacity(k);
    while picked.len() < k {
        let s = zipf.draw(rng);
        if !picked.contains(&s) {
            picked.push(s);
        }
    }
    picked.iter().map(|&s| names[s as usize].clone()).collect()
}

/// `count` ops at `rate`, a pure function of the seed and the fleet's
/// session names.
fn schedule(spec: &Spec, fleet: &Fleet, seed: u64, rate: f64, count: usize) -> Vec<Op> {
    if let Some(mix) = spec.mix {
        let cfg = LoadConfig {
            mix,
            ..load_cfg(spec, seed, rate, count)
        };
        return generate_ops(&cfg)
            .into_iter()
            .take(count)
            .map(|op| Op {
                due_ns: op.offset_us * 1_000,
                kind: match op.kind {
                    LoadKind::Mrc => MRC,
                    LoadKind::PcMrc { .. } => PCMRC,
                    LoadKind::Submit | LoadKind::ChurnSubmit { .. } => SUBMIT,
                },
                req: request_for(&op),
            })
            .collect();
    }
    let mut rng = ReplayRng::new(seed);
    let zipf = ZipfGen::new(spec.sessions, 0.99);
    let mut block: Vec<usize> = RING_BLOCK
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
        .collect();
    (0..count)
        .map(|i| {
            let due_ns = (i as f64 * 1e9 / rate) as u64;
            let slot = i % block.len();
            if slot == 0 {
                for j in (1..block.len()).rev() {
                    block.swap(j, rng.below(j as u64 + 1) as usize);
                }
            }
            let (kind, req) = match block[slot] {
                CORUN => {
                    let sessions = zipf_distinct(&mut rng, &zipf, CORUN_SESSIONS, &fleet.names);
                    let req = Request::CoRun {
                        sessions,
                        sizes_bytes: CORUN_SIZES.to_vec(),
                        intensities: Vec::new(),
                    };
                    (CORUN, req)
                }
                PLACE => {
                    let sessions = zipf_distinct(&mut rng, &zipf, PLACE_SESSIONS, &fleet.names);
                    let req = Request::Place {
                        sessions,
                        groups: PLACE_GROUPS,
                        capacity: PLACE_CAPACITY,
                        size_bytes: LLC_BYTES,
                        intensities: Vec::new(),
                    };
                    (PLACE, req)
                }
                k => {
                    let session = zipf.draw(&mut rng);
                    let (kind, load_kind, op_seed) = if k == MRC {
                        let k = if fleet.local[session as usize] {
                            MRC
                        } else {
                            MRC_FWD
                        };
                        (k, LoadKind::Mrc, 0)
                    } else {
                        (SUBMIT, LoadKind::Submit, rng.next_u64())
                    };
                    let op = LoadOp {
                        offset_us: 0,
                        session,
                        kind: load_kind,
                        op_seed,
                    };
                    (
                        kind,
                        renamed(request_for(&op), &fleet.names[session as usize]),
                    )
                }
            };
            Op { due_ns, kind, req }
        })
        .collect()
}

/// One timed phase with the ops it sent.
struct Ran {
    ops: Vec<Op>,
    phase: gen::Phase,
    encode_ns: Vec<u64>,
    req_bytes: u64,
}

/// Encode every op before the clock starts (timed per call), then drive.
fn run_phase(addr: &str, ops: Vec<Op>) -> io::Result<Ran> {
    let mut encode_ns = Vec::with_capacity(ops.len());
    let mut req_bytes = 0u64;
    let plan: Vec<Planned> = ops
        .iter()
        .map(|op| {
            let t = Instant::now();
            let frame = op.req.encode();
            encode_ns.push(t.elapsed().as_nanos() as u64);
            req_bytes += frame.len() as u64;
            Planned {
                due_ns: op.due_ns,
                frame,
            }
        })
        .collect();
    let phase = gen::drive(addr, &plan)?;
    Ok(Ran {
        ops,
        phase,
        encode_ns,
        req_bytes,
    })
}

type Snap = Vec<HashMap<String, f64>>;

/// Every node's `Stats` counters.
fn snapshot(addrs: &[String]) -> io::Result<Snap> {
    addrs
        .iter()
        .map(|a| {
            let mut c = Client::connect(a.as_str()).map_err(io_err)?;
            c.set_timeout(Some(Duration::from_secs(10)))
                .map_err(io_err)?;
            Ok(c.stats().map_err(io_err)?.into_iter().collect())
        })
        .collect()
}

/// One round: a fresh fleet, then the nominal and overload phases.
struct Round {
    seed: u64,
    setup_s: f64,
    /// Set-up, both phases and any snapshots.
    wall_s: f64,
    /// Of `wall_s`, the time spent taking `Stats` snapshots (traced
    /// rounds only): the only work tracing adds to a round.
    trace_s: f64,
    preloads: Vec<Request>,
    nominal: Ran,
    overload: Ran,
    /// `Stats` before the nominal phase, after it, and after overload
    /// (traced rounds only).
    snaps: Option<[Snap; 3]>,
}

/// Run one round. `cpus` is where the daemons and the generator run,
/// when pinned.
fn round(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    cpus: Option<&(CpuSet, CpuSet)>,
) -> io::Result<Round> {
    if let Some((daemons, _)) = cpus {
        affinity::set(daemons);
    }
    let t = Instant::now();
    let mut fleet = start_fleet(spec, seed)?;
    let setup_s = t.elapsed().as_secs_f64();
    if let Some((_, generator)) = cpus {
        affinity::set(generator);
    }
    let nominal_n = (spec.nominal_rate * NOMINAL_SHARE * seconds)
        .round()
        .max(1.0) as usize;
    let overload_n = (spec.capacity * OVERLOAD_SHARE * seconds).round().max(1.0) as usize;
    let nominal_ops = schedule(spec, &fleet, seed, spec.nominal_rate, nominal_n);
    let overload_ops = schedule(
        spec,
        &fleet,
        seed ^ OVERLOAD_SALT,
        spec.capacity * OVERLOAD_OFFER,
        overload_n,
    );
    let mut trace_s = 0.0;
    let mut snap = || {
        if traced {
            let t = Instant::now();
            let s = snapshot(&fleet.addrs);
            trace_s += t.elapsed().as_secs_f64();
            s.map(Some)
        } else {
            Ok(None)
        }
    };
    let s0 = snap()?;
    let nominal = run_phase(&fleet.addrs[0], nominal_ops)?;
    let s1 = snap()?;
    let overload = run_phase(&fleet.addrs[0], overload_ops)?;
    let s2 = snap()?;
    let wall_s = t.elapsed().as_secs_f64();
    let preloads = std::mem::take(&mut fleet.preloads);
    fleet.shutdown();
    Ok(Round {
        seed,
        setup_s,
        wall_s,
        trace_s,
        preloads,
        nominal,
        overload,
        snaps: match (s0, s1, s2) {
            (Some(a), Some(b), Some(c)) => Some([a, b, c]),
            _ => None,
        },
    })
}

/// `ROUNDS` rounds over `seconds`, each on a fresh fleet with its own
/// seed derived from `seed`, with the daemons and the generator on CPUs
/// of their own when two are allowed.
fn pass(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> io::Result<Vec<Round>> {
    let allowed = affinity::current();
    let cpus = affinity::split(&allowed);
    let rounds = (0..ROUNDS as u64)
        .map(|r| {
            let round_seed = seed.wrapping_mul(ROUNDS as u64).wrapping_add(r);
            round(
                spec,
                round_seed,
                seconds / ROUNDS as f64,
                traced,
                cpus.as_ref(),
            )
        })
        .collect();
    affinity::set(&allowed);
    rounds
}

/// Does `resp` have the type `req` asks for?
fn kind_ok(req: &Request, resp: &Response) -> bool {
    matches!(
        (req, resp),
        (Request::Submit { .. }, Response::Accepted { .. })
            | (Request::QueryMrc { .. }, Response::Mrc { .. })
            | (Request::QueryPcMrc { .. }, Response::PcMrc { .. })
            | (Request::CoRun { .. }, Response::CoRun { .. })
            | (Request::Place { .. }, Response::Placement { .. })
    )
}

/// What the after-the-window check found.
#[derive(Default)]
struct Checked {
    failed: u64,
    checked: u64,
    decode_ns: Vec<u64>,
    resp_bytes: u64,
}

/// Replay a round's request sequence through the oracle and compare.
/// Every submit is applied; queries are bit-compared (one in
/// `check_one_in`, seeded); every reply is type-checked. Error replies,
/// `Busy` and unanswered ops fail.
fn check(spec: &Spec, r: &Round, out: &mut Checked) {
    let mut oracle = Oracle::new();
    for req in &r.preloads {
        oracle.expected(req);
    }
    let mut rng = ReplayRng::new(r.seed ^ CHECK_SALT);
    for ran in [&r.nominal, &r.overload] {
        for (k, op) in ran.ops.iter().enumerate() {
            let submit = matches!(op.req, Request::Submit { .. });
            let want = if submit || spec.check_one_in <= 1 || rng.below(spec.check_one_in) == 0 {
                oracle.expected(&op.req)
            } else {
                None
            };
            if ran.phase.done_ns[k].is_none() {
                out.failed += 1;
                continue;
            }
            let body = &ran.phase.body[k];
            out.resp_bytes += body.len() as u64 + 4;
            let t = Instant::now();
            let resp = Response::decode(body);
            out.decode_ns.push(t.elapsed().as_nanos() as u64);
            let ok = match (resp, want) {
                (Ok(Response::Busy | Response::Error { .. }) | Err(_), _) => false,
                (Ok(_), Some(w)) => {
                    out.checked += 1;
                    w.encode()[4..] == body[..]
                }
                (Ok(r), None) => kind_ok(&op.req, &r),
            };
            if !ok {
                out.failed += 1;
                if out.failed <= 3 {
                    eprintln!(
                        "perfbench: op {k} ({}) failed: reply {:?}",
                        OP_KINDS[op.kind],
                        Response::decode(body)
                    );
                }
            }
        }
    }
}

fn mean(v: &[u64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<u64>() as f64 / v.len() as f64
    }
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Latencies (ms) of the answered nominal-phase ops from their intended
/// send time, pooled over `rounds`, optionally of one kind only.
fn latencies_ms(rounds: &[Round], kind: Option<usize>) -> Vec<f64> {
    let mut v = Vec::new();
    for r in rounds {
        let ran = &r.nominal;
        v.extend(
            ran.ops
                .iter()
                .zip(&ran.phase.done_ns)
                .filter(|(op, _)| kind.is_none_or(|k| op.kind == k))
                .filter_map(|(op, d)| d.map(|d| d.saturating_sub(op.due_ns) as f64 / 1e6)),
        );
    }
    sorted(v)
}

/// Service times (ms, reply minus actual send) of the nominal phases.
fn service_ms(rounds: &[Round]) -> Vec<f64> {
    let mut v = Vec::new();
    for r in rounds {
        let ph = &r.nominal.phase;
        v.extend(
            ph.done_ns
                .iter()
                .zip(&ph.sent_ns)
                .filter_map(|(d, s)| d.map(|d| d.saturating_sub(*s) as f64 / 1e6)),
        );
    }
    sorted(v)
}

/// Sum of `key`'s change over `nodes` between two snapshots.
fn delta(a: &Snap, b: &Snap, nodes: std::ops::Range<usize>, key: &str) -> f64 {
    nodes
        .map(|n| b[n].get(key).unwrap_or(&0.0) - a[n].get(key).unwrap_or(&0.0))
        .sum()
}

/// Handler-time total (µs) and count of class `c` on node 0 between two
/// snapshots, from the cumulative count and mean.
fn handled(a: &Snap, b: &Snap, c: &str) -> (f64, f64) {
    let get = |s: &Snap, k: &str| *s[0].get(&format!("latency.{c}.{k}")).unwrap_or(&0.0);
    let n = get(b, "count") - get(a, "count");
    let total = get(b, "count") * get(b, "mean_us") - get(a, "count") * get(a, "mean_us");
    (total, n)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn generator_bound(spec: &Spec, lag_ms: f64) -> bool {
    lag_ms > GEN_BOUND_GAPS * 1e3 / spec.nominal_rate
}

fn max_lag_ms(rounds: &[Round]) -> f64 {
    rounds
        .iter()
        .map(|r| r.nominal.phase.send_lag_max_ns as f64 / 1e6)
        .fold(0.0, f64::max)
}

/// The per-layer values of a traced pass.
fn layers(v: &mut Values, spec: &Spec, rounds: &[Round], c: &Checked) {
    let lag_ms = max_lag_ms(rounds);
    v.put("gen.send_lag_max_ms", lag_ms);
    v.put("gen.service_p99_ms", quantile(&service_ms(rounds), 0.99));
    v.put(
        "gen.bound",
        f64::from(u8::from(generator_bound(spec, lag_ms))),
    );
    for (k, name) in OP_KINDS.iter().enumerate() {
        let lat = latencies_ms(rounds, Some(k));
        v.put(format!("op.{name}.p50_ms"), quantile(&lat, 0.5));
        v.put(format!("op.{name}.p99_ms"), quantile(&lat, 0.99));
        v.put(format!("op.{name}.count"), lat.len() as f64);
    }
    let phases = || rounds.iter().flat_map(|r| [&r.nominal, &r.overload]);
    let ops: usize = phases().map(|p| p.ops.len()).sum();
    let encode: Vec<u64> = phases().flat_map(|p| p.encode_ns.iter().copied()).collect();
    let req_bytes: u64 = phases().map(|p| p.req_bytes).sum();
    v.put("proto.encode_ns", mean(&encode));
    v.put("proto.decode_ns", mean(&c.decode_ns));
    v.put("proto.req_bytes", ratio(req_bytes as f64, ops as f64));
    v.put(
        "proto.resp_bytes",
        ratio(c.resp_bytes as f64, c.decode_ns.len() as f64),
    );
    let snaps: Vec<&[Snap; 3]> = rounds.iter().filter_map(|r| r.snaps.as_ref()).collect();
    // Counter `key` over both phases, summed over the first `nodes` nodes
    // and every round.
    let sum = |nodes: usize, key: &str| -> f64 {
        snaps
            .iter()
            .map(|s| delta(&s[0], &s[2], 0..nodes.min(s[0].len()), key))
            .sum()
    };
    let (mut total, mut count) = (0.0, 0.0);
    for class in HANDLER_CLASSES {
        let (t, n) = snaps
            .iter()
            .map(|s| handled(&s[0], &s[1], class))
            .fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
        total += t;
        count += n;
        v.put(format!("server.handle.{class}.mean_us"), ratio(t, n));
        let p99: Vec<f64> = snaps
            .iter()
            .map(|s| {
                *s[1][0]
                    .get(&format!("latency.{class}.p99_us"))
                    .unwrap_or(&0.0)
            })
            .collect();
        v.put(format!("server.handle.{class}.p99_us"), median(&p99));
    }
    let service = service_ms(rounds);
    let service_us = service.iter().sum::<f64>() * 1e3 / service.len().max(1) as f64;
    v.put("server.residual_us", service_us - ratio(total, count));
    let d = |k: &str| sum(usize::MAX, k);
    v.put(
        "io.frames_per_flush",
        ratio(d("io.batch.flush_frames"), d("io.batch.flushes")),
    );
    v.put(
        "io.frames_per_dispatch",
        ratio(d("io.batch.dispatch_frames"), d("io.batch.dispatch_jobs")),
    );
    let (hits, misses) = (d("model_cache.hits"), d("model_cache.misses"));
    v.put("store.model_hit_ratio", ratio(hits, hits + misses));
    v.put("store.refits", misses);
    let bytes: Vec<f64> = snaps
        .iter()
        .map(|s| {
            s[2].iter()
                .map(|n| n.get("sessions.store_bytes").unwrap_or(&0.0))
                .sum()
        })
        .collect();
    v.put("store.bytes", median(&bytes));
    v.put("store.evictions", d("sessions.evictions"));
    v.put(
        "cluster.forwarded_ratio",
        ratio(sum(1, "cluster.forwarded"), ops as f64),
    );
    v.put("cluster.model_pulls", d("cluster.model.remote_hits"));
    v.put("cluster.peer_requests", d("cluster.peer_requests"));
    let places = phases()
        .flat_map(|p| &p.ops)
        .filter(|o| o.kind == PLACE)
        .count() as f64;
    v.put(
        "placement.nodes_explored",
        ratio(d("placement.nodes_explored"), places),
    );
    v.put("placement.pruned", ratio(d("placement.pruned"), places));
}

/// Per-round values, in round order.
fn per_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}

fn round_p(r: &Round, q: f64) -> f64 {
    quantile(&latencies_ms(std::slice::from_ref(r), None), q)
}

fn capacity(r: &Round) -> f64 {
    r.overload.phase.answered() as f64 / r.overload.phase.wall.as_secs_f64().max(1e-9)
}

/// The end-to-end values: medians over rounds.
fn end_to_end(v: &mut Values, rounds: &[Round]) {
    v.put("p50_ms", median(&per_round(rounds, |r| round_p(r, 0.5))));
    v.put("p99_ms", quantile(&latencies_ms(rounds, None), 0.99));
    v.put("capacity_ops", median(&per_round(rounds, capacity)));
    v.put("setup_s", median(&per_round(rounds, |r| r.setup_s)));
}

/// Each op kind's share of the nominal phases' service time (reply minus
/// actual send), in percent, taken as the kind's median service time
/// times its count: an op queued behind a slow one is not charged for
/// the wait.
fn service_shares(rounds: &[Round]) -> String {
    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); OP_KINDS.len()];
    for r in rounds {
        let (ops, ph) = (&r.nominal.ops, &r.nominal.phase);
        for (k, op) in ops.iter().enumerate() {
            if let Some(d) = ph.done_ns[k] {
                by_kind[op.kind].push(d.saturating_sub(ph.sent_ns[k]) as f64);
            }
        }
    }
    let work: Vec<f64> = by_kind.iter().map(|v| median(v) * v.len() as f64).collect();
    let total = work.iter().sum::<f64>().max(1.0);
    OP_KINDS
        .iter()
        .zip(work)
        .filter(|&(_, w)| w > 0.0)
        .map(|(name, w)| format!("{name}={:.1}", w * 100.0 / total))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Where the daemons and the generator ran.
fn placement() -> String {
    match affinity::split(&affinity::current()) {
        Some((daemons, generator)) => format!(
            "daemons on cpu {:?}, generator on cpu {:?}",
            daemons.cpus(),
            generator.cpus()
        ),
        None => "shared".into(),
    }
}

fn provenance(spec: &Spec, rounds: &[Round], c: &Checked) -> Vec<(String, String)> {
    let kinds: Vec<String> = OP_KINDS
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let n = |f: fn(&Round) -> &Ran| -> usize {
                rounds
                    .iter()
                    .map(|r| f(r).ops.iter().filter(|o| o.kind == k).count())
                    .sum()
            };
            format!("{name}={}/{}", n(|r| &r.nominal), n(|r| &r.overload))
        })
        .collect();
    let per_round_n = rounds[0].nominal.ops.len();
    let pooled = per_round_n * rounds.len();
    let fmt = |v: Vec<f64>| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    vec![
        ("nodes".into(), spec.nodes.to_string()),
        ("sessions".into(), spec.sessions.to_string()),
        ("rounds".into(), rounds.len().to_string()),
        ("nominal_rate_ops".into(), spec.nominal_rate.to_string()),
        (
            "overload_offered_ops".into(),
            (spec.capacity * OVERLOAD_OFFER).to_string(),
        ),
        (
            "ops_per_round_overload".into(),
            rounds[0].overload.ops.len().to_string(),
        ),
        ("ops_per_kind_nominal/overload".into(), kinds.join(" ")),
        (
            "service_time_share_pct_nominal".into(),
            service_shares(rounds),
        ),
        ("p50_samples_per_round".into(), per_round_n.to_string()),
        (
            "p50_ms_per_round".into(),
            fmt(per_round(rounds, |r| round_p(r, 0.5))),
        ),
        (
            "p99_samples".into(),
            format!("{} ({} beyond p99)", pooled, beyond(pooled, 0.99)),
        ),
        (
            "capacity_per_round".into(),
            fmt(per_round(rounds, capacity)),
        ),
        ("oracle_bit_compared".into(), c.checked.to_string()),
        ("cpus".into(), placement()),
        (
            "generator".into(),
            format!(
                "{} thread, {} connection, window {}",
                gen::THREADS,
                gen::CONNECTIONS,
                gen::WINDOW
            ),
        ),
        (
            "generator_bound".into(),
            generator_bound(spec, max_lag_ms(rounds)).to_string(),
        ),
    ]
}

/// Run one serving workload: one pass over `seconds`, traced or not.
/// Both modes run the same rounds on the same seeds; a traced round only
/// adds `Stats` snapshots between phases. `trace.overhead_ratio` is the
/// traced pass's wall time over that wall time less the snapshots, i.e.
/// over what the same pass takes untraced.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> io::Result<Outcome> {
    let spec = spec(kind);
    let mut values = Values::default();
    let mut checked = Checked::default();
    let rounds = pass(&spec, seed, seconds, traced)?;
    let mut attempted = 0u64;
    for r in &rounds {
        attempted += (r.nominal.ops.len() + r.overload.ops.len()) as u64;
        check(&spec, r, &mut checked);
    }
    if traced {
        layers(&mut values, &spec, &rounds, &checked);
        let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
        let traced_s: f64 = rounds.iter().map(|r| r.trace_s).sum();
        values.put("trace.overhead_ratio", ratio(wall, wall - traced_s));
    }
    end_to_end(&mut values, &rounds);
    Ok(Outcome {
        provenance: provenance(&spec, &rounds, &checked),
        values,
        attempted,
        failed: checked.failed,
    })
}
