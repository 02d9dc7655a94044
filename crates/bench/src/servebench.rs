//! Loopback throughput/latency benchmark for the `repf-serve` daemon:
//! concurrent clients hammer MRC and plan queries over real TCP and the
//! run is summarized (client-side req/s, server-side p50/p99) into
//! `BENCH_serve.json`.
//!
//! Two configurations are measured in the same run:
//!
//! * **baseline** — `--shards 1 --no-model-cache`: the pre-sharding
//!   architecture where every query refits the session's StatStack model
//!   from scratch behind one global mutex;
//! * **tuned** — the defaults: sharded store + version-keyed model cache.
//!
//! The multi-session contention scenario (K clients, each hammering its
//! own session) runs against both, and the report carries the scaling
//! ratio plus the model-cache hit/miss counters so the win stays visible
//! in the perf trajectory.
//!
//! A third scenario, **replay**, times the deterministic record/replay
//! harness itself: one generated trace replayed against 1 and 3 loopback
//! nodes with full oracle checking (both must be clean and digest-equal)
//! plus a check-off run for the divergence-check overhead ratio.
//!
//! A fourth scenario, **idle_conns**, is the resource-efficiency pitch
//! in miniature: a herd of idle connections parks on the daemon while
//! one client runs MRC queries, measured once per `--io-mode`. It
//! records the daemon's thread-count delta (epoll: one I/O thread + the
//! worker pool, regardless of herd size; threads: one OS thread per
//! parked socket) and the client-observed active-request p50/p99, which
//! must not regress under epoll.
//!
//! A fifth scenario, **sustained_load**, drives the open-loop zipf/YCSB
//! load generator (`repf_serve::loadgen`) against fresh epoll daemons:
//! per op mix and per connection-herd size it sweeps the target arrival
//! rate and records throughput-vs-latency curves with
//! coordinated-omission-safe (intended-start-time) p50/p99/p999.
//!
//! A sixth scenario, **cluster_fanout**, installs a 3-node consistent-
//! hash ring, fans the same zipf load out over it (every op routed to
//! its session's ring owner), and records the fleet-wide `model_cache`
//! hit ratio, forwarded/remote-hit counters, and — after draining one
//! node mid-fleet — the per-session migration pause p50/p99 from the
//! drained daemon's `latency.migration.*` histogram.
//!
//! Knobs: `REPF_SERVE_ITERS` (queries per client per class, default 200),
//! `REPF_SERVE_CLIENTS` (concurrent clients, default 4),
//! `REPF_SERVE_SESSIONS` (contention clients = distinct sessions,
//! default 8), `REPF_REPLAY_SESSIONS` / `REPF_REPLAY_ROUNDS` (replay
//! trace shape, defaults 6 / 4), `REPF_IDLE_CONNS` / `REPF_IDLE_ITERS`
//! (idle-herd size and active queries, defaults 1000 / 300),
//! `REPF_LOAD_CONNS` / `REPF_LOAD_RATES` (comma-separated sweep lists,
//! defaults `1000,8000` and `2000,6000`), `REPF_LOAD_SECS` /
//! `REPF_LOAD_SESSIONS` (schedule length and zipf session pool,
//! defaults 2 / 16).

use crate::obs::Json;
use repf_sampling::{Profile, ReuseSample, StrideSample};
use repf_serve::{
    apply_membership, generate_trace, replay_spawned, run_load, start, Client, GenConfig, IoMode,
    LoadConfig, LoadReport, MachineId, OpMix, ReplayConfig, ReplayReport, RingSpec, ServeConfig,
    StorePolicy, Target, DEFAULT_RING_SEED, DEFAULT_VNODES,
};
use repf_sim::Exec;
use repf_trace::{AccessKind, Pc};
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A profile representative of a real sampling pass: a few thousand
/// samples over a handful of PCs, one of them a delinquent strided load.
fn bench_profile() -> Profile {
    let mut p = Profile {
        total_refs: 10_000_000,
        sample_period: 1009,
        line_bytes: 64,
        ..Profile::default()
    };
    for i in 0..3000u64 {
        let pc = Pc(100 + (i % 6) as u32);
        p.reuse.push(ReuseSample {
            start_pc: pc,
            start_kind: AccessKind::Load,
            end_pc: pc,
            end_kind: AccessKind::Load,
            // Two hot PCs miss everywhere, the rest mostly hit.
            distance: if i % 6 < 2 { 800_000 + i * 100 } else { 5 + i % 40 },
            start_index: i * 3000,
        });
        p.strides.push(StrideSample {
            pc,
            kind: AccessKind::Load,
            stride: if i % 6 < 2 { 64 } else { 8 },
            recurrence: 12,
        });
    }
    p
}

const SIZES: [u64; 6] = [32 << 10, 128 << 10, 512 << 10, 1 << 20, 4 << 20, 8 << 20];
const DELTA: f64 = 4.0;

struct ClassResult {
    reqs: u64,
    secs: f64,
}

impl ClassResult {
    fn req_per_s(&self) -> f64 {
        if self.secs > 0.0 {
            self.reqs as f64 / self.secs
        } else {
            0.0
        }
    }
}

/// Time `iters` queries of one class from each of `clients` concurrent
/// connections; client `i` targets the session named by `session(i)`.
/// Returns aggregate request count and wall time.
fn hammer_sessions(
    addr: std::net::SocketAddr,
    clients: usize,
    iters: usize,
    session: impl Fn(usize) -> String,
    query: impl Fn(&mut Client, &Target) + Send + Sync + Copy + 'static,
) -> ClassResult {
    let start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|i| {
            let name = session(i);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let target = Target::Session(name);
                for _ in 0..iters {
                    query(&mut c, &target);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("bench client");
    }
    ClassResult {
        reqs: (clients * iters) as u64,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// All clients on one shared session.
fn hammer(
    addr: std::net::SocketAddr,
    clients: usize,
    iters: usize,
    query: impl Fn(&mut Client, &Target) + Send + Sync + Copy + 'static,
) -> ClassResult {
    hammer_sessions(addr, clients, iters, |_| "bench".into(), query)
}

/// The multi-session contention scenario: K clients, each hammering MRC
/// queries against its own session, on a server with the given config.
/// Sessions are seeded before the clock starts.
fn contention_run(
    cfg: ServeConfig,
    threads: usize,
    sessions: usize,
    iters: usize,
) -> (ClassResult, Vec<(String, f64)>) {
    let handle = start(ServeConfig { threads, ..cfg }).expect("serve start");
    let addr = handle.addr();
    let mut seed = Client::connect(addr).expect("connect");
    let profile = bench_profile();
    for i in 0..sessions {
        seed.submit_profile(&format!("mix-{i}"), &profile).expect("submit");
    }
    let res = hammer_sessions(addr, sessions, iters, |i| format!("mix-{i}"), |c, t| {
        c.query_mrc(t.clone(), SIZES.to_vec()).expect("mrc");
    });
    let stats = seed.stats().expect("stats");
    seed.shutdown_server().expect("shutdown");
    handle.join();
    (res, stats)
}

struct ReplayRun {
    report: ReplayReport,
    secs: f64,
}

/// Replay one trace against `nodes` spawned loopback daemons and time
/// the whole run (spawn + replay + shutdown — what CI pays).
fn replay_run(trace: &repf_serve::Trace, threads: usize, nodes: usize, check: bool) -> ReplayRun {
    let start = Instant::now();
    let report = replay_spawned(
        nodes,
        trace,
        &ServeConfig {
            threads,
            ..ServeConfig::default()
        },
        &ReplayConfig {
            check,
            ..ReplayConfig::default()
        },
    )
    .expect("replay");
    let secs = start.elapsed().as_secs_f64();
    assert!(
        report.is_clean(),
        "bench replay diverged ({} divergence(s)) — the harness itself is broken",
        report.divergences.len()
    );
    ReplayRun { report, secs }
}

fn replay_json(r: &ReplayRun, nodes: usize, check: bool) -> Json {
    Json::obj([
        ("nodes", Json::Num(nodes as f64)),
        ("check", Json::Num(if check { 1.0 } else { 0.0 })),
        ("requests", Json::Num(r.report.requests as f64)),
        ("checked", Json::Num(r.report.checked as f64)),
        ("secs", Json::Num(r.secs)),
        (
            "req_per_s",
            Json::Num(if r.secs > 0.0 {
                r.report.requests as f64 / r.secs
            } else {
                0.0
            }),
        ),
    ])
}

/// Threads in this process right now (`/proc/self/status`); 0 where
/// that isn't available. Deltas of this around server startup count the
/// daemon's threads exactly, since everything runs in-process.
fn process_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

fn quantile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((q * (sorted_us.len() - 1) as f64).round() as usize).min(sorted_us.len() - 1);
    sorted_us[idx]
}

struct IdleRun {
    daemon_threads: u64,
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
    req_per_s: f64,
}

/// Park `idle` connections on a server in `mode`, then run `iters`
/// active MRC queries from one client, timing each round trip.
fn idle_conns_run(mode: IoMode, threads: usize, idle: usize, iters: usize) -> IdleRun {
    #[cfg(target_os = "linux")]
    repf_serve::poll::raise_nofile_limit((idle + 128) as u64);

    let threads_before = process_threads();
    let handle = start(ServeConfig {
        threads,
        io_mode: mode,
        max_conns: idle + 64,
        ..ServeConfig::default()
    })
    .expect("serve start");
    let addr = handle.addr();

    let parked: Vec<std::net::TcpStream> = (0..idle)
        .map(|_| std::net::TcpStream::connect(addr).expect("park idle conn"))
        .collect();

    let mut c = Client::connect(addr).expect("connect");
    c.submit_profile("idle-bench", &bench_profile()).expect("submit");
    let target = Target::Session("idle-bench".into());
    // Warm the model cache so the measured path is I/O + dispatch.
    c.query_mrc(target.clone(), SIZES.to_vec()).expect("warm");

    let daemon_threads = process_threads().saturating_sub(threads_before);
    let wall = Instant::now();
    let mut lat_us: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            c.query_mrc(target.clone(), SIZES.to_vec()).expect("active mrc");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let secs = wall.elapsed().as_secs_f64();
    let mean_us = lat_us.iter().sum::<f64>() / lat_us.len().max(1) as f64;
    lat_us.sort_by(|a, b| a.total_cmp(b));

    drop(parked);
    c.shutdown_server().expect("shutdown");
    handle.join();

    IdleRun {
        daemon_threads,
        p50_us: quantile(&lat_us, 0.50),
        p99_us: quantile(&lat_us, 0.99),
        mean_us,
        req_per_s: if secs > 0.0 { iters as f64 / secs } else { 0.0 },
    }
}

fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|p| p.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// One sustained-load point: a fresh epoll daemon and the open-loop
/// generator at `rate` with `conns` open sockets.
fn load_point(
    threads: usize,
    mix: OpMix,
    conns: usize,
    rate: f64,
    secs: f64,
    sessions: u32,
) -> LoadReport {
    let handle = start(ServeConfig {
        threads,
        io_mode: IoMode::Epoll,
        max_conns: conns + 64,
        ..ServeConfig::default()
    })
    .expect("serve start");
    let addr = handle.addr();
    let report = run_load(
        &[addr.to_string()],
        &LoadConfig {
            seed: 0x10AD_BE4C,
            mix,
            rate,
            duration: std::time::Duration::from_secs_f64(secs),
            conns,
            sessions,
            ..LoadConfig::default()
        },
    )
    .expect("load run");
    let mut c = Client::connect(addr).expect("connect");
    c.shutdown_server().expect("shutdown");
    handle.join();
    report
}

/// One store-policy A/B side: a fresh daemon with a deliberately tight
/// session budget and the given eviction policy, hit with the seeded
/// `scan-churn` load (zipf queries at s=0.99 polluted by a 10% stream
/// of one-shot submits). Same seed, same budget, same schedule for both
/// policies — the only variable is admission.
fn store_policy_point(
    threads: usize,
    policy: StorePolicy,
    budget_bytes: usize,
    rate: f64,
    secs: f64,
    sessions: u32,
) -> LoadReport {
    let handle = start(ServeConfig {
        threads,
        io_mode: IoMode::Epoll,
        session_budget_bytes: budget_bytes,
        // One shard: the scenario compares eviction policies, not shard
        // scaling, and a single slice keeps the byte pressure exact.
        shards: 1,
        store_policy: Some(policy),
        ..ServeConfig::default()
    })
    .expect("serve start");
    let addr = handle.addr();
    let report = run_load(
        &[addr.to_string()],
        &LoadConfig {
            seed: 0x10AD_0CA5,
            mix: OpMix::ScanChurn,
            rate,
            duration: std::time::Duration::from_secs_f64(secs),
            conns: 16,
            sessions,
            ..LoadConfig::default()
        },
    )
    .expect("store-policy load run");
    let mut c = Client::connect(addr).expect("connect");
    c.shutdown_server().expect("shutdown");
    handle.join();
    report
}

fn store_policy_side_json(r: &LoadReport) -> Json {
    let s = r.server.unwrap_or_default();
    Json::obj([
        ("point", load_point_json(r)),
        ("unknown", Json::Num(r.unknown as f64)),
        ("query_hits", Json::Num(r.query_hits as f64)),
        (
            "session_hit_ratio",
            r.session_hit_ratio().map_or(Json::Null, Json::Num),
        ),
        ("sessions_evictions", Json::Num(s.evictions as f64)),
        ("model_cache_hits", Json::Num(s.model_cache_hits as f64)),
        (
            "model_cache_misses",
            Json::Num(s.model_cache_misses as f64),
        ),
        (
            "admission_accepted",
            Json::Num(s.admission_accepted as f64),
        ),
        (
            "admission_rejected",
            Json::Num(s.admission_rejected as f64),
        ),
    ])
}

fn load_point_json(r: &LoadReport) -> Json {
    Json::obj([
        ("target_rate", Json::Num(r.cfg.rate)),
        ("achieved_rate", Json::Num(r.achieved_rate())),
        ("sent", Json::Num(r.sent as f64)),
        ("completed", Json::Num(r.completed as f64)),
        ("busy", Json::Num(r.busy as f64)),
        ("errors", Json::Num(r.errors as f64)),
        ("intended_p50_us", Json::Num(r.intended.quantile_us(0.50))),
        ("intended_p99_us", Json::Num(r.intended.quantile_us(0.99))),
        ("intended_p999_us", Json::Num(r.intended.quantile_us(0.999))),
        ("service_p50_us", Json::Num(r.service.quantile_us(0.50))),
        ("service_p99_us", Json::Num(r.service.quantile_us(0.99))),
        ("max_send_lag_us", Json::Num(r.max_send_lag_us as f64)),
    ])
}

/// The cluster fan-out scenario: a 3-node ring, the open-loop zipf load
/// fanned out over it through the same ring, then one node drained live
/// — measuring fleet-wide plan-cache sharing and the migration pause.
fn cluster_fanout_run(threads: usize, rate: f64, secs: f64, sessions: u32) -> Json {
    let handles: Vec<_> = (0..3)
        .map(|_| {
            start(ServeConfig {
                threads,
                ..ServeConfig::default()
            })
            .expect("serve start")
        })
        .collect();
    let members: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
    apply_membership(
        &members,
        &RingSpec {
            seed: DEFAULT_RING_SEED,
            vnodes: DEFAULT_VNODES,
            nodes: members.clone(),
        },
    )
    .expect("install ring");

    let report = run_load(
        &members,
        &LoadConfig {
            seed: 0x0010_ADC1,
            mix: OpMix::QueryHeavy,
            rate,
            duration: std::time::Duration::from_secs_f64(secs),
            conns: 24,
            sessions,
            ..LoadConfig::default()
        },
    )
    .expect("cluster load run");

    let stat_in = |stats: &[(String, f64)], k: &str| {
        stats
            .iter()
            .find(|(name, _)| name == k)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    let mut hits = 0.0;
    let mut misses = 0.0;
    let mut forwarded = 0.0;
    let mut remote_hits = 0.0;
    for m in &members {
        let mut c = Client::connect(m.as_str()).expect("connect");
        let s = c.stats().expect("stats");
        hits += stat_in(&s, "model_cache.hits");
        misses += stat_in(&s, "model_cache.misses");
        forwarded += stat_in(&s, "cluster.forwarded");
        remote_hits += stat_in(&s, "cluster.model.remote_hits");
    }
    let hit_ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };

    // Drain the last node live and read the migration pause histogram
    // off the drained daemon: how long each session was in flight.
    apply_membership(
        &members,
        &RingSpec {
            seed: DEFAULT_RING_SEED,
            vnodes: DEFAULT_VNODES,
            nodes: members[..2].to_vec(),
        },
    )
    .expect("drain third node");
    let mut drained = Client::connect(members[2].as_str()).expect("connect drained");
    let dstats = drained.stats().expect("stats");
    let migrated = stat_in(&dstats, "cluster.migrations.sessions");
    let pause_p50 = stat_in(&dstats, "latency.migration.p50_us");
    let pause_p99 = stat_in(&dstats, "latency.migration.p99_us");

    println!(
        "  cluster x3 @ {rate:.0}/s: {:.0}/s achieved, fleet cache hit ratio {:.3} ({:.0}h/{:.0}m), {:.0} forwarded, {:.0} remote model hits; drain moved {:.0} sessions, pause p50 {:>5.0} us p99 {:>5.0} us",
        report.achieved_rate(),
        hit_ratio,
        hits,
        misses,
        forwarded,
        remote_hits,
        migrated,
        pause_p50,
        pause_p99,
    );

    for m in &members {
        let mut c = Client::connect(m.as_str()).expect("connect");
        c.shutdown_server().expect("shutdown");
    }
    for h in handles {
        h.join();
    }

    Json::obj([
        ("nodes", Json::Num(3.0)),
        ("point", load_point_json(&report)),
        ("model_cache_hits", Json::Num(hits)),
        ("model_cache_misses", Json::Num(misses)),
        ("model_cache_hit_ratio", Json::Num(hit_ratio)),
        ("cluster_forwarded", Json::Num(forwarded)),
        ("cluster_model_remote_hits", Json::Num(remote_hits)),
        ("drain_migrated_sessions", Json::Num(migrated)),
        ("migration_pause_p50_us", Json::Num(pause_p50)),
        ("migration_pause_p99_us", Json::Num(pause_p99)),
    ])
}

/// Pinned MAE bound for the co-run scenario: the daemon's analytic
/// shared-LLC prediction vs the cycle-level simulator over the seeded
/// mixes. Mirrors the bound the `mix_behaviour` oracle test pins
/// (measured ~0.005, held with ~10x slack).
const CORUN_MAE_BOUND: f64 = 0.05;

/// The co-run prediction scenario: seeded 4-app mixes run through the
/// cycle-level simulator while their sampled profiles are submitted to
/// a live daemon whose `CoRun` endpoint composes the per-session
/// StatStack models into shared-LLC predictions. Records predicted vs
/// simulated miss ratio per app slot and the mean absolute error, which
/// must stay under the pinned bound.
fn co_run_scenario(threads: usize, n_mixes: usize, seed: u64) -> Json {
    use repf_sim::{amd_phenom_ii, generate_mixes, run_mix, PlanCache, Policy};
    use repf_workloads::{BuildOptions, InputSet};

    let m = amd_phenom_ii();
    let cache = PlanCache::build(
        &m,
        &BuildOptions {
            refs_scale: 0.3,
            ..Default::default()
        },
    );
    let llc_bytes = m.hierarchy.llc.size_bytes;
    let specs = generate_mixes(n_mixes, seed);

    let handle = start(ServeConfig {
        threads,
        ..ServeConfig::default()
    })
    .expect("serve start");
    let mut c = Client::connect(handle.addr()).expect("connect");

    let mut mixes_json: Vec<Json> = Vec::new();
    let mut abs_err = 0.0f64;
    let mut worst = 0.0f64;
    let mut slots = 0usize;
    for (mi, spec) in specs.iter().enumerate() {
        let names: Vec<String> = (0..4).map(|s| format!("corun-{mi}-{s}")).collect();
        for (s, id) in spec.apps.iter().enumerate() {
            c.submit_profile(&names[s], &cache.get(*id).profile)
                .expect("submit corun session");
        }
        let (per_session, _throughput) = c
            .co_run(names.clone(), vec![llc_bytes], Vec::new())
            .expect("co_run query");
        let sim = run_mix(spec, &m, Policy::Baseline, &cache, [InputSet::Ref; 4], 0.3);
        let mut app_rows: Vec<Json> = Vec::new();
        for s in 0..4 {
            assert_eq!(per_session[s].0, names[s], "reply order preserves request order");
            let predicted = per_session[s].1[0];
            let st = &sim.per_app[s].stats;
            let simulated = st.llc_misses as f64 / st.demand_accesses.max(1) as f64;
            let err = (predicted - simulated).abs();
            abs_err += err;
            worst = worst.max(err);
            slots += 1;
            app_rows.push(Json::obj([
                ("app", Json::str(format!("{:?}", spec.apps[s]))),
                ("predicted_miss_ratio", Json::Num(predicted)),
                ("simulated_miss_ratio", Json::Num(simulated)),
                ("abs_err", Json::Num(err)),
            ]));
        }
        mixes_json.push(Json::obj([
            ("mix", Json::Num(mi as f64)),
            ("apps", Json::Arr(app_rows)),
        ]));
    }
    c.shutdown_server().expect("shutdown");
    handle.join();

    let mae = abs_err / slots.max(1) as f64;
    println!(
        "  co_run x{n_mixes} mixes (seed {seed:#x}): predicted-vs-simulated MAE {mae:.4} (worst {worst:.4}) over {slots} app slots @ {llc_bytes} B LLC",
    );
    assert!(
        mae < CORUN_MAE_BOUND,
        "co-run MAE {mae:.4} exceeds the pinned bound {CORUN_MAE_BOUND}"
    );

    Json::obj([
        ("mixes", Json::Num(n_mixes as f64)),
        ("seed", Json::Num(seed as u32 as f64)),
        ("llc_bytes", Json::Num(llc_bytes as f64)),
        ("mae", Json::Num(mae)),
        ("worst_abs_err", Json::Num(worst)),
        ("mae_bound", Json::Num(CORUN_MAE_BOUND)),
        ("per_mix", Json::Arr(mixes_json)),
    ])
}

/// Required nodes-explored reduction of the pruned+memoized placement
/// search vs brute-force enumeration at N=12, k=4 (the acceptance
/// floor; measured reductions are far larger).
const PLACEMENT_MIN_SPEEDUP: f64 = 5.0;

/// Slack when comparing the searched-best split's *simulated* aggregate
/// miss ratio against the simulated best over all splits: predictions
/// carry per-app MAE ~0.005 (see `CORUN_MAE_BOUND`), so two splits
/// within this aggregate band are indistinguishable to the model.
const PLACEMENT_SIM_TOLERANCE: f64 = 0.1;

/// The placement-search scenario, three parts:
///
/// 1. **Exhaustive equivalence through the daemon**: benchmark profiles
///    are submitted as sessions and `Client::place` answers are compared
///    bit-for-bit (grouping and aggregate miss ratio) against a local
///    `place_exhaustive` over the same profiles, on every seeded
///    instance with N ≤ 8.
/// 2. **Pruning speedup**: at N=12 (the full benchmark pool), G=3, k=4,
///    the branch-and-bound + memoized search must explore ≥5× fewer
///    nodes than brute-force enumeration; both counts, the ratio and
///    wall times are recorded.
/// 3. **Simulator validation**: on seeded 4-app mixes the searched-best
///    2+2 split is checked against the cycle-level simulator — every
///    candidate split is simulated as two 2-core shared-LLC runs, and
///    the searched split's simulated aggregate miss ratio must be
///    within tolerance of the simulated best.
fn placement_scenario(threads: usize, n_mixes: usize, seed: u64) -> Json {
    use repf_sim::{amd_phenom_ii, generate_mixes, CoreSetup, PlanCache, Sim};
    use repf_statstack::{place, place_exhaustive, StatStackModel};
    use repf_trace::TraceSourceExt;
    use repf_workloads::{build, BenchmarkId, BuildOptions, InputSet};

    let m = amd_phenom_ii();
    let cache = PlanCache::build(
        &m,
        &BuildOptions {
            refs_scale: 0.3,
            ..Default::default()
        },
    );
    let llc_bytes = m.hierarchy.llc.size_bytes;
    let pool = BenchmarkId::all();

    // Part 1: daemon answers vs local exhaustive enumeration, N ≤ 8.
    let handle = start(ServeConfig {
        threads,
        ..ServeConfig::default()
    })
    .expect("serve start");
    let mut c = Client::connect(handle.addr()).expect("connect");
    let names: Vec<String> = pool.iter().map(|id| format!("place-{id:?}")).collect();
    for (i, id) in pool.iter().enumerate() {
        c.submit_profile(&names[i], &cache.get(*id).profile)
            .expect("submit placement session");
    }
    let models: Vec<StatStackModel> = pool
        .iter()
        .map(|id| StatStackModel::from_profile(&cache.get(*id).profile))
        .collect();
    let mut small_json: Vec<Json> = Vec::new();
    for &(n, g, k) in &[(4u32, 2u32, 2u32), (6, 3, 2), (7, 4, 2), (8, 2, 4), (8, 4, 2)] {
        let subset: Vec<String> = names[..n as usize].to_vec();
        let (groups, total, _tp, (nodes, pruned)) = c
            .place(subset.clone(), g, k, llc_bytes, Vec::new())
            .expect("place query");
        let refs: Vec<&StatStackModel> = models[..n as usize].iter().collect();
        let weights: Vec<f64> = refs.iter().map(|m| m.sample_count() as f64).collect();
        let brute = place_exhaustive(&refs, &weights, g, k, llc_bytes);
        let brute_groups: Vec<Vec<String>> = brute
            .groups
            .iter()
            .map(|grp| grp.iter().map(|&i| subset[i].clone()).collect())
            .collect();
        assert_eq!(
            groups, brute_groups,
            "searched-best differs from exhaustive at N={n} G={g} k={k}"
        );
        assert_eq!(
            total.to_bits(),
            brute.total_miss_ratio.to_bits(),
            "searched-best cost differs from exhaustive at N={n} G={g} k={k}"
        );
        small_json.push(Json::obj([
            ("n", Json::Num(f64::from(n))),
            ("groups", Json::Num(f64::from(g))),
            ("capacity", Json::Num(f64::from(k))),
            ("nodes_explored", Json::Num(nodes as f64)),
            ("pruned", Json::Num(pruned as f64)),
            ("brute_nodes", Json::Num(brute.nodes_explored as f64)),
            ("total_miss_ratio", Json::Num(total)),
        ]));
    }
    c.shutdown_server().expect("shutdown");
    handle.join();

    // Part 2: pruning + memoization vs brute force at N=12, k=4, G=3.
    let refs: Vec<&StatStackModel> = models.iter().collect();
    let weights: Vec<f64> = refs.iter().map(|m| m.sample_count() as f64).collect();
    let t0 = Instant::now();
    let pruned_run = place(&refs, &weights, 3, 4, llc_bytes, threads);
    let pruned_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let brute_run = place_exhaustive(&refs, &weights, 3, 4, llc_bytes);
    let brute_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        pruned_run.total_miss_ratio.to_bits(),
        brute_run.total_miss_ratio.to_bits(),
        "pruned search must find the brute-force optimum"
    );
    let node_reduction = brute_run.nodes_explored as f64 / pruned_run.nodes_explored.max(1) as f64;
    assert!(
        node_reduction >= PLACEMENT_MIN_SPEEDUP,
        "nodes-explored reduction {node_reduction:.1}x below the {PLACEMENT_MIN_SPEEDUP}x floor \
         ({} pruned vs {} brute)",
        pruned_run.nodes_explored,
        brute_run.nodes_explored
    );

    // Part 3: searched-best 2+2 splits vs the cycle-level simulator.
    let specs = generate_mixes(n_mixes, seed);
    let simulate_group = |apps: &[BenchmarkId]| -> f64 {
        let setups: Vec<CoreSetup> = apps
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let opts = BuildOptions {
                    input: InputSet::Ref,
                    addr_offset: ((i + 1) as u64) << 45,
                    refs_scale: 0.3,
                };
                let w = build(id, &opts);
                CoreSetup {
                    base_cpr: w.base_cpr,
                    target_refs: w.nominal_refs,
                    source: Box::new(w.cycle()),
                    plan: None,
                    hw: None,
                }
            })
            .collect();
        Sim::run_mix(&m, setups)
            .iter()
            .map(|o| o.stats.llc_misses as f64 / o.stats.demand_accesses.max(1) as f64)
            .sum()
    };
    let splits: [([usize; 2], [usize; 2]); 3] =
        [([0, 1], [2, 3]), ([0, 2], [1, 3]), ([0, 3], [1, 2])];
    let mut mixes_json: Vec<Json> = Vec::new();
    for (mi, spec) in specs.iter().enumerate() {
        let mix_models: Vec<StatStackModel> = spec
            .apps
            .iter()
            .map(|id| StatStackModel::from_profile(&cache.get(*id).profile))
            .collect();
        let mix_refs: Vec<&StatStackModel> = mix_models.iter().collect();
        let mix_weights: Vec<f64> = mix_refs.iter().map(|m| m.sample_count() as f64).collect();
        let best = place(&mix_refs, &mix_weights, 2, 2, llc_bytes, threads);
        let searched: Vec<Vec<usize>> = best.groups.clone();
        let mut split_rows: Vec<Json> = Vec::new();
        let mut simulated = Vec::new();
        for (a, b) in &splits {
            let sim_total = simulate_group(&[spec.apps[a[0]], spec.apps[a[1]]])
                + simulate_group(&[spec.apps[b[0]], spec.apps[b[1]]]);
            simulated.push(((a.to_vec(), b.to_vec()), sim_total));
            split_rows.push(Json::obj([
                ("split", Json::str(format!("{a:?}+{b:?}"))),
                ("simulated_total_miss_ratio", Json::Num(sim_total)),
            ]));
        }
        let sim_best = simulated
            .iter()
            .map(|(_, t)| *t)
            .fold(f64::INFINITY, f64::min);
        let searched_sim = simulated
            .iter()
            .find(|((a, b), _)| {
                (searched[0] == *a && searched[1] == *b)
                    || (searched[0] == *b && searched[1] == *a)
            })
            .map(|(_, t)| *t)
            .expect("searched split is one of the three");
        assert!(
            searched_sim <= sim_best + PLACEMENT_SIM_TOLERANCE,
            "mix {mi}: searched split simulates at {searched_sim:.4}, best split at {sim_best:.4}"
        );
        mixes_json.push(Json::obj([
            ("mix", Json::Num(mi as f64)),
            ("apps", Json::str(format!("{:?}", spec.apps))),
            ("searched_split", Json::str(format!("{searched:?}"))),
            ("predicted_total_miss_ratio", Json::Num(best.total_miss_ratio)),
            ("searched_simulated_total", Json::Num(searched_sim)),
            ("best_simulated_total", Json::Num(sim_best)),
            ("splits", Json::Arr(split_rows)),
        ]));
    }

    println!(
        "  placement N=12 G=3 k=4: {} nodes pruned-search vs {} brute ({:.1}x fewer, {} pruned), {:.3}s vs {:.3}s",
        pruned_run.nodes_explored,
        brute_run.nodes_explored,
        node_reduction,
        pruned_run.pruned,
        pruned_secs,
        brute_secs,
    );

    Json::obj([
        ("llc_bytes", Json::Num(llc_bytes as f64)),
        ("small_instances", Json::Arr(small_json)),
        (
            "pruning",
            Json::obj([
                ("n", Json::Num(12.0)),
                ("groups", Json::Num(3.0)),
                ("capacity", Json::Num(4.0)),
                ("nodes_explored", Json::Num(pruned_run.nodes_explored as f64)),
                ("pruned", Json::Num(pruned_run.pruned as f64)),
                ("brute_nodes", Json::Num(brute_run.nodes_explored as f64)),
                ("node_reduction_x", Json::Num(node_reduction)),
                ("search_secs", Json::Num(pruned_secs)),
                ("brute_secs", Json::Num(brute_secs)),
                ("min_speedup", Json::Num(PLACEMENT_MIN_SPEEDUP)),
                (
                    "total_miss_ratio",
                    Json::Num(pruned_run.total_miss_ratio),
                ),
            ]),
        ),
        ("sim_validation", Json::Arr(mixes_json)),
    ])
}

fn idle_json(r: &IdleRun) -> Json {
    Json::obj([
        ("daemon_threads", Json::Num(r.daemon_threads as f64)),
        ("active_p50_us", Json::Num(r.p50_us)),
        ("active_p99_us", Json::Num(r.p99_us)),
        ("active_mean_us", Json::Num(r.mean_us)),
        ("active_req_per_s", Json::Num(r.req_per_s)),
    ])
}

/// Run the loopback benchmark and write `BENCH_serve.json`.
pub fn run() {
    let iters = env_usize("REPF_SERVE_ITERS", 200);
    let clients = env_usize("REPF_SERVE_CLIENTS", 4);
    let sessions = env_usize("REPF_SERVE_SESSIONS", 8);
    let threads = Exec::from_env().threads();

    // Multi-session contention, pre-change architecture vs. tuned
    // defaults, measured back to back in the same process.
    let (multi_base, _) = contention_run(
        ServeConfig {
            shards: 1,
            model_cache: false,
            ..ServeConfig::default()
        },
        threads,
        sessions,
        iters,
    );
    let (multi, multi_stats) = contention_run(ServeConfig::default(), threads, sessions, iters);
    let multi_stat = |k: &str| {
        multi_stats
            .iter()
            .find(|(name, _)| name == k)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    let scaling = if multi_base.req_per_s() > 0.0 {
        multi.req_per_s() / multi_base.req_per_s()
    } else {
        0.0
    };

    // Record/replay harness: multi-node determinism cost and the
    // divergence-check overhead, on one generated trace.
    let trace = generate_trace(&GenConfig {
        sessions: env_usize("REPF_REPLAY_SESSIONS", 6) as u32,
        rounds: env_usize("REPF_REPLAY_ROUNDS", 4) as u32,
        ..GenConfig::default()
    });
    let replay_1 = replay_run(&trace, threads, 1, true);
    let replay_3 = replay_run(&trace, threads, 3, true);
    let replay_nocheck = replay_run(&trace, threads, 1, false);
    assert_eq!(
        replay_1.report.digest, replay_3.report.digest,
        "replay digest must be node-count invariant"
    );
    let check_overhead = if replay_nocheck.secs > 0.0 {
        replay_1.secs / replay_nocheck.secs
    } else {
        0.0
    };

    // Idle-connection herd: the epoll loop must hold the herd with a
    // constant handful of threads; the threaded path pays one per conn.
    let idle = env_usize("REPF_IDLE_CONNS", 1000);
    let idle_iters = env_usize("REPF_IDLE_ITERS", 300);
    let idle_epoll = idle_conns_run(IoMode::Epoll, threads, idle, idle_iters);
    let idle_threads = idle_conns_run(IoMode::Threads, threads, idle, idle_iters);

    // Sustained open-loop load: throughput-vs-latency curves per op mix
    // and herd size, with coordinated-omission-safe percentiles.
    // Default herd sizes fit a 20k RLIMIT_NOFILE hard cap (2 fds/conn
    // in-process); push higher (1k/10k/50k) via REPF_LOAD_CONNS where
    // the environment allows.
    let load_conns = env_list("REPF_LOAD_CONNS", &[1000, 8000]);
    let load_rates = env_list("REPF_LOAD_RATES", &[2000, 6000]);
    let load_secs = env_usize("REPF_LOAD_SECS", 2) as f64;
    let load_sessions = env_usize("REPF_LOAD_SESSIONS", 16) as u32;
    // Everything is loopback in-process: each open connection costs two
    // descriptors (client socket + accepted socket), so provision 2x.
    #[cfg(target_os = "linux")]
    repf_serve::poll::raise_nofile_limit(
        (load_conns.iter().copied().max().unwrap_or(0) * 2 + 512) as u64,
    );
    let mut load_curves: Vec<Json> = Vec::new();
    for mix in [OpMix::QueryHeavy, OpMix::Scan] {
        for &conns in &load_conns {
            let mut points: Vec<Json> = Vec::new();
            for &rate in &load_rates {
                let r = load_point(
                    threads,
                    mix,
                    conns,
                    rate as f64,
                    load_secs,
                    load_sessions,
                );
                println!(
                    "  load {mix} x{conns} conns @ {rate}/s: {:.0}/s achieved, intended p50 {:>6.0} us p99 {:>7.0} us p999 {:>7.0} us ({} busy, {} errors)",
                    r.achieved_rate(),
                    r.intended.quantile_us(0.50),
                    r.intended.quantile_us(0.99),
                    r.intended.quantile_us(0.999),
                    r.busy,
                    r.errors,
                );
                points.push(load_point_json(&r));
            }
            load_curves.push(Json::obj([
                ("mix", Json::str(mix.as_str())),
                ("conns", Json::Num(conns as f64)),
                ("points", Json::Arr(points)),
            ]));
        }
    }

    // Store-policy A/B: the same seeded scan-churn schedule against a
    // tight session budget under LRU and under W-TinyLFU. Hit ratio is
    // the fraction of queries answered from a live session; admission
    // must be what makes the difference (rejected > 0), not luck.
    // 48 KiB leaves ~5 KiB of slack over the ~43 KiB preloaded zipf
    // working set: recency alone cannot save the hot tail (a session's
    // inter-touch gap exceeds the churn stream's turnover of the
    // slack), admission can.
    let policy_budget = env_usize("REPF_STORE_POLICY_BUDGET", 48 << 10);
    let policy_rate = *load_rates.last().unwrap() as f64;
    let lru_run = store_policy_point(
        threads,
        StorePolicy::Lru,
        policy_budget,
        policy_rate,
        load_secs,
        load_sessions,
    );
    let lfu_run = store_policy_point(
        threads,
        StorePolicy::TinyLfu,
        policy_budget,
        policy_rate,
        load_secs,
        load_sessions,
    );
    let hit_ratio_of = |r: &LoadReport| r.session_hit_ratio().unwrap_or(0.0);
    assert_eq!(
        lru_run.errors + lfu_run.errors,
        0,
        "store-policy runs must be error-free (evicted sessions count as unknown)"
    );
    assert!(
        lfu_run.server.is_some_and(|s| s.admission_rejected > 0),
        "tinylfu run must exercise the admission filter"
    );
    assert!(
        hit_ratio_of(&lfu_run) > hit_ratio_of(&lru_run),
        "tinylfu session hit ratio ({:.4}) must beat lru ({:.4}) on the same schedule",
        hit_ratio_of(&lfu_run),
        hit_ratio_of(&lru_run),
    );
    println!(
        "  store policy @ {policy_rate:.0}/s, {policy_budget} B budget: tinylfu hit ratio {:.4} ({} unknown, {} evictions, {} rejected) vs lru {:.4} ({} unknown, {} evictions); p99 {:>6.0} vs {:>6.0} us",
        hit_ratio_of(&lfu_run),
        lfu_run.unknown,
        lfu_run.server.map_or(0, |s| s.evictions),
        lfu_run.server.map_or(0, |s| s.admission_rejected),
        hit_ratio_of(&lru_run),
        lru_run.unknown,
        lru_run.server.map_or(0, |s| s.evictions),
        lfu_run.intended.quantile_us(0.99),
        lru_run.intended.quantile_us(0.99),
    );
    let store_policy = Json::obj([
        ("mix", Json::str(OpMix::ScanChurn.as_str())),
        ("budget_bytes", Json::Num(policy_budget as f64)),
        ("target_rate", Json::Num(policy_rate)),
        ("sessions", Json::Num(load_sessions as f64)),
        ("lru", store_policy_side_json(&lru_run)),
        ("tinylfu", store_policy_side_json(&lfu_run)),
        (
            "hit_ratio_delta",
            Json::Num(hit_ratio_of(&lfu_run) - hit_ratio_of(&lru_run)),
        ),
    ]);

    // Cluster fan-out: ring-routed zipf load over 3 nodes, then a live
    // drain — plan-cache sharing and the migration pause, quantified.
    let cluster_fanout = cluster_fanout_run(
        threads,
        load_rates[0] as f64,
        load_secs,
        load_sessions,
    );

    // Co-run prediction accuracy: the daemon's analytic composition vs
    // the cycle-level simulator over seeded 4-app mixes.
    let co_run = co_run_scenario(threads, env_usize("REPF_CORUN_MIXES", 3), 0x005E_EDC0);

    // Placement search: exhaustive-equivalence through the daemon,
    // pruning speedup vs brute force, and simulator-checked best splits.
    let placement = placement_scenario(threads, env_usize("REPF_PLACE_MIXES", 2), 0x005E_EDC1);

    let handle = start(ServeConfig {
        threads,
        ..ServeConfig::default()
    })
    .expect("serve start");
    let addr = handle.addr();

    let mut seed = Client::connect(addr).expect("connect");
    seed.submit_profile("bench", &bench_profile()).expect("submit");

    let mrc = hammer(addr, clients, iters, |c, t| {
        c.query_mrc(t.clone(), SIZES.to_vec()).expect("mrc");
    });
    let plan = hammer(addr, clients, iters, |c, t| {
        c.query_plan(t.clone(), MachineId::Amd, DELTA).expect("plan");
    });

    let stats = seed.stats().expect("stats");
    let stat = |k: &str| {
        stats
            .iter()
            .find(|(name, _)| name == k)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    println!(
        "serve loopback: {} threads, {} clients x {} iters",
        threads, clients, iters
    );
    println!(
        "  mrc : {:>8.0} req/s  (server p50 {:>6.0} us, p99 {:>6.0} us)",
        mrc.req_per_s(),
        stat("latency.mrc.p50_us"),
        stat("latency.mrc.p99_us"),
    );
    println!(
        "  plan: {:>8.0} req/s  (server p50 {:>6.0} us, p99 {:>6.0} us)",
        plan.req_per_s(),
        stat("latency.plan.p50_us"),
        stat("latency.plan.p99_us"),
    );
    println!(
        "  mrc x{} sessions: {:>8.0} req/s tuned vs {:>8.0} req/s baseline ({:.2}x, cache {}h/{}m)",
        sessions,
        multi.req_per_s(),
        multi_base.req_per_s(),
        scaling,
        multi_stat("model_cache.hits"),
        multi_stat("model_cache.misses"),
    );
    println!(
        "  replay {} reqs: N=1 {:.3}s, N=3 {:.3}s, no-check {:.3}s ({:.2}x check overhead), digest {:#018x}",
        replay_1.report.requests,
        replay_1.secs,
        replay_3.secs,
        replay_nocheck.secs,
        check_overhead,
        replay_1.report.digest,
    );
    println!(
        "  idle x{}: epoll {} daemon threads (p50 {:>6.0} us, p99 {:>6.0} us) vs threads {} (p50 {:>6.0} us, p99 {:>6.0} us)",
        idle,
        idle_epoll.daemon_threads,
        idle_epoll.p50_us,
        idle_epoll.p99_us,
        idle_threads.daemon_threads,
        idle_threads.p50_us,
        idle_threads.p99_us,
    );

    let class_json = |r: &ClassResult, label: &str| {
        (
            label.to_string(),
            Json::obj([
                ("requests", Json::Num(r.reqs as f64)),
                ("secs", Json::Num(r.secs)),
                ("req_per_s", Json::Num(r.req_per_s())),
                (
                    "server_p50_us",
                    Json::Num(stat(&format!("latency.{label}.p50_us"))),
                ),
                (
                    "server_p99_us",
                    Json::Num(stat(&format!("latency.{label}.p99_us"))),
                ),
                (
                    "server_mean_us",
                    Json::Num(stat(&format!("latency.{label}.mean_us"))),
                ),
            ]),
        )
    };
    let json = Json::Obj(vec![
        (
            "config".into(),
            Json::obj([
                ("server_threads", Json::Num(threads as f64)),
                ("clients", Json::Num(clients as f64)),
                ("iters_per_client", Json::Num(iters as f64)),
                ("mrc_sizes", Json::Num(SIZES.len() as f64)),
            ]),
        ),
        class_json(&mrc, "mrc"),
        class_json(&plan, "plan"),
        (
            "mrc_multi_session".into(),
            Json::obj([
                ("sessions", Json::Num(sessions as f64)),
                ("requests", Json::Num(multi.reqs as f64)),
                ("secs", Json::Num(multi.secs)),
                ("req_per_s", Json::Num(multi.req_per_s())),
                ("baseline_requests", Json::Num(multi_base.reqs as f64)),
                ("baseline_secs", Json::Num(multi_base.secs)),
                ("baseline_req_per_s", Json::Num(multi_base.req_per_s())),
                ("scaling_vs_baseline", Json::Num(scaling)),
                (
                    "model_cache_hits",
                    Json::Num(multi_stat("model_cache.hits")),
                ),
                (
                    "model_cache_misses",
                    Json::Num(multi_stat("model_cache.misses")),
                ),
            ]),
        ),
        (
            "idle_conns".into(),
            Json::obj([
                ("idle", Json::Num(idle as f64)),
                ("active_iters", Json::Num(idle_iters as f64)),
                ("epoll", idle_json(&idle_epoll)),
                ("threads", idle_json(&idle_threads)),
            ]),
        ),
        (
            "sustained_load".into(),
            Json::obj([
                ("duration_secs", Json::Num(load_secs)),
                ("sessions", Json::Num(load_sessions as f64)),
                ("curves", Json::Arr(load_curves)),
            ]),
        ),
        ("store_policy".into(), store_policy),
        ("cluster_fanout".into(), cluster_fanout),
        ("co_run".into(), co_run),
        ("placement".into(), placement),
        (
            "replay".into(),
            Json::obj([
                ("trace_requests", Json::Num(trace.len() as f64)),
                (
                    "digest",
                    Json::Num(replay_1.report.digest as u32 as f64), // low 32 bits (f64-exact)
                ),
                ("one_node", replay_json(&replay_1, 1, true)),
                ("three_nodes", replay_json(&replay_3, 3, true)),
                ("one_node_nocheck", replay_json(&replay_nocheck, 1, false)),
                ("check_overhead_x", Json::Num(check_overhead)),
            ]),
        ),
        (
            "server_stats".into(),
            Json::Obj(
                stats
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ]);
    crate::obs::write_json("BENCH_serve.json", &json);

    seed.shutdown_server().expect("shutdown");
    handle.join();
}
