//! Loopback integration tests: a real server on an ephemeral port, real
//! TCP clients, and bit-identical comparison against direct library
//! calls (`StatStackModel` / `repf_core::analyze`).

use repf_core::analyze;
use repf_sampling::{Profile, ReuseSample, StrideSample};
use repf_serve::proto::{self, PlanWire};
use repf_serve::{start, Client, ClientError, ErrorCode, MachineId, ServeConfig, Target};
use repf_sim::amd_phenom_ii;
use repf_statstack::StatStackModel;
use repf_trace::{AccessKind, Pc};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const SIZES: [u64; 4] = [32 << 10, 256 << 10, 1 << 20, 8 << 20];
const DELTA: f64 = 4.0;

/// A synthetic profile with one hot strided load (PC 100) that misses at
/// every cache size and a short-reuse load (PC 200) that mostly hits.
fn synthetic_profile() -> Profile {
    let mut p = Profile {
        total_refs: 2_000_000,
        sample_period: 1009,
        line_bytes: 64,
        ..Profile::default()
    };
    for i in 0..400u64 {
        p.reuse.push(ReuseSample {
            start_pc: Pc(100),
            start_kind: AccessKind::Load,
            end_pc: Pc(100),
            end_kind: AccessKind::Load,
            distance: 500_000 + i * 1000, // far beyond any cache size
            start_index: i * 4000,
        });
        p.reuse.push(ReuseSample {
            start_pc: Pc(200),
            start_kind: AccessKind::Load,
            end_pc: Pc(200),
            end_kind: AccessKind::Load,
            distance: 3 + (i % 5),
            start_index: i * 4000 + 2000,
        });
        p.strides.push(StrideSample {
            pc: Pc(100),
            kind: AccessKind::Load,
            stride: 64,
            recurrence: 10,
        });
        p.strides.push(StrideSample {
            pc: Pc(200),
            kind: AccessKind::Load,
            stride: 8,
            recurrence: 7,
        });
    }
    p
}

struct Expected {
    mrc: Vec<f64>,
    pc100: Option<Vec<f64>>,
    pc_absent: Option<Vec<f64>>,
    plan: PlanWire,
}

fn expected_for(profile: &Profile) -> Expected {
    let model = StatStackModel::from_profile(profile);
    let mrc = SIZES.iter().map(|&b| model.miss_ratio_bytes(b)).collect();
    let pc100 = model
        .pc_mrc_bytes(Pc(100), &SIZES)
        .map(|c| c.ratios().to_vec());
    let pc_absent = model
        .pc_mrc_bytes(Pc(9999), &SIZES)
        .map(|c| c.ratios().to_vec());
    let cfg = amd_phenom_ii().analysis_config(DELTA);
    let analysis = analyze(profile, &cfg);
    Expected {
        mrc,
        pc100,
        pc_absent,
        plan: PlanWire::from_plan(&analysis.plan, DELTA),
    }
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
    }
}

fn test_config() -> ServeConfig {
    ServeConfig {
        threads: 2,
        queue_depth: 32,
        idle_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    }
}

#[test]
fn concurrent_clients_match_direct_calls_bit_for_bit() {
    let profile = Arc::new(synthetic_profile());
    let expected = Arc::new(expected_for(&profile));
    let handle = start(test_config()).expect("server starts");
    let addr = handle.addr();

    // 8 concurrent clients, each with its own session, all comparing
    // against the directly-computed model/analysis.
    let workers: Vec<_> = (0..8)
        .map(|i| {
            let profile = Arc::clone(&profile);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let session = format!("s{i}");
                let mut c = Client::connect(addr).expect("connect");
                c.set_timeout(Some(Duration::from_secs(30))).unwrap();
                c.ping().expect("ping");
                c.submit_profile(&session, &profile).expect("submit");

                let target = Target::Session(session.clone());
                let mrc = c.query_mrc(target.clone(), SIZES.to_vec()).expect("mrc");
                assert_bits_eq(&mrc, &expected.mrc, "mrc");

                let pc100 = c
                    .query_pc_mrc(target.clone(), 100, SIZES.to_vec())
                    .expect("pc mrc");
                match (&pc100, &expected.pc100) {
                    (Some(g), Some(w)) => assert_bits_eq(g, w, "pc100"),
                    (g, w) => assert_eq!(g.is_some(), w.is_some(), "pc100 presence"),
                }
                let absent = c
                    .query_pc_mrc(target.clone(), 9999, SIZES.to_vec())
                    .expect("absent pc mrc");
                assert_eq!(absent.is_some(), expected.pc_absent.is_some());

                let plan = c.query_plan(target, MachineId::Amd, DELTA).expect("plan");
                assert_eq!(plan, expected.plan, "plan identical to direct analyze");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    // The plan for a session analysis is non-trivial: the hot strided
    // load must have been selected, or the comparison proves nothing.
    assert!(
        !expected.plan.directives.is_empty(),
        "synthetic profile must yield a non-empty plan"
    );

    // Stats reflect the traffic.
    let mut c = Client::connect(addr).unwrap();
    let stats = c.stats().unwrap();
    let get = |k: &str| {
        stats
            .iter()
            .find(|(name, _)| name == k)
            .unwrap_or_else(|| panic!("missing stat {k}"))
            .1
    };
    assert_eq!(get("requests.submit"), 8.0);
    assert_eq!(get("requests.plan"), 8.0);
    assert_eq!(get("requests.mrc"), 8.0);
    assert_eq!(get("requests.pc_mrc"), 16.0);
    assert!(get("latency.mrc.count") >= 24.0);
    // The open-connection gauge books this stats client as open; the 8
    // worker connections may still be mid-teardown, so the gauge sits
    // between 1 and the cumulative accept count. Nothing was shed and
    // no accept failed.
    assert_eq!(get("connections"), 9.0);
    assert!(get("connections.open") >= 1.0, "stats client is open");
    assert!(get("connections.open") <= get("connections"));
    assert_eq!(get("connections.shed"), 0.0);
    assert_eq!(get("accept.errors"), 0.0);

    // Shutdown control message: acknowledged, then the server drains.
    c.shutdown_server().expect("shutdown ack");
    handle.join();
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
        "listener is gone after drain"
    );
}

/// One submit-batch worth of profile for session `s`, round `r` — varied
/// enough that every session and round contributes distinct distances.
fn batch_profile(s: u64, r: u64) -> Profile {
    let mut p = Profile {
        total_refs: 500_000,
        sample_period: 1009,
        line_bytes: 64,
        ..Profile::default()
    };
    for i in 0..120u64 {
        p.reuse.push(ReuseSample {
            start_pc: Pc(100),
            start_kind: AccessKind::Load,
            end_pc: Pc(100),
            end_kind: AccessKind::Load,
            distance: 400_000 + s * 13_001 + r * 997 + i * 731,
            start_index: r * 1_000_000 + i * 4000,
        });
        p.reuse.push(ReuseSample {
            start_pc: Pc(200),
            start_kind: AccessKind::Load,
            end_pc: Pc(200),
            end_kind: AccessKind::Load,
            distance: 2 + ((s + r + i) % 7),
            start_index: r * 1_000_000 + i * 4000 + 2000,
        });
        p.strides.push(StrideSample {
            pc: Pc(100),
            kind: AccessKind::Load,
            stride: 64,
            recurrence: 10,
        });
    }
    p
}

/// Interleaved submits and queries across 8 sessions on a 4-shard server
/// must answer bit-identically to a single-threaded
/// `StatStackModel::from_profile` / `analyze` over each session's
/// concatenated history — the incremental refits and the version-keyed
/// model cache may not change a single bit. Also pins the wire-visible
/// cache behaviour: repeated queries of unchanged sessions report hits.
#[test]
fn interleaved_sessions_match_direct_fits_bit_for_bit() {
    const SESSIONS: u64 = 8;
    const ROUNDS: u64 = 3;
    let handle = start(ServeConfig {
        shards: 4,
        ..test_config()
    })
    .expect("server starts");
    let mut c = Client::connect(handle.addr()).unwrap();
    c.set_timeout(Some(Duration::from_secs(30))).unwrap();

    // Interleave: every round submits one batch to each session, then
    // queries each session's MRC (forcing an incremental refit whose
    // result is only checked against the direct fit at the end).
    for r in 0..ROUNDS {
        for s in 0..SESSIONS {
            c.submit_profile(&format!("m{s}"), &batch_profile(s, r))
                .expect("submit");
        }
        for s in 0..SESSIONS {
            c.query_mrc(Target::Session(format!("m{s}")), SIZES.to_vec())
                .expect("interleaved mrc");
        }
    }

    let cfg = amd_phenom_ii().analysis_config(DELTA);
    for s in 0..SESSIONS {
        // The session's full history, as the store accumulated it.
        let mut concat = batch_profile(s, 0);
        for r in 1..ROUNDS {
            let b = batch_profile(s, r);
            concat.total_refs += b.total_refs;
            concat.reuse.extend(b.reuse);
            concat.dangling.extend(b.dangling);
            concat.strides.extend(b.strides);
        }
        let model = StatStackModel::from_profile(&concat);
        let target = Target::Session(format!("m{s}"));

        let mrc = c.query_mrc(target.clone(), SIZES.to_vec()).unwrap();
        let want: Vec<f64> = SIZES.iter().map(|&b| model.miss_ratio_bytes(b)).collect();
        assert_bits_eq(&mrc, &want, &format!("m{s} mrc"));

        let pc = c.query_pc_mrc(target.clone(), 100, SIZES.to_vec()).unwrap();
        let want_pc = model
            .pc_mrc_bytes(Pc(100), &SIZES)
            .map(|c| c.ratios().to_vec());
        match (&pc, &want_pc) {
            (Some(g), Some(w)) => assert_bits_eq(g, w, &format!("m{s} pc mrc")),
            (g, w) => assert_eq!(g.is_some(), w.is_some(), "m{s} pc presence"),
        }

        let plan = c.query_plan(target, MachineId::Amd, DELTA).unwrap();
        let direct = analyze(&concat, &cfg);
        assert_eq!(
            plan,
            PlanWire::from_plan(&direct.plan, DELTA),
            "m{s} plan identical to direct analyze"
        );
    }

    let stats = c.stats().unwrap();
    let get = |k: &str| {
        stats
            .iter()
            .find(|(name, _)| name == k)
            .unwrap_or_else(|| panic!("missing stat {k}"))
            .1
    };
    // The final per-session mrc + pc-mrc + plan queries hit the fit
    // published by the last interleaved round — the cache works over the
    // wire, and misses stay bounded by the number of invalidations.
    assert!(
        get("model_cache.hits") >= (SESSIONS * 2) as f64,
        "cache hits over the wire"
    );
    assert!(get("model_cache.misses") <= (SESSIONS * ROUNDS) as f64);
    // Per-shard gauges are present and sum within the aggregate budget.
    assert_eq!(get("sessions.shards"), 4.0);
    let shard_sum: f64 = (0..4)
        .map(|i| get(&format!("sessions.shard.{i}.bytes")))
        .sum();
    assert!(shard_sum > 0.0);
    assert!(shard_sum <= ServeConfig::default().session_budget_bytes as f64);
    assert_eq!(
        get("sessions.store_bytes"),
        shard_sum,
        "gauge matches shards"
    );

    c.shutdown_server().unwrap();
    handle.join();
}

/// `CoRun` and `Place` time their model resolution apart from their
/// math: each answered query records one sample in its handler's
/// histogram and one in each of its two stage histograms, and a query
/// refused at resolution records no math.
#[test]
fn co_run_and_place_time_resolution_apart_from_the_math() {
    let handle = start(test_config()).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    let names: Vec<String> = (0..4).map(|s| format!("stage-s{s}")).collect();
    for (s, name) in names.iter().enumerate() {
        c.submit_profile(name, &batch_profile(s as u64, 0)).unwrap();
    }
    c.co_run(names.clone(), SIZES.to_vec(), Vec::new()).unwrap();
    c.place(names.clone(), 2, 2, 8 << 20, Vec::new()).unwrap();
    let unknown = vec![names[0].clone(), "stage-missing".to_string()];
    for refused in [
        c.co_run(unknown.clone(), SIZES.to_vec(), Vec::new())
            .map(drop),
        c.place(unknown, 1, 2, 8 << 20, Vec::new()).map(drop),
    ] {
        match refused {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownSession),
            other => panic!("want UnknownSession, got {other:?}"),
        }
    }
    let stats = c.stats().unwrap();
    let count = |class: &str| {
        let key = format!("latency.{class}.count");
        stats
            .iter()
            .find(|(name, _)| *name == key)
            .unwrap_or_else(|| panic!("missing stat {key}"))
            .1
    };
    for (query, resolve, math) in [
        ("corun", "corun_resolve", "corun_compose"),
        ("placement", "placement_resolve", "placement_search"),
    ] {
        assert_eq!(count(query), 2.0, "{query}");
        assert_eq!(count(resolve), 2.0, "{resolve}");
        assert_eq!(count(math), 1.0, "{math}");
    }
    handle.shutdown();
}

#[test]
fn malformed_frames_get_errors_without_harming_others() {
    let profile = synthetic_profile();
    let handle = start(test_config()).expect("server starts");
    let addr = handle.addr();

    let mut good = Client::connect(addr).unwrap();
    good.set_timeout(Some(Duration::from_secs(30))).unwrap();
    good.submit_profile("good", &profile).unwrap();

    // Bad version byte: frame boundaries stay sound, so the server
    // answers Malformed and keeps the connection alive.
    let mut evil = Client::connect(addr).unwrap();
    evil.set_timeout(Some(Duration::from_secs(30))).unwrap();
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(&2u32.to_le_bytes()).unwrap();
        raw.write_all(&[0xFE, 0x01]).unwrap(); // version 0xFE, type Ping
        let body = proto::read_frame(&mut raw).unwrap().expect("a response");
        match proto::Response::decode(&body).unwrap() {
            proto::Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("want Error, got {other:?}"),
        }
        // Same connection still serves well-formed requests.
        proto::write_frame(&mut raw, &proto::Request::Ping.encode()).unwrap();
        let body = proto::read_frame(&mut raw).unwrap().expect("pong");
        assert_eq!(
            proto::Response::decode(&body).unwrap(),
            proto::Response::Pong
        );
    }

    // Framing violation (length prefix below the minimum): the server
    // answers Malformed and closes that connection only.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(&1u32.to_le_bytes()).unwrap();
        raw.write_all(&[0x01]).unwrap();
        let body = proto::read_frame(&mut raw).unwrap().expect("error frame");
        match proto::Response::decode(&body).unwrap() {
            proto::Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
            other => panic!("want Error, got {other:?}"),
        }
        // The server hangs up; the next read sees EOF.
        let mut probe = [0u8; 1];
        assert_eq!(raw.read(&mut probe).unwrap_or(0), 0, "connection closed");
    }

    // The well-behaved client is unaffected throughout.
    let mrc = good
        .query_mrc(Target::Session("good".into()), SIZES.to_vec())
        .unwrap();
    let model = StatStackModel::from_profile(&profile);
    let want: Vec<f64> = SIZES.iter().map(|&b| model.miss_ratio_bytes(b)).collect();
    assert_bits_eq(&mrc, &want, "good client mrc");
    assert!(evil.ping().is_ok());

    let stats = good.stats().unwrap();
    let malformed = stats
        .iter()
        .find(|(k, _)| k == "malformed")
        .map(|(_, v)| *v)
        .unwrap();
    assert!(malformed >= 2.0, "both hostile frames counted");

    good.shutdown_server().unwrap();
    handle.join();
}

#[test]
fn session_store_budget_holds_under_wire_pressure() {
    let budget = 96 << 10; // fits ~2 synthetic profiles (~45 kB each)
    let handle = start(ServeConfig {
        session_budget_bytes: budget,
        // One shard: the budget is deliberately tiny, and the admission
        // assertions below reason about a single store.
        shards: 1,
        ..test_config()
    })
    .expect("server starts");
    let mut c = Client::connect(handle.addr()).unwrap();
    c.set_timeout(Some(Duration::from_secs(30))).unwrap();

    let profile = synthetic_profile();
    let mut total_evicted = 0u32;
    for i in 0..12 {
        let (store_bytes, evicted) = c.submit_profile(&format!("s{i}"), &profile).unwrap();
        assert!(
            store_bytes <= budget as u64,
            "store ({store_bytes} B) within budget ({budget} B) after submit {i}"
        );
        total_evicted += evicted;
    }
    assert!(total_evicted > 0, "pressure must evict sessions");

    // Every session was submitted once, so no newcomer out-ranks the
    // residents: admission keeps the first sessions that fit and refuses
    // the later ones. Refused sessions answer UnknownSession, live ones
    // still work.
    match c.query_mrc(Target::Session("s11".into()), SIZES.to_vec()) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("s11 should have been refused, got {other:?}"),
    }
    c.query_mrc(Target::Session("s0".into()), SIZES.to_vec())
        .expect("first-admitted session is live");

    let stats = c.stats().unwrap();
    let evictions = stats
        .iter()
        .find(|(k, _)| k == "sessions.evictions")
        .map(|(_, v)| *v)
        .unwrap();
    assert!(evictions >= f64::from(total_evicted));

    c.shutdown_server().unwrap();
    handle.join();
}
