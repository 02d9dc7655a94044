//! Work bounds per request, over real sockets against a one-worker
//! daemon: the worst wire-legal `Place` and `CoRun` shapes are refused
//! before any model is touched, a `Place` at the tree cap, the slowest
//! `Place` and the widest `CoRun` the caps admit are answered in time,
//! a batch no model can be built from creates no session, and every
//! answer or refusal equals the replay oracle's bytes.

use repf_sampling::ReuseSample;
use repf_serve::proto::{MAX_CORUN_SESSIONS, MAX_PLACE_TREE_NODES, MAX_QUERY_SIZES};
use repf_serve::{
    start, Client, ErrorCode, Oracle, Request, Response, SampleBatch, ServeConfig, ServerHandle,
    Target,
};
use repf_statstack::tree_nodes;
use repf_trace::rng::XorShift64Star;
use repf_trace::{AccessKind, Pc};
use std::time::{Duration, Instant};

/// How long a refused request may take, round trip. Refusals happen
/// before any model is resolved; without the caps these requests ran
/// for seconds (`CoRun` 16 × 150k sizes) to hours (`Place` N=G=k=16).
const REFUSAL_BUDGET: Duration = Duration::from_secs(2);

fn batch(salt: u64) -> SampleBatch {
    let mut b = SampleBatch {
        total_refs: 100_000 + salt,
        sample_period: 1009,
        line_bytes: 64,
        ..SampleBatch::default()
    };
    for i in 0..60u64 {
        b.reuse.push(ReuseSample {
            start_pc: Pc(100),
            start_kind: AccessKind::Load,
            end_pc: Pc(100),
            end_kind: AccessKind::Load,
            distance: 1 + (i * 37 + salt * 1009) % 300_000,
            start_index: i * 1000,
        });
    }
    b
}

/// A one-worker daemon holding `MAX_CORUN_SESSIONS` sessions, with an
/// oracle that saw the same submits.
fn loaded_daemon() -> (ServerHandle, Client, Oracle, Vec<String>) {
    let handle = start(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    })
    .expect("start daemon");
    let mut c = Client::connect(handle.addr()).expect("connect");
    let mut oracle = Oracle::new();
    let names: Vec<String> = (0..MAX_CORUN_SESSIONS).map(|i| format!("b{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        let req = Request::Submit {
            session: name.clone(),
            batch: batch(i as u64),
        };
        oracle.expected(&req);
        c.call_any(&req).expect("submit");
    }
    (handle, c, oracle, names)
}

/// Send `req`, check the reply against the oracle, and return it with
/// its round-trip time.
fn ask(c: &mut Client, oracle: &mut Oracle, req: &Request) -> (Response, Duration) {
    let t = Instant::now();
    let resp = c.call_any(req).expect("transport stays healthy");
    let elapsed = t.elapsed();
    assert_eq!(
        Some(resp.encode()),
        oracle.expected(req).map(|r| r.encode()),
        "daemon and oracle disagree"
    );
    (resp, elapsed)
}

fn assert_refused(resp: &Response, elapsed: Duration, what: &str) {
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::Unsupported,
                ..
            }
        ),
        "{what}: want Unsupported, got {resp:?}"
    );
    assert!(
        elapsed < REFUSAL_BUDGET,
        "{what}: refused after {elapsed:?}"
    );
}

fn place(names: &[String], n: usize, groups: u32, capacity: u32) -> Request {
    Request::Place {
        sessions: names[..n].to_vec(),
        groups,
        capacity,
        size_bytes: 8 << 20,
        intensities: Vec::new(),
    }
}

#[test]
fn oversized_placement_trees_are_refused_and_the_cap_is_answered() {
    let (handle, mut c, mut oracle, names) = loaded_daemon();
    for n in [16usize, 12] {
        let (resp, elapsed) = ask(&mut c, &mut oracle, &place(&names, n, n as u32, n as u32));
        assert_refused(&resp, elapsed, &format!("N=G=k={n}"));
    }

    // The largest tree any wire-legal shape has at or under the cap.
    let mut at_cap = (0u64, 0usize, 0u32, 0u32);
    for n in 1..=MAX_CORUN_SESSIONS {
        for groups in 1..=n as u32 {
            for capacity in 1..=n as u32 {
                let t = tree_nodes(n, groups, capacity);
                if n as u32 <= groups * capacity && t <= MAX_PLACE_TREE_NODES && t > at_cap.0 {
                    at_cap = (t, n, groups, capacity);
                }
            }
        }
    }
    let (tree, n, groups, capacity) = at_cap;
    assert_eq!((tree, n, groups, capacity), (19_356, 11, 6, 2));
    let (resp, _) = ask(&mut c, &mut oracle, &place(&names, n, groups, capacity));
    match resp {
        Response::Placement { nodes_explored, .. } => assert_eq!(nodes_explored, tree),
        other => panic!("at-cap shape must be answered, got {other:?}"),
    }
    // The CI placement smoke's shape stays inside the cap.
    let (resp, _) = ask(&mut c, &mut oracle, &place(&names, 12, 3, 4));
    assert!(
        matches!(resp, Response::Placement { .. }),
        "12 into 3x4: {resp:?}"
    );

    c.ping().expect("daemon still healthy");
    handle.shutdown();
}

#[test]
fn oversized_size_lists_are_refused_before_any_work() {
    let (handle, mut c, mut oracle, names) = loaded_daemon();
    // 16 sessions × 150k sizes used to compute for ~20 s, then send a
    // 20 MB reply the client's own frame cap rejects.
    let huge: Vec<u64> = (0..150_000u64).map(|i| (i + 1) * 64).collect();
    let (resp, elapsed) = ask(
        &mut c,
        &mut oracle,
        &Request::CoRun {
            sessions: names.clone(),
            sizes_bytes: huge.clone(),
            intensities: Vec::new(),
        },
    );
    assert_refused(&resp, elapsed, "CoRun 16 x 150k sizes");

    let over = huge[..MAX_QUERY_SIZES + 1].to_vec();
    let at_cap = huge[..MAX_QUERY_SIZES].to_vec();
    let target = Target::Session(names[0].clone());
    let mrc = |sizes: &[u64]| Request::QueryMrc {
        target: target.clone(),
        sizes_bytes: sizes.to_vec(),
    };
    let pc_mrc = |sizes: &[u64]| Request::QueryPcMrc {
        target: target.clone(),
        pc: 100,
        sizes_bytes: sizes.to_vec(),
    };
    let (resp, elapsed) = ask(&mut c, &mut oracle, &mrc(&over));
    assert_refused(&resp, elapsed, "QueryMrc over the cap");
    let (resp, elapsed) = ask(&mut c, &mut oracle, &pc_mrc(&over));
    assert_refused(&resp, elapsed, "QueryPcMrc over the cap");

    // At the cap the single-model queries answer. (That a co-run reply
    // at the cap fits a frame is checked in the protocol's unit tests.)
    let (resp, _) = ask(&mut c, &mut oracle, &mrc(&at_cap));
    assert!(matches!(resp, Response::Mrc { .. }), "{resp:?}");
    let (resp, _) = ask(&mut c, &mut oracle, &pc_mrc(&at_cap));
    assert!(matches!(resp, Response::PcMrc { .. }), "{resp:?}");

    c.ping().expect("daemon still healthy");
    handle.shutdown();
}

/// How long the widest `CoRun` the caps admit may take, round trip:
/// `MAX_CORUN_SESSIONS` sessions of a few thousand samples each at
/// `MAX_QUERY_SIZES` sizes. With each size counted on its own this
/// request took 2.6 s on a 2-vCPU VM in the test profile; solved in
/// halving order, 0.2–0.3 s.
const WIDEST_CORUN_BUDGET: Duration = Duration::from_secs(2);

/// A submit of `samples` reuse samples shaped like a load generator's
/// for session `s`: a third at 400k–1M lines, and of the rest a quarter
/// at 30k + 7k·s lines (+ up to 3k) and the others at 1–48, so the
/// distances cluster and repeat.
fn clustered_batch(rng: &mut XorShift64Star, s: u64, samples: u64) -> SampleBatch {
    let mut b = SampleBatch {
        total_refs: 1009 * samples,
        sample_period: 1009,
        line_bytes: 64,
        ..SampleBatch::default()
    };
    for i in 0..samples {
        let pc = 100 * (1 + rng.below(3) as u32);
        let distance = if pc == 100 {
            400_000 + rng.below(600_000)
        } else if rng.below(4) == 0 {
            30_000 + 7_000 * s + rng.below(3_000)
        } else {
            1 + rng.below(48)
        };
        b.reuse.push(ReuseSample {
            start_pc: Pc(pc),
            start_kind: AccessKind::Load,
            end_pc: Pc(pc),
            end_kind: AccessKind::Load,
            distance,
            start_index: i * 1009,
        });
    }
    b
}

/// A one-worker daemon holding `MAX_CORUN_SESSIONS` sessions of
/// [`clustered_batch`] submits, with an oracle that saw the same
/// submits, and the generator for what the test draws next.
fn clustered_daemon() -> (ServerHandle, Client, Oracle, Vec<String>, XorShift64Star) {
    let handle = start(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    })
    .expect("start daemon");
    let mut c = Client::connect(handle.addr()).expect("connect");
    let mut oracle = Oracle::new();
    let mut rng = XorShift64Star::new(0x31DE);
    let names: Vec<String> = (0..MAX_CORUN_SESSIONS).map(|i| format!("w{i}")).collect();
    for (s, name) in names.iter().enumerate() {
        // A history of 2,000–5,000 samples, then a few small submits, as
        // a session grows.
        let history = 2_000 + 1_000 * (s as u64 % 4);
        for samples in [history, 16, 16, 16] {
            let req = Request::Submit {
                session: name.clone(),
                batch: clustered_batch(&mut rng, s as u64, samples),
            };
            oracle.expected(&req);
            c.call_any(&req).expect("submit");
        }
    }
    (handle, c, oracle, names, rng)
}

/// How long the slowest `Place` the tree cap admits may take, round
/// trip. Timed in process over every admitted shape, no walk took more
/// than 0.1 s; 15 sessions into 2 groups of 8 at 8 MiB, among the
/// slowest, took 45–65 ms over sessions shaped like these.
const SLOWEST_PLACE_BUDGET: Duration = Duration::from_secs(2);

#[test]
fn the_slowest_admitted_place_is_answered_in_time() {
    let (handle, mut c, mut oracle, names, _) = clustered_daemon();
    let (resp, elapsed) = ask(&mut c, &mut oracle, &place(&names, 15, 2, 8));
    match resp {
        Response::Placement { nodes_explored, .. } => {
            assert_eq!(nodes_explored, tree_nodes(15, 2, 8))
        }
        other => panic!("15 into 2x8 must be answered, got {other:?}"),
    }
    assert!(elapsed < SLOWEST_PLACE_BUDGET, "answered after {elapsed:?}");
    c.ping().expect("daemon still healthy");
    handle.shutdown();
}

#[test]
fn the_widest_corun_is_answered_in_time() {
    let (handle, mut c, mut oracle, names, mut rng) = clustered_daemon();
    // 256 B to 6 MiB, a quarter of them repeats, shuffled.
    let mut sizes: Vec<u64> = (1..=MAX_QUERY_SIZES as u64 * 3 / 4)
        .map(|k| k << 8)
        .collect();
    while sizes.len() < MAX_QUERY_SIZES {
        sizes.push(sizes[rng.below(sizes.len() as u64) as usize]);
    }
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let (resp, elapsed) = ask(
        &mut c,
        &mut oracle,
        &Request::CoRun {
            sessions: names,
            sizes_bytes: sizes,
            intensities: Vec::new(),
        },
    );
    assert!(matches!(resp, Response::CoRun { .. }), "{resp:?}");
    assert!(elapsed < WIDEST_CORUN_BUDGET, "answered after {elapsed:?}");
    c.ping().expect("daemon still healthy");
    handle.shutdown();
}

#[test]
fn zero_line_bytes_submit_is_refused_and_creates_no_session() {
    let handle = start(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    })
    .expect("start daemon");
    let mut c = Client::connect(handle.addr()).expect("connect");
    // Accepted, such a session's first query divided by zero in the one
    // worker, and no reply ever came.
    c.set_timeout(Some(REFUSAL_BUDGET)).expect("timeout");
    let mut oracle = Oracle::new();
    let submit = Request::Submit {
        session: "zero".into(),
        batch: SampleBatch {
            line_bytes: 0,
            ..batch(0)
        },
    };
    oracle.expected(&submit);
    let resp = c.call_any(&submit).expect("submit answered");
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::InconsistentBatch,
                ..
            }
        ),
        "{resp:?}"
    );
    let (resp, _) = ask(
        &mut c,
        &mut oracle,
        &Request::QueryMrc {
            target: Target::Session("zero".into()),
            sizes_bytes: vec![64 << 10],
        },
    );
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::UnknownSession,
                ..
            }
        ),
        "{resp:?}"
    );
    c.ping().expect("the worker still answers");
    handle.shutdown();
}
