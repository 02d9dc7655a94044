//! Protocol fuzz: seeded random byte mutation of valid frames fed to the
//! decoders must never panic — every outcome is a clean `Ok` or a typed
//! `ProtoError`. 10k cases, no external fuzz dependencies, fully
//! reproducible from the seed. The corpus holds every request and
//! response kind, peer kinds included: the daemon decodes those from any
//! connection.

use repf_sampling::{DanglingSample, ReuseSample, StrideSample};
use repf_serve::proto::{self, DirectiveWire, Request, Response};
use repf_serve::{ErrorCode, MachineId, ModelWire, PlanWire, SampleBatch, Target};
use repf_trace::{AccessKind, Pc};
use repf_workloads::BenchmarkId;
use std::collections::BTreeSet;

/// splitmix64 — the same scheme the replay generator uses.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Valid frames of every request and response type — the mutation corpus.
fn corpus() -> Vec<Vec<u8>> {
    let model = ModelWire {
        line_bytes: 64,
        dangling: 2,
        sorted: vec![1, 5, 9],
        per_pc: vec![(100, 1, vec![1, 5]), (200, 1, vec![9])],
    };
    let nodes: Vec<String> = vec!["127.0.0.1:9001".into(), "127.0.0.1:9002".into()];
    let batch = SampleBatch {
        total_refs: 1000,
        sample_period: 1009,
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
    };
    let reqs = [
        Request::Ping,
        Request::Submit {
            session: "fuzz".into(),
            batch: batch.clone(),
        },
        Request::QueryMrc {
            target: Target::Session("abc".into()),
            sizes_bytes: vec![1024, 65536, 1 << 20],
        },
        Request::QueryPcMrc {
            target: Target::Benchmark(BenchmarkId::Mcf),
            pc: 42,
            sizes_bytes: vec![32768],
        },
        Request::QueryPlan {
            target: Target::Session("p".into()),
            machine: MachineId::Intel,
            delta: 2.25,
        },
        Request::Stats,
        Request::Shutdown,
        Request::CoRun {
            sessions: vec!["a".into(), "b".into(), "c".into()],
            sizes_bytes: vec![32 << 10, 1 << 20],
            intensities: vec![1.0, 2.5, 0.25],
        },
        Request::Place {
            sessions: vec!["a".into(), "b".into(), "c".into(), "d".into()],
            groups: 2,
            capacity: 2,
            size_bytes: 1 << 20,
            intensities: vec![],
        },
        Request::ModelPullCurrent {
            session: "peer-owned".into(),
            cached_version: 7,
            cached_samples: None,
        },
        Request::ModelPullCurrent {
            session: "peer-owned".into(),
            cached_version: 7,
            cached_samples: Some((2096, 17)),
        },
        Request::RingGet,
        Request::RingSet {
            epoch: 3,
            seed: 0xDEAD,
            vnodes: 64,
            nodes: nodes.clone(),
        },
        Request::PeerForward {
            hops: 2,
            frame: Request::Submit {
                session: "forwarded".into(),
                batch: batch.clone(),
            }
            .encode()[4..]
                .to_vec(),
        },
        Request::SessionImport {
            session: "moved".into(),
            version: 4,
            batch: batch.clone(),
            model: Some(model.clone()),
        },
        Request::SessionImport {
            session: "moved-bare".into(),
            version: 1,
            batch,
            model: None,
        },
        Request::ModelPull {
            session: "pulled".into(),
            version: 9,
        },
    ];
    let resps = [
        Response::Pong,
        Response::Accepted {
            store_bytes: 1 << 20,
            evicted: 3,
        },
        Response::Mrc {
            ratios: vec![0.5, 0.25, 0.125],
        },
        Response::PcMrc {
            ratios: Some(vec![1.0, 0.0]),
        },
        Response::Plan(PlanWire {
            delta: 1.5,
            directives: vec![],
        }),
        Response::Plan(PlanWire {
            delta: 2.25,
            directives: vec![DirectiveWire {
                pc: 100,
                distance_bytes: 512,
                stride: 64,
                nta: true,
            }],
        }),
        Response::Stats(vec![("requests.ping".into(), 2.0)]),
        Response::ShuttingDown,
        Response::Busy,
        Response::Error {
            code: ErrorCode::UnknownSession,
            message: "no such session".into(),
        },
        Response::CoRun {
            per_session: vec![("a".into(), vec![0.5, 0.25]), ("b".into(), vec![1.0, 0.0])],
            throughput: vec![1.75, 2.0],
        },
        Response::Placement {
            groups: vec![vec!["a".into(), "c".into()], vec!["b".into(), "d".into()]],
            total_miss_ratio: 0.375,
            throughput: 3.5,
            nodes_explored: 19,
            pruned: 6,
        },
        Response::RingInfo {
            epoch: 3,
            seed: 0xDEAD,
            vnodes: 64,
            nodes,
            self_addr: "127.0.0.1:9001".into(),
        },
        Response::RingAck {
            epoch: 3,
            migrated: 17,
        },
        Response::Imported,
        Response::ModelEntry {
            version: 9,
            model: Some(model),
        },
        Response::ModelEntry {
            version: 9,
            model: None,
        },
        Response::ModelTail {
            version: 10,
            completed: vec![(100, 5), (200, 400_000), (100, 1)],
            dangling: vec![(100, 2), (300, 1)],
        },
    ];
    reqs.iter()
        .map(Request::encode)
        .chain(resps.iter().map(Response::encode))
        .collect()
}

/// Mutate a frame: flip random bytes, truncate, extend, or splice —
/// whatever the seed dictates.
fn mutate(rng: &mut Rng, frame: &[u8]) -> Vec<u8> {
    let mut f = frame.to_vec();
    match rng.below(10) {
        // Flip 1..8 random bytes anywhere (length prefix included).
        0..=4 => {
            for _ in 0..=rng.below(8) {
                if f.is_empty() {
                    break;
                }
                let ix = rng.below(f.len() as u64) as usize;
                f[ix] ^= (rng.next() % 255 + 1) as u8;
            }
        }
        // Truncate at a random point.
        5 | 6 => {
            let keep = rng.below(f.len() as u64 + 1) as usize;
            f.truncate(keep);
        }
        // Extend with random garbage.
        7 => {
            for _ in 0..=rng.below(16) {
                f.push(rng.next() as u8);
            }
        }
        // Overwrite the whole body after the prefix with noise.
        8 => {
            for b in f.iter_mut().skip(4) {
                *b = rng.next() as u8;
            }
        }
        // Pure garbage of random length.
        _ => {
            let n = rng.below(64) as usize;
            f = (0..n).map(|_| rng.next() as u8).collect();
        }
    }
    f
}

#[test]
fn mutated_frames_never_panic_and_fail_cleanly() {
    let corpus = corpus();
    // Sanity: the unmutated corpus decodes (as one of the two
    // directions), or the fuzz run would prove nothing.
    for frame in &corpus {
        let body = &frame[4..];
        assert!(
            Request::decode(body).is_ok() || Response::decode(body).is_ok(),
            "corpus frame must decode"
        );
    }
    // Every kind is in it. The kind byte follows the length prefix and
    // the version byte; reply kinds have the high bit set.
    let kinds: BTreeSet<u8> = corpus.iter().map(|frame| frame[5]).collect();
    assert_eq!(
        kinds.iter().filter(|&&k| k < 0x80).count(),
        15,
        "request kinds"
    );
    assert_eq!(
        kinds.iter().filter(|&&k| k >= 0x80).count(),
        16,
        "response kinds"
    );

    let mut rng = Rng(0xF0CC_5EED);
    let mut decode_ok = 0u64;
    let mut decode_err = 0u64;
    for case in 0..10_000u64 {
        let base = &corpus[rng.below(corpus.len() as u64) as usize];
        let mutated = mutate(&mut rng, base);

        // The raw decoders see the frame body (no length prefix): any
        // result is fine, a panic is the only failure.
        if mutated.len() >= 4 {
            let body = &mutated[4..];
            match Request::decode(body) {
                Ok(_) => decode_ok += 1,
                Err(_) => decode_err += 1,
            }
            match Response::decode(body) {
                Ok(_) => decode_ok += 1,
                Err(_) => decode_err += 1,
            }
        }

        // The framing layer sees the mutated bytes as a stream: must
        // yield a frame, clean EOF, or a typed error — never a panic,
        // never an oversized allocation.
        let mut cursor: &[u8] = &mutated;
        let _ = proto::read_frame(&mut cursor);

        // And the trace loader must reject mutated bytes cleanly too.
        let _ = repf_serve::Trace::read_from(&mut mutated.as_slice());

        let _ = case;
    }
    assert!(decode_err > 0, "mutations must produce decode errors");
    // Some mutations (e.g. extending a frame whose length prefix already
    // bounds the body, or flipping don't-care payload bits) still decode;
    // both outcomes exercised is the point.
    assert!(decode_ok > 0, "some mutations stay decodable");
}

/// Hostile length prefixes through the framing layer: huge counts and
/// sizes must be rejected before any allocation.
#[test]
fn hostile_length_prefixes_are_bounded() {
    let mut rng = Rng(0xBAD_1E0);
    for _ in 0..1_000 {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(rng.next() as u32).to_le_bytes());
        for _ in 0..rng.below(32) {
            frame.push(rng.next() as u8);
        }
        let mut cursor: &[u8] = &frame;
        // Ok(frame), Ok(None), or a typed error — and no multi-GiB
        // allocation (the cap rejects len > MAX_FRAME_BYTES up front).
        let _ = proto::read_frame(&mut cursor);
    }
}

/// Seeded round-trip fuzz of the co-run frames: arbitrary (valid)
/// CoRun requests and replies must encode → decode → re-encode
/// bit-identically, across the whole shape space (0..32 names, long
/// names, empty curves, NaN/Inf/subnormal ratios).
#[test]
fn corun_frames_roundtrip_bit_exactly() {
    let mut rng = Rng(0xC0_2101);
    let arb_name = |rng: &mut Rng| -> String {
        let len = rng.below(24) as usize;
        (0..len)
            .map(|_| (b'a' + (rng.below(26) as u8)) as char)
            .collect()
    };
    let arb_f64 = |rng: &mut Rng| -> f64 {
        match rng.below(8) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::MIN_POSITIVE / 2.0, // subnormal
            3 => 0.0,
            _ => f64::from_bits(rng.next()) % 1.0,
        }
    };
    for case in 0..10_000u64 {
        if case % 2 == 0 {
            let sessions = (0..rng.below(32)).map(|_| arb_name(&mut rng)).collect();
            let sizes_bytes = (0..rng.below(16)).map(|_| rng.next()).collect();
            // Half the frames carry the optional intensity tail, half stay
            // in the legacy shape — both wire forms must round trip.
            let intensities = if rng.below(2) == 0 {
                Vec::new()
            } else {
                (0..1 + rng.below(16)).map(|_| arb_f64(&mut rng)).collect()
            };
            let req = Request::CoRun {
                sessions,
                sizes_bytes,
                intensities,
            };
            let bytes = req.encode();
            let back = Request::decode(&bytes[4..]).expect("valid CoRun decodes");
            assert_eq!(back.encode(), bytes, "case {case}: request round trip");
        } else {
            let per_session = (0..rng.below(8))
                .map(|_| {
                    let curve = (0..rng.below(10)).map(|_| arb_f64(&mut rng)).collect();
                    (arb_name(&mut rng), curve)
                })
                .collect();
            let throughput = (0..rng.below(10)).map(|_| arb_f64(&mut rng)).collect();
            let resp = Response::CoRun {
                per_session,
                throughput,
            };
            let bytes = resp.encode();
            let back = Response::decode(&bytes[4..]).expect("valid CoRun reply decodes");
            assert_eq!(back.encode(), bytes, "case {case}: response round trip");
        }
    }
}

/// Abusive co-run session lists against a live server: duplicates,
/// unknown names, and over-limit lists each get the proper typed error
/// frame — never a panic, a hang, or a connection drop.
#[test]
fn corun_session_list_abuse_gets_typed_errors() {
    use repf_serve::{start, Client, ServeConfig};
    let handle = start(ServeConfig {
        threads: 2,
        queue_depth: 32,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut c = Client::connect(handle.addr()).expect("connect");
    c.set_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();

    let call = |c: &mut Client, sessions: Vec<String>, sizes: Vec<u64>| {
        c.call_any(&Request::CoRun {
            sessions,
            sizes_bytes: sizes,
            intensities: Vec::new(),
        })
        .expect("transport stays healthy")
    };
    let expect_err = |resp: Response, want: ErrorCode, what: &str| match resp {
        Response::Error { code, message } => {
            assert_eq!(code, want, "{what}: {message}");
            assert!(!message.is_empty(), "{what}: message must explain");
        }
        other => panic!("{what}: wanted Error({want:?}), got {other:?}"),
    };

    // Empty session list.
    expect_err(
        call(&mut c, vec![], vec![1 << 20]),
        ErrorCode::Unsupported,
        "empty list",
    );
    // Over the cap: MAX_CORUN_SESSIONS + 1 distinct names.
    let many: Vec<String> = (0..=proto::MAX_CORUN_SESSIONS)
        .map(|i| format!("s{i}"))
        .collect();
    expect_err(
        call(&mut c, many, vec![1 << 20]),
        ErrorCode::Unsupported,
        "over-limit list",
    );
    // Duplicate names are refused before resolution (no session exists,
    // but the duplicate check fires first and deterministically).
    expect_err(
        call(&mut c, vec!["dup".into(), "dup".into()], vec![1 << 20]),
        ErrorCode::Unsupported,
        "duplicate name",
    );
    // Empty size list.
    expect_err(
        call(&mut c, vec!["a".into()], vec![]),
        ErrorCode::Unsupported,
        "empty sizes",
    );
    // Unknown session.
    expect_err(
        call(&mut c, vec!["never-submitted".into()], vec![1 << 20]),
        ErrorCode::UnknownSession,
        "unknown session",
    );
    // Intensity count that disagrees with the session count.
    expect_err(
        c.call_any(&Request::CoRun {
            sessions: vec!["a".into(), "b".into()],
            sizes_bytes: vec![1 << 20],
            intensities: vec![1.0],
        })
        .expect("transport stays healthy"),
        ErrorCode::Unsupported,
        "intensity count mismatch",
    );
    // Placement abuse: degenerate shapes and unknown names get typed
    // errors through the same path.
    let place = |c: &mut Client, sessions: Vec<String>, groups: u32, capacity: u32| {
        c.call_any(&Request::Place {
            sessions,
            groups,
            capacity,
            size_bytes: 1 << 20,
            intensities: Vec::new(),
        })
        .expect("transport stays healthy")
    };
    expect_err(
        place(&mut c, vec!["a".into()], 0, 2),
        ErrorCode::Unsupported,
        "zero groups",
    );
    expect_err(
        place(&mut c, (0..5).map(|i| format!("p{i}")).collect(), 2, 2),
        ErrorCode::Unsupported,
        "sessions do not fit",
    );
    expect_err(
        place(&mut c, vec!["never-submitted".into()], 1, 1),
        ErrorCode::UnknownSession,
        "place unknown session",
    );
    // The connection survived all of it.
    c.ping().expect("server still healthy");
    c.shutdown_server().expect("clean shutdown");
    handle.join();
}
