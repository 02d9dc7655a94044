//! Event-loop integration tests: the daemon's readiness-polled epoll
//! loop against real loopback sockets — slow-loris eviction, pipelined
//! requests with server-side partial writes, byte-identical answers
//! with and without an idle-connection herd, and the `max_conns` shed
//! path.

use repf_sampling::{Profile, ReuseSample, StrideSample};
use repf_serve::proto::{self, Request, Response};
use repf_serve::{
    start, Client, MachineId, Ring, ServeConfig, Target, DEFAULT_RING_SEED, DEFAULT_VNODES,
};
use repf_statstack::StatStackModel;
use repf_trace::{AccessKind, Pc};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const SIZES: [u64; 4] = [32 << 10, 256 << 10, 1 << 20, 8 << 20];

fn test_config() -> ServeConfig {
    ServeConfig {
        threads: 2,
        queue_depth: 32,
        idle_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    }
}

/// A small but non-trivial profile (hot strided misser + short-reuse
/// hitter), same shape as the loopback suite's.
fn synthetic_profile() -> Profile {
    let mut p = Profile {
        total_refs: 2_000_000,
        sample_period: 1009,
        line_bytes: 64,
        ..Profile::default()
    };
    for i in 0..200u64 {
        p.reuse.push(ReuseSample {
            start_pc: Pc(100),
            start_kind: AccessKind::Load,
            end_pc: Pc(100),
            end_kind: AccessKind::Load,
            distance: 500_000 + i * 1000,
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
    }
    p
}

fn stat(stats: &[(String, f64)], key: &str) -> f64 {
    stats
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing stat {key}"))
        .1
}

/// A raw connection for hand-written frames, with a read timeout.
fn raw_conn(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s
}

/// Read and decode the next reply frame.
fn next_reply(s: &mut TcpStream) -> Response {
    let body = proto::read_frame(s).unwrap().expect("reply frame");
    Response::decode(&body).unwrap()
}

/// A peer that starts a frame and stalls (slow loris) is evicted after
/// `idle_timeout` even though bytes trickled in, and an entirely silent
/// peer likewise — while an active connection on the same loop keeps
/// being served throughout.
#[test]
fn slow_loris_partial_frames_are_evicted() {
    let handle = start(ServeConfig {
        idle_timeout: Duration::from_millis(400),
        ..test_config()
    })
    .expect("server starts");
    let addr = handle.addr();

    let mut active = Client::connect(addr).unwrap();
    active.set_timeout(Some(Duration::from_secs(30))).unwrap();

    // Loris: a valid length prefix, then one byte every 100 ms — frame
    // progress must NOT extend the idle deadline.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    loris.write_all(&8u32.to_le_bytes()).unwrap();
    // Silent: connects and never writes at all.
    let mut silent = TcpStream::connect(addr).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let start_t = Instant::now();
    let evicted_at = loop {
        // Keep dripping until the server hangs up on us.
        match loris.write_all(&[0x01]) {
            Ok(()) => {}
            Err(_) => break start_t.elapsed(),
        }
        // A hangup can also surface as EOF on read before the write
        // errors (TCP buffering delays write failures).
        let mut probe = [0u8; 1];
        loris
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        match loris.read(&mut probe) {
            Ok(0) => break start_t.elapsed(),
            Ok(_) => panic!("no response frame was due"),
            Err(_) => {} // timeout: still connected
        }
        active.ping().expect("active client survives the loris");
        assert!(
            start_t.elapsed() < Duration::from_secs(8),
            "loris was never evicted"
        );
    };
    assert!(
        evicted_at >= Duration::from_millis(300),
        "evicted before the idle deadline could have passed ({evicted_at:?})"
    );

    // The silent connection is gone too.
    let mut probe = [0u8; 1];
    assert_eq!(silent.read(&mut probe).unwrap_or(0), 0, "silent conn EOF");

    // The active connection never noticed.
    active.ping().expect("active client outlives both evictions");

    active.shutdown_server().unwrap();
    handle.join();
}

/// Pipelined requests on one connection: the client writes a burst of
/// MRC queries with large size lists before reading anything, so the
/// server's responses overrun the socket buffer and must be buffered,
/// partially written, and resumed via write-readiness (deferred `writev`
/// flushes resuming mid-frame, mid-iovec) — in request order,
/// bit-identical to the direct model.
#[test]
fn pipelined_queries_survive_partial_writes_in_order() {
    const BURST: usize = 64;
    const NSIZES: u64 = 5000;
    let profile = synthetic_profile();
    let model = StatStackModel::from_profile(&profile);
    let sizes: Vec<u64> = (0..NSIZES).map(|i| 4096 + i * 640).collect();
    let want: Vec<f64> = sizes.iter().map(|&b| model.miss_ratio_bytes(b)).collect();

    let handle = start(test_config()).expect("server starts");
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    raw.set_nodelay(true).unwrap();

    // Submit the session on the same connection.
    let submit = Request::Submit {
        session: "pipe".into(),
        batch: proto::SampleBatch::from_profile(&profile),
    };
    proto::write_frame(&mut raw, &submit.encode()).unwrap();
    let body = proto::read_frame(&mut raw).unwrap().expect("accepted");
    assert!(matches!(
        Response::decode(&body).unwrap(),
        Response::Accepted { .. }
    ));

    // Burst: ~BURST * NSIZES * 8 B of responses (≈2.5 MB) queue up
    // behind a reader that hasn't started yet.
    let query = Request::QueryMrc {
        target: Target::Session("pipe".into()),
        sizes_bytes: sizes.clone(),
    };
    let frame = query.encode();
    for _ in 0..BURST {
        proto::write_frame(&mut raw, &frame).unwrap();
    }

    for i in 0..BURST {
        let body = proto::read_frame(&mut raw)
            .unwrap()
            .unwrap_or_else(|| panic!("response {i} missing"));
        match Response::decode(&body).unwrap() {
            Response::Mrc { ratios } => {
                assert_eq!(ratios.len(), want.len(), "response {i} length");
                for (j, (g, w)) in ratios.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "response {i} ratio {j}");
                }
            }
            other => panic!("response {i}: want Mrc, got {other:?}"),
        }
    }

    let mut c = Client::connect(handle.addr()).unwrap();
    let stats = c.stats().unwrap();
    assert!(
        stat(&stats, "io.batch.flushes") > 0.0,
        "no deferred flushes recorded"
    );
    c.shutdown_server().unwrap();
    handle.join();
}

/// One connection pipelines five frames in a single write against a
/// four-worker daemon. The frames ahead of the undecodable one leave as
/// one run and the two after it as another, so replies stay in request
/// order even though the runs may land on different workers, the bad
/// frame is answered `Malformed` in its own slot, and a job carries more
/// than one frame.
#[test]
fn pipelined_runs_answer_in_order_around_a_bad_frame() {
    let handle = start(ServeConfig {
        threads: 4,
        ..test_config()
    })
    .expect("server starts");
    // Small enough that all five frames land in one read.
    let mut profile = synthetic_profile();
    profile.reuse.truncate(40);
    profile.strides.truncate(20);
    let submit = Request::Submit {
        session: "s".into(),
        batch: proto::SampleBatch::from_profile(&profile),
    };
    let mrc = Request::QueryMrc {
        target: Target::Session("s".into()),
        sizes_bytes: SIZES.to_vec(),
    };
    let pc_mrc = Request::QueryPcMrc {
        target: Target::Session("s".into()),
        pc: 100,
        sizes_bytes: SIZES.to_vec(),
    };
    // A valid length prefix around a payload no request decodes from.
    let bad = vec![3, 0, 0, 0, proto::PROTO_VERSION, 0x7F, 0];
    let frames = [
        submit.encode(),
        mrc.encode(),
        bad,
        pc_mrc.encode(),
        Request::Ping.encode(),
    ];
    let mut raw = raw_conn(handle.addr());
    raw.write_all(&frames.concat()).unwrap();
    let replies: Vec<Response> = (0..5).map(|_| next_reply(&mut raw)).collect();

    let model = StatStackModel::from_profile(&profile);
    let direct = Response::Mrc {
        ratios: SIZES.iter().map(|&b| model.miss_ratio_bytes(b)).collect(),
    };
    assert!(
        matches!(replies[0], Response::Accepted { .. }),
        "{replies:?}"
    );
    assert_eq!(
        replies[1].encode(),
        direct.encode(),
        "MRC bit-equal to a direct fit"
    );
    assert!(
        matches!(
            replies[2],
            Response::Error {
                code: proto::ErrorCode::Malformed,
                ..
            }
        ),
        "{replies:?}"
    );
    assert!(
        matches!(replies[3], Response::PcMrc { ratios: Some(_) }),
        "{replies:?}"
    );
    assert_eq!(replies[4], Response::Pong);

    let mut c = Client::connect(handle.addr()).unwrap();
    let stats = c.stats().unwrap();
    assert!(
        stat(&stats, "io.batch.dispatch_frames") > stat(&stats, "io.batch.dispatch_jobs"),
        "no job carried more than one frame"
    );
    c.shutdown_server().unwrap();
    handle.join();
}

/// Regression (timer livelock): a connection whose idle/read deadline
/// lapses while responses are still buffered server-side must not stall
/// the event loop. The broken re-arm pushed the same past-due instant
/// back onto the timer heap inside the drain loop, spinning the single
/// I/O thread forever — no flushes, no accepts, total deadlock.
#[test]
fn lapsed_read_deadline_with_buffered_output_does_not_stall_the_loop() {
    const BURST: usize = 8;
    const NSIZES: u64 = 20_000;
    let handle = start(ServeConfig {
        idle_timeout: Duration::from_millis(300),
        ..test_config()
    })
    .expect("server starts");

    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let submit = Request::Submit {
        session: "stall".into(),
        batch: proto::SampleBatch::from_profile(&synthetic_profile()),
    };
    proto::write_frame(&mut raw, &submit.encode()).unwrap();
    proto::read_frame(&mut raw).unwrap().expect("accepted");

    // ~1.2 MB of responses queue behind a reader that hasn't started.
    let query = Request::QueryMrc {
        target: Target::Session("stall".into()),
        sizes_bytes: (0..NSIZES).map(|i| 4096 + i * 64).collect(),
    };
    let frame = query.encode();
    for _ in 0..BURST {
        proto::write_frame(&mut raw, &frame).unwrap();
    }

    // Let the idle deadline lapse while the write buffer is non-empty
    // (eviction is suppressed by the buffered output, so the deadline
    // is due-but-unfireable — exactly the livelock precondition).
    std::thread::sleep(Duration::from_millis(900));

    // The loop must still accept and serve an independent client...
    let mut active = Client::connect(handle.addr()).unwrap();
    active.set_timeout(Some(Duration::from_secs(10))).unwrap();
    active.ping().expect("loop stays responsive during the stalled flush");

    // ...and finish flushing every buffered response.
    for i in 0..BURST {
        let body = proto::read_frame(&mut raw)
            .unwrap()
            .unwrap_or_else(|| panic!("response {i} missing"));
        match Response::decode(&body).unwrap() {
            Response::Mrc { ratios } => assert_eq!(ratios.len(), NSIZES as usize),
            other => panic!("response {i}: want Mrc, got {other:?}"),
        }
    }

    active.shutdown_server().unwrap();
    handle.join();
}

/// A client that half-closes (shutdown(SHUT_WR)) after its request
/// still gets the response: the loop parks read interest on the EOF'd
/// socket instead of spinning on a level-triggered readable-at-EOF fd,
/// and closes once everything owed has been delivered.
#[test]
fn half_closed_connection_still_receives_its_response() {
    let handle = start(test_config()).expect("server starts");
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    proto::write_frame(&mut raw, &Request::Ping.encode()).unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();

    let body = proto::read_frame(&mut raw).unwrap().expect("response");
    assert!(matches!(Response::decode(&body).unwrap(), Response::Pong));
    let mut probe = [0u8; 1];
    assert_eq!(raw.read(&mut probe).unwrap_or(0), 0, "EOF after response");

    let mut c = Client::connect(handle.addr()).unwrap();
    c.shutdown_server().unwrap();
    handle.join();
}

/// Complete frames that arrive coalesced ahead of a bad length prefix
/// are answered before the Malformed error, in order, for a pipelined
/// client that ends with garbage.
#[test]
fn frames_ahead_of_a_bad_prefix_are_answered_before_malformed() {
    let handle = start(test_config()).expect("server starts");
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    // Two valid pings and a poisoned prefix (length 1 < minimum), all
    // in one write so they land in the same readiness event.
    let ping = Request::Ping.encode(); // full frame, prefix included
    let mut bytes = Vec::new();
    for _ in 0..2 {
        bytes.extend_from_slice(&ping);
    }
    bytes.extend_from_slice(&1u32.to_le_bytes());
    raw.write_all(&bytes).unwrap();

    for i in 0..2 {
        let body = proto::read_frame(&mut raw)
            .unwrap()
            .unwrap_or_else(|| panic!("pong {i} missing"));
        match Response::decode(&body).unwrap() {
            Response::Pong => {}
            other => panic!("request {i}: want Pong before the violation, got {other:?}"),
        }
    }
    let body = proto::read_frame(&mut raw).unwrap().expect("error frame");
    match Response::decode(&body).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, proto::ErrorCode::Malformed),
        other => panic!("want Malformed, got {other:?}"),
    }
    let mut probe = [0u8; 1];
    assert_eq!(raw.read(&mut probe).unwrap_or(0), 0, "EOF after the error");

    let mut c = Client::connect(handle.addr()).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "malformed"), 1.0, "violation counted once");
    c.shutdown_server().unwrap();
    handle.join();
}

/// 256 idle connections parked on the event loop while an active client
/// runs the full request mix — and every response byte matches a second
/// daemon, with no idle herd, given the identical sequence. Also pins
/// the `connections.open` gauge.
#[test]
fn idle_connections_do_not_perturb_active_traffic() {
    const IDLE: usize = 256;
    let profile = synthetic_profile();
    let herd = start(test_config()).expect("herd server");
    let quiet = start(test_config()).expect("quiet server");

    // Park idle connections on the herd server only.
    let parked: Vec<TcpStream> = (0..IDLE)
        .map(|_| TcpStream::connect(herd.addr()).unwrap())
        .collect();

    // The same deterministic sequence against both servers, compared as
    // raw response bytes.
    let requests: Vec<Request> = vec![
        Request::Ping,
        Request::Submit {
            session: "a".into(),
            batch: proto::SampleBatch::from_profile(&profile),
        },
        Request::QueryMrc {
            target: Target::Session("a".into()),
            sizes_bytes: SIZES.to_vec(),
        },
        Request::QueryPcMrc {
            target: Target::Session("a".into()),
            pc: 100,
            sizes_bytes: SIZES.to_vec(),
        },
        Request::QueryPcMrc {
            target: Target::Session("a".into()),
            pc: 9999,
            sizes_bytes: SIZES.to_vec(),
        },
        Request::QueryPlan {
            target: Target::Session("a".into()),
            machine: MachineId::Amd,
            delta: 4.0,
        },
        Request::QueryMrc {
            target: Target::Session("missing".into()),
            sizes_bytes: SIZES.to_vec(),
        },
    ];
    let mut ch = Client::connect(herd.addr()).unwrap();
    let mut cq = Client::connect(quiet.addr()).unwrap();
    ch.set_timeout(Some(Duration::from_secs(30))).unwrap();
    cq.set_timeout(Some(Duration::from_secs(30))).unwrap();
    for (i, req) in requests.iter().enumerate() {
        let rh = ch.call_any(req).expect("herd response");
        let rq = cq.call_any(req).expect("quiet response");
        assert_eq!(
            rh.encode(),
            rq.encode(),
            "request {i}: an idle herd must not change a response byte"
        );
    }

    // The gauge sees the parked herd plus the active client.
    let stats = ch.stats().unwrap();
    assert_eq!(stat(&stats, "connections.open"), (IDLE + 1) as f64);
    assert_eq!(stat(&stats, "connections"), (IDLE + 1) as f64);
    assert_eq!(stat(&stats, "connections.shed"), 0.0);

    // Releasing the herd drains the gauge back down.
    drop(parked);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let open = stat(&ch.stats().unwrap(), "connections.open");
        if open == 1.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "connections.open stuck at {open} after closing idle conns"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    ch.shutdown_server().unwrap();
    herd.join();
    cq.shutdown_server().unwrap();
    quiet.join();
}

/// A full pool answers every frame of a run `Busy`, in order. The one
/// worker is held inside a forward to a peer that takes the frame and
/// never answers, and a second connection's ping fills the one-deep
/// queue; a third connection's run of 32 pings then finds no room.
#[test]
fn full_pool_answers_every_frame_of_a_run_busy() {
    let handle = start(ServeConfig {
        threads: 1,
        queue_depth: 1,
        ..test_config()
    })
    .expect("server starts");
    let addr = handle.addr();
    let stuck = TcpListener::bind("127.0.0.1:0").unwrap();
    let nodes = vec![addr.to_string(), stuck.local_addr().unwrap().to_string()];
    let mut admin = Client::connect(addr).unwrap();
    let ring_set = Request::RingSet {
        epoch: 1,
        seed: DEFAULT_RING_SEED,
        vnodes: DEFAULT_VNODES,
        nodes: nodes.clone(),
    };
    admin.call_any(&ring_set).expect("ring installed");
    let ring = Ring::new(DEFAULT_RING_SEED, DEFAULT_VNODES, nodes.clone());
    let remote = (0..)
        .map(|i| format!("remote-{i}"))
        .find(|n| ring.owner(n) == Some(nodes[1].as_str()))
        .unwrap();

    let mut held = raw_conn(addr);
    let query = Request::QueryMrc {
        target: Target::Session(remote),
        sizes_bytes: SIZES.to_vec(),
    };
    held.write_all(&query.encode()).unwrap();
    // Once the forwarded frame reaches the peer, the worker is waiting
    // on a reply that never comes.
    let (mut peer, _) = stuck.accept().unwrap();
    proto::read_frame(&mut peer)
        .unwrap()
        .expect("forwarded frame");
    let mut queued = raw_conn(addr);
    queued.write_all(&Request::Ping.encode()).unwrap();
    let mut refused = raw_conn(addr);
    refused
        .write_all(&Request::Ping.encode().repeat(32))
        .unwrap();
    for i in 0..32 {
        assert_eq!(next_reply(&mut refused), Response::Busy, "reply {i}");
    }

    // Release the worker: the forward fails, then the queued ping runs.
    drop((peer, stuck));
    assert!(matches!(next_reply(&mut held), Response::Error { .. }));
    assert_eq!(next_reply(&mut queued), Response::Pong);
    assert_eq!(stat(&admin.stats().unwrap(), "busy"), 32.0);
    admin.shutdown_server().unwrap();
    handle.join();
}

/// Accepts past `max_conns` are shed with a Busy frame and counted,
/// without disturbing admitted connections.
#[test]
fn max_conns_cap_sheds_with_busy() {
    let handle = start(ServeConfig {
        max_conns: 2,
        ..test_config()
    })
    .expect("server starts");
    let addr = handle.addr();

    let mut c1 = Client::connect(addr).unwrap();
    let mut c2 = Client::connect(addr).unwrap();
    c1.set_timeout(Some(Duration::from_secs(30))).unwrap();
    c2.set_timeout(Some(Duration::from_secs(30))).unwrap();
    // Pings guarantee both connections are admitted (not just queued in
    // the accept backlog) before the third arrives.
    c1.ping().unwrap();
    c2.ping().unwrap();

    let mut third = TcpStream::connect(addr).unwrap();
    third
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let body = proto::read_frame(&mut third)
        .unwrap()
        .expect("shed connections get a Busy frame");
    assert_eq!(Response::decode(&body).unwrap(), Response::Busy);
    let mut probe = [0u8; 1];
    assert_eq!(third.read(&mut probe).unwrap_or(0), 0, "then EOF");

    // Admitted connections are untouched; the books balance.
    c2.ping().unwrap();
    let stats = c1.stats().unwrap();
    assert_eq!(stat(&stats, "connections.shed"), 1.0);
    assert_eq!(stat(&stats, "connections.open"), 2.0);
    assert_eq!(stat(&stats, "connections"), 2.0, "shed conns not counted");

    c1.shutdown_server().unwrap();
    handle.join();
}
