//! Peer streams over real sockets: one client run written to node 0 of a
//! 3-node ring in a single write, whose forwards and model pulls leave
//! as one pipelined stream per peer, must answer exactly what sequential
//! execution answers; and a forward that timed out is never sent again.

use repf_sampling::ReuseSample;
use repf_serve::proto::{self, ErrorCode, Request, Response};
use repf_serve::{
    apply_membership, start, Client, Oracle, Ring, RingSpec, SampleBatch, ServeConfig,
    ServerHandle, Target, DEFAULT_RING_SEED, DEFAULT_VNODES,
};
use repf_trace::{AccessKind, Pc};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

const SIZES: [u64; 3] = [64 << 10, 1 << 20, 8 << 20];

fn stat(pairs: &[(String, f64)], name: &str) -> f64 {
    pairs
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("missing stat '{name}'"))
}

fn batch(salt: u64) -> SampleBatch {
    let mut b = SampleBatch {
        total_refs: 100_000 + salt,
        sample_period: 1009,
        line_bytes: 64,
        ..SampleBatch::default()
    };
    for i in 0..40u64 {
        b.reuse.push(ReuseSample {
            start_pc: Pc(100 + (i % 3) as u32 * 100),
            start_kind: AccessKind::Load,
            end_pc: Pc(100 + (i % 3) as u32 * 100),
            end_kind: AccessKind::Load,
            distance: 1 + (i * 37 + salt * 7919) % 500_000,
            start_index: i * 1000,
        });
    }
    b
}

/// Sessions by role: `l*` owned by node 0 (the entry node), `a*` by
/// node 1, `b*` by node 2; `ghost` is owned by node 2 and never created.
const ROLES: [&str; 8] = ["l1", "l2", "a1", "a2", "b1", "b2", "b3", "ghost"];

fn owner_of_role(role: &str) -> usize {
    match role.as_bytes()[0] {
        b'l' => 0,
        b'a' => 1,
        _ => 2,
    }
}

/// A 3-node ring and a session name per role, owned as the role says.
struct Fleet {
    nodes: Vec<ServerHandle>,
    names: Vec<String>,
}

impl Fleet {
    fn start(tag: &str) -> Fleet {
        let nodes: Vec<ServerHandle> = (0..3)
            .map(|_| {
                start(ServeConfig {
                    threads: 1,
                    ..ServeConfig::default()
                })
                .expect("start node")
            })
            .collect();
        let members: Vec<String> = nodes.iter().map(|h| h.addr().to_string()).collect();
        let spec = RingSpec {
            seed: DEFAULT_RING_SEED,
            vnodes: DEFAULT_VNODES,
            nodes: members.clone(),
        };
        apply_membership(&members, &spec).expect("install ring");
        let ring = Ring::new(DEFAULT_RING_SEED, DEFAULT_VNODES, members.clone());
        let names = ROLES
            .iter()
            .map(|role| {
                let want = members[owner_of_role(role)].as_str();
                (0..)
                    .map(|k| format!("{tag}-{role}-{k}"))
                    .find(|n| ring.owner(n) == Some(want))
                    .expect("every node owns some name")
            })
            .collect();
        Fleet { nodes, names }
    }

    fn name(&self, role: &str) -> String {
        self.names[ROLES.iter().position(|r| *r == role).expect("known role")].clone()
    }

    fn stats(&self, node: usize) -> Vec<(String, f64)> {
        let mut c = Client::connect(self.nodes[node].addr()).expect("connect");
        c.stats().expect("stats")
    }

    /// Every session but `ghost` gets one batch, through node 0.
    fn preload(&self) -> Vec<Request> {
        let mut c = Client::connect(self.nodes[0].addr()).expect("connect");
        let mut sent = Vec::new();
        for (i, role) in ROLES.iter().enumerate().filter(|(_, r)| **r != "ghost") {
            let submit = Request::Submit {
                session: self.name(role),
                batch: batch(i as u64),
            };
            assert!(matches!(
                c.call_any(&submit).expect("preload"),
                Response::Accepted { .. }
            ));
            sent.push(submit);
        }
        sent
    }

    /// The run, in the fleet's names.
    fn run(&self) -> Vec<Request> {
        let n = |role: &str| self.name(role);
        let mrc = |role: &str| Request::QueryMrc {
            target: Target::Session(n(role)),
            sizes_bytes: SIZES.to_vec(),
        };
        let submit = |role: &str, salt: u64| Request::Submit {
            session: n(role),
            batch: batch(salt),
        };
        let co_run = |roles: &[&str]| Request::CoRun {
            sessions: roles.iter().map(|r| n(r)).collect(),
            sizes_bytes: SIZES.to_vec(),
            intensities: Vec::new(),
        };
        vec![
            mrc("l1"),
            mrc("a1"),
            submit("l2", 101),
            submit("a2", 102),
            Request::QueryPcMrc {
                target: Target::Session(n("b1")),
                pc: 200,
                sizes_bytes: SIZES.to_vec(),
            },
            co_run(&["l1", "a1", "b1"]),
            Request::Place {
                sessions: ["l1", "l2", "a1", "a2", "b1", "b2"]
                    .iter()
                    .map(|r| n(r))
                    .collect(),
                groups: 2,
                capacity: 3,
                size_bytes: 8 << 20,
                intensities: Vec::new(),
            },
            // Refused by its bounds (3 sessions into 1 group of 2): plans
            // no pulls.
            Request::Place {
                sessions: ["a1", "b1", "b3"].iter().map(|r| n(r)).collect(),
                groups: 1,
                capacity: 2,
                size_bytes: 8 << 20,
                intensities: Vec::new(),
            },
            // A co-run right after a forwarded submit to its member.
            submit("b1", 103),
            co_run(&["b1", "l2"]),
            // b2 again with no submit between: the earlier pull serves.
            co_run(&["b2", "a1"]),
            mrc("a2"),
            // b2 again after a submit: pulled anew.
            submit("b2", 104),
            co_run(&["b2"]),
            // The first member is unknown, so b3's pull is never taken.
            co_run(&["ghost", "b3"]),
            mrc("b1"),
        ]
    }
}

/// One run written to node 0 in a single write answers exactly what the
/// same requests answer one at a time: every reply equals the replay
/// oracle's, node 0 counts the same model transfers as a fleet that was
/// sent the requests one by one, and each peer took several of the
/// run's frames in one worker job.
#[test]
fn a_pipelined_run_answers_like_sequential_execution() {
    let piped = Fleet::start("piped");
    let serial = Fleet::start("serial");
    let mut outcomes = Vec::new();
    for (fleet, pipelined) in [(&piped, true), (&serial, false)] {
        let preloads = fleet.preload();
        let hits_before = stat(&fleet.stats(0), "cluster.model.remote_hits");
        let run = fleet.run();
        let mut conn = TcpStream::connect(fleet.nodes[0].addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let read_reply = |conn: &mut TcpStream| {
            let body = proto::read_frame(conn).expect("read").expect("reply frame");
            Response::decode(&body).expect("decode")
        };
        let replies: Vec<Response> = if pipelined {
            let bytes: Vec<u8> = run.iter().flat_map(Request::encode).collect();
            conn.write_all(&bytes).expect("one write");
            run.iter().map(|_| read_reply(&mut conn)).collect()
        } else {
            run.iter()
                .map(|req| {
                    conn.write_all(&req.encode()).expect("write");
                    read_reply(&mut conn)
                })
                .collect()
        };

        let mut oracle = Oracle::new();
        for req in &preloads {
            oracle.expected(req);
        }
        for (k, (req, got)) in run.iter().zip(&replies).enumerate() {
            match oracle.expected(req) {
                Some(want) => assert_eq!(
                    got.encode(),
                    want.encode(),
                    "reply {k} ({}) differs from sequential execution",
                    req.kind_name()
                ),
                None => assert!(
                    matches!(got, Response::Accepted { .. }),
                    "reply {k}: {got:?}"
                ),
            }
        }
        let hits = stat(&fleet.stats(0), "cluster.model.remote_hits") - hits_before;
        let peers: Vec<(f64, f64)> = (1..3)
            .map(|i| {
                let s = fleet.stats(i);
                (
                    stat(&s, "io.batch.dispatch_frames"),
                    stat(&s, "io.batch.dispatch_jobs"),
                )
            })
            .collect();
        outcomes.push((hits, peers));
    }
    let (piped_hits, piped_peers) = &outcomes[0];
    let (serial_hits, _) = &outcomes[1];
    assert!(*serial_hits > 0.0, "the run transfers models");
    assert_eq!(
        piped_hits, serial_hits,
        "a pipelined run transfers the models sequential execution does"
    );
    for (i, (frames, jobs)) in piped_peers.iter().enumerate() {
        assert!(
            frames > jobs,
            "peer {} ran {frames} frames in {jobs} jobs: the run's frames must share jobs",
            i + 1
        );
    }
    for fleet in [piped, serial] {
        for h in fleet.nodes {
            h.shutdown();
        }
    }
}

/// A forward that timed out is not sent again, since the peer may have
/// applied it. A fake peer answers the first forwarded submit and then
/// stays silent: the second submit reaches it exactly once, on the
/// pooled connection, and the client gets `Internal`.
#[test]
fn a_timed_out_forward_is_not_sent_again() {
    let fake = TcpListener::bind("127.0.0.1:0").expect("bind fake peer");
    fake.set_nonblocking(true).expect("nonblocking");
    let fake_addr = fake.local_addr().expect("addr").to_string();
    let node = start(ServeConfig::default()).expect("start node");
    let nodes = vec![node.addr().to_string(), fake_addr.clone()];
    let mut client = Client::connect(node.addr()).expect("connect");
    client
        .call_any(&Request::RingSet {
            epoch: 1,
            seed: DEFAULT_RING_SEED,
            vnodes: DEFAULT_VNODES,
            nodes: nodes.clone(),
        })
        .expect("ring installed");
    let ring = Ring::new(DEFAULT_RING_SEED, DEFAULT_VNODES, nodes);
    let session = (0..)
        .map(|i| format!("remote-{i}"))
        .find(|n| ring.owner(n) == Some(fake_addr.as_str()))
        .expect("the fake peer owns some name");

    // Every frame the fake peer receives, on any connection.
    let received: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());
    let stop = AtomicBool::new(false);
    let replies = std::thread::scope(|scope| {
        let (received, stop) = (&received, &stop);
        scope.spawn(move || {
            std::thread::scope(|conns| {
                while !stop.load(Ordering::SeqCst) {
                    match fake.accept() {
                        Ok((mut conn, _)) => {
                            conns.spawn(move || {
                                conn.set_nonblocking(false).expect("blocking");
                                conn.set_read_timeout(Some(Duration::from_millis(50)))
                                    .expect("timeout");
                                let mut buf = Vec::new();
                                let mut chunk = [0u8; 4096];
                                while !stop.load(Ordering::SeqCst) {
                                    match conn.read(&mut chunk) {
                                        Ok(0) => break,
                                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                                        Err(e)
                                            if matches!(
                                                e.kind(),
                                                ErrorKind::WouldBlock | ErrorKind::TimedOut
                                            ) => {}
                                        Err(_) => break,
                                    }
                                    while buf.len() >= 4 {
                                        let len = u32::from_le_bytes(
                                            buf[..4].try_into().expect("4 bytes"),
                                        )
                                            as usize;
                                        if buf.len() < 4 + len {
                                            break;
                                        }
                                        let frame: Vec<u8> = buf.drain(..4 + len).collect();
                                        let mut seen = received.lock().expect("frames");
                                        seen.push(frame);
                                        if seen.len() == 1 {
                                            let ok = Response::Accepted {
                                                store_bytes: 0,
                                                evicted: 0,
                                            };
                                            conn.write_all(&ok.encode()).expect("answer");
                                        }
                                    }
                                }
                            });
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            });
        });
        let submit = |salt| Request::Submit {
            session: session.clone(),
            batch: batch(salt),
        };
        let first = client.call_any(&submit(1)).expect("first submit");
        let second = client.call_any(&submit(2)).expect("second submit");
        // Time for a resend to arrive, were there one.
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::SeqCst);
        (first, second)
    });

    assert!(
        matches!(replies.0, Response::Accepted { .. }),
        "{:?}",
        replies.0
    );
    assert!(
        matches!(
            replies.1,
            Response::Error {
                code: ErrorCode::Internal,
                ..
            }
        ),
        "{:?}",
        replies.1
    );
    let received = received.into_inner().expect("frames");
    let forward = |salt| {
        Request::PeerForward {
            hops: repf_serve::MAX_FORWARD_HOPS,
            frame: Request::Submit {
                session: session.clone(),
                batch: batch(salt),
            }
            .encode()[4..]
                .to_vec(),
        }
        .encode()
    };
    let copies = |salt| received.iter().filter(|f| **f == forward(salt)).count();
    assert_eq!(
        (copies(1), copies(2), received.len()),
        (1, 1, 2),
        "each submit reaches the peer exactly once"
    );
    client.shutdown_server().expect("shutdown");
    node.join();
}
