//! Load-generator tests: seeded determinism of the op schedule and the
//! zipf sampler, and the coordinated-omission regression — a stalled
//! server must show up in the intended-time latency tail, not vanish
//! into a politely waiting closed-loop client.

use repf_serve::proto;
use repf_serve::{
    generate_ops, request_for, run_load, start, Client, LoadConfig, OpKind, OpMix, ReplayRng,
    ServeConfig, ZipfGen,
};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

#[test]
fn same_seed_means_bit_identical_op_sequence_and_requests() {
    let cfg = LoadConfig {
        seed: 0xDE7E_2111,
        mix: OpMix::SubmitHeavy,
        rate: 5000.0,
        duration: Duration::from_secs(1),
        ..LoadConfig::default()
    };
    let a = generate_ops(&cfg);
    let b = generate_ops(&cfg);
    assert_eq!(a.len(), 5000);
    assert_eq!(a, b, "same seed must give a bit-identical op sequence");

    // The materialized wire requests are identical too, byte for byte.
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(request_for(x).encode(), request_for(y).encode());
    }

    // A different seed gives a distinct schedule (same length/pacing,
    // different draws).
    let c = generate_ops(&LoadConfig {
        seed: cfg.seed + 1,
        ..cfg.clone()
    });
    assert_eq!(a.len(), c.len());
    assert_ne!(a, c, "different seeds must diverge");
    // ... and the zipf/kind draws themselves differ, not just op_seeds.
    assert!(
        a.iter()
            .zip(&c)
            .any(|(x, y)| x.session != y.session || x.kind != y.kind),
        "different seeds should draw different sessions/kinds"
    );
}

#[test]
fn mixes_produce_their_op_kinds() {
    let base = LoadConfig {
        rate: 10_000.0,
        duration: Duration::from_secs(1),
        ..LoadConfig::default()
    };
    for mix in OpMix::ALL {
        let ops = generate_ops(&LoadConfig {
            mix,
            ..base.clone()
        });
        let submits = ops.iter().filter(|o| o.kind == OpKind::Submit).count();
        let mrcs = ops.iter().filter(|o| o.kind == OpKind::Mrc).count();
        let scans = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::PcMrc { .. }))
            .count();
        match mix {
            OpMix::SubmitHeavy => {
                assert!(submits > mrcs, "{mix}: submits should dominate");
                assert!(scans > 0, "{mix}: some scans");
            }
            OpMix::QueryHeavy => {
                assert!(mrcs > submits * 5, "{mix}: queries should dominate");
                assert!(scans > 0, "{mix}: some scans");
            }
            OpMix::Scan => {
                assert_eq!(submits + mrcs, 0, "{mix}: scans only");
                assert_eq!(scans, ops.len());
            }
            OpMix::ScanChurn => {
                let churns: Vec<u32> = ops
                    .iter()
                    .filter_map(|o| match o.kind {
                        OpKind::ChurnSubmit { id } => Some(id),
                        _ => None,
                    })
                    .collect();
                let frac = churns.len() as f64 / ops.len() as f64;
                assert!(
                    (frac - 0.10).abs() < 0.02,
                    "{mix}: ~10% churn submits, got {frac}"
                );
                assert_eq!(submits, 0, "{mix}: churn is the only submit arm");
                assert!(mrcs > 0, "{mix}: still query-dominated");
                // Churn ids never repeat: every churn session is one-shot.
                let mut ids = churns.clone();
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len(), churns.len(), "{mix}: churn ids unique");
            }
        }
    }
}

/// Empirical zipf rank frequencies are monotone non-increasing for both
/// a sub-unit and super-unit exponent over 100k seeded draws (fully
/// deterministic: the splitmix64 stream is a pure function of the seed).
#[test]
fn zipf_frequency_ranks_are_monotone() {
    const N: usize = 16;
    const DRAWS: usize = 100_000;
    for (s, seed) in [(0.9, 0x21BF_0001u64), (1.1, 0x21BF_0002u64)] {
        let zipf = ZipfGen::new(N as u32, s);
        let mut rng = ReplayRng::new(seed);
        let mut counts = [0u64; N];
        for _ in 0..DRAWS {
            counts[zipf.draw(&mut rng) as usize] += 1;
        }
        assert_eq!(counts.iter().sum::<u64>(), DRAWS as u64);
        for i in 1..N {
            assert!(
                counts[i - 1] >= counts[i],
                "s={s}: rank {} drawn {} times < rank {} drawn {} times",
                i - 1,
                counts[i - 1],
                i,
                counts[i],
            );
        }
        // The skew is real, not an artifact of ordering: the hottest
        // rank clearly dominates the coldest.
        assert!(
            counts[0] > counts[N - 1] * 4,
            "s={s}: rank 0 ({}) should dwarf rank {} ({})",
            counts[0],
            N - 1,
            counts[N - 1],
        );
    }
}

/// A relay in front of `daemon` that holds each request frame for
/// `delay` before passing it on; replies pass straight back. Behind it
/// every request costs at least `delay` on any CPU, with no knob in the
/// daemon. The acceptor stops at the first connection it takes after
/// the daemon is gone, then joins its relay threads; join the returned
/// handle after poking it.
fn slow_relay(daemon: SocketAddr, delay: Duration) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("relay binds");
    let addr = listener.local_addr().unwrap();
    let acceptor = std::thread::spawn(move || {
        let mut relays = Vec::new();
        for client in listener.incoming() {
            let Ok(client) = client else { break };
            let Ok(upstream) = TcpStream::connect(daemon) else {
                break;
            };
            let (mut from_client, mut to_daemon) =
                (client.try_clone().unwrap(), upstream.try_clone().unwrap());
            relays.push(std::thread::spawn(move || {
                while let Ok(Some(body)) = proto::read_frame(&mut from_client) {
                    std::thread::sleep(delay);
                    let len = u32::try_from(body.len()).expect("read_frame bounds the length");
                    let mut frame = len.to_le_bytes().to_vec();
                    frame.extend_from_slice(&body);
                    if to_daemon.write_all(&frame).is_err() {
                        break;
                    }
                }
                let _ = to_daemon.shutdown(Shutdown::Write);
            }));
            let (mut from_daemon, mut to_client) = (upstream, client);
            relays.push(std::thread::spawn(move || {
                let _ = std::io::copy(&mut from_daemon, &mut to_client);
                let _ = to_client.shutdown(Shutdown::Write);
            }));
        }
        for relay in relays {
            relay.join().expect("relay thread");
        }
    });
    (addr, acceptor)
}

/// Coordinated-omission regression: a daemon behind a relay that holds
/// every request 2 ms — four times the 500 us arrival spacing — and a
/// `pipeline: 1` driver, a classic closed-loop client. The server falls
/// behind the open-loop schedule, the driver's sends slip later and
/// later, and each send still completes quickly once it finally
/// happens. Latency measured from the *actual* send (what a CO-blind
/// harness reports) therefore stays small, while latency from the
/// *intended* start — which the harness reports as its headline — keeps
/// charging for the queue delay. The p99 gap between the two IS the
/// coordinated omission.
#[test]
fn stalled_server_inflates_intended_p99_far_beyond_service_p99() {
    let handle = start(ServeConfig::default()).expect("server starts");
    let (relay, acceptor) = slow_relay(handle.addr(), Duration::from_millis(2));
    let addr = relay.to_string();

    let cfg = LoadConfig {
        seed: 0xC0_0111,
        mix: OpMix::Scan, // 16-point pcMRC sweeps
        rate: 2000.0,
        duration: Duration::from_millis(300),
        conns: 1,
        drivers: 1,
        pipeline: 1, // closed loop: at most one request outstanding
        sessions: 2,
        zipf_s: 0.99,
        ..LoadConfig::default()
    };

    let report = run_load(std::slice::from_ref(&addr), &cfg).expect("load run");
    assert_eq!(report.errors, 0, "no protocol errors under stall");
    assert!(report.completed > 50, "enough completions to quantile");

    let intended_p99 = report.intended.quantile_us(0.99);
    let service_p99 = report.service.quantile_us(0.99);
    eprintln!(
        "{} ops: intended p99 {intended_p99} us, service p99 {service_p99} us, max send lag {} us",
        report.completed, report.max_send_lag_us
    );
    assert!(
        intended_p99 >= 3.0 * service_p99.max(1.0),
        "intended p99 ({intended_p99} us) must dwarf service p99 \
         ({service_p99} us) when the server lags the schedule",
    );
    // The pacing slip itself is visible: sends left far behind schedule.
    assert!(
        report.max_send_lag_us as f64 > service_p99,
        "closed-loop sends should have slipped well behind the schedule \
         (max lag {} us, service p99 {} us)",
        report.max_send_lag_us,
        service_p99,
    );

    // And the harness's own headline is the intended histogram: the
    // JSON report's top-level latency block is the intended one.
    let json = report.to_json().render();
    let intended_pos = json.find("\"intended\"").expect("intended block");
    let service_pos = json.find("\"service\"").expect("service block");
    assert!(
        intended_pos < service_pos,
        "intended accounting leads the report"
    );

    let mut c = Client::connect(handle.addr()).expect("connect");
    c.shutdown_server().expect("shutdown");
    handle.join();
    let _ = TcpStream::connect(relay);
    acceptor.join().expect("relay acceptor exits");
}
