//! Record/replay integration: the same trace replayed against N=1 and
//! N=3 loopback daemons must produce bit-identical per-session MRC/plan
//! responses (equal digests, zero divergences against the direct
//! StatStack/analyze oracle), and a deliberately corrupted node must be
//! caught by the divergence reporter with a usable minimal prefix.

use repf_serve::replay::session_name;
use repf_serve::{
    generate_trace, replay_against, replay_spawned, start, Client, GenConfig, ReplayConfig,
    Request, SampleBatch, ServeConfig, Target, Trace,
};
use std::time::Duration;

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        threads: 2,
        idle_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    }
}

fn gen_cfg() -> GenConfig {
    GenConfig {
        seed: 0xD15C0,
        sessions: 6,
        rounds: 3,
        samples_per_batch: 50,
    }
}

#[test]
fn one_node_and_three_nodes_answer_bit_identically() {
    let trace = generate_trace(&gen_cfg());
    let rcfg = ReplayConfig::default();

    let one = replay_spawned(1, &trace, &serve_cfg(), &rcfg).expect("replay N=1");
    let three = replay_spawned(3, &trace, &serve_cfg(), &rcfg).expect("replay N=3");

    for (label, r) in [("N=1", &one), ("N=3", &three)] {
        assert!(
            r.is_clean(),
            "{label} diverged:\n{}",
            r.divergences
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(r.requests, trace.len() as u64, "{label} sent every record");
        assert!(r.checked > 0, "{label} bit-compared responses");
        assert_eq!(
            r.per_node.iter().sum::<u64>(),
            r.requests,
            "{label} per-node counts sum"
        );
    }
    assert_eq!(
        one.digest, three.digest,
        "per-session responses are invariant under the node count"
    );
    assert_eq!(three.per_node.len(), 3);
    assert!(
        three.per_node.iter().filter(|&&n| n > 0).count() >= 2,
        "6 sessions spread over at least 2 of 3 nodes, got {:?}",
        three.per_node
    );
}

#[test]
fn replay_digest_is_reproducible_across_runs() {
    let trace = generate_trace(&gen_cfg());
    let rcfg = ReplayConfig::default();
    let a = replay_spawned(2, &trace, &serve_cfg(), &rcfg).expect("first run");
    let b = replay_spawned(2, &trace, &serve_cfg(), &rcfg).expect("second run");
    assert!(a.is_clean() && b.is_clean());
    assert_eq!(a.digest, b.digest, "same trace, same digest, every run");
}

/// A node whose session state was corrupted before the replay (an extra
/// batch the trace never recorded) must trip the divergence reporter on
/// that session's first checked query — with the minimal offending
/// prefix pointing at exactly that session's history.
#[test]
fn divergence_reporter_catches_a_corrupted_node() {
    let trace = generate_trace(&gen_cfg());
    let victim = session_name(0);

    let node = start(serve_cfg()).expect("server starts");
    let addr = node.addr();
    {
        // Corrupt: pre-feed the victim session one stray batch.
        let mut c = Client::connect(addr).expect("connect");
        c.submit_batch(
            &victim,
            SampleBatch {
                total_refs: 1000,
                sample_period: 1009,
                line_bytes: 64,
                reuse: (0..32)
                    .map(|i| repf_sampling::ReuseSample {
                        start_pc: repf_trace::Pc(100),
                        start_kind: repf_trace::AccessKind::Load,
                        end_pc: repf_trace::Pc(100),
                        end_kind: repf_trace::AccessKind::Load,
                        distance: 2 + i, // short reuses shift the MRC
                        start_index: i * 100,
                    })
                    .collect(),
                dangling: vec![],
                strides: vec![],
            },
        )
        .expect("corrupting submit");
    }

    let report = replay_against(&[addr], &trace, &ReplayConfig::default()).expect("replay runs");
    node.shutdown();

    assert!(
        !report.is_clean(),
        "a pre-corrupted session must diverge from the oracle"
    );
    let d = &report.divergences[0];
    assert_eq!(
        d.session.as_deref(),
        Some(victim.as_str()),
        "right session blamed"
    );
    assert_ne!(d.got, d.want, "differing response bytes captured");
    assert!(
        d.first_diff <= d.got.len().min(d.want.len()),
        "first_diff within bounds"
    );

    // The minimal prefix holds only the victim session's requests, ends
    // at the offending one, and round-trips as a saveable trace.
    assert!(!d.prefix.is_empty());
    for req in &d.prefix {
        assert_eq!(
            repf_serve::replay::session_of(req),
            Some(victim.as_str()),
            "prefix holds only the offending session's history"
        );
    }
    assert_eq!(
        d.prefix.last().unwrap(),
        &trace.records[d.index],
        "prefix ends at the offending request"
    );
    let mut buf = Vec::new();
    d.prefix_trace().write_to(&mut buf).unwrap();
    let back = Trace::read_from(&mut buf.as_slice()).unwrap();
    assert_eq!(back.records, d.prefix, "minimal repro trace round-trips");

    let shown = d.to_string();
    assert!(
        shown.contains("divergence at trace index"),
        "report: {shown}"
    );
    assert!(shown.contains("minimal prefix"), "report: {shown}");
}

/// Shutdown records in a trace are skipped (the harness owns node
/// lifecycles), and unknown-session queries replay deterministically —
/// the oracle expects the same error bytes the daemon produces.
#[test]
fn shutdown_records_are_skipped_and_errors_match() {
    let trace = Trace {
        seed: 0,
        records: vec![
            Request::Ping,
            Request::QueryMrc {
                target: Target::Session("never-created".into()),
                sizes_bytes: vec![1 << 20],
            },
            Request::Shutdown,
            Request::QueryMrc {
                target: Target::Session("x".into()),
                sizes_bytes: vec![], // empty size list → Unsupported error
            },
        ],
    };
    let report =
        replay_spawned(2, &trace, &serve_cfg(), &ReplayConfig::default()).expect("replay runs");
    assert!(report.is_clean(), "{:?}", report.divergences);
    assert_eq!(report.skipped, 1, "the Shutdown record is not sent");
    assert_eq!(report.requests, 3);
    assert_eq!(
        report.checked, 3,
        "ping + both error responses bit-compared"
    );
}
