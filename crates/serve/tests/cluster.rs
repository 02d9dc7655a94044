//! Cluster-tier integration tests over real sockets: ring-routed
//! replay digests, live drain/join churn, fleet-wide fit-at-most-once,
//! migration model shipping and tombstone-chase forwarding.

use repf_sampling::{DanglingSample, ReuseSample};
use repf_serve::{
    apply_membership, generate_trace, replay_against, replay_clustered, replay_spawned, start,
    ChurnEvent, Client, ClientError, ErrorCode, GenConfig, LogHisto, ReplayConfig, Request, Ring,
    RingChange, RingSpec, SampleBatch, ServeConfig, Target, DEFAULT_VNODES,
};
use repf_trace::{AccessKind, Pc};
use std::net::SocketAddr;

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
            distance: 1 + (i * 37 + salt) % 500_000,
            start_index: i * 1000,
        });
    }
    b
}

/// Property test for the fleet-wide latency accounting: per-node
/// `LogHisto` histograms merged in *any* order equal the single
/// histogram built from the concatenated sample stream. This is what
/// lets the cluster fan-out report sum per-driver/per-node histograms
/// without caring who recorded what.
#[test]
fn log_histo_merge_is_order_insensitive_and_matches_concatenation() {
    let mut seed = 0x1057_0611u64;
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let same = |a: &LogHisto, b: &LogHisto, what: &str| {
        assert_eq!(a.count(), b.count(), "{what}: count");
        assert_eq!(a.max_us(), b.max_us(), "{what}: max");
        assert!((a.mean_us() - b.mean_us()).abs() < 1e-9, "{what}: mean");
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.quantile_us(q), b.quantile_us(q), "{what}: q{q}");
        }
    };
    for trial in 0..40 {
        // A random number of nodes, each with a random sample stream
        // spanning the exact and logarithmic bucket regions.
        let nodes = 1 + (next() % 6) as usize;
        let mut per_node: Vec<LogHisto> = (0..nodes).map(|_| LogHisto::new()).collect();
        let mut single = LogHisto::new();
        for (i, h) in per_node.iter_mut().enumerate() {
            let samples = next() % 400;
            for _ in 0..samples {
                let us = match next() % 3 {
                    0 => next() % 64,         // exact buckets
                    1 => next() % 100_000,    // log region
                    _ => next() % 10_000_000, // deep tail
                };
                h.record_us(us);
                single.record_us(us);
            }
            // Distinguishable per-node shapes: node i gets i extra spikes.
            for _ in 0..i {
                h.record_us(777);
                single.record_us(777);
            }
        }

        // Forward order ...
        let mut fwd = LogHisto::new();
        for h in &per_node {
            fwd.merge(h);
        }
        // ... reverse order ...
        let mut rev = LogHisto::new();
        for h in per_node.iter().rev() {
            rev.merge(h);
        }
        // ... and a seeded shuffle.
        let mut order: Vec<usize> = (0..nodes).collect();
        for i in (1..nodes).rev() {
            order.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let mut shuffled = LogHisto::new();
        for &i in &order {
            shuffled.merge(&per_node[i]);
        }

        same(&fwd, &rev, &format!("trial {trial}: fwd vs rev"));
        same(&fwd, &shuffled, &format!("trial {trial}: fwd vs shuffled"));
        same(
            &fwd,
            &single,
            &format!("trial {trial}: merged vs concatenated stream"),
        );
    }
}

/// The acceptance criterion in one test: the replay response digest is
/// bit-identical across one node, a 3-node ring, and a 3-node ring with
/// a drain *and* a join injected mid-trace.
#[test]
fn replay_digest_is_invariant_across_cluster_shapes_and_churn() {
    let trace = generate_trace(&GenConfig::default());
    // The invariance below must cover the co-run path: a co_run request
    // lands on an arbitrary ring member and resolves peer-owned sessions
    // through cluster model pulls, so a trace without any would let a
    // placement-dependent answer slip through unnoticed.
    let corun_ops = trace
        .records
        .iter()
        .filter(|r| matches!(r, repf_serve::Request::CoRun { .. }))
        .count();
    assert!(corun_ops > 0, "generated trace must exercise co_run");
    // Placement replies carry the full outcome (grouping, cost, the
    // walk's node count); keeping them in the digest is what pins the
    // placement to be node-count invariant.
    let place_ops = trace
        .records
        .iter()
        .filter(|r| matches!(r, repf_serve::Request::Place { .. }))
        .count();
    assert!(place_ops > 0, "generated trace must exercise place");
    let serve_cfg = ServeConfig::default();
    let rcfg = ReplayConfig::default();

    let single = replay_spawned(1, &trace, &serve_cfg, &rcfg).expect("single-node replay");
    assert!(single.is_clean(), "{:?}", single.divergences.first());

    let ring3 = replay_clustered(3, &trace, &serve_cfg, &rcfg, &[]).expect("3-node ring replay");
    assert!(ring3.is_clean(), "{:?}", ring3.divergences.first());
    assert_eq!(
        ring3.digest, single.digest,
        "3-node ring digest must equal the single-node digest"
    );
    assert_eq!(ring3.requests, single.requests);

    let n = trace.records.len();
    let churn = [
        ChurnEvent {
            at: n / 3,
            change: RingChange::Drain(2),
        },
        ChurnEvent {
            at: 2 * n / 3,
            change: RingChange::Join,
        },
    ];
    let churned =
        replay_clustered(3, &trace, &serve_cfg, &rcfg, &churn).expect("churned ring replay");
    assert!(churned.is_clean(), "{:?}", churned.divergences.first());
    assert_eq!(
        churned.digest, single.digest,
        "mid-trace drain + join must not change a single response byte"
    );
    // The drained node must have actually given up its load and the
    // joiner must have picked some up.
    assert!(churned.per_node.len() == 4);
}

/// Fleet-wide fit-at-most-once: the summed `model_cache.misses` across
/// a 3-node ring equals the single-node count — no session is ever
/// refit because clustering moved or re-targeted it — and a replay that
/// agrees with the daemons' ring never needs forwarding.
#[test]
fn models_fit_at_most_once_fleet_wide() {
    let trace = generate_trace(&GenConfig::default());
    let rcfg = ReplayConfig {
        seed: 11,
        ..Default::default()
    };

    let solo = start(ServeConfig::default()).expect("start single node");
    let rep = replay_against(&[solo.addr()], &trace, &rcfg).expect("single replay");
    assert!(rep.is_clean());
    let mut c = Client::connect(solo.addr()).expect("connect");
    let baseline = stat(&c.stats().expect("stats"), "model_cache.misses");
    drop(c);
    solo.shutdown();
    assert!(baseline > 0.0, "the trace must force some fits");

    let nodes: Vec<_> = (0..3)
        .map(|_| start(ServeConfig::default()).expect("start node"))
        .collect();
    let addrs: Vec<SocketAddr> = nodes.iter().map(|h| h.addr()).collect();
    let members: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    apply_membership(
        &members,
        &RingSpec {
            seed: rcfg.seed,
            vnodes: DEFAULT_VNODES,
            nodes: members.clone(),
        },
    )
    .expect("install ring");
    let rep = replay_against(&addrs, &trace, &rcfg).expect("ring replay");
    assert!(rep.is_clean(), "{:?}", rep.divergences.first());

    let mut misses = 0.0;
    let mut forwarded = 0.0;
    for a in &addrs {
        let mut c = Client::connect(a).expect("connect");
        let s = c.stats().expect("stats");
        misses += stat(&s, "model_cache.misses");
        forwarded += stat(&s, "cluster.forwarded");
        assert!(stat(&s, "cluster.ring.epoch") >= 1.0);
        assert_eq!(stat(&s, "cluster.ring.nodes"), 3.0);
    }
    assert_eq!(
        misses, baseline,
        "a session's model is fit exactly once fleet-wide per version"
    );
    assert_eq!(
        forwarded, 0.0,
        "a replay that shares the daemons' ring never misdirects"
    );
    for h in nodes {
        h.shutdown();
    }
}

/// Co-run over a cluster: a node answering a co-run query pulls
/// peer-owned session models once and caches them under the
/// owner-reported version — repeated queries re-send the cached version
/// and get "still current" back (no model bytes, no refit), so
/// `cluster.model.remote_hits` counts only actual transfers. Answers
/// are byte-identical no matter which node is asked.
#[test]
fn corun_pulls_cache_remote_models_instead_of_refetching() {
    let nodes: Vec<_> = (0..3)
        .map(|_| start(ServeConfig::default()).expect("start node"))
        .collect();
    let members: Vec<String> = nodes.iter().map(|h| h.addr().to_string()).collect();
    apply_membership(
        &members,
        &RingSpec {
            seed: 7,
            vnodes: DEFAULT_VNODES,
            nodes: members.clone(),
        },
    )
    .expect("install ring");

    // Submit 8 sessions through node A: four it owns and four owned by
    // its peers, picked from the installed ring because the daemons'
    // ephemeral ports decide who owns which name.
    let ring = Ring::new(7, DEFAULT_VNODES, members.clone());
    let owned_by_a = |s: &String| ring.owner(s) == Some(members[0].as_str());
    let names = (0..).map(|i| format!("corun-s{i}"));
    let local: Vec<String> = names.clone().filter(owned_by_a).take(4).collect();
    let remote: Vec<String> = names.filter(|s| !owned_by_a(s)).take(4).collect();
    let sessions: Vec<String> = local.into_iter().chain(remote).collect();
    let mut ca = Client::connect(nodes[0].addr()).expect("connect a");
    for (i, s) in sessions.iter().enumerate() {
        ca.submit_batch(s, batch(i as u64)).expect("submit");
    }
    let sizes = vec![64 << 10, 1 << 20];
    let hits = |c: &mut Client| stat(&c.stats().expect("stats"), "cluster.model.remote_hits");

    let before = hits(&mut ca);
    let (first, tp) = ca
        .co_run(sessions.clone(), sizes.clone(), Vec::new())
        .expect("first co_run");
    assert_eq!(first.len(), sessions.len());
    assert_eq!(tp.len(), sizes.len());
    let after_first = hits(&mut ca);
    let pulled = after_first - before;
    assert_eq!(pulled, 4.0, "each peer-owned member is pulled once");

    // A repeat query answers from the remote-model cache: same bytes,
    // zero new transfers.
    let (second, tp2) = ca
        .co_run(sessions.clone(), sizes.clone(), Vec::new())
        .expect("second co_run");
    for ((n1, c1), (n2, c2)) in first.iter().zip(&second) {
        assert_eq!(n1, n2);
        for (a, b) in c1.iter().zip(c2) {
            assert_eq!(a.to_bits(), b.to_bits(), "repeat must be bit-identical");
        }
    }
    for (a, b) in tp.iter().zip(&tp2) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(
        hits(&mut ca),
        after_first,
        "a repeat co_run must not re-pull unchanged models"
    );

    // Any other node answers the same question with the same bytes.
    let mut cb = Client::connect(nodes[1].addr()).expect("connect b");
    let (via_b, tp_b) = ca
        .co_run(sessions.clone(), sizes.clone(), Vec::new())
        .and(cb.co_run(sessions.clone(), sizes.clone(), Vec::new()))
        .expect("co_run via b");
    for ((n1, c1), (n2, c2)) in first.iter().zip(&via_b) {
        assert_eq!(n1, n2);
        for (a, b) in c1.iter().zip(c2) {
            assert_eq!(a.to_bits(), b.to_bits(), "answers are placement-invariant");
        }
    }
    for (a, b) in tp.iter().zip(&tp_b) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    // New data bumps every session's version: the next co_run re-pulls
    // exactly the peer-owned members, once each.
    for (i, s) in sessions.iter().enumerate() {
        ca.submit_batch(s, batch(100 + i as u64)).expect("resubmit");
    }
    ca.co_run(sessions.clone(), sizes.clone(), Vec::new())
        .expect("post-resubmit co_run");
    assert_eq!(
        hits(&mut ca) - after_first,
        pulled,
        "a version bump re-pulls each remote member exactly once"
    );

    for h in nodes {
        h.shutdown();
    }
}

/// Placement answers are bit-identical across ring sizes (1 node ≡ a
/// 3-node ring) and across which member is asked: peer-owned session
/// models resolve through the same `ModelPullCurrent` pulls co-run
/// uses, and the search itself is deterministic, so the whole reply —
/// grouping, aggregate cost, throughput, and even the walk's node
/// count — must not depend on cluster shape.
#[test]
fn placement_is_bit_identical_across_ring_sizes_and_members() {
    let sessions: Vec<String> = (0..8).map(|i| format!("place-s{i}")).collect();
    let (size_bytes, groups, capacity) = (1u64 << 20, 3u32, 3u32);

    // Single node: the reference reply.
    let solo = start(ServeConfig::default()).expect("start solo");
    let mut c = Client::connect(solo.addr()).expect("connect solo");
    for (i, s) in sessions.iter().enumerate() {
        c.submit_batch(s, batch(i as u64)).expect("submit");
    }
    let reference = c
        .place(sessions.clone(), groups, capacity, size_bytes, Vec::new())
        .expect("solo place");
    solo.shutdown();
    // 8 sessions with capacity 3 need all 3 groups.
    assert_eq!(reference.0.len(), groups as usize);
    assert!(reference.3 > 0, "search must explore nodes");

    // 3-node ring: every member must answer the same bytes.
    let nodes: Vec<_> = (0..3)
        .map(|_| start(ServeConfig::default()).expect("start node"))
        .collect();
    let members: Vec<String> = nodes.iter().map(|h| h.addr().to_string()).collect();
    apply_membership(
        &members,
        &RingSpec {
            seed: 7,
            vnodes: DEFAULT_VNODES,
            nodes: members.clone(),
        },
    )
    .expect("install ring");
    let mut ca = Client::connect(nodes[0].addr()).expect("connect");
    for (i, s) in sessions.iter().enumerate() {
        ca.submit_batch(s, batch(i as u64)).expect("submit");
    }
    for h in &nodes {
        let mut c = Client::connect(h.addr()).expect("connect member");
        let reply = c
            .place(sessions.clone(), groups, capacity, size_bytes, Vec::new())
            .expect("ring place");
        assert_eq!(reply.0, reference.0, "grouping differs from single-node");
        assert_eq!(
            reply.1.to_bits(),
            reference.1.to_bits(),
            "aggregate miss ratio differs from single-node"
        );
        assert_eq!(
            reply.2.to_bits(),
            reference.2.to_bits(),
            "throughput estimate differs from single-node"
        );
        assert_eq!(
            reply.3, reference.3,
            "search counters differ from single-node"
        );
    }

    // Intensity overrides are part of the same invariance, and a
    // different weighting is allowed to pick a different grouping.
    let weights: Vec<f64> = (0..sessions.len()).map(|i| 1.0 + i as f64).collect();
    type PlaceReply = (Vec<Vec<String>>, f64, f64, u64);
    let mut first: Option<PlaceReply> = None;
    for h in &nodes {
        let mut c = Client::connect(h.addr()).expect("connect member");
        let reply = c
            .place(
                sessions.clone(),
                groups,
                capacity,
                size_bytes,
                weights.clone(),
            )
            .expect("weighted place");
        match &first {
            None => first = Some(reply),
            Some(want) => {
                assert_eq!(&reply.0, &want.0);
                assert_eq!(reply.1.to_bits(), want.1.to_bits());
                assert_eq!(reply.3, want.3);
            }
        }
    }

    // Typed errors: over-capacity and unknown names.
    let mut c = Client::connect(nodes[0].addr()).expect("connect");
    let err = c
        .place(sessions.clone(), 2, 2, size_bytes, Vec::new())
        .expect_err("8 sessions cannot fit 2x2");
    assert!(
        matches!(
            err,
            repf_serve::ClientError::Server {
                code: repf_serve::ErrorCode::Unsupported,
                ..
            }
        ),
        "want Unsupported, got {err:?}"
    );
    let err = c
        .place(vec!["no-such-session".into()], 1, 1, size_bytes, Vec::new())
        .expect_err("unknown session");
    assert!(
        matches!(
            err,
            repf_serve::ClientError::Server {
                code: repf_serve::ErrorCode::UnknownSession,
                ..
            }
        ),
        "want UnknownSession, got {err:?}"
    );

    for h in nodes {
        h.shutdown();
    }
}

/// The remote-model cache is bounded: pulling more peer-owned models
/// than `remote_model_cache_cap` clears the cache wholesale, and the
/// next query over evicted members re-pulls them — every transfer
/// counted in `cluster.model.remote_hits`. (Cache contents never affect
/// response bytes, only pull traffic.)
#[test]
fn remote_model_cache_evicts_at_cap_and_repulls() {
    // Cap of 1 on the querying node: a co-run touching two or more
    // peer-owned sessions overflows it within one query.
    let nodes: Vec<_> = (0..2)
        .map(|i| {
            start(ServeConfig {
                remote_model_cache_cap: if i == 0 { 1 } else { 64 },
                ..ServeConfig::default()
            })
            .expect("start node")
        })
        .collect();
    let members: Vec<String> = nodes.iter().map(|h| h.addr().to_string()).collect();
    apply_membership(
        &members,
        &RingSpec {
            seed: 7,
            vnodes: DEFAULT_VNODES,
            nodes: members.clone(),
        },
    )
    .expect("install ring");

    let sessions: Vec<String> = (0..16).map(|i| format!("cap-s{i}")).collect();
    let mut ca = Client::connect(nodes[0].addr()).expect("connect a");
    for (i, s) in sessions.iter().enumerate() {
        ca.submit_batch(s, batch(i as u64)).expect("submit");
    }
    let hits = |c: &mut Client| stat(&c.stats().expect("stats"), "cluster.model.remote_hits");
    let sizes = vec![256 << 10];

    let before = hits(&mut ca);
    let (first, _) = ca
        .co_run(sessions.clone(), sizes.clone(), Vec::new())
        .expect("first co_run");
    let pulled = hits(&mut ca) - before;
    assert!(
        pulled > 1.0,
        "16 sessions over 2 nodes must exceed the cap-1 remote cache ({pulled} pulls)"
    );

    // With more remote members than the cap, the wholesale clear ran at
    // least once mid-query, so a repeat cannot be fully cache-served:
    // evicted members are re-pulled and re-counted.
    let (second, _) = ca
        .co_run(sessions.clone(), sizes.clone(), Vec::new())
        .expect("second co_run");
    let repulled = hits(&mut ca) - before - pulled;
    assert!(
        repulled > 0.0,
        "cap-overflow eviction must force re-pulls on the repeat query"
    );
    for ((n1, c1), (n2, c2)) in first.iter().zip(&second) {
        assert_eq!(n1, n2);
        for (a, b) in c1.iter().zip(c2) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "eviction never changes response bytes"
            );
        }
    }

    for h in nodes {
        h.shutdown();
    }
}

/// Drains ship cached models with the sessions (counted as remote model
/// hits on the receiver, sparing a refit), leave tombstones behind, and
/// the drained daemon keeps forwarding stragglers through them — a
/// client with a stale map gets byte-identical answers, never a
/// wrong-node error.
#[test]
fn drain_migrates_models_and_forwards_stragglers() {
    let a = start(ServeConfig::default()).expect("start a");
    let b = start(ServeConfig::default()).expect("start b");
    let members: Vec<String> = vec![a.addr().to_string(), b.addr().to_string()];
    let spec = |nodes: Vec<String>| RingSpec {
        seed: 7,
        vnodes: DEFAULT_VNODES,
        nodes,
    };
    apply_membership(&members, &spec(members.clone())).expect("install ring");

    // Submit + query through node A only: sessions owned by B are
    // forwarded over the peer protocol, and the query forces a fit (and
    // a cached model) at each session's owner.
    let sessions: Vec<String> = (0..8).map(|i| format!("drain-s{i}")).collect();
    let mut ca = Client::connect(a.addr()).expect("connect a");
    for (i, s) in sessions.iter().enumerate() {
        ca.submit_batch(s, batch(i as u64)).expect("submit");
        let r = ca
            .query_mrc(Target::Session(s.clone()), vec![64 << 10, 1 << 20])
            .expect("query");
        assert_eq!(r.len(), 2);
    }
    let sa = ca.stats().expect("stats a");
    let mut cb = Client::connect(b.addr()).expect("connect b");
    let sb = cb.stats().expect("stats b");
    assert!(
        stat(&sa, "cluster.forwarded") > 0.0,
        "some sessions must be owned by B and get forwarded"
    );
    let fits_before = stat(&sa, "model_cache.misses") + stat(&sb, "model_cache.misses");
    assert_eq!(fits_before, sessions.len() as f64);
    let b_sessions = stat(&sb, "sessions.shard.0.sessions"); // may be 0 per shard
    let _ = b_sessions;

    // Drain B: its sessions (and their cached models) move to A.
    let report = apply_membership(&members, &spec(vec![members[0].clone()])).expect("drain node b");
    assert!(report.migrated() > 0, "B must have owned some sessions");
    let sb = cb.stats().expect("stats b after drain");
    assert_eq!(stat(&sb, "cluster.migrations.started"), 1.0);
    assert_eq!(stat(&sb, "cluster.migrations.completed"), 1.0);
    assert_eq!(
        stat(&sb, "cluster.migrations.sessions"),
        report.migrated() as f64
    );
    assert!(stat(&sb, "cluster.tombstones") >= report.migrated() as f64);
    let sa = ca.stats().expect("stats a after drain");
    assert_eq!(
        stat(&sa, "cluster.model.remote_hits"),
        report.migrated() as f64,
        "every migrated session shipped its cached model"
    );

    // Every session now answers on A without a single new fit.
    for s in &sessions {
        ca.query_mrc(Target::Session(s.clone()), vec![64 << 10, 1 << 20])
            .expect("post-drain query");
    }
    let sa = ca.stats().expect("stats a final");
    let sb = cb.stats().expect("stats b final");
    assert_eq!(
        stat(&sa, "model_cache.misses") + stat(&sb, "model_cache.misses"),
        fits_before,
        "migration must not force any refit"
    );

    // A straggler still talking to the drained node gets forwarded
    // through the tombstone and sees byte-identical bytes.
    for s in &sessions {
        let req = repf_serve::Request::QueryMrc {
            target: Target::Session(s.clone()),
            sizes_bytes: vec![64 << 10, 256 << 10],
        };
        let via_b = cb.call_any(&req).expect("stale-map query via B");
        let via_a = ca.call_any(&req).expect("direct query via A");
        assert_eq!(
            via_b.encode(),
            via_a.encode(),
            "forwarded answer for '{s}' must be byte-identical"
        );
    }

    a.shutdown();
    b.shutdown();
}

/// A session evicted on its owner and then created again is never
/// answered from a peer's pulled copy of the old incarnation: the owner
/// numbers the new incarnation past every version its shard has used,
/// so the peer's "is my cached version current?" pull gets the new
/// model. Both nodes answer with the same bytes.
#[test]
fn a_recreated_session_is_not_served_from_the_evicted_ones_pull() {
    let a = start(ServeConfig::default()).expect("start a");
    // Room for one 30-sample session: 60 more samples take it past the
    // whole budget, which evicts it whatever its frequency.
    let b = start(ServeConfig {
        session_budget_bytes: 2_000,
        shards: 1,
        ..ServeConfig::default()
    })
    .expect("start b");
    let members: Vec<String> = vec![a.addr().to_string(), b.addr().to_string()];
    let spec = RingSpec {
        seed: 7,
        vnodes: DEFAULT_VNODES,
        nodes: members.clone(),
    };
    apply_membership(&members, &spec).expect("install ring");
    let ring = Ring::new(7, DEFAULT_VNODES, members.clone());
    let session = &(0..)
        .map(|i| format!("recreated-s{i}"))
        .find(|s| ring.owner(s) == Some(members[1].as_str()))
        .expect("a name owned by b");
    // `n` reuses at distance `d`: a cache of 64 KiB misses all of them
    // at d = 1 << 30 and hits all of them at d = 1.
    let batch_at = |d: u64, n: u64| {
        let mut batch = SampleBatch {
            total_refs: 1_000_000,
            sample_period: 1009,
            line_bytes: 64,
            ..SampleBatch::default()
        };
        for i in 0..n {
            batch.reuse.push(ReuseSample {
                start_pc: Pc(100),
                start_kind: AccessKind::Load,
                end_pc: Pc(100),
                end_kind: AccessKind::Load,
                distance: d,
                start_index: i * 1000,
            });
        }
        batch
    };
    let co_run = Request::CoRun {
        sessions: vec![session.clone()],
        sizes_bytes: vec![64 << 10, 1 << 40],
        intensities: Vec::new(),
    };
    let mut ca = Client::connect(a.addr()).expect("connect a");
    let mut cb = Client::connect(b.addr()).expect("connect b");

    cb.submit_batch(session, batch_at(1 << 30, 30))
        .expect("first incarnation");
    let old = ca.call_any(&co_run).expect("co-run via a pulls the model");
    cb.submit_batch(session, batch_at(1 << 30, 60))
        .expect("growth past the budget");
    let gone = cb.query_mrc(Target::Session(session.clone()), vec![64 << 10]);
    assert!(
        matches!(
            gone,
            Err(ClientError::Server {
                code: ErrorCode::UnknownSession,
                ..
            })
        ),
        "outgrowing the budget must evict the session: {gone:?}"
    );
    cb.submit_batch(session, batch_at(1, 30))
        .expect("second incarnation");

    let via_a = ca.call_any(&co_run).expect("co-run via a");
    let via_b = cb.call_any(&co_run).expect("co-run via b");
    assert_ne!(
        old.encode(),
        via_b.encode(),
        "the incarnations answer differently"
    );
    assert_eq!(
        via_a.encode(),
        via_b.encode(),
        "a peer must answer from the live incarnation, not the evicted one"
    );
    a.shutdown();
    b.shutdown();
}

/// `batch(salt)` plus four dangling samples on two PCs, so tails carry
/// per-PC dangling counts too.
fn batch_with_dangling(salt: u64) -> SampleBatch {
    let mut b = batch(salt);
    for i in 0..4u64 {
        b.dangling.push(DanglingSample {
            pc: Pc(100 + (i % 2) as u32 * 100),
            kind: AccessKind::Load,
            start_index: i * 1000 + 500,
        });
    }
    b
}

/// Samples in one `batch_with_dangling`.
const BATCH_SAMPLES: u64 = 44;

/// A reply's bytes, for bit-for-bit comparison.
fn reply(c: &mut Client, req: &Request) -> Vec<u8> {
    c.call_any(req).expect("reply").encode()
}

/// Once node A holds a copy of a peer-owned session's model, a co-run
/// after new submits pulls only the samples the copy lacks: one tail per
/// remote member, a few hundred bytes where the whole model is
/// kilobytes. A extends its copy by the tail, so its reply equals the
/// same co-run asked of each owner and of a single node, bit for bit —
/// through several extensions, one of which folds the copy's delta into
/// its base.
#[test]
fn corun_pulls_only_the_samples_a_cached_copy_lacks() {
    let nodes: Vec<_> = (0..3)
        .map(|_| start(ServeConfig::default()).expect("start node"))
        .collect();
    let members: Vec<String> = nodes.iter().map(|h| h.addr().to_string()).collect();
    apply_membership(
        &members,
        &RingSpec {
            seed: 7,
            vnodes: DEFAULT_VNODES,
            nodes: members.clone(),
        },
    )
    .expect("install ring");
    let ring = Ring::new(7, DEFAULT_VNODES, members.clone());
    let owned_by = |s: &String, node: usize| ring.owner(s) == Some(members[node].as_str());
    let names = (0..).map(|i| format!("tail-s{i}"));
    let local: Vec<String> = names.clone().filter(|s| owned_by(s, 0)).take(2).collect();
    let remote: Vec<String> = names
        .clone()
        .filter(|s| owned_by(s, 1))
        .take(2)
        .chain(names.filter(|s| owned_by(s, 2)).take(2))
        .collect();
    let sessions: Vec<String> = local.iter().chain(&remote).cloned().collect();
    let solo = start(ServeConfig::default()).expect("start solo");
    let mut single = Client::connect(solo.addr()).expect("connect solo");
    let mut ca = Client::connect(nodes[0].addr()).expect("connect a");
    let mut owners: Vec<Client> = nodes[1..]
        .iter()
        .map(|h| Client::connect(h.addr()).expect("connect owner"))
        .collect();
    let submit_all = |ca: &mut Client, single: &mut Client, salt: u64| {
        for (i, s) in sessions.iter().enumerate() {
            let b = batch_with_dangling(salt * 100 + i as u64);
            ca.submit_batch(s, b.clone()).expect("submit via a");
            single
                .submit_batch(s, b)
                .expect("submit to the single node");
        }
    };
    let co_run = Request::CoRun {
        sessions: sessions.clone(),
        sizes_bytes: vec![64 << 10, 1 << 20, 8 << 20],
        intensities: Vec::new(),
    };
    let counts = |c: &mut Client| {
        let s = c.stats().expect("stats");
        [
            stat(&s, "cluster.model.remote_hits"),
            stat(&s, "cluster.pull_tails"),
            stat(&s, "cluster.pull_bytes"),
        ]
    };

    // Ten batches per session, then one co-run: whole models, no tails.
    for salt in 0..10 {
        submit_all(&mut ca, &mut single, salt);
    }
    let before = counts(&mut ca);
    reply(&mut ca, &co_run);
    let mut last = counts(&mut ca);
    let moved = |now: [f64; 3], last: [f64; 3]| [0, 1, 2].map(|k| now[k] - last[k]);
    let [hits, tails, whole_bytes] = moved(last, before);
    assert_eq!(hits, remote.len() as f64, "one transfer per remote member");
    assert_eq!(
        tails, 0.0,
        "a pull that quotes no copy gets the whole model"
    );

    // The copy on A, tracked the way `StatStackModel::extend` does: the
    // delta folds into the base once delta² > 16·base.
    let (mut base, mut delta, mut folds) = (10 * BATCH_SAMPLES, 0u64, 0);
    // A tail frame: length, version and type bytes, the version, and two
    // counted lists of 12-byte entries (two dangling PCs).
    let tail_bound = 4 + 2 + 8 + 4 + 12 * (BATCH_SAMPLES - 4) + 4 + 12 * 2;
    for round in 10..14 {
        submit_all(&mut ca, &mut single, round);
        let via_a = reply(&mut ca, &co_run);
        let now = counts(&mut ca);
        let [hits, tails, bytes] = moved(now, last);
        last = now;
        assert_eq!(hits, remote.len() as f64, "round {round}: transfers");
        assert_eq!(
            tails,
            remote.len() as f64,
            "round {round}: every remote member is a tail"
        );
        assert!(
            bytes <= (remote.len() as u64 * tail_bound) as f64 && bytes < whole_bytes,
            "round {round}: {bytes} bytes pulled, against {whole_bytes} for the whole models"
        );
        for owner in &mut owners {
            assert_eq!(
                via_a,
                reply(owner, &co_run),
                "round {round}: A and an owner differ"
            );
        }
        assert_eq!(
            via_a,
            reply(&mut single, &co_run),
            "round {round}: A and a single node differ"
        );
        delta += BATCH_SAMPLES;
        if delta * delta > 16 * base {
            (base, delta) = (base + delta, 0);
            folds += 1;
        }
    }
    assert!(
        folds >= 1 && delta > 0,
        "the copy folded once and grew again"
    );

    solo.shutdown();
    for h in nodes {
        h.shutdown();
    }
}

/// Installing a ring drops the models this node pulled: an imported
/// session keeps its exporter's version, which a copy pulled before the
/// move may name for another history. The first pull after a new epoch
/// is a whole-model transfer, never a tail, and answers as the owner
/// does.
#[test]
fn a_new_epoch_makes_the_next_pull_a_whole_transfer() {
    let a = start(ServeConfig::default()).expect("start a");
    let b = start(ServeConfig::default()).expect("start b");
    let members: Vec<String> = vec![a.addr().to_string(), b.addr().to_string()];
    let spec = RingSpec {
        seed: 7,
        vnodes: DEFAULT_VNODES,
        nodes: members.clone(),
    };
    apply_membership(&members, &spec).expect("install ring");
    let ring = Ring::new(7, DEFAULT_VNODES, members.clone());
    let session = (0..)
        .map(|i| format!("epoch-s{i}"))
        .find(|s| ring.owner(s) == Some(members[1].as_str()))
        .expect("a name owned by b");
    let co_run = Request::CoRun {
        sessions: vec![session.clone()],
        sizes_bytes: vec![64 << 10, 1 << 20],
        intensities: Vec::new(),
    };
    let mut ca = Client::connect(a.addr()).expect("connect a");
    let mut cb = Client::connect(b.addr()).expect("connect b");
    let counts = |c: &mut Client| {
        let s = c.stats().expect("stats");
        (
            stat(&s, "cluster.model.remote_hits"),
            stat(&s, "cluster.pull_tails"),
        )
    };

    for salt in 0..3 {
        ca.submit_batch(&session, batch_with_dangling(salt))
            .expect("submit");
    }
    reply(&mut ca, &co_run);
    ca.submit_batch(&session, batch_with_dangling(3))
        .expect("submit");
    let (hits, tails) = counts(&mut ca);
    reply(&mut ca, &co_run);
    assert_eq!(
        counts(&mut ca),
        (hits + 1.0, tails + 1.0),
        "a copy on A is extended by a tail"
    );

    let report = apply_membership(&members, &spec).expect("new epoch");
    assert_eq!(report.migrated(), 0, "the same members keep their sessions");
    ca.submit_batch(&session, batch_with_dangling(4))
        .expect("submit");
    let (hits, tails) = counts(&mut ca);
    let via_a = reply(&mut ca, &co_run);
    assert_eq!(
        counts(&mut ca),
        (hits + 1.0, tails),
        "the first pull after a new epoch is a whole transfer"
    );
    assert_eq!(
        via_a,
        reply(&mut cb, &co_run),
        "A answers as the owner does"
    );
    a.shutdown();
    b.shutdown();
}

/// A tail only extends the copy its pull quoted. A peer that answers a
/// pull quoting no copy with a tail has broken the peer protocol: the
/// co-run member is answered `Internal`, and nothing is counted as a
/// transfer.
#[test]
fn a_tail_answering_a_pull_that_quoted_no_copy_is_internal() {
    let fake = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake peer");
    let fake_addr = fake.local_addr().expect("addr").to_string();
    let peer = std::thread::spawn(move || {
        let (mut conn, _) = fake.accept().expect("accept");
        let body = repf_serve::proto::read_frame(&mut conn)
            .expect("read")
            .expect("a frame");
        let pull = Request::decode(&body).expect("decode");
        let tail = repf_serve::Response::ModelTail {
            version: 2,
            completed: vec![(100, 7)],
            dangling: vec![],
        };
        std::io::Write::write_all(&mut conn, &tail.encode()).expect("answer");
        pull
    });
    let node = start(ServeConfig::default()).expect("start node");
    let nodes = vec![node.addr().to_string(), fake_addr.clone()];
    let mut c = Client::connect(node.addr()).expect("connect");
    c.call_any(&Request::RingSet {
        epoch: 1,
        seed: 7,
        vnodes: DEFAULT_VNODES,
        nodes: nodes.clone(),
    })
    .expect("ring installed");
    let ring = Ring::new(7, DEFAULT_VNODES, nodes);
    let session = (0..)
        .map(|i| format!("faked-{i}"))
        .find(|s| ring.owner(s) == Some(fake_addr.as_str()))
        .expect("the fake peer owns some name");

    let err = c
        .co_run(vec![session.clone()], vec![64 << 10], Vec::new())
        .expect_err("a tail without a copy");
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: ErrorCode::Internal,
                ..
            }
        ),
        "want Internal, got {err:?}"
    );
    assert_eq!(
        peer.join().expect("fake peer"),
        Request::ModelPullCurrent {
            session,
            cached_version: u64::MAX,
            cached_samples: None,
        },
        "a pull with no copy quotes no counts"
    );
    let s = c.stats().expect("stats");
    assert_eq!(stat(&s, "cluster.model.remote_hits"), 0.0);
    assert_eq!(stat(&s, "cluster.pull_tails"), 0.0);
    node.shutdown();
}
