//! Store-policy integration: under a zipf-skewed query stream polluted
//! by one-shot churn submits (the workload `repf load --mix scan-churn`
//! generates), the W-TinyLFU store must keep more of the hot working
//! set alive than plain LRU — and replay digests must stay bit-identical
//! across node counts *per policy*, because admission only ever acts
//! under byte pressure and replay never creates any.

use repf_sampling::ReuseSample;
use repf_serve::{
    generate_trace, replay_spawned, GenConfig, ReplayConfig, ReplayRng, SampleBatch, ServeConfig,
    ShardedSessionStore, StorePolicy, ZipfGen,
};
use repf_trace::{AccessKind, Pc};
use std::time::Duration;

/// A fixed-size batch (~3.3 kB accounted) — big enough that a handful
/// of sessions fill a small budget.
fn batch(seed: u64, samples: u64) -> SampleBatch {
    let mut rng = ReplayRng::new(seed);
    let mut b = SampleBatch {
        total_refs: 50_000,
        sample_period: 1009,
        line_bytes: 64,
        ..SampleBatch::default()
    };
    for i in 0..samples {
        b.reuse.push(ReuseSample {
            start_pc: Pc(100),
            start_kind: AccessKind::Load,
            end_pc: Pc(100),
            end_kind: AccessKind::Load,
            distance: 1 + rng.below(1 << 20),
            start_index: i * 1000,
        });
    }
    b
}

/// What one policy did with the shared trace.
struct Outcome {
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected: u64,
}

/// Drive the *same* seeded zipf-plus-churn access trace (s=0.99, 10%
/// one-shot submits to never-queried sessions, 90% zipf queries) into a
/// store with the given policy. The trace is a pure function of the
/// seed, so both policies see identical inputs.
fn run_trace(policy: StorePolicy) -> Outcome {
    const SESSIONS: u32 = 16;
    const OPS: u64 = 3000;
    let store = ShardedSessionStore::with_policy(64 << 10, 1, policy);

    // Preload the working set (mirrors `run_load`'s preload phase).
    for s in 0..SESSIONS {
        store
            .submit(&format!("hot-{s}"), batch(1000 + u64::from(s), 100))
            .expect("preload fits the line size");
    }

    let mut rng = ReplayRng::new(0x5705_11C7);
    let zipf = ZipfGen::new(SESSIONS, 0.99);
    let (mut hits, mut misses) = (0u64, 0u64);
    for i in 0..OPS {
        if rng.below(10) == 0 {
            // One-shot pollution: submitted once, never seen again.
            store
                .submit(&format!("churn-{i}"), batch(777 + i, 100))
                .expect("churn fits the line size");
        } else {
            let s = zipf.draw(&mut rng);
            match store.with_profile(&format!("hot-{s}"), |p| p.reuse.len()) {
                Some(_) => hits += 1,
                None => misses += 1,
            }
        }
    }

    let stats = store.shard_stats();
    Outcome {
        hits,
        misses,
        evictions: store.evictions(),
        rejected: stats.iter().map(|s| s.admission_rejected).sum(),
    }
}

#[test]
fn tinylfu_beats_lru_hit_ratio_under_zipf_with_one_shot_churn() {
    let lru = run_trace(StorePolicy::Lru);
    let lfu = run_trace(StorePolicy::TinyLfu);

    let ratio = |o: &Outcome| o.hits as f64 / (o.hits + o.misses) as f64;
    let (lru_r, lfu_r) = (ratio(&lru), ratio(&lfu));

    // The pollution is real: LRU lost hot sessions to the churn.
    assert!(
        lru.misses > 0 && lru.evictions > 0,
        "LRU must feel the churn (misses {}, evictions {})",
        lru.misses,
        lru.evictions
    );
    // The admission filter is doing the work, not a bigger budget.
    assert!(
        lfu.rejected > 0,
        "tinylfu must have rejected churn at admission"
    );
    assert!(
        lfu_r > lru_r,
        "tinylfu hit ratio {lfu_r:.4} must beat lru {lru_r:.4} on the same trace"
    );
    // Note: raw eviction counts are similar under both policies — every
    // rejected one-shot is itself counted as an eviction. What admission
    // changes is *which* sessions go: the churn instead of the hot set.
    assert!(
        lfu.misses < lru.misses,
        "tinylfu must lose strictly fewer hot-session queries ({} vs {})",
        lfu.misses,
        lru.misses
    );
}

fn cfg(policy: StorePolicy) -> ServeConfig {
    ServeConfig {
        threads: 2,
        store_policy: policy,
        idle_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    }
}

/// Replay digests are invariant under node count for each policy — and
/// across policies too: the replay trace fits the default budget,
/// admission and eviction never fire, so the policies are behaviorally
/// identical exactly as the store's replay-safety invariant promises.
#[test]
fn replay_digest_is_per_policy_invariant_across_nodes() {
    let trace = generate_trace(&GenConfig {
        seed: 0x0D1_6E57,
        sessions: 5,
        rounds: 2,
        samples_per_batch: 40,
    });
    let rcfg = ReplayConfig::default();

    let mut digests = Vec::new();
    for policy in StorePolicy::ALL {
        let runs = [
            ("n=1", replay_spawned(1, &trace, &cfg(policy), &rcfg)),
            ("n=3", replay_spawned(3, &trace, &cfg(policy), &rcfg)),
        ];
        let mut first = None;
        for (label, run) in runs {
            let r = run.unwrap_or_else(|e| panic!("{policy} {label} failed: {e}"));
            assert!(r.is_clean(), "{policy} {label} diverged from the oracle");
            assert_eq!(r.requests, trace.len() as u64, "{policy} {label} sent all");
            match first {
                None => first = Some(r.digest),
                Some(d) => assert_eq!(
                    d, r.digest,
                    "{policy} {label}: digest must not depend on node count"
                ),
            }
        }
        digests.push(first.expect("at least one run"));
    }
    assert_eq!(
        digests[0], digests[1],
        "under-budget replay must be policy-agnostic (replay-safety invariant)"
    );
}
