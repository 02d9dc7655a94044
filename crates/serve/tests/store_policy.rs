//! Store admission under churn: under a zipf-skewed query stream
//! polluted by one-shot churn submits (the workload `repf load --mix
//! scan-churn` generates), the W-TinyLFU store must keep more of the hot
//! working set alive than plain LRU did on the same seeded trace.

use repf_sampling::ReuseSample;
use repf_serve::{ReplayRng, SampleBatch, ShardedSessionStore, ZipfGen};
use repf_trace::{AccessKind, Pc};

/// The bar: what the plain-LRU store (this crate's default policy before
/// W-TinyLFU became the only one) did with exactly this trace — hot
/// queries answered, hot queries that found their session evicted, and
/// sessions evicted.
const LRU_HITS: u64 = 1_649;
const LRU_MISSES: u64 = 1_040;
const LRU_EVICTIONS: u64 = 309;

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

/// What the store did with the trace.
struct Outcome {
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected: u64,
}

/// Drive the seeded zipf-plus-churn access trace (s=0.99, 10% one-shot
/// submits to never-queried sessions, 90% zipf queries) into a
/// one-shard store. The trace is a pure function of the seed, so the
/// outcome is too.
fn run_trace() -> Outcome {
    const SESSIONS: u32 = 16;
    const OPS: u64 = 3000;
    let store = ShardedSessionStore::new(64 << 10, 1);

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
            match store.model(&format!("hot-{s}")) {
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
    let lfu = run_trace();
    // The trace is the one the bar was measured on: same query count.
    assert_eq!(lfu.hits + lfu.misses, LRU_HITS + LRU_MISSES);
    // The budget is tight: sessions go, as the bar's did.
    assert!(
        lfu.evictions > LRU_EVICTIONS / 2,
        "the churn must press on the budget (evictions {}, LRU {LRU_EVICTIONS})",
        lfu.evictions
    );
    // The admission filter is doing the work, not a bigger budget.
    assert!(
        lfu.rejected > 0,
        "tinylfu must have rejected churn at admission"
    );
    // Raw eviction counts are similar to LRU's — every rejected
    // one-shot is itself counted as an eviction. What admission changes
    // is *which* sessions go: the churn instead of the hot set.
    assert!(
        lfu.hits > LRU_HITS && lfu.misses < LRU_MISSES,
        "tinylfu answered {} hot queries and lost {}; LRU answered {LRU_HITS} and lost {LRU_MISSES}",
        lfu.hits,
        lfu.misses
    );
}
