//! Property test for `ShardedSessionStore` eviction accounting: for
//! seeded random submit/query sequences over varied budgets and shard
//! counts, the aggregate byte gauge always equals the sum of the
//! per-shard gauges and never exceeds the budget — after *every*
//! operation, not just at the end — while admission and segment
//! shuffling (window → probation → protected, demotions,
//! frequency-compared rejections) run underneath.

use repf_sampling::ReuseSample;
use repf_serve::{SampleBatch, ShardedSessionStore};
use repf_trace::{AccessKind, Pc};

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

fn batch(rng: &mut Rng) -> SampleBatch {
    let n = 1 + rng.below(120) as usize;
    SampleBatch {
        total_refs: 1000,
        sample_period: 1009,
        line_bytes: 64,
        reuse: (0..n)
            .map(|i| ReuseSample {
                start_pc: Pc(100 + (i % 4) as u32),
                start_kind: AccessKind::Load,
                end_pc: Pc(100 + (i % 4) as u32),
                end_kind: AccessKind::Load,
                distance: rng.below(1 << 20),
                start_index: i as u64 * 1000,
            })
            .collect(),
        dangling: vec![],
        strides: vec![],
    }
}

fn check_invariants(store: &ShardedSessionStore, op: &str) {
    let stats = store.shard_stats();
    let shard_sum: u64 = stats.iter().map(|s| s.bytes).sum();
    assert_eq!(
        store.bytes(),
        shard_sum,
        "aggregate gauge equals the per-shard sum after {op}"
    );
    assert!(
        store.bytes() <= store.budget_bytes() as u64,
        "aggregate {} within budget {} after {op}",
        store.bytes(),
        store.budget_bytes()
    );
    for (i, s) in stats.iter().enumerate() {
        assert!(
            s.bytes <= s.budget_bytes,
            "shard {i} holds {} over its {} slice after {op}",
            s.bytes,
            s.budget_bytes
        );
        // The segment gauges always partition the shard's bytes.
        assert_eq!(
            s.window_bytes + s.probation_bytes + s.protected_bytes,
            s.bytes,
            "shard {i} segment gauges partition its bytes after {op}"
        );
    }
}

#[test]
fn random_submit_sequences_never_break_the_byte_gauges() {
    for (seed, budget, shards) in [
        (0x01u64, 32usize << 10, 1usize),
        (0x02, 48 << 10, 2),
        (0x03, 64 << 10, 4),
        (0x04, 96 << 10, 8),
        (0x05, 16 << 10, 3),
        (0x06, 128 << 10, 5),
    ] {
        let mut rng = Rng(seed);
        let store = ShardedSessionStore::new(budget, shards);
        let mut submits = 0u64;
        for op in 0..600u64 {
            let name = format!("s{}", rng.below(24));
            match rng.below(10) {
                // Mostly submits: eviction pressure is the point.
                0..=6 => {
                    store
                        .submit(&name, batch(&mut rng))
                        .expect("consistent line size");
                    submits += 1;
                }
                // Queries refresh recency and frequency and exercise the
                // model path.
                _ => {
                    let _ = store.model(&name);
                }
            }
            check_invariants(&store, &format!("op {op} (seed {seed:#x})"));
        }
        assert!(submits > 300, "sequence was submit-heavy");
        assert!(
            store.evictions() > 0,
            "seed {seed:#x}: 24 sessions × ~2.5 kB batches must overflow {budget} B"
        );
        // The outcome's reported aggregate agrees with the gauges too.
        let out = store.submit("final", batch(&mut rng)).unwrap();
        assert_eq!(
            out.store_bytes,
            store.bytes(),
            "submit reports the true aggregate"
        );
        check_invariants(&store, "final submit");
    }
}
