//! W-TinyLFU admission machinery for the session store: a 4-bit
//! count-min frequency sketch with periodic halving, a doorkeeper bloom
//! filter that absorbs one-hit wonders before they touch the sketch,
//! and a lock-free striped access buffer so read-path frequency
//! recording never takes a lock of its own (Ristretto/cacheD-style
//! pooled recording).
//!
//! Everything here is deterministic for a given access sequence: the
//! hash mixes are fixed splitmix64 finalizers, so the same trace always
//! produces the same sketch state — a requirement for the seeded
//! hit-ratio regression tests.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// splitmix64 finalizer — the repo's standard cheap 64-bit mix.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-row seeds: large odd constants so the four count-min rows probe
/// independent positions for the same key.
const ROW_SEEDS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x27D4_EB2F_1656_67C5,
];

/// A count-min sketch of 4-bit saturating counters (4 rows, a
/// power-of-two number of counters per row, 16 counters packed per
/// `u64` word) with periodic halving: once the number of recorded
/// increments reaches the sample threshold, every counter is halved and
/// the increment count is halved with it, so the sketch tracks *recent*
/// popularity instead of all-time popularity.
pub struct FreqSketch {
    table: Vec<u64>,
    /// counters-per-row − 1 (power-of-two row width).
    mask: u64,
    words_per_row: usize,
    /// Increments recorded since the last halving.
    ops: u64,
    /// Halve when `ops` reaches this threshold.
    sample: u64,
    resets: u64,
}

/// Counter saturation: 4 bits.
const COUNTER_MAX: u64 = 15;

impl FreqSketch {
    /// A sketch with `counters` counters per row (rounded up to a power
    /// of two, minimum 16) that halves every `sample` increments.
    pub fn with_sample(counters: usize, sample: u64) -> Self {
        let c = counters.next_power_of_two().max(16);
        let words_per_row = c / 16;
        FreqSketch {
            table: vec![0u64; words_per_row * ROW_SEEDS.len()],
            mask: c as u64 - 1,
            words_per_row,
            ops: 0,
            sample: sample.max(1),
            resets: 0,
        }
    }

    #[inline]
    fn slot(&self, hash: u64, row: usize) -> (usize, u32) {
        let c = mix(hash ^ ROW_SEEDS[row]) & self.mask;
        let word = row * self.words_per_row + (c >> 4) as usize;
        let shift = ((c & 15) * 4) as u32;
        (word, shift)
    }

    /// Record one occurrence of `hash`. Returns `true` when this
    /// increment triggered a halving reset (the caller's doorkeeper
    /// must be cleared alongside).
    pub fn increment(&mut self, hash: u64) -> bool {
        let mut added = false;
        for row in 0..ROW_SEEDS.len() {
            let (word, shift) = self.slot(hash, row);
            let cur = (self.table[word] >> shift) & COUNTER_MAX;
            if cur < COUNTER_MAX {
                self.table[word] += 1u64 << shift;
                added = true;
            }
        }
        if added {
            self.ops += 1;
            if self.ops >= self.sample {
                self.halve();
                return true;
            }
        }
        false
    }

    /// The estimated occurrence count of `hash` (min over rows; never
    /// an under-count below the 4-bit saturation cap).
    pub fn estimate(&self, hash: u64) -> u32 {
        let mut est = COUNTER_MAX;
        for row in 0..ROW_SEEDS.len() {
            let (word, shift) = self.slot(hash, row);
            est = est.min((self.table[word] >> shift) & COUNTER_MAX);
        }
        est as u32
    }

    /// Halve every counter (aging). Shifting the packed word right by
    /// one moves each nibble's low bit into its neighbour; the mask
    /// clears those strays.
    fn halve(&mut self) {
        for w in &mut self.table {
            *w = (*w >> 1) & 0x7777_7777_7777_7777;
        }
        self.ops /= 2;
        self.resets += 1;
    }

    /// Halving resets performed over the sketch's lifetime.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Counters per row (the power-of-two row width).
    #[cfg(test)]
    pub fn counters_per_row(&self) -> usize {
        (self.mask + 1) as usize
    }
}

/// A small bloom filter (two probes) in front of the sketch: the first
/// sighting of a key inside a sample window only marks the doorkeeper,
/// so one-hit wonders never consume sketch counters. Cleared on every
/// sketch halving.
pub struct Doorkeeper {
    bits: Vec<u64>,
    mask: u64,
}

impl Doorkeeper {
    /// A doorkeeper of `bits` bits (rounded up to a power of two,
    /// minimum 64).
    pub fn new(bits: usize) -> Self {
        let n = bits.next_power_of_two().max(64);
        Doorkeeper {
            bits: vec![0u64; n / 64],
            mask: n as u64 - 1,
        }
    }

    #[inline]
    fn probes(&self, hash: u64) -> (u64, u64) {
        (
            mix(hash) & self.mask,
            mix(hash ^ 0x5851_F42D_4C95_7F2D) & self.mask,
        )
    }

    #[inline]
    fn bit(&self, b: u64) -> bool {
        self.bits[(b >> 6) as usize] & (1u64 << (b & 63)) != 0
    }

    /// Mark `hash`; returns whether it was already present.
    pub fn insert(&mut self, hash: u64) -> bool {
        let (a, b) = self.probes(hash);
        let present = self.bit(a) && self.bit(b);
        self.bits[(a >> 6) as usize] |= 1u64 << (a & 63);
        self.bits[(b >> 6) as usize] |= 1u64 << (b & 63);
        present
    }

    /// Whether `hash` is (probably) present.
    pub fn contains(&self, hash: u64) -> bool {
        let (a, b) = self.probes(hash);
        self.bit(a) && self.bit(b)
    }

    /// Forget everything (called on sketch halving).
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
    }

    /// Filter size in bits (power of two).
    #[cfg(test)]
    pub fn num_bits(&self) -> usize {
        (self.mask + 1) as usize
    }
}

/// The combined admission filter: doorkeeper + sketch, with the
/// counters the store surfaces through `Stats`.
pub struct TinyLfu {
    sketch: FreqSketch,
    door: Doorkeeper,
    door_hits: u64,
}

/// Budget scaling: one sketch counter per this many budget bytes, so
/// the sketch (counters × 4 rows × 4 bits = 2 bytes/counter) costs
/// ~0.1% of the shard budget it protects.
const BYTES_PER_COUNTER: usize = 2048;
/// Floor/ceiling for budget-derived sketch widths: tiny test budgets
/// still get a useful sketch, pathological budgets stay bounded
/// (2²² counters = 8 MiB of sketch).
const MIN_COUNTERS: usize = 1024;
const MAX_COUNTERS: usize = 1 << 22;

impl TinyLfu {
    /// A filter sized from the shard byte budget it guards: one sketch
    /// counter per [`BYTES_PER_COUNTER`] budget bytes and four
    /// doorkeeper bits per counter, clamped to `[MIN_COUNTERS,
    /// MAX_COUNTERS]`. A larger budget holds more sessions, so it gets a
    /// proportionally wider sketch — fewer collisions at the same ~0.1%
    /// memory overhead — while the admission rule itself (doorkeeper,
    /// estimate comparison, halving at 10× width) is unchanged.
    pub fn for_budget(budget_bytes: usize) -> Self {
        let c = (budget_bytes / BYTES_PER_COUNTER)
            .clamp(MIN_COUNTERS, MAX_COUNTERS)
            .next_power_of_two();
        Self::with_params(c, 10 * c as u64, 4 * c)
    }

    /// A filter with explicit sketch/doorkeeper sizing (tests).
    pub fn with_params(counters: usize, sample: u64, door_bits: usize) -> Self {
        TinyLfu {
            sketch: FreqSketch::with_sample(counters, sample),
            door: Doorkeeper::new(door_bits),
            door_hits: 0,
        }
    }

    /// Record one access. The first sighting inside a sample window is
    /// absorbed by the doorkeeper (counted in `doorkeeper_hits`);
    /// repeats feed the sketch. A sketch halving clears the doorkeeper.
    pub fn record(&mut self, hash: u64) {
        if self.door.insert(hash) {
            if self.sketch.increment(hash) {
                self.door.clear();
            }
        } else {
            self.door_hits += 1;
        }
    }

    /// The admission frequency of `hash`: sketch estimate plus one if
    /// the doorkeeper has seen it this window.
    pub fn frequency(&self, hash: u64) -> u32 {
        self.sketch.estimate(hash) + u32::from(self.door.contains(hash))
    }

    /// One-hit wonders absorbed by the doorkeeper (never reached the
    /// sketch).
    pub fn doorkeeper_hits(&self) -> u64 {
        self.door_hits
    }

    /// Sketch halving resets performed.
    pub fn sketch_resets(&self) -> u64 {
        self.sketch.resets()
    }

    /// Sketch counters per row.
    #[cfg(test)]
    pub fn sketch_counters(&self) -> usize {
        self.sketch.counters_per_row()
    }

    /// Doorkeeper size in bits.
    #[cfg(test)]
    pub fn doorkeeper_bits(&self) -> usize {
        self.door.num_bits()
    }
}

/// Capacity of a shard's striped access buffer.
const ACCESS_CAP: usize = 256;
const _: () = assert!(ACCESS_CAP.is_power_of_two());
/// A reader that lands on a multiple of this many pushes drains the
/// buffer under the shard lock it already holds — recording is batched,
/// never an extra lock acquisition.
const DRAIN_EVERY: usize = 64;

/// What a push tells the caller to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PushOutcome {
    /// An unconsumed older access was overwritten (lossy ring — fine,
    /// the sketch is an approximation).
    pub dropped: bool,
    /// The caller should drain the buffer into the store while it holds
    /// the shard lock for its own lookup.
    pub should_drain: bool,
}

/// A fixed-size lock-free ring of pending access hashes: readers push
/// with two relaxed atomic ops and drain in batches under the shard
/// lock they already hold for the lookup itself. Overwrites are lossy
/// by design (Ristretto-style); zero is the empty sentinel, so a zero
/// hash is nudged to a fixed non-zero value.
///
/// A drain visits only the slots pushed since the previous drain, the
/// newest [`ACCESS_CAP`] of them at most, so with nothing pending it
/// reads two counters and returns. A push claims its index before it
/// writes its slot; if a drain passes the slot in between, that access
/// stays behind until a later push to the same slot overwrites it
/// (reported as dropped, like any ring overwrite) or a later drain of
/// that slot collects it.
pub struct AccessBuffer {
    slots: Box<[AtomicU64]>,
    /// Pushes so far: the next push's index, unwrapped.
    head: AtomicUsize,
    /// `head` as the previous drain read it. Drains run under the shard
    /// lock, so one thread at a time writes it.
    drained: AtomicUsize,
}

impl AccessBuffer {
    pub fn new() -> Self {
        AccessBuffer {
            slots: (0..ACCESS_CAP).map(|_| AtomicU64::new(0)).collect(),
            head: AtomicUsize::new(0),
            drained: AtomicUsize::new(0),
        }
    }

    /// Record a pending access (lock-free, wait-free).
    pub fn push(&self, hash: u64) -> PushOutcome {
        let h = if hash == 0 { 0x9E37_79B9 } else { hash };
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        let prev = self.slots[i % ACCESS_CAP].swap(h, Ordering::Release);
        PushOutcome {
            dropped: prev != 0,
            should_drain: (i + 1).is_multiple_of(DRAIN_EVERY),
        }
    }

    /// Consume the accesses pushed since the previous drain, oldest
    /// first, invoking `f` per hash. Returns how many were consumed.
    pub fn drain(&self, mut f: impl FnMut(u64)) -> usize {
        // `head` and `drained` are counters that publish no other data;
        // each slot's hash is handed over by the push's Release swap and
        // this Acquire swap.
        let head = self.head.load(Ordering::Relaxed);
        let pending = head.wrapping_sub(self.drained.load(Ordering::Relaxed));
        if pending == 0 {
            return 0;
        }
        self.drained.store(head, Ordering::Relaxed);
        let mut n = 0;
        // `ACCESS_CAP` is a power of two, so ring positions stay
        // consistent when `head` wraps.
        for back in (1..=pending.min(ACCESS_CAP)).rev() {
            let v = self.slots[head.wrapping_sub(back) % ACCESS_CAP].swap(0, Ordering::Acquire);
            if v != 0 {
                f(v);
                n += 1;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix(self.0)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Property: a count-min sketch can over-count (collisions) but
    /// never under-count below the 4-bit saturation cap, for any key
    /// set and any true counts, as long as no halving reset fired.
    #[test]
    fn sketch_never_undercounts_before_reset() {
        for seed in [1u64, 2, 3, 4, 5] {
            let mut rng = Rng(seed);
            // Huge sample threshold: no reset can fire in this test.
            let mut sk = FreqSketch::with_sample(1024, u64::MAX);
            let keys: Vec<u64> = (0..200).map(|_| rng.next()).collect();
            let counts: Vec<u64> = keys.iter().map(|_| 1 + rng.below(20)).collect();
            for (k, c) in keys.iter().zip(&counts) {
                for _ in 0..*c {
                    assert!(!sk.increment(*k), "no reset with u64::MAX sample");
                }
            }
            for (k, c) in keys.iter().zip(&counts) {
                let want = (*c).min(COUNTER_MAX) as u32;
                assert!(
                    sk.estimate(*k) >= want,
                    "seed {seed}: estimate {} under-counts true {} (cap {})",
                    sk.estimate(*k),
                    c,
                    want
                );
            }
            assert_eq!(sk.resets(), 0);
        }
    }

    /// Property: halving preserves relative order for counts ≥ 2 —
    /// floor(a/2) ≥ floor(b/2) whenever a ≥ b, so a hot key's estimate
    /// never drops below a colder key's purely from aging.
    #[test]
    fn halving_preserves_relative_order_for_counts_ge_2() {
        for seed in [7u64, 11, 13] {
            let mut rng = Rng(seed);
            let mut sk = FreqSketch::with_sample(2048, u64::MAX);
            let keys: Vec<u64> = (0..64).map(|_| rng.next()).collect();
            // Distinct-ish counts in [2, 15] so saturation doesn't
            // flatten the order we check.
            let counts: Vec<u64> = keys.iter().map(|_| 2 + rng.below(14)).collect();
            for (k, c) in keys.iter().zip(&counts) {
                for _ in 0..*c {
                    sk.increment(*k);
                }
            }
            let before: Vec<u32> = keys.iter().map(|k| sk.estimate(*k)).collect();
            sk.halve();
            assert_eq!(sk.resets(), 1);
            let after: Vec<u32> = keys.iter().map(|k| sk.estimate(*k)).collect();
            for i in 0..keys.len() {
                assert_eq!(
                    after[i],
                    before[i] / 2,
                    "halving is exactly floor-div-2 per slot"
                );
                for j in 0..keys.len() {
                    if before[i] >= before[j] {
                        assert!(
                            after[i] >= after[j],
                            "seed {seed}: order inverted ({} vs {}) → ({} vs {})",
                            before[i],
                            before[j],
                            after[i],
                            after[j]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sketch_ages_out_at_sample_threshold() {
        let mut sk = FreqSketch::with_sample(64, 32);
        let mut fired = false;
        for i in 0..64u64 {
            fired |= sk.increment(mix(i));
        }
        assert!(fired, "32-increment sample must trigger a halving");
        assert!(sk.resets() >= 1);
    }

    #[test]
    fn doorkeeper_absorbs_first_sighting() {
        let mut lfu = TinyLfu::with_params(256, u64::MAX, 1024);
        assert_eq!(lfu.frequency(42), 0);
        lfu.record(42);
        assert_eq!(lfu.frequency(42), 1, "doorkeeper bonus only");
        assert_eq!(lfu.doorkeeper_hits(), 1, "first sighting absorbed");
        lfu.record(42);
        assert_eq!(lfu.frequency(42), 2, "second access reaches the sketch");
        assert_eq!(lfu.doorkeeper_hits(), 1);
    }

    #[test]
    fn doorkeeper_clears_with_sketch_reset() {
        let mut lfu = TinyLfu::with_params(64, 8, 512);
        for i in 0..64u64 {
            lfu.record(mix(i));
            lfu.record(mix(i));
        }
        assert!(lfu.sketch_resets() >= 1);
        // A brand-new key right after a reset is a first sighting again.
        let hits = lfu.doorkeeper_hits();
        lfu.record(0xDEAD_BEEF);
        assert_eq!(lfu.doorkeeper_hits(), hits + 1);
    }

    /// Satellite property: 10× the shard budget must yield a strictly
    /// wider sketch and doorkeeper, while the admission semantics for
    /// the same access sequence are unchanged — identical frequency
    /// estimates for every key, identical doorkeeper absorption, and
    /// the same admit/reject verdict for every (candidate, victim)
    /// pair. The wider sketch only reduces collision noise; it never
    /// changes what the rule *means*.
    #[test]
    fn ten_x_budget_widens_sketch_with_unchanged_admission() {
        let budget = 32 << 20;
        let mut small = TinyLfu::for_budget(budget);
        let mut big = TinyLfu::for_budget(10 * budget);
        assert!(
            big.sketch_counters() > small.sketch_counters(),
            "10x budget must widen the sketch ({} vs {})",
            big.sketch_counters(),
            small.sketch_counters()
        );
        assert!(
            big.doorkeeper_bits() > small.doorkeeper_bits(),
            "10x budget must widen the doorkeeper ({} vs {})",
            big.doorkeeper_bits(),
            small.doorkeeper_bits()
        );
        // Same 4:1 doorkeeper:counter ratio as the fixed defaults.
        assert_eq!(small.doorkeeper_bits(), 4 * small.sketch_counters());
        assert_eq!(big.doorkeeper_bits(), 4 * big.sketch_counters());

        // Replay one deterministic mixed-popularity sequence into both.
        let mut rng = Rng(0xB0D6_E7ED);
        let keys: Vec<u64> = (0..256).map(|_| rng.next()).collect();
        let counts: Vec<u64> = keys.iter().map(|_| 1 + rng.below(12)).collect();
        let mut sequence = Vec::new();
        for (k, c) in keys.iter().zip(&counts) {
            for _ in 0..*c {
                sequence.push(*k);
            }
        }
        // Interleave deterministically so doorkeeper windows see the
        // same order in both filters.
        let mut order: Vec<usize> = (0..sequence.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &i in &order {
            small.record(sequence[i]);
            big.record(sequence[i]);
        }

        assert_eq!(
            small.doorkeeper_hits(),
            big.doorkeeper_hits(),
            "first-sighting absorption must not depend on budget"
        );
        for k in &keys {
            assert_eq!(
                small.frequency(*k),
                big.frequency(*k),
                "estimate for key {k:#x} must not depend on budget"
            );
        }
        // Every pairwise admission verdict (candidate beats victim)
        // therefore matches too — spot-check the full cross product.
        for a in &keys {
            for b in &keys {
                assert_eq!(
                    small.frequency(*a) > small.frequency(*b),
                    big.frequency(*a) > big.frequency(*b),
                );
            }
        }
    }

    /// Budget extremes stay clamped: a zero budget still gets the
    /// minimum structures, an absurd one the bounded maximum.
    #[test]
    fn budget_sizing_is_clamped() {
        let tiny = TinyLfu::for_budget(0);
        assert_eq!(tiny.sketch_counters(), MIN_COUNTERS.next_power_of_two());
        let huge = TinyLfu::for_budget(usize::MAX);
        assert_eq!(huge.sketch_counters(), MAX_COUNTERS);
        assert_eq!(huge.doorkeeper_bits(), 4 * MAX_COUNTERS);
    }

    #[test]
    fn access_buffer_batches_and_drains() {
        let buf = AccessBuffer::new();
        let mut drains_signalled = 0;
        for i in 0..DRAIN_EVERY as u64 {
            if buf.push(i + 1).should_drain {
                drains_signalled += 1;
            }
        }
        assert_eq!(
            drains_signalled, 1,
            "one drain signal per {DRAIN_EVERY} pushes"
        );
        let mut seen = Vec::new();
        assert_eq!(buf.drain(|h| seen.push(h)), DRAIN_EVERY);
        seen.sort_unstable();
        assert_eq!(seen, (1..=DRAIN_EVERY as u64).collect::<Vec<_>>());
        assert_eq!(buf.drain(|_| panic!("drained twice")), 0);
    }

    #[test]
    fn access_buffer_overwrites_are_lossy_not_blocking() {
        let buf = AccessBuffer::new();
        let mut dropped = 0;
        for i in 0..2 * ACCESS_CAP as u64 {
            if buf.push(i + 1).dropped {
                dropped += 1;
            }
        }
        assert_eq!(dropped, ACCESS_CAP, "second lap overwrites the first");
        assert_eq!(buf.drain(|_| {}), ACCESS_CAP);
    }

    #[test]
    fn drain_delivers_each_push_once_and_only_the_newest_lap() {
        let buf = AccessBuffer::new();
        let mut seen = Vec::new();
        assert_eq!(
            buf.drain(|h| seen.push(h)),
            0,
            "nothing pushed, nothing delivered"
        );

        // Every pushed hash is delivered once, oldest first, however the
        // pushes split across drains.
        for h in 1..=10u64 {
            buf.push(h);
        }
        assert_eq!(buf.drain(|h| seen.push(h)), 10);
        for h in 11..=200u64 {
            buf.push(h);
        }
        assert_eq!(buf.drain(|h| seen.push(h)), 190);
        assert_eq!(seen, (1..=200).collect::<Vec<_>>());
        assert_eq!(buf.drain(|_| panic!("drained twice")), 0);

        // Past ACCESS_CAP pushes, only the newest ACCESS_CAP are
        // delivered; the older ones were overwritten and reported.
        let (first, extra) = (1000u64, 37);
        let pushes = (ACCESS_CAP + extra) as u64;
        let dropped = (first..first + pushes)
            .filter(|&h| buf.push(h).dropped)
            .count();
        assert_eq!(dropped, extra);
        seen.clear();
        assert_eq!(buf.drain(|h| seen.push(h)), ACCESS_CAP);
        assert_eq!(
            seen,
            (first + extra as u64..first + pushes).collect::<Vec<_>>()
        );

        // A push that claims its index, loses the race to a drain, then
        // writes its slot: a drain with nothing pending does not scan
        // the ring for it, and the next push to that slot reports it.
        let late = buf.head.fetch_add(1, Ordering::Relaxed);
        assert_eq!(buf.drain(|_| panic!("the slot is still empty")), 0);
        buf.slots[late % ACCESS_CAP].store(0xAB, Ordering::Release);
        assert_eq!(buf.drain(|_| panic!("nothing pushed since")), 0);
        let lost = (1..=ACCESS_CAP as u64)
            .filter(|&h| buf.push(h).dropped)
            .count();
        assert_eq!(lost, 1, "the late write is counted as dropped");
        seen.clear();
        assert_eq!(buf.drain(|h| seen.push(h)), ACCESS_CAP);
        assert_eq!(seen, (1..=ACCESS_CAP as u64).collect::<Vec<_>>());
    }
}
