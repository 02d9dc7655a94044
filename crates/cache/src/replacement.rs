//! Pluggable replacement policies and a policy-generic set-associative
//! cache — a sensitivity study substrate.
//!
//! StatStack (and therefore the paper's whole analysis) models *true LRU*.
//! Real LLCs use cheaper approximations (tree-PLRU, not-recently-used,
//! sometimes random). This module provides a functional cache whose
//! replacement policy is swappable so the repository can quantify how far
//! the LRU assumption drifts from the approximations — see the
//! `replacement_sensitivity` test and the `ablations` discussion.

use crate::config::CacheConfig;

/// A per-set replacement policy over `assoc` ways.
pub trait ReplacementPolicy {
    /// Create state for one set of `assoc` ways.
    fn new(assoc: usize) -> Self
    where
        Self: Sized;

    /// Way `w` was touched (hit or fill).
    fn touch(&mut self, w: usize);

    /// Choose the victim way for the next fill.
    fn victim(&self) -> usize;
}

/// True least-recently-used: exact recency order.
#[derive(Clone, Debug)]
pub struct TrueLru {
    /// stamp[w] = virtual time of last touch
    stamp: Vec<u64>,
    clock: u64,
}

impl ReplacementPolicy for TrueLru {
    fn new(assoc: usize) -> Self {
        TrueLru {
            stamp: vec![0; assoc],
            clock: 0,
        }
    }

    fn touch(&mut self, w: usize) {
        self.clock += 1;
        self.stamp[w] = self.clock;
    }

    fn victim(&self) -> usize {
        let (w, _) = self
            .stamp
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| s)
            .unwrap();
        w
    }
}

/// Tree pseudo-LRU: one bit per internal node of a binary tree over the
/// ways — what real L1/L2 caches implement. `assoc` must be a power of
/// two.
#[derive(Clone, Debug)]
pub struct TreePlru {
    bits: Vec<bool>,
    assoc: usize,
}

impl ReplacementPolicy for TreePlru {
    fn new(assoc: usize) -> Self {
        assert!(assoc.is_power_of_two(), "tree-PLRU needs power-of-two ways");
        TreePlru {
            bits: vec![false; assoc.max(2) - 1],
            assoc,
        }
    }

    fn touch(&mut self, w: usize) {
        // Walk from the root; at each node, point the bit *away* from the
        // touched leaf.
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.assoc;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let right = w >= mid;
            self.bits[node] = !right; // bit points to the *other* half
            node = 2 * node + if right { 2 } else { 1 };
            if right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }

    fn victim(&self) -> usize {
        // Follow the bits.
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.assoc;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let right = self.bits[node];
            node = 2 * node + if right { 2 } else { 1 };
            if right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Deterministic pseudo-random replacement (xorshift over the set state).
#[derive(Clone, Debug)]
pub struct RandomRepl {
    state: u64,
    assoc: usize,
}

impl ReplacementPolicy for RandomRepl {
    fn new(assoc: usize) -> Self {
        RandomRepl {
            state: 0x9E37_79B9 ^ assoc as u64,
            assoc,
        }
    }

    fn touch(&mut self, _w: usize) {}

    fn victim(&self) -> usize {
        // Stateless draw from the current state; `touch` not advancing
        // keeps victim() side-effect free, so mix the state here lazily.
        let mut x = self.state.wrapping_add(0x2545_F491_4F6C_DD1D);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % self.assoc
    }
}

/// A functional set-associative cache over any [`ReplacementPolicy`].
/// Counts accesses/misses only (no dirty/NT state — this is the
/// sensitivity-study vehicle, not the timing substrate).
pub struct PolicyCache<P: ReplacementPolicy> {
    cfg: CacheConfig,
    set_mask: u64,
    assoc: usize,
    tags: Vec<u64>,
    valid: Vec<bool>,
    policies: Vec<P>,
    accesses: u64,
    misses: u64,
    /// Advance random state per fill so RandomRepl is deterministic but
    /// not constant.
    fill_count: u64,
}

impl<P: ReplacementPolicy> PolicyCache<P> {
    /// Build an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets() as usize;
        let assoc = cfg.assoc as usize;
        PolicyCache {
            cfg,
            set_mask: sets as u64 - 1,
            assoc,
            tags: vec![0; sets * assoc],
            valid: vec![false; sets * assoc],
            policies: (0..sets).map(|_| P::new(assoc)).collect(),
            accesses: 0,
            misses: 0,
            fill_count: 0,
        }
    }

    /// Access the line containing `addr`; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.cfg.line_bytes;
        let set = (line & self.set_mask) as usize;
        let base = set * self.assoc;
        self.accesses += 1;
        for w in 0..self.assoc {
            if self.valid[base + w] && self.tags[base + w] == line {
                self.policies[set].touch(w);
                return true;
            }
        }
        self.misses += 1;
        self.fill_count += 1;
        // Prefer an invalid way; otherwise ask the policy.
        let w = (0..self.assoc)
            .find(|&w| !self.valid[base + w])
            .unwrap_or_else(|| self.policies[set].victim());
        self.tags[base + w] = line;
        self.valid[base + w] = true;
        self.policies[set].touch(w);
        false
    }

    /// Miss ratio so far.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// `(accesses, misses)`.
    pub fn counts(&self) -> (u64, u64) {
        (self.accesses, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig::new(4096, 8, 64) // 8 sets × 8 ways
    }

    fn run<P: ReplacementPolicy>(lines: impl IntoIterator<Item = u64>) -> f64 {
        let mut c: PolicyCache<P> = PolicyCache::new(cfg());
        for l in lines {
            c.access(l * 64);
        }
        c.miss_ratio()
    }

    /// Cyclic loop of exactly the associativity within one set.
    fn same_set_cycle(n: u64, reps: u64) -> Vec<u64> {
        (0..n * reps).map(|i| (i % n) * 8).collect()
    }

    #[test]
    fn all_policies_hit_when_the_set_fits() {
        let seq = same_set_cycle(8, 50);
        assert!(run::<TrueLru>(seq.clone()) < 0.05);
        assert!(run::<TreePlru>(seq.clone()) < 0.05);
        assert!(
            run::<RandomRepl>(seq) < 0.25,
            "random may self-evict a little"
        );
    }

    #[test]
    fn lru_cliff_vs_random_smoothing() {
        // A 9-line cycle in an 8-way set: true LRU thrashes 100 %; random
        // replacement famously smooths the cliff and keeps some hits.
        let seq = same_set_cycle(9, 100);
        let lru = run::<TrueLru>(seq.clone());
        let rnd = run::<RandomRepl>(seq);
        assert!(lru > 0.95, "LRU thrashes the 9/8 cycle ({lru:.2})");
        assert!(rnd < 0.8, "random keeps some residency ({rnd:.2})");
    }

    #[test]
    fn tree_plru_approximates_lru() {
        // On generic mixed traffic, PLRU should land close to LRU.
        let mut seq = Vec::new();
        let mut x: u64 = 7;
        for i in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = if i % 3 == 0 { x % 256 } else { i % 24 };
            seq.push(line);
        }
        let lru = run::<TrueLru>(seq.clone());
        let plru = run::<TreePlru>(seq);
        assert!(
            (lru - plru).abs() < 0.05,
            "PLRU within 5 points of LRU ({lru:.3} vs {plru:.3})"
        );
    }

    #[test]
    fn plru_touch_protects_the_touched_way() {
        let mut p = TreePlru::new(8);
        for w in 0..8 {
            p.touch(w);
            assert_ne!(p.victim(), w, "the just-touched way is never the victim");
        }
    }

    #[test]
    fn true_lru_matches_reference_cache() {
        // PolicyCache<TrueLru> must agree with the production SetAssocCache.
        use crate::set_assoc::SetAssocCache;
        let mut a: PolicyCache<TrueLru> = PolicyCache::new(cfg());
        let mut b = SetAssocCache::new(cfg());
        let mut x: u64 = 3;
        let (mut misses_a, mut misses_b) = (0u64, 0u64);
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = x % 300;
            if !a.access(line * 64) {
                misses_a += 1;
            }
            let mut wp = false;
            if !b.access(line, false, &mut wp) {
                b.fill(line, false, false, false);
                misses_b += 1;
            }
        }
        assert_eq!(misses_a, misses_b, "two LRU implementations agree exactly");
    }

    #[test]
    fn deterministic_random_policy() {
        let seq = same_set_cycle(12, 50);
        assert_eq!(run::<RandomRepl>(seq.clone()), run::<RandomRepl>(seq));
    }
}
