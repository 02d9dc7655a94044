//! Property tests for the cache substrate: LRU laws, hierarchy
//! conservation rules and DRAM channel arithmetic under arbitrary access
//! sequences.
//!
//! Cases are generated from seeded xorshift streams (the same generator
//! the workloads use) instead of an external property-testing framework,
//! so the suite stays deterministic and dependency-free.

use repf_cache::{
    CacheConfig, Dram, DramConfig, FunctionalCacheSim, HierarchyConfig, HitLevel, MemorySystem,
    PrefetchTarget, SetAssocCache,
};
use repf_trace::rng::XorShift64Star;
use repf_trace::{MemRef, Pc};

fn tiny_hierarchy() -> HierarchyConfig {
    HierarchyConfig {
        l1: CacheConfig::new(512, 2, 64),
        l2: CacheConfig::new(2048, 4, 64),
        llc: CacheConfig::new(8192, 4, 64),
        lat_l2: 10,
        lat_llc: 30,
        dram: DramConfig {
            latency_cycles: 100,
            service_cycles: 16,
            line_bytes: 64,
        },
    }
}

/// Arbitrary access sequence over a small line space (so sets collide).
fn accesses(rng: &mut XorShift64Star) -> Vec<(u64, bool)> {
    let n = 1 + rng.below(399) as usize;
    (0..n)
        .map(|_| (rng.below(64), rng.next_u64() & 1 == 1))
        .collect()
}

const CASES: u64 = 64;

/// Associativities in use (2, 4, 8, 16, 48) plus direct-mapped, each
/// over four sets.
const GEOMETRIES: [u32; 6] = [1, 2, 4, 8, 16, 48];

#[test]
fn set_assoc_matches_reference() {
    // Drive the production cache and the move-to-front reference with
    // the same seeded operation stream and compare every observable
    // after every operation: return values, `was_prefetched`, each
    // evicted line's fields and the occupancy. A fill of a line the
    // reference does not hold goes through `fill_absent`, a fill of one
    // it holds through the merging `fill`. Each case draws its line
    // space at half, once or twice the capacity, so runs are hit-heavy,
    // balanced or eviction-heavy.
    for assoc in GEOMETRIES {
        let cfg = CacheConfig::new(4 * u64::from(assoc) * 64, assoc, 64);
        for case in 0..CASES {
            let mut rng = XorShift64Star::new(0xD1FF ^ u64::from(assoc) << 16 ^ case);
            let span = cfg.lines() * [1, 2, 4][rng.below(3) as usize] / 2;
            let mut got = SetAssocCache::new(cfg);
            let mut want = reference::SetAssocCache::new(cfg);
            assert_eq!(got.cfg(), want.cfg());
            for step in 0..2_000 {
                let line = rng.below(span);
                let ctx = || format!("assoc {assoc}, case {case}, step {step}, line {line}");
                match rng.below(1_000) {
                    0..=399 => {
                        let store = rng.next_u64() & 1 == 1;
                        // Seed the out-parameter so a miss must overwrite it.
                        let seed = rng.next_u64() & 1 == 1;
                        let (mut wp_got, mut wp_want) = (seed, seed);
                        let hit = got.access(line, store, &mut wp_got);
                        assert_eq!(hit, want.access(line, store, &mut wp_want), "{}", ctx());
                        assert_eq!(wp_got, wp_want, "was_prefetched: {}", ctx());
                    }
                    400..=799 => {
                        let bits = rng.below(8);
                        let (dirty, nt, prefetched) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
                        // A line the reference does not hold takes the fill
                        // that skips the search for it.
                        let got_victim = if want.probe(line) {
                            got.fill(line, dirty, nt, prefetched)
                        } else {
                            got.fill_absent(line, dirty, nt, prefetched)
                        };
                        assert_eq!(
                            got_victim,
                            want.fill(line, dirty, nt, prefetched),
                            "fill d={dirty} nt={nt} pf={prefetched}: {}",
                            ctx()
                        );
                    }
                    800..=899 => assert_eq!(got.probe(line), want.probe(line), "{}", ctx()),
                    900..=998 => {
                        assert_eq!(got.invalidate(line), want.invalidate(line), "{}", ctx())
                    }
                    _ => {
                        got.clear();
                        want.clear();
                    }
                }
                assert_eq!(got.occupancy(), want.occupancy(), "{}", ctx());
            }
        }
    }
}

#[test]
fn set_assoc_laws() {
    // A line just filled must be present; occupancy never exceeds
    // capacity; invalidate removes exactly the target.
    for case in 0..CASES {
        let mut rng = XorShift64Star::new(0xCAC4E ^ case);
        let lines: Vec<u64> = (0..1 + rng.below(199)).map(|_| rng.below(64)).collect();
        let mut c = SetAssocCache::new(CacheConfig::new(1024, 4, 64));
        for &l in &lines {
            c.fill(l, false, false, false);
            assert!(c.probe(l), "just-filled line present (case {case})");
            assert!(c.occupancy() <= 16);
        }
        let victim = lines[0];
        if c.probe(victim) {
            c.invalidate(victim);
            assert!(!c.probe(victim), "case {case}");
        }
    }
}

#[test]
fn functional_sim_pure() {
    // Accessing the same trace twice through a fresh functional sim
    // yields identical counters (pure function of the trace).
    for case in 0..CASES {
        let mut rng = XorShift64Star::new(0xF1 ^ case << 8);
        let seq = accesses(&mut rng);
        let run = || {
            let mut sim = FunctionalCacheSim::new(CacheConfig::new(512, 2, 64));
            for &(l, store) in &seq {
                let r = if store {
                    MemRef::store(Pc((l % 7) as u32), l * 64)
                } else {
                    MemRef::load(Pc((l % 7) as u32), l * 64)
                };
                sim.step(r);
            }
            (sim.totals(), sim.all_pcs())
        };
        assert_eq!(run(), run(), "case {case}");
    }
}

#[test]
fn hierarchy_conservation() {
    // Per-level misses are nested (L1 ≥ L2 ≥ LLC misses), every DRAM read
    // is 64 bytes accounted, and a repeat access directly after always
    // hits L1.
    for case in 0..CASES {
        let mut rng = XorShift64Star::new(0x41E7 ^ case << 8);
        let seq = accesses(&mut rng);
        let mut m = MemorySystem::new(1, tiny_hierarchy());
        let mut now = 0u64;
        for &(l, store) in &seq {
            let r = if store {
                MemRef::store(Pc(0), l * 64)
            } else {
                MemRef::load(Pc(0), l * 64)
            };
            let res = m.demand_access(0, r, now);
            now += 2 + res.latency;
            let res2 = m.demand_access(0, MemRef::load(Pc(0), l * 64), now);
            assert_eq!(res2.level, HitLevel::L1, "immediate re-access hits L1");
            now += 2;
        }
        let s = m.core_stats(0);
        assert!(s.l1_misses >= s.l2_misses, "case {case}");
        assert!(s.l2_misses >= s.llc_misses, "case {case}");
        assert!(s.l1_misses <= s.demand_accesses, "case {case}");
        assert_eq!(s.dram_read_bytes % 64, 0);
        assert_eq!(s.dram_read_bytes / 64, m.dram_stats().reads);
    }
}

#[test]
fn prefetch_idempotence() {
    // Prefetching never changes demand counts, and issuing the same
    // prefetch twice is idempotent on traffic.
    for case in 0..CASES {
        let mut rng = XorShift64Star::new(0x1DE3 ^ case << 8);
        let target =
            [PrefetchTarget::L1, PrefetchTarget::L2, PrefetchTarget::Nta][rng.below(3) as usize];
        let lines: Vec<u64> = (0..1 + rng.below(99)).map(|_| rng.below(64)).collect();
        let mut m = MemorySystem::new(1, tiny_hierarchy());
        for &l in &lines {
            m.prefetch(0, l * 64, target, 0);
            let reads = m.dram_stats().reads;
            m.prefetch(0, l * 64, target, 10);
            assert_eq!(m.dram_stats().reads, reads, "second prefetch is free");
        }
        assert_eq!(m.core_stats(0).demand_accesses, 0);
        assert_eq!(m.core_stats(0).prefetches_issued as usize, lines.len() * 2);
    }
}

#[test]
fn nta_never_touches_llc() {
    for case in 0..CASES {
        let mut rng = XorShift64Star::new(0x7A ^ case << 8);
        let lines: Vec<u64> = (0..1 + rng.below(199)).map(|_| rng.below(512)).collect();
        let mut m = MemorySystem::new(1, tiny_hierarchy());
        for &l in &lines {
            m.prefetch(0, l * 64, PrefetchTarget::Nta, 0);
        }
        // Walk a disjoint region through the demand path; its LLC misses
        // must equal a fresh system's (no NT line occupies the LLC).
        let mut fresh = MemorySystem::new(1, tiny_hierarchy());
        for i in 0..256u64 {
            let addr = (1 << 30) + i * 64;
            m.demand_access(0, MemRef::load(Pc(1), addr), 1_000_000);
            fresh.demand_access(0, MemRef::load(Pc(1), addr), 1_000_000);
        }
        assert_eq!(
            m.core_stats(0).llc_misses,
            fresh.core_stats(0).llc_misses,
            "case {case}"
        );
    }
}

#[test]
fn dram_channel_arithmetic() {
    // Total busy time equals transfers × service time, and latency is
    // bounded below by the unloaded value.
    for case in 0..CASES {
        let mut rng = XorShift64Star::new(0xD3A ^ case << 8);
        let gaps: Vec<u64> = (0..1 + rng.below(199)).map(|_| rng.below(64)).collect();
        let cfg = DramConfig {
            latency_cycles: 100,
            service_cycles: 16,
            line_bytes: 64,
        };
        let mut d = Dram::new(cfg);
        let mut now = 0u64;
        for &g in &gaps {
            now += g;
            let lat = d.read(now);
            assert!(lat >= 116, "latency at least unloaded value");
        }
        assert_eq!(d.stats().busy_cycles, gaps.len() as u64 * 16);
        assert_eq!(d.stats().reads, gaps.len() as u64);
    }
}

/// The move-to-front cache the production [`SetAssocCache`] replaced,
/// kept verbatim as the reference model for `set_assoc_matches_reference`:
/// ways physically ordered MRU..LRU, shifted on every hit and fill.
mod reference {
    use repf_cache::{CacheConfig, EvictedLine};

    /// Per-line metadata bit flags.
    mod flag {
        pub const VALID: u8 = 1 << 0;
        pub const DIRTY: u8 = 1 << 1;
        /// Filled by a non-temporal prefetch: bypasses outer levels on eviction.
        pub const NT: u8 = 1 << 2;
        /// Filled by a prefetch and not yet referenced by a demand access.
        pub const PREFETCHED: u8 = 1 << 3;
    }

    #[derive(Clone, Debug)]
    pub struct SetAssocCache {
        cfg: CacheConfig,
        assoc: usize,
        set_mask: u64,
        /// `sets * assoc` tags, each set's ways ordered MRU..LRU.
        tags: Vec<u64>,
        /// Parallel metadata for `tags`.
        meta: Vec<u8>,
    }

    impl SetAssocCache {
        /// Build an empty cache with the given geometry.
        pub fn new(cfg: CacheConfig) -> Self {
            let sets = cfg.sets();
            let assoc = cfg.assoc as usize;
            SetAssocCache {
                cfg,
                assoc,
                set_mask: sets - 1,
                tags: vec![0; (sets * cfg.assoc as u64) as usize],
                meta: vec![0; (sets * cfg.assoc as u64) as usize],
            }
        }

        /// The geometry this cache was built with.
        pub fn cfg(&self) -> &CacheConfig {
            &self.cfg
        }

        #[inline]
        fn set_range(&self, line: u64) -> std::ops::Range<usize> {
            let set = (line & self.set_mask) as usize;
            let start = set * self.assoc;
            start..start + self.assoc
        }

        /// Demand access. Returns `true` on hit; promotes the line to MRU,
        /// marks it dirty on a store, and clears its `PREFETCHED` flag (the
        /// prefetch proved useful). The out-parameter `was_prefetched` reports
        /// whether this is the *first* demand touch of a prefetched line.
        #[inline]
        pub fn access(&mut self, line: u64, store: bool, was_prefetched: &mut bool) -> bool {
            let range = self.set_range(line);
            let (start, end) = (range.start, range.end);
            for w in start..end {
                if self.meta[w] & flag::VALID != 0 && self.tags[w] == line {
                    *was_prefetched = self.meta[w] & flag::PREFETCHED != 0;
                    let mut m = self.meta[w] & !flag::PREFETCHED;
                    if store {
                        m |= flag::DIRTY;
                    }
                    // Move to front (MRU).
                    let tag = self.tags[w];
                    self.tags.copy_within(start..w, start + 1);
                    self.meta.copy_within(start..w, start + 1);
                    self.tags[start] = tag;
                    self.meta[start] = m;
                    return true;
                }
            }
            *was_prefetched = false;
            false
        }

        /// Look up without disturbing LRU state.
        #[inline]
        pub fn probe(&self, line: u64) -> bool {
            let range = self.set_range(line);
            self.tags[range.clone()]
                .iter()
                .zip(&self.meta[range])
                .any(|(&t, &m)| m & flag::VALID != 0 && t == line)
        }

        /// Insert `line` as MRU. If the line is already present its flags are
        /// merged (dirty sticks, prefetched clears if the fill is a demand
        /// fill) and no eviction happens. Returns the victim, if any.
        #[inline]
        pub fn fill(
            &mut self,
            line: u64,
            dirty: bool,
            nt: bool,
            prefetched: bool,
        ) -> Option<EvictedLine> {
            let range = self.set_range(line);
            let (start, end) = (range.start, range.end);
            // Already present? Merge state and promote.
            for w in start..end {
                if self.meta[w] & flag::VALID != 0 && self.tags[w] == line {
                    let mut m = self.meta[w];
                    if dirty {
                        m |= flag::DIRTY;
                    }
                    if !prefetched {
                        m &= !flag::PREFETCHED;
                    }
                    if nt {
                        m |= flag::NT;
                    }
                    self.tags.copy_within(start..w, start + 1);
                    self.meta.copy_within(start..w, start + 1);
                    self.tags[start] = line;
                    self.meta[start] = m;
                    return None;
                }
            }
            // Victim = LRU way (last). Prefer an invalid way if one exists.
            let mut victim_way = end - 1;
            for w in start..end {
                if self.meta[w] & flag::VALID == 0 {
                    victim_way = w;
                    break;
                }
            }
            let evicted = if self.meta[victim_way] & flag::VALID != 0 {
                let m = self.meta[victim_way];
                Some(EvictedLine {
                    line: self.tags[victim_way],
                    dirty: m & flag::DIRTY != 0,
                    nt: m & flag::NT != 0,
                    unused_prefetch: m & flag::PREFETCHED != 0,
                })
            } else {
                None
            };
            // Shift [start..victim_way) down one and install at MRU.
            self.tags.copy_within(start..victim_way, start + 1);
            self.meta.copy_within(start..victim_way, start + 1);
            self.tags[start] = line;
            let mut m = flag::VALID;
            if dirty {
                m |= flag::DIRTY;
            }
            if nt {
                m |= flag::NT;
            }
            if prefetched {
                m |= flag::PREFETCHED;
            }
            self.meta[start] = m;
            evicted
        }

        /// Remove `line` if present, returning its state.
        pub fn invalidate(&mut self, line: u64) -> Option<EvictedLine> {
            let range = self.set_range(line);
            let (start, end) = (range.start, range.end);
            for w in start..end {
                if self.meta[w] & flag::VALID != 0 && self.tags[w] == line {
                    let m = self.meta[w];
                    let ev = EvictedLine {
                        line,
                        dirty: m & flag::DIRTY != 0,
                        nt: m & flag::NT != 0,
                        unused_prefetch: m & flag::PREFETCHED != 0,
                    };
                    // Compact: shift the ways after it up one, invalidate LRU.
                    self.tags.copy_within(w + 1..end, w);
                    self.meta.copy_within(w + 1..end, w);
                    self.meta[end - 1] = 0;
                    return Some(ev);
                }
            }
            None
        }

        /// Number of valid lines currently held (O(capacity); for tests and
        /// occupancy reporting, not the hot path).
        pub fn occupancy(&self) -> u64 {
            self.meta.iter().filter(|&&m| m & flag::VALID != 0).count() as u64
        }

        /// Clear all content.
        pub fn clear(&mut self) {
            self.meta.fill(0);
        }
    }
}
