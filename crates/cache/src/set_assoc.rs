//! A set-associative cache with exact LRU replacement and per-line dirty /
//! non-temporal / prefetched state.
//!
//! Lines are identified by their global *line index* (`addr / line_bytes`);
//! byte-address handling happens in the callers. A line index must be
//! below `u64::MAX`, which any address divided by a line of 2 bytes or
//! more is.
//!
//! ## Layout
//!
//! Ways never move. Three parallel arrays hold one entry per way:
//!
//! * the *key*, `line + 1`, so that 0 marks an empty way;
//! * a one-byte *recency rank*: among the k valid ways of a set, 1 is the
//!   most and k the least recently used; 0 marks an empty way;
//! * a flag byte (dirty, non-temporal, prefetched).
//!
//! The valid ranks of a set are always a permutation of `1..=k`, so they
//! spell out exactly the order a move-to-front list would keep. Touching
//! a way of rank r ages every way ranked ahead of it by one and gives it
//! rank 1, in one branch-free pass over the set's rank bytes. A fill of
//! an absent line takes an empty way if the set has one and the way of
//! rank `assoc` (the LRU line) otherwise; invalidating a way closes the
//! gap in the ranks behind it. So a hit or fill on the 48-way LLC writes
//! 48 rank bytes and moves no key.
//!
//! ## One scan per fill
//!
//! The search for a line compares every key of its set, with no branch
//! and no early exit: a key sits in at most one way of a set, so the ways
//! that match can be OR-ed together. [`SetAssocCache::fill`] searches
//! before it inserts, because the line may be resident (a dirty victim
//! written back to an outer level that still holds it).
//! [`SetAssocCache::fill_absent`] is for a line that has just missed or
//! failed a probe at this level: it goes straight to the victim pick, so
//! the memory system's miss paths scan each set once per fill, not twice.
//! Debug builds check that the line is indeed absent.
//!
//! Because 0 means empty in every array, a new cache is all zero bytes:
//! its pages are touched only as sets are first used, and
//! `MemorySystem::new` builds its caches once per simulated cell. Ranks
//! are bytes, so the associativity is capped at 254.

use crate::config::CacheConfig;

/// Per-line metadata bit flags.
mod flag {
    pub const DIRTY: u8 = 1 << 0;
    /// Filled by a non-temporal prefetch: bypasses outer levels on eviction.
    pub const NT: u8 = 1 << 1;
    /// Filled by a prefetch and not yet referenced by a demand access.
    pub const PREFETCHED: u8 = 1 << 2;
}

/// The flag byte of a line with the given state.
#[inline]
fn flags(dirty: bool, nt: bool, prefetched: bool) -> u8 {
    let mut m = 0;
    if dirty {
        m |= flag::DIRTY;
    }
    if nt {
        m |= flag::NT;
    }
    if prefetched {
        m |= flag::PREFETCHED;
    }
    m
}

/// The largest associativity a one-byte rank can order.
const MAX_ASSOC: u32 = 254;

/// A line pushed out of the cache by a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictedLine {
    /// Global line index of the victim.
    pub line: u64,
    /// Victim was dirty and must be written back somewhere.
    pub dirty: bool,
    /// Victim was a non-temporal line (bypass outer levels on writeback).
    pub nt: bool,
    /// Victim was prefetched and never demand-referenced (a useless
    /// prefetch — the waste the paper's accuracy argument is about).
    pub unused_prefetch: bool,
}

/// See the [module documentation](self).
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    assoc: usize,
    set_mask: u64,
    /// `sets * assoc` keys, `line + 1` or 0 for an empty way.
    keys: Vec<u64>,
    /// Recency rank per way: 1 = MRU of its set, 0 = empty.
    ranks: Vec<u8>,
    /// Flag byte per way.
    meta: Vec<u8>,
}

impl SetAssocCache {
    /// Build an empty cache with the given geometry.
    ///
    /// Panics if the associativity exceeds 254.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.assoc <= MAX_ASSOC,
            "associativity {} exceeds the {MAX_ASSOC} ways a one-byte LRU rank can order",
            cfg.assoc
        );
        let ways = cfg.lines() as usize;
        SetAssocCache {
            cfg,
            assoc: cfg.assoc as usize,
            set_mask: cfg.sets() - 1,
            keys: vec![0; ways],
            ranks: vec![0; ways],
            meta: vec![0; ways],
        }
    }

    /// The geometry this cache was built with.
    pub fn cfg(&self) -> &CacheConfig {
        &self.cfg
    }

    /// First way of `line`'s set.
    #[inline]
    fn set_start(&self, line: u64) -> usize {
        (line & self.set_mask) as usize * self.assoc
    }

    /// The way holding `line` in the set starting at `start`. Every way
    /// is compared, with no branch: a key sits in at most one way of a
    /// set, so OR-ing together the numbers (from 1) of the ways that
    /// match gives that way's number, or 0.
    #[inline]
    fn find(&self, start: usize, line: u64) -> Option<usize> {
        let key = line + 1;
        let mut hit = 0;
        for (i, &k) in self.keys[start..start + self.assoc].iter().enumerate() {
            hit |= usize::from(k == key) * (i + 1);
        }
        hit.checked_sub(1).map(|i| start + i)
    }

    /// Make way `w` the MRU of the set starting at `start`: every way
    /// ranked ahead of it ages by one. An empty way has rank 0, which
    /// wraps to 255 below, so filling one ages every valid way and no
    /// empty one.
    #[inline]
    fn touch(&mut self, start: usize, w: usize) {
        let r = self.ranks[w].wrapping_sub(1);
        for x in &mut self.ranks[start..start + self.assoc] {
            *x += u8::from(x.wrapping_sub(1) < r);
        }
        self.ranks[w] = 1;
    }

    /// The state of valid way `w` as it leaves the cache.
    #[inline]
    fn evicted(&self, w: usize) -> EvictedLine {
        let m = self.meta[w];
        EvictedLine {
            line: self.keys[w] - 1,
            dirty: m & flag::DIRTY != 0,
            nt: m & flag::NT != 0,
            unused_prefetch: m & flag::PREFETCHED != 0,
        }
    }

    /// Demand access. Returns `true` on hit; promotes the line to MRU,
    /// marks it dirty on a store, and clears its `PREFETCHED` flag (the
    /// prefetch proved useful). The out-parameter `was_prefetched` reports
    /// whether this is the *first* demand touch of a prefetched line.
    #[inline]
    pub fn access(&mut self, line: u64, store: bool, was_prefetched: &mut bool) -> bool {
        let start = self.set_start(line);
        let Some(w) = self.find(start, line) else {
            *was_prefetched = false;
            return false;
        };
        let m = self.meta[w];
        *was_prefetched = m & flag::PREFETCHED != 0;
        let dirty = if store { flag::DIRTY } else { 0 };
        self.meta[w] = (m & !flag::PREFETCHED) | dirty;
        self.touch(start, w);
        true
    }

    /// Look up without disturbing LRU state.
    #[inline]
    pub fn probe(&self, line: u64) -> bool {
        self.find(self.set_start(line), line).is_some()
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
        let start = self.set_start(line);
        if let Some(w) = self.find(start, line) {
            let mut m = self.meta[w] | flags(dirty, nt, false);
            if !prefetched {
                m &= !flag::PREFETCHED;
            }
            self.meta[w] = m;
            self.touch(start, w);
            return None;
        }
        self.insert(start, line, flags(dirty, nt, prefetched))
    }

    /// [`fill`](Self::fill) for a line the caller knows is absent: it
    /// has just missed or failed a probe here, and nothing has filled it
    /// since. The set is not searched for it; debug builds check that it
    /// is indeed absent.
    #[inline]
    pub fn fill_absent(
        &mut self,
        line: u64,
        dirty: bool,
        nt: bool,
        prefetched: bool,
    ) -> Option<EvictedLine> {
        let start = self.set_start(line);
        debug_assert!(self.find(start, line).is_none(), "line {line} is resident");
        self.insert(start, line, flags(dirty, nt, prefetched))
    }

    /// Put absent `line` with flag byte `meta` into the set starting at
    /// `start` as its MRU, and return the line it displaces.
    #[inline]
    fn insert(&mut self, start: usize, line: u64, meta: u8) -> Option<EvictedLine> {
        // Victim: an empty way (rank 0) if the set has one, else the LRU
        // way (rank `assoc`). Both, and only they, wrap to `assoc - 1` or
        // above.
        let lru = self.assoc as u8 - 1;
        let w = start
            + self.ranks[start..start + self.assoc]
                .iter()
                .position(|r| r.wrapping_sub(1) >= lru)
                .expect("a set has an empty or an LRU way");
        let evicted = (self.keys[w] != 0).then(|| self.evicted(w));
        self.keys[w] = line + 1;
        self.meta[w] = meta;
        self.touch(start, w);
        evicted
    }

    /// Remove `line` if present, returning its state.
    pub fn invalidate(&mut self, line: u64) -> Option<EvictedLine> {
        let start = self.set_start(line);
        let w = self.find(start, line)?;
        let ev = self.evicted(w);
        // Ways ranked behind it move up one.
        let r = self.ranks[w];
        for x in &mut self.ranks[start..start + self.assoc] {
            *x -= u8::from(*x > r);
        }
        self.keys[w] = 0;
        self.ranks[w] = 0;
        self.meta[w] = 0;
        Some(ev)
    }

    /// Number of valid lines currently held (O(capacity); for tests and
    /// occupancy reporting, not the hot path).
    pub fn occupancy(&self) -> u64 {
        self.keys.iter().filter(|&&k| k != 0).count() as u64
    }

    /// Clear all content.
    pub fn clear(&mut self) {
        self.keys.fill(0);
        self.ranks.fill(0);
        self.meta.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways, 64 B lines.
        SetAssocCache::new(CacheConfig::new(512, 2, 64))
    }

    fn touch(c: &mut SetAssocCache, line: u64) -> bool {
        let mut wp = false;
        c.access(line, false, &mut wp)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!touch(&mut c, 0));
        assert!(c.fill(0, false, false, false).is_none());
        assert!(touch(&mut c, 0));
        assert!(c.probe(0));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 4, 8 map to set 0 (4 sets → line % 4).
        c.fill(0, false, false, false);
        c.fill(4, false, false, false);
        // Touch 0 so 4 becomes LRU.
        assert!(touch(&mut c, 0));
        let ev = c.fill(8, false, false, false).expect("must evict");
        assert_eq!(ev.line, 4);
        assert!(c.probe(0) && c.probe(8) && !c.probe(4));
    }

    #[test]
    fn dirty_propagates_to_eviction() {
        let mut c = tiny();
        c.fill(0, false, false, false);
        let mut wp = false;
        c.access(0, true, &mut wp); // store → dirty
        c.fill(4, false, false, false);
        let ev = c.fill(8, false, false, false).unwrap();
        assert_eq!(ev.line, 0);
        assert!(ev.dirty);
    }

    #[test]
    fn fill_merges_existing_line() {
        let mut c = tiny();
        c.fill(0, false, false, false);
        c.fill(4, false, false, false);
        // Re-filling 0 merges (no eviction) and promotes it to MRU.
        assert!(c.fill(0, true, false, false).is_none());
        let ev = c.fill(8, false, false, false).unwrap();
        assert_eq!(ev.line, 4, "0 was promoted by the merge, so 4 is LRU");
    }

    #[test]
    fn an_absent_fill_picks_the_victim_a_fill_picks() {
        let mut a = tiny();
        let mut b = tiny();
        for line in [0, 4, 8, 1, 12, 5, 9, 16] {
            let want = a.fill(line, line % 3 == 0, false, line % 2 == 0);
            assert_eq!(
                b.fill_absent(line, line % 3 == 0, false, line % 2 == 0),
                want
            );
            touch(&mut a, 4);
            touch(&mut b, 4);
        }
        assert_eq!(a.occupancy(), b.occupancy());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "line 4 is resident")]
    fn an_absent_fill_of_a_resident_line_fails_a_debug_check() {
        let mut c = tiny();
        c.fill(0, false, false, false);
        c.fill(4, false, false, false);
        c.fill_absent(4, false, false, false);
    }

    #[test]
    fn nt_flag_rides_along() {
        let mut c = tiny();
        c.fill(0, false, true, true);
        c.fill(4, false, false, false);
        touch(&mut c, 4);
        let ev = c.fill(8, false, false, false).unwrap();
        assert_eq!(ev.line, 0);
        assert!(ev.nt);
        assert!(ev.unused_prefetch, "never demand-touched");
    }

    #[test]
    fn demand_touch_clears_prefetched() {
        let mut c = tiny();
        c.fill(0, false, false, true);
        let mut wp = false;
        assert!(c.access(0, false, &mut wp));
        assert!(wp, "first touch reports prefetched");
        assert!(c.access(0, false, &mut wp));
        assert!(!wp, "second touch does not");
        c.fill(4, false, false, false);
        touch(&mut c, 4);
        let ev = c.fill(8, false, false, false).unwrap();
        assert!(!ev.unused_prefetch, "prefetch was used");
    }

    #[test]
    fn invalidate_compacts_set() {
        let mut c = tiny();
        c.fill(0, true, false, false);
        c.fill(4, false, false, false);
        let ev = c.invalidate(0).unwrap();
        assert!(ev.dirty);
        assert!(!c.probe(0) && c.probe(4));
        assert_eq!(c.occupancy(), 1);
        assert!(c.invalidate(0).is_none());
        // The set still works after the ranks close up.
        c.fill(8, false, false, false);
        assert!(c.probe(4) && c.probe(8));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        for line in 0..4 {
            c.fill(line, false, false, false);
        }
        assert_eq!(c.occupancy(), 4);
        for line in 0..4 {
            assert!(c.probe(line));
        }
    }

    #[test]
    fn clear_empties() {
        let mut c = tiny();
        c.fill(3, false, false, false);
        c.clear();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.probe(3));
    }

    #[test]
    #[should_panic(expected = "associativity 255 exceeds")]
    fn rejects_associativity_a_byte_rank_cannot_order() {
        SetAssocCache::new(CacheConfig::new(255 * 64, 255, 64));
    }

    #[test]
    fn widest_associativity_keeps_exact_lru() {
        // One 254-way set: cycling 254 lines always hits once warm, and
        // the 255th line evicts the least recent one.
        let mut c = SetAssocCache::new(CacheConfig::new(254 * 64, 254, 64));
        for line in 0..254 {
            assert!(c.fill(line, false, false, false).is_none());
        }
        for line in 0..254 {
            assert!(touch(&mut c, line));
        }
        assert_eq!(c.fill(254, false, false, false).unwrap().line, 0);
        assert_eq!(c.fill(0, false, false, false).unwrap().line, 1);
    }

    #[test]
    fn capacity_bounded() {
        let mut c = tiny();
        for line in 0..100 {
            c.fill(line, false, false, false);
        }
        assert_eq!(c.occupancy(), 8); // 512 B / 64 B
    }
}
