//! The simulated memory system: per-core private L1 and L2 caches over a
//! shared LLC and a shared, bandwidth-limited DRAM channel.
//!
//! ## Model
//!
//! * Write-back, write-allocate, non-inclusive hierarchy with exact LRU at
//!   every level ([`SetAssocCache`] keeps it as per-way recency ranks).
//!   Clean victims are dropped; dirty victims cascade outwards (L1 → L2 →
//!   LLC → DRAM). 64 B lines on both modelled machines.
//! * **Non-temporal lines** (filled by `PREFETCHNTA`, §VI-B of the paper)
//!   live in the private levels (L1 + L2) only; once evicted from L2 they
//!   go *straight to DRAM* (write if dirty, dropped if clean) without
//!   ever touching the shared LLC — this is the cache-bypassing mechanism
//!   that conserves the shared cache.
//! * **In-flight fills** (MSHR model): a DRAM fetch installs the line
//!   immediately but records its arrival time; a demand access that hits a
//!   line still in flight pays the remaining latency (a *merge*), which is
//!   how a timely prefetch hides most but not all of a miss. The table
//!   remembers its latest pending arrival: once `now` has passed it, a
//!   lookup answers 0 without hashing. Arrived entries are swept each
//!   time the table doubles, from 64 entries up. Both rely on `now` never
//!   decreasing between calls (see [`MemorySystem::demand_access`]).
//! * **Prefetch usefulness**: a line filled by a prefetch carries a flag at
//!   the innermost level it was installed into; the first demand touch
//!   counts it *useful*, eviction while still flagged counts it *useless*.
//!   (A line evicted from its fill level but re-used from an outer copy is
//!   conservatively counted useless; the figures derive overhead from
//!   traffic and miss deltas, not from these flags.)
//!
//! In multiprogrammed runs each core's address space is disjoint (the
//! runner offsets each application's addresses), so cores contend for LLC
//! *sets* and DRAM *bandwidth* — the two shared resources whose
//! conservation the paper argues for — without ever sharing lines.

use crate::config::CacheConfig;
use crate::dram::{Dram, DramConfig};
use crate::set_assoc::SetAssocCache;
use crate::stats::{CoreStats, DramStats};
use repf_trace::hash::FxHashMap;
use repf_trace::{AccessKind, MemRef};

/// Full memory-system configuration (per-machine values live in
/// `repf-sim::machine`).
#[derive(Clone, Copy, Debug)]
pub struct HierarchyConfig {
    /// Private first-level data cache.
    pub l1: CacheConfig,
    /// Private second-level cache.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// Demand-visible penalty for an L1 miss that hits L2.
    pub lat_l2: u64,
    /// Demand-visible penalty for an L2 miss that hits the LLC.
    pub lat_llc: u64,
    /// Shared DRAM channel.
    pub dram: DramConfig,
}

impl HierarchyConfig {
    fn validate(&self) {
        let lb = self.l1.line_bytes;
        assert_eq!(lb, self.l2.line_bytes, "uniform line size");
        assert_eq!(lb, self.llc.line_bytes, "uniform line size");
        assert_eq!(lb, self.dram.line_bytes, "uniform line size");
    }
}

/// Where a demand access was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HitLevel {
    /// First-level hit (latency folded into the core's base CPI).
    L1,
    /// Second-level hit.
    L2,
    /// Shared last-level hit.
    Llc,
    /// Off-chip access.
    Dram,
}

/// Outcome of a demand access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Level that satisfied the access.
    pub level: HitLevel,
    /// Demand-visible stall cycles (0 for an L1 hit with no pending fill).
    pub latency: u64,
    /// The access merged with an in-flight fill.
    pub merged: bool,
}

/// Kind of prefetch to issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchTarget {
    /// Fill LLC + L2 + L1 — a software `prefetcht0` or an L1 (DCU)
    /// hardware prefetcher.
    L1,
    /// Fill LLC + L2 only — an L2/stream hardware prefetcher.
    L2,
    /// Non-temporal (`PREFETCHNTA`): fill L1 only, bypassing L2 and LLC.
    Nta,
}

/// See the [module documentation](self).
pub struct MemorySystem {
    cfg: HierarchyConfig,
    line_shift: u32,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    llc: SetAssocCache,
    dram: Dram,
    stats: Vec<CoreStats>,
    /// Useless prefetches detected at the shared LLC (not attributable to
    /// a core once the private copies are gone).
    shared_useless_prefetches: u64,
    /// Arrival cycle per line with a DRAM fill outstanding (arrived
    /// entries linger until the next sweep).
    in_flight: FxHashMap<u64, u64>,
    /// The latest arrival ever noted: at or past it nothing is in flight.
    latest_arrival: u64,
    /// Table size that triggers the next sweep of arrived entries.
    sweep_at: usize,
}

/// Size of the in-flight table's first sweep.
const FIRST_SWEEP: usize = 64;

impl MemorySystem {
    /// Build a memory system with `cores` private L1/L2 pairs.
    pub fn new(cores: usize, cfg: HierarchyConfig) -> Self {
        cfg.validate();
        assert!(cores > 0, "need at least one core");
        MemorySystem {
            cfg,
            line_shift: cfg.l1.line_bytes.trailing_zeros(),
            l1: (0..cores).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            l2: (0..cores).map(|_| SetAssocCache::new(cfg.l2)).collect(),
            llc: SetAssocCache::new(cfg.llc),
            dram: Dram::new(cfg.dram),
            stats: vec![CoreStats::default(); cores],
            shared_useless_prefetches: 0,
            in_flight: FxHashMap::default(),
            latest_arrival: 0,
            sweep_at: FIRST_SWEEP,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.cfg.l1.line_bytes
    }

    /// The configuration this system was built with.
    pub fn cfg(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Per-core counters.
    pub fn core_stats(&self, core: usize) -> &CoreStats {
        &self.stats[core]
    }

    /// Shared-channel counters.
    pub fn dram_stats(&self) -> &DramStats {
        self.dram.stats()
    }

    /// Useless prefetches whose last copy died in the shared LLC.
    pub fn shared_useless_prefetches(&self) -> u64 {
        self.shared_useless_prefetches
    }

    /// Current DRAM queue pressure (cycles until the channel is free).
    pub fn dram_pressure(&self, now: u64) -> u64 {
        self.dram.pressure(now)
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Remaining in-flight latency for `line` at `now`, cleaning up the
    /// entry once it has arrived.
    #[inline]
    fn in_flight_remaining(&mut self, line: u64, now: u64) -> u64 {
        if now >= self.latest_arrival {
            return 0;
        }
        match self.in_flight.get(&line) {
            Some(&ready) if ready > now => ready - now,
            Some(_) => {
                self.in_flight.remove(&line);
                0
            }
            None => 0,
        }
    }

    fn note_in_flight(&mut self, line: u64, ready: u64, now: u64) {
        if self.in_flight.len() >= self.sweep_at {
            self.in_flight.retain(|_, &mut r| r > now);
            self.sweep_at = (2 * self.in_flight.len()).max(FIRST_SWEEP);
        }
        self.in_flight.insert(line, ready);
        self.latest_arrival = self.latest_arrival.max(ready);
    }

    /// Write a victim evicted from a private L1 back into the hierarchy.
    fn retire_l1_victim(&mut self, core: usize, v: crate::set_assoc::EvictedLine, now: u64) {
        if v.unused_prefetch {
            self.stats[core].prefetches_useless += 1;
        }
        if v.dirty {
            // Dirty victims (NT or not) fall back to L2; NT state rides
            // along so they still bypass the LLC later.
            if let Some(v2) = self.l2[core].fill(v.line, true, v.nt, false) {
                self.retire_l2_victim(core, v2, now);
            }
        }
    }

    /// Write a victim evicted from a private L2 back into the LLC —
    /// unless it is non-temporal, in which case it bypasses the LLC and
    /// goes straight to DRAM (dirty) or is dropped (clean).
    fn retire_l2_victim(&mut self, core: usize, v: crate::set_assoc::EvictedLine, now: u64) {
        if v.unused_prefetch {
            self.stats[core].prefetches_useless += 1;
        }
        if v.nt {
            if v.dirty {
                self.dram.write(now);
                self.stats[core].dram_write_bytes += self.line_bytes();
            }
            return;
        }
        if v.dirty {
            if let Some(v3) = self.llc.fill(v.line, true, false, false) {
                self.retire_llc_victim(core, v3, now);
            }
        }
    }

    /// Handle a victim evicted from the shared LLC.
    fn retire_llc_victim(&mut self, core: usize, v: crate::set_assoc::EvictedLine, now: u64) {
        if v.unused_prefetch {
            self.shared_useless_prefetches += 1;
        }
        if v.dirty {
            self.dram.write(now);
            self.stats[core].dram_write_bytes += self.line_bytes();
        }
    }

    /// Issue a demand load/store for `core` at time `now`.
    ///
    /// In-flight latencies are exact as long as `now` never decreases
    /// from one `demand_access` or [`prefetch`](Self::prefetch) call to
    /// the next ([`reset`](Self::reset) starts time over): the in-flight
    /// table stops tracking a fill once `now` has passed its arrival.
    /// `Sim::run_solo` and `Sim::run_mix` step cores in global time
    /// order, so they satisfy this.
    pub fn demand_access(&mut self, core: usize, mref: MemRef, now: u64) -> AccessResult {
        let line = self.line_of(mref.addr);
        let store = mref.kind == AccessKind::Store;
        let st = &mut self.stats[core];
        st.demand_accesses += 1;

        let mut was_prefetched = false;
        if self.l1[core].access(line, store, &mut was_prefetched) {
            if was_prefetched {
                self.stats[core].prefetches_useful += 1;
            }
            let rem = self.in_flight_remaining(line, now);
            if rem > 0 {
                self.stats[core].mshr_merges += 1;
            }
            return AccessResult {
                level: HitLevel::L1,
                latency: rem,
                merged: rem > 0,
            };
        }
        self.stats[core].l1_misses += 1;

        if self.l2[core].access(line, false, &mut was_prefetched) {
            if was_prefetched {
                self.stats[core].prefetches_useful += 1;
            }
            if let Some(v) = self.l1[core].fill_absent(line, store, false, false) {
                self.retire_l1_victim(core, v, now);
            }
            let rem = self.in_flight_remaining(line, now);
            let lat = self.cfg.lat_l2.max(rem);
            return AccessResult {
                level: HitLevel::L2,
                latency: lat,
                merged: rem > self.cfg.lat_l2,
            };
        }
        self.stats[core].l2_misses += 1;

        if self.llc.access(line, false, &mut was_prefetched) {
            if was_prefetched {
                self.stats[core].prefetches_useful += 1;
            }
            if let Some(v) = self.l2[core].fill_absent(line, false, false, false) {
                self.retire_l2_victim(core, v, now);
            }
            if let Some(v) = self.l1[core].fill_absent(line, store, false, false) {
                self.retire_l1_victim(core, v, now);
            }
            let rem = self.in_flight_remaining(line, now);
            let lat = self.cfg.lat_llc.max(rem);
            return AccessResult {
                level: HitLevel::Llc,
                latency: lat,
                merged: rem > self.cfg.lat_llc,
            };
        }
        self.stats[core].llc_misses += 1;

        // Off-chip.
        let lat = self.dram.read(now);
        self.stats[core].dram_read_bytes += self.line_bytes();
        self.note_in_flight(line, now + lat, now);
        if let Some(v) = self.llc.fill_absent(line, false, false, false) {
            self.retire_llc_victim(core, v, now);
        }
        if let Some(v) = self.l2[core].fill_absent(line, false, false, false) {
            self.retire_l2_victim(core, v, now);
        }
        if let Some(v) = self.l1[core].fill_absent(line, store, false, false) {
            self.retire_l1_victim(core, v, now);
        }
        AccessResult {
            level: HitLevel::Dram,
            latency: lat,
            merged: false,
        }
    }

    /// Issue a (non-blocking) prefetch of the line containing `addr` for
    /// `core`. Returns `true` if the prefetch moved data (i.e. was not a
    /// no-op on an already-resident line).
    ///
    /// Like [`demand_access`](Self::demand_access), this expects `now`
    /// never to decrease between calls.
    pub fn prefetch(&mut self, core: usize, addr: u64, target: PrefetchTarget, now: u64) -> bool {
        let line = self.line_of(addr);
        self.stats[core].prefetches_issued += 1;

        // Already close enough to the core? Then the prefetch is a no-op.
        if self.l1[core].probe(line) {
            return false;
        }
        let in_l2 = self.l2[core].probe(line);
        if in_l2 && target == PrefetchTarget::L2 {
            return false;
        }
        // Only a line in neither L2 nor the LLC is fetched from DRAM.
        let from_dram = !in_l2 && !self.llc.probe(line);

        match target {
            PrefetchTarget::Nta => {
                // Fill the private levels (L1 + L2) with the NT mark and
                // bypass the *shared* LLC — the resource the paper's
                // bypassing conserves. On eviction NT lines go straight
                // to DRAM (see `retire_*_victim`), never polluting the
                // LLC. (Filling L2 as well keeps low-associativity L1s
                // from thrashing multi-stream NT data; vendors' NTA
                // implementations differ in the same spirit.)
                if from_dram {
                    let lat = self.dram.read(now);
                    self.stats[core].dram_read_bytes += self.line_bytes();
                    self.stats[core].prefetch_dram_fetches += 1;
                    self.note_in_flight(line, now + lat, now);
                }
                if !in_l2 {
                    if let Some(v) = self.l2[core].fill_absent(line, false, true, false) {
                        self.retire_l2_victim(core, v, now);
                    }
                }
                if let Some(v) = self.l1[core].fill_absent(line, false, true, true) {
                    self.retire_l1_victim(core, v, now);
                }
                true
            }
            PrefetchTarget::L1 | PrefetchTarget::L2 => {
                let fill_l1 = target == PrefetchTarget::L1;
                if from_dram {
                    let lat = self.dram.read(now);
                    self.stats[core].dram_read_bytes += self.line_bytes();
                    self.stats[core].prefetch_dram_fetches += 1;
                    self.note_in_flight(line, now + lat, now);
                    if let Some(v) = self.llc.fill_absent(line, false, false, !fill_l1) {
                        self.retire_llc_victim(core, v, now);
                    }
                }
                if !in_l2 {
                    if let Some(v) = self.l2[core].fill_absent(line, false, false, !fill_l1) {
                        self.retire_l2_victim(core, v, now);
                    }
                }
                if fill_l1 {
                    if let Some(v) = self.l1[core].fill_absent(line, false, false, true) {
                        self.retire_l1_victim(core, v, now);
                    }
                }
                true
            }
        }
    }

    /// Reset all caches, counters and channel state.
    pub fn reset(&mut self) {
        for c in &mut self.l1 {
            c.clear();
        }
        for c in &mut self.l2 {
            c.clear();
        }
        self.llc.clear();
        self.dram.reset();
        self.stats.fill(CoreStats::default());
        self.shared_useless_prefetches = 0;
        self.in_flight.clear();
        self.latest_arrival = 0;
        self.sweep_at = FIRST_SWEEP;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repf_trace::Pc;

    fn tiny_cfg() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig::new(512, 2, 64),   // 8 lines
            l2: CacheConfig::new(2048, 4, 64),  // 32 lines
            llc: CacheConfig::new(8192, 4, 64), // 128 lines
            lat_l2: 10,
            lat_llc: 30,
            dram: DramConfig {
                latency_cycles: 200,
                service_cycles: 16,
                line_bytes: 64,
            },
        }
    }

    fn load(addr: u64) -> MemRef {
        MemRef::load(Pc(0), addr)
    }

    #[test]
    fn cold_miss_goes_to_dram_then_hits_l1() {
        let mut m = MemorySystem::new(1, tiny_cfg());
        let r = m.demand_access(0, load(4096), 0);
        assert_eq!(r.level, HitLevel::Dram);
        assert_eq!(r.latency, 216);
        let r = m.demand_access(0, load(4096), 1000);
        assert_eq!(r.level, HitLevel::L1);
        assert_eq!(r.latency, 0);
        assert_eq!(m.core_stats(0).l1_misses, 1);
        assert_eq!(m.core_stats(0).dram_read_bytes, 64);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut m = MemorySystem::new(1, tiny_cfg());
        // L1: 4 sets × 2 ways. Fill 3 lines in the same L1 set (stride =
        // 4 lines = 256 B) to evict the first.
        for i in 0..3 {
            m.demand_access(0, load(i * 256), 0);
        }
        let r = m.demand_access(0, load(0), 1000);
        assert_eq!(r.level, HitLevel::L2, "clean victim dropped, L2 copy hit");
        assert_eq!(r.latency, 10);
    }

    #[test]
    fn dirty_nt_line_bypasses_llc_on_eviction() {
        let mut m = MemorySystem::new(1, tiny_cfg());
        m.prefetch(0, 0, PrefetchTarget::Nta, 0);
        // Store into the NT line (hit in L1, marks dirty).
        m.demand_access(0, MemRef::store(Pc(0), 0), 500);
        let wb_before = m.core_stats(0).dram_write_bytes;
        // Push it out of both private levels: L2 has 8 sets, so lines at
        // 512 B multiples conflict with line 0 in L2 set 0.
        for i in 1..=8u64 {
            m.demand_access(0, load(i * 512), 1000 + i * 10);
        }
        assert_eq!(
            m.core_stats(0).dram_write_bytes,
            wb_before + 64,
            "dirty NT victim written straight to DRAM, skipping the LLC"
        );
        // And it must not be anywhere on chip now.
        let r = m.demand_access(0, load(0), 20_000);
        assert_eq!(r.level, HitLevel::Dram);
    }

    #[test]
    fn nta_prefetch_stays_in_private_levels() {
        let mut m = MemorySystem::new(1, tiny_cfg());
        m.prefetch(0, 4096, PrefetchTarget::Nta, 0);
        // Evicting the clean NT line from L1 leaves the L2 copy.
        m.demand_access(0, load(4096 + 256), 1000);
        m.demand_access(0, load(4096 + 512), 1000);
        let r = m.demand_access(0, load(4096), 5_000);
        assert_eq!(r.level, HitLevel::L2, "NT copy survives in private L2");
        // Push it out of L2 as well: it must NOT be in the LLC.
        for i in 1..=8u64 {
            m.demand_access(0, load(4096 + i * 512), 10_000 + i * 10);
        }
        let r = m.demand_access(0, load(4096), 50_000);
        assert_eq!(r.level, HitLevel::Dram, "bypassed the LLC entirely");
    }

    #[test]
    fn normal_prefetch_fills_all_levels() {
        let mut m = MemorySystem::new(1, tiny_cfg());
        assert!(m.prefetch(0, 4096, PrefetchTarget::L1, 0));
        // Evict from L1 (clean → dropped); the LLC copy must remain.
        m.demand_access(0, load(4096 + 256), 1000);
        m.demand_access(0, load(4096 + 512), 1000);
        let r = m.demand_access(0, load(4096), 20_000);
        assert_ne!(r.level, HitLevel::Dram, "LLC/L2 copy survives");
    }

    #[test]
    fn timely_prefetch_hides_latency_late_prefetch_merges() {
        let mut m = MemorySystem::new(1, tiny_cfg());
        m.prefetch(0, 0, PrefetchTarget::L1, 0);
        // Demand access before the fill arrives (arrival at 216).
        let r = m.demand_access(0, load(0), 100);
        assert_eq!(r.level, HitLevel::L1);
        assert!(r.merged);
        assert_eq!(r.latency, 116, "remaining in-flight latency");
        // Second access after arrival is free.
        let r = m.demand_access(0, load(0), 400);
        assert_eq!(r.latency, 0);
        assert_eq!(m.core_stats(0).mshr_merges, 1);
    }

    #[test]
    fn prefetch_usefulness_accounting() {
        let mut m = MemorySystem::new(1, tiny_cfg());
        m.prefetch(0, 0, PrefetchTarget::L1, 0);
        m.demand_access(0, load(0), 1000);
        assert_eq!(m.core_stats(0).prefetches_useful, 1);
        // A never-touched NTA prefetch evicted from L1 counts useless.
        m.prefetch(0, 64, PrefetchTarget::Nta, 2000);
        m.demand_access(0, load(64 + 256), 3000);
        m.demand_access(0, load(64 + 512), 3000);
        assert_eq!(m.core_stats(0).prefetches_useless, 1);
        assert_eq!(m.core_stats(0).prefetches_issued, 2);
    }

    #[test]
    fn prefetch_on_resident_line_is_noop() {
        let mut m = MemorySystem::new(1, tiny_cfg());
        m.demand_access(0, load(0), 0);
        let reads = m.dram_stats().reads;
        assert!(!m.prefetch(0, 0, PrefetchTarget::L1, 10));
        assert_eq!(m.dram_stats().reads, reads, "no extra traffic");
    }

    #[test]
    fn l2_target_prefetch_skips_l1() {
        let mut m = MemorySystem::new(1, tiny_cfg());
        m.prefetch(0, 4096, PrefetchTarget::L2, 0);
        let r = m.demand_access(0, load(4096), 1000);
        assert_eq!(r.level, HitLevel::L2);
        assert_eq!(m.core_stats(0).prefetches_useful, 1);
    }

    #[test]
    fn cores_share_llc_but_not_private_levels() {
        let mut m = MemorySystem::new(2, tiny_cfg());
        m.demand_access(0, load(4096), 0);
        // Core 1 misses its private levels but hits the shared LLC.
        let r = m.demand_access(1, load(4096), 1000);
        assert_eq!(r.level, HitLevel::Llc);
    }

    #[test]
    fn dram_contention_raises_latency() {
        let mut m = MemorySystem::new(2, tiny_cfg());
        let a = m.demand_access(0, load(0), 0);
        let b = m.demand_access(1, load(1 << 30), 0);
        assert_eq!(a.latency, 216);
        assert_eq!(b.latency, 232, "queued behind core 0's transfer");
    }

    #[test]
    fn dirty_writeback_cascades_to_dram() {
        let mut m = MemorySystem::new(1, tiny_cfg());
        // Dirty a line, then force it out of L1, L2 and the LLC by
        // streaming far more lines than the LLC holds through the same
        // address space.
        m.demand_access(0, MemRef::store(Pc(0), 0), 0);
        for i in 1..1000 {
            m.demand_access(0, load(i * 64), i * 10);
        }
        assert!(
            m.core_stats(0).dram_write_bytes >= 64,
            "the dirty line eventually reached DRAM"
        );
    }

    #[test]
    fn miss_path_fills_are_of_absent_lines() {
        // Demand accesses (loads and stores) and prefetches of every
        // target from two cores over a line space a few times the LLC,
        // so every fill and victim path runs. Each fill of the demand
        // and prefetch paths skips the search for its line, and debug
        // builds check there that the line is absent.
        let mut m = MemorySystem::new(2, tiny_cfg());
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut now = 0;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let core = (x >> 40) as usize & 1;
            let addr = (x % 512) * 64;
            match (x >> 32) % 8 {
                0 => m.prefetch(core, addr, PrefetchTarget::L1, now),
                1 => m.prefetch(core, addr, PrefetchTarget::L2, now),
                2 => m.prefetch(core, addr, PrefetchTarget::Nta, now),
                3 | 4 => {
                    m.demand_access(core, MemRef::store(Pc(0), addr), now)
                        .merged
                }
                _ => m.demand_access(core, load(addr), now).merged,
            };
            now += 7;
        }
        let s = m.core_stats(0);
        assert!(s.l1_misses > s.l2_misses && s.l2_misses > s.llc_misses);
        assert!(s.dram_write_bytes > 0 && s.prefetches_useless > 0);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut m = MemorySystem::new(1, tiny_cfg());
        m.demand_access(0, load(0), 0);
        m.reset();
        assert_eq!(m.core_stats(0).demand_accesses, 0);
        let r = m.demand_access(0, load(0), 0);
        assert_eq!(r.level, HitLevel::Dram);
    }
}
