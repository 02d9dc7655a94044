//! Event counters for the memory system. These play the role of the
//! hardware performance counters the paper reads (off-chip traffic, misses
//! per level, prefetch usefulness).

/// Per-core demand/prefetch counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Demand loads + stores issued.
    pub demand_accesses: u64,
    /// Demand accesses that missed L1.
    pub l1_misses: u64,
    /// Demand L1 misses that also missed L2.
    pub l2_misses: u64,
    /// Demand L2 misses that also missed the shared LLC.
    pub llc_misses: u64,
    /// Demand misses that merged with an in-flight fill (partial latency).
    pub mshr_merges: u64,
    /// Prefetches issued on behalf of this core (software or hardware).
    pub prefetches_issued: u64,
    /// Prefetches that caused a DRAM fetch.
    pub prefetch_dram_fetches: u64,
    /// Prefetched lines that were demand-referenced before eviction.
    pub prefetches_useful: u64,
    /// Prefetched lines evicted without ever being referenced.
    pub prefetches_useless: u64,
    /// Bytes this core fetched from DRAM (demand + prefetch).
    pub dram_read_bytes: u64,
    /// Bytes this core wrote back to DRAM.
    pub dram_write_bytes: u64,
}

impl CoreStats {
    /// Total off-chip traffic in bytes (reads + writebacks).
    pub fn dram_total_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Demand L1 miss ratio.
    pub fn l1_miss_ratio(&self) -> f64 {
        ratio(self.l1_misses, self.demand_accesses)
    }

    /// Prefetch accuracy: useful / (useful + useless). `None` before any
    /// prefetched line has been resolved.
    pub fn prefetch_accuracy(&self) -> Option<f64> {
        let resolved = self.prefetches_useful + self.prefetches_useless;
        (resolved > 0).then(|| self.prefetches_useful as f64 / resolved as f64)
    }
}

/// Shared-channel counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Line reads served.
    pub reads: u64,
    /// Line writebacks served.
    pub writes: u64,
    /// Total cycles requests waited for the busy channel.
    pub queue_wait_cycles: u64,
    /// Total cycles the channel was busy transferring data.
    pub busy_cycles: u64,
}

impl DramStats {
    /// Bytes moved in both directions for `line_bytes`-sized transfers.
    pub fn total_bytes(&self, line_bytes: u64) -> u64 {
        (self.reads + self.writes) * line_bytes
    }
}

#[inline]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios() {
        let s = CoreStats {
            demand_accesses: 100,
            l1_misses: 25,
            dram_read_bytes: 640,
            dram_write_bytes: 64,
            prefetches_useful: 3,
            prefetches_useless: 1,
            ..Default::default()
        };
        assert_eq!(s.l1_miss_ratio(), 0.25);
        assert_eq!(s.dram_total_bytes(), 704);
        assert_eq!(s.prefetch_accuracy(), Some(0.75));
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = CoreStats::default();
        assert_eq!(s.l1_miss_ratio(), 0.0);
        assert_eq!(s.prefetch_accuracy(), None);
        let d = DramStats::default();
        assert_eq!(d.total_bytes(64), 0);
    }
}
