//! Index-driven gather: a sequential walk of an index array combined with a
//! data-dependent load into a large table — the structure of sparse
//! matrix-vector products (*soplex*) and grid searches with partial
//! locality (*astar*). The index walk is perfectly strided (prefetchable);
//! the gather itself is irregular.

use crate::mem::{MemRef, Pc};
use crate::rng::{splitmix64, XorShift64Star};
use crate::source::TraceSource;

/// Configuration for [`Gather`].
#[derive(Clone, Debug)]
pub struct GatherCfg {
    /// PC of the sequential index-array load.
    pub index_pc: Pc,
    /// PC of the data-dependent gather load.
    pub data_pc: Pc,
    /// Base of the index array.
    pub index_base: u64,
    /// Stride of the index walk in bytes (e.g. 4 for `int` indices).
    pub index_stride: u64,
    /// Base of the gathered data table.
    pub data_base: u64,
    /// Number of elements in the data table.
    pub data_elems: u64,
    /// Element size of the data table in bytes.
    pub data_elem_bytes: u64,
    /// Entries in the index array (steps per pass).
    pub index_len: u64,
    /// Passes over the index array.
    pub passes: u32,
    /// Fraction of gathers that land near the previous gather (spatial
    /// locality knob, `0.0..=1.0`). *astar* uses a high value, *soplex* a
    /// low one.
    pub locality: f64,
    /// Neighbourhood radius (in elements) for local gathers.
    pub locality_window: u64,
    /// Seed for the synthetic index contents.
    pub seed: u64,
}

/// See [`GatherCfg`]. The gathered element for step `i` is a pure function
/// of `(seed, i)`, so every pass re-gathers the same sequence — the index
/// array is read-only, as in the modelled programs.
#[derive(Clone, Debug)]
pub struct Gather {
    cfg: GatherCfg,
    step: u64,
    pass: u32,
    pending_data: Option<MemRef>,
    prev_elem: u64,
    rng: XorShift64Star,
}

impl Gather {
    /// Build the gather; panics on empty tables or zero-length index walks.
    pub fn new(cfg: GatherCfg) -> Self {
        assert!(cfg.data_elems > 0, "data table must not be empty");
        assert!(cfg.index_len > 0, "index array must not be empty");
        assert!(
            (0.0..=1.0).contains(&cfg.locality),
            "locality must be a fraction"
        );
        let rng = XorShift64Star::new(cfg.seed ^ 0xdead_beef);
        Gather {
            cfg,
            step: 0,
            pass: 0,
            pending_data: None,
            prev_elem: 0,
            rng,
        }
    }

    /// The configuration this gather was built from.
    pub fn cfg(&self) -> &GatherCfg {
        &self.cfg
    }

    /// The synthetic contents of index entry `i`: deterministic across
    /// passes and resets.
    #[inline]
    fn indexed_elem(&self, i: u64) -> u64 {
        let mut s = self.cfg.seed ^ i;
        splitmix64(&mut s) % self.cfg.data_elems
    }
}

impl TraceSource for Gather {
    #[inline]
    fn next_ref(&mut self) -> Option<MemRef> {
        if let Some(d) = self.pending_data.take() {
            return Some(d);
        }
        if self.pass >= self.cfg.passes {
            return None;
        }
        let idx_addr = self.cfg.index_base + self.step * self.cfg.index_stride;
        let r = MemRef::load(self.cfg.index_pc, idx_addr);

        // Decide the gather target: mostly from the (synthetic) index array
        // contents, sometimes near the previous target to model locality.
        let elem = if self.cfg.locality > 0.0 && self.rng.unit_f64() < self.cfg.locality {
            let w = self.cfg.locality_window.max(1);
            let delta = self.rng.below(2 * w + 1) as i64 - w as i64;
            self.prev_elem
                .saturating_add_signed(delta)
                .min(self.cfg.data_elems - 1)
        } else {
            self.indexed_elem(self.step)
        };
        self.prev_elem = elem;
        let data_addr = self.cfg.data_base + elem * self.cfg.data_elem_bytes;
        self.pending_data = Some(MemRef::load(self.cfg.data_pc, data_addr));

        self.step += 1;
        if self.step == self.cfg.index_len {
            self.step = 0;
            self.pass += 1;
        }
        Some(r)
    }

    fn reset(&mut self) {
        self.step = 0;
        self.pass = 0;
        self.pending_data = None;
        self.prev_elem = 0;
        self.rng = XorShift64Star::new(self.cfg.seed ^ 0xdead_beef);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::TraceSourceExt;

    fn cfg() -> GatherCfg {
        GatherCfg {
            index_pc: Pc(1),
            data_pc: Pc(2),
            index_base: 0,
            index_stride: 4,
            data_base: 1 << 30,
            data_elems: 1 << 16,
            data_elem_bytes: 8,
            index_len: 1000,
            passes: 2,
            locality: 0.0,
            locality_window: 16,
            seed: 7,
        }
    }

    #[test]
    fn alternates_index_and_data_loads() {
        let mut g = Gather::new(cfg());
        let refs = g.collect_refs(10);
        for (i, r) in refs.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(r.pc, Pc(1));
            } else {
                assert_eq!(r.pc, Pc(2));
                assert!(r.addr >= 1 << 30);
            }
        }
    }

    #[test]
    fn index_walk_is_strided() {
        let mut g = Gather::new(cfg());
        let refs = g.collect_refs(20);
        let idx: Vec<u64> = refs
            .iter()
            .filter(|r| r.pc == Pc(1))
            .map(|r| r.addr)
            .collect();
        for w in idx.windows(2) {
            assert_eq!(w[1] - w[0], 4);
        }
    }

    #[test]
    fn gather_targets_repeat_across_passes() {
        let mut g = Gather::new(cfg());
        let all = g.collect_refs(u64::MAX);
        assert_eq!(all.len(), 4000); // 1000 steps × 2 refs × 2 passes
        let (p1, p2) = all.split_at(2000);
        assert_eq!(p1, p2, "index contents are read-only across passes");
    }

    #[test]
    fn reset_replays_even_with_locality() {
        let mut g = Gather::new(GatherCfg {
            locality: 0.7,
            ..cfg()
        });
        let a = g.collect_refs(u64::MAX);
        g.reset();
        let b = g.collect_refs(u64::MAX);
        assert_eq!(a, b);
    }

    #[test]
    fn locality_tightens_gather_footprint() {
        let spread = |loc: f64| -> u64 {
            let mut g = Gather::new(GatherCfg {
                locality: loc,
                passes: 1,
                ..cfg()
            });
            let refs = g.collect_refs(u64::MAX);
            let mut lines: Vec<u64> = refs
                .iter()
                .filter(|r| r.pc == Pc(2))
                .map(|r| r.addr / 64)
                .collect();
            lines.sort_unstable();
            lines.dedup();
            lines.len() as u64
        };
        assert!(
            spread(0.95) < spread(0.0) / 2,
            "high locality must touch far fewer distinct lines"
        );
    }
}
