//! Regular strided sweeps — the bread-and-butter pattern of streaming
//! kernels and the main target of both hardware stride prefetchers and the
//! paper's software prefetching.

use crate::mem::{MemRef, Pc};
use crate::source::TraceSource;

/// Configuration for [`StridedStream`].
#[derive(Clone, Debug)]
pub struct StridedStreamCfg {
    /// PC of the load that walks the region.
    pub pc: Pc,
    /// PC used for the optional interleaved stores.
    pub store_pc: Pc,
    /// Base byte address of the region.
    pub base: u64,
    /// Region length in bytes. The walk covers `len_bytes / |stride|`
    /// elements per pass.
    pub len_bytes: u64,
    /// Byte stride between consecutive accesses; negative walks downwards.
    /// Must be non-zero and `|stride| <= len_bytes`.
    pub stride: i64,
    /// Number of sweeps over the region before the stream ends.
    pub passes: u32,
    /// Every `store_period`-th element also emits a store to
    /// `addr + store_offset` (0 disables stores).
    pub store_period: u32,
    /// Byte offset of the store relative to the load address.
    pub store_offset: i64,
}

impl StridedStreamCfg {
    /// A plain load-only sweep: `passes` passes of `len_bytes / stride`
    /// loads.
    pub fn loads(pc: Pc, base: u64, len_bytes: u64, stride: i64, passes: u32) -> Self {
        StridedStreamCfg {
            pc,
            store_pc: pc,
            base,
            len_bytes,
            stride,
            passes,
            store_period: 0,
            store_offset: 0,
        }
    }

    /// Elements visited per pass.
    pub fn elems_per_pass(&self) -> u64 {
        self.len_bytes / self.stride.unsigned_abs()
    }

    /// Total references the stream will produce (loads + stores).
    pub fn total_refs(&self) -> u64 {
        let elems = self.elems_per_pass();
        let stores = if self.store_period == 0 {
            0
        } else {
            elems / self.store_period as u64
        };
        (elems + stores) * self.passes as u64
    }
}

/// A strided sweep over a region, repeated for a number of passes. See
/// [`StridedStreamCfg`].
#[derive(Clone, Debug)]
pub struct StridedStream {
    cfg: StridedStreamCfg,
    /// element index within the current pass
    elem: u64,
    elems_per_pass: u64,
    pass: u32,
    pending_store: Option<MemRef>,
}

impl StridedStream {
    /// Build the stream; panics on a zero stride or a stride larger than
    /// the region.
    pub fn new(cfg: StridedStreamCfg) -> Self {
        assert!(cfg.stride != 0, "stride must be non-zero");
        assert!(
            cfg.stride.unsigned_abs() <= cfg.len_bytes,
            "stride {} exceeds region {}",
            cfg.stride,
            cfg.len_bytes
        );
        let elems_per_pass = cfg.elems_per_pass();
        StridedStream {
            cfg,
            elem: 0,
            elems_per_pass,
            pass: 0,
            pending_store: None,
        }
    }

    /// The configuration this stream was built from.
    pub fn cfg(&self) -> &StridedStreamCfg {
        &self.cfg
    }

    #[inline]
    fn addr_of(&self, elem: u64) -> u64 {
        let step = self.cfg.stride.unsigned_abs();
        if self.cfg.stride > 0 {
            self.cfg.base + elem * step
        } else {
            // Downward walk starts at the top of the region.
            self.cfg.base + self.cfg.len_bytes - step - elem * step
        }
    }
}

impl TraceSource for StridedStream {
    #[inline]
    fn next_ref(&mut self) -> Option<MemRef> {
        if let Some(s) = self.pending_store.take() {
            return Some(s);
        }
        if self.pass >= self.cfg.passes {
            return None;
        }
        let addr = self.addr_of(self.elem);
        let r = MemRef::load(self.cfg.pc, addr);
        if self.cfg.store_period != 0
            && (self.elem + 1).is_multiple_of(self.cfg.store_period as u64)
        {
            let store_addr = addr.wrapping_add_signed(self.cfg.store_offset);
            self.pending_store = Some(MemRef::store(self.cfg.store_pc, store_addr));
        }
        self.elem += 1;
        if self.elem == self.elems_per_pass {
            self.elem = 0;
            self.pass += 1;
        }
        Some(r)
    }

    fn reset(&mut self) {
        self.elem = 0;
        self.pass = 0;
        self.pending_store = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::AccessKind;
    use crate::source::TraceSourceExt;

    #[test]
    fn forward_walk_addresses() {
        let mut s = StridedStream::new(StridedStreamCfg::loads(Pc(1), 1000, 256, 64, 1));
        let refs = s.collect_refs(100);
        let addrs: Vec<u64> = refs.iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![1000, 1064, 1128, 1192]);
        assert_eq!(s.next_ref(), None);
    }

    #[test]
    fn backward_walk_addresses() {
        let mut s = StridedStream::new(StridedStreamCfg::loads(Pc(1), 1000, 256, -64, 1));
        let addrs: Vec<u64> = s.collect_refs(100).iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![1192, 1128, 1064, 1000]);
    }

    #[test]
    fn passes_repeat_identically() {
        let mut s = StridedStream::new(StridedStreamCfg::loads(Pc(1), 0, 128, 32, 2));
        let refs = s.collect_refs(100);
        assert_eq!(refs.len(), 8);
        assert_eq!(&refs[..4], &refs[4..]);
    }

    #[test]
    fn stores_interleave_with_period() {
        let cfg = StridedStreamCfg {
            pc: Pc(1),
            store_pc: Pc(2),
            base: 0,
            len_bytes: 512,
            stride: 64,
            passes: 1,
            store_period: 2,
            store_offset: 4096,
        };
        let total = cfg.total_refs();
        let mut s = StridedStream::new(cfg);
        let refs = s.collect_refs(1000);
        assert_eq!(refs.len() as u64, total);
        let stores: Vec<_> = refs.iter().filter(|r| r.kind.is_store()).collect();
        assert_eq!(stores.len(), 4);
        // Store follows the corresponding load by store_offset bytes.
        assert_eq!(stores[0].addr, 64 + 4096);
        assert_eq!(stores[0].pc, Pc(2));
        assert_eq!(refs[1].kind, AccessKind::Load);
        assert_eq!(refs[2].kind, AccessKind::Store);
    }

    #[test]
    fn reset_replays() {
        let mut s = StridedStream::new(StridedStreamCfg::loads(Pc(3), 64, 4096, 16, 3));
        let a = s.collect_refs(10_000);
        s.reset();
        let b = s.collect_refs(10_000);
        assert_eq!(a, b);
    }

    #[test]
    fn total_refs_matches_stream_length() {
        let cfg = StridedStreamCfg {
            pc: Pc(1),
            store_pc: Pc(1),
            base: 0,
            len_bytes: 1024,
            stride: 8,
            passes: 3,
            store_period: 5,
            store_offset: 0,
        };
        let want = cfg.total_refs();
        let mut s = StridedStream::new(cfg);
        assert_eq!(s.collect_refs(1 << 20).len() as u64, want);
    }

    #[test]
    #[should_panic(expected = "stride must be non-zero")]
    fn zero_stride_panics() {
        let _ = StridedStream::new(StridedStreamCfg::loads(Pc(0), 0, 64, 0, 1));
    }
}
