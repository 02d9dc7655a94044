//! Core memory-reference types shared by every crate in the workspace.

/// Default cache-line size used throughout the reproduction (both machines
/// in the paper use 64 B lines).
pub const LINE_BYTES: u64 = 64;

/// A static load/store site ("program counter").
///
/// In the paper a delinquent load is identified by the address of its
/// instruction in the binary; here a [`Pc`] plays that role. Workload
/// analogs allocate disjoint `Pc` ranges to their constituent access
/// patterns so per-instruction analyses (stride profiling, per-PC miss-ratio
/// curves, prefetch insertion) can distinguish them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct Pc(pub u32);

impl Pc {
    /// Numeric value, convenient for table indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Pc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pc{:04}", self.0)
    }
}

/// Whether a reference reads or writes memory.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A demand load. Only loads are candidates for software prefetching.
    Load,
    /// A demand store (write-allocate in the simulated hierarchy).
    Store,
}

impl AccessKind {
    /// `true` for [`AccessKind::Store`].
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(self, AccessKind::Store)
    }
}

/// A single dynamic memory reference: *instruction* [`Pc`] touching byte
/// address `addr`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemRef {
    /// Static instruction that issued the access.
    pub pc: Pc,
    /// Virtual byte address accessed.
    pub addr: u64,
    /// Load or store.
    pub kind: AccessKind,
}

impl MemRef {
    /// Convenience constructor for a load.
    #[inline]
    pub fn load(pc: Pc, addr: u64) -> Self {
        MemRef {
            pc,
            addr,
            kind: AccessKind::Load,
        }
    }

    /// Convenience constructor for a store.
    #[inline]
    pub fn store(pc: Pc, addr: u64) -> Self {
        MemRef {
            pc,
            addr,
            kind: AccessKind::Store,
        }
    }

    /// Cache-line index of this reference for a given line size.
    #[inline]
    pub fn line(&self, line_bytes: u64) -> u64 {
        line_index(self.addr, line_bytes)
    }
}

/// Cache-line index of `addr` for a line size that must be a power of two.
#[inline]
pub fn line_index(addr: u64, line_bytes: u64) -> u64 {
    debug_assert!(line_bytes.is_power_of_two());
    addr >> line_bytes.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_index_is_floor_division() {
        assert_eq!(line_index(0, 64), 0);
        assert_eq!(line_index(63, 64), 0);
        assert_eq!(line_index(64, 64), 1);
        assert_eq!(line_index(130, 64), 2);
        assert_eq!(line_index(u64::MAX, 64), u64::MAX / 64);
    }

    #[test]
    fn memref_helpers() {
        let l = MemRef::load(Pc(3), 4096);
        assert_eq!(l.kind, AccessKind::Load);
        assert!(!l.kind.is_store());
        assert_eq!(l.line(64), 64);
        let s = MemRef::store(Pc(4), 65);
        assert!(s.kind.is_store());
        assert_eq!(s.line(64), 1);
    }

    #[test]
    fn pc_display_and_index() {
        assert_eq!(Pc(7).to_string(), "pc0007");
        assert_eq!(Pc(7).index(), 7);
        assert!(Pc(1) < Pc(2));
    }
}
