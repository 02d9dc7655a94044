//! The [`Workload`] wrapper: a finite, resettable trace plus the metadata
//! the timing simulator needs.

use repf_trace::{MemRef, TraceSource};

/// A runnable workload instance.
pub struct Workload {
    /// Display name.
    pub name: &'static str,
    /// Base (compute) cycles per memory reference: the cost of a
    /// reference when it hits L1. Compute-bound codes have high values,
    /// streaming kernels low ones.
    pub base_cpr: f64,
    /// References in one nominal solo run.
    pub nominal_refs: u64,
    source: Box<dyn TraceSource>,
}

impl Workload {
    /// Wrap a source.
    pub fn new(
        name: &'static str,
        base_cpr: f64,
        nominal_refs: u64,
        source: Box<dyn TraceSource>,
    ) -> Self {
        assert!(base_cpr > 0.0 && nominal_refs > 0);
        Workload {
            name,
            base_cpr,
            nominal_refs,
            source,
        }
    }
}

impl TraceSource for Workload {
    #[inline]
    fn next_ref(&mut self) -> Option<MemRef> {
        self.source.next_ref()
    }

    #[inline]
    fn fill(&mut self, out: &mut [MemRef]) -> usize {
        self.source.fill(out)
    }

    fn reset(&mut self) {
        self.source.reset();
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("base_cpr", &self.base_cpr)
            .field("nominal_refs", &self.nominal_refs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repf_trace::patterns::{StridedStream, StridedStreamCfg};
    use repf_trace::{Pc, TraceSourceExt};

    #[test]
    fn delegates_to_source() {
        let src = StridedStream::new(StridedStreamCfg::loads(Pc(1), 0, 256, 64, 1));
        let mut w = Workload::new("demo", 2.0, 4, Box::new(src));
        assert_eq!(w.collect_refs(100).len(), 4);
        w.reset();
        assert_eq!(w.collect_refs(100).len(), 4);
        assert!(format!("{w:?}").contains("demo"));
    }
}
