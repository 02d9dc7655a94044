//! The [`TraceSource`] abstraction: a resettable stream of memory
//! references, plus combinators shared by workloads and runners.
//!
//! ## Drawing in blocks
//!
//! A workload is a tree of sources: the runner's [`Cycle`], the
//! workload's boxed [`TakeRefs`], its `Mix` and one boxed pattern per
//! component. Drawn one reference at a time, every layer costs a
//! virtual call per reference. [`TraceSource::fill`] draws a block
//! instead: it writes the next references into a slice and returns how
//! many it wrote, which is fewer than asked only at program end. Its
//! provided body loops over `next_ref`, a static call inside each
//! concrete pattern, so patterns need no code of their own; the
//! combinators forward `fill` to their inner sources, and `Mix` draws
//! each component's share of a block with one `fill`. So a caller pays
//! one virtual call per layer per block. A block holds exactly the
//! references that `next_ref` would have returned one by one, and a
//! source is in the same state after either.

use crate::mem::MemRef;

/// A deterministic, resettable stream of memory references.
///
/// `next_ref` returns `None` when the modelled program ends; [`reset`]
/// rewinds the source to its initial state so the *same* stream can be
/// replayed (profiling pass, then baseline run, then each policy run).
///
/// [`reset`]: TraceSource::reset
/// `Send` is a supertrait so boxed sources (and everything built from
/// them — workloads, core setups, whole simulation cells) can be shipped
/// to the parallel evaluation engine's worker threads. Every generator in
/// this crate is plain owned data, so the bound costs nothing.
pub trait TraceSource: Send {
    /// Produce the next reference, or `None` at program end.
    fn next_ref(&mut self) -> Option<MemRef>;

    /// Write the next references into `out` and return how many were
    /// written: `out.len()`, or fewer only when the program ends inside
    /// the block. The references are those `next_ref` would return, in
    /// order. A source that has ended stays ended until [`reset`].
    ///
    /// [`reset`]: TraceSource::reset
    #[inline]
    fn fill(&mut self, out: &mut [MemRef]) -> usize {
        fill_by_ref(self, out)
    }

    /// Rewind to the initial state. After `reset`, the source must replay
    /// exactly the same stream it produced the first time.
    fn reset(&mut self);
}

/// [`TraceSource::fill`] by one `next_ref` call per slot.
#[inline]
pub(crate) fn fill_by_ref<S: TraceSource + ?Sized>(src: &mut S, out: &mut [MemRef]) -> usize {
    for (i, slot) in out.iter_mut().enumerate() {
        match src.next_ref() {
            Some(r) => *slot = r,
            None => return i,
        }
    }
    out.len()
}

/// Fill `out` from `src`, resetting it whenever it ends, the way
/// [`Cycle`] draws: stop short only when a freshly reset source yields
/// nothing.
#[inline]
pub(crate) fn fill_cycling<S: TraceSource + ?Sized>(src: &mut S, out: &mut [MemRef]) -> usize {
    let mut n = src.fill(out);
    while n < out.len() {
        src.reset();
        let more = src.fill(&mut out[n..]);
        if more == 0 {
            break;
        }
        n += more;
    }
    n
}

impl<S: TraceSource + ?Sized> TraceSource for Box<S> {
    #[inline]
    fn next_ref(&mut self) -> Option<MemRef> {
        (**self).next_ref()
    }

    #[inline]
    fn fill(&mut self, out: &mut [MemRef]) -> usize {
        (**self).fill(out)
    }

    fn reset(&mut self) {
        (**self).reset()
    }
}

/// Extension combinators for every [`TraceSource`].
pub trait TraceSourceExt: TraceSource + Sized {
    /// Truncate the stream after `n` references.
    fn take_refs(self, n: u64) -> TakeRefs<Self> {
        TakeRefs {
            inner: self,
            remaining: n,
            limit: n,
        }
    }

    /// Restart the stream whenever it ends, making it infinite. Used by the
    /// multicore runner to keep finished applications generating contention
    /// until the slowest co-runner completes.
    fn cycle(self) -> Cycle<Self> {
        Cycle { inner: self }
    }

    /// Run this source to exhaustion, then `next` — a two-phase program.
    fn chain<B: TraceSource>(self, next: B) -> Chain<Self, B> {
        Chain {
            first: self,
            second: next,
            in_second: false,
        }
    }

    /// Drain up to `n` references into a vector (for tests and small
    /// offline analyses).
    fn collect_refs(&mut self, n: u64) -> Vec<MemRef> {
        let mut out = Vec::with_capacity(n.min(1 << 20) as usize);
        for _ in 0..n {
            match self.next_ref() {
                Some(r) => out.push(r),
                None => break,
            }
        }
        out
    }
}

impl<S: TraceSource + Sized> TraceSourceExt for S {}

/// See [`TraceSourceExt::take_refs`].
#[derive(Clone, Debug)]
pub struct TakeRefs<S> {
    inner: S,
    remaining: u64,
    limit: u64,
}

impl<S: TraceSource> TraceSource for TakeRefs<S> {
    #[inline]
    fn next_ref(&mut self) -> Option<MemRef> {
        if self.remaining == 0 {
            return None;
        }
        match self.inner.next_ref() {
            Some(r) => {
                self.remaining -= 1;
                Some(r)
            }
            None => {
                self.remaining = 0;
                None
            }
        }
    }

    #[inline]
    fn fill(&mut self, out: &mut [MemRef]) -> usize {
        let want = out
            .len()
            .min(usize::try_from(self.remaining).unwrap_or(usize::MAX));
        let n = self.inner.fill(&mut out[..want]);
        // An inner source that ends early ends this one too.
        self.remaining = if n < want {
            0
        } else {
            self.remaining - n as u64
        };
        n
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.remaining = self.limit;
    }
}

/// Run one source to exhaustion, then another — multi-phase programs.
/// See [`TraceSourceExt::chain`].
#[derive(Clone, Debug)]
pub struct Chain<A, B> {
    first: A,
    second: B,
    in_second: bool,
}

impl<A: TraceSource, B: TraceSource> TraceSource for Chain<A, B> {
    #[inline]
    fn next_ref(&mut self) -> Option<MemRef> {
        if !self.in_second {
            if let Some(r) = self.first.next_ref() {
                return Some(r);
            }
            self.in_second = true;
        }
        self.second.next_ref()
    }

    #[inline]
    fn fill(&mut self, out: &mut [MemRef]) -> usize {
        let mut n = 0;
        if !self.in_second {
            n = self.first.fill(out);
            if n == out.len() {
                return n;
            }
            self.in_second = true;
        }
        n + self.second.fill(&mut out[n..])
    }

    fn reset(&mut self) {
        self.first.reset();
        self.second.reset();
        self.in_second = false;
    }
}

/// See [`TraceSourceExt::cycle`].
#[derive(Clone, Debug)]
pub struct Cycle<S> {
    inner: S,
}

impl<S: TraceSource> TraceSource for Cycle<S> {
    #[inline]
    fn next_ref(&mut self) -> Option<MemRef> {
        if let Some(r) = self.inner.next_ref() {
            return Some(r);
        }
        self.inner.reset();
        self.inner.next_ref()
    }

    #[inline]
    fn fill(&mut self, out: &mut [MemRef]) -> usize {
        fill_cycling(&mut self.inner, out)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// A pre-recorded trace, replayed from a vector. Mostly used in tests and
/// for regression fixtures.
#[derive(Clone, Debug, Default)]
pub struct Recorded {
    refs: Vec<MemRef>,
    pos: usize,
}

impl Recorded {
    /// Wrap a vector of references.
    pub fn new(refs: Vec<MemRef>) -> Self {
        Recorded { refs, pos: 0 }
    }

    /// Number of references in the recording.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// `true` when the recording is empty.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }
}

impl TraceSource for Recorded {
    #[inline]
    fn next_ref(&mut self) -> Option<MemRef> {
        let r = self.refs.get(self.pos).copied();
        if r.is_some() {
            self.pos += 1;
        }
        r
    }

    #[inline]
    fn fill(&mut self, out: &mut [MemRef]) -> usize {
        let rest = &self.refs[self.pos..];
        let n = rest.len().min(out.len());
        out[..n].copy_from_slice(&rest[..n]);
        self.pos += n;
        n
    }

    fn reset(&mut self) {
        self.pos = 0;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::mem::Pc;

    fn ramp(n: u64) -> Recorded {
        Recorded::new((0..n).map(|i| MemRef::load(Pc(0), i * 64)).collect())
    }

    #[test]
    fn recorded_replays_and_resets() {
        let mut r = ramp(3);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        let a: Vec<_> = r.collect_refs(10);
        assert_eq!(a.len(), 3);
        assert_eq!(r.next_ref(), None);
        r.reset();
        let b: Vec<_> = r.collect_refs(10);
        assert_eq!(a, b);
    }

    #[test]
    fn take_refs_truncates_and_resets() {
        let mut t = ramp(10).take_refs(4);
        assert_eq!(t.collect_refs(100).len(), 4);
        assert_eq!(t.next_ref(), None);
        t.reset();
        assert_eq!(t.collect_refs(100).len(), 4);
    }

    #[test]
    fn take_refs_short_stream() {
        let mut t = ramp(2).take_refs(10);
        assert_eq!(t.collect_refs(100).len(), 2);
    }

    #[test]
    fn cycle_is_infinite_and_periodic() {
        let mut c = ramp(3).cycle();
        let refs = c.collect_refs(9);
        assert_eq!(refs.len(), 9);
        assert_eq!(refs[0], refs[3]);
        assert_eq!(refs[1], refs[7]);
    }

    #[test]
    fn chain_runs_phases_in_order_and_resets() {
        let mut c = ramp(2).chain(Recorded::new(vec![MemRef::load(Pc(9), 1 << 20)]));
        let refs = c.collect_refs(100);
        assert_eq!(refs.len(), 3);
        assert_eq!(refs[0].pc, Pc(0));
        assert_eq!(refs[2].pc, Pc(9));
        assert_eq!(c.next_ref(), None);
        c.reset();
        assert_eq!(c.collect_refs(100), refs);
    }

    /// Draw up to `n` references from `src` in blocks of `block`,
    /// stopping at the first short block.
    pub(crate) fn by_blocks(src: &mut impl TraceSource, block: usize, n: usize) -> Vec<MemRef> {
        let mut out = Vec::new();
        let mut buf = vec![MemRef::load(Pc(0), 0); block];
        while out.len() < n {
            let got = src.fill(&mut buf);
            out.extend_from_slice(&buf[..got]);
            if got < block {
                break;
            }
        }
        out.truncate(n);
        out
    }

    /// `make()`'s source filled in blocks of several sizes gives what
    /// `next_ref` gives, up to `n` references, before and after a reset.
    pub(crate) fn assert_fills_match<S: TraceSource>(make: impl Fn() -> S, n: usize) {
        let want = make().collect_refs(n as u64);
        for block in [1, 2, 3, 7, 64, 1_000] {
            let mut s = make();
            assert_eq!(by_blocks(&mut s, block, n), want, "blocks of {block}");
            s.reset();
            assert_eq!(
                by_blocks(&mut s, block, n),
                want,
                "blocks of {block}, reset"
            );
        }
    }

    #[test]
    fn fills_match_single_draws() {
        for len in [0, 1, 5, 100] {
            assert_fills_match(|| ramp(len), 500);
            assert_fills_match(|| Box::new(ramp(len)) as Box<dyn TraceSource>, 500);
            // Shorter and longer than the source.
            assert_fills_match(|| ramp(len).take_refs(7), 500);
            assert_fills_match(|| ramp(len).take_refs(len + 30), 500);
            assert_fills_match(|| ramp(len).chain(ramp(3)), 500);
            assert_fills_match(|| ramp(3).chain(ramp(len)), 500);
            assert_fills_match(|| ramp(len).take_refs(4).cycle(), 500);
            assert_fills_match(|| ramp(len).cycle(), 500);
            assert_fills_match(|| ramp(len).chain(ramp(2)).take_refs(6).cycle(), 500);
        }
    }

    #[test]
    fn a_take_that_outlasts_its_source_ends_with_it() {
        let mut t = ramp(5).take_refs(100);
        assert_eq!(t.fill(&mut [MemRef::load(Pc(0), 0); 64]), 5);
        assert_eq!(t.remaining, 0);
        assert_eq!(t.next_ref(), None);
        t.reset();
        assert_eq!(t.remaining, 100);
        assert_eq!(t.collect_refs(10).len(), 5);
    }

    #[test]
    fn a_cycle_of_an_empty_source_stops() {
        let mut c = ramp(0).cycle();
        assert_eq!(c.fill(&mut [MemRef::load(Pc(0), 0); 8]), 0);
        assert_eq!(c.next_ref(), None);
    }

    #[test]
    fn boxed_source_dispatches() {
        let mut b: Box<dyn TraceSource> = Box::new(ramp(2));
        assert!(b.next_ref().is_some());
        b.reset();
        assert_eq!(b.collect_refs(10).len(), 2);
    }
}
