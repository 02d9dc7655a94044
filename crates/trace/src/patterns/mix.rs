//! Deterministic weighted interleaving of sub-patterns, used to compose
//! whole-program workload analogs out of the primitive patterns.

use crate::mem::{MemRef, Pc};
use crate::source::{fill_by_ref, fill_cycling, TraceSource};

/// What [`Mix`] does when one of its components runs out of references.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixEnd {
    /// Reset the finished component and keep interleaving (models a
    /// program's outer loop; the workload's overall length is imposed with
    /// [`take_refs`](crate::source::TraceSourceExt::take_refs)).
    CycleComponents,
    /// End the mix as soon as any component ends.
    FinishWithFirst,
}

/// A weighted, deterministic interleaving of trace sources.
///
/// The schedule is a smooth Bresenham-style interleave: with weights
/// `[3, 1]` the emitted pattern of component indices is `0 0 0 1` repeated
/// (in a maximally spread order), so component reference rates match the
/// weights exactly over every schedule period.
///
/// With [`MixEnd::CycleComponents`], [`fill`](TraceSource::fill) counts
/// each component's slots in the block, draws each component's share
/// with one `fill` of its own (resetting and topping up a component that
/// ends, as `next_ref` would), then interleaves the shares by the
/// schedule. [`MixEnd::FinishWithFirst`] draws one reference at a time.
pub struct Mix {
    components: Vec<Box<dyn TraceSource>>,
    schedule: Vec<u16>,
    cursor: usize,
    end: MixEnd,
    finished: bool,
    /// Per component, during a block fill: its slots in the block, then
    /// the next and the end of its share in `drawn`.
    spans: Vec<(usize, usize)>,
    /// The block's references, grouped by component.
    drawn: Vec<MemRef>,
}

impl Mix {
    /// Build a mix from `(source, weight)` pairs. Panics on empty input or
    /// zero weights.
    pub fn new(parts: Vec<(Box<dyn TraceSource>, u32)>, end: MixEnd) -> Self {
        assert!(!parts.is_empty(), "mix needs at least one component");
        assert!(
            parts.iter().all(|(_, w)| *w > 0),
            "weights must be positive"
        );
        assert!(parts.len() <= u16::MAX as usize, "too many components");
        let weights: Vec<u32> = parts.iter().map(|(_, w)| *w).collect();
        let schedule = build_schedule(&weights);
        Mix {
            spans: vec![(0, 0); parts.len()],
            components: parts.into_iter().map(|(s, _)| s).collect(),
            schedule,
            cursor: 0,
            end,
            finished: false,
            drawn: Vec::new(),
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` when the mix has no components (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

/// Smooth weighted round-robin: repeatedly pick the component with the
/// highest accumulated credit. Period = sum of weights.
fn build_schedule(weights: &[u32]) -> Vec<u16> {
    let total: u64 = weights.iter().map(|&w| w as u64).sum();
    let mut credit = vec![0i64; weights.len()];
    let mut schedule = Vec::with_capacity(total as usize);
    for _ in 0..total {
        for (c, &w) in credit.iter_mut().zip(weights) {
            *c += w as i64;
        }
        let (best, _) = credit
            .iter()
            .enumerate()
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
            .unwrap();
        credit[best] -= total as i64;
        schedule.push(best as u16);
    }
    schedule
}

impl TraceSource for Mix {
    #[inline]
    fn next_ref(&mut self) -> Option<MemRef> {
        if self.finished {
            return None;
        }
        let ix = self.schedule[self.cursor] as usize;
        self.cursor += 1;
        if self.cursor == self.schedule.len() {
            self.cursor = 0;
        }
        if let Some(r) = self.components[ix].next_ref() {
            return Some(r);
        }
        match self.end {
            MixEnd::FinishWithFirst => {
                self.finished = true;
                None
            }
            MixEnd::CycleComponents => {
                self.components[ix].reset();
                self.components[ix].next_ref()
            }
        }
    }

    fn fill(&mut self, out: &mut [MemRef]) -> usize {
        if self.end == MixEnd::FinishWithFirst {
            return fill_by_ref(self, out);
        }
        let period = self.schedule.len();
        // Each component's slots in the block.
        for span in &mut self.spans {
            span.0 = 0;
        }
        let mut c = self.cursor;
        for _ in 0..out.len() {
            self.spans[self.schedule[c] as usize].0 += 1;
            c += 1;
            if c == period {
                c = 0;
            }
        }
        // Each component's share, drawn in one fill.
        self.drawn.resize(out.len(), MemRef::load(Pc(0), 0));
        let mut at = 0;
        for (span, src) in self.spans.iter_mut().zip(&mut self.components) {
            let slots = span.0;
            let got = if slots == 0 {
                0
            } else {
                fill_cycling(src, &mut self.drawn[at..at + slots])
            };
            *span = (at, at + got);
            at += slots;
        }
        // Interleave the shares by the schedule. A component that yields
        // nothing even after a reset ends the block at its slot, where
        // `next_ref` would have returned `None`.
        for (i, slot) in out.iter_mut().enumerate() {
            let span = &mut self.spans[self.schedule[self.cursor] as usize];
            self.cursor += 1;
            if self.cursor == period {
                self.cursor = 0;
            }
            if span.0 == span.1 {
                return i;
            }
            *slot = self.drawn[span.0];
            span.0 += 1;
        }
        out.len()
    }

    fn reset(&mut self) {
        for c in &mut self.components {
            c.reset();
        }
        self.cursor = 0;
        self.finished = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Pc;
    use crate::patterns::{StridedStream, StridedStreamCfg};
    use crate::source::TraceSourceExt;

    fn stream(pc: u32, passes: u32) -> Box<dyn TraceSource> {
        Box::new(StridedStream::new(StridedStreamCfg::loads(
            Pc(pc),
            (pc as u64) << 30,
            1024,
            64,
            passes,
        )))
    }

    #[test]
    fn schedule_respects_weights() {
        let s = build_schedule(&[3, 1]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().filter(|&&i| i == 0).count(), 3);
        assert_eq!(s.iter().filter(|&&i| i == 1).count(), 1);
    }

    #[test]
    fn schedule_is_smooth() {
        // With equal weights the schedule must alternate.
        let s = build_schedule(&[1, 1]);
        assert_eq!(s, vec![0, 1]);
        // 2:1:1 spreads the heavy component out.
        let s = build_schedule(&[2, 1, 1]);
        assert_eq!(s.iter().filter(|&&i| i == 0).count(), 2);
        assert_ne!((s[0], s[1]), (0, 0), "heavy component must not clump");
    }

    #[test]
    fn mix_interleaves_by_weight() {
        let mut m = Mix::new(
            vec![(stream(1, 100), 3), (stream(2, 100), 1)],
            MixEnd::CycleComponents,
        );
        let refs = m.collect_refs(4000);
        let c1 = refs.iter().filter(|r| r.pc == Pc(1)).count();
        let c2 = refs.iter().filter(|r| r.pc == Pc(2)).count();
        assert_eq!(c1, 3000);
        assert_eq!(c2, 1000);
    }

    #[test]
    fn finish_with_first_ends_mix() {
        // Component 2 has a single pass of 16 refs; the mix must end when
        // it is exhausted.
        let mut m = Mix::new(
            vec![(stream(1, 1000), 1), (stream(2, 1), 1)],
            MixEnd::FinishWithFirst,
        );
        let refs = m.collect_refs(u64::MAX);
        assert!(refs.len() < 40, "ended after ~32 refs, got {}", refs.len());
        assert_eq!(m.next_ref(), None);
    }

    #[test]
    fn cycle_components_is_endless() {
        let mut m = Mix::new(
            vec![(stream(1, 1), 1), (stream(2, 1), 1)],
            MixEnd::CycleComponents,
        );
        let refs = m.collect_refs(10_000);
        assert_eq!(refs.len(), 10_000);
    }

    fn ramp(pc: u32, len: u64) -> Box<dyn TraceSource> {
        Box::new(crate::source::Recorded::new(
            (0..len).map(|i| MemRef::load(Pc(pc), i * 64)).collect(),
        ))
    }

    #[test]
    fn fills_match_single_draws() {
        use crate::source::tests::assert_fills_match;
        for end in [MixEnd::CycleComponents, MixEnd::FinishWithFirst] {
            // Components shorter and longer than a block, weights whose
            // schedule wraps inside a block, and many components.
            assert_fills_match(
                || Mix::new(vec![(stream(1, 2), 3), (stream(2, 1), 1)], end),
                5_000,
            );
            assert_fills_match(
                || {
                    Mix::new(
                        vec![(ramp(1, 1), 2), (ramp(2, 5), 3), (ramp(3, 70), 1)],
                        end,
                    )
                },
                5_000,
            );
            assert_fills_match(
                || {
                    Mix::new(
                        (0..40)
                            .map(|i| (ramp(i, u64::from(i) + 1), i % 7 + 1))
                            .collect(),
                        end,
                    )
                },
                5_000,
            );
            assert_fills_match(
                || Mix::new(vec![(ramp(1, 3), 1)], end).take_refs(1_000),
                5_000,
            );
            // A component that yields nothing, even after a reset.
            assert_fills_match(
                || Mix::new(vec![(ramp(1, 4), 5), (ramp(2, 0), 1)], end),
                5_000,
            );
        }
    }

    #[test]
    fn reset_replays() {
        let mut m = Mix::new(
            vec![(stream(1, 2), 2), (stream(2, 3), 1)],
            MixEnd::CycleComponents,
        );
        let a = m.collect_refs(5000);
        m.reset();
        assert_eq!(a, m.collect_refs(5000));
    }
}
