//! Incremental StatStack fitting: fold newly submitted samples into a
//! fitted model at a cost that follows the new samples, not the whole
//! history.
//!
//! A [`StatStackBuilder`] holds the samples submitted since the last
//! fit, unsorted. [`StatStackModel::extend`] sorts them once and merges
//! them into the previous model's small *delta* level; the large *base*
//! level is shared through its `Arc`, not copied. When the merged delta
//! outgrows the fold rule, `delta² > 16·base` counted in samples (so
//! the delta stays near `4√n` of an `n`-sample history), the refit
//! folds it into a fresh base instead. A refit of `b` samples therefore
//! sorts `b`, rebuilds an `O(√n)` delta, and pays an amortized share of
//! the `O(n)` fold, which recurs only every `≈4√n / b` refits:
//! `O(b·√n)` in all, against the `O(n)` copy of a whole-history refit.
//!
//! The result is **bit-identical** to a from-scratch
//! [`StatStackModel::from_profile`] fit of the concatenated profile:
//! merging sorted `u64` runs yields exactly the sequence `sort_unstable`
//! would, the counts and prefix sums a query reads from both levels add
//! up to those of the merged sequence, and dangling counts are plain
//! sums.

use crate::model::{Level, StatStackModel};
use repf_sampling::{DanglingSample, Profile, ReuseSample};
use repf_trace::Pc;
use std::sync::Arc;

/// A refit folds the delta into a fresh base once
/// `delta² > FOLD_RATIO · base`, both counted in samples.
const FOLD_RATIO: u128 = 16;

/// Samples submitted since the last fit, in arrival order. Feed it with
/// [`push_batch`], then produce a model with [`fit`] or
/// [`StatStackModel::extend`].
///
/// [`push_batch`]: StatStackBuilder::push_batch
/// [`fit`]: StatStackBuilder::fit
#[derive(Clone, Debug)]
pub struct StatStackBuilder {
    line_bytes: u64,
    /// Completed samples as `(end_pc, distance)`.
    reuse: Vec<(Pc, u64)>,
    /// Dangling samples as `(pc, count)`; a PC may repeat.
    dangling: Vec<(Pc, u64)>,
}

impl StatStackBuilder {
    /// An empty builder for profiles sampled at `line_bytes` granularity.
    pub fn new(line_bytes: u64) -> Self {
        StatStackBuilder {
            line_bytes,
            reuse: Vec::new(),
            dangling: Vec::new(),
        }
    }

    /// Append one batch of samples (`O(b)`; sorting waits for the fit).
    pub fn push_batch(&mut self, reuse: &[ReuseSample], dangling: &[DanglingSample]) {
        self.push_samples(
            reuse.iter().map(|r| (r.end_pc, r.distance)),
            dangling.iter().map(|d| (d.pc, 1)),
        );
    }

    /// Append samples given in a model's own terms: completed samples as
    /// `(end_pc, distance)` and dangling ones as `(pc, count)`, a PC
    /// possibly more than once. A tail of a profile shipped between
    /// nodes takes this form, one count per PC rather than one entry
    /// per dangling sample.
    pub fn push_samples(
        &mut self,
        reuse: impl IntoIterator<Item = (Pc, u64)>,
        dangling: impl IntoIterator<Item = (Pc, u64)>,
    ) {
        self.reuse.extend(reuse);
        self.dangling.extend(dangling);
    }

    /// Append a whole profile as one batch.
    pub fn push_profile(&mut self, p: &Profile) {
        self.push_batch(&p.reuse, &p.dangling);
    }

    /// `true` when nothing has been pushed since construction/[`clear`].
    ///
    /// [`clear`]: StatStackBuilder::clear
    pub fn is_empty(&self) -> bool {
        self.reuse.is_empty() && self.dangling.is_empty()
    }

    /// Drop all pending samples (after they have been folded into a fit)
    /// and release their memory.
    pub fn clear(&mut self) {
        *self = StatStackBuilder::new(self.line_bytes);
    }

    /// Approximate heap bytes held by the pending samples.
    pub fn approx_heap_bytes(&self) -> usize {
        (self.reuse.len() + self.dangling.len()) * std::mem::size_of::<(Pc, u64)>()
    }

    /// The pending samples as one sorted level.
    fn level(&self) -> Level {
        Level::from_counted(self.reuse.iter().copied(), self.dangling.iter().copied())
    }

    /// Fit a model from the pending samples alone (no base model):
    /// bit-identical to [`StatStackModel::from_profile`] on the
    /// concatenation of every pushed batch.
    pub fn fit(&self) -> StatStackModel {
        StatStackModel::from_level(self.line_bytes, self.level())
    }
}

impl StatStackModel {
    /// An empty builder collecting batches to extend a model fitted at
    /// the same line size.
    pub fn builder(line_bytes: u64) -> StatStackBuilder {
        StatStackBuilder::new(line_bytes)
    }

    /// Fold `pending` samples into this (immutable) model, producing a
    /// new model bit-identical to a from-scratch
    /// [`from_profile`](Self::from_profile) fit of the concatenated
    /// sample history. The new model shares this one's base level and
    /// carries a rebuilt delta, or, once the delta outgrows the fold
    /// rule, a fresh base holding everything.
    pub fn extend(&self, pending: &StatStackBuilder) -> StatStackModel {
        debug_assert_eq!(
            self.line_bytes, pending.line_bytes,
            "base model and pending batches must share a line size"
        );
        let delta = self.delta.merged(&pending.level());
        let (d, b) = (
            delta.sample_count() as u128,
            self.base.sample_count() as u128,
        );
        if d * d > FOLD_RATIO * b {
            StatStackModel::from_level(self.line_bytes, self.base.merged(&delta))
        } else {
            StatStackModel {
                line_bytes: self.line_bytes,
                base: Arc::clone(&self.base),
                delta,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corun::CoRunModel;
    use repf_trace::rng::XorShift64Star;
    use repf_trace::AccessKind;

    /// A heavy-tailed reuse distance: short, mid, far and uniform.
    fn random_distance(rng: &mut XorShift64Star) -> u64 {
        match rng.below(4) {
            0 => rng.below(32),
            1 => 100 + rng.below(4000),
            2 => 50_000 + rng.below(500_000),
            _ => rng.below(1 << 24),
        }
    }

    /// A deterministic pseudo-random profile: `n` reuse samples over a
    /// handful of PCs with a heavy-tailed distance mix, plus dangling
    /// samples on some of the same PCs and one exclusive PC.
    fn random_profile(seed: u64, n: usize) -> Profile {
        let mut rng = XorShift64Star::new(seed);
        let mut p = Profile {
            total_refs: (n as u64) * 1000,
            sample_period: 997,
            line_bytes: 64,
            ..Profile::default()
        };
        for i in 0..n as u64 {
            let pc = Pc(10 + (rng.below(5)) as u32);
            let distance = random_distance(&mut rng);
            p.reuse.push(ReuseSample {
                start_pc: pc,
                start_kind: AccessKind::Load,
                end_pc: Pc(10 + (rng.below(5)) as u32),
                end_kind: AccessKind::Load,
                distance,
                start_index: i * 1000,
            });
            if rng.below(7) == 0 {
                p.dangling.push(DanglingSample {
                    pc: Pc(10 + (rng.below(6)) as u32), // Pc(15) dangles only
                    kind: AccessKind::Load,
                    start_index: i * 1000 + 500,
                });
            }
        }
        p
    }

    fn assert_models_bit_identical(a: &StatStackModel, b: &StatStackModel, what: &str) {
        assert_eq!(a.sample_count(), b.sample_count(), "{what}: sample count");
        assert_eq!(a.line_bytes(), b.line_bytes(), "{what}: line bytes");
        // The accessors CoRunModel reads for its plateau cap.
        assert_eq!(
            a.max_distance(),
            b.max_distance(),
            "{what}: largest distance"
        );
        assert_eq!(a.dangling(), b.dangling(), "{what}: dangling");
        for d in [0u64, 1, 7, 100, 5000, 1 << 16, 1 << 22, 1 << 30] {
            assert_eq!(
                a.stack_distance(d).to_bits(),
                b.stack_distance(d).to_bits(),
                "{what}: S({d})"
            );
        }
        for lines in [0u64, 1, 16, 512, 1 << 14, 1 << 20] {
            assert_eq!(
                a.distance_threshold(lines),
                b.distance_threshold(lines),
                "{what}: threshold({lines})"
            );
            assert_eq!(
                a.miss_ratio(lines).to_bits(),
                b.miss_ratio(lines).to_bits(),
                "{what}: MR({lines})"
            );
        }
        assert_eq!(a.sampled_pcs(), b.sampled_pcs(), "{what}: PC set");
        for pc in a.sampled_pcs() {
            assert_eq!(
                a.pc_sample_count(pc),
                b.pc_sample_count(pc),
                "{what}: n({pc})"
            );
            for lines in [1u64, 64, 4096, 1 << 18] {
                let (x, y) = (a.pc_miss_ratio(pc, lines), b.pc_miss_ratio(pc, lines));
                assert_eq!(
                    x.map(f64::to_bits),
                    y.map(f64::to_bits),
                    "{what}: MR_{pc}({lines})"
                );
            }
        }
        assert_eq!(a.to_parts(), b.to_parts(), "{what}: parts");
    }

    /// Split `p`'s samples into `cuts+1` contiguous batches at
    /// rng-chosen boundaries (reuse and dangling split independently).
    fn random_batches(p: &Profile, rng: &mut XorShift64Star, cuts: usize) -> Vec<Profile> {
        let mut reuse_cuts: Vec<usize> = (0..cuts)
            .map(|_| rng.below(p.reuse.len() as u64 + 1) as usize)
            .collect();
        let mut dangling_cuts: Vec<usize> = (0..cuts)
            .map(|_| rng.below(p.dangling.len() as u64 + 1) as usize)
            .collect();
        reuse_cuts.sort_unstable();
        dangling_cuts.sort_unstable();
        let mut out = Vec::with_capacity(cuts + 1);
        let (mut r0, mut d0) = (0usize, 0usize);
        for i in 0..=cuts {
            let r1 = if i == cuts {
                p.reuse.len()
            } else {
                reuse_cuts[i]
            };
            let d1 = if i == cuts {
                p.dangling.len()
            } else {
                dangling_cuts[i]
            };
            out.push(Profile {
                total_refs: 0,
                sample_period: p.sample_period,
                line_bytes: p.line_bytes,
                reuse: p.reuse[r0..r1].to_vec(),
                dangling: p.dangling[d0..d1].to_vec(),
                ..Profile::default()
            });
            r0 = r1;
            d0 = d1;
        }
        out
    }

    #[test]
    fn single_batch_fit_matches_from_profile() {
        let p = random_profile(11, 4000);
        let direct = StatStackModel::from_profile(&p);
        let mut b = StatStackModel::builder(64);
        b.push_profile(&p);
        assert_models_bit_identical(&b.fit(), &direct, "one batch");
    }

    #[test]
    fn property_incremental_extend_is_bit_identical_on_random_splits() {
        // Seeded property test: for many (profile, split) draws, a chain
        // of extend() fits over random batch boundaries must be
        // bit-identical to one from-scratch fit of the whole history —
        // including refits at every intermediate prefix.
        for trial in 0..12u64 {
            let p = random_profile(1000 + trial, 1500 + (trial as usize) * 371);
            let mut rng = XorShift64Star::new(7000 + trial);
            let batches = random_batches(&p, &mut rng, 1 + (trial as usize % 6));

            let mut concat = Profile {
                sample_period: p.sample_period,
                line_bytes: p.line_bytes,
                ..Profile::default()
            };
            let mut model: Option<StatStackModel> = None;
            let mut pending = StatStackModel::builder(p.line_bytes);
            for (i, batch) in batches.iter().enumerate() {
                concat.reuse.extend_from_slice(&batch.reuse);
                concat.dangling.extend_from_slice(&batch.dangling);
                pending.push_batch(&batch.reuse, &batch.dangling);
                // Refit on a random subset of prefixes (and always at the
                // end), so some fits fold several pending batches at once.
                if i + 1 == batches.len() || rng.below(2) == 0 {
                    let next = match &model {
                        None => pending.fit(),
                        Some(m) => m.extend(&pending),
                    };
                    pending.clear();
                    let direct = StatStackModel::from_profile(&concat);
                    assert_models_bit_identical(
                        &next,
                        &direct,
                        &format!("trial {trial}, prefix {}", i + 1),
                    );
                    model = Some(next);
                }
            }
        }
    }

    #[test]
    fn counted_samples_extend_like_the_samples_they_count() {
        // The second half of a profile pushed as (pc, distance) pairs
        // plus one dangling count per PC extends a fit of the first half
        // exactly as the raw samples do.
        let p = random_profile(17, 3000);
        let half = p.reuse.len() / 2;
        let mut first = StatStackModel::builder(64);
        first.push_batch(&p.reuse[..half], &[]);
        let first = first.fit();
        assert_eq!(first.sample_split(), (half as u64, 0));
        let mut counts: Vec<(Pc, u64)> = Vec::new();
        for d in &p.dangling {
            match counts.iter_mut().find(|(pc, _)| *pc == d.pc) {
                Some((_, n)) => *n += 1,
                None => counts.push((d.pc, 1)),
            }
        }
        assert!(counts.len() < p.dangling.len(), "PCs repeat");
        let mut rest = StatStackModel::builder(64);
        rest.push_samples(
            p.reuse[half..].iter().map(|r| (r.end_pc, r.distance)),
            counts,
        );
        let direct = StatStackModel::from_profile(&p);
        assert_models_bit_identical(&first.extend(&rest), &direct, "counted tail");
        assert_eq!(
            direct.sample_split(),
            (p.reuse.len() as u64, p.dangling.len() as u64)
        );
    }

    #[test]
    fn empty_builder_fits_empty_model_and_extend_is_identity() {
        let b = StatStackModel::builder(64);
        assert!(b.is_empty());
        let empty = b.fit();
        assert_eq!(empty.sample_count(), 0);
        assert_eq!(empty.miss_ratio(100), 0.0);

        let p = random_profile(3, 500);
        let m = StatStackModel::from_profile(&p);
        let extended = m.extend(&StatStackModel::builder(64));
        assert_models_bit_identical(&extended, &m, "identity extend");
    }

    #[test]
    fn clear_resets_pending_and_bytes() {
        let mut b = StatStackModel::builder(64);
        b.push_profile(&random_profile(5, 300));
        assert!(!b.is_empty());
        assert!(b.approx_heap_bytes() > 0);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.approx_heap_bytes(), 0);
    }

    /// One batch for the fold test: 0–64 samples, one in five batches
    /// drawing half its PCs from `fresh`, a PC no earlier batch used.
    /// With `dangles`, a quarter of the batches are dangling-only and an
    /// eighth of the other samples dangle; without, none do.
    fn fold_batch(rng: &mut XorShift64Star, fresh: Pc, dangles: bool) -> Profile {
        let n = rng.below(65);
        let dangling_only = dangles && rng.below(4) == 0;
        let adds_pc = rng.below(5) == 0;
        let mut p = Profile {
            sample_period: 997,
            line_bytes: 64,
            ..Profile::default()
        };
        for i in 0..n {
            let pc = if adds_pc && rng.below(2) == 0 {
                fresh
            } else {
                Pc(10 + rng.below(5) as u32)
            };
            if dangling_only || (dangles && rng.below(8) == 0) {
                p.dangling.push(DanglingSample {
                    pc,
                    kind: AccessKind::Load,
                    start_index: i,
                });
            } else {
                p.reuse.push(ReuseSample {
                    start_pc: pc,
                    start_kind: AccessKind::Load,
                    end_pc: pc,
                    end_kind: AccessKind::Load,
                    distance: random_distance(rng),
                    start_index: i,
                });
            }
        }
        p
    }

    #[test]
    fn property_extend_across_many_folds_is_bit_identical() {
        // Two sessions, each extended 320 times by one small batch: the
        // delta folds into a fresh base many times. After every fit the
        // model must equal a from-scratch fit of its whole history, share
        // its predecessor's base unless the fold rule fired, and compose
        // in a co-run exactly like its own round-tripped parts. Session 1
        // never dangles, so its curve plateaus past its largest distance
        // and the threshold search must see that distance in either level.
        let mut rng = XorShift64Star::new(0xF01D);
        let sizes = [64u64 << 10, 1 << 20, 8 << 20];
        let mut histories: Vec<Profile> = (0..2)
            .map(|_| Profile {
                sample_period: 997,
                line_bytes: 64,
                ..Profile::default()
            })
            .collect();
        let mut models: Vec<StatStackModel> =
            (0..2).map(|_| StatStackModel::builder(64).fit()).collect();
        let mut folds = 0;
        for step in 0..320u32 {
            for (s, (history, model)) in histories.iter_mut().zip(&mut models).enumerate() {
                let batch = fold_batch(&mut rng, Pc(1000 + step), s == 0);
                history.reuse.extend_from_slice(&batch.reuse);
                history.dangling.extend_from_slice(&batch.dangling);
                let mut pending = StatStackModel::builder(64);
                pending.push_profile(&batch);
                let next = model.extend(&pending);

                let grown =
                    model.delta.sample_count() + (batch.reuse.len() + batch.dangling.len()) as u64;
                let what = format!("session {s}, step {step}");
                if (grown as u128).pow(2) > FOLD_RATIO * model.base.sample_count() as u128 {
                    assert!(
                        !Arc::ptr_eq(&next.base, &model.base),
                        "{what}: fold kept the base"
                    );
                    assert_eq!(next.delta.sample_count(), 0, "{what}: fold left a delta");
                    folds += 1;
                } else {
                    assert!(
                        Arc::ptr_eq(&next.base, &model.base),
                        "{what}: refit copied the base without a fold"
                    );
                    assert_eq!(next.delta.sample_count(), grown, "{what}: delta size");
                }
                assert_models_bit_identical(&next, &StatStackModel::from_profile(history), &what);
                *model = next;
            }

            let copies: Vec<StatStackModel> = models
                .iter()
                .map(|m| StatStackModel::from_parts(m.to_parts()))
                .collect();
            let answer = |ms: &[StatStackModel]| {
                let mut co = CoRunModel::new();
                for m in ms {
                    co.push(m);
                }
                let a = co.answer_bytes(&sizes);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let per_member: Vec<Vec<u64>> = a.per_member.iter().map(|c| bits(c)).collect();
                (per_member, bits(&a.throughput))
            };
            assert_eq!(
                answer(&models),
                answer(&copies),
                "step {step}: co-run answer"
            );
        }
        assert!(folds >= 40, "only {folds} folds in 640 refits");
    }
}
