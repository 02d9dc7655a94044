//! The StatStack model proper. See the crate documentation for the math.
//!
//! A model keeps its samples in two levels. The *base* holds the bulk
//! of the history behind an `Arc`, so successive incremental fits
//! share it instead of copying it; the *delta* holds the samples added
//! since the base was built and is rebuilt by every
//! [`extend`](StatStackModel::extend). Each level keeps its completed
//! distances sorted with prefix sums, plus per-PC sorted distances,
//! which are only ever counted and so carry no sums. Every query adds
//! up exact integer counts and sums from both levels, which makes a
//! two-level model answer bit-identically to a one-level fit of the
//! same samples.

use crate::curve::MissRatioCurve;
use repf_sampling::Profile;
use repf_trace::hash::FxHashMap;
use repf_trace::Pc;
use std::sync::Arc;

/// Per-PC sample data: sorted completed distances plus dangling count.
#[derive(Clone, Debug, Default)]
struct PcSamples {
    /// Sorted reuse distances of completed samples started at this PC.
    distances: Vec<u64>,
    dangling: u64,
}

impl PcSamples {
    fn total(&self) -> u64 {
        self.distances.len() as u64 + self.dangling
    }

    /// Samples with distance ≥ `threshold` plus dangling ones.
    fn at_or_beyond(&self, threshold: u64) -> u64 {
        count_at_or_beyond(&self.distances, threshold) + self.dangling
    }

    /// One PC's samples from two levels, merged.
    fn merged(a: Option<&PcSamples>, b: Option<&PcSamples>) -> PcSamples {
        match (a, b) {
            (Some(a), Some(b)) => PcSamples {
                distances: merge_two(&a.distances, &b.distances),
                dangling: a.dangling + b.dangling,
            },
            (Some(s), None) | (None, Some(s)) => s.clone(),
            (None, None) => PcSamples::default(),
        }
    }
}

/// Completed distances in sorted `distances` that are ≥ `threshold`.
fn count_at_or_beyond(distances: &[u64], threshold: u64) -> u64 {
    (distances.len() - distances.partition_point(|&d| d < threshold)) as u64
}

/// One level of a model's samples.
#[derive(Clone, Debug)]
pub(crate) struct Level {
    /// Completed distances, sorted ascending.
    sorted: Vec<u64>,
    /// Prefix sums of `sorted` (`prefix[i]` = sum of the first `i`
    /// distances).
    prefix: Vec<u64>,
    dangling: u64,
    per_pc: FxHashMap<Pc, PcSamples>,
}

impl Default for Level {
    fn default() -> Self {
        Level::new(Vec::new(), 0, FxHashMap::default())
    }
}

impl Level {
    fn new(sorted: Vec<u64>, dangling: u64, per_pc: FxHashMap<Pc, PcSamples>) -> Level {
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        prefix.push(0u64);
        let mut acc = 0u64;
        for &d in &sorted {
            acc += d;
            prefix.push(acc);
        }
        Level {
            sorted,
            prefix,
            dangling,
            per_pc,
        }
    }

    /// Fit a level to raw samples: completed `(end_pc, distance)` pairs
    /// and the PCs of dangling ones.
    ///
    /// A completed sample's distance is the *backward* reuse distance
    /// of the re-accessing instruction: it decides whether `end_pc`
    /// hit. Dangling samples stand in for the cold/far misses of the
    /// instruction whose lines are never re-touched in the window.
    pub(crate) fn from_samples(
        reuse: impl ExactSizeIterator<Item = (Pc, u64)>,
        dangling: impl Iterator<Item = Pc>,
    ) -> Level {
        let mut sorted = Vec::with_capacity(reuse.len());
        let mut per_pc: FxHashMap<Pc, PcSamples> = FxHashMap::default();
        for (pc, d) in reuse {
            sorted.push(d);
            per_pc.entry(pc).or_default().distances.push(d);
        }
        let mut n_dangling = 0u64;
        for pc in dangling {
            per_pc.entry(pc).or_default().dangling += 1;
            n_dangling += 1;
        }
        sorted.sort_unstable();
        for s in per_pc.values_mut() {
            s.distances.sort_unstable();
        }
        Level::new(sorted, n_dangling, per_pc)
    }

    /// Completed plus dangling samples.
    pub(crate) fn sample_count(&self) -> u64 {
        self.sorted.len() as u64 + self.dangling
    }

    /// How many completed distances are `< d`, and their sum.
    fn below(&self, d: u64) -> (u64, u64) {
        let c = self.sorted.partition_point(|&x| x < d);
        (c as u64, self.prefix[c])
    }

    /// The level holding the samples of both `self` and `other`.
    pub(crate) fn merged(&self, other: &Level) -> Level {
        let mut per_pc: FxHashMap<Pc, PcSamples> = FxHashMap::default();
        per_pc.reserve(self.per_pc.len() + other.per_pc.len());
        for (pc, s) in &self.per_pc {
            per_pc.insert(*pc, PcSamples::merged(Some(s), other.per_pc.get(pc)));
        }
        for (pc, s) in &other.per_pc {
            per_pc.entry(*pc).or_insert_with(|| s.clone());
        }
        Level::new(
            merge_two(&self.sorted, &other.sorted),
            self.dangling + other.dangling,
            per_pc,
        )
    }
}

/// Merge two sorted slices into one sorted vector.
fn merge_two(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// A fitted StatStack model: query miss ratios for any cache size, for the
/// whole application or per instruction.
#[derive(Clone, Debug)]
pub struct StatStackModel {
    pub(crate) line_bytes: u64,
    /// The bulk of the samples, shared by the fits extended from it.
    pub(crate) base: Arc<Level>,
    /// Samples added since `base` was built (empty after a fold).
    pub(crate) delta: Level,
}

/// A fitted model disassembled into plain, canonically-ordered vectors —
/// the serialization surface for shipping a [`StatStackModel`] between
/// nodes without refitting it. `per_pc` is sorted by PC and the prefix
/// sums are *not* carried (they are recomputed on import), so the parts
/// of a model are a pure function of the model and reassembly is exact:
/// a round-tripped model answers every query bit-identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelParts {
    /// Line size the underlying profile used.
    pub line_bytes: u64,
    /// All completed distances, sorted ascending.
    pub sorted: Vec<u64>,
    /// Dangling (never-reused) sample count.
    pub dangling: u64,
    /// Per-PC `(pc, sorted distances, dangling)`, sorted by PC.
    pub per_pc: Vec<(Pc, Vec<u64>, u64)>,
}

impl StatStackModel {
    /// A model whose samples all sit in one base level.
    pub(crate) fn from_level(line_bytes: u64, level: Level) -> Self {
        StatStackModel {
            line_bytes,
            base: Arc::new(level),
            delta: Level::default(),
        }
    }

    /// Fit the model to a sampling profile.
    pub fn from_profile(p: &Profile) -> Self {
        let level = Level::from_samples(
            p.reuse.iter().map(|r| (r.end_pc, r.distance)),
            p.dangling.iter().map(|d| d.pc),
        );
        Self::from_level(p.line_bytes, level)
    }

    fn levels(&self) -> [&Level; 2] {
        [&self.base, &self.delta]
    }

    /// Line size the underlying profile used.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Total samples (completed + dangling).
    pub fn sample_count(&self) -> u64 {
        self.base.sample_count() + self.delta.sample_count()
    }

    /// Dangling (never-reused) samples.
    pub(crate) fn dangling(&self) -> u64 {
        self.base.dangling + self.delta.dangling
    }

    /// Each level's completed distances, sorted ascending.
    pub(crate) fn completed_levels(&self) -> [&[u64]; 2] {
        [&self.base.sorted, &self.delta.sorted]
    }

    /// The largest completed distance (0 when there is none).
    pub(crate) fn max_distance(&self) -> u64 {
        self.levels()
            .iter()
            .filter_map(|l| l.sorted.last().copied())
            .max()
            .unwrap_or(0)
    }

    /// Samples that miss when every completed distance `≥ threshold`
    /// misses: those plus the dangling ones (`None`: dangling only).
    pub(crate) fn misses_at(&self, threshold: Option<u64>) -> u64 {
        let completed = threshold.map_or(0, |t| {
            self.levels()
                .iter()
                .map(|l| count_at_or_beyond(&l.sorted, t))
                .sum::<u64>()
        });
        completed + self.dangling()
    }

    /// Expected stack distance for reuse distance `d`:
    /// `S(d) = Σ_{k=0}^{d-1} P(rd > k)`.
    ///
    /// With `n` total samples, `c(d)` completed samples of distance `< d`
    /// and `Σ_{<d}` their distance sum, the inner sum telescopes to
    /// `S(d) = (n·d − (c(d)·d − Σ_{<d})) / n`.
    pub fn stack_distance(&self, d: u64) -> f64 {
        let n = self.sample_count();
        if n == 0 {
            return d as f64; // no information: worst case, every line unique
        }
        let (cb, sb) = self.base.below(d);
        let (cd, sd) = self.delta.below(d);
        let (c, sum_below) = (cb + cd, sb + sd);
        let covered = c as u128 * d as u128 - sum_below as u128;
        let total = n as u128 * d as u128 - covered;
        total as f64 / n as f64
    }

    /// Smallest reuse distance whose expected stack distance reaches
    /// `lines`, or `None` if no finite distance does (then only dangling
    /// samples miss).
    pub fn distance_threshold(&self, lines: u64) -> Option<u64> {
        if lines == 0 {
            return Some(0);
        }
        let target = lines as f64;
        // S(d) ≤ d, so start the exponential search at `lines`.
        let mut hi = lines.max(1);
        let cap = self.max_distance().saturating_add(1);
        loop {
            if self.stack_distance(hi) >= target {
                break;
            }
            if hi > cap {
                // Beyond the largest observed distance the survival
                // function is dangling-only: S grows at slope
                // dangling/n. If dangling is zero, S has plateaued.
                if self.dangling() == 0 {
                    return None;
                }
            }
            hi = hi.saturating_mul(2);
            if hi == u64::MAX {
                return None;
            }
        }
        let mut lo = 0u64;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.stack_distance(mid) >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }

    /// Application miss ratio for a fully-associative LRU cache of
    /// `lines` cache lines.
    pub fn miss_ratio(&self, lines: u64) -> f64 {
        let n = self.sample_count();
        if n == 0 {
            return 0.0;
        }
        self.misses_at(self.distance_threshold(lines)) as f64 / n as f64
    }

    /// Application miss ratio for a cache of `bytes` capacity.
    pub fn miss_ratio_bytes(&self, bytes: u64) -> f64 {
        self.miss_ratio(bytes / self.line_bytes)
    }

    /// `pc`'s samples in each level that has any.
    fn pc_levels(&self, pc: Pc) -> impl Iterator<Item = &PcSamples> {
        self.levels()
            .into_iter()
            .filter_map(move |l| l.per_pc.get(&pc))
    }

    /// Per-instruction miss ratio at `lines` capacity. Returns `None` for
    /// PCs with no samples.
    pub fn pc_miss_ratio(&self, pc: Pc, lines: u64) -> Option<f64> {
        let n = self.pc_sample_count(pc);
        if n == 0 {
            return None;
        }
        let missing: u64 = match self.distance_threshold(lines) {
            None => self.pc_levels(pc).map(|s| s.dangling).sum(),
            Some(t) => self.pc_levels(pc).map(|s| s.at_or_beyond(t)).sum(),
        };
        Some(missing as f64 / n as f64)
    }

    /// Per-instruction miss ratio at `bytes` capacity.
    pub fn pc_miss_ratio_bytes(&self, pc: Pc, bytes: u64) -> Option<f64> {
        self.pc_miss_ratio(pc, bytes / self.line_bytes)
    }

    /// Application miss-ratio curve over `sizes_bytes`.
    pub fn mrc_bytes(&self, sizes_bytes: &[u64]) -> MissRatioCurve {
        MissRatioCurve::new(
            sizes_bytes.to_vec(),
            sizes_bytes
                .iter()
                .map(|&b| self.miss_ratio_bytes(b))
                .collect(),
        )
    }

    /// Per-instruction miss-ratio curve over `sizes_bytes`.
    pub fn pc_mrc_bytes(&self, pc: Pc, sizes_bytes: &[u64]) -> Option<MissRatioCurve> {
        self.pc_levels(pc).next()?;
        Some(MissRatioCurve::new(
            sizes_bytes.to_vec(),
            sizes_bytes
                .iter()
                .map(|&b| self.pc_miss_ratio_bytes(pc, b).unwrap())
                .collect(),
        ))
    }

    /// PCs with at least one sample, sorted.
    pub fn sampled_pcs(&self) -> Vec<Pc> {
        let mut v: Vec<Pc> = self
            .levels()
            .iter()
            .flat_map(|l| l.per_pc.keys().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of samples recorded for `pc`.
    pub fn pc_sample_count(&self, pc: Pc) -> u64 {
        self.pc_levels(pc).map(PcSamples::total).sum()
    }

    /// Disassemble the fit into [`ModelParts`] for shipping to another
    /// node. The two levels are merged and the per-PC entries sorted by
    /// PC, so the output is a pure function of the samples: it equals
    /// the parts of a from-scratch fit of the same history.
    pub fn to_parts(&self) -> ModelParts {
        let per_pc = self
            .sampled_pcs()
            .into_iter()
            .map(|pc| {
                let s = PcSamples::merged(self.base.per_pc.get(&pc), self.delta.per_pc.get(&pc));
                (pc, s.distances, s.dangling)
            })
            .collect();
        ModelParts {
            line_bytes: self.line_bytes,
            sorted: merge_two(&self.base.sorted, &self.delta.sorted),
            dangling: self.dangling(),
            per_pc,
        }
    }

    /// Reassemble a model from [`ModelParts`] without refitting. The
    /// prefix sums are recomputed from the sorted distances, so the
    /// result is bit-identical to the exported model for every query.
    /// Unsorted distance vectors (a hostile or corrupt peer) are
    /// re-sorted rather than trusted — sortedness is a query invariant.
    pub fn from_parts(parts: ModelParts) -> Self {
        let ModelParts {
            line_bytes,
            mut sorted,
            dangling,
            per_pc,
        } = parts;
        if !sorted.is_sorted() {
            sorted.sort_unstable();
        }
        let mut map: FxHashMap<Pc, PcSamples> = FxHashMap::default();
        for (pc, mut distances, pc_dangling) in per_pc {
            if !distances.is_sorted() {
                distances.sort_unstable();
            }
            let entry = map.entry(pc).or_default();
            entry.distances.extend(distances);
            if !entry.distances.is_sorted() {
                entry.distances.sort_unstable(); // duplicate-PC merge
            }
            entry.dangling += pc_dangling;
        }
        Self::from_level(line_bytes, Level::new(sorted, dangling, map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repf_sampling::{Sampler, SamplerConfig};
    use repf_trace::patterns::{PointerChase, PointerChaseCfg, StridedStream, StridedStreamCfg};
    use repf_trace::{MemRef, Pc, TraceSource, TraceSourceExt};

    fn dense(period: u64) -> Sampler {
        Sampler::new(SamplerConfig {
            sample_period: period,
            line_bytes: 64,
            seed: 42,
        })
    }

    fn model_of<S: TraceSource>(src: &mut S, period: u64) -> StatStackModel {
        StatStackModel::from_profile(&dense(period).profile(src))
    }

    #[test]
    fn stack_distance_is_monotone_and_bounded() {
        let mut src = StridedStream::new(StridedStreamCfg::loads(Pc(1), 0, 256 * 64, 64, 4));
        let m = model_of(&mut src, 3);
        let mut prev = 0.0;
        for d in [0u64, 1, 2, 5, 10, 100, 255, 256, 1000, 10_000] {
            let s = m.stack_distance(d);
            assert!(s >= prev - 1e-9, "monotone");
            assert!(s <= d as f64 + 1e-9, "S(d) ≤ d");
            prev = s;
        }
        assert_eq!(m.stack_distance(0), 0.0);
    }

    #[test]
    fn cyclic_loop_has_step_mrc() {
        // 256-line loop, many passes: every completed reuse distance is
        // 255, so the true stack distance is 255 (all intervening lines
        // unique). The MRC must step from ~1 to ~0 at 256 lines.
        let mut src = StridedStream::new(StridedStreamCfg::loads(Pc(1), 0, 256 * 64, 64, 40));
        let m = model_of(&mut src, 7);
        assert!(m.sample_count() > 100);
        let small = m.miss_ratio(128);
        let exact = m.miss_ratio(256);
        let large = m.miss_ratio(512);
        assert!(small > 0.9, "128-line cache thrashes: {small}");
        assert!(large < 0.1, "512-line cache fits: {large}");
        assert!(exact <= small && exact >= large);
    }

    #[test]
    fn stack_distance_equals_reuse_distance_for_all_unique_streams() {
        // In a pure streaming pattern every intervening access is unique,
        // so S(d) ≈ d.
        let mut src = StridedStream::new(StridedStreamCfg::loads(Pc(1), 0, 1 << 22, 64, 1));
        let m = model_of(&mut src, 11);
        for d in [10u64, 100, 1000] {
            let s = m.stack_distance(d);
            assert!(
                (s - d as f64).abs() / (d as f64) < 0.05,
                "S({d}) = {s} should be ≈ {d} for a no-reuse stream"
            );
        }
    }

    #[test]
    fn mrc_monotone_nonincreasing_in_size() {
        let mut src = PointerChase::new(PointerChaseCfg {
            chase_pc: Pc(1),
            payload_pcs: vec![Pc(2)],
            base: 0,
            node_bytes: 64,
            nodes: 4096,
            steps_per_pass: 4096,
            passes: 12,
            seed: 3,
            run_len: 1,
        });
        let m = model_of(&mut src, 9);
        let sizes: Vec<u64> = (0..14).map(|i| 1u64 << i).collect();
        let mrc: Vec<f64> = sizes.iter().map(|&l| m.miss_ratio(l)).collect();
        for w in mrc.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "bigger cache, never more misses");
        }
        // Payload loads reuse the chase load's line at distance 0, so
        // about half the accesses hit even with a single line of cache.
        assert!(
            mrc[0] > 0.45 && mrc[0] < 0.6,
            "1-line cache: only distance-0 reuse hits ({})",
            mrc[0]
        );
    }

    #[test]
    fn per_pc_curves_separate_working_sets() {
        // Pc 1 loops over 16 lines (hot), Pc 2 streams with no reuse.
        let hot = StridedStream::new(StridedStreamCfg::loads(Pc(1), 0, 16 * 64, 64, 2000));
        let cold = StridedStream::new(StridedStreamCfg::loads(Pc(2), 1 << 30, 1 << 21, 64, 1));
        let mut mix = repf_trace::patterns::Mix::new(
            vec![
                (Box::new(hot) as Box<dyn TraceSource>, 1),
                (Box::new(cold) as Box<dyn TraceSource>, 1),
            ],
            repf_trace::patterns::MixEnd::CycleComponents,
        )
        .take_refs(60_000);
        let m = model_of(&mut mix, 5);
        // At 64-line capacity the hot loop fits (its reuse distance is
        // ~32: 15 own lines + ~16 interleaved stream lines), the stream
        // does not.
        let hot_mr = m.pc_miss_ratio(Pc(1), 64).unwrap();
        let cold_mr = m.pc_miss_ratio(Pc(2), 64).unwrap();
        assert!(hot_mr < 0.2, "hot loop hits: {hot_mr}");
        assert!(cold_mr > 0.8, "stream misses: {cold_mr}");
        assert!(m.pc_miss_ratio(Pc(99), 64).is_none());
    }

    #[test]
    fn matches_functional_simulator_on_random_access() {
        // Uniform random access over N lines: compare StatStack's MRC
        // against an exact high-associativity simulation.
        use repf_cache::{CacheConfig, FunctionalCacheSim};
        use repf_trace::rng::XorShift64Star;
        let n_lines = 2048u64;
        let make_refs = || {
            let mut rng = XorShift64Star::new(17);
            (0..400_000u64)
                .map(|_| MemRef::load(Pc(1), rng.below(n_lines) * 64))
                .collect::<Vec<_>>()
        };
        let mut src = repf_trace::source::Recorded::new(make_refs());
        let m = model_of(&mut src, 13);
        for lines in [256u64, 512, 1024] {
            let mut sim = FunctionalCacheSim::new(CacheConfig::new(lines * 64, 16, 64));
            let mut src = repf_trace::source::Recorded::new(make_refs());
            sim.run(&mut src);
            let exact = sim.totals().miss_ratio();
            let est = m.miss_ratio(lines);
            assert!(
                (est - exact).abs() < 0.05,
                "lines={lines}: statstack {est:.3} vs sim {exact:.3}"
            );
        }
    }

    #[test]
    fn dangling_samples_are_misses_at_every_size() {
        // Pure cold streaming: everything dangles.
        let mut src = StridedStream::new(StridedStreamCfg::loads(Pc(1), 0, 1 << 24, 64, 1));
        let m = model_of(&mut src, 10);
        assert!(m.miss_ratio(1 << 20) > 0.99);
        assert!(m.miss_ratio_bytes(1 << 30) > 0.99);
    }

    #[test]
    fn empty_profile_is_safe() {
        let p = repf_sampling::Profile::default();
        let m = StatStackModel::from_profile(&p);
        assert_eq!(m.miss_ratio(100), 0.0);
        assert_eq!(m.sample_count(), 0);
        assert!(m.sampled_pcs().is_empty());
    }

    #[test]
    fn parts_roundtrip_is_bit_identical() {
        let mut src = PointerChase::new(PointerChaseCfg {
            chase_pc: Pc(1),
            payload_pcs: vec![Pc(2), Pc(3)],
            base: 0,
            node_bytes: 64,
            nodes: 2048,
            steps_per_pass: 2048,
            passes: 8,
            seed: 11,
            run_len: 1,
        });
        let m = model_of(&mut src, 7);
        let back = StatStackModel::from_parts(m.to_parts());
        assert_eq!(back.base.sorted, m.base.sorted);
        assert_eq!(back.base.prefix, m.base.prefix);
        assert_eq!(back.dangling(), m.dangling());
        assert_eq!(back.line_bytes, m.line_bytes);
        assert_eq!(back.sampled_pcs(), m.sampled_pcs());
        for lines in [0u64, 1, 7, 64, 1024, 1 << 20] {
            assert_eq!(m.miss_ratio(lines).to_bits(), back.miss_ratio(lines).to_bits());
            for pc in m.sampled_pcs() {
                assert_eq!(
                    m.pc_miss_ratio(pc, lines).map(f64::to_bits),
                    back.pc_miss_ratio(pc, lines).map(f64::to_bits)
                );
            }
        }
        // Canonical ordering: exporting twice gives identical parts.
        assert_eq!(m.to_parts(), back.to_parts());
    }

    #[test]
    fn hostile_parts_are_resorted_not_trusted() {
        let parts = ModelParts {
            line_bytes: 64,
            sorted: vec![9, 3, 7], // deliberately unsorted
            dangling: 1,
            per_pc: vec![(Pc(5), vec![9, 3, 7], 1)],
        };
        let m = StatStackModel::from_parts(parts);
        assert_eq!(m.base.sorted, vec![3, 7, 9]);
        assert_eq!(m.base.prefix, vec![0, 3, 10, 19]);
        assert!(m.pc_miss_ratio(Pc(5), 1).is_some());
    }

    #[test]
    fn zero_size_cache_misses_everything() {
        let mut src = StridedStream::new(StridedStreamCfg::loads(Pc(1), 0, 64 * 64, 64, 10));
        let m = model_of(&mut src, 3);
        assert_eq!(m.miss_ratio(0), 1.0);
    }
}
