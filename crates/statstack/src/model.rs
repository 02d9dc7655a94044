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
//!
//! A miss ratio at `L` lines needs the *threshold*: the smallest reuse
//! distance `d` with `S(d) ≥ L`. With `n` samples,
//! `n·S(d) = Σ min(x, d) + dangling·d` over the completed distances `x`,
//! a piecewise-linear function of `d` with a corner at each sample value.
//! At the sample of rank `r` in a level, that level's `Σ min(x, x_r)` is
//! `prefix[r] + x_r·(len − r)`, so
//! [`distance_threshold`](StatStackModel::distance_threshold) searches
//! sample ranks instead of raw distances, then solves the one linear
//! segment that holds the crossing with an integer division. The
//! segment's slope, `n − c`, is also the number of samples that miss,
//! so a miss ratio needs no second search. The answer is the smallest
//! `d` with `stack_distance(d) >= L as f64`, as a bisection over
//! distances would find it: while `L·n < 2⁵³` the integer comparison
//! and the f64 one agree, and the candidate is checked at `d` and
//! `d − 1` all the same. An empty model and a larger `L·n` fall back to
//! that bisection.

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

/// The first `x` in `0..len` at which `passes` holds, or `len` if none
/// does, for a `passes` that is monotone in `x`.
fn first_passing(len: u64, mut passes: impl FnMut(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (0, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if passes(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
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
        Level::from_counted(reuse, dangling.map(|pc| (pc, 1)))
    }

    /// [`from_samples`](Self::from_samples), with the dangling samples
    /// given as `(pc, count)` pairs; a PC may appear more than once.
    pub(crate) fn from_counted(
        reuse: impl ExactSizeIterator<Item = (Pc, u64)>,
        dangling: impl Iterator<Item = (Pc, u64)>,
    ) -> Level {
        let mut sorted = Vec::with_capacity(reuse.len());
        let mut per_pc: FxHashMap<Pc, PcSamples> = FxHashMap::default();
        for (pc, d) in reuse {
            sorted.push(d);
            per_pc.entry(pc).or_default().distances.push(d);
        }
        let mut n_dangling = 0u64;
        for (pc, count) in dangling {
            per_pc.entry(pc).or_default().dangling += count;
            n_dangling += count;
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
    fn below(&self, d: u64) -> (usize, u64) {
        let c = self.sorted.partition_point(|&x| x < d);
        (c, self.prefix[c])
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

    /// The samples this model was fitted to, as `(completed, dangling)`
    /// counts: a fit of the first `completed` reuse and `dangling`
    /// dangling samples of a profile answers for exactly that prefix.
    pub fn sample_split(&self) -> (u64, u64) {
        let completed = self.base.sorted.len() + self.delta.sorted.len();
        (completed as u64, self.dangling())
    }

    /// Each level's completed distances, sorted ascending.
    pub(crate) fn completed_levels(&self) -> [&[u64]; 2] {
        [&self.base.sorted, &self.delta.sorted]
    }

    /// The largest completed distance (0 when there is none): the
    /// reference searches' plateau cap.
    #[cfg(test)]
    pub(crate) fn max_distance(&self) -> u64 {
        self.levels()
            .iter()
            .filter_map(|l| l.sorted.last().copied())
            .max()
            .unwrap_or(0)
    }

    /// Samples that miss when every completed distance `≥ threshold`
    /// misses: those plus the dangling ones (`None`: dangling only).
    #[cfg(test)]
    pub(crate) fn misses_at(&self, threshold: Option<u64>) -> u64 {
        self.misses_from(self.ranks_at(threshold))
    }

    /// Per level (`[base, delta]`), the rank of the first completed
    /// distance `≥ threshold` (`None`: past every one).
    fn ranks_at(&self, threshold: Option<u64>) -> [usize; 2] {
        self.levels()
            .map(|l| threshold.map_or(l.sorted.len(), |t| l.sorted.partition_point(|&d| d < t)))
    }

    /// Samples that miss when each level's misses start at its rank in
    /// `ranks`: the completed ones from there on, plus every dangling
    /// one.
    pub(crate) fn misses_from(&self, ranks: [usize; 2]) -> u64 {
        let [base, delta] = self.completed_levels();
        (base.len() - ranks[0] + delta.len() - ranks[1]) as u64 + self.dangling()
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
            // No information: worst case, every line unique.
            return d as f64;
        }
        let (cb, sb) = self.base.below(d);
        let (cd, sd) = self.delta.below(d);
        let (c, sum_below) = (cb as u64 + cd as u64, sb + sd);
        let covered = c as u128 * d as u128 - sum_below as u128;
        let total = n as u128 * d as u128 - covered;
        total as f64 / n as f64
    }

    /// Smallest reuse distance whose expected stack distance reaches
    /// `lines`, or `None` if no finite distance does (then only dangling
    /// samples miss): the smallest `d` with
    /// `stack_distance(d) >= lines as f64`.
    ///
    /// Found by a rank search over the sorted samples (see the module
    /// documentation), or, for an empty model and where `lines · n`
    /// reaches 2⁵³, by bisection over `[0, lines << lines.leading_zeros()]`.
    pub fn distance_threshold(&self, lines: u64) -> Option<u64> {
        self.threshold_and_ranks(lines).0
    }

    /// Per level (`[base, delta]`), the rank of the first completed
    /// distance that misses a cache of `lines` lines solo: the ranks
    /// [`miss_ratio`](Self::miss_ratio) counts its misses from.
    pub(crate) fn first_miss_ranks(&self, lines: u64) -> [usize; 2] {
        self.threshold_and_ranks(lines).1
    }

    /// The threshold for `lines` and each level's first rank at or
    /// past it.
    fn threshold_and_ranks(&self, lines: u64) -> (Option<u64>, [usize; 2]) {
        self.crossing(lines).unwrap_or_else(|| {
            let threshold = self.bisect_threshold(lines);
            (threshold, self.ranks_at(threshold))
        })
    }

    /// The threshold for `lines` and each level's first rank at or past
    /// it, from the sorted samples alone; `None` when the model is empty
    /// or `lines · n` reaches 2⁵³.
    ///
    /// `n·S(d) = Σ min(x, d) + dangling·d` over the completed distances
    /// `x`, so the threshold is the smallest `d` where that sum reaches
    /// `lines · n`. Three steps find it:
    /// - A binary search over base ranks. At the base sample of rank
    ///   `r`, the base's `Σ min(x, x_r)` is `prefix[r] + x_r·(len − r)`,
    ///   duplicates or not, so a probe costs one `partition_point` in
    ///   the delta, confined to the delta ranks the probes so far leave
    ///   in play.
    /// - A binary search over the delta samples that bracket leaves,
    ///   those between the two adjacent base values found. Below each of
    ///   them the base count and sum are fixed, so these probes search
    ///   nothing.
    /// - A closed form in the segment between the two adjacent sample
    ///   values found. There the count `c` and sum `s` of the samples
    ///   below `d` are fixed, so `n·S(d) = s + (n − c)·d` is linear and
    ///   the crossing is one integer division. The samples at or beyond
    ///   the segment, from the two ranks found on, are exactly those
    ///   that miss.
    ///
    /// While `lines · n < 2⁵³`, `n·S(d) ≥ lines · n` holds exactly when
    /// the f64 quotient `stack_distance` computes is `≥ lines as f64`,
    /// so the integer crossing is the f64 definition's answer. The
    /// candidate `g` is still returned only if `stack_distance(g)` passes
    /// and `stack_distance(g − 1)` does not, both computed from the
    /// segment exactly as [`stack_distance`](Self::stack_distance)
    /// computes them; since `S` is monotone, that makes `g` the smallest
    /// passing distance. Prefix sums that wrapped past `u64::MAX` break
    /// that monotonicity; the search then stays bounded and answers
    /// something, but not necessarily what the bisection would.
    fn crossing(&self, lines: u64) -> Option<(Option<u64>, [usize; 2])> {
        let n = self.sample_count();
        let goal = lines as u128 * n as u128;
        if n == 0 || goal >= 1 << 53 {
            return None;
        }
        let (base, delta) = (&*self.base, &self.delta);
        // n·S(d) with `count` completed samples below `d` (or at it)
        // summing to `sum`, against the goal.
        let reaches =
            |count: usize, sum: u128, d: u64| sum + (n - count as u64) as u128 * d as u128 >= goal;
        let sum = |rb: usize, rd: usize| base.prefix[rb] as u128 + delta.prefix[rd] as u128;
        // Base ranks in play are rb..hi; the delta rank of any of their
        // samples lies in dlo..=dhi, so each probe searches only there.
        let (mut rb, mut hi) = (0, base.sorted.len());
        let (mut dlo, mut dhi) = (0, delta.sorted.len());
        while rb < hi {
            let mid = rb + (hi - rb) / 2;
            let x = base.sorted[mid];
            let rd = dlo + delta.sorted[dlo..dhi].partition_point(|&y| y < x);
            if reaches(mid + rd, sum(mid, rd), x) {
                (hi, dhi) = (mid, rd);
            } else {
                (rb, dlo) = (mid + 1, rd);
            }
        }
        // The delta samples from base[rb − 1] up to base[rb]. Those equal
        // to base[rb − 1] fail as it does.
        let rd = dlo
            + first_passing((dhi - dlo) as u64, |j| {
                let j = dlo + j as usize;
                reaches(rb + j, sum(rb, j), delta.sorted[j])
            }) as usize;
        let (s, misses) = (sum(rb, rd), n - (rb + rd) as u64);
        let target = lines as f64;
        let passes = |d: u64| (s + misses as u128 * d as u128) as f64 / n as f64 >= target;
        if misses == 0 {
            // A dangling-free plateau: n·S stays at `s` past every sample.
            return (!passes(0)).then_some((None, [rb, rd]));
        }
        let g = u64::try_from(goal.checked_sub(s)?.div_ceil(misses as u128)).ok()?;
        (passes(g) && (g == 0 || !passes(g - 1))).then_some((Some(g), [rb, rd]))
    }

    /// The threshold by bisection over `[0, lines << lines.leading_zeros()]`,
    /// the largest distance the doubling search from `lines` reaches
    /// without overflow; `None` when even that distance fails.
    fn bisect_threshold(&self, lines: u64) -> Option<u64> {
        if lines == 0 {
            return Some(0);
        }
        let target = lines as f64;
        let hi = lines << lines.leading_zeros();
        (self.stack_distance(hi) >= target)
            .then(|| first_passing(hi, |d| self.stack_distance(d) >= target))
    }

    /// Application miss ratio for a fully-associative LRU cache of
    /// `lines` cache lines.
    pub fn miss_ratio(&self, lines: u64) -> f64 {
        let n = self.sample_count();
        if n == 0 {
            return 0.0;
        }
        self.misses_from(self.first_miss_ranks(lines)) as f64 / n as f64
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

    /// `pc`'s miss ratio as a function of cache lines, with its samples
    /// looked up once. `None` for PCs with no samples.
    fn pc_miss_ratio_fn(&self, pc: Pc) -> Option<impl Fn(u64) -> f64 + '_> {
        let levels = self.levels().map(|l| l.per_pc.get(&pc));
        let n: u64 = levels.iter().flatten().map(|s| s.total()).sum();
        (n > 0).then_some(move |lines| {
            let threshold = self.distance_threshold(lines);
            let missing: u64 = levels
                .iter()
                .flatten()
                .map(|s| threshold.map_or(s.dangling, |t| s.at_or_beyond(t)))
                .sum();
            missing as f64 / n as f64
        })
    }

    /// Per-instruction miss ratio at `lines` capacity. Returns `None` for
    /// PCs with no samples.
    pub fn pc_miss_ratio(&self, pc: Pc, lines: u64) -> Option<f64> {
        self.pc_miss_ratio_fn(pc).map(|f| f(lines))
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

    /// Per-instruction miss-ratio curve over `sizes_bytes`. Returns
    /// `None` for PCs with no samples.
    pub fn pc_mrc_bytes(&self, pc: Pc, sizes_bytes: &[u64]) -> Option<MissRatioCurve> {
        let ratio = self.pc_miss_ratio_fn(pc)?;
        Some(MissRatioCurve::new(
            sizes_bytes.to_vec(),
            sizes_bytes
                .iter()
                .map(|&b| ratio(b / self.line_bytes))
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

/// A two-level model whose base prefix sums wrapped past `u64::MAX`:
/// distances of 2⁶³ + k wrap them (release builds wrap where test
/// builds would panic in `Level::new`), while each wrapped sum stays
/// below 2⁶³, so `stack_distance` can still add a small delta to it.
/// Its `S` is not monotone.
#[cfg(test)]
pub(crate) fn wrapped_prefix_model() -> StatStackModel {
    let sorted: Vec<u64> = (0..64u64).map(|k| (1 << 63) + k * 1013).collect();
    let prefix = std::iter::once(0)
        .chain(sorted.iter().scan(0u64, |acc, &d| {
            *acc = acc.wrapping_add(d);
            Some(*acc)
        }))
        .collect();
    let mut per_pc = FxHashMap::default();
    per_pc.insert(
        Pc(1),
        PcSamples {
            distances: sorted.clone(),
            dangling: 3,
        },
    );
    let base = Level {
        sorted,
        prefix,
        dangling: 3,
        per_pc,
    };
    let delta = Level::from_samples([(Pc(2), 5), (Pc(2), 700)].into_iter(), [].into_iter());
    StatStackModel {
        line_bytes: 64,
        base: Arc::new(base),
        delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repf_sampling::{Sampler, SamplerConfig};
    use repf_trace::patterns::{PointerChase, PointerChaseCfg, StridedStream, StridedStreamCfg};
    use repf_trace::rng::XorShift64Star;
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
            assert_eq!(
                m.miss_ratio(lines).to_bits(),
                back.miss_ratio(lines).to_bits()
            );
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

    /// The threshold search `distance_threshold` ran before the rank
    /// search, verbatim: an exponential search from `lines`, then a
    /// bisection from 0 over raw distances.
    fn reference_threshold(m: &StatStackModel, lines: u64) -> Option<u64> {
        if lines == 0 {
            return Some(0);
        }
        let target = lines as f64;
        // S(d) ≤ d, so start the exponential search at `lines`.
        let mut hi = lines.max(1);
        let cap = m.max_distance().saturating_add(1);
        loop {
            if m.stack_distance(hi) >= target {
                break;
            }
            if hi > cap {
                // Beyond the largest observed distance the survival
                // function is dangling-only: S grows at slope
                // dangling/n. If dangling is zero, S has plateaued.
                if m.dangling() == 0 {
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
            if m.stack_distance(mid) >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }

    /// `miss_ratio` and `pc_miss_ratio` as they read the reference
    /// threshold.
    fn reference_miss_ratio(m: &StatStackModel, lines: u64) -> f64 {
        let n = m.sample_count();
        if n == 0 {
            return 0.0;
        }
        m.misses_at(reference_threshold(m, lines)) as f64 / n as f64
    }

    fn reference_pc_miss_ratio(m: &StatStackModel, pc: Pc, lines: u64) -> Option<f64> {
        let n = m.pc_sample_count(pc);
        if n == 0 {
            return None;
        }
        let missing: u64 = match reference_threshold(m, lines) {
            None => m.pc_levels(pc).map(|s| s.dangling).sum(),
            Some(t) => m.pc_levels(pc).map(|s| s.at_or_beyond(t)).sum(),
        };
        Some(missing as f64 / n as f64)
    }

    /// Seeded samples: up to `max_len` completed ones below `2^bits`
    /// (drawn from a handful of values when `dups`) ending at PCs 1..=4,
    /// and up to `max_dangling` dangling ones at PCs 1..=5.
    struct Draw {
        bits: u32,
        dups: bool,
    }

    impl Draw {
        fn samples(
            &self,
            rng: &mut XorShift64Star,
            max_len: u64,
            max_dangling: u64,
        ) -> (Vec<(Pc, u64)>, Vec<Pc>) {
            let values: Vec<u64> = (0..1 + rng.below(6))
                .map(|_| rng.below(1 << self.bits))
                .collect();
            let reuse = (0..rng.below(max_len + 1))
                .map(|_| {
                    let d = if self.dups {
                        values[rng.below(values.len() as u64) as usize]
                    } else {
                        rng.below(1 << self.bits)
                    };
                    (Pc(1 + rng.below(4) as u32), d)
                })
                .collect();
            let dangling = (0..rng.below(max_dangling + 1))
                .map(|_| Pc(1 + rng.below(5) as u32))
                .collect();
            (reuse, dangling)
        }

        fn level(&self, rng: &mut XorShift64Star, max_len: u64, max_dangling: u64) -> Level {
            let (reuse, dangling) = self.samples(rng, max_len, max_dangling);
            Level::from_samples(reuse.into_iter(), dangling.into_iter())
        }
    }

    /// Cache sizes that hit every branch of the search: 0 and 1, powers
    /// of two, `u64::MAX − k`, sizes of random magnitude, the stack
    /// distances of some samples (segment edges), and the sizes where
    /// `lines · n` crosses 2⁵³ (the fallback's edge).
    fn probe_sizes(m: &StatStackModel, rng: &mut XorShift64Star) -> Vec<u64> {
        let mut sizes = vec![0, 1, 2, 3];
        sizes.extend((0..64).map(|k| 1u64 << k));
        sizes.extend((0..4).map(|k| u64::MAX - k));
        sizes.extend((0..16).map(|_| rng.next_u64() >> rng.below(64)));
        for sorted in m.completed_levels() {
            for _ in 0..4.min(sorted.len()) {
                let s = m.stack_distance(sorted[rng.below(sorted.len() as u64) as usize]);
                sizes.extend([s.floor() as u64, s.ceil() as u64, s.ceil() as u64 + 1]);
            }
        }
        let edge = (1u64 << 53) / m.sample_count().max(1);
        sizes.extend([edge - 1, edge, edge + 1]);
        sizes
    }

    /// Every model shape the rank search distinguishes, from one seed.
    /// Distances stay below 2⁵² and counts below 2,500, so every
    /// prefix sum stays below 2⁶⁴.
    fn random_model(seed: u64) -> StatStackModel {
        use repf_sampling::{DanglingSample, ReuseSample};
        use repf_trace::AccessKind::Load;
        let mut rng = XorShift64Star::new(seed);
        let draw = Draw {
            bits: 1 + rng.below(52) as u32,
            dups: rng.below(2) == 0,
        };
        let line_bytes = if rng.below(4) == 0 { 128 } else { 64 };
        let rng = &mut rng;
        let (base, delta) = match seed % 8 {
            0 => (draw.level(rng, 2000, 300), Level::default()),
            1 => (draw.level(rng, 2000, 300), draw.level(rng, 200, 30)),
            // A delta larger than its base, and a delta with no base.
            2 => (draw.level(rng, 50, 10), draw.level(rng, 400, 40)),
            3 => (Level::default(), draw.level(rng, 400, 40)),
            // A dangling-free plateau, in one level or two.
            4 => (
                draw.level(rng, 2000, 0),
                draw.level(rng, 100 * (seed / 8 % 2), 0),
            ),
            // Dangling samples only.
            5 => (draw.level(rng, 0, 300), draw.level(rng, 0, 30)),
            // A single completed or dangling sample, or none at all.
            6 => {
                let (reuse, dangling) = match rng.below(3) {
                    0 => (vec![(Pc(1), rng.below(1 << draw.bits))], vec![]),
                    1 => (vec![], vec![Pc(1)]),
                    _ => (vec![], vec![]),
                };
                let one = Level::from_samples(reuse.into_iter(), dangling.into_iter());
                (one, Level::default())
            }
            // Fitted, then extended batch by batch, as a session grows.
            _ => {
                let mut model = StatStackModel::from_level(line_bytes, draw.level(rng, 1500, 200));
                for _ in 0..rng.below(6) {
                    let (reuse, dangling) = draw.samples(rng, 60, 10);
                    let reuse: Vec<ReuseSample> = reuse
                        .into_iter()
                        .map(|(pc, distance)| ReuseSample {
                            start_pc: pc,
                            start_kind: Load,
                            end_pc: pc,
                            end_kind: Load,
                            distance,
                            start_index: 0,
                        })
                        .collect();
                    let dangling: Vec<DanglingSample> = dangling
                        .into_iter()
                        .map(|pc| DanglingSample {
                            pc,
                            kind: Load,
                            start_index: 0,
                        })
                        .collect();
                    let mut batch = StatStackModel::builder(line_bytes);
                    batch.push_batch(&reuse, &dangling);
                    model = model.extend(&batch);
                }
                return model;
            }
        };
        StatStackModel {
            line_bytes,
            base: Arc::new(base),
            delta,
        }
    }

    #[test]
    fn rank_search_matches_the_bisection_bit_for_bit() {
        let (mut cases, mut ranked) = (0u64, 0u64);
        for seed in 0..480u64 {
            let m = random_model(seed);
            let mut rng = XorShift64Star::new(seed ^ 0x5eed);
            let sizes = probe_sizes(&m, &mut rng);
            let pcs = m.sampled_pcs();
            for &lines in &sizes {
                let want = reference_threshold(&m, lines);
                assert_eq!(
                    m.distance_threshold(lines),
                    want,
                    "seed {seed}: threshold({lines})"
                );
                assert_eq!(
                    m.miss_ratio(lines).to_bits(),
                    reference_miss_ratio(&m, lines).to_bits(),
                    "seed {seed}: MR({lines})"
                );
                for &pc in &pcs {
                    assert_eq!(
                        m.pc_miss_ratio(pc, lines).map(f64::to_bits),
                        reference_pc_miss_ratio(&m, pc, lines).map(f64::to_bits),
                        "seed {seed}: MR_{pc}({lines})"
                    );
                }
                // The rank search answers every size below the f64
                // limit itself, so a wrong candidate cannot hide behind
                // the fallback.
                let exact =
                    m.sample_count() > 0 && lines as u128 * (m.sample_count() as u128) < 1 << 53;
                assert_eq!(
                    m.crossing(lines).is_some(),
                    exact,
                    "seed {seed}: ranked({lines})"
                );
                cases += 1;
                ranked += exact as u64;
            }
            let mut bytes: Vec<u64> = sizes
                .iter()
                .map(|&l| l.saturating_mul(m.line_bytes))
                .collect();
            bytes.sort_unstable();
            bytes.dedup();
            for pc in pcs.iter().copied().chain([Pc(99)]) {
                let want = reference_pc_miss_ratio(&m, pc, 0).map(|_| {
                    bytes
                        .iter()
                        .map(|&b| {
                            reference_pc_miss_ratio(&m, pc, b / m.line_bytes)
                                .unwrap()
                                .to_bits()
                        })
                        .collect::<Vec<_>>()
                });
                let got = m
                    .pc_mrc_bytes(pc, &bytes)
                    .map(|c| c.ratios().iter().map(|r| r.to_bits()).collect::<Vec<_>>());
                assert_eq!(got, want, "seed {seed}: MRC_{pc}");
            }
        }
        // Both paths ran: most sizes by rank, the rest by bisection.
        assert!(
            ranked * 2 > cases && ranked < cases,
            "{ranked} of {cases} by rank"
        );
    }

    #[test]
    fn wrapped_prefix_sums_stay_bounded() {
        // S is no longer monotone; every query must still return.
        let m = wrapped_prefix_model();
        let mut rng = XorShift64Star::new(9);
        let sizes = probe_sizes(&m, &mut rng);
        for &lines in &sizes {
            m.distance_threshold(lines);
            let mr = m.miss_ratio(lines);
            assert!((0.0..=1.0).contains(&mr), "MR({lines}) = {mr}");
        }
        let bytes: Vec<u64> = (1..=16u64).map(|i| i << 20).collect();
        assert!(m.pc_mrc_bytes(Pc(1), &bytes).is_some());
    }

    #[test]
    fn zero_size_cache_misses_everything() {
        let mut src = StridedStream::new(StridedStreamCfg::loads(Pc(1), 0, 64 * 64, 64, 10));
        let m = model_of(&mut src, 3);
        assert_eq!(m.miss_ratio(0), 1.0);
    }
}
