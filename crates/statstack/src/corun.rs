//! Shared-cache co-run composition of fitted [`StatStackModel`]s.
//!
//! When N applications share a last-level cache, each one sees its own
//! reuse distances *inflated* by the accesses its peers interleave
//! between its consecutive touches of a line. Following the
//! reuse-distance-inflation approach (Modeling Shared Cache Performance
//! of OpenMP Programs using Reuse Distance, arXiv 1907.12666; see also
//! PPT-Multicore, arXiv 2104.05102), a subject access with solo reuse
//! distance `d` observes, in the shared cache, the *composed* stack
//! distance
//!
//! ```text
//! S_shared_i(d) = S_i(d) + Σ_{j≠i} S_j(⌊d · r_j⌋)      r_j = λ_j / λ_i
//! ```
//!
//! where `λ` is each member's interleaving intensity (accesses per unit
//! time — by default its sample count, a node-invariant proxy carried
//! with the model parts) and `S` is each member's solo expected stack
//! distance. During the `d` interleaved subject references, peer `j`
//! issues about `d · r_j` references of its own, touching `S_j(⌊d·r_j⌋)`
//! expected *unique* lines — which all sit between the subject's two
//! accesses and push its line down the shared LRU stack. A subject
//! access misses a shared cache of `L` lines iff `S_shared ≥ L`.
//!
//! Member `i`'s shared miss count is therefore the number of its
//! completed samples whose distance `D` has `S_shared_i(D) ≥ L`, plus
//! its dangling samples, which miss at every size. `S_shared_i` is
//! monotone in `d`: each `S` is an integer total over a fixed sample
//! count (and rounding is monotone), `⌊d·r⌋` is monotone, and the peer
//! terms are summed in sorted order, so raising any term never lowers
//! the sum. The missing distances thus form a suffix of each of `i`'s
//! sorted sample levels, and a count is the pair of ranks, one per
//! level, where those suffixes start. Three more monotone relations
//! bound those ranks before any probe:
//! - **The size.** A larger cache never misses more, so at fixed peers
//!   each first-miss rank is non-decreasing in `L`.
//! - **The peers.** Adding a peer adds one non-negative term to a
//!   sorted f64 sum. Rounded addition is monotone in each operand, so
//!   every partial sum, and `S_shared`, is at least what it was: a
//!   superset of peers never has a later first-miss rank.
//! - **The solo term.** `S_shared` is the solo `S_i` plus a
//!   non-negative sum, so a distance that misses solo misses shared,
//!   and the solo first-miss ranks — which
//!   [`miss_ratio`](StatStackModel::miss_ratio) already finds by a rank
//!   search with integer arithmetic — cap every shared count.
//!
//! A count then searches only the ranks its bracket leaves in play,
//! probing `S_shared_i` at `i`'s own distances:
//! - It searches the base level first, then only the delta ranks whose
//!   distances lie strictly between the two adjacent base distances
//!   found, as the solo threshold search does.
//! - With no miss known yet it opens on the largest distance in play:
//!   when the bracket's top is the solo ceiling, that one probe often
//!   settles the count. After that it picks each probe by interpolating
//!   `S_shared_i` linearly in the distance between the bracket's two
//!   known points, and takes a bisection step whenever a probe fails to
//!   halve the bracket of ranks. A level of `len` ranks in play thus
//!   costs at most `2⌈log₂(len + 1)⌉ + 1` probes, and a closed bracket
//!   none.
//!
//! [`CoRunModel::answer_bytes`] solves each member's sizes in halving
//! order over the member's sorted, distinct line counts: the middle one
//! first, then each half, so every count is bracketed by the nearest
//! smaller and larger sizes already solved, and capped by its solo
//! ranks, found by the same search the throughput term reads its solo
//! ratio from. A composed distance depends on the subject's rank, not
//! on the cache size, so each member keeps every `S_shared` it computes,
//! by level and rank, for all of the request's sizes, and computes each
//! at most once. (The placement search keeps the per-peer terms instead,
//! since its peer sets vary; see [`crate::placement`].)
//!
//! The count is the one a full-width `partition_point` per level finds:
//! it is the partition point of a predicate monotone in the subject's
//! rank, every bracket above holds it, any probe order inside a bracket
//! finds it, and a memoized `S_shared` is the float the probe computes.
//! The search ends whatever `S_shared_i` does past the largest distance,
//! so it needs no plateau test. (A search for the threshold over all
//! integers does: it must notice that every contributing model is past
//! its largest distance with no dangling mass, or it would double its
//! bound forever.) Where a model's prefix sums wrapped past `u64::MAX`,
//! its `S` is not monotone; the carried ranks are then clamped to
//! `lo ≤ hi ≤ len`, so every search still ends and every ratio lies in
//! [0, 1], but a count is a function of the probe order.
//!
//! The composition reuses the members' cached fits as-is — no refit, no
//! merged profile — so a server can answer co-run queries for any subset
//! of its sessions from the models it already holds.
//!
//! Determinism contract (the serving layer's replay digests depend on
//! it): answers are a pure function of the member models and intensities
//! and are independent of member insertion order — peer contributions
//! are summed in `total_cmp`-sorted order, and a member whose peers are
//! all idle answers **bit-identically** to its solo model.

use crate::model::StatStackModel;
use repf_trace::hash::FxHashMap;

/// Pinned miss-penalty-to-hit-cost ratio used by the mix-throughput
/// estimate: an LLC miss is modelled as `1 + MISS_WEIGHT` time units
/// against a hit's `1` (roughly a ~200-cycle memory access over a
/// ~10-cycle LLC hit). The throughput estimate is a *relative* ranking
/// signal, so the exact value only scales the spread, never reorders
/// robustly-separated mixes.
pub const MISS_WEIGHT: f64 = 20.0;

struct Member<'a> {
    model: &'a StatStackModel,
    intensity: f64,
}

/// Per-member predicted miss-ratio curves plus the mix-throughput
/// estimate, over one shared list of cache sizes.
#[derive(Clone, Debug, PartialEq)]
pub struct CoRunAnswer {
    /// `per_member[i][k]`: member `i`'s predicted shared-cache miss
    /// ratio at `sizes_bytes[k]`.
    pub per_member: Vec<Vec<f64>>,
    /// `throughput[k]`: weighted-speedup-style mix throughput estimate
    /// at `sizes_bytes[k]` — `Σ_i (1 + W·solo_i) / (1 + W·shared_i)`,
    /// one term per member, each ≤ 1. `N` means "no interference".
    pub throughput: Vec<f64>,
}

/// Composes fitted per-session models into shared-cache predictions.
///
/// Build one with [`push`](Self::push) (intensity defaults to the
/// model's sample count) or [`push_with_intensity`](Self::push_with_intensity)
/// (explicit rate, e.g. zero for an idle peer), then query per-member
/// shared miss ratios or a whole [`CoRunAnswer`].
#[derive(Default)]
pub struct CoRunModel<'a> {
    members: Vec<Member<'a>>,
}

impl<'a> CoRunModel<'a> {
    pub fn new() -> Self {
        CoRunModel {
            members: Vec::new(),
        }
    }

    /// Add a member with the default intensity: its sample count. Sample
    /// counts travel with the model parts, so remote-pulled models
    /// compose identically on every node.
    pub fn push(&mut self, model: &'a StatStackModel) {
        let intensity = model.sample_count() as f64;
        self.push_with_intensity(model, intensity);
    }

    /// Add a member with an explicit interleaving intensity. Zero (or
    /// non-finite, or negative) intensity marks an idle peer: it
    /// contributes nothing to anyone's inflation, and its own curve is
    /// its solo MRC.
    pub fn push_with_intensity(&mut self, model: &'a StatStackModel, intensity: f64) {
        self.members.push(Member { model, intensity });
    }

    pub fn len(&self) -> usize {
        self.members.len()
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Member `i`'s active peers: each one's model and its rate
    /// relative to `i`.
    fn active_peers(&self, i: usize) -> Vec<(&'a StatStackModel, f64)> {
        let li = self.members[i].intensity;
        (0..self.members.len())
            .filter(|&j| j != i)
            .filter_map(|j| {
                let peer = &self.members[j];
                Some((peer.model, rate(li, peer.intensity)?))
            })
            .collect()
    }

    /// Member `i`'s predicted miss ratio in a shared fully-associative
    /// LRU cache of `lines` lines. With no active peer (all idle, or
    /// member `i` itself idle) this *is* `i`'s solo
    /// [`miss_ratio`](StatStackModel::miss_ratio), bit for bit.
    pub fn miss_ratio(&self, i: usize, lines: u64) -> f64 {
        let m = self.members[i].model;
        let n = m.sample_count();
        if n == 0 {
            return 0.0;
        }
        let peers = self.active_peers(i);
        if peers.is_empty() {
            return m.miss_ratio(lines);
        }
        shared_misses(m, &peers, lines) as f64 / n as f64
    }

    /// Member `i`'s predicted shared miss ratio at `bytes` capacity
    /// (using member `i`'s own line size).
    pub fn miss_ratio_bytes(&self, i: usize, bytes: u64) -> f64 {
        self.miss_ratio(i, bytes / self.members[i].model.line_bytes())
    }

    /// Every member's shared miss-ratio curve plus the mix-throughput
    /// estimate, over `sizes_bytes`. This is *the* answer surface — the
    /// server handler and the replay oracle both call it, so their
    /// response bytes cannot diverge. Each value is the float
    /// [`miss_ratio_bytes`](Self::miss_ratio_bytes) returns for its
    /// size, found in halving order over each member's sizes (see the
    /// module documentation).
    pub fn answer_bytes(&self, sizes_bytes: &[u64]) -> CoRunAnswer {
        let mut per_member = Vec::with_capacity(self.members.len());
        let mut terms = vec![Vec::with_capacity(self.members.len()); sizes_bytes.len()];
        for i in 0..self.members.len() {
            let peers = self.active_peers(i);
            let (solo, shared) =
                SharedCounts::new(self.members[i].model, &peers).curves(sizes_bytes);
            for ((t, s), x) in terms.iter_mut().zip(&solo).zip(&shared) {
                t.push((1.0 + MISS_WEIGHT * s) / (1.0 + MISS_WEIGHT * x));
            }
            per_member.push(shared);
        }
        let throughput = terms
            .into_iter()
            .map(|mut t| {
                t.sort_unstable_by(f64::total_cmp);
                t.iter().sum()
            })
            .collect();
        CoRunAnswer {
            per_member,
            throughput,
        }
    }
}

/// A peer's interleaving rate relative to a subject, from the two
/// intensities, or `None` when either is idle (zero, negative or
/// non-finite) and the peer cannot inflate the subject.
pub(crate) fn rate(subject: f64, peer: f64) -> Option<f64> {
    let active = |x: f64| x > 0.0 && x.is_finite();
    (active(subject) && active(peer)).then(|| peer / subject)
}

/// `⌊d · r⌋`, saturating at `u64::MAX` (a peer that inflates past
/// every observed distance contributes its full unique footprint).
pub(crate) fn inflate(d: u64, r: f64) -> u64 {
    let x = (d as f64 * r).floor();
    if x >= u64::MAX as f64 {
        u64::MAX
    } else {
        x as u64
    }
}

/// `S_shared`: the subject's own stack distance plus the peer `terms`,
/// summed in `total_cmp`-sorted order, which makes the sum independent
/// of member insertion order.
pub(crate) fn compose(own: f64, terms: &mut [f64]) -> f64 {
    terms.sort_unstable_by(f64::total_cmp);
    own + terms.iter().sum::<f64>()
}

/// How many of `subject`'s samples miss a shared cache of `lines`
/// lines next to `peers` (each peer's model and rate relative to the
/// subject): the completed distances `D` with `S_shared(D) ≥ lines`,
/// plus every dangling sample. One [`first_misses`] search between no
/// floor and the solo ceiling finds where each level's misses start.
fn shared_misses(subject: &StatStackModel, peers: &[(&StatStackModel, f64)], lines: u64) -> u64 {
    let ceil = subject.first_miss_ranks(lines);
    let ranks = SharedCounts::new(subject, peers).first_misses(lines, [0, 0], ceil);
    subject.misses_from(ranks)
}

/// One member's shared miss counts next to fixed peers, at any number
/// of cache sizes. `S_shared` at one of the subject's distances does
/// not depend on the size, so when more than one size is asked, every
/// value computed is kept, by level and rank, for the counts after it.
/// (One count never probes a rank twice.)
struct SharedCounts<'a> {
    subject: &'a StatStackModel,
    peers: &'a [(&'a StatStackModel, f64)],
    /// Per level (`[base, delta]`): rank → `S_shared` at that rank.
    memo: [FxHashMap<usize, f64>; 2],
    /// Whether `memo` keeps what the probes compute.
    keep: bool,
    /// The peer terms of one probe, sorted before they are summed.
    terms: Vec<f64>,
    /// How many composed distances this member computed.
    composed: u64,
}

impl<'a> SharedCounts<'a> {
    fn new(subject: &'a StatStackModel, peers: &'a [(&'a StatStackModel, f64)]) -> Self {
        SharedCounts {
            subject,
            peers,
            memo: Default::default(),
            keep: false,
            terms: Vec::with_capacity(peers.len()),
            composed: 0,
        }
    }

    /// `S_shared` at rank `rank` of level `level`, computed at most
    /// once.
    fn probe(&mut self, level: usize, rank: usize) -> f64 {
        if let Some(&s) = self.memo[level].get(&rank) {
            return s;
        }
        let d = self.subject.completed_levels()[level][rank];
        self.terms.clear();
        self.terms.extend(
            self.peers
                .iter()
                .map(|&(peer, r)| peer.stack_distance(inflate(d, r))),
        );
        let s = compose(self.subject.stack_distance(d), &mut self.terms);
        self.composed += 1;
        if self.keep {
            self.memo[level].insert(rank, s);
        }
        s
    }

    /// The first-miss ranks at `lines`, known to lie in
    /// `floor[l]..=ceil[l]` in level `l`.
    fn first_misses(&mut self, lines: u64, floor: [usize; 2], ceil: [usize; 2]) -> [usize; 2] {
        let subject = self.subject;
        first_misses(subject, floor, ceil, lines as f64, |level, rank| {
            self.probe(level, rank)
        })
    }

    /// The subject's solo and shared miss ratios at each of
    /// `sizes_bytes`. The sizes are solved once per distinct line count,
    /// in halving order over those counts sorted.
    fn curves(&mut self, sizes_bytes: &[u64]) -> (Vec<f64>, Vec<f64>) {
        let mut ratios = Ratios {
            solo: vec![0.0; sizes_bytes.len()],
            shared: vec![0.0; sizes_bytes.len()],
            n: self.subject.sample_count() as f64,
        };
        if ratios.n == 0.0 {
            return (ratios.solo, ratios.shared);
        }
        let mut asked: Vec<(u64, usize)> = sizes_bytes
            .iter()
            .enumerate()
            .map(|(k, &b)| (b / self.subject.line_bytes(), k))
            .collect();
        asked.sort_unstable();
        self.keep = asked.first().map(|a| a.0) != asked.last().map(|a| a.0);
        let [base, delta] = self.subject.completed_levels();
        self.solve(&asked, [0, 0], [base.len(), delta.len()], &mut ratios);
        (ratios.solo, ratios.shared)
    }

    /// Solve the sizes `asked` (`(lines, position)` pairs sorted by
    /// lines, every count's ranks known to lie in `lo..=hi`) in halving
    /// order: the middle line count, capped by its solo ranks, for every
    /// position asking it; then each side, between the ranks found and
    /// the bracket's end.
    fn solve(&mut self, asked: &[(u64, usize)], lo: [usize; 2], hi: [usize; 2], out: &mut Ratios) {
        if asked.is_empty() {
            return;
        }
        let lines = asked[asked.len() / 2].0;
        let solo = self.subject.first_miss_ranks(lines);
        let ranks = if self.peers.is_empty() {
            solo
        } else {
            self.first_misses(lines, lo, [hi[0].min(solo[0]), hi[1].min(solo[1])])
        };
        let (below, rest) = asked.split_at(asked.partition_point(|a| a.0 < lines));
        let (same, above) = rest.split_at(rest.partition_point(|a| a.0 == lines));
        let solo = self.subject.misses_from(solo) as f64 / out.n;
        let shared = self.subject.misses_from(ranks) as f64 / out.n;
        for &(_, k) in same {
            (out.solo[k], out.shared[k]) = (solo, shared);
        }
        self.solve(below, lo, ranks, out);
        self.solve(above, ranks, hi, out);
    }
}

/// One member's miss ratios by size position, as they are solved.
struct Ratios {
    solo: Vec<f64>,
    shared: Vec<f64>,
    /// The member's sample count.
    n: f64,
}

/// Per level of `subject` (`[base, delta]`), the first rank whose
/// composed stack distance, as `probe(level, rank)` computes it,
/// reaches `target`, when level `l`'s lies in `floor[l]..=ceil[l]`.
/// The base level is searched first; of the delta, only the ranks whose
/// distances lie strictly between the base's last hit and first miss
/// are left in play. Each bracket is clamped to `lo ≤ hi ≤ len`, so the
/// search ends whatever the probes return.
pub(crate) fn first_misses(
    subject: &StatStackModel,
    floor: [usize; 2],
    ceil: [usize; 2],
    target: f64,
    mut probe: impl FnMut(usize, usize) -> f64,
) -> [usize; 2] {
    let [base, delta] = subject.completed_levels();
    let mut known = Bracket::default();
    let hi = ceil[0].min(base.len());
    let rb = first_miss(base, floor[0].min(hi), hi, &mut known, target, |r| {
        probe(0, r)
    });
    let (mut lo, mut hi) = (floor[1], ceil[1].min(delta.len()));
    if let Some(&x) = base.get(rb) {
        hi = hi.min(delta.partition_point(|&y| y < x));
    }
    if let Some(r) = rb.checked_sub(1) {
        lo = lo.max(delta.partition_point(|&y| y <= base[r]));
    }
    let rd = first_miss(delta, lo.min(hi), hi, &mut known, target, |r| probe(1, r));
    [rb, rd]
}

/// A probed subject distance and its composed stack distance.
#[derive(Clone, Copy)]
struct Point {
    d: u64,
    s: f64,
}

/// What a count's probes so far know: the largest probed distance that
/// hits and the smallest that misses.
#[derive(Default)]
struct Bracket {
    hit: Option<Point>,
    miss: Option<Point>,
}

/// The first rank in `lo..hi` of the sorted distances `sorted` whose
/// composed stack distance, as `probe(rank)` computes it, reaches
/// `target` (`hi` if none does), when every rank below `lo` is known to
/// hit and every rank from `hi` on to miss. `known` holds the probed
/// points that bracket the crossing, and is updated with each probe.
///
/// With no miss known yet, the first probe takes the largest distance
/// in play: if it hits, every rank does. After that, each probe is
/// picked by [`interpolate`] between the bracket's two known points
/// (the lower one is `(0, 0)` until a probe hits: `S_shared(0) = 0`),
/// unless the previous probe failed to halve the bracket of ranks,
/// which makes this one a bisection step. Every two probes after the
/// first thus at least halve the bracket, so `len` ranks take at most
/// `2⌈log₂(len + 1)⌉ + 1` probes, while clustered distances, whose
/// crossing usually falls in a gap between clusters, take a few.
fn first_miss(
    sorted: &[u64],
    mut lo: usize,
    mut hi: usize,
    known: &mut Bracket,
    target: f64,
    mut probe: impl FnMut(usize) -> f64,
) -> usize {
    let mut bisect = false;
    while lo < hi {
        let opening = known.miss.is_none();
        let m = if opening {
            hi - 1
        } else if bisect {
            lo + (hi - lo) / 2
        } else {
            interpolate(sorted, lo, hi, known, target)
        };
        let width = hi - lo;
        let p = Point {
            d: sorted[m],
            s: probe(m),
        };
        if p.s < target {
            (lo, known.hit) = (m + 1, Some(p));
        } else {
            (hi, known.miss) = (m, Some(p));
        }
        bisect = !opening && 2 * (hi - lo) > width;
    }
    lo
}

/// The probe the line through the bracket's two known points (distance
/// against composed stack distance) picks. Where the line reaches
/// `target` splits `lo..hi` into ranks predicted to hit and ranks
/// predicted to miss; the probe is the last predicted hit or the first
/// predicted miss, whichever, if the prediction holds, discards the
/// larger side. Any rank in the bracket is a correct probe, so a
/// degenerate line (equal ends, or a NaN crossing) only costs probes.
fn interpolate(sorted: &[u64], lo: usize, hi: usize, known: &Bracket, target: f64) -> usize {
    let a = known.hit.unwrap_or(Point { d: 0, s: 0.0 });
    let b = known.miss.expect("interpolation follows the opening probe");
    let (da, db) = (a.d as f64, b.d as f64);
    let crossing = da + (target - a.s) / (b.s - a.s) * (db - da);
    let m = lo + sorted[lo..hi].partition_point(|&x| (x as f64) < crossing);
    if m - lo > hi - m {
        m - 1
    } else {
        m
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::ModelParts;
    use repf_sampling::{DanglingSample, ReuseSample, Sampler, SamplerConfig};
    use repf_trace::patterns::{StridedStream, StridedStreamCfg};
    use repf_trace::rng::XorShift64Star;
    use repf_trace::{AccessKind, Pc};

    fn loop_model(lines: u64, passes: u32) -> StatStackModel {
        let mut src = StridedStream::new(StridedStreamCfg::loads(Pc(1), 0, lines * 64, 64, passes));
        let sampler = Sampler::new(SamplerConfig {
            sample_period: 3,
            line_bytes: 64,
            seed: 7,
        });
        StatStackModel::from_profile(&sampler.profile(&mut src))
    }

    #[test]
    fn idle_peer_reproduces_solo_bit_exactly() {
        let a = loop_model(256, 30);
        let b = loop_model(512, 30);
        let mut co = CoRunModel::new();
        co.push(&a);
        co.push_with_intensity(&b, 0.0);
        for lines in [0u64, 1, 64, 256, 300, 512, 1 << 14] {
            assert_eq!(
                co.miss_ratio(0, lines).to_bits(),
                a.miss_ratio(lines).to_bits()
            );
        }
    }

    #[test]
    fn active_peer_inflates_the_working_set() {
        // A 256-line loop fits a 512-line cache solo; an equally intense
        // 512-line-loop peer pushes it out.
        let a = loop_model(256, 40);
        let b = loop_model(512, 40);
        let mut co = CoRunModel::new();
        co.push(&a);
        co.push(&b);
        let solo = a.miss_ratio(512);
        let shared = co.miss_ratio(0, 512);
        assert!(solo < 0.1, "solo fits: {solo}");
        assert!(shared > solo + 0.3, "peer evicts: {shared} vs {solo}");
        // A big enough shared cache fits both working sets again.
        assert!(co.miss_ratio(0, 4096) < 0.1);
    }

    #[test]
    fn answer_matches_per_member_queries() {
        let a = loop_model(128, 20);
        let b = loop_model(1024, 20);
        let mut co = CoRunModel::new();
        co.push(&a);
        co.push(&b);
        let sizes = [64 * 64u64, 512 * 64, 4096 * 64];
        let ans = co.answer_bytes(&sizes);
        assert_eq!(ans.per_member.len(), 2);
        assert_eq!(ans.throughput.len(), sizes.len());
        for (k, &bytes) in sizes.iter().enumerate() {
            for i in 0..2 {
                assert_eq!(
                    ans.per_member[i][k].to_bits(),
                    co.miss_ratio_bytes(i, bytes).to_bits()
                );
            }
            assert!(ans.throughput[k] > 0.0 && ans.throughput[k] <= 2.0 + 1e-9);
        }
    }

    /// The composed stack distance, summed exactly as `shared_misses`
    /// sums it.
    fn reference_shared_stack_distance(co: &CoRunModel, i: usize, d: u64) -> f64 {
        let mut peers: Vec<f64> = co
            .active_peers(i)
            .into_iter()
            .map(|(m, r)| m.stack_distance(inflate(d, r)))
            .collect();
        peers.sort_unstable_by(f64::total_cmp);
        co.members[i].model.stack_distance(d) + peers.iter().sum::<f64>()
    }

    /// The smallest solo reuse distance whose composed stack distance
    /// reaches `lines`, found the way the shared miss count used to find
    /// it: an exponential search from `lines`, then bisection over the
    /// integers, giving up once every contributing model is past its
    /// largest distance with no dangling mass (`None`: only dangling
    /// samples miss). Kept as the reference the count is checked
    /// against.
    fn reference_threshold(co: &CoRunModel, i: usize, lines: u64) -> Option<u64> {
        if lines == 0 {
            return Some(0);
        }
        let target = lines as f64;
        let subject = co.members[i].model;
        let mut cap = subject.max_distance().saturating_add(1);
        let mut dangling_free = subject.dangling() == 0;
        for (m, r) in co.active_peers(i) {
            let peer_cap = ((m.max_distance() as f64 + 1.0) / r).ceil();
            let peer_cap = if peer_cap >= u64::MAX as f64 {
                u64::MAX
            } else {
                (peer_cap as u64).saturating_add(1)
            };
            cap = cap.max(peer_cap);
            dangling_free &= m.dangling() == 0 && m.sample_count() > 0;
        }
        let mut hi = lines.max(1);
        loop {
            if reference_shared_stack_distance(co, i, hi) >= target {
                break;
            }
            if hi > cap && dangling_free {
                return None;
            }
            hi = hi.saturating_mul(2);
            if hi == u64::MAX {
                return None;
            }
        }
        let mut lo = 0u64;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if reference_shared_stack_distance(co, i, mid) >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }

    fn parts_model(line_bytes: u64, sorted: Vec<u64>, dangling: u64) -> StatStackModel {
        StatStackModel::from_parts(ModelParts {
            line_bytes,
            per_pc: vec![(Pc(1), sorted.clone(), dangling)],
            sorted,
            dangling,
        })
    }

    /// Seeded models: empty, dangling-only, plateaued (no dangling
    /// mass), long-tailed, and two-level ones with a non-empty delta.
    pub(crate) fn seeded_models(seed: u64) -> Vec<StatStackModel> {
        let mut rng = XorShift64Star::new(seed);
        let mut geo =
            |n: usize, mean: f64| -> Vec<u64> { (0..n).map(|_| rng.geometric(mean)).collect() };
        let loop_d = vec![255u64; 300];
        let base = parts_model(64, geo(800, 200.0), 6);
        let batch: Vec<ReuseSample> = geo(50, 700.0)
            .into_iter()
            .map(|distance| ReuseSample {
                start_pc: Pc(2),
                start_kind: AccessKind::Load,
                end_pc: Pc(2),
                end_kind: AccessKind::Load,
                distance,
                start_index: 0,
            })
            .collect();
        let dangling = [DanglingSample {
            pc: Pc(2),
            kind: AccessKind::Load,
            start_index: 0,
        }];
        let mut pending = StatStackModel::builder(64);
        pending.push_batch(&batch, &dangling);
        let two_level = base.extend(&pending);
        assert!(
            !two_level.completed_levels()[1].is_empty(),
            "delta level in use"
        );
        let mut tail = geo(400, 40.0);
        tail.extend(geo(20, 1e7));
        vec![
            parts_model(64, Vec::new(), 0),
            parts_model(64, Vec::new(), 30),
            parts_model(64, geo(15, 80.0), 300),
            parts_model(64, loop_d, 0),
            two_level,
            parts_model(64, tail, 0),
            parts_model(64, vec![3], 0),
            parts_model(128, geo(600, 30.0), 12),
        ]
    }

    #[test]
    fn miss_counts_match_the_bisection_reference() {
        let models = seeded_models(0x5EA2C4);
        let mut rng = XorShift64Star::new(0xB15EC7);
        let rates = [1.0, 0.5, 3.0, 1e-300, 1e300, 5e-324, f64::INFINITY, 0.0];
        let mut compared = 0u32;
        for case in 0..400u32 {
            let k = 2 + rng.below(3) as usize;
            let mut co = CoRunModel::new();
            for _ in 0..k {
                let m = &models[rng.below(models.len() as u64) as usize];
                let lam = m.sample_count().max(1) as f64 * rates[rng.below(8) as usize];
                co.push_with_intensity(m, lam);
            }
            let i = rng.below(k as u64) as usize;
            let peers = co.active_peers(i);
            if peers.is_empty() || co.members[i].model.sample_count() == 0 {
                continue;
            }
            let m = co.members[i].model;
            let lines = match case % 4 {
                0 => rng.below(4),
                1 => rng.below(1 << 12),
                2 => 1 + rng.geometric(1e4),
                _ => [1 << 30, 1 << 50, u64::MAX][rng.below(3) as usize],
            };
            assert_eq!(
                shared_misses(m, &peers, lines),
                m.misses_at(reference_threshold(&co, i, lines)),
                "case {case}: member {i} of {k} at {lines} lines"
            );
            compared += 1;
        }
        assert!(compared > 200, "only {compared} cases had an active peer");
    }

    /// The shared miss count before the confined search, verbatim: one
    /// full-width `partition_point` per level of the subject's sorted
    /// distances, each probe a full-width `stack_distance` per model.
    /// Kept as the reference the count is checked against.
    fn reference_shared_misses(
        subject: &StatStackModel,
        peers: &[(&StatStackModel, f64)],
        lines: u64,
    ) -> u64 {
        let target = lines as f64;
        let mut terms: Vec<f64> = Vec::with_capacity(peers.len());
        let mut hits = |d: u64| {
            terms.clear();
            terms.extend(peers.iter().map(|&(p, r)| p.stack_distance(inflate(d, r))));
            terms.sort_unstable_by(f64::total_cmp);
            subject.stack_distance(d) + terms.iter().sum::<f64>() < target
        };
        let completed: u64 = subject
            .completed_levels()
            .into_iter()
            .map(|sorted| (sorted.len() - sorted.partition_point(|&d| hits(d))) as u64)
            .sum();
        completed + subject.dangling()
    }

    /// `samples` reuse samples shaped like a load generator's submit for
    /// session `s`: a third at distances of 400k–1M lines, and of the
    /// rest a quarter at 30k + 7k·s (+ up to 3k) and the others at 1–48,
    /// so the distances cluster and repeat.
    fn ring_batch(rng: &mut XorShift64Star, s: u64, samples: u64) -> crate::StatStackBuilder {
        let reuse: Vec<ReuseSample> = (0..samples)
            .map(|_| {
                let pc = 100 * (1 + rng.below(3) as u32);
                let distance = if pc == 100 {
                    400_000 + rng.below(600_000)
                } else if rng.below(4) == 0 {
                    30_000 + 7_000 * s + rng.below(3_000)
                } else {
                    1 + rng.below(48)
                };
                ReuseSample {
                    start_pc: Pc(pc),
                    start_kind: AccessKind::Load,
                    end_pc: Pc(pc),
                    end_kind: AccessKind::Load,
                    distance,
                    start_index: 0,
                }
            })
            .collect();
        let mut b = StatStackModel::builder(64);
        b.push_batch(&reuse, &[]);
        b
    }

    /// A ring session's model: `history` samples fitted in one level,
    /// then `submits` 16-sample batches folded in by `extend`, as the
    /// session store refits.
    fn ring_model(rng: &mut XorShift64Star, s: u64, history: u64, submits: u32) -> StatStackModel {
        let mut m = ring_batch(rng, s, history).fit();
        for _ in 0..submits {
            m = m.extend(&ring_batch(rng, s, 16));
        }
        m
    }

    /// Sixteen ring sessions of 60–6,000 samples: a third two-level,
    /// two thirds one-level as a peer's pulled parts import them.
    pub(crate) fn ring_models(seed: u64) -> Vec<StatStackModel> {
        let mut rng = XorShift64Star::new(seed);
        (0..16u64)
            .map(|s| {
                let history = [60, 400, 1_500, 6_000][s as usize % 4];
                // Up to the most submits whose delta stays under the fold
                // rule, delta² ≤ 16·base.
                let keep = ((16 * history) as f64).sqrt() as u64 / 16;
                let submits = 1 + rng.below(keep) as u32;
                let m = ring_model(&mut rng, s, history, submits);
                if s % 3 == 0 {
                    assert!(
                        !m.completed_levels()[1].is_empty(),
                        "session {s} keeps a delta"
                    );
                    m
                } else {
                    StatStackModel::from_parts(m.to_parts())
                }
            })
            .collect()
    }

    #[test]
    fn miss_counts_match_the_retired_partition_point_count() {
        let mut models = ring_models(0x414E47);
        models.extend(seeded_models(0xC04E45));
        // Dense distances, base and delta interleaved one apart, so the
        // delta samples next to a base crossing decide counts.
        let evens = parts_model(64, (1..=2_000).map(|x| 2 * x).collect(), 0);
        let mut odds = StatStackModel::builder(64);
        let odd: Vec<ReuseSample> = (0..150u64)
            .map(|k| ReuseSample {
                start_pc: Pc(2),
                start_kind: AccessKind::Load,
                end_pc: Pc(2),
                end_kind: AccessKind::Load,
                distance: 26 * k + 1,
                start_index: 0,
            })
            .collect();
        odds.push_batch(&odd, &[]);
        models.push(evens.extend(&odds));
        let mut rng = XorShift64Star::new(0x5EED_C0DE);
        let rates = [
            1.0,
            0.5,
            3.0,
            7.0 / 3.0,
            1e-300,
            1e300,
            5e-324,
            f64::INFINITY,
            0.0,
            f64::NAN,
        ];
        let sizes = [
            0u64,
            1,
            1 << 14,
            1 << 16,
            1 << 17,
            1 << 30,
            1 << 50,
            u64::MAX,
        ];
        let (mut compared, mut two_level) = (0u32, 0u32);
        for case in 0..300u32 {
            let k = 2 + rng.below(4) as usize;
            let mut co = CoRunModel::new();
            for _ in 0..k {
                // Ring sessions two times in three, corner models otherwise.
                let m = if rng.below(3) < 2 {
                    &models[rng.below(16) as usize]
                } else {
                    &models[16 + rng.below(models.len() as u64 - 16) as usize]
                };
                let lam = m.sample_count().max(1) as f64 * rates[rng.below(10) as usize];
                co.push_with_intensity(m, lam);
            }
            let random = [rng.below(1 << 20), 1 + rng.geometric(1e5), rng.next_u64()];
            for i in 0..k {
                let subject = co.members[i].model;
                let peers = co.active_peers(i);
                if peers.is_empty() {
                    continue;
                }
                // Sizes at the composed distance of some of the subject's
                // own samples: the crossing then falls on a sample.
                let mut edges = Vec::new();
                for sorted in subject.completed_levels() {
                    for _ in 0..2.min(sorted.len()) {
                        let d = sorted[rng.below(sorted.len() as u64) as usize];
                        let s = reference_shared_stack_distance(&co, i, d);
                        let (lo, hi) = (s.floor() as u64, s.ceil() as u64);
                        edges.extend([lo, hi, hi.saturating_add(1)]);
                    }
                }
                for &lines in sizes.iter().chain(&random).chain(&edges) {
                    assert_eq!(
                        shared_misses(subject, &peers, lines),
                        reference_shared_misses(subject, &peers, lines),
                        "case {case}: member {i} of {k} at {lines} lines"
                    );
                    compared += 1;
                }
                two_level += !subject.completed_levels()[1].is_empty() as u32;
            }
        }
        assert!(compared > 5_000, "only {compared} counts compared");
        assert!(two_level > 50, "only {two_level} two-level subjects");
    }

    /// The most probes [`first_miss`] may make over `len` ranks:
    /// `2⌈log₂(len + 1)⌉ + 1`.
    fn probe_bound(len: usize) -> u32 {
        2 * (usize::BITS - len.leading_zeros()) + 1
    }

    /// Run [`first_miss`] over all of `sorted` with the composed
    /// distance `f`, checking its answer against a scan and its probe
    /// count against the bound.
    fn check_search(sorted: &[u64], target: f64, f: impl Fn(u64) -> f64) {
        let mut probes = 0u32;
        let got = first_miss(
            sorted,
            0,
            sorted.len(),
            &mut Bracket::default(),
            target,
            |m| {
                probes += 1;
                f(sorted[m])
            },
        );
        let want = sorted.iter().position(|&d| f(d) >= target);
        assert_eq!(
            got,
            want.unwrap_or(sorted.len()),
            "{} ranks, target {target}",
            sorted.len()
        );
        assert!(
            probes <= probe_bound(sorted.len()),
            "{probes} probes over {} ranks, target {target}",
            sorted.len()
        );
    }

    #[test]
    fn probes_stay_within_twice_the_bisection() {
        let mut rng = XorShift64Star::new(0x920BE);
        // An empty level takes no probe.
        check_search(&[], 1.0, |_| panic!("an empty level was probed"));
        for len in [1usize, 2, 3, 7, 64, 1_000, 40_000] {
            let distinct: Vec<u64> = (0..len as u64).map(|i| 3 * i + 1).collect();
            for _ in 0..40 {
                // A step: the composed distance jumps from far below the
                // target to far above it at one rank, so every line
                // through two known points misplaces the crossing.
                let step = distinct[rng.below(len as u64) as usize];
                let low = rng.below(100) as f64;
                let target = low + 1.0 + rng.below(1 << 20) as f64;
                check_search(&distinct, target, |d| if d < step { low } else { 1e12 });
                // A steep power, where interpolation lands far from the
                // crossing.
                check_search(&distinct, target, |d| (d as f64).powi(9));
                // A single sample and all-equal distances, on both sides
                // of the target.
                let x = distinct[len - 1];
                let s = rng.below(1 << 10) as f64;
                check_search(&[x], target, |_| s);
                check_search(&vec![x; len], target, |_| s);
                // Clustered distances and a concave composed distance, as
                // stack distances compose.
                let mut clustered: Vec<u64> = (0..len)
                    .map(|_| match rng.below(3) {
                        0 => 1 + rng.below(48),
                        1 => 30_000 + rng.below(3_000),
                        _ => 400_000 + rng.below(600_000),
                    })
                    .collect();
                clustered.sort_unstable();
                let target = rng.below(1 << 21) as f64;
                check_search(&clustered, target, |d| 4.0 * (d as f64).sqrt() * 300.0);
            }
        }
    }

    #[test]
    fn composed_probes_stay_within_the_bound_on_each_level() {
        let models = ring_models(0xB00D);
        let mut rng = XorShift64Star::new(0x1E7E1);
        for case in 0..200u32 {
            let mut co = CoRunModel::new();
            for _ in 0..4 {
                co.push(&models[rng.below(16) as usize]);
            }
            let lines = [1u64 << 14, 1 << 16, 1 << 17, rng.below(1 << 21)][case as usize % 4];
            for i in 0..4 {
                let subject = co.members[i].model;
                let peers = co.active_peers(i);
                let mut counts = SharedCounts::new(subject, &peers);
                let [base, delta] = subject.completed_levels();
                let mut probes = [0u32; 2];
                let ranks = first_misses(
                    subject,
                    [0, 0],
                    [base.len(), delta.len()],
                    lines as f64,
                    |level, rank| {
                        probes[level] += 1;
                        counts.probe(level, rank)
                    },
                );
                for (level, sorted) in [base, delta].iter().enumerate() {
                    assert!(
                        probes[level] <= probe_bound(sorted.len()),
                        "case {case}: {} probes over {} ranks",
                        probes[level],
                        sorted.len()
                    );
                }
                assert_eq!(
                    subject.misses_from(ranks),
                    reference_shared_misses(subject, &peers, lines)
                );
            }
        }
    }

    /// `answer_bytes` before the halving order, verbatim but for the
    /// count: every size of every member is its own count, by
    /// [`reference_shared_misses`], and the throughput's solo ratio is a
    /// second threshold search.
    fn reference_answer_bytes(co: &CoRunModel, sizes_bytes: &[u64]) -> CoRunAnswer {
        let miss_ratio_bytes = |i: usize, bytes: u64| -> f64 {
            let m = co.members[i].model;
            let lines = bytes / m.line_bytes();
            let n = m.sample_count();
            if n == 0 {
                return 0.0;
            }
            let peers = co.active_peers(i);
            if peers.is_empty() {
                return m.miss_ratio(lines);
            }
            reference_shared_misses(m, &peers, lines) as f64 / n as f64
        };
        let per_member: Vec<Vec<f64>> = (0..co.members.len())
            .map(|i| {
                sizes_bytes
                    .iter()
                    .map(|&b| miss_ratio_bytes(i, b))
                    .collect()
            })
            .collect();
        let throughput = sizes_bytes
            .iter()
            .enumerate()
            .map(|(k, &b)| {
                let mut terms: Vec<f64> = (0..co.members.len())
                    .map(|i| {
                        let solo = co.members[i].model.miss_ratio_bytes(b);
                        let shared = per_member[i][k];
                        (1.0 + MISS_WEIGHT * solo) / (1.0 + MISS_WEIGHT * shared)
                    })
                    .collect();
                terms.sort_unstable_by(f64::total_cmp);
                terms.iter().sum()
            })
            .collect();
        CoRunAnswer {
            per_member,
            throughput,
        }
    }

    /// An answer's floats as bits, so NaN compares and `-0.0` does not
    /// equal `0.0`.
    fn bits(a: &CoRunAnswer) -> (Vec<Vec<u64>>, Vec<u64>) {
        let row = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (
            a.per_member.iter().map(|c| row(c)).collect(),
            row(&a.throughput),
        )
    }

    /// Sizes in bytes as a client may send them, shuffled: 0, 1 and
    /// `u64::MAX`, sizes of every magnitude and around the ring
    /// sessions' working sets, sizes a byte apart (equal in lines), and
    /// repeats.
    fn shuffled_sizes(rng: &mut XorShift64Star, count: u64) -> Vec<u64> {
        let mut sizes = vec![0, 1, 63, 64, 127, 128, u64::MAX - 1, u64::MAX];
        while (sizes.len() as u64) < count {
            let b = match rng.below(4) {
                0 => rng.below(1 << 16),
                1 => 64 * (1 + rng.geometric(3e4)),
                2 => 64 * (1 + rng.geometric(4e5)),
                _ => rng.next_u64() >> rng.below(64),
            };
            sizes.push(b);
            if rng.below(4) == 0 {
                sizes.push(b.saturating_add(1));
            }
            if rng.below(4) == 0 {
                sizes.push(b);
            }
        }
        for i in (1..sizes.len()).rev() {
            sizes.swap(i, rng.below(i as u64 + 1) as usize);
        }
        sizes
    }

    #[test]
    fn answers_match_the_per_size_reference_bit_for_bit() {
        let mut models = ring_models(0xA115);
        // Empty, dangling-only, plateaued, long-tailed, two-level, a
        // single sample and 128-byte lines.
        models.extend(seeded_models(0x5B1E));
        let mut rng = XorShift64Star::new(0x4A1F);
        let (mut compared, mut members) = (0u64, [0u32; 17]);
        for case in 0..96u32 {
            let k = match case % 8 {
                0 => 1,
                1 | 2 => 2 + rng.below(3) as usize,
                7 => 16,
                _ => 5 + rng.below(11) as usize,
            };
            let mut co = CoRunModel::new();
            for _ in 0..k {
                let m = &models[rng.below(models.len() as u64) as usize];
                let n = m.sample_count() as f64;
                let lam = [
                    n,
                    n,
                    3.0 * n,
                    0.0,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    1e300,
                    1e-300,
                ][rng.below(9) as usize];
                co.push_with_intensity(m, lam);
            }
            let sizes = shuffled_sizes(&mut rng, if k == 16 { 24 } else { 64 });
            assert_eq!(
                bits(&co.answer_bytes(&sizes)),
                bits(&reference_answer_bytes(&co, &sizes)),
                "case {case}: {k} members at {sizes:?}"
            );
            compared += (k * sizes.len()) as u64;
            members[k] += 1;
        }
        assert!(compared > 25_000, "only {compared} ratios compared");
        assert!(members[1] > 0 && members[16] > 0, "{members:?}");
    }

    #[test]
    fn a_closed_bracket_makes_no_probe() {
        let models = ring_models(0xC105ED);
        // A subject that keeps a delta level, next to two peers.
        let subject = &models[3];
        assert!(!subject.completed_levels()[1].is_empty());
        let peers = [(&models[1], 1.0), (&models[2], 0.5)];
        for lines in [1u64 << 10, 1 << 15, 1 << 16, 1 << 17, 1 << 20] {
            let ceil = subject.first_miss_ranks(lines);
            let ranks = SharedCounts::new(subject, &peers).first_misses(lines, [0, 0], ceil);
            let again = first_misses(subject, ranks, ranks, lines as f64, |level, rank| {
                panic!("probed rank {rank} of level {level} inside a closed bracket")
            });
            assert_eq!(again, ranks, "{lines} lines");
        }
    }

    #[test]
    fn sixteen_sessions_at_2048_sizes_stay_under_the_pinned_probe_total() {
        // One size at a time, these 32,768 counts compute 105,285
        // composed distances from an empty bracket, and 81,464 under the
        // solo ceiling; in halving order with the memo, 617.
        const PINNED: u64 = 700;
        let models = ring_models(0x414E47);
        let sizes: Vec<u64> = (1..=2048u64).map(|k| k << 12).collect();
        let mut co = CoRunModel::new();
        models.iter().for_each(|m| co.push(m));
        let mut composed = 0;
        for i in 0..co.len() {
            let peers = co.active_peers(i);
            let mut counts = SharedCounts::new(co.members[i].model, &peers);
            counts.curves(&sizes);
            composed += counts.composed;
        }
        assert!(
            composed <= PINNED,
            "{composed} composed distances for 16 × 2,048 counts"
        );
    }

    #[test]
    fn wrapped_prefix_sums_answer_bounded_ratios() {
        let wrapped = crate::model::wrapped_prefix_model();
        let others = seeded_models(0x3A9);
        let mut co = CoRunModel::new();
        co.push(&wrapped);
        co.push(&others[4]);
        co.push_with_intensity(&wrapped, 3.0);
        co.push(&others[5]);
        let mut rng = XorShift64Star::new(0x3A9);
        let mut sizes = shuffled_sizes(&mut rng, 200);
        sizes.extend((50..64).map(|k| 1u64 << k));
        let ans = co.answer_bytes(&sizes);
        for (i, curve) in ans.per_member.iter().enumerate() {
            for (&r, &b) in curve.iter().zip(&sizes) {
                assert!((0.0..=1.0).contains(&r), "member {i} at {b} B: {r}");
                let one = co.miss_ratio_bytes(i, b);
                assert!((0.0..=1.0).contains(&one), "member {i} at {b} B: {one}");
            }
        }
        assert!(ans.throughput.iter().all(|t| t.is_finite() && *t > 0.0));
    }

    #[test]
    fn kept_distances_are_what_each_rank_composes() {
        let models = ring_models(0x3E30);
        let mut co = CoRunModel::new();
        // Sessions 0, 3 and 6 keep a delta level.
        for k in [0, 3, 6, 1] {
            co.push(&models[k]);
        }
        for i in 0..co.len() {
            let peers = co.active_peers(i);
            let subject = co.members[i].model;
            let mut counts = SharedCounts::new(subject, &peers);
            counts.keep = true;
            // Every base rank, then every delta rank, twice over.
            for _ in 0..2 {
                for (level, sorted) in subject.completed_levels().into_iter().enumerate() {
                    for (rank, &d) in sorted.iter().enumerate() {
                        assert_eq!(
                            counts.probe(level, rank).to_bits(),
                            reference_shared_stack_distance(&co, i, d).to_bits(),
                            "member {i}, level {level}, rank {rank}"
                        );
                    }
                }
            }
            let [base, delta] = subject.completed_levels();
            assert_eq!(counts.composed, (base.len() + delta.len()) as u64);
        }
    }
}
