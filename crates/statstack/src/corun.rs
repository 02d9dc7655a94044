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
//! sorted sample levels, and one search over `i`'s own sample ranks
//! finds where each suffix starts, probing `S_shared_i` at `i`'s own
//! distances only:
//! - It searches the base level first, then only the delta ranks whose
//!   distances lie strictly between the largest base distance found to
//!   hit and the smallest found to miss, as the solo threshold search
//!   does.
//! - It opens on the largest distance in play, then picks each probe by
//!   interpolating `S_shared_i` linearly in the distance between the
//!   bracket's two known points, and takes a bisection step whenever a
//!   probe fails to halve the bracket of ranks. A level of `len`
//!   samples thus costs at most `2⌈log₂(len + 1)⌉ + 1` probes, whatever
//!   `S_shared_i` looks like. Distances that cluster, as a load
//!   generator's do, usually put the crossing in a gap between
//!   clusters, where the line lands: such counts take three to five
//!   probes where a bisection takes twelve or thirteen.
//! - Each probe's `partition_point`s, into `i`'s levels and every
//!   peer's, search only the ranks earlier probes left in play. A
//!   model's count of distances below `⌊d·r⌋` is monotone in `d`, and
//!   every probe lies between the bracket's two ends, so the count lies
//!   between the counts found at those ends.
//!
//! The count is the one a full-width `partition_point` per level finds:
//! any probe order inside the bracket finds the same partition point of
//! a monotone predicate, a confined `partition_point` returns the rank a
//! full one returns, and each probe computes `S_shared_i` with the same
//! operations. The search ends whatever `S_shared_i` does past the
//! largest distance, so it needs no plateau test. (A search for the
//! threshold over all integers does: it must notice that every
//! contributing model is past its largest distance with no dangling
//! mass, or it would double its bound forever.)
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

use crate::model::{RankRange, StatStackModel};

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

    /// `j`'s interleaving rate relative to `i`, or `None` when `j`
    /// cannot inflate `i` (either side idle, or `i == j`).
    fn rate(&self, i: usize, j: usize) -> Option<f64> {
        if i == j {
            return None;
        }
        let active = |x: f64| x > 0.0 && x.is_finite();
        let li = self.members[i].intensity;
        let lj = self.members[j].intensity;
        if !active(li) || !active(lj) {
            return None;
        }
        Some(lj / li)
    }

    /// Member `i`'s active peers: each one's model and its rate
    /// relative to `i`.
    fn active_peers(&self, i: usize) -> Vec<(&'a StatStackModel, f64)> {
        (0..self.members.len())
            .filter_map(|j| Some((self.members[j].model, self.rate(i, j)?)))
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
    /// response bytes cannot diverge.
    pub fn answer_bytes(&self, sizes_bytes: &[u64]) -> CoRunAnswer {
        let per_member: Vec<Vec<f64>> = (0..self.members.len())
            .map(|i| {
                sizes_bytes
                    .iter()
                    .map(|&b| self.miss_ratio_bytes(i, b))
                    .collect()
            })
            .collect();
        let throughput = sizes_bytes
            .iter()
            .enumerate()
            .map(|(k, &b)| {
                let mut terms: Vec<f64> = (0..self.members.len())
                    .map(|i| {
                        let solo = self.members[i].model.miss_ratio_bytes(b);
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
}

/// `⌊d · r⌋`, saturating at `u64::MAX` (a peer that inflates past
/// every observed distance contributes its full unique footprint).
fn inflate(d: u64, r: f64) -> u64 {
    let x = (d as f64 * r).floor();
    if x >= u64::MAX as f64 {
        u64::MAX
    } else {
        x as u64
    }
}

/// How many of `subject`'s samples miss a shared cache of `lines`
/// lines next to `peers` (each peer's model and rate relative to the
/// subject): the completed distances `D` with `S_shared(D) ≥ lines`,
/// plus every dangling sample. `S_shared` is monotone in `D`, so the
/// misses are a suffix of each of the subject's sorted levels; one
/// [`first_miss`] search over the base ranks, then one over the delta
/// ranks the base bracket leaves, finds where each suffix starts, in at
/// most `2⌈log₂(len + 1)⌉ + 1` probes a level. (Were `S_shared` not
/// monotone, as when a model's prefix sums wrapped past `u64::MAX`,
/// the search still ends, but its count is then a function of the
/// probe order.)
fn shared_misses(subject: &StatStackModel, peers: &[(&StatStackModel, f64)], lines: u64) -> u64 {
    let target = lines as f64;
    let mut composed = Composed::new(subject, peers, target);
    let [base, delta] = subject.completed_levels();
    let mut known = Bracket::default();
    let rb = first_miss(base, 0, base.len(), &mut known, target, |d| {
        composed.probe(d)
    });
    let (lo, hi) = composed.delta_in_play(&known);
    let rd = first_miss(delta, lo, hi, &mut known, target, |d| composed.probe(d));
    (base.len() - rb + delta.len() - rd) as u64 + subject.dangling()
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

/// One subject's composed stack distance next to its peers, probed at
/// the subject's own distances. Every probe lands between the bracket's
/// two ends, and each model's count of distances below a probe is
/// monotone in the probed distance, so each `partition_point`, into the
/// subject's levels and every peer's, searches only the ranks between
/// the counts found at those two ends.
struct Composed<'a> {
    subject: &'a StatStackModel,
    peers: &'a [(&'a StatStackModel, f64)],
    target: f64,
    /// Per model, subject first: the ranks still in play, and the counts
    /// the last probe found.
    ranks: Vec<(RankRange, [usize; 2])>,
    /// The peer terms of one probe, sorted before they are summed.
    terms: Vec<f64>,
}

impl<'a> Composed<'a> {
    fn new(
        subject: &'a StatStackModel,
        peers: &'a [(&'a StatStackModel, f64)],
        target: f64,
    ) -> Self {
        let ranks = std::iter::once(subject)
            .chain(peers.iter().map(|&(p, _)| p))
            .map(|m| (m.all_ranks(), [0; 2]))
            .collect();
        Composed {
            subject,
            peers,
            target,
            ranks,
            terms: Vec::with_capacity(peers.len()),
        }
    }

    /// `S_shared(d)`: the subject's stack distance plus the peer terms
    /// summed in `total_cmp`-sorted order, which makes the sum
    /// independent of member insertion order. Every model's ranks then
    /// narrow to the side of `d` its outcome leaves in play.
    fn probe(&mut self, d: u64) -> f64 {
        let (own, found) = self.subject.stack_distance_within(d, &self.ranks[0].0);
        self.ranks[0].1 = found;
        self.terms.clear();
        for (&(peer, rate), (range, found)) in self.peers.iter().zip(&mut self.ranks[1..]) {
            let (term, at) = peer.stack_distance_within(inflate(d, rate), range);
            *found = at;
            self.terms.push(term);
        }
        self.terms.sort_unstable_by(f64::total_cmp);
        let s = own + self.terms.iter().sum::<f64>();
        let hit = s < self.target;
        for (range, found) in &mut self.ranks {
            if hit {
                range.lo = *found;
            } else {
                range.hi = *found;
            }
        }
        s
    }

    /// The subject's delta ranks that the base search leaves undecided:
    /// past every distance up to the largest known to hit, and below
    /// the smallest known to miss. The subject's own delta ranks in
    /// play already end at the latter.
    fn delta_in_play(&self, known: &Bracket) -> (usize, usize) {
        let (range, _) = self.ranks[0];
        let (lo, hi) = (range.lo[1], range.hi[1]);
        let delta = self.subject.completed_levels()[1];
        let lo = known
            .hit
            .map_or(lo, |p| lo + delta[lo..hi].partition_point(|&x| x <= p.d));
        (lo, hi)
    }
}

/// The first rank in `lo..hi` of the sorted distances `sorted` whose
/// composed stack distance, as `probe` computes it, reaches `target`
/// (`hi` if none does), when every rank below `lo` is known to hit and
/// every rank from `hi` on to miss. `known` holds the probed points
/// that bracket the crossing, and is updated with each probe.
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
    mut probe: impl FnMut(u64) -> f64,
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
            s: probe(sorted[m]),
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
mod tests {
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
    fn seeded_models(seed: u64) -> Vec<StatStackModel> {
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
    fn ring_models(seed: u64) -> Vec<StatStackModel> {
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
            |d| {
                probes += 1;
                f(d)
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
                let target = lines as f64;
                let mut composed = Composed::new(subject, &peers, target);
                let mut known = Bracket::default();
                let [base, delta] = subject.completed_levels();
                let mut probes = [0u32; 2];
                let rb = first_miss(base, 0, base.len(), &mut known, target, |d| {
                    probes[0] += 1;
                    composed.probe(d)
                });
                let (lo, hi) = composed.delta_in_play(&known);
                let rd = first_miss(delta, lo, hi, &mut known, target, |d| {
                    probes[1] += 1;
                    composed.probe(d)
                });
                for (level, sorted) in [base, delta].iter().enumerate() {
                    assert!(
                        probes[level] <= probe_bound(sorted.len()),
                        "case {case}: {} probes over {} ranks",
                        probes[level],
                        sorted.len()
                    );
                }
                assert_eq!(
                    (base.len() - rb + delta.len() - rd) as u64 + subject.dangling(),
                    reference_shared_misses(subject, &peers, lines)
                );
            }
        }
    }
}
