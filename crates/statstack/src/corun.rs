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
//! sorted sample levels, and one `partition_point` per level finds it,
//! probing `S_shared_i` at `i`'s own distances only. That search ends
//! after `log₂` of the level's length whatever `S_shared_i` does past
//! the largest distance, so it needs no plateau test. (A search for the
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

use crate::model::StatStackModel;

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
        CoRunModel { members: Vec::new() }
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
/// plus every dangling sample. `S_shared` is monotone in `D`, so one
/// `partition_point` per level of the subject's sorted distances finds
/// the count. Peer terms are summed in `total_cmp`-sorted order, which
/// makes the sum independent of member insertion order; the sort reuses
/// one buffer across probes.
fn shared_misses(subject: &StatStackModel, peers: &[(&StatStackModel, f64)], lines: u64) -> u64 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelParts;
    use repf_sampling::{DanglingSample, ReuseSample, Sampler, SamplerConfig};
    use repf_trace::patterns::{StridedStream, StridedStreamCfg};
    use repf_trace::rng::XorShift64Star;
    use repf_trace::{AccessKind, Pc};

    fn loop_model(lines: u64, passes: u32) -> StatStackModel {
        let mut src =
            StridedStream::new(StridedStreamCfg::loads(Pc(1), 0, lines * 64, 64, passes));
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
            assert_eq!(co.miss_ratio(0, lines).to_bits(), a.miss_ratio(lines).to_bits());
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
        let mut geo = |n: usize, mean: f64| -> Vec<u64> {
            (0..n).map(|_| rng.geometric(mean)).collect()
        };
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
        assert!(!two_level.completed_levels()[1].is_empty(), "delta level in use");
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
}
