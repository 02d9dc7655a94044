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
//! access misses a shared cache of `L` lines iff `S_shared ≥ L`, so the
//! per-member shared miss ratio is answered exactly like the solo model:
//! find the smallest distance whose composed stack distance reaches `L`
//! and count the samples at or beyond it.
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

    fn has_active_peer(&self, i: usize) -> bool {
        (0..self.members.len()).any(|j| self.rate(i, j).is_some())
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

    /// Composed stack distance member `i` observes for solo reuse
    /// distance `d`. Peer terms are summed in `total_cmp`-sorted order
    /// so the result is independent of member insertion order.
    fn shared_stack_distance(&self, i: usize, d: u64) -> f64 {
        let mut peers: Vec<f64> = (0..self.members.len())
            .filter_map(|j| {
                let r = self.rate(i, j)?;
                Some(self.members[j].model.stack_distance(Self::inflate(d, r)))
            })
            .collect();
        peers.sort_unstable_by(f64::total_cmp);
        self.members[i].model.stack_distance(d) + peers.iter().sum::<f64>()
    }

    /// Smallest solo reuse distance whose composed stack distance
    /// reaches `lines`, or `None` when no finite distance does (then
    /// only member `i`'s dangling samples miss). Mirrors
    /// [`StatStackModel::distance_threshold`], with the plateau test
    /// extended over every active member: the composed `S` stops
    /// growing only once *all* contributing models are past their
    /// largest observed distance with no dangling mass.
    fn shared_distance_threshold(&self, i: usize, lines: u64) -> Option<u64> {
        if lines == 0 {
            return Some(0);
        }
        let target = lines as f64;
        let subject = self.members[i].model;
        // Past `cap`, every contributing survival function is
        // dangling-only; if none has dangling mass, S has plateaued.
        let mut cap = subject.max_distance().saturating_add(1);
        let mut dangling_free = subject.dangling() == 0;
        for j in 0..self.members.len() {
            let Some(r) = self.rate(i, j) else { continue };
            let m = self.members[j].model;
            let peer_cap = ((m.max_distance() as f64 + 1.0) / r).ceil();
            let peer_cap = if peer_cap >= u64::MAX as f64 {
                u64::MAX
            } else {
                (peer_cap as u64).saturating_add(1)
            };
            cap = cap.max(peer_cap);
            // An empty peer model answers the worst case S(d) = d, which
            // never plateaus — treat it as dangling mass.
            dangling_free &= m.dangling() == 0 && m.sample_count() > 0;
        }
        let mut hi = lines.max(1);
        loop {
            if self.shared_stack_distance(i, hi) >= target {
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
            if self.shared_stack_distance(i, mid) >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
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
        if !self.has_active_peer(i) {
            return m.miss_ratio(lines);
        }
        m.misses_at(self.shared_distance_threshold(i, lines)) as f64 / n as f64
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

#[cfg(test)]
mod tests {
    use super::*;
    use repf_sampling::{Sampler, SamplerConfig};
    use repf_trace::patterns::{StridedStream, StridedStreamCfg};
    use repf_trace::Pc;

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
}
