//! Co-run placement over fitted [`StatStackModel`]s.
//!
//! Given `N` fitted sessions and `G` cache-sharing groups of capacity
//! `k`, find the partition minimizing the predicted aggregate shared
//! miss ratio (Σ over sessions of the [`CoRunModel`] shared-cache miss
//! ratio at one target size). The paper's argument — prefetching (and
//! performance generally) in multicores depends on *which* applications
//! share a cache — makes this the scheduling question the co-run
//! composition exists to answer: "which 4 of these 12 sessions co-run
//! best".
//!
//! [`place`] walks the whole canonical partition tree, depth first, on
//! the calling thread. A node assigns the first sessions in index
//! order: session `s` joins an already-open group with spare capacity
//! or opens the next group, which kills group-label symmetry. The walk
//! visits exactly [`tree_nodes`] nodes, a count a server can check
//! before it resolves any model. Among the leaves of least total
//! (`total_cmp`), the lexicographically least choice vector wins, so
//! the answer does not depend on the order the walk takes.
//!
//! **One cost per group.** A group's cost depends only on its member
//! *set*, and members are appended in ascending index order, so each
//! group is costed once per request, through a memo keyed on its sorted
//! member list. Per-member terms are `total_cmp`-sorted before summing,
//! so a group's cost is a pure function of the set. Below that memo,
//! each session keeps, for the whole request, its own stack distance
//! and each peer's inflated term at every rank of its distances a count
//! probed, by level and rank: a peer's term depends on the two sessions
//! only, not on the group, so each is computed at most once, and a
//! probe in a later group is a sort and a sum. Each count is bracketed
//! before its first probe (see [`crate::corun`]): it misses no later
//! than with every active session of the request as a peer, a superset
//! of any group's peers, and no earlier than solo. Inside that bracket
//! the opening probe, at its top rank, settles most counts.
//! `Search::result` reads the winner's throughput terms from the same
//! memo instead of recomposing its groups. A session's answer is the
//! float a [`CoRunModel`] over the group computes for it.
//!
//! **Why there is no bound.** The walk was once pruned by a
//! branch-and-bound: per-session floors from forced peer subsets, a
//! greedy seed refined by local search, and subtrees spread over
//! threads. Once a group was that cheap to cost, the bound at each node
//! cost more than the groups it spared, and where groupings tie it
//! prunes nothing. Timed single-threaded in process over ring-shaped
//! sessions on a 2-vCPU VM (EXPERIMENTS.md, "One placement walk"):
//!
//! | request | with the bound | the walk |
//! |---|---|---|
//! | 8 → 2×4 at 8 MiB, mean of 400 random picks of 16 | 0.55–0.58 ms | 0.24–0.26 ms |
//! | 12 → 3×4 at 64 KiB or 1 MiB | 67–108 ms | 1.2 ms |
//! | 14 → 2×14 at 1 MiB, where the bound prunes most | 0.2–0.3 ms | 21–45 ms |
//! | slowest of the 2,928 cases below | 97–108 ms | 73–95 ms |
//!
//! The cases are the 244 shapes with at most 20,000 tree nodes (the
//! serving cap), each at 64 KiB, 1 MiB and 8 MiB, over sessions of
//! 2,000 and of 10,000 samples, active or all idle: 15.0 s in all with
//! the bound, 4.4 s walked, every answer bit-identical. The bound wins
//! in 79 of them, wide two-group shapes that no caller sends.
//!
//! [`CoRunModel`]: crate::CoRunModel

use crate::corun::{compose, first_misses, inflate, rate, MISS_WEIGHT};
use crate::model::StatStackModel;
use repf_trace::hash::FxHashMap;
use std::collections::HashMap;

/// The best assignment plus the walk's node count (part of the
/// deterministic answer: the server reports it on the wire).
#[derive(Clone, Debug, PartialEq)]
pub struct PlacementResult {
    /// Non-empty groups in canonical order (ordered by smallest member
    /// index; members in ascending index order).
    pub groups: Vec<Vec<usize>>,
    /// Σ over sessions of the predicted shared miss ratio at the target
    /// size — the minimized objective.
    pub total_miss_ratio: f64,
    /// Σ over groups of the [`CoRunModel`] mix-throughput estimate at
    /// the target size (each group contributes ≤ its member count;
    /// `N` total means "no interference anywhere").
    ///
    /// [`CoRunModel`]: crate::CoRunModel
    pub throughput: f64,
    /// Tree nodes visited (root, interior, and leaf states): always
    /// [`tree_nodes`] of the instance.
    pub nodes_explored: u64,
}

/// A partial canonical assignment: `choices[s]` is the group session
/// `s` joined (groups are opened in order, so this is a restricted
/// growth string); `groups`/`costs` are the derived member lists and
/// memoized group costs. A leaf's total sums `costs` in group order, so
/// it is a pure function of the choice vector.
#[derive(Default)]
struct Node {
    choices: Vec<u8>,
    groups: Vec<Vec<u16>>,
    costs: Vec<f64>,
}

/// Replace `best` when `(cost, choices)` is strictly better: lower
/// cost, or equal cost (`total_cmp`) with a lexicographically smaller
/// canonical choice vector.
fn fold_best(best: &mut Option<(f64, Vec<u8>)>, cost: f64, choices: &[u8]) {
    let replace = match best {
        None => true,
        Some((bc, bch)) => match cost.total_cmp(bc) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => choices < &bch[..],
            std::cmp::Ordering::Greater => false,
        },
    };
    if replace {
        *best = Some((cost, choices.to_vec()));
    }
}

/// One session's shared miss counts at the request's target size,
/// across every group it is costed in. A peer's term at one of the
/// session's distances depends on the two sessions only, not on the
/// group, so each is computed at most once per request.
struct Subject<'a> {
    model: &'a StatStackModel,
    /// Each session's rate relative to this one, or `None` when it
    /// cannot inflate this one (itself, or either side idle), as in a
    /// [`CoRunModel`](crate::CoRunModel).
    rates: Vec<Option<f64>>,
    /// The target size in this session's lines.
    lines: u64,
    /// Per level, the first rank that misses solo: every count's
    /// ceiling, and the solo miss count.
    solo: [usize; 2],
    /// Per level, the first rank that misses with every active session
    /// of the request as a peer: every count's floor, found on first
    /// use.
    all: Option<[usize; 2]>,
    /// Per level (`[base, delta]`): rank → where that rank's row starts
    /// in `kept`.
    rows: [FxHashMap<usize, usize>; 2],
    /// Rows of `1 + n` values: the session's own stack distance at the
    /// rank's distance, then each session's term there (NaN until
    /// computed; never computed for itself or an idle session).
    kept: Vec<f64>,
}

impl<'a> Subject<'a> {
    fn new(
        i: usize,
        models: &[&'a StatStackModel],
        intensities: &[f64],
        size_bytes: u64,
    ) -> Subject<'a> {
        let model = models[i];
        let lines = size_bytes / model.line_bytes();
        Subject {
            model,
            rates: (0..models.len())
                .map(|j| {
                    (j != i)
                        .then(|| rate(intensities[i], intensities[j]))
                        .flatten()
                })
                .collect(),
            lines,
            solo: model.first_miss_ranks(lines),
            all: None,
            rows: Default::default(),
            kept: Vec::new(),
        }
    }

    /// The session's solo miss ratio at the target size: what
    /// [`StatStackModel::miss_ratio`] returns, from the ranks every
    /// count is capped by.
    fn solo_ratio(&self) -> f64 {
        let n = self.model.sample_count();
        if n == 0 {
            return 0.0;
        }
        self.model.misses_from(self.solo) as f64 / n as f64
    }

    /// The session's shared miss ratio at the target size when grouped
    /// with `members`: the float [`CoRunModel`](crate::CoRunModel)
    /// computes for it. The count is bracketed by the session's solo
    /// ranks and by its ranks with every active session of the request
    /// as a peer — a superset of any group's, so they never miss later.
    fn shared_ratio(&mut self, models: &[&StatStackModel], members: &[u16]) -> f64 {
        let n = self.model.sample_count();
        if n == 0 {
            return 0.0;
        }
        let peers: Vec<usize> = members
            .iter()
            .map(|&j| j as usize)
            .filter(|&j| self.rates[j].is_some())
            .collect();
        let ranks = if peers.is_empty() {
            self.solo
        } else {
            let floor = match self.all {
                Some(all) => all,
                None => {
                    let every: Vec<usize> = (0..models.len())
                        .filter(|&j| self.rates[j].is_some())
                        .collect();
                    let all = self.first_misses(models, [0, 0], &every);
                    self.all = Some(all);
                    all
                }
            };
            self.first_misses(models, floor, &peers)
        };
        self.model.misses_from(ranks) as f64 / n as f64
    }

    /// The session's first-miss ranks next to `peers` (all active),
    /// known to lie between `floor` and its solo ranks.
    fn first_misses(
        &mut self,
        models: &[&StatStackModel],
        floor: [usize; 2],
        peers: &[usize],
    ) -> [usize; 2] {
        let mut terms = Vec::with_capacity(peers.len());
        let (model, ceil, target) = (self.model, self.solo, self.lines as f64);
        first_misses(model, floor, ceil, target, |level, rank| {
            self.composed(models, peers, level, rank, &mut terms)
        })
    }

    /// The session's `S_shared` next to `peers` (all active) at rank
    /// `rank` of level `level` of its distances, from the terms kept in
    /// that rank's row, computing the ones missing. `terms` holds the
    /// peer terms, reused from probe to probe.
    fn composed(
        &mut self,
        models: &[&StatStackModel],
        peers: &[usize],
        level: usize,
        rank: usize,
        terms: &mut Vec<f64>,
    ) -> f64 {
        let m = self.model;
        let d = m.completed_levels()[level][rank];
        let width = 1 + models.len();
        let kept = &mut self.kept;
        let row = *self.rows[level].entry(rank).or_insert_with(|| {
            let row = kept.len();
            kept.resize(row + width, f64::NAN);
            kept[row] = m.stack_distance(d);
            row
        });
        let values = &mut self.kept[row..row + width];
        terms.clear();
        for &j in peers {
            let t = &mut values[1 + j];
            if t.is_nan() {
                let r = self.rates[j].expect("peers are active");
                *t = models[j].stack_distance(inflate(d, r));
            }
            terms.push(*t);
        }
        compose(values[0], terms)
    }
}

struct Search<'a> {
    models: &'a [&'a StatStackModel],
    capacity: usize,
    max_groups: usize,
    /// Each costed group's cost and per-member shared miss ratios, keyed
    /// on its sorted member list.
    memo: HashMap<Vec<u16>, (f64, Vec<f64>)>,
    /// Per session, its counts' brackets and composed-distance terms.
    subjects: Vec<Subject<'a>>,
}

impl<'a> Search<'a> {
    fn new(
        models: &'a [&'a StatStackModel],
        intensities: &[f64],
        groups: u32,
        capacity: u32,
        size_bytes: u64,
    ) -> Search<'a> {
        let n = models.len();
        Search {
            models,
            capacity: capacity.min(n as u32) as usize,
            max_groups: (groups as usize).min(n),
            memo: HashMap::new(),
            subjects: (0..n)
                .map(|i| Subject::new(i, models, intensities, size_bytes))
                .collect(),
        }
    }

    /// Memoized cost of one group: Σ over members of the shared miss
    /// ratio at the target size, terms `total_cmp`-sorted before
    /// summing. `members` is always sorted ascending (sessions are
    /// appended in index order), so the key is canonical for the set.
    fn subset_cost(&mut self, members: &[u16]) -> f64 {
        if let Some(&(cost, _)) = self.memo.get(members) {
            return cost;
        }
        let entry = self.eval_subset(members);
        let cost = entry.0;
        self.memo.insert(members.to_vec(), entry);
        cost
    }

    fn eval_subset(&mut self, members: &[u16]) -> (f64, Vec<f64>) {
        let models = self.models;
        let terms: Vec<f64> = members
            .iter()
            .map(|&s| self.subjects[s as usize].shared_ratio(models, members))
            .collect();
        let mut sorted = terms.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        (sorted.iter().sum(), terms)
    }

    /// Depth-first walk of the subtree below `node`, folding every leaf
    /// into `best`; returns the nodes visited, `node` included. Each
    /// child joins an open group with spare capacity or, if allowed,
    /// opens the next group; `N ≤ G·k` guarantees one exists.
    fn walk(&mut self, node: &mut Node, n: usize, best: &mut Option<(f64, Vec<u8>)>) -> u64 {
        let s = node.choices.len();
        if s == n {
            fold_best(best, node.costs.iter().sum(), &node.choices);
            return 1;
        }
        let open = node.groups.len();
        let mut nodes = 1;
        for g in 0..open + usize::from(open < self.max_groups) {
            if g == open {
                node.groups.push(Vec::new());
                node.costs.push(0.0);
            } else if node.groups[g].len() >= self.capacity {
                continue;
            }
            let cost = node.costs[g];
            node.groups[g].push(s as u16);
            node.costs[g] = self.subset_cost(&node.groups[g]);
            node.choices.push(g as u8);
            nodes += self.walk(node, n, best);
            node.choices.pop();
            node.groups[g].pop();
            node.costs[g] = cost;
        }
        if node.groups.len() > open {
            node.groups.pop();
            node.costs.pop();
        }
        nodes
    }

    /// Rebuild the full result from a winning choice vector. Every group
    /// cost is already memoized, so this re-derives the exact floats the
    /// walk compared.
    fn result(&mut self, choices: &[u8], nodes: u64) -> PlacementResult {
        let mut groups: Vec<Vec<u16>> = Vec::new();
        for (s, &g) in choices.iter().enumerate() {
            let g = g as usize;
            if g == groups.len() {
                groups.push(Vec::new());
            }
            groups[g].push(s as u16);
        }
        let total: f64 = groups.iter().map(|g| self.subset_cost(g)).sum();
        // Each group's mix throughput, from the shared ratios its cost
        // was summed from, as `CoRunAnswer::throughput` sums it.
        let mut throughput = 0.0;
        for g in &groups {
            let shared = &self.memo[g.as_slice()].1;
            let mut terms: Vec<f64> = g
                .iter()
                .zip(shared)
                .map(|(&s, &x)| {
                    let solo = self.subjects[s as usize].solo_ratio();
                    (1.0 + MISS_WEIGHT * solo) / (1.0 + MISS_WEIGHT * x)
                })
                .collect();
            terms.sort_unstable_by(f64::total_cmp);
            throughput += terms.iter().sum::<f64>();
        }
        PlacementResult {
            groups: groups
                .into_iter()
                .map(|g| g.into_iter().map(usize::from).collect())
                .collect(),
            total_miss_ratio: total,
            throughput,
            nodes_explored: nodes,
        }
    }
}

fn check_instance(models: &[&StatStackModel], intensities: &[f64], groups: u32, capacity: u32) {
    assert_eq!(models.len(), intensities.len(), "one intensity per session");
    assert!(
        models.len() <= u8::MAX as usize,
        "canonical choice vectors are u8 group ids"
    );
    assert!(
        models.len() as u64 <= groups as u64 * capacity as u64,
        "placement over capacity: {} sessions into {} groups of {}",
        models.len(),
        groups,
        capacity
    );
}

/// The exact node count of the canonical tree for `n` sessions in at
/// most `groups` groups of at most `capacity` (`n ≤ groups ·
/// capacity`): what [`place`] visits and reports as `nodes_explored`.
/// Saturates at `u64::MAX`.
///
/// A node at depth `s` is a canonical assignment of the first `s`
/// sessions, that is, a partition of them into at most `groups` blocks
/// of at most `capacity`. A DP over sessions placed and groups opened
/// counts them: with `part[s][b]` the partitions of `s` sessions into
/// exactly `b` groups, the group holding the last session has some
/// occupancy `j ≤ capacity`, whose other `j − 1` members come from the
/// first `s − 1` sessions, so
/// `part[s][b] = Σ_j C(s−1, j−1) · part[s−j][b−1]`.
pub fn tree_nodes(n: usize, groups: u32, capacity: u32) -> u64 {
    if n == 0 {
        return 0;
    }
    let max_groups = (groups as usize).min(n);
    let capacity = (capacity as usize).min(n);
    // choose[a][b] = C(a, b), by Pascal's rule.
    let mut choose = vec![vec![0u64; n + 1]; n + 1];
    for a in 0..=n {
        choose[a][0] = 1;
        for b in 1..=a {
            choose[a][b] = choose[a - 1][b - 1].saturating_add(choose[a - 1][b]);
        }
    }
    let mut part = vec![vec![0u64; max_groups + 1]; n + 1];
    part[0][0] = 1;
    for s in 1..=n {
        for b in 1..=max_groups {
            part[s][b] = (1..=capacity.min(s)).fold(0u64, |acc, j| {
                acc.saturating_add(choose[s - 1][j - 1].saturating_mul(part[s - j][b - 1]))
            });
        }
    }
    part.iter()
        .flatten()
        .fold(0u64, |acc, &c| acc.saturating_add(c))
}

/// Memoized walk of the whole canonical placement tree, on the calling
/// thread.
///
/// Preconditions (the serving layer validates them before calling):
/// `intensities.len() == models.len()` and `N ≤ groups · capacity`.
/// An intensity of `0.0` (or non-finite) marks an idle session exactly
/// as in [`CoRunModel::push_with_intensity`]. The walk visits
/// [`tree_nodes`] nodes, so a caller that must bound the work checks
/// that count first.
///
/// [`CoRunModel::push_with_intensity`]: crate::CoRunModel::push_with_intensity
pub fn place(
    models: &[&StatStackModel],
    intensities: &[f64],
    groups: u32,
    capacity: u32,
    size_bytes: u64,
) -> PlacementResult {
    check_instance(models, intensities, groups, capacity);
    let n = models.len();
    let mut search = Search::new(models, intensities, groups, capacity, size_bytes);
    if n == 0 {
        return search.result(&[], 0);
    }
    let mut best = None;
    let nodes = search.walk(&mut Node::default(), n, &mut best);
    let (_, choices) = best.expect("n ≥ 1 always yields an assignment");
    search.result(&choices, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corun::CoRunModel;
    use repf_sampling::{Sampler, SamplerConfig};
    use repf_trace::patterns::{StridedStream, StridedStreamCfg};
    use repf_trace::Pc;

    fn loop_model(lines: u64, passes: u32) -> StatStackModel {
        let mut src = StridedStream::new(StridedStreamCfg::loads(Pc(1), 0, lines * 64, 64, passes));
        let sampler = Sampler::new(SamplerConfig {
            sample_period: 3,
            line_bytes: 64,
            seed: 7,
        });
        StatStackModel::from_profile(&sampler.profile(&mut src))
    }

    /// A pool of mutually distinct working sets / intensities.
    fn pool(n: usize) -> Vec<StatStackModel> {
        (0..n)
            .map(|i| loop_model(48 << (i % 5), 12 + 7 * (i as u32 % 4)))
            .collect()
    }

    fn refs(models: &[StatStackModel]) -> Vec<&StatStackModel> {
        models.iter().collect()
    }

    fn default_intensities(models: &[StatStackModel]) -> Vec<f64> {
        models.iter().map(|m| m.sample_count() as f64).collect()
    }

    #[test]
    fn searched_best_is_no_worse_than_any_sampled_assignment() {
        let models = pool(8);
        let m = refs(&models);
        let lam = default_intensities(&models);
        let bytes = 768 * 64;
        let best = place(&m, &lam, 2, 4, bytes);
        // Hand-picked alternative partitions, costed through the same
        // composition the search uses.
        for alt in [
            vec![vec![0u16, 1, 2, 3], vec![4, 5, 6, 7]],
            vec![vec![0, 2, 4, 6], vec![1, 3, 5, 7]],
            vec![vec![0, 7, 1, 6], vec![2, 5, 3, 4]],
        ] {
            let mut total = 0.0;
            for g in &alt {
                let mut co = CoRunModel::new();
                let mut sorted = g.clone();
                sorted.sort_unstable();
                for &i in &sorted {
                    co.push_with_intensity(m[i as usize], lam[i as usize]);
                }
                let mut terms: Vec<f64> = (0..sorted.len())
                    .map(|p| co.miss_ratio_bytes(p, bytes))
                    .collect();
                terms.sort_unstable_by(f64::total_cmp);
                total += terms.iter().sum::<f64>();
            }
            assert!(
                best.total_miss_ratio <= total + 1e-12,
                "search missed a better partition: {} vs {}",
                best.total_miss_ratio,
                total
            );
        }
    }

    #[test]
    fn all_idle_ties_break_to_the_lexicographically_least_partition() {
        // With every session idle the shared cost equals the solo cost
        // for any grouping, so *every* partition ties — the canonical
        // winner is "fill group 0 first, then group 1, …".
        let models = pool(6);
        let m = refs(&models);
        let lam = vec![0.0; 6];
        let r = place(&m, &lam, 3, 2, 256 * 64);
        assert_eq!(r.groups, vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
    }

    #[test]
    fn single_group_matches_corun_directly() {
        let models = pool(4);
        let m = refs(&models);
        let lam = default_intensities(&models);
        let bytes = 512 * 64;
        let r = place(&m, &lam, 1, 4, bytes);
        assert_eq!(r.groups, vec![vec![0, 1, 2, 3]]);
        let mut co = CoRunModel::new();
        for i in 0..4 {
            co.push_with_intensity(m[i], lam[i]);
        }
        let mut terms: Vec<f64> = (0..4).map(|p| co.miss_ratio_bytes(p, bytes)).collect();
        terms.sort_unstable_by(f64::total_cmp);
        let expect: f64 = terms.iter().sum();
        assert_eq!(r.total_miss_ratio.to_bits(), expect.to_bits());
        assert_eq!(
            r.throughput.to_bits(),
            co.answer_bytes(&[bytes]).throughput[0].to_bits()
        );
    }

    #[test]
    fn intensity_override_changes_the_answer_surface() {
        // Same models, different declared rates: a hot peer should
        // raise the subject's predicted shared miss ratio relative to
        // the same peer declared cold (monotonicity end to end).
        let a = loop_model(256, 40);
        let b = loop_model(512, 40);
        let m: Vec<&StatStackModel> = vec![&a, &b];
        let cold = place(&m, &[1000.0, 1.0], 1, 2, 512 * 64);
        let hot = place(&m, &[1000.0, 4000.0], 1, 2, 512 * 64);
        assert!(
            hot.total_miss_ratio > cold.total_miss_ratio,
            "hot peer must cost more: {} vs {}",
            hot.total_miss_ratio,
            cold.total_miss_ratio
        );
    }

    #[test]
    fn empty_instance_is_well_defined() {
        let m: Vec<&StatStackModel> = Vec::new();
        let r = place(&m, &[], 4, 4, 1 << 20);
        assert!(r.groups.is_empty());
        assert_eq!(r.nodes_explored, 0);
        assert_eq!(r.total_miss_ratio, 0.0);
        assert_eq!(r.throughput, 0.0);
    }

    #[test]
    fn tree_nodes_counts_the_canonical_tree() {
        assert_eq!(tree_nodes(8, 2, 4), 126);
        assert_eq!(tree_nodes(12, 3, 4), 18_378);
        assert_eq!(tree_nodes(12, 12, 12), 5_034_585);
        assert_eq!(tree_nodes(16, 16, 16), 12_086_679_036);
        assert_eq!(tree_nodes(0, 4, 4), 0);
        assert_eq!(tree_nodes(255, 255, 255), u64::MAX);
        // The walk visits every node, whether groupings differ or, with
        // every session idle, all tie.
        for &(n, groups, cap) in &[
            (1usize, 1u32, 1u32),
            (3, 3, 1),
            (4, 2, 2),
            (5, 2, 3),
            (6, 3, 2),
            (6, 6, 6),
            (7, 1, 7),
            (7, 4, 2),
            (8, 2, 4),
            (8, 3, 3),
        ] {
            let models = pool(n);
            let m = refs(&models);
            let lam = default_intensities(&models);
            let active = place(&m, &lam, groups, cap, 512 * 64);
            assert_eq!(
                active.nodes_explored,
                tree_nodes(n, groups, cap),
                "{n}/{groups}/{cap}"
            );
            let idle = place(&m, &vec![0.0; n], groups, cap, 1 << 30);
            assert_eq!(
                idle.nodes_explored,
                tree_nodes(n, groups, cap),
                "{n}/{groups}/{cap}"
            );
        }
    }

    /// Ring-shaped sessions (a third keep a delta level) and the co-run
    /// tests' corner models: empty, dangling-only, plateaued,
    /// long-tailed, two-level, a single sample and 128-byte lines.
    fn mixed_models() -> Vec<StatStackModel> {
        let mut v = crate::corun::tests::ring_models(0x91ACE);
        v.extend(crate::corun::tests::seeded_models(0x91ACE));
        v
    }

    /// Every group of one to four of `n` sessions, smallest first.
    fn small_groups(n: u16) -> Vec<Vec<u16>> {
        let mut groups: Vec<Vec<u16>> = (1u32..1 << n)
            .filter(|set| set.count_ones() <= 4)
            .map(|set| (0..n).filter(|&s| set >> s & 1 == 1).collect())
            .collect();
        groups.sort_by_key(|g| g.len());
        groups
    }

    /// Every canonical choice vector of `n` sessions into at most
    /// `groups` groups of at most `capacity`, in lexicographic order.
    fn canonical_choices(n: usize, groups: usize, capacity: usize) -> Vec<Vec<u8>> {
        let mut all = vec![Vec::new()];
        for _ in 0..n {
            let mut next = Vec::new();
            for c in &all {
                let open = c.iter().map(|&g| g as usize + 1).max().unwrap_or(0);
                for g in 0..(open + 1).min(groups) {
                    if c.iter().filter(|&&x| x as usize == g).count() < capacity {
                        let mut k: Vec<u8> = c.clone();
                        k.push(g as u8);
                        next.push(k);
                    }
                }
            }
            all = next;
        }
        all
    }

    /// A brute-force reference for [`place`]: every canonical partition,
    /// each group costed through its own [`CoRunModel`], with no memo and
    /// no [`Subject`]. A group's terms are `total_cmp`-sorted before
    /// summing, and a partition's total sums its groups in order. Returns
    /// the lexicographically least partition of least total, with its
    /// total and throughput.
    fn reference(
        m: &[&StatStackModel],
        lam: &[f64],
        groups: u32,
        capacity: u32,
        bytes: u64,
    ) -> (Vec<Vec<usize>>, f64, f64) {
        let n = m.len();
        let group = |g: &[usize]| {
            let mut co = CoRunModel::new();
            for &i in g {
                co.push_with_intensity(m[i], lam[i]);
            }
            let mut terms: Vec<f64> = (0..g.len())
                .map(|p| co.miss_ratio_bytes(p, bytes))
                .collect();
            terms.sort_unstable_by(f64::total_cmp);
            let cost: f64 = terms.iter().sum();
            (cost, co.answer_bytes(&[bytes]).throughput[0])
        };
        let mut best: Option<(f64, Vec<Vec<usize>>)> = None;
        let (groups, capacity) = ((groups as usize).min(n), (capacity as usize).min(n));
        for choices in canonical_choices(n, groups, capacity) {
            let mut parts: Vec<Vec<usize>> = Vec::new();
            for (s, &g) in choices.iter().enumerate() {
                if g as usize == parts.len() {
                    parts.push(Vec::new());
                }
                parts[g as usize].push(s);
            }
            let total: f64 = parts.iter().map(|g| group(g).0).sum();
            if best
                .as_ref()
                .is_none_or(|(b, _)| total.total_cmp(b).is_lt())
            {
                best = Some((total, parts));
            }
        }
        let (total, parts) = best.expect("n ≥ 1 has a partition");
        let throughput = parts.iter().map(|g| group(g).1).sum();
        (parts, total, throughput)
    }

    #[test]
    fn place_matches_a_brute_force_reference_on_small_instances() {
        let pool = mixed_models();
        let mut rng = repf_trace::rng::XorShift64Star::new(0x9E_F00D);
        let mut case = 0usize;
        for &(n, groups, cap) in &[
            (4usize, 2u32, 2u32),
            (5, 2, 3),
            (6, 3, 2),
            (7, 4, 2),
            (8, 2, 4),
            (8, 4, 2),
        ] {
            for _ in 0..8 {
                let m: Vec<&StatStackModel> = (0..n)
                    .map(|_| &pool[rng.below(pool.len() as u64) as usize])
                    .collect();
                let lam: Vec<f64> = m
                    .iter()
                    .map(|x| {
                        let s = x.sample_count() as f64;
                        [
                            s,
                            s,
                            s,
                            0.0,
                            f64::NAN,
                            f64::INFINITY,
                            f64::NEG_INFINITY,
                            1e300,
                            1e-300,
                        ][rng.below(9) as usize]
                    })
                    .collect();
                let bytes = [16u64 << 10, 1 << 20, 8 << 20, 64 << 20][case % 4];
                case += 1;
                let r = place(&m, &lam, groups, cap, bytes);
                let (want, total, throughput) = reference(&m, &lam, groups, cap, bytes);
                let at = format!("case {case}: n={n} G={groups} k={cap} at {bytes} B, {lam:?}");
                assert_eq!(r.groups, want, "{at}");
                assert_eq!(r.total_miss_ratio.to_bits(), total.to_bits(), "{at}");
                assert_eq!(r.throughput.to_bits(), throughput.to_bits(), "{at}");
                assert_eq!(r.nodes_explored, tree_nodes(n, groups, cap), "{at}");
            }
        }
    }

    #[test]
    fn group_ratios_match_corun_in_either_evaluation_order() {
        let pool = mixed_models();
        let mut rng = repf_trace::rng::XorShift64Star::new(0x6E0);
        for case in 0..24usize {
            let n = 5 + rng.below(4) as usize;
            let m: Vec<&StatStackModel> = (0..n)
                .map(|_| &pool[rng.below(pool.len() as u64) as usize])
                .collect();
            let lam: Vec<f64> = m
                .iter()
                .map(|x| {
                    let s = x.sample_count() as f64;
                    [s, s, 2.5 * s, 0.0, f64::NAN, f64::INFINITY, 1e300, 1e-300]
                        [rng.below(8) as usize]
                })
                .collect();
            let bytes = [16u64 << 10, 1 << 20, 4 << 20, 8 << 20, 64 << 20][case % 5];
            // Smallest groups first, so a session's count with few peers
            // comes before its counts with more; or largest first.
            let mut groups = small_groups(n as u16);
            if case % 2 == 1 {
                groups.reverse();
            }
            let mut search = Search::new(&m, &lam, 1, n as u32, bytes);
            for g in &groups {
                let (cost, terms) = search.eval_subset(g);
                let mut co = CoRunModel::new();
                for &i in g {
                    co.push_with_intensity(m[i as usize], lam[i as usize]);
                }
                let mut want: Vec<f64> = (0..g.len())
                    .map(|p| co.miss_ratio_bytes(p, bytes))
                    .collect();
                for (p, (t, w)) in terms.iter().zip(&want).enumerate() {
                    assert_eq!(
                        t.to_bits(),
                        w.to_bits(),
                        "case {case}: session {} of {g:?} at {bytes} B",
                        g[p]
                    );
                }
                want.sort_unstable_by(f64::total_cmp);
                assert_eq!(cost.to_bits(), want.iter().sum::<f64>().to_bits());
            }
        }
    }

    #[test]
    fn wrapped_prefix_sums_place_within_bounds() {
        let wrapped = crate::model::wrapped_prefix_model();
        let others = pool(4);
        let m: Vec<&StatStackModel> = vec![
            &wrapped, &others[0], &wrapped, &others[1], &others[2], &others[3],
        ];
        let mut lam: Vec<f64> = m.iter().map(|x| x.sample_count() as f64).collect();
        lam[2] = 3.0;
        for bytes in [64u64, 1 << 20, 8 << 20, 1 << 40, 1 << 62, u64::MAX] {
            let r = place(&m, &lam, 2, 3, bytes);
            assert!(
                (0.0..=6.0).contains(&r.total_miss_ratio),
                "{bytes} B: {}",
                r.total_miss_ratio
            );
            assert!(r.throughput.is_finite() && r.throughput > 0.0);
            let mut search = Search::new(&m, &lam, 2, 3, bytes);
            for g in small_groups(6) {
                let (_, terms) = search.eval_subset(&g);
                assert!(
                    terms.iter().all(|t| (0.0..=1.0).contains(t)),
                    "{bytes} B, {g:?}: {terms:?}"
                );
            }
        }
    }

    #[test]
    fn kept_terms_compose_what_each_rank_composes() {
        let pool = mixed_models();
        // Ring sessions 0, 3 and 6 keep a delta level.
        let m: Vec<&StatStackModel> = [0, 3, 6, 1, 2].iter().map(|&k| &pool[k]).collect();
        let lam = [1.0, 2_000.0, 40.0, 700.0, 5_000.0];
        let mut search = Search::new(&m, &lam, 1, 5, 8 << 20);
        let mut terms = Vec::new();
        for i in 0..m.len() {
            let peers: Vec<usize> = (0..m.len()).filter(|&j| j != i).collect();
            let subject = &mut search.subjects[i];
            // Every base rank, then every delta rank; each with one peer,
            // then with all four, so rows fill in parts.
            for (level, sorted) in m[i].completed_levels().into_iter().enumerate() {
                for (rank, &d) in sorted.iter().enumerate() {
                    for peers in [&peers[..1], &peers[..]] {
                        let got = subject.composed(&m, peers, level, rank, &mut terms);
                        let mut want: Vec<f64> = peers
                            .iter()
                            .map(|&j| m[j].stack_distance(inflate(d, lam[j] / lam[i])))
                            .collect();
                        let want = compose(m[i].stack_distance(d), &mut want);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "session {i}, level {level}, rank {rank}, peers {peers:?}"
                        );
                    }
                }
            }
        }
    }
}
