//! Co-run placement search over fitted [`StatStackModel`]s.
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
//! The search space is the set of canonical partitions (sessions
//! assigned in index order; session `s` joins an already-open group
//! with spare capacity or opens the next group — this kills group-label
//! symmetry). Three mechanisms keep it fast:
//!
//! 1. **Memoized composition.** Group costs depend only on the member
//!    *set*, and members are appended in ascending index order, so
//!    every subset is evaluated through a cache keyed on its sorted
//!    index list — each group is costed at most once across the whole
//!    search (including the brute-force baseline and the greedy seed).
//!    Per-member terms are `total_cmp`-sorted before summing so a
//!    subset's cost is a pure function of the set. Below that cache,
//!    each session keeps, for the whole search, its own stack distance
//!    and each peer's inflated term at every rank of its distances a
//!    count probed, by level and rank: a peer's term depends on the two
//!    sessions only, not on the group, so each is computed at most
//!    once, and a probe in a later group is a sort and a sum. Each
//!    count is bracketed before its first probe (see [`crate::corun`]):
//!    it misses no later than with every active session of the request
//!    as a peer, a superset of any group's peers, and no earlier than
//!    solo. Inside that bracket the opening probe, at its top rank,
//!    settles most counts. `Search::result` reads the winner's
//!    throughput terms from the same memo instead of recomposing its
//!    groups. A session's answer is the float a [`CoRunModel`] over the
//!    group computes for it.
//! 2. **Branch-and-bound pruning.** Peer-intensity monotonicity
//!    (property-tested in `corun_property.rs`: adding a peer never
//!    lowers a member's miss ratio) licenses per-session floors: on
//!    instances whose shape forces every session to share
//!    (`n-1 > (G-1)·k`, e.g. `N = G·k`), a session's final term is ≥
//!    the minimum of its shared term over forced-size peer subsets
//!    (capped at 3 peers; the solo term otherwise). The floors come
//!    from the memo: session `s`'s term with peers `P` is its entry in
//!    the evaluation of the set `{s} ∪ P`, the same float as composing
//!    `s` first, because composition does not depend on insertion
//!    order. Building the floors thus evaluates every group of
//!    `forced + 1` members once (all 70 four-member groups at the
//!    `ring` workload's `N=8, G=2, k=4`), and when groups hold
//!    `forced + 1` members the search then finds every full group
//!    already evaluated. The node bound re-minimizes those floors under each partial assignment's
//!    constraints — an assigned member's peers must include its
//!    current co-members, an unassigned session's peer subsets must
//!    still be *realizable* given group occupancy — so committing a
//!    bad pairing or filling a group with someone's only cheap peers
//!    raises the bound immediately. The incumbent the bound is tested
//!    against is the greedy seed refined by deterministic
//!    local search (single-session moves + pairwise swaps to a local
//!    optimum). Pruning requires the bound to exceed the incumbent by
//!    a relative [`PRUNE_SLACK`] (summation-order rounding headroom),
//!    so cost ties are never cut and the search returns exactly what
//!    exhaustive enumeration returns — the lexicographically least
//!    minimal assignment (ties broken on the canonical choice
//!    vector).
//!
//!    What the bound buys, single-threaded over the unit tests'
//!    `pool()` models on a 2-vCPU Xeon VM (EXPERIMENTS.md, "Co-run
//!    counts bracketed by what the request knows"): at `N=8, G=2, k=4`
//!    it explores 25–126 of 126 nodes in 0.20–0.30 ms, against
//!    0.11–0.22 ms for [`place_exhaustive`], and over ring-shaped
//!    sessions 0.30–0.32 ms against 0.17–0.26 ms. At this shape, the
//!    `ring` workload's, the bound still costs more than it saves,
//!    even where it prunes: cheap counts left the per-node bound as
//!    the difference. At `N=12, G=3, k=4` it explores 150–203 of
//!    18,378 nodes in 2.9–3.3 ms where it prunes (32 KiB, 64 KiB),
//!    against 5.5–9.4 ms exhaustive; where every grouping ties
//!    (256 KiB, 8 MiB) nothing prunes and the per-node bound makes the
//!    full walk cost 65–94 ms, against 6–10 ms.
//! 3. **Deterministic parallelism** in the style of `repf_sim::Exec`.
//!    A sequential breadth-first pass expands the tree to a
//!    thread-count-*independent* frontier (≤ [`FRONTIER_TARGET`]
//!    nodes); workers then claim frontier subtrees from an atomic
//!    cursor and run sequential branch-and-bound on each, all seeded
//!    with the same refined incumbent; results and counters are reduced
//!    in frontier order. Subtrees never share improved incumbents, so
//!    every subtree's result, `nodes_explored`, and `pruned` count is a
//!    pure function of the instance — bit-identical across thread
//!    counts (the serving layer's replay digests depend on this).
//!
//! [`place_exhaustive`] runs the same canonical enumeration with
//! pruning disabled — the brute-force baseline the `placement` bench
//! scenario compares node counts against. [`tree_nodes`] counts that
//! tree without walking it, which lets a server bound a request's work
//! before resolving any model.
//!
//! [`CoRunModel`]: crate::CoRunModel

use crate::corun::{compose, first_misses, inflate, rate, MISS_WEIGHT};
use crate::model::StatStackModel;
use repf_trace::hash::FxHashMap;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, OnceLock};

/// Sequential BFS expands the search tree until at least this many
/// frontier subtrees exist (or the tree is exhausted). Deliberately
/// *not* derived from the thread count: the frontier — and therefore
/// every counter — must be identical no matter how many workers later
/// claim subtrees from it.
const FRONTIER_TARGET: usize = 64;

/// Relative slack on the incumbent before a branch is cut. The node
/// bound sums per-session floors in a different order than a
/// completion sums its group costs, so two values that are equal in
/// real arithmetic can differ by a few ulps of rounding — without the
/// slack, a bound that *ties* the optimum could prune the subtree
/// containing it (observed on near-identical sessions, where every
/// floor is exact). 1e-9 is ~5 orders of magnitude above the rounding
/// error of summing ≤255 terms and far below any cost difference the
/// search meaningfully distinguishes.
const PRUNE_SLACK: f64 = 1e-9;

/// The searched-best assignment plus the search's own effort counters
/// (`nodes_explored`/`pruned` are part of the deterministic answer: the
/// server reports them on the wire and replay digests cover them).
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
    /// Search-tree nodes visited (root, interior, and leaf states).
    pub nodes_explored: u64,
    /// Child branches cut by the admissible bound.
    pub pruned: u64,
}

/// A partial canonical assignment: `choices[s]` is the group session
/// `s` joined (groups are opened in order, so this is a restricted
/// growth string); `groups`/`costs` are the derived member lists and
/// memoized subset costs. `costs` is summed in group order wherever a
/// partial cost is needed, so the value is a pure function of the
/// choice prefix — never of the path the search took to reach it.
#[derive(Clone)]
struct Node {
    choices: Vec<u8>,
    groups: Vec<Vec<u16>>,
    costs: Vec<f64>,
}

impl Node {
    fn root() -> Node {
        Node {
            choices: Vec::new(),
            groups: Vec::new(),
            costs: Vec::new(),
        }
    }

    fn partial(&self) -> f64 {
        self.costs.iter().sum()
    }
}

struct Subtree {
    nodes: u64,
    pruned: u64,
    best: Option<(f64, Vec<u8>)>,
}

/// Replace `best` when `(cost, choices)` is strictly better: lower
/// cost, or equal cost (`total_cmp`) with a lexicographically smaller
/// canonical choice vector. The explicit tie-break is what makes the
/// pruned search return bit-identical assignments to exhaustive
/// enumeration even on cost ties.
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

/// `Exec`-style deterministic parallel map: workers claim indices from
/// an atomic cursor, results are re-sorted by index. Bit-identical to
/// the serial path for any worker count because `f` is pure per item.
fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, AtomicOrdering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            indexed.extend(h.join().expect("placement worker panicked"));
        }
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// One group's memo slot: its cost and per-member shared miss ratios,
/// computed at most once.
type SubsetCell = Arc<OnceLock<(f64, Vec<f64>)>>;

/// One session's shared miss counts at the search's target size, across
/// every group it is costed in. A peer's term at one of the session's
/// distances depends on the two sessions only, not on the group, so
/// each is computed at most once per search.
struct Subject {
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

struct Search<'a> {
    models: &'a [&'a StatStackModel],
    intensities: &'a [f64],
    capacity: usize,
    max_groups: usize,
    /// Per-session admissible floor on its final term (solo cost, or
    /// the forced-peer-subset minimum on dense instances). Filled
    /// before the search starts; zeros for the exhaustive baseline.
    lb: Vec<f64>,
    /// Forced peer count behind `lb`/`peer_floor` (capped at 3).
    forced: usize,
    /// Per session, every forced-size peer subset with the session's
    /// shared term in that subset — the enumeration `lb` minimizes
    /// over, retained so node bounds can re-minimize under the
    /// constraints a partial assignment imposes (peers must include
    /// the current co-members and otherwise come from unassigned
    /// sessions). Empty when `forced == 0` or for the exhaustive
    /// baseline.
    peer_floor: Vec<Vec<(Vec<u16>, f64)>>,
    memo: Mutex<HashMap<Vec<u16>, SubsetCell>>,
    /// Per session, its counts' brackets and composed-distance terms.
    subjects: Vec<Mutex<Subject>>,
}

impl<'a> Search<'a> {
    fn new(
        models: &'a [&'a StatStackModel],
        intensities: &'a [f64],
        groups: u32,
        capacity: u32,
        size_bytes: u64,
    ) -> Search<'a> {
        let n = models.len();
        let subjects = models
            .iter()
            .map(|m| {
                let lines = size_bytes / m.line_bytes();
                Mutex::new(Subject {
                    lines,
                    solo: m.first_miss_ranks(lines),
                    all: None,
                    rows: Default::default(),
                    kept: Vec::new(),
                })
            })
            .collect();
        Search {
            models,
            intensities,
            capacity: capacity.min(n as u32) as usize,
            max_groups: (groups as usize).min(n),
            lb: vec![0.0; n],
            forced: 0,
            peer_floor: vec![Vec::new(); n],
            memo: Mutex::new(HashMap::new()),
            subjects,
        }
    }

    /// Memoized cost of one group: Σ over members of the shared miss
    /// ratio at the target size, terms `total_cmp`-sorted before
    /// summing. `members` is always sorted ascending (sessions are
    /// appended in index order), so the key is canonical for the set.
    /// The per-key `OnceLock` lets concurrent workers block on a
    /// subset being computed instead of recomputing it — each
    /// evaluation happens at most once across the whole search.
    fn subset_cost(&self, members: &[u16]) -> f64 {
        let cell = self.subset_entry(members);
        cell.get_or_init(|| self.eval_subset(members)).0
    }

    fn subset_entry(&self, members: &[u16]) -> SubsetCell {
        let mut map = self.memo.lock().expect("placement memo poisoned");
        match map.get(members) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(OnceLock::new());
                map.insert(members.to_vec(), Arc::clone(&c));
                c
            }
        }
    }

    fn eval_subset(&self, members: &[u16]) -> (f64, Vec<f64>) {
        let terms: Vec<f64> = members
            .iter()
            .map(|&s| self.shared_ratio(s as usize, members))
            .collect();
        let mut sorted = terms.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        (sorted.iter().sum(), terms)
    }

    /// Session `j`'s rate relative to session `i`, or `None` when it
    /// cannot inflate `i`, as in a [`CoRunModel`](crate::CoRunModel).
    fn rate(&self, i: usize, j: usize) -> Option<f64> {
        (i != j)
            .then(|| rate(self.intensities[i], self.intensities[j]))
            .flatten()
    }

    /// Session `i`'s solo miss ratio at the target size: what
    /// [`StatStackModel::miss_ratio`] returns, from the ranks every
    /// count of `i` is capped by.
    fn solo_ratio(&self, i: usize) -> f64 {
        let m = self.models[i];
        let n = m.sample_count();
        if n == 0 {
            return 0.0;
        }
        let solo = self.subjects[i].lock().expect("subject poisoned").solo;
        m.misses_from(solo) as f64 / n as f64
    }

    /// Session `i`'s shared miss ratio at the target size when grouped
    /// with `members`: the float [`CoRunModel`](crate::CoRunModel)
    /// computes for it. The count is bracketed by the session's solo
    /// ranks and by its ranks with every active session of the request
    /// as a peer — a superset of any group's, so they never miss later.
    fn shared_ratio(&self, i: usize, members: &[u16]) -> f64 {
        let m = self.models[i];
        let n = m.sample_count();
        if n == 0 {
            return 0.0;
        }
        let peers: Vec<usize> = members
            .iter()
            .map(|&j| j as usize)
            .filter(|&j| self.rate(i, j).is_some())
            .collect();
        let mut subject = self.subjects[i].lock().expect("subject poisoned");
        let ranks = if peers.is_empty() {
            subject.solo
        } else {
            let floor = match subject.all {
                Some(all) => all,
                None => {
                    let every: Vec<usize> = (0..self.models.len())
                        .filter(|&j| self.rate(i, j).is_some())
                        .collect();
                    let all = self.first_misses(i, &mut subject, [0, 0], &every);
                    subject.all = Some(all);
                    all
                }
            };
            self.first_misses(i, &mut subject, floor, &peers)
        };
        m.misses_from(ranks) as f64 / n as f64
    }

    /// Session `i`'s first-miss ranks next to `peers` (all active),
    /// known to lie between `floor` and its solo ranks.
    fn first_misses(
        &self,
        i: usize,
        subject: &mut Subject,
        floor: [usize; 2],
        peers: &[usize],
    ) -> [usize; 2] {
        let mut terms = Vec::with_capacity(peers.len());
        let (ceil, target) = (subject.solo, subject.lines as f64);
        first_misses(self.models[i], floor, ceil, target, |level, rank| {
            self.composed(i, subject, peers, level, rank, &mut terms)
        })
    }

    /// Session `i`'s `S_shared` next to `peers` (all active) at rank
    /// `rank` of level `level` of its distances, from the terms kept in
    /// `subject`'s row for that rank, computing the ones missing.
    /// `terms` holds the peer terms, reused from probe to probe.
    fn composed(
        &self,
        i: usize,
        subject: &mut Subject,
        peers: &[usize],
        level: usize,
        rank: usize,
        terms: &mut Vec<f64>,
    ) -> f64 {
        let m = self.models[i];
        let d = m.completed_levels()[level][rank];
        let width = 1 + self.models.len();
        let row = *subject.rows[level].entry(rank).or_insert_with(|| {
            let row = subject.kept.len();
            subject.kept.resize(row + width, f64::NAN);
            subject.kept[row] = m.stack_distance(d);
            row
        });
        let values = &mut subject.kept[row..row + width];
        terms.clear();
        for &j in peers {
            let t = &mut values[1 + j];
            if t.is_nan() {
                let r = self.rate(i, j).expect("peers are active");
                *t = self.models[j].stack_distance(inflate(d, r));
            }
            terms.push(*t);
        }
        compose(values[0], terms)
    }

    /// Admissible floor on member `m`'s *final* term given its current
    /// co-members `co` and the fact that any future co-member has
    /// index ≥ `next`. `term` is `m`'s shared term with exactly `co` —
    /// itself a floor (the final peer set is a superset). When the
    /// group is still short of the forced peer count, the `peer_floor`
    /// table re-minimizes under the node's constraints: a valid final
    /// peer set must contain `co` and draw the rest from unassigned
    /// sessions, so only table entries of that shape participate —
    /// conditioning that turns the near-constant global floor into a
    /// bound that rises as soon as a bad pairing is committed.
    fn member_floor(&self, m: u16, co: &[u16], term: f64, next: u16) -> f64 {
        let table = &self.peer_floor[m as usize];
        if co.len() >= self.forced || table.is_empty() {
            return term.max(self.lb[m as usize]);
        }
        // Tables are term-sorted, so the first realizable entry is the
        // conditional minimum.
        'entry: for (subset, t) in table {
            for c in co {
                if !subset.contains(c) {
                    continue 'entry;
                }
            }
            for e in subset {
                if *e < next && !co.contains(e) {
                    continue 'entry;
                }
            }
            return term.max(*t);
        }
        term.max(self.lb[m as usize])
    }

    /// Admissible floor on *unassigned* session `u`'s final term at a
    /// partial node: the cheapest forced-size peer subset `u` can
    /// still realize. An entry is realizable only if its assigned
    /// elements all sit in one group with room left for `u` plus the
    /// entry's unassigned elements — or, for all-unassigned entries,
    /// some group (existing or openable) can hold them all plus `u`.
    /// Entries whose cheap peers are locked into full groups die, so
    /// the floor rises exactly when the node forecloses good pairings.
    fn unassigned_floor(&self, u: u16, node: &Node, group_of: &[u8], next: u16) -> f64 {
        let table = &self.peer_floor[u as usize];
        if table.is_empty() {
            return self.lb[u as usize];
        }
        let can_open = node.groups.len() < self.max_groups;
        let min_len = node.groups.iter().map(Vec::len).min().unwrap_or(0);
        'entry: for (subset, t) in table {
            let mut home: Option<u8> = None;
            let mut free = 0usize;
            for &e in subset {
                if e < next {
                    let g = group_of[e as usize];
                    match home {
                        None => {
                            if node.groups[g as usize].len() >= self.capacity {
                                continue 'entry;
                            }
                            home = Some(g);
                        }
                        Some(h) if h == g => {}
                        Some(_) => continue 'entry,
                    }
                } else {
                    free += 1;
                }
            }
            let fits = match home {
                Some(g) => node.groups[g as usize].len() + 1 + free <= self.capacity,
                None => {
                    (!node.groups.is_empty() && min_len + 1 + free <= self.capacity)
                        || (can_open && free < self.capacity)
                }
            };
            if fits {
                return *t;
            }
        }
        self.lb[u as usize]
    }

    /// Admissible lower bound on the cost of any completion of a
    /// partial assignment. Assigned part: per group, Σ of per-member
    /// floors ([`Search::member_floor`]), `total_cmp`-sorted before
    /// summing so the bound equals the memoized subset cost
    /// bit-for-bit once a group is full (per-member maxing strictly
    /// dominates `max(subset cost, Σ floors)`:
    /// Σᵢ max(aᵢ, bᵢ) ≥ max(Σa, Σb)). Unassigned part: Σ of
    /// [`Search::unassigned_floor`]s in session order.
    fn node_bound(&self, node: &Node) -> f64 {
        let n = self.lb.len();
        let next = node.choices.len() as u16;
        let mut total = 0.0;
        let mut co: Vec<u16> = Vec::new();
        for members in &node.groups {
            let cell = self.subset_entry(members);
            let terms = &cell.get_or_init(|| self.eval_subset(members)).1;
            let mut vals: Vec<f64> = members
                .iter()
                .zip(terms)
                .map(|(&m, &t)| {
                    co.clear();
                    co.extend(members.iter().copied().filter(|&x| x != m));
                    self.member_floor(m, &co, t, next)
                })
                .collect();
            vals.sort_unstable_by(f64::total_cmp);
            total += vals.iter().sum::<f64>();
        }
        if (next as usize) < n {
            let mut group_of = vec![0u8; next as usize];
            for (g, members) in node.groups.iter().enumerate() {
                for &m in members {
                    group_of[m as usize] = g as u8;
                }
            }
            for u in next..n as u16 {
                total += self.unassigned_floor(u, node, &group_of, next);
            }
        }
        total
    }

    /// Member `s`'s shared term when grouped with exactly `peers`
    /// (sorted ascending, `s` not among them): its entry in the memoized
    /// evaluation of the set `{s} ∪ peers`. Composition does not depend
    /// on insertion order, so this equals composing `s` first.
    fn term_with(&self, s: u16, peers: &[u16]) -> f64 {
        let pos = peers.partition_point(|&p| p < s);
        let mut members = Vec::with_capacity(peers.len() + 1);
        members.extend_from_slice(&peers[..pos]);
        members.push(s);
        members.extend_from_slice(&peers[pos..]);
        let cell = self.subset_entry(&members);
        cell.get_or_init(|| self.eval_subset(&members)).1[pos]
    }

    /// How many peers every session is *forced* to have in any
    /// completion: session `s` can have exactly `j` peers only if the
    /// other `n-1-j` sessions fit in the remaining `g-1` groups of
    /// `capacity`, so the minimum is `max(0, n-1 - (g-1)·capacity)`.
    /// With `j_min ≥ 1` no partition ever leaves a session solo, which
    /// licenses peer-inclusive lower bounds.
    fn forced_peers(&self, n: usize) -> usize {
        let spare = (self.max_groups.saturating_sub(1)) * self.capacity;
        (n.saturating_sub(1)).saturating_sub(spare)
    }

    /// Admissible per-session lower bound on the session's final term.
    /// Monotonicity in peer intensity means a member's term with its
    /// real peer set `P` is ≥ its term with any subset of `P`; when
    /// `|P| ≥ j` is forced, `min` over all `j`-peer subsets is a valid
    /// bound. `j` is capped at 3 — the terms come from the memoized
    /// evaluations of at most `C(n,4)` four-member groups (1,820 at
    /// the wire cap of 16 sessions), and on dense instances
    /// (`N = G·k`, j_min = k−1 = 3 at k = 4) the 3-peer floor lands
    /// within a couple percent of the optimum, which is what the N=12
    /// pruning-rate floor in the bench rests on. Also returns the full
    /// enumeration table for [`Search::member_floor`]'s conditional
    /// re-minimization.
    fn session_bound(&self, s: u16, n: usize, forced: usize) -> (f64, Vec<(Vec<u16>, f64)>) {
        let solo = self.term_with(s, &[]);
        if forced == 0 {
            return (solo, Vec::new());
        }
        let peers: Vec<u16> = (0..n as u16).filter(|&p| p != s).collect();
        let mut table: Vec<(Vec<u16>, f64)> = Vec::new();
        match forced {
            1 => {
                for &p in &peers {
                    table.push((vec![p], self.term_with(s, &[p])));
                }
            }
            2 => {
                for (i, &p) in peers.iter().enumerate() {
                    for &q in &peers[i + 1..] {
                        table.push((vec![p, q], self.term_with(s, &[p, q])));
                    }
                }
            }
            _ => {
                for (i, &p) in peers.iter().enumerate() {
                    for (j, &q) in peers.iter().enumerate().skip(i + 1) {
                        for &r in &peers[j + 1..] {
                            table.push((vec![p, q, r], self.term_with(s, &[p, q, r])));
                        }
                    }
                }
            }
        }
        let mut best = f64::INFINITY;
        for (_, t) in &table {
            if t.total_cmp(&best) == std::cmp::Ordering::Less {
                best = *t;
            }
        }
        // A forced peer can only raise the term, but guard against
        // numeric noise ever producing a bound below solo.
        let floor = if best.total_cmp(&solo) == std::cmp::Ordering::Less {
            solo
        } else {
            best
        };
        (floor, table)
    }

    /// Children of a partial assignment in canonical order: join each
    /// open group with spare capacity, then (if allowed) open the next
    /// group. `N ≤ G·k` guarantees at least one child exists.
    fn children(&self, node: &Node) -> Vec<Node> {
        let s = node.choices.len() as u16;
        let mut kids = Vec::with_capacity(node.groups.len() + 1);
        for g in 0..node.groups.len() {
            if node.groups[g].len() >= self.capacity {
                continue;
            }
            let mut kid = node.clone();
            kid.choices.push(g as u8);
            kid.groups[g].push(s);
            kid.costs[g] = self.subset_cost(&kid.groups[g]);
            kids.push(kid);
        }
        if node.groups.len() < self.max_groups {
            let mut kid = node.clone();
            kid.choices.push(node.groups.len() as u8);
            kid.groups.push(vec![s]);
            let cost = self.subset_cost(kid.groups.last().expect("just pushed"));
            kid.costs.push(cost);
            kids.push(kid);
        }
        kids
    }

    /// Deterministic greedy seed: each session joins the child with
    /// the smallest partial cost (first on ties). Its cost is the
    /// incumbent every subtree search starts from.
    fn greedy(&self, n: usize) -> (f64, Vec<u8>) {
        let mut node = Node::root();
        for _ in 0..n {
            let mut kids = self.children(&node);
            let mut best_k = 0usize;
            let mut best_c = f64::INFINITY;
            for (k, kid) in kids.iter().enumerate() {
                let c = kid.partial();
                if c.total_cmp(&best_c) == std::cmp::Ordering::Less {
                    best_c = c;
                    best_k = k;
                }
            }
            node = kids.swap_remove(best_k);
        }
        (node.partial(), node.choices)
    }

    /// Deterministic local-search refinement of the greedy seed:
    /// best-improvement passes over single-session moves and pairwise
    /// swaps (strict `total_cmp` descent, first candidate in scan
    /// order on ties) until a pass finds nothing. Sequential and run
    /// before the frontier split, so the refined incumbent — like the
    /// greedy one — is a pure function of the instance. This is what
    /// lets the admissible bound actually fire on dense instances:
    /// greedy alone lands a few percent above the optimum, and every
    /// completion inside that gap survives pruning no matter how tight
    /// the bound is.
    fn refine(&self, choices: &[u8]) -> (f64, Vec<u8>) {
        let n = choices.len();
        let mut groups: Vec<Vec<u16>> = vec![Vec::new(); self.max_groups];
        for (s, &g) in choices.iter().enumerate() {
            groups[g as usize].push(s as u16);
        }
        let cost_of = |members: &[u16]| -> f64 {
            if members.is_empty() {
                0.0
            } else {
                self.subset_cost(members)
            }
        };
        let mut costs: Vec<f64> = groups.iter().map(|g| cost_of(g)).collect();

        let without = |members: &[u16], s: u16| -> Vec<u16> {
            members.iter().copied().filter(|&x| x != s).collect()
        };
        let with = |members: &[u16], s: u16| -> Vec<u16> {
            let mut v = members.to_vec();
            let pos = v.partition_point(|&x| x < s);
            v.insert(pos, s);
            v
        };

        // Strict descent over a finite partition set terminates; the
        // cap is a defensive backstop only.
        for _ in 0..n.max(1) * n.max(1) {
            let total: f64 = costs.iter().sum();
            // (new_total, a, b, new members of a, new members of b)
            type Move = (f64, usize, usize, Vec<u16>, Vec<u16>);
            let mut step: Option<Move> = None;
            let consider = |cand: Move, step: &mut Option<Move>| {
                let beats = match step {
                    None => cand.0.total_cmp(&total) == std::cmp::Ordering::Less,
                    Some((bt, ..)) => cand.0.total_cmp(bt) == std::cmp::Ordering::Less,
                };
                if beats {
                    *step = Some(cand);
                }
            };
            // Moves: session s from group a to group b. All empty
            // groups are interchangeable targets, so only the first
            // one is scanned.
            let first_empty = groups.iter().position(|g| g.is_empty());
            for s in 0..n as u16 {
                let a = groups
                    .iter()
                    .position(|g| g.contains(&s))
                    .expect("every session is in a group");
                for b in 0..groups.len() {
                    if b == a || groups[b].len() >= self.capacity {
                        continue;
                    }
                    if groups[b].is_empty() && Some(b) != first_empty {
                        continue;
                    }
                    let na = without(&groups[a], s);
                    let nb = with(&groups[b], s);
                    let nt = total - costs[a] - costs[b] + cost_of(&na) + cost_of(&nb);
                    consider((nt, a, b, na, nb), &mut step);
                }
            }
            // Swaps: s1 and s2 exchange groups.
            for s1 in 0..n as u16 {
                let a = groups
                    .iter()
                    .position(|g| g.contains(&s1))
                    .expect("every session is in a group");
                for s2 in s1 + 1..n as u16 {
                    let b = groups
                        .iter()
                        .position(|g| g.contains(&s2))
                        .expect("every session is in a group");
                    if a == b {
                        continue;
                    }
                    let na = with(&without(&groups[a], s1), s2);
                    let nb = with(&without(&groups[b], s2), s1);
                    let nt = total - costs[a] - costs[b] + cost_of(&na) + cost_of(&nb);
                    consider((nt, a, b, na, nb), &mut step);
                }
            }
            match step {
                Some((_, a, b, na, nb)) => {
                    costs[a] = cost_of(&na);
                    costs[b] = cost_of(&nb);
                    groups[a] = na;
                    groups[b] = nb;
                }
                None => break,
            }
        }

        // Canonicalize: relabel groups by first appearance in session
        // order so the result is a restricted growth string, and re-sum
        // costs in canonical group order — the exact float the search
        // computes for the same choice vector.
        let mut assign = vec![0usize; n];
        for (g, members) in groups.iter().enumerate() {
            for &s in members {
                assign[s as usize] = g;
            }
        }
        let mut relabel: Vec<Option<u8>> = vec![None; self.max_groups];
        let mut next = 0u8;
        let mut canon = Vec::with_capacity(n);
        for &g in &assign {
            let lbl = *relabel[g].get_or_insert_with(|| {
                let l = next;
                next += 1;
                l
            });
            canon.push(lbl);
        }
        let mut canon_groups: Vec<Vec<u16>> = Vec::new();
        for (s, &g) in canon.iter().enumerate() {
            if g as usize == canon_groups.len() {
                canon_groups.push(Vec::new());
            }
            canon_groups[g as usize].push(s as u16);
        }
        let cost: f64 = canon_groups.iter().map(|g| self.subset_cost(g)).sum();
        (cost, canon)
    }

    /// Sequential depth-first branch-and-bound over one subtree,
    /// pruning on [`Search::node_bound`]. With `prune` off this is
    /// exhaustive canonical enumeration with identical node
    /// accounting.
    fn bnb(&self, start: Node, n: usize, seed: Option<(f64, Vec<u8>)>, prune: bool) -> Subtree {
        let mut best = seed;
        let mut nodes = 0u64;
        let mut pruned = 0u64;
        let mut stack = vec![start];
        while let Some(node) = stack.pop() {
            nodes += 1;
            let s = node.choices.len();
            if s == n {
                fold_best(&mut best, node.partial(), &node.choices);
                continue;
            }
            for kid in self.children(&node).into_iter().rev() {
                if prune {
                    let bound = self.node_bound(&kid);
                    if let Some((bc, _)) = &best {
                        if bound > *bc * (1.0 + PRUNE_SLACK) {
                            pruned += 1;
                            continue;
                        }
                    }
                }
                stack.push(kid);
            }
        }
        Subtree {
            nodes,
            pruned,
            best,
        }
    }

    /// Rebuild the full result from a winning choice vector. All
    /// subset costs are already memoized, so this re-derives the exact
    /// floats the search compared.
    fn result(&self, choices: &[u8], nodes: u64, pruned: u64) -> PlacementResult {
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
            let cell = self.subset_entry(g);
            let shared = &cell.get_or_init(|| self.eval_subset(g)).1;
            let mut terms: Vec<f64> = g
                .iter()
                .zip(shared)
                .map(|(&s, &x)| {
                    (1.0 + MISS_WEIGHT * self.solo_ratio(s as usize)) / (1.0 + MISS_WEIGHT * x)
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
            pruned,
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

/// The exact node count of the canonical search tree for `n` sessions
/// in at most `groups` groups of at most `capacity` (`n ≤ groups ·
/// capacity`): what [`place_exhaustive`] reports as `nodes_explored`,
/// and what [`place`] visits when nothing prunes. Saturates at
/// `u64::MAX`.
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

/// Pruned, memoized, deterministically parallel placement search.
///
/// Preconditions (the serving layer validates them before calling):
/// `intensities.len() == models.len()` and `N ≤ groups · capacity`.
/// An intensity of `0.0` (or non-finite) marks an idle session exactly
/// as in [`CoRunModel::push_with_intensity`]. The result — including
/// `nodes_explored` and `pruned` — is bit-identical for every
/// `threads` value.
///
/// [`CoRunModel::push_with_intensity`]: crate::CoRunModel::push_with_intensity
pub fn place(
    models: &[&StatStackModel],
    intensities: &[f64],
    groups: u32,
    capacity: u32,
    size_bytes: u64,
    threads: usize,
) -> PlacementResult {
    check_instance(models, intensities, groups, capacity);
    let n = models.len();
    let mut search = Search::new(models, intensities, groups, capacity, size_bytes);
    if n == 0 {
        return search.result(&[], 0, 0);
    }

    // Per-session admissible floors and their enumeration tables feed
    // the node bound. When the instance shape forces every session to
    // share (j_min ≥ 1), the floor tightens from the solo term to the
    // cheapest term over forced-size peer subsets — this is what makes
    // the bound bite on dense instances (N = G·k), where solo costs
    // sit far below any reachable completion. The terms are read from
    // the subset memo, so the search reuses every group they evaluate.
    let idx: Vec<u16> = (0..n as u16).collect();
    let forced = search.forced_peers(n).min(3);
    let per_session = par_map(threads, &idx, |_, &i| search.session_bound(i, n, forced));
    let mut lb = Vec::with_capacity(n);
    let mut tables = Vec::with_capacity(n);
    for (floor, table) in per_session {
        lb.push(floor);
        // Term-sorted (ties broken on the subset) so conditional
        // floor scans can stop at the first realizable entry.
        let mut table = table;
        table.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        tables.push(table);
    }
    search.lb = lb;
    search.forced = forced;
    search.peer_floor = tables;

    let (greedy_cost, greedy_choices) = search.greedy(n);
    let (seed_cost, seed_choices) = search.refine(&greedy_choices);

    // Sequential BFS to a thread-count-independent frontier, pruning
    // against the fixed refined incumbent.
    let mut nodes = 0u64;
    let mut pruned = 0u64;
    let mut incumbent = Some((greedy_cost, greedy_choices));
    fold_best(&mut incumbent, seed_cost, &seed_choices);
    let mut frontier: VecDeque<Node> = VecDeque::from([Node::root()]);
    let mut subtrees: Vec<Node> = Vec::new();
    while let Some(node) = frontier.pop_front() {
        if subtrees.len() + frontier.len() >= FRONTIER_TARGET {
            subtrees.push(node);
            subtrees.extend(frontier.drain(..));
            break;
        }
        nodes += 1;
        let s = node.choices.len();
        if s == n {
            fold_best(&mut incumbent, node.partial(), &node.choices);
            continue;
        }
        let (gc, _) = incumbent.as_ref().expect("greedy incumbent always set");
        let gc = *gc;
        for kid in search.children(&node) {
            let bound = search.node_bound(&kid);
            if bound > gc * (1.0 + PRUNE_SLACK) {
                pruned += 1;
            } else {
                frontier.push_back(kid);
            }
        }
    }

    // Workers claim frontier subtrees; every subtree is seeded with
    // the same incumbent, so results are independent of claim order.
    let results = par_map(threads, &subtrees, |_, node| {
        search.bnb(node.clone(), n, incumbent.clone(), true)
    });
    let mut best = incumbent;
    for r in results {
        nodes += r.nodes;
        pruned += r.pruned;
        if let Some((c, ch)) = r.best {
            fold_best(&mut best, c, &ch);
        }
    }
    let (_, choices) = best.expect("n ≥ 1 always yields an assignment");
    search.result(&choices, nodes, pruned)
}

/// Exhaustive canonical enumeration — the brute-force baseline. Same
/// memo, same node accounting, no pruning and no bound, so
/// `nodes_explored` is the full canonical tree size.
pub fn place_exhaustive(
    models: &[&StatStackModel],
    intensities: &[f64],
    groups: u32,
    capacity: u32,
    size_bytes: u64,
) -> PlacementResult {
    check_instance(models, intensities, groups, capacity);
    let n = models.len();
    let search = Search::new(models, intensities, groups, capacity, size_bytes);
    if n == 0 {
        return search.result(&[], 0, 0);
    }
    let r = search.bnb(Node::root(), n, None, false);
    let (_, choices) = r.best.expect("n ≥ 1 always yields an assignment");
    search.result(&choices, r.nodes, r.pruned)
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
    fn searched_best_matches_exhaustive_on_small_instances() {
        for &(n, groups, cap) in &[
            (4usize, 2u32, 2u32),
            (5, 2, 3),
            (6, 3, 2),
            (7, 4, 2),
            (8, 2, 4),
            (8, 4, 2),
        ] {
            let models = pool(n);
            let m = refs(&models);
            let lam = default_intensities(&models);
            let bytes = 512 * 64;
            let fast = place(&m, &lam, groups, cap, bytes, 3);
            let brute = place_exhaustive(&m, &lam, groups, cap, bytes);
            assert_eq!(fast.groups, brute.groups, "n={n} G={groups} k={cap}");
            assert_eq!(
                fast.total_miss_ratio.to_bits(),
                brute.total_miss_ratio.to_bits()
            );
            assert_eq!(fast.throughput.to_bits(), brute.throughput.to_bits());
            assert!(
                fast.nodes_explored <= brute.nodes_explored,
                "pruning never explores more: {} vs {}",
                fast.nodes_explored,
                brute.nodes_explored
            );
        }
    }

    #[test]
    fn results_and_counters_are_bit_identical_across_thread_counts() {
        let models = pool(10);
        let m = refs(&models);
        let lam = default_intensities(&models);
        let base = place(&m, &lam, 3, 4, 1024 * 64, 1);
        for threads in [2usize, 4, 8] {
            let r = place(&m, &lam, 3, 4, 1024 * 64, threads);
            assert_eq!(r.groups, base.groups, "threads={threads}");
            assert_eq!(
                r.total_miss_ratio.to_bits(),
                base.total_miss_ratio.to_bits()
            );
            assert_eq!(r.throughput.to_bits(), base.throughput.to_bits());
            assert_eq!(r.nodes_explored, base.nodes_explored);
            assert_eq!(r.pruned, base.pruned);
        }
    }

    #[test]
    fn pruning_and_memoization_beat_brute_force() {
        let models = pool(10);
        let m = refs(&models);
        let lam = default_intensities(&models);
        let fast = place(&m, &lam, 3, 4, 1024 * 64, 2);
        let brute = place_exhaustive(&m, &lam, 3, 4, 1024 * 64);
        assert!(fast.pruned > 0, "bound never fired");
        assert!(
            fast.nodes_explored * 2 <= brute.nodes_explored,
            "expected ≥2x node reduction: {} vs {}",
            fast.nodes_explored,
            brute.nodes_explored
        );
        assert_eq!(
            fast.total_miss_ratio.to_bits(),
            brute.total_miss_ratio.to_bits()
        );
    }

    #[test]
    fn searched_best_is_no_worse_than_any_sampled_assignment() {
        let models = pool(8);
        let m = refs(&models);
        let lam = default_intensities(&models);
        let bytes = 768 * 64;
        let best = place(&m, &lam, 2, 4, bytes, 1);
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
        let r = place(&m, &lam, 3, 2, 256 * 64, 4);
        assert_eq!(r.groups, vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
        let brute = place_exhaustive(&m, &lam, 3, 2, 256 * 64);
        assert_eq!(r.groups, brute.groups);
        assert_eq!(
            r.total_miss_ratio.to_bits(),
            brute.total_miss_ratio.to_bits()
        );
    }

    #[test]
    fn single_group_matches_corun_directly() {
        let models = pool(4);
        let m = refs(&models);
        let lam = default_intensities(&models);
        let bytes = 512 * 64;
        let r = place(&m, &lam, 1, 4, bytes, 1);
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
        let cold = place(&m, &[1000.0, 1.0], 1, 2, 512 * 64, 1);
        let hot = place(&m, &[1000.0, 4000.0], 1, 2, 512 * 64, 1);
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
        let r = place(&m, &[], 4, 4, 1 << 20, 8);
        assert!(r.groups.is_empty());
        assert_eq!(r.nodes_explored, 0);
        assert_eq!(r.pruned, 0);
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
        // Idle sessions tie every partition, so nothing prunes and the
        // search walks the whole tree too.
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
            let brute = place_exhaustive(&m, &lam, groups, cap, 512 * 64);
            assert_eq!(
                brute.nodes_explored,
                tree_nodes(n, groups, cap),
                "{n}/{groups}/{cap}"
            );
            let idle = place(&m, &vec![0.0; n], groups, cap, 1 << 30, 1);
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
            let search = Search::new(&m, &lam, 1, n as u32, bytes);
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
            for r in [
                place(&m, &lam, 2, 3, bytes, 2),
                place_exhaustive(&m, &lam, 2, 3, bytes),
            ] {
                assert!(
                    (0.0..=6.0).contains(&r.total_miss_ratio),
                    "{bytes} B: {}",
                    r.total_miss_ratio
                );
                assert!(r.throughput.is_finite() && r.throughput > 0.0);
            }
            let search = Search::new(&m, &lam, 2, 3, bytes);
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
        let search = Search::new(&m, &lam, 1, 5, 8 << 20);
        let mut terms = Vec::new();
        for i in 0..m.len() {
            let peers: Vec<usize> = (0..m.len()).filter(|&j| j != i).collect();
            let mut subject = search.subjects[i].lock().unwrap();
            // Every base rank, then every delta rank; each with one peer,
            // then with all four, so rows fill in parts.
            for (level, sorted) in m[i].completed_levels().into_iter().enumerate() {
                for (rank, &d) in sorted.iter().enumerate() {
                    for peers in [&peers[..1], &peers[..]] {
                        let got = search.composed(i, &mut subject, peers, level, rank, &mut terms);
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
