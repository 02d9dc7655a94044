//! Pointer chasing over a random permutation — the access pattern of linked
//! data structures (*mcf* arcs, *omnetpp* event heap, *xalan* DOM nodes).
//! Irregular per-instruction strides make these loads unprefetchable by the
//! paper's stride analysis, which is exactly the behaviour the low-coverage
//! rows of Table I exercise.
//!
//! ## The order walk
//!
//! Nodes are chained in address-sequential runs, and Sattolo's shuffle of
//! the run indices is itself the cycle order of the runs: the run at
//! position k of the shuffled array is followed by the run at k + 1,
//! wrapping. So the chase keeps that array (one `u32` per run) and
//! walks it: the successor of a node is the next node of its run, or the
//! first node of the run at the next position. A pass and a reset return
//! to node 0 at the position of run 0. Nothing else is built: no
//! successor table with one entry per node, which a chase over half a
//! million nodes used to fill (2 MiB, plus the shuffled array it was
//! scattered from) although a short run visits a few hundred of them.

use crate::mem::{MemRef, Pc};
use crate::rng::XorShift64Star;
use crate::source::TraceSource;

/// Configuration for [`PointerChase`].
#[derive(Clone, Debug)]
pub struct PointerChaseCfg {
    /// PC of the `node = node->next` load.
    pub chase_pc: Pc,
    /// Extra payload loads at successive 8-byte offsets within the node,
    /// one PC each. Payload loads usually hit the line fetched by the chase
    /// load — they are the *data-reusing loads* of the paper's
    /// cache-bypassing analysis (§VI-B).
    pub payload_pcs: Vec<Pc>,
    /// Base address of the node array.
    pub base: u64,
    /// Node size in bytes (≥ 8, typically one or two cache lines).
    pub node_bytes: u64,
    /// Number of nodes in the structure.
    pub nodes: u32,
    /// Node visits per pass.
    pub steps_per_pass: u64,
    /// Number of passes before the stream ends.
    pub passes: u32,
    /// RNG seed for the permutation.
    pub seed: u64,
    /// Heap-locality run length: nodes are chained in address-sequential
    /// runs of this length, with run order randomized. `1` = fully random
    /// (Sattolo cycle). Real pointer structures are allocated roughly in
    /// traversal order, so short runs (2–4) are typical — and they are
    /// what tricks hardware streamers into useless tail prefetches.
    pub run_len: u32,
}

/// Pointer chase over a single random cycle (Sattolo permutation) of
/// `nodes` nodes. See [`PointerChaseCfg`].
#[derive(Clone, Debug)]
pub struct PointerChase {
    cfg: PointerChaseCfg,
    /// The runs in cycle order: run `order[k]` is followed by run
    /// `order[k + 1]`, and the last by the first.
    order: Vec<u32>,
    /// Nodes per run; 1 when the nodes make fewer than two runs.
    run_len: u32,
    /// Position of run 0, which node 0 heads, in `order`.
    head_pos: u32,
    /// The node being visited.
    cur: u32,
    /// Position of `cur`'s run in `order`.
    pos: u32,
    /// One past the last node of `cur`'s run.
    run_end: u32,
    step: u64,
    pass: u32,
    /// pending payload refs for the current node (index into payload_pcs)
    payload_ix: usize,
    emitting_payload: bool,
}

impl PointerChase {
    /// Build the chase; panics when `nodes < 2` or `node_bytes < 8`.
    pub fn new(cfg: PointerChaseCfg) -> Self {
        assert!(cfg.nodes >= 2, "need at least two nodes to chase");
        assert!(cfg.node_bytes >= 8, "nodes must hold a pointer");
        assert!(cfg.run_len >= 1, "run length must be at least 1");
        let runs = cfg.nodes.div_ceil(cfg.run_len);
        let run_len = if runs < 2 { 1 } else { cfg.run_len };
        let order = sattolo_order(cfg.nodes.div_ceil(run_len), cfg.seed);
        let head_pos = order
            .iter()
            .position(|&r| r == 0)
            .expect("run 0 is in the order") as u32;
        let mut chase = PointerChase {
            cfg,
            order,
            run_len,
            head_pos,
            cur: 0,
            pos: 0,
            run_end: 0,
            step: 0,
            pass: 0,
            payload_ix: 0,
            emitting_payload: false,
        };
        chase.restart();
        chase
    }

    /// The configuration this chase was built from.
    pub fn cfg(&self) -> &PointerChaseCfg {
        &self.cfg
    }

    #[inline]
    fn node_addr(&self, node: u32) -> u64 {
        self.cfg.base + node as u64 * self.cfg.node_bytes
    }

    /// Visit the first node of the run at position `pos`.
    #[inline]
    fn enter_run(&mut self) {
        self.cur = self.order[self.pos as usize] * self.run_len;
        self.run_end = self.cur.saturating_add(self.run_len).min(self.cfg.nodes);
    }

    /// Go back to node 0, the head node.
    fn restart(&mut self) {
        self.pos = self.head_pos;
        self.enter_run();
    }

    /// Step to the successor of `cur`: the next node of its run, or the
    /// head of the run after it in the cycle order.
    #[inline]
    fn advance(&mut self) {
        self.cur += 1;
        if self.cur == self.run_end {
            self.pos += 1;
            if self.pos as usize == self.order.len() {
                self.pos = 0;
            }
            self.enter_run();
        }
    }
}

/// Sattolo's algorithm: a uniformly random cyclic order of `0..n`, so a
/// chase that walks it from any position visits every item before
/// repeating.
fn sattolo_order(n: u32, seed: u64) -> Vec<u32> {
    let mut items: Vec<u32> = (0..n).collect();
    let mut rng = XorShift64Star::new(seed);
    let mut i = n as usize - 1;
    while i > 0 {
        let j = rng.below(i as u64) as usize; // j in [0, i)
        items.swap(i, j);
        i -= 1;
    }
    items
}

impl TraceSource for PointerChase {
    #[inline]
    fn next_ref(&mut self) -> Option<MemRef> {
        if self.emitting_payload {
            let pc = self.cfg.payload_pcs[self.payload_ix];
            let addr = self.node_addr(self.cur) + 8 * (self.payload_ix as u64 + 1);
            self.payload_ix += 1;
            if self.payload_ix == self.cfg.payload_pcs.len() {
                self.emitting_payload = false;
                self.payload_ix = 0;
                // A chase load that closed a pass left `step` at 0: the
                // next pass restarts from the head node.
                if self.step == 0 {
                    self.restart();
                } else {
                    self.advance();
                }
            }
            return Some(MemRef::load(pc, addr));
        }
        if self.pass >= self.cfg.passes {
            return None;
        }
        let addr = self.node_addr(self.cur);
        let r = MemRef::load(self.cfg.chase_pc, addr);
        if self.cfg.payload_pcs.is_empty() {
            self.advance();
        } else {
            self.emitting_payload = true;
        }
        self.step += 1;
        if self.step == self.cfg.steps_per_pass {
            self.step = 0;
            self.pass += 1;
            // A pass restarts from the head node, like re-entering the
            // program's outer loop.
            if !self.emitting_payload {
                self.restart();
            }
        }
        Some(r)
    }

    fn reset(&mut self) {
        self.restart();
        self.step = 0;
        self.pass = 0;
        self.payload_ix = 0;
        self.emitting_payload = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::TraceSourceExt;

    /// Single-cycle successor permutation with address-sequential runs of
    /// `run_len` nodes: within a run, `next[i] = i + 1`; run heads are
    /// chained in a random (Sattolo) cycle over the runs. `run_len == 1`
    /// degenerates to a plain random cycle. The successor table the chase
    /// walked before it walked [`sattolo_order`] itself.
    fn run_cycle(n: u32, run_len: u32, seed: u64) -> Vec<u32> {
        if run_len <= 1 {
            return sattolo_cycle(n, seed);
        }
        let runs: u32 = n.div_ceil(run_len);
        if runs < 2 {
            return sattolo_cycle(n, seed);
        }
        let run_order = sattolo_cycle(runs, seed);
        let mut next = vec![0u32; n as usize];
        for run in 0..runs {
            let start = run * run_len;
            let end = ((run + 1) * run_len).min(n);
            for i in start..end - 1 {
                next[i as usize] = i + 1;
            }
            next[(end - 1) as usize] = run_order[run as usize] * run_len;
        }
        next
    }

    /// The successor table of [`sattolo_order`]'s cycle.
    fn sattolo_cycle(n: u32, seed: u64) -> Vec<u32> {
        let items = sattolo_order(n, seed);
        let mut next = vec![0u32; n as usize];
        for k in 0..n as usize {
            next[items[k] as usize] = items[(k + 1) % n as usize];
        }
        next
    }

    /// The chase as it was when it walked a successor table with one
    /// entry per node: the reference [`PointerChase`] must match.
    struct ReferenceChase {
        cfg: PointerChaseCfg,
        next: Vec<u32>,
        cur: u32,
        step: u64,
        pass: u32,
        payload_ix: usize,
        emitting_payload: bool,
    }

    impl ReferenceChase {
        fn new(cfg: PointerChaseCfg) -> Self {
            let next = run_cycle(cfg.nodes, cfg.run_len, cfg.seed);
            ReferenceChase {
                cfg,
                next,
                cur: 0,
                step: 0,
                pass: 0,
                payload_ix: 0,
                emitting_payload: false,
            }
        }

        fn node_addr(&self, node: u32) -> u64 {
            self.cfg.base + node as u64 * self.cfg.node_bytes
        }
    }

    impl TraceSource for ReferenceChase {
        fn next_ref(&mut self) -> Option<MemRef> {
            if self.emitting_payload {
                let pc = self.cfg.payload_pcs[self.payload_ix];
                let addr = self.node_addr(self.cur) + 8 * (self.payload_ix as u64 + 1);
                self.payload_ix += 1;
                if self.payload_ix == self.cfg.payload_pcs.len() {
                    self.emitting_payload = false;
                    self.payload_ix = 0;
                    self.cur = if self.step == 0 {
                        0
                    } else {
                        self.next[self.cur as usize]
                    };
                }
                return Some(MemRef::load(pc, addr));
            }
            if self.pass >= self.cfg.passes {
                return None;
            }
            let r = MemRef::load(self.cfg.chase_pc, self.node_addr(self.cur));
            if self.cfg.payload_pcs.is_empty() {
                self.cur = self.next[self.cur as usize];
            } else {
                self.emitting_payload = true;
            }
            self.step += 1;
            if self.step == self.cfg.steps_per_pass {
                self.step = 0;
                self.pass += 1;
                if !self.emitting_payload {
                    self.cur = 0;
                }
            }
            Some(r)
        }

        fn reset(&mut self) {
            self.cur = 0;
            self.step = 0;
            self.pass = 0;
            self.payload_ix = 0;
            self.emitting_payload = false;
        }
    }

    #[test]
    fn the_order_walk_matches_the_successor_table_walk() {
        let mut cases = 0;
        for nodes in [2u32, 5, 97, 1_000, 1_001, 4_096] {
            for run_len in [
                1,
                2,
                3,
                4,
                nodes / 2,
                nodes - 1,
                nodes,
                nodes + 1,
                3 * nodes,
            ] {
                if run_len == 0 {
                    continue;
                }
                for seed in [0, 42, 0xdead_beef] {
                    for payload in 0..=3 {
                        for passes in 1..=3 {
                            for steps_per_pass in [
                                1,
                                nodes as u64 / 3 + 1,
                                nodes as u64,
                                nodes as u64 + 7,
                                2 * nodes as u64 + 1,
                            ] {
                                let cfg = PointerChaseCfg {
                                    nodes,
                                    run_len,
                                    seed,
                                    passes,
                                    steps_per_pass,
                                    ..cfg(nodes, payload)
                                };
                                let mut walk = PointerChase::new(cfg.clone());
                                let mut reference = ReferenceChase::new(cfg);
                                let whole = reference.collect_refs(u64::MAX);
                                assert_eq!(walk.collect_refs(u64::MAX), whole, "{nodes} nodes, runs of {run_len}, seed {seed}, {payload} payloads, {passes} passes of {steps_per_pass}");
                                assert_eq!(walk.next_ref(), None);
                                // A reset from the end and from part way both replay the stream.
                                walk.reset();
                                assert_eq!(walk.collect_refs(u64::MAX), whole);
                                walk.reset();
                                walk.collect_refs(whole.len() as u64 / 3);
                                walk.reset();
                                assert_eq!(walk.collect_refs(u64::MAX), whole);
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 6 * 9 * 3 * 4 * 3 * 5);
    }

    fn cfg(nodes: u32, payload: usize) -> PointerChaseCfg {
        PointerChaseCfg {
            chase_pc: Pc(10),
            payload_pcs: (0..payload).map(|i| Pc(11 + i as u32)).collect(),
            base: 1 << 20,
            node_bytes: 64,
            nodes,
            steps_per_pass: nodes as u64,
            passes: 1,
            seed: 42,
            run_len: 1,
        }
    }

    #[test]
    fn visits_every_node_once_per_cycle() {
        let mut c = PointerChase::new(cfg(128, 0));
        let refs = c.collect_refs(10_000);
        assert_eq!(refs.len(), 128);
        let mut seen: Vec<u64> = refs.iter().map(|r| r.addr).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 128, "single cycle must visit all nodes");
    }

    #[test]
    fn payload_loads_follow_chase_load() {
        let mut c = PointerChase::new(cfg(16, 2));
        let refs = c.collect_refs(6);
        assert_eq!(refs[0].pc, Pc(10));
        assert_eq!(refs[1].pc, Pc(11));
        assert_eq!(refs[2].pc, Pc(12));
        assert_eq!(refs[3].pc, Pc(10));
        // Payloads stay within the node just chased.
        assert_eq!(refs[1].addr, refs[0].addr + 8);
        assert_eq!(refs[2].addr, refs[0].addr + 16);
    }

    #[test]
    fn reset_replays() {
        let mut c = PointerChase::new(PointerChaseCfg {
            passes: 2,
            ..cfg(64, 1)
        });
        let a = c.collect_refs(100_000);
        c.reset();
        let b = c.collect_refs(100_000);
        assert_eq!(a, b);
    }

    #[test]
    fn a_pass_restarts_at_the_head_node_with_payloads_too() {
        // Every pass starts at node 0, and the chase loads visit the same
        // nodes whether or not payload loads follow each of them.
        let chase_addrs = |payload: usize| -> Vec<u64> {
            let mut c = PointerChase::new(PointerChaseCfg {
                steps_per_pass: 5,
                passes: 2,
                ..cfg(16, payload)
            });
            let refs = c.collect_refs(1_000);
            assert_eq!(refs.len(), 10 * (1 + payload));
            refs.iter()
                .filter(|r| r.pc == Pc(10))
                .map(|r| r.addr)
                .collect()
        };
        let plain = chase_addrs(0);
        assert_eq!(plain[0], 1 << 20);
        assert_eq!(plain[5], 1 << 20, "the second pass starts at node 0");
        for payload in 1..=3 {
            assert_eq!(chase_addrs(payload), plain, "{payload} payload(s)");
        }
    }

    #[test]
    fn strides_are_irregular() {
        let mut c = PointerChase::new(cfg(1024, 0));
        let refs = c.collect_refs(1024);
        let mut stride_counts = std::collections::HashMap::new();
        for w in refs.windows(2) {
            *stride_counts
                .entry(w[1].addr as i64 - w[0].addr as i64)
                .or_insert(0u32) += 1;
        }
        let max = stride_counts.values().copied().max().unwrap();
        assert!(
            (max as f64) < 0.1 * refs.len() as f64,
            "no stride should dominate a pointer chase (max count {max})"
        );
    }

    #[test]
    fn seeds_change_permutation() {
        let a = sattolo_cycle(256, 1);
        let b = sattolo_cycle(256, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn permutation_is_single_cycle() {
        for seed in 0..5 {
            let next = sattolo_cycle(97, seed);
            let mut cur = 0u32;
            for _ in 0..96 {
                cur = next[cur as usize];
                assert_ne!(cur, 0, "returned to start too early");
            }
            assert_eq!(next[cur as usize], 0, "must close the cycle");
        }
    }
}
