//! Builders for the 12 single-threaded workload analogs (see the crate
//! docs for the mapping rationale).
//!
//! Component weights are chosen so the *miss share* of the prefetchable
//! (regular-stride) components approximates each benchmark's Table I miss
//! coverage, and the stride *kinds* (exact vs alternating-within-a-line-
//! group) reproduce the MDDLI-filtered vs stride-centric coverage gaps.

use crate::alt_stride::{AlternatingStride, AlternatingStrideCfg};
use crate::ids::{BenchmarkId, BuildOptions};
use crate::workload::Workload;
use repf_trace::patterns::{
    BurstStride, BurstStrideCfg, Gather, GatherCfg, Mix, MixEnd, PointerChase, PointerChaseCfg,
    StridedStream, StridedStreamCfg,
};
use repf_trace::rng::sub_seed;
use repf_trace::{Pc, TraceSource, TraceSourceExt};

/// Default solo-run length in references.
pub const NOMINAL_REFS: u64 = 2_000_000;

/// Build context: input scaling, seeding and address placement.
struct Ctx {
    scale: f64,
    seed: u64,
    off: u64,
}

impl Ctx {
    fn new(id: BenchmarkId, opts: &BuildOptions) -> Self {
        Ctx {
            scale: opts.input.scale(),
            seed: sub_seed(0xbe7c_4a11, id as u64) ^ opts.input.seed_salt(),
            off: opts.addr_offset,
        }
    }

    /// Scaled size, 4 KB-aligned so strides always divide regions sanely.
    fn sz(&self, bytes: u64) -> u64 {
        let scaled = (bytes as f64 * self.scale) as u64;
        scaled.next_multiple_of(4096).max(4096)
    }

    /// Scaled element count.
    fn n(&self, count: u64) -> u64 {
        ((count as f64 * self.scale) as u64).max(16)
    }

    /// Base address of logical region `k` (4 GB apart — disjoint even for
    /// the largest scaled working sets). Bases are staggered by a
    /// set-skewing offset so concurrent streams do not march through the
    /// same cache sets in lockstep (real heaps never align like that).
    fn region(&self, k: u64) -> u64 {
        self.off + (k << 32) + k * 8256
    }

    fn sub(&self, k: u64) -> u64 {
        sub_seed(self.seed, k)
    }
}

type Part = (Box<dyn TraceSource>, u32);

fn stream(pc: u32, base: u64, len: u64, stride: i64) -> Box<dyn TraceSource> {
    Box::new(StridedStream::new(StridedStreamCfg::loads(
        Pc(pc),
        base,
        len,
        stride,
        1,
    )))
}

fn rw_stream(
    pc: u32,
    store_pc: u32,
    base: u64,
    len: u64,
    stride: i64,
    store_period: u32,
) -> Box<dyn TraceSource> {
    Box::new(StridedStream::new(StridedStreamCfg {
        pc: Pc(pc),
        store_pc: Pc(store_pc),
        base,
        len_bytes: len,
        stride,
        passes: 1,
        store_period,
        store_offset: 0,
    }))
}

fn alt(pc: u32, base: u64, len: u64, a: u64, b: u64) -> Box<dyn TraceSource> {
    Box::new(AlternatingStride::new(AlternatingStrideCfg {
        pc: Pc(pc),
        base,
        len_bytes: len,
        stride_a: a,
        stride_b: b,
        passes: 1,
    }))
}

/// A pointer chase with heap-locality runs: `run_len` > 1 models
/// allocation-order traversal locality, which is what baits hardware
/// streamers into useless tail prefetches on pointer-heavy codes.
fn chase(
    pc: u32,
    payloads: u32,
    base: u64,
    nodes: u64,
    seed: u64,
    run_len: u32,
) -> Box<dyn TraceSource> {
    chase_nodes(pc, payloads, base, nodes, seed, run_len, 64)
}

/// [`chase`] with an explicit node size. 128-byte nodes defeat the
/// adjacent-line prefetcher (the buddy line is the never-touched second
/// half of the node), which is how the DOM/heap-heavy codes keep Intel's
/// spatial prefetcher from accidentally helping.
#[allow(clippy::too_many_arguments)]
fn chase_nodes(
    pc: u32,
    payloads: u32,
    base: u64,
    nodes: u64,
    seed: u64,
    run_len: u32,
    node_bytes: u64,
) -> Box<dyn TraceSource> {
    let nodes = nodes.min(u32::MAX as u64) as u32;
    Box::new(PointerChase::new(PointerChaseCfg {
        chase_pc: Pc(pc),
        payload_pcs: (0..payloads).map(|i| Pc(pc + 1 + i)).collect(),
        base,
        node_bytes,
        nodes,
        steps_per_pass: nodes as u64,
        passes: 1,
        seed,
        run_len,
    }))
}

/// A small L1-resident loop standing in for the compute-dominated part of
/// a benchmark (and for the miss-latency overlap a real out-of-order core
/// extracts). 16 kB fits the L1 of both modelled machines, so these
/// references never stall and dilute the workload's memory intensity to
/// the benchmark's measured level.
fn hot(pc: u32, base: u64) -> Box<dyn TraceSource> {
    stream(pc, base, 16 << 10, 64)
}

fn gather(
    idx_pc: u32,
    data_pc: u32,
    idx_base: u64,
    data_base: u64,
    data_elems: u64,
    locality: f64,
    seed: u64,
) -> Box<dyn TraceSource> {
    Box::new(Gather::new(GatherCfg {
        index_pc: Pc(idx_pc),
        data_pc: Pc(data_pc),
        index_base: idx_base,
        index_stride: 4,
        data_base,
        data_elems,
        data_elem_bytes: 8,
        index_len: 1 << 20,
        passes: 1,
        locality,
        locality_window: 96,
        seed,
    }))
}

/// Build the analog for `id` with the given options.
pub fn build(id: BenchmarkId, opts: &BuildOptions) -> Workload {
    let c = Ctx::new(id, opts);
    let (parts, base_cpr): (Vec<Part>, f64) = match id {
        BenchmarkId::Gcc => gcc(&c),
        BenchmarkId::Libquantum => libquantum(&c),
        BenchmarkId::Lbm => lbm(&c),
        BenchmarkId::Mcf => mcf(&c),
        BenchmarkId::Omnetpp => omnetpp(&c),
        BenchmarkId::Soplex => soplex(&c),
        BenchmarkId::Astar => astar(&c),
        BenchmarkId::Cigar => cigar(&c),
        BenchmarkId::Xalan => xalan(&c),
        BenchmarkId::GemsFdtd => gems_fdtd(&c),
        BenchmarkId::Leslie3d => leslie3d(&c),
        BenchmarkId::Milc => milc(&c),
    };
    let refs = ((NOMINAL_REFS as f64) * opts.refs_scale).max(1000.0) as u64;
    let mix = Mix::new(parts, MixEnd::CycleComponents).take_refs(refs);
    Workload::new(id.name(), base_cpr, refs, Box::new(mix))
}

/// gcc: streams + an alternating-stride walk + pointer chasing + a table
/// + a dominant compute loop. Moderate coverage, mild memory-boundedness.
fn gcc(c: &Ctx) -> (Vec<Part>, f64) {
    (
        vec![
            (stream(0, c.region(0), c.sz(10 << 20), 64), 2),
            (alt(1, c.region(1), c.sz(4 << 20), 32, 48), 2),
            (chase(2, 1, c.region(2), c.n(512 << 10), c.sub(0), 3), 4),
            (stream(4, c.region(3), c.sz(1536 << 10), 64), 8),
            (hot(5, c.region(4)), 150),
        ],
        7.0,
    )
}

/// libquantum: a read-modify-write sweep over the quantum state vector
/// (sub-line stride 16) plus an LLC-resident table that LLC pollution
/// would evict — the non-temporal bypass keeps it resident.
fn libquantum(c: &Ctx) -> (Vec<Part>, f64) {
    (
        vec![
            (rw_stream(0, 1, c.region(0), c.sz(16 << 20), 16, 3), 6),
            (stream(2, c.region(1), c.sz(4 << 20), 64), 3),
            (hot(3, c.region(2)), 24),
        ],
        7.0,
    )
}

/// lbm: several concurrent pure streams (the lattice update touches ~19
/// cell values exactly once per sweep) with a store stream, plus a small
/// coefficient table.
fn lbm(c: &Ctx) -> (Vec<Part>, f64) {
    (
        vec![
            (stream(0, c.region(0), c.sz(6 << 20), 32), 2),
            (stream(1, c.region(1), c.sz(6 << 20), 32), 2),
            (stream(2, c.region(2), c.sz(6 << 20), 32), 2),
            (
                Box::new(StridedStream::new(StridedStreamCfg {
                    pc: Pc(3),
                    store_pc: Pc(4),
                    base: c.region(3),
                    len_bytes: c.sz(6 << 20),
                    stride: 32,
                    passes: 1,
                    store_period: 2,
                    store_offset: -32,
                })) as Box<dyn TraceSource>,
                2,
            ),
            (stream(5, c.region(4), c.sz(4608 << 10), 64), 2),
            (hot(6, c.region(5)), 70),
        ],
        6.0,
    )
}

/// mcf: a large-stride walk over the arc array (192 B arc records, with an
/// alternating 192/240 sibling) under a dominant pointer chase over the
/// node network.
fn mcf(c: &Ctx) -> (Vec<Part>, f64) {
    (
        vec![
            (stream(0, c.region(0), c.sz(24 << 20), 192), 3),
            (alt(1, c.region(1), c.sz(12 << 20), 192, 240), 1),
            (
                chase_nodes(2, 1, c.region(2), c.n(256 << 10), c.sub(0), 3, 128),
                10,
            ),
            (chase(5, 0, c.region(4), c.n(24 << 10), c.sub(2), 1), 4),
            (hot(4, c.region(3)), 29),
        ],
        5.0,
    )
}

/// omnetpp: event-heap pointer chasing with only slivers of strided
/// access (one exact, one alternating) — almost nothing to prefetch.
fn omnetpp(c: &Ctx) -> (Vec<Part>, f64) {
    (
        vec![
            (
                chase_nodes(0, 1, c.region(0), c.n(256 << 10), c.sub(0), 2, 128),
                12,
            ),
            (stream(2, c.region(1), c.sz(12 << 20), 16), 1),
            (alt(3, c.region(2), c.sz(12 << 20), 24, 40), 1),
            (chase(5, 0, c.region(4), c.n(24 << 10), c.sub(2), 1), 3),
            (hot(4, c.region(3)), 7),
        ],
        5.0,
    )
}

/// soplex: a strided index walk feeding an irregular gather, plus two
/// vector sweeps (one exact-regular, one alternating).
fn soplex(c: &Ctx) -> (Vec<Part>, f64) {
    (
        vec![
            (
                gather(0, 1, c.region(0), c.region(1), c.n(2 << 20), 0.05, c.sub(0)),
                6,
            ),
            (stream(2, c.region(2), c.sz(8 << 20), 16), 10),
            (alt(3, c.region(3), c.sz(8 << 20), 8, 24), 10),
            (chase(5, 0, c.region(5), c.n(12 << 10), c.sub(2), 1), 2),
            (hot(4, c.region(4)), 48),
        ],
        5.0,
    )
}

/// astar: a high-locality gather (open-list neighbourhood expansion), a
/// row-scan stream, an alternating walk and a pointer chase.
fn astar(c: &Ctx) -> (Vec<Part>, f64) {
    (
        vec![
            (
                gather(
                    0,
                    1,
                    c.region(0),
                    c.region(1),
                    c.n(192 << 10),
                    0.75,
                    c.sub(0),
                ),
                6,
            ),
            (chase(2, 0, c.region(2), c.n(384 << 10), c.sub(1), 2), 6),
            (alt(3, c.region(3), c.sz(12 << 20), 40, 56), 2),
            (stream(4, c.region(4), c.sz(12 << 20), 8), 8),
            (hot(5, c.region(5)), 59),
        ],
        5.0,
    )
}

/// cigar: short strided population-scan bursts (which mis-train hardware
/// stride prefetchers), an LLC-resident fitness table sized right at the
/// AMD LLC capacity knife-edge (the pollution victim), and a random
/// case-injection lookup.
fn cigar(c: &Ctx) -> (Vec<Part>, f64) {
    (
        vec![
            (
                Box::new(BurstStride::new(BurstStrideCfg {
                    pc: Pc(0),
                    base: c.region(0),
                    len_bytes: c.sz(16 << 20),
                    stride: 64,
                    burst_len: 12,
                    bursts_per_pass: 4096,
                    passes: 1,
                    seed: c.sub(0),
                })) as Box<dyn TraceSource>,
                5,
            ),
            (chase(1, 0, c.region(1), c.n(60 << 10), c.sub(1), 1), 12),
            (hot(2, c.region(2)), 2),
        ],
        5.0,
    )
}

/// xalan: deep DOM pointer chasing across many PCs with tiny strided
/// slivers — the lowest coverage and the highest prefetch overhead.
fn xalan(c: &Ctx) -> (Vec<Part>, f64) {
    (
        vec![
            (
                chase_nodes(0, 3, c.region(0), c.n(256 << 10), c.sub(0), 2, 128),
                24,
            ),
            (stream(5, c.region(1), c.sz(12 << 20), 8), 1),
            (alt(6, c.region(2), c.sz(12 << 20), 8, 16), 1),
            (chase(8, 0, c.region(4), c.n(24 << 10), c.sub(2), 1), 3),
            (hot(7, c.region(3)), 13),
        ],
        6.0,
    )
}

/// GemsFDTD: field-array sweeps over 24 B records (update loops read each
/// field array once per sweep) plus a small irregular component.
fn gems_fdtd(c: &Ctx) -> (Vec<Part>, f64) {
    (
        vec![
            (stream(0, c.region(0), c.sz(12 << 20), 24), 2),
            (stream(1, c.region(1), c.sz(12 << 20), 24), 2),
            (stream(2, c.region(2), c.sz(12 << 20), 24), 2),
            (
                Box::new(StridedStream::new(StridedStreamCfg {
                    pc: Pc(3),
                    store_pc: Pc(4),
                    base: c.region(3),
                    len_bytes: c.sz(12 << 20),
                    stride: 24,
                    passes: 1,
                    store_period: 3,
                    store_offset: -24,
                })) as Box<dyn TraceSource>,
                2,
            ),
            (chase(10, 1, c.region(4), c.n(256 << 10), c.sub(0), 2), 2),
            (chase(13, 0, c.region(6), c.n(12 << 10), c.sub(2), 1), 1),
            (hot(12, c.region(5)), 26),
        ],
        6.0,
    )
}

/// leslie3d: many unit-stride field sweeps (CFD flux updates), one with
/// stores; almost everything is regular.
fn leslie3d(c: &Ctx) -> (Vec<Part>, f64) {
    (
        vec![
            (stream(0, c.region(0), c.sz(12 << 20), 8), 2),
            (stream(1, c.region(1), c.sz(12 << 20), 8), 2),
            (stream(2, c.region(2), c.sz(12 << 20), 8), 2),
            (stream(3, c.region(3), c.sz(12 << 20), 8), 2),
            (
                Box::new(StridedStream::new(StridedStreamCfg {
                    pc: Pc(4),
                    store_pc: Pc(5),
                    base: c.region(4),
                    len_bytes: c.sz(12 << 20),
                    stride: 8,
                    passes: 1,
                    store_period: 2,
                    store_offset: -8,
                })) as Box<dyn TraceSource>,
                2,
            ),
            (stream(7, c.region(6), c.sz(1536 << 10), 64), 3),
            (hot(6, c.region(5)), 20),
        ],
        4.0,
    )
}

/// milc: lattice sweeps whose per-record stride alternates 64/80 within
/// one line group (grouped stride analysis succeeds, exact-stride
/// stride-centric fails) plus an exact-stride sweep and a small gather.
fn milc(c: &Ctx) -> (Vec<Part>, f64) {
    (
        vec![
            (alt(0, c.region(0), c.sz(24 << 20), 64, 80), 5),
            (stream(1, c.region(1), c.sz(12 << 20), 128), 5),
            (
                gather(2, 3, c.region(2), c.region(3), c.n(1 << 20), 0.0, c.sub(0)),
                1,
            ),
            (hot(4, c.region(4)), 139),
        ],
        7.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::InputSet;
    use repf_trace::TraceSourceExt;

    #[test]
    fn all_benchmarks_build_and_produce_refs() {
        for id in BenchmarkId::all() {
            let mut w = build(
                id,
                &BuildOptions {
                    refs_scale: 0.01,
                    ..Default::default()
                },
            );
            let refs = w.collect_refs(u64::MAX);
            assert_eq!(refs.len(), 20_000, "{id}: nominal×scale refs");
            assert!(w.base_cpr > 0.0);
        }
    }

    #[test]
    fn builds_are_deterministic() {
        for id in [BenchmarkId::Mcf, BenchmarkId::Cigar, BenchmarkId::Soplex] {
            let opts = BuildOptions {
                refs_scale: 0.005,
                ..Default::default()
            };
            let a = build(id, &opts).collect_refs(u64::MAX);
            let b = build(id, &opts).collect_refs(u64::MAX);
            assert_eq!(a, b, "{id}");
        }
    }

    #[test]
    fn addr_offset_shifts_everything() {
        let opts0 = BuildOptions {
            refs_scale: 0.002,
            ..Default::default()
        };
        let opts1 = BuildOptions {
            addr_offset: 1 << 44,
            ..opts0
        };
        let a = build(BenchmarkId::Gcc, &opts0).collect_refs(u64::MAX);
        let b = build(BenchmarkId::Gcc, &opts1).collect_refs(u64::MAX);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(y.addr - x.addr, 1 << 44);
            assert_eq!(x.pc, y.pc);
        }
    }

    #[test]
    fn alternate_inputs_differ_but_share_structure() {
        let mk = |input| {
            build(
                BenchmarkId::Mcf,
                &BuildOptions {
                    input,
                    refs_scale: 0.005,
                    ..Default::default()
                },
            )
            .collect_refs(u64::MAX)
        };
        let r = mk(InputSet::Ref);
        let a = mk(InputSet::Alt(1));
        assert_eq!(r.len(), a.len());
        assert_ne!(r, a, "different input, different addresses");
        // Same PCs in play.
        let pcs = |v: &Vec<repf_trace::MemRef>| {
            let mut p: Vec<u32> = v.iter().map(|r| r.pc.0).collect();
            p.sort_unstable();
            p.dedup();
            p
        };
        assert_eq!(pcs(&r), pcs(&a));
    }

    #[test]
    fn workloads_have_both_loads_and_stores_where_expected() {
        let mut w = build(
            BenchmarkId::Libquantum,
            &BuildOptions {
                refs_scale: 0.01,
                ..Default::default()
            },
        );
        let refs = w.collect_refs(u64::MAX);
        let stores = refs.iter().filter(|r| r.kind.is_store()).count();
        assert!(stores > 0, "libquantum updates its state vector");
    }

    #[test]
    fn reset_replays_whole_workload() {
        let mut w = build(
            BenchmarkId::Leslie3d,
            &BuildOptions {
                refs_scale: 0.003,
                ..Default::default()
            },
        );
        let a = w.collect_refs(u64::MAX);
        w.reset();
        assert_eq!(a, w.collect_refs(u64::MAX));
    }
}
