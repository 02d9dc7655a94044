//! Property tests over the pattern generators: reset-replay identity,
//! region containment and configuration-count agreement for seeded random
//! parameter draws.

use repf_trace::patterns::{
    BurstStride, BurstStrideCfg, Gather, GatherCfg, Mix, MixEnd, PointerChase, PointerChaseCfg,
    Stencil3d, Stencil3dCfg, StridedStream, StridedStreamCfg,
};
use repf_trace::rng::XorShift64Star;
use repf_trace::{Pc, TraceSource, TraceSourceExt};

fn assert_reset_replays<S: TraceSource>(mut s: S, n: u64) {
    let a = s.collect_refs(n);
    s.reset();
    let b = s.collect_refs(n);
    assert_eq!(a, b, "reset must replay the identical stream");
}

const CASES: u64 = 40;

#[test]
fn strided_stream_properties() {
    for case in 0..CASES {
        let mut rng = XorShift64Star::new(0x57A1DE ^ case << 8);
        let stride_abs = 1 + rng.below(511) as i64;
        let negative = rng.next_u64() & 1 == 1;
        let len = (1 + rng.below(63)) * 1024;
        let passes = 1 + rng.below(3) as u32;
        let store_period = rng.below(5) as u32;
        let stride = if negative { -stride_abs } else { stride_abs };
        if stride.unsigned_abs() > len {
            continue;
        }
        let cfg = StridedStreamCfg {
            pc: Pc(1),
            store_pc: Pc(2),
            base: 4096,
            len_bytes: len,
            stride,
            passes,
            store_period,
            store_offset: 0,
        };
        let total = cfg.total_refs();
        let mut s = StridedStream::new(cfg);
        let refs = s.collect_refs(u64::MAX);
        assert_eq!(
            refs.len() as u64,
            total,
            "total_refs agrees with the stream"
        );
        for r in &refs {
            assert!(r.addr >= 4096 && r.addr < 4096 + len, "in region");
        }
        s.reset();
        assert_eq!(s.collect_refs(u64::MAX), refs);
    }
}

#[test]
fn pointer_chase_visits_everything() {
    for case in 0..CASES {
        let mut rng = XorShift64Star::new(0xC4A5E ^ case << 8);
        let nodes = 2 + rng.below(598) as u32;
        let run_len = 1 + rng.below(5) as u32;
        let seed = rng.next_u64();
        let mut c = PointerChase::new(PointerChaseCfg {
            chase_pc: Pc(0),
            payload_pcs: vec![],
            base: 0,
            node_bytes: 64,
            nodes,
            steps_per_pass: nodes as u64,
            passes: 1,
            seed,
            run_len,
        });
        let refs = c.collect_refs(u64::MAX);
        assert_eq!(refs.len(), nodes as usize);
        let mut seen: Vec<u64> = refs.iter().map(|r| r.addr / 64).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            nodes as usize,
            "a single-cycle permutation visits every node exactly once per pass"
        );
    }
}

#[test]
fn gather_replays_and_stays_in_table() {
    for case in 0..CASES {
        let mut rng = XorShift64Star::new(0x6A74E3 ^ case << 8);
        let elems = 16 + rng.below(4984);
        let locality = rng.unit_f64();
        let seed = rng.next_u64();
        let mut g = Gather::new(GatherCfg {
            index_pc: Pc(0),
            data_pc: Pc(1),
            index_base: 0,
            index_stride: 4,
            data_base: 1 << 20,
            data_elems: elems,
            data_elem_bytes: 8,
            index_len: 500,
            passes: 1,
            locality,
            locality_window: 32,
            seed,
        });
        let refs = g.collect_refs(u64::MAX);
        for r in refs.iter().filter(|r| r.pc == Pc(1)) {
            let e = (r.addr - (1 << 20)) / 8;
            assert!(e < elems, "gather index in range");
        }
        g.reset();
        assert_eq!(g.collect_refs(u64::MAX), refs);
    }
}

#[test]
fn burst_stride_containment() {
    for case in 0..CASES {
        let mut rng = XorShift64Star::new(0xB7857 ^ case << 8);
        let burst_len = 1 + rng.below(31) as u32;
        let stride = [-128i64, -64, 16, 64, 192][rng.below(5) as usize];
        let seed = rng.next_u64();
        let len = 1u64 << 18;
        if stride.unsigned_abs() * burst_len as u64 > len {
            continue;
        }
        let mut b = BurstStride::new(BurstStrideCfg {
            pc: Pc(0),
            base: 1 << 24,
            len_bytes: len,
            stride,
            burst_len,
            bursts_per_pass: 64,
            passes: 2,
            seed,
        });
        let refs = b.collect_refs(u64::MAX);
        assert_eq!(refs.len() as u64, 64 * 2 * burst_len as u64);
        for r in &refs {
            assert!(r.addr >= 1 << 24 && r.addr < (1 << 24) + len);
        }
        b.reset();
        assert_eq!(b.collect_refs(u64::MAX), refs);
    }
}

#[test]
fn stencil_counts_and_replay() {
    for case in 0..CASES {
        let mut rng = XorShift64Star::new(0x57E4C1 ^ case << 8);
        let nx = 4 + rng.below(28);
        let ny = 2 + rng.below(6);
        let nz = 1 + rng.below(3);
        let elem = [8u64, 16, 24][rng.below(3) as usize];
        let store = rng.next_u64() & 1 == 1;
        let cfg = Stencil3dCfg {
            first_pc: Pc(0),
            base_in: 0,
            base_out: 1 << 30,
            nx,
            ny,
            nz,
            elem_bytes: elem,
            offsets: vec![0, 1, -1, nx as i64],
            store,
            passes: 1,
        };
        let total = cfg.total_refs();
        let mut s = Stencil3d::new(cfg);
        let refs = s.collect_refs(u64::MAX);
        assert_eq!(refs.len() as u64, total);
        let stores = refs.iter().filter(|r| r.kind.is_store()).count() as u64;
        assert_eq!(stores, if store { nx * ny * nz } else { 0 });
        s.reset();
        assert_eq!(s.collect_refs(u64::MAX), refs);
    }
}

#[test]
fn mix_weight_accounting() {
    for case in 0..CASES {
        let mut rng = XorShift64Star::new(0x313B ^ case << 8);
        let w1 = 1 + rng.below(7) as u32;
        let w2 = 1 + rng.below(7) as u32;
        let n = 100 + rng.below(1900);
        let a = StridedStream::new(StridedStreamCfg::loads(Pc(1), 0, 1 << 16, 64, 1000));
        let b = StridedStream::new(StridedStreamCfg::loads(Pc(2), 1 << 30, 1 << 16, 64, 1000));
        let mut m = Mix::new(
            vec![
                (Box::new(a) as Box<dyn TraceSource>, w1),
                (Box::new(b) as Box<dyn TraceSource>, w2),
            ],
            MixEnd::CycleComponents,
        );
        let period = (w1 + w2) as u64;
        let rounds = n / period;
        let refs = m.collect_refs(rounds * period);
        let c1 = refs.iter().filter(|r| r.pc == Pc(1)).count() as u64;
        let c2 = refs.iter().filter(|r| r.pc == Pc(2)).count() as u64;
        assert_eq!(c1, rounds * w1 as u64, "exact weight accounting per period");
        assert_eq!(c2, rounds * w2 as u64);
    }
}

#[test]
fn adapters_compose_with_reset() {
    let s = StridedStream::new(StridedStreamCfg::loads(Pc(0), 0, 4096, 64, 2));
    assert_reset_replays(s.clone().take_refs(100).cycle().take_refs(333), 1000);
    assert_reset_replays(s.cycle().take_refs(500), 1000);
}
