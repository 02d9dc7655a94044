//! Characterization tests: the memory-behaviour properties each analog
//! was designed around (see the crate docs table). These pin the
//! qualitative profile that Table I / Figures 4–6 depend on.

use repf_cache::{CacheConfig, FunctionalCacheSim};
use repf_trace::hash::FxHashMap;
use repf_trace::{MemRef, TraceSource};
use repf_workloads::{build, BenchmarkId, BuildOptions, InputSet};

fn opts(scale: f64) -> BuildOptions {
    BuildOptions {
        refs_scale: scale,
        ..Default::default()
    }
}

fn refs_of(id: BenchmarkId, scale: f64) -> Vec<MemRef> {
    let mut w = build(id, &opts(scale));
    let mut v = Vec::new();
    while let Some(r) = w.next_ref() {
        v.push(r);
    }
    v
}

/// Fraction of per-PC consecutive-execution strides equal to the mode,
/// per PC.
fn stride_regularity(refs: &[MemRef]) -> FxHashMap<repf_trace::Pc, f64> {
    let mut last: FxHashMap<repf_trace::Pc, u64> = FxHashMap::default();
    let mut strides: FxHashMap<repf_trace::Pc, Vec<i64>> = FxHashMap::default();
    for r in refs {
        if let Some(&prev) = last.get(&r.pc) {
            strides
                .entry(r.pc)
                .or_default()
                .push(r.addr as i64 - prev as i64);
        }
        last.insert(r.pc, r.addr);
    }
    strides
        .into_iter()
        .filter(|(_, v)| v.len() > 50)
        .map(|(pc, v)| {
            let mut counts: FxHashMap<i64, u32> = FxHashMap::default();
            for s in &v {
                *counts.entry(*s).or_default() += 1;
            }
            let max = *counts.values().max().unwrap();
            (pc, max as f64 / v.len() as f64)
        })
        .collect()
}

#[test]
fn every_benchmark_misses_but_none_pathologically() {
    // Each analog must have non-negligible off-chip traffic (the paper's
    // selection criterion for its 12 benchmarks) without being a pure
    // miss generator — the dilution components must be doing their job.
    for id in BenchmarkId::all() {
        let mut sim = FunctionalCacheSim::new(CacheConfig::new(64 << 10, 2, 64));
        let mut w = build(id, &opts(0.25));
        sim.run(&mut w);
        let mr = sim.totals().miss_ratio();
        assert!(mr > 0.01, "{id}: must have non-negligible misses ({mr:.3})");
        // cigar is L1-miss-dominated by design (its latency comes from
        // LLC hits on the resident fitness structure); everything else
        // keeps a majority of hits in L1.
        if id != BenchmarkId::Cigar {
            assert!(
                mr < 0.5,
                "{id}: must not be a pure miss generator ({mr:.3})"
            );
        }
    }
}

#[test]
fn pointer_chasers_have_no_dominant_stride_on_their_chase_pc() {
    for id in [BenchmarkId::Omnetpp, BenchmarkId::Xalan] {
        let refs = refs_of(id, 0.1);
        let reg = stride_regularity(&refs);
        // The chase load is pc 0 in both analogs.
        let chase_reg = reg[&repf_trace::Pc(0)];
        assert!(
            chase_reg < 0.7,
            "{id}: chase pc must stay below the 70% regularity bar ({chase_reg:.2})"
        );
    }
}

#[test]
fn streaming_codes_have_dominant_strides() {
    for (id, pc) in [
        (BenchmarkId::Libquantum, 0u32),
        (BenchmarkId::Lbm, 0),
        (BenchmarkId::Leslie3d, 0),
        (BenchmarkId::GemsFdtd, 0),
    ] {
        let refs = refs_of(id, 0.1);
        let reg = stride_regularity(&refs);
        let r = reg[&repf_trace::Pc(pc)];
        assert!(r > 0.9, "{id}: stream pc{pc} regularity {r:.2}");
    }
}

#[test]
fn milc_alternating_stride_is_grouped_regular_but_exact_irregular() {
    let refs = refs_of(BenchmarkId::Milc, 0.1);
    let reg = stride_regularity(&refs);
    let exact = reg[&repf_trace::Pc(0)];
    assert!(
        exact < 0.7,
        "milc pc0: no single exact stride dominates ({exact:.2})"
    );
    // But grouped by line, it is fully regular (checked in repf-core's
    // stride tests; here we just confirm both strides share a line group).
    let mut last = None;
    let mut grouped = 0usize;
    let mut n = 0usize;
    for r in refs.iter().filter(|r| r.pc == repf_trace::Pc(0)) {
        if let Some(prev) = last {
            let d: i64 = r.addr as i64 - prev;
            if d > 0 {
                n += 1;
                if d.div_euclid(64) == 1 {
                    grouped += 1;
                }
            }
        }
        last = Some(r.addr as i64);
    }
    assert!(grouped as f64 / n as f64 > 0.95, "line-grouped regularity");
}

#[test]
fn cigar_bursts_are_short_lived() {
    let refs = refs_of(BenchmarkId::Cigar, 0.1);
    // Mean run length of stride-64 runs on the burst pc must be near the
    // configured burst length (short enough to mis-train stride HW).
    let mut run = 0u32;
    let mut runs = Vec::new();
    let mut last = None;
    for r in refs.iter().filter(|r| r.pc == repf_trace::Pc(0)) {
        if let Some(prev) = last {
            if r.addr as i64 - prev == 64 {
                run += 1;
            } else {
                runs.push(run);
                run = 0;
            }
        }
        last = Some(r.addr as i64);
    }
    let mean = runs.iter().map(|&r| r as f64).sum::<f64>() / runs.len() as f64;
    assert!(
        (8.0..14.0).contains(&mean),
        "cigar burst run length ~11 ({mean:.1})"
    );
}

#[test]
fn alternate_inputs_scale_working_sets() {
    // Alt inputs change the touched-line count, not the structure.
    let lines = |input| {
        let mut w = build(
            BenchmarkId::Leslie3d,
            &BuildOptions {
                input,
                refs_scale: 0.2,
                ..Default::default()
            },
        );
        let mut set = std::collections::BTreeSet::new();
        while let Some(r) = w.next_ref() {
            set.insert(r.addr / 64);
        }
        set.len() as f64
    };
    let base = lines(InputSet::Ref);
    let small = lines(InputSet::Alt(0)); // scale 0.65
                                         // Same reference count over a smaller region → fewer-or-equal lines.
    assert!(small <= base, "smaller input touches no more lines");
}

#[test]
fn all_benchmarks_emit_their_documented_pc_sets_deterministically() {
    for id in BenchmarkId::all() {
        let a = refs_of(id, 0.02);
        let b = refs_of(id, 0.02);
        assert_eq!(a, b, "{id} deterministic");
        let pcs: std::collections::BTreeSet<u32> = a.iter().map(|r| r.pc.0).collect();
        assert!(pcs.len() >= 3, "{id}: at least three instruction sites");
        assert!(pcs.len() <= 32, "{id}: compact PC space");
    }
}
