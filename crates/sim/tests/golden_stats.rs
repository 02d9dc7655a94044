//! Pins every statistic the simulators produce on a small fixed slice.
//!
//! The cycle-level simulator runs a few benchmarks solo and one 4-app
//! mix on both Table II machines; the functional simulator (the Table I
//! ground truth) counts per-PC misses at two geometries. Every counter is
//! folded into one FNV-1a digest, so a change meant to make the memory
//! system cheaper, not different, must leave the digest exactly as
//! pinned here.

use repf_cache::{CacheConfig, FunctionalCacheSim};
use repf_sim::{
    amd_phenom_ii, intel_i7_2600k, prepare, run_mix, run_policy, MixSpec, PlanCache, Policy,
    SoloOutcome,
};
use repf_workloads::{build, BenchmarkId, BuildOptions, InputSet};

const SCALE: f64 = 0.002;

const SOLO: [BenchmarkId; 4] = [
    BenchmarkId::Libquantum,
    BenchmarkId::Lbm,
    BenchmarkId::Mcf,
    BenchmarkId::Cigar,
];
const SOLO_POLICIES: [Policy; 3] = [Policy::Baseline, Policy::Hardware, Policy::SoftwareNt];

const MIX: MixSpec = MixSpec {
    apps: [
        BenchmarkId::Gcc,
        BenchmarkId::Soplex,
        BenchmarkId::Omnetpp,
        BenchmarkId::GemsFdtd,
    ],
};
const MIX_POLICIES: [Policy; 2] = [Policy::Baseline, Policy::SoftwareNt];

const FUNCTIONAL: [BenchmarkId; 2] = [BenchmarkId::Mcf, BenchmarkId::Milc];

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn outcome(&mut self, o: &SoloOutcome) {
        let s = &o.stats;
        for v in [
            o.cycles,
            o.refs,
            s.demand_accesses,
            s.l1_misses,
            s.l2_misses,
            s.llc_misses,
            s.mshr_merges,
            s.prefetches_issued,
            s.prefetch_dram_fetches,
            s.prefetches_useful,
            s.prefetches_useless,
            s.dram_read_bytes,
            s.dram_write_bytes,
            o.sw_prefetches,
            o.stall_cycles,
        ] {
            self.word(v);
        }
    }
}

fn opts() -> BuildOptions {
    BuildOptions {
        refs_scale: SCALE,
        ..BuildOptions::default()
    }
}

fn timing_digest() -> u64 {
    let mut h = Fnv::new();
    for m in [amd_phenom_ii(), intel_i7_2600k()] {
        for id in SOLO {
            let plans = prepare(id, &m, &opts());
            for policy in SOLO_POLICIES {
                h.outcome(&run_policy(id, &m, &plans, policy, &opts()));
            }
        }
        let cache = PlanCache::lazy(&m, &opts());
        for policy in MIX_POLICIES {
            let mix = run_mix(&MIX, &m, policy, &cache, [InputSet::Ref; 4], SCALE);
            for o in &mix.per_app {
                h.outcome(o);
            }
        }
    }
    h.0
}

fn functional_digest() -> u64 {
    let mut h = Fnv::new();
    for cfg in [
        CacheConfig::new(64 * 1024, 2, 64),
        CacheConfig::new(512 * 1024, 16, 64),
    ] {
        for id in FUNCTIONAL {
            let mut sim = FunctionalCacheSim::new(cfg);
            sim.run(&mut build(id, &opts()));
            for (pc, c) in sim.all_pcs() {
                h.word(u64::from(pc.0));
                h.word(c.accesses);
                h.word(c.misses);
            }
        }
    }
    h.0
}

#[test]
fn timing_simulator_statistics_are_pinned() {
    let got = timing_digest();
    assert_eq!(got, 0x06ea_d46b_b9d2_2779, "timing digest {got:#018x}");
}

#[test]
fn functional_simulator_counts_are_pinned() {
    let got = functional_digest();
    assert_eq!(got, 0x49bd_7018_0a34_0746, "functional digest {got:#018x}");
}
