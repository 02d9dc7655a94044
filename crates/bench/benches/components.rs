//! Component benchmarks (`cargo bench --bench components`). The headline
//! is the StatStack fit/query time — the paper's pitch is that statistical
//! modeling replaces "prohibitively slow" cache simulation ("typically
//! takes less than a minute"; this implementation fits in milliseconds).
//!
//! A plain `std::time` harness (`harness = false`): the container has no
//! external benchmarking crates, and min-of-N wall-clock per call, each
//! sample a batch of calls at least 1 ms long, is enough to track the
//! claims these numbers back.

use repf_cache::{CacheConfig, FunctionalCacheSim, MemorySystem};
use repf_core::analyze;
use repf_sampling::{ReuseSample, Sampler, SamplerConfig};
use repf_sim::{amd_phenom_ii, intel_i7_2600k, CoreSetup, Sim};
use repf_statstack::{place, CoRunModel, StatStackModel};
use repf_trace::patterns::{StridedStream, StridedStreamCfg};
use repf_trace::rng::XorShift64Star;
use repf_trace::{AccessKind, Pc, TraceSource, TraceSourceExt};
use repf_workloads::{build, BenchmarkId, BuildOptions};
use std::time::{Duration, Instant};

const N_REFS: u64 = 200_000;

/// The shortest sample: a sample times a batch of calls at least this
/// long, so microsecond rows are not lost in timer and scheduling noise.
const MIN_SAMPLE: Duration = Duration::from_millis(1);

/// Wall time of `calls` back-to-back calls of `f`.
fn time_batch<T>(calls: u32, f: &mut impl FnMut() -> T) -> Duration {
    let t0 = Instant::now();
    for _ in 0..calls {
        std::hint::black_box(f());
    }
    t0.elapsed()
}

/// Time `f` and print min/mean per call in ms to the nanosecond, plus
/// per-element throughput when `elems > 0`. The batch size doubles from
/// one call until a batch takes [`MIN_SAMPLE`] (those batches are the
/// warmup); then up to 10 samples of that batch run within a 3 s budget.
fn bench<T>(group: &str, name: &str, elems: u64, mut f: impl FnMut() -> T) {
    let mut calls = 1u32;
    while time_batch(calls, &mut f) < MIN_SAMPLE {
        calls *= 2;
    }
    let mut times = Vec::new();
    let budget = Instant::now();
    while times.len() < 10 && budget.elapsed() < Duration::from_secs(3) {
        times.push(time_batch(calls, &mut f).as_secs_f64() / f64::from(calls));
    }
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let rate = if elems > 0 && min > 0.0 {
        format!("  {:8.1} Melem/s", elems as f64 / min / 1e6)
    } else {
        String::new()
    };
    println!(
        "{group}/{name}: min {:12.6} ms  mean {:12.6} ms  ({} samples of {calls} calls){rate}",
        min * 1e3,
        mean * 1e3,
        times.len()
    );
}

fn workload(id: BenchmarkId) -> repf_workloads::Workload {
    build(
        id,
        &BuildOptions {
            refs_scale: N_REFS as f64 / 2_000_000.0,
            ..Default::default()
        },
    )
}

fn bench_trace_generation() {
    for id in [BenchmarkId::Libquantum, BenchmarkId::Mcf, BenchmarkId::Gcc] {
        bench("trace-generation", id.name(), N_REFS, || {
            let mut w = workload(id);
            let mut n = 0u64;
            while w.next_ref().is_some() {
                n += 1;
            }
            n
        });
    }
}

fn bench_sampler() {
    for period in [100u64, 1009, 100_000] {
        let sampler = Sampler::new(SamplerConfig {
            sample_period: period,
            line_bytes: 64,
            seed: 1,
        });
        bench("sampler", &format!("period-{period}"), N_REFS, || {
            let mut w = workload(BenchmarkId::Mcf);
            sampler.profile(&mut w)
        });
    }
}

fn bench_statstack() {
    // Fit + full MRC query — the paper's "fast cache modeling" claim.
    let sampler = Sampler::new(SamplerConfig {
        sample_period: 101,
        line_bytes: 64,
        seed: 1,
    });
    let mut w = workload(BenchmarkId::Mcf);
    let profile = sampler.profile(&mut w);
    bench("statstack", "fit", 0, || {
        StatStackModel::from_profile(&profile)
    });
    let model = StatStackModel::from_profile(&profile);
    bench("statstack", "application-mrc-11-sizes", 0, || {
        repf_statstack::curve::figure3_sizes()
            .into_iter()
            .map(|s| model.miss_ratio_bytes(s))
            .sum::<f64>()
    });
    // The per-PC curve a load generator's scan asks for: the PC with the
    // most samples, at 1..=16 MiB.
    let hottest = model
        .sampled_pcs()
        .into_iter()
        .max_by_key(|&pc| model.pc_sample_count(pc))
        .expect("mcf has sampled PCs");
    let scan: Vec<u64> = (1..=16u64).map(|i| i << 20).collect();
    bench("statstack", "pc-mrc-16-sizes", 0, || {
        model.pc_mrc_bytes(hottest, &scan)
    });
    // The same samples as a grown session holds them: a base fit, then
    // the last 5 % of the completed samples folded in as the delta.
    let split = profile.reuse.len() - profile.reuse.len() / 20;
    let mut first = StatStackModel::builder(profile.line_bytes);
    first.push_batch(&profile.reuse[..split], &profile.dangling);
    let mut rest = StatStackModel::builder(profile.line_bytes);
    rest.push_batch(&profile.reuse[split..], &[]);
    let two_level = first.fit().extend(&rest);
    bench("statstack", "application-mrc-two-level", 0, || {
        repf_statstack::curve::figure3_sizes()
            .into_iter()
            .map(|s| two_level.miss_ratio_bytes(s))
            .sum::<f64>()
    });
    let cfg = amd_phenom_ii().analysis_config(6.0);
    bench("statstack", "full-analysis-pipeline", 0, || {
        analyze(&profile, &cfg)
    });
}

fn bench_corun_and_placement() {
    // One fitted model per benchmark, each sampled from its own trace,
    // so the members differ in footprint and intensity.
    let sampler = Sampler::new(SamplerConfig {
        sample_period: 101,
        line_bytes: 64,
        seed: 1,
    });
    let models: Vec<StatStackModel> = BenchmarkId::all()
        .into_iter()
        .map(|id| StatStackModel::from_profile(&sampler.profile(&mut workload(id))))
        .collect();
    let refs: Vec<&StatStackModel> = models.iter().collect();
    let lam: Vec<f64> = refs.iter().map(|m| m.sample_count() as f64).collect();
    for mib in [1u64, 4, 8] {
        bench("corun", &format!("4-sessions-{mib}MiB"), 0, || {
            let mut co = CoRunModel::new();
            refs[..4].iter().for_each(|m| co.push(m));
            co.answer_bytes(&[mib << 20])
        });
    }
    // Sessions shaped like the `ring` workload's (see `ring_models`): a
    // `CoRun` there asks for 4 of them at 1, 4 and 8 MiB at once.
    let ring = ring_models();
    bench("corun", "ring-4-sessions-3-sizes", 0, || {
        let mut co = CoRunModel::new();
        ring[..4].iter().for_each(|m| co.push(m));
        co.answer_bytes(&[1 << 20, 4 << 20, 8 << 20])
    });
    // The wide shape: every session, at 2,048 sizes of 4 KiB to 8 MiB.
    let wide: Vec<u64> = (1..=2048u64).map(|k| k << 12).collect();
    bench("corun", "16-sessions-2048-sizes", 0, || {
        let mut co = CoRunModel::new();
        ring.iter().for_each(|m| co.push(m));
        co.answer_bytes(&wide)
    });
    // The widest a `CoRun` may ask: 32,768 sizes (`MAX_QUERY_SIZES`) of
    // 256 B to 8 MiB.
    let widest: Vec<u64> = (1..=32_768u64).map(|k| k << 8).collect();
    bench("corun", "16-sessions-32768-sizes", 0, || {
        let mut co = CoRunModel::new();
        ring.iter().for_each(|m| co.push(m));
        co.answer_bytes(&widest)
    });
    // The `ring` workload's `Place`, 8 of its sessions into 2 groups of
    // 4 at 8 MiB; and the slowest shape the tree cap admits, 15 into 2
    // groups of 8.
    let ring_lam: Vec<f64> = ring.iter().map(|m| m.sample_count() as f64).collect();
    for (n, groups, capacity) in [(8usize, 2u32, 4u32), (15, 2, 8)] {
        let ring_refs: Vec<&StatStackModel> = ring[..n].iter().collect();
        let shape = format!("ring-{n}-into-{groups}x{capacity}");
        bench("placement", &format!("place-{shape}"), 0, || {
            place(&ring_refs, &ring_lam[..n], groups, capacity, 8 << 20)
        });
    }
    for (n, groups, capacity) in [(8usize, 2u32, 4u32), (12, 3, 4)] {
        let shape = format!("{n}-into-{groups}x{capacity}");
        bench("placement", &format!("place-{shape}"), 0, || {
            place(&refs[..n], &lam[..n], groups, capacity, 8 << 20)
        });
    }
}

/// Sixteen sessions fitted from samples shaped like a load generator's
/// submits, as the `ring` workload's sessions hold them: about 2,000
/// samples each, a third at 400k–1M lines, and of the rest a quarter at
/// 30k + 7k·s lines for session `s` and the others at 1–48, so the
/// distances cluster and repeat. A third of the sessions keep their
/// last submits in a delta level; the others are one level, as a
/// pulled model imports.
fn ring_models() -> Vec<StatStackModel> {
    let mut rng = XorShift64Star::new(0x5EED);
    let mut batch = |s: u64, samples: u64| {
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
    };
    (0..16u64)
        .map(|s| {
            let mut m = batch(s, 2_000).fit();
            for _ in 0..8 {
                m = m.extend(&batch(s, 16));
            }
            if s % 3 == 0 {
                m
            } else {
                StatStackModel::from_parts(m.to_parts())
            }
        })
        .collect()
}

fn bench_caches() {
    bench("cache-simulation", "functional-64k-2way", N_REFS, || {
        let mut sim = FunctionalCacheSim::new(CacheConfig::new(64 << 10, 2, 64));
        let mut w = workload(BenchmarkId::Mcf);
        sim.run(&mut w);
        sim.totals().misses
    });
    // Every reference misses to DRAM, so each one fills every level: the
    // AMD LLC is 48-way, the Intel one 16-way.
    for (name, m) in [
        ("memory-system-demand-stream", amd_phenom_ii()),
        ("memory-system-demand-stream-intel", intel_i7_2600k()),
    ] {
        bench("cache-simulation", name, N_REFS, || {
            let mut mem = MemorySystem::new(1, m.hierarchy);
            let mut src = StridedStream::new(StridedStreamCfg::loads(Pc(0), 0, 1 << 30, 64, 1))
                .take_refs(N_REFS);
            let mut now = 0u64;
            while let Some(r) = src.next_ref() {
                now += 2 + mem.demand_access(0, r, now).latency;
            }
            now
        });
    }
}

fn bench_timing_sim() {
    let m = amd_phenom_ii();
    bench("timing-simulation", "solo-baseline", N_REFS, || {
        let w = workload(BenchmarkId::Gcc);
        let base_cpr = w.base_cpr;
        let target_refs = w.nominal_refs;
        Sim::run_solo(
            &m,
            CoreSetup {
                source: Box::new(w.cycle()),
                base_cpr,
                plan: None,
                hw: None,
                target_refs,
            },
        )
        .cycles
    });
    bench(
        "timing-simulation",
        "solo-hardware-prefetch",
        N_REFS,
        || {
            let w = workload(BenchmarkId::Gcc);
            let base_cpr = w.base_cpr;
            let target_refs = w.nominal_refs;
            Sim::run_solo(
                &m,
                CoreSetup {
                    source: Box::new(w.cycle()),
                    base_cpr,
                    plan: None,
                    hw: Some(m.make_hw_prefetcher()),
                    target_refs,
                },
            )
            .cycles
        },
    );
    bench("timing-simulation", "mix-4core-baseline", N_REFS, || {
        let setups = (0..4)
            .map(|i| {
                let w = build(
                    BenchmarkId::Lbm,
                    &BuildOptions {
                        refs_scale: N_REFS as f64 / 4.0 / 2_000_000.0,
                        addr_offset: ((i + 1) as u64) << 45,
                        ..Default::default()
                    },
                );
                let base_cpr = w.base_cpr;
                let target_refs = w.nominal_refs;
                CoreSetup {
                    source: Box::new(w.cycle()),
                    base_cpr,
                    plan: None,
                    hw: None,
                    target_refs,
                }
            })
            .collect();
        Sim::run_mix(&m, setups).len()
    });
}

fn main() {
    bench_trace_generation();
    bench_sampler();
    bench_statstack();
    bench_corun_and_placement();
    bench_caches();
    bench_timing_sim();
}
