//! Benchmarks of the figure-regeneration pipelines at reduced scale —
//! wall-clock guards so `cargo bench` exercises the experiment paths end
//! to end. Plain `std::time` harness (`harness = false`); see
//! `components.rs` for the rationale.

use repf_sim::{prepare, run_mix, run_policy, MixSpec, PlanCache, Policy};
use repf_workloads::{BenchmarkId, BuildOptions, InputSet};
use std::time::{Duration, Instant};

fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    std::hint::black_box(f());
    let mut times = Vec::new();
    let budget = Instant::now();
    while times.len() < 10 && budget.elapsed() < Duration::from_secs(3) {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    println!(
        "{name}: min {:10.3} ms  mean {:10.3} ms  ({} samples)",
        min * 1e3,
        mean * 1e3,
        times.len()
    );
}

fn small() -> BuildOptions {
    BuildOptions {
        refs_scale: 0.05,
        ..Default::default()
    }
}

fn main() {
    // One Figure-4 cell: profile + analyze + one policy run.
    let amd = repf_sim::amd_phenom_ii();
    bench("fig4-one-benchmark-one-policy", || {
        let plans = prepare(BenchmarkId::Libquantum, &amd, &small());
        run_policy(
            BenchmarkId::Libquantum,
            &amd,
            &plans,
            Policy::SoftwareNt,
            &small(),
        )
        .cycles
    });

    // One Figure-7 mix under one policy (plans prebuilt, as in the study).
    let intel = repf_sim::intel_i7_2600k();
    let cache = PlanCache::build(&intel, &small());
    let spec = MixSpec {
        apps: [
            BenchmarkId::Cigar,
            BenchmarkId::Gcc,
            BenchmarkId::Lbm,
            BenchmarkId::Libquantum,
        ],
    };
    bench("fig7-one-mix-one-policy", || {
        run_mix(
            &spec,
            &intel,
            Policy::SoftwareNt,
            &cache,
            [InputSet::Ref; 4],
            0.05,
        )
        .makespan_cycles()
    });
}
