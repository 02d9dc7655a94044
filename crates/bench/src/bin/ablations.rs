//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! 1. the MDDLI cost-benefit filter (α sweep; α → 0 degenerates to
//!    "prefetch every regular load", the stride-centric failure mode);
//! 2. the 70 % stride-regularity threshold;
//! 3. the prefetch-distance latency margin;
//! 4. the sampling period (model accuracy vs runtime overhead, §III/IV);
//! 5. combining hardware and software prefetching (§VIII-B: it hurts).

use repf_bench::env_scale;
use repf_core::{analyze, AnalysisConfig};
use repf_metrics::{table::pct, Table};
use repf_sampling::{Sampler, SamplerConfig};
use repf_sim::{amd_phenom_ii, prepare, run_policy, CoreSetup, Policy, Sim};
use repf_trace::TraceSourceExt;
use repf_workloads::{build, BenchmarkId, BuildOptions};

fn opts(scale: f64) -> BuildOptions {
    BuildOptions {
        refs_scale: scale,
        ..Default::default()
    }
}

/// Run a benchmark with an explicitly-built plan.
fn run_with_plan(
    id: BenchmarkId,
    machine: &repf_sim::MachineConfig,
    plan: Option<repf_core::PrefetchPlan>,
    scale: f64,
) -> repf_sim::SoloOutcome {
    let w = build(id, &opts(scale));
    let base_cpr = w.base_cpr;
    let target_refs = w.nominal_refs;
    Sim::run_solo(
        machine,
        CoreSetup {
            source: Box::new(w.cycle()),
            base_cpr,
            plan,
            hw: None,
            target_refs,
        },
    )
}

fn profile_of(
    id: BenchmarkId,
    machine: &repf_sim::MachineConfig,
    scale: f64,
    period: u64,
) -> repf_sampling::Profile {
    let mut w = build(
        id,
        &BuildOptions {
            refs_scale: scale * repf_sim::solo::PROFILE_WINDOW,
            ..Default::default()
        },
    );
    Sampler::new(SamplerConfig {
        sample_period: period,
        line_bytes: machine.hierarchy.l1.line_bytes,
        seed: 0xAB1A,
    })
    .profile(&mut w)
}

fn sweep_alpha(scale: f64) {
    println!("\n## Ablation 1: MDDLI cost-benefit threshold (α sweep, gcc on AMD)");
    println!("#  α = assumed prefetch-instruction cost; the filter keeps loads with");
    println!("#  MR(L1) > α/latency. α→0 instruments everything (stride-centric-like).");
    let m = amd_phenom_ii();
    let id = BenchmarkId::Gcc;
    let profile = profile_of(id, &m, scale, m.profile_period);
    let base = run_with_plan(id, &m, None, scale);
    let mut t = Table::new(vec!["alpha", "planned loads", "sw prefetches", "speedup"]);
    for alpha in [0.01f64, 0.5, 1.0, 4.0, 16.0] {
        let cfg = AnalysisConfig {
            alpha,
            ..m.analysis_config(8.0)
        };
        let a = analyze(&profile, &cfg);
        let out = run_with_plan(id, &m, Some(a.plan.clone()), scale);
        t.row(vec![
            format!("{alpha}"),
            a.plan.len().to_string(),
            out.sw_prefetches.to_string(),
            pct(base.cycles as f64 / out.cycles as f64 - 1.0),
        ]);
    }
    println!("{}", t.render());
}

fn sweep_regularity(scale: f64) {
    println!("\n## Ablation 2: stride-regularity threshold (paper: 70%, mcf on AMD)");
    let m = amd_phenom_ii();
    let id = BenchmarkId::Mcf;
    let profile = profile_of(id, &m, scale, m.profile_period);
    let base = run_with_plan(id, &m, None, scale);
    let mut t = Table::new(vec!["threshold", "planned", "speedup", "traffic"]);
    for frac in [0.3f64, 0.5, 0.7, 0.9, 0.99] {
        let cfg = AnalysisConfig {
            regular_fraction: frac,
            ..m.analysis_config(6.0)
        };
        let a = analyze(&profile, &cfg);
        let out = run_with_plan(id, &m, Some(a.plan.clone()), scale);
        t.row(vec![
            format!("{:.0}%", frac * 100.0),
            a.plan.len().to_string(),
            pct(base.cycles as f64 / out.cycles as f64 - 1.0),
            pct(out.stats.dram_read_bytes as f64 / base.stats.dram_read_bytes.max(1) as f64 - 1.0),
        ]);
    }
    println!("{}", t.render());
    println!("(too low: noisy chases get prefetched; too high: alternating strides lost)");
}

fn sweep_distance_margin(scale: f64) {
    println!("\n## Ablation 3: prefetch-distance latency margin (leslie3d on AMD)");
    let m = amd_phenom_ii();
    let id = BenchmarkId::Leslie3d;
    let profile = profile_of(id, &m, scale, m.profile_period);
    let base = run_with_plan(id, &m, None, scale);
    let mut t = Table::new(vec!["margin", "speedup", "useful prefetch %"]);
    for margin in [1.0f64, 1.5, 2.5, 5.0, 10.0] {
        let cfg = AnalysisConfig {
            distance_latency_scale: margin,
            ..m.analysis_config(5.0)
        };
        let a = analyze(&profile, &cfg);
        let out = run_with_plan(id, &m, Some(a.plan.clone()), scale);
        t.row(vec![
            format!("x{margin}"),
            pct(base.cycles as f64 / out.cycles as f64 - 1.0),
            out.stats
                .prefetch_accuracy()
                .map(|a| format!("{:.0}%", a * 100.0))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{}", t.render());
}

fn sweep_sampling_period(scale: f64) {
    println!("\n## Ablation 4: sampling period — accuracy vs overhead (§III-IV, mcf)");
    println!("#  overhead model: 6000 reference-equivalents per trap (interrupt+ptrace)");
    let m = amd_phenom_ii();
    let id = BenchmarkId::Mcf;
    let base = run_with_plan(id, &m, None, scale);
    let mut t = Table::new(vec![
        "period",
        "samples",
        "est. overhead",
        "planned",
        "speedup",
    ]);
    for period in [101u64, 1009, 10_007, 100_003] {
        let profile = profile_of(id, &m, scale, period);
        let oh = profile.traps.estimated_overhead(6000.0, profile.total_refs);
        let a = analyze(&profile, &m.analysis_config(6.0));
        let out = run_with_plan(id, &m, Some(a.plan.clone()), scale);
        t.row(vec![
            format!("1-in-{period}"),
            profile.sample_count().to_string(),
            format!("{:.1}%", oh * 100.0),
            a.plan.len().to_string(),
            pct(base.cycles as f64 / out.cycles as f64 - 1.0),
        ]);
    }
    println!("{}", t.render());
    println!("(paper: <30% overhead at 1-in-100000 on full SPEC runs; sparse sampling");
    println!(" loses little plan quality until samples become scarce)");
}

fn combined_policy(scale: f64) {
    println!("\n## Ablation 5: combining hardware + software prefetching (§VIII-B)");
    let m = amd_phenom_ii();
    let mut t = Table::new(vec![
        "bench",
        "HW only",
        "SW+NT only",
        "combined",
        "combined traffic",
    ]);
    for id in [
        BenchmarkId::Libquantum,
        BenchmarkId::Cigar,
        BenchmarkId::Mcf,
        BenchmarkId::Leslie3d,
    ] {
        let plans = prepare(id, &m, &opts(scale));
        let hw = run_policy(id, &m, &plans, Policy::Hardware, &opts(scale));
        let sw = run_policy(id, &m, &plans, Policy::SoftwareNt, &opts(scale));
        let both = run_policy(id, &m, &plans, Policy::Combined, &opts(scale));
        let b = plans.baseline.cycles as f64;
        t.row(vec![
            id.name().to_string(),
            pct(b / hw.cycles as f64 - 1.0),
            pct(b / sw.cycles as f64 - 1.0),
            pct(b / both.cycles as f64 - 1.0),
            pct(both.stats.dram_read_bytes as f64
                / plans.baseline.stats.dram_read_bytes.max(1) as f64
                - 1.0),
        ]);
    }
    println!("{}", t.render());
    println!("(the combination inherits hardware's traffic waste and adds α per load —");
    println!(" consistent with the paper's observation that it should be avoided)");
}

fn ghb_baseline(scale: f64) {
    println!("\n## Ablation 6: a smarter hardware baseline (GHB delta correlation)");
    println!("#  Is the paper comparing against a straw man? A GHB prefetcher");
    println!("#  catches patterns the commodity stride/streamer models miss (milc's");
    println!("#  alternating strides) — but the traffic problem does not go away.");
    let m = amd_phenom_ii();
    let mut t = Table::new(vec![
        "bench",
        "commodity HW",
        "GHB HW",
        "SW+NT",
        "GHB traffic",
    ]);
    for id in [BenchmarkId::Milc, BenchmarkId::Cigar, BenchmarkId::Mcf] {
        let plans = prepare(id, &m, &opts(scale));
        let hw = run_policy(id, &m, &plans, Policy::Hardware, &opts(scale));
        let sw = run_policy(id, &m, &plans, Policy::SoftwareNt, &opts(scale));
        // A GHB-only hardware configuration.
        let w = build(id, &opts(scale));
        let base_cpr = w.base_cpr;
        let target_refs = w.nominal_refs;
        let ghb = Sim::run_solo(
            &m,
            CoreSetup {
                source: Box::new(w.cycle()),
                base_cpr,
                plan: None,
                hw: Some(Box::new(repf_hwpf::GhbPrefetcher::new(
                    4096,
                    256,
                    4,
                    repf_cache::PrefetchTarget::L2,
                ))),
                target_refs,
            },
        );
        let b = plans.baseline.cycles as f64;
        t.row(vec![
            id.name().to_string(),
            pct(b / hw.cycles as f64 - 1.0),
            pct(b / ghb.cycles as f64 - 1.0),
            pct(b / sw.cycles as f64 - 1.0),
            pct(ghb.stats.dram_read_bytes as f64
                / plans.baseline.stats.dram_read_bytes.max(1) as f64
                - 1.0),
        ]);
    }
    println!("{}", t.render());
}

fn main() {
    repf_bench::print_header("Ablations: the design choices behind the paper's method");
    let scale = env_scale() * 0.5;
    sweep_alpha(scale);
    sweep_regularity(scale);
    sweep_distance_margin(scale);
    sweep_sampling_period(scale);
    combined_policy(scale);
    ghb_baseline(scale);
}
