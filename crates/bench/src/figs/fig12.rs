//! Figure 12: parallel workloads (swim*, cg*, fma3d, dc) at 1, 2 and 4
//! threads on Intel, software(+NT) vs hardware prefetching. Speedups are
//! over the 1-thread baseline (no prefetching) at fixed total work, so
//! perfect scaling plus prefetching can exceed 4×. The bandwidth-starved
//! codes (marked *) are where resource-efficient prefetching matters.

use repf_metrics::Table;
use repf_sim::{intel_i7_2600k, prepare_parallel, CoreSetup, Policy, Sim};
use repf_trace::TraceSourceExt;
use repf_workloads::{build_parallel, streams_probe, BuildOptions, ParallelId};

fn run_threads(
    id: ParallelId,
    threads: usize,
    policy: Policy,
    plan: &repf_core::PrefetchPlan,
    machine: &repf_sim::MachineConfig,
    refs_scale: f64,
) -> u64 {
    // Fixed total work: each thread handles 1/threads of the references.
    let opts = BuildOptions {
        refs_scale: refs_scale / threads as f64,
        ..Default::default()
    };
    let setups: Vec<CoreSetup> = build_parallel(id, threads, &opts)
        .into_iter()
        .map(|w| {
            let base_cpr = w.base_cpr;
            let target_refs = w.nominal_refs;
            CoreSetup {
                source: Box::new(w.cycle()),
                base_cpr,
                plan: policy.uses_software().then(|| plan.clone()),
                hw: policy.uses_hardware().then(|| machine.make_hw_prefetcher()),
                target_refs,
            }
        })
        .collect();
    Sim::run_mix(machine, setups)
        .iter()
        .map(|o| o.cycles)
        .max()
        .unwrap()
}

/// Regenerate Figure 12 (plus the streams peak-bandwidth probe).
pub fn run(refs_scale: f64) {
    let m = intel_i7_2600k();

    // The streams probe the paper uses to establish the machine's peak.
    let probes: Vec<CoreSetup> = streams_probe(4, 400_000)
        .into_iter()
        .map(|w| {
            let base_cpr = w.base_cpr;
            let target_refs = w.nominal_refs;
            CoreSetup {
                source: Box::new(w.cycle()),
                base_cpr,
                plan: None,
                hw: Some(m.make_hw_prefetcher()),
                target_refs,
            }
        })
        .collect();
    let outs = Sim::run_mix(&m, probes);
    let bytes: u64 = outs.iter().map(|o| o.stats.dram_total_bytes()).sum();
    let cycles = outs.iter().map(|o| o.cycles).max().unwrap();
    println!(
        "# streams probe (4 threads, HW prefetch): {:.1} GB/s of {:.1} GB/s peak (paper: 15.6 GB/s)",
        m.gb_per_s(bytes, cycles),
        m.peak_gb_per_s()
    );

    println!("\n# Figure 12: parallel workloads at 1/2/4 threads on Intel (speedup vs 1-thread baseline)");
    let mut t = Table::new(vec![
        "bench",
        "threads",
        "Soft Pref+NT",
        "Hardware Pref.",
        "SW BW (GB/s)",
    ]);
    let mut avg: [f64; 2] = [0.0, 0.0];
    let mut rows = 0usize;
    for id in ParallelId::all() {
        eprintln!("[fig12] {} ...", id.name());
        let plans = prepare_parallel(
            id,
            &m,
            &BuildOptions {
                refs_scale,
                ..Default::default()
            },
        );
        let base_1t = run_threads(id, 1, Policy::Baseline, &plans.plan_nt, &m, refs_scale);
        for threads in [1usize, 2, 4] {
            let sw = run_threads(
                id,
                threads,
                Policy::SoftwareNt,
                &plans.plan_nt,
                &m,
                refs_scale,
            );
            let hw = run_threads(
                id,
                threads,
                Policy::Hardware,
                &plans.plan_nt,
                &m,
                refs_scale,
            );
            // Bandwidth of the software run for the annotation.
            let opts = BuildOptions {
                refs_scale: refs_scale / threads as f64,
                ..Default::default()
            };
            let setups: Vec<CoreSetup> = build_parallel(id, threads, &opts)
                .into_iter()
                .map(|w| {
                    let base_cpr = w.base_cpr;
                    let target_refs = w.nominal_refs;
                    CoreSetup {
                        source: Box::new(w.cycle()),
                        base_cpr,
                        plan: Some(plans.plan_nt.clone()),
                        hw: None,
                        target_refs,
                    }
                })
                .collect();
            let outs = Sim::run_mix(&m, setups);
            let bytes: u64 = outs.iter().map(|o| o.stats.dram_total_bytes()).sum();
            let cyc = outs.iter().map(|o| o.cycles).max().unwrap();
            let s_sw = base_1t as f64 / sw as f64;
            let s_hw = base_1t as f64 / hw as f64;
            avg[0] += s_sw;
            avg[1] += s_hw;
            rows += 1;
            t.row(vec![
                id.name().to_string(),
                threads.to_string(),
                format!("{s_sw:.2}x"),
                format!("{s_hw:.2}x"),
                format!("{:.1}", m.gb_per_s(bytes, cyc)),
            ]);
        }
    }
    t.row(vec![
        "avg".to_string(),
        "-".to_string(),
        format!("{:.2}x", avg[0] / rows as f64),
        format!("{:.2}x", avg[1] / rows as f64),
        "-".to_string(),
    ]);
    println!("{}", t.render());
    println!("(paper: SW+NT gains over HW only where bandwidth demand is high — swim*, cg*)\n");
}
