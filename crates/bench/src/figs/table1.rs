//! Table I: prefetch coverage & minimization — for every benchmark, the
//! fraction of L1 misses covered by the loads each scheme instruments
//! (against functional-simulation ground truth) and the *overhead*:
//! prefetch instructions executed per miss removed.

use crate::soloeval::evaluate_one;
use repf_cache::{CacheConfig, FunctionalCacheSim};
use repf_metrics::Table;
use repf_sim::{amd_phenom_ii, Exec, Policy};
use repf_workloads::{build, BenchmarkId, BuildOptions};

/// One benchmark's Table I row.
pub struct Table1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// MDDLI-filtered miss coverage (fraction of functional-sim L1
    /// misses attributable to the instrumented loads).
    pub mddli_cov: f64,
    /// MDDLI overhead: prefetch instructions per miss removed.
    pub mddli_oh: f64,
    /// Stride-centric (prior work) miss coverage.
    pub sc_cov: f64,
    /// Stride-centric overhead.
    pub sc_oh: f64,
    /// Prefetch instructions executed under the MDDLI plan.
    pub mddli_prefetches: u64,
    /// Prefetch instructions executed under the stride-centric plan.
    pub sc_prefetches: u64,
}

/// Compute Table I on the [`Exec::from_env`] worker pool (one benchmark
/// per cell; the paper evaluates coverage against the AMD Phenom II L1:
/// 64 kB, 2-way, 64 B lines).
pub fn compute(refs_scale: f64) -> Vec<Table1Row> {
    compute_with(refs_scale, &Exec::from_env())
}

/// [`compute`] with an explicit evaluation engine.
pub fn compute_with(refs_scale: f64, exec: &Exec) -> Vec<Table1Row> {
    let machine = amd_phenom_ii();
    exec.map(&BenchmarkId::all(), |_, &id| {
        let e = evaluate_one(id, &machine, refs_scale);

        // Ground truth: exact per-PC miss counts on the paper's reference
        // configuration.
        let mut sim = FunctionalCacheSim::new(CacheConfig::new(64 * 1024, 2, 64));
        let mut w = build(
            id,
            &BuildOptions {
                refs_scale,
                ..Default::default()
            },
        );
        sim.run(&mut w);

        let mddli_cov = sim.miss_coverage(e.plans.plan_nt.pcs());
        let sc_cov = sim.miss_coverage(e.plans.stride_centric.pcs());

        let base_misses = e.outcome(Policy::Baseline).stats.l1_misses;
        let oh = |policy: Policy| {
            let o = e.outcome(policy);
            let removed = base_misses.saturating_sub(o.stats.l1_misses).max(1);
            (o.sw_prefetches as f64 / removed as f64, o.sw_prefetches)
        };
        let (mddli_oh, mddli_pf) = oh(Policy::Software);
        let (sc_oh, sc_pf) = oh(Policy::StrideCentric);

        Table1Row {
            name: id.name(),
            mddli_cov,
            mddli_oh,
            sc_cov,
            sc_oh,
            mddli_prefetches: mddli_pf,
            sc_prefetches: sc_pf,
        }
    })
}

/// Regenerate Table I.
pub fn run(refs_scale: f64) {
    println!("# Table I: Prefetch Coverage & Minimization (AMD L1: 64 kB 2-way)");
    println!("# cov = fraction of functional-sim L1 misses attributable to instrumented loads");
    println!("# OH  = prefetch instructions executed per L1 miss removed (lower is better)\n");

    let rows = compute(refs_scale);

    let mut t = Table::new(vec![
        "Benchmark",
        "MDDLI Miss Cov.",
        "MDDLI OH",
        "Stride-c. Miss Cov.",
        "Stride-c. OH",
    ]);
    for r in &rows {
        t.row(vec![
            r.name.to_string(),
            format!("{:.1}%", r.mddli_cov * 100.0),
            format!("{:.1}", r.mddli_oh),
            format!("{:.1}%", r.sc_cov * 100.0),
            format!("{:.1}", r.sc_oh),
        ]);
    }
    let n = rows.len() as f64;
    t.row(vec![
        "Average".to_string(),
        format!(
            "{:.1}%",
            rows.iter().map(|r| r.mddli_cov).sum::<f64>() / n * 100.0
        ),
        format!("{:.1}", rows.iter().map(|r| r.mddli_oh).sum::<f64>() / n),
        format!(
            "{:.1}%",
            rows.iter().map(|r| r.sc_cov).sum::<f64>() / n * 100.0
        ),
        format!("{:.1}", rows.iter().map(|r| r.sc_oh).sum::<f64>() / n),
    ]);
    println!("{}", t.render());

    let mddli_total: u64 = rows.iter().map(|r| r.mddli_prefetches).sum();
    let sc_total: u64 = rows.iter().map(|r| r.sc_prefetches).sum();
    println!(
        "stride-centric executes {:+.0}% more prefetch instructions than MDDLI-filtered",
        (sc_total as f64 / mddli_total.max(1) as f64 - 1.0) * 100.0
    );
    println!("(paper: ~36% more; MDDLI average coverage 58%, stride-centric 51.1%)\n");
}
