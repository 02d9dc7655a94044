//! §IV coverage check: how many of the misses seen by a functional cache
//! simulation does StatStack attribute to the right instructions?
//!
//! The paper reports 88 % average coverage at the AMD L1 configuration
//! (64 kB 2-way) and 94 % at a 512 kB L2, with 1-in-100 000 sampling.

use repf_cache::{CacheConfig, FunctionalCacheSim};
use repf_metrics::Table;
use repf_sampling::{Sampler, SamplerConfig};
use repf_sim::{amd_phenom_ii, Exec};
use repf_statstack::StatStackModel;
use repf_workloads::{build, BenchmarkId, BuildOptions};

/// Coverage of StatStack's per-PC miss estimates against exact
/// simulation: `Σ_pc min(est_misses, sim_misses) / Σ_pc sim_misses`.
fn coverage(
    model: &StatStackModel,
    profile: &repf_sampling::Profile,
    sim: &FunctionalCacheSim,
    bytes: u64,
) -> f64 {
    let total = sim.totals().misses;
    if total == 0 {
        return 1.0;
    }
    let mut covered = 0.0;
    for (pc, counts) in sim.all_pcs() {
        let est_mr = model.pc_miss_ratio_bytes(pc, bytes).unwrap_or(0.0);
        let est_misses = est_mr * profile.estimated_execs(pc) as f64;
        covered += est_misses.min(counts.misses as f64);
    }
    covered / total as f64
}

/// Regenerate the §IV coverage numbers.
pub fn run(refs_scale: f64) {
    let machine = amd_phenom_ii();
    println!("# StatStack coverage vs functional simulation (paper §IV)");
    println!("# paper: 88% of misses identified at 64 kB 2-way, 94% at 512 kB\n");
    let mut t = Table::new(vec!["Benchmark", "64 kB 2-way", "512 kB 16-way"]);
    let mut sums = [0.0f64; 2];
    // One cell per benchmark on the evaluation engine's worker pool; each
    // cell profiles once and checks both cache configurations.
    let cells = Exec::from_env().map(&BenchmarkId::all(), |_, &id| {
        let opts = BuildOptions {
            refs_scale,
            ..Default::default()
        };
        let mut w = build(id, &opts);
        let profile = Sampler::new(SamplerConfig {
            sample_period: machine.profile_period,
            line_bytes: 64,
            seed: 0x57a7,
        })
        .profile(&mut w);
        let model = StatStackModel::from_profile(&profile);

        [
            CacheConfig::new(64 * 1024, 2, 64),
            CacheConfig::new(512 * 1024, 16, 64),
        ]
        .map(|cfg| {
            let mut sim = FunctionalCacheSim::new(cfg);
            let mut w = build(id, &opts);
            sim.run(&mut w);
            coverage(&model, &profile, &sim, cfg.size_bytes)
        })
    });
    for (id, covs) in BenchmarkId::all().into_iter().zip(cells) {
        let mut row = vec![id.name().to_string()];
        for (i, c) in covs.into_iter().enumerate() {
            sums[i] += c;
            row.push(format!("{:.1}%", c * 100.0));
        }
        t.row(row);
    }
    let n = BenchmarkId::all().len() as f64;
    t.row(vec![
        "Average".to_string(),
        format!("{:.1}%", sums[0] / n * 100.0),
        format!("{:.1}%", sums[1] / n * 100.0),
    ]);
    println!("{}", t.render());
}
