//! Figure 3: miss-ratio modeling — the application-average curve of mcf
//! and the curve of one frequently executed (delinquent) load, both
//! produced by StatStack, over cache sizes 8 kB – 8 MB with the AMD
//! Phenom II L1/L2/LLC sizes marked.

use repf_metrics::Table;
use repf_sampling::{Sampler, SamplerConfig};
use repf_sim::amd_phenom_ii;
use repf_statstack::curve::{figure3_sizes, human_size};
use repf_statstack::StatStackModel;
use repf_trace::Pc;
use repf_workloads::{build, BenchmarkId, BuildOptions};

/// One cache-size point of the figure.
pub struct Fig3Point {
    /// Cache size in bytes.
    pub size_bytes: u64,
    /// Miss ratio of the hot delinquent load at this size.
    pub per_instruction: f64,
    /// Application-average miss ratio at this size.
    pub average: f64,
}

/// The figure's data: both curves plus the chosen hot load.
pub struct Fig3Data {
    /// The delinquent load whose per-instruction curve is plotted.
    pub hot_pc: Pc,
    /// Curve points over [`figure3_sizes`] plus the 6 MB LLC mark.
    pub points: Vec<Fig3Point>,
    /// Reuse samples behind the model.
    pub samples: u64,
}

/// Compute the Figure 3 curves (mcf on the AMD machine).
pub fn compute(refs_scale: f64) -> Fig3Data {
    let machine = amd_phenom_ii();
    let mut w = build(
        BenchmarkId::Mcf,
        &BuildOptions {
            refs_scale: refs_scale * repf_sim::solo::PROFILE_WINDOW,
            ..Default::default()
        },
    );
    let profile = Sampler::new(SamplerConfig {
        sample_period: machine.profile_period,
        line_bytes: 64,
        seed: 0x0F16_0003,
    })
    .profile(&mut w);
    let model = StatStackModel::from_profile(&profile);

    // The "frequently executed load" of the paper: the sampled load with
    // the most samples that actually misses somewhere.
    let hot_pc = model
        .sampled_pcs()
        .into_iter()
        .filter(|&pc| model.pc_miss_ratio_bytes(pc, 64 * 1024).unwrap_or(0.0) > 0.3)
        .max_by_key(|&pc| model.pc_sample_count(pc))
        .expect("mcf has delinquent loads");

    // The paper's x-axis has no 6M point; append the LLC mark.
    let sizes = figure3_sizes().into_iter().chain([6u64 << 20]);
    let points = sizes
        .map(|size| Fig3Point {
            size_bytes: size,
            per_instruction: model.pc_miss_ratio_bytes(hot_pc, size).unwrap(),
            average: model.miss_ratio_bytes(size),
        })
        .collect();
    Fig3Data {
        hot_pc,
        points,
        samples: model.sample_count(),
    }
}

/// Regenerate Figure 3.
pub fn run(refs_scale: f64) {
    let machine = amd_phenom_ii();
    let data = compute(refs_scale);

    println!("# Figure 3: StatStack miss-ratio curves for mcf (AMD cache sizes marked)");
    println!(
        "# marks: L1$ = 64k, L2$ = 512k, LLC = 6M  |  {} samples, 1-in-{} sampling",
        data.samples, machine.profile_period
    );
    let mut t = Table::new(vec!["cache size", "per-instruction", "average", ""]);
    for p in &data.points {
        let mark = match p.size_bytes {
            65_536 => "<- L1$",
            524_288 => "<- L2$",
            6_291_456 => "<- LLC",
            _ => "",
        };
        t.row(vec![
            human_size(p.size_bytes),
            format!("{:5.1}%", p.per_instruction * 100.0),
            format!("{:5.1}%", p.average * 100.0),
            mark.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(per-instruction curve: {}, the hot arc-array load)\n",
        data.hot_pc
    );
}
