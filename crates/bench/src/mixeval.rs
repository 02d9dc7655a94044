//! Shared mixed-workload evaluation: the 180 random mixes under baseline,
//! hardware and software(+NT) prefetching. Figures 7, 9, 10 and 11 are
//! different views of this data.

use repf_metrics::{fair_speedup, qos, weighted_speedup, Distribution};
use repf_sim::{
    generate_mixes, random_inputs, run_mix, Exec, MachineConfig, MixSpec, PlanCache, Policy,
};
use repf_workloads::{BuildOptions, InputSet};

/// Per-mix summary for one policy vs the baseline mix.
#[derive(Clone, Debug)]
pub struct MixSummary {
    /// Weighted speedup (throughput) vs the baseline mix.
    pub weighted_speedup: f64,
    /// Fair speedup (harmonic mean).
    pub fair_speedup: f64,
    /// QoS degradation (≤ 0).
    pub qos: f64,
    /// Off-chip read-traffic increase vs the baseline mix (fraction).
    pub traffic_increase: f64,
}

/// Results of the full mixed-workload study on one machine.
pub struct MixStudy {
    /// The mixes evaluated.
    pub specs: Vec<MixSpec>,
    /// Per-mix summaries for hardware prefetching.
    pub hardware: Vec<MixSummary>,
    /// Per-mix summaries for software(+NT) prefetching.
    pub software: Vec<MixSummary>,
}

impl MixStudy {
    /// Distribution of a metric over the mixes.
    pub fn dist(&self, hw: bool, f: impl Fn(&MixSummary) -> f64) -> Distribution {
        let src = if hw { &self.hardware } else { &self.software };
        Distribution::new(src.iter().map(f).collect())
    }

    /// Fraction of mixes where software beats hardware on throughput.
    pub fn sw_wins_fraction(&self) -> f64 {
        let wins = self
            .software
            .iter()
            .zip(&self.hardware)
            .filter(|(s, h)| s.weighted_speedup > h.weighted_speedup)
            .count();
        wins as f64 / self.software.len().max(1) as f64
    }
}

/// How mix inputs are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputMode {
    /// Every app runs the profiled (reference) input — §VII-C.
    Original,
    /// Every app runs a randomly selected alternate input — §VII-D. The
    /// prefetch plans still come from the reference-input profile.
    Different,
}

/// Run the mixed-workload study: `n` mixes × {baseline, hardware,
/// software+NT} on `machine`, fanning the mixes out over the
/// [`Exec::from_env`] worker pool.
pub fn run_study(
    machine: &MachineConfig,
    cache: &PlanCache,
    n: usize,
    seed: u64,
    mode: InputMode,
    refs_scale: f64,
) -> MixStudy {
    run_study_with(machine, cache, n, seed, mode, refs_scale, &Exec::from_env())
}

/// [`run_study`] with an explicit evaluation engine.
///
/// Every mix cell is a pure function of `(spec, seed-derived inputs,
/// machine, policy)` and results are merged back in mix order, so the
/// study is bit-identical to the serial path at any thread count (the
/// determinism suite in `crates/bench/tests/determinism.rs` pins this).
pub fn run_study_with(
    machine: &MachineConfig,
    cache: &PlanCache,
    n: usize,
    seed: u64,
    mode: InputMode,
    refs_scale: f64,
    exec: &Exec,
) -> MixStudy {
    let specs = generate_mixes(n, seed);
    let cells = exec.map(&specs, |i, spec| {
        let inputs = match mode {
            InputMode::Original => [InputSet::Ref; 4],
            InputMode::Different => random_inputs(seed ^ (i as u64) << 17),
        };
        let base = run_mix(spec, machine, Policy::Baseline, cache, inputs, refs_scale);
        let summarize = |policy: Policy| {
            let run = run_mix(spec, machine, policy, cache, inputs, refs_scale);
            let speedups = run.speedups_vs(&base);
            MixSummary {
                weighted_speedup: weighted_speedup(&speedups),
                fair_speedup: fair_speedup(&speedups),
                qos: qos(&speedups),
                traffic_increase: run.total_read_bytes() as f64
                    / base.total_read_bytes().max(1) as f64
                    - 1.0,
            }
        };
        (summarize(Policy::Hardware), summarize(Policy::SoftwareNt))
    });
    let (hardware, software) = cells.into_iter().unzip();
    MixStudy {
        specs,
        hardware,
        software,
    }
}

/// Build the per-benchmark plan cache for `machine` (profiles gathered on
/// the reference input at `profile_scale` run length).
pub fn build_cache(machine: &MachineConfig, profile_scale: f64) -> PlanCache {
    PlanCache::build(
        machine,
        &BuildOptions {
            refs_scale: profile_scale,
            ..Default::default()
        },
    )
}

/// Render a Figure 7-style distribution section.
pub fn print_distribution_pair(
    label: &str,
    sw: &Distribution,
    hw: &Distribution,
    percent: bool,
    points: usize,
) {
    println!("# {label} (sorted over mixes; paper Figure 7/9 style)");
    let mut t = repf_metrics::Table::new(vec!["runs", "Soft Pref.+NT", "Hardware Pref."]);
    let fmt = |v: f64| {
        if percent {
            repf_metrics::table::pct(v)
        } else {
            format!("{v:.3}")
        }
    };
    for ((q, s), (_, h)) in sw.series(points).into_iter().zip(hw.series(points)) {
        t.row(vec![format!("{:.0}%", q * 100.0), fmt(s), fmt(h)]);
    }
    t.row(vec!["mean".to_string(), fmt(sw.mean()), fmt(hw.mean())]);
    println!("{}", t.render());
}
