//! Shared single-benchmark evaluation: runs every benchmark under every
//! policy on one machine. Figures 4, 5, 6 and Table I are different views
//! of this data.

use repf_sim::{prepare, run_policy, BenchPlans, Exec, MachineConfig, Policy, SoloOutcome};
use repf_workloads::{BenchmarkId, BuildOptions};

/// All solo results for one benchmark on one machine.
pub struct BenchEval {
    /// The benchmark.
    pub id: BenchmarkId,
    /// Profiling/analysis products.
    pub plans: BenchPlans,
    /// Outcomes for [Baseline, Hardware, Software, SoftwareNt,
    /// StrideCentric], in [`Policy::all`] order.
    pub outcomes: Vec<(Policy, SoloOutcome)>,
}

impl BenchEval {
    /// Outcome under `policy`.
    pub fn outcome(&self, policy: Policy) -> &SoloOutcome {
        &self
            .outcomes
            .iter()
            .find(|(p, _)| *p == policy)
            .expect("all policies evaluated")
            .1
    }

    /// Speedup of `policy` over the baseline.
    pub fn speedup(&self, policy: Policy) -> f64 {
        repf_metrics::speedup(
            self.outcome(Policy::Baseline).cycles,
            self.outcome(policy).cycles,
        )
    }

    /// Off-chip read-traffic increase of `policy` over the baseline
    /// (fraction; 0.2 = +20 %).
    pub fn traffic_increase(&self, policy: Policy) -> f64 {
        let base = self.outcome(Policy::Baseline).stats.dram_read_bytes.max(1);
        let p = self.outcome(policy).stats.dram_read_bytes;
        p as f64 / base as f64 - 1.0
    }

    /// Average off-chip bandwidth of `policy` in GB/s.
    pub fn bandwidth_gbps(&self, policy: Policy, machine: &MachineConfig) -> f64 {
        let o = self.outcome(policy);
        machine.gb_per_s(o.stats.dram_total_bytes(), o.cycles)
    }
}

/// Evaluate all 12 benchmarks under all 5 policies on `machine`, one
/// benchmark per cell on the [`Exec::from_env`] worker pool.
pub fn evaluate_all(machine: &MachineConfig, refs_scale: f64) -> Vec<BenchEval> {
    evaluate_all_with(machine, refs_scale, &Exec::from_env())
}

/// [`evaluate_all`] with an explicit evaluation engine. Each benchmark's
/// profile→plan→run pipeline is independent of the others, so the result
/// vector (in [`BenchmarkId::all`] order) is identical at any thread
/// count.
pub fn evaluate_all_with(machine: &MachineConfig, refs_scale: f64, exec: &Exec) -> Vec<BenchEval> {
    exec.map(&BenchmarkId::all(), |_, &id| {
        evaluate_one(id, machine, refs_scale)
    })
}

/// Evaluate one benchmark under all 5 policies on `machine`.
pub fn evaluate_one(id: BenchmarkId, machine: &MachineConfig, refs_scale: f64) -> BenchEval {
    let opts = BuildOptions {
        refs_scale,
        ..Default::default()
    };
    let plans = prepare(id, machine, &opts);
    let outcomes = Policy::all()
        .into_iter()
        .map(|p| {
            let out = if p == Policy::Baseline {
                plans.baseline.clone()
            } else {
                run_policy(id, machine, &plans, p, &opts)
            };
            (p, out)
        })
        .collect();
    BenchEval {
        id,
        plans,
        outcomes,
    }
}
