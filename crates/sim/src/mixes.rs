//! Mixed-workload experiments: the 180 random 4-application mixes of
//! §VII-C/D (Figures 7–11).

use crate::exec::Exec;
use crate::machine::MachineConfig;
use crate::policy::Policy;
use crate::runner::{CoreSetup, Sim, SoloOutcome};
use crate::solo::{prepare, BenchPlans};
use repf_trace::rng::XorShift64Star;
use repf_trace::TraceSourceExt;
use repf_workloads::{build, BenchmarkId, BuildOptions, InputSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One 4-application mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MixSpec {
    /// The four co-running benchmarks (duplicates allowed, as in random
    /// selection with replacement).
    pub apps: [BenchmarkId; 4],
}

/// Generate `n` random mixes the way the paper does: "each mix contains
/// four randomly selected workloads" from the 12-benchmark pool.
pub fn generate_mixes(n: usize, seed: u64) -> Vec<MixSpec> {
    let pool = BenchmarkId::all();
    let mut rng = XorShift64Star::new(seed);
    (0..n)
        .map(|_| {
            let mut apps = [pool[0]; 4];
            for a in &mut apps {
                *a = pool[rng.below(pool.len() as u64) as usize];
            }
            MixSpec { apps }
        })
        .collect()
}

/// Profiles + plans for every benchmark on one machine, computed once and
/// shared across all mixes (the paper gathers one profile per benchmark).
///
/// The cache is safe to share across the evaluation engine's worker
/// threads: each (benchmark, machine) slot is a compute-once cell, so a
/// plan is profiled and analyzed exactly once no matter how many workers
/// ask for it concurrently, and every reader sees the same plan.
pub struct PlanCache {
    machine: MachineConfig,
    opts: BuildOptions,
    slots: Vec<OnceLock<BenchPlans>>,
    /// Per-benchmark StatStack fits over the cached profiles, computed on
    /// first MRC query (the serving layer's hook — plan computation alone
    /// never needs them).
    models: Vec<OnceLock<repf_statstack::StatStackModel>>,
    computed: AtomicUsize,
}

impl PlanCache {
    /// An empty cache for `machine`: plans are profiled and analyzed on
    /// first use (exactly once per benchmark, even under contention).
    pub fn lazy(machine: &MachineConfig, opts: &BuildOptions) -> Self {
        PlanCache {
            machine: *machine,
            opts: *opts,
            slots: BenchmarkId::all().iter().map(|_| OnceLock::new()).collect(),
            models: BenchmarkId::all().iter().map(|_| OnceLock::new()).collect(),
            computed: AtomicUsize::new(0),
        }
    }

    /// Profile and analyze all 12 benchmarks for `machine`, fanning the
    /// profiling passes out over the [`Exec::from_env`] worker pool.
    pub fn build(machine: &MachineConfig, opts: &BuildOptions) -> Self {
        Self::build_with(machine, opts, &Exec::from_env())
    }

    /// [`PlanCache::build`] with an explicit engine.
    pub fn build_with(machine: &MachineConfig, opts: &BuildOptions, exec: &Exec) -> Self {
        let cache = Self::lazy(machine, opts);
        exec.map(&BenchmarkId::all(), |_, &id| {
            cache.get(id);
        });
        cache
    }

    fn slot(&self, id: BenchmarkId) -> &OnceLock<BenchPlans> {
        let ix = BenchmarkId::all()
            .iter()
            .position(|&b| b == id)
            .expect("benchmark in pool");
        &self.slots[ix]
    }

    /// Plans for one benchmark, computing them on first use.
    pub fn get(&self, id: BenchmarkId) -> &BenchPlans {
        self.slot(id).get_or_init(|| {
            self.computed.fetch_add(1, Ordering::Relaxed);
            prepare(id, &self.machine, &self.opts)
        })
    }

    /// Plans for one benchmark if they are already computed — a
    /// non-forcing [`get`](Self::get), so callers (e.g. the serve daemon's
    /// metrics) can distinguish cache hits from first-time computes.
    pub fn peek(&self, id: BenchmarkId) -> Option<&BenchPlans> {
        self.slot(id).get()
    }

    /// A StatStack model fitted over `id`'s cached profile, computed once
    /// on first use (forces the plans if needed). This is the hook the
    /// serve daemon answers benchmark-target MRC queries through: the fit
    /// is shared across all concurrent queries of the same benchmark.
    pub fn model(&self, id: BenchmarkId) -> &repf_statstack::StatStackModel {
        let ix = BenchmarkId::all()
            .iter()
            .position(|&b| b == id)
            .expect("benchmark in pool");
        self.models[ix]
            .get_or_init(|| repf_statstack::StatStackModel::from_profile(&self.get(id).profile))
    }

    /// How many plans have been computed (used by the concurrency suite to
    /// prove the compute-once guarantee).
    pub fn computed_count(&self) -> usize {
        self.computed.load(Ordering::Relaxed)
    }

    /// The machine this cache profiles for.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }
}

/// Result of one mix run.
#[derive(Clone, Debug)]
pub struct MixOutcome {
    /// Per-application outcomes, snapshotted when each app completed its
    /// target references.
    pub per_app: Vec<SoloOutcome>,
}

impl MixOutcome {
    /// Total off-chip read traffic of the mix (bytes, summed over the
    /// apps at their completion points).
    pub fn total_read_bytes(&self) -> u64 {
        self.per_app.iter().map(|o| o.stats.dram_read_bytes).sum()
    }

    /// Total off-chip traffic including writebacks.
    pub fn total_bytes(&self) -> u64 {
        self.per_app
            .iter()
            .map(|o| o.stats.dram_total_bytes())
            .sum()
    }

    /// Completion time of the whole mix (slowest app).
    pub fn makespan_cycles(&self) -> u64 {
        self.per_app.iter().map(|o| o.cycles).max().unwrap_or(0)
    }

    /// Aggregate average bandwidth over the mix's lifetime in GB/s.
    pub fn avg_bandwidth_gbps(&self, machine: &MachineConfig) -> f64 {
        machine.gb_per_s(self.total_bytes(), self.makespan_cycles())
    }

    /// Per-app speedups against a baseline mix run (`base[i].cycles /
    /// self[i].cycles`).
    pub fn speedups_vs(&self, base: &MixOutcome) -> Vec<f64> {
        base.per_app
            .iter()
            .zip(&self.per_app)
            .map(|(b, p)| repf_metrics::speedup(b.cycles, p.cycles))
            .collect()
    }
}

/// Run one mix under `policy`. `inputs[i]` selects each app's input set
/// (all `Ref` for §VII-C, randomized for the §VII-D study); plans always
/// come from the `Ref`-input profile, as in the paper.
pub fn run_mix(
    spec: &MixSpec,
    machine: &MachineConfig,
    policy: Policy,
    cache: &PlanCache,
    inputs: [InputSet; 4],
    refs_scale: f64,
) -> MixOutcome {
    let setups: Vec<CoreSetup> = spec
        .apps
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let opts = BuildOptions {
                input: inputs[i],
                // Disjoint per-core address spaces: cores contend for LLC
                // sets and DRAM bandwidth, never for lines.
                addr_offset: ((i + 1) as u64) << 45,
                refs_scale,
            };
            let w = build(id, &opts);
            let base_cpr = w.base_cpr;
            let target_refs = w.nominal_refs;
            let plans = cache.get(id);
            let plan = match policy {
                Policy::Baseline | Policy::Hardware => None,
                Policy::Software => Some(plans.plan_plain.clone()),
                Policy::SoftwareNt | Policy::Combined => Some(plans.plan_nt.clone()),
                Policy::StrideCentric => Some(plans.stride_centric.clone()),
            };
            let hw = policy.uses_hardware().then(|| machine.make_hw_prefetcher());
            CoreSetup {
                source: Box::new(w.cycle()),
                base_cpr,
                plan,
                hw,
                target_refs,
            }
        })
        .collect();
    MixOutcome {
        per_app: Sim::run_mix(machine, setups),
    }
}

/// Random per-app alternate inputs for the §VII-D study.
pub fn random_inputs(seed: u64) -> [InputSet; 4] {
    let mut rng = XorShift64Star::new(seed);
    let mut out = [InputSet::Ref; 4];
    for o in &mut out {
        *o = InputSet::Alt(rng.below(4) as u8);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::amd_phenom_ii;

    #[test]
    fn mix_generation_is_deterministic_and_diverse() {
        let a = generate_mixes(180, 42);
        let b = generate_mixes(180, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 180);
        // All 12 benchmarks appear somewhere.
        let mut seen = std::collections::BTreeSet::new();
        for m in &a {
            for app in m.apps {
                seen.insert(app.name());
            }
        }
        assert_eq!(seen.len(), 12);
        // Different seeds give different mixes.
        assert_ne!(generate_mixes(10, 1), generate_mixes(10, 2));
    }

    #[test]
    fn random_inputs_are_alternates() {
        let i = random_inputs(7);
        assert!(i.iter().all(|x| matches!(x, InputSet::Alt(_))));
        assert_eq!(random_inputs(7), random_inputs(7));
    }

    #[test]
    fn small_mix_runs_end_to_end() {
        let m = amd_phenom_ii();
        let opts = BuildOptions {
            refs_scale: 0.02,
            ..Default::default()
        };
        let cache = PlanCache::build(&m, &opts);
        let spec = MixSpec {
            apps: [
                BenchmarkId::Libquantum,
                BenchmarkId::Mcf,
                BenchmarkId::Cigar,
                BenchmarkId::Gcc,
            ],
        };
        let base = run_mix(
            &spec,
            &m,
            Policy::Baseline,
            &cache,
            [InputSet::Ref; 4],
            0.02,
        );
        let sw = run_mix(
            &spec,
            &m,
            Policy::SoftwareNt,
            &cache,
            [InputSet::Ref; 4],
            0.02,
        );
        assert_eq!(base.per_app.len(), 4);
        let speedups = sw.speedups_vs(&base);
        assert_eq!(speedups.len(), 4);
        let ws = repf_metrics::weighted_speedup(&speedups);
        assert!(
            ws > 0.9,
            "software prefetching should not tank the mix: {ws}"
        );
        assert!(base.total_read_bytes() > 0);
        assert!(base.avg_bandwidth_gbps(&m) > 0.0);
        assert!(base.makespan_cycles() >= base.per_app[0].cycles);
    }

    #[test]
    fn mix_runs_are_deterministic() {
        let m = amd_phenom_ii();
        let opts = BuildOptions {
            refs_scale: 0.01,
            ..Default::default()
        };
        let cache = PlanCache::build(&m, &opts);
        let spec = MixSpec {
            apps: [
                BenchmarkId::Lbm,
                BenchmarkId::Lbm,
                BenchmarkId::Xalan,
                BenchmarkId::Milc,
            ],
        };
        let run = || {
            run_mix(
                &spec,
                &m,
                Policy::Hardware,
                &cache,
                [InputSet::Ref; 4],
                0.01,
            )
            .per_app
            .iter()
            .map(|o| o.cycles)
            .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
