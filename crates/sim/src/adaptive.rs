//! Online profile-guided adaptation — the extension the paper points at
//! when it argues its framework "could enable runtime optimization
//! methods such as dynamic binary rewriting" (§I) and contrasts itself
//! with online schemes like Beyler & Clauss (§VIII-B.3).
//!
//! The adaptive runner executes the program in windows. Each window is
//! sampled with the same sparse reuse/stride sampler the offline pass
//! uses; at the window boundary the full MDDLI analysis re-runs and the
//! prefetch plan is swapped in-place (the moral equivalent of re-writing
//! the prefetch instructions in a running binary). A program whose
//! behaviour shifts between phases — or whose input differs from the
//! profiled one — converges to a fresh plan within one window, at the
//! cost of the sampling overhead being paid *online*.

use crate::machine::MachineConfig;
use crate::runner::{CoreSetup, Sim};
use repf_core::{analyze, PrefetchPlan};
use repf_sampling::{Sampler, SamplerConfig};
use repf_trace::source::Recorded;
use repf_trace::TraceSource;

/// Parameters of the online adaptation loop.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// References per adaptation window (re-analysis period).
    pub window_refs: u64,
    /// Online sampling period inside each window.
    pub sample_period: u64,
    /// Seed for the online sampler.
    pub seed: u64,
    /// Per-trap cost charged to the running program, in cycles — this is
    /// the price an online scheme pays that the paper's offline pass does
    /// not (its related-work section reports 14 % online overhead for
    /// UMI-style schemes).
    pub trap_cost_cycles: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            window_refs: 200_000,
            sample_period: 509,
            seed: 0xADA7,
            trap_cost_cycles: 120.0,
        }
    }
}

/// Outcome of an adaptive run.
#[derive(Clone, Debug)]
pub struct AdaptiveOutcome {
    /// Timing/traffic of the whole run (windows summed).
    pub cycles: u64,
    /// References executed.
    pub refs: u64,
    /// Off-chip read bytes.
    pub dram_read_bytes: u64,
    /// Number of re-analysis points taken.
    pub replans: usize,
    /// Plan sizes after each window (diagnostics: shows convergence and
    /// phase changes).
    pub plan_sizes: Vec<usize>,
    /// Cycles charged for online sampling traps.
    pub sampling_overhead_cycles: u64,
}

/// Run `source` adaptively on one core of `machine`.
///
/// `base_cpr` is the workload's compute cost per reference (as in
/// [`CoreSetup`]). The run ends when the source ends.
pub fn run_adaptive(
    machine: &MachineConfig,
    mut source: Box<dyn TraceSource>,
    base_cpr: f64,
    cfg: &AdaptiveConfig,
) -> AdaptiveOutcome {
    assert!(cfg.window_refs > 0);
    let mut plan = PrefetchPlan::empty();
    let mut out = AdaptiveOutcome {
        cycles: 0,
        refs: 0,
        dram_read_bytes: 0,
        replans: 0,
        plan_sizes: Vec::new(),
        sampling_overhead_cycles: 0,
    };

    loop {
        // Collect the next window (the "live" instruction stream).
        let mut window = Vec::with_capacity(cfg.window_refs as usize);
        for _ in 0..cfg.window_refs {
            match source.next_ref() {
                Some(r) => window.push(r),
                None => break,
            }
        }
        if window.is_empty() {
            break;
        }
        let n = window.len() as u64;

        // Execute the window under the current plan. Each window uses a
        // fresh memory system: windows are long relative to cache warmup,
        // and this keeps the runner reusable. (A production implementation
        // would keep cache state; the comparison below applies the same
        // treatment to both static and adaptive runs.)
        let exec = Sim::run_solo(
            machine,
            CoreSetup {
                source: Box::new(Recorded::new(window.clone())),
                base_cpr,
                plan: Some(plan.clone()),
                hw: None,
                target_refs: n,
            },
        );
        out.cycles += exec.cycles;
        out.refs += exec.refs;
        out.dram_read_bytes += exec.stats.dram_read_bytes;

        // Sample the window we just ran (online monitoring) and pay for
        // the traps.
        let profile = Sampler::new(SamplerConfig {
            sample_period: cfg.sample_period,
            line_bytes: machine.hierarchy.l1.line_bytes,
            seed: cfg.seed ^ out.replans as u64,
        })
        .profile(&mut Recorded::new(window));
        let traps = profile.traps.total();
        let overhead = (traps as f64 * cfg.trap_cost_cycles) as u64;
        out.cycles += overhead;
        out.sampling_overhead_cycles += overhead;

        // Re-plan for the next window.
        let delta = (exec.cycles - exec.stall_cycles) as f64 / n as f64 + machine.sw_prefetch_cost;
        let analysis = analyze(&profile, &machine.analysis_config(delta.max(1.0)));
        plan = analysis.plan;
        out.replans += 1;
        out.plan_sizes.push(plan.len());

        if (n as usize) < cfg.window_refs as usize {
            break; // source ended mid-window
        }
    }
    out
}

/// Run several adaptive configurations over the same program on the
/// evaluation engine's worker pool. `make_source` builds a fresh copy of
/// the program for each cell (adaptive runs consume their source), so
/// every cell is independent and the outcomes are identical to running
/// the configurations one after another.
pub fn run_adaptive_many<F>(
    machine: &MachineConfig,
    cfgs: &[AdaptiveConfig],
    make_source: F,
    base_cpr: f64,
    exec: &crate::exec::Exec,
) -> Vec<AdaptiveOutcome>
where
    F: Fn() -> Box<dyn TraceSource> + Sync,
{
    exec.map(cfgs, |_, cfg| {
        run_adaptive(machine, make_source(), base_cpr, cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::amd_phenom_ii;
    use repf_trace::patterns::{StridedStream, StridedStreamCfg};
    use repf_trace::{Pc, TraceSourceExt};

    /// A two-phase program: streams over region A, then (new PCs) over
    /// region B. An offline plan from phase A knows nothing about B.
    fn two_phase(refs_per_phase: u64) -> Box<dyn TraceSource> {
        let a = StridedStream::new(StridedStreamCfg::loads(Pc(0), 0, 1 << 28, 64, 8))
            .take_refs(refs_per_phase);
        let b = StridedStream::new(StridedStreamCfg::loads(Pc(50), 1 << 40, 1 << 28, 64, 8))
            .take_refs(refs_per_phase);
        struct Concat(Box<dyn TraceSource>, Box<dyn TraceSource>, bool);
        impl TraceSource for Concat {
            fn next_ref(&mut self) -> Option<repf_trace::MemRef> {
                if !self.2 {
                    if let Some(r) = self.0.next_ref() {
                        return Some(r);
                    }
                    self.2 = true;
                }
                self.1.next_ref()
            }
            fn reset(&mut self) {
                self.0.reset();
                self.1.reset();
                self.2 = false;
            }
        }
        Box::new(Concat(Box::new(a), Box::new(b), false))
    }

    #[test]
    fn adaptive_covers_a_phase_change() {
        let m = amd_phenom_ii();
        let cfg = AdaptiveConfig {
            window_refs: 100_000,
            ..Default::default()
        };
        let out = run_adaptive(&m, two_phase(300_000), 3.0, &cfg);
        assert_eq!(out.refs, 600_000);
        assert_eq!(out.replans, 6);
        // Every window after the first in each phase has a plan for the
        // phase's stream.
        assert!(
            out.plan_sizes.iter().all(|&s| s >= 1),
            "each window finds the active stream: {:?}",
            out.plan_sizes
        );
        assert!(
            out.sampling_overhead_cycles > 0,
            "online monitoring is not free"
        );
    }

    #[test]
    fn adaptive_beats_a_stale_static_plan_across_the_phase_change() {
        let m = amd_phenom_ii();
        // Static plan: profile phase A only (what an offline pass would
        // have seen), then run both phases with it.
        let mut phase_a = StridedStream::new(StridedStreamCfg::loads(Pc(0), 0, 1 << 28, 64, 8))
            .take_refs(300_000);
        let profile = Sampler::new(SamplerConfig {
            sample_period: 509,
            line_bytes: 64,
            seed: 1,
        })
        .profile(&mut phase_a);
        let stale = analyze(&profile, &m.analysis_config(4.0)).plan;
        assert!(stale.get(Pc(0)).is_some() && stale.get(Pc(50)).is_none());

        let static_out = Sim::run_solo(
            &m,
            CoreSetup {
                source: two_phase(300_000),
                base_cpr: 3.0,
                plan: Some(stale),
                hw: None,
                target_refs: 600_000,
            },
        );
        let adaptive = run_adaptive(
            &m,
            two_phase(300_000),
            3.0,
            &AdaptiveConfig {
                // Windows must be shorter than a phase for re-planning to
                // track it (three windows per phase here).
                window_refs: 100_000,
                ..Default::default()
            },
        );
        assert!(
            adaptive.cycles < static_out.cycles,
            "adaptation pays off across the phase change ({} vs {})",
            adaptive.cycles,
            static_out.cycles
        );
    }

    #[test]
    fn stable_programs_converge_to_a_stable_plan() {
        let m = amd_phenom_ii();
        let src = StridedStream::new(StridedStreamCfg::loads(Pc(3), 0, 1 << 28, 16, 4))
            .take_refs(500_000);
        let out = run_adaptive(&m, Box::new(src), 2.0, &AdaptiveConfig::default());
        assert!(out.replans >= 2);
        let last = *out.plan_sizes.last().unwrap();
        assert!(
            out.plan_sizes[1..].iter().all(|&s| s == last),
            "plan stabilizes after the first window: {:?}",
            out.plan_sizes
        );
    }
}
