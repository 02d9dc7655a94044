//! The core timing loop: in-order cores over the shared memory system.
//!
//! Each simulated core repeatedly: fetches the next memory reference from
//! its trace, performs the demand access (paying `base_cpr` plus any
//! demand-visible stall), then issues the software prefetch attached to
//! that PC (α cycles each) and/or feeds the hardware prefetcher. Cores
//! advance in global-time order, so DRAM-channel contention between cores
//! is causally consistent.
//!
//! A core draws its references from its source in blocks of 64
//! ([`TraceSource::fill`]), one virtual call per source layer per block.
//! A trace does not depend on timing, so drawing ahead changes nothing a
//! core simulates.

use repf_cache::{MemorySystem, PrefetchTarget};
use repf_core::PrefetchPlan;
use repf_hwpf::{HwPrefetcher, PrefetchRequest};
use repf_trace::{AccessKind, MemRef, Pc, TraceSource};

use crate::machine::MachineConfig;

/// Everything one core needs for a run.
pub struct CoreSetup {
    /// The reference stream (cycled by the caller if it must outlive its
    /// nominal length).
    pub source: Box<dyn TraceSource>,
    /// Base (compute) cycles per reference.
    pub base_cpr: f64,
    /// Software prefetch plan, if the policy uses one.
    pub plan: Option<PrefetchPlan>,
    /// Hardware prefetcher, if the policy uses one.
    pub hw: Option<Box<dyn HwPrefetcher>>,
    /// References this core must complete.
    pub target_refs: u64,
}

/// Result of a finished single-core run.
#[derive(Clone, Debug)]
pub struct SoloOutcome {
    /// Cycles to complete the run.
    pub cycles: u64,
    /// References executed.
    pub refs: u64,
    /// Memory-system counters at completion.
    pub stats: repf_cache::CoreStats,
    /// Software prefetch instructions executed.
    pub sw_prefetches: u64,
    /// Total demand-visible memory stall cycles (cycles − stalls = the
    /// compute floor, used to estimate the post-prefetch iteration time Δ
    /// for the distance analysis).
    pub stall_cycles: u64,
}

/// References a core draws from its source at a time.
const BLOCK: usize = 64;

struct CoreState {
    setup: CoreSetup,
    /// References drawn ahead of the core: `block[next..len]` are still
    /// to run. A block shorter than [`BLOCK`] was the source's last, and
    /// references drawn ahead die with the `Sim`, which owns the source.
    block: [MemRef; BLOCK],
    next: usize,
    len: usize,
    cycles: f64,
    refs_done: u64,
    finish: Option<Finish>,
    sw_prefetches: u64,
    stall_cycles: u64,
}

/// Snapshot taken the moment a core completes its target references.
#[derive(Clone, Debug)]
struct Finish {
    cycles: u64,
    stats: repf_cache::CoreStats,
    sw_prefetches: u64,
    stall_cycles: u64,
}

/// A multi-core simulation instance.
pub struct Sim {
    mem: MemorySystem,
    cores: Vec<CoreState>,
    req_buf: Vec<PrefetchRequest>,
}

impl Sim {
    /// Build a simulation of `setups.len()` cores on `machine`.
    pub fn new(machine: &MachineConfig, setups: Vec<CoreSetup>) -> Self {
        assert!(!setups.is_empty());
        let mem = MemorySystem::new(setups.len(), machine.hierarchy);
        Sim {
            mem,
            cores: setups
                .into_iter()
                .map(|setup| CoreState {
                    setup,
                    block: [MemRef::load(Pc(0), 0); BLOCK],
                    next: BLOCK,
                    len: BLOCK,
                    cycles: 0.0,
                    refs_done: 0,
                    finish: None,
                    sw_prefetches: 0,
                    stall_cycles: 0,
                })
                .collect(),
            req_buf: Vec::with_capacity(16),
        }
    }

    /// Advance core `ix` by one reference. Returns `false` when its
    /// source is exhausted.
    #[inline]
    fn step(&mut self, ix: usize, sw_cost: f64) -> bool {
        let core = &mut self.cores[ix];
        if core.next == core.len {
            if core.len < BLOCK {
                return false;
            }
            core.len = core.setup.source.fill(&mut core.block);
            core.next = 0;
            if core.len == 0 {
                return false;
            }
        }
        let r = core.block[core.next];
        core.next += 1;
        let now = core.cycles as u64;
        let res = self.mem.demand_access(ix, r, now);
        core.cycles += core.setup.base_cpr + res.latency as f64;
        core.stall_cycles += res.latency;

        // Software prefetch attached to this load (§VI-C: inserted right
        // after the load, base register + computed distance).
        if r.kind == AccessKind::Load {
            if let Some(plan) = &core.setup.plan {
                if let Some(d) = plan.get(r.pc) {
                    core.cycles += sw_cost;
                    core.sw_prefetches += 1;
                    let target = if d.nta {
                        PrefetchTarget::Nta
                    } else {
                        PrefetchTarget::L1
                    };
                    let addr = r.addr.wrapping_add_signed(d.distance_bytes);
                    self.mem.prefetch(ix, addr, target, now);
                }
            }
        }

        // Hardware prefetcher training + issue.
        if let Some(hw) = &mut core.setup.hw {
            hw.set_pressure(self.mem.dram_pressure(now));
            self.req_buf.clear();
            hw.observe(r.pc, r.addr, res.level, &mut self.req_buf);
            for req in self.req_buf.drain(..) {
                self.mem.prefetch(ix, req.addr, req.target, now);
            }
        }

        core.refs_done += 1;
        if core.refs_done == core.setup.target_refs && core.finish.is_none() {
            core.finish = Some(Finish {
                cycles: core.cycles as u64,
                stats: *self.mem.core_stats(ix),
                sw_prefetches: core.sw_prefetches,
                stall_cycles: core.stall_cycles,
            });
        }
        true
    }

    /// Run a single-core simulation to completion of its target.
    pub fn run_solo(machine: &MachineConfig, setup: CoreSetup) -> SoloOutcome {
        let sw_cost = machine.sw_prefetch_cost;
        let mut sim = Sim::new(machine, vec![setup]);
        while sim.cores[0].finish.is_none() {
            if !sim.step(0, sw_cost) {
                // Source ended before the target: snapshot what we have.
                let c = &mut sim.cores[0];
                c.finish = Some(Finish {
                    cycles: c.cycles as u64,
                    stats: *sim.mem.core_stats(0),
                    sw_prefetches: c.sw_prefetches,
                    stall_cycles: c.stall_cycles,
                });
            }
        }
        let c = &sim.cores[0];
        let f = c.finish.clone().unwrap();
        SoloOutcome {
            cycles: f.cycles,
            refs: c.refs_done,
            stats: f.stats,
            sw_prefetches: f.sw_prefetches,
            stall_cycles: f.stall_cycles,
        }
    }

    /// Run all cores until each has completed its target. Cores that
    /// finish early keep running (their sources should be cycled) so the
    /// slowest co-runners feel realistic contention throughout — the
    /// paper's note 5 on long-running benchmarks.
    ///
    /// Returns one [`SoloOutcome`] per core, with counters snapshotted at
    /// each core's own completion point.
    pub fn run_mix(machine: &MachineConfig, setups: Vec<CoreSetup>) -> Vec<SoloOutcome> {
        let sw_cost = machine.sw_prefetch_cost;
        let n = setups.len();
        let mut sim = Sim::new(machine, setups);
        let mut unfinished = n;
        while unfinished > 0 {
            // Advance the globally-earliest core one reference.
            let ix = (0..n)
                .min_by(|&a, &b| {
                    sim.cores[a]
                        .cycles
                        .partial_cmp(&sim.cores[b].cycles)
                        .unwrap()
                })
                .unwrap();
            let had_finish = sim.cores[ix].finish.is_some();
            if !sim.step(ix, sw_cost) {
                // A non-cycled source ran dry: freeze this core by
                // recording its finish and pushing its clock to infinity.
                let c = &mut sim.cores[ix];
                if c.finish.is_none() {
                    c.finish = Some(Finish {
                        cycles: c.cycles as u64,
                        stats: *sim.mem.core_stats(ix),
                        sw_prefetches: c.sw_prefetches,
                        stall_cycles: c.stall_cycles,
                    });
                }
                c.cycles = f64::INFINITY;
            }
            if !had_finish && sim.cores[ix].finish.is_some() {
                unfinished -= 1;
            }
        }
        sim.cores
            .iter()
            .map(|c| {
                let f = c.finish.clone().unwrap();
                SoloOutcome {
                    cycles: f.cycles,
                    refs: c.setup.target_refs.min(c.refs_done),
                    stats: f.stats,
                    sw_prefetches: f.sw_prefetches,
                    stall_cycles: f.stall_cycles,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::amd_phenom_ii;
    use repf_core::PrefetchDirective;
    use repf_trace::patterns::{StridedStream, StridedStreamCfg};
    use repf_trace::{Pc, TraceSourceExt};

    fn stream_setup(refs: u64, plan: Option<PrefetchPlan>) -> CoreSetup {
        let src = StridedStream::new(StridedStreamCfg::loads(Pc(0), 0, 1 << 30, 64, 1))
            .take_refs(refs)
            .cycle();
        CoreSetup {
            source: Box::new(src),
            base_cpr: 2.0,
            plan,
            hw: None,
            target_refs: refs,
        }
    }

    #[test]
    fn baseline_stream_pays_miss_latency() {
        let m = amd_phenom_ii();
        let out = Sim::run_solo(&m, stream_setup(10_000, None));
        assert_eq!(out.refs, 10_000);
        // Every access is a cold miss: ~2 + 26 + 22 cycles each.
        let cpr = out.cycles as f64 / out.refs as f64;
        assert!(cpr > 45.0 && cpr < 60.0, "baseline cpr {cpr}");
        assert_eq!(out.stats.l1_misses, 10_000);
        assert_eq!(out.sw_prefetches, 0);
    }

    #[test]
    fn software_prefetch_accelerates_stream() {
        let m = amd_phenom_ii();
        let mut plan = PrefetchPlan::empty();
        plan.insert(
            Pc(0),
            PrefetchDirective {
                distance_bytes: 64 * 8,
                nta: false,
                stride: 64,
            },
        );
        let base = Sim::run_solo(&m, stream_setup(10_000, None));
        let pf = Sim::run_solo(&m, stream_setup(10_000, Some(plan)));
        assert_eq!(pf.sw_prefetches, 10_000, "one per executed load");
        assert!(
            pf.cycles * 2 < base.cycles,
            "prefetching at distance 8 lines hides most of the miss: {} vs {}",
            pf.cycles,
            base.cycles
        );
        assert!(pf.stats.prefetches_useful > 9000);
    }

    #[test]
    fn hardware_prefetch_accelerates_stream() {
        let m = amd_phenom_ii();
        let mut setup = stream_setup(10_000, None);
        setup.hw = Some(m.make_hw_prefetcher());
        let base = Sim::run_solo(&m, stream_setup(10_000, None));
        let hw = Sim::run_solo(&m, setup);
        assert!(
            hw.cycles * 2 < base.cycles,
            "streamer chases the stream: {} vs {}",
            hw.cycles,
            base.cycles
        );
        assert!(hw.stats.prefetches_issued > 1000);
    }

    #[test]
    fn mix_contention_slows_everyone() {
        // Prefetch-accelerated streams demand far more bandwidth than one
        // channel provides: in a 4-way mix each core must run slower than
        // it does alone. (Four *baseline* streams sit just below
        // saturation and barely interact — which is exactly the paper's
        // point about prefetching stressing shared resources.)
        let m = amd_phenom_ii();
        let plan = || {
            let mut p = PrefetchPlan::empty();
            p.insert(
                Pc(0),
                PrefetchDirective {
                    distance_bytes: 64 * 16,
                    nta: false,
                    stride: 64,
                },
            );
            p
        };
        let solo = Sim::run_solo(&m, stream_setup(20_000, Some(plan())));
        let outs = Sim::run_mix(
            &m,
            (0..4)
                .map(|i| {
                    let src = StridedStream::new(StridedStreamCfg::loads(
                        Pc(0),
                        (i as u64) << 40,
                        1 << 30,
                        64,
                        1,
                    ))
                    .take_refs(20_000)
                    .cycle();
                    CoreSetup {
                        source: Box::new(src),
                        base_cpr: 2.0,
                        plan: Some(plan()),
                        hw: None,
                        target_refs: 20_000,
                    }
                })
                .collect(),
        );
        assert_eq!(outs.len(), 4);
        for o in &outs {
            assert!(
                o.cycles > solo.cycles * 3 / 2,
                "four accelerated streams saturate one channel: {} vs solo {}",
                o.cycles,
                solo.cycles
            );
        }
    }

    #[test]
    fn mix_snapshots_are_per_core() {
        let m = amd_phenom_ii();
        // One fast hot-loop core, one slow streaming core.
        let hot = StridedStream::new(StridedStreamCfg::loads(Pc(0), 0, 4096, 64, 1 << 20))
            .take_refs(5_000)
            .cycle();
        let cold = StridedStream::new(StridedStreamCfg::loads(Pc(0), 1 << 40, 1 << 30, 64, 1))
            .take_refs(5_000)
            .cycle();
        let outs = Sim::run_mix(
            &m,
            vec![
                CoreSetup {
                    source: Box::new(hot),
                    base_cpr: 1.0,
                    plan: None,
                    hw: None,
                    target_refs: 5_000,
                },
                CoreSetup {
                    source: Box::new(cold),
                    base_cpr: 1.0,
                    plan: None,
                    hw: None,
                    target_refs: 5_000,
                },
            ],
        );
        assert!(outs[0].cycles < outs[1].cycles);
        assert!(outs[0].stats.dram_read_bytes < outs[1].stats.dram_read_bytes);
        assert_eq!(outs[0].refs, 5_000);
        assert_eq!(outs[1].refs, 5_000);
    }

    #[test]
    fn deterministic_runs() {
        let m = amd_phenom_ii();
        let a = Sim::run_solo(&m, stream_setup(5_000, None));
        let b = Sim::run_solo(&m, stream_setup(5_000, None));
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stats, b.stats);
    }
}
