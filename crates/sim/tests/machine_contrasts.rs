//! Tests of the AMD-vs-Intel behavioural contrasts the paper leans on
//! (§VII-A), plus timing-model invariants under the machine presets.

use repf_sim::{amd_phenom_ii, intel_i7_2600k, prepare, run_policy, CoreSetup, Policy, Sim};
use repf_trace::patterns::{PointerChase, PointerChaseCfg, StridedStream, StridedStreamCfg};
use repf_trace::{Pc, TraceSourceExt};
use repf_workloads::{BenchmarkId, BuildOptions};

fn opts() -> BuildOptions {
    BuildOptions {
        refs_scale: 0.4,
        ..Default::default()
    }
}

fn chase_setup(machine_hw: bool, m: &repf_sim::MachineConfig) -> CoreSetup {
    // A fully random 64 B-node chase — spatial prefetching bait.
    let src = PointerChase::new(PointerChaseCfg {
        chase_pc: Pc(0),
        payload_pcs: vec![],
        base: 0,
        node_bytes: 64,
        nodes: 1 << 18,
        steps_per_pass: 1 << 18,
        passes: 4,
        seed: 3,
        run_len: 1,
    })
    .take_refs(200_000)
    .cycle();
    CoreSetup {
        source: Box::new(src),
        base_cpr: 3.0,
        plan: None,
        hw: machine_hw.then(|| m.make_hw_prefetcher()),
        target_refs: 200_000,
    }
}

#[test]
fn intel_adjacent_line_doubles_chase_traffic_amd_does_not() {
    let amd = amd_phenom_ii();
    let intel = intel_i7_2600k();
    let amd_base = Sim::run_solo(&amd, chase_setup(false, &amd));
    let amd_hw = Sim::run_solo(&amd, chase_setup(true, &amd));
    let intel_base = Sim::run_solo(&intel, chase_setup(false, &intel));
    let intel_hw = Sim::run_solo(&intel, chase_setup(true, &intel));

    let amd_inc = amd_hw.stats.dram_read_bytes as f64 / amd_base.stats.dram_read_bytes as f64 - 1.0;
    let intel_inc =
        intel_hw.stats.dram_read_bytes as f64 / intel_base.stats.dram_read_bytes as f64 - 1.0;
    assert!(
        amd_inc < 0.1,
        "AMD has no spatial prefetcher: chase traffic ~flat ({amd_inc:+.2})"
    );
    // Every miss fetches a buddy, but since the chase revisits all nodes
    // each pass, buddies that survive in the LLC until their turn become
    // hits — the observed inflation is ~half the issued buddies.
    assert!(
        intel_inc > 0.35,
        "Intel buddy-fetches inflate chase traffic ({intel_inc:+.2})"
    );
}

#[test]
fn both_machines_prefer_software_on_the_same_benchmarks() {
    // mcf's SW-over-HW win (Fig 4) holds on both machines.
    for m in [amd_phenom_ii(), intel_i7_2600k()] {
        let plans = prepare(BenchmarkId::Mcf, &m, &opts());
        let hw = run_policy(BenchmarkId::Mcf, &m, &plans, Policy::Hardware, &opts());
        let sw = run_policy(BenchmarkId::Mcf, &m, &plans, Policy::SoftwareNt, &opts());
        assert!(
            sw.cycles <= hw.cycles,
            "{}: mcf favours accurate software prefetching ({} vs {})",
            m.name,
            sw.cycles,
            hw.cycles
        );
    }
}

#[test]
fn intel_is_faster_in_wall_clock_for_the_same_work() {
    // Higher frequency + bigger caches: Intel finishes the same workload
    // in less *time* even when cycle counts are close.
    let amd = amd_phenom_ii();
    let intel = intel_i7_2600k();
    let run = |m: &repf_sim::MachineConfig| {
        let src = StridedStream::new(StridedStreamCfg::loads(Pc(0), 0, 1 << 26, 64, 1))
            .take_refs(100_000)
            .cycle();
        let out = Sim::run_solo(
            m,
            CoreSetup {
                source: Box::new(src),
                base_cpr: 2.0,
                plan: None,
                hw: None,
                target_refs: 100_000,
            },
        );
        m.seconds(out.cycles)
    };
    assert!(run(&intel) < run(&amd));
}

#[test]
fn stall_accounting_is_consistent() {
    // cycles == base_cpr·refs + stalls (+ sw prefetch cost, zero here).
    let m = amd_phenom_ii();
    let src = StridedStream::new(StridedStreamCfg::loads(Pc(0), 0, 1 << 26, 64, 1))
        .take_refs(50_000)
        .cycle();
    let out = Sim::run_solo(
        &m,
        CoreSetup {
            source: Box::new(src),
            base_cpr: 2.0,
            plan: None,
            hw: None,
            target_refs: 50_000,
        },
    );
    let expect = 2.0 * out.refs as f64 + out.stall_cycles as f64;
    assert!(
        (out.cycles as f64 - expect).abs() < 2.0,
        "cycles {} vs base+stall {expect}",
        out.cycles
    );
}

#[test]
fn sw_prefetch_cost_is_charged_per_executed_prefetch() {
    use repf_core::{PrefetchDirective, PrefetchPlan};
    let m = amd_phenom_ii();
    // A hot loop that never misses: the plan's only effect is the α tax.
    let mk = |plan: Option<PrefetchPlan>| {
        let src = StridedStream::new(StridedStreamCfg::loads(Pc(0), 0, 4096, 64, 1 << 20))
            .take_refs(50_000)
            .cycle();
        Sim::run_solo(
            &m,
            CoreSetup {
                source: Box::new(src),
                base_cpr: 2.0,
                plan,
                hw: None,
                target_refs: 50_000,
            },
        )
    };
    let mut plan = PrefetchPlan::empty();
    plan.insert(
        Pc(0),
        PrefetchDirective {
            distance_bytes: 128,
            nta: false,
            stride: 64,
        },
    );
    let base = mk(None);
    let tax = mk(Some(plan));
    assert_eq!(tax.sw_prefetches, 50_000);
    let dc = tax.cycles as i64 - base.cycles as i64;
    assert!(
        (dc - 50_000).abs() < 2_000,
        "α = 1 cycle per executed prefetch ({dc} extra cycles)"
    );
}
