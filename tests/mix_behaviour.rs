//! Integration tests for the multiprogrammed behaviour that the paper's
//! §VII-C results rest on: shared-LLC and shared-bandwidth contention,
//! and the benefit of resource conservation.

use repf::metrics::weighted_speedup;
use repf::sim::{
    amd_phenom_ii, generate_mixes, run_mix, CoreSetup, MixSpec, PlanCache, Policy, Sim,
};
use repf::statstack::{place, CoRunModel, StatStackModel};
use repf::trace::TraceSourceExt;
use repf::workloads::{build, BenchmarkId, BuildOptions, InputSet};

fn cache(machine: &repf::sim::MachineConfig) -> PlanCache {
    PlanCache::build(
        machine,
        &BuildOptions {
            refs_scale: 0.3,
            ..Default::default()
        },
    )
}

#[test]
fn mixes_are_deterministic_and_traffic_ordered() {
    let m = amd_phenom_ii();
    let cache = cache(&m);
    let spec = MixSpec {
        apps: [
            BenchmarkId::Libquantum,
            BenchmarkId::Lbm,
            BenchmarkId::Mcf,
            BenchmarkId::Cigar,
        ],
    };
    let scale = 0.3;
    let inputs = [InputSet::Ref; 4];
    let base = run_mix(&spec, &m, Policy::Baseline, &cache, inputs, scale);
    let base2 = run_mix(&spec, &m, Policy::Baseline, &cache, inputs, scale);
    for (a, b) in base.per_app.iter().zip(&base2.per_app) {
        assert_eq!(a.cycles, b.cycles, "mix runs are deterministic");
    }
    let hw = run_mix(&spec, &m, Policy::Hardware, &cache, inputs, scale);
    let sw = run_mix(&spec, &m, Policy::SoftwareNt, &cache, inputs, scale);
    assert!(
        sw.total_read_bytes() < hw.total_read_bytes(),
        "resource-efficient prefetching moves less data ({} vs {})",
        sw.total_read_bytes(),
        hw.total_read_bytes()
    );
}

#[test]
fn contention_makes_everyone_slower_than_solo() {
    let m = amd_phenom_ii();
    let cache = cache(&m);
    // Four copies of the most bandwidth-hungry benchmark.
    let spec = MixSpec {
        apps: [BenchmarkId::Lbm; 4],
    };
    let mix = run_mix(
        &spec,
        &m,
        Policy::Baseline,
        &cache,
        [InputSet::Ref; 4],
        0.3,
    );
    let solo = &cache.get(BenchmarkId::Lbm).baseline;
    // Solo baseline at 0.3 scale would take ~0.3/0.3 of solo cycles — the
    // cached baseline ran at 0.3 scale too, so compare directly.
    for app in &mix.per_app {
        assert!(
            app.cycles >= solo.cycles,
            "co-running with three copies of itself cannot be faster than solo"
        );
    }
}

#[test]
fn software_prefetching_holds_its_own_in_mixes() {
    // A 6-mix sample of the Figure 7 result. At full scale SW+NT wins the
    // majority of mixes (see the fig7 binary); this cheap version asserts
    // the weaker invariants that hold even at reduced run lengths: SW+NT
    // never tanks a mix, always improves throughput, and its *average*
    // stays within reach of hardware prefetching while moving less data.
    let m = amd_phenom_ii();
    let cache = cache(&m);
    let specs = generate_mixes(6, 99);
    let mut sum_sw = 0.0;
    let mut sum_hw = 0.0;
    for spec in &specs {
        let inputs = [InputSet::Ref; 4];
        let base = run_mix(spec, &m, Policy::Baseline, &cache, inputs, 0.3);
        let hw = run_mix(spec, &m, Policy::Hardware, &cache, inputs, 0.3);
        let sw = run_mix(spec, &m, Policy::SoftwareNt, &cache, inputs, 0.3);
        let ws_hw = weighted_speedup(&hw.speedups_vs(&base));
        let ws_sw = weighted_speedup(&sw.speedups_vs(&base));
        assert!(
            ws_sw > 1.0,
            "SW+NT improves every mix ({:?}: {ws_sw:.3})",
            spec.apps
        );
        assert!(
            sw.total_read_bytes() <= hw.total_read_bytes(),
            "SW+NT moves no more data than HW in any mix"
        );
        sum_sw += ws_sw;
        sum_hw += ws_hw;
    }
    assert!(
        sum_sw > sum_hw - 0.30,
        "SW+NT average throughput stays close to HW even at reduced scale          ({:.3} vs {:.3})",
        sum_sw / 6.0,
        sum_hw / 6.0
    );
}

#[test]
fn alternate_inputs_still_profit_from_reference_plans() {
    // §VII-D: plans from the reference input applied to different inputs
    // still speed things up.
    let m = amd_phenom_ii();
    let cache = cache(&m);
    let spec = MixSpec {
        apps: [
            BenchmarkId::Libquantum,
            BenchmarkId::Leslie3d,
            BenchmarkId::Gcc,
            BenchmarkId::Milc,
        ],
    };
    let inputs = [
        InputSet::Alt(0),
        InputSet::Alt(1),
        InputSet::Alt(2),
        InputSet::Alt(3),
    ];
    let base = run_mix(&spec, &m, Policy::Baseline, &cache, inputs, 0.3);
    let sw = run_mix(&spec, &m, Policy::SoftwareNt, &cache, inputs, 0.3);
    let ws = weighted_speedup(&sw.speedups_vs(&base));
    assert!(
        ws > 1.02,
        "reference-input plans still help on alternate inputs ({ws:.3})"
    );
}

/// Seed for the co-run oracle mixes below. Part of the failure repro:
/// `generate_mixes(CORUN_ORACLE_MIXES, CORUN_ORACLE_SEED)` regenerates
/// the exact specs a failing assertion names.
const CORUN_ORACLE_SEED: u64 = 0x005E_EDC0;
const CORUN_ORACLE_MIXES: usize = 4;
/// Two simulated miss ratios closer than this are treated as tied when
/// checking that the analytic composition preserves their ordering.
const CORUN_ORDER_GAP: f64 = 0.05;
/// Pinned mean-absolute-error bound of the analytic co-run prediction
/// against the cycle-level simulator, at the AMD LLC size over the
/// seeded mixes above. Measured ~0.005 MAE; pinned with ~10x slack so
/// model drift is caught without flaking on benign refactors.
const CORUN_MAE_BOUND: f64 = 0.05;

#[test]
fn corun_predictions_track_simulated_mixes() {
    // The serving layer's co-run endpoint composes per-app StatStack
    // models analytically; the cycle-level simulator running the same
    // four apps on a shared LLC is the oracle. Over seeded mixes the
    // prediction must (a) rank apps by shared-cache miss ratio the same
    // way the simulator does wherever the simulator's ratios are
    // meaningfully apart, and (b) stay within a pinned MAE of it.
    let m = amd_phenom_ii();
    let cache = cache(&m);
    let llc_bytes = m.hierarchy.llc.size_bytes;
    let specs = generate_mixes(CORUN_ORACLE_MIXES, CORUN_ORACLE_SEED);
    let mut abs_err = 0.0f64;
    let mut samples = 0usize;
    for (mi, spec) in specs.iter().enumerate() {
        let mut co = CoRunModel::new();
        for id in spec.apps {
            co.push(cache.model(id));
        }
        let predicted: Vec<f64> = (0..4).map(|i| co.miss_ratio_bytes(i, llc_bytes)).collect();
        let sim = run_mix(spec, &m, Policy::Baseline, &cache, [InputSet::Ref; 4], 0.3);
        let simulated: Vec<f64> = sim
            .per_app
            .iter()
            .map(|a| a.stats.llc_misses as f64 / a.stats.demand_accesses.max(1) as f64)
            .collect();
        // Repro on failure: the mix index + seed + app names pin down the
        // exact spec without rerunning the whole suite.
        let repro = format!(
            "mix {mi} of generate_mixes({CORUN_ORACLE_MIXES}, {CORUN_ORACLE_SEED:#x}), \
             apps {:?}",
            spec.apps
        );
        for i in 0..4 {
            assert!(
                predicted[i].is_finite() && (0.0..=1.0).contains(&predicted[i]),
                "{repro}: predicted[{i}] = {} out of range",
                predicted[i]
            );
            for j in 0..4 {
                if simulated[i] > simulated[j] + CORUN_ORDER_GAP {
                    assert!(
                        predicted[i] > predicted[j],
                        "{repro}: simulator ranks app {i} ({:?}, mr {:.4}) above app {j} \
                         ({:?}, mr {:.4}) but the composition predicts {:.4} vs {:.4}",
                        spec.apps[i],
                        simulated[i],
                        spec.apps[j],
                        simulated[j],
                        predicted[i],
                        predicted[j]
                    );
                }
            }
            abs_err += (predicted[i] - simulated[i]).abs();
            samples += 1;
        }
    }
    let mae = abs_err / samples as f64;
    eprintln!("corun oracle MAE over {samples} app-slots: {mae:.4}");
    assert!(
        mae < CORUN_MAE_BOUND,
        "co-run MAE {mae:.4} exceeds the pinned bound {CORUN_MAE_BOUND} \
         (seed {CORUN_ORACLE_SEED:#x}, {CORUN_ORACLE_MIXES} mixes)"
    );
}

/// Seed for the placement oracle mixes below; `generate_mixes(
/// PLACE_ORACLE_MIXES, PLACE_ORACLE_SEED)` regenerates a failing mix.
const PLACE_ORACLE_SEED: u64 = 0x005E_EDC1;
const PLACE_ORACLE_MIXES: usize = 2;
/// Slack on a split's simulated aggregate miss ratio (the sum over its
/// four apps): the co-run prediction carries a per-app error of ~0.005
/// (see `CORUN_MAE_BOUND`), so splits within this band are ties to it.
const PLACE_SIM_TOLERANCE: f64 = 0.1;

/// Simulated aggregate LLC miss ratio of `apps` sharing one cache:
/// the sum of each app's demand miss ratio in one baseline co-run.
fn simulated_group_miss_ratio(m: &repf::sim::MachineConfig, apps: &[BenchmarkId]) -> f64 {
    let setups: Vec<CoreSetup> = apps
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let w = build(
                id,
                &BuildOptions {
                    input: InputSet::Ref,
                    addr_offset: ((i + 1) as u64) << 45,
                    refs_scale: 0.3,
                },
            );
            CoreSetup {
                base_cpr: w.base_cpr,
                target_refs: w.nominal_refs,
                source: Box::new(w.cycle()),
                plan: None,
                hw: None,
            }
        })
        .collect();
    Sim::run_mix(m, setups)
        .iter()
        .map(|o| o.stats.llc_misses as f64 / o.stats.demand_accesses.max(1) as f64)
        .sum()
}

#[test]
fn placement_search_is_exact_and_picks_the_simulated_best_split() {
    // The serving layer's `Place` endpoint walks every canonical
    // partition, so its answer is the exact optimum: at 12 sessions →
    // 3 groups of 4 it visits all 18,378 nodes of the tree. The split
    // it picks must be the one the cycle-level simulator finds best (a
    // shared-cache check: the walk ranks splits by the analytic co-run
    // composition).
    let m = amd_phenom_ii();
    let cache = cache(&m);
    let llc_bytes = m.hierarchy.llc.size_bytes;

    let models: Vec<&StatStackModel> = BenchmarkId::all()
        .iter()
        .map(|&id| cache.model(id))
        .collect();
    let weights: Vec<f64> = models.iter().map(|m| m.sample_count() as f64).collect();
    let searched = place(&models, &weights, 3, 4, llc_bytes);
    assert_eq!(searched.nodes_explored, 18_378, "12 -> 3x4 walks every node");

    let splits: [[[usize; 2]; 2]; 3] = [[[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]]];
    for (mi, spec) in generate_mixes(PLACE_ORACLE_MIXES, PLACE_ORACLE_SEED)
        .iter()
        .enumerate()
    {
        let mix_models: Vec<&StatStackModel> =
            spec.apps.iter().map(|&id| cache.model(id)).collect();
        let mix_weights: Vec<f64> = mix_models.iter().map(|m| m.sample_count() as f64).collect();
        let best = place(&mix_models, &mix_weights, 2, 2, llc_bytes);
        let simulated: Vec<f64> = splits
            .iter()
            .map(|split| {
                split
                    .iter()
                    .map(|g| simulated_group_miss_ratio(&m, &[spec.apps[g[0]], spec.apps[g[1]]]))
                    .sum()
            })
            .collect();
        let picked = splits
            .iter()
            .position(|split| best.groups == split.map(|g| g.to_vec()))
            .expect("a 2+2 placement is one of the three splits");
        let sim_best = simulated.iter().copied().fold(f64::INFINITY, f64::min);
        eprintln!(
            "placement mix {mi} {:?}: picked split {picked} simulates at {:.4}, best {sim_best:.4}",
            spec.apps, simulated[picked]
        );
        assert!(
            simulated[picked] <= sim_best + PLACE_SIM_TOLERANCE,
            "mix {mi} of generate_mixes({PLACE_ORACLE_MIXES}, {PLACE_ORACLE_SEED:#x}), apps {:?}: \
             the searched split simulates at {:.4}, the best split at {sim_best:.4}",
            spec.apps,
            simulated[picked]
        );
    }
}
