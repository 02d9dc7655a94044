//! Determinism regression suite for the parallel evaluation engine: the
//! mix study must be **bit-identical** to the serial path at any thread
//! count. Every cell is a pure function of (spec, seed, machine, policy)
//! and results are merged in submission order, so even the f64 bits of
//! every summary must match exactly — any drift here means a worker
//! leaked state into a cell.

use repf_bench::mixeval::{build_cache, run_study_with, InputMode, MixStudy};
use repf_sim::{amd_phenom_ii, Exec};

const N_MIXES: usize = 6;
const MIX_SCALE: f64 = 0.01;
const PROFILE_SCALE: f64 = 0.02;

/// Every f64 of every summary, as raw bits (exact equality, no epsilon).
fn fingerprint(s: &MixStudy) -> Vec<u64> {
    s.hardware
        .iter()
        .chain(&s.software)
        .flat_map(|m| {
            [
                m.weighted_speedup.to_bits(),
                m.fair_speedup.to_bits(),
                m.qos.to_bits(),
                m.traffic_increase.to_bits(),
            ]
        })
        .collect()
}

fn assert_identical(mode: InputMode, seed: u64) {
    let m = amd_phenom_ii();
    let cache = build_cache(&m, PROFILE_SCALE);
    let serial = run_study_with(&m, &cache, N_MIXES, seed, mode, MIX_SCALE, &Exec::serial());
    assert_eq!(serial.specs.len(), N_MIXES);
    for threads in [2, 4, 8] {
        let par = run_study_with(
            &m,
            &cache,
            N_MIXES,
            seed,
            mode,
            MIX_SCALE,
            &Exec::new(threads),
        );
        assert_eq!(
            serial.specs, par.specs,
            "mix specs drifted at {threads} threads"
        );
        assert_eq!(
            fingerprint(&serial),
            fingerprint(&par),
            "study results are not bit-identical at {threads} threads"
        );
    }
}

#[test]
fn original_input_study_is_bit_identical_at_any_thread_count() {
    assert_identical(InputMode::Original, 0xF1697);
}

#[test]
fn different_input_study_is_bit_identical_at_any_thread_count() {
    assert_identical(InputMode::Different, 0xF1699);
}

#[test]
fn plan_cache_contents_do_not_depend_on_build_thread_count() {
    let m = amd_phenom_ii();
    let opts = repf_workloads::BuildOptions {
        refs_scale: PROFILE_SCALE,
        ..Default::default()
    };
    let serial = repf_sim::PlanCache::build_with(&m, &opts, &Exec::serial());
    let parallel = repf_sim::PlanCache::build_with(&m, &opts, &Exec::new(8));
    for id in repf_workloads::BenchmarkId::all() {
        let (a, b) = (serial.get(id), parallel.get(id));
        assert_eq!(a.plan_nt.pcs(), b.plan_nt.pcs(), "{id}: NT plan drifted");
        assert_eq!(
            a.baseline.cycles, b.baseline.cycles,
            "{id}: baseline run drifted"
        );
        assert_eq!(a.delta.to_bits(), b.delta.to_bits(), "{id}: Δ drifted");
    }
}
