//! The `paper` workload: a fixed slice of the reproduction pipeline, in
//! process. Per Table II machine it builds the `PlanCache` (sampling,
//! baseline run, StatStack and MDDLI analysis of all 12 benchmark
//! analogs), runs every benchmark solo under three policies and runs a
//! fixed set of 4-app mixes under two, all on `Exec`.
//!
//! Every simulated statistic is folded into a digest pinned below: a
//! change meant only to speed the pipeline up must leave it identical.

use crate::report::{median, quantile, Outcome, Values};
use repf_core::analyze_with_model;
use repf_sampling::{Sampler, SamplerConfig};
use repf_sim::solo::PROFILE_WINDOW;
use repf_sim::{
    amd_phenom_ii, generate_mixes, intel_i7_2600k, run_mix, run_policy, Exec, MachineConfig,
    MixSpec, PlanCache, Policy, SoloOutcome,
};
use repf_statstack::StatStackModel;
use repf_trace::TraceSource;
use repf_workloads::{build, BenchmarkId, BuildOptions, InputSet};
use std::hint::black_box;
use std::time::Instant;

/// The slice's size.
#[derive(Clone, Copy)]
pub struct Size {
    /// Solo run length scale (`BuildOptions::refs_scale`).
    refs_scale: f64,
    /// Mix run length scale.
    mix_scale: f64,
    /// Number of 4-app mixes.
    mixes: usize,
    /// The digest every slice of this size must produce.
    digest: u64,
}

/// The benchmark's slice.
pub const FULL: Size = Size {
    refs_scale: 0.02,
    mix_scale: 0.02,
    mixes: 4,
    digest: 0xd271_57c7_308f_dd26,
};

/// The smoke test's slice.
pub const TINY: Size = Size {
    refs_scale: 0.002,
    mix_scale: 0.002,
    mixes: 1,
    digest: 0x75bf_7ac8_d8de_82b8,
};

/// The mixes are the same on every run, so the digest can be pinned.
const MIX_SEED: u64 = 0x1C99_2014;
const SOLO_POLICIES: [Policy; 3] = [Policy::Baseline, Policy::Hardware, Policy::SoftwareNt];
const MIX_POLICIES: [Policy; 2] = [Policy::Baseline, Policy::SoftwareNt];

/// Everything a slice needs before its first layer call.
struct Inputs {
    machines: [MachineConfig; 2],
    opts: BuildOptions,
    /// The options `prepare` profiles with: a window several runs long.
    profile_opts: BuildOptions,
    mix_scale: f64,
    mixes: Vec<MixSpec>,
    solo_cells: Vec<(BenchmarkId, Policy)>,
    mix_cells: Vec<(usize, Policy)>,
    exec: Exec,
}

/// Set-up before the first layer call: the engine, the machine configs,
/// the mixes and the cell lists. Each layer builds its own trace inputs.
fn setup(size: Size, threads: usize) -> Inputs {
    let opts = BuildOptions {
        refs_scale: size.refs_scale,
        ..BuildOptions::default()
    };
    let profile_opts = BuildOptions {
        refs_scale: size.refs_scale * PROFILE_WINDOW,
        ..opts
    };
    let mixes = generate_mixes(size.mixes, MIX_SEED);
    let solo_cells = BenchmarkId::all()
        .into_iter()
        .flat_map(|id| SOLO_POLICIES.map(|p| (id, p)))
        .collect();
    let mix_cells = (0..mixes.len())
        .flat_map(|k| MIX_POLICIES.map(|p| (k, p)))
        .collect();
    Inputs {
        machines: [amd_phenom_ii(), intel_i7_2600k()],
        opts,
        profile_opts,
        mix_scale: size.mix_scale,
        mixes,
        solo_cells,
        mix_cells,
        exec: Exec::new(threads),
    }
}

/// FNV-1a over the simulated statistics.
struct Digest(u64);

impl Digest {
    fn fold(&mut self, o: &SoloOutcome) {
        for v in [
            o.cycles,
            o.refs,
            o.stats.dram_read_bytes,
            o.stats.dram_write_bytes,
            o.sw_prefetches,
        ] {
            for b in v.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
}

/// Set-up is timed in this many batches per run; `setup_s` is the median
/// batch's time per set-up.
const SETUP_BATCHES: usize = 9;
/// Set-ups per batch: one takes microseconds, so a batch is timed whole.
const SETUP_BATCH: u32 = 256;

/// Median over batches of the time one [`setup`] takes, seconds.
fn setup_s(size: Size, threads: usize) -> f64 {
    let per_batch: Vec<f64> = (0..SETUP_BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..SETUP_BATCH {
                black_box(setup(size, threads));
            }
            t.elapsed().as_secs_f64() / f64::from(SETUP_BATCH)
        })
        .collect();
    median(&per_batch)
}

/// What one slice measured.
#[derive(Default)]
struct Slice {
    wall_s: f64,
    prepare_s: f64,
    solo_s: f64,
    mix_s: f64,
    cell_ms: Vec<f64>,
    sim_refs: u64,
    reuse_samples: u64,
    digest: u64,
    /// Per machine, per benchmark: the measured Δ the plans used.
    deltas: Vec<Vec<f64>>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run the slice on `inp`.
fn slice(inp: &Inputs) -> Slice {
    let mut s = Slice::default();
    let t0 = Instant::now();
    let mut h = Digest(0xcbf2_9ce4_8422_2325);
    for m in &inp.machines {
        let t = Instant::now();
        let cache = PlanCache::build_with(m, &inp.opts, &inp.exec);
        s.prepare_s += t.elapsed().as_secs_f64();
        let mut deltas = Vec::new();
        for id in BenchmarkId::all() {
            let p = cache.get(id);
            h.fold(&p.baseline);
            s.reuse_samples += p.profile.sample_count() as u64;
            deltas.push(p.delta);
        }
        s.deltas.push(deltas);
        let t = Instant::now();
        let solo = inp.exec.map(&inp.solo_cells, |_, &(id, policy)| {
            let t = Instant::now();
            let o = run_policy(id, m, cache.get(id), policy, &inp.opts);
            (vec![o], ms_since(t))
        });
        s.solo_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mixed = inp.exec.map(&inp.mix_cells, |_, &(k, policy)| {
            let t = Instant::now();
            let o = run_mix(
                &inp.mixes[k],
                m,
                policy,
                &cache,
                [InputSet::Ref; 4],
                inp.mix_scale,
            );
            (o.per_app, ms_since(t))
        });
        s.mix_s += t.elapsed().as_secs_f64();
        for (outcomes, ms) in solo.into_iter().chain(mixed) {
            for o in &outcomes {
                h.fold(o);
                s.sim_refs += o.refs;
            }
            s.cell_ms.push(ms);
        }
    }
    s.wall_s = t0.elapsed().as_secs_f64();
    s.digest = h.0;
    s
}

/// Slices run back to back until `seconds` have passed (at least one).
fn pass(inp: &Inputs, seconds: f64) -> Vec<Slice> {
    let t0 = Instant::now();
    let mut out = vec![slice(inp)];
    while t0.elapsed().as_secs_f64() + out[0].wall_s <= seconds {
        out.push(slice(inp));
    }
    out
}

/// Layer seconds re-timed through each layer's own entry point, on the
/// inputs `prepare` uses: trace generation, sampling, fit and analysis.
fn retime(v: &mut Values, inp: &Inputs, deltas: &[Vec<f64>]) {
    let (mut gen, mut sampling, mut fit, mut analyze) = (0.0, 0.0, 0.0, 0.0);
    let profile_opts = &inp.profile_opts;
    for (m, deltas) in inp.machines.iter().zip(deltas) {
        for (id, &delta) in BenchmarkId::all().into_iter().zip(deltas) {
            let t = Instant::now();
            let mut w = build(id, profile_opts);
            while let Some(r) = w.next_ref() {
                black_box(r);
            }
            gen += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let sampler = Sampler::new(SamplerConfig {
                sample_period: m.profile_period,
                line_bytes: m.hierarchy.l1.line_bytes,
                seed: 0x5a3b_0000 ^ id as u64,
            });
            let profile = sampler.profile(&mut build(id, profile_opts));
            sampling += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let model = StatStackModel::from_profile(&profile);
            fit += t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(analyze_with_model(
                &profile,
                &model,
                &m.analysis_config(delta),
            ));
            analyze += t.elapsed().as_secs_f64();
        }
    }
    v.put("paper.trace_gen_s", gen);
    v.put("paper.sampling_s", sampling);
    v.put("paper.fit_s", fit);
    v.put("paper.analyze_s", analyze);
}

fn put_pass(v: &mut Values, slices: &[Slice]) {
    let med = |f: fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    let mut cells: Vec<f64> = slices
        .iter()
        .flat_map(|s| s.cell_ms.iter().copied())
        .collect();
    cells.sort_by(f64::total_cmp);
    let refs: u64 = slices.iter().map(|s| s.sim_refs).sum();
    let sim_s: f64 = slices.iter().map(|s| s.solo_s + s.mix_s).sum();
    let wall_s: f64 = slices.iter().map(|s| s.wall_s).sum();
    v.put("p50_ms", quantile(&cells, 0.5));
    v.put("p99_ms", quantile(&cells, 0.99));
    v.put("capacity_ops", refs as f64 / wall_s);
    v.put("wall_s", med(|s| s.wall_s));
    v.put("paper.prepare_s", med(|s| s.prepare_s));
    v.put("paper.solo_s", med(|s| s.solo_s));
    v.put("paper.mix_s", med(|s| s.mix_s));
    v.put("paper.sim_refs", slices[0].sim_refs as f64);
    v.put("paper.reuse_samples", slices[0].reuse_samples as f64);
    v.put("paper.sim_refs_per_s", refs as f64 / sim_s);
}

/// Run the paper workload. Its inputs are fixed, whatever the seed, so
/// the digest can be pinned. Both modes run the same pass of slices; a
/// traced run then re-times the layers, and `trace.overhead_ratio` is its
/// wall time over the pass's alone, i.e. over what the run takes
/// untraced.
pub fn run(size: Size, seconds: f64, traced: bool, threads: usize) -> Outcome {
    let mut values = Values::default();
    values.put("setup_s", setup_s(size, threads));
    let inp = setup(size, threads);
    let t = Instant::now();
    let slices = pass(&inp, seconds);
    put_pass(&mut values, &slices);
    if traced {
        let pass_s = t.elapsed().as_secs_f64();
        retime(&mut values, &inp, &slices[0].deltas);
        values.put("trace.overhead_ratio", t.elapsed().as_secs_f64() / pass_s);
    }
    let failed = slices.iter().filter(|s| s.digest != size.digest).count() as u64;
    let cells = slices[0].cell_ms.len();
    Outcome {
        values,
        attempted: slices.len() as u64,
        failed,
        provenance: vec![
            ("slices".into(), slices.len().to_string()),
            ("cells_per_slice".into(), cells.to_string()),
            ("threads".into(), threads.to_string()),
            ("refs_scale".into(), size.refs_scale.to_string()),
            ("mix_scale".into(), size.mix_scale.to_string()),
            ("mixes".into(), size.mixes.to_string()),
            ("digest".into(), format!("{:#018x}", slices[0].digest)),
            ("digest_pinned".into(), format!("{:#018x}", size.digest)),
        ],
    }
}
