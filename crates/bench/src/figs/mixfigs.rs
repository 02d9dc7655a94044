//! Figures 7, 9, 10 and 11: all views of the 180-mix studies (original
//! inputs and alternate inputs), on both machines.

use crate::machines;
use crate::mixeval::{print_distribution_pair, run_study_with, InputMode, MixStudy};
use crate::obs::{Json, Timings};
use repf_metrics::Table;
use repf_sim::{Exec, MachineConfig, PlanCache};
use repf_workloads::BuildOptions;

/// The four studies (machine × input mode), computed once.
pub struct Studies {
    /// (machine, original-input study, different-input study)
    pub per_machine: Vec<(MachineConfig, MixStudy, Option<MixStudy>)>,
}

/// Wall-clock accounting of one [`run_studies_timed`] call, for the
/// machine-readable `BENCH_mixstudy.json` summary.
pub struct StudyReport {
    /// Worker threads the studies ran on.
    pub threads: usize,
    /// Mixes per study.
    pub n_mixes: usize,
    /// Phase timings (plan building and each study, per machine).
    pub timings: Timings,
}

impl StudyReport {
    /// Simulation cells (mix × policy runs, incl. baseline) per study.
    pub fn cells_per_study(&self) -> usize {
        self.n_mixes * 3
    }

    /// Render the report plus headline study results as JSON.
    pub fn to_json(&self, studies: &Studies, mix_scale: f64) -> Json {
        let study_json = |s: &MixStudy| {
            Json::obj([
                ("n_mixes", Json::Num(s.specs.len() as f64)),
                (
                    "sw_weighted_speedup_mean",
                    Json::Num(s.dist(false, |x| x.weighted_speedup).mean()),
                ),
                (
                    "hw_weighted_speedup_mean",
                    Json::Num(s.dist(true, |x| x.weighted_speedup).mean()),
                ),
                (
                    "sw_fair_speedup_mean",
                    Json::Num(s.dist(false, |x| x.fair_speedup).mean()),
                ),
                (
                    "sw_traffic_increase_mean",
                    Json::Num(s.dist(false, |x| x.traffic_increase).mean()),
                ),
                ("sw_wins_fraction", Json::Num(s.sw_wins_fraction())),
            ])
        };
        let machines = studies
            .per_machine
            .iter()
            .map(|(m, orig, diff)| {
                let mut fields = vec![
                    ("machine".to_string(), Json::str(m.name)),
                    ("original".to_string(), study_json(orig)),
                ];
                if let Some(diff) = diff {
                    fields.push(("different".to_string(), study_json(diff)));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::obj([
            ("schema", Json::str("repf-bench/mixstudy/v1")),
            ("threads", Json::Num(self.threads as f64)),
            ("n_mixes", Json::Num(self.n_mixes as f64)),
            ("mix_scale", Json::Num(mix_scale)),
            ("cells_per_study", Json::Num(self.cells_per_study() as f64)),
            ("phases", self.timings.to_json()),
            ("total_secs", Json::Num(self.timings.total_secs())),
            ("machines", Json::Arr(machines)),
        ])
    }
}

/// Run the mixed-workload studies. `with_alt_inputs` also runs the
/// §VII-D different-input variant (needed by Figures 9–11).
pub fn run_studies(
    n_mixes: usize,
    profile_scale: f64,
    mix_scale: f64,
    with_alt_inputs: bool,
) -> Studies {
    run_studies_timed(
        n_mixes,
        profile_scale,
        mix_scale,
        with_alt_inputs,
        &Exec::from_env(),
    )
    .0
}

/// [`run_studies`] on an explicit engine, with per-phase wall-clock
/// accounting and cells/sec progress lines.
pub fn run_studies_timed(
    n_mixes: usize,
    profile_scale: f64,
    mix_scale: f64,
    with_alt_inputs: bool,
    exec: &Exec,
) -> (Studies, StudyReport) {
    let mut timings = Timings::new();
    let cells = n_mixes * 3;
    let mut per_machine = Vec::new();
    eprintln!(
        "[mixes] evaluation engine: {} worker thread(s) (REPF_THREADS to override)",
        exec.threads()
    );
    for m in machines() {
        eprintln!("[mixes] preparing plans for {} ...", m.name);
        let cache = timings.time(&format!("{}/plans", m.name), || {
            PlanCache::build_with(
                &m,
                &BuildOptions {
                    refs_scale: profile_scale,
                    ..Default::default()
                },
                exec,
            )
        });
        let mut study = |label: &str, seed: u64, mode: InputMode| {
            eprintln!(
                "[mixes] running {n_mixes} mixes ({label} inputs) on {} ...",
                m.name
            );
            let phase = format!("{}/mixes-{label}", m.name);
            let s = timings.time(&phase, || {
                run_study_with(&m, &cache, n_mixes, seed, mode, mix_scale, exec)
            });
            let secs = timings.secs(&phase).unwrap_or(0.0);
            if secs > 0.0 {
                eprintln!(
                    "[mixes]   {cells} cells in {secs:.2}s ({:.1} cells/s)",
                    cells as f64 / secs
                );
            }
            s
        };
        let orig = study("original", 0xF1697, InputMode::Original);
        let diff = with_alt_inputs.then(|| study("different", 0xF1699, InputMode::Different));
        per_machine.push((m, orig, diff));
    }
    (
        Studies { per_machine },
        StudyReport {
            threads: exec.threads(),
            n_mixes,
            timings,
        },
    )
}

/// Figure 7: sorted distributions of weighted speedup and traffic
/// increase, original inputs.
pub fn print_fig7(studies: &Studies) {
    println!("\n# Figure 7: distributions across the mixed workloads (original inputs)");
    for (m, orig, _) in &studies.per_machine {
        println!("\n--- Speedup on {} (higher is better) ---", m.name);
        print_distribution_pair(
            "weighted speedup over baseline mix, minus 1",
            &orig.dist(false, |s| s.weighted_speedup - 1.0),
            &orig.dist(true, |s| s.weighted_speedup - 1.0),
            true,
            11,
        );
        println!(
            "--- Off-chip traffic increase on {} (lower is better) ---",
            m.name
        );
        print_distribution_pair(
            "off-chip traffic increase over baseline mix",
            &orig.dist(false, |s| s.traffic_increase),
            &orig.dist(true, |s| s.traffic_increase),
            true,
            11,
        );
        let sw = orig.dist(false, |s| s.weighted_speedup - 1.0);
        let hw = orig.dist(true, |s| s.weighted_speedup - 1.0);
        println!(
            "summary: SW+NT mean {:+.1}% (min {:+.1}%) | HW mean {:+.1}% | SW beats HW in {:.0}% of mixes | HW slows {:.0}% of mixes",
            sw.mean() * 100.0,
            sw.min() * 100.0,
            hw.mean() * 100.0,
            orig.sw_wins_fraction() * 100.0,
            hw.fraction_at_most(-1e-9) * 100.0,
        );
        // The SW-vs-HW gap with a bootstrap CI: is the win distinguishable
        // from sampling noise at this mix count?
        let gaps: Vec<f64> = orig
            .software
            .iter()
            .zip(&orig.hardware)
            .map(|(s, h)| s.weighted_speedup - h.weighted_speedup)
            .collect();
        let ci = repf_metrics::bootstrap_mean_ci(&gaps, 0.95, 2000, 0xC1);
        println!(
            "SW-over-HW throughput gap: {:+.1}% mean, 95% CI [{:+.1}%, {:+.1}%]{}",
            ci.mean * 100.0,
            ci.lo * 100.0,
            ci.hi * 100.0,
            if ci.excludes(0.0) {
                " (significant)"
            } else {
                ""
            }
        );
    }
}

/// Figure 9: speedup distributions with different inputs than profiled.
pub fn print_fig9(studies: &Studies) {
    println!("\n# Figure 9: speedup distributions, mixes run with *different inputs*");
    println!("# (prefetch plans still come from the reference-input profile, §VII-D)");
    for (m, _, diff) in &studies.per_machine {
        let Some(diff) = diff else { continue };
        println!("\n--- {} ---", m.name);
        print_distribution_pair(
            "weighted speedup over baseline mix, minus 1",
            &diff.dist(false, |s| s.weighted_speedup - 1.0),
            &diff.dist(true, |s| s.weighted_speedup - 1.0),
            true,
            11,
        );
        let sw = diff.dist(false, |s| s.weighted_speedup - 1.0);
        let hw = diff.dist(true, |s| s.weighted_speedup - 1.0);
        println!(
            "summary: SW+NT mean {:+.1}% | HW mean {:+.1}% | SW wins {:.0}%",
            sw.mean() * 100.0,
            hw.mean() * 100.0,
            diff.sw_wins_fraction() * 100.0
        );
    }
}

/// Figure 10: fair-speedup averages (harmonic mean of per-app speedups).
pub fn print_fig10(studies: &Studies) {
    println!("\n# Figure 10: fair speedup (normalized to baseline), averages over mixes");
    let mut t = Table::new(vec!["configuration", "Soft Pref.+NT", "Hardware Pref."]);
    for (m, orig, diff) in &studies.per_machine {
        t.row(vec![
            format!("{} (orig inputs)", m.name),
            format!("{:.3}", orig.dist(false, |s| s.fair_speedup).mean()),
            format!("{:.3}", orig.dist(true, |s| s.fair_speedup).mean()),
        ]);
        if let Some(diff) = diff {
            t.row(vec![
                format!("{} (diff inputs)", m.name),
                format!("{:.3}", diff.dist(false, |s| s.fair_speedup).mean()),
                format!("{:.3}", diff.dist(true, |s| s.fair_speedup).mean()),
            ]);
        }
    }
    println!("{}", t.render());
}

/// Figure 11: QoS degradation averages (0 is ideal).
pub fn print_fig11(studies: &Studies) {
    println!("\n# Figure 11: QoS degradation (cumulative slowdown per mix; closer to 0 is better)");
    let mut t = Table::new(vec!["configuration", "Soft Pref.+NT", "Hardware Pref."]);
    for (m, orig, diff) in &studies.per_machine {
        t.row(vec![
            format!("{} (orig inputs)", m.name),
            format!("{:+.1}%", orig.dist(false, |s| s.qos).mean() * 100.0),
            format!("{:+.1}%", orig.dist(true, |s| s.qos).mean() * 100.0),
        ]);
        if let Some(diff) = diff {
            t.row(vec![
                format!("{} (diff inputs)", m.name),
                format!("{:+.1}%", diff.dist(false, |s| s.qos).mean() * 100.0),
                format!("{:+.1}%", diff.dist(true, |s| s.qos).mean() * 100.0),
            ]);
        }
    }
    println!("{}", t.render());
}
