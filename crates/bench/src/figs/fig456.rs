//! Figures 4, 5 and 6: single-thread speedup, off-chip traffic increase
//! and average off-chip bandwidth for every benchmark under every
//! prefetching policy, on both machines. All three figures are views of
//! one set of runs, so they share the evaluation.

use crate::machines;
use crate::soloeval::{evaluate_all, BenchEval};
use repf_metrics::{table::pct, Table};
use repf_sim::{MachineConfig, Policy};

fn fig4_panel(machine: &MachineConfig, evals: &[BenchEval]) {
    let mut t = Table::new(vec![
        "bench",
        "Hardware Pref.",
        "Software Pref.",
        "Soft. Pref.+NT",
        "Stride-centric",
    ]);
    let mut sums = [0.0f64; 4];
    for e in evals {
        let s: Vec<f64> = [
            Policy::Hardware,
            Policy::Software,
            Policy::SoftwareNt,
            Policy::StrideCentric,
        ]
        .iter()
        .map(|&p| e.speedup(p) - 1.0)
        .collect();
        for (acc, v) in sums.iter_mut().zip(&s) {
            *acc += v;
        }
        t.row(vec![
            e.id.name().to_string(),
            pct(s[0]),
            pct(s[1]),
            pct(s[2]),
            pct(s[3]),
        ]);
    }
    let n = evals.len() as f64;
    t.row(vec![
        "average".to_string(),
        pct(sums[0] / n),
        pct(sums[1] / n),
        pct(sums[2] / n),
        pct(sums[3] / n),
    ]);
    println!("--- {} ---", machine.name);
    println!("{}", t.render());
}

fn fig5_panel(machine: &MachineConfig, evals: &[BenchEval]) {
    let mut t = Table::new(vec![
        "bench",
        "Hardware Pref.",
        "Software Pref.",
        "Soft Pref.+NT",
        "Stride-centric",
    ]);
    let mut sums = [0.0f64; 4];
    for e in evals {
        let s: Vec<f64> = [
            Policy::Hardware,
            Policy::Software,
            Policy::SoftwareNt,
            Policy::StrideCentric,
        ]
        .iter()
        .map(|&p| e.traffic_increase(p))
        .collect();
        for (acc, v) in sums.iter_mut().zip(&s) {
            *acc += v;
        }
        t.row(vec![
            e.id.name().to_string(),
            pct(s[0]),
            pct(s[1]),
            pct(s[2]),
            pct(s[3]),
        ]);
    }
    let n = evals.len() as f64;
    t.row(vec![
        "average".to_string(),
        pct(sums[0] / n),
        pct(sums[1] / n),
        pct(sums[2] / n),
        pct(sums[3] / n),
    ]);
    println!("--- {} ---", machine.name);
    println!("{}", t.render());
}

fn fig6_panel(machine: &MachineConfig, evals: &[BenchEval]) {
    let mut t = Table::new(vec![
        "bench",
        "Baseline",
        "Hardware Pref.",
        "Soft. Pref.+NT",
        "Stride-centric",
    ]);
    let mut sums = [0.0f64; 4];
    for e in evals {
        let s: Vec<f64> = [
            Policy::Baseline,
            Policy::Hardware,
            Policy::SoftwareNt,
            Policy::StrideCentric,
        ]
        .iter()
        .map(|&p| e.bandwidth_gbps(p, machine))
        .collect();
        for (acc, v) in sums.iter_mut().zip(&s) {
            *acc += v;
        }
        t.row(vec![
            e.id.name().to_string(),
            format!("{:.2}", s[0]),
            format!("{:.2}", s[1]),
            format!("{:.2}", s[2]),
            format!("{:.2}", s[3]),
        ]);
    }
    let n = evals.len() as f64;
    t.row(vec![
        "average".to_string(),
        format!("{:.2}", sums[0] / n),
        format!("{:.2}", sums[1] / n),
        format!("{:.2}", sums[2] / n),
        format!("{:.2}", sums[3] / n),
    ]);
    println!(
        "--- {} (GB/s; peak {:.1}) ---",
        machine.name,
        machine.peak_gb_per_s()
    );
    println!("{}", t.render());
}

/// Which of the three figures to print.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// Speedups (Figure 4).
    Fig4,
    /// Traffic increases (Figure 5).
    Fig5,
    /// Bandwidths (Figure 6).
    Fig6,
    /// All three from one set of runs.
    All,
}

/// Regenerate Figures 4/5/6.
pub fn run(refs_scale: f64, which: Which) {
    for m in machines() {
        eprintln!(
            "[fig4-6] evaluating 12 benchmarks x 5 policies on {} ...",
            m.name
        );
        let evals = evaluate_all(&m, refs_scale);
        if matches!(which, Which::Fig4 | Which::All) {
            println!(
                "\n# Figure 4: speedup over baseline (HW prefetch off), benchmarks in isolation"
            );
            fig4_panel(&m, &evals);
        }
        if matches!(which, Which::Fig5 | Which::All) {
            println!(
                "\n# Figure 5: increase in data volume fetched from DRAM (off-chip read traffic)"
            );
            fig5_panel(&m, &evals);
        }
        if matches!(which, Which::Fig6 | Which::All) {
            println!("\n# Figure 6: average off-chip memory bandwidth");
            fig6_panel(&m, &evals);
        }
    }
}
