//! # repf-bench
//!
//! The benchmark harness: one binary per table/figure of the paper (run
//! with `cargo run -p repf-bench --release --bin <name>`), plus Criterion
//! component benchmarks (`cargo bench`).
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table I — prefetch coverage & overhead, MDDLI vs stride-centric |
//! | `statstack_coverage` | §IV — StatStack miss coverage vs functional simulation |
//! | `fig3` | Figure 3 — application + per-load miss-ratio curves (mcf) |
//! | `fig4` | Figure 4 — single-thread speedup per policy, both machines |
//! | `fig5` | Figure 5 — off-chip traffic increase per policy |
//! | `fig6` | Figure 6 — average off-chip bandwidth |
//! | `fig7` | Figure 7 — 180-mix throughput and traffic distributions |
//! | `fig8` | Figure 8 — the cigar/gcc/lbm/libquantum mix drill-down |
//! | `fig9` | Figure 9 — 180 mixes with alternate inputs |
//! | `fig10` | Figure 10 — fair speedup averages |
//! | `fig11` | Figure 11 — QoS degradation averages |
//! | `fig12` | Figure 12 — parallel workloads at 1/2/4 threads |
//! | `repro_all` | everything above, in order |
//! | `ablations` | design-choice sweeps beyond the paper (α, 70 % rule, distance margin, sampling period, HW+SW combined, GHB baseline) |
//!
//! Scale knobs (environment variables):
//!
//! * `REPF_SCALE` — multiplies run lengths (default 1.0; the figures in
//!   `EXPERIMENTS.md` use 1.0);
//! * `REPF_MIXES` — number of random mixes (default 180);
//! * `REPF_MIX_SCALE` — run-length scale for mix experiments (default
//!   0.5 — four cycled co-runners make mixes ~10× the work of a solo
//!   run);
//! * `REPF_THREADS` — worker threads for the parallel evaluation engine
//!   (default: all available cores). Results are bit-identical at any
//!   thread count.

pub mod figs;
pub mod mixeval;
pub mod obs;
pub mod soloeval;

use repf_sim::MachineConfig;

/// Run-length scale from `REPF_SCALE` (default 1.0).
pub fn env_scale() -> f64 {
    std::env::var("REPF_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Mix count from `REPF_MIXES` (default 180, as in the paper).
pub fn env_mixes() -> usize {
    std::env::var("REPF_MIXES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(180)
}

/// Mix run-length scale from `REPF_MIX_SCALE` (default 0.5 — long
/// enough for the resident-table reuse that LLC contention acts on).
pub fn env_mix_scale() -> f64 {
    std::env::var("REPF_MIX_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5)
}

/// The two machines of Table II.
pub fn machines() -> [MachineConfig; 2] {
    [repf_sim::amd_phenom_ii(), repf_sim::intel_i7_2600k()]
}

/// Print the standard experiment header (machine table, Table II).
pub fn print_header(title: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("==============================================================");
    let mut t = repf_metrics::Table::new(vec!["CPU", "L1$", "L2$", "LLC", "Freq."]);
    for m in machines() {
        let h = &m.hierarchy;
        t.row(vec![
            m.name.to_string(),
            format!("{} kB", h.l1.size_bytes >> 10),
            format!("{} kB", h.l2.size_bytes >> 10),
            format!("{} MB", h.llc.size_bytes >> 20),
            format!("{:.1} GHz", m.freq_ghz),
        ]);
    }
    println!("{}", t.render());
}
