//! Run the complete reproduction: every table and figure of the paper, in
//! order. Budget ~20-40 minutes at default scale; set `REPF_MIXES` /
//! `REPF_MIX_SCALE` / `REPF_SCALE` to shrink and `REPF_THREADS` to pick
//! the evaluation engine's worker count. Writes a machine-readable
//! summary of the mix-study phase to `BENCH_mixstudy.json`.
use repf_bench::figs;
use repf_bench::obs::{self, Timings};
use repf_sim::Exec;

fn main() {
    repf_bench::print_header("repf: full reproduction of every table and figure");
    let scale = repf_bench::env_scale();
    let exec = Exec::from_env();
    let mut timings = Timings::new();
    timings.time("fig3", || figs::fig3::run(scale));
    timings.time("statstack_coverage", || figs::statstack_cov::run(scale));
    timings.time("table1", || figs::table1::run(scale));
    timings.time("fig456", || {
        figs::fig456::run(scale, figs::fig456::Which::All)
    });
    let (studies, report) = figs::mixfigs::run_studies_timed(
        repf_bench::env_mixes(),
        scale,
        repf_bench::env_mix_scale(),
        true,
        &exec,
    );
    obs::write_json(
        "BENCH_mixstudy.json",
        &report.to_json(&studies, repf_bench::env_mix_scale()),
    );
    figs::mixfigs::print_fig7(&studies);
    figs::mixfigs::print_fig9(&studies);
    figs::mixfigs::print_fig10(&studies);
    figs::mixfigs::print_fig11(&studies);
    timings.time("fig8", || {
        figs::fig8::run(scale, repf_bench::env_mix_scale())
    });
    timings.time("fig12", || figs::fig12::run(scale));
    eprintln!(
        "[time] total (outside mix studies): {:.2}s; mix studies: {:.2}s on {} thread(s)",
        timings.total_secs(),
        report.timings.total_secs(),
        report.threads
    );
    println!("\nDone. Paper-vs-measured commentary lives in EXPERIMENTS.md.");
}
