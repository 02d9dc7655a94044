//! Regenerate Figure 4 (single-thread speedups).
use repf_bench::figs::fig456::{run, Which};
fn main() {
    repf_bench::print_header(
        "Figure 4: Speedup of selected benchmarks with different prefetching policies",
    );
    run(repf_bench::env_scale(), Which::Fig4);
}
