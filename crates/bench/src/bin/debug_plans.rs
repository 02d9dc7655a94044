//! Development aid: print the exact prefetch directives each analysis
//! produced for one benchmark.

use repf_bench::machines;
use repf_sim::prepare;
use repf_workloads::{BenchmarkId, BuildOptions};

fn main() {
    let id = std::env::args()
        .nth(1)
        .and_then(|n| BenchmarkId::all().into_iter().find(|b| b.name() == n))
        .unwrap_or(BenchmarkId::Libquantum);
    let opts = BuildOptions {
        refs_scale: repf_bench::env_scale(),
        ..Default::default()
    };
    for m in machines() {
        let p = prepare(id, &m, &opts);
        println!("== {} on {} (delta {:.2}) ==", id, m.name, p.delta);
        println!("-- delinquent loads --");
        for d in &p.analysis.delinquent {
            println!(
                "  {}: mr_l1 {:.3} mr_l2 {:.3} mr_llc {:.3} lat {:.1} execs {}",
                d.pc, d.mr_l1, d.mr_l2, d.mr_llc, d.avg_miss_latency, d.est_execs
            );
        }
        println!("-- MDDLI plan --");
        for (pc, d) in p.plan_nt.iter_sorted() {
            println!(
                "  {pc}: dist {} stride {} nta {}",
                d.distance_bytes, d.stride, d.nta
            );
        }
        println!("-- stride-centric plan --");
        for (pc, d) in p.stride_centric.iter_sorted() {
            println!("  {pc}: dist {} stride {}", d.distance_bytes, d.stride);
        }
        println!("-- rejected --");
        for (pc, r) in &p.analysis.rejected {
            println!("  {pc}: {r:?}");
        }
    }
}
