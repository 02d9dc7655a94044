//! Parallel workload analogs for Figure 12 (SPEC OMP / NAS) and the
//! `streams` bandwidth probe the paper uses to establish each machine's
//! peak off-chip bandwidth (§VII-E).
//!
//! Threads of a parallel workload run the same kernel over disjoint
//! partitions of the data (static OpenMP-style decomposition); partition
//! bases are offset per thread so a `t`-thread run touches the same total
//! footprint as the 1-thread run.

use crate::ids::{BuildOptions, ParallelId};
use crate::workload::Workload;
use repf_trace::patterns::{Gather, GatherCfg, Mix, MixEnd, StridedStream, StridedStreamCfg};
use repf_trace::rng::sub_seed;
use repf_trace::{Pc, TraceSource, TraceSourceExt};

/// References per thread for one nominal parallel run.
pub const NOMINAL_PARALLEL_REFS: u64 = 1_500_000;

fn stream(pc: u32, base: u64, len: u64, stride: i64) -> Box<dyn TraceSource> {
    Box::new(StridedStream::new(StridedStreamCfg::loads(
        Pc(pc),
        base,
        len,
        stride,
        1,
    )))
}

/// Build the per-thread workloads for `id` at `threads` threads.
///
/// The returned vector has one [`Workload`] per thread; the timing
/// simulator runs them on separate cores sharing LLC and DRAM.
pub fn build_parallel(id: ParallelId, threads: usize, opts: &BuildOptions) -> Vec<Workload> {
    assert!(threads >= 1);
    let refs = ((NOMINAL_PARALLEL_REFS as f64) * opts.refs_scale).max(1000.0) as u64;
    (0..threads)
        .map(|t| {
            // Each thread's partition: its own slice of the footprint.
            let part_off = opts.addr_offset + ((t as u64) << 40);
            let seed = sub_seed(0x09a1_17e1, (id as u64) << 8 | t as u64) ^ opts.input.seed_salt();
            let scale = opts.input.scale() / threads as f64;
            let sz = |bytes: u64| ((bytes as f64 * scale) as u64).next_multiple_of(4096);
            type Parts = Vec<(Box<dyn TraceSource>, u32)>;
            let (parts, cpr): (Parts, f64) = match id {
                // swim: five large unit-stride field sweeps with stores —
                // the most bandwidth-hungry code in the suites.
                ParallelId::Swim => (
                    vec![
                        (stream(0, part_off, sz(24 << 20), 8), 2),
                        (stream(1, part_off + (1 << 32), sz(24 << 20), 8), 2),
                        (
                            Box::new(StridedStream::new(StridedStreamCfg {
                                pc: Pc(2),
                                store_pc: Pc(3),
                                base: part_off + (2 << 32),
                                len_bytes: sz(24 << 20),
                                stride: 8,
                                passes: 1,
                                store_period: 2,
                                store_offset: -8,
                            })) as Box<dyn TraceSource>,
                            2,
                        ),
                    ],
                    1.2,
                ),
                // cg: sparse mat-vec — index stream + gather + vector
                // stream. Bandwidth-bound like swim, but less regular.
                ParallelId::Cg => (
                    vec![
                        (
                            Box::new(Gather::new(GatherCfg {
                                index_pc: Pc(0),
                                data_pc: Pc(1),
                                index_base: part_off,
                                index_stride: 4,
                                data_base: part_off + (1 << 32),
                                data_elems: ((2 << 20) as f64 * scale) as u64 + 64,
                                data_elem_bytes: 8,
                                index_len: 1 << 20,
                                passes: 1,
                                locality: 0.2,
                                locality_window: 32,
                                seed,
                            })) as Box<dyn TraceSource>,
                            4,
                        ),
                        (stream(2, part_off + (2 << 32), sz(16 << 20), 8), 4),
                    ],
                    1.5,
                ),
                // fma3d: compute-bound — big L2-resident element tables,
                // light streaming.
                ParallelId::Fma3d => (
                    vec![
                        (stream(0, part_off, 96 << 10, 64), 6),
                        (stream(1, part_off + (1 << 32), sz(4 << 20), 64), 1),
                    ],
                    6.0,
                ),
                // dc: moderate — table walks plus a modest stream.
                ParallelId::Dc => (
                    vec![
                        (stream(0, part_off, 512 << 10, 64), 4),
                        (stream(1, part_off + (1 << 32), sz(6 << 20), 16), 2),
                    ],
                    4.0,
                ),
            };
            let mix = Mix::new(parts, MixEnd::CycleComponents).take_refs(refs);
            Workload::new(id.name(), cpr, refs, Box::new(mix))
        })
        .collect()
}

/// The `streams` bandwidth probe: every core runs a pure read stream, the
/// measured aggregate bandwidth is the machine's practical peak (the paper
/// reports 15.6 GB/s for the Intel machine).
pub fn streams_probe(threads: usize, refs_per_thread: u64) -> Vec<Workload> {
    (0..threads)
        .map(|t| {
            let base = (t as u64) << 40;
            let src = StridedStream::new(StridedStreamCfg::loads(Pc(0), base, 1 << 30, 64, 64))
                .take_refs(refs_per_thread);
            Workload::new("streams", 1.0, refs_per_thread, Box::new(src))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::InputSet;
    use repf_trace::TraceSourceExt;

    #[test]
    fn thread_counts_partition_the_data() {
        for id in ParallelId::all() {
            for threads in [1usize, 2, 4] {
                let ws = build_parallel(
                    id,
                    threads,
                    &BuildOptions {
                        refs_scale: 0.01,
                        ..Default::default()
                    },
                );
                assert_eq!(ws.len(), threads);
                // Disjoint address spaces.
                let mut footprints = Vec::new();
                for mut w in ws {
                    let refs = w.collect_refs(u64::MAX);
                    assert!(!refs.is_empty());
                    let min = refs.iter().map(|r| r.addr).min().unwrap();
                    let max = refs.iter().map(|r| r.addr).max().unwrap();
                    footprints.push((min, max));
                }
                footprints.sort_unstable();
                for w in footprints.windows(2) {
                    assert!(w[0].1 < w[1].0, "{id}: thread partitions overlap");
                }
            }
        }
    }

    #[test]
    fn threads_do_equal_work() {
        // Static decomposition: every thread runs the same number of
        // references over its own partition.
        let ws = build_parallel(
            ParallelId::Swim,
            4,
            &BuildOptions {
                refs_scale: 0.01,
                ..Default::default()
            },
        );
        let lens: Vec<u64> = ws.iter().map(|w| w.nominal_refs).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]));
        assert!(ws.iter().all(|w| w.name == "swim*"));
    }

    #[test]
    fn compute_bound_codes_have_higher_cpr() {
        let opts = BuildOptions {
            refs_scale: 0.01,
            ..Default::default()
        };
        let swim = build_parallel(ParallelId::Swim, 1, &opts);
        let fma = build_parallel(ParallelId::Fma3d, 1, &opts);
        assert!(fma[0].base_cpr > 2.0 * swim[0].base_cpr);
    }

    #[test]
    fn streams_probe_is_pure_streaming() {
        let mut ws = streams_probe(2, 10_000);
        assert_eq!(ws.len(), 2);
        let refs = ws[0].collect_refs(u64::MAX);
        for w in refs.windows(2) {
            assert_eq!(w[1].addr - w[0].addr, 64);
        }
    }

    #[test]
    fn alt_inputs_change_parallel_workloads() {
        let mk = |input| {
            let mut ws = build_parallel(
                ParallelId::Cg,
                1,
                &BuildOptions {
                    input,
                    refs_scale: 0.005,
                    ..Default::default()
                },
            );
            ws.remove(0).collect_refs(u64::MAX)
        };
        assert_ne!(mk(InputSet::Ref), mk(InputSet::Alt(2)));
    }
}
