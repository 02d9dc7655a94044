//! Block draws against one-at-a-time draws: for every analog and input,
//! `TraceSource::fill` must hand out exactly the references `next_ref`
//! does, in blocks of any size, across program ends and resets.

use repf_trace::{MemRef, Pc, TraceSource, TraceSourceExt};
use repf_workloads::{build, BenchmarkId, BuildOptions, InputSet};

fn opts(input: InputSet) -> BuildOptions {
    BuildOptions {
        refs_scale: 0.001,
        input,
        ..Default::default()
    }
}

/// Draw `n` references from `src` in blocks of `block`.
fn by_blocks(src: &mut impl TraceSource, block: usize, n: usize) -> Vec<MemRef> {
    let mut out = Vec::new();
    let mut buf = vec![MemRef::load(Pc(0), 0); block];
    while out.len() < n {
        let got = src.fill(&mut buf);
        out.extend_from_slice(&buf[..got]);
        if got < block {
            break;
        }
    }
    out.truncate(n);
    out
}

#[test]
fn every_analog_fills_what_it_draws_one_by_one() {
    let inputs = [
        InputSet::Ref,
        InputSet::Alt(0),
        InputSet::Alt(1),
        InputSet::Alt(2),
        InputSet::Alt(3),
    ];
    for id in BenchmarkId::all() {
        for input in inputs {
            let nominal = build(id, &opts(input)).nominal_refs as usize;
            let cycles = 3 * nominal + 17;
            let want: Vec<MemRef> = build(id, &opts(input)).cycle().collect_refs(cycles as u64);
            let once = &want[..nominal];
            for block in [1, 3, 64, 4_096, nominal + 1] {
                let ctx = format!("{} {input:?}, blocks of {block}", id.name());
                // The workload alone ends after its nominal run.
                let mut w = build(id, &opts(input));
                assert_eq!(by_blocks(&mut w, block, usize::MAX), once, "{ctx}");
                assert_eq!(w.fill(&mut [MemRef::load(Pc(0), 0); 4]), 0, "{ctx}");
                w.reset();
                assert_eq!(by_blocks(&mut w, block, usize::MAX), once, "{ctx}");
                // Cycled, as the simulator runs it, over three runs.
                let mut c = build(id, &opts(input)).cycle();
                assert_eq!(by_blocks(&mut c, block, cycles), want, "{ctx}, cycled");
            }
            // Blocks and single draws interleaved leave the same state.
            let mut c = build(id, &opts(input)).cycle();
            let mut got = Vec::new();
            let mut x = 0x2545_F491_4F6C_DD1Du64 ^ id as u64;
            while got.len() < cycles {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x.is_multiple_of(3) {
                    got.push(c.next_ref().unwrap());
                } else {
                    let block = (x >> 8) as usize % 300 + 1;
                    got.extend(by_blocks(&mut c, block, block));
                }
            }
            got.truncate(cycles);
            assert_eq!(got, want, "{} {input:?}, interleaved", id.name());
        }
    }
}
