//! Co-run composition properties: the invariants [`CoRunModel`] must
//! hold for *any* member models, not just the calibrated analogs — the
//! serving layer's replay digests and the cluster's node-count
//! invariance both lean on them. Cases are drawn from seeded xorshift
//! streams so the suite is deterministic.

use repf_sampling::{Sampler, SamplerConfig};
use repf_statstack::{CoRunModel, StatStackModel};
use repf_trace::patterns::{PointerChase, PointerChaseCfg, StridedStream, StridedStreamCfg};
use repf_trace::rng::XorShift64Star;
use repf_trace::source::Recorded;
use repf_trace::{MemRef, Pc, TraceSourceExt};

const CASES: u64 = 24;
const SIZES_LINES: [u64; 6] = [1, 16, 64, 256, 4096, 65536];

/// An arbitrary small synthetic trace: a few strided streams plus a
/// pointer chase, shaped by the case seed.
fn arb_trace(case: u64, salt: u64) -> Vec<MemRef> {
    let mut rng = XorShift64Star::new(0xC0_0C ^ salt ^ case << 8);
    let streams = 1 + rng.below(3);
    let stride16 = 1 + rng.below(4);
    let nodes = 32 + rng.below(480) as u32;
    let seed = rng.next_u64();
    let mut refs = Vec::new();
    for s in 0..streams {
        let mut st = StridedStream::new(StridedStreamCfg::loads(
            Pc(s as u32),
            s << 30,
            1 << 14,
            (stride16 * 16) as i64,
            2,
        ));
        refs.extend(st.collect_refs(1500));
    }
    let mut ch = PointerChase::new(PointerChaseCfg {
        chase_pc: Pc(100),
        payload_pcs: vec![],
        base: 1 << 40,
        node_bytes: 64,
        nodes,
        steps_per_pass: nodes as u64,
        passes: 3,
        seed,
        run_len: 1,
    });
    refs.extend(ch.collect_refs(3000));
    refs
}

fn arb_model(case: u64, salt: u64) -> StatStackModel {
    let mut rng = XorShift64Star::new(0x5EED ^ salt ^ case << 8);
    let period = 1 + rng.below(31);
    let mut src = Recorded::new(arb_trace(case, salt));
    let profile = Sampler::new(SamplerConfig {
        sample_period: period,
        line_bytes: 64,
        seed: salt ^ 9,
    })
    .profile(&mut src);
    StatStackModel::from_profile(&profile)
}

#[test]
fn idle_peers_reproduce_solo_bit_exactly() {
    // A member whose peers are all idle (zero interleaving intensity)
    // answers its solo MRC bit for bit — the composition must collapse
    // to the plain model, not merely approximate it.
    for case in 0..CASES {
        let a = arb_model(case, 1);
        let b = arb_model(case, 2);
        let c = arb_model(case, 3);
        let mut co = CoRunModel::new();
        co.push(&a);
        co.push_with_intensity(&b, 0.0);
        co.push_with_intensity(&c, 0.0);
        for (i, solo) in [&a, &b, &c].into_iter().enumerate() {
            for lines in SIZES_LINES {
                assert_eq!(
                    co.miss_ratio(i, lines).to_bits(),
                    solo.miss_ratio(lines).to_bits(),
                    "case {case}: member {i} at {lines} lines must be solo-exact"
                );
            }
        }
    }
}

#[test]
fn composition_is_order_insensitive() {
    // The same member set pushed in any order answers bit-identical
    // curves and throughput — peer terms are summed in sorted order, so
    // insertion order cannot leak into the floats.
    let sizes_bytes: Vec<u64> = SIZES_LINES.iter().map(|l| l * 64).collect();
    for case in 0..CASES {
        let models = [arb_model(case, 1), arb_model(case, 2), arb_model(case, 3)];
        let base: Vec<usize> = vec![0, 1, 2];
        for perm in [vec![0, 1, 2], vec![2, 0, 1], vec![1, 2, 0], vec![2, 1, 0]] {
            let mut co_a = CoRunModel::new();
            for &i in &base {
                co_a.push(&models[i]);
            }
            let mut co_b = CoRunModel::new();
            for &i in &perm {
                co_b.push(&models[i]);
            }
            let ans_a = co_a.answer_bytes(&sizes_bytes);
            let ans_b = co_b.answer_bytes(&sizes_bytes);
            for (pos_b, &orig) in perm.iter().enumerate() {
                for k in 0..sizes_bytes.len() {
                    assert_eq!(
                        ans_a.per_member[orig][k].to_bits(),
                        ans_b.per_member[pos_b][k].to_bits(),
                        "case {case} perm {perm:?}: member {orig} size {k}"
                    );
                }
            }
            for k in 0..sizes_bytes.len() {
                assert_eq!(
                    ans_a.throughput[k].to_bits(),
                    ans_b.throughput[k].to_bits(),
                    "case {case} perm {perm:?}: throughput {k}"
                );
            }
        }
    }
}

#[test]
fn miss_ratio_is_monotone_in_peer_intensity() {
    // A hungrier peer can only push the subject's lines further down the
    // shared stack: the predicted miss ratio never decreases as the
    // peer's interleaving intensity grows.
    for case in 0..CASES {
        let a = arb_model(case, 4);
        let b = arb_model(case, 5);
        let base = b.sample_count().max(1) as f64;
        for lines in SIZES_LINES {
            let mut prev = -1.0f64;
            for factor in [0.0, 0.25, 1.0, 4.0, 16.0] {
                let mut co = CoRunModel::new();
                co.push(&a);
                co.push_with_intensity(&b, base * factor);
                let mr = co.miss_ratio(0, lines);
                assert!(
                    (0.0..=1.0).contains(&mr),
                    "case {case}: mr {mr} out of range at {lines} lines x{factor}"
                );
                assert!(
                    mr >= prev,
                    "case {case}: mr must not drop as peer intensity grows \
                     ({prev} -> {mr} at {lines} lines, x{factor})"
                );
                prev = mr;
            }
        }
    }
}

#[test]
fn degenerate_members_answer_well_formed_curves() {
    // Empty profiles and single-access sessions must compose without
    // panics, hangs, NaNs, or out-of-range ratios — hostile inputs reach
    // this code straight off the wire.
    let empty = {
        let mut src = Recorded::new(Vec::new());
        let profile = Sampler::new(SamplerConfig {
            sample_period: 3,
            line_bytes: 64,
            seed: 1,
        })
        .profile(&mut src);
        StatStackModel::from_profile(&profile)
    };
    let single = {
        let mut src = Recorded::new(vec![MemRef::load(Pc(7), 0x1000)]);
        let profile = Sampler::new(SamplerConfig {
            sample_period: 1,
            line_bytes: 64,
            seed: 2,
        })
        .profile(&mut src);
        StatStackModel::from_profile(&profile)
    };
    let sizes_bytes: Vec<u64> = SIZES_LINES.iter().map(|l| l * 64).collect();
    for case in 0..CASES {
        let real = arb_model(case, 6);
        let mut co = CoRunModel::new();
        co.push(&real);
        co.push(&empty); // sample_count 0 => idle by default
        co.push_with_intensity(&empty, 5.0); // hostile: an "active" empty peer
        co.push(&single);
        let ans = co.answer_bytes(&sizes_bytes);
        assert_eq!(ans.per_member.len(), 4, "case {case}");
        assert_eq!(ans.throughput.len(), sizes_bytes.len(), "case {case}");
        for (i, curve) in ans.per_member.iter().enumerate() {
            assert_eq!(curve.len(), sizes_bytes.len(), "case {case} member {i}");
            let mut prev = f64::INFINITY;
            for (k, &mr) in curve.iter().enumerate() {
                assert!(
                    mr.is_finite() && (0.0..=1.0).contains(&mr),
                    "case {case}: member {i} size {k} mr {mr}"
                );
                assert!(
                    mr <= prev,
                    "case {case}: member {i} curve must be non-increasing"
                );
                prev = mr;
            }
        }
        for (k, &t) in ans.throughput.iter().enumerate() {
            assert!(
                t.is_finite() && t > 0.0 && t <= 4.0 + 1e-9,
                "case {case}: throughput {t} at size {k}"
            );
        }
        // Empty members answer all-zero curves (no samples, no misses).
        assert!(ans.per_member[1].iter().all(|&m| m == 0.0), "case {case}");
        assert!(ans.per_member[2].iter().all(|&m| m == 0.0), "case {case}");
    }
}
