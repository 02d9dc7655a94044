//! Pinned bit-identity of the co-run answer surface.
//!
//! One digest covers every [`CoRunModel::answer_bytes`] float and every
//! [`place`] / [`place_exhaustive`] result (groups, total, throughput,
//! `nodes_explored`, `pruned`) over seeded models chosen to reach the
//! composition's corners:
//! - empty models, dangling-only and dangling-heavy ones, plateaued
//!   ones with no dangling mass, single-sample ones;
//! - extended two-level models whose delta level is non-empty;
//! - intensities of 0, NaN, ±inf, negative, subnormal and extreme
//!   ratios (rates that overflow to inf or underflow to 0);
//! - sizes of 0 and 1 line, and sizes past every distance;
//! - placement shapes forcing 0–3 peers on every session, N ≤ 12.
//!
//! The serving layer's replay digests lean on these answers, so a
//! change that is meant to make composition or placement faster must
//! leave [`PINNED`] as it is.

use repf_sampling::{DanglingSample, ReuseSample};
use repf_statstack::{place, place_exhaustive, CoRunModel, ModelParts, StatStackModel};
use repf_trace::rng::XorShift64Star;
use repf_trace::{AccessKind, Pc};

const PINNED: u64 = 0xc533_6856_18aa_cfff;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

fn from_distances(line_bytes: u64, sorted: Vec<u64>, dangling: u64) -> StatStackModel {
    let per_pc = vec![(Pc(1), sorted.clone(), dangling)];
    StatStackModel::from_parts(ModelParts {
        line_bytes,
        sorted,
        dangling,
        per_pc,
    })
}

/// `base` extended by one batch, leaving the batch in the delta level:
/// every batch here stays under the fold rule (`delta² ≤ 16·base`, at
/// most 65² against 16·900), so the result keeps two levels.
fn extended(base: &StatStackModel, distances: &[u64], dangling: usize) -> StatStackModel {
    let reuse: Vec<ReuseSample> = distances
        .iter()
        .map(|&distance| ReuseSample {
            start_pc: Pc(3),
            start_kind: AccessKind::Load,
            end_pc: Pc(3),
            end_kind: AccessKind::Load,
            distance,
            start_index: 0,
        })
        .collect();
    let dangling: Vec<DanglingSample> = (0..dangling)
        .map(|i| DanglingSample {
            pc: Pc(4),
            kind: AccessKind::Load,
            start_index: i as u64,
        })
        .collect();
    let mut b = StatStackModel::builder(base.line_bytes());
    b.push_batch(&reuse, &dangling);
    base.extend(&b)
}

fn geometric(rng: &mut XorShift64Star, n: usize, mean: f64) -> Vec<u64> {
    (0..n).map(|_| rng.geometric(mean)).collect()
}

/// The model pool every case draws from.
fn pool() -> Vec<StatStackModel> {
    let mut rng = XorShift64Star::new(0xD1_6E57);
    let mut v = vec![
        // Empty, dangling-only, dangling-heavy.
        from_distances(64, Vec::new(), 0),
        from_distances(64, Vec::new(), 50),
        from_distances(64, geometric(&mut rng, 20, 100.0), 400),
        // A loop: every distance 255, no dangling mass (a plateau).
        from_distances(64, vec![255; 500], 0),
    ];
    // Two-level with completed and dangling samples in the delta.
    let base = from_distances(64, geometric(&mut rng, 1500, 300.0), 10);
    v.push(extended(&base, &geometric(&mut rng, 60, 900.0), 5));
    // Long tail reaching a billion, no dangling mass.
    let tail: Vec<u64> = (0..800)
        .map(|_| {
            if rng.below(20) == 0 {
                rng.below(1_000_000_000)
            } else {
                rng.geometric(50.0)
            }
        })
        .collect();
    v.push(from_distances(64, tail, 0));
    // One sample.
    v.push(from_distances(64, vec![7], 0));
    // Two-level whose delta holds only dangling samples.
    let base = from_distances(64, geometric(&mut rng, 900, 2000.0), 0);
    v.push(extended(&base, &[], 12));
    // A wider line.
    v.push(from_distances(128, geometric(&mut rng, 700, 64.0), 30));
    // Two-level plateau: no dangling anywhere, non-empty delta.
    let base = from_distances(64, (0..1200).map(|_| rng.below(4096)).collect(), 0);
    v.push(extended(
        &base,
        &(0..40).map(|_| rng.below(8192)).collect::<Vec<_>>(),
        0,
    ));
    // Tight reuse: distances 0 and 1 only.
    v.push(from_distances(
        64,
        (0..300).map(|_| rng.below(2)).collect(),
        3,
    ));
    // Uniform over a 64k-line footprint.
    v.push(from_distances(
        64,
        (0..2000).map(|_| rng.below(65_536)).collect(),
        40,
    ));
    v
}

const SIZES: [u64; 11] = [
    0,
    1,
    63,
    64,
    128,
    4096,
    64 << 10,
    1 << 20,
    8 << 20,
    1 << 40,
    u64::MAX,
];

/// Explicit intensities: idle (0, NaN, negative, -inf), saturating
/// (+inf), and rates whose ratios overflow or underflow.
const PALETTE: [f64; 11] = [
    0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -1.0,
    1e-300,
    1e300,
    5e-324,
    1.0,
    37.5,
    4096.0,
];

#[derive(Clone, Copy)]
enum Rates {
    /// Sample counts, as `CoRunModel::push` infers them.
    Default,
    /// Every member idle.
    Idle,
    /// Each member drawn from [`PALETTE`].
    Palette,
    /// Alternating 1e300 and 1e-300.
    Extreme,
}

fn rates(mode: Rates, models: &[&StatStackModel], rng: &mut XorShift64Star) -> Vec<f64> {
    models
        .iter()
        .enumerate()
        .map(|(i, m)| match mode {
            Rates::Default => m.sample_count() as f64,
            Rates::Idle => 0.0,
            Rates::Palette => PALETTE[rng.below(PALETTE.len() as u64) as usize],
            Rates::Extreme => {
                if i % 2 == 0 {
                    1e300
                } else {
                    1e-300
                }
            }
        })
        .collect()
}

const MODES: [Rates; 4] = [Rates::Default, Rates::Idle, Rates::Palette, Rates::Extreme];

fn corun_digest(pool: &[StatStackModel], d: &mut Digest) {
    let mut rng = XorShift64Star::new(0xC0_2E);
    for case in 0..48u64 {
        let k = 1 + rng.below(5) as usize;
        let members: Vec<&StatStackModel> = (0..k)
            .map(|_| &pool[rng.below(pool.len() as u64) as usize])
            .collect();
        let mode = MODES[(case % 4) as usize];
        let lam = rates(mode, &members, &mut rng);
        let mut co = CoRunModel::new();
        for (m, &l) in members.iter().zip(&lam) {
            match mode {
                Rates::Default => co.push(m),
                _ => co.push_with_intensity(m, l),
            }
        }
        let ans = co.answer_bytes(&SIZES);
        for curve in &ans.per_member {
            curve.iter().for_each(|&x| d.f64(x));
        }
        ans.throughput.iter().for_each(|&x| d.f64(x));
    }
}

/// Five samples, `k` of them at distance 1 and the rest at 0, so
/// `S(1) = k/5`.
fn fifths(k: usize) -> StatStackModel {
    let mut sorted = vec![0; 5 - k];
    sorted.resize(5, 1);
    from_distances(64, sorted, 0)
}

/// A mix whose answer depends on the order peer terms are summed in.
/// At the subject's distance-1 sample the peers contribute 4/5, 3/5 and
/// 2/5 (equal intensities, so no inflation). Summed in ascending order
/// the subject's composed stack distance is exactly 2.0, a miss at 2
/// lines; summed in push order (descending) it is 1.9999999999999998, a
/// hit.
fn order_sensitive_digest(d: &mut Digest) {
    let (subject, a, b, c) = (fifths(1), fifths(4), fifths(3), fifths(2));
    let mut co = CoRunModel::new();
    for m in [&subject, &a, &b, &c] {
        co.push(m);
    }
    let ans = co.answer_bytes(&SIZES);
    assert_eq!(
        ans.per_member[0][4], 0.2,
        "the distance-1 sample misses at 2 lines"
    );
    ans.per_member.iter().flatten().for_each(|&x| d.f64(x));
    ans.throughput.iter().for_each(|&x| d.f64(x));
}

fn place_digest(pool: &[StatStackModel], d: &mut Digest) {
    let mut rng = XorShift64Star::new(0x91_ACE);
    // (N, G, k): forced peers max(0, N-1-(G-1)k), capped at 3 by the
    // search: 0 for (1,1,1), (3,3,1), (7,4,2); 1 for (4,2,2), (6,3,2),
    // (10,3,4); 2 for (6,2,3), (9,3,3), (12,4,3); 3 for (6,1,6),
    // (8,2,4), (12,3,4).
    let shapes: [(usize, u32, u32); 12] = [
        (1, 1, 1),
        (3, 3, 1),
        (7, 4, 2),
        (4, 2, 2),
        (6, 3, 2),
        (10, 3, 4),
        (6, 2, 3),
        (9, 3, 3),
        (12, 4, 3),
        (6, 1, 6),
        (8, 2, 4),
        (12, 3, 4),
    ];
    let sizes = [0u64, 64, 16 << 10, 256 << 10, 8 << 20, 1 << 40];
    for (s, &(n, groups, capacity)) in shapes.iter().enumerate() {
        for (c, mode) in MODES.into_iter().enumerate() {
            let models: Vec<&StatStackModel> = (0..n)
                .map(|_| &pool[rng.below(pool.len() as u64) as usize])
                .collect();
            let lam = rates(mode, &models, &mut rng);
            let size = sizes[(s + c) % sizes.len()];
            let mut results = vec![place(&models, &lam, groups, capacity, size, 1)];
            if n <= 8 {
                results.push(place_exhaustive(&models, &lam, groups, capacity, size));
            }
            for r in results {
                d.word(r.groups.len() as u64);
                for g in &r.groups {
                    d.word(g.len() as u64);
                    g.iter().for_each(|&i| d.word(i as u64));
                }
                d.f64(r.total_miss_ratio);
                d.f64(r.throughput);
                d.word(r.nodes_explored);
                d.word(r.pruned);
            }
        }
    }
}

#[test]
fn corun_and_placement_answers_match_the_pinned_digest() {
    let pool = pool();
    let mut d = Digest::new();
    corun_digest(&pool, &mut d);
    order_sensitive_digest(&mut d);
    place_digest(&pool, &mut d);
    assert_eq!(d.0, PINNED, "digest {:#018x}", d.0);
}
