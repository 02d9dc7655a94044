//! Golden-shape tests for the figure pipelines at tiny scale: cheap
//! qualitative claims the paper's figures hinge on, pinned so a refactor
//! of the harness cannot silently invert them.

use repf_bench::figs::{fig3, table1};
use repf_sim::Exec;

/// Figure 3's point: the *per-instruction* miss-ratio curve of a
/// delinquent load diverges from the application-average curve — the hot
/// load misses far more than the average suggests, which is exactly why
/// per-instruction modeling (MDDLI) finds prefetch candidates the
/// aggregate MRC hides.
#[test]
fn fig3_per_instruction_curve_diverges_from_average() {
    let data = fig3::compute(0.05);
    assert!(data.samples > 0);
    assert!(data.points.len() >= 5);

    // The application-average MRC is monotone non-increasing in cache
    // size (bigger caches never miss more), modulo the appended 6 MB
    // LLC mark which is off the sorted axis.
    let sorted: Vec<_> = {
        let mut p: Vec<_> = data
            .points
            .iter()
            .map(|p| (p.size_bytes, p.average, p.per_instruction))
            .collect();
        p.sort_by_key(|&(s, _, _)| s);
        p
    };
    for w in sorted.windows(2) {
        assert!(
            w[1].1 <= w[0].1 + 1e-9,
            "average MRC must be monotone: {:?} -> {:?}",
            w[0],
            w[1]
        );
    }

    // At the AMD L1 and L2 sizes the delinquent load's curve sits well
    // above the application average (the divergence the figure plots).
    for &size in &[64u64 * 1024, 512 * 1024] {
        let p = data
            .points
            .iter()
            .find(|p| p.size_bytes == size)
            .expect("figure includes the marked cache sizes");
        assert!(
            p.per_instruction > p.average,
            "at {size} B the hot load ({:.3}) should miss more than the app average ({:.3})",
            p.per_instruction,
            p.average
        );
    }

    // And it misses substantially at L1 — that is what made it hot.
    let l1 = data
        .points
        .iter()
        .find(|p| p.size_bytes == 64 * 1024)
        .unwrap();
    assert!(l1.per_instruction > 0.3);
}

/// Table I's point: MDDLI filtering covers *more* misses than the
/// stride-centric prior work while executing *fewer* prefetch
/// instructions — resource-efficient selection, the paper's core claim.
#[test]
fn table1_mddli_covers_more_with_fewer_prefetches() {
    let rows = table1::compute_with(0.05, &Exec::from_env());
    assert_eq!(rows.len(), 12, "one row per benchmark");

    let n = rows.len() as f64;
    let mddli_cov = rows.iter().map(|r| r.mddli_cov).sum::<f64>() / n;
    let sc_cov = rows.iter().map(|r| r.sc_cov).sum::<f64>() / n;
    assert!(
        mddli_cov > sc_cov,
        "MDDLI average coverage ({:.3}) must beat stride-centric ({:.3})",
        mddli_cov,
        sc_cov
    );
    assert!(
        mddli_cov > 0.3,
        "coverage should be substantial: {mddli_cov:.3}"
    );

    let mddli_pf: u64 = rows.iter().map(|r| r.mddli_prefetches).sum();
    let sc_pf: u64 = rows.iter().map(|r| r.sc_prefetches).sum();
    assert!(
        sc_pf > mddli_pf,
        "stride-centric must execute more prefetches ({sc_pf} vs {mddli_pf})"
    );

    // Coverage is a fraction; overheads are non-negative.
    for r in &rows {
        assert!(
            (0.0..=1.0).contains(&r.mddli_cov),
            "{}: {:?}",
            r.name,
            r.mddli_cov
        );
        assert!((0.0..=1.0).contains(&r.sc_cov));
        assert!(r.mddli_oh >= 0.0 && r.sc_oh >= 0.0);
    }
}
