//! How sensitive is the paper's LRU-based model to real replacement
//! policies? StatStack assumes true LRU; production caches run tree-PLRU
//! (or random, on some LLC designs). If the policies diverged wildly the
//! whole MDDLI pipeline would mispredict on real silicon — this test
//! quantifies the gap on representative access mixes.

use repf_cache::{CacheConfig, PolicyCache, RandomRepl, ReplacementPolicy, TreePlru, TrueLru};
use repf_sampling::{Sampler, SamplerConfig};
use repf_statstack::StatStackModel;
use repf_trace::patterns::{
    Mix, MixEnd, PointerChase, PointerChaseCfg, StridedStream, StridedStreamCfg,
};
use repf_trace::source::Recorded;
use repf_trace::{MemRef, Pc, TraceSource, TraceSourceExt};

fn representative_trace() -> Vec<MemRef> {
    // A stream + a hot loop + a chase: the three behaviours the analogs
    // are built from.
    let stream = StridedStream::new(StridedStreamCfg::loads(Pc(0), 0, 1 << 22, 64, 4));
    let hot = StridedStream::new(StridedStreamCfg::loads(
        Pc(1),
        1 << 30,
        16 << 10,
        64,
        1 << 16,
    ));
    let chase = PointerChase::new(PointerChaseCfg {
        chase_pc: Pc(2),
        payload_pcs: vec![],
        base: 1 << 32,
        node_bytes: 64,
        nodes: 1 << 14,
        steps_per_pass: 1 << 14,
        passes: 16,
        seed: 5,
        run_len: 1,
    });
    let mut mix = Mix::new(
        vec![
            (Box::new(stream) as Box<dyn TraceSource>, 2),
            (Box::new(hot) as Box<dyn TraceSource>, 2),
            (Box::new(chase) as Box<dyn TraceSource>, 1),
        ],
        MixEnd::CycleComponents,
    );
    mix.collect_refs(400_000)
}

fn policy_mr<P: ReplacementPolicy>(refs: &[MemRef], cfg: CacheConfig) -> f64 {
    let mut c: PolicyCache<P> = PolicyCache::new(cfg);
    for r in refs {
        c.access(r.addr);
    }
    c.miss_ratio()
}

#[test]
fn statstack_tracks_plru_nearly_as_well_as_lru() {
    let refs = representative_trace();
    let model = StatStackModel::from_profile(
        &Sampler::new(SamplerConfig {
            sample_period: 29,
            line_bytes: 64,
            seed: 2,
        })
        .profile(&mut Recorded::new(refs.clone())),
    );
    for (size_kb, assoc) in [(64u64, 8u32), (512, 16), (2048, 16)] {
        let cfg = CacheConfig::new(size_kb << 10, assoc, 64);
        let lru = policy_mr::<TrueLru>(&refs, cfg);
        let plru = policy_mr::<TreePlru>(&refs, cfg);
        let est = model.miss_ratio_bytes(size_kb << 10);
        assert!(
            (lru - plru).abs() < 0.03,
            "{size_kb}kB: PLRU within 3 points of LRU ({lru:.3} vs {plru:.3})"
        );
        assert!(
            (est - plru).abs() < 0.1,
            "{size_kb}kB: the LRU model predicts a PLRU cache well \
             (statstack {est:.3} vs plru {plru:.3})"
        );
    }
}

#[test]
fn random_replacement_is_the_outlier() {
    // At a capacity the loop working sets overflow, LRU thrashes
    // cyclically while random replacement retains a fraction of the loop
    // (the classic anti-LRU case) — so random deviates from LRU far more
    // than PLRU does. This is exactly why an LRU-based model (StatStack)
    // transfers to PLRU hardware but would mispredict a random-replacement
    // cache.
    let refs = representative_trace();
    let cfg = CacheConfig::new(32 << 10, 8, 64);
    let lru = policy_mr::<TrueLru>(&refs, cfg);
    let plru = policy_mr::<TreePlru>(&refs, cfg);
    let rnd = policy_mr::<RandomRepl>(&refs, cfg);
    let plru_gap = (lru - plru).abs();
    let rnd_gap = (lru - rnd).abs();
    assert!(
        rnd_gap > 3.0 * plru_gap,
        "random is the outlier: |LRU-PLRU| {plru_gap:.3} vs |LRU-random| {rnd_gap:.3}"
    );
    assert!(
        rnd < lru,
        "random smooths the thrash cliff ({rnd:.3} vs {lru:.3})"
    );
}
