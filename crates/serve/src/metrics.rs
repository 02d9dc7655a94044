//! The server-side metrics registry: request/error/busy counters,
//! per-query-class latency histograms, plan-cache hit/miss and session
//! eviction counts — `bench/src/obs.rs`-style observability for the
//! daemon, exposed through the `Stats` request.
//!
//! Everything is lock-free atomics so the request workers never contend
//! on telemetry.
//!
//! Latency accounting is HDR-style log-bucketing shared by two types:
//! [`LatencyHisto`] (atomic, embedded in [`Metrics`]) and [`LogHisto`]
//! (plain counters, mergeable — what the load generator aggregates
//! across driver threads). Both use the same bucket geometry
//! ([`log_bucket_index`] / [`log_bucket_value`]): power-of-two octaves
//! subdivided into 32 linear sub-buckets, so quantiles carry ≤ ~3%
//! relative error instead of the old pure-power-of-two ≤ 2×.

use crate::proto::REQUEST_KINDS;
use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two octave: `2^SUB_BITS`.
const SUB_BITS: u32 = 5;
/// Bucket count covering the whole `u64` range at `SUB_BITS` precision.
pub const LOG_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// The bucket a value lands in: exact below `2^(SUB_BITS+1)`, then 32
/// linear sub-buckets per octave (relative width < 1/32). Monotone in
/// `v`, and contiguous across the exact/log boundary.
pub fn log_bucket_index(v: u64) -> usize {
    let v = v.max(1);
    let o = 63 - v.leading_zeros();
    if o <= SUB_BITS {
        v as usize
    } else {
        (((o - SUB_BITS) as usize) << SUB_BITS) + (v >> (o - SUB_BITS)) as usize
    }
}

/// The lower edge of bucket `i` — the inverse of [`log_bucket_index`]
/// up to bucket resolution (`log_bucket_value(log_bucket_index(v)) <= v`).
pub fn log_bucket_value(i: usize) -> u64 {
    let sub = 1usize << SUB_BITS;
    if i < 2 * sub {
        i as u64
    } else {
        let k = (i >> SUB_BITS) as u32; // >= 2
        ((sub + (i & (sub - 1))) as u64) << (k - 1)
    }
}

/// A mergeable log-bucketed latency histogram (microseconds) with no
/// atomics: each load-generator driver records into its own and the
/// harness merges them at the end. Same bucket geometry as
/// [`LatencyHisto`], so server-side and client-side quantiles agree.
#[derive(Clone)]
pub struct LogHisto {
    buckets: Vec<u64>,
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LogHisto {
    fn default() -> Self {
        LogHisto {
            buckets: vec![0; LOG_BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl LogHisto {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record_us(&mut self, us: u64) {
        let b = log_bucket_index(us).min(self.buckets.len() - 1);
        self.buckets[b] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample (0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Mean in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_us as f64 / self.count as f64
    }

    /// Quantile (`q` in `[0, 1]`) in µs: the lower edge of the bucket
    /// containing the rank-`⌈q·n⌉` sample (≤ ~3% relative error).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return log_bucket_value(i) as f64;
            }
        }
        0.0
    }

    /// Fold `other` into `self` bucket-wise. Merging is associative and
    /// commutative, so per-thread histograms can be combined in any
    /// order without changing any quantile.
    pub fn merge(&mut self, other: &LogHisto) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }
}

/// A log-bucketed latency histogram over microseconds, shared-writer
/// safe (atomic buckets). Same geometry as [`LogHisto`]: exact buckets
/// below 64 µs, then 32 linear sub-buckets per power-of-two octave, so
/// quantiles are read as the lower edge of the rank's bucket with
/// ≤ ~3% relative error.
pub struct LatencyHisto {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        LatencyHisto {
            buckets: (0..LOG_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHisto {
    /// Record one sample.
    pub fn record_us(&self, us: u64) {
        let b = log_bucket_index(us).min(self.buckets.len() - 1);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Run `f`, recording its wall time.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.record_us(start.elapsed().as_micros() as u64);
        out
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_us.load(Ordering::Relaxed) as f64 / n as f64
    }

    /// Approximate quantile (`q` in `[0, 1]`) in µs: the lower edge of
    /// the bucket containing the rank-`⌈q·n⌉` sample.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return log_bucket_value(i) as f64;
            }
        }
        0.0
    }
}

/// The daemon's metrics registry.
#[derive(Default)]
pub struct Metrics {
    requests: [AtomicU64; REQUEST_KINDS.len()],
    /// Error responses sent (any code).
    pub errors: AtomicU64,
    /// Busy responses sent (queue full).
    pub busy: AtomicU64,
    /// Malformed frames / payloads rejected.
    pub malformed: AtomicU64,
    /// Connections accepted (cumulative).
    pub connections: AtomicU64,
    /// Connections currently open (accepted minus closed; gauge).
    pub open_conns: AtomicU64,
    /// Connections shed at accept time because `max_conns` was reached.
    pub shed: AtomicU64,
    /// `accept()` failures (EMFILE and friends; each one also triggers
    /// the acceptor's backoff).
    pub accept_errors: AtomicU64,
    /// Sessions evicted from the store.
    pub evictions: AtomicU64,
    /// Session-store bytes (gauge, updated after each submit).
    pub store_bytes: AtomicU64,
    /// Benchmark plan queries answered from an already-computed plan.
    pub plan_hits: AtomicU64,
    /// Benchmark plan queries that forced a profile + analysis.
    pub plan_misses: AtomicU64,
    /// Session queries answered from the cached StatStack fit.
    pub model_hits: AtomicU64,
    /// Session queries that (re)fitted the model.
    pub model_misses: AtomicU64,
    /// Batched-epoll deferred flush passes that pushed bytes to a socket.
    pub io_batch_flushes: AtomicU64,
    /// Response frames written by those batched flushes.
    pub io_batch_flush_frames: AtomicU64,
    /// Completion-queue drains that took the whole queue in one lock.
    pub io_batch_completion_drains: AtomicU64,
    /// Completions moved by those drains.
    pub io_batch_completions: AtomicU64,
    /// Worker-pool jobs submitted carrying a batch of decoded frames.
    pub io_batch_dispatch_jobs: AtomicU64,
    /// Decoded request frames dispatched inside those jobs.
    pub io_batch_dispatch_frames: AtomicU64,
    /// Requests this node forwarded to a peer (misdirected arrivals).
    pub cluster_forwarded: AtomicU64,
    /// Forwarded requests this node received and handled for a peer.
    pub cluster_peer_requests: AtomicU64,
    /// Peer streams this node wrote: one per peer a run called, and one
    /// per single peer call.
    pub cluster_peer_batches: AtomicU64,
    /// Request frames those streams carried.
    pub cluster_peer_batch_frames: AtomicU64,
    /// Bytes of the replies that carried a model or a tail of one to
    /// this node's co-run and placement pulls.
    pub cluster_pull_bytes: AtomicU64,
    /// Pulls answered with a `ModelTail` that extended a cached copy.
    /// They count in `cluster_model_remote_hits` too, so whole-model
    /// transfers are `remote_hits − pull_tails`.
    pub cluster_pull_tails: AtomicU64,
    /// Ring adoptions that had at least one session to migrate away.
    pub cluster_migrations_started: AtomicU64,
    /// Migration sweeps that moved every departing session successfully.
    pub cluster_migrations_completed: AtomicU64,
    /// Sessions shipped to their new owner across all sweeps.
    pub cluster_migrated_sessions: AtomicU64,
    /// Model-cache entries received from peers (migration or pull)
    /// instead of being refit locally.
    pub cluster_model_remote_hits: AtomicU64,
    /// Ring epoch in force (gauge; 0 = un-clustered).
    pub cluster_ring_epoch: AtomicU64,
    /// Ring member count (gauge).
    pub cluster_ring_nodes: AtomicU64,
    /// This node's ring ownership share, in parts-per-million (gauge).
    pub cluster_ring_share_ppm: AtomicU64,
    /// Tree nodes the placement walk visited across all queries.
    pub placement_nodes_explored: AtomicU64,
    /// Latency of MRC-class queries (application and per-PC).
    pub mrc_latency: LatencyHisto,
    /// Latency of co-run queries (includes any remote model pulls).
    pub corun_latency: LatencyHisto,
    /// The part of a co-run query that resolves its members' models
    /// (local fits and peer pulls).
    pub corun_resolve_latency: LatencyHisto,
    /// The part of a co-run query that composes the resolved models.
    pub corun_compose_latency: LatencyHisto,
    /// Latency of placement searches (includes model resolution).
    pub placement_latency: LatencyHisto,
    /// The part of a placement query that resolves its sessions' models.
    pub placement_resolve_latency: LatencyHisto,
    /// The part of a placement query that runs the search.
    pub placement_search_latency: LatencyHisto,
    /// Latency of plan queries.
    pub plan_latency: LatencyHisto,
    /// Latency of submits.
    pub submit_latency: LatencyHisto,
    /// Per-session migration pause (export → peer import → removal).
    pub migration_latency: LatencyHisto,
}

impl Metrics {
    /// Fresh registry with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one request of `kind` (a [`Request::kind_index`] slot).
    ///
    /// [`Request::kind_index`]: crate::proto::Request::kind_index
    pub fn count_request(&self, kind: usize) {
        self.requests[kind].fetch_add(1, Ordering::Relaxed);
    }

    /// Count one session model-cache outcome.
    pub fn count_model_cache(&self, hit: bool) {
        if hit {
            self.model_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.model_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Requests seen for `kind` (a [`Request::kind_index`] slot).
    ///
    /// [`Request::kind_index`]: crate::proto::Request::kind_index
    pub fn requests_of(&self, kind: usize) -> u64 {
        self.requests[kind].load(Ordering::Relaxed)
    }

    /// Total requests across all kinds.
    pub fn total_requests(&self) -> u64 {
        self.requests
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot as ordered `(name, value)` pairs — the `Stats` response
    /// payload. Latencies report count/mean/p50/p99 per query class.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (i, kind) in REQUEST_KINDS.iter().enumerate() {
            out.push((
                format!("requests.{kind}"),
                self.requests[i].load(Ordering::Relaxed) as f64,
            ));
        }
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        out.push(("errors".into(), g(&self.errors)));
        out.push(("busy".into(), g(&self.busy)));
        out.push(("malformed".into(), g(&self.malformed)));
        out.push(("connections".into(), g(&self.connections)));
        out.push(("connections.open".into(), g(&self.open_conns)));
        out.push(("connections.shed".into(), g(&self.shed)));
        out.push(("accept.errors".into(), g(&self.accept_errors)));
        out.push(("sessions.evictions".into(), g(&self.evictions)));
        out.push(("sessions.store_bytes".into(), g(&self.store_bytes)));
        out.push(("plan_cache.hits".into(), g(&self.plan_hits)));
        out.push(("plan_cache.misses".into(), g(&self.plan_misses)));
        out.push(("model_cache.hits".into(), g(&self.model_hits)));
        out.push(("model_cache.misses".into(), g(&self.model_misses)));
        out.push(("io.batch.flushes".into(), g(&self.io_batch_flushes)));
        out.push((
            "io.batch.flush_frames".into(),
            g(&self.io_batch_flush_frames),
        ));
        out.push((
            "io.batch.completion_drains".into(),
            g(&self.io_batch_completion_drains),
        ));
        out.push(("io.batch.completions".into(), g(&self.io_batch_completions)));
        out.push((
            "io.batch.dispatch_jobs".into(),
            g(&self.io_batch_dispatch_jobs),
        ));
        out.push((
            "io.batch.dispatch_frames".into(),
            g(&self.io_batch_dispatch_frames),
        ));
        out.push(("cluster.forwarded".into(), g(&self.cluster_forwarded)));
        out.push((
            "cluster.peer_requests".into(),
            g(&self.cluster_peer_requests),
        ));
        out.push((
            "cluster.migrations.started".into(),
            g(&self.cluster_migrations_started),
        ));
        out.push((
            "cluster.migrations.completed".into(),
            g(&self.cluster_migrations_completed),
        ));
        out.push(("cluster.peer_batches".into(), g(&self.cluster_peer_batches)));
        out.push((
            "cluster.peer_batch_frames".into(),
            g(&self.cluster_peer_batch_frames),
        ));
        out.push(("cluster.pull_bytes".into(), g(&self.cluster_pull_bytes)));
        out.push(("cluster.pull_tails".into(), g(&self.cluster_pull_tails)));
        out.push((
            "cluster.migrations.sessions".into(),
            g(&self.cluster_migrated_sessions),
        ));
        out.push((
            "cluster.model.remote_hits".into(),
            g(&self.cluster_model_remote_hits),
        ));
        out.push(("cluster.ring.epoch".into(), g(&self.cluster_ring_epoch)));
        out.push(("cluster.ring.nodes".into(), g(&self.cluster_ring_nodes)));
        out.push((
            "cluster.ring.share_ppm".into(),
            g(&self.cluster_ring_share_ppm),
        ));
        out.push((
            "placement.nodes_explored".into(),
            g(&self.placement_nodes_explored),
        ));
        for (label, h) in [
            ("mrc", &self.mrc_latency),
            ("corun", &self.corun_latency),
            ("corun_resolve", &self.corun_resolve_latency),
            ("corun_compose", &self.corun_compose_latency),
            ("placement", &self.placement_latency),
            ("placement_resolve", &self.placement_resolve_latency),
            ("placement_search", &self.placement_search_latency),
            ("plan", &self.plan_latency),
            ("submit", &self.submit_latency),
            ("migration", &self.migration_latency),
        ] {
            out.push((format!("latency.{label}.count"), h.count() as f64));
            out.push((format!("latency.{label}.mean_us"), h.mean_us()));
            out.push((format!("latency.{label}.p50_us"), h.quantile_us(0.50)));
            out.push((format!("latency.{label}.p99_us"), h.quantile_us(0.99)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Request;

    #[test]
    fn bucket_index_is_monotone_and_invertible_at_boundaries() {
        // Exact region: every value below 2^(SUB_BITS+1) is its own bucket.
        for v in 1..64u64 {
            assert_eq!(log_bucket_index(v), v as usize, "exact below 64");
            assert_eq!(log_bucket_value(log_bucket_index(v)), v);
        }
        // Octave boundaries: powers of two map to their own bucket's
        // lower edge, and the index is monotone across each boundary.
        let mut prev = 0usize;
        for shift in 1..63u32 {
            let v = 1u64 << shift;
            for probe in [v - 1, v, v + 1] {
                let i = log_bucket_index(probe);
                assert!(i >= prev, "monotone at {probe}");
                prev = i;
                assert!(
                    log_bucket_value(i) <= probe,
                    "lower edge property at {probe}"
                );
            }
            assert_eq!(log_bucket_value(log_bucket_index(v)), v, "pow2 {v} exact");
        }
        // Relative bucket width stays below 1/32 in the log region.
        for &v in &[100u64, 999, 12_345, 1 << 20, (1 << 40) + 12_345] {
            let edge = log_bucket_value(log_bucket_index(v));
            assert!(
                edge <= v && (v - edge) as f64 <= v as f64 / 32.0,
                "width at {v}"
            );
        }
        // u64::MAX must stay in range.
        assert!(log_bucket_index(u64::MAX) < LOG_BUCKETS);
    }

    #[test]
    fn log_histo_quantiles_on_known_distribution() {
        let mut h = LogHisto::new();
        // 1000 samples: 1..=1000 µs exactly once each. True p50 = 500,
        // p99 = 990, p999 = 999; bucketed answers within 1/32.
        for us in 1..=1000u64 {
            h.record_us(us);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max_us(), 1000);
        assert!((h.mean_us() - 500.5).abs() < 1e-9);
        for (q, truth) in [(0.50, 500.0), (0.99, 990.0), (0.999, 999.0)] {
            let got = h.quantile_us(q);
            assert!(
                got <= truth && got >= truth * (1.0 - 1.0 / 32.0) - 1.0,
                "q{q}: got {got}, truth {truth}"
            );
        }
        // Degenerate distribution: every quantile is the single value's
        // bucket edge.
        let mut one = LogHisto::new();
        for _ in 0..100 {
            one.record_us(777);
        }
        let edge = log_bucket_value(log_bucket_index(777)) as f64;
        assert_eq!(one.quantile_us(0.5), edge);
        assert_eq!(one.quantile_us(0.999), edge);
        assert_eq!(LogHisto::new().quantile_us(0.99), 0.0, "empty histo");
    }

    #[test]
    fn log_histo_merge_is_associative() {
        let mk = |seed: u64, n: u64| {
            let mut h = LogHisto::new();
            let mut x = seed;
            for _ in 0..n {
                // splitmix64 step, same recipe as replay's RNG
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                h.record_us((z ^ (z >> 31)) % 1_000_000);
            }
            h
        };
        let (a, b, c) = (mk(1, 500), mk(2, 300), mk(3, 700));
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.count(), right.count());
        assert_eq!(left.max_us(), right.max_us());
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(left.quantile_us(q), right.quantile_us(q), "q{q}");
        }
        assert!((left.mean_us() - right.mean_us()).abs() < 1e-9);
    }

    #[test]
    fn latency_histo_agrees_with_log_histo() {
        // The atomic server-side histogram and the mergeable client-side
        // one share bucket math: identical samples → identical quantiles.
        let atomic = LatencyHisto::default();
        let mut plain = LogHisto::new();
        for us in [1u64, 3, 17, 64, 65, 100, 999, 1000, 4096, 100_000] {
            atomic.record_us(us);
            plain.record_us(us);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(atomic.quantile_us(q), plain.quantile_us(q), "q{q}");
        }
        assert_eq!(atomic.count(), plain.count());
        assert!((atomic.mean_us() - plain.mean_us()).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHisto::default();
        for us in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 10);
        assert!(h.mean_us() > 100.0 && h.mean_us() < 110.0);
        assert_eq!(h.quantile_us(0.5), 1.0, "p50 is the exact 1 µs bucket");
        // p99 rank = ceil(0.99*10) = 10 → the 1000 µs sample's bucket
        // [992, 1024) → lower edge 992 (≤ ~3% error, vs 512 under the
        // old pure-power-of-two buckets).
        assert_eq!(h.quantile_us(0.99), 992.0);
        assert_eq!(LatencyHisto::default().quantile_us(0.5), 0.0);
    }

    #[test]
    fn request_counters_by_kind() {
        let m = Metrics::new();
        let ping = Request::Ping.kind_index();
        let stats = Request::Stats.kind_index();
        m.count_request(ping);
        m.count_request(stats);
        m.count_request(stats);
        assert_eq!(m.requests_of(stats), 2);
        assert_eq!(m.requests_of(ping), 1);
        assert_eq!(m.total_requests(), 3);
        let snap = m.snapshot();
        let stats = snap.iter().find(|(k, _)| k == "requests.stats").unwrap();
        assert_eq!(stats.1, 2.0);
    }
}
