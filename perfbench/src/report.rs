//! Metric catalogue, quantiles and the result line.
//!
//! Every metric the benchmark can print is declared here with its unit,
//! so the end-to-end set, the per-layer set and the README stay one list.
//! A workload that does not exercise a layer prints that layer's metrics
//! as 0.

/// End-to-end metrics: printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("capacity_ops", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Request kinds the client view splits latency by.
pub const OP_KINDS: [&str; 6] = ["submit", "mrc", "pcmrc", "mrc_fwd", "corun", "place"];

/// Server handler classes read from the daemon's `Stats` histograms.
pub const HANDLER_CLASSES: [&str; 4] = ["mrc", "submit", "corun", "placement"];

/// Per-layer metrics: printed by every workload with `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("p99_ms".into(), "ms"),
        ("wall_s".into(), "s"),
        ("gen.send_lag_max_ms".into(), "ms"),
        ("gen.service_p99_ms".into(), "ms"),
        ("gen.bound".into(), "flag"),
    ];
    for k in OP_KINDS {
        v.push((format!("op.{k}.p50_ms"), "ms"));
        v.push((format!("op.{k}.p99_ms"), "ms"));
        v.push((format!("op.{k}.count"), "count"));
    }
    for (n, u) in [
        ("proto.encode_ns", "ns"),
        ("proto.decode_ns", "ns"),
        ("proto.req_bytes", "bytes"),
        ("proto.resp_bytes", "bytes"),
    ] {
        v.push((n.into(), u));
    }
    for c in HANDLER_CLASSES {
        v.push((format!("server.handle.{c}.mean_us"), "us"));
        v.push((format!("server.handle.{c}.p99_us"), "us"));
    }
    for (n, u) in [
        ("server.residual_us", "us"),
        ("io.frames_per_flush", "ratio"),
        ("io.frames_per_dispatch", "ratio"),
        ("store.model_hit_ratio", "ratio"),
        ("store.refits", "count"),
        ("store.bytes", "bytes"),
        ("store.evictions", "count"),
        ("cluster.forwarded_ratio", "ratio"),
        ("cluster.model_pulls", "count"),
        ("cluster.peer_requests", "count"),
        ("placement.nodes_explored", "count"),
        ("placement.pruned", "count"),
        ("paper.prepare_s", "s"),
        ("paper.solo_s", "s"),
        ("paper.mix_s", "s"),
        ("paper.trace_gen_s", "s"),
        ("paper.sampling_s", "s"),
        ("paper.fit_s", "s"),
        ("paper.analyze_s", "s"),
        ("paper.sim_refs", "count"),
        ("paper.reuse_samples", "count"),
        ("paper.sim_refs_per_s", "1/s"),
        ("trace.overhead_ratio", "ratio"),
        ("fail_ratio", "ratio"),
    ] {
        v.push((n.into(), u));
    }
    v
}

/// Named values a workload measured.
#[derive(Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    /// Record `name` (later records of the same name win).
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The recorded value, or 0 when the workload does not measure it.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// A workload's outcome.
pub struct Outcome {
    /// Measured values, end to end and per layer.
    pub values: Values,
    /// Ops (or checked statistics) attempted.
    pub attempted: u64,
    /// Of those, failed or wrong.
    pub failed: u64,
    /// Provenance: how the numbers were produced.
    pub provenance: Vec<(String, String)>,
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Samples strictly above the nearest-rank `q` quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Print the human-readable table, the provenance line and, last, the
/// one-line JSON result the harness reads.
pub fn print(out: &Outcome, trace: bool) {
    let set: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    println!(
        "# fail_ratio {} ({} of {})",
        json_num(out.values.get("fail_ratio")),
        out.failed,
        out.attempted
    );
    for (name, unit) in &set {
        println!("# {name:<34} {:>16} {unit}", json_num(out.values.get(name)));
    }
    let prov: Vec<String> = out
        .provenance
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!("# provenance {{{}}}", prov.join(","));
    let metrics: Vec<String> = set
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(out.values.get(name)),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
}
