//! Smoke test: every workload at a tiny size, in both modes. Each run
//! must exit 0, print every metric named in `README.md` with its unit on
//! its last line, and fail nothing.

use std::process::Command;

const END_TO_END: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("capacity_ops", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("p99_ms", "ms"),
        ("wall_s", "s"),
        ("gen.send_lag_max_ms", "ms"),
        ("gen.service_p99_ms", "ms"),
        ("proto.encode_ns", "ns"),
        ("proto.decode_ns", "ns"),
        ("proto.req_bytes", "bytes"),
        ("proto.resp_bytes", "bytes"),
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
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for k in ["submit", "mrc", "pcmrc", "mrc_fwd", "corun", "place"] {
        v.push((format!("op.{k}.p50_ms"), "ms"));
        v.push((format!("op.{k}.p99_ms"), "ms"));
    }
    for c in ["mrc", "submit", "corun", "placement"] {
        v.push((format!("server.handle.{c}.mean_us"), "us"));
        v.push((format!("server.handle.{c}.p99_us"), "us"));
    }
    v
}

/// The value printed for `name`, after checking its unit.
fn value(line: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\":{{\"value\":");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing: {line}"))
        + key.len();
    let rest = &line[at..];
    let end = rest.find(',').expect("value ends");
    let tail = format!(",\"unit\":\"{unit}\"}}");
    assert!(
        rest[end..].starts_with(&tail),
        "{name} has the wrong unit: {rest}"
    );
    rest[..end].parse().expect("numeric value")
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--size", "tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    for workload in ["query", "ingest", "ring", "paper"] {
        let line = run(workload, "0");
        assert!(line.starts_with("{\"correct\":true,"), "{workload}: {line}");
        assert!(line.contains("\"failed\":0,"), "{workload}: {line}");
        for &(name, unit) in END_TO_END {
            assert!(value(&line, name, unit) > 0.0, "{workload}: {name} is 0");
        }
        let line = run(workload, "1");
        assert!(line.contains("\"failed\":0,"), "{workload}: {line}");
        for (name, unit) in per_layer() {
            value(&line, &name, unit);
        }
        assert_eq!(value(&line, "fail_ratio", "ratio"), 0.0, "{workload}");
        assert!(
            value(&line, "trace.overhead_ratio", "ratio") > 0.0,
            "{workload}"
        );
    }
}
