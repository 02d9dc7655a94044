//! The repository benchmark.
//!
//! ```text
//! perfbench --workload query|ingest|ring|paper --seed N --seconds S --trace 0|1 [--size full|tiny]
//! ```
//!
//! Runs one workload in this process through the library's public API,
//! checks every output, and prints a human-readable table, a provenance
//! line and, last, one JSON line: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. See `README.md` in this
//! directory for the metric catalogue and the workloads.

mod affinity;
mod gen;
mod paper;
mod report;
mod serving;

use report::Outcome;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--size" => {
                a.tiny = match val()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    v => return Err(format!("--size takes full or tiny, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit the benchmark runs on, read from `.git` when the checkout
/// has one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(h) = std::fs::read_to_string(format!(".git/{r}")) {
        return h.trim().into();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if gen::THREADS > nproc || gen::CONNECTIONS > nproc {
        eprintln!(
            "perfbench: the generator needs {} thread(s) and {} connection(s), above the {nproc} available",
            gen::THREADS,
            gen::CONNECTIONS
        );
        return ExitCode::from(2);
    }
    let (secs, seed, trace) = (args.seconds, args.seed, args.trace);
    let run = |k| serving::run(k, seed, secs, trace);
    let result: std::io::Result<Outcome> = match args.workload.as_str() {
        "query" => run(serving::Kind::Query),
        "ingest" => run(serving::Kind::Ingest),
        "ring" => run(serving::Kind::Ring),
        "paper" => {
            let size = if args.tiny { paper::TINY } else { paper::FULL };
            Ok(paper::run(size, secs, trace, nproc))
        }
        w => {
            eprintln!("perfbench: unknown workload '{w}' (query|ingest|ring|paper)");
            return ExitCode::from(2);
        }
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    out.values.put("peak_rss_mb", peak_rss_mb());
    out.values.put(
        "fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    let mut prov = vec![
        ("workload".into(), args.workload.clone()),
        ("seed".into(), seed.to_string()),
        ("seconds".into(), secs.to_string()),
        ("trace".into(), u8::from(trace).to_string()),
        ("commit".into(), commit()),
        ("available_parallelism".into(), nproc.to_string()),
    ];
    prov.append(&mut out.provenance);
    out.provenance = prov;
    report::print(&out, trace);
    ExitCode::SUCCESS
}
