//! Observability for the benchmark harness: phase wall-clock timing,
//! progress lines, and (via [`repf_metrics::json`]) the dependency-free
//! JSON value behind the machine-readable `BENCH_mixstudy.json`
//! summary — so the perf trajectory of the evaluation engine is tracked
//! from run to run.

use std::time::Instant;

/// Wall-clock timings of named phases, in the order they ran.
#[derive(Default)]
pub struct Timings {
    entries: Vec<(String, f64)>,
}

impl Timings {
    /// An empty timing record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f`, record its wall-clock under `label`, and print a progress
    /// line (`[time] label: 12.3s`) to stderr.
    pub fn time<T>(&mut self, label: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        eprintln!("[time] {label}: {secs:.2}s");
        self.entries.push((label.to_string(), secs));
        out
    }

    /// Recorded `(label, seconds)` pairs, in execution order.
    pub fn entries(&self) -> &[(String, f64)] {
        &self.entries
    }

    /// Seconds recorded under `label`, if it ran.
    pub fn secs(&self, label: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(l, _)| l == label)
            .map(|&(_, s)| s)
    }

    /// Total wall-clock over all recorded phases.
    pub fn total_secs(&self) -> f64 {
        self.entries.iter().map(|&(_, s)| s).sum()
    }

    /// Render as a JSON array of `{phase, secs}` objects.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.entries
                .iter()
                .map(|(l, s)| {
                    Json::obj([("phase", Json::str(l)), ("secs", Json::Num(*s))])
                })
                .collect(),
        )
    }
}

// The JSON value/writer lives in `repf_metrics::json` so the serve
// daemon's metrics and this harness share one implementation; re-exported
// here so existing `obs::Json` call sites keep working.
pub use repf_metrics::json::{write_json, Json};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_record_in_order() {
        let mut t = Timings::new();
        let x = t.time("a", || 41) + t.time("b", || 1);
        assert_eq!(x, 42);
        assert_eq!(t.entries().len(), 2);
        assert!(t.secs("a").is_some() && t.secs("c").is_none());
        assert!(t.total_secs() >= 0.0);
    }
}
