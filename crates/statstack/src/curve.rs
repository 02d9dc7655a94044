//! Miss-ratio curves: the (cache size → miss ratio) functions of the
//! paper's Figure 3, with helpers the delinquent-load and cache-bypassing
//! analyses need.

/// A sampled miss-ratio curve: `ratios[i]` is the miss ratio at cache
/// capacity `sizes_bytes[i]`.
#[derive(Clone, Debug, PartialEq)]
pub struct MissRatioCurve {
    sizes_bytes: Vec<u64>,
    ratios: Vec<f64>,
}

impl MissRatioCurve {
    /// Build a curve; sizes must be strictly increasing and the vectors
    /// must match in length.
    pub fn new(sizes_bytes: Vec<u64>, ratios: Vec<f64>) -> Self {
        assert_eq!(sizes_bytes.len(), ratios.len());
        assert!(
            sizes_bytes.windows(2).all(|w| w[0] < w[1]),
            "sizes must be strictly increasing"
        );
        MissRatioCurve {
            sizes_bytes,
            ratios,
        }
    }

    /// The sampled sizes.
    pub fn sizes_bytes(&self) -> &[u64] {
        &self.sizes_bytes
    }

    /// The miss ratios.
    pub fn ratios(&self) -> &[f64] {
        &self.ratios
    }

    /// Miss ratio at exactly `bytes` (must be one of the sampled sizes).
    pub fn at_bytes(&self, bytes: u64) -> Option<f64> {
        let i = self.sizes_bytes.iter().position(|&s| s == bytes)?;
        Some(self.ratios[i])
    }

    /// Total drop in miss ratio between two sizes — how much of the PC's
    /// data is re-used out of caches in `(from_bytes, to_bytes]`. The
    /// cache-bypassing analysis (§VI-B) marks a load non-temporal when the
    /// curves of all its data-reusing loads are *flat* between the L1 and
    /// LLC points.
    pub fn drop_between(&self, from_bytes: u64, to_bytes: u64) -> Option<f64> {
        Some(self.at_bytes(from_bytes)? - self.at_bytes(to_bytes)?)
    }

    /// `(size, ratio)` pairs for display.
    pub fn points(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.sizes_bytes
            .iter()
            .copied()
            .zip(self.ratios.iter().copied())
    }

    /// Render a compact ASCII table (used by the `fig3` binary).
    pub fn to_table(&self, label: &str) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "# {label}");
        for (size, r) in self.points() {
            let _ = writeln!(s, "{:>10}  {:6.2}%", human_size(size), r * 100.0);
        }
        s
    }
}

/// Format a byte count the way the paper labels its x-axes (8k … 8M).
pub fn human_size(bytes: u64) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 && bytes.is_multiple_of(1 << 10) {
        format!("{}k", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

/// The cache sizes of the paper's Figure 3 x-axis: 8 kB to 8 MB, doubling.
pub fn figure3_sizes() -> Vec<u64> {
    (13..=23).map(|i| 1u64 << i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> MissRatioCurve {
        MissRatioCurve::new(vec![8192, 16384, 32768], vec![0.5, 0.3, 0.3])
    }

    #[test]
    fn lookup_and_drop() {
        let c = curve();
        assert_eq!(c.at_bytes(8192), Some(0.5));
        assert_eq!(c.at_bytes(9999), None);
        assert!((c.drop_between(8192, 32768).unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(c.drop_between(16384, 32768).unwrap(), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_sizes() {
        MissRatioCurve::new(vec![16384, 8192], vec![0.1, 0.2]);
    }

    #[test]
    fn human_sizes() {
        assert_eq!(human_size(8192), "8k");
        assert_eq!(human_size(1 << 20), "1M");
        assert_eq!(human_size(6 * 1024 * 1024), "6M");
        assert_eq!(human_size(100), "100");
    }

    #[test]
    fn figure3_axis() {
        let s = figure3_sizes();
        assert_eq!(s.first(), Some(&8192));
        assert_eq!(s.last(), Some(&(8 << 20)));
        assert_eq!(s.len(), 11);
    }

    #[test]
    fn table_renders() {
        let t = curve().to_table("demo");
        assert!(t.contains("# demo"));
        assert!(t.contains("8k"));
        assert!(t.contains("50.00%"));
    }
}
