//! Cache geometry configuration.

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Ways per set.
    pub assoc: u32,
    /// Line size in bytes (power of two; both paper machines use 64 B).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Construct and validate a configuration.
    ///
    /// Panics if the geometry is inconsistent (size not divisible into an
    /// integral power-of-two number of sets).
    pub fn new(size_bytes: u64, assoc: u32, line_bytes: u64) -> Self {
        let c = CacheConfig {
            size_bytes,
            assoc,
            line_bytes,
        };
        c.validate();
        c
    }

    fn validate(&self) {
        assert!(self.line_bytes.is_power_of_two(), "line size power of two");
        assert!(self.assoc > 0, "associativity must be positive");
        assert!(
            self.size_bytes
                .is_multiple_of(self.line_bytes * self.assoc as u64),
            "size {} not divisible by line*assoc",
            self.size_bytes
        );
        assert!(
            self.sets().is_power_of_two(),
            "set count {} must be a power of two for cheap indexing",
            self.sets()
        );
    }

    /// Number of cache lines the cache can hold.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.lines() / self.assoc as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_derivations() {
        // AMD Phenom II L1D: 64 kB, 2-way, 64 B lines.
        let c = CacheConfig::new(64 * 1024, 2, 64);
        assert_eq!(c.lines(), 1024);
        assert_eq!(c.sets(), 512);
        // Intel i7-2600K LLC: 8 MB, 16-way.
        let c = CacheConfig::new(8 * 1024 * 1024, 16, 64);
        assert_eq!(c.lines(), 131_072);
        assert_eq!(c.sets(), 8192);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_lines() {
        CacheConfig::new(64 * 1024, 2, 48);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_misaligned_size() {
        CacheConfig::new(64 * 1024 + 64, 2, 64);
    }
}
