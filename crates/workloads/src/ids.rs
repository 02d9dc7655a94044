//! Benchmark identifiers and build options.

/// The 12 single-threaded benchmarks of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BenchmarkId {
    /// SPEC 403.gcc — mixed behaviour.
    Gcc,
    /// SPEC 462.libquantum — pure streaming.
    Libquantum,
    /// SPEC 470.lbm — multi-stream stencil.
    Lbm,
    /// SPEC 429.mcf — arc-array walks + pointer chasing.
    Mcf,
    /// SPEC 471.omnetpp — event-heap pointer chasing.
    Omnetpp,
    /// SPEC 450.soplex — sparse linear algebra gathers.
    Soplex,
    /// SPEC 473.astar — grid search with locality.
    Astar,
    /// CIGAR genetic algorithm — short strided bursts.
    Cigar,
    /// SPEC 483.xalancbmk — DOM pointer chasing.
    Xalan,
    /// SPEC 459.GemsFDTD — 3D finite-difference stencil.
    GemsFdtd,
    /// SPEC 437.leslie3d — 3D CFD stencil.
    Leslie3d,
    /// SPEC 433.milc — lattice QCD sweeps.
    Milc,
}

impl BenchmarkId {
    /// All 12, in the paper's Table I order.
    pub fn all() -> [BenchmarkId; 12] {
        use BenchmarkId::*;
        [
            Gcc, Libquantum, Lbm, Mcf, Omnetpp, Soplex, Astar, Cigar, Xalan, GemsFdtd, Leslie3d,
            Milc,
        ]
    }

    /// The display name used in the paper's tables and figures.
    pub fn name(&self) -> &'static str {
        match self {
            BenchmarkId::Gcc => "gcc",
            BenchmarkId::Libquantum => "libquantum",
            BenchmarkId::Lbm => "lbm",
            BenchmarkId::Mcf => "mcf",
            BenchmarkId::Omnetpp => "omnetpp",
            BenchmarkId::Soplex => "soplex",
            BenchmarkId::Astar => "astar",
            BenchmarkId::Cigar => "cigar",
            BenchmarkId::Xalan => "xalan",
            BenchmarkId::GemsFdtd => "GemsFDTD",
            BenchmarkId::Leslie3d => "leslie3d",
            BenchmarkId::Milc => "milc",
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The parallel benchmarks of Figure 12.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ParallelId {
    /// SPEC OMP swim — bandwidth-hungry 2D stencil (marked * in Fig 12).
    Swim,
    /// NAS CG — bandwidth-hungry sparse conjugate gradient (marked *).
    Cg,
    /// SPEC OMP fma3d — compute-bound crash simulation.
    Fma3d,
    /// NAS DC — data-cube arithmetic, moderate memory intensity.
    Dc,
}

impl ParallelId {
    /// All four, in Figure 12 order.
    pub fn all() -> [ParallelId; 4] {
        [
            ParallelId::Swim,
            ParallelId::Cg,
            ParallelId::Fma3d,
            ParallelId::Dc,
        ]
    }

    /// Display name (with the paper's `*` marking the bandwidth-bound two).
    pub fn name(&self) -> &'static str {
        match self {
            ParallelId::Swim => "swim*",
            ParallelId::Cg => "cg*",
            ParallelId::Fma3d => "fma3d",
            ParallelId::Dc => "dc",
        }
    }
}

impl std::fmt::Display for ParallelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which input the workload runs: the profiled reference input or an
/// alternate one (different sizes and seeds, same structure).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InputSet {
    /// The input the profile was gathered on.
    Ref,
    /// Alternate input `k` (the §VII-D study draws these randomly).
    Alt(u8),
}

impl InputSet {
    /// Working-set scale factor for this input.
    pub fn scale(&self) -> f64 {
        match self {
            InputSet::Ref => 1.0,
            InputSet::Alt(k) => match k % 4 {
                0 => 0.65,
                1 => 1.45,
                2 => 0.85,
                _ => 1.2,
            },
        }
    }

    /// Seed perturbation for pointer/index structure.
    pub fn seed_salt(&self) -> u64 {
        match self {
            InputSet::Ref => 0,
            InputSet::Alt(k) => 0x9e37_79b9 ^ ((*k as u64 + 1) << 32),
        }
    }
}

/// Options for building a workload instance.
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Input selection.
    pub input: InputSet,
    /// Added to every address the workload generates — gives each core of
    /// a multiprogrammed mix a disjoint address space.
    pub addr_offset: u64,
    /// Scales the nominal run length (1.0 = full solo run).
    pub refs_scale: f64,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            input: InputSet::Ref,
            addr_offset: 0,
            refs_scale: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_benchmarks_in_order() {
        let all = BenchmarkId::all();
        assert_eq!(all.len(), 12);
        assert_eq!(all[0].name(), "gcc");
        assert_eq!(all[11].name(), "milc");
        assert_eq!(BenchmarkId::Cigar.to_string(), "cigar");
    }

    #[test]
    fn input_scales_differ() {
        assert_eq!(InputSet::Ref.scale(), 1.0);
        assert_ne!(InputSet::Alt(0).scale(), InputSet::Alt(1).scale());
        assert_eq!(InputSet::Ref.seed_salt(), 0);
        assert_ne!(InputSet::Alt(0).seed_salt(), InputSet::Alt(1).seed_salt());
    }

    #[test]
    fn parallel_names() {
        assert_eq!(ParallelId::Swim.name(), "swim*");
        assert_eq!(ParallelId::all().len(), 4);
    }
}
