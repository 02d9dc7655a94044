//! # repf-cache
//!
//! From-scratch cache-hierarchy substrate for the ICPP 2014 reproduction:
//!
//! * [`SetAssocCache`] — a set-associative cache with dirty and
//!   *non-temporal* line state and exact LRU, kept as per-way recency
//!   ranks so that no way ever moves.
//! * [`MemorySystem`] — private L1/L2 per core over a **shared** LLC and a
//!   bandwidth-limited DRAM channel ([`Dram`]), with in-flight (MSHR-style)
//!   tracking of outstanding fills, demand accesses and normal /
//!   non-temporal prefetches. This is the stand-in for the AMD Phenom II
//!   and Intel i7-2600K memory systems of the paper's Table II. Its calls
//!   must not go back in time: once `now` passes the latest pending
//!   arrival, lookups skip the in-flight table.
//! * [`FunctionalCacheSim`] — the Pin-analog functional simulator the paper
//!   uses as ground truth for per-instruction miss ratios (§IV, Table I).
//!
//! The shared LLC and the shared DRAM channel are what make the multicore
//! experiments work: a co-runner that wastes either resource slows its
//! neighbours down, which is precisely the effect the paper measures.

pub mod config;
pub mod dram;
pub mod functional;
pub mod hierarchy;
pub mod replacement;
pub mod set_assoc;
pub mod stats;

pub use config::CacheConfig;
pub use dram::{Dram, DramConfig};
pub use functional::FunctionalCacheSim;
pub use hierarchy::{AccessResult, HierarchyConfig, HitLevel, MemorySystem, PrefetchTarget};
pub use replacement::{PolicyCache, RandomRepl, ReplacementPolicy, TreePlru, TrueLru};
pub use set_assoc::{EvictedLine, SetAssocCache};
pub use stats::{CoreStats, DramStats};
