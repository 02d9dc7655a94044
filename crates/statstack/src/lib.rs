//! # repf-statstack
//!
//! A from-scratch implementation of **StatStack** (Eklöv & Hagersten,
//! ISPASS 2010), the statistical LRU cache model the paper uses to turn
//! sparse reuse-distance samples into application-level and
//! per-instruction **miss-ratio curves** (§IV, Figure 3).
//!
//! ## The model
//!
//! For an access with *reuse distance* `d` (number of references between
//! two consecutive accesses to the same cache line), the *stack distance*
//! (number of **unique** lines touched in between — what LRU actually
//! evicts on) is estimated as
//!
//! ```text
//! S(d) = Σ_{k=0}^{d-1} P(rd > k)
//! ```
//!
//! where `P(rd > k)` is the survival function of the sampled reuse-distance
//! distribution: the `i`-th intervening reference contributes a unique line
//! exactly when *its* next reuse falls beyond the window end, which happens
//! with probability `P(rd > d − i)`. Dangling samples (lines never reused)
//! have infinite distance and are misses at every size.
//!
//! A fully-associative LRU cache of `L` lines misses an access iff its
//! stack distance is `≥ L`, so the miss ratio at size `L` is the fraction
//! of samples with `S(d) ≥ L`. Because `S` is monotone in `d`, the model
//! precomputes prefix sums over the sorted sample distances and answers
//! every query with binary searches — modelling *all* cache sizes from one
//! profile, in microseconds (the paper: "typically takes less than a
//! minute"; this implementation is far faster, see the `statstack` bench).
//!
//! Per-instruction curves restrict the sample set to one PC but use the
//! *global* survival function for the `S(d)` conversion, exactly as the
//! paper does.
//!
//! Profiles that grow over time (e.g. `repf-serve` sessions accumulating
//! submitted batches) refit through the incremental path in [`builder`]:
//! a model keeps a large shared base level and a small delta, and
//! [`StatStackModel::extend`] merges the new samples into the delta,
//! folding it into a fresh base only when it outgrows `4√n` — amortized
//! `O(b·√n)` for `b` new samples instead of a whole-history copy,
//! bit-identical to [`StatStackModel::from_profile`] on the concatenated
//! history.

pub mod builder;
pub mod corun;
pub mod curve;
pub mod model;
pub mod placement;
pub mod window;

pub use builder::StatStackBuilder;
pub use corun::{CoRunAnswer, CoRunModel, MISS_WEIGHT};
pub use curve::MissRatioCurve;
pub use model::{ModelParts, StatStackModel};
pub use placement::{place, tree_nodes, PlacementResult};
pub use window::WindowedModel;
