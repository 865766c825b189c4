//! Almost-uniform generators and volume estimators for generalized relations.
//!
//! This crate implements the randomized core of the paper:
//!
//! * the Dyer–Frieze–Kannan style generator and volume estimator for a
//!   well-bounded convex body given by a membership oracle ([`DfkSampler`]),
//!   including rounding and the telescoping-body volume scheme;
//! * the `(γ, ε, δ)`-generator abstraction of Definition 2.2 and the
//!   `(ε, δ)`-volume estimator of Definition 2.1 ([`GeneratorParams`],
//!   [`RelationGenerator`], [`RelationVolumeEstimator`]);
//! * the composed generators of Section 4: union (Algorithm 1,
//!   [`UnionGenerator`]), intersection ([`IntersectionGenerator`]),
//!   difference ([`DifferenceGenerator`]) and projection (Algorithm 2,
//!   [`ProjectionGenerator`]);
//! * the fixed-dimension algorithms of Section 3 ([`FixedDimSampler`]);
//! * the naive bounding-box rejection baseline ([`RejectionSampler`]) whose
//!   exponential failure rate motivates the whole construction;
//! * statistical diagnostics used by the experiments ([`diagnostics`]);
//! * the parallel batch layer ([`batch`], [`SeedSequence`]): every generator
//!   and estimator exposes `sample_batch` / `estimate_volume_batch` entry
//!   points that fan independent chains and repeats out across scoped worker
//!   threads.
//!
//! # Seed streams and reproducible parallelism
//!
//! The batch API replaces the single shared [`rand::Rng`] with a
//! [`SeedSequence`]: a deterministic tree of RNG streams rooted at one `u64`
//! seed. Work item `i` (a sample, or a volume-estimate repeat) always
//! consumes child stream `i + 1`, and one-time generator setup consumes
//! child stream `0`, so the output of a batch is **bitwise identical for any
//! number of worker threads** — `threads` only decides how the items are
//! scheduled, never what they compute:
//!
//! ```
//! use cdb_constraint::GeneralizedRelation;
//! use cdb_sampler::{GeneratorParams, RelationGenerator, SeedSequence, UnionGenerator};
//!
//! let relation = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]);
//! let seq = SeedSequence::new(7);
//! let mut a = UnionGenerator::new(&relation, GeneratorParams::fast()).unwrap();
//! let mut b = UnionGenerator::new(&relation, GeneratorParams::fast()).unwrap();
//! assert_eq!(a.sample_batch(32, &seq, 1), b.sample_batch(32, &seq, 4));
//! ```
//!
//! # Example
//!
//! ```
//! use cdb_constraint::GeneralizedRelation;
//! use cdb_sampler::{GeneratorParams, UnionGenerator, RelationGenerator, RelationVolumeEstimator};
//! use rand::SeedableRng;
//!
//! let relation = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0])
//!     .union(&GeneralizedRelation::from_box_f64(&[0.5, 0.0], &[1.5, 1.0]));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut gen = UnionGenerator::new(&relation, GeneratorParams::fast()).unwrap();
//! let p = gen.sample(&mut rng).unwrap();
//! assert!(relation.contains_f64(&p));
//! let vol = gen.estimate_volume(&mut rng).unwrap();
//! assert!((vol - 1.5).abs() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod budget;
pub mod compose;
mod dfk;
pub mod diagnostics;
pub mod faults;
mod fixed_dim;
pub mod gauss;
mod oracle;
mod params;
pub mod prepared;
mod rejection;
pub mod walk;

pub use batch::{FanOutReport, WorkerPanic};
pub use budget::{BudgetMeter, BudgetTrip, CancelToken, QueryBudget};
pub use compose::difference::DifferenceGenerator;
pub use compose::fiber_weight::{
    FiberVolume, FiberWeightCache, ProjectionParams, AUTO_EXACT_MAX_FIBER_DIM,
    DEFAULT_MAX_ENUMERATED_CELLS, DEFAULT_WEIGHT_CACHE_CAPACITY, MAX_ENUMERATED_CELLS,
};
pub use compose::intersection::IntersectionGenerator;
pub use compose::projection::ProjectionGenerator;
pub use compose::stratified::{AliasTable, CellRange, CellSelection, StratifiedCells};
pub use compose::union::UnionGenerator;
pub use dfk::DfkSampler;
pub use faults::FaultPlan;
pub use fixed_dim::FixedDimSampler;
pub use oracle::{ConvexBody, MembershipOracle};
pub use params::{
    median, GeneratorParams, RelationGenerator, RelationVolumeEstimator, SeedSequence,
};
pub use prepared::{PreparedStore, PreparedStoreStats, DEFAULT_PREPARED_STORE_CAPACITY};
pub use rejection::RejectionSampler;
pub use walk::{WalkKind, WalkScratch};
