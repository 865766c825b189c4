//! Reconstruction of query results from almost-uniform samples
//! (Section 4.3 of the paper).
//!
//! The symbolic evaluation of an FO+LIN query goes through quantifier
//! elimination, which is doubly exponential in the number of eliminated
//! variables. The paper's alternative: sample the result set almost uniformly
//! (possible for every positive existential query built from observable
//! relations), take convex hulls of the samples, and return the union of the
//! hulls as an `(ε, δ)`-estimation of the result *set* — not just its volume.
//!
//! * [`hull_sample_size`] — the sample size of Lemma 4.1 (Affentranger–
//!   Wieacker bound);
//! * [`ConvexReconstructor`] — hull-of-samples estimator for one convex set;
//! * [`ProjectionQueryEstimator`] — Algorithm 3 (Proposition 4.3): projection
//!   queries over a convex relation;
//! * [`PositiveQueryEstimator`] — Algorithms 4 and 5 (Theorem 4.4): arbitrary
//!   positive existential queries over a database of observable relations;
//! * [`PieceStore`] — prepared reconstruction pieces, so each piece's
//!   Algorithm 2 set-up is paid once per piece content, not per query.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convex;
mod pieces;
mod query;

pub use convex::{
    default_hull_sample_size, hull_sample_size, ConvexReconstructor, ReconstructionError,
    DEFAULT_SAMPLE_CAP,
};
pub use pieces::{PieceKey, PieceStore};
pub use query::{PositiveQueryEstimator, ProjectionQueryEstimator};
