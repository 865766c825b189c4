//! Prepared reconstruction pieces: the projection generator of each convex
//! piece is built once per piece content and shared through a
//! [`PreparedStore`].
//!
//! Algorithm 2's set-up dominates a reconstruction. The walk set-up is
//! cheap, but the stratified selector computes one exact fiber volume per
//! γ-grid cell: tens of milliseconds for a 3-D piece, hundreds for a 4-D
//! one, against microseconds per draw. Proposition 4.3 and Theorem 4.4 only
//! beat Fourier–Motzkin when that set-up is paid once rather than per
//! query.
//!
//! # Invisibility
//!
//! A piece is prepared from a seed derived from its [`PieceKey`] (exact
//! tuple content, kept coordinates, parameter fingerprint), never from the
//! query's stream. A cold build, a hit, a rebuild after eviction and a
//! disabled store (capacity `0`) therefore attach the same body bit for
//! bit, and the query's RNG funds only the draws. The key holds the exact
//! atoms rather than a [`CanonicalKey`](cdb_constraint::CanonicalKey): two
//! spellings of one set build different bodies, so they must not share an
//! entry.
//!
//! # Memory
//!
//! An entry is dominated by its stratified selector, about 28 B per occupied
//! cell, so it is bounded by `max_enumerated_cells × ~28 B` (1.8 MB at the
//! default `2^16` cells). Attaching a copy shares the selector by reference
//! count.

use cdb_constraint::{content_digest, GeneralizedTuple};
use cdb_sampler::compose::ObservabilityError;
use cdb_sampler::{
    GeneratorParams, PreparedStore, ProjectionGenerator, RelationGenerator, SeedSequence,
};

/// Domain tag of piece preparation seeds, which keeps them apart from the
/// seeds of stored relations.
const PIECE_SEED_DOMAIN: u64 = 0x5049_4543_4500_0000;

/// The store key of one reconstruction piece: the generalized tuple's exact
/// content, the kept coordinates and the parameter fingerprint.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PieceKey {
    tuple: GeneralizedTuple,
    keep: Vec<usize>,
    params: u64,
}

impl PieceKey {
    /// The key of `proj_keep(tuple)` prepared under `params`.
    fn new(tuple: &GeneralizedTuple, keep: &[usize], params: &GeneratorParams) -> Self {
        PieceKey {
            tuple: tuple.clone(),
            keep: keep.to_vec(),
            params: params.fingerprint(),
        }
    }

    /// The seed sequence that funds the piece's preparation: a pure
    /// function of the key.
    fn preparation_seed(&self) -> SeedSequence {
        SeedSequence::new(PIECE_SEED_DOMAIN ^ content_digest(&self.tuple))
            .child(content_digest(&self.keep))
            .child(self.params)
    }
}

/// The store of prepared reconstruction pieces.
pub type PieceStore = PreparedStore<PieceKey, ProjectionGenerator>;

/// Fetches (or builds) the prepared projection generator of
/// `proj_keep(tuple)` and attaches a private copy. The body is built by
/// [`ProjectionGenerator::new`] on the key's setup stream, then prepared
/// (its stratified selector enumerated), so it is a pure function of the
/// key. Errors (a degenerate or unbounded piece) are not stored.
pub(crate) fn prepared_piece(
    store: &PieceStore,
    tuple: &GeneralizedTuple,
    keep: &[usize],
    params: GeneratorParams,
) -> Result<ProjectionGenerator, ObservabilityError> {
    let key = PieceKey::new(tuple, keep, &params);
    let body = store.get_or_try_prepare(&key, || {
        let seed = key.preparation_seed();
        let mut generator =
            ProjectionGenerator::new(tuple, keep, params, &mut seed.setup_stream().rng())?;
        generator.prepare(&seed);
        Ok(generator)
    })?;
    Ok((*body).clone())
}
