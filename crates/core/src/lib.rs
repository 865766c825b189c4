//! High-level API for approximate query evaluation in spatial constraint
//! databases — the user-facing surface of the reproduction.
//!
//! A [`SpatialDatabase`] owns a set of generalized relations and answers
//! every approximate query through one call, described by a [`QuerySpec`]:
//!
//! * [`QuerySpec::sample`] — almost-uniform samples from a stored relation
//!   (Definition 2.2, built on Algorithm 1);
//! * [`QuerySpec::volume`] — an `(ε, δ)`-volume estimate (Definition 2.1,
//!   Theorem 4.2);
//! * [`QuerySpec::reconstruct`] — an `(ε, δ)`-estimation of the result *set*
//!   of a positive existential FO+LIN query (Theorem 4.4), returned as a
//!   generalized relation built from convex hulls of samples.
//!
//! [`SpatialDatabase::query`] funds a spec from its seed;
//! [`SpatialDatabase::query_with_rng`] funds it from a caller-supplied RNG.
//! [`SpatialDatabase::evaluate_exact`] is the fully symbolic baseline
//! (resolution + Fourier–Motzkin + DNF).
//!
//! # Example
//!
//! ```
//! use cdb_core::{QuerySpec, SpatialDatabase};
//! use cdb_constraint::{parse_formula, GeneralizedRelation};
//! use cdb_sampler::GeneratorParams;
//! use rand::SeedableRng;
//!
//! let mut db = SpatialDatabase::with_params(GeneratorParams::fast());
//! db.insert("Zone", GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 1.0]));
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let sample = db.query_with_rng(&QuerySpec::sample("Zone", 1), &mut rng).unwrap();
//! assert!(db.relation("Zone").unwrap().contains_f64(sample.point().unwrap()));
//!
//! let estimate = db.query_with_rng(&QuerySpec::volume("Zone", 1), &mut rng).unwrap();
//! assert!((estimate.volume().unwrap() - 2.0).abs() < 0.8);
//!
//! let query = parse_formula("Zone(x0, x1) and x0 <= 1", 2).unwrap();
//! let result = db.evaluate_exact(&query, 2).unwrap();
//! assert!(result.contains_f64(&[0.5, 0.5]));
//! assert!(!result.contains_f64(&[1.5, 0.5]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod query;

pub use query::{FailureMode, QueryKind, QueryOptions, QueryOutcome, QuerySpec, QueryValue};

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use cdb_constraint::canonical::CanonicalKey;
use cdb_constraint::{content_digest, ConstraintError, Database, Formula, GeneralizedRelation};
use cdb_reconstruct::{PieceStore, ReconstructionError};
use cdb_sampler::compose::ObservabilityError;
use cdb_sampler::{
    BudgetTrip, FaultPlan, GeneratorParams, PreparedStore, PreparedStoreStats, RelationGenerator,
    SeedSequence, UnionGenerator, DEFAULT_PREPARED_STORE_CAPACITY,
};

/// The phase of query evaluation in which a failure occurred.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryPhase {
    /// Building the prepared generator body (certificates, pilot volume
    /// estimates, rounding transforms).
    Preparation,
    /// Drawing almost-uniform points.
    Sampling,
    /// Estimating an `(ε, δ)` volume.
    VolumeEstimation,
}

impl std::fmt::Display for QueryPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryPhase::Preparation => write!(f, "preparation"),
            QueryPhase::Sampling => write!(f, "sampling"),
            QueryPhase::VolumeEstimation => write!(f, "volume estimation"),
        }
    }
}

/// Errors surfaced by the high-level API.
#[derive(Debug)]
pub enum SpatialDbError {
    /// The named relation is not stored in the database.
    UnknownRelation(String),
    /// The query specification itself is invalid (e.g. a seeded
    /// [`SpatialDatabase::query`] without a seed) — a caller error, distinct
    /// from any engine failure.
    InvalidParams(String),
    /// The relation is not observable (Section 4 conditions violated).
    NotObservable {
        /// Name of the offending relation.
        relation: String,
        /// The underlying observability failure.
        source: ObservabilityError,
    },
    /// The generator failed (probability ≤ δ per attempt) with no budget
    /// involved: a genuine statistical failure, not resource exhaustion.
    GenerationFailed {
        /// Name of the relation being queried.
        relation: String,
        /// Attempts charged by the failing call before it gave up.
        attempts: u64,
        /// The phase that failed.
        phase: QueryPhase,
    },
    /// An installed [`QueryBudget`](cdb_sampler::QueryBudget) tripped before
    /// the query finished.
    BudgetExhausted {
        /// Name of the relation being queried.
        relation: String,
        /// Which limit tripped (steps, attempts, deadline or cancellation).
        cause: BudgetTrip,
        /// Batch items completed before the budget tripped (`0` for
        /// single-draw entry points).
        completed: usize,
    },
    /// A batch worker panicked; the panic was contained at the worker
    /// boundary and surviving workers completed (see
    /// [`FailureMode::Partial`]).
    WorkerPanicked {
        /// Index of the panicking worker.
        worker: usize,
        /// Stringified panic payload.
        payload: String,
    },
    /// The query could not be estimated.
    Reconstruction(ReconstructionError),
    /// The symbolic evaluation failed.
    Symbolic(ConstraintError),
}

impl std::fmt::Display for SpatialDbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpatialDbError::UnknownRelation(name) => write!(f, "unknown relation {name}"),
            SpatialDbError::InvalidParams(msg) => write!(f, "invalid query parameters: {msg}"),
            SpatialDbError::NotObservable { relation, source } => {
                write!(f, "relation {relation} is not observable: {source}")
            }
            SpatialDbError::GenerationFailed {
                relation,
                attempts,
                phase,
            } => write!(
                f,
                "the generator for relation {relation} failed during {phase} \
                 after {attempts} attempts"
            ),
            SpatialDbError::BudgetExhausted {
                relation,
                cause,
                completed,
            } => write!(
                f,
                "query budget exhausted for relation {relation}: {cause} \
                 ({completed} items completed)"
            ),
            SpatialDbError::WorkerPanicked { worker, payload } => {
                write!(f, "batch worker {worker} panicked: {payload}")
            }
            SpatialDbError::Reconstruction(e) => write!(f, "query estimation failed: {e}"),
            SpatialDbError::Symbolic(e) => write!(f, "symbolic evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for SpatialDbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpatialDbError::NotObservable { source, .. } => Some(source),
            SpatialDbError::Reconstruction(e) => Some(e),
            SpatialDbError::Symbolic(e) => Some(e),
            _ => None,
        }
    }
}

/// SplitMix64 finalizer: decorrelates the key hash and the parameter
/// fingerprint before they fund a preparation seed stream.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The store key of a stored relation: its canonical form plus a digest of
/// its exact content. Relations equal up to atom order or scaling share the
/// canonical form, but their bodies are built from their own atoms and
/// differ in the last bits, so they get separate entries.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct RelationKey {
    canonical: CanonicalKey,
    content: u64,
}

/// A name's memoized store key, shared by `Arc` with the store entry (a
/// store hit compares the two by pointer first), and the seed that funds
/// the key's preparation.
#[derive(Clone, Debug)]
struct MemoKey {
    key: Arc<RelationKey>,
    prep: SeedSequence,
}

/// A spatial constraint database with approximate evaluation capabilities.
///
/// # The prepared-relation store
///
/// Every sample and volume query routes through a keyed, concurrency-safe
/// [`PreparedStore`] mapping a stored relation to its fully prepared
/// generator body — certificates, pilot volume estimates, rounding
/// transforms — so repeated and concurrent queries over overlapping
/// relations pay preprocessing once. The key is the *canonical form* of the
/// relation's defining formula (see [`cdb_constraint::canonical`]) plus a
/// digest of its exact content ([`content_digest`]), so names holding the
/// same content share one body. Preparation randomness is derived from the
/// canonical key and a fingerprint of the generator parameters, never from
/// the caller's stream, which makes the store *bitwise invisible*: results
/// are identical whether the store is cold, warm, shared across threads,
/// capacity-evicting, or disabled ([`SpatialDatabase::with_store_capacity`]
/// with capacity `0`).
///
/// Reconstruction pieces get the same treatment in a second store of the
/// same capacity: each convex piece's projection generator, stratified
/// selector included, is prepared once per (exact piece content, kept
/// coordinates, parameters) — see [`cdb_reconstruct::PieceKey`] — and an
/// entry takes at most about `max_enumerated_cells × 28 B`.
/// [`SpatialDatabase::store_stats`] counts both stores.
#[derive(Debug, Default)]
pub struct SpatialDatabase {
    database: Database,
    params: GeneratorParams,
    /// Prepared generator bodies, keyed by canonical form and content.
    store: PreparedStore<Arc<RelationKey>, UnionGenerator>,
    /// Prepared reconstruction pieces, at the same capacity as `store`.
    pieces: PieceStore,
    /// Memo of name → store key and preparation seed (keys are
    /// content-derived, so this is pure caching; invalidated when a
    /// relation is replaced).
    keys: RwLock<HashMap<String, MemoKey>>,
    /// Worker panics contained by seeded batch queries; merged into
    /// [`SpatialDatabase::store_stats`] as `panics_recovered`.
    contained_panics: AtomicU64,
    /// Faults this database's queries inject (empty by default).
    faults: FaultPlan,
}

impl SpatialDatabase {
    /// Creates an empty database with default generator parameters.
    pub fn new() -> Self {
        SpatialDatabase::with_params(GeneratorParams::default())
    }

    /// Creates an empty database with explicit generator parameters.
    pub fn with_params(params: GeneratorParams) -> Self {
        SpatialDatabase {
            database: Database::new(),
            params,
            store: PreparedStore::new(DEFAULT_PREPARED_STORE_CAPACITY),
            pieces: PieceStore::new(DEFAULT_PREPARED_STORE_CAPACITY),
            keys: RwLock::new(HashMap::new()),
            contained_panics: AtomicU64::new(0),
            faults: FaultPlan::new(),
        }
    }

    /// Replaces the prepared-relation store, and the reconstruction-piece
    /// store beside it, with stores of the given capacity. Capacity `0`
    /// disables caching entirely — every query prepares from scratch, which
    /// is bitwise identical to the cached paths and is the baseline the
    /// determinism suite pins the cached paths to.
    pub fn with_store_capacity(mut self, capacity: usize) -> Self {
        self.store = PreparedStore::new(capacity);
        self.pieces = PieceStore::new(capacity);
        self
    }

    /// Replaces the [`FaultPlan`] this database's queries inject (the
    /// resilience suite's harness). The plan applies to this database
    /// only: a forced draw failure is checked before each draw, and a
    /// worker panic fires inside seeded fan-out tasks. Pass
    /// [`FaultPlan::new`] to disarm.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// The [`FaultPlan`] armed on this database, for harnesses that run
    /// their own fan-out over its queries.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Inserts (or replaces) a relation. Replacing invalidates the name's
    /// canonical-key memo; any prepared body for the *old* content stays in
    /// the store harmlessly (keys are content-derived, so it can only be
    /// hit again by a relation with that exact content).
    pub fn insert(&mut self, name: impl Into<String>, relation: GeneralizedRelation) -> &mut Self {
        let name = name.into();
        self.keys
            .write()
            .expect("canonical-key memo lock")
            .remove(&name);
        self.database.insert(name, relation);
        self
    }

    /// The underlying symbolic database.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// Looks up a stored relation.
    pub fn relation(&self, name: &str) -> Option<&GeneralizedRelation> {
        self.database.relation(name)
    }

    /// The generator parameters in use.
    pub fn params(&self) -> &GeneratorParams {
        &self.params
    }

    /// Hit/miss/eviction counters of the prepared-relation store plus the
    /// reconstruction-piece store, with this database's containment
    /// counters merged in: `panics_recovered` counts worker panics
    /// contained by seeded batch queries and `shards_rebuilt` counts
    /// poisoned store shards that were discarded and rebuilt.
    pub fn store_stats(&self) -> PreparedStoreStats {
        let relations = self.store.stats();
        let pieces = self.pieces.stats();
        PreparedStoreStats {
            hits: relations.hits + pieces.hits,
            misses: relations.misses + pieces.misses,
            evictions: relations.evictions + pieces.evictions,
            len: relations.len + pieces.len,
            shards_rebuilt: relations.shards_rebuilt + pieces.shards_rebuilt,
            panics_recovered: self.contained_panics.load(Ordering::Relaxed),
        }
    }

    /// Capacity of the prepared-relation store, and of the piece store
    /// beside it (`0` = disabled).
    pub fn store_capacity(&self) -> usize {
        self.store.capacity()
    }

    /// The store key of the named relation and its preparation seed
    /// (memoized per name).
    fn relation_key(&self, name: &str, relation: &GeneralizedRelation) -> MemoKey {
        if let Some(memo) = self.keys.read().expect("canonical-key memo lock").get(name) {
            return memo.clone();
        }
        let canonical = CanonicalKey::of_relation(relation);
        let prep = SeedSequence::new(mix(canonical.hash64() ^ self.params.fingerprint()));
        let memo = MemoKey {
            key: Arc::new(RelationKey {
                canonical,
                content: content_digest(relation),
            }),
            prep,
        };
        self.keys
            .write()
            .expect("canonical-key memo lock")
            .insert(name.to_string(), memo.clone());
        memo
    }

    /// The stored relation of that name, or [`SpatialDbError::UnknownRelation`].
    fn stored(&self, name: &str) -> Result<&GeneralizedRelation, SpatialDbError> {
        self.database
            .relation(name)
            .ok_or_else(|| SpatialDbError::UnknownRelation(name.to_string()))
    }

    /// The seed sequence that funds the named relation's preparation. It is
    /// derived from the relation's canonical key and the parameter
    /// fingerprint — never from a caller's stream — so a raw
    /// [`UnionGenerator`] prepared from it is bitwise the body every query
    /// on this relation attaches.
    pub fn preparation_seed(&self, name: &str) -> Result<SeedSequence, SpatialDbError> {
        Ok(self.relation_key(name, self.stored(name)?).prep)
    }

    /// Builds (or fetches) the prepared generator body for the named
    /// relation and attaches it for this query.
    ///
    /// The body is a pure function of (relation content, parameters) — see
    /// [`SpatialDatabase::preparation_seed`]. That is the whole invisibility
    /// argument: a cold build, a warm hit, a racing rebuild and the
    /// disabled-store path all produce bitwise identical bodies, and the
    /// caller's randomness funds only the sampling itself.
    fn prepared_generator(&self, name: &str) -> Result<UnionGenerator, SpatialDbError> {
        let relation = self.stored(name)?;
        let MemoKey { key, prep } = self.relation_key(name, relation);
        let params = self.params;
        let body = self.store.get_or_try_prepare(&key, || {
            let mut generator = UnionGenerator::new(relation, params)?;
            generator.prepare(&prep);
            Ok(generator)
        });
        // Attach: the clone shares the stored body by `Arc` and brings its
        // own empty walk scratch, so the stored body stays immutable.
        Ok((*body.map_err(|source| SpatialDbError::NotObservable {
            relation: name.to_string(),
            source,
        })?)
        .clone())
    }

    /// Evaluates a query exactly through the symbolic pipeline (resolution,
    /// Fourier–Motzkin, DNF) — the baseline the approximate path avoids.
    pub fn evaluate_exact(
        &self,
        query: &Formula,
        output_arity: usize,
    ) -> Result<GeneralizedRelation, SpatialDbError> {
        self.database
            .evaluate(query, output_arity)
            .map_err(SpatialDbError::Symbolic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_constraint::parse_formula;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_db() -> SpatialDatabase {
        let mut db = SpatialDatabase::with_params(GeneratorParams::fast());
        db.insert(
            "R",
            GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 1.0]),
        );
        db.insert(
            "U",
            GeneralizedRelation::from_box_f64(&[0.0], &[1.0])
                .union(&GeneralizedRelation::from_box_f64(&[3.0], &[4.0])),
        );
        db
    }

    #[test]
    fn generate_and_volume() {
        let db = sample_db();
        let mut rng = StdRng::seed_from_u64(201);
        let sample = db
            .query_with_rng(&QuerySpec::sample("R", 1), &mut rng)
            .unwrap();
        assert!(db
            .relation("R")
            .unwrap()
            .contains_f64(sample.point().unwrap()));
        let v = db
            .query_with_rng(&QuerySpec::volume("R", 1), &mut rng)
            .unwrap()
            .volume()
            .unwrap();
        assert!((v - 2.0).abs() < 0.7, "volume {v}");
        let many = db
            .query_with_rng(&QuerySpec::sample("U", 100).partial(), &mut rng)
            .unwrap();
        assert!(many.completed > 80);
        for p in many.points().iter().flatten() {
            assert!(db.relation("U").unwrap().contains_f64(p));
        }
    }

    #[test]
    fn batch_generation_is_thread_count_independent() {
        let db = sample_db();
        let sample = |threads| {
            let spec = QuerySpec::sample("U", 64)
                .with_seed(77)
                .with_threads(threads);
            db.query(&spec.partial()).unwrap().points().to_vec()
        };
        let single = sample(1);
        assert_eq!(single, sample(4));
        assert!(single.iter().filter(|p| p.is_some()).count() > 50);
        for p in single.iter().flatten() {
            assert!(db.relation("U").unwrap().contains_f64(p));
        }
        let volume = |threads| {
            let spec = QuerySpec::volume("R", 5)
                .with_seed(77)
                .with_threads(threads);
            db.query(&spec).unwrap().volume().unwrap()
        };
        let v1 = volume(1);
        assert_eq!(v1, volume(4));
        assert!((v1 - 2.0).abs() < 0.7, "volume {v1}");
    }

    #[test]
    fn unknown_relation_errors() {
        let db = sample_db();
        let mut rng = StdRng::seed_from_u64(202);
        assert!(matches!(
            db.query_with_rng(&QuerySpec::sample("Missing", 1), &mut rng),
            Err(SpatialDbError::UnknownRelation(_))
        ));
    }

    #[test]
    fn exact_and_approximate_query_agree_roughly() {
        let db = sample_db();
        let mut rng = StdRng::seed_from_u64(203);
        // Q(x0) = exists x1. R(x0, x1): the interval [0, 2].
        let q = parse_formula("exists x1. R(x0, x1)", 2).unwrap();
        let exact = db.evaluate_exact(&q, 1).unwrap();
        assert!(exact.contains_f64(&[1.0]));
        assert!(!exact.contains_f64(&[2.5]));
        let outcome = db
            .query_with_rng(&QuerySpec::reconstruct("R", q, 1), &mut rng)
            .unwrap();
        let approx = outcome.relation().unwrap();
        // The approximation covers the middle of the interval and does not
        // wildly overshoot.
        assert!(approx.contains_f64(&[1.0]));
        assert!(!approx.contains_f64(&[3.0]));
    }

    #[test]
    fn non_observable_relation_is_reported() {
        let mut db = SpatialDatabase::new();
        use cdb_constraint::{Atom, GeneralizedTuple};
        db.insert(
            "Half",
            GeneralizedRelation::from_tuple(GeneralizedTuple::new(
                1,
                vec![Atom::le_from_ints(&[1], 0)],
            )),
        );
        let mut rng = StdRng::seed_from_u64(204);
        assert!(matches!(
            db.query_with_rng(&QuerySpec::volume("Half", 1), &mut rng),
            Err(SpatialDbError::NotObservable { .. })
        ));
    }
}
