//! The query surface: one declarative call for every approximate query.
//!
//! ```
//! use cdb_core::{QueryOutcome, QuerySpec, SpatialDatabase};
//! use cdb_constraint::GeneralizedRelation;
//! use cdb_sampler::GeneratorParams;
//!
//! let mut db = SpatialDatabase::with_params(GeneratorParams::fast());
//! db.insert("Zone", GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 1.0]));
//!
//! let spec = QuerySpec::sample("Zone", 8).with_seed(7).with_threads(2);
//! let outcome = db.query(&spec).unwrap();
//! assert_eq!(outcome.completed, 8);
//! for p in outcome.points().iter().flatten() {
//!     assert!(db.relation("Zone").unwrap().contains_f64(p));
//! }
//! ```
//!
//! A [`QuerySpec`] is a relation name plus a [`QueryKind`]
//! (`Sample { n }` / `Volume { repeats }` / `Reconstruct { .. }`) plus
//! [`QueryOptions`] — budget, thread count, seed, and the
//! partial-vs-fail-fast switch. Execution is randomness-explicit:
//!
//! * [`SpatialDatabase::query`] runs a **seeded** query: batch item `i`
//!   draws from [`SeedSequence::item_stream`]`(i)` of the spec's seed
//!   sequence, so the outcome is bitwise identical for any thread count and
//!   reproducible from the seed alone — the mode a network service needs.
//! * [`SpatialDatabase::query_with_rng`] runs the query **sequentially**
//!   from a caller-supplied RNG stream, the classical library mode.
//!
//! Both modes share one item runner: every sample or volume item yields a
//! `(value, budget trip, attempts)` slot, and one fold turns the slots into
//! the outcome, so a failure is typed the same way whichever mode ran it.
//! The determinism suite pins both modes bitwise against a raw
//! [`UnionGenerator`].

use std::sync::atomic::Ordering;

use rand::rngs::StdRng;
use rand::Rng;

use cdb_constraint::{Formula, GeneralizedRelation};
use cdb_reconstruct::ReconstructionError;
use cdb_sampler::{
    batch, BudgetTrip, FaultPlan, QueryBudget, RelationGenerator, RelationVolumeEstimator,
    SeedSequence, UnionGenerator,
};

use crate::{QueryPhase, SpatialDatabase, SpatialDbError};

/// What a query computes.
#[derive(Clone, Debug)]
pub enum QueryKind {
    /// Draw `n` almost-uniform points from the relation.
    Sample {
        /// Number of points requested.
        n: usize,
    },
    /// Run `repeats` independent `(ε, δ)`-volume estimates; the outcome's
    /// [`QueryOutcome::volume`] is the median of the successful repeats
    /// (`repeats` is clamped to at least 1).
    Volume {
        /// Number of independent estimates.
        repeats: usize,
    },
    /// Estimate the result set of a positive existential query as a
    /// generalized relation (Theorem 4.4).
    Reconstruct {
        /// The positive existential formula to estimate.
        query: Formula,
        /// Arity of the result relation (free variables `x_0 …`).
        output_arity: usize,
    },
}

/// What to do when an item of a multi-item query fails.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FailureMode {
    /// Return the first failure as an `Err`, discarding partial results.
    #[default]
    Fail,
    /// Return every completed item; the first failure rides alongside them
    /// in [`QueryOutcome::error`] and failed slots stay `None`.
    Partial,
}

/// Execution options of a query: budget, parallelism, randomness, and the
/// partial-vs-fail switch. Built fluently via the [`QuerySpec`] builder
/// methods.
#[derive(Clone, Debug, Default)]
pub struct QueryOptions {
    /// Per-item work limits (see [`QueryBudget`]); unlimited by default.
    /// A [`QueryKind::Reconstruct`] query is one item: the draws of all its
    /// pieces add up against one budget.
    pub budget: QueryBudget,
    /// Worker threads for seeded batch execution (`0` = one per core).
    /// Thread count never changes results, only wall-clock time.
    pub threads: usize,
    /// Root seed sequence for [`SpatialDatabase::query`]: item `i` draws
    /// from its [`SeedSequence::item_stream`]`(i)`. `None` restricts the
    /// spec to [`SpatialDatabase::query_with_rng`].
    pub seed: Option<SeedSequence>,
    /// Partial-vs-fail-fast behavior for multi-item queries.
    pub failure: FailureMode,
}

/// A complete query description: target relation, kind, and options.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Name of the target relation (informational for
    /// [`QueryKind::Reconstruct`], whose formula names its own relations).
    pub relation: String,
    /// What to compute.
    pub kind: QueryKind,
    /// How to execute it.
    pub options: QueryOptions,
}

impl QuerySpec {
    /// A spec that draws `n` points from `relation` (fail-fast, unlimited
    /// budget, auto threads).
    pub fn sample(relation: impl Into<String>, n: usize) -> Self {
        QuerySpec {
            relation: relation.into(),
            kind: QueryKind::Sample { n },
            options: QueryOptions::default(),
        }
    }

    /// A spec that estimates the volume of `relation` as the median of
    /// `repeats` independent estimates.
    pub fn volume(relation: impl Into<String>, repeats: usize) -> Self {
        QuerySpec {
            relation: relation.into(),
            kind: QueryKind::Volume { repeats },
            options: QueryOptions::default(),
        }
    }

    /// A spec that reconstructs the result set of `query` (output arity
    /// `output_arity`). `relation` is informational — it names the spec in
    /// errors and lets service layers key budget overrides.
    pub fn reconstruct(relation: impl Into<String>, query: Formula, output_arity: usize) -> Self {
        QuerySpec {
            relation: relation.into(),
            kind: QueryKind::Reconstruct {
                query,
                output_arity,
            },
            options: QueryOptions::default(),
        }
    }

    /// Sets the per-item [`QueryBudget`].
    pub fn with_budget(mut self, budget: &QueryBudget) -> Self {
        self.options.budget = budget.clone();
        self
    }

    /// Sets the worker-thread count for seeded batch execution (`0` = one
    /// per core; results never depend on it).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
        self
    }

    /// Funds the query from `SeedSequence::new(seed)` (see
    /// [`QueryOptions::seed`]).
    pub fn with_seed(self, seed: u64) -> Self {
        self.with_seed_sequence(SeedSequence::new(seed))
    }

    /// Funds the query from an explicit [`SeedSequence`] root: item `i`
    /// draws from its [`SeedSequence::item_stream`]`(i)`, the same streams
    /// [`RelationGenerator::sample_batch`] consumes.
    pub fn with_seed_sequence(mut self, seq: SeedSequence) -> Self {
        self.options.seed = Some(seq);
        self
    }

    /// Switches to [`FailureMode::Partial`]: completed items are returned
    /// and the first failure is reported alongside them instead of as `Err`.
    pub fn partial(mut self) -> Self {
        self.options.failure = FailureMode::Partial;
        self
    }

    /// Switches (back) to [`FailureMode::Fail`].
    pub fn fail_fast(mut self) -> Self {
        self.options.failure = FailureMode::Fail;
        self
    }
}

/// The kind-specific payload of a [`QueryOutcome`].
#[derive(Clone, Debug)]
pub enum QueryValue {
    /// Sampled points, index-aligned with the item seed streams; `None`
    /// marks a failed draw (see [`QueryOutcome::error`]).
    Points(Vec<Option<Vec<f64>>>),
    /// Independent volume estimates, index-aligned with the item seed
    /// streams; `None` marks a failed repeat.
    Volumes(Vec<Option<f64>>),
    /// The reconstructed relation.
    Relation(GeneralizedRelation),
}

/// What a query produced: the kind-specific value, how many items
/// completed, and (under [`FailureMode::Partial`]) the first failure.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The kind-specific payload.
    pub value: QueryValue,
    /// Number of completed items (`Some` slots; `1` for a reconstruction).
    pub completed: usize,
    /// First failure of a partial-mode query (`None` means every item
    /// completed, and always `None` under [`FailureMode::Fail`], where the
    /// first failure is returned as `Err` instead).
    pub error: Option<SpatialDbError>,
}

/// Median of the values by `partial_cmp` (all estimates are finite);
/// `None` for an empty iterator.
fn median(values: impl Iterator<Item = f64>) -> Option<f64> {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("volume estimates are finite"));
    Some(v[v.len() / 2])
}

impl QueryOutcome {
    /// The sampled points (empty for non-sample outcomes).
    pub fn points(&self) -> &[Option<Vec<f64>>] {
        match &self.value {
            QueryValue::Points(p) => p,
            _ => &[],
        }
    }

    /// The first successfully sampled point, if any.
    pub fn point(&self) -> Option<&[f64]> {
        self.points().iter().flatten().next().map(|p| p.as_slice())
    }

    /// The individual volume estimates (empty for non-volume outcomes).
    pub fn volumes(&self) -> &[Option<f64>] {
        match &self.value {
            QueryValue::Volumes(v) => v,
            _ => &[],
        }
    }

    /// Median of the successful volume estimates — the classical
    /// `O(ln 1/δ)` amplification — or `None` when every repeat failed (or
    /// the outcome is not a volume query).
    pub fn volume(&self) -> Option<f64> {
        median(self.volumes().iter().flatten().copied())
    }

    /// The reconstructed relation, if this outcome holds one.
    pub fn relation(&self) -> Option<&GeneralizedRelation> {
        match &self.value {
            QueryValue::Relation(r) => Some(r),
            _ => None,
        }
    }
}

/// What one item of a sample or volume query left behind: its value (or
/// `None` on failure), the budget trip that stopped it, and the attempts it
/// charged.
type Slot<T> = (Option<T>, Option<BudgetTrip>, u64);

/// Folds per-item slots into the index-aligned result vector, the completed
/// count, and the first failure (a contained worker panic outranks per-item
/// failures).
fn collect_slots<T>(
    relation: &str,
    phase: QueryPhase,
    report: batch::FanOutReport<Slot<T>>,
) -> (Vec<Option<T>>, usize, Option<SpatialDbError>) {
    let mut error = report
        .panics
        .first()
        .map(|p| SpatialDbError::WorkerPanicked {
            worker: p.worker,
            payload: p.payload.clone(),
        });
    let mut results = Vec::with_capacity(report.slots.len());
    let mut completed = 0usize;
    for slot in report.slots {
        match slot {
            Some((Some(value), _, _)) => {
                completed += 1;
                results.push(Some(value));
            }
            Some((None, trip, attempts)) => {
                if error.is_none() {
                    error = Some(match trip {
                        Some(cause) => SpatialDbError::BudgetExhausted {
                            relation: relation.to_string(),
                            cause,
                            completed,
                        },
                        None => SpatialDbError::GenerationFailed {
                            relation: relation.to_string(),
                            attempts,
                            phase,
                        },
                    });
                }
                results.push(None);
            }
            // The slot was lost to a contained worker panic.
            None => results.push(None),
        }
    }
    (results, completed, error)
}

/// Where a query's randomness comes from.
enum Funding<'a, R: ?Sized> {
    /// Item `i` draws from [`SeedSequence::item_stream`]`(i)`.
    Seeded(SeedSequence),
    /// Items continue the caller's stream in order.
    Caller(&'a mut R),
}

/// A per-item draw of the union generator: a point for sample queries, an
/// estimate for volume queries.
trait Item: Sized + Send {
    /// The phase a failed draw is reported under.
    const PHASE: QueryPhase;
    /// Draws one item, or fails.
    fn draw<R: Rng + ?Sized>(generator: &mut UnionGenerator, rng: &mut R) -> Option<Self>;
    /// Wraps the index-aligned results as the outcome's value.
    fn into_value(results: Vec<Option<Self>>) -> QueryValue;
}

impl Item for Vec<f64> {
    const PHASE: QueryPhase = QueryPhase::Sampling;
    fn draw<R: Rng + ?Sized>(generator: &mut UnionGenerator, rng: &mut R) -> Option<Self> {
        generator.sample(rng)
    }
    fn into_value(results: Vec<Option<Self>>) -> QueryValue {
        QueryValue::Points(results)
    }
}

impl Item for f64 {
    const PHASE: QueryPhase = QueryPhase::VolumeEstimation;
    fn draw<R: Rng + ?Sized>(generator: &mut UnionGenerator, rng: &mut R) -> Option<Self> {
        generator.estimate_volume(rng)
    }
    fn into_value(results: Vec<Option<Self>>) -> QueryValue {
        QueryValue::Volumes(results)
    }
}

/// Runs one item: a forced draw failure from the fault plan, or one draw
/// with the generator's trip and attempt count recorded beside it.
fn draw_slot<T: Item, R: Rng + ?Sized>(
    faults: &FaultPlan,
    generator: &mut UnionGenerator,
    rng: &mut R,
) -> Slot<T> {
    if faults.take_forced_draw_failure() {
        return (None, None, 0);
    }
    let value = T::draw(generator, rng);
    (
        value,
        generator.budget_trip(),
        generator.budget_meter().attempts_used(),
    )
}

impl SpatialDatabase {
    /// Runs a **seeded** query: the outcome is a pure function of the spec
    /// (relation content, parameters, seed, budget), bitwise identical for
    /// any thread count. Batch item `i` draws from
    /// [`SeedSequence::item_stream`]`(i)` of the spec's seed; a
    /// reconstruction draws from item stream `0`.
    ///
    /// Requires [`QueryOptions::seed`] (set via [`QuerySpec::with_seed`]);
    /// use [`SpatialDatabase::query_with_rng`] to fund a query from a
    /// caller-supplied RNG instead. Under [`FailureMode::Fail`] the first
    /// item failure is returned as `Err`; under [`FailureMode::Partial`]
    /// completed items are returned with the first failure alongside.
    pub fn query(&self, spec: &QuerySpec) -> Result<QueryOutcome, SpatialDbError> {
        let seq = spec.options.seed.ok_or_else(|| {
            SpatialDbError::InvalidParams(
                "seeded query needs QuerySpec::with_seed; \
                 use query_with_rng for caller-supplied randomness"
                    .to_string(),
            )
        })?;
        self.run(spec, Funding::<StdRng>::Seeded(seq))
    }

    /// Runs a query **sequentially** from a caller-supplied RNG stream: item
    /// `i + 1` continues the stream where item `i` left off, and under
    /// [`FailureMode::Fail`] the first failed item ends the query.
    /// [`QueryOptions::seed`] and [`QueryOptions::threads`] are ignored.
    pub fn query_with_rng<R: Rng + ?Sized>(
        &self,
        spec: &QuerySpec,
        rng: &mut R,
    ) -> Result<QueryOutcome, SpatialDbError> {
        self.run(spec, Funding::Caller(rng))
    }

    fn run<R: Rng + ?Sized>(
        &self,
        spec: &QuerySpec,
        funding: Funding<'_, R>,
    ) -> Result<QueryOutcome, SpatialDbError> {
        match &spec.kind {
            QueryKind::Sample { n } => self.run_items::<Vec<f64>, R>(spec, *n, funding),
            QueryKind::Volume { repeats } => {
                self.run_items::<f64, R>(spec, (*repeats).max(1), funding)
            }
            QueryKind::Reconstruct {
                query,
                output_arity,
            } => match funding {
                Funding::Seeded(seq) => {
                    self.run_reconstruct(spec, query, *output_arity, &mut seq.item_stream(0).rng())
                }
                Funding::Caller(rng) => self.run_reconstruct(spec, query, *output_arity, rng),
            },
        }
    }

    /// The item runner behind every sample and volume query: attaches the
    /// prepared generator under the spec's budget, yields one slot per
    /// item, and folds the slots into the outcome.
    fn run_items<T: Item, R: Rng + ?Sized>(
        &self,
        spec: &QuerySpec,
        n: usize,
        funding: Funding<'_, R>,
    ) -> Result<QueryOutcome, SpatialDbError> {
        let mut generator = self.prepared_generator(&spec.relation)?;
        generator.set_budget(spec.options.budget.clone());
        let faults = self.fault_plan();
        let report = match funding {
            Funding::Seeded(seq) => batch::fan_out_contained(
                n,
                spec.options.threads,
                || generator.clone(),
                |g, i| {
                    faults.inject_worker_panic(i);
                    draw_slot::<T, _>(faults, g, &mut seq.item_stream(i).rng())
                },
            ),
            Funding::Caller(rng) => {
                let mut slots = Vec::with_capacity(n);
                for _ in 0..n {
                    let slot = draw_slot::<T, R>(faults, &mut generator, rng);
                    let failed = slot.0.is_none();
                    slots.push(Some(slot));
                    if failed && spec.options.failure == FailureMode::Fail {
                        break;
                    }
                }
                batch::FanOutReport {
                    slots,
                    panics: Vec::new(),
                }
            }
        };
        self.note_contained_panics(report.panics.len());
        let (results, completed, error) = collect_slots(&spec.relation, T::PHASE, report);
        finish(spec, T::into_value(results), completed, error)
    }

    /// The reconstruction arm shared by both execution modes. The whole
    /// reconstruction runs under [`QueryOptions::budget`]; a trip is
    /// reported as [`SpatialDbError::BudgetExhausted`] under the spec's
    /// relation name.
    fn run_reconstruct<R: Rng + ?Sized>(
        &self,
        spec: &QuerySpec,
        query: &Formula,
        output_arity: usize,
        rng: &mut R,
    ) -> Result<QueryOutcome, SpatialDbError> {
        let estimator = cdb_reconstruct::PositiveQueryEstimator::new(
            self.params,
            self.params.eps,
            self.params.delta,
        )
        .with_budget(spec.options.budget.clone());
        let relation = estimator
            .estimate(&self.database, query, output_arity, rng)
            .map_err(|e| match e {
                ReconstructionError::BudgetExhausted(cause) => SpatialDbError::BudgetExhausted {
                    relation: spec.relation.clone(),
                    cause,
                    completed: 0,
                },
                other => SpatialDbError::Reconstruction(other),
            })?;
        Ok(QueryOutcome {
            value: QueryValue::Relation(relation),
            completed: 1,
            error: None,
        })
    }

    /// Merges contained worker panics into the database's
    /// `panics_recovered` counter (surfaced by
    /// [`SpatialDatabase::store_stats`]).
    fn note_contained_panics(&self, count: usize) {
        if count > 0 {
            self.contained_panics
                .fetch_add(count as u64, Ordering::Relaxed);
        }
    }
}

/// Applies the spec's [`FailureMode`] to a collected multi-item outcome.
fn finish(
    spec: &QuerySpec,
    value: QueryValue,
    completed: usize,
    error: Option<SpatialDbError>,
) -> Result<QueryOutcome, SpatialDbError> {
    match spec.options.failure {
        FailureMode::Fail => match error {
            Some(e) => Err(e),
            None => Ok(QueryOutcome {
                value,
                completed,
                error: None,
            }),
        },
        FailureMode::Partial => Ok(QueryOutcome {
            value,
            completed,
            error,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_sampler::GeneratorParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn demo_db() -> SpatialDatabase {
        let mut db = SpatialDatabase::with_params(GeneratorParams::fast());
        db.insert(
            "R",
            GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 1.0]),
        );
        db
    }

    #[test]
    fn seeded_query_is_reproducible() {
        let db = demo_db();
        let spec = QuerySpec::sample("R", 16).with_seed(11).with_threads(2);
        let a = db.query(&spec).unwrap();
        let b = db.query(&spec).unwrap();
        assert_eq!(a.points(), b.points());
        assert_eq!(a.completed, 16);
        assert!(a.point().is_some());
    }

    #[test]
    fn query_without_seed_is_invalid() {
        let db = demo_db();
        let spec = QuerySpec::sample("R", 1);
        assert!(matches!(
            db.query(&spec),
            Err(SpatialDbError::InvalidParams(_))
        ));
    }

    #[test]
    fn volume_query_reports_median() {
        let db = demo_db();
        let spec = QuerySpec::volume("R", 5).with_seed(3);
        let outcome = db.query(&spec).unwrap();
        assert_eq!(outcome.volumes().len(), 5);
        let v = outcome.volume().unwrap();
        assert!((v - 2.0).abs() < 0.7, "volume {v}");
        assert!(outcome.relation().is_none());
    }

    #[test]
    fn rng_mode_continues_the_callers_stream() {
        // Four items in one query equal four one-item queries on the same
        // stream: each item picks up where the previous one left off.
        let db = demo_db();
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = db
            .query_with_rng(&QuerySpec::sample("R", 4), &mut rng)
            .unwrap();
        let mut reference = StdRng::seed_from_u64(5);
        let expected: Vec<Option<Vec<f64>>> = (0..4)
            .map(|_| {
                let one = db.query_with_rng(&QuerySpec::sample("R", 1), &mut reference);
                Some(one.unwrap().point().unwrap().to_vec())
            })
            .collect();
        assert_eq!(outcome.points(), expected.as_slice());
    }

    #[test]
    fn rng_mode_stops_at_the_first_failure_when_failing_fast() {
        let mut db = demo_db();
        db = db.with_fault_plan(FaultPlan::new().with_forced_draw_failures(2));
        let mut rng = StdRng::seed_from_u64(6);
        assert!(matches!(
            db.query_with_rng(&QuerySpec::sample("R", 3), &mut rng),
            Err(SpatialDbError::GenerationFailed { .. })
        ));
        // Fail-fast consumed one forced failure; partial mode sees the
        // other and then completes the remaining items.
        let outcome = db
            .query_with_rng(&QuerySpec::sample("R", 3).partial(), &mut rng)
            .unwrap();
        assert_eq!(outcome.completed, 2);
        assert!(outcome.points()[0].is_none());
        assert!(matches!(
            outcome.error,
            Some(SpatialDbError::GenerationFailed {
                phase: QueryPhase::Sampling,
                ..
            })
        ));
    }

    #[test]
    fn reconstruction_runs_under_the_query_budget() {
        let db = demo_db();
        // A 2-ary output of a 3-ary body: every piece is sampled through a
        // projection generator, one attempt or more per draw.
        let query = Formula::exists(
            vec![2],
            Formula::and(vec![
                Formula::rel("R", vec![0, 2]),
                Formula::rel("R", vec![1, 2]),
            ]),
        );
        let spec = QuerySpec::reconstruct("join", query, 2)
            .with_budget(&cdb_sampler::QueryBudget::unlimited().with_max_attempts(1))
            .with_seed(8);
        match db.query(&spec) {
            Err(SpatialDbError::BudgetExhausted {
                relation,
                cause: BudgetTrip::Attempts,
                completed: 0,
            }) => assert_eq!(relation, "join"),
            other => panic!("expected an attempt-budget trip, got {other:?}"),
        }
    }

    #[test]
    fn unknown_relation_is_reported() {
        let db = demo_db();
        let spec = QuerySpec::volume("Nope", 1).with_seed(1);
        assert!(matches!(
            db.query(&spec),
            Err(SpatialDbError::UnknownRelation(_))
        ));
    }

    #[test]
    fn median_takes_the_upper_middle() {
        assert_eq!(median([3.0, 1.0, 2.0].into_iter()), Some(2.0));
        assert_eq!(median([2.0, 1.0].into_iter()), Some(2.0));
        assert_eq!(median(std::iter::empty()), None);
    }
}
