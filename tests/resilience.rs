//! The resilience suite: every injected fault must map to a typed error —
//! never a hang, an abort, or poisoned cross-query state.
//!
//! Faults are injected through the deterministic [`FaultPlan`] harness
//! (worker panics, forced draw failures), through adversarial
//! zero-acceptance workloads from `cdb-workloads::pathological`, and through
//! artificially starved [`QueryBudget`]s. Each test asserts three things:
//! the fault surfaces as the *right* [`SpatialDbError`] variant, unaffected
//! work completes, and the shared database keeps answering correctly
//! afterwards.
//!
//! Set `CDB_RESILIENCE_QUICK=1` (the `ci.sh --quick` default) to run a
//! reduced plan: smaller batches, fewer thread counts.

use cdb_constraint::GeneralizedRelation;
use cdb_core::{QueryPhase, QuerySpec, SpatialDatabase, SpatialDbError};
use cdb_sampler::batch::fan_out_contained;
use cdb_sampler::{
    BudgetTrip, CancelToken, DifferenceGenerator, FaultPlan, GeneratorParams,
    IntersectionGenerator, PreparedStore, QueryBudget, RelationGenerator, SeedSequence,
};
use cdb_workloads::pathological;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quick() -> bool {
    std::env::var("CDB_RESILIENCE_QUICK").is_ok_and(|v| v != "0")
}

fn batch_n() -> usize {
    if quick() {
        16
    } else {
        48
    }
}

fn thread_counts() -> &'static [usize] {
    if quick() {
        &[1, 4]
    } else {
        &[1, 2, 8, 0]
    }
}

fn params() -> GeneratorParams {
    GeneratorParams::fast()
}

/// A seeded partial sample query over `n` items on `threads` workers.
fn seeded_sample(name: &str, n: usize, seq: SeedSequence, threads: usize) -> QuerySpec {
    QuerySpec::sample(name, n)
        .with_seed_sequence(seq)
        .with_threads(threads)
        .partial()
}

fn sample_db() -> SpatialDatabase {
    let mut db = SpatialDatabase::with_params(params());
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

/// An injected worker panic is contained: it surfaces as
/// [`SpatialDbError::WorkerPanicked`], the surviving workers' items all
/// complete, the containment is counted, and the same database keeps
/// serving afterwards.
#[test]
fn injected_worker_panic_is_contained_and_typed() {
    let db = sample_db().with_fault_plan(FaultPlan::new().with_worker_panic_at(5));
    let seq = SeedSequence::new(0xFA117);
    let n = 16;
    let batch = db
        .query(&seeded_sample("R", n, seq, 4))
        .expect("the relation itself is fine");
    match &batch.error {
        Some(SpatialDbError::WorkerPanicked { payload, .. }) => {
            assert!(
                payload.starts_with("injected"),
                "unexpected payload: {payload}"
            );
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    // Worker 1 owns items 4..8 (chunked fan-out) and dies at item 5:
    // item 4 completed first, items 5..8 are lost, everyone else runs
    // to completion.
    assert_eq!(batch.completed, n - 3, "survivors did not complete");
    let points = batch.points();
    assert!(points[4].is_some());
    assert!(points[5].is_none() && points[7].is_none());
    assert!(db.store_stats().panics_recovered >= 1);

    // Disarming the plan leaves the shared database unpoisoned.
    let db = db.with_fault_plan(FaultPlan::new());
    let mut rng = StdRng::seed_from_u64(3);
    let sample = db
        .query_with_rng(&QuerySpec::sample("R", 1), &mut rng)
        .unwrap();
    assert!(db
        .relation("R")
        .unwrap()
        .contains_f64(sample.point().unwrap()));
    let clean = db.query(&seeded_sample("R", n, seq, 4)).unwrap();
    assert!(clean.error.is_none());
    assert_eq!(clean.completed, n);
}

/// Under auto threads a short batch runs inline on the calling thread, which
/// keeps the same panic boundary as a worker: a panic at the first item
/// (before anything is timed) or at a later one is contained, typed as
/// [`SpatialDbError::WorkerPanicked`] and counted.
#[test]
fn auto_thread_worker_panics_are_contained() {
    let seq = SeedSequence::new(0xA070);
    let n = 16;
    for item in [0usize, 5] {
        let db = sample_db().with_fault_plan(FaultPlan::new().with_worker_panic_at(item));
        let batch = db
            .query(&seeded_sample("R", n, seq, 0))
            .expect("the relation itself is fine");
        match &batch.error {
            Some(SpatialDbError::WorkerPanicked { payload, .. }) => assert!(
                payload.contains(&format!("item {item}")),
                "unexpected payload: {payload}"
            ),
            other => panic!("item {item}: expected WorkerPanicked, got {other:?}"),
        }
        assert!(batch.points()[item].is_none());
        assert!(batch.points()[..item].iter().all(Option::is_some));
        assert!(batch.completed < n);
        if item == 0 {
            // The panic ends the caller's inline run before any spread.
            assert_eq!(batch.completed, 0);
        }
        assert_eq!(db.store_stats().panics_recovered, 1);
    }
}

/// A forced draw failure (the oracle/LP-failure stand-in) maps to
/// [`SpatialDbError::GenerationFailed`] with the relation name and phase —
/// never to a panic or a budget error.
#[test]
fn forced_draw_failure_is_a_typed_generation_failure() {
    // The countdown is checked before each draw, never during preparation,
    // so the first draw on a cold store is the one that fails.
    let db = sample_db().with_fault_plan(FaultPlan::new().with_forced_draw_failures(1));
    let mut rng = StdRng::seed_from_u64(5);
    let spec = QuerySpec::sample("R", 1);
    match db.query_with_rng(&spec, &mut rng) {
        Err(SpatialDbError::GenerationFailed {
            relation, phase, ..
        }) => {
            assert_eq!(relation, "R");
            assert_eq!(phase, QueryPhase::Sampling);
        }
        other => panic!("expected GenerationFailed, got {other:?}"),
    }
    // The single injected failure is consumed; the next draw succeeds.
    db.query_with_rng(&spec, &mut rng).unwrap();
}

/// A zero-acceptance composition under an attempt budget gives up promptly
/// with a typed trip instead of grinding through the full retry cap.
#[test]
fn zero_acceptance_intersection_trips_the_attempt_budget() {
    let [a, b] = pathological::sliver_intersection(1e-6);
    let mut gen = IntersectionGenerator::new(&[a, b], params()).unwrap();
    gen.set_budget(QueryBudget::unlimited().with_max_attempts(200));
    let mut rng = StdRng::seed_from_u64(7);
    assert!(gen.sample(&mut rng).is_none());
    assert_eq!(gen.budget_trip(), Some(BudgetTrip::Attempts));
}

/// The vanishing difference trips the attempt budget long before the
/// `retry_rounds × COMPOSE_ATTEMPT_FACTOR` loop cap would give up.
#[test]
fn vanishing_difference_trips_the_attempt_budget() {
    let (s1, s2) = pathological::vanishing_difference(1e-7);
    let mut gen = DifferenceGenerator::new(&s1, &s2, params()).unwrap();
    gen.set_budget(QueryBudget::unlimited().with_max_attempts(64));
    let mut rng = StdRng::seed_from_u64(9);
    assert!(gen.sample(&mut rng).is_none());
    assert_eq!(gen.budget_trip(), Some(BudgetTrip::Attempts));
}

/// The public budgeted entry point reports attempt exhaustion with the
/// relation's name and the trip cause.
#[test]
fn budgeted_generate_reports_attempt_exhaustion() {
    let db = sample_db();
    let budget = QueryBudget::unlimited().with_max_attempts(0);
    let mut rng = StdRng::seed_from_u64(13);
    match db.query_with_rng(&QuerySpec::sample("R", 1).with_budget(&budget), &mut rng) {
        Err(SpatialDbError::BudgetExhausted {
            relation, cause, ..
        }) => {
            assert_eq!(relation, "R");
            assert_eq!(cause, BudgetTrip::Attempts);
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
}

/// A cancelled token is observed at the next cooperative boundary and
/// reported as a cancellation, not as a generic failure.
#[test]
fn cancelled_token_is_reported_as_cancellation() {
    let db = sample_db();
    let token = CancelToken::new();
    token.cancel();
    let budget = QueryBudget::unlimited().with_cancel(token);
    let mut rng = StdRng::seed_from_u64(11);
    match db.query_with_rng(&QuerySpec::sample("R", 1).with_budget(&budget), &mut rng) {
        Err(SpatialDbError::BudgetExhausted { cause, .. }) => {
            assert_eq!(cause, BudgetTrip::Cancelled);
        }
        other => panic!("expected cancellation, got {other:?}"),
    }
    // Volume estimation observes the same token.
    let token = CancelToken::new();
    token.cancel();
    let budget = QueryBudget::unlimited().with_cancel(token);
    match db.query_with_rng(&QuerySpec::volume("R", 1).with_budget(&budget), &mut rng) {
        Err(SpatialDbError::BudgetExhausted { cause, .. }) => {
            assert_eq!(cause, BudgetTrip::Cancelled);
        }
        other => panic!("expected cancellation, got {other:?}"),
    }
}

/// A step budget too small for a single walk chunk exhausts identically —
/// same outcome vector, same typed error — for every thread count.
#[test]
fn starved_step_budget_exhausts_identically_across_thread_counts() {
    let db = sample_db();
    let seq = SeedSequence::new(0x57A2);
    let budget = QueryBudget::unlimited().with_max_steps(3);
    let n = batch_n();
    let starved = |threads| seeded_sample("R", n, seq, threads).with_budget(&budget);
    let baseline = db.query(&starved(1)).unwrap();
    assert_eq!(baseline.completed, 0);
    assert!(baseline.points().iter().all(|r| r.is_none()));
    match &baseline.error {
        Some(SpatialDbError::BudgetExhausted {
            cause, completed, ..
        }) => {
            assert_eq!(*cause, BudgetTrip::Steps);
            assert_eq!(*completed, 0);
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    for &threads in thread_counts() {
        let run = db.query(&starved(threads)).unwrap();
        assert_eq!(
            baseline.points(),
            run.points(),
            "starved batch differs at {threads} threads"
        );
        assert_eq!(run.completed, 0);
    }
}

/// A poisoned prepared-store shard is discarded and rebuilt: the next
/// lookup succeeds and the rebuild is counted.
#[test]
fn poisoned_store_shard_is_rebuilt_not_propagated() {
    let store: PreparedStore<u64, u64> = PreparedStore::new(8);
    store.get_or_prepare(&1, || 111);
    store.get_or_prepare(&2, || 222);
    store.poison_shard(&1);
    // Recovery is on-demand and local to the poisoned shard.
    assert_eq!(*store.get_or_prepare(&1, || 111), 111);
    assert_eq!(*store.get_or_prepare(&2, || 222), 222);
    let stats = store.stats();
    assert!(stats.shards_rebuilt >= 1, "rebuild not recorded: {stats:?}");
}

/// The fault harness itself is bitwise invisible: a database with an empty
/// plan answers a batch exactly as one that never had a plan.
#[test]
fn empty_fault_plan_is_bitwise_invisible() {
    let seq = SeedSequence::new(0x1D1E);
    let spec = seeded_sample("U", batch_n(), seq, 4);
    let baseline = sample_db().query(&spec).unwrap();
    let observed = sample_db()
        .with_fault_plan(FaultPlan::new())
        .query(&spec)
        .unwrap();
    assert_eq!(
        baseline.points(),
        observed.points(),
        "an empty fault plan perturbed a batch"
    );
}

/// A plan is scoped to the database that carries it: an armed database
/// failing every draw on one thread never perturbs a clean database
/// serving the same batch on another, round for round.
#[test]
fn armed_plan_never_leaks_into_another_database() {
    let seq = SeedSequence::new(0x5C0BE);
    let spec = seeded_sample("U", batch_n(), seq, 2);
    let clean = sample_db();
    let baseline = clean.query(&spec).unwrap();
    let armed = sample_db().with_fault_plan(
        FaultPlan::new()
            .with_worker_panic_at(0)
            .with_forced_draw_failures(u64::MAX),
    );
    let rounds = 4;
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..rounds {
                start.wait();
                assert_eq!(armed.query(&spec).unwrap().completed, 0);
            }
        });
        for _ in 0..rounds {
            start.wait();
            let run = clean.query(&spec).unwrap();
            assert!(run.error.is_none());
            assert_eq!(run.points(), baseline.points());
        }
    });
}

/// Partial volume batches carry every completed estimate alongside the
/// first failure under budget pressure.
#[test]
fn partial_volume_batch_returns_completed_estimates() {
    let db = sample_db();
    let seq = SeedSequence::new(0x70CC5);
    // Unlimited: everything completes.
    let volumes = |budget: QueryBudget| {
        let spec = QuerySpec::volume("R", 4)
            .with_seed_sequence(seq)
            .with_threads(2)
            .with_budget(&budget)
            .partial();
        db.query(&spec).unwrap()
    };
    let full = volumes(QueryBudget::unlimited());
    assert!(full.error.is_none());
    assert_eq!(full.completed, 4);
    for v in full.volumes().iter().flatten() {
        assert!((v - 2.0).abs() < 1.0, "volume {v} far off");
    }
    // Starved: nothing completes, and the error is a typed trip.
    let starved = volumes(QueryBudget::unlimited().with_max_steps(1));
    assert_eq!(starved.completed, 0);
    assert!(matches!(
        starved.error,
        Some(SpatialDbError::BudgetExhausted {
            cause: BudgetTrip::Steps,
            ..
        })
    ));
}

// ---------------------------------------------------------------------------
// Mixed query loads over the batch fan-out, under faults
// ---------------------------------------------------------------------------

fn load_db() -> SpatialDatabase {
    let mut db = SpatialDatabase::with_params(params());
    db.insert(
        "Fast",
        GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]),
    );
    db.insert(
        "Starved",
        GeneralizedRelation::from_box_f64(&[2.0, 0.0], &[3.0, 1.0]),
    );
    db
}

/// The target of load item `i`: `Fast` and `Starved` alternate.
fn load_target(i: usize) -> &'static str {
    ["Fast", "Starved"][i % 2]
}

/// Runs load item `i` on `db` from `seed`'s item stream `i`, under the
/// budget `budget` gives its target: every third item a one-repeat volume
/// estimate, the others a one-point sample. The result is reduced to the
/// bits of its payload.
fn load_item(
    db: &SpatialDatabase,
    seed: u64,
    i: usize,
    budget: impl Fn(&str) -> QueryBudget,
) -> Result<Vec<u64>, SpatialDbError> {
    let name = load_target(i);
    let budget = budget(name);
    let mut rng = SeedSequence::new(seed).item_stream(i).rng();
    if i.is_multiple_of(3) {
        let spec = QuerySpec::volume(name, 1).with_budget(&budget);
        let outcome = db.query_with_rng(&spec, &mut rng)?;
        let volume = outcome.volume().expect("an Ok volume holds an estimate");
        Ok(vec![volume.to_bits()])
    } else {
        let spec = QuerySpec::sample(name, 1).with_budget(&budget);
        let outcome = db.query_with_rng(&spec, &mut rng)?;
        let point = outcome.point().expect("an Ok sample holds a point");
        Ok(point.iter().map(|x| x.to_bits()).collect())
    }
}

/// A worker panic injected mid-load is contained by the fan-out: the dead
/// worker's remaining items are lost (never silently dropped, never
/// double-counted), every other item resolves, and the same database
/// replays the load clean once the plan is disarmed.
#[test]
fn load_run_contains_an_injected_worker_panic() {
    let db = load_db().with_fault_plan(FaultPlan::new().with_worker_panic_at(10));
    let n = 32;
    let unlimited = |_: &str| QueryBudget::unlimited();
    // 4 threads over 32 items → worker 1 owns items 8..16. The panic fires
    // at item 10, so 8 and 9 complete and 10..16 are lost.
    let run = |db: &SpatialDatabase| {
        fan_out_contained(
            n,
            4,
            || (),
            |_, i| {
                db.fault_plan().inject_worker_panic(i);
                load_item(db, 0xFA17, i, unlimited)
            },
        )
    };
    let faulted = run(&db);
    assert_eq!(faulted.panics.len(), 1, "exactly one contained panic");
    assert_eq!(faulted.panics[0].worker, 1);
    assert!(faulted.panics[0].payload.starts_with("injected"));
    assert_eq!(faulted.completed(), n - 6);
    for (i, slot) in faulted.slots.iter().enumerate() {
        assert_eq!(
            slot.is_none(),
            (10..16).contains(&i),
            "item {i}: wrong lost/survivor state"
        );
        if let Some(result) = slot {
            assert!(result.is_ok(), "item {i} resolved to {result:?}");
        }
    }

    // Disarmed, the same load replays clean on the shared db, and every
    // survivor of the faulted run answered the same bits.
    let db = db.with_fault_plan(FaultPlan::new());
    let clean = run(&db);
    assert!(clean.panics.is_empty());
    assert_eq!(clean.completed(), n);
    for (i, (faulted, clean)) in faulted.slots.iter().zip(&clean.slots).enumerate() {
        if let (Some(Ok(faulted)), Some(Ok(clean))) = (faulted, clean) {
            assert_eq!(faulted, clean, "item {i} drifted across the panic");
        }
    }
}

/// A starved per-relation budget degrades that relation's items into typed
/// `BudgetExhausted { cause: Steps }` errors mid-load while the other
/// relation keeps serving; every item still resolves, and lifting the
/// budget restores full service on the shared database.
#[test]
fn load_run_survives_a_starved_per_relation_budget() {
    let db = load_db();
    let n = 40;
    let starved = |name: &str| {
        if name == "Starved" {
            QueryBudget::unlimited().with_max_steps(3)
        } else {
            QueryBudget::unlimited().with_max_steps(50_000_000)
        }
    };
    let rep = fan_out_contained(n, 2, || (), |_, i| load_item(&db, 0xB0D6, i, starved));
    assert!(rep.panics.is_empty());
    assert_eq!(rep.completed(), n, "budget trips lose no items");
    for (i, slot) in rep.slots.iter().enumerate() {
        match (slot.as_ref().unwrap(), load_target(i)) {
            (
                Err(SpatialDbError::BudgetExhausted {
                    cause: BudgetTrip::Steps,
                    ..
                }),
                "Starved",
            )
            | (Ok(_), "Fast") => {}
            (result, relation) => panic!("item {i} on {relation} resolved to {result:?}"),
        }
    }

    // Lifting the starved budget restores full service.
    let healed = fan_out_contained(
        n,
        2,
        || (),
        |_, i| load_item(&db, 0xB0D6, i, |_| QueryBudget::unlimited()),
    );
    assert!(healed.panics.is_empty());
    assert!(healed
        .slots
        .iter()
        .all(|s| s.as_ref().is_some_and(Result::is_ok)));
}
