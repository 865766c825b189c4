//! Reproducibility contract of the parallel batch layer: for a fixed
//! [`SeedSequence`] the batch entry points return **bitwise identical**
//! results for 1, 2 and 8 worker threads (and auto), and distinct child
//! streams never duplicate work across workers.

use cdb_constraint::{GeneralizedRelation, GeneralizedTuple};
use cdb_sampler::{
    ConvexBody, DfkSampler, DifferenceGenerator, FiberVolume, GeneratorParams,
    IntersectionGenerator, ProjectionGenerator, ProjectionParams, RelationGenerator,
    RelationVolumeEstimator, SeedSequence, UnionGenerator,
};

const THREAD_COUNTS: [usize; 4] = [1, 2, 8, 0];

fn params() -> GeneratorParams {
    GeneratorParams::fast()
}

/// Runs `make() -> generator` once per thread count and checks that
/// `sample_batch` and `estimate_volume_batch` are invariant.
fn assert_batches_invariant<G, F>(make: F, label: &str)
where
    G: RelationGenerator + RelationVolumeEstimator + Clone + Send + Sync,
    F: Fn() -> G,
{
    let seq = SeedSequence::new(0xC0FFEE);
    let baseline_pts = make().sample_batch(96, &seq, THREAD_COUNTS[0]);
    let baseline_vols = make().estimate_volume_batch(6, &seq, THREAD_COUNTS[0]);
    for &threads in &THREAD_COUNTS[1..] {
        let pts = make().sample_batch(96, &seq, threads);
        assert_eq!(
            baseline_pts, pts,
            "{label}: sample_batch differs at {threads} threads"
        );
        let vols = make().estimate_volume_batch(6, &seq, threads);
        assert_eq!(
            baseline_vols, vols,
            "{label}: estimate_volume_batch differs at {threads} threads"
        );
    }
    // The batch produced something — the invariance is not vacuous.
    assert!(
        baseline_pts.iter().filter(|p| p.is_some()).count() > 48,
        "{label}: too few successful draws"
    );
    assert!(
        baseline_vols.iter().filter(|v| v.is_some()).count() > 0,
        "{label}: no successful volume estimate"
    );
}

#[test]
fn union_generator_batches_are_thread_count_invariant() {
    let relation = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0])
        .union(&GeneralizedRelation::from_box_f64(&[2.0, 0.0], &[3.0, 2.0]));
    assert_batches_invariant(
        || UnionGenerator::new(&relation, params()).unwrap(),
        "union",
    );
}

#[test]
fn intersection_generator_batches_are_thread_count_invariant() {
    let a = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 2.0]);
    let b = GeneralizedRelation::from_box_f64(&[1.0, 1.0], &[3.0, 3.0]);
    assert_batches_invariant(
        || IntersectionGenerator::new(&[a.clone(), b.clone()], params()).unwrap(),
        "intersection",
    );
}

#[test]
fn difference_generator_batches_are_thread_count_invariant() {
    let s1 = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[3.0, 1.0]);
    let s2 = GeneralizedRelation::from_box_f64(&[1.0, 0.0], &[2.0, 1.0]);
    assert_batches_invariant(
        || DifferenceGenerator::new(&s1, &s2, params()).unwrap(),
        "difference",
    );
}

#[test]
fn projection_generator_batches_are_thread_count_invariant() {
    let tuple = GeneralizedTuple::from_box_f64(&[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]);
    // The generator's eager setup consumes its own rng; seed it identically
    // for every thread count.
    assert_batches_invariant(
        || {
            let mut rng = SeedSequence::new(11).setup_stream().rng();
            ProjectionGenerator::new(&tuple, &[0, 1], params(), &mut rng).unwrap()
        },
        "projection",
    );
}

#[test]
fn projection_weight_cache_is_thread_count_invariant_for_both_strategies() {
    // A non-trivial fiber (the Figure-1 triangle projected onto x) drives
    // the compensation loop through the memoized-weight path. Workers clone
    // the generator — and with it the current cache — so thread-count
    // invariance holds exactly because memoized weights are pure functions
    // of their grid cell (the `Estimated` strategy derives its RNG stream
    // from the cell key, never from the sampling stream).
    use cdb_constraint::Atom;
    let triangle = GeneralizedTuple::new(
        2,
        vec![
            Atom::le_from_ints(&[-1, 0], 0),
            Atom::le_from_ints(&[1, 0], -1),
            Atom::le_from_ints(&[0, -1], 0),
            Atom::le_from_ints(&[-1, 1], 0),
        ],
    );
    for (mode, label) in [
        (FiberVolume::Exact, "projection-exact-cache"),
        (FiberVolume::Estimated, "projection-estimated-cache"),
    ] {
        let proj = ProjectionParams::new(GeneratorParams {
            gamma: 0.05,
            ..params()
        })
        .with_fiber_volume(mode)
        .with_cache_capacity(64);
        assert_batches_invariant(
            || {
                let mut rng = SeedSequence::new(13).setup_stream().rng();
                ProjectionGenerator::new_with(&triangle, &[0], proj, &mut rng).unwrap()
            },
            label,
        );
    }
}

#[test]
fn stratified_projection_batches_are_thread_count_invariant() {
    // The stratified selector replaces the rejection loop with an alias
    // table built once at prepare time; its construction is RNG-free and
    // its weights are pure functions of the cell, so warm/cold selector
    // state and worker count must both be invisible. The cascade variant
    // exercises the lazily-memoized fine tables under batch fan-out.
    use cdb_constraint::Atom;
    use cdb_sampler::CellSelection;
    let triangle = GeneralizedTuple::new(
        2,
        vec![
            Atom::le_from_ints(&[-1, 0], 0),
            Atom::le_from_ints(&[1, 0], -1),
            Atom::le_from_ints(&[0, -1], 0),
            Atom::le_from_ints(&[-1, 1], 0),
        ],
    );
    for (selection, budget, label) in [
        (
            CellSelection::Stratified,
            1usize << 16,
            "projection-stratified",
        ),
        (CellSelection::CoarseToFine, 16, "projection-coarse-to-fine"),
    ] {
        let proj = ProjectionParams::new(GeneratorParams {
            gamma: 0.05,
            ..params()
        })
        .with_cell_selection(selection)
        .with_max_enumerated_cells(budget);
        assert_batches_invariant(
            || {
                let mut rng = SeedSequence::new(17).setup_stream().rng();
                let g = ProjectionGenerator::new_with(&triangle, &[0], proj, &mut rng).unwrap();
                assert_eq!(g.resolved_cell_selection(), selection);
                g
            },
            label,
        );
    }
}

#[test]
fn rejection_and_stratified_selection_pass_the_same_volume_gate() {
    // Both strategies estimate the same projection length (exactly 1 for
    // the Figure-1 triangle). The rejection path is a Monte-Carlo (ε, δ)
    // estimate; the stratified path is a deterministic Riemann sum. Each
    // must sit inside the fast-params ε-band, hence inside the combined
    // budget of each other.
    use cdb_constraint::Atom;
    use cdb_sampler::CellSelection;
    let triangle = GeneralizedTuple::new(
        2,
        vec![
            Atom::le_from_ints(&[-1, 0], 0),
            Atom::le_from_ints(&[1, 0], -1),
            Atom::le_from_ints(&[0, -1], 0),
            Atom::le_from_ints(&[-1, 1], 0),
        ],
    );
    let mut estimates = Vec::new();
    for selection in [CellSelection::Rejection, CellSelection::Stratified] {
        let proj = ProjectionParams::new(GeneratorParams {
            gamma: 0.05,
            ..params()
        })
        .with_cell_selection(selection);
        let mut rng = SeedSequence::new(19).setup_stream().rng();
        let mut g = ProjectionGenerator::new_with(&triangle, &[0], proj, &mut rng).unwrap();
        let mut sample_rng = SeedSequence::new(0x70CC).setup_stream().rng();
        let v = g
            .estimate_volume(&mut sample_rng)
            .expect("volume estimate failed");
        assert!(
            (v - 1.0).abs() < 0.45,
            "{selection:?}: volume {v} outside the fast-params band"
        );
        estimates.push(v);
    }
    assert!(
        (estimates[0] - estimates[1]).abs() < 0.5,
        "strategies disagree beyond the combined budget: {estimates:?}"
    );
}

#[test]
fn dfk_sampler_batches_are_thread_count_invariant() {
    let square = cdb_geometry::HPolytope::axis_box(&[0.0, 0.0], &[1.0, 1.0]);
    let body = ConvexBody::from_polytope(&square).unwrap();
    let mut rng = SeedSequence::new(21).setup_stream().rng();
    let mut sampler = DfkSampler::new(body, params(), &mut rng);
    let seq = SeedSequence::new(0xBEEF);
    let baseline_pts = sampler.sample_batch(128, &seq, 1);
    let baseline_vols = sampler.estimate_volume_batch(8, &seq, 1);
    for threads in [2usize, 8, 0] {
        assert_eq!(baseline_pts, sampler.sample_batch(128, &seq, threads));
        assert_eq!(
            baseline_vols,
            sampler.estimate_volume_batch(8, &seq, threads)
        );
    }
    assert_eq!(
        sampler.estimate_volume_median(8, &seq, 1),
        sampler.estimate_volume_median(8, &seq, 8)
    );
}

#[test]
fn distinct_child_streams_never_duplicate_points() {
    // If two workers (or two items) shared an RNG stream, the continuous
    // samples would collide bitwise. Across 512 points from 8 workers, every
    // pair must differ.
    let square = cdb_geometry::HPolytope::axis_box(&[0.0, 0.0], &[1.0, 1.0]);
    let body = ConvexBody::from_polytope(&square).unwrap();
    let mut rng = SeedSequence::new(31).setup_stream().rng();
    let mut sampler = DfkSampler::new(body, params(), &mut rng);
    let pts = sampler.sample_batch(512, &SeedSequence::new(0xDEAD), 8);
    let mut seen = std::collections::HashSet::new();
    for p in pts.iter().flatten() {
        let bits: Vec<u64> = p.iter().map(|x| x.to_bits()).collect();
        assert!(seen.insert(bits), "duplicated point across workers: {p:?}");
    }
}

// ---------------------------------------------------------------------------
// Prepared-store state axes: cold / warm / shared / evicting / disabled.
//
// The store's contract is that caching prepared bodies is *bitwise
// invisible*. The invisibility argument has two halves: (a) preparation
// randomness is a pure function of the cache key (`SeedSequence::new(key)`),
// never of the caller's stream, so every build of a body is identical; and
// (b) item streams are independent of setup state, so sampling from a
// cached body equals sampling from a fresh one. The helper below runs every
// store state against the disabled-store single-threaded baseline, crossed
// with the PR 6 thread-count axis.
// ---------------------------------------------------------------------------

const STORE_BATCH: usize = 48;
const STORE_VOLS: usize = 4;

/// Runs `make() -> generator` through every store state × thread count and
/// checks both batch entry points against the disabled-store baseline.
/// Preparation is always funded by `SeedSequence::new(key)` — the same
/// key-derived convention `SpatialDatabase::prepared_generator` uses.
fn assert_store_states_invariant<G, F>(make: F, key: u64, label: &str)
where
    G: RelationGenerator + RelationVolumeEstimator + Clone + Send + Sync,
    F: Fn() -> G + Sync,
{
    use cdb_sampler::PreparedStore;

    let prep = SeedSequence::new(key);
    let seq = SeedSequence::new(0x57A7E ^ key);
    let build = || {
        let mut g = make();
        g.prepare(&prep);
        g.prepare_estimator(&prep);
        g
    };
    // Baseline: disabled-store semantics (prepare from scratch), 1 thread.
    let baseline_pts = build().sample_batch(STORE_BATCH, &seq, 1);
    let baseline_vols = build().estimate_volume_batch(STORE_VOLS, &seq, 1);
    assert!(
        baseline_pts.iter().filter(|p| p.is_some()).count() * 2 > STORE_BATCH,
        "{label}: too few successful draws"
    );
    assert!(
        baseline_vols.iter().filter(|v| v.is_some()).count() > 0,
        "{label}: no successful volume estimate"
    );

    for &threads in &THREAD_COUNTS {
        // Disabled: capacity 0 always rebuilds.
        let disabled = PreparedStore::<u64, G>::new(0);
        let mut g = (*disabled.get_or_prepare(&key, &build)).clone();
        assert_eq!(
            baseline_pts,
            g.sample_batch(STORE_BATCH, &seq, threads),
            "{label}: disabled store differs at {threads} threads"
        );
        assert_eq!(
            baseline_vols,
            g.estimate_volume_batch(STORE_VOLS, &seq, threads),
            "{label}: disabled store volumes differ at {threads} threads"
        );

        // Cold: first touch of an enabled store is a miss …
        let store = PreparedStore::<u64, G>::new(8);
        let mut cold = (*store.get_or_prepare(&key, &build)).clone();
        assert_eq!(
            baseline_pts,
            cold.sample_batch(STORE_BATCH, &seq, threads),
            "{label}: cold store differs at {threads} threads"
        );
        // … warm: the second touch must hit and attach the same body.
        let warm_arc = store.get_or_prepare(&key, || unreachable!("{label}: warm lookup missed"));
        let mut warm = (*warm_arc).clone();
        assert_eq!(store.stats().hits, 1, "{label}: warm lookup did not hit");
        assert_eq!(
            baseline_pts,
            warm.sample_batch(STORE_BATCH, &seq, threads),
            "{label}: warm store differs at {threads} threads"
        );
        assert_eq!(
            baseline_vols,
            warm.estimate_volume_batch(STORE_VOLS, &seq, threads),
            "{label}: warm store volumes differ at {threads} threads"
        );

        // Evicting: capacity 1 — a decoy key forces the body out between
        // uses, so each round rebuilds. Held clones stay valid throughout.
        let tiny = PreparedStore::<u64, G>::new(1);
        for round in 0..2 {
            let mut g = (*tiny.get_or_prepare(&key, &build)).clone();
            tiny.get_or_prepare(&!key, &build); // evicts `key`'s body
            assert_eq!(
                baseline_pts,
                g.sample_batch(STORE_BATCH, &seq, threads),
                "{label}: evicting store differs at {threads} threads (round {round})"
            );
        }
        assert!(
            tiny.stats().evictions > 0,
            "{label}: capacity-1 store never evicted"
        );

        // Shared: racing attachers of one body must all reproduce the
        // baseline.
        let shared = PreparedStore::<u64, G>::new(8);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut g = (*shared.get_or_prepare(&key, &build)).clone();
                    assert_eq!(
                        baseline_pts,
                        g.sample_batch(STORE_BATCH, &seq, threads),
                        "{label}: shared store differs at {threads} threads"
                    );
                });
            }
        });
        assert!(
            shared.stats().hits + shared.stats().misses == 4,
            "{label}: shared store lookup accounting is off"
        );
    }
}

#[test]
fn union_store_states_are_invisible() {
    let relation = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0])
        .union(&GeneralizedRelation::from_box_f64(&[2.0, 0.0], &[3.0, 2.0]));
    assert_store_states_invariant(
        || UnionGenerator::new(&relation, params()).unwrap(),
        0xA111CE,
        "union-store",
    );
}

#[test]
fn intersection_store_states_are_invisible() {
    let a = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 2.0]);
    let b = GeneralizedRelation::from_box_f64(&[1.0, 1.0], &[3.0, 3.0]);
    assert_store_states_invariant(
        || IntersectionGenerator::new(&[a.clone(), b.clone()], params()).unwrap(),
        0x1A7E25EC7,
        "intersection-store",
    );
}

#[test]
fn difference_store_states_are_invisible() {
    let s1 = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[3.0, 1.0]);
    let s2 = GeneralizedRelation::from_box_f64(&[1.0, 0.0], &[2.0, 1.0]);
    assert_store_states_invariant(
        || DifferenceGenerator::new(&s1, &s2, params()).unwrap(),
        0xD1FFE12,
        "difference-store",
    );
}

#[test]
fn projection_store_states_are_invisible() {
    let tuple = GeneralizedTuple::from_box_f64(&[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]);
    // The ctor's eager setup randomness is key-derived, matching the
    // invisibility contract (preparation is a pure function of the key).
    let key = 0x1210_1EC7;
    assert_store_states_invariant(
        || {
            let mut rng = SeedSequence::new(key).setup_stream().rng();
            ProjectionGenerator::new(&tuple, &[0, 1], params(), &mut rng).unwrap()
        },
        key,
        "projection-store",
    );
}

#[test]
fn dfk_sampler_store_states_are_invisible() {
    use cdb_sampler::PreparedStore;
    let square = cdb_geometry::HPolytope::axis_box(&[0.0, 0.0], &[1.0, 1.0]);
    let body = ConvexBody::from_polytope(&square).unwrap();
    let key = 0xDF1C;
    let build = || {
        let mut rng = SeedSequence::new(key).setup_stream().rng();
        DfkSampler::new(body.clone(), params(), &mut rng)
    };
    let seq = SeedSequence::new(0x0DD_BA11);
    let baseline = build().sample_batch(STORE_BATCH, &seq, 1);
    let baseline_vols = build().estimate_volume_batch(STORE_VOLS, &seq, 1);
    assert_eq!(baseline.len(), STORE_BATCH);
    for &threads in &THREAD_COUNTS {
        for capacity in [0usize, 8] {
            let store = PreparedStore::<u64, DfkSampler>::new(capacity);
            let first = store.get_or_prepare(&key, &build);
            let second = store.get_or_prepare(&key, &build);
            for stored in [&first, &second] {
                let mut sampler = (**stored).clone();
                assert_eq!(
                    baseline,
                    sampler.sample_batch(STORE_BATCH, &seq, threads),
                    "dfk-store: capacity {capacity} differs at {threads} threads"
                );
                assert_eq!(
                    baseline_vols,
                    sampler.estimate_volume_batch(STORE_VOLS, &seq, threads),
                    "dfk-store: capacity {capacity} volumes differ at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn spatial_database_store_states_are_invisible_across_thread_counts() {
    // End-to-end axis product on the public API: (cold / warm / evicting /
    // disabled) × (1 / 2 / 8 / auto threads), all against the
    // disabled-store single-threaded baseline. The shared axis is covered
    // by `tests/prepared_store.rs`.
    use cdb_core::{QuerySpec, SpatialDatabase};
    let populate = |db: &mut SpatialDatabase| {
        db.insert(
            "A",
            GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0])
                .union(&GeneralizedRelation::from_box_f64(&[2.0, 0.0], &[3.0, 2.0])),
        );
        db.insert(
            "B",
            GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 1.0]),
        );
    };
    let seq = SeedSequence::new(0xDBA1E5);
    let points = |db: &SpatialDatabase, name: &str, n: usize, threads: usize| {
        let spec = QuerySpec::sample(name, n)
            .with_seed_sequence(seq)
            .with_threads(threads)
            .partial();
        db.query(&spec).unwrap().points().to_vec()
    };
    let volume = |db: &SpatialDatabase, threads: usize| {
        let spec = QuerySpec::volume("A", 4)
            .with_seed_sequence(seq)
            .with_threads(threads)
            .partial();
        db.query(&spec).unwrap().volume().unwrap()
    };
    let mut disabled = SpatialDatabase::with_params(params()).with_store_capacity(0);
    populate(&mut disabled);
    let baseline = points(&disabled, "A", 64, 1);
    let baseline_vol = volume(&disabled, 1);
    assert!(baseline.iter().filter(|p| p.is_some()).count() > 32);

    for threads in [1usize, 2, 8, 0] {
        // Disabled.
        assert_eq!(
            baseline,
            points(&disabled, "A", 64, threads),
            "disabled store differs at {threads} threads"
        );
        // Cold, then warm, on one db.
        let mut db = SpatialDatabase::with_params(params());
        populate(&mut db);
        assert_eq!(
            baseline,
            points(&db, "A", 64, threads),
            "cold store differs at {threads} threads"
        );
        assert_eq!(
            baseline,
            points(&db, "A", 64, threads),
            "warm store differs at {threads} threads"
        );
        assert!(db.store_stats().hits > 0);
        assert_eq!(
            baseline_vol,
            volume(&db, threads),
            "warm store volume differs at {threads} threads"
        );
        // Evicting: capacity 1, alternating names.
        let mut tiny = SpatialDatabase::with_params(params()).with_store_capacity(1);
        populate(&mut tiny);
        for _ in 0..2 {
            assert_eq!(
                baseline,
                points(&tiny, "A", 64, threads),
                "evicting store differs at {threads} threads"
            );
            points(&tiny, "B", 8, 1);
        }
        assert!(tiny.store_stats().evictions > 0);
    }
}

/// Under auto threads (`0`) a seeded query runs its first item on the
/// caller and spreads the rest only when they are worth a thread start. A
/// two-item batch always stays inline; `sample(2048)` and `volume(4)` are
/// far above the threshold and spread. Both must equal every explicit
/// thread count bit for bit.
#[test]
fn inline_and_spread_batches_are_thread_count_invariant() {
    use cdb_core::{QuerySpec, SpatialDatabase};
    let mut db = SpatialDatabase::with_params(params());
    db.insert(
        "A",
        GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0])
            .union(&GeneralizedRelation::from_box_f64(&[0.5, 0.5], &[2.0, 1.5])),
    );
    let seq = SeedSequence::new(0x1A11E);
    let run = |spec: QuerySpec, threads: usize| {
        let outcome = db
            .query(&spec.with_seed_sequence(seq).with_threads(threads).partial())
            .unwrap();
        (outcome.points().to_vec(), outcome.volumes().to_vec())
    };
    for spec in [
        QuerySpec::sample("A", 2),
        QuerySpec::sample("A", 2048),
        QuerySpec::volume("A", 1),
        QuerySpec::volume("A", 4),
    ] {
        let label = format!("{:?}", spec.kind);
        let baseline = run(spec.clone(), 1);
        assert!(
            baseline.0.iter().flatten().count() + baseline.1.iter().flatten().count() > 0,
            "{label}: nothing completed"
        );
        for threads in [0usize, 2, 8] {
            assert_eq!(
                baseline,
                run(spec.clone(), threads),
                "{label} differs at {threads} threads"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Query-budget axes: (no budget / huge budget / exactly-exhausting budget)
// × thread count. The resilience layer's contract is that budget checks
// consume no randomness: a budget that never trips is bitwise invisible,
// and one that does trip does so at the same deterministic step count for
// every thread count.
// ---------------------------------------------------------------------------

#[test]
fn unexhausted_budgets_are_bitwise_invisible() {
    use cdb_sampler::QueryBudget;
    let relation = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0])
        .union(&GeneralizedRelation::from_box_f64(&[2.0, 0.0], &[3.0, 2.0]));
    let seq = SeedSequence::new(0xB0D6E7);
    let make = |budget: QueryBudget| {
        let mut g = UnionGenerator::new(&relation, params()).unwrap();
        g.set_budget(budget);
        g
    };
    let baseline_pts = make(QueryBudget::unlimited()).sample_batch(64, &seq, 1);
    let baseline_vols = make(QueryBudget::unlimited()).estimate_volume_batch(4, &seq, 1);
    assert!(baseline_pts.iter().filter(|p| p.is_some()).count() > 32);
    // A budget far above what any draw needs must change nothing — on any
    // thread count, through both batch entry points.
    let huge = || {
        QueryBudget::unlimited()
            .with_max_steps(1 << 40)
            .with_max_attempts(1 << 40)
    };
    for &threads in &THREAD_COUNTS {
        assert_eq!(
            baseline_pts,
            make(huge()).sample_batch(64, &seq, threads),
            "huge budget perturbed sample_batch at {threads} threads"
        );
        assert_eq!(
            baseline_vols,
            make(huge()).estimate_volume_batch(4, &seq, threads),
            "huge budget perturbed estimate_volume_batch at {threads} threads"
        );
    }
}

#[test]
fn budget_exhaustion_is_deterministic_across_thread_counts() {
    use cdb_sampler::{BudgetTrip, QueryBudget};
    let relation = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]);
    let seq = SeedSequence::new(0xE4A057);
    // Probe how many walk steps one *prepared* draw needs (a large limited
    // budget tracks usage; an unlimited meter deliberately skips the
    // bookkeeping). Preparation runs first, exactly as sample_batch does,
    // so setup walks are excluded from the measurement.
    let mut probe = UnionGenerator::new(&relation, params()).unwrap();
    probe.prepare(&seq);
    probe.set_budget(QueryBudget::unlimited().with_max_steps(1 << 40));
    let mut rng = seq.item_stream(0).rng();
    assert!(probe.sample(&mut rng).is_some());
    let need = probe.budget_meter().steps_used();
    assert!(need > 0);

    let make = |budget: QueryBudget| {
        let mut g = UnionGenerator::new(&relation, params()).unwrap();
        g.set_budget(budget);
        g
    };
    // Exactly enough steps: the draw completes and is bitwise identical to
    // the unlimited baseline (the final chunk consumes the last step and no
    // further grant is requested).
    let baseline = make(QueryBudget::unlimited()).sample_batch(32, &seq, 1);
    for &threads in &THREAD_COUNTS {
        assert_eq!(
            baseline,
            make(QueryBudget::unlimited().with_max_steps(need)).sample_batch(32, &seq, threads),
            "exactly-sufficient budget perturbed the batch at {threads} threads"
        );
        // One step short: every item trips — the same outcome vector for
        // every thread count.
        let starved =
            make(QueryBudget::unlimited().with_max_steps(need - 1)).sample_batch(32, &seq, threads);
        assert!(
            starved.iter().all(|p| p.is_none()),
            "a draw survived an insufficient step budget at {threads} threads"
        );
    }
    // Sequential exhaustion stops at the same step count every time.
    let mut a = make(QueryBudget::unlimited().with_max_steps(need - 1));
    let mut b = make(QueryBudget::unlimited().with_max_steps(need - 1));
    assert!(a.sample(&mut seq.item_stream(0).rng()).is_none());
    assert!(b.sample(&mut seq.item_stream(0).rng()).is_none());
    assert_eq!(a.budget_trip(), Some(BudgetTrip::Steps));
    assert_eq!(a.budget_meter().steps_used(), b.budget_meter().steps_used());
}

#[test]
fn distinct_seeds_give_distinct_batches() {
    let relation = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]);
    let mut g = UnionGenerator::new(&relation, params()).unwrap();
    let a = g.sample_batch(32, &SeedSequence::new(1), 0);
    let mut g2 = UnionGenerator::new(&relation, params()).unwrap();
    let b = g2.sample_batch(32, &SeedSequence::new(2), 0);
    assert_ne!(a, b, "different seeds must give different batches");
}

/// A seeded mixed load — one-point samples, one-repeat volumes and
/// `exists x1. R(x0, x1)` reconstructions over a polytope soup — answers
/// bitwise-identical results under the batch fan-out at every thread count:
/// item `i` draws from `item_stream(i)` regardless of which worker serves
/// it, and the prepared store is bitwise invisible under contention. Every
/// sample lies inside its relation and every volume is finite and positive.
#[test]
fn load_harness_results_are_thread_count_invariant() {
    use cdb_constraint::parse_formula;
    use cdb_core::{QuerySpec, SpatialDatabase};
    use cdb_sampler::batch::fan_out_contained;
    use cdb_workloads::sessions::{polytope_soup, SessionMix, SoupSpec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[derive(Debug, PartialEq)]
    enum Answer {
        Point(Vec<u64>),
        Volume(u64),
        Relation(String),
    }

    let soup = polytope_soup(&SoupSpec::default(), &mut StdRng::seed_from_u64(55));
    let mut db = SpatialDatabase::with_params(params());
    for (name, relation) in &soup.entries {
        db.insert(name.clone(), relation.clone());
    }
    let names = soup.names();
    let seq = SeedSequence::new(0xBEA7);
    // The plan: a read-heavy class blend over uniformly picked relations,
    // drawn from a setup stream that no item stream can collide with.
    let mix = SessionMix::read_heavy();
    let mut picks = seq.setup_stream().child(1).rng();
    let plan: Vec<QuerySpec> = (0..96)
        .map(|_| {
            let w: f64 = picks.gen_range(0.0..mix.sample + mix.volume + mix.reconstruction);
            let name = &names[picks.gen_range(0..names.len())];
            if w < mix.sample {
                QuerySpec::sample(name, 1)
            } else if w < mix.sample + mix.volume {
                QuerySpec::volume(name, 1)
            } else {
                let query = parse_formula(&format!("exists x1. {name}(x0, x1)"), 2)
                    .expect("the projection query parses");
                QuerySpec::reconstruct(name, query, 1)
            }
        })
        .collect();
    let run = |threads: usize| {
        let report = fan_out_contained(
            plan.len(),
            threads,
            || (),
            |_, i| {
                let outcome = db
                    .query_with_rng(&plan[i], &mut seq.item_stream(i).rng())
                    .unwrap_or_else(|e| panic!("item {i} failed: {e}"));
                if let Some(p) = outcome.point() {
                    let relation = db.relation(&plan[i].relation).unwrap();
                    assert!(relation.contains_f64(p), "sample {i} outside its relation");
                    Answer::Point(p.iter().map(|x| x.to_bits()).collect())
                } else if let Some(v) = outcome.volume() {
                    assert!(v.is_finite() && v > 0.0, "volume {i} = {v}");
                    Answer::Volume(v.to_bits())
                } else {
                    let relation = outcome.relation().expect("a reconstruction");
                    Answer::Relation(format!("{relation:?}"))
                }
            },
        );
        assert!(report.panics.is_empty(), "{:?}", report.panics);
        report
            .slots
            .into_iter()
            .map(|slot| slot.expect("no item may be lost"))
            .collect::<Vec<_>>()
    };
    let baseline = run(THREAD_COUNTS[0]);
    assert!(
        baseline.iter().any(|a| matches!(a, Answer::Point(_)))
            && baseline.iter().any(|a| matches!(a, Answer::Volume(_)))
            && baseline.iter().any(|a| matches!(a, Answer::Relation(_))),
        "the plan must hold every query class"
    );
    for &threads in &THREAD_COUNTS[1..] {
        assert_eq!(
            baseline,
            run(threads),
            "load results differ at {threads} threads"
        );
    }
}

// ---------------------------------------------------------------------------
// Query parity: `SpatialDatabase::query` and `query_with_rng` run every
// sample and volume item through one runner over an attached copy of the
// relation's prepared `UnionGenerator`. This suite pins both execution modes
// **bitwise** against a raw `UnionGenerator` prepared from the database's
// preparation seed, across the store-state × thread-count axis product, so
// the runner can never drift from the generator it drives.
// ---------------------------------------------------------------------------

#[test]
fn unified_query_matches_legacy_entry_points_bitwise() {
    use cdb_constraint::parse_formula;
    use cdb_core::{QuerySpec, SpatialDatabase};
    use cdb_reconstruct::PositiveQueryEstimator;
    use cdb_sampler::QueryBudget;

    let relation_a = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0])
        .union(&GeneralizedRelation::from_box_f64(&[2.0, 0.0], &[3.0, 2.0]));
    let populate = |db: &mut SpatialDatabase| {
        db.insert("A", relation_a.clone());
        db.insert(
            "B",
            GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 1.0]),
        );
    };
    let fresh = |capacity: Option<usize>| {
        let mut db = match capacity {
            Some(c) => SpatialDatabase::with_params(params()).with_store_capacity(c),
            None => SpatialDatabase::with_params(params()),
        };
        populate(&mut db);
        db
    };
    let seq = SeedSequence::new(0x5EC7_1E6A);
    let conjunction = parse_formula("A(x0, x1) and B(x0, x1)", 2).unwrap();

    // The reference: a raw generator, prepared once from the preparation
    // seed of a disabled-store database and never touched by a store.
    let disabled = fresh(Some(0));
    let mut raw = UnionGenerator::new(&relation_a, params()).unwrap();
    raw.prepare(&disabled.preparation_seed("A").unwrap());
    let want_points = raw.clone().sample_batch(32, &seq, 1);
    let want_volume = raw.clone().estimate_volume_median(4, &seq, 1).unwrap();
    assert!(want_points.iter().filter(|p| p.is_some()).count() > 16);
    let budget = QueryBudget::unlimited().with_max_steps(1 << 40);
    let mut budgeted = raw.clone();
    budgeted.set_budget(budget.clone());
    let want_point = budgeted.sample(&mut seq.item_stream(3).rng());
    let want_estimate = budgeted.estimate_volume(&mut seq.item_stream(4).rng());
    let mut stream = seq.item_stream(5).rng();
    let mut sequential = raw.clone();
    let want_many: Vec<_> = (0..12).map(|_| sequential.sample(&mut stream)).collect();
    let estimator = PositiveQueryEstimator::new(params(), params().eps, params().delta);
    let want_relation = estimator
        .estimate(
            disabled.database(),
            &conjunction,
            2,
            &mut seq.item_stream(0).rng(),
        )
        .unwrap();
    // An ∃ query samples each of A's two boxes through a prepared
    // projection piece (the conjunction above is quantifier-free and builds
    // none).
    let projection = parse_formula("exists x1. A(x0, x1)", 2).unwrap();
    let want_projection = estimator
        .estimate(
            disabled.database(),
            &projection,
            1,
            &mut seq.item_stream(0).rng(),
        )
        .unwrap();
    assert_eq!(want_projection.tuples().len(), 2);

    // Store states: disabled (always rebuilds), default (cold → warm), and
    // capacity-1 (evicting between rounds).
    for capacity in [Some(0), None, Some(1)] {
        for &threads in &THREAD_COUNTS {
            let db = fresh(capacity);
            // Two rounds: under the default store the first is cold and the
            // second warm; under capacity 1 the interleaved touch of "B"
            // evicts "A" between rounds.
            for round in 0..2 {
                let label = format!("capacity {capacity:?}, {threads} threads, round {round}");
                let seeded = |spec: QuerySpec| {
                    let spec = spec.with_seed_sequence(seq).with_threads(threads);
                    db.query(&spec.partial()).unwrap()
                };
                assert_eq!(
                    seeded(QuerySpec::sample("A", 32)).points(),
                    want_points.as_slice(),
                    "seeded sample drifted ({label})"
                );
                assert_eq!(
                    seeded(QuerySpec::volume("A", 4)).volume().map(f64::to_bits),
                    Some(want_volume.to_bits()),
                    "seeded volume median drifted ({label})"
                );
                seeded(QuerySpec::sample("B", 4));
            }

            // Caller-funded items under an identical rng stream.
            let point = db
                .query_with_rng(
                    &QuerySpec::sample("A", 1).with_budget(&budget),
                    &mut seq.item_stream(3).rng(),
                )
                .unwrap();
            assert_eq!(
                point.points(),
                std::slice::from_ref(&want_point),
                "budgeted draw drifted"
            );
            let estimate = db
                .query_with_rng(
                    &QuerySpec::volume("A", 1).with_budget(&budget),
                    &mut seq.item_stream(4).rng(),
                )
                .unwrap();
            assert_eq!(
                estimate.volume().map(f64::to_bits),
                want_estimate.map(f64::to_bits),
                "budgeted estimate drifted"
            );
            let many = db
                .query_with_rng(
                    &QuerySpec::sample("A", 12).partial(),
                    &mut seq.item_stream(5).rng(),
                )
                .unwrap();
            assert_eq!(many.points(), want_many.as_slice(), "item stream drifted");

            // Reconstruction: the seeded mode draws from item stream 0, so
            // both modes equal the raw estimator on that stream. Compare the
            // relations' full debug renderings (floats print
            // shortest-roundtrip, so textual equality is bitwise equality).
            let spec = QuerySpec::reconstruct("A", conjunction.clone(), 2);
            let seeded = db.query(&spec.clone().with_seed_sequence(seq)).unwrap();
            let funded = db
                .query_with_rng(&spec, &mut seq.item_stream(0).rng())
                .unwrap();
            for outcome in [&seeded, &funded] {
                assert_eq!(
                    format!("{:?}", outcome.relation().unwrap()),
                    format!("{want_relation:?}"),
                    "reconstruction drifted"
                );
            }

            // The ∃ reconstruction twice: under the default store the first
            // run prepares both pieces and the second attaches them; under
            // capacity 1 each piece evicts the other.
            let spec = QuerySpec::reconstruct("A", projection.clone(), 1).with_seed_sequence(seq);
            for run in 0..2 {
                let before = db.store_stats();
                let outcome = db.query(&spec).unwrap();
                assert_eq!(
                    format!("{:?}", outcome.relation().unwrap()),
                    format!("{want_projection:?}"),
                    "∃ reconstruction drifted (capacity {capacity:?}, {threads} threads, run {run})"
                );
                let after = db.store_stats();
                if capacity.is_none() {
                    let (hits, misses) = if run == 0 { (0, 2) } else { (2, 0) };
                    assert_eq!(after.hits - before.hits, hits, "run {run}");
                    assert_eq!(after.misses - before.misses, misses, "run {run}");
                }
            }
        }
    }
}
