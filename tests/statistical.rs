//! Statistical acceptance harness for the randomized deliverables.
//!
//! The generators and estimators of the paper are correct *in distribution*,
//! so spot checks prove nothing: following the discipline of seeded
//! acceptance testing (cf. Mandelkern & Schultz on confidence-interval
//! construction and the Gonogo sensitivity-testing suite in PAPERS.md), every
//! gate here is a chi-square uniformity statistic or an `(ε, δ)`
//! relative-error bound evaluated on a *fixed seed tree*, so a failure is a
//! deterministic regression, never flakiness.
//!
//! Two kinds of gates, for all five generators (`DfkSampler`,
//! `UnionGenerator`, `IntersectionGenerator`, `DifferenceGenerator`,
//! `ProjectionGenerator`), each driven through the same
//! `RelationGenerator`/`RelationVolumeEstimator` batch entry points:
//!
//! * **uniformity** — chi-square statistics of sampled marginals against the
//!   uniform histogram, gated by the loose 0.999-quantile bound of
//!   `cdb_sampler::diagnostics`;
//! * **volume** — relative error of median-of-repeats volume estimates
//!   against closed-form box/ball/simplex volumes.
//!
//! The heavy gates are skipped when `CDB_STAT_QUICK` is set in the
//! environment (`./ci.sh --quick`) so local iteration stays fast.

use cdb_constraint::poly::PolyBody;
use cdb_constraint::{Atom, GeneralizedRelation, GeneralizedTuple};
use cdb_linalg::Vector;
use cdb_sampler::diagnostics::{
    chi_square_loose_bound, poisson_count_interval, relative_error, uniformity_chi_square,
};
use cdb_sampler::{
    CellSelection, ConvexBody, DfkSampler, DifferenceGenerator, FiberVolume, GeneratorParams,
    IntersectionGenerator, ProjectionGenerator, ProjectionParams, RelationGenerator,
    RelationVolumeEstimator, SeedSequence, UnionGenerator,
};
use cdb_workloads::polytopes;
use cdb_workloads::projection::{deep_cone, deep_cone_shifted, skewed_prism};
use std::sync::Arc;

/// `true` when the heavy statistical gates should be skipped
/// (`./ci.sh --quick` sets `CDB_STAT_QUICK`).
fn quick_mode() -> bool {
    std::env::var_os("CDB_STAT_QUICK").is_some()
}

fn params() -> GeneratorParams {
    GeneratorParams::fast()
}

/// Unwraps a batch of optional samples, requiring a high success rate.
fn successes(batch: Vec<Option<Vec<f64>>>) -> Vec<Vec<f64>> {
    let n = batch.len();
    let kept: Vec<Vec<f64>> = batch.into_iter().flatten().collect();
    assert!(
        kept.len() * 10 >= n * 9,
        "generator failure rate too high: {} of {n}",
        n - kept.len()
    );
    kept
}

/// Chi-square uniformity gate on one coordinate marginal of a sample, after
/// mapping each point through `fold` (used to fold disconnected parts onto a
/// common interval).
fn assert_marginal_uniform(
    points: &[Vec<f64>],
    fold: impl Fn(&[f64]) -> f64,
    lo: f64,
    hi: f64,
    bins: usize,
    label: &str,
) {
    let values: Vec<f64> = points.iter().map(|p| fold(p)).collect();
    let stat = uniformity_chi_square(&values, lo, hi, bins);
    let bound = chi_square_loose_bound(bins - 1);
    assert!(
        stat < bound,
        "{label}: chi-square {stat:.2} exceeds the {bound:.2} gate"
    );
}

// ---------------------------------------------------------------------------
// DfkSampler
// ---------------------------------------------------------------------------

#[test]
fn dfk_sampler_uniformity_gate() {
    if quick_mode() {
        return;
    }
    let square = cdb_geometry::HPolytope::axis_box(&[0.0, 0.0], &[1.0, 1.0]);
    let body = ConvexBody::from_polytope(&square).unwrap();
    let mut rng = SeedSequence::new(1001).setup_stream().rng();
    let mut sampler = DfkSampler::new(body, params(), &mut rng);
    let pts = successes(sampler.sample_batch(4000, &SeedSequence::new(1002), 0));
    for p in &pts {
        assert!(square.contains_slice(p, 1e-9));
    }
    assert_marginal_uniform(&pts, |p| p[0], 0.0, 1.0, 10, "dfk x-marginal");
    assert_marginal_uniform(&pts, |p| p[1], 0.0, 1.0, 10, "dfk y-marginal");
}

#[test]
fn dfk_volume_eps_delta_gates_on_closed_forms() {
    if quick_mode() {
        return;
    }
    // Box, simplex and cross-polytope against their closed forms, in two and
    // three dimensions, through the parallel median estimator.
    for d in [2usize, 3] {
        for (name, relation, exact) in polytopes::closed_form_suite(d) {
            let tuple = &relation.tuples()[0];
            let body = ConvexBody::from_tuple(tuple).unwrap();
            let mut rng = SeedSequence::new(2000 + d as u64).setup_stream().rng();
            let mut sampler = DfkSampler::new(body, params(), &mut rng);
            let est = sampler
                .estimate_volume_median(5, &SeedSequence::new(2100 + d as u64), 0)
                .unwrap();
            let err = relative_error(est, exact);
            assert!(
                err < 0.30,
                "{name} d={d}: estimate {est:.4} vs exact {exact:.4} (rel err {err:.3})"
            );
        }
    }
}

#[test]
fn dfk_volume_gate_on_an_oracle_backed_ball() {
    if quick_mode() {
        return;
    }
    // The E2 configuration done right: a PolyBody ball (polynomial membership
    // oracle, closed-form chords through `line_quadratic`) with a *loose*
    // certificate, so the telescoping product is exercised instead of the
    // exact-certificate shortcut.
    let d = 3;
    let exact = cdb_geometry::ball::unit_ball_volume(d);
    let ball = PolyBody::ball(&[0.0; 3], 1.0);
    let body = ConvexBody::from_oracle(Arc::new(ball), Vector::zeros(d), 0.8, 1.3);
    let mut rng = SeedSequence::new(3001).setup_stream().rng();
    let mut sampler = DfkSampler::new(body, params(), &mut rng);
    let est = sampler
        .estimate_volume_median(5, &SeedSequence::new(3002), 0)
        .unwrap();
    let err = relative_error(est, exact);
    assert!(
        err < 0.30,
        "oracle ball: estimate {est:.4} vs exact {exact:.4} (rel err {err:.3})"
    );
}

// ---------------------------------------------------------------------------
// UnionGenerator
// ---------------------------------------------------------------------------

#[test]
fn union_generator_uniformity_gate() {
    if quick_mode() {
        return;
    }
    // Two disjoint unit squares far apart plus an overlapping pair: fold the
    // first coordinate back onto [0, 1] and gate the marginal.
    let relation = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]).union(
        &GeneralizedRelation::from_box_f64(&[10.0, 0.0], &[11.0, 1.0]),
    );
    let mut generator = UnionGenerator::new(&relation, params()).unwrap();
    let pts = successes(generator.sample_batch(3000, &SeedSequence::new(4001), 0));
    assert_marginal_uniform(
        &pts,
        |p| if p[0] > 5.0 { p[0] - 10.0 } else { p[0] },
        0.0,
        1.0,
        10,
        "union folded x-marginal",
    );
    // Each square receives about half the mass.
    let left = pts.iter().filter(|p| p[0] < 5.0).count() as f64 / pts.len() as f64;
    assert!((left - 0.5).abs() < 0.05, "left mass {left}");
}

#[test]
fn union_volume_eps_delta_gate_counts_overlaps_once() {
    if quick_mode() {
        return;
    }
    // [0,2]x[0,1] ∪ [1,3]x[0,1]: exact volume 3 (the Karp–Luby step must not
    // double count the overlap).
    let relation = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 1.0])
        .union(&GeneralizedRelation::from_box_f64(&[1.0, 0.0], &[3.0, 1.0]));
    let mut generator = UnionGenerator::new(&relation, params()).unwrap();
    let est = generator
        .estimate_volume_median(5, &SeedSequence::new(4101), 0)
        .unwrap();
    let err = relative_error(est, 3.0);
    assert!(err < 0.25, "union volume {est:.3} (rel err {err:.3})");
}

// ---------------------------------------------------------------------------
// IntersectionGenerator
// ---------------------------------------------------------------------------

#[test]
fn intersection_generator_uniformity_and_volume_gates() {
    if quick_mode() {
        return;
    }
    // [0,2]² ∩ [1,3]² = [1,2]², exact volume 1.
    let a = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 2.0]);
    let b = GeneralizedRelation::from_box_f64(&[1.0, 1.0], &[3.0, 3.0]);
    let mut generator = IntersectionGenerator::new(&[a, b], params()).unwrap();
    let pts = successes(generator.sample_batch(2500, &SeedSequence::new(5001), 0));
    for p in &pts {
        assert!(p[0] >= 1.0 - 1e-6 && p[0] <= 2.0 + 1e-6);
        assert!(p[1] >= 1.0 - 1e-6 && p[1] <= 2.0 + 1e-6);
    }
    assert_marginal_uniform(&pts, |p| p[0], 1.0, 2.0, 8, "intersection x-marginal");
    assert_marginal_uniform(&pts, |p| p[1], 1.0, 2.0, 8, "intersection y-marginal");
    let est = generator
        .estimate_volume_median(5, &SeedSequence::new(5002), 0)
        .unwrap();
    let err = relative_error(est, 1.0);
    assert!(
        err < 0.25,
        "intersection volume {est:.3} (rel err {err:.3})"
    );
}

// ---------------------------------------------------------------------------
// DifferenceGenerator
// ---------------------------------------------------------------------------

#[test]
fn difference_generator_uniformity_and_volume_gates() {
    if quick_mode() {
        return;
    }
    // [0,3]x[0,1] minus the middle strip [1,2]x[0,1]: two unit squares. Fold
    // the right part onto [0,1] and gate the marginal; exact volume 2.
    let s1 = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[3.0, 1.0]);
    let s2 = GeneralizedRelation::from_box_f64(&[1.0, 0.0], &[2.0, 1.0]);
    let mut generator = DifferenceGenerator::new(&s1, &s2, params()).unwrap();
    let pts = successes(generator.sample_batch(2500, &SeedSequence::new(6001), 0));
    for p in &pts {
        assert!(!s2.contains_f64(p), "sample fell in the subtrahend: {p:?}");
    }
    assert_marginal_uniform(
        &pts,
        |p| if p[0] > 1.5 { p[0] - 2.0 } else { p[0] },
        0.0,
        1.0,
        10,
        "difference folded x-marginal",
    );
    let est = generator
        .estimate_volume_median(5, &SeedSequence::new(6002), 0)
        .unwrap();
    let err = relative_error(est, 2.0);
    assert!(err < 0.25, "difference volume {est:.3} (rel err {err:.3})");
}

// ---------------------------------------------------------------------------
// ProjectionGenerator (Figure 1)
// ---------------------------------------------------------------------------

/// The triangle `0 ≤ x ≤ 1, 0 ≤ y ≤ x` of Figure 1: its projection onto `x`
/// is `[0, 1]`, but the fibers shrink linearly toward `x = 0`, so the
/// *uncorrected* projection of uniform samples is heavily biased to the
/// right.
fn figure1_triangle() -> GeneralizedTuple {
    GeneralizedTuple::new(
        2,
        vec![
            Atom::le_from_ints(&[-1, 0], 0),
            Atom::le_from_ints(&[1, 0], -1),
            Atom::le_from_ints(&[0, -1], 0),
            Atom::le_from_ints(&[-1, 1], 0),
        ],
    )
}

#[test]
fn projection_generator_cylinder_compensation_gate() {
    if quick_mode() {
        return;
    }
    let tri = figure1_triangle();
    let p = GeneratorParams {
        gamma: 0.05,
        ..params()
    };
    let mut rng = SeedSequence::new(7001).setup_stream().rng();
    let mut generator = ProjectionGenerator::new(&tri, &[0], p, &mut rng).unwrap();

    // The biased baseline (no compensation) must FAIL the uniformity gate …
    let n = 1500;
    let mut sample_rng = SeedSequence::new(7002).setup_stream().rng();
    let biased: Vec<f64> = (0..n)
        .map(|_| generator.sample_uncorrected(&mut sample_rng)[0])
        .collect();
    let biased_stat = uniformity_chi_square(&biased, 0.0, 1.0, 10);
    assert!(
        biased_stat > chi_square_loose_bound(9),
        "the Figure-1 bias disappeared: chi-square {biased_stat:.2}"
    );

    // … while the cylinder-compensated generator passes it.
    let pts = successes(generator.sample_batch(n, &SeedSequence::new(7003), 0));
    assert_marginal_uniform(&pts, |p| p[0], 0.0, 1.0, 10, "projection marginal");
}

#[test]
fn projection_estimated_strategy_passes_the_gates() {
    if quick_mode() {
        return;
    }
    // The compensation weight computed by the telescoping *estimator*
    // (instead of exact vertex enumeration) must still flatten the Figure-1
    // bias and reproduce the closed-form projection volume. Per-cell weight
    // noise is deterministic (the estimator's randomness derives from the
    // cell key), so this is a fixed-seed gate like every other.
    let p = ProjectionParams::new(GeneratorParams {
        gamma: 0.05,
        ..params()
    })
    .with_fiber_volume(FiberVolume::Estimated);
    let tri = figure1_triangle();
    let mut rng = SeedSequence::new(7201).setup_stream().rng();
    let mut generator = ProjectionGenerator::new_with(&tri, &[0], p, &mut rng).unwrap();
    assert_eq!(generator.resolved_fiber_volume(), FiberVolume::Estimated);

    let pts = successes(generator.sample_batch(1200, &SeedSequence::new(7202), 0));
    assert_marginal_uniform(
        &pts,
        |p| p[0],
        0.0,
        1.0,
        10,
        "estimated-weight projection marginal",
    );

    let est = generator
        .estimate_volume_median(5, &SeedSequence::new(7203), 0)
        .unwrap();
    let err = relative_error(est, 1.0);
    assert!(
        err < 0.30,
        "estimated-weight projection volume {est:.3} (rel err {err:.3})"
    );
}

// ---------------------------------------------------------------------------
// Stratified cell selection (the e7 acceptance wall)
// ---------------------------------------------------------------------------

#[test]
fn stratified_selection_passes_the_figure1_gates() {
    if quick_mode() {
        return;
    }
    // The stratified selector must reproduce exactly what the rejection loop
    // converges to: uniform mass over the projection. The *uncorrected*
    // projection of the same generator must still fail the gate — stratified
    // selection fixes the acceptance rate, not the Figure-1 bias itself.
    let p = ProjectionParams::new(GeneratorParams {
        gamma: 0.05,
        ..params()
    })
    .with_cell_selection(CellSelection::Stratified);
    let tri = figure1_triangle();
    let mut rng = SeedSequence::new(7301).setup_stream().rng();
    let mut generator = ProjectionGenerator::new_with(&tri, &[0], p, &mut rng).unwrap();
    assert_eq!(
        generator.resolved_cell_selection(),
        CellSelection::Stratified
    );

    let n = 1500;
    let mut sample_rng = SeedSequence::new(7302).setup_stream().rng();
    let biased: Vec<f64> = (0..n)
        .map(|_| generator.sample_uncorrected(&mut sample_rng)[0])
        .collect();
    let biased_stat = uniformity_chi_square(&biased, 0.0, 1.0, 10);
    assert!(
        biased_stat > chi_square_loose_bound(9),
        "the Figure-1 bias disappeared under stratified selection: \
         chi-square {biased_stat:.2}"
    );

    let pts = successes(generator.sample_batch(n, &SeedSequence::new(7303), 0));
    assert_eq!(pts.len(), n, "stratified draws never fail");
    assert_marginal_uniform(&pts, |p| p[0], 0.0, 1.0, 10, "stratified marginal");

    // The stratified volume is a deterministic Riemann sum at grid
    // resolution — tighter than the Monte-Carlo (ε, δ) budget.
    let mut vol_rng = SeedSequence::new(7304).setup_stream().rng();
    let est = generator.estimate_volume(&mut vol_rng).unwrap();
    let err = relative_error(est, 1.0);
    assert!(err < 0.05, "stratified volume {est:.4} (rel err {err:.4})");
}

#[test]
fn stratified_selection_passes_the_deep_cone_gates() {
    if quick_mode() {
        return;
    }
    // The e7 shape itself (where the rejection loop discards ~10⁴ chains per
    // acceptance at depth) and its shifted twin, whose enumerated grid keys
    // are negative integers — the regime where a bounding-box-to-cell-range
    // off-by-one would surface as a boundary bin failure.
    let p = ProjectionParams::new(GeneratorParams {
        gamma: 0.05,
        ..params()
    })
    .with_cell_selection(CellSelection::Stratified);
    for (label, tuple, lo) in [
        ("deep cone", deep_cone(4), 0.0f64),
        ("shifted cone", deep_cone_shifted(3, -2), -2.0),
    ] {
        let mut rng = SeedSequence::new(7401).setup_stream().rng();
        let mut generator = ProjectionGenerator::new_with(&tuple, &[0], p, &mut rng).unwrap();
        assert_eq!(
            generator.resolved_cell_selection(),
            CellSelection::Stratified
        );
        let pts = successes(generator.sample_batch(1500, &SeedSequence::new(7402), 0));
        for q in &pts {
            assert!(
                q[0] >= lo - 1e-9 && q[0] <= lo + 1.0 + 1e-9,
                "{label}: sample {q:?} outside the projection"
            );
        }
        assert_marginal_uniform(
            &pts,
            |q| q[0] - lo,
            0.0,
            1.0,
            10,
            &format!("{label} stratified marginal"),
        );
        let mut vol_rng = SeedSequence::new(7403).setup_stream().rng();
        let est = generator.estimate_volume(&mut vol_rng).unwrap();
        let err = relative_error(est, 1.0);
        assert!(err < 0.05, "{label}: volume {est:.4} (rel err {err:.4})");
    }
}

#[test]
fn stratified_selection_passes_the_multi_axis_prism_gate() {
    if quick_mode() {
        return;
    }
    // A two-axis projection (e = 2): the odometer enumeration and the alias
    // table run over a genuinely multi-dimensional cell range. The prism's
    // fibers are unit cubes, so the projection is the unit square exactly.
    let p = ProjectionParams::new(GeneratorParams {
        gamma: 0.4,
        ..params()
    })
    .with_cell_selection(CellSelection::Stratified);
    let prism = skewed_prism(2, 1);
    let mut rng = SeedSequence::new(7411).setup_stream().rng();
    let mut generator = ProjectionGenerator::new_with(&prism, &[0, 1], p, &mut rng).unwrap();
    assert_eq!(
        generator.resolved_cell_selection(),
        CellSelection::Stratified
    );
    let pts = successes(generator.sample_batch(2500, &SeedSequence::new(7412), 0));
    assert_marginal_uniform(&pts, |q| q[0], 0.0, 1.0, 8, "prism x-marginal");
    assert_marginal_uniform(&pts, |q| q[1], 0.0, 1.0, 8, "prism y-marginal");
    let mut vol_rng = SeedSequence::new(7413).setup_stream().rng();
    let est = generator.estimate_volume(&mut vol_rng).unwrap();
    let err = relative_error(est, 1.0);
    assert!(
        err < 0.10,
        "prism projection volume {est:.4} (rel err {err:.4})"
    );
}

#[test]
fn stratified_per_cell_occupancy_matches_poisson_intervals() {
    if quick_mode() {
        return;
    }
    // The finest-grained gate: every enumerated cell's hit count must land in
    // its exact central Poisson interval around `n · w / W` — computed from
    // the discrete tail sums, not a normal approximation, so the near-empty
    // apex cells of the triangle (expecting a fraction of a hit) get honest
    // `[0, k]` intervals instead of negative-width Gaussian bands. The tail
    // budget is Bonferroni-split across cells so the whole family is one
    // fixed-seed gate.
    let p = ProjectionParams::new(GeneratorParams {
        gamma: 0.05,
        ..params()
    })
    .with_cell_selection(CellSelection::Stratified);
    let tri = figure1_triangle();
    let mut rng = SeedSequence::new(7501).setup_stream().rng();
    let mut generator = ProjectionGenerator::new_with(&tri, &[0], p, &mut rng).unwrap();
    let (keys, weights, total) = {
        let cells = generator.stratified_cells().expect("selector built");
        (
            cells.keys().to_vec(),
            cells.weights().to_vec(),
            cells.total_mass(),
        )
    };
    let n_cells = keys.len();
    assert!(n_cells > 50, "unexpectedly coarse grid: {n_cells} cells");

    let n = 4000usize;
    let mut sample_rng = SeedSequence::new(7502).setup_stream().rng();
    let pts = generator.sample_many(n, &mut sample_rng);
    assert_eq!(pts.len(), n);
    let mut observed = std::collections::HashMap::new();
    let grid_step = generator.grid().step();
    for q in &pts {
        let key = (q[0] / grid_step).round() as i64;
        *observed.entry(key).or_insert(0u64) += 1;
    }

    // δ = 1e-6 for the whole family, split evenly across the cells.
    let tail = 1e-6 / n_cells as f64;
    for (key, w) in keys.iter().zip(&weights) {
        let mean = n as f64 * w / total;
        let (lo, hi) = poisson_count_interval(mean, tail);
        let got = observed.remove(&key[0]).unwrap_or(0);
        assert!(
            (lo..=hi).contains(&got),
            "cell {key:?}: {got} hits outside [{lo}, {hi}] (mean {mean:.2})"
        );
    }
    assert!(
        observed.is_empty(),
        "samples landed in cells the selector never enumerated: {observed:?}"
    );
}

// ---------------------------------------------------------------------------
// Prepared-relation store audit (PR 7)
//
// Every gate above builds its generator *directly*, so it owns private
// per-generator caches (fiber weights, alias tables) and never touches the
// shared prepared-relation store: those cases are implicitly pinned to
// store-disabled semantics and remain valid verbatim. The gates below run
// the same statistics *through* the `SpatialDatabase` store instead, and
// additionally pin the transfer argument bitwise: a warm, shared store
// returns exactly the bytes of the disabled-store path, so every
// statistical gate in this file transfers to the cached paths unchanged.
// ---------------------------------------------------------------------------

#[test]
fn warm_store_passes_the_uniformity_and_volume_gates() {
    if quick_mode() {
        return;
    }
    use cdb_core::{QuerySpec, SpatialDatabase};
    let populate = |db: &mut SpatialDatabase| {
        db.insert(
            "Box",
            GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 1.0]),
        );
    };
    let mut db = SpatialDatabase::with_params(params());
    populate(&mut db);
    let seq = SeedSequence::new(8201);
    let points = |db: &SpatialDatabase, n: usize, threads: usize| {
        let spec = QuerySpec::sample("Box", n)
            .with_seed_sequence(seq)
            .with_threads(threads)
            .partial();
        db.query(&spec).unwrap().points().to_vec()
    };
    // Warm the store first, so the gated batch below runs entirely on the
    // cache-hit path.
    points(&db, 8, 1);
    assert!(db.store_stats().misses > 0);
    let batch = points(&db, 4096, 0);
    assert!(
        db.store_stats().hits > 0,
        "gate did not exercise the warm path"
    );
    let pts = successes(batch.clone());
    assert_marginal_uniform(&pts, |p| p[0], 0.0, 2.0, 16, "warm-store x0");
    assert_marginal_uniform(&pts, |p| p[1], 0.0, 1.0, 16, "warm-store x1");
    // (ε, δ)-volume gate through the warm store: |V̂/V − 1| within the
    // fast-params budget for the 2×1 box.
    let spec = QuerySpec::volume("Box", 9)
        .with_seed_sequence(seq)
        .partial();
    let est = db.query(&spec).unwrap().volume().unwrap();
    let err = relative_error(est, 2.0);
    assert!(err < 0.30, "warm-store volume {est:.3} (rel err {err:.3})");
    // Transfer pin: the disabled-store path returns the same bytes, so the
    // two gates above are statements about *both* paths.
    let mut disabled = SpatialDatabase::with_params(params()).with_store_capacity(0);
    populate(&mut disabled);
    assert_eq!(
        batch,
        points(&disabled, 4096, 0),
        "warm-store batch is not bitwise equal to the disabled-store batch"
    );
    assert_eq!(
        db.store_capacity(),
        cdb_sampler::DEFAULT_PREPARED_STORE_CAPACITY
    );
    assert_eq!(disabled.store_stats().hits, 0);
}

#[test]
fn projection_volume_eps_delta_gate() {
    if quick_mode() {
        return;
    }
    // proj_x of the Figure-1 triangle and of the unit square both have
    // length 1.
    let p = GeneratorParams {
        gamma: 0.05,
        ..params()
    };
    for (name, tuple) in [
        ("triangle", figure1_triangle()),
        (
            "square",
            GeneralizedTuple::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]),
        ),
    ] {
        let mut rng = SeedSequence::new(7101).setup_stream().rng();
        let mut generator = ProjectionGenerator::new(&tuple, &[0], p, &mut rng).unwrap();
        let est = generator
            .estimate_volume_median(5, &SeedSequence::new(7102), 0)
            .unwrap();
        let err = relative_error(est, 1.0);
        assert!(
            err < 0.30,
            "projection of {name}: estimate {est:.3} (rel err {err:.3})"
        );
    }
}

// ---------------------------------------------------------------------------
// Degenerate high-aspect bodies (the rounding path)
// ---------------------------------------------------------------------------

/// Parameters with the well-rounding transform enabled — the degenerate
/// families are the bodies that *need* it, so their gates pin the rounding
/// path specifically.
fn rounding_params() -> GeneratorParams {
    let mut p = params();
    p.rounding = true;
    p
}

#[test]
fn degenerate_needle_box_passes_uniformity_and_volume_gates_through_rounding() {
    if quick_mode() {
        return;
    }
    // [0, 1/16]² × [0, 1]: aspect 16, exact volume 16⁻².
    let body = cdb_workloads::degenerate::needle_box(3, 16);
    let mut generator = UnionGenerator::new(&body.relation, rounding_params()).unwrap();
    let pts = successes(generator.sample_batch(3000, &SeedSequence::new(9001), 0));
    for p in &pts {
        assert!(body.relation.contains_f64(p), "sample left the needle");
    }
    // The long axis is uniform on [0, 1]; a thin axis, rescaled by the
    // aspect, is uniform on [0, 1] too.
    assert_marginal_uniform(&pts, |p| p[2], 0.0, 1.0, 10, "needle long-axis marginal");
    assert_marginal_uniform(
        &pts,
        |p| p[0] * 16.0,
        0.0,
        1.0,
        8,
        "needle thin-axis marginal",
    );
    // Volume gate through the median-of-repeats (ε, δ) estimator. A
    // single-tuple union's `estimate_volume_median` reuses the one
    // preparation-time pilot estimate, so repeats are a no-op there; run the
    // telescoping estimator directly, where each repeat is independent.
    let tuple = &body.relation.tuples()[0];
    let convex = ConvexBody::from_tuple(tuple).unwrap();
    let mut rng = SeedSequence::new(9002).setup_stream().rng();
    let mut sampler = DfkSampler::new(convex, rounding_params(), &mut rng);
    let est = sampler
        .estimate_volume_median(9, &SeedSequence::new(9005), 0)
        .unwrap();
    let err = relative_error(est, body.exact_volume);
    assert!(
        err < 0.30,
        "needle volume {est:.6} vs {:.6} (rel err {err:.3})",
        body.exact_volume
    );
}

#[test]
fn degenerate_thin_simplex_passes_the_volume_gate_through_rounding() {
    if quick_mode() {
        return;
    }
    // {x ≥ 0, 16·x₀ + x₁ + x₂ ≤ 1}: exact volume 1/(16·3!).
    let body = cdb_workloads::degenerate::thin_simplex(3, 16);
    let mut generator = UnionGenerator::new(&body.relation, rounding_params()).unwrap();
    let pts = successes(generator.sample_batch(2000, &SeedSequence::new(9003), 0));
    for p in &pts {
        assert!(body.relation.contains_f64(p), "sample left the simplex");
    }
    // The squeezed axis stays inside [0, 1/16], and rescaling the simplex by
    // (16, 1, 1) maps the sample to the standard simplex, whose coordinate
    // sum has CDF t³ on [0, 1] — fold through it for a uniformity gate.
    for p in &pts {
        assert!(p[0] <= 1.0 / 16.0 + 1e-9);
    }
    assert_marginal_uniform(
        &pts,
        |p| {
            let s = (16.0 * p[0] + p[1] + p[2]).clamp(0.0, 1.0);
            s * s * s
        },
        0.0,
        1.0,
        8,
        "thin-simplex radial CDF fold",
    );
    // Same median-of-independent-repeats gate as the needle (see above).
    let tuple = &body.relation.tuples()[0];
    let convex = ConvexBody::from_tuple(tuple).unwrap();
    let mut rng = SeedSequence::new(9004).setup_stream().rng();
    let mut sampler = DfkSampler::new(convex, rounding_params(), &mut rng);
    let est = sampler
        .estimate_volume_median(9, &SeedSequence::new(9006), 0)
        .unwrap();
    let err = relative_error(est, body.exact_volume);
    assert!(
        err < 0.30,
        "thin-simplex volume {est:.6} vs {:.6} (rel err {err:.3})",
        body.exact_volume
    );
}

// ---------------------------------------------------------------------------
// Moving-object overlay slices
// ---------------------------------------------------------------------------

#[test]
fn moving_overlay_slices_pass_uniformity_and_volume_gates() {
    if quick_mode() {
        return;
    }
    let spec = cdb_workloads::gis::MovingOverlaySpec::default();
    let mut rng = SeedSequence::new(9100).setup_stream().rng();
    let mo = cdb_workloads::gis::moving_overlay(&spec, &mut rng);
    // Gate the first and last slices: same machinery, maximally separated
    // object positions.
    for (gate, &j) in [0usize, spec.slices - 1].iter().enumerate() {
        let slice = &mo.slices[j];
        let mut generator = UnionGenerator::new(&slice.relation, params()).unwrap();
        let pts =
            successes(generator.sample_batch(3000, &SeedSequence::new(9101 + gate as u64), 0));
        let lane_of = |p: &[f64]| {
            let lane = ((p[1] - 0.5) / 2.0).floor();
            assert!(
                lane >= 0.0 && (lane as usize) < spec.objects,
                "off-lane sample"
            );
            lane as usize
        };
        // Offset inside the owning object is uniform on [0, 1]² — objects
        // are disjoint unit squares, so the fold is exact.
        assert_marginal_uniform(
            &pts,
            |p| p[0] - mo.object_x[j][lane_of(p)],
            0.0,
            1.0,
            10,
            &format!("slice {j} in-object x offset"),
        );
        assert_marginal_uniform(
            &pts,
            |p| p[1] - mo.lane_y[lane_of(p)],
            0.0,
            1.0,
            10,
            &format!("slice {j} in-object y offset"),
        );
        // Equal-area objects receive (near-)equal mass. The union selects
        // tuples proportionally to *estimated* tuple volumes, so the split
        // carries a small pilot-estimate skew; gate each lane's mass with
        // the same 0.05 absolute tolerance the union uniformity gate uses
        // rather than a chi-square that amplifies the shared bias.
        let mut lane_mass = vec![0usize; spec.objects];
        for p in &pts {
            lane_mass[lane_of(p)] += 1;
        }
        for (lane, &hits) in lane_mass.iter().enumerate() {
            let mass = hits as f64 / pts.len() as f64;
            let expected = 1.0 / spec.objects as f64;
            assert!(
                (mass - expected).abs() < 0.05,
                "slice {j} lane {lane}: mass {mass:.3} vs {expected:.3}"
            );
        }
        // Corridor occupancy matches the closed-form overlay fraction.
        let corridor_lo = (spec.width - spec.corridor_width) / 2.0;
        let corridor_hi = corridor_lo + spec.corridor_width;
        let hit = pts
            .iter()
            .filter(|p| p[0] >= corridor_lo && p[0] <= corridor_hi)
            .count() as f64
            / pts.len() as f64;
        let expected = mo.overlay_areas[j] / slice.exact_area;
        assert!(
            (hit - expected).abs() < 0.05,
            "slice {j}: corridor occupancy {hit:.3} vs overlay fraction {expected:.3}"
        );
        // (ε, δ) volume gate against the closed-form slice area.
        let est = generator
            .estimate_volume_median(5, &SeedSequence::new(9111 + gate as u64), 0)
            .unwrap();
        let err = relative_error(est, slice.exact_area);
        assert!(
            err < 0.25,
            "slice {j}: volume {est:.3} vs {:.3} (rel err {err:.3})",
            slice.exact_area
        );
    }
}
