//! Cross-crate integration tests: full pipelines from FO+LIN text to samples,
//! volume estimates and reconstructed relations.

use cdb_constraint::{parse_formula, GeneralizedRelation};
use cdb_core::{QuerySpec, SpatialDatabase};
use cdb_geometry::volume::{polytope_volume, symmetric_difference_volume, union_volume};
use cdb_reconstruct::{ConvexReconstructor, ProjectionQueryEstimator};
use cdb_sampler::{
    diagnostics, FixedDimSampler, GeneratorParams, IntersectionGenerator, RelationGenerator,
    RelationVolumeEstimator, SeedSequence, UnionGenerator,
};
use cdb_workloads::{gis, polytopes, sat};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fast() -> GeneratorParams {
    GeneratorParams::fast()
}

#[test]
fn parse_to_sample_pipeline() {
    // Text formula -> relation -> union generator -> samples satisfy the formula.
    let formula = parse_formula(
        "(x0 >= 0 and x0 <= 2 and x1 >= 0 and x1 <= 1) or (x0 >= 3 and x0 <= 4 and x1 >= 0 and x1 <= 2)",
        2,
    )
    .unwrap();
    let relation = GeneralizedRelation::from_formula(2, &formula).unwrap();
    let mut generator = UnionGenerator::new(&relation, fast()).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let samples = generator.sample_many(200, &mut rng);
    assert!(samples.len() > 150);
    for p in &samples {
        assert!(
            formula.eval_f64(p, 1e-6).unwrap(),
            "sample violates the formula: {p:?}"
        );
    }
    // Volume estimate tracks the exact area 2*1 + 1*2 = 4.
    let est = generator.estimate_volume(&mut rng).unwrap();
    let exact = union_volume(&relation.to_polytopes());
    assert!((exact - 4.0).abs() < 1e-6);
    assert!(
        diagnostics::relative_error(est, exact) < 0.4,
        "estimate {est}"
    );
}

#[test]
fn randomized_and_fixed_dimension_estimators_agree() {
    let mut rng = StdRng::seed_from_u64(2);
    let layer = gis::parcels(
        &gis::GisLayerSpec {
            regions: 4,
            ..Default::default()
        },
        &mut rng,
    );
    // Fixed-dimension (Section 3) estimate.
    let fixed = FixedDimSampler::new(&layer.relation, 0.05).unwrap();
    assert!(diagnostics::relative_error(fixed.grid_volume(), layer.exact_area) < 0.15);
    assert!(diagnostics::relative_error(fixed.exact_volume(), layer.exact_area) < 1e-6);
    // Randomized (Section 4) estimate.
    let mut union_gen = UnionGenerator::new(&layer.relation, fast()).unwrap();
    let est = union_gen.estimate_volume(&mut rng).unwrap();
    assert!(
        diagnostics::relative_error(est, layer.exact_area) < 0.45,
        "estimate {est} vs {}",
        layer.exact_area
    );
}

#[test]
fn workload_bodies_are_observable_and_estimable() {
    let mut rng = StdRng::seed_from_u64(3);
    for d in [2usize, 3] {
        for (name, relation, exact) in polytopes::closed_form_suite(d) {
            let mut generator = UnionGenerator::new(&relation, fast()).unwrap();
            let est = generator.estimate_volume(&mut rng).unwrap();
            assert!(
                diagnostics::relative_error(est, exact) < 0.5,
                "{name} d={d}: estimate {est} vs exact {exact}"
            );
        }
    }
}

#[test]
fn batch_pipeline_from_formula_to_parallel_samples() {
    // Text formula -> relation -> batched parallel generation: the points
    // satisfy the formula and the batch is reproducible for any thread count.
    let formula = parse_formula(
        "(x0 >= 0 and x0 <= 2 and x1 >= 0 and x1 <= 1) or (x0 >= 3 and x0 <= 4 and x1 >= 0 and x1 <= 2)",
        2,
    )
    .unwrap();
    let relation = GeneralizedRelation::from_formula(2, &formula).unwrap();
    let seq = SeedSequence::new(99);
    let mut generator = UnionGenerator::new(&relation, fast()).unwrap();
    let batch = generator.sample_batch(300, &seq, 0);
    let produced: Vec<&Vec<f64>> = batch.iter().flatten().collect();
    assert!(produced.len() > 250, "too many failures");
    for p in &produced {
        assert!(
            formula.eval_f64(p, 1e-6).unwrap(),
            "violates formula: {p:?}"
        );
    }
    let mut fresh = UnionGenerator::new(&relation, fast()).unwrap();
    assert_eq!(batch, fresh.sample_batch(300, &seq, 2));
    // The batched median estimator tracks the exact area 2*1 + 1*2 = 4.
    let est = generator.estimate_volume_median(5, &seq, 0).unwrap();
    assert!(
        diagnostics::relative_error(est, 4.0) < 0.3,
        "estimate {est}"
    );
}

#[test]
fn convex_reconstruction_approximates_a_workload_polytope() {
    let mut rng = StdRng::seed_from_u64(4);
    let body = polytopes::random_hpolytope(2, 3, &mut rng);
    let reconstructor = ConvexReconstructor::new(fast(), 0.2, 0.2);
    let hull = reconstructor
        .reconstruct_tuple(&body, Some(400), &mut rng)
        .unwrap();
    let truth = body.to_hpolytope();
    let sd = symmetric_difference_volume(&[truth.clone()], &[hull]);
    let vol = polytope_volume(&truth);
    assert!(sd / vol < 0.3, "relative symmetric difference {}", sd / vol);
}

#[test]
fn projection_estimator_agrees_with_fourier_motzkin() {
    let mut rng = StdRng::seed_from_u64(5);
    // A 3-dimensional box projected onto its first two coordinates.
    let tuple = cdb_constraint::GeneralizedTuple::from_box_f64(&[0.0, 1.0, -1.0], &[2.0, 3.0, 1.0]);
    let estimator = ProjectionQueryEstimator::new(fast(), 0.2, 0.2);
    let hull = estimator
        .estimate(&tuple, &[0, 1], Some(300), &mut rng)
        .unwrap();
    let symbolic = GeneralizedRelation::from_tuple(tuple).project(&[0, 1]);
    let sd = symmetric_difference_volume(&symbolic.to_polytopes(), &[hull]);
    let exact_area = union_volume(&symbolic.to_polytopes());
    assert!((exact_area - 4.0).abs() < 1e-6);
    assert!(
        sd / exact_area < 0.3,
        "relative symmetric difference {}",
        sd / exact_area
    );
}

#[test]
fn end_to_end_query_through_the_facade() {
    let mut rng = StdRng::seed_from_u64(6);
    let mut db = SpatialDatabase::with_params(fast());
    db.insert(
        "Zone",
        GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 2.0]),
    );
    db.insert(
        "Road",
        GeneralizedRelation::from_box_f64(&[0.0, 0.8], &[2.0, 1.2]),
    );
    let query = parse_formula("Zone(x0, x1) and Road(x0, x1)", 2).unwrap();
    let exact = db.evaluate_exact(&query, 2).unwrap();
    let spec = QuerySpec::reconstruct("Zone", query.clone(), 2);
    let outcome = db.query_with_rng(&spec, &mut rng).unwrap();
    let approx = outcome.relation().unwrap();
    let exact_vol = union_volume(&exact.to_polytopes());
    assert!((exact_vol - 0.8).abs() < 1e-6);
    let sd = symmetric_difference_volume(&exact.to_polytopes(), &approx.to_polytopes());
    assert!(
        sd / exact_vol < 0.4,
        "relative symmetric difference {}",
        sd / exact_vol
    );
    // And the volume estimator on the stored relation works too.
    let spec = QuerySpec::volume("Zone", 1);
    let vol = db
        .query_with_rng(&spec, &mut rng)
        .unwrap()
        .volume()
        .unwrap();
    assert!(diagnostics::relative_error(vol, 4.0) < 0.4, "volume {vol}");
}

/// A 3-ary reconstruction hulls 2,000 samples in dimension 3. Subset
/// enumeration (about 1.3·10⁹ triples, each tested against every sample)
/// never finished it; Quickhull takes milliseconds.
#[test]
fn three_ary_reconstruction_of_a_4d_box_is_within_eps() {
    // A coarse γ-grid keeps the projection sampler's cell search short; the
    // sample count (2,000) and so the hull's work do not depend on γ.
    let params = GeneratorParams {
        gamma: 0.4,
        ..fast()
    };
    let mut db = SpatialDatabase::with_params(params);
    db.insert(
        "R",
        GeneralizedRelation::from_box_f64(&[0.0, 0.0, 0.0, 0.0], &[1.0, 0.5, 0.75, 1.0]),
    );
    let query = parse_formula("exists x3. R(x0, x1, x2, x3)", 4).unwrap();
    let exact = db.evaluate_exact(&query, 3).unwrap();
    let exact_vol = union_volume(&exact.to_polytopes());
    assert!((exact_vol - 0.375).abs() < 1e-9);
    let spec = QuerySpec::reconstruct("R", query, 3).with_seed(12);
    let outcome = db.query(&spec).unwrap();
    let approx = outcome.relation().unwrap();
    assert_eq!(approx.arity(), 3);
    let sd = symmetric_difference_volume(&exact.to_polytopes(), &approx.to_polytopes());
    assert!(
        sd <= params.eps * exact_vol,
        "symmetric difference {sd} exceeds eps of the exact volume {exact_vol}"
    );
}

#[test]
fn sat_encoding_distinguishes_satisfiable_from_unsatisfiable() {
    let mut rng = StdRng::seed_from_u64(7);
    let params = fast();

    // Satisfiable: one clause per variable, all positive -> corner box remains.
    let satisfiable = sat::CnfFormula {
        n_vars: 2,
        clauses: vec![vec![(0, true), (1, true)], vec![(0, true), (1, false)]],
    };
    assert!(satisfiable.brute_force_satisfiable());
    let relations = sat::cnf_relations(&satisfiable);
    let mut generator = IntersectionGenerator::new(&relations, params).unwrap();
    let vol = generator.estimate_volume(&mut rng);
    assert!(
        vol.is_some(),
        "satisfiable instance should admit an estimate"
    );
    assert!(vol.unwrap() > 0.0);

    // Unsatisfiable: x0 and not x0.
    let unsat = sat::CnfFormula {
        n_vars: 1,
        clauses: vec![vec![(0, true)], vec![(0, false)]],
    };
    assert!(!unsat.brute_force_satisfiable());
    let relations = sat::cnf_relations(&unsat);
    let mut generator = IntersectionGenerator::new(&relations, params).unwrap();
    assert!(generator.estimate_volume(&mut rng).is_none());
}

#[test]
fn union_generator_is_statistically_uniform_on_a_disjoint_union() {
    // Two unit squares far apart: the first coordinate of the samples,
    // folded back to [0,1], must look uniform.
    let relation = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]).union(
        &GeneralizedRelation::from_box_f64(&[10.0, 0.0], &[11.0, 1.0]),
    );
    let mut generator = UnionGenerator::new(&relation, fast()).unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    let samples = generator.sample_many(1000, &mut rng);
    assert!(samples.len() > 900);
    let folded: Vec<f64> = samples
        .iter()
        .map(|p| if p[0] > 5.0 { p[0] - 10.0 } else { p[0] })
        .collect();
    let stat = diagnostics::uniformity_chi_square(&folded, 0.0, 1.0, 8);
    assert!(
        stat < diagnostics::chi_square_loose_bound(7) * 2.0,
        "chi-square {stat}"
    );
}
