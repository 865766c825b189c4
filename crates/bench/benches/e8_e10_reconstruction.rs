//! E8 — Lemma 4.1: the convex hull of N almost-uniform samples approximates
//! the sampled polytope; the symmetric-difference error shrinks with N.
//! E10 — Theorem 4.4 / Algorithms 4–5: guaranteed (ε,δ)-estimation of
//! positive existential queries (the ∃z (R1∧R2) ∨ R4 workload of §4.3.2).

use cdb_bench::{experiment_criterion, rng};
use cdb_constraint::{parse_formula, GeneralizedRelation, GeneralizedTuple};
use cdb_core::{QuerySpec, SpatialDatabase};
use cdb_geometry::volume::{polytope_volume, symmetric_difference_volume, union_volume};
use cdb_reconstruct::ConvexReconstructor;
use cdb_sampler::GeneratorParams;
use criterion::{black_box, Criterion};

fn e8_hull_reconstruction(c: &mut Criterion) {
    let params = GeneratorParams::fast();
    let reconstructor = ConvexReconstructor::new(params, 0.2, 0.2);
    let mut group = c.benchmark_group("e8_hull_reconstruction");
    let square = GeneralizedTuple::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]);
    let truth = square.to_hpolytope();
    let exact = polytope_volume(&truth);
    for n in [50usize, 200, 800] {
        let mut r = rng(800 + n as u64);
        let hull = reconstructor
            .reconstruct_tuple(&square, Some(n), &mut r)
            .expect("square is observable");
        let sd = symmetric_difference_volume(&[truth.clone()], &[hull]);
        eprintln!(
            "[E8] N={n}: symmetric_difference={sd:.4} ({:.2}% of the exact volume)",
            100.0 * sd / exact
        );
        group.bench_function(format!("hull_of_{n}_samples"), |b| {
            b.iter(|| black_box(reconstructor.reconstruct_tuple(&square, Some(n), &mut r)))
        });
    }
    group.finish();
}

fn e10_positive_queries(c: &mut Criterion) {
    let params = GeneratorParams::fast();
    let mut group = c.benchmark_group("e10_positive_queries");
    let mut db = SpatialDatabase::with_params(params);
    db.insert(
        "R1",
        GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 1.5]),
    );
    db.insert(
        "R2",
        GeneralizedRelation::from_box_f64(&[0.5, 0.0], &[2.0, 2.0]),
    );
    db.insert(
        "R4",
        GeneralizedRelation::from_box_f64(&[3.0, 0.0], &[4.0, 1.0]),
    );
    let query = parse_formula("(exists x2. R1(x0, x2) and R2(x2, x1)) or R4(x0, x1)", 3)
        .expect("valid query");

    let exact = db.evaluate_exact(&query, 2).expect("symbolic evaluation");
    let exact_volume = union_volume(&exact.to_polytopes());
    let mut r = rng(1000);
    let spec = QuerySpec::reconstruct("query", query.clone(), 2);
    let outcome = db
        .query_with_rng(&spec, &mut r)
        .expect("reconstruction succeeds");
    let approx = outcome
        .relation()
        .expect("a reconstruction holds a relation");
    let sd = symmetric_difference_volume(&exact.to_polytopes(), &approx.to_polytopes());
    eprintln!(
        "[E10] section 4.3.2 query: exact_volume={exact_volume:.4} pieces_exact={} pieces_approx={} \
         symmetric_difference={sd:.4} ({:.2}%)",
        exact.tuples().len(),
        approx.tuples().len(),
        100.0 * sd / exact_volume
    );

    group.bench_function("symbolic_evaluation", |b| {
        b.iter(|| black_box(db.evaluate_exact(&query, 2)))
    });
    group.bench_function("sampling_reconstruction", |b| {
        b.iter(|| black_box(db.query_with_rng(&spec, &mut r)))
    });
    group.finish();
}

fn main() {
    let mut criterion = experiment_criterion();
    e8_hull_reconstruction(&mut criterion);
    e10_positive_queries(&mut criterion);
    criterion.final_summary();
}
