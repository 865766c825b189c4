//! Set reconstruction of a positive existential query (Section 4.3): compare
//! the sampling-based estimator (Algorithms 3-5) against the symbolic
//! Fourier–Motzkin pipeline, both in answer quality (symmetric-difference
//! volume) and in wall-clock time.
//!
//! Run with `cargo run --release --example query_reconstruction`.

use std::time::Instant;

use cdb_constraint::{parse_formula, GeneralizedRelation};
use cdb_core::{QuerySpec, SpatialDatabase};
use cdb_geometry::volume::{symmetric_difference_volume, union_volume};
use cdb_sampler::GeneratorParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(3);

    // Two relations in the plane; the query joins them through a shared
    // existential variable, the shape discussed in Section 4.3.2.
    let mut db = SpatialDatabase::with_params(GeneratorParams::default());
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

    // Ψ(x0, x1) = ∃ x2 . (R1(x0, x2) ∧ R2(x2, x1)) ∨ R4(x0, x1)
    let query = parse_formula("(exists x2. R1(x0, x2) and R2(x2, x1)) or R4(x0, x1)", 3)
        .expect("valid query");
    println!("query: {query}");

    // Symbolic baseline: quantifier elimination + DNF.
    let t0 = Instant::now();
    let exact = db
        .evaluate_exact(&query, 2)
        .expect("symbolic evaluation succeeds");
    let symbolic_time = t0.elapsed();
    let exact_volume = union_volume(&exact.to_polytopes());

    // Sampling-based reconstruction.
    let t1 = Instant::now();
    let outcome = db
        .query_with_rng(&QuerySpec::reconstruct("query", query.clone(), 2), &mut rng)
        .expect("reconstruction succeeds");
    let approx = outcome
        .relation()
        .expect("a reconstruction holds a relation");
    let sampling_time = t1.elapsed();

    let sd = symmetric_difference_volume(&exact.to_polytopes(), &approx.to_polytopes());
    println!(
        "\nexact result      : {} convex piece(s), volume {exact_volume:.3}",
        exact.tuples().len()
    );
    println!(
        "reconstruction    : {} convex piece(s)",
        approx.tuples().len()
    );
    println!(
        "symmetric difference volume: {sd:.3} ({:.1}% of the exact volume)",
        100.0 * sd / exact_volume
    );
    println!("symbolic evaluation time   : {symbolic_time:?}");
    println!("sampling reconstruction time: {sampling_time:?}");

    println!("\nspot checks:");
    for probe in [[1.0, 1.0], [3.5, 0.5], [2.5, 0.5], [0.2, 1.9]] {
        println!(
            "  {:?}: exact = {:5}, reconstructed = {:5}",
            probe,
            exact.contains_f64(&probe),
            approx.contains_f64(&probe)
        );
    }
}
