//! Quickstart: build a small spatial constraint database, sample it, estimate
//! volumes and run one approximate query.
//!
//! Run with `cargo run --release --example quickstart`.

use cdb_constraint::{parse_formula, GeneralizedRelation};
use cdb_core::{QuerySpec, SpatialDatabase};
use cdb_sampler::GeneratorParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // A database with two layers: a zone (union of two rectangles) and a park.
    let mut db = SpatialDatabase::with_params(GeneratorParams::default());
    let zone = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[4.0, 2.0])
        .union(&GeneralizedRelation::from_box_f64(&[3.0, 0.0], &[6.0, 3.0]));
    let park = GeneralizedRelation::from_box_f64(&[1.0, 0.5], &[5.0, 1.5]);
    db.insert("Zone", zone.clone());
    db.insert("Park", park);

    // 1. Almost-uniform generation (Definition 2.2 / Algorithm 1).
    let sample = db
        .query_with_rng(&QuerySpec::sample("Zone", 5).partial(), &mut rng)
        .expect("Zone is observable");
    let points: Vec<&Vec<f64>> = sample.points().iter().flatten().collect();
    println!("five almost-uniform points of Zone:");
    for p in points.iter().copied() {
        println!(
            "  ({:.3}, {:.3})  inside = {}",
            p[0],
            p[1],
            zone.contains_f64(p)
        );
    }
    // Smoke check: generation produced the requested points and every one of
    // them actually lies in the relation.
    assert_eq!(points.len(), 5);
    assert!(
        points.iter().all(|p| zone.contains_f64(p)),
        "sample escaped the zone"
    );

    // 1b. The same generation through the parallel batch API: one seed tree,
    //     one child stream per point, fanned out over all cores — and the
    //     result is bitwise identical for any thread count.
    let spec = QuerySpec::sample("Zone", 200).with_seed(7).partial();
    let batch = db.query(&spec).expect("Zone is observable");
    let produced = batch.completed;
    println!("batch of 200 points over all cores: {produced} produced");
    assert!(produced > 150, "too many batch failures");
    assert_eq!(
        batch.points(),
        db.query(&spec.with_threads(1)).unwrap().points(),
        "batch output must not depend on the thread count"
    );

    // 2. Volume estimation (Theorem 4.2). The exact area is 4*2 + 3*3 - 1*2 = 15.
    let volume = db
        .query_with_rng(&QuerySpec::volume("Zone", 1), &mut rng)
        .expect("Zone is observable")
        .volume()
        .expect("a fail-fast volume query holds its estimate");
    println!("estimated area of Zone : {volume:.2}   (exact: 15.00)");
    assert!(
        (volume - 15.0).abs() < 0.5 * 15.0,
        "volume estimate {volume} is not within 50% of the exact area 15"
    );

    // 3. An approximate query: the part of the zone covered by the park,
    //    reconstructed from samples (Theorem 4.4), next to the exact symbolic
    //    answer computed with quantifier elimination.
    let query = parse_formula("Zone(x0, x1) and Park(x0, x1)", 2).expect("valid query");
    let exact = db.evaluate_exact(&query, 2).expect("symbolic evaluation");
    let outcome = db
        .query_with_rng(&QuerySpec::reconstruct("query", query, 2), &mut rng)
        .expect("approximate evaluation");
    let approx = outcome
        .relation()
        .expect("a reconstruction holds a relation");
    println!(
        "query 'Zone ∩ Park': exact answer has {} convex piece(s), reconstruction has {}",
        exact.tuples().len(),
        approx.tuples().len()
    );
    for probe in [[2.0, 1.0], [0.5, 1.8], [5.5, 2.5]] {
        println!(
            "  probe {:?}: exact = {}, reconstructed = {}",
            probe,
            exact.contains_f64(&probe),
            approx.contains_f64(&probe)
        );
    }
    // Smoke check: the symbolic answer classifies the probes correctly
    // (the intersection is [1,5]x[0.5,1.5] clipped to the zone).
    assert!(exact.contains_f64(&[2.0, 1.0]));
    assert!(!exact.contains_f64(&[0.5, 1.8]));
    assert!(!exact.contains_f64(&[5.5, 2.5]));
    println!("quickstart OK");
}
