//! Concurrency and invisibility harness for the prepared-relation store.
//!
//! The store caches fully prepared generator bodies keyed by canonical
//! formula plus a digest of the exact content. These tests race mixed hit/miss/evict traffic over overlapping
//! relations from many threads and assert the headline contract: every
//! output is **bitwise identical** to a single-threaded run against a
//! *disabled* store (capacity 0, every query prepares from scratch), and
//! capacity eviction mid-flight never corrupts an in-use body.
//!
//! `CDB_STAT_QUICK=1` reduces the traffic volume for CI quick mode.

use std::collections::HashMap;
use std::sync::Arc;

use cdb_constraint::canonical::CanonicalKey;
use cdb_constraint::{Atom, GeneralizedRelation, GeneralizedTuple};
use cdb_core::{QuerySpec, SpatialDatabase};
use cdb_sampler::{GeneratorParams, SeedSequence};
use cdb_workloads::polytopes::closed_form_suite;

fn quick_mode() -> bool {
    std::env::var("CDB_STAT_QUICK").is_ok_and(|v| v != "0")
}

/// Six distinct relation contents; twelve names map onto them two-to-one so
/// hit traffic (same content, different name) is guaranteed.
fn content(i: usize) -> GeneralizedRelation {
    let x = i as f64;
    match i % 3 {
        0 => GeneralizedRelation::from_box_f64(&[x, 0.0], &[x + 1.0, 1.0]),
        1 => GeneralizedRelation::from_box_f64(&[0.0, x], &[2.0, x + 0.5]),
        _ => GeneralizedRelation::from_box_f64(&[x, x], &[x + 0.5, x + 2.0]).union(
            &GeneralizedRelation::from_box_f64(&[x + 2.0, x], &[x + 3.0, x + 1.0]),
        ),
    }
}

fn populate(db: &mut SpatialDatabase, names: usize) {
    for i in 0..names {
        db.insert(format!("R{i}"), content(i % 6));
    }
}

/// A seeded partial sample query: item `i` from `seq.item_stream(i)`, with
/// failed draws kept as `None`.
fn seeded_points(
    db: &SpatialDatabase,
    name: &str,
    n: usize,
    seq: &SeedSequence,
    threads: usize,
) -> Vec<Option<Vec<f64>>> {
    let spec = QuerySpec::sample(name, n)
        .with_seed_sequence(*seq)
        .with_threads(threads)
        .partial();
    db.query(&spec).unwrap().points().to_vec()
}

const NAMES: usize = 12;
const BATCH: usize = 16;

/// The disabled-store single-threaded reference outputs for every
/// (name, seed) cell the stress test will replay.
fn baseline(seeds: &[u64]) -> HashMap<(usize, u64), Vec<Option<Vec<f64>>>> {
    let mut db = SpatialDatabase::with_params(GeneratorParams::fast()).with_store_capacity(0);
    populate(&mut db, NAMES);
    let mut expected = HashMap::new();
    for name in 0..NAMES {
        for &seed in seeds {
            let batch = seeded_points(&db, &format!("R{name}"), BATCH, &SeedSequence::new(seed), 1);
            expected.insert((name, seed), batch);
        }
    }
    assert_eq!(db.store_stats().hits, 0, "disabled store must never hit");
    expected
}

#[test]
fn racing_threads_match_the_single_threaded_cold_run() {
    let seeds: Vec<u64> = if quick_mode() {
        vec![0xA1]
    } else {
        vec![0xA1, 0xB2]
    };
    let rounds = if quick_mode() { 2 } else { 5 };
    let expected = Arc::new(baseline(&seeds));

    // Capacity 4 over 12 names / 6 contents: every round mixes hits,
    // misses and evictions, from 8 racing threads.
    let mut db = SpatialDatabase::with_params(GeneratorParams::fast()).with_store_capacity(4);
    populate(&mut db, NAMES);
    let db = Arc::new(db);

    let handles: Vec<_> = (0..8)
        .map(|t| {
            let db = Arc::clone(&db);
            let expected = Arc::clone(&expected);
            let seeds = seeds.clone();
            std::thread::spawn(move || {
                for round in 0..rounds {
                    for step in 0..NAMES {
                        // Thread-dependent traversal order: threads disagree
                        // about which bodies are warm at any moment.
                        let name = (step * 5 + t * 7 + round) % NAMES;
                        let seed = seeds[(step + t) % seeds.len()];
                        let got = seeded_points(
                            &db,
                            &format!("R{name}"),
                            BATCH,
                            &SeedSequence::new(seed),
                            1,
                        );
                        assert_eq!(
                            &got,
                            &expected[&(name, seed)],
                            "thread {t} round {round}: R{name}/seed {seed:#x} diverged"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = db.store_stats();
    assert!(
        stats.hits > 0,
        "stress run produced no cache hits: {stats:?}"
    );
    assert!(stats.misses > 0, "stress run produced no misses: {stats:?}");
    assert!(
        stats.evictions > 0,
        "capacity 4 over 12 names must evict: {stats:?}"
    );
    assert!(stats.len <= 4, "store exceeded its capacity: {stats:?}");
}

#[test]
fn shared_content_under_different_names_hits_the_store() {
    let mut db = SpatialDatabase::with_params(GeneratorParams::fast());
    db.insert("A", content(0));
    db.insert("B", content(0)); // same content, different name
    let seq = SeedSequence::new(0xFEED);
    let a = seeded_points(&db, "A", 8, &seq, 1);
    let stats_after_a = db.store_stats();
    let b = seeded_points(&db, "B", 8, &seq, 1);
    let stats_after_b = db.store_stats();
    // Content-derived keys: B's first query reuses A's prepared body …
    assert_eq!(stats_after_a.misses, stats_after_b.misses);
    assert_eq!(stats_after_b.hits, stats_after_a.hits + 1);
    // … and identical content + identical seeds give identical output.
    assert_eq!(a, b);
}

#[test]
fn equivalent_spellings_never_attach_each_others_bodies() {
    // The triangle 0 <= y <= x <= 1 written twice: B lists A's atoms in
    // reverse order, scaled by 2. One canonical key — but each body is
    // built from its own atoms, so B must answer the same whether A
    // warmed the store first or not.
    let triangle =
        |atoms: Vec<Atom>| GeneralizedRelation::from_tuple(GeneralizedTuple::new(2, atoms));
    let a = triangle(vec![
        Atom::le_from_ints(&[-1, 0], 0),
        Atom::le_from_ints(&[1, 0], -1),
        Atom::le_from_ints(&[0, -1], 0),
        Atom::le_from_ints(&[-1, 1], 0),
    ]);
    let b = triangle(vec![
        Atom::le_from_ints(&[-2, 2], 0),
        Atom::le_from_ints(&[0, -2], 0),
        Atom::le_from_ints(&[2, 0], -2),
        Atom::le_from_ints(&[-2, 0], 0),
    ]);
    assert_eq!(CanonicalKey::of_relation(&a), CanonicalKey::of_relation(&b));
    let fresh = || {
        let mut db = SpatialDatabase::with_params(GeneratorParams::fast());
        db.insert("A", a.clone());
        db.insert("B", b.clone());
        db
    };
    let answer_b = |db: &SpatialDatabase| {
        let points = db
            .query(&QuerySpec::sample("B", 8).with_seed(9).partial())
            .unwrap();
        let volume = db.query(&QuerySpec::volume("B", 1).with_seed(9)).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let points: Vec<Option<Vec<u64>>> = points
            .points()
            .iter()
            .map(|p| p.as_deref().map(bits))
            .collect();
        (points, volume.volume().map(f64::to_bits))
    };
    let cold = answer_b(&fresh());
    let warmed = fresh();
    warmed
        .query(&QuerySpec::sample("A", 8).with_seed(9).partial())
        .unwrap();
    warmed
        .query(&QuerySpec::volume("A", 1).with_seed(9))
        .unwrap();
    assert_eq!(answer_b(&warmed), cold, "A's body answered a query on B");
    assert_eq!(answer_b(&fresh().with_store_capacity(0)), cold);
}

#[test]
fn eviction_mid_flight_never_poisons_results() {
    // Capacity 1: every switch to another relation evicts the previous
    // body. Outputs must still match the disabled-store reference.
    let mut cached = SpatialDatabase::with_params(GeneratorParams::fast()).with_store_capacity(1);
    let mut disabled = SpatialDatabase::with_params(GeneratorParams::fast()).with_store_capacity(0);
    populate(&mut cached, 4);
    populate(&mut disabled, 4);
    let seq = SeedSequence::new(0xE71C);
    for pass in 0..3 {
        for name in 0..4 {
            let id = format!("R{name}");
            let want = seeded_points(&disabled, &id, 8, &seq, 1);
            let got = seeded_points(&cached, &id, 8, &seq, 1);
            assert_eq!(got, want, "pass {pass} {id} diverged under eviction");
        }
    }
    let stats = cached.store_stats();
    assert!(stats.evictions > 0, "capacity 1 must evict: {stats:?}");
    assert_eq!(stats.len, 1);
}

#[test]
fn replacing_a_relation_invalidates_its_key() {
    let mut db = SpatialDatabase::with_params(GeneratorParams::fast());
    db.insert("R", content(0));
    let seq = SeedSequence::new(0xD0);
    let before = seeded_points(&db, "R", 8, &seq, 1);
    db.insert("R", content(1)); // replace with different content
    let after = seeded_points(&db, "R", 8, &seq, 1);
    assert_ne!(before, after, "stale prepared body served after replace");
    for p in after.iter().flatten() {
        assert!(content(1).contains_f64(p));
    }
    // Replacing back re-uses the original content's prepared body (keys are
    // content-derived) and reproduces the original output bitwise.
    db.insert("R", content(0));
    let hits_before = db.store_stats().hits;
    let again = seeded_points(&db, "R", 8, &seq, 1);
    assert_eq!(before, again);
    assert!(db.store_stats().hits > hits_before);
}

#[test]
fn closed_form_suite_keys_never_collide() {
    // Satellite guard for the canonicalization pass: semantically distinct
    // closed-form bodies must keep distinct cache keys, across dimensions.
    // (Dimension 1 is excluded from the distinctness sweep because the cube
    // and the cross-polytope genuinely coincide there — both are [-1, 1] —
    // and the canonical pass is *supposed* to merge them; asserted below.)
    let suite_1d = closed_form_suite(1);
    assert_eq!(
        CanonicalKey::of_relation(&suite_1d[0].1),
        CanonicalKey::of_relation(&suite_1d[2].1),
        "1-d cube and cross-polytope are the same set and must share a key"
    );
    let mut keys: Vec<(String, CanonicalKey)> = Vec::new();
    for dim in 2..=4 {
        for (name, relation, _volume) in closed_form_suite(dim) {
            keys.push((
                format!("{name}/d{dim}"),
                CanonicalKey::of_relation(&relation),
            ));
        }
    }
    for i in 0..keys.len() {
        for j in (i + 1)..keys.len() {
            assert_ne!(
                keys[i].1, keys[j].1,
                "key collision between {} and {}",
                keys[i].0, keys[j].0
            );
        }
    }
}
