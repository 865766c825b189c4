//! Contract of the memoized compensation-weight subsystem: the cache is
//! *invisible* to the output stream.
//!
//! The cylinder weight of a γ-grid cell is a pure function of the cell (and,
//! for the estimated strategy, of the generator's weight seed), so a
//! generator with memoization enabled, bounded, or disabled must produce
//! bitwise identical trajectories from the same seeds — hits and misses
//! differ only in cost. These tests pin that contract for both fill
//! strategies, the auto strategy resolution, and the clone semantics the
//! batch workers rely on.
//!
//! Every generator in this file is built directly, so its weight cache and
//! selector are *private* — equivalent to running against a disabled
//! prepared store. Sharing a prepared generator is covered at the end: an
//! attached clone shares the stratified selector and never allocates the
//! weight memo.

use cdb_sampler::{
    CellSelection, FiberVolume, GeneratorParams, ProjectionGenerator, ProjectionParams,
    RelationGenerator, RelationVolumeEstimator, SeedSequence,
};
use cdb_workloads::projection::{deep_cone, deep_cone_fiber_volume};
use rand::rngs::StdRng;
use rand::SeedableRng;

use cdb_constraint::{Atom, GeneralizedTuple};

/// The Figure-1 triangle `0 ≤ x ≤ 1, 0 ≤ y ≤ x`.
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

fn base_params() -> GeneratorParams {
    GeneratorParams {
        gamma: 0.05,
        ..GeneratorParams::fast()
    }
}

/// Builds the triangle projection generator under the given weight params,
/// from a fixed constructor seed.
fn generator_with(params: ProjectionParams) -> ProjectionGenerator {
    let mut rng = StdRng::seed_from_u64(4242);
    ProjectionGenerator::new_with(&figure1_triangle(), &[0], params, &mut rng).unwrap()
}

/// Draws a fixed sequential stream and returns the raw bits of every sample.
fn sample_bits(generator: &mut ProjectionGenerator, n: usize) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(999);
    generator
        .sample_many(n, &mut rng)
        .into_iter()
        .map(|p| p.iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn exact_strategy_is_cache_invariant_bitwise() {
    // Pinned to the rejection loop: this is the compensation hot path whose
    // cache the test has always gated (the default now resolves to
    // stratified selection, covered by its own invariance tests below).
    let base = ProjectionParams::new(base_params()).with_cell_selection(CellSelection::Rejection);
    let mut cached = generator_with(base);
    let mut tiny = generator_with(base.with_cache_capacity(8));
    let mut uncached = generator_with(base.with_cache_capacity(0));
    assert_eq!(cached.resolved_fiber_volume(), FiberVolume::Exact);

    let a = sample_bits(&mut cached, 150);
    let b = sample_bits(&mut tiny, 150);
    let c = sample_bits(&mut uncached, 150);
    assert!(!a.is_empty());
    assert_eq!(a, b, "a capacity-bounded cache changed the trajectory");
    assert_eq!(a, c, "disabling the cache changed the trajectory");

    // The contract is not vacuous: the full cache actually memoized.
    assert!(cached.weight_cache().hits() > 0, "cache never hit");
    assert!(
        !uncached.weight_cache().is_enabled(),
        "capacity 0 must disable the cache"
    );
}

#[test]
fn estimated_strategy_is_cache_invariant_bitwise() {
    let base = ProjectionParams::new(base_params())
        .with_fiber_volume(FiberVolume::Estimated)
        .with_cell_selection(CellSelection::Rejection);
    let mut cached = generator_with(base);
    let mut uncached = generator_with(base.with_cache_capacity(0));
    assert_eq!(cached.resolved_fiber_volume(), FiberVolume::Estimated);

    let a = sample_bits(&mut cached, 60);
    let b = sample_bits(&mut uncached, 60);
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "estimated weights must be pure functions of the cell: caching them \
         may never change the stream"
    );
    assert!(cached.weight_cache().hits() > 0);
}

#[test]
fn warm_clones_draw_the_same_stream_as_cold_generators() {
    // Batch workers clone a (possibly warmed) generator; a warm cache must
    // not shift the worker's stream. Pinned to the rejection loop, the
    // selection that fills through the memo.
    let params = ProjectionParams::new(base_params()).with_cell_selection(CellSelection::Rejection);
    let mut original = generator_with(params);
    let _ = sample_bits(&mut original, 100); // warm the cache
    assert!(original.weight_cache().len() > 0);
    let mut warm_clone = original.clone();
    let mut cold = generator_with(params);
    assert_eq!(
        sample_bits(&mut warm_clone, 80),
        sample_bits(&mut cold, 80),
        "a warmed clone diverged from a cold generator"
    );
}

#[test]
fn batch_and_sequential_weights_agree_across_thread_counts() {
    // End-to-end: the default projection path (cache on) is thread-count
    // invariant, including the estimated strategy.
    for mode in [FiberVolume::Exact, FiberVolume::Estimated] {
        let params = ProjectionParams::new(base_params()).with_fiber_volume(mode);
        let seq = SeedSequence::new(0xFEED);
        let baseline = generator_with(params).sample_batch(48, &seq, 1);
        for threads in [2usize, 8] {
            assert_eq!(
                baseline,
                generator_with(params).sample_batch(48, &seq, threads),
                "{mode:?}: sample_batch differs at {threads} threads"
            );
        }
        assert!(baseline.iter().filter(|p| p.is_some()).count() > 24);
    }
}

#[test]
fn auto_strategy_resolves_by_fiber_dimension() {
    let mut rng = StdRng::seed_from_u64(7);
    let shallow = ProjectionGenerator::new(&deep_cone(4), &[0], base_params(), &mut rng).unwrap();
    assert_eq!(shallow.fiber_dim(), 3);
    assert_eq!(shallow.resolved_fiber_volume(), FiberVolume::Exact);

    // Fiber dimension 9: C(20, 9) ≈ 168k vertex-enumeration bases per
    // weight — auto must pick the estimator.
    let deep = ProjectionGenerator::new(&deep_cone(10), &[0], base_params(), &mut rng).unwrap();
    assert_eq!(deep.fiber_dim(), 9);
    assert_eq!(deep.resolved_fiber_volume(), FiberVolume::Estimated);
}

#[test]
fn estimated_weights_track_the_closed_form_on_the_deep_cone() {
    // The deep cone's fiber above x0 = t is [0, t]^{d−1} with volume
    // t^{d−1}: the estimated weight of a cell must land within the
    // telescoping estimator's (loose, seeded) error of the closed form.
    let d = 10usize;
    let mut rng = StdRng::seed_from_u64(11);
    let mut generator =
        ProjectionGenerator::new(&deep_cone(d), &[0], base_params(), &mut rng).unwrap();
    assert_eq!(generator.resolved_fiber_volume(), FiberVolume::Estimated);
    let step = generator.grid().step();
    let cell = step.powi(d as i32 - 1);
    for t in [0.4f64, 0.8] {
        let snapped = (t / step).round() * step;
        let expected = (deep_cone_fiber_volume(d, snapped) / cell).max(1.0);
        let got = generator.compensation_weight(&[t]);
        let ratio = got / expected;
        assert!(
            (0.2..5.0).contains(&ratio),
            "estimated weight at t = {t}: got {got:.3e}, closed form {expected:.3e} \
             (ratio {ratio:.2})"
        );
        // And the memo returns the exact same bits on the next probe.
        assert_eq!(generator.compensation_weight(&[t]).to_bits(), got.to_bits());
    }
}

#[test]
fn volume_estimates_are_cache_invariant() {
    let base = ProjectionParams::new(base_params());
    let seq = SeedSequence::new(0xAB);
    let with_cache = generator_with(base).estimate_volume_batch(4, &seq, 0);
    let without = generator_with(base.with_cache_capacity(0)).estimate_volume_batch(4, &seq, 0);
    assert_eq!(with_cache, without);
    assert!(with_cache.iter().all(|v| v.is_some()));
}

#[test]
fn stratified_output_is_cache_state_invariant_bitwise() {
    // The stratified selector fills every candidate cell exactly once with
    // the same weight the rejection loop memoizes; its weights are pure
    // functions of the cell, so the cache capacity must leave the alias
    // table — and with it every emitted bit — unchanged.
    let base = ProjectionParams::new(base_params()).with_cell_selection(CellSelection::Stratified);
    let mut warm = generator_with(base);
    let mut tiny = generator_with(base.with_cache_capacity(8));
    let mut disabled = generator_with(base.with_cache_capacity(0));
    assert_eq!(warm.resolved_cell_selection(), CellSelection::Stratified);

    let a = sample_bits(&mut warm, 150);
    let b = sample_bits(&mut tiny, 150);
    let c = sample_bits(&mut disabled, 150);
    assert_eq!(a.len(), 150, "stratified draws never fail");
    assert_eq!(
        a, b,
        "a capacity-bounded cache changed the stratified stream"
    );
    assert_eq!(a, c, "disabling the cache changed the stratified stream");

    // A warmed clone (cache + built selector) agrees with a cold build.
    let mut warm_clone = warm.clone();
    let mut cold = generator_with(base);
    assert_eq!(
        sample_bits(&mut warm_clone, 80),
        sample_bits(&mut cold, 80),
        "a warmed stratified clone diverged from a cold generator"
    );
}

#[test]
fn coarse_to_fine_output_is_cache_state_invariant_bitwise() {
    // Same contract for the cascade, whose fine tables are *built lazily
    // per visited coarse cell* — laziness must be as invisible as the
    // weight cache itself.
    let base = ProjectionParams::new(base_params())
        .with_cell_selection(CellSelection::CoarseToFine)
        .with_max_enumerated_cells(16);
    let mut warm = generator_with(base);
    let mut disabled = generator_with(base.with_cache_capacity(0));
    assert_eq!(warm.resolved_cell_selection(), CellSelection::CoarseToFine);

    let a = sample_bits(&mut warm, 120);
    let b = sample_bits(&mut disabled, 120);
    assert!(a.len() > 100, "cascade rejected too much: {}", a.len());
    assert_eq!(a, b, "disabling the cache changed the cascade stream");
}

#[test]
fn stratified_batches_are_thread_count_invariant() {
    for (selection, budget) in [
        (CellSelection::Stratified, 1usize << 16),
        (CellSelection::CoarseToFine, 16),
    ] {
        let params = ProjectionParams::new(base_params())
            .with_cell_selection(selection)
            .with_max_enumerated_cells(budget);
        let seq = SeedSequence::new(0xF00D);
        let baseline = generator_with(params).sample_batch(48, &seq, 1);
        for threads in [2usize, 8, 0] {
            assert_eq!(
                baseline,
                generator_with(params).sample_batch(48, &seq, threads),
                "{selection:?}: sample_batch differs at {threads} threads"
            );
        }
        assert!(baseline.iter().filter(|p| p.is_some()).count() > 40);
    }
}

#[test]
fn rejection_and_stratified_volumes_agree_on_the_triangle() {
    // The projection of the triangle onto x has length exactly 1. The
    // rejection estimator is a Monte-Carlo (ε, δ) estimate; the stratified
    // estimate is a deterministic Riemann sum at grid resolution. Both must
    // land inside the (loose, seeded) ε-band around the truth — and
    // therefore within the combined budget of each other.
    let mut rng = StdRng::seed_from_u64(0x7E57);
    let rejection =
        ProjectionParams::new(base_params()).with_cell_selection(CellSelection::Rejection);
    let mut gen_rej = generator_with(rejection);
    let v_rej = gen_rej.estimate_volume(&mut rng).unwrap();
    let stratified =
        ProjectionParams::new(base_params()).with_cell_selection(CellSelection::Stratified);
    let mut gen_str = generator_with(stratified);
    let v_str = gen_str.estimate_volume(&mut rng).unwrap();
    assert!((v_rej - 1.0).abs() < 0.45, "rejection volume {v_rej}");
    assert!((v_str - 1.0).abs() < 0.05, "stratified volume {v_str}");
    assert!(
        (v_rej - v_str).abs() < 0.5,
        "strategies disagree: rejection {v_rej} vs stratified {v_str}"
    );
}

// ---------------------------------------------------------------------------
// Prepared generators: what an attached copy shares and what it holds
// ---------------------------------------------------------------------------

#[test]
fn attached_clones_share_the_stratified_selector() {
    let proj = ProjectionParams::new(base_params()).with_cell_selection(CellSelection::Stratified);
    let mut prepared = generator_with(proj);
    prepared.prepare(&SeedSequence::new(1));
    let mut attached = prepared.clone();
    let shared: *const _ = prepared.stratified_cells().expect("occupied cells");
    // Same allocation behind both copies' `Arc`: the clone bumped a count.
    assert!(std::ptr::eq(
        shared,
        attached.stratified_cells().expect("occupied cells")
    ));
    // And it draws the stream a cold generator draws.
    let mut cold = generator_with(proj);
    assert_eq!(sample_bits(&mut attached, 64), sample_bits(&mut cold, 64));
}

#[test]
fn a_prepared_stratified_piece_holds_no_weight_slots() {
    let mut prepared = generator_with(ProjectionParams::new(base_params()));
    assert_eq!(
        prepared.resolved_cell_selection(),
        CellSelection::Stratified
    );
    prepared.prepare(&SeedSequence::new(1));
    let _ = sample_bits(&mut prepared, 32);
    assert!(prepared.weight_cache().is_enabled());
    assert_eq!(prepared.weight_cache().allocated_slots(), 0);
    assert_eq!(
        prepared.weight_cache().misses(),
        0,
        "a fill probed the memo"
    );
}

/// The selector as it was stored before cells became `u32` indices: every
/// occupied key as a `Vec<i64>` in odometer order, and an alias table over
/// their `min(raw, 1)` weights.
fn reference_layout(generator: &mut ProjectionGenerator) -> (Vec<Vec<i64>>, Vec<f64>) {
    let range = generator.cell_range().expect("a proper projection").clone();
    let grid = generator.grid().clone();
    let mut all = Vec::new();
    range.for_each_key(|k| all.push(k.to_vec()));
    let mut keys = Vec::new();
    let mut weights = Vec::new();
    for key in all {
        let center: Vec<f64> = key.iter().map(|&k| grid.coord_at(k)).collect();
        let w = generator.cell_mass(&center).min(1.0);
        if w > 0.0 {
            keys.push(key);
            weights.push(w);
        }
    }
    (keys, weights)
}

#[test]
fn compact_cells_draw_the_keys_of_the_vec_layout() {
    let unit_box = GeneralizedTuple::from_box_f64(&[-0.5, 0.25, 0.0], &[0.75, 1.0, 0.5]);
    // The box runs on a coarser grid (γ = 0.2) to stay within the default
    // enumeration budget.
    for (label, tuple, keep, gamma) in [
        ("figure-1 triangle", figure1_triangle(), vec![0], 0.05),
        ("3-D box", unit_box, vec![0, 1], 0.2),
    ] {
        let proj = ProjectionParams::new(GeneratorParams {
            gamma,
            ..base_params()
        })
        .with_cell_selection(CellSelection::Stratified);
        let build = || {
            let mut rng = StdRng::seed_from_u64(4242);
            ProjectionGenerator::new_with(&tuple, &keep, proj, &mut rng).unwrap()
        };
        let (keys, weights) = reference_layout(&mut build());
        let table = cdb_sampler::AliasTable::new(&weights).expect("occupied cells");

        let mut generator = build();
        let cells = generator.stratified_cells().expect("occupied cells");
        assert_eq!(cells.keys(), keys, "{label}: occupied cells differ");
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(cells.weights()), bits(&weights), "{label}: weights");
        let (mut old_rng, mut new_rng) = (StdRng::seed_from_u64(77), StdRng::seed_from_u64(77));
        let mut key = Vec::new();
        for draw in 0..2000 {
            cells.sample_key_into(&mut new_rng, &mut key);
            assert_eq!(
                key,
                keys[table.sample(&mut old_rng)],
                "{label}: draw {draw} differs"
            );
        }
    }
}
