//! Proof that the walk engine's polytope fast path is allocation-free: a
//! counting `GlobalAlloc` shim wraps the system allocator and the test
//! asserts that thousands of accepted hit-and-run steps perform **zero**
//! heap allocations once the [`WalkScratch`] workspace is warmed up. A
//! second test pins the per-query costs around a draw: attaching a prepared
//! union generator and its compiled `j(x)` test allocate nothing that grows
//! with the body.
//!
//! The shim is the one place in the workspace that needs `unsafe` (a
//! `GlobalAlloc` impl cannot be written without it); the library crates all
//! keep `#![forbid(unsafe_code)]`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cdb_constraint::{CompiledRelation, GeneralizedRelation};
use cdb_geometry::HPolytope;
use cdb_sampler::walk::{ball_walk_step, hit_and_run_step, WalkScratch};
use cdb_sampler::{
    ConvexBody, DfkSampler, GeneratorParams, RelationGenerator, SeedSequence, UnionGenerator,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts every allocation and reallocation served to the *current thread*.
/// Per-thread (const-initialized `thread_local`, so the counter itself never
/// allocates and has no destructor): the libtest harness runs its own
/// bookkeeping threads whose allocations must not leak into the measured
/// windows.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns the number of heap allocations the current thread
/// performed inside it.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    (after - before, out)
}

/// The walk scenarios share one test function and run sequentially; the
/// counter is per thread, so the attach test below can run beside it.
#[test]
fn walk_steps_are_allocation_free() {
    hit_and_run_scenario();
    ball_walk_scenario();
    telescoping_ball_intersection_scenario();
    dfk_sampler_scenario();
}

fn hit_and_run_scenario() {
    let polytope = HPolytope::hypercube(6, 1.0);
    let body = ConvexBody::from_polytope(&polytope).expect("hypercube is well-bounded");
    let mut rng = StdRng::seed_from_u64(42);
    let mut scratch = WalkScratch::new();
    scratch.begin(&body, body.center());

    // Warm up: a few steps to fault in any lazily allocated buffers.
    for _ in 0..64 {
        hit_and_run_step(&body, &mut scratch, &mut rng);
    }

    let mut accepted = 0usize;
    let (allocs, ()) = allocations_during(|| {
        // Far more than WalkScratch::REFRESH_PERIOD accepted steps, so the
        // periodic residual recompute is counted too.
        for _ in 0..5000 {
            if hit_and_run_step(&body, &mut scratch, &mut rng) {
                accepted += 1;
            }
        }
    });
    assert!(accepted > 2500, "hit-and-run barely moved: {accepted}");
    assert!(
        accepted > WalkScratch::REFRESH_PERIOD,
        "window too small to cover a refresh: {accepted}"
    );
    assert_eq!(
        allocs, 0,
        "polytope hit-and-run fast path allocated {allocs} times over {accepted} accepted steps"
    );
}

fn ball_walk_scenario() {
    let polytope = HPolytope::hypercube(4, 1.0);
    let body = ConvexBody::from_polytope(&polytope).expect("hypercube is well-bounded");
    let delta = body.r_inf() / (body.dim() as f64).sqrt();
    let mut rng = StdRng::seed_from_u64(7);
    let mut scratch = WalkScratch::new();
    scratch.begin(&body, body.center());
    for _ in 0..64 {
        ball_walk_step(&body, &mut scratch, delta, &mut rng);
    }
    let (allocs, ()) = allocations_during(|| {
        for _ in 0..2000 {
            ball_walk_step(&body, &mut scratch, delta, &mut rng);
        }
    });
    assert_eq!(allocs, 0, "ball walk allocated {allocs} times");
}

fn telescoping_ball_intersection_scenario() {
    // The volume estimator walks K ∩ B(c, r): the wrapped oracle must stay on
    // the incremental path.
    let polytope = HPolytope::hypercube(5, 1.0);
    let body = ConvexBody::from_polytope(&polytope).expect("hypercube is well-bounded");
    let shrunk = body.intersect_ball(0.9 * body.r_sup());
    let mut rng = StdRng::seed_from_u64(11);
    let mut scratch = WalkScratch::new();
    scratch.begin(&shrunk, shrunk.center());
    for _ in 0..64 {
        hit_and_run_step(&shrunk, &mut scratch, &mut rng);
    }
    let (allocs, ()) = allocations_during(|| {
        for _ in 0..2000 {
            hit_and_run_step(&shrunk, &mut scratch, &mut rng);
        }
    });
    assert_eq!(allocs, 0, "ball-intersection walk allocated {allocs} times");
}

fn dfk_sampler_scenario() {
    // A warmed-up sampler walks on its own scratch: one draw allocates its
    // returned point and nothing per step, so an eight times longer walk
    // allocates exactly as often.
    let polytope = HPolytope::hypercube(6, 1.0);
    let draw_cost = |walk_steps_factor: usize| {
        let body = ConvexBody::from_polytope(&polytope).expect("hypercube is well-bounded");
        let params = GeneratorParams {
            walk_steps_factor,
            ..GeneratorParams::fast()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut sampler = DfkSampler::new(body, params, &mut rng);
        assert!(sampler.sample(&mut rng).is_some(), "warm-up draw failed");
        let (allocs, point) = allocations_during(|| sampler.sample(&mut rng));
        assert!(point.is_some());
        allocs
    };
    let (short, long) = (draw_cost(8), draw_cost(64));
    assert_eq!(
        short, long,
        "a DFK draw allocates per walk step: {short} allocations at 48 steps, {long} at 384"
    );
}

/// `m` disjoint unit squares in a row: an `m`-tuple union.
fn row_of_squares(m: usize) -> GeneralizedRelation {
    (1..m).fold(
        GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]),
        |rel, i| {
            let x = 2.0 * i as f64;
            rel.union(&GeneralizedRelation::from_box_f64(
                &[x, 0.0],
                &[x + 1.0, 1.0],
            ))
        },
    )
}

#[test]
fn attach_and_j_of_x_allocate_nothing_per_body() {
    let seq = SeedSequence::new(5);
    let attach_cost = |m: usize| {
        let mut prepared = UnionGenerator::new(&row_of_squares(m), GeneratorParams::fast())
            .expect("squares are observable");
        prepared.prepare(&seq);
        let (allocs, attached) = allocations_during(|| prepared.clone());
        // Two attached copies share one body, and a draw on a prepared body
        // never writes to it, so it stays shared.
        let mut other = prepared.clone();
        assert!(attached.shares_body_with(&other));
        assert!(other.sample(&mut seq.item_stream(0).rng()).is_some());
        assert!(attached.shares_body_with(&other));
        assert!(attached.shares_body_with(&prepared));
        allocs
    };
    let (small, large) = (attach_cost(2), attach_cost(16));
    assert_eq!(
        small, large,
        "attach allocates per tuple: {small} vs {large}"
    );
    assert_eq!(small, 0, "attach allocated {small} times");

    // An unprepared body is initialized on first use: the copy that does it
    // gets its own body and leaves the other copy's untouched.
    let fresh = UnionGenerator::new(&row_of_squares(2), GeneratorParams::fast()).unwrap();
    let mut initialized = fresh.clone();
    assert!(initialized.sample(&mut seq.item_stream(1).rng()).is_some());
    assert!(!initialized.shares_body_with(&fresh));
    assert!(fresh.component_volumes().is_empty());
    assert_eq!(initialized.component_volumes().len(), 2);

    // The compiled j(x) test evaluates precompiled rows in place.
    let compiled = CompiledRelation::new(&row_of_squares(16));
    let points: Vec<[f64; 2]> = (0..64).map(|i| [i as f64 * 0.5, 0.5]).collect();
    let (allocs, hits) = allocations_during(|| {
        points
            .iter()
            .filter(|p| compiled.first_containing(&p[..], 1e-9).is_some())
            .count()
    });
    assert!(hits > 0);
    assert_eq!(allocs, 0, "compiled j(x) allocated {allocs} times");
}
