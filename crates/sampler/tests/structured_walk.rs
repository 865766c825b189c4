//! Bitwise-equivalence gates for the structure-aware constraint kernels.
//!
//! The `ConstraintMatrix` representations (axis-aligned, CSR, dense) are a
//! pure performance choice: the structured kernels replicate the dense
//! 4-accumulator summation order exactly (see the reproducibility notes in
//! `cdb_linalg::kernels`), so switching a polytope between its detected
//! representation and [`HPolytope::force_dense`] must never change a single
//! bit of any matvec, chord interval, or sampled point. These properties
//! pin that contract on randomly generated structured polytopes from
//! `cdb_workloads::structured` — the exact bodies the perf report's
//! structured rows measure — for:
//!
//! * the raw `A·x` matrix–vector products,
//! * closed-form and incremental-state chord intervals on random lines,
//! * whole hit-and-run trajectories and `DfkSampler` point streams.

use cdb_geometry::HPolytope;
use cdb_sampler::walk::{random_direction, walk, WalkScratch};
use cdb_sampler::{
    ConvexBody, DfkSampler, GeneratorParams, MembershipOracle, RelationGenerator, WalkKind,
};
use cdb_workloads::structured;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The three structured families, keyed by a proptest-chosen seed. Returns
/// the detected-representation polytope plus its expected kind.
fn structured_polytope(family: u8, dim: usize, seed: u64) -> (HPolytope, &'static str) {
    let mut rng = StdRng::seed_from_u64(seed);
    match family % 3 {
        0 => {
            let (p, _vol) = structured::box_stack(dim, 1 + (seed % 3) as usize, 0.5, &mut rng);
            (p, "axis")
        }
        1 => (
            structured::banded_overlay(dim.max(8), 0.5, &mut rng),
            "sparse",
        ),
        _ => (
            structured::sat_sparse_system(dim.max(8), 2 * dim, 3, 0.1, &mut rng),
            "sparse",
        ),
    }
}

/// An interior point: the polytope families are all built around the box
/// center, which their generators keep strictly feasible.
fn interior_point(p: &HPolytope) -> Vec<f64> {
    let (lo, hi) = p.bounding_box().expect("structured bodies are bounded");
    lo.as_slice()
        .iter()
        .zip(hi.as_slice())
        .map(|(&l, &h)| 0.5 * (l + h))
        .collect()
}

/// Long trajectories that cross the `WalkScratch::REFRESH_PERIOD` boundary
/// (the proptest trajectories below stay short): the anti-drift recompute
/// goes through `walk_state_init`, which also dispatches on the
/// representation, so it must not break bitwise equality either.
#[test]
fn refresh_crossing_trajectories_are_bitwise_dense() {
    for family in 0u8..3 {
        let (p, _) = structured_polytope(family, 10, 97 + family as u64);
        let dense = p.force_dense();
        let body_s = ConvexBody::from_polytope(&p).expect("well-bounded");
        let body_d = ConvexBody::from_polytope(&dense).expect("well-bounded");
        let start = cdb_linalg::Vector::from(interior_point(&p));
        let steps = WalkScratch::REFRESH_PERIOD + 128;
        let mut scratch = WalkScratch::new();
        let mut rng = StdRng::seed_from_u64(4242);
        let end_s = walk(
            &body_s,
            &start,
            WalkKind::HitAndRun,
            steps,
            &mut rng,
            &mut scratch,
        );
        let mut rng = StdRng::seed_from_u64(4242);
        let end_d = walk(
            &body_d,
            &start,
            WalkKind::HitAndRun,
            steps,
            &mut rng,
            &mut scratch,
        );
        for (s, d) in end_s.as_slice().iter().zip(end_d.as_slice()) {
            assert_eq!(
                s.to_bits(),
                d.to_bits(),
                "family {family}: trajectory diverged across the refresh: {s} vs {d}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `A·x` through the detected representation is bitwise the dense product.
    #[test]
    fn matvec_is_bitwise_dense(
        family in 0u8..3,
        dim in 8usize..24,
        seed in 0u64..1_000_000,
        raw in proptest::collection::vec(-2.0f64..2.0, 24),
    ) {
        let (p, kind) = structured_polytope(family, dim, seed);
        prop_assert_eq!(p.matrix().kind(), kind, "detection changed");
        let dense = p.force_dense();
        let x = &raw[..p.dim()];
        let mut out_s = vec![0.0; p.n_constraints()];
        let mut out_d = vec![0.0; p.n_constraints()];
        p.matrix().mat_vec_into(x, &mut out_s);
        dense.matrix().mat_vec_into(x, &mut out_d);
        for (i, (s, d)) in out_s.iter().zip(&out_d).enumerate() {
            prop_assert_eq!(s.to_bits(), d.to_bits(), "row {} differs: {} vs {}", i, s, d);
        }
        for i in 0..p.n_constraints() {
            prop_assert_eq!(
                p.matrix().row_dot(i, x).to_bits(),
                dense.matrix().row_dot(i, x).to_bits()
            );
        }
    }

    /// Closed-form and incremental chords agree bitwise across kernels, and
    /// the incremental membership sign-check does too.
    #[test]
    fn chords_are_bitwise_dense(
        family in 0u8..3,
        dim in 8usize..20,
        seed in 0u64..1_000_000,
        dir_seed in 0u64..1_000_000,
        t_frac in 0.05f64..0.95,
    ) {
        let (p, _) = structured_polytope(family, dim, seed);
        let dense = p.force_dense();
        let point = interior_point(&p);
        let dir = random_direction(p.dim(), &mut StdRng::seed_from_u64(dir_seed));

        let cs = p.chord_interval(&point, dir.as_slice()).expect("polytope chord");
        let cd = dense.chord_interval(&point, dir.as_slice()).expect("polytope chord");
        prop_assert_eq!(cs.0.to_bits(), cd.0.to_bits(), "chord lo: {} vs {}", cs.0, cd.0);
        prop_assert_eq!(cs.1.to_bits(), cd.1.to_bits(), "chord hi: {} vs {}", cs.1, cd.1);

        let len = p.walk_state_len().expect("incremental protocol");
        let (mut st_s, mut im_s) = (vec![0.0; len], vec![0.0; len]);
        let (mut st_d, mut im_d) = (vec![0.0; len], vec![0.0; len]);
        p.walk_state_init(&point, &mut st_s);
        dense.walk_state_init(&point, &mut st_d);
        let is_ = p.walk_state_chord(&st_s, dir.as_slice(), &mut im_s);
        let id = dense.walk_state_chord(&st_d, dir.as_slice(), &mut im_d);
        prop_assert_eq!(is_.0.to_bits(), id.0.to_bits());
        prop_assert_eq!(is_.1.to_bits(), id.1.to_bits());
        for (s, d) in st_s.iter().zip(&st_d).chain(im_s.iter().zip(&im_d)) {
            prop_assert_eq!(s.to_bits(), d.to_bits());
        }

        // Membership at an interior parameter of the chord, plus one outside.
        let t_in = is_.0 + t_frac * (is_.1 - is_.0);
        let t_out = is_.1 + (is_.1 - is_.0).max(1e-3);
        prop_assert_eq!(
            p.walk_state_contains(&st_s, &im_s, t_in),
            dense.walk_state_contains(&st_d, &im_d, t_in)
        );
        prop_assert_eq!(
            p.walk_state_contains(&st_s, &im_s, t_out),
            dense.walk_state_contains(&st_d, &im_d, t_out)
        );
    }

    /// Whole hit-and-run trajectories — including the incremental-state
    /// refresh — and DFK sample streams are bitwise identical across kernels.
    #[test]
    fn walk_trajectories_are_bitwise_dense(
        family in 0u8..3,
        dim in 8usize..16,
        seed in 0u64..1_000_000,
        walk_seed in 0u64..1_000_000,
    ) {
        let (p, _) = structured_polytope(family, dim, seed);
        let dense = p.force_dense();
        let body_s = ConvexBody::from_polytope(&p).expect("well-bounded");
        let body_d = ConvexBody::from_polytope(&dense).expect("well-bounded");

        let start = cdb_linalg::Vector::from(interior_point(&p));
        let mut scratch = WalkScratch::new();
        let mut rng = StdRng::seed_from_u64(walk_seed);
        let end_s = walk(&body_s, &start, WalkKind::HitAndRun, 64, &mut rng, &mut scratch);
        let mut rng = StdRng::seed_from_u64(walk_seed);
        let end_d = walk(&body_d, &start, WalkKind::HitAndRun, 64, &mut rng, &mut scratch);
        for (s, d) in end_s.as_slice().iter().zip(end_d.as_slice()) {
            prop_assert_eq!(s.to_bits(), d.to_bits(), "trajectory diverged: {} vs {}", s, d);
        }

        let params = GeneratorParams::fast();
        let mut rng = StdRng::seed_from_u64(walk_seed);
        let mut sampler_s = DfkSampler::new(body_s, params, &mut rng);
        let mut rng = StdRng::seed_from_u64(walk_seed);
        let mut sampler_d = DfkSampler::new(body_d, params, &mut rng);
        let mut rng_s = StdRng::seed_from_u64(walk_seed ^ 0x5eed);
        let mut rng_d = StdRng::seed_from_u64(walk_seed ^ 0x5eed);
        for _ in 0..3 {
            let xs = sampler_s.sample(&mut rng_s).expect("DFK never fails");
            let xd = sampler_d.sample(&mut rng_d).expect("DFK never fails");
            for (s, d) in xs.iter().zip(&xd) {
                prop_assert_eq!(s.to_bits(), d.to_bits(), "sample diverged: {} vs {}", s, d);
            }
        }
    }
}
