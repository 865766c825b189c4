//! The Dyer–Frieze–Kannan generator and volume estimator for a well-bounded
//! convex body.
//!
//! Structure of the original algorithm (Section 2 of the paper) and of this
//! implementation:
//!
//! 1. **Rounding** — an affine transformation puts the body in well-rounded
//!    position. The paper cites the Grötschel–Lovász–Schrijver transform; we
//!    use the practical equivalent: translate the Chebyshev center to the
//!    origin and whiten with the Cholesky factor of an estimated covariance
//!    matrix (see DESIGN.md, substitutions).
//! 2. **Random walk** — almost-uniform points are produced by a rapidly
//!    mixing walk ([`crate::walk`]); the walk length is a parameter instead
//!    of the theoretical `O(d^19)` bound.
//! 3. **Telescoping volume estimation** — a chain of bodies
//!    `B(c, r_0) = K_0 ⊆ K_1 ⊆ … ⊆ K_q = K` with `K_i = K ∩ B(c, r_inf·2^{i/d})`
//!    keeps consecutive volume ratios bounded by 2; each ratio is estimated
//!    with a Chernoff-style sampling estimator and the product gives the
//!    volume of `K`.

use rand::Rng;

use cdb_linalg::{AffineMap, Matrix};

use cdb_geometry::ball::ball_volume;

use crate::oracle::ConvexBody;
use crate::params::{GeneratorParams, RelationGenerator, RelationVolumeEstimator};
use crate::walk::{walk, WalkKind, WalkScratch};

/// Almost-uniform generator and volume estimator for one well-bounded convex
/// body (the building block every composed generator of Section 4 rests on).
///
/// **Attach.** Like every generator of the crate, a sampler is a prepared
/// body (the rounded body and its map back) plus a per-query
/// [`WalkScratch`]. [`Clone`] is the attach: the copy starts an empty
/// scratch (every walk rebinds the scratch from the body's center, so no
/// draw depends on what a scratch held before). Sampling and volume
/// estimation go through [`RelationGenerator`] and
/// [`RelationVolumeEstimator`], whose batch entry points fan the draws out
/// over attached copies.
#[derive(Debug)]
pub struct DfkSampler {
    /// The body in its original coordinates.
    original: ConvexBody,
    /// The body in rounded coordinates (equal to `original` when rounding is
    /// disabled or unnecessary).
    rounded: ConvexBody,
    /// Map from rounded coordinates back to original coordinates.
    to_original: AffineMap,
    params: GeneratorParams,
    /// Per-query walk workspace, reused across every draw of this copy.
    scratch: WalkScratch,
}

impl Clone for DfkSampler {
    fn clone(&self) -> Self {
        DfkSampler {
            original: self.original.clone(),
            rounded: self.rounded.clone(),
            to_original: self.to_original.clone(),
            params: self.params,
            scratch: WalkScratch::new(),
        }
    }
}

impl DfkSampler {
    /// Builds a sampler for the body, performing the rounding step when
    /// enabled and useful.
    pub fn new<R: Rng + ?Sized>(body: ConvexBody, params: GeneratorParams, rng: &mut R) -> Self {
        params.validate().expect("invalid generator parameters");
        let d = body.dim();
        let rounding = if !params.rounding || body.aspect_ratio() < 3.0 || d < 2 {
            None
        } else {
            Self::round(&body, &params, rng)
        };
        let (rounded, to_original) =
            rounding.unwrap_or_else(|| (body.clone(), AffineMap::identity(d)));
        DfkSampler {
            original: body,
            rounded,
            to_original,
            params,
            scratch: WalkScratch::new(),
        }
    }

    /// Estimates a whitening transform from walk samples and re-expresses the
    /// body in the whitened coordinates.
    fn round<R: Rng + ?Sized>(
        body: &ConvexBody,
        params: &GeneratorParams,
        rng: &mut R,
    ) -> Option<(ConvexBody, AffineMap)> {
        let d = body.dim();
        let n = (3 * d * d).max(48);
        let steps = params.walk_steps(d);
        let mut points = Vec::with_capacity(n);
        let mut current = body.center().clone();
        let mut scratch = WalkScratch::new();
        for _ in 0..n {
            current = walk(
                body,
                &current,
                WalkKind::HitAndRun,
                steps,
                rng,
                &mut scratch,
            );
            points.push(current.clone());
        }
        let mean = Matrix::mean(&points)?;
        let cov = Matrix::covariance(&points)?;
        // Regularize slightly so nearly-degenerate directions stay invertible.
        let reg =
            &cov + &Matrix::identity(d).scale(1e-9 * (body.r_sup() * body.r_sup()).max(1e-12));
        let chol = reg.cholesky().ok()?;
        let to_original = AffineMap::new(chol.factor().clone(), mean.clone()).ok()?;
        // Certificates in the rounded coordinates.
        let center_y = to_original.apply_inverse(body.center());
        let l_norm = chol.factor().frobenius_norm().max(1e-12);
        let r_inf_y = (body.r_inf() / l_norm).max(1e-9);
        let r_sup_y = points
            .iter()
            .map(|p| to_original.apply_inverse(p).distance(&center_y))
            .fold(0.0f64, f64::max)
            .max(r_inf_y)
            * 2.0
            + 1.0;
        let rounded = body.with_transformed_oracle(to_original.clone(), center_y, r_inf_y, r_sup_y);
        Some((rounded, to_original))
    }

    /// The body being sampled (original coordinates).
    pub fn body(&self) -> &ConvexBody {
        &self.original
    }

    /// The parameters used.
    pub fn params(&self) -> &GeneratorParams {
        &self.params
    }

    /// Returns `true` when a non-trivial rounding transform is in place.
    pub fn is_rounded(&self) -> bool {
        self.to_original.det_abs() != 1.0 || self.to_original.translation_part().norm() != 0.0
    }

    /// Draws one almost-uniform point from the body (original coordinates),
    /// running the chain in the caller's [`WalkScratch`] — the
    /// allocation-free entry point of the composed generators, which walk
    /// many component samplers on one scratch.
    pub(crate) fn sample_with<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut WalkScratch,
    ) -> Vec<f64> {
        let steps = self.params.walk_steps(self.dim());
        let y = walk(
            &self.rounded,
            self.rounded.center(),
            self.params.walk,
            steps,
            rng,
            scratch,
        );
        self.to_original.apply(&y).into_vec()
    }

    /// Estimates the volume of the body with the telescoping scheme, running
    /// its chains in the caller's [`WalkScratch`] (one buffer resize per
    /// telescoping phase, no per-step allocations). The result approximates
    /// the true volume with ratio `1 + ε` with probability at least `1 − δ`
    /// for sufficiently long walks.
    ///
    /// **Exact-certificate shortcut.** When the certificate is tight
    /// (`r_inf == r_sup`), the body *is* the ball `B(center, r_inf)` —
    /// sandwiched between two identical balls — so the telescoping chain is
    /// empty and the closed-form [`ball_volume`] is returned without
    /// consuming any randomness. This is the "suspiciously exact" 110 ns
    /// path observed in experiment E2, which used to hand the estimator a
    /// tight unit-ball certificate; the estimator is only exercised when the
    /// certificate leaves a gap (see `telescoping_path_is_exercised_by_a_
    /// loose_certificate` below, and the loose certificates now used by the
    /// E2 bench).
    pub(crate) fn estimate_volume_with<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut WalkScratch,
    ) -> f64 {
        let d = self.rounded.dim();
        let r0 = self.rounded.r_inf();
        let r_sup = self.rounded.r_sup();
        let growth = 2f64.powf(1.0 / d as f64);
        // Radii r_0 < r_1 < … capped at r_sup.
        let mut radii = vec![r0];
        let mut r = r0;
        while r < r_sup {
            r *= growth;
            radii.push(r.min(r_sup));
        }
        let n = self.params.samples_per_phase();
        let steps = self.params.walk_steps(d);
        let mut volume = ball_volume(d, r0);
        let center = self.rounded.center().clone();
        for i in 1..radii.len() {
            // Budget check at the phase boundary: once the scratch meter has
            // tripped, every further walk would be a zero-step no-op, so bail
            // out of the telescoping product immediately. The caller detects
            // the truncation (and discards the garbage value) through
            // [`WalkScratch::budget_trip`]; without an armed budget this
            // check never fires and the loop is unchanged.
            if scratch.budget_trip().is_some() {
                return volume * self.to_original.det_abs();
            }
            let outer = self.rounded.intersect_ball(radii[i]);
            let inner_radius = radii[i - 1];
            let mut inside = 0usize;
            let mut current = center.clone();
            for _ in 0..n {
                current = walk(&outer, &current, self.params.walk, steps, rng, scratch);
                if scratch.budget_trip().is_some() {
                    return volume * self.to_original.det_abs();
                }
                if current.distance(&center) <= inner_radius {
                    inside += 1;
                }
            }
            // By convexity vol(K_{i-1}) ≥ vol(K_i)/2; clamp the estimate away
            // from zero so one unlucky phase cannot zero out the product.
            let fraction = (inside as f64 / n as f64).max(0.25);
            volume /= fraction;
        }
        volume * self.to_original.det_abs()
    }
}

impl RelationGenerator for DfkSampler {
    fn dim(&self) -> usize {
        self.original.dim()
    }

    /// Draws one almost-uniform point on the sampler's own scratch; never
    /// fails.
    fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Vec<f64>> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let x = self.sample_with(rng, &mut scratch);
        self.scratch = scratch;
        Some(x)
    }
}

impl RelationVolumeEstimator for DfkSampler {
    /// One telescoping estimate on the sampler's own scratch (see
    /// `estimate_volume_with` for the exact-certificate shortcut); never
    /// fails.
    fn estimate_volume<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<f64> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let v = self.estimate_volume_with(rng, &mut scratch);
        self.scratch = scratch;
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SeedSequence;
    use cdb_geometry::HPolytope;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn sampler_for(p: &HPolytope, seed: u64) -> DfkSampler {
        let body = ConvexBody::from_polytope(p).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        DfkSampler::new(body, GeneratorParams::fast(), &mut rng)
    }

    /// `n` points from a seed sequence rooted at one draw of `rng`.
    fn batch(s: &mut DfkSampler, n: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
        let seq = SeedSequence::new(rng.next_u64());
        s.sample_batch(n, &seq, 0).into_iter().flatten().collect()
    }

    /// Median of `repeats` estimates from a seed sequence rooted at one draw
    /// of `rng`.
    fn median(s: &mut DfkSampler, repeats: usize, rng: &mut StdRng) -> f64 {
        let seq = SeedSequence::new(rng.next_u64());
        s.estimate_volume_median(repeats, &seq, 0).unwrap()
    }

    #[test]
    fn samples_stay_inside() {
        let square = HPolytope::axis_box(&[0.0, 0.0], &[1.0, 1.0]);
        let mut s = sampler_for(&square, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for p in batch(&mut s, 100, &mut rng) {
            assert!(square.contains_slice(&p, 1e-9), "escaped: {p:?}");
        }
    }

    #[test]
    fn square_volume_estimate() {
        let square = HPolytope::axis_box(&[0.0, 0.0], &[1.0, 1.0]);
        let mut s = sampler_for(&square, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let v = median(&mut s, 3, &mut rng);
        assert!((v - 1.0).abs() < 0.35, "estimated {v}");
    }

    #[test]
    fn triangle_volume_estimate() {
        let tri = HPolytope::standard_simplex(2);
        let mut s = sampler_for(&tri, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let v = median(&mut s, 3, &mut rng);
        assert!((v - 0.5).abs() < 0.2, "estimated {v}");
    }

    #[test]
    fn three_dimensional_box_volume() {
        let b = HPolytope::axis_box(&[0.0, 0.0, 0.0], &[1.0, 2.0, 0.5]);
        let mut s = sampler_for(&b, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let v = median(&mut s, 3, &mut rng);
        assert!((v - 1.0).abs() < 0.45, "estimated {v}");
    }

    #[test]
    fn rounding_kicks_in_for_elongated_bodies() {
        // A 100:1 box triggers the rounding transform.
        let long = HPolytope::axis_box(&[0.0, 0.0], &[100.0, 1.0]);
        let body = ConvexBody::from_polytope(&long).unwrap();
        assert!(body.aspect_ratio() > 3.0);
        let mut rng = StdRng::seed_from_u64(9);
        let params = GeneratorParams {
            rounding: true,
            ..GeneratorParams::fast()
        };
        let mut s = DfkSampler::new(body, params, &mut rng);
        assert!(s.is_rounded());
        // Samples are still inside, and the volume estimate accounts for the
        // determinant of the rounding map.
        let mut rng2 = StdRng::seed_from_u64(10);
        for p in batch(&mut s, 50, &mut rng2) {
            assert!(long.contains_slice(&p, 1e-6));
        }
        let v = median(&mut s, 5, &mut rng2);
        // The elongated case is the hardest for short walks; require the
        // right order of magnitude (the determinant of the rounding map is
        // accounted for) rather than a tight relative error.
        assert!(v > 30.0 && v < 300.0, "estimated {v}");
    }

    #[test]
    fn tight_certificate_takes_the_exact_shortcut() {
        // E2 audit: with r_inf == r_sup the certificate pins the body to a
        // ball, the telescoping chain is empty and the estimator returns the
        // closed-form ball volume without touching the RNG — the
        // "suspiciously exact" 110 ns path of bench E2.
        use cdb_geometry::ball::unit_ball_volume;
        use cdb_geometry::Ellipsoid;
        use cdb_linalg::Vector;
        use std::sync::Arc;
        let d = 4;
        let ball = Ellipsoid::ball(Vector::zeros(d), 1.0).unwrap();
        let body = ConvexBody::from_oracle(Arc::new(ball), Vector::zeros(d), 1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(13);
        let mut s = DfkSampler::new(
            body,
            GeneratorParams {
                rounding: false,
                ..GeneratorParams::fast()
            },
            &mut rng,
        );
        let before = rng.clone().next_u64();
        let v = s.estimate_volume(&mut rng).unwrap();
        assert_eq!(v, unit_ball_volume(d), "shortcut must be exact");
        assert_eq!(rng.next_u64(), before, "shortcut must not consume the rng");
    }

    #[test]
    fn telescoping_path_is_exercised_by_a_loose_certificate() {
        // E2 audit regression: a loose certificate (r_inf < r_sup) pins the
        // estimator to the telescoping-product code — it consumes
        // randomness, varies across seeds, and still tracks the exact ball
        // volume.
        use cdb_geometry::ball::unit_ball_volume;
        use cdb_geometry::Ellipsoid;
        use cdb_linalg::Vector;
        use std::sync::Arc;
        let d = 4;
        let exact = unit_ball_volume(d);
        let ball = Ellipsoid::ball(Vector::zeros(d), 1.0).unwrap();
        let body = ConvexBody::from_oracle(Arc::new(ball), Vector::zeros(d), 0.8, 1.25);
        let mut rng = StdRng::seed_from_u64(14);
        let mut s = DfkSampler::new(
            body,
            GeneratorParams {
                rounding: false,
                ..GeneratorParams::fast()
            },
            &mut rng,
        );
        let a = s.estimate_volume(&mut StdRng::seed_from_u64(15)).unwrap();
        let b = s.estimate_volume(&mut StdRng::seed_from_u64(16)).unwrap();
        assert_ne!(a, exact, "telescoping estimates are not closed-form");
        assert_ne!(a, b, "telescoping estimates vary across seeds");
        let v = s
            .estimate_volume_median(5, &SeedSequence::new(17), 0)
            .unwrap();
        assert!(
            (v - exact).abs() / exact < 0.35,
            "estimated {v} vs exact {exact}"
        );
    }

    #[test]
    fn samples_cover_both_halves() {
        let square = HPolytope::axis_box(&[0.0, 0.0], &[1.0, 1.0]);
        let mut s = sampler_for(&square, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let pts = batch(&mut s, 300, &mut rng);
        let left = pts.iter().filter(|p| p[0] < 0.5).count();
        let frac = left as f64 / pts.len() as f64;
        assert!((frac - 0.5).abs() < 0.12, "left fraction {frac}");
    }
}
