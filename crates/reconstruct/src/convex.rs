//! Hull-of-samples reconstruction of a convex set (Lemma 4.1).

use rand::Rng;

use cdb_constraint::GeneralizedTuple;
use cdb_geometry::hull::hull_to_hpolytope;
use cdb_geometry::HPolytope;
use cdb_linalg::Vector;
use cdb_sampler::{
    BudgetTrip, ConvexBody, DfkSampler, GeneratorParams, RelationGenerator, SeedSequence,
};

/// Errors produced by the reconstruction layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ReconstructionError {
    /// The relation to reconstruct is not a well-bounded convex relation.
    NotObservable,
    /// The sampled points were affinely degenerate, so no full-dimensional
    /// hull exists (the target set probably has measure zero).
    DegenerateSamples,
    /// The sampler failed to produce enough points.
    NotEnoughSamples {
        /// Points requested.
        requested: usize,
        /// Points actually produced.
        produced: usize,
    },
    /// The query budget tripped before every piece was sampled.
    BudgetExhausted(BudgetTrip),
    /// The query is outside the positive existential fragment handled by
    /// Algorithms 4 and 5.
    UnsupportedQuery(String),
    /// An error bubbled up from the symbolic layer (unknown relation, arity
    /// mismatch, …).
    Constraint(String),
}

impl std::fmt::Display for ReconstructionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconstructionError::NotObservable => write!(f, "relation is not observable"),
            ReconstructionError::DegenerateSamples => {
                write!(f, "sampled points are affinely degenerate")
            }
            ReconstructionError::NotEnoughSamples {
                requested,
                produced,
            } => {
                write!(f, "only {produced} of {requested} samples were produced")
            }
            ReconstructionError::BudgetExhausted(cause) => {
                write!(f, "query budget exhausted: {cause}")
            }
            ReconstructionError::UnsupportedQuery(msg) => write!(f, "unsupported query: {msg}"),
            ReconstructionError::Constraint(msg) => write!(f, "constraint layer error: {msg}"),
        }
    }
}

impl std::error::Error for ReconstructionError {}

/// Ceiling applied when the Lemma 4.1 bound is used as an implicit default.
///
/// The raw bound easily reaches tens of thousands of samples for modest
/// `(ε, δ)`, and every sample behind a projection generator costs `Θ(1/γ)`
/// rejection rounds of random walks — minutes of wall clock for a quality gain
/// the hull cannot realize in low dimension. Callers that want the full
/// theoretical count pass `n_samples` explicitly.
pub const DEFAULT_SAMPLE_CAP: usize = 2_000;

/// The sample count used when the caller does not pass one explicitly: the
/// Lemma 4.1 bound with `r = 2^dim` vertices, limited by
/// [`DEFAULT_SAMPLE_CAP`].
pub fn default_hull_sample_size(dim: usize, eps: f64, delta: f64) -> usize {
    hull_sample_size(1 << dim.min(16), dim, eps, delta).min(DEFAULT_SAMPLE_CAP)
}

/// The sample size of Lemma 4.1: with
/// `N = O(4 r² d² / (ε⁴ d^{2d−2}) · ln(1/δ))` uniform samples, the convex
/// hull is an ε-approximation of a polytope with `r` vertices with
/// probability at least `1 − δ`.
///
/// The bound collapses quickly with growing `d` (the `d^{2d−2}` denominator),
/// so the returned value is clamped to a practical range `[d + 1, 200 000]`.
pub fn hull_sample_size(r_vertices: usize, dim: usize, eps: f64, delta: f64) -> usize {
    assert!(eps > 0.0 && eps < 1.0 && delta > 0.0 && delta < 1.0);
    let r = r_vertices.max(dim + 1) as f64;
    let d = dim.max(1) as f64;
    let denom = eps.powi(4) * d.powf(2.0 * d - 2.0);
    let n = (4.0 * r * r * d * d / denom) * (1.0 / delta).ln();
    (n.ceil() as usize).clamp(dim + 1, 200_000)
}

/// The reconstruction step shared by every estimator: the convex hull of
/// `samples` in dimension `dim`. Fewer than `dim + 1` samples (too few to
/// span a full-dimensional hull), or fewer than half of the `requested`
/// ones, are [`ReconstructionError::NotEnoughSamples`]; enough samples
/// without a full-dimensional hull are
/// [`ReconstructionError::DegenerateSamples`].
pub(crate) fn hull_of(
    samples: &[Vec<f64>],
    requested: usize,
    dim: usize,
) -> Result<HPolytope, ReconstructionError> {
    if samples.len() < dim + 1 || samples.len() * 2 < requested {
        return Err(ReconstructionError::NotEnoughSamples {
            requested,
            produced: samples.len(),
        });
    }
    let points: Vec<Vector> = samples.iter().map(|p| Vector::from(p.as_slice())).collect();
    hull_to_hpolytope(&points).ok_or(ReconstructionError::DegenerateSamples)
}

/// Hull-of-samples `(ε, δ)`-estimator for one well-bounded convex relation.
#[derive(Debug)]
pub struct ConvexReconstructor {
    params: GeneratorParams,
    eps: f64,
    delta: f64,
}

impl ConvexReconstructor {
    /// Creates a reconstructor with the given generator parameters and
    /// target reconstruction quality `(ε, δ)`.
    pub fn new(params: GeneratorParams, eps: f64, delta: f64) -> Self {
        ConvexReconstructor { params, eps, delta }
    }

    /// Reconstructs a convex relation from `n_samples` almost-uniform points
    /// (when `n_samples` is `None`, the Lemma 4.1 bound with `r = 2^d`
    /// vertices is used). Returns the hull as an H-polytope.
    pub fn reconstruct_tuple<R: Rng + ?Sized>(
        &self,
        tuple: &GeneralizedTuple,
        n_samples: Option<usize>,
        rng: &mut R,
    ) -> Result<HPolytope, ReconstructionError> {
        let body = ConvexBody::from_tuple(tuple).ok_or(ReconstructionError::NotObservable)?;
        let mut sampler = DfkSampler::new(body, self.params, rng);
        let d = tuple.arity();
        let n = n_samples.unwrap_or_else(|| default_hull_sample_size(d, self.eps, self.delta));
        let seq = SeedSequence::new(rng.next_u64());
        let samples: Vec<Vec<f64>> = sampler
            .sample_batch(n, &seq, 0)
            .into_iter()
            .flatten()
            .collect();
        hull_of(&samples, n, d)
    }

    /// Builds the hull polytope from already-generated samples, in their own
    /// dimension `d`: fewer than `d + 1` samples, or fewer than half of the
    /// `requested` ones, are [`ReconstructionError::NotEnoughSamples`].
    pub fn hull_of_samples(
        &self,
        samples: &[Vec<f64>],
        requested: usize,
    ) -> Result<HPolytope, ReconstructionError> {
        hull_of(samples, requested, samples.first().map_or(0, Vec::len))
    }

    /// The `(ε, δ)` targets of the reconstruction.
    pub fn quality(&self) -> (f64, f64) {
        (self.eps, self.delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_geometry::volume::{polytope_volume, symmetric_difference_volume};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_size_bound_shapes() {
        // More vertices or a tighter ε need more samples.
        assert!(hull_sample_size(16, 2, 0.1, 0.1) >= hull_sample_size(4, 2, 0.1, 0.1));
        assert!(hull_sample_size(4, 2, 0.05, 0.1) >= hull_sample_size(4, 2, 0.2, 0.1));
        // Never below d+1, never above the cap.
        assert!(hull_sample_size(4, 3, 0.9, 0.9) >= 4);
        assert!(hull_sample_size(1000, 2, 0.01, 0.001) <= 200_000);
    }

    #[test]
    fn reconstruct_a_square() {
        let square = GeneralizedTuple::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]);
        let rec = ConvexReconstructor::new(GeneratorParams::fast(), 0.2, 0.2);
        let mut rng = StdRng::seed_from_u64(91);
        let hull = rec.reconstruct_tuple(&square, Some(400), &mut rng).unwrap();
        // The hull is inside the square and close to it in volume.
        let vol = polytope_volume(&hull);
        assert!(vol > 0.75 && vol <= 1.0 + 1e-6, "hull volume {vol}");
        let sd = symmetric_difference_volume(&[square.to_hpolytope()], &[hull]);
        assert!(sd < 0.25, "symmetric difference {sd}");
    }

    #[test]
    fn reconstruction_improves_with_more_samples() {
        let square = GeneralizedTuple::from_box_f64(&[0.0, 0.0], &[2.0, 2.0]);
        let rec = ConvexReconstructor::new(GeneratorParams::fast(), 0.2, 0.2);
        let mut rng = StdRng::seed_from_u64(92);
        let rough = rec.reconstruct_tuple(&square, Some(30), &mut rng).unwrap();
        let fine = rec.reconstruct_tuple(&square, Some(500), &mut rng).unwrap();
        let truth = square.to_hpolytope();
        let sd_rough = symmetric_difference_volume(&[truth.clone()], &[rough]);
        let sd_fine = symmetric_difference_volume(&[truth], &[fine]);
        assert!(sd_fine < sd_rough, "fine {sd_fine} vs rough {sd_rough}");
    }

    #[test]
    fn degenerate_inputs_are_reported() {
        let rec = ConvexReconstructor::new(GeneratorParams::fast(), 0.2, 0.2);
        // Identical points have no full-dimensional hull.
        let degenerate = vec![vec![1.0, 1.0]; 50];
        assert_eq!(
            rec.hull_of_samples(&degenerate, 50),
            Err(ReconstructionError::DegenerateSamples)
        );
        // Too few points.
        assert!(matches!(
            rec.hull_of_samples(&[vec![0.0, 0.0]], 100),
            Err(ReconstructionError::NotEnoughSamples { .. })
        ));
        // Unbounded tuples are not observable.
        use cdb_constraint::Atom;
        let halfplane = GeneralizedTuple::new(2, vec![Atom::le_from_ints(&[1, 0], 0)]);
        let mut rng = StdRng::seed_from_u64(93);
        assert_eq!(
            rec.reconstruct_tuple(&halfplane, Some(10), &mut rng),
            Err(ReconstructionError::NotObservable)
        );
    }

    #[test]
    fn fewer_than_dim_plus_one_samples_are_not_enough() {
        // Two points cannot span a planar hull: too few samples, not a
        // degenerate body.
        let rec = ConvexReconstructor::new(GeneratorParams::fast(), 0.2, 0.2);
        assert_eq!(
            rec.hull_of_samples(&[vec![0.0, 0.0], vec![1.0, 1.0]], 2),
            Err(ReconstructionError::NotEnoughSamples {
                requested: 2,
                produced: 2
            })
        );
    }
}
