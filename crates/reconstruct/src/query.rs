//! Query reconstruction: Algorithm 3 (projection queries, Proposition 4.3)
//! and Algorithms 4/5 (positive existential queries, Theorem 4.4).

use rand::Rng;

use cdb_constraint::{
    Atom, CompOp, Database, Formula, GeneralizedRelation, GeneralizedTuple, LinTerm,
};
use cdb_geometry::hull::hull_to_hpolytope;
use cdb_geometry::HPolytope;
use cdb_linalg::Vector;
use cdb_num::Rational;
use cdb_sampler::{GeneratorParams, ProjectionGenerator, QueryBudget, RelationGenerator};

use crate::convex::{default_hull_sample_size, ReconstructionError};

/// Converts a reconstructed hull polytope back into a generalized tuple so
/// the result can be fed back into the constraint layer.
fn polytope_to_tuple(p: &HPolytope) -> GeneralizedTuple {
    let arity = p.dim();
    let atoms = p
        .halfspaces()
        .iter()
        .map(|h| {
            let coeffs: Vec<Rational> = h
                .normal()
                .iter()
                .map(|&c| Rational::from_f64(c).unwrap_or_else(Rational::zero))
                .collect();
            let constant = -Rational::from_f64(h.offset()).unwrap_or_else(Rational::zero);
            Atom::new(LinTerm::new(coeffs, constant), CompOp::Le)
        })
        .collect();
    GeneralizedTuple::new(arity, atoms)
}

/// Algorithm 3: `(ε, δ)`-estimation of a projection query
/// `φ(x_1, …, x_e) ≡ ∃ x_{e+1} … x_{e+d} R(x_1, …, x_{e+d})` over a convex
/// relation `R`, by sampling the projection with Algorithm 2 and taking the
/// convex hull of the samples.
///
/// The symbolic alternative is Fourier–Motzkin elimination with its
/// `O(2^{2^k})` blow-up; the sampling estimator costs `O(2^{e/2}·poly(d+e))`
/// (the hull is computed only in the small result dimension `e`).
#[derive(Debug)]
pub struct ProjectionQueryEstimator {
    params: GeneratorParams,
    eps: f64,
    delta: f64,
}

impl ProjectionQueryEstimator {
    /// Creates the estimator.
    pub fn new(params: GeneratorParams, eps: f64, delta: f64) -> Self {
        ProjectionQueryEstimator { params, eps, delta }
    }

    /// Estimates `proj_keep(tuple)` as an H-polytope in dimension
    /// `keep.len()`. `n_samples` overrides the Lemma 4.1 sample size.
    pub fn estimate<R: Rng + ?Sized>(
        &self,
        tuple: &GeneralizedTuple,
        keep: &[usize],
        n_samples: Option<usize>,
        rng: &mut R,
    ) -> Result<HPolytope, ReconstructionError> {
        let mut generator = ProjectionGenerator::new(tuple, keep, self.params, rng)
            .map_err(|e| ReconstructionError::UnsupportedQuery(e.to_string()))?;
        let e = keep.len();
        let n = n_samples.unwrap_or_else(|| default_hull_sample_size(e, self.eps, self.delta));
        let samples = generator.sample_many(n, rng);
        if samples.len() < e + 1 || samples.len() * 2 < n {
            return Err(ReconstructionError::NotEnoughSamples {
                requested: n,
                produced: samples.len(),
            });
        }
        let points: Vec<Vector> = samples.iter().map(|p| Vector::from(p.as_slice())).collect();
        hull_to_hpolytope(&points).ok_or(ReconstructionError::DegenerateSamples)
    }

    /// Estimates the projection and returns it as a generalized relation.
    pub fn estimate_relation<R: Rng + ?Sized>(
        &self,
        tuple: &GeneralizedTuple,
        keep: &[usize],
        n_samples: Option<usize>,
        rng: &mut R,
    ) -> Result<GeneralizedRelation, ReconstructionError> {
        let hull = self.estimate(tuple, keep, n_samples, rng)?;
        Ok(GeneralizedRelation::from_tuple(polytope_to_tuple(&hull)))
    }
}

/// One `∃`-block of a positive existential query: the quantified variables
/// and the quantifier-free positive body.
#[derive(Debug, Clone)]
struct Block {
    exists: Vec<usize>,
    body: Formula,
}

/// Draws `n` points from `generator`, charging every draw to `budget`. The
/// budget spans the whole reconstruction, so each draw runs under what the
/// earlier draws left of it; a trip ends the query.
fn draw_budgeted<R: Rng + ?Sized>(
    generator: &mut ProjectionGenerator,
    n: usize,
    budget: &mut QueryBudget,
    rng: &mut R,
) -> Result<Vec<Vec<f64>>, ReconstructionError> {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        generator.set_budget(budget.clone());
        let drawn = generator.sample(rng);
        if let Some(cause) = generator.budget_trip() {
            return Err(ReconstructionError::BudgetExhausted(cause));
        }
        let meter = generator.budget_meter();
        budget.max_steps = budget
            .max_steps
            .map(|s| s.saturating_sub(meter.steps_used()));
        budget.max_attempts = budget
            .max_attempts
            .map(|a| a.saturating_sub(meter.attempts_used()));
        samples.extend(drawn);
    }
    Ok(samples)
}

/// Algorithms 4 and 5: guaranteed `(ε, δ)`-estimation of a positive
/// existential query `Ψ ≡ ∨_i φ_i`, where each `φ_i` is built from relation
/// and linear atoms by conjunction and existential quantification. Each
/// `φ_i` is sampled with the composed generators (intersection + projection),
/// its samples are hulled, and the result is the union of the hulls.
#[derive(Debug)]
pub struct PositiveQueryEstimator {
    params: GeneratorParams,
    eps: f64,
    delta: f64,
    samples_per_piece: Option<usize>,
    budget: QueryBudget,
}

impl PositiveQueryEstimator {
    /// Creates the estimator.
    pub fn new(params: GeneratorParams, eps: f64, delta: f64) -> Self {
        PositiveQueryEstimator {
            params,
            eps,
            delta,
            samples_per_piece: None,
            budget: QueryBudget::unlimited(),
        }
    }

    /// Bounds the work of one [`PositiveQueryEstimator::estimate`] call.
    /// The whole reconstruction is one query: the walk steps and attempts
    /// of every draw, over every piece, add up against the one budget, and
    /// a trip returns [`ReconstructionError::BudgetExhausted`]. Building a
    /// piece's generator (its walk set-up and stratified selector) is
    /// set-up work and is not charged.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the number of samples drawn per convex piece (by default the
    /// Lemma 4.1 bound capped by
    /// [`crate::DEFAULT_SAMPLE_CAP`]). Use this to pay for the full
    /// theoretical sample count when the default cap is too coarse.
    pub fn with_samples_per_piece(mut self, n: usize) -> Self {
        self.samples_per_piece = Some(n);
        self
    }

    /// Splits a positive existential query into its `∨`-blocks.
    fn decompose(query: &Formula) -> Result<Vec<Block>, ReconstructionError> {
        if !query.is_existential_positive() {
            return Err(ReconstructionError::UnsupportedQuery(
                "the query must be positive existential (Theorem 4.4)".into(),
            ));
        }
        fn walk(f: &Formula, out: &mut Vec<Block>) -> Result<(), ReconstructionError> {
            match f {
                Formula::Or(parts) => {
                    for p in parts {
                        walk(p, out)?;
                    }
                    Ok(())
                }
                Formula::Exists(vars, body) => {
                    if !body.is_quantifier_free() {
                        // Nested quantifiers: merge them into a single block.
                        let mut inner = Vec::new();
                        walk(body, &mut inner)?;
                        for b in inner {
                            let mut exists = vars.clone();
                            exists.extend(b.exists);
                            out.push(Block {
                                exists,
                                body: b.body,
                            });
                        }
                        return Ok(());
                    }
                    out.push(Block {
                        exists: vars.clone(),
                        body: (**body).clone(),
                    });
                    Ok(())
                }
                other => {
                    if !other.is_quantifier_free() {
                        return Err(ReconstructionError::UnsupportedQuery(
                            "quantifiers may only appear at the top of each disjunct".into(),
                        ));
                    }
                    out.push(Block {
                        exists: Vec::new(),
                        body: other.clone(),
                    });
                    Ok(())
                }
            }
        }
        let mut blocks = Vec::new();
        walk(query, &mut blocks)?;
        Ok(blocks)
    }

    /// Estimates the query result over the database, returning a generalized
    /// relation of the given output arity (free variables `x_0 … x_{arity−1}`).
    pub fn estimate<R: Rng + ?Sized>(
        &self,
        db: &Database,
        query: &Formula,
        output_arity: usize,
        rng: &mut R,
    ) -> Result<GeneralizedRelation, ReconstructionError> {
        let blocks = Self::decompose(query)?;
        let mut budget = self.budget.clone();
        let mut result_tuples: Vec<GeneralizedTuple> = Vec::new();
        let n = self
            .samples_per_piece
            .unwrap_or_else(|| default_hull_sample_size(output_arity, self.eps, self.delta));

        for block in blocks {
            // Resolve relation atoms symbolically (cheap: no quantifier
            // elimination happens here) and build the block's DNF over the
            // ambient variables (free + quantified).
            let resolved = db
                .resolve(&block.body)
                .map_err(|e| ReconstructionError::Constraint(e.to_string()))?;
            let ambient = resolved
                .min_arity()
                .max(output_arity)
                .max(block.exists.iter().map(|v| v + 1).max().unwrap_or(0));
            let relation = GeneralizedRelation::from_formula(ambient, &resolved)
                .map_err(|e| ReconstructionError::Constraint(e.to_string()))?;
            let keep: Vec<usize> = (0..output_arity).collect();

            // Each convex piece of the block is sampled through the
            // projection generator (Algorithm 2) and hulled (Algorithm 4).
            for tuple in relation.tuples() {
                if tuple.closure_is_empty() {
                    continue;
                }
                if block.exists.is_empty() && ambient == output_arity {
                    // No quantifier: the tuple itself is already exact.
                    result_tuples.push(tuple.clone());
                    continue;
                }
                let mut generator = match ProjectionGenerator::new(tuple, &keep, self.params, rng) {
                    Ok(g) => g,
                    // Degenerate piece (measure zero): contributes nothing.
                    Err(_) => continue,
                };
                let samples = draw_budgeted(&mut generator, n, &mut budget, rng)?;
                if samples.len() < output_arity + 1 || samples.len() * 2 < n {
                    return Err(ReconstructionError::NotEnoughSamples {
                        requested: n,
                        produced: samples.len(),
                    });
                }
                let points: Vec<Vector> =
                    samples.iter().map(|p| Vector::from(p.as_slice())).collect();
                if let Some(hull) = hull_to_hpolytope(&points) {
                    result_tuples.push(polytope_to_tuple(&hull));
                }
            }
        }
        Ok(GeneralizedRelation::from_tuples(
            output_arity,
            result_tuples,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_geometry::volume::{symmetric_difference_volume, union_volume};
    use cdb_sampler::BudgetTrip;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fast() -> GeneratorParams {
        GeneratorParams {
            gamma: 0.1,
            ..GeneratorParams::fast()
        }
    }

    #[test]
    fn projection_query_matches_fourier_motzkin() {
        // Project the triangle 0 <= y <= x <= 1 (in R^2) onto x: the interval [0, 1].
        let tri = GeneralizedTuple::new(
            2,
            vec![
                Atom::le_from_ints(&[-1, 0], 0),
                Atom::le_from_ints(&[1, 0], -1),
                Atom::le_from_ints(&[0, -1], 0),
                Atom::le_from_ints(&[-1, 1], 0),
            ],
        );
        let est = ProjectionQueryEstimator::new(fast(), 0.2, 0.2);
        let mut rng = StdRng::seed_from_u64(101);
        let hull = est.estimate(&tri, &[0], Some(250), &mut rng).unwrap();
        // Symbolic baseline.
        let symbolic = GeneralizedRelation::from_tuple(tri).project(&[0]);
        let sd = symmetric_difference_volume(&symbolic.to_polytopes(), &[hull.clone()]);
        assert!(sd < 0.2, "symmetric difference {sd}");
        assert!(hull.contains_slice(&[0.5], 1e-6));
    }

    #[test]
    fn projection_query_relation_roundtrip() {
        let square = GeneralizedTuple::from_box_f64(&[0.0, 2.0], &[1.0, 3.0]);
        let est = ProjectionQueryEstimator::new(fast(), 0.2, 0.2);
        let mut rng = StdRng::seed_from_u64(102);
        let rel = est
            .estimate_relation(&square, &[1], Some(200), &mut rng)
            .unwrap();
        assert_eq!(rel.arity(), 1);
        assert!(rel.contains_f64(&[2.5]));
        assert!(!rel.contains_f64(&[3.5]));
    }

    #[test]
    fn positive_query_join_reconstruction() {
        // Q(x, y) = exists z. R(x, z) and S(z, y), the Section 4.3.2 shape.
        let mut db = Database::new();
        db.insert(
            "R",
            GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 1.0]),
        );
        db.insert(
            "S",
            GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 2.0]),
        );
        let q = Formula::exists(
            vec![2],
            Formula::and(vec![
                Formula::rel("R", vec![0, 2]),
                Formula::rel("S", vec![2, 1]),
            ]),
        );
        let est = PositiveQueryEstimator::new(fast(), 0.25, 0.25);
        let mut rng = StdRng::seed_from_u64(103);
        let approx = est.estimate(&db, &q, 2, &mut rng).unwrap();
        let exact = db.evaluate(&q, 2).unwrap();
        // Both cover roughly the same region: [0,2] x [0,2].
        let sd = symmetric_difference_volume(&exact.to_polytopes(), &approx.to_polytopes());
        let truth = union_volume(&exact.to_polytopes());
        assert!(truth > 0.0);
        assert!(
            sd / truth < 0.35,
            "relative symmetric difference {}",
            sd / truth
        );
    }

    #[test]
    fn one_budget_spans_every_draw_of_the_reconstruction() {
        let mut db = Database::new();
        db.insert(
            "R",
            GeneralizedRelation::from_box_f64(&[0.0, 0.0, 0.0], &[2.0, 1.0, 1.0]),
        );
        let q = Formula::exists(vec![2], Formula::rel("R", vec![0, 1, 2]));
        let est = || PositiveQueryEstimator::new(fast(), 0.25, 0.25).with_samples_per_piece(100);
        // Every draw charges at least one attempt, so a one-attempt budget
        // trips on the second draw of the piece.
        let starved = est().with_budget(QueryBudget::unlimited().with_max_attempts(1));
        assert_eq!(
            starved.estimate(&db, &q, 2, &mut StdRng::seed_from_u64(107)),
            Err(ReconstructionError::BudgetExhausted(BudgetTrip::Attempts))
        );
        // A budget that never trips draws exactly the unbudgeted stream.
        let free = est().estimate(&db, &q, 2, &mut StdRng::seed_from_u64(108));
        let ample = QueryBudget::unlimited()
            .with_max_attempts(1 << 40)
            .with_max_steps(1 << 50);
        let budgeted =
            est()
                .with_budget(ample)
                .estimate(&db, &q, 2, &mut StdRng::seed_from_u64(108));
        assert!(free.is_ok());
        assert_eq!(free, budgeted);
    }

    #[test]
    fn under_sampled_pieces_are_errors_and_flat_pieces_are_skipped() {
        let mut db = Database::new();
        db.insert(
            "R",
            GeneralizedRelation::from_box_f64(&[0.0, 0.0, 0.0], &[2.0, 1.0, 1.0]),
        );
        // Flat in x2: measure zero in the ambient space, so it has no
        // projection generator and contributes nothing.
        db.insert(
            "F",
            GeneralizedRelation::from_box_f64(&[0.0, 0.0, 0.5], &[1.0, 1.0, 0.5]),
        );
        let full = Formula::exists(vec![2], Formula::rel("R", vec![0, 1, 2]));
        let flat = Formula::exists(vec![2], Formula::rel("F", vec![0, 1, 2]));
        // Two points cannot span a 2-D hull: the piece is under-sampled,
        // which is an error rather than an empty answer.
        let est = PositiveQueryEstimator::new(fast(), 0.25, 0.25).with_samples_per_piece(2);
        assert!(matches!(
            est.estimate(&db, &full, 2, &mut StdRng::seed_from_u64(109)),
            Err(ReconstructionError::NotEnoughSamples { requested: 2, .. })
        ));
        let skipped = est
            .estimate(&db, &flat, 2, &mut StdRng::seed_from_u64(110))
            .unwrap();
        assert!(skipped.tuples().is_empty());
    }

    #[test]
    fn union_of_blocks_is_reconstructed() {
        // Q(x, y) = R(x, y) or S(x, y) with disjoint R and S — no quantifier,
        // so the reconstruction is exact.
        let mut db = Database::new();
        db.insert(
            "R",
            GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]),
        );
        db.insert(
            "S",
            GeneralizedRelation::from_box_f64(&[3.0, 0.0], &[4.0, 1.0]),
        );
        let q = Formula::or(vec![
            Formula::rel("R", vec![0, 1]),
            Formula::rel("S", vec![0, 1]),
        ]);
        let est = PositiveQueryEstimator::new(fast(), 0.2, 0.2);
        let mut rng = StdRng::seed_from_u64(104);
        let approx = est.estimate(&db, &q, 2, &mut rng).unwrap();
        assert!(approx.contains_f64(&[0.5, 0.5]));
        assert!(approx.contains_f64(&[3.5, 0.5]));
        assert!(!approx.contains_f64(&[2.0, 0.5]));
    }

    #[test]
    fn negative_queries_are_rejected() {
        let mut db = Database::new();
        db.insert("R", GeneralizedRelation::from_box_f64(&[0.0], &[1.0]));
        let q = Formula::not(Formula::rel("R", vec![0]));
        let est = PositiveQueryEstimator::new(fast(), 0.2, 0.2);
        let mut rng = StdRng::seed_from_u64(105);
        assert!(matches!(
            est.estimate(&db, &q, 1, &mut rng),
            Err(ReconstructionError::UnsupportedQuery(_))
        ));
    }

    #[test]
    fn unknown_relations_are_reported() {
        let db = Database::new();
        let q = Formula::rel("Missing", vec![0]);
        let est = PositiveQueryEstimator::new(fast(), 0.2, 0.2);
        let mut rng = StdRng::seed_from_u64(106);
        assert!(matches!(
            est.estimate(&db, &q, 1, &mut rng),
            Err(ReconstructionError::Constraint(_))
        ));
    }
}
