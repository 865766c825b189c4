//! Proposition 4.1 / Corollary 4.3: the generator and estimator for an
//! intersection of observable relations, under the poly-related condition.
//!
//! The generator samples from the (estimated) smallest operand and keeps the
//! points that belong to every other operand. When the intersection is
//! exponentially smaller than the smallest operand, the acceptance rate
//! collapses; the paper shows this restriction is necessary (otherwise the
//! estimator would decide SAT), and this implementation reports it as
//! [`ObservabilityError::NotPolyRelated`] through `Option`/diagnostics.

use rand::Rng;

use cdb_constraint::{CompiledRelation, GeneralizedRelation};

use crate::budget::{BudgetMeter, BudgetTrip, QueryBudget, COMPOSE_ATTEMPT_FACTOR};
use crate::compose::union::UnionGenerator;
use crate::compose::ObservabilityError;
use crate::params::{GeneratorParams, RelationGenerator, RelationVolumeEstimator, SeedSequence};

/// Generator and volume estimator for `S_1 ∩ … ∩ S_m`.
#[derive(Clone, Debug)]
pub struct IntersectionGenerator {
    /// Every operand compiled for the rejection step's membership test.
    operands: Vec<CompiledRelation>,
    generators: Vec<UnionGenerator>,
    params: GeneratorParams,
    /// Index of the smallest operand (chosen after volume estimation).
    smallest: Option<usize>,
    /// Acceptance statistics of the rejection step.
    attempts: u64,
    accepted: u64,
    /// Acceptance rate below which the operands are declared not poly-related.
    min_acceptance: f64,
    /// Work limits installed by [`RelationGenerator::set_budget`]; forwarded
    /// to every operand generator, so each constituent draw is individually
    /// bounded while this generator's own rejection loop charges `meter`.
    budget: QueryBudget,
    /// Per-call attempt meter of the rejection loop.
    meter: BudgetMeter,
}

impl IntersectionGenerator {
    /// Builds the generator; every operand must itself be observable (a union
    /// of well-bounded convex tuples).
    pub fn new(
        operands: &[GeneralizedRelation],
        params: GeneratorParams,
    ) -> Result<Self, ObservabilityError> {
        if operands.len() < 2 {
            return Err(ObservabilityError::InvalidParams(
                "the intersection generator needs at least two operands".into(),
            ));
        }
        let generators = operands
            .iter()
            .map(|r| UnionGenerator::new(r, params))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(IntersectionGenerator {
            operands: operands.iter().map(CompiledRelation::new).collect(),
            generators,
            params,
            smallest: None,
            attempts: 0,
            accepted: 0,
            // The paper's sufficient condition is a polynomial relation
            // between the volumes; operationally we flag anything below this
            // floor as "not poly-related" evidence.
            min_acceptance: 1e-4,
            budget: QueryBudget::unlimited(),
            meter: BudgetMeter::unlimited(),
        })
    }

    /// Overrides the acceptance-rate floor used for the poly-related check.
    pub fn set_min_acceptance(&mut self, floor: f64) {
        self.min_acceptance = floor;
    }

    /// Observed acceptance rate of the rejection step so far.
    pub fn acceptance_rate(&self) -> f64 {
        if self.attempts == 0 {
            1.0
        } else {
            self.accepted as f64 / self.attempts as f64
        }
    }

    /// Estimates the operand volumes and picks the smallest one, as in the
    /// proof of Proposition 4.1.
    fn ensure_smallest<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        if let Some(j) = self.smallest {
            return j;
        }
        let budget = self.budget.clone();
        let mut best = 0usize;
        let mut best_vol = f64::INFINITY;
        for (i, g) in self.generators.iter_mut().enumerate() {
            // The pilot estimates are one-time setup: running them under a
            // query budget could cache a garbage "smallest" choice that
            // contaminates every later query, so they run unbudgeted and the
            // operand budget is restored afterwards.
            g.set_budget(QueryBudget::unlimited());
            let v = g.estimate_volume(rng).unwrap_or(f64::INFINITY);
            g.set_budget(budget.clone());
            if v < best_vol {
                best_vol = v;
                best = i;
            }
        }
        self.smallest = Some(best);
        best
    }

    /// Does the point belong to every operand other than `skip`?
    fn in_all_others(&self, x: &[f64], skip: usize) -> bool {
        self.operands
            .iter()
            .enumerate()
            .all(|(i, r)| i == skip || r.contains(x))
    }
}

impl RelationGenerator for IntersectionGenerator {
    fn dim(&self) -> usize {
        self.operands[0].arity()
    }

    fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Vec<f64>> {
        self.meter = BudgetMeter::new(&self.budget);
        let j = self.ensure_smallest(rng);
        let max_attempts = self.params.retry_rounds() * COMPOSE_ATTEMPT_FACTOR;
        for _ in 0..max_attempts {
            if !self.meter.charge_attempt() {
                return None;
            }
            let x = self.generators[j].sample(rng)?;
            self.attempts += 1;
            if self.in_all_others(&x, j) {
                self.accepted += 1;
                return Some(x);
            }
        }
        None
    }

    fn prepare(&mut self, seq: &SeedSequence) {
        // Funds the operand volume estimates (and the lazy setup of every
        // operand's union generator) from the dedicated setup stream, so the
        // choice of smallest operand is fixed before any batch fan-out.
        self.ensure_smallest(&mut seq.setup_stream().rng());
    }

    fn set_budget(&mut self, budget: QueryBudget) {
        for g in &mut self.generators {
            g.set_budget(budget.clone());
        }
        self.budget = budget;
    }

    fn budget_trip(&self) -> Option<BudgetTrip> {
        self.meter
            .trip()
            .or_else(|| self.generators.iter().find_map(|g| g.budget_trip()))
    }
}

impl RelationVolumeEstimator for IntersectionGenerator {
    fn prepare_estimator(&mut self, seq: &SeedSequence) {
        RelationGenerator::prepare(self, seq);
    }

    fn estimate_volume<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<f64> {
        self.meter = BudgetMeter::new(&self.budget);
        let j = self.ensure_smallest(rng);
        let mu_j = self.generators[j].estimate_volume(rng)?;
        let trials = self.params.samples_per_phase();
        let mut hits = 0usize;
        let mut produced = 0usize;
        for _ in 0..trials {
            if !self.meter.charge_attempt() {
                return None;
            }
            if let Some(x) = self.generators[j].sample(rng) {
                produced += 1;
                self.attempts += 1;
                if self.in_all_others(&x, j) {
                    hits += 1;
                    self.accepted += 1;
                }
            } else if self.generators[j].budget_trip().is_some() {
                // Each failed draw would re-arm and re-exhaust the operand's
                // budget; once one trips there is no point burning the rest
                // of the trials.
                return None;
            }
        }
        if produced == 0 {
            return None;
        }
        let acceptance = hits as f64 / produced as f64;
        if acceptance < self.min_acceptance {
            // The intersection is too small relative to min(S_1, …, S_m):
            // the poly-related condition fails and the estimator gives up.
            return None;
        }
        Some(mu_j * acceptance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn overlapping_squares_intersection() {
        let a = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 2.0]);
        let b = GeneralizedRelation::from_box_f64(&[1.0, 1.0], &[3.0, 3.0]);
        let mut gen =
            IntersectionGenerator::new(&[a.clone(), b.clone()], GeneratorParams::fast()).unwrap();
        let mut rng = StdRng::seed_from_u64(35);
        let vol = gen.estimate_volume(&mut rng).unwrap();
        assert!((vol - 1.0).abs() < 0.45, "volume {vol}");
        let pts = gen.sample_many(100, &mut rng);
        assert!(!pts.is_empty());
        for p in &pts {
            assert!(a.contains_f64(p) && b.contains_f64(p));
        }
        assert!(gen.acceptance_rate() > 0.05);
    }

    #[test]
    fn three_way_intersection() {
        let a = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 2.0]);
        let b = GeneralizedRelation::from_box_f64(&[0.5, 0.0], &[2.5, 2.0]);
        let c = GeneralizedRelation::from_box_f64(&[0.0, 0.5], &[2.0, 2.5]);
        // Intersection = [0.5,2]x[0.5,2] with volume 2.25.
        let mut gen = IntersectionGenerator::new(&[a, b, c], GeneratorParams::fast()).unwrap();
        let mut rng = StdRng::seed_from_u64(32);
        let vol = gen.estimate_volume(&mut rng).unwrap();
        assert!((vol - 2.25).abs() < 0.8, "volume {vol}");
    }

    #[test]
    fn tiny_intersection_triggers_poly_related_failure() {
        // The overlap is a sliver of width 1e-6: not poly-related to the
        // operands for any reasonable acceptance floor.
        let a = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]);
        let b = GeneralizedRelation::from_box_f64(&[1.0 - 1e-6, 0.0], &[2.0, 1.0]);
        let mut gen = IntersectionGenerator::new(&[a, b], GeneratorParams::fast()).unwrap();
        gen.set_min_acceptance(1e-2);
        let mut rng = StdRng::seed_from_u64(33);
        assert!(gen.estimate_volume(&mut rng).is_none());
        assert!(gen.acceptance_rate() < 1e-2);
    }

    #[test]
    fn disjoint_operands_are_not_observable() {
        let a = GeneralizedRelation::from_box_f64(&[0.0], &[1.0]);
        let b = GeneralizedRelation::from_box_f64(&[2.0], &[3.0]);
        let mut gen = IntersectionGenerator::new(&[a, b], GeneratorParams::fast()).unwrap();
        let mut rng = StdRng::seed_from_u64(34);
        assert!(gen.estimate_volume(&mut rng).is_none());
        assert!(gen.sample(&mut rng).is_none());
    }

    #[test]
    fn needs_at_least_two_operands() {
        let a = GeneralizedRelation::from_box_f64(&[0.0], &[1.0]);
        assert!(IntersectionGenerator::new(&[a], GeneratorParams::fast()).is_err());
    }
}
