//! Proposition 4.2: the generator and estimator for the difference
//! `T = S_1 − S_2` of two observable relations, under the condition that `T`
//! and `S_1` are poly-related.

use rand::Rng;

use cdb_constraint::{CompiledRelation, GeneralizedRelation};

use crate::budget::{BudgetMeter, BudgetTrip, QueryBudget, COMPOSE_ATTEMPT_FACTOR};
use crate::compose::union::UnionGenerator;
use crate::compose::ObservabilityError;
use crate::params::{GeneratorParams, RelationGenerator, RelationVolumeEstimator, SeedSequence};

/// Generator and volume estimator for `S_1 − S_2`.
#[derive(Clone, Debug)]
pub struct DifferenceGenerator {
    minuend: UnionGenerator,
    /// `S_2`, compiled for the rejection step's membership test.
    subtrahend: CompiledRelation,
    params: GeneratorParams,
    attempts: u64,
    accepted: u64,
    min_acceptance: f64,
    /// Work limits installed by [`RelationGenerator::set_budget`]; forwarded
    /// to the minuend so each constituent draw is individually bounded, while
    /// this generator's own rejection loop charges `meter`.
    budget: QueryBudget,
    /// Per-call attempt meter of the rejection loop.
    meter: BudgetMeter,
}

impl DifferenceGenerator {
    /// Builds the generator; `s1` must be observable. `s2` only needs a
    /// membership test (it is never sampled from).
    pub fn new(
        s1: &GeneralizedRelation,
        s2: &GeneralizedRelation,
        params: GeneratorParams,
    ) -> Result<Self, ObservabilityError> {
        let minuend = UnionGenerator::new(s1, params)?;
        Ok(DifferenceGenerator {
            minuend,
            subtrahend: CompiledRelation::new(s2),
            params,
            attempts: 0,
            accepted: 0,
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
}

impl RelationGenerator for DifferenceGenerator {
    fn dim(&self) -> usize {
        self.minuend.dim()
    }

    fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Vec<f64>> {
        self.meter = BudgetMeter::new(&self.budget);
        let max_attempts = self.params.retry_rounds() * COMPOSE_ATTEMPT_FACTOR;
        for _ in 0..max_attempts {
            if !self.meter.charge_attempt() {
                return None;
            }
            let x = self.minuend.sample(rng)?;
            self.attempts += 1;
            if !self.subtrahend.contains(&x) {
                self.accepted += 1;
                return Some(x);
            }
        }
        None
    }

    fn prepare(&mut self, seq: &SeedSequence) {
        self.minuend.prepare(seq);
    }

    fn set_budget(&mut self, budget: QueryBudget) {
        self.minuend.set_budget(budget.clone());
        self.budget = budget;
    }

    fn budget_trip(&self) -> Option<BudgetTrip> {
        self.meter.trip().or_else(|| self.minuend.budget_trip())
    }
}

impl RelationVolumeEstimator for DifferenceGenerator {
    fn prepare_estimator(&mut self, seq: &SeedSequence) {
        RelationGenerator::prepare(self, seq);
    }

    fn estimate_volume<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<f64> {
        self.meter = BudgetMeter::new(&self.budget);
        let mu1 = self.minuend.estimate_volume(rng)?;
        let trials = self.params.samples_per_phase();
        let mut hits = 0usize;
        let mut produced = 0usize;
        for _ in 0..trials {
            if !self.meter.charge_attempt() {
                return None;
            }
            if let Some(x) = self.minuend.sample(rng) {
                produced += 1;
                self.attempts += 1;
                if !self.subtrahend.contains(&x) {
                    hits += 1;
                    self.accepted += 1;
                }
            } else if self.minuend.budget_trip().is_some() {
                // Once the minuend's budget trips, every further draw would
                // re-exhaust it; give up instead of burning the trials.
                return None;
            }
        }
        if produced == 0 {
            return None;
        }
        let acceptance = hits as f64 / produced as f64;
        if acceptance < self.min_acceptance {
            return None;
        }
        Some(mu1 * acceptance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn half_of_a_square() {
        // [0,2]x[0,1] minus [1,3]x[0,1] = [0,1)x[0,1], volume 1.
        let s1 = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[2.0, 1.0]);
        let s2 = GeneralizedRelation::from_box_f64(&[1.0, 0.0], &[3.0, 1.0]);
        let mut gen = DifferenceGenerator::new(&s1, &s2, GeneratorParams::fast()).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let vol = gen.estimate_volume(&mut rng).unwrap();
        assert!((vol - 1.0).abs() < 0.6, "volume {vol}");
        for p in gen.sample_many(100, &mut rng) {
            assert!(s1.contains_f64(&p) && !s2.contains_f64(&p));
        }
        assert!(gen.acceptance_rate() > 0.2);
    }

    #[test]
    fn difference_with_disjoint_subtrahend_is_the_original() {
        let s1 = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]);
        let s2 = GeneralizedRelation::from_box_f64(&[10.0, 10.0], &[11.0, 11.0]);
        let mut gen = DifferenceGenerator::new(&s1, &s2, GeneratorParams::fast()).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let vol = gen.estimate_volume(&mut rng).unwrap();
        assert!((vol - 1.0).abs() < 0.35, "volume {vol}");
        assert!(gen.acceptance_rate() > 0.95);
    }

    #[test]
    fn nearly_complete_subtraction_fails_the_condition() {
        // Remove all but a sliver: T and S1 are not poly-related.
        let s1 = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]);
        let s2 = GeneralizedRelation::from_box_f64(&[1e-7, 0.0], &[2.0, 1.0]);
        let mut gen = DifferenceGenerator::new(&s1, &s2, GeneratorParams::fast()).unwrap();
        gen.set_min_acceptance(1e-2);
        let mut rng = StdRng::seed_from_u64(43);
        assert!(gen.estimate_volume(&mut rng).is_none());
    }

    #[test]
    fn non_convex_result_is_still_sampled() {
        // Remove the middle strip of a square: the difference has two parts.
        let s1 = GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[3.0, 1.0]);
        let s2 = GeneralizedRelation::from_box_f64(&[1.0, 0.0], &[2.0, 1.0]);
        let mut gen = DifferenceGenerator::new(&s1, &s2, GeneratorParams::fast()).unwrap();
        let mut rng = StdRng::seed_from_u64(44);
        let pts = gen.sample_many(300, &mut rng);
        let left = pts.iter().filter(|p| p[0] < 1.0).count();
        let right = pts.iter().filter(|p| p[0] > 2.0).count();
        assert_eq!(left + right, pts.len());
        let balance = left as f64 / pts.len() as f64;
        assert!((balance - 0.5).abs() < 0.12, "left fraction {balance}");
        let vol = gen.estimate_volume(&mut rng).unwrap();
        assert!((vol - 2.0).abs() < 0.7, "volume {vol}");
    }
}
