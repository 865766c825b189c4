//! Algorithm 1 of the paper: the almost-uniform generator and volume
//! estimator for a union of observable (convex, well-bounded) relations.
//!
//! The construction is the geometric analogue of the Karp–Luby #DNF
//! estimator: a component is drawn with probability proportional to its
//! estimated volume, a point is drawn almost uniformly inside it, and the
//! point is kept only when the chosen component is the *first* one containing
//! it (`j(x)` in the paper), which makes every point of the overlapping union
//! count exactly once.

use std::sync::Arc;

use rand::Rng;

use cdb_constraint::{CompiledRelation, GeneralizedRelation};

use crate::budget::{BudgetTrip, QueryBudget};
use crate::compose::ObservabilityError;
use crate::dfk::DfkSampler;
use crate::oracle::ConvexBody;
use crate::params::{GeneratorParams, RelationGenerator, RelationVolumeEstimator, SeedSequence};
use crate::walk::WalkScratch;

/// The prepared body of a union generator: everything a draw reads and no
/// per-query state. Attached copies share it through an [`Arc`].
#[derive(Clone, Debug)]
struct PreparedUnion {
    relation: GeneralizedRelation,
    /// `relation` compiled for the `j(x)` test.
    compiled: CompiledRelation,
    bodies: Vec<ConvexBody>,
    samplers: Vec<DfkSampler>,
    volumes: Vec<f64>,
    params: GeneratorParams,
    initialized: bool,
}

impl PreparedUnion {
    /// Chooses a component index with probability proportional to `μ̂_i`
    /// (step (3) of Algorithm 1).
    fn choose_component<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total: f64 = self.volumes.iter().sum();
        let mut target = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        for (i, v) in self.volumes.iter().enumerate() {
            if target < *v {
                return i;
            }
            target -= v;
        }
        self.volumes.len() - 1
    }

    /// Index of the first tuple containing `x` — the paper's `j(x)`.
    fn first_index(&self, x: &[f64]) -> Option<usize> {
        self.compiled.first_containing(x, 1e-9)
    }
}

/// The union generator of Theorem 4.1 / Corollary 4.2 and the union volume
/// estimator of Theorem 4.2.
///
/// **Attach.** The generator is a shared prepared body plus a per-query walk
/// scratch and budget. [`Clone`] is the attach: it bumps the body's reference
/// count and starts an empty scratch (every walk rebinds the scratch from the
/// body's center, so no draw depends on what a scratch held before), and
/// allocates nothing in proportion to the body. Lazy initialization and the
/// budget-trip rollback write through [`Arc::make_mut`], so they copy the
/// body only when another attached copy still shares it; a draw on a
/// prepared body never writes to it.
#[derive(Debug)]
pub struct UnionGenerator {
    body: Arc<PreparedUnion>,
    /// Per-query walk workspace, reused across every sample and volume
    /// estimate of this copy.
    scratch: WalkScratch,
    /// Work limits installed by [`RelationGenerator::set_budget`]; the
    /// scratch meter is re-armed from this at the head of every query call.
    budget: QueryBudget,
}

impl Clone for UnionGenerator {
    fn clone(&self) -> Self {
        UnionGenerator {
            body: Arc::clone(&self.body),
            scratch: WalkScratch::new(),
            budget: self.budget.clone(),
        }
    }
}

impl UnionGenerator {
    /// Builds the generator for a generalized relation (a union of generalized
    /// tuples). Every full-dimensional tuple must be well-bounded; degenerate
    /// (measure-zero) tuples are dropped, matching the remark in the paper
    /// that exponentially smaller components can be treated as empty.
    pub fn new(
        relation: &GeneralizedRelation,
        params: GeneratorParams,
    ) -> Result<Self, ObservabilityError> {
        params
            .validate()
            .map_err(ObservabilityError::InvalidParams)?;
        // Classify every tuple: empty or measure-zero tuples are dropped (the
        // paper's remark that exponentially smaller components can be treated
        // as empty); unbounded tuples make the relation non-observable. The
        // well-boundedness certificate of each kept component is computed
        // once here — one bounding-box pass plus one Chebyshev LP — and
        // cached on the generator inside its `ConvexBody`.
        let mut kept = Vec::new();
        let mut bodies = Vec::new();
        for (i, t) in relation.tuples().iter().enumerate() {
            if t.closure_is_empty() {
                continue;
            }
            let polytope = t.to_hpolytope();
            let bb = polytope
                .bounding_box()
                .ok_or(ObservabilityError::NotWellBounded { index: i })?;
            match polytope.well_bounded_within(&bb) {
                Some(cert) => {
                    kept.push(t.clone());
                    bodies.push(ConvexBody::from_polytope_cert(polytope, cert));
                }
                // Bounded but lower-dimensional: measure zero, drop it.
                None => continue,
            }
        }
        if kept.is_empty() {
            return Err(ObservabilityError::Empty);
        }
        let pruned = GeneralizedRelation::from_tuples(relation.arity(), kept);
        Ok(UnionGenerator {
            body: Arc::new(PreparedUnion {
                compiled: CompiledRelation::new(&pruned),
                relation: pruned,
                bodies,
                samplers: Vec::new(),
                volumes: Vec::new(),
                params,
                initialized: false,
            }),
            scratch: WalkScratch::new(),
            budget: QueryBudget::unlimited(),
        })
    }

    /// The relation being sampled (after pruning degenerate tuples).
    pub fn relation(&self) -> &GeneralizedRelation {
        &self.body.relation
    }

    /// Per-component volume estimates `μ̂_i` (available after the first call
    /// to [`RelationGenerator::sample`] or
    /// [`RelationVolumeEstimator::estimate_volume`]).
    pub fn component_volumes(&self) -> &[f64] {
        &self.body.volumes
    }

    /// Whether two generators share one prepared body (attached copies of
    /// the same prepared generator do, until one of them re-initializes).
    pub fn shares_body_with(&self, other: &UnionGenerator) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
    }

    /// Lazily builds the per-component samplers and volume estimates
    /// (step (1) of Algorithm 1).
    fn ensure_initialized<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if self.body.initialized {
            return;
        }
        let body = Arc::make_mut(&mut self.body);
        body.samplers = body
            .bodies
            .iter()
            .map(|b| DfkSampler::new(b.clone(), body.params, rng))
            .collect();
        let scratch = &mut self.scratch;
        body.volumes = body
            .samplers
            .iter()
            .map(|s| s.estimate_volume_with(rng, scratch))
            .collect();
        body.initialized = true;
    }

    /// If the armed budget tripped during lazy initialization, the pilot
    /// volumes are truncated garbage: throw the half-built setup away so the
    /// next (budgeted or not) call rebuilds it cleanly instead of sampling
    /// against corrupt component weights. Returns `true` when it rolled back.
    fn rollback_if_init_tripped(&mut self) -> bool {
        if self.scratch.budget_trip().is_some() {
            let body = Arc::make_mut(&mut self.body);
            body.samplers.clear();
            body.volumes.clear();
            body.initialized = false;
            true
        } else {
            false
        }
    }

    /// Usage tallies of the most recent budgeted query call (diagnostics and
    /// the determinism suite's exhaustion-point assertions).
    pub fn budget_meter(&self) -> &crate::budget::BudgetMeter {
        self.scratch.budget_meter()
    }
}

impl RelationGenerator for UnionGenerator {
    fn dim(&self) -> usize {
        self.body.relation.arity()
    }

    fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Vec<f64>> {
        self.scratch.arm_budget(&self.budget);
        self.ensure_initialized(rng);
        if self.rollback_if_init_tripped() {
            return None;
        }
        let body = &*self.body;
        // Repeat k = 4 ln(1/δ) times (the proof of Theorem 4.1).
        for _ in 0..body.params.retry_rounds() {
            if !self.scratch.budget_meter_mut().charge_attempt() {
                return None;
            }
            let j = body.choose_component(rng);
            let x = body.samplers[j].sample_with(rng, &mut self.scratch);
            if self.scratch.budget_trip().is_some() {
                // The walk was truncated mid-chain; x is not almost-uniform.
                return None;
            }
            // Accept only when j is the first component containing x, so the
            // output distribution is uniform on the union rather than on the
            // disjoint sum of the components.
            if body.first_index(&x) == Some(j) {
                return Some(x);
            }
        }
        None
    }

    fn prepare(&mut self, seq: &SeedSequence) {
        // Setup is charged to the preparation phase, never to a query budget
        // (and a meter left tripped by a previous budgeted call must not
        // truncate it), so the meter is explicitly disarmed first.
        self.scratch.disarm_budget();
        self.ensure_initialized(&mut seq.setup_stream().rng());
    }

    fn set_budget(&mut self, budget: QueryBudget) {
        self.budget = budget;
    }

    fn budget_trip(&self) -> Option<BudgetTrip> {
        self.scratch.budget_trip()
    }
}

impl RelationVolumeEstimator for UnionGenerator {
    fn prepare_estimator(&mut self, seq: &SeedSequence) {
        RelationGenerator::prepare(self, seq);
    }

    fn estimate_volume<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<f64> {
        self.scratch.arm_budget(&self.budget);
        self.ensure_initialized(rng);
        if self.rollback_if_init_tripped() {
            return None;
        }
        let body = &*self.body;
        let total: f64 = body.volumes.iter().sum();
        if total <= 0.0 {
            return Some(0.0);
        }
        // Karp–Luby: vol(∪ S_i) = (Σ μ_i) · Pr[j(x) = j when j ~ μ, x ~ S_j].
        let trials = body.params.samples_per_phase();
        let mut accepted = 0usize;
        for _ in 0..trials {
            if !self.scratch.budget_meter_mut().charge_attempt() {
                return None;
            }
            let j = body.choose_component(rng);
            let x = body.samplers[j].sample_with(rng, &mut self.scratch);
            if self.scratch.budget_trip().is_some() {
                return None;
            }
            if body.first_index(&x) == Some(j) {
                accepted += 1;
            }
        }
        Some(total * accepted as f64 / trials as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn boxes(spec: &[(f64, f64, f64, f64)]) -> GeneralizedRelation {
        let mut rel: Option<GeneralizedRelation> = None;
        for &(x0, y0, x1, y1) in spec {
            let b = GeneralizedRelation::from_box_f64(&[x0, y0], &[x1, y1]);
            rel = Some(match rel {
                None => b,
                Some(r) => r.union(&b),
            });
        }
        rel.expect("non-empty spec")
    }

    #[test]
    fn disjoint_union_volume_and_balance() {
        // Two disjoint unit squares: volume 2, samples split evenly.
        let rel = boxes(&[(0.0, 0.0, 1.0, 1.0), (5.0, 0.0, 6.0, 1.0)]);
        let mut gen = UnionGenerator::new(&rel, GeneratorParams::fast()).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let vol = gen.estimate_volume(&mut rng).unwrap();
        assert!((vol - 2.0).abs() < 0.6, "volume {vol}");
        let pts = gen.sample_many(300, &mut rng);
        assert!(pts.len() > 250, "too many failures");
        let left = pts.iter().filter(|p| p[0] < 2.0).count() as f64 / pts.len() as f64;
        assert!((left - 0.5).abs() < 0.12, "left fraction {left}");
        for p in &pts {
            assert!(rel.contains_f64(p));
        }
    }

    #[test]
    fn overlapping_union_counts_each_point_once() {
        // [0,2]x[0,1] ∪ [1,3]x[0,1]: volume 3 (not 4).
        let rel = boxes(&[(0.0, 0.0, 2.0, 1.0), (1.0, 0.0, 3.0, 1.0)]);
        let mut gen = UnionGenerator::new(&rel, GeneratorParams::fast()).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        let vol = gen.estimate_volume(&mut rng).unwrap();
        assert!((vol - 3.0).abs() < 0.8, "volume {vol}");
        // The overlap region [1,2]x[0,1] should receive about 1/3 of the samples,
        // not the ~1/2 it would get if points were double counted.
        let pts = gen.sample_many(600, &mut rng);
        let overlap =
            pts.iter().filter(|p| p[0] >= 1.0 && p[0] <= 2.0).count() as f64 / pts.len() as f64;
        assert!(
            (overlap - 1.0 / 3.0).abs() < 0.12,
            "overlap fraction {overlap}"
        );
    }

    #[test]
    fn identical_components_do_not_double_count() {
        let rel = boxes(&[(0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 1.0, 1.0)]);
        let mut gen = UnionGenerator::new(&rel, GeneratorParams::fast()).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let vol = gen.estimate_volume(&mut rng).unwrap();
        assert!((vol - 1.0).abs() < 0.35, "volume {vol}");
    }

    #[test]
    fn m_ary_union_is_supported() {
        // Corollary 4.2: an unbounded number of union operands stays polynomial.
        let spec: Vec<(f64, f64, f64, f64)> = (0..8)
            .map(|i| (2.0 * i as f64, 0.0, 2.0 * i as f64 + 1.0, 1.0))
            .collect();
        let rel = boxes(&spec);
        let mut gen = UnionGenerator::new(&rel, GeneratorParams::fast()).unwrap();
        let mut rng = StdRng::seed_from_u64(24);
        let vol = gen.estimate_volume(&mut rng).unwrap();
        assert!((vol - 8.0).abs() < 2.0, "volume {vol}");
        assert_eq!(gen.component_volumes().len(), 8);
    }

    #[test]
    fn degenerate_components_are_pruned() {
        use cdb_constraint::{Atom, CompOp, GeneralizedTuple, LinTerm};
        let square = GeneralizedTuple::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]);
        let mut segment = GeneralizedTuple::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]);
        segment.push(Atom::new(LinTerm::from_ints(&[1, -1], 0), CompOp::Eq));
        let rel = GeneralizedRelation::from_tuples(2, vec![square, segment]);
        let gen = UnionGenerator::new(&rel, GeneratorParams::fast()).unwrap();
        assert_eq!(gen.relation().tuples().len(), 1);
    }

    #[test]
    fn empty_relation_is_rejected() {
        let rel = GeneralizedRelation::empty(2);
        assert!(matches!(
            UnionGenerator::new(&rel, GeneratorParams::fast()),
            Err(ObservabilityError::Empty)
        ));
    }

    #[test]
    fn unbounded_component_is_rejected() {
        use cdb_constraint::{Atom, GeneralizedTuple};
        // x >= 0 only: unbounded.
        let t = GeneralizedTuple::new(1, vec![Atom::le_from_ints(&[-1], 0)]);
        let rel = GeneralizedRelation::from_tuple(t);
        assert!(matches!(
            UnionGenerator::new(&rel, GeneratorParams::fast()),
            Err(ObservabilityError::NotWellBounded { .. })
        ));
    }
}
