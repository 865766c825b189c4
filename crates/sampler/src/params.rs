//! Generator parameters, the split-RNG seed sequence and the generator /
//! estimator traits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::budget::{BudgetTrip, QueryBudget};
use crate::walk::WalkKind;

/// A deterministic tree of random-number streams, the backbone of the
/// parallel batch API.
///
/// A `SeedSequence` names one node in an infinite tree rooted at a single
/// `u64` seed. [`SeedSequence::child`] derives the `i`-th child node by
/// mixing the index into the state with a SplitMix64-style avalanche, so
/// distinct children produce statistically independent [`StdRng`] streams
/// while remaining a pure function of `(root seed, path)`.
///
/// The batch samplers rely on one convention so that results are **bitwise
/// identical for any worker count**:
///
/// * child `0` ([`SeedSequence::setup_stream`]) funds one-time lazy setup
///   (per-component samplers, pilot volume estimates);
/// * child `i + 1` ([`SeedSequence::item_stream`]) funds work item `i`
///   (one sample, or one volume-estimate repeat), independently of which
///   thread executes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SeedSequence {
    state: u64,
}

/// SplitMix64 finalizer: a full-avalanche bijection on `u64`.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeedSequence {
    /// Creates the root of a stream tree from a seed.
    pub fn new(seed: u64) -> Self {
        SeedSequence {
            state: mix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Derives the `index`-th child stream. Deterministic, and children with
    /// distinct indices (or distinct parents) get distinct states.
    pub fn child(&self, index: u64) -> SeedSequence {
        SeedSequence {
            state: mix64(
                self.state
                    .wrapping_add((index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ),
        }
    }

    /// The stream that funds one-time generator setup (child `0`).
    pub fn setup_stream(&self) -> SeedSequence {
        self.child(0)
    }

    /// The stream that funds work item `i` (child `i + 1`).
    pub fn item_stream(&self, index: usize) -> SeedSequence {
        self.child(index as u64 + 1)
    }

    /// Instantiates the RNG of this stream.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.state)
    }
}

/// The `(γ, ε, δ)` parameters of Definition 2.2 together with the practical
/// knobs (walk length, sample counts) the theoretical bounds are mapped to.
///
/// The paper's mixing-time bound is `O((d^19 / εγ) ln(1/δ))`; running the
/// literal constant is pointless on real hardware, so the walk length is a
/// parameter calibrated per experiment (`walk_steps_factor · d` steps) and
/// the uniformity of the output is checked statistically instead
/// (`diagnostics`). The derived sample counts follow the shape of the
/// theoretical bounds: `O(1/ε²·ln(1/δ))` samples per telescoping phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeneratorParams {
    /// Grid/discretization quality `γ` of Definition 2.2.
    pub gamma: f64,
    /// Distribution quality `ε` (ratio `1 + ε` to uniform / to the volume).
    pub eps: f64,
    /// Failure probability `δ`.
    pub delta: f64,
    /// Number of walk steps per generated point, as a multiple of the
    /// dimension.
    pub walk_steps_factor: usize,
    /// The random walk used inside the convex generator.
    pub walk: WalkKind,
    /// Whether the rounding (well-rounding affine transform) step is applied.
    pub rounding: bool,
}

impl Default for GeneratorParams {
    fn default() -> Self {
        GeneratorParams {
            gamma: 0.1,
            eps: 0.2,
            delta: 0.1,
            walk_steps_factor: 12,
            walk: WalkKind::HitAndRun,
            rounding: true,
        }
    }
}

impl GeneratorParams {
    /// Parameters tuned for quick unit tests and doc examples: coarser
    /// approximation, shorter walks.
    pub fn fast() -> Self {
        GeneratorParams {
            gamma: 0.2,
            eps: 0.3,
            delta: 0.2,
            walk_steps_factor: 8,
            walk: WalkKind::HitAndRun,
            rounding: false,
        }
    }

    /// Parameters for the benchmark harness: tighter approximation.
    pub fn accurate() -> Self {
        GeneratorParams {
            gamma: 0.05,
            eps: 0.1,
            delta: 0.05,
            walk_steps_factor: 20,
            walk: WalkKind::HitAndRun,
            rounding: true,
        }
    }

    /// Number of walk steps for a body of dimension `d`.
    pub fn walk_steps(&self, d: usize) -> usize {
        (self.walk_steps_factor * d.max(1)).max(4)
    }

    /// Number of samples per telescoping phase of the volume estimator,
    /// `⌈c / ε² · ln(1/δ)⌉` with a small constant.
    pub fn samples_per_phase(&self) -> usize {
        let n = (4.0 / (self.eps * self.eps) * (1.0 / self.delta).ln()).ceil();
        (n as usize).clamp(64, 20_000)
    }

    /// Number of retry rounds used by the composed generators; the paper uses
    /// `k = 4 ln(1/δ)` for the union generator (Theorem 4.1).
    pub fn retry_rounds(&self) -> usize {
        ((4.0 * (1.0 / self.delta).ln()).ceil() as usize).clamp(4, 1_000)
    }

    /// A stable fingerprint of every field that influences a prepared body.
    /// Preparation seeds fold it in, so the same relation prepared under
    /// different parameters never shares a seed stream.
    pub fn fingerprint(&self) -> u64 {
        let mix = |z: u64| mix64(z.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let mut acc = mix(self.gamma.to_bits());
        for word in [
            self.eps.to_bits(),
            self.delta.to_bits(),
            self.walk_steps_factor as u64,
            match self.walk {
                WalkKind::HitAndRun => 1,
                WalkKind::Ball => 2,
                WalkKind::Grid { step_ratio } => mix(3 ^ step_ratio.to_bits()),
            },
            u64::from(self.rounding),
        ] {
            acc = mix(acc ^ word);
        }
        acc
    }

    /// Validates the parameter ranges required by the definitions
    /// (`0 < γ, ε, δ < 1`).
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("gamma", self.gamma),
            ("eps", self.eps),
            ("delta", self.delta),
        ] {
            if !(0.0 < v && v < 1.0) {
                return Err(format!("{name} must lie in (0, 1), got {v}"));
            }
        }
        Ok(())
    }
}

/// An almost-uniform generator for a relation (Definition 2.2): produces
/// points whose distribution is within ratio `1 + ε` of uniform on the
/// discretized relation, or fails (returns `None`) with probability at most
/// `δ`.
pub trait RelationGenerator {
    /// Dimension of the generated points.
    fn dim(&self) -> usize;
    /// Draws one almost-uniform point, or fails.
    fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Vec<f64>>;

    /// Draws `n` points, skipping failures (the number of returned points can
    /// be smaller than `n`). This is the sequential single-stream path; see
    /// [`RelationGenerator::sample_batch`] for the deterministic parallel one.
    fn sample_many<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) -> Vec<Vec<f64>> {
        (0..n).filter_map(|_| self.sample(rng)).collect()
    }

    /// Performs the generator's one-time lazy setup (per-component samplers,
    /// pilot volume estimates) funded by the setup stream of `seq`.
    /// Idempotent; called implicitly by the batch entry points.
    fn prepare(&mut self, seq: &SeedSequence) {
        let _ = seq;
    }

    /// Installs a [`QueryBudget`] that every subsequent `sample` /
    /// `estimate_volume` call runs under (the counters re-arm per call, so in
    /// a batch the budget applies per item). The default implementation
    /// ignores the budget — implementors without unbounded loops need no
    /// limits.
    fn set_budget(&mut self, budget: QueryBudget) {
        let _ = budget;
    }

    /// Why the most recent `sample` / `estimate_volume` call stopped early,
    /// or `None` when it ran to completion (a `None` result with a `None`
    /// trip is a genuine δ-failure, not budget exhaustion).
    fn budget_trip(&self) -> Option<BudgetTrip> {
        None
    }

    /// Draws `n` points, one per child stream of `seq` (item `i` uses
    /// [`SeedSequence::item_stream`]`(i)`), splitting the items across up to
    /// `threads` worker threads (`0` means inline until the work pays for
    /// threads, see [`crate::batch::fan_out_contained`]).
    ///
    /// The generator is [prepared](RelationGenerator::prepare) first, then
    /// every worker samples from its own clone. Because every item's
    /// randomness is a pure function of `(seq, i)` and setup is funded by the
    /// dedicated setup stream, the output is **identical for any thread
    /// count**. Failed draws are reported as `None` so indices stay aligned
    /// with streams. Workers mutate clones, so batch calls do not update
    /// diagnostic counters such as the composed generators'
    /// `acceptance_rate()`; the poly-relatedness signal itself is unaffected,
    /// as each item still reports failure through its own `None`.
    fn sample_batch(
        &mut self,
        n: usize,
        seq: &SeedSequence,
        threads: usize,
    ) -> Vec<Option<Vec<f64>>>
    where
        Self: Clone + Send + Sync,
    {
        self.prepare(seq);
        let generator = &*self;
        crate::batch::fan_out(
            n,
            threads,
            || generator.clone(),
            |g, i| g.sample(&mut seq.item_stream(i).rng()),
        )
    }
}

/// An `(ε, δ)`-volume estimator for a relation (Definition 2.1).
pub trait RelationVolumeEstimator {
    /// Estimates the volume, or fails (returns `None`) when the relation is
    /// not observable under the given parameters (e.g. the poly-related
    /// condition of Proposition 4.1 is violated).
    fn estimate_volume<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<f64>;

    /// Performs the estimator's one-time lazy setup funded by the setup
    /// stream of `seq` — the volume-side counterpart of
    /// [`RelationGenerator::prepare`] (types implementing both traits
    /// typically delegate one to the other). Idempotent; called implicitly
    /// by the batch entry points.
    fn prepare_estimator(&mut self, seq: &SeedSequence) {
        let _ = seq;
    }

    /// Runs `repeats` independent volume estimates, one per child stream of
    /// `seq`, across up to `threads` worker threads (`0` as in
    /// [`RelationGenerator::sample_batch`]). Same stream convention — setup from the setup
    /// stream, repeat `i` from [`SeedSequence::item_stream`]`(i)` on a
    /// worker-local clone — and therefore the same thread-count-independence
    /// guarantee as [`RelationGenerator::sample_batch`].
    fn estimate_volume_batch(
        &mut self,
        repeats: usize,
        seq: &SeedSequence,
        threads: usize,
    ) -> Vec<Option<f64>>
    where
        Self: Clone + Send + Sync,
    {
        self.prepare_estimator(seq);
        let estimator = &*self;
        crate::batch::fan_out(
            repeats,
            threads,
            || estimator.clone(),
            |e, i| e.estimate_volume(&mut seq.item_stream(i).rng()),
        )
    }

    /// Median of the successful repeats of
    /// [`RelationVolumeEstimator::estimate_volume_batch`] — the classical
    /// amplification of an `(ε, 1/4)`-estimator into an `(ε, δ)`-estimator
    /// with `O(ln 1/δ)` repetitions. `None` when every repeat failed.
    fn estimate_volume_median(
        &mut self,
        repeats: usize,
        seq: &SeedSequence,
        threads: usize,
    ) -> Option<f64>
    where
        Self: Clone + Send + Sync,
    {
        median(
            self.estimate_volume_batch(repeats.max(1), seq, threads)
                .into_iter()
                .flatten(),
        )
    }
}

/// Upper median of the values by `partial_cmp` (the element at index
/// `len / 2` once sorted; all volume estimates are finite); `None` for no
/// values.
pub fn median(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("volume estimates are finite"));
    Some(v[v.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_counts_scale_with_parameters() {
        let loose = GeneratorParams {
            eps: 0.5,
            delta: 0.5,
            ..Default::default()
        };
        let tight = GeneratorParams {
            eps: 0.05,
            delta: 0.01,
            ..Default::default()
        };
        assert!(tight.samples_per_phase() > loose.samples_per_phase());
        assert!(tight.retry_rounds() >= loose.retry_rounds());
        assert!(tight.walk_steps(10) == 10 * tight.walk_steps_factor);
        assert!(loose.walk_steps(0) >= 4);
    }

    #[test]
    fn validation_rejects_out_of_range() {
        assert!(GeneratorParams::default().validate().is_ok());
        assert!(GeneratorParams {
            eps: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(GeneratorParams {
            delta: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(GeneratorParams {
            gamma: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn seed_sequence_children_are_deterministic_and_distinct() {
        let root = SeedSequence::new(42);
        assert_eq!(root.child(3), SeedSequence::new(42).child(3));
        // Sibling streams and cousin streams never collide on a large sample.
        let mut states = std::collections::HashSet::new();
        for i in 0..1000u64 {
            assert!(states.insert(root.child(i)));
            assert!(states.insert(root.child(7).child(i)));
        }
        // Distinct roots give distinct trees.
        assert_ne!(SeedSequence::new(1).child(0), SeedSequence::new(2).child(0));
        // setup/item streams follow the documented child indices.
        assert_eq!(root.setup_stream(), root.child(0));
        assert_eq!(root.item_stream(5), root.child(6));
    }

    #[test]
    fn seed_sequence_rngs_diverge() {
        use rand::RngCore;
        let root = SeedSequence::new(9);
        let mut a = root.child(0).rng();
        let mut b = root.child(1).rng();
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "child streams look correlated");
        // The same stream replays identically.
        let mut c = root.child(1).rng();
        let mut d = root.child(1).rng();
        for _ in 0..64 {
            assert_eq!(c.next_u64(), d.next_u64());
        }
    }

    #[test]
    fn presets_are_ordered_by_cost() {
        assert!(
            GeneratorParams::fast().samples_per_phase()
                <= GeneratorParams::accurate().samples_per_phase()
        );
        assert!(
            GeneratorParams::fast().walk_steps_factor
                <= GeneratorParams::accurate().walk_steps_factor
        );
    }
}
