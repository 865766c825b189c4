//! Algorithm 2 of the paper: the almost-uniform generator for the projection
//! of a convex relation, and the associated volume estimator (Theorem 4.3).
//!
//! As Figure 1 of the paper illustrates, simply projecting uniform samples of
//! `S` is *not* uniform on the projection `T`: a point `y ∈ T` is hit with
//! probability proportional to the volume of the cylinder (fiber)
//! `H_S(y) = S ∩ {x : proj_I(x) = y}`. Algorithm 2 compensates by accepting
//! `y` with probability `1/ĥ`, where `ĥ` is the (estimated) number of γ-grid
//! points in the cylinder.
//!
//! # The compensation-weight data flow
//!
//! `ĥ` is a γ-grid count, so the weight of `y` *snapped to its grid cell* is
//! an exact finite-domain memo key. The hot path therefore runs
//! **snap → probe → fill**:
//!
//! 1. **snap** — the projected point is snapped to the integer coordinates
//!    of its γ-grid cell;
//! 2. **probe** — the per-generator [`FiberWeightCache`] is consulted; a hit
//!    skips fiber construction entirely;
//! 3. **fill** — on a miss the [`FiberVolume`] strategy computes the weight
//!    at the snapped cell center: `Exact` re-aims the reusable
//!    [`FiberTemplate`] (no allocation, no fresh polytope) and runs vertex
//!    enumeration; `Estimated` runs the in-crate telescoping estimator with
//!    randomness derived from the cell key, so the weight stays a pure
//!    function of the cell and caching is invisible to the output stream.

use rand::Rng;

use cdb_constraint::GeneralizedTuple;
use cdb_geometry::fiber::FiberTemplate;
use cdb_geometry::{volume::polytope_volume, GammaGrid, HPolytope, Halfspace};

use crate::budget::{BudgetTrip, QueryBudget, PROJECTION_RETRY_CAP};
use crate::compose::fiber_weight::{FiberVolume, FiberWeightCache, ProjectionParams};
use crate::compose::stratified::{CellRange, CellSelection, CoarseMap, StratifiedCells};
use crate::compose::ObservabilityError;
use crate::dfk::DfkSampler;
use crate::oracle::ConvexBody;
use crate::params::{GeneratorParams, RelationGenerator, RelationVolumeEstimator, SeedSequence};
use crate::walk::WalkScratch;

/// Warm selector and weight-cache state captured from a
/// [`ProjectionGenerator`], shareable between generators over the same
/// relation and parameters (see
/// [`ProjectionGenerator::export_warm_state`]). Opaque by design: the
/// fields tie into the generator's lazy-selector internals.
#[derive(Clone, Debug)]
pub struct ProjectionWarmState {
    /// Warm weight cells in canonical (key-sorted) order.
    cells: Vec<(Vec<i64>, f64)>,
    strata: Option<StratifiedCells>,
    coarse: Option<CoarseMap>,
    selector_built: bool,
}

impl ProjectionWarmState {
    /// Number of warm weight cells carried by this state.
    pub fn warm_cells(&self) -> usize {
        self.cells.len()
    }

    /// Whether the lazily built cell selector is included.
    pub fn has_selector(&self) -> bool {
        self.selector_built
    }
}

/// Generator and volume estimator for the projection `T = proj_I(S)` of a
/// convex relation `S` onto the coordinates `I`.
#[derive(Clone, Debug)]
pub struct ProjectionGenerator {
    tuple: GeneralizedTuple,
    polytope: HPolytope,
    keep: Vec<usize>,
    fiber_coords: Vec<usize>,
    sampler: DfkSampler,
    grid: GammaGrid,
    params: ProjectionParams,
    /// Resolved fiber-volume strategy (never [`FiberVolume::Auto`]).
    fiber_volume: FiberVolume,
    /// Reusable fiber system, re-aimed per cache miss.
    fiber: FiberTemplate,
    /// Memoized cylinder weights, one cache per generator (and so per batch
    /// worker clone).
    cache: FiberWeightCache,
    /// Seed of the `Estimated` strategy's per-cell RNG streams; drawn once
    /// at construction so every clone derives identical streams.
    weight_seed: u64,
    /// Volume of one γ-grid cell of the fiber, `p^{d−e}`.
    cell: f64,
    /// Volume of one γ-grid cell of the projection, `p^e`.
    cell_proj: f64,
    /// Resolved cell-selection strategy (never [`CellSelection::Auto`]).
    selection: CellSelection,
    /// γ-grid index ranges of the projected bounding box on the kept
    /// coordinates (`None` only for the identity projection).
    range: Option<CellRange>,
    /// Continuous kept-coordinate bounding box; within-cell jitter is
    /// clamped into it so boundary cells cannot emit points outside the
    /// projection's bounding box.
    keep_lo: Vec<f64>,
    keep_hi: Vec<f64>,
    /// Fully-enumerated stratified selector (built lazily: enumeration costs
    /// one weight fill per candidate cell, which callers that never sample —
    /// e.g. weight-only diagnostics — should not pay).
    strata: Option<StratifiedCells>,
    /// Coarse-to-fine cascade state (lazy, same reason).
    coarse: Option<CoarseMap>,
    /// Whether the lazy selector state has been built.
    selector_built: bool,
    /// Integer grid coordinates of the snapped projected point (reused).
    key_buf: Vec<i64>,
    /// The snapped projected point itself (reused).
    snap_buf: Vec<f64>,
    attempts: u64,
    accepted: u64,
    /// Per-generator walk workspace (cloned per batch worker).
    scratch: WalkScratch,
    /// Work limits installed by [`RelationGenerator::set_budget`]; armed on
    /// the scratch meter at each query-call head. Fiber-weight cache fills
    /// are deliberately exempt (see
    /// [`ProjectionGenerator::estimated_fiber_volume`]): a truncated fill
    /// would poison the memo table for every later query.
    budget: QueryBudget,
}

impl ProjectionGenerator {
    /// Builds the generator for `proj_keep(tuple)` with the default
    /// compensation-weight subsystem (see [`ProjectionParams::new`]). The
    /// tuple must be a well-bounded convex relation (a single generalized
    /// tuple), and `keep` must list distinct coordinates.
    pub fn new<R: Rng + ?Sized>(
        tuple: &GeneralizedTuple,
        keep: &[usize],
        params: GeneratorParams,
        rng: &mut R,
    ) -> Result<Self, ObservabilityError> {
        Self::new_with(tuple, keep, ProjectionParams::new(params), rng)
    }

    /// Builds the generator with explicit [`ProjectionParams`]: fiber-volume
    /// strategy, weight-cache capacity and estimator budget.
    pub fn new_with<R: Rng + ?Sized>(
        tuple: &GeneralizedTuple,
        keep: &[usize],
        params: ProjectionParams,
        rng: &mut R,
    ) -> Result<Self, ObservabilityError> {
        params
            .validate()
            .map_err(ObservabilityError::InvalidParams)?;
        let d = tuple.arity();
        let mut sorted = keep.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != keep.len() || keep.iter().any(|&k| k >= d) || keep.is_empty() {
            return Err(ObservabilityError::InvalidParams(
                "projection coordinates must be distinct and within the arity".into(),
            ));
        }
        // One closure polytope and one well-boundedness certificate serve
        // both the sampler body and the fiber geometry.
        let polytope = tuple.to_hpolytope();
        let cert = polytope
            .well_bounded()
            .ok_or(ObservabilityError::NotWellBounded { index: 0 })?;
        let body = ConvexBody::from_polytope_cert(polytope.clone(), cert);
        let grid = GammaGrid::for_well_bounded(d, params.base.gamma, body.r_inf());
        let sampler = DfkSampler::new(body, params.base, rng);
        let weight_seed = rng.next_u64();
        let fiber_coords: Vec<usize> = (0..d).filter(|i| !keep.contains(i)).collect();
        let fiber = FiberTemplate::new(&polytope, keep);
        let fiber_volume = params.resolve_fiber_volume(fiber_coords.len());
        let cache = FiberWeightCache::new(params.cache_capacity);
        let cell = grid.step().powi(fiber_coords.len() as i32);
        let cell_proj = grid.step().powi(keep.len() as i32);
        // Resolve the cell-selection strategy against the projected
        // bounding box (cheap: one LP per coordinate bound; the expensive
        // per-cell weight enumeration stays lazy). The identity projection
        // keeps the direct sampler path regardless of the request.
        let (selection, range, keep_lo, keep_hi) = if fiber_coords.is_empty() {
            (CellSelection::Rejection, None, Vec::new(), Vec::new())
        } else {
            let (lo, hi) = polytope
                .bounding_box()
                .ok_or(ObservabilityError::NotWellBounded { index: 0 })?;
            let keep_lo: Vec<f64> = keep.iter().map(|&i| lo[i]).collect();
            let keep_hi: Vec<f64> = keep.iter().map(|&i| hi[i]).collect();
            let range = CellRange::from_box(&keep_lo, &keep_hi, grid.step());
            let budget = params.max_enumerated_cells as u64;
            let selection = match params.cell_selection {
                CellSelection::Auto => {
                    if range.cell_count() <= budget {
                        CellSelection::Stratified
                    } else {
                        CellSelection::CoarseToFine
                    }
                }
                CellSelection::Stratified if range.cell_count() > budget => {
                    return Err(ObservabilityError::InvalidParams(format!(
                        "stratified enumeration needs {} cells but max_enumerated_cells is {}; \
                         use CellSelection::Auto or CoarseToFine",
                        range.cell_count(),
                        budget
                    )));
                }
                explicit => explicit,
            };
            (selection, Some(range), keep_lo, keep_hi)
        };
        Ok(ProjectionGenerator {
            tuple: tuple.clone(),
            polytope,
            keep: keep.to_vec(),
            fiber_coords,
            sampler,
            grid,
            params,
            fiber_volume,
            fiber,
            cache,
            weight_seed,
            cell,
            cell_proj,
            selection,
            range,
            keep_lo,
            keep_hi,
            strata: None,
            coarse: None,
            selector_built: false,
            key_buf: Vec::with_capacity(keep.len()),
            snap_buf: Vec::with_capacity(keep.len()),
            attempts: 0,
            accepted: 0,
            scratch: WalkScratch::new(),
            budget: QueryBudget::unlimited(),
        })
    }

    /// The projection coordinates `I`.
    pub fn kept_coordinates(&self) -> &[usize] {
        &self.keep
    }

    /// The generalized tuple being projected.
    pub fn tuple(&self) -> &GeneralizedTuple {
        &self.tuple
    }

    /// The full parameter set, including the compensation-weight knobs.
    pub fn projection_params(&self) -> &ProjectionParams {
        &self.params
    }

    /// Dimension of the fiber (number of dropped coordinates).
    pub fn fiber_dim(&self) -> usize {
        self.fiber_coords.len()
    }

    /// The γ-grid the compensation weights are counted on (its step defines
    /// both the cache cells and the weight denominator `p^{d−e}`).
    pub fn grid(&self) -> &GammaGrid {
        &self.grid
    }

    /// The fiber-volume strategy in effect ([`FiberVolume::Auto`] resolved
    /// against the fiber dimension at construction).
    pub fn resolved_fiber_volume(&self) -> FiberVolume {
        self.fiber_volume
    }

    /// The cell-selection strategy in effect ([`CellSelection::Auto`]
    /// resolved against the enumeration budget at construction; the
    /// identity projection always reports [`CellSelection::Rejection`]).
    pub fn resolved_cell_selection(&self) -> CellSelection {
        self.selection
    }

    /// γ-grid index ranges of the projected bounding box (`None` for the
    /// identity projection).
    pub fn cell_range(&self) -> Option<&CellRange> {
        self.range.as_ref()
    }

    /// The fully-enumerated stratified selector: occupied cells in odometer
    /// order with their `min(raw, 1)` selection weights. Builds the
    /// enumeration on first call; `None` unless the resolved strategy is
    /// [`CellSelection::Stratified`] (or the body has no occupied cell).
    pub fn stratified_cells(&mut self) -> Option<&StratifiedCells> {
        self.ensure_selector();
        self.strata.as_ref()
    }

    /// The memoized-weight cache (hit/miss statistics, occupancy).
    pub fn weight_cache(&self) -> &FiberWeightCache {
        &self.cache
    }

    /// Exports the generator's warm selector and weight-cache state for
    /// sharing through the prepared-relation store: the weight cells in
    /// canonical (sorted) order, plus the lazily built stratified /
    /// coarse-cascade selector. Estimated weights are pure functions of
    /// `(weight_seed, cell)`, so a peer generator over the same relation and
    /// parameters can import this state without changing any result — it
    /// only skips the recomputation.
    pub fn export_warm_state(&self) -> ProjectionWarmState {
        ProjectionWarmState {
            cells: self.cache.export_warm(),
            strata: self.strata.clone(),
            coarse: self.coarse.clone(),
            selector_built: self.selector_built,
        }
    }

    /// Installs a warm state captured by
    /// [`ProjectionGenerator::export_warm_state`] from a generator built
    /// over the same relation and parameters. The weight cache is rebuilt
    /// from scratch in canonical order, so the resulting table state is a
    /// pure function of the warm set — independent of the fill history that
    /// produced it — and sampling after an import is bitwise identical to
    /// sampling after recomputing every imported cell.
    pub fn import_warm_state(&mut self, warm: &ProjectionWarmState) {
        let mut cache = FiberWeightCache::new(self.params.cache_capacity);
        cache.import_warm(&warm.cells);
        self.cache = cache;
        self.strata = warm.strata.clone();
        self.coarse = warm.coarse.clone();
        self.selector_built = warm.selector_built;
    }

    /// Usage tallies of the most recent budgeted `sample` call, which lets a
    /// caller charge a sequence of draws to one shared budget.
    pub fn budget_meter(&self) -> &crate::budget::BudgetMeter {
        self.scratch.budget_meter()
    }

    /// Observed acceptance rate of the compensation step.
    pub fn acceptance_rate(&self) -> f64 {
        if self.attempts == 0 {
            1.0
        } else {
            self.accepted as f64 / self.attempts as f64
        }
    }

    /// The cylinder `H_S(y)` expressed as a polytope over the fiber
    /// coordinates: every halfspace `a·x ≤ b` of `S` becomes
    /// `a_F·z ≤ b − a_I·y`. Builds a fresh polytope — the reference
    /// construction; the hot path re-aims the internal [`FiberTemplate`]
    /// instead.
    pub fn fiber_polytope(&self, y: &[f64]) -> HPolytope {
        let fiber_dim = self.fiber_coords.len();
        let halfspaces = self
            .polytope
            .halfspaces()
            .iter()
            .map(|h| {
                let normal: Vec<f64> = self.fiber_coords.iter().map(|&i| h.normal()[i]).collect();
                let fixed: f64 = self
                    .keep
                    .iter()
                    .enumerate()
                    .map(|(j, &i)| h.normal()[i] * y[j])
                    .sum();
                Halfspace::from_slice(&normal, h.offset() - fixed)
            })
            .collect();
        // Built per call and queried once: skip structure detection.
        HPolytope::new_dense(fiber_dim, halfspaces)
    }

    /// The paper's `ĥ` evaluated directly at `y` (no snapping, no cache, no
    /// template): the uncached reference implementation, exposed for the
    /// experiments and equivalence tests. The sampling hot path uses
    /// [`ProjectionGenerator::compensation_weight`].
    pub fn cylinder_weight(&self, y: &[f64]) -> f64 {
        if self.fiber_coords.is_empty() {
            return 1.0;
        }
        let fiber = self.fiber_polytope(y);
        let vol = polytope_volume(&fiber);
        (vol / self.cell).max(1.0)
    }

    /// The memoized compensation weight `ĥ` of the γ-grid cell containing
    /// `y`: snap → probe → fill (see the module docs). The weight of a cell
    /// is a pure function of the cell (and, for the estimated strategy, the
    /// generator's weight seed), so hits and misses produce identical
    /// values and the cache never changes a trajectory.
    pub fn compensation_weight(&mut self, y: &[f64]) -> f64 {
        self.cell_mass(y).max(1.0)
    }

    /// The unclamped cell mass `raw = vol(H_S(center)) / p^{d−e}` of the
    /// γ-grid cell containing `y` — the quantity the cache stores. The
    /// rejection path clamps it to `ĥ = max(raw, 1)`
    /// ([`ProjectionGenerator::compensation_weight`]); the stratified layer
    /// uses `min(raw, 1)` as the cell's selection weight, because the
    /// rejection loop lands in a cell proportionally to `raw` and keeps it
    /// with probability `1/max(raw, 1)`.
    pub fn cell_mass(&mut self, y: &[f64]) -> f64 {
        if self.fiber_coords.is_empty() {
            return 1.0;
        }
        // Snap: integer grid coordinates of y's cell (the grid owns the
        // rounding convention, so cache cells can never diverge from
        // `GammaGrid::snap`).
        let mut key = std::mem::take(&mut self.key_buf);
        key.clear();
        key.extend(y.iter().map(|&v| self.grid.coord_index(v)));
        let mass = self.cell_mass_keyed(&key);
        self.key_buf = key;
        mass
    }

    /// [`ProjectionGenerator::cell_mass`] for an already-snapped integer
    /// cell key: probe → fill. The hash is computed once and shared by the
    /// probe, the insert and the estimator's RNG-stream derivation.
    fn cell_mass_keyed(&mut self, key: &[i64]) -> f64 {
        let hash = FiberWeightCache::key_hash(key);
        match self.cache.get_hashed(hash, key) {
            Some(w) => w,
            None => {
                // Fill at the cell center and memoize.
                let w = self.fill_mass(key, hash);
                self.cache.insert_hashed(hash, key, w);
                w
            }
        }
    }

    /// Computes the unclamped mass of one cell through the resolved
    /// strategy.
    fn fill_mass(&mut self, key: &[i64], hash: u64) -> f64 {
        let mut y = std::mem::take(&mut self.snap_buf);
        y.clear();
        y.extend(key.iter().map(|&k| self.grid.coord_at(k)));
        let vol = match self.fiber_volume {
            FiberVolume::Exact | FiberVolume::Auto => self.fiber.exact_volume(&y),
            FiberVolume::Estimated => self.estimated_fiber_volume(&y, hash),
        };
        self.snap_buf = y;
        vol / self.cell
    }

    /// The `Estimated` strategy: a telescoping `(ε, δ)` volume estimate of
    /// the fiber, funded by an RNG stream derived from the cell-key hash so
    /// the result is a pure function of `(weight_seed, cell)` — identical
    /// across cache states, worker clones and thread counts.
    ///
    /// The fill runs with the query budget meter set aside: a memoized
    /// weight must stay a pure function of its cell, and a fill truncated by
    /// a budget would be cached and poison every later query — including
    /// unbudgeted ones. Budgets bound the query's own walks and attempts;
    /// weight fills are store-level setup work.
    fn estimated_fiber_volume(&mut self, y: &[f64], key_hash: u64) -> f64 {
        let fiber = self.fiber.at(y).clone();
        // Degenerate or empty fibers (cells straddling the boundary) carry
        // no weight; the `max(1.0)` clamp in the caller handles them.
        let Some(cert) = fiber.well_bounded() else {
            return 0.0;
        };
        let body = ConvexBody::from_polytope_cert(fiber, cert);
        let mut rng = SeedSequence::new(self.weight_seed).child(key_hash).rng();
        let estimator = DfkSampler::new(body, self.params.estimator_params(), &mut rng);
        let saved = self.scratch.take_meter();
        let vol = estimator.estimate_volume_with(&mut rng, &mut self.scratch);
        self.scratch.restore_meter(saved);
        vol
    }

    /// Projects a full-dimensional point onto the kept coordinates.
    fn project(&self, x: &[f64]) -> Vec<f64> {
        self.keep.iter().map(|&i| x[i]).collect()
    }

    /// Retry budget of one `sample()` call: the success probability of one
    /// round is at least ~εγ/d³ (proof of Theorem 4.3, with the grid step
    /// p = γ·r_inf/d^{3/2} folded in); retry accordingly, with a cap.
    fn retry_budget(&self) -> usize {
        let d = self.tuple.arity();
        let rounds = ((d.pow(3) as f64 / (self.params.base.eps * self.params.base.gamma))
            * (1.0 / self.params.base.delta).ln())
        .ceil() as usize;
        rounds.clamp(self.params.base.retry_rounds(), PROJECTION_RETRY_CAP)
    }

    /// Builds the lazy stratified state. Consumes **no sampling
    /// randomness**: cells are enumerated in odometer order and their
    /// weights are pure functions of `(weight_seed, cell)`, so a generator
    /// that builds its selector early, late, or in a batch worker's clone
    /// draws bitwise identical streams.
    fn ensure_selector(&mut self) {
        if self.selector_built {
            return;
        }
        self.selector_built = true;
        match self.selection {
            CellSelection::Stratified => {
                let Some(range) = self.range.clone() else {
                    return;
                };
                let mut keys = Vec::new();
                range.for_each_key(|k| keys.push(k.to_vec()));
                let cells: Vec<(Vec<i64>, f64)> = keys
                    .into_iter()
                    .map(|key| {
                        let w = self.cell_mass_keyed(&key).min(1.0);
                        (key, w)
                    })
                    .collect();
                self.strata = StratifiedCells::from_weighted_keys(cells);
            }
            CellSelection::CoarseToFine => {
                if let Some(range) = self.range.clone() {
                    self.coarse = Some(CoarseMap::new(
                        range,
                        self.params.max_enumerated_cells as u64,
                    ));
                }
            }
            CellSelection::Rejection | CellSelection::Auto => {}
        }
    }

    /// Emits a uniform point of cell `key`: the cell center plus a uniform
    /// half-cell jitter per axis, clamped into the projected bounding box.
    /// Consumes exactly one random value per kept axis, in axis order.
    fn jitter_cell<R: Rng + ?Sized>(&self, key: &[i64], rng: &mut R) -> Vec<f64> {
        let step = self.grid.step();
        key.iter()
            .enumerate()
            .map(|(j, &k)| {
                let u: f64 = rng.gen_range(0.0..1.0);
                let v = self.grid.coord_at(k) + step * (u - 0.5);
                v.clamp(self.keep_lo[j], self.keep_hi[j])
            })
            .collect()
    }

    /// The stratified fast path: one alias-table draw selects the cell,
    /// then a uniform within-cell jitter emits the point. Every call
    /// succeeds (`None` only when the enumeration found no occupied cell).
    fn sample_stratified<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Vec<f64>> {
        self.ensure_selector();
        if self.strata.is_none() {
            return None;
        }
        // One alias draw per call: charge one attempt so cancellation and
        // deadlines still reach the (otherwise loop-free) fast path.
        if !self.scratch.budget_meter_mut().charge_attempt() {
            return None;
        }
        self.attempts += 1;
        self.accepted += 1;
        let key = {
            let strata = self.strata.as_ref().expect("checked above");
            strata.sample_key(rng).to_vec()
        };
        Some(self.jitter_cell(&key, rng))
    }

    /// The coarse-to-fine cascade: draw a coarse cell uniformly from the
    /// bounding-box lattice, lazily build the fine alias table inside it,
    /// and accept it with probability `W_c / ratio^e`. Acceptance is the
    /// occupied fraction of the bounding box — bounded by geometry rather
    /// than by the fiber weight `ĥ`.
    fn sample_coarse_to_fine<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Vec<f64>> {
        self.ensure_selector();
        let Some(mut map) = self.coarse.take() else {
            return None;
        };
        let proposal = map.proposal_mass();
        let mut coarse_key = Vec::with_capacity(self.keep.len());
        let mut drawn = None;
        for _ in 0..self.retry_budget() {
            if !self.scratch.budget_meter_mut().charge_attempt() {
                break;
            }
            map.sample_coarse(rng, &mut coarse_key);
            let cell = map.fine_cell(&coarse_key, |k| self.cell_mass_keyed(k));
            self.attempts += 1;
            if rng.gen_range(0.0..1.0) * proposal < cell.mass {
                if let Some(table) = &cell.table {
                    self.accepted += 1;
                    drawn = Some(cell.keys[table.sample(rng)].clone());
                    break;
                }
            }
        }
        self.coarse = Some(map);
        drawn.map(|key| self.jitter_cell(&key, rng))
    }

    /// Draws a point of `S` and projects it *without* the compensation step —
    /// the biased baseline of Figure 1, exposed for the experiments.
    pub fn sample_uncorrected<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        self.project(&self.sampler.sample(rng))
    }

    /// Estimates the volume (in dimension `|I|`) of the projection `T`.
    ///
    /// Under [`CellSelection::Stratified`] the estimate is the
    /// deterministic Riemann sum `Σ_c min(raw_c, 1) · p^e` over the
    /// enumerated cells — exact at grid resolution, consuming no
    /// randomness. The rejection and coarse-to-fine strategies use the
    /// paper's estimator `vol(T) = vol(S) · E[1/ĥ] / p^{d−e}`.
    /// Note on budgets: when a [`QueryBudget`] installed through
    /// [`RelationGenerator::set_budget`] trips mid-estimate, the returned
    /// value is truncated garbage; the [`RelationVolumeEstimator`] wrapper
    /// detects the trip and reports `None` instead.
    pub fn estimate_projection_volume<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.scratch.arm_budget(&self.budget);
        if self.fiber_coords.is_empty() {
            return self.sampler.estimate_volume_with(rng, &mut self.scratch);
        }
        if self.selection == CellSelection::Stratified {
            self.ensure_selector();
            return self
                .strata
                .as_ref()
                .map_or(0.0, |s| s.total_mass() * self.cell_proj);
        }
        let vol_s = self.sampler.estimate_volume_with(rng, &mut self.scratch);
        let trials = self.params.base.samples_per_phase();
        let mut sum_inv = 0.0;
        for _ in 0..trials {
            if !self.scratch.budget_meter_mut().charge_attempt() {
                return 0.0;
            }
            let x = self.sampler.sample_with(rng, &mut self.scratch);
            if self.scratch.budget_trip().is_some() {
                // The walk was truncated: x is not almost-uniform on S.
                return 0.0;
            }
            let y = self.project(&x);
            sum_inv += 1.0 / self.compensation_weight(&y);
        }
        let mean_inv = sum_inv / trials as f64;
        vol_s * mean_inv / self.cell
    }
}

impl RelationGenerator for ProjectionGenerator {
    fn dim(&self) -> usize {
        self.keep.len()
    }

    fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Vec<f64>> {
        self.scratch.arm_budget(&self.budget);
        if self.fiber_coords.is_empty() {
            let x = self.sampler.sample_with(rng, &mut self.scratch);
            if self.scratch.budget_trip().is_some() {
                // The walk was truncated: x is not almost-uniform.
                return None;
            }
            return Some(self.project(&x));
        }
        match self.selection {
            CellSelection::Stratified => return self.sample_stratified(rng),
            CellSelection::CoarseToFine => return self.sample_coarse_to_fine(rng),
            CellSelection::Rejection | CellSelection::Auto => {}
        }
        for _ in 0..self.retry_budget() {
            if !self.scratch.budget_meter_mut().charge_attempt() {
                return None;
            }
            let x = self.sampler.sample_with(rng, &mut self.scratch);
            if self.scratch.budget_trip().is_some() {
                return None;
            }
            let y = self.project(&x);
            let h = self.compensation_weight(&y);
            self.attempts += 1;
            if rng.gen_range(0.0..1.0) < 1.0 / h {
                self.accepted += 1;
                return Some(y);
            }
        }
        None
    }

    // The stratified selector is the only lazy state; it consumes no
    // sampling randomness and its weights are pure functions of their
    // cells, so building it here (before worker clones fan out) is a pure
    // warm-up — a worker that rebuilt it from scratch would draw the same
    // stream bit for bit.
    fn prepare(&mut self, _seq: &SeedSequence) {
        // Setup work is store-charged: never let a stale query meter (or an
        // armed budget) truncate the selector build.
        self.scratch.disarm_budget();
        self.ensure_selector();
    }

    fn set_budget(&mut self, budget: QueryBudget) {
        self.budget = budget;
    }

    fn budget_trip(&self) -> Option<BudgetTrip> {
        self.scratch.budget_trip()
    }
}

impl RelationVolumeEstimator for ProjectionGenerator {
    fn estimate_volume<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<f64> {
        let v = self.estimate_projection_volume(rng);
        if self.scratch.budget_trip().is_some() {
            // A tripped budget leaves a truncated (garbage) estimate.
            return None;
        }
        Some(v)
    }

    fn prepare_estimator(&mut self, _seq: &SeedSequence) {
        self.scratch.disarm_budget();
        self.ensure_selector();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The triangle 0 ≤ x ≤ 1, 0 ≤ y ≤ x — the canonical Figure 1 shape: its
    /// projection onto x is [0,1], but the fibers shrink linearly to a point
    /// at x = 0.
    fn figure1_triangle() -> GeneralizedTuple {
        use cdb_constraint::Atom;
        GeneralizedTuple::new(
            2,
            vec![
                Atom::le_from_ints(&[-1, 0], 0), // x >= 0
                Atom::le_from_ints(&[1, 0], -1), // x <= 1
                Atom::le_from_ints(&[0, -1], 0), // y >= 0
                Atom::le_from_ints(&[-1, 1], 0), // y <= x
            ],
        )
    }

    fn params() -> GeneratorParams {
        GeneratorParams {
            gamma: 0.05,
            ..GeneratorParams::fast()
        }
    }

    #[test]
    fn samples_land_in_the_projection() {
        // The rejection reference path: compensation loop + memoized weights.
        let tri = figure1_triangle();
        let mut rng = StdRng::seed_from_u64(51);
        let proj = ProjectionParams::new(params()).with_cell_selection(CellSelection::Rejection);
        let mut gen = ProjectionGenerator::new_with(&tri, &[0], proj, &mut rng).unwrap();
        assert_eq!(gen.resolved_cell_selection(), CellSelection::Rejection);
        let pts = gen.sample_many(200, &mut rng);
        assert!(pts.len() > 100, "too many rejections: {}", pts.len());
        for p in &pts {
            assert_eq!(p.len(), 1);
            assert!(
                p[0] >= -1e-6 && p[0] <= 1.0 + 1e-6,
                "outside projection: {p:?}"
            );
        }
        // The compensation loop memoized its weights.
        assert!(gen.weight_cache().hits() > 0, "cache never hit");
    }

    #[test]
    fn auto_resolves_to_stratified_and_lands_in_the_projection() {
        // The triangle's γ-grid fits the enumeration budget, so the default
        // Auto policy inverts the rejection loop outright.
        let tri = figure1_triangle();
        let mut rng = StdRng::seed_from_u64(58);
        let mut gen = ProjectionGenerator::new(&tri, &[0], params(), &mut rng).unwrap();
        assert_eq!(gen.resolved_cell_selection(), CellSelection::Stratified);
        let pts = gen.sample_many(200, &mut rng);
        assert_eq!(pts.len(), 200, "stratified draws never fail");
        for p in &pts {
            assert!(
                p[0] >= -1e-6 && p[0] <= 1.0 + 1e-6,
                "outside projection: {p:?}"
            );
        }
        // The enumeration warmed the cache (one fill per candidate cell).
        assert!(gen.weight_cache().len() > 0, "enumeration filled nothing");
        let strata = gen.stratified_cells().expect("occupied cells exist");
        assert!(
            strata.len() > 50,
            "too few occupied cells: {}",
            strata.len()
        );
        // Selection weights are min(raw, 1): never above 1, and the total
        // mass times the cell length reproduces the projection length.
        assert!(strata.weights().iter().all(|&w| 0.0 < w && w <= 1.0));
        let v = strata.total_mass() * gen.grid().step();
        assert!((v - 1.0).abs() < 0.05, "stratified projection length {v}");
    }

    #[test]
    fn coarse_to_fine_matches_the_stratified_distribution() {
        // Force the cascade with a tiny enumeration budget; the projected
        // output must flatten the Figure-1 bias exactly like full
        // enumeration does.
        let tri = figure1_triangle();
        let mut rng = StdRng::seed_from_u64(59);
        let proj = ProjectionParams::new(params())
            .with_cell_selection(CellSelection::CoarseToFine)
            .with_max_enumerated_cells(16);
        let mut gen = ProjectionGenerator::new_with(&tri, &[0], proj, &mut rng).unwrap();
        assert_eq!(gen.resolved_cell_selection(), CellSelection::CoarseToFine);
        let pts = gen.sample_many(400, &mut rng);
        assert!(pts.len() > 350, "cascade rejected too much: {}", pts.len());
        let left = pts.iter().filter(|p| p[0] < 0.5).count();
        let frac = left as f64 / pts.len() as f64;
        assert!((frac - 0.5).abs() < 0.12, "left fraction {frac}");
        // Acceptance is the occupied fraction of the bounding box — far
        // from the ~1e-2 of the rejection loop on this shape.
        assert!(gen.acceptance_rate() > 0.5, "{}", gen.acceptance_rate());
    }

    #[test]
    fn explicit_stratified_over_budget_is_rejected() {
        let tri = figure1_triangle();
        let mut rng = StdRng::seed_from_u64(60);
        let proj = ProjectionParams::new(params())
            .with_cell_selection(CellSelection::Stratified)
            .with_max_enumerated_cells(4);
        assert!(matches!(
            ProjectionGenerator::new_with(&tri, &[0], proj, &mut rng),
            Err(ObservabilityError::InvalidParams(_))
        ));
        // Auto degrades to the cascade instead of failing.
        let auto = ProjectionParams::new(params()).with_max_enumerated_cells(4);
        let gen = ProjectionGenerator::new_with(&tri, &[0], auto, &mut rng).unwrap();
        assert_eq!(gen.resolved_cell_selection(), CellSelection::CoarseToFine);
    }

    #[test]
    fn correction_flattens_the_figure1_bias() {
        // Without compensation, the projected samples concentrate near x = 1
        // (large fibers); with compensation the left and right halves are
        // balanced.
        let tri = figure1_triangle();
        let mut rng = StdRng::seed_from_u64(52);
        let mut gen = ProjectionGenerator::new(&tri, &[0], params(), &mut rng).unwrap();

        let n = 400;
        let mut biased_left = 0usize;
        for _ in 0..n {
            if gen.sample_uncorrected(&mut rng)[0] < 0.5 {
                biased_left += 1;
            }
        }
        let corrected = gen.sample_many(n, &mut rng);
        let corrected_left = corrected.iter().filter(|p| p[0] < 0.5).count();

        let biased_frac = biased_left as f64 / n as f64;
        let corrected_frac = corrected_left as f64 / corrected.len() as f64;
        // Uniform-on-triangle puts only 1/4 of the mass at x < 1/2.
        assert!(biased_frac < 0.35, "uncorrected fraction {biased_frac}");
        assert!(
            (corrected_frac - 0.5).abs() < 0.12,
            "corrected fraction {corrected_frac}"
        );
    }

    #[test]
    fn fiber_polytope_matches_geometry() {
        let tri = figure1_triangle();
        let mut rng = StdRng::seed_from_u64(53);
        let gen = ProjectionGenerator::new(&tri, &[0], params(), &mut rng).unwrap();
        // At x = 0.5 the fiber is the segment 0 <= y <= 0.5.
        let fiber = gen.fiber_polytope(&[0.5]);
        assert!(fiber.contains_slice(&[0.25], 1e-9));
        assert!(!fiber.contains_slice(&[0.75], 1e-9));
        assert!((polytope_volume(&fiber) - 0.5).abs() < 1e-6);
        // The cylinder weight grows with the fiber length.
        assert!(gen.cylinder_weight(&[0.9]) > gen.cylinder_weight(&[0.1]));
    }

    #[test]
    fn cached_weight_agrees_with_the_uncached_reference() {
        let tri = figure1_triangle();
        let mut rng = StdRng::seed_from_u64(57);
        let mut gen = ProjectionGenerator::new(&tri, &[0], params(), &mut rng).unwrap();
        assert_eq!(gen.resolved_fiber_volume(), FiberVolume::Exact);
        let step = gen.grid.step();
        for y in [0.1, 0.33, 0.5, 0.77, 0.99] {
            // The memoized weight is the reference weight of the snapped y.
            let snapped = (y / step).round() * step;
            let reference = gen.cylinder_weight(&[snapped]);
            let first = gen.compensation_weight(&[y]);
            let second = gen.compensation_weight(&[y]);
            assert_eq!(first.to_bits(), second.to_bits(), "hit differs from miss");
            assert_eq!(
                first.to_bits(),
                reference.to_bits(),
                "cached weight differs from the reference at y = {y}"
            );
        }
        assert!(gen.weight_cache().hits() >= 5);
    }

    #[test]
    fn projection_volume_of_square_and_triangle() {
        // Projection of the unit square onto x has length 1; same for the triangle.
        let square = GeneralizedTuple::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(54);
        let mut gen_sq = ProjectionGenerator::new(&square, &[0], params(), &mut rng).unwrap();
        let v_sq = gen_sq.estimate_projection_volume(&mut rng);
        assert!((v_sq - 1.0).abs() < 0.4, "square projection volume {v_sq}");

        let tri = figure1_triangle();
        let mut gen_tri = ProjectionGenerator::new(&tri, &[0], params(), &mut rng).unwrap();
        let v_tri = gen_tri.estimate_projection_volume(&mut rng);
        assert!(
            (v_tri - 1.0).abs() < 0.45,
            "triangle projection volume {v_tri}"
        );
    }

    #[test]
    fn projecting_onto_all_coordinates_is_the_identity() {
        let square = GeneralizedTuple::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(55);
        let mut gen = ProjectionGenerator::new(&square, &[0, 1], params(), &mut rng).unwrap();
        let p = gen.sample(&mut rng).unwrap();
        assert_eq!(p.len(), 2);
        assert!(square.satisfied_f64(&p, 1e-9));
        let v = gen.estimate_projection_volume(&mut rng);
        assert!((v - 1.0).abs() < 0.35);
    }

    #[test]
    fn invalid_coordinates_are_rejected() {
        let square = GeneralizedTuple::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(56);
        assert!(ProjectionGenerator::new(&square, &[0, 0], params(), &mut rng).is_err());
        assert!(ProjectionGenerator::new(&square, &[5], params(), &mut rng).is_err());
        assert!(ProjectionGenerator::new(&square, &[], params(), &mut rng).is_err());
        // Unbounded tuples are rejected too.
        use cdb_constraint::Atom;
        let halfplane = GeneralizedTuple::new(2, vec![Atom::le_from_ints(&[1, 0], 0)]);
        assert!(ProjectionGenerator::new(&halfplane, &[0], params(), &mut rng).is_err());
        // An invalid estimator budget is rejected by `new_with`.
        let bad = ProjectionParams::new(params()).with_estimator_budget(2.0, 0.1);
        assert!(ProjectionGenerator::new_with(&square, &[0], bad, &mut rng).is_err());
    }
}
