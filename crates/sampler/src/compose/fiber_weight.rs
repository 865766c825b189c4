//! The compensation-weight subsystem of Algorithm 2: strategy selection and
//! memoization for the cylinder weight `ĥ`.
//!
//! Algorithm 2 accepts a projected point `y` with probability `1/ĥ`, where
//! `ĥ = vol(H_S(y)) / cell` counts the γ-grid points in the fiber above `y`.
//! PR 4 measured that over half of every projection attempt went to
//! recomputing that fiber volume from scratch — a fresh fiber polytope plus
//! a vertex enumeration per candidate. Two observations make the cost
//! almost entirely removable:
//!
//! * `ĥ` is by construction a *grid* quantity (the paper defines it as the
//!   number of γ-grid points in the fiber), so the weight is evaluated **per
//!   grid cell**: `y` snaps to its cell and the cell's weight is an exact,
//!   finite-domain memo value. Relative to evaluating the fiber volume at
//!   the exact (continuous) `y`, the per-cell weight quantizes the
//!   compensation at grid resolution — the same O(step) granularity the
//!   γ-discretization already imposes on the output distribution, and
//!   pinned by the seeded chi-square/volume gates in `tests/statistical.rs`;
//! * the weight of a cell is a **pure function** of the cell — `Exact`
//!   consumes no randomness at all, and `Estimated` derives its RNG stream
//!   from the cell key and a per-generator seed — so a warm cache, a cold
//!   cache and no cache at all produce bitwise identical trajectories, and
//!   batch workers agree regardless of which worker filled which cell first.
//!
//! [`FiberWeightCache`] is the memo: a map from the integer grid coordinates
//! of the projected cell to its weight, holding at most a fixed number of
//! cells. Only the rejection loop reads or writes it, because only the
//! rejection loop lands in a cell more than once; the stratified and
//! coarse-to-fine selectors fill each cell of their tables exactly once and
//! keep the tables themselves. One cache lives in each generator (and
//! therefore in each batch worker's clone), preserving the batch layer's
//! thread-count-invariance contract bit for bit.
//!
//! [`FiberVolume`] picks how a cache miss is filled: exact vertex
//! enumeration (exponential in the fiber dimension, unbeatable below it) or
//! the in-crate Dyer–Frieze–Kannan telescoping estimator under an `(ε, δ)`
//! budget (polynomial, the only option once the fiber dimension grows).

use std::collections::HashMap;

use crate::compose::stratified::CellSelection;
use crate::params::GeneratorParams;

/// Fiber dimensions up to this bound default to exact vertex enumeration;
/// above it [`FiberVolume::Auto`] switches to the telescoping estimator
/// (vertex enumeration visits `C(m, e)` bases — hopeless for deep fibers).
pub const AUTO_EXACT_MAX_FIBER_DIM: usize = 6;

/// Default capacity of the per-generator [`FiberWeightCache`].
pub const DEFAULT_WEIGHT_CACHE_CAPACITY: usize = 4096;

/// Default budget of [`ProjectionParams::max_enumerated_cells`]: the largest
/// occupied-cell enumeration [`CellSelection::Auto`] resolves to full
/// stratified enumeration; finer grids fall back to the coarse-to-fine
/// cascade (and its lazy per-coarse-cell tables honor the same bound).
pub const DEFAULT_MAX_ENUMERATED_CELLS: usize = 1 << 16;

/// Upper bound on [`ProjectionParams::max_enumerated_cells`]: the stratified
/// selector addresses its cells by `u32` odometer index.
pub const MAX_ENUMERATED_CELLS: usize = u32::MAX as usize;

/// How the cylinder weight `ĥ` of a cache-missed cell is computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FiberVolume {
    /// Pick [`FiberVolume::Exact`] for fiber dimensions up to
    /// [`AUTO_EXACT_MAX_FIBER_DIM`], [`FiberVolume::Estimated`] above.
    Auto,
    /// Exact fiber volume by vertex enumeration
    /// ([`cdb_geometry::fiber::FiberTemplate::exact_volume`]).
    Exact,
    /// `(ε, δ)` fiber-volume estimate through the in-crate telescoping
    /// estimator, with randomness derived from the cell key so the weight
    /// stays a pure function of the cell.
    Estimated,
}

/// Parameters of the projection generator: the underlying
/// [`GeneratorParams`] plus the compensation-weight knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProjectionParams {
    /// Parameters of the walks, grids and retry budgets (Definition 2.2).
    pub base: GeneratorParams,
    /// Fiber-volume strategy; [`FiberVolume::Auto`] resolves by fiber
    /// dimension at construction.
    pub fiber_volume: FiberVolume,
    /// Most cells the per-generator weight cache holds; `0` disables
    /// memoization (every attempt recomputes its weight — the cold twin of
    /// the perf report).
    pub cache_capacity: usize,
    /// How the generator selects the γ-grid cell of each sample;
    /// [`CellSelection::Auto`] resolves against the enumeration budget at
    /// construction.
    pub cell_selection: CellSelection,
    /// Largest cell enumeration the stratified layer may build eagerly
    /// (full enumeration under [`CellSelection::Stratified`], per-coarse-cell
    /// fine tables under [`CellSelection::CoarseToFine`]). A full
    /// enumeration keeps about 28 B per occupied cell, so this also bounds
    /// the selector's memory. At most [`MAX_ENUMERATED_CELLS`].
    pub max_enumerated_cells: usize,
}

impl ProjectionParams {
    /// Wraps base generator parameters with the default weight subsystem:
    /// auto strategy selection and a [`DEFAULT_WEIGHT_CACHE_CAPACITY`]-entry
    /// cache.
    pub fn new(base: GeneratorParams) -> Self {
        ProjectionParams {
            base,
            fiber_volume: FiberVolume::Auto,
            cache_capacity: DEFAULT_WEIGHT_CACHE_CAPACITY,
            cell_selection: CellSelection::Auto,
            max_enumerated_cells: DEFAULT_MAX_ENUMERATED_CELLS,
        }
    }

    /// Overrides the fiber-volume strategy.
    pub fn with_fiber_volume(mut self, mode: FiberVolume) -> Self {
        self.fiber_volume = mode;
        self
    }

    /// Overrides the cache capacity (`0` disables memoization).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Overrides the cell-selection strategy.
    pub fn with_cell_selection(mut self, selection: CellSelection) -> Self {
        self.cell_selection = selection;
        self
    }

    /// Overrides the eager-enumeration budget of the stratified layer.
    pub fn with_max_enumerated_cells(mut self, cells: usize) -> Self {
        self.max_enumerated_cells = cells;
        self
    }

    /// Resolves [`FiberVolume::Auto`] against a concrete fiber dimension.
    pub fn resolve_fiber_volume(&self, fiber_dim: usize) -> FiberVolume {
        match self.fiber_volume {
            FiberVolume::Auto => {
                if fiber_dim <= AUTO_EXACT_MAX_FIBER_DIM {
                    FiberVolume::Exact
                } else {
                    FiberVolume::Estimated
                }
            }
            explicit => explicit,
        }
    }

    /// The generator parameters handed to the telescoping fiber-volume
    /// estimator: the base parameters without rounding (fibers are
    /// re-estimated per cell; the rounding walks would dominate the fill
    /// cost).
    pub fn estimator_params(&self) -> GeneratorParams {
        GeneratorParams {
            rounding: false,
            ..self.base
        }
    }

    /// Validates the base parameters and the enumeration budget.
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        if self.max_enumerated_cells == 0 || self.max_enumerated_cells > MAX_ENUMERATED_CELLS {
            return Err(format!(
                "max_enumerated_cells must lie in [1, {MAX_ENUMERATED_CELLS}], got {}",
                self.max_enumerated_cells
            ));
        }
        Ok(())
    }
}

impl From<GeneratorParams> for ProjectionParams {
    fn from(base: GeneratorParams) -> Self {
        ProjectionParams::new(base)
    }
}

/// Bounded memo of cylinder weights, keyed by the integer γ-grid
/// coordinates of the projected cell.
///
/// It holds at most `capacity` cells: once full it stops inserting and
/// never evicts, which is enough because the working set of a projection
/// run — the cells of the projected body — is small compared to the default
/// capacity, and a weight is a pure function of its cell, so what the memo
/// holds never changes a trajectory. The map allocates on the first insert,
/// so a generator that never fills through the memo (a stratified piece
/// enumerates its cells directly) holds no table.
#[derive(Clone, Debug)]
pub struct FiberWeightCache {
    weights: HashMap<Vec<i64>, f64>,
    /// Most cells held; `0` disables the cache.
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl FiberWeightCache {
    /// Creates a cache that holds at most `capacity` cells; `0` builds a
    /// disabled cache that never stores anything.
    pub fn new(capacity: usize) -> Self {
        FiberWeightCache {
            weights: HashMap::new(),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// `true` when the cache can store entries (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Most cells the cache holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of slots allocated so far: `0` until the first insert.
    pub fn allocated_slots(&self) -> usize {
        self.weights.capacity()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Deterministic hash of a cell key, from which the
    /// [`FiberVolume::Estimated`] strategy derives the cell's RNG stream, so
    /// an estimated weight is a pure function of `(generator seed, cell)`.
    pub fn key_hash(key: &[i64]) -> u64 {
        // SplitMix64-style avalanche folded over the coordinates.
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ (key.len() as u64);
        for &k in key {
            h ^= k as u64;
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
        }
        h
    }

    /// Looks the cell up, counting a hit or a miss.
    pub fn get(&mut self, key: &[i64]) -> Option<f64> {
        let found = self.weights.get(key).copied();
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Stores the cell's weight unless the cache is full (or disabled).
    pub fn insert(&mut self, key: &[i64], weight: f64) {
        if self.weights.len() < self.capacity {
            self.weights.insert(key.to_vec(), weight);
        }
    }

    /// Iterates over the warm cells: `(integer grid key, stored weight)` in
    /// no particular order; callers that need a deterministic order must
    /// sort by the integer key.
    pub fn iter(&self) -> impl Iterator<Item = (&[i64], f64)> {
        self.weights.iter().map(|(k, &w)| (k.as_slice(), w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_roundtrip_and_stats() {
        let mut c = FiberWeightCache::new(64);
        assert!(c.is_enabled());
        assert!(c.is_empty());
        assert_eq!(c.get(&[1, 2]), None);
        c.insert(&[1, 2], 7.5);
        assert_eq!(c.get(&[1, 2]), Some(7.5));
        assert_eq!(c.get(&[2, 1]), None, "key order matters");
        assert_eq!((c.hits(), c.misses()), (1, 2));
        assert_eq!(c.len(), 1);
        // Re-inserting overwrites in place.
        c.insert(&[1, 2], 9.0);
        assert_eq!(c.get(&[1, 2]), Some(9.0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn slots_are_allocated_on_the_first_insert() {
        let mut c = FiberWeightCache::new(64);
        assert_eq!(c.get(&[1]), None);
        assert_eq!(c.allocated_slots(), 0, "a lookup allocated the table");
        c.insert(&[1], 2.0);
        assert!(c.allocated_slots() > 0);
        assert_eq!(c.get(&[1]), Some(2.0));
        let mut disabled = FiberWeightCache::new(0);
        disabled.insert(&[1], 2.0);
        assert_eq!(disabled.allocated_slots(), 0);
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let mut c = FiberWeightCache::new(0);
        assert!(!c.is_enabled());
        c.insert(&[3], 1.0);
        assert_eq!(c.get(&[3]), None);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn a_full_cache_stops_inserting() {
        let mut c = FiberWeightCache::new(2);
        for k in 0..10i64 {
            c.insert(&[k], k as f64);
        }
        assert_eq!(c.len(), 2);
        // The first cells stay; nothing is evicted for the later ones.
        assert_eq!(c.get(&[0]), Some(0.0));
        assert_eq!(c.get(&[1]), Some(1.0));
        assert_eq!(c.get(&[9]), None);
    }

    #[test]
    fn key_hash_is_stable_and_spreads() {
        assert_eq!(
            FiberWeightCache::key_hash(&[1, 2, 3]),
            FiberWeightCache::key_hash(&[1, 2, 3])
        );
        assert_ne!(
            FiberWeightCache::key_hash(&[1, 2, 3]),
            FiberWeightCache::key_hash(&[3, 2, 1])
        );
        assert_ne!(
            FiberWeightCache::key_hash(&[0]),
            FiberWeightCache::key_hash(&[0, 0])
        );
    }

    #[test]
    fn auto_strategy_resolves_by_fiber_dimension() {
        let p = ProjectionParams::new(GeneratorParams::fast());
        assert_eq!(
            p.resolve_fiber_volume(AUTO_EXACT_MAX_FIBER_DIM),
            FiberVolume::Exact
        );
        assert_eq!(
            p.resolve_fiber_volume(AUTO_EXACT_MAX_FIBER_DIM + 1),
            FiberVolume::Estimated
        );
        let forced = p.with_fiber_volume(FiberVolume::Estimated);
        assert_eq!(forced.resolve_fiber_volume(1), FiberVolume::Estimated);
        let exact = p.with_fiber_volume(FiberVolume::Exact);
        assert_eq!(exact.resolve_fiber_volume(100), FiberVolume::Exact);
    }

    #[test]
    fn params_builders_and_validation() {
        let base = GeneratorParams::fast();
        let p = ProjectionParams::new(base).with_cache_capacity(0);
        assert_eq!(p.cache_capacity, 0);
        assert_eq!(p.estimator_params().eps, base.eps);
        assert_eq!(p.estimator_params().delta, base.delta);
        assert!(!p.estimator_params().rounding);
        assert!(p.validate().is_ok());
        let bad_eps = GeneratorParams { eps: 0.0, ..base };
        assert!(ProjectionParams::new(bad_eps).validate().is_err());
        let from: ProjectionParams = base.into();
        assert_eq!(from.base, base);
        assert_eq!(from.fiber_volume, FiberVolume::Auto);
        assert_eq!(from.cell_selection, CellSelection::Auto);
        assert_eq!(from.max_enumerated_cells, DEFAULT_MAX_ENUMERATED_CELLS);
        let strat = p.with_cell_selection(CellSelection::Stratified);
        assert_eq!(strat.cell_selection, CellSelection::Stratified);
        assert!(strat.with_max_enumerated_cells(0).validate().is_err());
        assert!(strat.with_max_enumerated_cells(128).validate().is_ok());
        assert!(strat
            .with_max_enumerated_cells(MAX_ENUMERATED_CELLS + 1)
            .validate()
            .is_err());
    }

    #[test]
    fn cache_iteration_exposes_warm_cells() {
        let mut c = FiberWeightCache::new(64);
        c.insert(&[3, -1], 0.25);
        c.insert(&[0, 7], 1.5);
        let mut cells: Vec<(Vec<i64>, f64)> = c.iter().map(|(k, w)| (k.to_vec(), w)).collect();
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(cells, vec![(vec![0, 7], 1.5), (vec![3, -1], 0.25)]);
        // A disabled cache iterates over nothing.
        assert_eq!(FiberWeightCache::new(0).iter().count(), 0);
    }
}
