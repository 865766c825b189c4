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
//! [`FiberWeightCache`] is the memo: a fixed-capacity open-addressing table
//! over the integer grid coordinates of the projected cell with LRU-ish
//! eviction inside each probe window. One cache lives in each generator (and
//! therefore in each batch worker's clone), preserving the batch layer's
//! thread-count-invariance contract bit for bit.
//!
//! [`FiberVolume`] picks how a cache miss is filled: exact vertex
//! enumeration (exponential in the fiber dimension, unbeatable below it) or
//! the in-crate Dyer–Frieze–Kannan telescoping estimator under an `(ε, δ)`
//! budget (polynomial, the only option once the fiber dimension grows).

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

/// Linear-probe window of the open-addressing table: a lookup inspects at
/// most this many slots, and an insert evicts the least-recently-used entry
/// within the window when all of them are occupied.
const PROBE_WINDOW: usize = 8;

/// Upper bound on the slot count of a [`FiberWeightCache`]. Requests above
/// it (e.g. `usize::MAX` meaning "effectively unbounded") are clamped here
/// instead of overflowing `next_power_of_two`; 2²⁴ slots is already far
/// beyond any projection's cell working set.
const MAX_CACHE_SLOTS: usize = 1 << 24;

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
    /// Capacity of the per-generator weight cache; `0` disables memoization
    /// (every attempt recomputes its weight — the cold twin of the perf
    /// report).
    pub cache_capacity: usize,
    /// `ε` of the estimated-fiber-volume budget (only read by
    /// [`FiberVolume::Estimated`]).
    pub estimator_eps: f64,
    /// `δ` of the estimated-fiber-volume budget.
    pub estimator_delta: f64,
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
    /// auto strategy selection, a [`DEFAULT_WEIGHT_CACHE_CAPACITY`]-entry
    /// cache, and the base `(ε, δ)` as the estimator budget.
    pub fn new(base: GeneratorParams) -> Self {
        ProjectionParams {
            base,
            fiber_volume: FiberVolume::Auto,
            cache_capacity: DEFAULT_WEIGHT_CACHE_CAPACITY,
            estimator_eps: base.eps,
            estimator_delta: base.delta,
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

    /// Overrides the `(ε, δ)` budget of the estimated strategy.
    pub fn with_estimator_budget(mut self, eps: f64, delta: f64) -> Self {
        self.estimator_eps = eps;
        self.estimator_delta = delta;
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
    /// estimator: the base walk configuration under the estimator's own
    /// `(ε, δ)` budget, without rounding (fibers are re-estimated per cell;
    /// the rounding walks would dominate the fill cost).
    pub fn estimator_params(&self) -> GeneratorParams {
        GeneratorParams {
            eps: self.estimator_eps,
            delta: self.estimator_delta,
            rounding: false,
            ..self.base
        }
    }

    /// Validates the base parameters and the estimator budget.
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        for (name, v) in [
            ("estimator_eps", self.estimator_eps),
            ("estimator_delta", self.estimator_delta),
        ] {
            if !(0.0 < v && v < 1.0) {
                return Err(format!("{name} must lie in (0, 1), got {v}"));
            }
        }
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

/// One stored cell weight.
#[derive(Clone, Debug)]
struct Entry {
    hash: u64,
    key: Vec<i64>,
    weight: f64,
    stamp: u64,
}

/// Fixed-capacity memo of cylinder weights, keyed by the integer γ-grid
/// coordinates of the projected cell.
///
/// Open addressing with linear probing over a power-of-two table; inserts
/// that find their whole probe window occupied evict the least-recently-used
/// entry *within the window* (LRU-ish: cheap, deterministic, and good enough
/// because the working set of a projection run — the cells of the projected
/// body — is tiny compared to the default capacity). All operations are
/// deterministic functions of the call sequence, so caching never perturbs
/// batch determinism.
///
/// The table is allocated on the first insert, so a generator that never
/// fills through the memo (a stratified piece enumerates its cells directly)
/// never holds the slots.
#[derive(Clone, Debug)]
pub struct FiberWeightCache {
    /// Empty until the first insert; then `size` slots.
    slots: Vec<Option<Entry>>,
    /// Slot count of the table (a power of two), `0` when disabled.
    size: usize,
    /// `size - 1` when enabled (power-of-two table).
    mask: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl FiberWeightCache {
    /// Creates a cache with at least `capacity` slots (rounded up to a power
    /// of two, clamped to `MAX_CACHE_SLOTS` so an "unbounded" request like
    /// `usize::MAX` stays finite); `0` builds a disabled cache that never
    /// stores anything.
    pub fn new(capacity: usize) -> Self {
        let size = if capacity == 0 {
            0
        } else {
            capacity
                .min(MAX_CACHE_SLOTS)
                .next_power_of_two()
                .max(PROBE_WINDOW)
        };
        FiberWeightCache {
            slots: Vec::new(),
            size,
            mask: size.saturating_sub(1),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// `true` when the cache can store entries (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        self.size > 0
    }

    /// Number of slots in the table once allocated.
    pub fn capacity(&self) -> usize {
        self.size
    }

    /// Number of slots allocated so far: `0` until the first insert.
    pub fn allocated_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// `true` when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.is_none())
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Deterministic hash of a cell key — also used to derive the RNG stream
    /// of the [`FiberVolume::Estimated`] strategy, so an estimated weight is
    /// a pure function of `(generator seed, cell)`.
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

    /// Looks the cell up, refreshing its recency stamp on a hit.
    pub fn get(&mut self, key: &[i64]) -> Option<f64> {
        self.get_hashed(Self::key_hash(key), key)
    }

    /// [`FiberWeightCache::get`] with the key's hash precomputed — the hot
    /// path computes the hash once and reuses it for the probe, the insert
    /// and the estimator's RNG stream.
    pub fn get_hashed(&mut self, hash: u64, key: &[i64]) -> Option<f64> {
        debug_assert_eq!(hash, Self::key_hash(key), "stale key hash");
        if self.slots.is_empty() {
            self.misses += 1;
            return None;
        }
        let base = hash as usize & self.mask;
        for i in 0..PROBE_WINDOW {
            let idx = (base + i) & self.mask;
            if let Some(entry) = &mut self.slots[idx] {
                if entry.hash == hash && entry.key == key {
                    self.tick += 1;
                    entry.stamp = self.tick;
                    self.hits += 1;
                    return Some(entry.weight);
                }
            }
        }
        self.misses += 1;
        None
    }

    /// Stores the cell's weight, evicting the least-recently-used entry of
    /// the probe window when it is full. No-op on a disabled cache.
    pub fn insert(&mut self, key: &[i64], weight: f64) {
        self.insert_hashed(Self::key_hash(key), key, weight);
    }

    /// Iterates over the warm cells: `(integer grid key, stored weight)` for
    /// every occupied slot, in table order. Table order depends on the fill
    /// history, so callers that need the canonical deterministic order must
    /// sort by the integer key.
    pub fn iter(&self) -> impl Iterator<Item = (&[i64], f64)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|e| (e.key.as_slice(), e.weight)))
    }

    /// [`FiberWeightCache::insert`] with the key's hash precomputed.
    pub fn insert_hashed(&mut self, hash: u64, key: &[i64], weight: f64) {
        debug_assert_eq!(hash, Self::key_hash(key), "stale key hash");
        if self.size == 0 {
            return;
        }
        if self.slots.is_empty() {
            self.slots = vec![None; self.size];
        }
        let base = hash as usize & self.mask;
        self.tick += 1;
        let mut victim = base & self.mask;
        let mut victim_stamp = u64::MAX;
        for i in 0..PROBE_WINDOW {
            let idx = (base + i) & self.mask;
            match &mut self.slots[idx] {
                None => {
                    self.slots[idx] = Some(Entry {
                        hash,
                        key: key.to_vec(),
                        weight,
                        stamp: self.tick,
                    });
                    return;
                }
                Some(entry) => {
                    if entry.hash == hash && entry.key == key {
                        entry.weight = weight;
                        entry.stamp = self.tick;
                        return;
                    }
                    if entry.stamp < victim_stamp {
                        victim_stamp = entry.stamp;
                        victim = idx;
                    }
                }
            }
        }
        self.slots[victim] = Some(Entry {
            hash,
            key: key.to_vec(),
            weight,
            stamp: self.tick,
        });
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
    fn oversized_capacity_requests_are_clamped() {
        let c = FiberWeightCache::new(usize::MAX);
        assert!(c.is_enabled());
        assert_eq!(c.capacity(), MAX_CACHE_SLOTS);
    }

    #[test]
    fn slots_are_allocated_on_the_first_insert() {
        let mut c = FiberWeightCache::new(64);
        assert_eq!(c.get(&[1]), None);
        assert_eq!(c.allocated_slots(), 0, "a lookup allocated the table");
        c.insert(&[1], 2.0);
        assert_eq!(c.allocated_slots(), 64);
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
    fn eviction_is_bounded_and_keeps_recent_entries() {
        // A tiny table forces evictions; recently-touched keys survive the
        // window-local LRU while the stale ones go.
        let mut c = FiberWeightCache::new(8);
        for k in 0..200i64 {
            c.insert(&[k], k as f64);
        }
        assert!(c.len() <= c.capacity());
        // The most recent insert is always retrievable.
        assert_eq!(c.get(&[199]), Some(199.0));
    }

    #[test]
    fn heavy_reuse_after_eviction_pressure() {
        let mut c = FiberWeightCache::new(32);
        // A hot key touched between single inserts always carries the
        // freshest stamp in its probe window, so the window-local LRU never
        // picks it as the victim.
        c.insert(&[-3, -3], 42.0);
        for wave in 0..10i64 {
            for k in 0..16i64 {
                c.insert(&[wave, k], (wave * k) as f64);
                assert_eq!(
                    c.get(&[-3, -3]),
                    Some(42.0),
                    "hot key evicted in wave {wave} at churn key {k}"
                );
            }
        }
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
        let p = ProjectionParams::new(base)
            .with_cache_capacity(0)
            .with_estimator_budget(0.25, 0.15);
        assert_eq!(p.cache_capacity, 0);
        assert_eq!(p.estimator_params().eps, 0.25);
        assert_eq!(p.estimator_params().delta, 0.15);
        assert!(!p.estimator_params().rounding);
        assert!(p.validate().is_ok());
        assert!(p.with_estimator_budget(0.0, 0.1).validate().is_err());
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
