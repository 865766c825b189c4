//! Stratified cell selection for Algorithm 2: inverting the acceptance wall.
//!
//! The rejection form of Algorithm 2 draws a uniform point of `S`, projects
//! it, and accepts with probability `1/ĥ`. On deep-fiber bodies the measured
//! acceptance is ~1e-4 — about 10⁴ discarded chains per accepted sample —
//! and that cost is *inherent to the loop*, not to the weight computation
//! the cache already removed. But the loop's output distribution over grid
//! cells has a closed form: a cell `c` with unclamped cell mass
//! `raw(c) = vol(H_S(center_c)) / p^{d−e}` is selected with probability
//! proportional to
//!
//! ```text
//! P(c) ∝ raw(c) · (1 / max(raw(c), 1)) = min(raw(c), 1)
//! ```
//!
//! (the chance the projected walk lands in `c` times the chance the
//! compensation coin accepts it). Stratified selection samples that
//! distribution *directly*: enumerate the occupied cells once, build a Vose
//! alias table over `min(raw, 1)`, draw a cell in O(1), and emit a uniform
//! point of the cell — one table draw instead of ~10⁴ discarded chains.
//!
//! When the grid is too fine to enumerate outright, a **coarse-to-fine
//! cascade** keeps the same target distribution: draw a coarse cell
//! uniformly from the projected bounding box at a step `ratio` times
//! coarser, lazily build the fine alias table *inside* that coarse cell,
//! and accept the coarse cell with probability `W_c / ratio^e` where
//! `W_c ≤ ratio^e` is the total fine mass inside it. Acceptance is the
//! occupied fraction of the bounding box — bounded by geometry, not by `ĥ`.
//!
//! # Determinism contract
//!
//! Construction is a pure function of the generator: cells are enumerated in
//! odometer (lexicographic integer-key) order, weights are pure functions of
//! `(weight_seed, cell)` exactly as in the rejection path, and construction
//! consumes **no sampling randomness**. Warm, cold and disabled weight
//! caches, any thread count, and lazily-built coarse-to-fine tables all
//! produce bitwise identical output streams.

use rand::Rng;

use std::collections::HashMap;

/// How the projection generator selects the γ-grid cell of its next sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellSelection {
    /// Resolve at construction: [`CellSelection::Stratified`] when the
    /// occupied-cell enumeration fits the
    /// [`ProjectionParams::max_enumerated_cells`](crate::ProjectionParams)
    /// budget, [`CellSelection::CoarseToFine`] otherwise.
    Auto,
    /// The paper's literal Algorithm 2: walk in `S`, project, accept with
    /// probability `1/ĥ`. Kept as the reference implementation and for
    /// trajectory continuity in the perf report.
    Rejection,
    /// Full enumeration + Vose alias table over `min(raw, 1)` cell weights;
    /// every `sample()` succeeds with one O(1) table draw.
    Stratified,
    /// Coarse-to-fine cascade for grids too fine to enumerate: uniform
    /// coarse draw over the projected bounding box, lazy per-coarse-cell
    /// fine alias tables, acceptance `W_c / ratio^e`.
    CoarseToFine,
}

/// A Vose alias table: O(n) construction, O(1) sampling from a discrete
/// distribution proportional to the input weights.
///
/// Construction is deterministic: the small/large worklists are filled in
/// index order and drained from the back, so the same weights always yield
/// the same table — a requirement of the batch layer's bitwise
/// reproducibility contract.
#[derive(Clone, Debug)]
pub struct AliasTable {
    /// Acceptance threshold of each slot (scaled to [0, 1]).
    prob: Vec<f64>,
    /// Donor index taken when the slot's coin rejects.
    alias: Vec<usize>,
    /// Sum of the input weights.
    total: f64,
}

impl AliasTable {
    /// Builds the table. Returns `None` when the weights are unusable: the
    /// slice is empty, a weight is negative or non-finite, or no weight is
    /// positive.
    pub fn new(weights: &[f64]) -> Option<Self> {
        if weights.is_empty() || weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if !(total > 0.0) || !total.is_finite() {
            return None;
        }
        let n = weights.len();
        // Scale so the average weight is 1, then split into donors (>= 1)
        // and receivers (< 1); each receiver is topped up by exactly one
        // donor, whose surplus re-enters the worklist.
        let scale = n as f64 / total;
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        let mut prob = vec![1.0f64; n];
        let mut alias: Vec<usize> = (0..n).collect();
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers on either list sit at (numerically) 1.0.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        Some(AliasTable { prob, alias, total })
    }

    /// Number of slots (= input weights).
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// `true` when the table has no slots (never constructed by
    /// [`AliasTable::new`], which rejects empty input).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Sum of the input weights.
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Draws an index proportionally to the input weights. Consumes exactly
    /// two random values (slot, coin) regardless of the outcome.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let slot = rng.gen_range(0..self.prob.len());
        if rng.gen_range(0.0..1.0) < self.prob[slot] {
            slot
        } else {
            self.alias[slot]
        }
    }

    /// The exact probability the table assigns to index `i`:
    /// `(t_i + Σ_{j : alias(j) = i} (1 − t_j)) / n`. Exposed so the
    /// property tests can verify mass conservation without sampling.
    pub fn effective_probability(&self, i: usize) -> f64 {
        let n = self.prob.len() as f64;
        let mut mass = self.prob[i];
        for (j, &a) in self.alias.iter().enumerate() {
            if a == i && j != i {
                mass += 1.0 - self.prob[j];
            }
        }
        mass / n
    }
}

/// Inclusive integer index ranges of the γ-grid cells covering the projected
/// bounding box, one `(lo, hi)` pair per kept coordinate.
#[derive(Clone, Debug)]
pub struct CellRange {
    /// Smallest cell index per kept axis.
    pub lo: Vec<i64>,
    /// Largest cell index per kept axis.
    pub hi: Vec<i64>,
}

impl CellRange {
    /// Builds the range from the kept-coordinate bounding box `[lo, hi]` and
    /// the grid step. Cell `k` covers `[(k−½)·step, (k+½)·step)`; one extra
    /// cell of margin on each side keeps every cell whose half-open interval
    /// intersects the box (out-of-body cells get weight 0 and are dropped by
    /// the alias construction).
    pub fn from_box(lo: &[f64], hi: &[f64], step: f64) -> Self {
        let lo_idx: Vec<i64> = lo.iter().map(|&v| (v / step).floor() as i64).collect();
        let hi_idx: Vec<i64> = hi.iter().map(|&v| (v / step).ceil() as i64).collect();
        CellRange {
            lo: lo_idx,
            hi: hi_idx,
        }
    }

    /// Number of kept axes.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Number of cells in the box, saturating at `u64::MAX`.
    pub fn cell_count(&self) -> u64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&a, &b)| (b - a + 1).max(0) as u64)
            .try_fold(1u64, |acc, n| acc.checked_mul(n))
            .unwrap_or(u64::MAX)
    }

    /// Calls `f` for every cell key in odometer (lexicographic) order — the
    /// canonical deterministic enumeration order of the stratified layer.
    pub fn for_each_key<F: FnMut(&[i64])>(&self, mut f: F) {
        let e = self.dim();
        if e == 0 || self.lo.iter().zip(&self.hi).any(|(&a, &b)| a > b) {
            return;
        }
        let mut key = self.lo.clone();
        loop {
            f(&key);
            let mut axis = e;
            loop {
                if axis == 0 {
                    return;
                }
                axis -= 1;
                if key[axis] < self.hi[axis] {
                    key[axis] += 1;
                    for later in axis + 1..e {
                        key[later] = self.lo[later];
                    }
                    break;
                }
            }
        }
    }
}

/// The fully-enumerated stratified selector: occupied cells in odometer
/// order, their `min(raw, 1)` selection weights, and the alias table over
/// them.
///
/// A cell is stored as its `u32` odometer index into the enumerated
/// [`CellRange`] and decoded into integer grid coordinates on draw, so an
/// occupied cell costs about 28 B (index, weight, alias slot) whatever the
/// projection dimension. Built once per prepared piece and shared
/// read-only by every attached copy of the generator.
#[derive(Clone, Debug)]
pub struct StratifiedCells {
    /// The enumerated cell range the indices decode against.
    range: CellRange,
    /// Odometer indices of the cells with positive selection weight, in
    /// increasing (odometer) order.
    cells: Vec<u32>,
    /// Selection weight `min(raw, 1)` of each cell (aligned with `cells`).
    weights: Vec<f64>,
    /// Alias table over `weights`.
    table: AliasTable,
}

impl StratifiedCells {
    /// Enumerates `range` in odometer order, weighting each cell by
    /// `mass_of(key).min(1)` and keeping the cells of positive weight.
    /// Every cell is visited exactly once. Returns `None` when no cell
    /// carries positive weight, or when the range has more cells than a
    /// `u32` index can address.
    pub fn enumerate<F: FnMut(&[i64]) -> f64>(range: CellRange, mut mass_of: F) -> Option<Self> {
        if range.cell_count() > u64::from(u32::MAX) {
            return None;
        }
        let mut cells = Vec::new();
        let mut weights = Vec::new();
        let mut index: u32 = 0;
        range.for_each_key(|key| {
            let w = mass_of(key).min(1.0);
            if w > 0.0 {
                cells.push(index);
                weights.push(w);
            }
            index += 1;
        });
        let table = AliasTable::new(&weights)?;
        cells.shrink_to_fit();
        weights.shrink_to_fit();
        Some(StratifiedCells {
            range,
            cells,
            weights,
            table,
        })
    }

    /// Integer grid keys of every occupied cell, in odometer order.
    pub fn keys(&self) -> Vec<Vec<i64>> {
        self.cells
            .iter()
            .map(|&index| {
                let mut key = vec![0; self.range.dim()];
                self.decode_into(index, &mut key);
                key
            })
            .collect()
    }

    /// Decodes an odometer index into grid coordinates: the last axis
    /// varies fastest, as in [`CellRange::for_each_key`].
    fn decode_into(&self, index: u32, key: &mut [i64]) {
        let mut rest = u64::from(index);
        for axis in (0..key.len()).rev() {
            let extent = (self.range.hi[axis] - self.range.lo[axis] + 1) as u64;
            key[axis] = self.range.lo[axis] + (rest % extent) as i64;
            rest /= extent;
        }
    }

    /// Selection weight `min(raw, 1)` of each occupied cell.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Total selection mass `Σ min(raw, 1)`; multiplied by the projected
    /// cell volume `step^e` this is the stratified volume estimate of `T`.
    pub fn total_mass(&self) -> f64 {
        self.table.total_weight()
    }

    /// Number of occupied cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when no cell carries positive weight (never constructed).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Draws an occupied cell proportionally to its weight and writes its
    /// integer grid key into `key`.
    pub fn sample_key_into<R: Rng + ?Sized>(&self, rng: &mut R, key: &mut Vec<i64>) {
        key.clear();
        key.resize(self.range.dim(), 0);
        self.decode_into(self.cells[self.table.sample(rng)], key);
    }
}

/// One lazily-built fine-cell table inside a coarse cell of the cascade.
#[derive(Clone, Debug)]
pub struct FineCell {
    /// Fine keys with positive weight, odometer order within the coarse cell.
    pub keys: Vec<Vec<i64>>,
    /// Alias table over those keys (`None` when the coarse cell is empty).
    pub table: Option<AliasTable>,
    /// Total fine selection mass `W_c` inside the coarse cell.
    pub mass: f64,
}

/// The coarse-to-fine cascade: a coarser lattice over the projected bounding
/// box whose cells are drawn uniformly, each memoizing the alias table of
/// the `ratio^e` fine cells it contains.
#[derive(Clone, Debug)]
pub struct CoarseMap {
    /// Fine cells per coarse cell per axis (a power of two).
    ratio: i64,
    /// Fine-cell index range of the projected bounding box.
    fine: CellRange,
    /// Number of coarse cells per axis.
    coarse_counts: Vec<i64>,
    /// Memoized fine tables, keyed by coarse cell. Only keyed lookups — map
    /// iteration order never influences sampling, so the unordered map is
    /// safe under the determinism contract.
    cells: HashMap<Vec<i64>, FineCell>,
}

impl CoarseMap {
    /// Chooses the largest power-of-two ratio whose per-coarse-cell fine
    /// table has at most `max_cells` slots (and at least 2, so the cascade
    /// always coarsens). The coarse lattice itself is never enumerated —
    /// cells are drawn per axis and memoized lazily — so its size is
    /// unconstrained; a large ratio merely maximizes memo reuse, and the
    /// acceptance rate (the occupied fraction of the bounding box) does not
    /// depend on the ratio at all.
    pub fn new(fine: CellRange, max_cells: u64) -> Self {
        let e = fine.dim().max(1) as u32;
        let mut ratio: i64 = 2;
        while (ratio as u64 * 2)
            .checked_pow(e)
            .is_some_and(|per_cell| per_cell <= max_cells)
            && ratio < (1 << 40)
        {
            ratio *= 2;
        }
        let coarse_counts = fine
            .lo
            .iter()
            .zip(&fine.hi)
            .map(|(&a, &b)| (((b - a + 1).max(1) as u64).div_ceil(ratio as u64)) as i64)
            .collect();
        CoarseMap {
            ratio,
            fine,
            coarse_counts,
            cells: HashMap::new(),
        }
    }

    /// Fine cells per coarse cell per axis.
    pub fn ratio(&self) -> i64 {
        self.ratio
    }

    /// `ratio^e`: the uniform-proposal mass a coarse cell is accepted
    /// against.
    pub fn proposal_mass(&self) -> f64 {
        (self.ratio as f64).powi(self.fine.dim() as i32)
    }

    /// Number of coarse cells per axis.
    pub fn coarse_counts(&self) -> &[i64] {
        &self.coarse_counts
    }

    /// Number of memoized coarse cells so far.
    pub fn memoized(&self) -> usize {
        self.cells.len()
    }

    /// Draws a coarse cell uniformly from the lattice covering the bounding
    /// box. Consumes one random value per kept axis, in axis order.
    pub fn sample_coarse<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<i64>) {
        out.clear();
        for &n in &self.coarse_counts {
            out.push(rng.gen_range(0..n));
        }
    }

    /// The fine-cell index range covered by coarse cell `c` (clamped to the
    /// bounding-box range).
    pub fn fine_range_of(&self, coarse: &[i64]) -> CellRange {
        let lo: Vec<i64> = coarse
            .iter()
            .zip(&self.fine.lo)
            .map(|(&c, &f)| f + c * self.ratio)
            .collect();
        let hi: Vec<i64> = lo
            .iter()
            .zip(&self.fine.hi)
            .map(|(&l, &f)| (l + self.ratio - 1).min(f))
            .collect();
        CellRange { lo, hi }
    }

    /// Looks up the memoized fine table of `coarse`, building it with
    /// `mass_of` on first touch. The weights are pure functions of the fine
    /// cell, so lazy construction is invisible to the output stream.
    pub fn fine_cell<F: FnMut(&[i64]) -> f64>(
        &mut self,
        coarse: &[i64],
        mut mass_of: F,
    ) -> &FineCell {
        if !self.cells.contains_key(coarse) {
            let range = self.fine_range_of(coarse);
            let mut keys = Vec::new();
            let mut weights = Vec::new();
            range.for_each_key(|key| {
                let w = mass_of(key).min(1.0);
                if w > 0.0 {
                    keys.push(key.to_vec());
                    weights.push(w);
                }
            });
            let mass: f64 = weights.iter().sum();
            let table = AliasTable::new(&weights);
            self.cells
                .insert(coarse.to_vec(), FineCell { keys, table, mass });
        }
        &self.cells[coarse]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn alias_table_rejects_unusable_weights() {
        assert!(AliasTable::new(&[]).is_none());
        assert!(AliasTable::new(&[0.0, 0.0]).is_none());
        assert!(AliasTable::new(&[1.0, -0.5]).is_none());
        assert!(AliasTable::new(&[f64::NAN]).is_none());
        assert!(AliasTable::new(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn alias_table_single_cell_always_wins() {
        let t = AliasTable::new(&[3.5]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..32 {
            assert_eq!(t.sample(&mut rng), 0);
        }
        assert!((t.effective_probability(0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn alias_table_mass_matches_weights() {
        let weights = [1.0, 3.0, 0.0, 4.0];
        let t = AliasTable::new(&weights).unwrap();
        assert_eq!(t.len(), 4);
        assert!((t.total_weight() - 8.0).abs() < 1e-12);
        for (i, &w) in weights.iter().enumerate() {
            assert!(
                (t.effective_probability(i) - w / 8.0).abs() < 1e-12,
                "index {i}"
            );
        }
        // The zero-weight slot is unreachable.
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..2000 {
            assert_ne!(t.sample(&mut rng), 2);
        }
    }

    #[test]
    fn alias_table_construction_is_deterministic() {
        let weights: Vec<f64> = (0..50).map(|i| ((i * 37) % 11) as f64 + 0.25).collect();
        let a = AliasTable::new(&weights).unwrap();
        let b = AliasTable::new(&weights).unwrap();
        assert_eq!(a.prob, b.prob);
        assert_eq!(a.alias, b.alias);
    }

    #[test]
    fn cell_range_counts_and_margins() {
        let r = CellRange::from_box(&[0.0, 0.0], &[1.0, 0.5], 0.25);
        assert_eq!(r.dim(), 2);
        // floor(0/0.25)=0 .. ceil(1/0.25)=4 and 0..2 -> 5 * 3 cells.
        assert_eq!(r.cell_count(), 15);
        let neg = CellRange::from_box(&[-1.0], &[-0.5], 0.25);
        assert_eq!(neg.lo, vec![-4]);
        assert_eq!(neg.hi, vec![-2]);
    }

    #[test]
    fn stratified_cells_drop_zero_weight_entries() {
        let range = CellRange {
            lo: vec![0],
            hi: vec![3],
        };
        let weights = [0.0, 0.5, 1.0, 0.0];
        let s = StratifiedCells::enumerate(range.clone(), |k| weights[k[0] as usize]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.keys(), vec![vec![1], vec![2]]);
        assert!((s.total_mass() - 1.5).abs() < 1e-12);
        assert!(StratifiedCells::enumerate(range, |_| 0.0).is_none());
    }

    #[test]
    fn stratified_cells_decode_odometer_indices() {
        // A 3 x 2 x 4 range with negative corners: every decoded key is the
        // key the odometer visited at that index, and masses above 1 clamp.
        let range = CellRange {
            lo: vec![-1, 5, -2],
            hi: vec![1, 6, 1],
        };
        let mut visited = Vec::new();
        range.for_each_key(|k| visited.push(k.to_vec()));
        let s = StratifiedCells::enumerate(range, |_| 2.0).unwrap();
        assert_eq!(s.len(), 24);
        assert_eq!(s.keys(), visited);
        assert!(s.weights().iter().all(|&w| w == 1.0));
        let mut rng = StdRng::seed_from_u64(3);
        let mut key = Vec::new();
        for _ in 0..64 {
            s.sample_key_into(&mut rng, &mut key);
            assert!(visited.contains(&key));
        }
    }

    #[test]
    fn coarse_map_covers_the_fine_range() {
        let fine = CellRange {
            lo: vec![0, 0],
            hi: vec![99, 49],
        };
        let mut map = CoarseMap::new(fine, 64);
        // The coarse lattice tiles the fine range exactly, and the per-cell
        // fine tables stay within the enumeration budget.
        let counts = map.coarse_counts().to_vec();
        let ratio = map.ratio();
        assert_eq!(ratio, 8, "largest power of two with ratio^2 <= 64");
        assert!(counts[0] * ratio >= 100 && counts[1] * ratio >= 50);
        assert!((ratio * ratio) as u64 <= 64);
        // The first coarse cell's fine range starts at the fine lo and its
        // table sees every fine key once.
        let mut seen = 0usize;
        let cell = map.fine_cell(&[0, 0], |_| {
            seen += 1;
            1.0
        });
        assert_eq!(seen, (ratio * ratio) as usize);
        assert!((cell.mass - (ratio * ratio) as f64).abs() < 1e-9);
        // Memoized: a second lookup runs no fills.
        let mut refills = 0usize;
        let _ = map.fine_cell(&[0, 0], |_| {
            refills += 1;
            1.0
        });
        assert_eq!(refills, 0);
        assert_eq!(map.memoized(), 1);
    }
}
