//! Polytope soups with shared sub-relations and mixed query sessions.
//!
//! A production constraint database does not answer one query at a time over
//! one relation: many clients hold sessions against overlapping catalogs, and
//! most of the catalog is *structurally shared* — different names bound to
//! the same constraint formula. This module generates that shape:
//!
//! * [`polytope_soup`] builds a catalog of named relations whose bodies are
//!   drawn from a much smaller content pool, so the prepared-relation store
//!   sees many names collapsing onto few canonical keys (maximum contention
//!   on shared `PreparedStore` entries);
//! * [`SessionMix`] describes the read/volume/reconstruction blend of a
//!   session, consumed by `cdb-bench`'s load harness to shape traffic.
//!
//! Every pool body is a union of two *disjoint* axis boxes, so exact volumes
//! come for free and load tests can sanity-check estimates mid-run.

use rand::Rng;

use cdb_constraint::{GeneralizedRelation, GeneralizedTuple};

/// Parameters of a polytope soup.
#[derive(Clone, Debug)]
pub struct SoupSpec {
    /// Number of named relations in the catalog.
    pub names: usize,
    /// Number of distinct bodies backing them (`names` map onto these
    /// round-robin, so `pool < names` forces canonical-key sharing).
    pub pool: usize,
    /// Side of the square map `[0, map_size]²` the bodies live in.
    pub map_size: f64,
}

impl Default for SoupSpec {
    fn default() -> Self {
        SoupSpec {
            names: 6,
            pool: 3,
            map_size: 10.0,
        }
    }
}

/// A generated soup: the named catalog plus per-name ground truth.
#[derive(Clone, Debug)]
pub struct Soup {
    /// `(name, relation)` catalog entries, names `"Q0"`, `"Q1"`, ….
    pub entries: Vec<(String, GeneralizedRelation)>,
    /// Exact volume of each entry (unions of disjoint boxes).
    pub exact_volumes: Vec<f64>,
    /// Which pool body each entry is backed by (`entries[i]` ↔ pool index
    /// `pool_index[i]`); entries with equal indices are structurally
    /// identical and share a canonical key in the prepared store.
    pub pool_index: Vec<usize>,
}

impl Soup {
    /// The catalog names, in entry order.
    pub fn names(&self) -> Vec<String> {
        self.entries.iter().map(|(n, _)| n.clone()).collect()
    }
}

/// Generates a polytope soup: a pool of `spec.pool` two-box bodies and
/// `spec.names` named relations mapping round-robin onto the pool.
///
/// Each pool body is the union of one box in the left half of the map and
/// one in the right half, so the pieces are disjoint and the exact volume is
/// the sum of the two box areas.
pub fn polytope_soup<R: Rng + ?Sized>(spec: &SoupSpec, rng: &mut R) -> Soup {
    assert!(spec.pool >= 1 && spec.names >= spec.pool);
    let half = spec.map_size / 2.0;
    let mut pool = Vec::with_capacity(spec.pool);
    let mut pool_volumes = Vec::with_capacity(spec.pool);
    for _ in 0..spec.pool {
        let mut tuples = Vec::with_capacity(2);
        let mut volume = 0.0;
        for side in 0..2 {
            let x_lo = half * side as f64;
            let w = rng.gen_range(half * 0.2..half * 0.8);
            let h = rng.gen_range(spec.map_size * 0.2..spec.map_size * 0.8);
            let x = x_lo + rng.gen_range(0.0..(half - w).max(1e-9));
            let y = rng.gen_range(0.0..(spec.map_size - h).max(1e-9));
            tuples.push(GeneralizedTuple::from_box_f64(&[x, y], &[x + w, y + h]));
            volume += w * h;
        }
        pool.push(GeneralizedRelation::from_tuples(2, tuples));
        pool_volumes.push(volume);
    }
    let mut entries = Vec::with_capacity(spec.names);
    let mut exact_volumes = Vec::with_capacity(spec.names);
    let mut pool_index = Vec::with_capacity(spec.names);
    for i in 0..spec.names {
        let k = i % spec.pool;
        entries.push((format!("Q{i}"), pool[k].clone()));
        exact_volumes.push(pool_volumes[k]);
        pool_index.push(k);
    }
    Soup {
        entries,
        exact_volumes,
        pool_index,
    }
}

/// The read/volume/reconstruction blend of a query session, as relative
/// weights (they need not sum to 1; zero weight disables a class).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionMix {
    /// Weight of point-sampling requests.
    pub sample: f64,
    /// Weight of volume-estimation requests.
    pub volume: f64,
    /// Weight of reconstruction requests.
    pub reconstruction: f64,
}

impl SessionMix {
    /// The interactive-GIS default: mostly reads, some analytics, a few
    /// reconstructions.
    pub fn read_heavy() -> Self {
        SessionMix {
            sample: 0.65,
            volume: 0.25,
            reconstruction: 0.10,
        }
    }

    /// An analytics-dominated session: volume estimates outweigh reads.
    pub fn analytic() -> Self {
        SessionMix {
            sample: 0.30,
            volume: 0.60,
            reconstruction: 0.10,
        }
    }

    /// Sampling and volumes only — the blend for families whose relations
    /// are not reconstruction targets (e.g. high-dimensional degenerate
    /// bodies).
    pub fn no_reconstruction(sample: f64, volume: f64) -> Self {
        SessionMix {
            sample,
            volume,
            reconstruction: 0.0,
        }
    }

    /// Total weight; panics if no class has positive weight.
    pub fn total(&self) -> f64 {
        let t = self.sample + self.volume + self.reconstruction;
        assert!(
            t > 0.0 && self.sample >= 0.0 && self.volume >= 0.0 && self.reconstruction >= 0.0,
            "a session mix needs nonnegative weights and at least one positive class"
        );
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_geometry::volume::union_volume;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn soup_shares_pool_bodies_across_names() {
        let mut rng = StdRng::seed_from_u64(41);
        let soup = polytope_soup(&SoupSpec::default(), &mut rng);
        assert_eq!(soup.entries.len(), 6);
        // Q0 and Q3 are backed by pool body 0 and structurally identical.
        assert_eq!(soup.pool_index[0], soup.pool_index[3]);
        assert_eq!(soup.entries[0].1, soup.entries[3].1);
        // Distinct pool bodies are actually distinct.
        assert_ne!(soup.entries[0].1, soup.entries[1].1);
    }

    #[test]
    fn soup_exact_volumes_match_inclusion_exclusion() {
        let mut rng = StdRng::seed_from_u64(42);
        let soup = polytope_soup(&SoupSpec::default(), &mut rng);
        for (i, (_, relation)) in soup.entries.iter().enumerate() {
            let union = union_volume(&relation.to_polytopes());
            assert!(
                (union - soup.exact_volumes[i]).abs() < 1e-9,
                "entry {i}: union {union} vs recorded {}",
                soup.exact_volumes[i]
            );
        }
    }

    #[test]
    fn session_mix_totals_and_rejects_empty() {
        assert!((SessionMix::read_heavy().total() - 1.0).abs() < 1e-12);
        assert_eq!(SessionMix::no_reconstruction(0.7, 0.3).reconstruction, 0.0);
        let bad = SessionMix {
            sample: 0.0,
            volume: 0.0,
            reconstruction: 0.0,
        };
        assert!(std::panic::catch_unwind(move || bad.total()).is_err());
    }
}
