//! High-aspect degenerate bodies with closed-form volumes.
//!
//! These families stress the *rounding* path of the generators: a needle box
//! or a squeezed simplex has inscribed/circumscribed radii whose ratio grows
//! with the aspect parameter, so without the well-rounding affine transform
//! the telescoping volume chain gets long and the walk mixes slowly. Every
//! body here keeps an exact closed-form volume, which is what lets the
//! statistical suite gate the rounding path against ground truth and lets
//! `perf_report`'s `degenerate_*` claim rows record an estimate's error.
//!
//! Aspect parameters are powers-of-two-friendly integers so that the closed
//! forms (`aspect⁻⁽ᵈ⁻¹⁾`, `1/(squeeze · d!)`) stay exactly representable.

use cdb_constraint::{Atom, GeneralizedRelation, GeneralizedTuple};

use crate::polytopes::simplex_volume;

/// A degenerate body: its relation and exact volume.
#[derive(Clone, Debug)]
pub struct DegenerateBody {
    /// Short family name (stable across calls; used as a relation name).
    pub name: &'static str,
    /// The body as a one-tuple generalized relation.
    pub relation: GeneralizedRelation,
    /// Exact closed-form volume.
    pub exact_volume: f64,
}

/// The needle box `[0, 1/aspect]^{d-1} × [0, 1]`: one unit-length axis and
/// `d-1` thin axes. Exact volume `aspect^{-(d-1)}`.
pub fn needle_box(dim: usize, aspect: u32) -> DegenerateBody {
    assert!(dim >= 2, "a needle needs a long axis and a thin one");
    assert!(aspect >= 2, "aspect 1 is just a cube");
    let thin = 1.0 / f64::from(aspect);
    let mut hi = vec![thin; dim];
    hi[dim - 1] = 1.0;
    DegenerateBody {
        name: "needle_box",
        relation: GeneralizedRelation::from_tuple(GeneralizedTuple::from_box_f64(
            &vec![0.0; dim],
            &hi,
        )),
        exact_volume: thin.powi(dim as i32 - 1),
    }
}

/// The squeezed simplex `{x ≥ 0, squeeze·x₀ + Σ_{i≥1} x_i ≤ 1}` — the
/// standard simplex scaled by `1/squeeze` along its first axis. Exact volume
/// `1/(squeeze · d!)`.
pub fn thin_simplex(dim: usize, squeeze: u32) -> DegenerateBody {
    assert!(dim >= 2, "a thin simplex needs at least two axes");
    assert!(squeeze >= 2, "squeeze 1 is the standard simplex");
    let mut atoms: Vec<Atom> = (0..dim)
        .map(|i| {
            let mut coeffs = vec![0i64; dim];
            coeffs[i] = -1;
            Atom::le_from_ints(&coeffs, 0)
        })
        .collect();
    let mut facet = vec![1i64; dim];
    facet[0] = i64::from(squeeze);
    atoms.push(Atom::le_from_ints(&facet, -1));
    DegenerateBody {
        name: "thin_simplex",
        relation: GeneralizedRelation::from_tuple(GeneralizedTuple::new(dim, atoms)),
        exact_volume: simplex_volume(dim) / f64::from(squeeze),
    }
}

/// Every degenerate family in dimension `dim` at the given aspect/squeeze
/// factor — the suite the statistical gates and `perf_report`'s
/// `degenerate_*` rows iterate over.
pub fn suite(dim: usize, aspect: u32) -> Vec<DegenerateBody> {
    vec![needle_box(dim, aspect), thin_simplex(dim, aspect)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_geometry::volume::polytope_volume;

    #[test]
    fn needle_box_volume_matches_the_polytope_integrator() {
        let body = needle_box(3, 32);
        let polys = body.relation.to_polytopes();
        assert_eq!(polys.len(), 1);
        assert!((polytope_volume(&polys[0]) - body.exact_volume).abs() < 1e-12);
        assert!((body.exact_volume - (1.0 / 32.0f64).powi(2)).abs() < 1e-15);
    }

    #[test]
    fn thin_simplex_volume_matches_the_closed_form() {
        // The LP-based polytope integrator is exact on simplices too.
        let body = thin_simplex(3, 16);
        let polys = body.relation.to_polytopes();
        assert_eq!(polys.len(), 1);
        assert!((polytope_volume(&polys[0]) - body.exact_volume).abs() < 1e-12);
        assert!((body.exact_volume - 1.0 / (16.0 * 6.0)).abs() < 1e-15);
    }

    #[test]
    fn suite_names_are_distinct() {
        let suite = suite(4, 8);
        assert_eq!(suite.len(), 2);
        assert_ne!(suite[0].name, suite[1].name);
        for body in &suite {
            assert!(body.exact_volume > 0.0);
            assert_eq!(body.relation.arity(), 4);
        }
    }
}
