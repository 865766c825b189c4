//! Generalized tuples: conjunctions of linear atoms, i.e. convex polyhedra.

use cdb_geometry::HPolytope;
use cdb_lp::LpProblem;
use cdb_num::Rational;
use std::fmt;

use crate::atom::{Atom, CompOp};

/// A *generalized tuple* (Section 2 of the paper): a conjunction of atomic
/// linear constraints over `d` variables. Geometrically a convex polyhedron.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GeneralizedTuple {
    arity: usize,
    atoms: Vec<Atom>,
}

impl GeneralizedTuple {
    /// Creates a tuple from its atoms (all of the given arity).
    pub fn new(arity: usize, atoms: Vec<Atom>) -> Self {
        for a in &atoms {
            assert_eq!(a.arity(), arity, "atom arity mismatch");
        }
        GeneralizedTuple { arity, atoms }
    }

    /// The tuple with no constraints (the whole space).
    pub fn whole_space(arity: usize) -> Self {
        GeneralizedTuple {
            arity,
            atoms: Vec::new(),
        }
    }

    /// A tuple describing the axis-aligned box `[lo_i, hi_i]`.
    pub fn from_box(lo: &[Rational], hi: &[Rational]) -> Self {
        assert_eq!(lo.len(), hi.len(), "box bounds arity mismatch");
        let arity = lo.len();
        let mut atoms = Vec::with_capacity(2 * arity);
        for i in 0..arity {
            let (a, b) = Atom::bounds(arity, i, lo[i].clone(), hi[i].clone());
            atoms.push(a);
            atoms.push(b);
        }
        GeneralizedTuple { arity, atoms }
    }

    /// A tuple describing the box `[lo_i, hi_i]` with floating-point bounds
    /// (converted exactly to dyadic rationals).
    pub fn from_box_f64(lo: &[f64], hi: &[f64]) -> Self {
        let lo_r: Vec<Rational> = lo
            .iter()
            .map(|&v| Rational::from_f64(v).expect("finite bound"))
            .collect();
        let hi_r: Vec<Rational> = hi
            .iter()
            .map(|&v| Rational::from_f64(v).expect("finite bound"))
            .collect();
        GeneralizedTuple::from_box(&lo_r, &hi_r)
    }

    /// Number of variables.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The atoms of the conjunction.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of atoms.
    pub fn n_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Description size: total number of symbols (coefficients) of the
    /// defining formula, the paper's complexity parameter.
    pub fn description_size(&self) -> usize {
        self.atoms.len() * (self.arity + 1)
    }

    /// Adds an atom to the conjunction.
    pub fn push(&mut self, atom: Atom) {
        assert_eq!(atom.arity(), self.arity, "atom arity mismatch");
        self.atoms.push(atom);
    }

    /// Conjunction with another tuple over the same variables.
    pub fn conjoin(&self, other: &GeneralizedTuple) -> GeneralizedTuple {
        assert_eq!(self.arity, other.arity, "tuple arity mismatch");
        let mut atoms = self.atoms.clone();
        atoms.extend(other.atoms.iter().cloned());
        GeneralizedTuple {
            arity: self.arity,
            atoms,
        }
    }

    /// Cartesian product with a tuple over disjoint variables: the result has
    /// arity `self.arity + other.arity`, with `other`'s variables shifted.
    pub fn product(&self, other: &GeneralizedTuple) -> GeneralizedTuple {
        let arity = self.arity + other.arity;
        let self_map: Vec<usize> = (0..self.arity).collect();
        let other_map: Vec<usize> = (self.arity..arity).collect();
        let mut atoms: Vec<Atom> = self
            .atoms
            .iter()
            .map(|a| a.remap(arity, &self_map))
            .collect();
        atoms.extend(other.atoms.iter().map(|a| a.remap(arity, &other_map)));
        GeneralizedTuple { arity, atoms }
    }

    /// Remaps every atom into a larger ambient arity.
    pub fn remap(&self, new_arity: usize, mapping: &[usize]) -> GeneralizedTuple {
        GeneralizedTuple {
            arity: new_arity,
            atoms: self
                .atoms
                .iter()
                .map(|a| a.remap(new_arity, mapping))
                .collect(),
        }
    }

    /// Exact membership test.
    pub fn satisfied(&self, point: &[Rational]) -> bool {
        self.atoms.iter().all(|a| a.satisfied(point))
    }

    /// Floating-point membership test.
    pub fn satisfied_f64(&self, point: &[f64], tol: f64) -> bool {
        self.atoms.iter().all(|a| a.satisfied_f64(point, tol))
    }

    /// The H-polytope of the tuple's *closure* (strict inequalities become
    /// non-strict; equalities contribute two opposite halfspaces). This is
    /// the geometric object handed to the samplers — the boundary has measure
    /// zero, so closure does not change volumes or sampling distributions.
    pub fn to_hpolytope(&self) -> HPolytope {
        let mut hs = Vec::with_capacity(self.atoms.len());
        for a in &self.atoms {
            match a.op() {
                CompOp::Eq => {
                    if let Some((h1, h2)) = a.equality_halfspaces() {
                        hs.push(h1);
                        hs.push(h2);
                    }
                }
                _ => {
                    if let Some(h) = a.to_halfspace() {
                        hs.push(h);
                    }
                }
            }
        }
        HPolytope::new(self.arity, hs)
    }

    /// Exact emptiness test of the tuple's closure, using the rational
    /// simplex. (A tuple whose closure is empty is certainly empty; a tuple
    /// that is non-empty only on a measure-zero set is treated as non-empty
    /// here and filtered out later by full-dimensionality checks.)
    pub fn closure_is_empty(&self) -> bool {
        let mut lp: LpProblem<Rational> = LpProblem::new(self.arity);
        for a in &self.atoms {
            let n = a.normalized();
            let coeffs: Vec<Rational> = n.term().coeffs().to_vec();
            let rhs = -n.term().constant_part().clone();
            match n.op() {
                CompOp::Eq => lp.add_eq(coeffs, rhs),
                _ => lp.add_le(coeffs, rhs),
            }
        }
        lp.feasible_point().is_none()
    }

    /// Returns `true` when the tuple's closure is non-empty and bounded with
    /// non-empty interior — the *well-bounded convex relation* requirement of
    /// the paper (needed by the Dyer–Frieze–Kannan generator).
    pub fn is_well_bounded(&self) -> bool {
        self.to_hpolytope().well_bounded().is_some()
    }
}

impl fmt::Display for GeneralizedTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "true");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "({a})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::LinTerm;

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }

    fn unit_square() -> GeneralizedTuple {
        GeneralizedTuple::from_box(&[r(0), r(0)], &[r(1), r(1)])
    }

    #[test]
    fn box_membership() {
        let sq = unit_square();
        assert_eq!(sq.arity(), 2);
        assert_eq!(sq.n_atoms(), 4);
        assert!(sq.satisfied(&[Rational::from_ratio(1, 2), Rational::from_ratio(1, 3)]));
        assert!(!sq.satisfied(&[r(2), r(0)]));
        assert!(sq.satisfied_f64(&[0.5, 0.5], 1e-9));
        assert!(!sq.satisfied_f64(&[1.5, 0.5], 1e-9));
        assert!(sq.description_size() > 0);
    }

    #[test]
    fn conjunction_and_emptiness() {
        let sq = unit_square();
        let shifted = GeneralizedTuple::from_box(&[r(2), r(2)], &[r(3), r(3)]);
        let empty = sq.conjoin(&shifted);
        assert!(empty.closure_is_empty());
        let overlapping = GeneralizedTuple::from_box(&[r(0), r(0)], &[r(2), r(2)]);
        assert!(!sq.conjoin(&overlapping).closure_is_empty());
    }

    #[test]
    fn polytope_conversion_matches_membership() {
        let sq = unit_square();
        let p = sq.to_hpolytope();
        for probe in [[0.5, 0.5], [-0.1, 0.5], [0.5, 1.1], [1.0, 1.0]] {
            assert_eq!(
                p.contains_slice(&probe, 1e-9),
                sq.satisfied_f64(&probe, 1e-9),
                "{probe:?}"
            );
        }
        assert!(sq.is_well_bounded());
        let whole = GeneralizedTuple::whole_space(2);
        assert!(!whole.is_well_bounded());
    }

    #[test]
    fn equalities_become_halfspace_pairs() {
        // x = y within the unit square: a diagonal segment, closure non-empty
        // but not well-bounded (no interior).
        let mut t = unit_square();
        t.push(Atom::new(LinTerm::from_ints(&[1, -1], 0), CompOp::Eq));
        assert!(!t.closure_is_empty());
        assert!(!t.is_well_bounded());
        assert!(t.satisfied(&[Rational::from_ratio(1, 2), Rational::from_ratio(1, 2)]));
        assert!(!t.satisfied(&[Rational::from_ratio(1, 2), Rational::from_ratio(1, 3)]));
        let p = t.to_hpolytope();
        assert_eq!(p.n_constraints(), 6);
    }

    #[test]
    fn product_spans_disjoint_variables() {
        let a = GeneralizedTuple::from_box(&[r(0)], &[r(1)]);
        let b = GeneralizedTuple::from_box(&[r(10)], &[r(11)]);
        let prod = a.product(&b);
        assert_eq!(prod.arity(), 2);
        assert!(prod.satisfied_f64(&[0.5, 10.5], 1e-9));
        assert!(!prod.satisfied_f64(&[0.5, 9.0], 1e-9));
        assert!(!prod.satisfied_f64(&[2.0, 10.5], 1e-9));
    }

    #[test]
    fn remap_into_larger_space() {
        let a = GeneralizedTuple::from_box(&[r(0)], &[r(1)]);
        let lifted = a.remap(3, &[2]);
        assert_eq!(lifted.arity(), 3);
        assert!(lifted.satisfied_f64(&[99.0, -99.0, 0.5], 1e-9));
        assert!(!lifted.satisfied_f64(&[0.5, 0.5, 2.0], 1e-9));
    }

    #[test]
    fn strict_inequalities_respected_exactly() {
        // 0 < x < 1 strictly.
        let atoms = vec![
            Atom::new(LinTerm::from_ints(&[-1], 0), CompOp::Lt),
            Atom::new(LinTerm::from_ints(&[1], -1), CompOp::Lt),
        ];
        let t = GeneralizedTuple::new(1, atoms);
        assert!(t.satisfied(&[Rational::from_ratio(1, 2)]));
        assert!(!t.satisfied(&[r(0)]));
        assert!(!t.satisfied(&[r(1)]));
        // The closure is still non-empty and the polytope is the closed interval.
        assert!(!t.closure_is_empty());
        assert!(t.to_hpolytope().contains_slice(&[0.0], 1e-9));
    }
}
