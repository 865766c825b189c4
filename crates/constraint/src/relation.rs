//! Generalized relations: finite unions of generalized tuples (DNF).

use cdb_geometry::HPolytope;
use cdb_num::Rational;
use std::fmt;

use crate::atom::Atom;
use crate::formula::Formula;
use crate::qe;
use crate::tuple::GeneralizedTuple;
use crate::ConstraintError;

/// A *generalized relation* (Section 2 of the paper): a finitely representable
/// set `S ⊆ R^d`, stored in disjunctive normal form as a finite union of
/// generalized tuples. Each tuple is a convex polyhedron, so the relation is
/// a finite union of convex sets.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GeneralizedRelation {
    arity: usize,
    tuples: Vec<GeneralizedTuple>,
}

impl GeneralizedRelation {
    /// The empty relation of the given arity.
    pub fn empty(arity: usize) -> Self {
        GeneralizedRelation {
            arity,
            tuples: Vec::new(),
        }
    }

    /// Builds a relation from explicit tuples.
    pub fn from_tuples(arity: usize, tuples: Vec<GeneralizedTuple>) -> Self {
        for t in &tuples {
            assert_eq!(t.arity(), arity, "tuple arity mismatch");
        }
        GeneralizedRelation { arity, tuples }
    }

    /// A relation holding a single tuple.
    pub fn from_tuple(tuple: GeneralizedTuple) -> Self {
        GeneralizedRelation {
            arity: tuple.arity(),
            tuples: vec![tuple],
        }
    }

    /// A relation describing an axis-aligned box.
    pub fn from_box_f64(lo: &[f64], hi: &[f64]) -> Self {
        GeneralizedRelation::from_tuple(GeneralizedTuple::from_box_f64(lo, hi))
    }

    /// Builds a relation from a relation-free formula: quantifiers are
    /// eliminated, the result is put in DNF and tuples with an empty closure
    /// are dropped.
    pub fn from_formula(arity: usize, formula: &Formula) -> Result<Self, ConstraintError> {
        if !formula.is_relation_free() {
            return Err(ConstraintError::UnsupportedConstruct(
                "from_formula expects a relation-free formula; resolve relation atoms through a Database first".into(),
            ));
        }
        let qf = qe::eliminate_quantifiers(formula)?;
        let ambient = qf.min_arity().max(arity);
        let dnf = qf.to_dnf()?;
        let mut tuples = Vec::with_capacity(dnf.len());
        for conj in dnf {
            // Pad every atom to the ambient arity, then restrict to the
            // output arity (all quantified variables have been eliminated).
            let mut atoms = Vec::with_capacity(conj.len());
            let mut ok = true;
            for a in conj {
                let mapping: Vec<usize> = (0..a.arity()).collect();
                let padded = a.remap(ambient, &mapping);
                match padded.restrict(arity) {
                    Some(restricted) => atoms.push(restricted),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                return Err(ConstraintError::VariableOutOfRange(arity));
            }
            let tuple = GeneralizedTuple::new(arity, atoms);
            if !tuple.closure_is_empty() {
                tuples.push(tuple);
            }
        }
        Ok(GeneralizedRelation { arity, tuples })
    }

    /// Number of variables (the dimension `d` of the relation).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The tuples (disjuncts) of the relation.
    pub fn tuples(&self) -> &[GeneralizedTuple] {
        &self.tuples
    }

    /// Returns `true` when the relation has no tuples (syntactically empty).
    pub fn is_syntactically_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Description size: sum of the tuples' description sizes, the paper's
    /// complexity parameter.
    pub fn description_size(&self) -> usize {
        self.tuples.iter().map(|t| t.description_size()).sum()
    }

    /// Exact membership.
    pub fn contains(&self, point: &[Rational]) -> bool {
        self.tuples.iter().any(|t| t.satisfied(point))
    }

    /// Floating-point membership (tolerance `1e-9`).
    pub fn contains_f64(&self, point: &[f64]) -> bool {
        self.tuples.iter().any(|t| t.satisfied_f64(point, 1e-9))
    }

    /// Index of the first tuple containing the point — the `j(x)` of the
    /// union generator (Algorithm 1 in the paper), used to make sure every
    /// point of an overlapping union is attributed to exactly one tuple.
    pub fn first_containing_tuple(&self, point: &[f64], tol: f64) -> Option<usize> {
        self.tuples.iter().position(|t| t.satisfied_f64(point, tol))
    }

    /// The closures of the tuples as H-polytopes, in order.
    pub fn to_polytopes(&self) -> Vec<HPolytope> {
        self.tuples.iter().map(|t| t.to_hpolytope()).collect()
    }

    /// The defining formula (a disjunction of conjunctions).
    pub fn to_formula(&self) -> Formula {
        Formula::or(
            self.tuples
                .iter()
                .map(|t| Formula::and(t.atoms().iter().cloned().map(Formula::Atom).collect()))
                .collect(),
        )
    }

    /// Union with another relation of the same arity.
    pub fn union(&self, other: &GeneralizedRelation) -> GeneralizedRelation {
        assert_eq!(self.arity, other.arity, "relation arity mismatch");
        let mut tuples = self.tuples.clone();
        tuples.extend(other.tuples.iter().cloned());
        GeneralizedRelation {
            arity: self.arity,
            tuples,
        }
    }

    /// Intersection with another relation (pairwise conjunction of tuples;
    /// empty combinations are dropped).
    pub fn intersection(&self, other: &GeneralizedRelation) -> GeneralizedRelation {
        assert_eq!(self.arity, other.arity, "relation arity mismatch");
        let mut tuples = Vec::new();
        for a in &self.tuples {
            for b in &other.tuples {
                let c = a.conjoin(b);
                if !c.closure_is_empty() {
                    tuples.push(c);
                }
            }
        }
        GeneralizedRelation {
            arity: self.arity,
            tuples,
        }
    }

    /// Set difference `self − other`, computed symbolically as
    /// `self ∧ ¬other` and renormalized to DNF.
    pub fn difference(
        &self,
        other: &GeneralizedRelation,
    ) -> Result<GeneralizedRelation, ConstraintError> {
        assert_eq!(self.arity, other.arity, "relation arity mismatch");
        let formula = Formula::and(vec![self.to_formula(), Formula::not(other.to_formula())]);
        GeneralizedRelation::from_formula(self.arity, &formula)
    }

    /// Selection: conjoins an additional atom to every tuple.
    pub fn select(&self, atom: &Atom) -> GeneralizedRelation {
        assert_eq!(atom.arity(), self.arity, "selection atom arity mismatch");
        let tuples = self
            .tuples
            .iter()
            .map(|t| {
                let mut t2 = t.clone();
                t2.push(atom.clone());
                t2
            })
            .filter(|t| !t.closure_is_empty())
            .collect();
        GeneralizedRelation {
            arity: self.arity,
            tuples,
        }
    }

    /// Projection onto the listed coordinates (symbolic Fourier–Motzkin per
    /// tuple) — the classical baseline the paper's Algorithm 2 replaces.
    pub fn project(&self, keep: &[usize]) -> GeneralizedRelation {
        let tuples: Vec<GeneralizedTuple> = self
            .tuples
            .iter()
            .map(|t| qe::project_tuple(t, keep))
            .filter(|t| !t.closure_is_empty())
            .collect();
        GeneralizedRelation {
            arity: keep.len(),
            tuples,
        }
    }

    /// Cartesian product with another relation (variables of `other` are
    /// shifted after `self`'s).
    pub fn product(&self, other: &GeneralizedRelation) -> GeneralizedRelation {
        let mut tuples = Vec::new();
        for a in &self.tuples {
            for b in &other.tuples {
                tuples.push(a.product(b));
            }
        }
        GeneralizedRelation {
            arity: self.arity + other.arity,
            tuples,
        }
    }

    /// Drops tuples whose closure is empty or lower-dimensional (no
    /// Chebyshev ball with positive radius); these contribute nothing to
    /// volumes or sampling.
    pub fn prune_degenerate(&self) -> GeneralizedRelation {
        let tuples = self
            .tuples
            .iter()
            .filter(|t| {
                t.to_hpolytope()
                    .chebyshev_ball()
                    .map(|(_, r)| r > 1e-12)
                    .unwrap_or(false)
            })
            .cloned()
            .collect();
        GeneralizedRelation {
            arity: self.arity,
            tuples,
        }
    }
}

impl fmt::Display for GeneralizedRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.tuples.is_empty() {
            return write!(f, "false");
        }
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, " or ")?;
            }
            write!(f, "[{t}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::CompOp;
    use crate::term::LinTerm;

    fn unit_square() -> GeneralizedRelation {
        GeneralizedRelation::from_box_f64(&[0.0, 0.0], &[1.0, 1.0])
    }

    fn shifted_square() -> GeneralizedRelation {
        GeneralizedRelation::from_box_f64(&[0.5, 0.5], &[1.5, 1.5])
    }

    #[test]
    fn membership_and_union() {
        let u = unit_square().union(&shifted_square());
        assert_eq!(u.tuples().len(), 2);
        assert!(u.contains_f64(&[0.25, 0.25]));
        assert!(u.contains_f64(&[1.25, 1.25]));
        assert!(!u.contains_f64(&[2.0, 2.0]));
        assert_eq!(u.first_containing_tuple(&[0.75, 0.75], 1e-9), Some(0));
        assert_eq!(u.first_containing_tuple(&[1.25, 1.25], 1e-9), Some(1));
        assert_eq!(u.first_containing_tuple(&[9.0, 9.0], 1e-9), None);
    }

    #[test]
    fn intersection_keeps_only_overlap() {
        let i = unit_square().intersection(&shifted_square());
        assert_eq!(i.tuples().len(), 1);
        assert!(i.contains_f64(&[0.75, 0.75]));
        assert!(!i.contains_f64(&[0.25, 0.25]));
        // Disjoint intersection is empty.
        let far = GeneralizedRelation::from_box_f64(&[10.0, 10.0], &[11.0, 11.0]);
        assert!(unit_square().intersection(&far).is_syntactically_empty());
    }

    #[test]
    fn difference_carves_out_the_overlap() {
        let d = unit_square().difference(&shifted_square()).unwrap();
        assert!(d.contains_f64(&[0.25, 0.25]));
        assert!(!d.contains_f64(&[0.75, 0.75]));
        assert!(!d.contains_f64(&[1.25, 1.25]));
        // Difference with a disjoint set is the original set.
        let far = GeneralizedRelation::from_box_f64(&[5.0, 5.0], &[6.0, 6.0]);
        let same = unit_square().difference(&far).unwrap();
        for p in [[0.1, 0.9], [0.5, 0.5], [1.5, 0.5]] {
            assert_eq!(
                same.contains_f64(&p),
                unit_square().contains_f64(&p),
                "{p:?}"
            );
        }
    }

    #[test]
    fn projection_matches_fourier_motzkin() {
        // Project the square [0,1]x[2,3] onto the second coordinate.
        let r = GeneralizedRelation::from_box_f64(&[0.0, 2.0], &[1.0, 3.0]);
        let p = r.project(&[1]);
        assert_eq!(p.arity(), 1);
        assert!(p.contains_f64(&[2.5]));
        assert!(!p.contains_f64(&[1.5]));
        assert!(!p.contains_f64(&[3.5]));
    }

    #[test]
    fn selection_and_product() {
        let r = unit_square();
        // Select x <= 1/2.
        let atom = Atom::new(
            LinTerm::var(2, 0).sub(&LinTerm::constant(2, Rational::from_ratio(1, 2))),
            CompOp::Le,
        );
        let s = r.select(&atom);
        assert!(s.contains_f64(&[0.25, 0.9]));
        assert!(!s.contains_f64(&[0.75, 0.9]));
        // Product with an interval gives a 3-dimensional box.
        let interval = GeneralizedRelation::from_box_f64(&[10.0], &[11.0]);
        let prod = r.product(&interval);
        assert_eq!(prod.arity(), 3);
        assert!(prod.contains_f64(&[0.5, 0.5, 10.5]));
        assert!(!prod.contains_f64(&[0.5, 0.5, 9.5]));
    }

    #[test]
    fn from_formula_builds_dnf_and_drops_empty_disjuncts() {
        // (0 <= x <= 1) or (x >= 5 and x <= 4)  — the second disjunct is empty.
        let f = Formula::or(vec![
            Formula::and(vec![
                Formula::Atom(Atom::le_from_ints(&[-1], 0)),
                Formula::Atom(Atom::le_from_ints(&[1], -1)),
            ]),
            Formula::and(vec![
                Formula::Atom(Atom::new(LinTerm::from_ints(&[1], -5), CompOp::Ge)),
                Formula::Atom(Atom::le_from_ints(&[1], -4)),
            ]),
        ]);
        let r = GeneralizedRelation::from_formula(1, &f).unwrap();
        assert_eq!(r.tuples().len(), 1);
        assert!(r.contains_f64(&[0.5]));
        assert!(!r.contains_f64(&[4.5]));
    }

    #[test]
    fn from_formula_with_quantifier() {
        // exists y. (x <= y and y <= 1 and x >= 0)  <=>  0 <= x <= 1.
        let f = Formula::exists(
            vec![1],
            Formula::and(vec![
                Formula::Atom(Atom::le_from_ints(&[1, -1], 0)),
                Formula::Atom(Atom::le_from_ints(&[0, 1], -1)),
                Formula::Atom(Atom::new(LinTerm::from_ints(&[1, 0], 0), CompOp::Ge)),
            ]),
        );
        let r = GeneralizedRelation::from_formula(1, &f).unwrap();
        assert!(r.contains_f64(&[0.0]));
        assert!(r.contains_f64(&[1.0]));
        assert!(!r.contains_f64(&[1.5]));
        assert!(!r.contains_f64(&[-0.5]));
    }

    #[test]
    fn from_formula_rejects_relation_atoms() {
        let f = Formula::rel("R", vec![0]);
        assert!(GeneralizedRelation::from_formula(1, &f).is_err());
    }

    #[test]
    fn formula_roundtrip_preserves_membership() {
        let u = unit_square().union(&shifted_square());
        let back = GeneralizedRelation::from_formula(2, &u.to_formula()).unwrap();
        for p in [[0.1, 0.1], [0.75, 0.75], [1.4, 1.4], [2.0, 0.0]] {
            assert_eq!(u.contains_f64(&p), back.contains_f64(&p), "{p:?}");
        }
    }

    #[test]
    fn prune_degenerate_removes_segments() {
        // A box plus a degenerate "segment" tuple (x = 5, 0 <= y <= 1).
        let mut segment = GeneralizedTuple::from_box_f64(&[5.0, 0.0], &[5.0, 1.0]);
        segment.push(Atom::new(LinTerm::from_ints(&[1, 0], -5), CompOp::Eq));
        let r = GeneralizedRelation::from_tuples(
            2,
            vec![
                GeneralizedTuple::from_box_f64(&[0.0, 0.0], &[1.0, 1.0]),
                segment,
            ],
        );
        assert_eq!(r.tuples().len(), 2);
        assert_eq!(r.prune_degenerate().tuples().len(), 1);
    }

    #[test]
    fn exact_membership_at_boundaries() {
        let r = unit_square();
        let one = Rational::from_int(1);
        let zero = Rational::zero();
        assert!(r.contains(&[one.clone(), zero.clone()]));
        assert!(!r.contains(&[Rational::from_ratio(11, 10), zero]));
    }
}
