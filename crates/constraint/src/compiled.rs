//! A relation's atoms precompiled to `f64` rows for the sampling layer's
//! floating-point membership tests.
//!
//! [`GeneralizedRelation::contains_f64`] and
//! [`GeneralizedRelation::first_containing_tuple`] convert every exact
//! coefficient with [`Rational::to_f64`](cdb_num::Rational::to_f64) on every
//! call. The composed generators run those tests once per draw (the union's
//! `j(x)`, the intersection's and difference's rejection steps), so a
//! [`CompiledRelation`] converts once, at build time, and evaluates the same
//! expressions on plain floats.
//!
//! **Same decisions, bit for bit.** Each row stores exactly the values the
//! exact path computes on the fly — `constant.to_f64()` followed by
//! `coeff_i.to_f64()` for every coefficient, zeros included — and
//! [`CompiledRelation::first_containing`] evaluates them in
//! [`LinTerm::eval_f64`](crate::LinTerm::eval_f64)'s order (`acc = c0`, then
//! `acc += c_i * x_i` left to right) and compares with
//! [`Atom::satisfied_f64`](crate::Atom::satisfied_f64)'s comparisons. IEEE
//! arithmetic is deterministic and Rust never fuses the multiply-add on its
//! own, so every intermediate value, and therefore every decision, is the
//! one the exact path makes.

use crate::atom::CompOp;
use crate::relation::GeneralizedRelation;

/// The floating-point test an atom reduces to (strictness is ignored, as in
/// [`Atom::satisfied_f64`](crate::Atom::satisfied_f64)).
#[derive(Clone, Copy, Debug)]
enum Test {
    /// `v <= tol` (`<` and `≤`).
    AtMost,
    /// `|v| <= tol`.
    Zero,
    /// `v >= -tol` (`>` and `≥`).
    AtLeast,
}

impl Test {
    fn of(op: CompOp) -> Test {
        match op {
            CompOp::Lt | CompOp::Le => Test::AtMost,
            CompOp::Eq => Test::Zero,
            CompOp::Ge | CompOp::Gt => Test::AtLeast,
        }
    }

    #[inline]
    fn holds(self, v: f64, tol: f64) -> bool {
        match self {
            Test::AtMost => v <= tol,
            Test::Zero => v.abs() <= tol,
            Test::AtLeast => v >= -tol,
        }
    }
}

/// A [`GeneralizedRelation`] with every atom stored as one `f64` row
/// `[constant, c_0, …, c_{d−1}]`, tuple by tuple. See the module docs for
/// why its answers equal the exact path's bit for bit.
#[derive(Clone, Debug)]
pub struct CompiledRelation {
    arity: usize,
    /// `arity + 1` floats per atom, atoms in tuple order.
    rows: Vec<f64>,
    /// The comparison of each atom.
    tests: Vec<Test>,
    /// `ends[t]` is one past the last atom of tuple `t`.
    ends: Vec<usize>,
}

impl CompiledRelation {
    /// Converts every coefficient of the relation once.
    pub fn new(relation: &GeneralizedRelation) -> Self {
        let arity = relation.arity();
        let atoms: usize = relation.tuples().iter().map(|t| t.atoms().len()).sum();
        let mut rows = Vec::with_capacity(atoms * (arity + 1));
        let mut tests = Vec::with_capacity(atoms);
        let mut ends = Vec::with_capacity(relation.tuples().len());
        for tuple in relation.tuples() {
            for atom in tuple.atoms() {
                rows.push(atom.term().constant_part().to_f64());
                rows.extend(atom.term().coeffs().iter().map(|c| c.to_f64()));
                tests.push(Test::of(atom.op()));
            }
            ends.push(tests.len());
        }
        CompiledRelation {
            arity,
            rows,
            tests,
            ends,
        }
    }

    /// Number of variables.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Does the tuple made of atoms `first..end` contain the point?
    #[inline]
    fn tuple_contains(&self, first: usize, end: usize, point: &[f64], tol: f64) -> bool {
        let width = self.arity + 1;
        self.rows[first * width..end * width]
            .chunks_exact(width)
            .zip(&self.tests[first..end])
            .all(|(row, test)| {
                let mut acc = row[0];
                for (c, x) in row[1..].iter().zip(point) {
                    acc += c * x;
                }
                test.holds(acc, tol)
            })
    }

    /// Index of the first tuple containing the point within `tol` — the same
    /// answer as [`GeneralizedRelation::first_containing_tuple`].
    pub fn first_containing(&self, point: &[f64], tol: f64) -> Option<usize> {
        assert_eq!(point.len(), self.arity, "evaluation point arity mismatch");
        let mut first = 0;
        for (t, &end) in self.ends.iter().enumerate() {
            if self.tuple_contains(first, end, point, tol) {
                return Some(t);
            }
            first = end;
        }
        None
    }

    /// Floating-point membership with tolerance `1e-9` — the same answer as
    /// [`GeneralizedRelation::contains_f64`].
    pub fn contains(&self, point: &[f64]) -> bool {
        self.first_containing(point, 1e-9).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_relation_contains_nothing() {
        let compiled = CompiledRelation::new(&GeneralizedRelation::empty(3));
        assert_eq!(compiled.first_containing(&[0.0; 3], 1e-9), None);
        assert!(!compiled.contains(&[0.0; 3]));
    }
}
