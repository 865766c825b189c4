//! The linear constraint database model of Kanellakis, Kuper and Revesz, as
//! used by the paper *Uniform generation in spatial constraint databases and
//! applications*.
//!
//! The symbolic layer mirrors Section 2 of the paper:
//!
//! * a *generalized tuple* is a conjunction of linear constraints over the
//!   structure `Rlin = ⟨R, +, −, <, 0, 1⟩` — geometrically a convex
//!   polyhedron ([`GeneralizedTuple`]);
//! * a *generalized relation* is a finite union of generalized tuples — a
//!   quantifier-free formula in disjunctive normal form
//!   ([`GeneralizedRelation`]);
//! * queries are first-order formulas over the schema and the linear
//!   structure (`FO + LIN`), represented by [`Formula`] with relation atoms
//!   resolved against a [`Database`];
//! * quantifier elimination is Fourier–Motzkin ([`qe`]), the classical
//!   symbolic baseline whose doubly-exponential cost motivates the paper's
//!   sampling approach.
//!
//! Exact rational arithmetic (`cdb-num`) is used for every symbolic
//! manipulation; conversion to floating point happens only at the boundary to
//! the geometric/sampling layer (`to_hpolytope`, and [`CompiledRelation`]
//! for the samplers' per-draw membership tests).
//!
//! # Example
//!
//! ```
//! use cdb_constraint::{Atom, CompOp, Formula, GeneralizedRelation, LinTerm};
//! use cdb_num::Rational;
//!
//! // The triangle 0 <= x, 0 <= y, x + y <= 1 as a generalized relation.
//! let tri = Formula::and(vec![
//!     Formula::atom(Atom::new(LinTerm::var(2, 0), CompOp::Ge)),          // x >= 0
//!     Formula::atom(Atom::new(LinTerm::var(2, 1), CompOp::Ge)),          // y >= 0
//!     Formula::atom(Atom::new(
//!         LinTerm::var(2, 0).add(&LinTerm::var(2, 1)).sub(&LinTerm::constant(2, Rational::one())),
//!         CompOp::Le,
//!     )),                                                                // x + y - 1 <= 0
//! ]);
//! let rel = GeneralizedRelation::from_formula(2, &tri).unwrap();
//! assert_eq!(rel.tuples().len(), 1);
//! assert!(rel.contains_f64(&[0.25, 0.25]));
//! assert!(!rel.contains_f64(&[0.9, 0.9]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atom;
pub mod canonical;
mod compiled;
mod database;
mod formula;
mod parser;
pub mod poly;
pub mod qe;
mod relation;
mod term;
mod tuple;

pub use atom::{Atom, CompOp};
pub use canonical::{canonicalize, content_digest, CanonicalKey};
pub use compiled::CompiledRelation;
pub use database::{Database, Schema};
pub use formula::Formula;
pub use parser::{parse_formula, ParseError};
pub use relation::GeneralizedRelation;
pub use term::LinTerm;
pub use tuple::GeneralizedTuple;

/// Errors produced by the symbolic layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintError {
    /// A formula used a relation name that is not part of the database.
    UnknownRelation(String),
    /// A relation was used with the wrong number of argument variables.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Expected arity.
        expected: usize,
        /// Arity found in the query.
        found: usize,
    },
    /// Universal quantification or some other construct outside the supported
    /// fragment was encountered where it is not allowed.
    UnsupportedConstruct(String),
    /// A variable index was out of range for the formula's arity.
    VariableOutOfRange(usize),
}

impl std::fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstraintError::UnknownRelation(name) => write!(f, "unknown relation {name}"),
            ConstraintError::ArityMismatch {
                relation,
                expected,
                found,
            } => {
                write!(
                    f,
                    "relation {relation} has arity {expected}, used with {found} arguments"
                )
            }
            ConstraintError::UnsupportedConstruct(what) => {
                write!(f, "unsupported construct: {what}")
            }
            ConstraintError::VariableOutOfRange(v) => write!(f, "variable x{v} is out of range"),
        }
    }
}

impl std::error::Error for ConstraintError {}
