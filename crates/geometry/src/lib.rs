//! Computational geometry for the spatial constraint database workspace.
//!
//! A generalized tuple of the paper (a conjunction of linear constraints) is
//! geometrically an H-polyhedron; a generalized relation is a finite union of
//! them. This crate provides the geometric substrate the symbolic and
//! sampling layers are built on:
//!
//! * [`Halfspace`] and [`HPolytope`] — H-representation polyhedra with
//!   membership tests, emptiness and boundedness certificates (via
//!   `cdb-lp`), Chebyshev balls, bounding boxes, affine images and vertex
//!   enumeration;
//! * [`ConstraintMatrix`] — the structure-aware constraint-matrix layer
//!   (dense / CSR / axis-aligned) every polytope builds at construction; the
//!   samplers' hot chord and membership kernels dispatch on it;
//! * [`hull`] — convex hulls of point clouds (monotone chain in 2D,
//!   Quickhull above it, both output-sensitive in the number of points),
//!   used by the reconstruction algorithms of Section 4.3 of the paper;
//! * [`volume`] — deterministic volume computation for convex polytopes
//!   (cone decomposition from an interior point over the facet lattice) and
//!   inclusion–exclusion volumes for unions, the fixed-dimension baseline of
//!   Section 3;
//! * [`fiber`] — reusable fiber (cylinder) templates for coordinate
//!   projections: the constraint normals of a projection fiber are fixed, so
//!   [`fiber::FiberTemplate`] re-aims one polytope at each projected point by
//!   rewriting offsets in place instead of rebuilding it;
//! * [`GammaGrid`] — the γ-grids of Definition 2.2;
//! * [`Ellipsoid`] and [`ball`] — smooth convex bodies for the polynomial
//!   extension of Section 5 and for rounding diagnostics.
//!
//! # Example
//!
//! ```
//! use cdb_geometry::HPolytope;
//!
//! // The unit square [0,1]^2.
//! let square = HPolytope::axis_box(&[0.0, 0.0], &[1.0, 1.0]);
//! assert!(square.contains_slice(&[0.5, 0.5], 1e-9));
//! assert!(!square.contains_slice(&[1.5, 0.5], 1e-9));
//! let (center, radius) = square.chebyshev_ball().unwrap();
//! assert!((radius - 0.5).abs() < 1e-6);
//! assert!((center[0] - 0.5).abs() < 1e-6);
//! assert!((cdb_geometry::volume::polytope_volume(&square) - 1.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ball;
mod constraint_matrix;
mod ellipsoid;
pub mod fiber;
mod grid;
mod halfspace;
mod hpolytope;
pub mod hull;
pub mod volume;

pub use constraint_matrix::ConstraintMatrix;
pub use ellipsoid::Ellipsoid;
pub use grid::GammaGrid;
pub use halfspace::Halfspace;
pub use hpolytope::{HPolytope, WellBounded};

/// Default numerical tolerance for geometric predicates.
pub const GEOM_EPS: f64 = 1e-7;
