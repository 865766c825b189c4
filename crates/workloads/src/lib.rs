//! Synthetic workload generators for the experiments.
//!
//! The paper's evaluation is analytic; the experiments in EXPERIMENTS.md need
//! concrete families of generalized relations with known ground truth. This
//! crate provides them:
//!
//! * [`polytopes`] — classic convex bodies (hypercubes, simplices,
//!   cross-polytopes, random rotated boxes, random H-polytopes) with exact
//!   volumes where closed forms exist;
//! * [`gis`] — a synthetic Geographical Information System layer generator
//!   (unions of convex regions with controlled overlap), standing in for the
//!   GIS applications that motivate the paper, including time-sliced
//!   moving-object overlays ([`gis::moving_overlay`]);
//! * [`sat`] — the Section 4.1.3 encoding of CNF formulas as intersections of
//!   observable unions (literal `x` ↦ `3/4 < x < 1`, literal `¬x` ↦
//!   `0 < x < 1/4`), used to demonstrate why the poly-related restriction is
//!   necessary;
//! * [`structured`] — sparse-structured H-polytope scenarios (axis-aligned
//!   box stacks, banded overlay intersections, SAT-style sparse cut systems)
//!   that exercise the structure-aware constraint-matrix kernels; used by
//!   the walk perf report and the kernel-equivalence property tests;
//! * [`projection`] — projection scenarios with controlled fiber dimension
//!   and closed-form fiber/projection volumes (the deep cone, skewed
//!   prisms), validating the `Exact` vs `Estimated` compensation-weight
//!   strategies of the projection generator;
//! * [`pathological`] — adversarial zero-acceptance compositions (sliver
//!   intersections, vanishing differences, needle-in-haystack rejection)
//!   that drive the resilience suite's budget and fault-injection tests;
//! * [`degenerate`] — high-aspect bodies (needle boxes, squeezed simplices)
//!   with closed-form volumes, stressing the rounding path;
//! * [`sessions`] — polytope soups whose named relations share structurally
//!   identical bodies (stressing the prepared-relation store under
//!   contention) plus the [`sessions::SessionMix`] read/volume/reconstruction
//!   blend that perfbench's workloads draw their op mix from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod degenerate;
pub mod gis;
pub mod pathological;
pub mod polytopes;
pub mod projection;
pub mod sat;
pub mod sessions;
pub mod structured;
