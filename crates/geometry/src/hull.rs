//! Convex hulls of finite point sets.
//!
//! Used by the reconstruction algorithms of Section 4.3 of the paper: the
//! convex hull of `N` almost-uniform samples approximates the sampled convex
//! polytope (Lemma 4.1), and the reconstructed relation is returned as an
//! H-polytope so it can be fed back into the constraint layer.
//!
//! As the paper notes, convex hull computation is exponential in the
//! dimension; these routines are meant for the *result* dimension `e` of a
//! projection query, which is small. Both algorithms are output-sensitive in
//! the number of points: Andrew's monotone chain in the plane
//! (`O(N log N)`), and Quickhull above it, which grows a simplicial hull from
//! an initial simplex one farthest outside point at a time. Every predicate
//! uses the same tolerance, `HULL_EPS` times the cloud's scale.

use cdb_linalg::Vector;

use crate::{HPolytope, Halfspace};

mod quickhull;
#[cfg(test)]
mod tests;

use quickhull::SimplicialHull;

/// Tolerance for hull predicates, relative to the point cloud's scale.
const HULL_EPS: f64 = 1e-7;

/// The absolute predicate tolerance for a cloud: [`HULL_EPS`] times its
/// largest coordinate magnitude (at least 1).
fn cloud_tolerance(points: &[Vector]) -> f64 {
    HULL_EPS * points.iter().map(|p| p.norm_inf()).fold(1.0f64, f64::max)
}

fn all_finite(points: &[Vector]) -> bool {
    points.iter().all(|p| p.is_finite())
}

/// Convex hull of a set of points in the plane, returned in counter-clockwise
/// order without repetition (Andrew's monotone chain). Points closer than
/// the cloud tolerance are merged, so consecutive hull vertices are always
/// farther apart than it, and a vertex within the tolerance of the chord
/// between its neighbours is dropped. Collinear input degenerates to the two
/// extreme points; fewer than three distinct points are returned as-is. A
/// non-finite coordinate does not panic, but the ring is then meaningless.
pub fn hull_2d(points: &[Vector]) -> Vec<Vector> {
    assert!(
        points.iter().all(|p| p.dim() == 2),
        "hull_2d expects planar points"
    );
    let tol = cloud_tolerance(points);
    let close = |a: (f64, f64), b: (f64, f64)| (a.0 - b.0).abs() < tol && (a.1 - b.1).abs() < tol;
    let mut pts: Vec<(f64, f64)> = points.iter().map(|p| (p[0], p[1])).collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    pts.dedup_by(|a, b| close(*a, *b));
    let to_vectors = |ring: Vec<(f64, f64)>| -> Vec<Vector> {
        ring.into_iter()
            .map(|(x, y)| Vector::from(vec![x, y]))
            .collect()
    };
    if pts.len() < 3 {
        return to_vectors(pts);
    }
    // Whether `a` fails to turn left on the way from `o` to `b` by more than
    // the tolerance: the cross product is `|b − o|` times `a`'s distance from
    // the chord `o → b`.
    let not_left = |o: (f64, f64), a: (f64, f64), b: (f64, f64)| {
        let cross = (a.0 - o.0) * (b.1 - o.1) - (a.1 - o.1) * (b.0 - o.0);
        cross <= tol * (b.0 - o.0).hypot(b.1 - o.1)
    };
    let mut lower: Vec<(f64, f64)> = Vec::new();
    for &p in &pts {
        while lower.len() >= 2 && not_left(lower[lower.len() - 2], lower[lower.len() - 1], p) {
            lower.pop();
        }
        lower.push(p);
    }
    let mut upper: Vec<(f64, f64)> = Vec::new();
    for &p in pts.iter().rev() {
        while upper.len() >= 2 && not_left(upper[upper.len() - 2], upper[upper.len() - 1], p) {
            upper.pop();
        }
        upper.push(p);
    }
    lower.pop();
    upper.pop();
    lower.extend(upper);
    // Close points need not be neighbours in sort order: drop any hull
    // vertex within the tolerance of the one before it.
    let mut ring: Vec<(f64, f64)> = Vec::with_capacity(lower.len());
    for p in lower {
        if ring.last().is_none_or(|&q| !close(p, q)) {
            ring.push(p);
        }
    }
    while ring.len() > 1 && close(ring[0], ring[ring.len() - 1]) {
        ring.pop();
    }
    to_vectors(ring)
}

/// Area of a simple polygon given by its vertices in order (shoelace formula).
pub fn polygon_area(vertices: &[Vector]) -> f64 {
    if vertices.len() < 3 {
        return 0.0;
    }
    let n = vertices.len();
    let mut twice_area = 0.0;
    for i in 0..n {
        let j = (i + 1) % n;
        twice_area += vertices[i][0] * vertices[j][1] - vertices[j][0] * vertices[i][1];
    }
    twice_area.abs() / 2.0
}

/// The outward unit-normal halfspaces of a counter-clockwise polygon, one per
/// edge `a → b`: normal `(b_y − a_y, a_x − b_x)/‖·‖`, offset `normal·a`.
fn ring_halfspaces(ring: &[Vector]) -> Vec<Halfspace> {
    ring.iter()
        .zip(ring.iter().cycle().skip(1))
        .map(|(a, b)| {
            let edge = Vector::from(vec![b[1] - a[1], a[0] - b[0]]);
            let normal = edge.scale(1.0 / edge.norm());
            let offset = normal.dot(a);
            Halfspace::new(normal, offset)
        })
        .collect()
}

/// H-representation of the convex hull of a point cloud (small dimensions),
/// one halfspace per facet with a unit outward normal. Returns `None` when
/// the cloud is empty, has a non-finite coordinate, is affinely degenerate
/// (its hull has no interior), or is too small.
pub fn hull_to_hpolytope(points: &[Vector]) -> Option<HPolytope> {
    if points.is_empty() || !all_finite(points) {
        return None;
    }
    match points[0].dim() {
        0 => None,
        1 => {
            let lo = points.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
            let hi = points
                .iter()
                .map(|p| p[0])
                .fold(f64::NEG_INFINITY, f64::max);
            (hi - lo > 0.0).then(|| HPolytope::axis_box(&[lo], &[hi]))
        }
        2 => {
            let halfspaces = ring_halfspaces(&hull_2d(points));
            if halfspaces.len() < 3 {
                return None;
            }
            let poly = HPolytope::new(2, halfspaces);
            // Degenerate clouds can slip through with opposite facets only.
            let radius = poly.chebyshev_ball().map_or(0.0, |(_, r)| r);
            (radius > 0.0).then_some(poly)
        }
        // Quickhull certifies an interior: the centroid of its initial
        // simplex lies strictly below every facet, so no Chebyshev LP is
        // needed.
        d => Some(HPolytope::new(
            d,
            SimplicialHull::build(points, cloud_tolerance(points))?.halfspaces(),
        )),
    }
}

/// Volume of the convex hull of a point cloud in any (small) dimension.
///
/// Dimension 1 and 2 use closed forms; higher dimensions sum the cones from
/// an interior point over the simplicial facets of the Quickhull hull, one
/// `d×d` determinant each. An affinely degenerate cloud has volume 0; a cloud
/// with a non-finite coordinate has volume NaN.
pub fn convex_hull_volume(points: &[Vector]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    if !all_finite(points) {
        return f64::NAN;
    }
    let d = points[0].dim();
    match d {
        0 => 0.0,
        1 => {
            let lo = points.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
            let hi = points
                .iter()
                .map(|p| p[0])
                .fold(f64::NEG_INFINITY, f64::max);
            (hi - lo).max(0.0)
        }
        2 => polygon_area(&hull_2d(points)),
        _ => SimplicialHull::build(points, cloud_tolerance(points)).map_or(0.0, |h| h.volume()),
    }
}
