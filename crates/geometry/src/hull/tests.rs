//! Unit tests, the brute-force oracle, and the oracle property suite for
//! the monotone chain and Quickhull.

use cdb_linalg::{Matrix, Vector};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::Rng;

use super::*;

// ---------------------------------------------------------------------------
// The oracle: supporting-hyperplane enumeration over every d-subset of the
// points, O(n^(d+1)). It was the production hull before Quickhull and is kept
// only to check the output-sensitive hulls against.
// ---------------------------------------------------------------------------

/// A supporting hyperplane of a point cloud together with the indices of the
/// points lying on it.
#[derive(Clone, Debug)]
struct Facet {
    /// Outward unit normal.
    normal: Vector,
    /// Offset: points satisfy `normal·p ≤ offset`, facet points attain equality.
    offset: f64,
    /// Indices of the points on the facet.
    on_facet: Vec<usize>,
}

/// Generalized cross product: the vector orthogonal to the `d−1` rows of `m`
/// (each of length `d`), computed by cofactor expansion.
fn generalized_cross(rows: &[Vector]) -> Vector {
    let d = rows[0].dim();
    assert_eq!(
        rows.len(),
        d - 1,
        "need d-1 rows for a generalized cross product"
    );
    let mut normal = Vector::zeros(d);
    for j in 0..d {
        // Minor: remove column j.
        let minor_rows: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| (0..d).filter(|&k| k != j).map(|k| r[k]).collect())
            .collect();
        let det = if d == 1 {
            1.0
        } else {
            Matrix::from_rows(&minor_rows).determinant()
        };
        normal[j] = if j % 2 == 0 { det } else { -det };
    }
    normal
}

/// Enumerates the supporting hyperplanes (facets) of the convex hull of a
/// point cloud in dimension `d ≥ 2` by testing every `d`-subset of points.
fn facets_of_points(points: &[Vector]) -> Vec<Facet> {
    if points.is_empty() {
        return Vec::new();
    }
    let d = points[0].dim();
    let n = points.len();
    if n < d {
        return Vec::new();
    }
    let scale = points.iter().map(|p| p.norm_inf()).fold(1.0f64, f64::max);
    let tol = HULL_EPS * scale;

    let mut facets: Vec<Facet> = Vec::new();
    let mut seen_keys: Vec<(Vec<i64>, i64)> = Vec::new();
    let mut combo: Vec<usize> = (0..d).collect();
    loop {
        let base = &points[combo[0]];
        let rows: Vec<Vector> = combo[1..].iter().map(|&i| &points[i] - base).collect();
        let mut normal = generalized_cross(&rows);
        let norm = normal.norm();
        if norm > tol {
            normal = normal.scale(1.0 / norm);
            let mut offset = normal.dot(base);
            // Determine on which side the remaining points fall.
            let mut max_slack = f64::NEG_INFINITY;
            let mut min_slack = f64::INFINITY;
            for p in points {
                let s = normal.dot(p) - offset;
                max_slack = max_slack.max(s);
                min_slack = min_slack.min(s);
            }
            let is_facet = if max_slack <= tol {
                true
            } else if min_slack >= -tol {
                normal = -&normal;
                offset = -offset;
                true
            } else {
                false
            };
            if is_facet {
                let key: (Vec<i64>, i64) = (
                    normal.iter().map(|v| (v * 1e6).round() as i64).collect(),
                    (offset / scale.max(1.0) * 1e6).round() as i64,
                );
                if !seen_keys.contains(&key) {
                    seen_keys.push(key);
                    let on_facet: Vec<usize> = points
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| (normal.dot(p) - offset).abs() <= tol)
                        .map(|(i, _)| i)
                        .collect();
                    facets.push(Facet {
                        normal,
                        offset,
                        on_facet,
                    });
                }
            }
        }
        // Next d-combination.
        let mut i = d;
        loop {
            if i == 0 {
                return facets;
            }
            i -= 1;
            if combo[i] != i + n - d {
                combo[i] += 1;
                for j in (i + 1)..d {
                    combo[j] = combo[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// The oracle's H-representation, with the same rejects as
/// [`hull_to_hpolytope`]: fewer than `d + 1` facets, or no interior.
fn oracle_halfspaces(points: &[Vector]) -> Option<Vec<Halfspace>> {
    let d = points[0].dim();
    let facets = facets_of_points(points);
    if facets.len() < d + 1 {
        return None;
    }
    let halfspaces: Vec<Halfspace> = facets
        .into_iter()
        .map(|f| Halfspace::new(f.normal, f.offset))
        .collect();
    let poly = HPolytope::new(d, halfspaces.clone());
    if poly.chebyshev_ball().map(|(_, r)| r).unwrap_or(0.0) <= 0.0 {
        return None;
    }
    Some(halfspaces)
}

/// An orthonormal basis of the hyperplane orthogonal to the unit `normal`,
/// produced by Gram–Schmidt over the standard basis.
fn hyperplane_basis(normal: &Vector) -> Vec<Vector> {
    let d = normal.dim();
    let mut basis: Vec<Vector> = Vec::with_capacity(d - 1);
    for i in 0..d {
        let mut candidate = Vector::basis(d, i);
        candidate -= &normal.scale(normal.dot(&candidate));
        for b in &basis {
            candidate -= &b.scale(b.dot(&candidate));
        }
        if candidate.norm() > 1e-9 {
            basis.push(candidate.normalized().expect("norm checked above"));
            if basis.len() == d - 1 {
                break;
            }
        }
    }
    basis
}

/// The oracle's hull volume: cones from the centroid over the enumerated
/// facets, each facet's `(d−1)`-volume measured recursively in an
/// orthonormal basis of its hyperplane, down to intervals in dimension 1.
fn oracle_volume(points: &[Vector]) -> f64 {
    let d = points[0].dim();
    if d == 1 {
        let lo = points.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
        let hi = points
            .iter()
            .map(|p| p[0])
            .fold(f64::NEG_INFINITY, f64::max);
        return (hi - lo).max(0.0);
    }
    if points.len() < d + 1 {
        return 0.0;
    }
    let centroid = Matrix::mean(points).expect("non-empty cloud");
    let mut volume = 0.0;
    for f in facets_of_points(points) {
        if f.on_facet.len() < d {
            continue;
        }
        let base = &points[f.on_facet[0]];
        let basis = hyperplane_basis(&f.normal);
        let projected: Vec<Vector> = f
            .on_facet
            .iter()
            .map(|&i| {
                let rel = &points[i] - base;
                Vector::from(basis.iter().map(|b| b.dot(&rel)).collect::<Vec<_>>())
            })
            .collect();
        let height = (f.normal.dot(&centroid) - f.offset).abs();
        volume += oracle_volume(&projected) * height / d as f64;
    }
    volume
}

// ---------------------------------------------------------------------------
// Unit tests.
// ---------------------------------------------------------------------------

fn v2(x: f64, y: f64) -> Vector {
    Vector::from(vec![x, y])
}

fn cube_corners(d: usize) -> Vec<Vector> {
    (0..1u32 << d)
        .map(|mask| Vector::from((0..d).map(|k| (mask >> k & 1) as f64).collect::<Vec<_>>()))
        .collect()
}

#[test]
fn hull_2d_square_with_interior_points() {
    let pts = vec![
        v2(0.0, 0.0),
        v2(1.0, 0.0),
        v2(1.0, 1.0),
        v2(0.0, 1.0),
        v2(0.5, 0.5),
        v2(0.25, 0.75),
    ];
    let hull = hull_2d(&pts);
    assert_eq!(hull.len(), 4);
    assert!((polygon_area(&hull) - 1.0).abs() < 1e-12);
}

#[test]
fn hull_2d_collinear_points() {
    let pts = vec![v2(0.0, 0.0), v2(1.0, 1.0), v2(2.0, 2.0)];
    let hull = hull_2d(&pts);
    assert!(hull.len() <= 2);
    assert_eq!(polygon_area(&hull), 0.0);
}

#[test]
fn hull_2d_merges_near_duplicates_that_are_not_sort_neighbours() {
    // (0, 0) and (2e-9, 0) sort apart (the tall point lies between them),
    // so only the ring pass can merge them: no edge may be shorter than the
    // tolerance.
    let pts = vec![v2(0.0, 0.0), v2(1e-9, 5.0), v2(2e-9, 0.0), v2(3.0, 1.0)];
    let hull = hull_2d(&pts);
    assert_eq!(hull.len(), 3);
    for (a, b) in hull.iter().zip(hull.iter().cycle().skip(1)) {
        assert!(a.distance(b) > HULL_EPS * 5.0);
    }
    let poly = hull_to_hpolytope(&pts).unwrap();
    assert!(poly.halfspaces().iter().all(|h| h.normal().is_finite()));
}

#[test]
fn non_finite_clouds_are_rejected_without_panicking() {
    let mut pts = vec![v2(0.0, 0.0), v2(1.0, 0.0), v2(0.0, 1.0), v2(f64::NAN, 0.5)];
    let _ = hull_2d(&pts);
    assert!(hull_to_hpolytope(&pts).is_none());
    assert!(convex_hull_volume(&pts).is_nan());
    pts[3] = v2(f64::INFINITY, 0.5);
    let _ = hull_2d(&pts);
    assert!(hull_to_hpolytope(&pts).is_none());
    let mut cube = cube_corners(3);
    cube[5][2] = f64::NAN;
    assert!(hull_to_hpolytope(&cube).is_none());
    assert!(convex_hull_volume(&cube).is_nan());
}

#[test]
fn polygon_area_triangle() {
    let tri = vec![v2(0.0, 0.0), v2(2.0, 0.0), v2(0.0, 2.0)];
    assert!((polygon_area(&tri) - 2.0).abs() < 1e-12);
}

#[test]
fn facets_of_square() {
    let pts = vec![
        v2(0.0, 0.0),
        v2(1.0, 0.0),
        v2(1.0, 1.0),
        v2(0.0, 1.0),
        v2(0.4, 0.6),
    ];
    let facets = facets_of_points(&pts);
    assert_eq!(facets.len(), 4);
    for f in &facets {
        assert_eq!(f.on_facet.len(), 2);
    }
}

#[test]
fn facets_of_tetrahedron() {
    let pts = vec![
        Vector::from(vec![0.0, 0.0, 0.0]),
        Vector::from(vec![1.0, 0.0, 0.0]),
        Vector::from(vec![0.0, 1.0, 0.0]),
        Vector::from(vec![0.0, 0.0, 1.0]),
    ];
    let facets = facets_of_points(&pts);
    assert_eq!(facets.len(), 4);
}

#[test]
fn hull_volume_matches_known_bodies() {
    let square = vec![v2(0.0, 0.0), v2(1.0, 0.0), v2(1.0, 1.0), v2(0.0, 1.0)];
    assert!((convex_hull_volume(&square) - 1.0).abs() < 1e-9);
    assert!((convex_hull_volume(&cube_corners(3)) - 1.0).abs() < 1e-9);
    assert!((convex_hull_volume(&cube_corners(4)) - 1.0).abs() < 1e-9);
    assert!((convex_hull_volume(&cube_corners(5)) - 1.0).abs() < 1e-9);
    let simplex = vec![
        Vector::from(vec![0.0, 0.0, 0.0]),
        Vector::from(vec![1.0, 0.0, 0.0]),
        Vector::from(vec![0.0, 1.0, 0.0]),
        Vector::from(vec![0.0, 0.0, 1.0]),
    ];
    assert!((convex_hull_volume(&simplex) - 1.0 / 6.0).abs() < 1e-12);
}

#[test]
fn cube_facets_merge_into_one_halfspace_per_face() {
    for d in 3..=5 {
        let poly = hull_to_hpolytope(&cube_corners(d)).unwrap();
        assert_eq!(poly.halfspaces().len(), 2 * d, "dimension {d}");
    }
}

#[test]
fn lattice_and_box_face_clouds_keep_one_halfspace_per_face() {
    let mut rng = proptest::test_runner::rng_for(3);
    for d in 3..=4 {
        // Every point of a lattice lies on many coplanar and collinear
        // subsets; the hull is the lattice's bounding box.
        let side = 5usize;
        let lattice: Vec<Vector> = (0..side.pow(d as u32))
            .map(|index| {
                let coords = (0..d).map(|k| (index / side.pow(k as u32) % side) as f64 * 0.25);
                Vector::from(coords.collect::<Vec<_>>())
            })
            .collect();
        // Points on the faces of [0, 2]^d, plus its corners.
        let mut faces: Vec<Vector> = (0..400)
            .map(|_| {
                let mut p: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..2.0)).collect();
                p[rng.gen_range(0..d)] = if rng.gen_range(0..2u32) == 0 {
                    0.0
                } else {
                    2.0
                };
                Vector::from(p)
            })
            .collect();
        faces.extend(cube_corners(d).iter().map(|c| c.scale(2.0)));
        for (cloud, edge) in [(lattice, 1.0f64), (faces, 2.0)] {
            let poly = hull_to_hpolytope(&cloud).unwrap();
            assert_eq!(poly.halfspaces().len(), 2 * d, "dimension {d}");
            let want = edge.powi(d as i32);
            assert!((convex_hull_volume(&cloud) - want).abs() < 1e-12 * want);
        }
    }
}

#[test]
fn degenerate_cloud_has_zero_volume() {
    // Four coplanar points in 3D.
    let flat = vec![
        Vector::from(vec![0.0, 0.0, 0.5]),
        Vector::from(vec![1.0, 0.0, 0.5]),
        Vector::from(vec![0.0, 1.0, 0.5]),
        Vector::from(vec![1.0, 1.0, 0.5]),
    ];
    assert!(convex_hull_volume(&flat).abs() < 1e-9);
    assert!(hull_to_hpolytope(&flat).is_none());
}

#[test]
fn hull_to_hpolytope_roundtrip() {
    let pts = vec![
        v2(0.0, 0.0),
        v2(2.0, 0.0),
        v2(2.0, 1.0),
        v2(0.0, 1.0),
        v2(1.0, 0.5),
    ];
    let poly = hull_to_hpolytope(&pts).unwrap();
    assert!(poly.contains_slice(&[1.0, 0.5], 1e-9));
    assert!(poly.contains_slice(&[1.9, 0.9], 1e-6));
    assert!(!poly.contains_slice(&[2.1, 0.5], 1e-6));
    assert!(!poly.contains_slice(&[1.0, -0.1], 1e-6));
}

#[test]
fn hull_to_hpolytope_1d() {
    let pts = vec![
        Vector::from(vec![3.0]),
        Vector::from(vec![-1.0]),
        Vector::from(vec![2.0]),
    ];
    let poly = hull_to_hpolytope(&pts).unwrap();
    assert!(poly.contains_slice(&[0.0], 0.0));
    assert!(!poly.contains_slice(&[3.5], 1e-9));
}

/// `n` uniform points of the unit cube `[0, 1]^d` from a fixed seed.
fn uniform_cloud(d: usize, n: usize, seed: u64) -> Vec<Vector> {
    let mut rng = proptest::test_runner::rng_for(seed);
    (0..n)
        .map(|_| Vector::from((0..d).map(|_| rng.gen_range(0.0..1.0)).collect::<Vec<_>>()))
        .collect()
}

// Scaling guards: subset enumeration took 23.8 s on the first cloud, and the
// second (about 1.3·10⁹ triples against 2,000 points) never finished. They
// carry no clock assertion; a return to superlinear work shows as a hang.
#[test]
fn two_thousand_point_square_cloud_is_hulled() {
    let mut cloud = uniform_cloud(2, 2_000, 1);
    cloud.extend(cube_corners(2));
    let poly = hull_to_hpolytope(&cloud).unwrap();
    assert_eq!(poly.halfspaces().len(), 4);
    assert!((convex_hull_volume(&cloud) - 1.0).abs() < 1e-12);
}

#[test]
fn two_thousand_point_cube_cloud_is_hulled() {
    let cloud = uniform_cloud(3, 2_000, 2);
    let poly = hull_to_hpolytope(&cloud).unwrap();
    assert!(poly.halfspaces().len() > 4);
    for p in &cloud {
        assert!(poly.contains(p, 1e-6));
    }
    let volume = convex_hull_volume(&cloud);
    assert!(volume > 0.9 && volume < 1.0, "volume {volume}");
}

// ---------------------------------------------------------------------------
// The oracle suite: both hulls against subset enumeration on small clouds of
// every shape the engine meets.
// ---------------------------------------------------------------------------

/// The shapes of cloud the suite draws.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Uniform points of a box.
    Random,
    /// Uniform points, some of them repeated exactly.
    Duplicates,
    /// Points on one line: affinely degenerate for every `d ≥ 2`.
    Collinear,
    /// Points on one hyperplane: affinely degenerate.
    Coplanar,
    /// A box's corners plus points in its interior and on its faces.
    BoxCorners,
    /// Points on a sphere: every point is a hull vertex.
    Cospherical,
    /// γ-grid cell centres plus a half-cell jitter, clamped into a box that
    /// cuts the grid, as the stratified projection sampler emits them: many
    /// points land exactly on the box's faces, edges and corners.
    Clamped,
}

const SHAPES: [Shape; 7] = [
    Shape::Random,
    Shape::Duplicates,
    Shape::Collinear,
    Shape::Coplanar,
    Shape::BoxCorners,
    Shape::Cospherical,
    Shape::Clamped,
];

/// A strategy for `(shape, cloud)` pairs in dimension `d` with at most
/// `max_points` points.
struct Clouds {
    d: usize,
    max_points: usize,
}

impl Strategy for Clouds {
    type Value = (Shape, Vec<Vector>);

    fn generate(&self, rng: &mut TestRng) -> (Shape, Vec<Vector>) {
        let d = self.d;
        let shape = SHAPES[rng.gen_range(0..SHAPES.len())];
        let n = rng.gen_range(d + 1..=self.max_points);
        let scale = [0.1, 1.0, 10.0][rng.gen_range(0..3usize)];
        let center: Vec<f64> = (0..d).map(|_| rng.gen_range(-2.0..2.0) * scale).collect();
        let uniform =
            |rng: &mut TestRng| -> Vec<f64> { (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        let mut raw: Vec<Vec<f64>> = match shape {
            Shape::Random => (0..n).map(|_| uniform(rng)).collect(),
            Shape::Duplicates => {
                let distinct: Vec<Vec<f64>> = (0..n.div_ceil(2)).map(|_| uniform(rng)).collect();
                (0..n)
                    .map(|_| distinct[rng.gen_range(0..distinct.len())].clone())
                    .collect()
            }
            Shape::Collinear => {
                let dir = uniform(rng);
                (0..n)
                    .map(|_| {
                        let t: f64 = rng.gen_range(-1.0..1.0);
                        dir.iter().map(|x| x * t).collect()
                    })
                    .collect()
            }
            Shape::Coplanar => {
                let spans: Vec<Vec<f64>> = (0..d - 1).map(|_| uniform(rng)).collect();
                (0..n)
                    .map(|_| {
                        let mut p = vec![0.0; d];
                        for s in &spans {
                            let t: f64 = rng.gen_range(-1.0..1.0);
                            p.iter_mut().zip(s).for_each(|(x, y)| *x += t * y);
                        }
                        p
                    })
                    .collect()
            }
            Shape::BoxCorners => {
                let half: Vec<f64> = (0..d).map(|_| rng.gen_range(0.2..1.0)).collect();
                let mut pts: Vec<Vec<f64>> = (0..1u32 << d)
                    .map(|mask| {
                        (0..d)
                            .map(|k| {
                                if mask >> k & 1 == 1 {
                                    half[k]
                                } else {
                                    -half[k]
                                }
                            })
                            .collect()
                    })
                    .collect();
                for _ in 0..n.min(8) {
                    let mut p: Vec<f64> = half.iter().map(|h| rng.gen_range(-h..*h)).collect();
                    if rng.gen_range(0..2u32) == 0 {
                        let axis = rng.gen_range(0..d);
                        p[axis] = if rng.gen_range(0..2u32) == 0 {
                            half[axis]
                        } else {
                            -half[axis]
                        };
                    }
                    pts.push(p);
                }
                pts
            }
            Shape::Cospherical => (0..n)
                .map(|_| loop {
                    let p = uniform(rng);
                    let norm = p.iter().map(|x| x * x).sum::<f64>().sqrt();
                    if norm > 0.2 && norm <= 1.0 {
                        break p.iter().map(|x| x / norm).collect();
                    }
                })
                .collect(),
            Shape::Clamped => {
                let step: f64 = 0.4;
                let lo: Vec<f64> = (0..d).map(|_| rng.gen_range(-0.9..-0.5)).collect();
                let hi: Vec<f64> = (0..d).map(|_| rng.gen_range(0.5..0.9)).collect();
                (0..n)
                    .map(|_| {
                        (0..d)
                            .map(|k| {
                                let cell = f64::from(rng.gen_range(-3i32..=2));
                                let jitter: f64 = rng.gen_range(-0.5..0.5);
                                (step * (cell + 0.5 + jitter)).clamp(lo[k], hi[k])
                            })
                            .collect()
                    })
                    .collect()
            }
        };
        for p in &mut raw {
            for (x, c) in p.iter_mut().zip(&center) {
                *x = *x * scale + c;
            }
        }
        (shape, raw.into_iter().map(Vector::from).collect())
    }
}

/// The halfspaces of `a` with no halfspace in `b` of the same unit normal
/// (within `1e-6`) and offset (within `tol`).
fn unmatched<'a>(a: &'a [Halfspace], b: &[Halfspace], tol: f64) -> Vec<&'a Halfspace> {
    a.iter()
        .filter(|h| {
            !b.iter().any(|g| {
                (h.offset() - g.offset()).abs() <= tol
                    && h.normal()
                        .iter()
                        .zip(g.normal().iter())
                        .all(|(x, y)| (x - y).abs() <= 1e-6)
            })
        })
        .collect()
}

/// Whether some point lies just off a supporting plane of the oracle:
/// farther than the tolerance but within `1000·tol`. On such a cloud which
/// of several nearly equal planes counts as a facet depends on round-off
/// (a vertex a hair outside a face, two hull vertices a hair apart, a facet
/// whose spanning subset is a hair from degenerate), so the two hulls may
/// legitimately pick different ones.
fn is_ill_conditioned(points: &[Vector], tol: f64) -> bool {
    facets_of_points(points).iter().any(|f| {
        points.iter().any(|p| {
            let gap = (f.normal.dot(p) - f.offset).abs();
            gap > tol && gap <= 1000.0 * tol
        })
    })
}

/// Checks one cloud against the oracle: the same rejects, and a hull whose
/// facets each touch `d` points and hold every point. Unless the cloud is
/// ill-conditioned (where the oracle's own facets and its recursive volume
/// depend on round-off), also the same facet hyperplanes and volume.
fn agrees_with_oracle(shape: Shape, points: &[Vector]) -> Result<(), String> {
    let d = points[0].dim();
    let scale = points.iter().map(|p| p.norm_inf()).fold(1.0f64, f64::max);
    let tol = HULL_EPS * scale;
    let expected = oracle_halfspaces(points);
    let got = hull_to_hpolytope(points).map(|p| p.halfspaces().to_vec());
    let well_conditioned = !is_ill_conditioned(points, tol);
    match (&expected, &got) {
        (None, None) => {}
        (Some(e), Some(g)) => {
            for h in g {
                let gaps: Vec<f64> = points
                    .iter()
                    .map(|p| h.normal().dot(p) - h.offset())
                    .collect();
                prop_assert!(
                    gaps.iter().all(|&gap| gap <= 2.0 * tol),
                    "{shape:?}: a point lies outside {h:?}, cloud {points:?}"
                );
                prop_assert!(
                    gaps.iter().filter(|gap| gap.abs() <= tol).count() >= d,
                    "{shape:?}: {h:?} touches fewer than {d} points, cloud {points:?}"
                );
            }
            if well_conditioned {
                let (extra, missing) = (unmatched(g, e, 10.0 * tol), unmatched(e, g, 10.0 * tol));
                prop_assert!(
                    extra.is_empty() && missing.is_empty(),
                    "{shape:?}: halfspaces differ: extra {extra:?}, missing {missing:?}, cloud {points:?}"
                );
            }
        }
        _ => {
            return Err(format!(
                "{shape:?}: oracle degenerate = {}, hull degenerate = {}, cloud {points:?}",
                expected.is_none(),
                got.is_none()
            ))
        }
    }
    if well_conditioned {
        let want = oracle_volume(points);
        let have = convex_hull_volume(points);
        prop_assert!(
            (want - have).abs() <= 1e-9 * want.max(1.0),
            "{shape:?}: volume {have} vs oracle {want}, cloud {points:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn monotone_chain_agrees_with_the_oracle((shape, points) in Clouds { d: 2, max_points: 40 }) {
        agrees_with_oracle(shape, &points)?;
    }

    #[test]
    fn quickhull_3d_agrees_with_the_oracle((shape, points) in Clouds { d: 3, max_points: 30 }) {
        agrees_with_oracle(shape, &points)?;
    }

    #[test]
    fn quickhull_4d_agrees_with_the_oracle((shape, points) in Clouds { d: 4, max_points: 18 }) {
        agrees_with_oracle(shape, &points)?;
    }
}
