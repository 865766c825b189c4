//! Property-based tests for the geometric layer.

use cdb_geometry::hull::{hull_2d, polygon_area};
use cdb_geometry::{volume, HPolytope};
use cdb_linalg::Vector;
use proptest::prelude::*;

fn random_box() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (
        proptest::collection::vec(-5.0f64..5.0, 2..=4),
        proptest::collection::vec(0.1f64..4.0, 2..=4),
    )
        .prop_map(|(lo, width)| {
            let d = lo.len().min(width.len());
            let lo: Vec<f64> = lo[..d].to_vec();
            let hi: Vec<f64> = lo.iter().zip(&width[..d]).map(|(l, w)| l + w).collect();
            (lo, hi)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn box_volume_matches_closed_form((lo, hi) in random_box()) {
        let b = HPolytope::axis_box(&lo, &hi);
        let expected: f64 = lo.iter().zip(&hi).map(|(l, h)| h - l).product();
        let got = volume::polytope_volume(&b);
        prop_assert!((got - expected).abs() < 1e-5 * expected.max(1.0), "{got} vs {expected}");
    }

    #[test]
    fn chebyshev_center_is_deep_inside((lo, hi) in random_box()) {
        let b = HPolytope::axis_box(&lo, &hi);
        let (c, r) = b.chebyshev_ball().unwrap();
        prop_assert!(r > 0.0);
        prop_assert!(b.contains(&c, 1e-9));
        // Every halfspace is at distance at least r from the center.
        for h in b.halfspaces() {
            prop_assert!(h.signed_distance(&c).unwrap() >= r - 1e-6);
        }
    }

    #[test]
    fn vertices_are_contained_and_extreme((lo, hi) in random_box()) {
        let b = HPolytope::axis_box(&lo, &hi);
        let verts = b.vertices();
        prop_assert_eq!(verts.len(), 1 << lo.len());
        for v in &verts {
            prop_assert!(b.contains(v, 1e-6));
        }
    }

    #[test]
    fn union_volume_bounds((lo, hi) in random_box(), shift in 0.0f64..2.0) {
        let a = HPolytope::axis_box(&lo, &hi);
        let t: Vec<f64> = lo.iter().map(|_| shift).collect();
        let lo2: Vec<f64> = lo.iter().zip(&t).map(|(l, s)| l + s).collect();
        let hi2: Vec<f64> = hi.iter().zip(&t).map(|(h, s)| h + s).collect();
        let b = HPolytope::axis_box(&lo2, &hi2);
        let va = volume::polytope_volume(&a);
        let vb = volume::polytope_volume(&b);
        let vu = volume::union_volume(&[a.clone(), b.clone()]);
        prop_assert!(vu <= va + vb + 1e-6);
        prop_assert!(vu >= va.max(vb) - 1e-6);
        // Symmetric difference with itself is zero.
        prop_assert!(volume::symmetric_difference_volume(&[a.clone()], &[a]) < 1e-6);
    }

    #[test]
    fn hull_2d_is_convex_and_contains_points(pts in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 3..40)) {
        let points: Vec<Vector> = pts.iter().map(|&(x, y)| Vector::from(vec![x, y])).collect();
        let hull = hull_2d(&points);
        let area = polygon_area(&hull);
        prop_assert!(area >= 0.0);
        // Every point is inside or on the hull, and the hull's
        // H-representation encloses the same area: its vertices, found
        // from the halfspaces alone, span the ring again.
        if area > 1e-6 {
            let poly = cdb_geometry::hull::hull_to_hpolytope(&points).unwrap();
            for p in &points {
                prop_assert!(poly.contains(p, 1e-5));
            }
            let enclosed = volume::polytope_volume(&poly);
            prop_assert!((area - enclosed).abs() < 1e-9 * area.max(1.0), "{area} vs {enclosed}");
        }
    }

    #[test]
    fn affine_image_scales_volume((lo, hi) in random_box(), s in 0.2f64..3.0) {
        let d = lo.len();
        let b = HPolytope::axis_box(&lo, &hi);
        let map = cdb_linalg::AffineMap::scaling(d, s);
        let img = b.affine_image(&map);
        let v0 = volume::polytope_volume(&b);
        let v1 = volume::polytope_volume(&img);
        prop_assert!((v1 - v0 * map.det_abs()).abs() < 1e-4 * (v0 * map.det_abs()).max(1.0));
    }
}
