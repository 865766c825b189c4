//! Deterministic volume computation.
//!
//! This is the fixed-dimension baseline of Section 3 of the paper (Lemma 3.1
//! uses the Bieri–Nef sweep plane; we substitute an equivalent
//! exponential-in-`d`, polynomial-for-fixed-`d` pipeline: vertex enumeration,
//! cone decomposition from the Chebyshev center, and inclusion–exclusion over
//! the pieces of a union). It doubles as the ground truth against which the
//! randomized estimators of Section 4 are validated.

use cdb_linalg::Vector;

use crate::hull::convex_hull_volume;
use crate::HPolytope;

/// Maximum number of convex pieces accepted by the inclusion–exclusion
/// routines (the term count is `2^k − 1`).
pub const MAX_UNION_PIECES: usize = 20;

/// Volume of a bounded convex H-polytope.
///
/// The polytope's vertices are enumerated and their convex hull's volume is
/// summed as cones from an interior point (see
/// [`convex_hull_volume`]). Lower-dimensional or empty
/// polytopes have volume 0. Exponential in the dimension (this is the
/// baseline the paper wants to escape from); keep `dim` small.
pub fn polytope_volume(p: &HPolytope) -> f64 {
    let verts = p.vertices();
    if verts.len() < p.dim() + 1 {
        return 0.0;
    }
    convex_hull_volume(&verts)
}

/// Volume of the intersection of two polytopes.
pub fn intersection_volume(a: &HPolytope, b: &HPolytope) -> f64 {
    polytope_volume(&a.intersect(b))
}

/// Volume of a union of convex polytopes by inclusion–exclusion:
/// `vol(∪ S_i) = Σ_{∅≠J} (−1)^{|J|+1} vol(∩_{j∈J} S_j)`.
///
/// Panics if more than [`MAX_UNION_PIECES`] pieces are supplied.
pub fn union_volume(pieces: &[HPolytope]) -> f64 {
    assert!(
        pieces.len() <= MAX_UNION_PIECES,
        "inclusion-exclusion limited to {MAX_UNION_PIECES} pieces"
    );
    if pieces.is_empty() {
        return 0.0;
    }
    let k = pieces.len();
    let mut total = 0.0;
    for mask in 1u32..(1 << k) {
        let mut inter: Option<HPolytope> = None;
        for (i, piece) in pieces.iter().enumerate() {
            if mask >> i & 1 == 1 {
                inter = Some(match inter {
                    None => piece.clone(),
                    Some(acc) => acc.intersect(piece),
                });
            }
        }
        let inter = inter.expect("mask is non-zero");
        if inter.is_empty() {
            continue;
        }
        let v = polytope_volume(&inter);
        if mask.count_ones() % 2 == 1 {
            total += v;
        } else {
            total -= v;
        }
    }
    total.max(0.0)
}

/// Volume of the intersection of two unions of convex pieces,
/// `vol((∪ A_i) ∩ (∪ B_j))`, computed as the union of all pairwise
/// intersections.
pub fn union_intersection_volume(a_pieces: &[HPolytope], b_pieces: &[HPolytope]) -> f64 {
    let mut cross: Vec<HPolytope> = Vec::new();
    for a in a_pieces {
        for b in b_pieces {
            let inter = a.intersect(b);
            if !inter.is_empty() {
                cross.push(inter);
            }
        }
    }
    if cross.is_empty() {
        return 0.0;
    }
    union_volume(&cross)
}

/// Volume of the symmetric difference between two unions of convex pieces:
/// `vol(A Δ B) = vol(A) + vol(B) − 2 vol(A ∩ B)`.
///
/// This is the error measure of the (ε,δ)-relation estimators of
/// Definition 4.1 in the paper.
pub fn symmetric_difference_volume(a_pieces: &[HPolytope], b_pieces: &[HPolytope]) -> f64 {
    let va = union_volume(a_pieces);
    let vb = union_volume(b_pieces);
    let vab = union_intersection_volume(a_pieces, b_pieces);
    (va + vb - 2.0 * vab).max(0.0)
}

/// Exact volume of an axis-aligned box given by bounds.
pub fn box_volume(lo: &Vector, hi: &Vector) -> f64 {
    assert_eq!(lo.dim(), hi.dim());
    (0..lo.dim()).map(|i| (hi[i] - lo[i]).max(0.0)).product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Halfspace;

    #[test]
    fn box_and_simplex_volumes() {
        let b = HPolytope::axis_box(&[0.0, -1.0, 2.0], &[2.0, 1.0, 5.0]);
        assert!((polytope_volume(&b) - 12.0).abs() < 1e-6);
        let s2 = HPolytope::standard_simplex(2);
        assert!((polytope_volume(&s2) - 0.5).abs() < 1e-9);
        let s3 = HPolytope::standard_simplex(3);
        assert!((polytope_volume(&s3) - 1.0 / 6.0).abs() < 1e-6);
        let s4 = HPolytope::standard_simplex(4);
        assert!((polytope_volume(&s4) - 1.0 / 24.0).abs() < 1e-6);
    }

    #[test]
    fn cross_polytope_volume() {
        // vol of the d-dimensional cross polytope of radius 1 is 2^d / d!.
        let c2 = HPolytope::cross_polytope(2, 1.0);
        assert!((polytope_volume(&c2) - 2.0).abs() < 1e-9);
        let c3 = HPolytope::cross_polytope(3, 1.0);
        assert!((polytope_volume(&c3) - 8.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn empty_and_degenerate_polytopes() {
        let mut empty = HPolytope::axis_box(&[0.0, 0.0], &[1.0, 1.0]);
        empty.push(Halfspace::lower_bound(2, 0, 2.0));
        assert_eq!(polytope_volume(&empty), 0.0);
        // A segment in the plane (degenerate box).
        let flat = HPolytope::axis_box(&[0.0, 0.5], &[1.0, 0.5]);
        assert!(polytope_volume(&flat).abs() < 1e-9);
    }

    #[test]
    fn intersection_volume_of_overlapping_boxes() {
        let a = HPolytope::axis_box(&[0.0, 0.0], &[2.0, 2.0]);
        let b = HPolytope::axis_box(&[1.0, 1.0], &[3.0, 3.0]);
        assert!((intersection_volume(&a, &b) - 1.0).abs() < 1e-6);
        let c = HPolytope::axis_box(&[5.0, 5.0], &[6.0, 6.0]);
        assert_eq!(intersection_volume(&a, &c), 0.0);
    }

    #[test]
    fn union_volume_inclusion_exclusion() {
        let a = HPolytope::axis_box(&[0.0, 0.0], &[2.0, 2.0]);
        let b = HPolytope::axis_box(&[1.0, 1.0], &[3.0, 3.0]);
        // 4 + 4 - 1 = 7.
        assert!((union_volume(&[a.clone(), b.clone()]) - 7.0).abs() < 1e-6);
        // Adding a disjoint piece adds its volume.
        let c = HPolytope::axis_box(&[10.0, 10.0], &[11.0, 12.0]);
        assert!((union_volume(&[a.clone(), b.clone(), c]) - 9.0).abs() < 1e-6);
        // Identical pieces do not double count.
        assert!((union_volume(&[a.clone(), a.clone()]) - 4.0).abs() < 1e-6);
        assert_eq!(union_volume(&[]), 0.0);
    }

    #[test]
    fn symmetric_difference_measures() {
        let a = HPolytope::axis_box(&[0.0, 0.0], &[2.0, 1.0]);
        let b = HPolytope::axis_box(&[1.0, 0.0], &[3.0, 1.0]);
        // A Δ B = [0,1]x[0,1] ∪ [2,3]x[0,1] -> volume 2.
        assert!((symmetric_difference_volume(&[a.clone()], &[b.clone()]) - 2.0).abs() < 1e-6);
        // Identical sets have symmetric difference 0.
        assert!(symmetric_difference_volume(&[a.clone()], &[a.clone()]).abs() < 1e-6);
        // Disjoint sets: sum of the volumes.
        let far = HPolytope::axis_box(&[10.0, 0.0], &[11.0, 1.0]);
        assert!((symmetric_difference_volume(&[a], &[far]) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn union_intersection_of_unions() {
        // A = [0,2]^2, B = two strips covering x in [1,1.5] and x in [3,4].
        let a = HPolytope::axis_box(&[0.0, 0.0], &[2.0, 2.0]);
        let b1 = HPolytope::axis_box(&[1.0, 0.0], &[1.5, 2.0]);
        let b2 = HPolytope::axis_box(&[3.0, 0.0], &[4.0, 2.0]);
        let v = union_intersection_volume(&[a], &[b1, b2]);
        assert!((v - 1.0).abs() < 1e-6);
    }

    #[test]
    fn box_volume_closed_form() {
        let lo = Vector::from(vec![0.0, -1.0]);
        let hi = Vector::from(vec![2.0, 3.0]);
        assert_eq!(box_volume(&lo, &hi), 8.0);
        let inverted = Vector::from(vec![5.0, 0.0]);
        assert_eq!(box_volume(&inverted, &hi), 0.0);
    }

    #[test]
    fn rotated_simplex_volume_is_preserved() {
        // The triangle with vertices (0,0), (1,1), (-1,1) has area 1.
        let tri = HPolytope::new(
            2,
            vec![
                Halfspace::from_slice(&[1.0, -1.0], 0.0),  // x <= y
                Halfspace::from_slice(&[-1.0, -1.0], 0.0), // -x <= y
                Halfspace::upper_bound(2, 1, 1.0),         // y <= 1
            ],
        );
        assert!((polytope_volume(&tri) - 1.0).abs() < 1e-9);
    }
}
