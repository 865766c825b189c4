//! Quickhull in dimension `d ≥ 3`.
//!
//! The hull is grown from an initial simplex. Each round takes a facet with
//! a non-empty outside set and its farthest outside point (the apex). It
//! deletes the facets the apex sees and cones the apex to their horizon
//! ridges. Facets stay simplicial, so every facet plane comes from `d`
//! points and every cone from an interior point is one determinant. All
//! predicates use one scale-relative tolerance: a point within `tol` of a
//! facet plane is neither outside nor able to see it. Coplanar points
//! therefore never raise a facet with a near-zero normal, and coplanar
//! simplicial facets are merged only when the H-representation is read off.

use std::collections::HashMap;

use cdb_linalg::{Matrix, Vector};

use crate::Halfspace;

/// A simplicial facet: `d` vertex indices, the outward unit normal and
/// offset of its plane, and its neighbours across its ridges.
struct HullFacet {
    vertices: Vec<usize>,
    normal: Vec<f64>,
    offset: f64,
    /// `neighbors[k]` shares every vertex of this facet but `vertices[k]`.
    neighbors: Vec<usize>,
    /// Points strictly above this facet that no other facet has claimed.
    outside: Vec<usize>,
    alive: bool,
}

/// The simplicial convex hull of a full-dimensional point cloud.
pub(super) struct SimplicialHull<'a> {
    points: &'a [Vector],
    facets: Vec<HullFacet>,
    /// A point strictly inside the hull (the centroid of the initial
    /// simplex); it orients every facet normal outward.
    interior: Vec<f64>,
    tol: f64,
}

impl<'a> SimplicialHull<'a> {
    /// Builds the hull of `points` (dimension `d ≥ 3`) with predicate
    /// tolerance `tol`. Returns `None` when the cloud is affinely degenerate
    /// (no `d + 1` points span a simplex taller than `tol`), and when
    /// round-off leaves a horizon that does not close.
    pub(super) fn build(points: &'a [Vector], tol: f64) -> Option<Self> {
        let d = points.first()?.dim();
        if d < 3 || points.len() < d + 1 {
            return None;
        }
        let simplex = initial_simplex(points, tol)?;
        let mut interior = vec![0.0; d];
        for &v in &simplex {
            for (c, x) in interior.iter_mut().zip(points[v].iter()) {
                *c += x / (d + 1) as f64;
            }
        }
        let mut hull = SimplicialHull {
            points,
            facets: Vec::new(),
            interior,
            tol,
        };
        // Facet `skip` drops simplex vertex `skip`; its neighbour across the
        // ridge without simplex vertex `i` is facet `i`.
        for skip in 0..=d {
            let vertices = (0..=d).filter(|&i| i != skip).map(|i| simplex[i]);
            let neighbors = (0..=d).filter(|&i| i != skip).collect();
            hull.push_facet(vertices.collect(), neighbors)?;
        }
        for p in 0..points.len() {
            if !simplex.contains(&p) {
                hull.assign(p, 0..=d);
            }
        }
        // New facets are appended, so one pass over the growing list
        // processes every facet that ever holds outside points.
        let mut cursor = 0;
        while cursor < hull.facets.len() {
            let facet = &hull.facets[cursor];
            if facet.alive && !facet.outside.is_empty() {
                hull.add_apex(cursor)?;
            }
            cursor += 1;
        }
        Some(hull)
    }

    /// Signed distance of point `p` above the plane of facet `f`.
    fn height(&self, f: usize, p: usize) -> f64 {
        let facet = &self.facets[f];
        dot(&facet.normal, self.points[p].as_slice()) - facet.offset
    }

    /// Hands `p` to the first facet in `candidates` it lies above; a point
    /// above none of them is inside the hull (or within `tol` of it).
    fn assign(&mut self, p: usize, candidates: impl Iterator<Item = usize>) {
        for f in candidates {
            if self.height(f, p) > self.tol {
                self.facets[f].outside.push(p);
                return;
            }
        }
    }

    fn push_facet(&mut self, vertices: Vec<usize>, neighbors: Vec<usize>) -> Option<()> {
        let (normal, offset) = facet_plane(self.points, &vertices, &self.interior)?;
        self.facets.push(HullFacet {
            vertices,
            normal,
            offset,
            neighbors,
            outside: Vec::new(),
            alive: true,
        });
        Some(())
    }

    /// One Quickhull round: cones the farthest outside point of facet
    /// `start` to the horizon of the facets it sees.
    fn add_apex(&mut self, start: usize) -> Option<()> {
        let d = self.interior.len();
        let apex = *self.facets[start]
            .outside
            .iter()
            .max_by(|&&a, &&b| self.height(start, a).total_cmp(&self.height(start, b)))?;

        // Breadth-first search over the facets the apex sees; every ridge
        // from a visible facet to an unseen one is on the horizon.
        let mut seen: HashMap<usize, bool> = HashMap::from([(start, true)]);
        let mut visible = vec![start];
        let mut horizon: Vec<(usize, usize)> = Vec::new();
        let mut next = 0;
        while next < visible.len() {
            let v = visible[next];
            next += 1;
            for k in 0..d {
                let nb = self.facets[v].neighbors[k];
                let sees = match seen.get(&nb) {
                    Some(&sees) => sees,
                    None => {
                        let sees = self.height(nb, apex) > self.tol;
                        seen.insert(nb, sees);
                        if sees {
                            visible.push(nb);
                        }
                        sees
                    }
                };
                if !sees {
                    horizon.push((v, k));
                }
            }
        }

        // Cone the apex to each horizon ridge. The ridge's old neighbour
        // sits opposite the apex; the ridges through the apex pair up among
        // the new facets.
        let first_new = self.facets.len();
        let mut open_ridges: HashMap<Vec<usize>, (usize, usize)> = HashMap::new();
        for &(v, k) in &horizon {
            let id = self.facets.len();
            let nb = self.facets[v].neighbors[k];
            let mut vertices: Vec<usize> = self.facets[v].vertices.clone();
            vertices.remove(k);
            vertices.push(apex);
            let mut neighbors = vec![usize::MAX; d];
            neighbors[d - 1] = nb;
            let slot = self.facets[nb].neighbors.iter().position(|&x| x == v)?;
            self.facets[nb].neighbors[slot] = id;
            self.push_facet(vertices, neighbors)?;
            for j in 0..d - 1 {
                let mut ridge = self.facets[id].vertices.clone();
                ridge.remove(j);
                ridge.sort_unstable();
                match open_ridges.remove(&ridge) {
                    Some((other, other_slot)) => {
                        self.facets[id].neighbors[j] = other;
                        self.facets[other].neighbors[other_slot] = id;
                    }
                    None => {
                        open_ridges.insert(ridge, (id, j));
                    }
                }
            }
        }
        if !open_ridges.is_empty() {
            return None;
        }

        let mut orphans = Vec::new();
        for &v in &visible {
            let facet = &mut self.facets[v];
            facet.alive = false;
            orphans.append(&mut facet.outside);
        }
        let new_facets = first_new..self.facets.len();
        for p in orphans {
            if p != apex {
                self.assign(p, new_facets.clone());
            }
        }
        Some(())
    }

    /// Volume of the hull: the cones from the interior point over the
    /// simplicial facets, `|det(v_1 − c, …, v_d − c)| / d!` each.
    pub(super) fn volume(&self) -> f64 {
        let d = self.interior.len();
        let mut total = 0.0;
        for facet in self.facets.iter().filter(|f| f.alive) {
            let cone: Vec<f64> = facet
                .vertices
                .iter()
                .flat_map(|&v| {
                    self.points[v]
                        .iter()
                        .zip(&self.interior)
                        .map(|(p, c)| p - c)
                })
                .collect();
            total += Matrix::from_flat(d, d, cone).determinant().abs();
        }
        total / (1..=d).map(|k| k as f64).product::<f64>()
    }

    /// One halfspace per facet of the hull: coplanar simplicial facets (all
    /// of whose vertices lie within `tol` of the first one's plane) are
    /// merged into the first one's halfspace.
    pub(super) fn halfspaces(&self) -> Vec<Halfspace> {
        let mut merged = vec![false; self.facets.len()];
        let mut halfspaces = Vec::new();
        for (seed, facet) in self.facets.iter().enumerate() {
            if !facet.alive || merged[seed] {
                continue;
            }
            merged[seed] = true;
            let mut stack = vec![seed];
            while let Some(f) = stack.pop() {
                for &nb in &self.facets[f].neighbors {
                    let coplanar = self.facets[nb]
                        .vertices
                        .iter()
                        .all(|&v| self.height(seed, v).abs() <= self.tol);
                    if !merged[nb] && coplanar {
                        merged[nb] = true;
                        stack.push(nb);
                    }
                }
            }
            halfspaces.push(Halfspace::new(
                Vector::from(facet.normal.as_slice()),
                facet.offset,
            ));
        }
        halfspaces
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `d + 1` affinely independent points spanning a large simplex: the two
/// extremes along the widest axis, then repeatedly the point farthest from
/// the affine hull of those chosen so far. `None` when that distance is
/// within `tol` (the cloud is affinely degenerate).
fn initial_simplex(points: &[Vector], tol: f64) -> Option<Vec<usize>> {
    let d = points[0].dim();
    let mut widest = (0.0, 0, 0);
    for axis in 0..d {
        let (mut lo, mut hi) = (0, 0);
        for (i, p) in points.iter().enumerate() {
            if p[axis] < points[lo][axis] {
                lo = i;
            }
            if p[axis] > points[hi][axis] {
                hi = i;
            }
        }
        let extent = points[hi][axis] - points[lo][axis];
        if extent > widest.0 {
            widest = (extent, lo, hi);
        }
    }
    let (extent, lo, hi) = widest;
    if extent <= tol {
        return None;
    }
    let origin = &points[lo];
    let mut simplex = vec![lo, hi];
    // Orthonormal basis of the chosen points' affine hull (Gram–Schmidt).
    let mut basis: Vec<Vector> = vec![(&points[hi] - origin).normalized()?];
    while simplex.len() < d + 1 {
        let mut farthest: Option<(f64, usize, Vector)> = None;
        for (i, p) in points.iter().enumerate() {
            let mut residual = p - origin;
            for b in &basis {
                let along = b.dot(&residual);
                residual.axpy(-along, b);
            }
            let norm = residual.norm();
            if farthest.as_ref().is_none_or(|(best, _, _)| norm > *best) {
                farthest = Some((norm, i, residual));
            }
        }
        let (norm, i, residual) = farthest?;
        if norm <= tol {
            return None;
        }
        simplex.push(i);
        basis.push(residual.scale(1.0 / norm));
    }
    Some(simplex)
}

/// The plane through the `d` points `vertices` as an outward unit normal
/// and offset, oriented so that `interior` lies strictly below it. The
/// normal spans the null space of the edge matrix `[v_k − v_0]`, found by
/// Gaussian elimination with full pivoting.
fn facet_plane(points: &[Vector], vertices: &[usize], interior: &[f64]) -> Option<(Vec<f64>, f64)> {
    let d = interior.len();
    let base = points[vertices[0]].as_slice();
    let mut rows: Vec<Vec<f64>> = vertices[1..]
        .iter()
        .map(|&v| points[v].iter().zip(base).map(|(x, b)| x - b).collect())
        .collect();
    let mut cols: Vec<usize> = (0..d).collect();
    for r in 0..d - 1 {
        let mut pivot = (0.0, r, r);
        for (i, row) in rows.iter().enumerate().skip(r) {
            for (j, &c) in cols.iter().enumerate().skip(r) {
                if row[c].abs() > pivot.0 {
                    pivot = (row[c].abs(), i, j);
                }
            }
        }
        if pivot.0 == 0.0 {
            return None;
        }
        rows.swap(r, pivot.1);
        cols.swap(r, pivot.2);
        let c = cols[r];
        for i in r + 1..d - 1 {
            let factor = rows[i][c] / rows[r][c];
            if factor != 0.0 {
                for &k in &cols[r..] {
                    rows[i][k] -= factor * rows[r][k];
                }
            }
        }
    }
    // The last column left unpivoted is free: set it to 1 and solve back.
    let mut normal = vec![0.0; d];
    normal[cols[d - 1]] = 1.0;
    for r in (0..d - 1).rev() {
        let tail: f64 = cols[r + 1..].iter().map(|&k| rows[r][k] * normal[k]).sum();
        normal[cols[r]] = -tail / rows[r][cols[r]];
    }
    let norm = dot(&normal, &normal).sqrt();
    if !norm.is_finite() || norm == 0.0 {
        return None;
    }
    normal.iter_mut().for_each(|x| *x /= norm);
    let mut offset = dot(&normal, base);
    if dot(&normal, interior) > offset {
        normal.iter_mut().for_each(|x| *x = -*x);
        offset = -offset;
    }
    Some((normal, offset))
}
