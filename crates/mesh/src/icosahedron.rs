//! Recursive icosahedral subdivision of the sphere.
//!
//! The subdivided icosahedron provides both the generator points (future
//! Voronoi cell centers / mass points) and their Delaunay triangulation
//! (whose triangles become the vorticity points). Midpoint subdivision adds
//! one point per edge of the parent triangulation, so level `n` has exactly
//! `10*4^n + 2` points and `20*4^n` triangles — the classic "class I"
//! geodesic grid used by MPAS quasi-uniform meshes.

use mpas_geom::{arc_midpoint, Vec3};

/// Subdivision levels whose cell counts match the paper's Table III
/// (120-km, 60-km, 30-km and 15-km horizontal resolution).
pub const TABLE3_LEVELS: [u32; 4] = [6, 7, 8, 9];

/// Points on the unit sphere plus their Delaunay triangulation.
#[derive(Debug, Clone)]
pub struct IcosaGrid {
    /// Generator points (unit vectors); these become cell centers.
    pub points: Vec<Vec3>,
    /// Triangles as CCW-ordered point-index triples (seen from outside).
    pub triangles: Vec<[u32; 3]>,
    /// Subdivision level this grid was built at.
    pub level: u32,
}

/// The 12 vertices of a regular icosahedron, normalized to the unit sphere.
fn icosahedron_vertices() -> Vec<Vec3> {
    let phi = (1.0 + 5.0_f64.sqrt()) / 2.0;
    let raw = [
        (-1.0, phi, 0.0),
        (1.0, phi, 0.0),
        (-1.0, -phi, 0.0),
        (1.0, -phi, 0.0),
        (0.0, -1.0, phi),
        (0.0, 1.0, phi),
        (0.0, -1.0, -phi),
        (0.0, 1.0, -phi),
        (phi, 0.0, -1.0),
        (phi, 0.0, 1.0),
        (-phi, 0.0, -1.0),
        (-phi, 0.0, 1.0),
    ];
    raw.iter()
        .map(|&(x, y, z)| Vec3::new(x, y, z).normalized())
        .collect()
}

/// The 20 faces of the regular icosahedron (CCW from outside), matching the
/// vertex list above.
fn icosahedron_faces() -> Vec<[u32; 3]> {
    vec![
        [0, 11, 5],
        [0, 5, 1],
        [0, 1, 7],
        [0, 7, 10],
        [0, 10, 11],
        [1, 5, 9],
        [5, 11, 4],
        [11, 10, 2],
        [10, 7, 6],
        [7, 1, 8],
        [3, 9, 4],
        [3, 4, 2],
        [3, 2, 6],
        [3, 6, 8],
        [3, 8, 9],
        [4, 9, 5],
        [2, 4, 11],
        [6, 2, 10],
        [8, 6, 7],
        [9, 8, 1],
    ]
}

impl IcosaGrid {
    /// The base (level-0) icosahedron.
    pub fn base() -> Self {
        IcosaGrid {
            points: icosahedron_vertices(),
            triangles: icosahedron_faces(),
            level: 0,
        }
    }

    /// Subdivide the base icosahedron `level` times. Each pass splits every
    /// triangle into four, placing new points at arc midpoints.
    pub fn subdivide(level: u32) -> Self {
        let mut grid = Self::base();
        for _ in 0..level {
            grid = grid.subdivide_once();
        }
        grid
    }

    /// One midpoint-subdivision pass.
    pub fn subdivide_once(&self) -> Self {
        // The midpoint of parent edge `e` becomes point `n + e`.
        let edges = TriEdges::of(self.points.len(), &self.triangles);
        let n = self.points.len() as u32;
        let mut points = Vec::with_capacity(self.points.len() + edges.ends.len());
        points.extend_from_slice(&self.points);
        points.extend(
            edges
                .ends
                .iter()
                .map(|&[a, b]| arc_midpoint(self.points[a as usize], self.points[b as usize])),
        );
        let mut triangles = Vec::with_capacity(self.triangles.len() * 4);
        for (&[a, b, c], &[ab, bc, ca]) in self.triangles.iter().zip(&edges.of_triangle) {
            let (ab, bc, ca) = (n + ab, n + bc, n + ca);
            // Orientation of children matches the parent (CCW preserved).
            triangles.push([a, ab, ca]);
            triangles.push([b, bc, ab]);
            triangles.push([c, ca, bc]);
            triangles.push([ab, bc, ca]);
        }

        IcosaGrid {
            points,
            triangles,
            level: self.level + 1,
        }
    }

    /// Number of generator points, `10*4^level + 2`.
    pub fn n_points(&self) -> usize {
        self.points.len()
    }

    /// Number of Delaunay triangles, `20*4^level`.
    pub fn n_triangles(&self) -> usize {
        self.triangles.len()
    }

    /// Number of Delaunay edges, `30*4^level` (by Euler's formula).
    pub fn n_edges(&self) -> usize {
        self.n_points() + self.n_triangles() - 2
    }

    /// Expected point count for a given level.
    pub fn expected_points(level: u32) -> usize {
        10 * 4usize.pow(level) + 2
    }

    /// Nominal horizontal resolution in kilometers: the square root of the
    /// mean cell area on an Earth-radius sphere. Level 6 comes out near the
    /// paper's "120-km" label, level 9 near "15-km".
    pub fn nominal_resolution_km(level: u32) -> f64 {
        let area = 4.0 * std::f64::consts::PI * mpas_geom::EARTH_RADIUS.powi(2)
            / Self::expected_points(level) as f64;
        area.sqrt() / 1000.0
    }
}

/// The edges of a closed, consistently oriented triangulation, numbered in
/// discovery order: walk the triangles in order and, within triangle
/// `[a, b, c]`, its corner pairs `(a, b)`, `(b, c)`, `(c, a)`; an edge
/// takes the next id the first time a pair names it. Subdivision numbers
/// its new points and the Voronoi build numbers its edges this way.
///
/// No hashing: the corner pairs are bucketed by their first corner, and the
/// other pair of edge `(a, b)` is the pair `(b, a)` among the few that
/// leave `b`. Each edge at a point leaves it as exactly one pair, so the
/// buckets also list every point's edges.
#[derive(Debug)]
pub(crate) struct TriEdges {
    /// Per triangle, the edge of each corner pair `(a, b)`, `(b, c)`, `(c, a)`.
    pub of_triangle: Vec<[u32; 3]>,
    /// Per edge, its two ends, lower id first. That holds in construction
    /// ids only: a generated mesh renumbered before assembly keeps each
    /// pair's order, so its normal still runs from the end that was lower.
    pub ends: Vec<[u32; 2]>,
    /// Per edge, the triangle that names it first, then the other one.
    pub triangles: Vec<[u32; 2]>,
    /// CSR offsets of `leaving`: point `p` owns `start[p]..start[p + 1]`.
    pub start: Vec<u32>,
    /// Per point, in slot order, the slots `3t + k` of the corner pairs
    /// that leave it (pair `k` of triangle `t`).
    pub leaving: Vec<u32>,
}

impl TriEdges {
    /// Number the edges of `triangles` over `n_points` points. Panics
    /// unless every edge lies in exactly two triangles that traverse it in
    /// opposite directions (a closed, oriented 2-manifold).
    pub(crate) fn of(n_points: usize, triangles: &[[u32; 3]]) -> Self {
        let n_slots = 3 * triangles.len();
        let pair = |s: u32| {
            let (tri, k) = (triangles[s as usize / 3], s as usize % 3);
            (tri[k], tri[(k + 1) % 3])
        };
        // Bucket the slots by first corner: count, place with `start[p]` as
        // the cursor, then shift the offsets back into place.
        let mut start = vec![0u32; n_points + 1];
        for &a in triangles.iter().flatten() {
            start[a as usize + 1] += 1;
        }
        for p in 0..n_points {
            start[p + 1] += start[p];
        }
        let mut leaving = vec![0u32; n_slots];
        for s in 0..n_slots as u32 {
            let a = pair(s).0 as usize;
            leaving[start[a] as usize] = s;
            start[a] += 1;
        }
        start.rotate_right(1);
        start[0] = 0;
        let from = |p: u32| &leaving[start[p as usize] as usize..start[p as usize + 1] as usize];

        let mut of_triangle = vec![[u32::MAX; 3]; triangles.len()];
        let mut ends = Vec::with_capacity(n_slots / 2);
        let mut tris = Vec::with_capacity(n_slots / 2);
        for s in 0..n_slots as u32 {
            let (t, k) = (s as usize / 3, s as usize % 3);
            if of_triangle[t][k] != u32::MAX {
                continue;
            }
            let (a, b) = pair(s);
            let mut twins = from(b).iter().filter(|&&o| pair(o).1 == a);
            let &twin = twins
                .next()
                .expect("open boundary or flipped triangle: no pair runs the other way");
            let (t2, k2) = (twin as usize / 3, twin as usize % 3);
            assert!(
                twins.next().is_none() && of_triangle[t2][k2] == u32::MAX,
                "edge shared by >2 triangles"
            );
            let id = ends.len() as u32;
            of_triangle[t][k] = id;
            of_triangle[t2][k2] = id;
            ends.push([a.min(b), a.max(b)]);
            tris.push([t as u32, t2 as u32]);
        }
        TriEdges {
            of_triangle,
            ends,
            triangles: tris,
            start,
            leaving,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpas_geom::spherical_triangle_area_signed;
    use std::collections::HashMap;

    #[test]
    fn base_icosahedron_counts() {
        let g = IcosaGrid::base();
        assert_eq!(g.n_points(), 12);
        assert_eq!(g.n_triangles(), 20);
        assert_eq!(g.n_edges(), 30);
    }

    #[test]
    fn base_faces_are_ccw_and_tile_sphere() {
        let g = IcosaGrid::base();
        let mut total = 0.0;
        for &[a, b, c] in &g.triangles {
            let area = spherical_triangle_area_signed(
                g.points[a as usize],
                g.points[b as usize],
                g.points[c as usize],
            );
            assert!(area > 0.0, "face [{a},{b},{c}] is not CCW");
            total += area;
        }
        assert!((total - 4.0 * std::f64::consts::PI).abs() < 1e-10);
    }

    #[test]
    fn subdivision_counts_match_formula() {
        for level in 0..5 {
            let g = IcosaGrid::subdivide(level);
            assert_eq!(g.n_points(), IcosaGrid::expected_points(level));
            assert_eq!(g.n_triangles(), 20 * 4usize.pow(level));
        }
    }

    #[test]
    fn table3_cell_counts() {
        // The paper's Table III: 40 962 / 163 842 / 655 362 / 2 621 442 cells.
        assert_eq!(IcosaGrid::expected_points(6), 40_962);
        assert_eq!(IcosaGrid::expected_points(7), 163_842);
        assert_eq!(IcosaGrid::expected_points(8), 655_362);
        assert_eq!(IcosaGrid::expected_points(9), 2_621_442);
    }

    #[test]
    fn subdivided_faces_remain_ccw_and_tile_sphere() {
        let g = IcosaGrid::subdivide(3);
        let mut total = 0.0;
        for &[a, b, c] in &g.triangles {
            let area = spherical_triangle_area_signed(
                g.points[a as usize],
                g.points[b as usize],
                g.points[c as usize],
            );
            assert!(area > 0.0);
            total += area;
        }
        assert!((total - 4.0 * std::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    fn all_points_on_unit_sphere() {
        let g = IcosaGrid::subdivide(3);
        for p in &g.points {
            assert!((p.norm() - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn no_duplicate_points() {
        let g = IcosaGrid::subdivide(3);
        for i in 0..g.points.len() {
            for j in (i + 1)..g.points.len() {
                assert!(g.points[i].dist(g.points[j]) > 1e-6);
            }
        }
    }

    #[test]
    fn every_edge_shared_by_exactly_two_triangles() {
        let g = IcosaGrid::subdivide(2);
        let mut counts: HashMap<(u32, u32), u32> = HashMap::new();
        for &[a, b, c] in &g.triangles {
            for (x, y) in [(a, b), (b, c), (c, a)] {
                let key = if x < y { (x, y) } else { (y, x) };
                *counts.entry(key).or_insert(0) += 1;
            }
        }
        assert_eq!(counts.len(), g.n_edges());
        assert!(counts.values().all(|&c| c == 2));
    }

    #[test]
    fn tri_edges_number_edges_in_discovery_order() {
        let g = IcosaGrid::subdivide(3);
        let edges = TriEdges::of(g.n_points(), &g.triangles);
        // Reference: the first pair to name an edge gives it the next id.
        let mut ids: HashMap<(u32, u32), u32> = HashMap::new();
        for (t, &[a, b, c]) in g.triangles.iter().enumerate() {
            for (k, (x, y)) in [(a, b), (b, c), (c, a)].into_iter().enumerate() {
                let key = (x.min(y), x.max(y));
                let next = ids.len() as u32;
                let id = *ids.entry(key).or_insert(next);
                assert_eq!(edges.of_triangle[t][k], id, "triangle {t} pair {k}");
                assert_eq!(edges.ends[id as usize], [key.0, key.1]);
                let nth = usize::from(id != next);
                assert_eq!(edges.triangles[id as usize][nth] as usize, t);
            }
        }
        assert_eq!(edges.ends.len(), g.n_edges());
    }

    #[test]
    #[should_panic(expected = "open boundary")]
    fn tri_edges_reject_an_open_surface() {
        TriEdges::of(4, &[[0, 1, 2], [0, 2, 3]]);
    }

    #[test]
    #[should_panic(expected = "edge shared by >2 triangles")]
    fn tri_edges_reject_an_edge_of_three_triangles() {
        TriEdges::of(5, &[[0, 1, 2], [1, 0, 3], [1, 0, 4]]);
    }

    #[test]
    fn nominal_resolution_matches_paper_labels() {
        // Paper labels: level 6 ~ "120-km", level 9 ~ "15-km". The sqrt-area
        // measure is within a factor ~0.6 of the label (labels are
        // cell-center spacings); check the ratio structure instead: each
        // level halves the resolution.
        let r6 = IcosaGrid::nominal_resolution_km(6);
        let r9 = IcosaGrid::nominal_resolution_km(9);
        // Not exactly 8 because of the "+2" in the point count.
        assert!((r6 / r9 - 8.0).abs() < 1e-3);
        assert!(r6 > 80.0 && r6 < 130.0, "r6 = {r6}");
    }
}
