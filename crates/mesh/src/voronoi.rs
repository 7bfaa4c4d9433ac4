//! Voronoi-dual construction: from generator points + Delaunay triangles to
//! the full MPAS mesh spec, including the TRiSK `weightsOnEdge` operator.
//!
//! The build runs in two steps. The ring update starts from `Rings`: the
//! corners and each cell's CCW ring of them, which is all a Lloyd sweep
//! reads, so the sweeps of [`crate::lloyd`] run that stage alone and the
//! build runs it once more; it yields a [`Triangulation`], each cell's
//! rows read off its ring. The assembly ([`assemble`]) computes the rest
//! of the mesh from that. Between the two a generated mesh is renumbered
//! ([`Triangulation::renumbered`]), so it is assembled once, in its final
//! numbering.
//!
//! On the sphere, both circumcenters of the two triangles sharing a Delaunay
//! edge lie in the perpendicular-bisector plane of that edge's chord, so the
//! Voronoi arc crosses the Delaunay arc exactly at its midpoint and at a
//! right angle. This orthogonality is what makes the C-grid discretization
//! (and the exact kite-area tiling) work.
//!
//! # TRiSK tangential reconstruction (derivation sketch)
//!
//! For a discretely nondivergent flow there is a stream function `ψ` at
//! vertices with `u_e = -(ψ_{v_k} - ψ_{v_{k-1}})/l_e` along each CCW cell
//! walk. Interpolating `ψ` to cell centers with kite-area weights
//! (`ψ̃_i = Σ_v kite_{i,v} ψ_v / A_i`) and differencing across the edge gives
//! the tangential velocity
//!
//! ```text
//! v_e = (1/d_e) [  Σ_{e'∈E(c1)\e} (1/2 − R_{c1}(e')) l_{e'} o_{e',c1} u_{e'}
//!                − Σ_{e'∈E(c2)\e} (1/2 − R_{c2}(e')) l_{e'} o_{e',c2} u_{e'} ]
//! ```
//!
//! where `o_{e',i}=±1` is the outward sign of `e'` for cell `i` and
//! `R_i(e')` is the cumulative kite-area fraction of the vertices passed
//! when walking CCW around cell `i` from `e` to `e'`. The self-term cancels
//! exactly between the two cell walks. These are the `weightsOnEdge` of the
//! MPAS mesh spec; they satisfy the energy-conserving antisymmetry
//! `w̃(e,e') = -w̃(e',e)` checked by [`Mesh::validate`].

use crate::icosahedron::{IcosaGrid, TriEdges};
use crate::mesh::{CellId, EdgeId, Mesh, VertexId};
use crate::reorder::{csr_offsets, csr_rows, gather_map, CellRows, MeshPermutation, Reordering};
use mpas_geom::{
    arc_length, arc_midpoint, spherical_circumcenter, spherical_polygon_area,
    spherical_triangle_area, Vec3, EARTH_RADIUS,
};

/// Build the full MPAS mesh (Earth-radius sphere) from a triangulated point
/// set. Panics if the triangulation is not a closed 2-manifold.
pub fn build_mesh(grid: &IcosaGrid) -> Mesh {
    build_mesh_with_radius(grid, EARTH_RADIUS)
}

/// As [`build_mesh`], with an explicit sphere radius in meters.
pub fn build_mesh_with_radius(grid: &IcosaGrid, sphere_radius: f64) -> Mesh {
    let edges = TriEdges::of(grid.points.len(), &grid.triangles);
    let dual = Triangulation::ringed(
        grid.points.clone(),
        grid.triangles.clone(),
        edges,
        Rings::default(),
    );
    assemble(dual, sphere_radius)
}

/// The part of the Voronoi dual that a Lloyd sweep reads: every corner
/// (the circumcenter of a triangle) and every cell's CCW ring of corners.
/// Generators move between sweeps and triangles do not, so one `Rings` is
/// recomputed in place for each sweep, and the build starts from the
/// same routine ([`Triangulation::ringed`]) and takes its buffers over as
/// mesh arrays.
#[derive(Debug, Default)]
pub(crate) struct Rings {
    /// Per triangle, its circumcenter: the mesh's `x_vertex`.
    x_vertex: Vec<Vec3>,
    /// Per edge, the arc midpoint of its ends: the mesh's `x_edge`.
    x_edge: Vec<Vec3>,
    /// Per cell, over the offsets `TriEdges::start`, the slots `3t + k` of
    /// the corner pairs that leave it, in CCW order. Ring slot `k` leaves
    /// along the cell's edge `k`, and its triangle `t` is the corner
    /// between edges `k` and `k + 1`.
    slots: Vec<u32>,
}

impl Rings {
    /// Recompute every corner and ring of `points` over `triangles`, whose
    /// edges `edges` numbers.
    pub(crate) fn update(&mut self, points: &[Vec3], triangles: &[[u32; 3]], edges: &TriEdges) {
        self.x_vertex.clear();
        self.x_vertex.extend(triangles.iter().map(|&[a, b, c]| {
            spherical_circumcenter(points[a as usize], points[b as usize], points[c as usize])
        }));
        self.x_edge.clear();
        self.x_edge.extend(
            edges
                .ends
                .iter()
                .map(|&[a, b]| arc_midpoint(points[a as usize], points[b as usize])),
        );

        // Sort each cell's leaving pairs CCW by the azimuth of their edge's
        // midpoint in a local tangent frame, each azimuth computed once.
        self.slots.resize(edges.leaving.len(), 0);
        let mut ring: Vec<(f64, u32)> = Vec::with_capacity(8);
        for (i, &c) in points.iter().enumerate() {
            // Any vector not parallel to c seeds the tangent frame.
            let seed = if c.x.abs() < 0.9 { Vec3::X } else { Vec3::Y };
            let u = seed.cross(c).normalized();
            let w = c.cross(u); // (u, w, c) right-handed => CCW from outside
            let range = edges.start[i] as usize..edges.start[i + 1] as usize;
            ring.clear();
            ring.extend(edges.leaving[range.clone()].iter().map(|&s| {
                let d = self.x_edge[edges.of_triangle[s as usize / 3][s as usize % 3] as usize];
                (d.dot(w).atan2(d.dot(u)), s)
            }));
            ring.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for (dst, &(_, s)) in self.slots[range].iter_mut().zip(&ring) {
                *dst = s;
            }
        }
    }

    /// Cell `i`'s corners in CCW order, from the last [`Rings::update`].
    pub(crate) fn corners<'a>(
        &'a self,
        edges: &TriEdges,
        i: usize,
    ) -> impl Iterator<Item = Vec3> + 'a {
        let range = edges.start[i] as usize..edges.start[i + 1] as usize;
        self.slots[range]
            .iter()
            .map(|&s| self.x_vertex[s as usize / 3])
    }
}

/// A triangulation read as the skeleton of its Voronoi dual: everything
/// [`assemble`] reads, each array named after the mesh array it becomes.
/// Renaming its ids consistently ([`Triangulation::renumbered`]) renames
/// the assembled mesh the same way, bit for bit, because the assembly
/// computes each entity from its coordinates and its ordered incidence.
pub(crate) struct Triangulation {
    /// The generators.
    x_cell: Vec<Vec3>,
    /// The triangles, each with its corners in their CCW rotation.
    cells_on_vertex: Vec<[CellId; 3]>,
    /// Per triangle, the edge of each corner pair `(k, k + 1)`.
    edges_on_vertex: Vec<[EdgeId; 3]>,
    /// Per edge, its ends in the order [`TriEdges`] gave them: the lower
    /// construction id first. The normal runs from the first.
    cells_on_edge: Vec<[CellId; 2]>,
    /// Per edge, the triangle that names it first, then the other one.
    triangles_on_edge: Vec<[VertexId; 2]>,
    /// CSR offsets over cells.
    cell_offsets: Vec<u32>,
    /// Per cell, the edges of its ring slots: its edges, CCW.
    edges_on_cell: Vec<EdgeId>,
    /// Per cell, the triangles of its ring slots: slot `k`'s lies between
    /// edges `k` and `k + 1`.
    vertices_on_cell: Vec<VertexId>,
    /// Per triangle, its circumcenter.
    x_vertex: Vec<Vec3>,
    /// Per edge, the arc midpoint of its ends.
    x_edge: Vec<Vec3>,
}

impl Triangulation {
    /// The ring update: recompute `rings` on `points` over `triangles`,
    /// whose edges `edges` numbers, and read each cell's rows off its
    /// ring. Both are consumed: their buckets and buffers become mesh
    /// arrays, so the build frees no large scratch array before it
    /// allocates the rest (DESIGN.md §16).
    pub(crate) fn ringed(
        points: Vec<Vec3>,
        triangles: Vec<[u32; 3]>,
        edges: TriEdges,
        mut rings: Rings,
    ) -> Self {
        rings.update(&points, &triangles, &edges);
        let Rings {
            x_vertex,
            x_edge,
            slots,
        } = rings;
        let TriEdges {
            of_triangle: edges_on_vertex,
            ends: cells_on_edge,
            triangles: triangles_on_edge,
            start: cell_offsets,
            leaving,
        } = edges;
        // Each edge of a cell leaves it as exactly one triangle corner
        // pair, so the ring slots, mapped to their edges, are the cell's
        // edges in CCW order, and their triangles are the corners between
        // consecutive edges.
        let mut edges_on_cell = leaving;
        for (e, &s) in edges_on_cell.iter_mut().zip(&slots) {
            *e = edges_on_vertex[s as usize / 3][s as usize % 3];
        }
        let mut vertices_on_cell = slots;
        for v in vertices_on_cell.iter_mut() {
            *v /= 3;
        }
        Triangulation {
            x_cell: points,
            cells_on_vertex: triangles,
            edges_on_vertex,
            cells_on_edge,
            triangles_on_edge,
            cell_offsets,
            edges_on_cell,
            vertices_on_cell,
            x_vertex,
            x_edge,
        }
    }

    /// The rows a renumbering reads.
    pub(crate) fn cell_rows(&self) -> CellRows<'_> {
        CellRows {
            x_cell: &self.x_cell,
            cell_offsets: &self.cell_offsets,
            edges_on_cell: &self.edges_on_cell,
            vertices_on_cell: &self.vertices_on_cell,
            cells_on_edge: &self.cells_on_edge,
            n_vertices: self.cells_on_vertex.len(),
        }
    }

    /// Renumbered per `reorder`, with the permutation derived from this
    /// triangulation's rows; [`Reordering::None`] returns it untouched.
    pub(crate) fn reordered(self, reorder: Reordering) -> Self {
        match reorder.permutation_of(self.cell_rows()) {
            Some(perm) => self.renumbered(&perm),
            None => self,
        }
    }

    /// Every id renamed through `perm` and every per-entity array gathered
    /// into the new order. What carries orientation is kept, not
    /// recomputed: each edge's ends and its two triangles keep their order,
    /// each triangle its corner rotation, and each cell row its CCW slot
    /// order.
    pub(crate) fn renumbered(self, perm: &MeshPermutation) -> Self {
        let pc = |c: u32| perm.cell_new[c as usize];
        let pe = |e: u32| perm.edge_new[e as usize];
        let pv = |v: u32| perm.vertex_new[v as usize];
        let (cells, edges, vertices) =
            (&perm.cell_old[..], &perm.edge_old[..], &perm.vertex_old[..]);
        Triangulation {
            x_cell: perm.permute_cell_field(&self.x_cell),
            cells_on_vertex: gather_map(&self.cells_on_vertex, vertices, |c| c.map(pc)),
            edges_on_vertex: gather_map(&self.edges_on_vertex, vertices, |e| e.map(pe)),
            cells_on_edge: gather_map(&self.cells_on_edge, edges, |c| c.map(pc)),
            triangles_on_edge: gather_map(&self.triangles_on_edge, edges, |t| t.map(pv)),
            cell_offsets: csr_offsets(&self.cell_offsets, cells),
            edges_on_cell: csr_rows(&self.cell_offsets, &self.edges_on_cell, cells, pe),
            vertices_on_cell: csr_rows(&self.cell_offsets, &self.vertices_on_cell, cells, pv),
            x_vertex: perm.permute_vertex_field(&self.x_vertex),
            x_edge: perm.permute_edge_field(&self.x_edge),
        }
    }
}

/// The assembly: the full mesh of `dual` on a sphere of `sphere_radius`
/// meters. The triangulation's arrays become mesh arrays.
pub(crate) fn assemble(dual: Triangulation, sphere_radius: f64) -> Mesh {
    let Triangulation {
        x_cell,
        cells_on_vertex,
        edges_on_vertex,
        cells_on_edge,
        triangles_on_edge: tris_on_edge,
        cell_offsets,
        edges_on_cell,
        vertices_on_cell,
        x_vertex,
        x_edge,
    } = dual;
    let n_cells = x_cell.len();
    let n_vertices = cells_on_vertex.len();

    // ---- edges: one per Delaunay edge -----------------------------------------
    // Normal direction convention: from the lower to the higher cell id in
    // construction order, which a renumbering keeps — deterministic and
    // cheap. `edges_on_vertex[v][k]` is the edge of the triangle's corner
    // pair (k, k+1); adjacent triangles per edge are in discovery order.
    let n_edges = cells_on_edge.len();
    assert_eq!(n_cells + n_vertices - 2, n_edges, "Euler formula");

    // ---- edge frames and vertex ordering --------------------------------------
    let mut normal_edge = Vec::with_capacity(n_edges);
    let mut tangent_edge = Vec::with_capacity(n_edges);
    let mut vertices_on_edge: Vec<[VertexId; 2]> = Vec::with_capacity(n_edges);

    for e in 0..n_edges {
        let [c1, c2] = cells_on_edge[e];
        let (p1, p2) = (x_cell[c1 as usize], x_cell[c2 as usize]);
        let m = x_edge[e];
        // Normal: great-circle direction from c1 to c2 at the midpoint.
        let n = (p2 - p1 - m * m.dot(p2 - p1)).normalized();
        let t = m.cross(n); // r̂ × n̂, unit by construction
        let [ta, tb] = tris_on_edge[e];
        let (va, vb) = (x_vertex[ta as usize], x_vertex[tb as usize]);
        let pair = if (vb - va).dot(t) >= 0.0 {
            [ta, tb]
        } else {
            [tb, ta]
        };
        normal_edge.push(n);
        tangent_edge.push(t);
        vertices_on_edge.push(pair);
    }

    // ---- vertex-centric connectivity ----------------------------------------
    // cells_on_vertex: triangle corners, already CCW from the generator.
    // +1 when +n̂ (c1->c2) runs CCW around v, i.e. from slot k to k+1.
    let edge_sign_on_vertex: Vec<[i8; 3]> = cells_on_vertex
        .iter()
        .zip(&edges_on_vertex)
        .map(|(cs, es)| {
            std::array::from_fn(|k| {
                if cells_on_edge[es[k] as usize][0] == cs[k] {
                    1
                } else {
                    -1
                }
            })
        })
        .collect();

    // ---- cell-centric connectivity (CCW ordering) ----------------------------
    let total_slots = cell_offsets[n_cells] as usize;
    // Derived per-slot arrays: neighbor cell, outward sign.
    let mut cells_on_cell = vec![0 as CellId; total_slots];
    let mut edge_sign_on_cell = vec![0i8; total_slots];
    for i in 0..n_cells {
        let range = cell_offsets[i] as usize..cell_offsets[i + 1] as usize;
        for slot in range.clone() {
            let e = edges_on_cell[slot] as usize;
            let [c1, c2] = cells_on_edge[e];
            let (neigh, sign) = if c1 as usize == i { (c2, 1) } else { (c1, -1) };
            cells_on_cell[slot] = neigh;
            edge_sign_on_cell[slot] = sign;
            // The vertex between edge k and edge k+1 borders both.
            let next = if slot + 1 == range.end {
                range.start
            } else {
                slot + 1
            };
            debug_assert!(
                edges_on_vertex[vertices_on_cell[slot] as usize].contains(&edges_on_cell[next]),
                "cell {i}: edges {e} and {} share no vertex",
                edges_on_cell[next]
            );
        }
    }

    // ---- geometry ------------------------------------------------------------
    let r2 = sphere_radius * sphere_radius;
    let dc_edge: Vec<f64> = cells_on_edge
        .iter()
        .map(|&[a, b]| arc_length(x_cell[a as usize], x_cell[b as usize]) * sphere_radius)
        .collect();
    let dv_edge: Vec<f64> = vertices_on_edge
        .iter()
        .map(|&[a, b]| arc_length(x_vertex[a as usize], x_vertex[b as usize]) * sphere_radius)
        .collect();
    let area_triangle: Vec<f64> = cells_on_vertex
        .iter()
        .map(|&[a, b, c]| {
            spherical_triangle_area(x_cell[a as usize], x_cell[b as usize], x_cell[c as usize]) * r2
        })
        .collect();
    let mut area_cell = vec![0.0f64; n_cells];
    {
        let mut ring: Vec<Vec3> = Vec::with_capacity(8);
        for i in 0..n_cells {
            ring.clear();
            let range = cell_offsets[i] as usize..cell_offsets[i + 1] as usize;
            ring.extend(
                vertices_on_cell[range]
                    .iter()
                    .map(|&v| x_vertex[v as usize]),
            );
            area_cell[i] = spherical_polygon_area(&ring) * r2;
        }
    }

    // Kite areas: intersection of dual triangle v with each corner cell.
    // Quad (cell center, edge-mid a, vertex, edge-mid b) split into two
    // spherical triangles. Edges adjacent to cell slot k at vertex v are the
    // vertex-edge slots k (cells k,k+1) and (k+2)%3 (cells k+2,k).
    let mut kite_areas_on_vertex: Vec<[f64; 3]> = vec![[0.0; 3]; n_vertices];
    for v in 0..n_vertices {
        let xv = x_vertex[v];
        for k in 0..3 {
            let cell = cells_on_vertex[v][k] as usize;
            let e_a = edges_on_vertex[v][k] as usize; // joins cells k, k+1
            let e_b = edges_on_vertex[v][(k + 2) % 3] as usize; // joins k+2, k
            let (ma, mb) = (x_edge[e_a], x_edge[e_b]);
            let c = x_cell[cell];
            kite_areas_on_vertex[v][k] =
                (spherical_triangle_area(c, ma, xv) + spherical_triangle_area(c, xv, mb)) * r2;
        }
    }

    // Per cell slot: the fraction of the cell's area in the kite at the
    // slot's vertex, the step of the cumulative R in the walks below.
    let mut kite_frac = vec![0.0f64; total_slots];
    for i in 0..n_cells {
        for slot in cell_offsets[i] as usize..cell_offsets[i + 1] as usize {
            let v = vertices_on_cell[slot] as usize;
            let kslot = cells_on_vertex[v]
                .iter()
                .position(|&c| c as usize == i)
                .expect("vertex missing its cell");
            kite_frac[slot] = kite_areas_on_vertex[v][kslot] / area_cell[i];
        }
    }

    // ---- TRiSK weightsOnEdge ---------------------------------------------------
    // For each edge e and each of its two cells, walk CCW from e collecting
    // (1/2 - R) * l/d * outward-sign terms (see module docs).
    let mut eoe_offsets = vec![0u32; n_edges + 1];
    for e in 0..n_edges {
        let [c1, c2] = cells_on_edge[e];
        let deg = |c: CellId| cell_offsets[c as usize + 1] - cell_offsets[c as usize];
        eoe_offsets[e + 1] = eoe_offsets[e] + (deg(c1) - 1) + (deg(c2) - 1);
    }
    let mut edges_on_edge = vec![0 as EdgeId; eoe_offsets[n_edges] as usize];
    let mut weights_on_edge = vec![0.0f64; eoe_offsets[n_edges] as usize];
    for e in 0..n_edges {
        let mut cursor = eoe_offsets[e] as usize;
        let d_e = dc_edge[e];
        for (which, &cell) in cells_on_edge[e].iter().enumerate() {
            let s_i = if which == 0 { 1.0 } else { -1.0 };
            let i = cell as usize;
            let range = cell_offsets[i] as usize..cell_offsets[i + 1] as usize;
            let n = range.len();
            let local_edges = &edges_on_cell[range.clone()];
            let local_fracs = &kite_frac[range.clone()];
            let local_signs = &edge_sign_on_cell[range];
            let mut jj = local_edges
                .iter()
                .position(|&x| x as usize == e)
                .expect("edge missing from its own cell");
            let mut r_cum = 0.0;
            for _ in 1..n {
                // The vertex between edge jj and the next edge is slot jj.
                r_cum += local_fracs[jj];
                jj = if jj + 1 == n { 0 } else { jj + 1 };
                let ep = local_edges[jj] as usize;
                let o = local_signs[jj] as f64;
                edges_on_edge[cursor] = ep as EdgeId;
                weights_on_edge[cursor] = s_i * (0.5 - r_cum) * o * dv_edge[ep] / d_e;
                cursor += 1;
            }
        }
        debug_assert_eq!(cursor, eoe_offsets[e + 1] as usize);
    }

    Mesh {
        sphere_radius,
        x_cell,
        x_edge,
        x_vertex,
        cells_on_edge,
        vertices_on_edge,
        cells_on_vertex,
        edges_on_vertex,
        cell_offsets,
        edges_on_cell,
        vertices_on_cell,
        cells_on_cell,
        edge_sign_on_cell,
        eoe_offsets,
        edges_on_edge,
        weights_on_edge,
        dc_edge,
        dv_edge,
        area_cell,
        area_triangle,
        kite_areas_on_vertex,
        normal_edge,
        tangent_edge,
        edge_sign_on_vertex,
        boundary_edge: vec![false; n_edges],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icosahedron::IcosaGrid;

    fn mesh(level: u32) -> Mesh {
        build_mesh(&IcosaGrid::subdivide(level))
    }

    #[test]
    fn level2_mesh_validates() {
        mesh(2).validate();
    }

    #[test]
    fn level3_mesh_validates() {
        mesh(3).validate();
    }

    #[test]
    fn counts_match_formulas() {
        let m = mesh(3);
        assert_eq!(m.n_cells(), 642);
        assert_eq!(m.n_vertices(), 20 * 64);
        assert_eq!(m.n_edges(), 30 * 64);
        assert_eq!(m.max_edges(), 6);
        // Exactly 12 pentagons.
        let pentagons = (0..m.n_cells())
            .filter(|&i| m.edges_of_cell(i).len() == 5)
            .count();
        assert_eq!(pentagons, 12);
    }

    #[test]
    fn voronoi_edge_crosses_delaunay_edge_at_midpoint() {
        let m = mesh(3);
        // Both circumcenters lie in the perpendicular-bisector plane of the
        // chord c1-c2 (which passes through the origin), and so does the arc
        // midpoint x_edge. Hence x_edge lies ON the Voronoi great circle and
        // BETWEEN the two vertices: coplanarity + additive arc lengths.
        for e in 0..m.n_edges() {
            let [v1, v2] = m.vertices_on_edge[e];
            let (a, b) = (m.x_vertex[v1 as usize], m.x_vertex[v2 as usize]);
            let x = m.x_edge[e];
            assert!(
                x.dot(a.cross(b)).abs() < 1e-12,
                "edge {e}: midpoint not on the Voronoi great circle"
            );
            let split = arc_length(a, x) + arc_length(x, b);
            let whole = arc_length(a, b);
            assert!(
                (split - whole).abs() < 1e-12,
                "edge {e}: midpoint not between the vertices ({split} vs {whole})"
            );
        }
    }

    #[test]
    fn tangential_reconstruction_solid_body_rotation() {
        // u = Ω' × r with Ω' along an arbitrary axis; check that
        // v_e = Σ w u recovers the analytic tangential component.
        let m = mesh(4);
        let omega = Vec3::new(0.3, -0.2, 1.0) * 1e-5;
        let u: Vec<f64> = (0..m.n_edges())
            .map(|e| {
                let vel = omega.cross(m.x_edge[e] * m.sphere_radius);
                vel.dot(m.normal_edge[e])
            })
            .collect();
        let mut rms_err = 0.0;
        let mut rms_ref = 0.0;
        for e in 0..m.n_edges() {
            let recon: f64 = m
                .edges_of_edge(e)
                .iter()
                .zip(m.weights_of_edge(e))
                .map(|(&ep, &w)| w * u[ep as usize])
                .sum();
            let vel = omega.cross(m.x_edge[e] * m.sphere_radius);
            let exact = vel.dot(m.tangent_edge[e]);
            rms_err += (recon - exact).powi(2);
            rms_ref += exact.powi(2);
        }
        let rel = (rms_err / rms_ref).sqrt();
        assert!(rel < 0.05, "tangential reconstruction rel RMS error {rel}");
    }

    #[test]
    fn divergence_of_any_field_integrates_to_zero() {
        let m = mesh(3);
        let u: Vec<f64> = (0..m.n_edges())
            .map(|e| (e as f64 * 0.7).sin() * 10.0)
            .collect();
        let mut total = 0.0;
        for i in 0..m.n_cells() {
            for (slot, &e) in m.edges_of_cell(i).iter().enumerate() {
                let s = m.edge_signs_of_cell(i)[slot] as f64;
                total += s * u[e as usize] * m.dv_edge[e as usize];
            }
        }
        assert!(total.abs() < 1e-6 * 10.0 * m.n_edges() as f64);
    }

    #[test]
    fn circulation_of_any_field_integrates_to_zero() {
        let m = mesh(3);
        let u: Vec<f64> = (0..m.n_edges())
            .map(|e| (e as f64 * 1.3).cos() * 5.0)
            .collect();
        let mut total = 0.0;
        for v in 0..m.n_vertices() {
            for k in 0..3 {
                let e = m.edges_on_vertex[v][k] as usize;
                total += m.edge_sign_on_vertex[v][k] as f64 * u[e] * m.dc_edge[e];
            }
        }
        assert!(total.abs() < 1e-6 * 5.0 * m.n_edges() as f64);
    }

    #[test]
    fn dc_and_dv_are_comparable_scales() {
        let m = mesh(3);
        for e in 0..m.n_edges() {
            let ratio = m.dv_edge[e] / m.dc_edge[e];
            assert!(
                (0.3..3.0).contains(&ratio),
                "edge {e} dv/dc ratio {ratio} out of range"
            );
        }
    }
}
