//! Locality-optimized mesh renumbering.
//!
//! The generator emits cells, edges and vertices in construction order
//! (icosahedral subdivision order), which interleaves distant patches of
//! the sphere: the indirect gathers of the Table-I kernels (`u[e]`,
//! `h[c1]`, `pv_vertex[v]`, ...) then stride across the whole working set.
//! A [`MeshPermutation`] renumbers all three entity kinds so that
//! geometrically adjacent entities get adjacent ids:
//!
//! * [`MeshPermutation::sfc`] — cells sorted along the 3-D Morton curve
//!   (the same keys `sfc_partition` cuts into chunks).
//! * [`MeshPermutation::bfs`] — Cuthill–McKee breadth-first order over the
//!   cell adjacency graph, seeded at a minimum-degree cell (a pentagon),
//!   neighbors visited in ascending-degree order.
//!
//! Either way, edges and vertices are renumbered by **first touch**: walk
//! the cells in their new order and assign each edge/vertex the next free
//! id the first time a cell mentions it. Cell-centric loops (`tend_h`,
//! `ke`, `divergence`) then stream their CSR rows almost sequentially, and
//! edge-centric loops (`tend_u`, `pv_edge`) gather cell/vertex values from
//! a compact moving window.
//!
//! The orderings read a [`CellRows`] view: each cell's CCW edges and
//! vertices, and every edge's two cells. A built [`Mesh`] provides it, and
//! so does a triangulation before its mesh is assembled, so
//! [`crate::generate_ordered`] derives the same permutation from the
//! triangulation, renumbers that and assembles the mesh once, in its final
//! numbering.
//!
//! [`Mesh::reordered`] rewrites every connectivity, sign and geometry
//! array of a mesh built elsewhere (a density mesh, a mesh read from a
//! file) under a permutation. Renumbering never swaps the slot order
//! inside a row, so the documented orientation conventions (CCW
//! `edges_on_cell`, normals pointing `c1 → c2`, sign arrays) survive
//! verbatim — `Mesh::validate` passes on the reordered mesh and every
//! kernel produces bitwise the value it produced at the entity's old id.

use crate::mesh::Mesh;
use crate::sfc::morton_order;
use mpas_geom::Vec3;

/// Which cell ordering a [`MeshPermutation`] is derived from.
///
/// This is the user-facing knob (`swe_run --reorder {none,sfc,bfs}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reordering {
    /// Keep construction order (the identity permutation).
    None,
    /// Morton/space-filling-curve order of the cell centers.
    Sfc,
    /// Cuthill–McKee breadth-first order of the cell adjacency graph.
    Bfs,
}

impl Reordering {
    /// Parse a CLI spelling (`none` / `sfc` / `bfs`).
    pub fn parse(s: &str) -> Option<Reordering> {
        match s {
            "none" => Some(Reordering::None),
            "sfc" | "morton" => Some(Reordering::Sfc),
            "bfs" | "cm" | "cuthill-mckee" => Some(Reordering::Bfs),
            _ => None,
        }
    }

    /// The permutation this ordering induces on `mesh`.
    pub fn permutation(self, mesh: &Mesh) -> MeshPermutation {
        self.permutation_of(mesh.cell_rows())
            .unwrap_or_else(|| MeshPermutation::identity(mesh))
    }

    /// The permutation this ordering induces on `rows`, or `None` for
    /// [`Reordering::None`], which keeps construction order.
    pub(crate) fn permutation_of(self, rows: CellRows) -> Option<MeshPermutation> {
        match self {
            Reordering::None => None,
            Reordering::Sfc => Some(MeshPermutation::sfc_of(rows)),
            Reordering::Bfs => Some(MeshPermutation::bfs_of(rows)),
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Reordering::None => "none",
            Reordering::Sfc => "sfc",
            Reordering::Bfs => "bfs",
        }
    }
}

/// What a renumbering reads of a mesh: the cell centers, each cell's CSR
/// row of edges and of vertices in CCW slot order, and every edge's two
/// cells. [`Mesh`] provides it and so does `voronoi::Triangulation`, so a
/// built mesh and a triangulation are numbered by the same rules.
#[derive(Clone, Copy)]
pub(crate) struct CellRows<'a> {
    /// Cell centers, where the Morton keys are taken.
    pub x_cell: &'a [Vec3],
    /// CSR offsets: cell `i` owns slots `cell_offsets[i]..cell_offsets[i + 1]`.
    pub cell_offsets: &'a [u32],
    /// Per slot, the cell's edges, counterclockwise.
    pub edges_on_cell: &'a [u32],
    /// Per slot, the vertex between edges `k` and `k + 1`.
    pub vertices_on_cell: &'a [u32],
    /// Per edge, its two cells.
    pub cells_on_edge: &'a [[u32; 2]],
    /// Number of vertices.
    pub n_vertices: usize,
}

impl CellRows<'_> {
    fn n_cells(&self) -> usize {
        self.x_cell.len()
    }

    fn row(&self, i: usize) -> std::ops::Range<usize> {
        self.cell_offsets[i] as usize..self.cell_offsets[i + 1] as usize
    }

    /// Cell `i`'s neighbors: the far end of each of its edges, in slot
    /// order (a mesh's `cells_of_cell(i)`).
    fn neighbors(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        self.edges_on_cell[self.row(i)].iter().map(move |&e| {
            let [c1, c2] = self.cells_on_edge[e as usize];
            if c1 as usize == i {
                c2
            } else {
                c1
            }
        })
    }
}

/// A simultaneous renumbering of cells, edges and vertices.
///
/// `*_new[old] = new` maps construction ids to the new numbering;
/// `*_old[new] = old` is the inverse. Fields move between the two
/// numberings with [`MeshPermutation::permute_cell_field`] (old → new
/// indexing) and [`MeshPermutation::unpermute_cell_field`] (new → old),
/// and likewise for edges and vertices.
#[derive(Debug, Clone)]
pub struct MeshPermutation {
    /// Cell map, old id → new id.
    pub cell_new: Vec<u32>,
    /// Cell map, new id → old id.
    pub cell_old: Vec<u32>,
    /// Edge map, old id → new id.
    pub edge_new: Vec<u32>,
    /// Edge map, new id → old id.
    pub edge_old: Vec<u32>,
    /// Vertex map, old id → new id.
    pub vertex_new: Vec<u32>,
    /// Vertex map, new id → old id.
    pub vertex_old: Vec<u32>,
}

fn invert(forward: &[u32]) -> Vec<u32> {
    let mut inv = vec![u32::MAX; forward.len()];
    for (old, &new) in forward.iter().enumerate() {
        debug_assert_eq!(inv[new as usize], u32::MAX, "not a permutation");
        inv[new as usize] = old as u32;
    }
    inv
}

impl MeshPermutation {
    /// The identity permutation (construction order kept).
    pub fn identity(mesh: &Mesh) -> Self {
        let id = |n: usize| (0..n as u32).collect::<Vec<u32>>();
        MeshPermutation {
            cell_new: id(mesh.n_cells()),
            cell_old: id(mesh.n_cells()),
            edge_new: id(mesh.n_edges()),
            edge_old: id(mesh.n_edges()),
            vertex_new: id(mesh.n_vertices()),
            vertex_old: id(mesh.n_vertices()),
        }
    }

    /// Morton/space-filling-curve cell order (ties broken by old id, so
    /// the result is deterministic), edges and vertices by first touch.
    pub fn sfc(mesh: &Mesh) -> Self {
        Self::sfc_of(mesh.cell_rows())
    }

    pub(crate) fn sfc_of(rows: CellRows) -> Self {
        Self::first_touch(rows, &morton_order(rows.x_cell))
    }

    /// Cuthill–McKee breadth-first cell order, edges and vertices by first
    /// touch. Seeded at the minimum-degree cell (an icosahedral pentagon);
    /// within a BFS front, neighbors are visited in ascending degree, then
    /// ascending old id — the classic bandwidth-reducing heuristic.
    pub fn bfs(mesh: &Mesh) -> Self {
        Self::bfs_of(mesh.cell_rows())
    }

    pub(crate) fn bfs_of(rows: CellRows) -> Self {
        let nc = rows.n_cells();
        let degree = |i: usize| rows.row(i).len();
        let mut order: Vec<u32> = Vec::with_capacity(nc);
        let mut seen = vec![false; nc];
        // The sphere's adjacency graph is connected, but stay robust for
        // submeshes: restart from the best unvisited seed until done.
        while order.len() < nc {
            let seed = (0..nc)
                .filter(|&i| !seen[i])
                .min_by_key(|&i| (degree(i), i))
                .expect("unvisited cell exists");
            seen[seed] = true;
            order.push(seed as u32);
            let mut head = order.len() - 1;
            while head < order.len() {
                let i = order[head] as usize;
                head += 1;
                // Sorted by (degree, id), so the slot order does not matter.
                let mut nbrs: Vec<u32> = rows.neighbors(i).filter(|&n| !seen[n as usize]).collect();
                nbrs.sort_by_key(|&n| (degree(n as usize), n));
                for n in nbrs {
                    // A neighbor may have been enqueued by an earlier cell
                    // of the same front since the filter above ran.
                    if !seen[n as usize] {
                        seen[n as usize] = true;
                        order.push(n);
                    }
                }
            }
        }
        Self::first_touch(rows, &order)
    }

    /// Build the full permutation from an explicit cell order
    /// (`order[new] = old`): edges and vertices are numbered in the order
    /// the reordered cells first mention them (CSR slot order within each
    /// cell).
    pub fn from_cell_order(mesh: &Mesh, order: &[u32]) -> Self {
        Self::first_touch(mesh.cell_rows(), order)
    }

    /// The first-touch rule behind every ordering: cells in `order`, then
    /// each edge and vertex at the first slot of the first cell that
    /// names it.
    fn first_touch(rows: CellRows, order: &[u32]) -> Self {
        let (nc, ne, nv) = (rows.n_cells(), rows.cells_on_edge.len(), rows.n_vertices);
        assert_eq!(order.len(), nc, "cell order length mismatch");
        let cell_old = order.to_vec();
        let cell_new = invert(&cell_old);
        let mut edge_new = vec![u32::MAX; ne];
        let mut vertex_new = vec![u32::MAX; nv];
        let (mut next_e, mut next_v) = (0u32, 0u32);
        for &old_cell in &cell_old {
            let range = rows.row(old_cell as usize);
            for &e in &rows.edges_on_cell[range.clone()] {
                if edge_new[e as usize] == u32::MAX {
                    edge_new[e as usize] = next_e;
                    next_e += 1;
                }
            }
            for &v in &rows.vertices_on_cell[range] {
                if vertex_new[v as usize] == u32::MAX {
                    vertex_new[v as usize] = next_v;
                    next_v += 1;
                }
            }
        }
        assert_eq!(next_e as usize, ne, "edges not all touched");
        assert_eq!(next_v as usize, nv, "vertices not all touched");
        let edge_old = invert(&edge_new);
        let vertex_old = invert(&vertex_new);
        MeshPermutation {
            cell_new,
            cell_old,
            edge_new,
            edge_old,
            vertex_new,
            vertex_old,
        }
    }

    /// Panic unless all six maps are mutually inverse bijections sized for
    /// `mesh`.
    pub fn validate(&self, mesh: &Mesh) -> &Self {
        let check = |fwd: &[u32], inv: &[u32], n: usize, what: &str| {
            assert_eq!(fwd.len(), n, "{what}: forward length");
            assert_eq!(inv.len(), n, "{what}: inverse length");
            for (old, &new) in fwd.iter().enumerate() {
                assert!((new as usize) < n, "{what}: id out of range");
                assert_eq!(inv[new as usize] as usize, old, "{what}: not inverse");
            }
        };
        check(&self.cell_new, &self.cell_old, mesh.n_cells(), "cells");
        check(&self.edge_new, &self.edge_old, mesh.n_edges(), "edges");
        check(
            &self.vertex_new,
            &self.vertex_old,
            mesh.n_vertices(),
            "vertices",
        );
        self
    }

    /// Move a cell field from old indexing to new: `out[cell_new[i]] = f[i]`.
    pub fn permute_cell_field<T: Copy>(&self, f: &[T]) -> Vec<T> {
        gather(f, &self.cell_old)
    }

    /// Move a cell field from new indexing back to old.
    pub fn unpermute_cell_field<T: Copy>(&self, f: &[T]) -> Vec<T> {
        gather(f, &self.cell_new)
    }

    /// Move an edge field from old indexing to new.
    pub fn permute_edge_field<T: Copy>(&self, f: &[T]) -> Vec<T> {
        gather(f, &self.edge_old)
    }

    /// Move an edge field from new indexing back to old.
    pub fn unpermute_edge_field<T: Copy>(&self, f: &[T]) -> Vec<T> {
        gather(f, &self.edge_new)
    }

    /// Move a vertex field from old indexing to new.
    pub fn permute_vertex_field<T: Copy>(&self, f: &[T]) -> Vec<T> {
        gather(f, &self.vertex_old)
    }

    /// Move a vertex field from new indexing back to old.
    pub fn unpermute_vertex_field<T: Copy>(&self, f: &[T]) -> Vec<T> {
        gather(f, &self.vertex_new)
    }
}

/// `out[i] = f[idx[i]]` — the shared body of all six field movers. With
/// `idx = *_old` this produces new-indexed fields; with `idx = *_new` it
/// inverts (`out[old] = f[new_of_old]` is exactly the inverse gather
/// because the maps are mutually inverse bijections).
fn gather<T: Copy>(f: &[T], idx: &[u32]) -> Vec<T> {
    gather_map(f, idx, |x| x)
}

/// `out[i] = map(f[idx[i]])`: a per-entity array gathered into a new
/// order with the ids it holds renamed by `map`.
pub(crate) fn gather_map<T: Copy, U>(f: &[T], idx: &[u32], map: impl Fn(T) -> U) -> Vec<U> {
    assert_eq!(f.len(), idx.len(), "field length mismatch");
    idx.iter().map(|&j| map(f[j as usize])).collect()
}

/// The offsets of a CSR relation over `offsets` once its rows are taken
/// in `order` (`order[new] = old`).
pub(crate) fn csr_offsets(offsets: &[u32], order: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(order.len() + 1);
    out.push(0u32);
    for &old in order {
        let deg = offsets[old as usize + 1] - offsets[old as usize];
        out.push(out.last().unwrap() + deg);
    }
    out
}

/// The rows of `slots` (CSR over `offsets`) taken in `order`, each entry
/// renamed by `map` and each row in its own slot order.
pub(crate) fn csr_rows<T: Copy>(
    offsets: &[u32],
    slots: &[T],
    order: &[u32],
    map: impl Fn(T) -> T,
) -> Vec<T> {
    let mut out = Vec::with_capacity(slots.len());
    for &old in order {
        let row = offsets[old as usize] as usize..offsets[old as usize + 1] as usize;
        out.extend(slots[row].iter().map(|&x| map(x)));
    }
    out
}

impl Mesh {
    /// The rows a renumbering reads.
    pub(crate) fn cell_rows(&self) -> CellRows<'_> {
        CellRows {
            x_cell: &self.x_cell,
            cell_offsets: &self.cell_offsets,
            edges_on_cell: &self.edges_on_cell,
            vertices_on_cell: &self.vertices_on_cell,
            cells_on_edge: &self.cells_on_edge,
            n_vertices: self.n_vertices(),
        }
    }

    /// The same mesh under a renumbering: every id array mapped through
    /// `perm`, every per-entity array gathered into the new order, slot
    /// order inside each row untouched (so CCW ordering, `c1 → c2` normal
    /// orientation and both sign arrays keep their documented meaning).
    ///
    /// A generated mesh needs no second copy: [`crate::generate_ordered`]
    /// assembles it in its final numbering. This is for meshes built
    /// elsewhere.
    pub fn reordered(&self, perm: &MeshPermutation) -> Mesh {
        perm.validate(self);
        let pc = |c: u32| perm.cell_new[c as usize];
        let pe = |e: u32| perm.edge_new[e as usize];
        let pv = |v: u32| perm.vertex_new[v as usize];
        let (cells, edges, vertices) =
            (&perm.cell_old[..], &perm.edge_old[..], &perm.vertex_old[..]);
        Mesh {
            sphere_radius: self.sphere_radius,
            x_cell: perm.permute_cell_field(&self.x_cell),
            x_edge: perm.permute_edge_field(&self.x_edge),
            x_vertex: perm.permute_vertex_field(&self.x_vertex),
            cells_on_edge: gather_map(&self.cells_on_edge, edges, |c| c.map(pc)),
            vertices_on_edge: gather_map(&self.vertices_on_edge, edges, |v| v.map(pv)),
            cells_on_vertex: gather_map(&self.cells_on_vertex, vertices, |c| c.map(pc)),
            edges_on_vertex: gather_map(&self.edges_on_vertex, vertices, |e| e.map(pe)),
            cell_offsets: csr_offsets(&self.cell_offsets, cells),
            edges_on_cell: csr_rows(&self.cell_offsets, &self.edges_on_cell, cells, pe),
            vertices_on_cell: csr_rows(&self.cell_offsets, &self.vertices_on_cell, cells, pv),
            cells_on_cell: csr_rows(&self.cell_offsets, &self.cells_on_cell, cells, pc),
            edge_sign_on_cell: csr_rows(&self.cell_offsets, &self.edge_sign_on_cell, cells, |s| s),
            eoe_offsets: csr_offsets(&self.eoe_offsets, edges),
            edges_on_edge: csr_rows(&self.eoe_offsets, &self.edges_on_edge, edges, pe),
            weights_on_edge: csr_rows(&self.eoe_offsets, &self.weights_on_edge, edges, |w| w),
            dc_edge: perm.permute_edge_field(&self.dc_edge),
            dv_edge: perm.permute_edge_field(&self.dv_edge),
            area_cell: perm.permute_cell_field(&self.area_cell),
            area_triangle: perm.permute_vertex_field(&self.area_triangle),
            kite_areas_on_vertex: perm.permute_vertex_field(&self.kite_areas_on_vertex),
            normal_edge: perm.permute_edge_field(&self.normal_edge),
            tangent_edge: perm.permute_edge_field(&self.tangent_edge),
            edge_sign_on_vertex: perm.permute_vertex_field(&self.edge_sign_on_vertex),
            boundary_edge: perm.permute_edge_field(&self.boundary_edge),
        }
    }
}

/// Mean CSR-gather distance of the cell→edge relation: how far apart (in
/// ids) consecutive slot targets are. The quantity the renumbering exists
/// to shrink; exported so benches and `fig_layout` can report it.
pub fn gather_spread(mesh: &Mesh) -> f64 {
    let mut total = 0.0f64;
    let mut count = 0usize;
    for i in 0..mesh.n_cells() {
        let edges = mesh.edges_of_cell(i);
        for w in edges.windows(2) {
            total += (w[1] as i64 - w[0] as i64).unsigned_abs() as f64;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        crate::generate(3, 0)
    }

    #[test]
    fn identity_reorder_is_a_noop() {
        let m = mesh();
        let p = MeshPermutation::identity(&m);
        let r = m.reordered(&p);
        assert_eq!(m.edges_on_cell, r.edges_on_cell);
        assert_eq!(m.weights_on_edge, r.weights_on_edge);
        assert_eq!(m.dc_edge, r.dc_edge);
    }

    #[test]
    fn sfc_and_bfs_reordered_meshes_validate() {
        let m = mesh();
        for ord in [Reordering::Sfc, Reordering::Bfs] {
            let p = ord.permutation(&m);
            p.validate(&m);
            let r = m.reordered(&p);
            r.validate();
            assert_eq!(r.n_cells(), m.n_cells());
            assert_eq!(r.n_edges(), m.n_edges());
            assert_eq!(r.n_vertices(), m.n_vertices());
        }
    }

    #[test]
    fn field_round_trip_all_entities() {
        let m = mesh();
        let p = MeshPermutation::sfc(&m);
        let cf: Vec<f64> = (0..m.n_cells()).map(|i| i as f64 * 0.7).collect();
        let ef: Vec<f64> = (0..m.n_edges()).map(|i| i as f64 - 3.0).collect();
        let vf: Vec<f64> = (0..m.n_vertices()).map(|i| (i as f64).sin()).collect();
        assert_eq!(p.unpermute_cell_field(&p.permute_cell_field(&cf)), cf);
        assert_eq!(p.unpermute_edge_field(&p.permute_edge_field(&ef)), ef);
        assert_eq!(p.unpermute_vertex_field(&p.permute_vertex_field(&vf)), vf);
        // And the permuted field really is a gather by the inverse map.
        let pc = p.permute_cell_field(&cf);
        for new in 0..m.n_cells() {
            assert_eq!(pc[new], cf[p.cell_old[new] as usize]);
        }
    }

    #[test]
    fn geometry_travels_with_ids() {
        let m = mesh();
        let p = MeshPermutation::bfs(&m);
        let r = m.reordered(&p);
        for old in 0..m.n_cells() {
            let new = p.cell_new[old] as usize;
            assert_eq!(r.area_cell[new], m.area_cell[old]);
            assert_eq!(r.x_cell[new], m.x_cell[old]);
        }
        for old in 0..m.n_edges() {
            let new = p.edge_new[old] as usize;
            assert_eq!(r.dc_edge[new], m.dc_edge[old]);
            let [c1_old, c2_old] = m.cells_on_edge[old];
            let [c1_new, c2_new] = r.cells_on_edge[new];
            // Slot order preserved: the normal still points c1 → c2.
            assert_eq!(c1_new, p.cell_new[c1_old as usize]);
            assert_eq!(c2_new, p.cell_new[c2_old as usize]);
        }
    }

    #[test]
    fn reordering_improves_gather_locality_over_shuffle() {
        let m = mesh();
        // Adversarial baseline: a bit-reversal-style shuffle that scatters
        // neighbors far apart.
        let n = m.n_cells() as u32;
        let mut shuffled: Vec<u32> = (0..n).collect();
        shuffled.sort_by_key(|&i| i.wrapping_mul(2654435761) % n);
        let bad = m.reordered(&MeshPermutation::from_cell_order(&m, &shuffled));
        let bad_spread = gather_spread(&bad);
        for ord in [Reordering::Sfc, Reordering::Bfs] {
            let r = m.reordered(&ord.permutation(&m));
            let s = gather_spread(&r);
            assert!(
                s < 0.5 * bad_spread,
                "{}: spread {s} vs shuffled {bad_spread}",
                ord.name()
            );
        }
    }

    #[test]
    fn reordering_parse_round_trips() {
        for ord in [Reordering::None, Reordering::Sfc, Reordering::Bfs] {
            assert_eq!(Reordering::parse(ord.name()), Some(ord));
        }
        assert_eq!(Reordering::parse("hilbert"), None);
    }
}
