//! Topology-preserving Lloyd relaxation.
//!
//! A spherical CVT is the fixed point of Lloyd's map: every generator sits
//! at the mass centroid of its Voronoi cell. Subdivided-icosahedral points
//! are already very close to centroidal; a few sweeps of this smoother push
//! them closer without changing the connectivity (valid because the motion
//! per sweep is a small fraction of the cell size).
//!
//! A sweep reads only the Voronoi corners and each cell's CCW ring of
//! them, so `relaxed_mesh` (behind [`crate::generate_ordered`] and
//! [`crate::generate_variable`]) sweeps on the triangulation itself: per
//! sweep it recomputes the circumcenters and rings (`voronoi::Rings`, the
//! ring routine the mesh build starts from) and moves the generators.
//! After the last sweep it updates the rings once more, renumbers the
//! triangulation if an ordering is asked for, and assembles the full
//! [`Mesh`] once, in its final numbering. The triangles never move, so
//! their edge numbering (`TriEdges`) is computed once for all sweeps and
//! the build. [`lloyd_step`] sweeps a built mesh instead; both run one
//! loop (`relax`), so they move every generator to the same bits.

use crate::icosahedron::{IcosaGrid, TriEdges};
use crate::mesh::Mesh;
use crate::reorder::Reordering;
use crate::voronoi::{assemble, Rings, Triangulation};
use mpas_geom::{arc_length, spherical_polygon_centroid, Vec3, EARTH_RADIUS};

/// One Lloyd sweep: move every generator to the spherical centroid of its
/// current Voronoi cell. Returns the maximum generator displacement
/// (radians); a vanishing displacement means the mesh is centroidal.
pub fn lloyd_step(grid: &mut IcosaGrid, mesh: &Mesh) -> f64 {
    relax(
        &mut grid.points,
        |i, ring| ring.extend(mesh_corners(mesh, i)),
        spherical_polygon_centroid,
    )
}

/// Cell `i`'s Voronoi corners in CCW order, read from a built mesh.
pub(crate) fn mesh_corners(mesh: &Mesh, i: usize) -> impl Iterator<Item = Vec3> + '_ {
    mesh.vertices_of_cell(i)
        .iter()
        .map(|&v| mesh.x_vertex[v as usize])
}

/// The loop of every Lloyd sweep: move each generator to `centroid` of its
/// Voronoi cell, whose CCW corners `corners(i, ring)` appends to `ring`.
/// Returns the maximum displacement in radians.
pub(crate) fn relax(
    points: &mut [Vec3],
    corners: impl Fn(usize, &mut Vec<Vec3>),
    centroid: impl Fn(&[Vec3]) -> Vec3,
) -> f64 {
    let mut max_move: f64 = 0.0;
    let mut ring: Vec<Vec3> = Vec::with_capacity(8);
    for (i, p) in points.iter_mut().enumerate() {
        ring.clear();
        corners(i, &mut ring);
        let new = centroid(&ring);
        max_move = max_move.max(arc_length(*p, new));
        *p = new;
    }
    max_move
}

/// One Lloyd sweep on the triangulation: recompute `grid`'s corners and
/// rings into `rings`, then move every generator to `centroid` of its
/// ring. `edges` must number `grid.triangles`. Returns the maximum
/// displacement in radians.
pub(crate) fn sweep(
    grid: &mut IcosaGrid,
    edges: &TriEdges,
    rings: &mut Rings,
    centroid: impl Fn(&[Vec3]) -> Vec3,
) -> f64 {
    rings.update(&grid.points, &grid.triangles, edges);
    let rings = &*rings;
    relax(
        &mut grid.points,
        |i, ring| ring.extend(rings.corners(edges, i)),
        centroid,
    )
}

/// Subdivide to `level`, take `sweeps` Lloyd sweeps toward `centroid` on
/// the triangulation, renumber it per `reorder`, then build the mesh once.
/// The build takes over the generators, the edge buckets and the ring
/// buffers, which every sweep reused.
pub(crate) fn relaxed_mesh(
    level: u32,
    sweeps: u32,
    reorder: Reordering,
    centroid: impl Fn(&[Vec3]) -> Vec3,
) -> Mesh {
    let mut grid = IcosaGrid::subdivide(level);
    let edges = TriEdges::of(grid.n_points(), &grid.triangles);
    let mut rings = Rings::default();
    for _ in 0..sweeps {
        sweep(&mut grid, &edges, &mut rings, &centroid);
    }
    let dual = Triangulation::ringed(grid.points, grid.triangles, edges, rings);
    assemble(dual.reordered(reorder), EARTH_RADIUS)
}

/// How far the mesh is from centroidal: the maximum arc distance between a
/// generator and its cell centroid, in units of the local cell radius.
pub fn centroidal_defect(mesh: &Mesh) -> f64 {
    let mut worst: f64 = 0.0;
    let mut ring: Vec<Vec3> = Vec::with_capacity(8);
    for i in 0..mesh.n_cells() {
        ring.clear();
        ring.extend(mesh_corners(mesh, i));
        let centroid = spherical_polygon_centroid(&ring);
        let cell_radius = (mesh.area_cell[i] / std::f64::consts::PI).sqrt() / mesh.sphere_radius;
        let defect = arc_length(mesh.x_cell[i], centroid) / cell_radius;
        worst = worst.max(defect);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::voronoi::build_mesh;

    #[test]
    fn lloyd_reduces_centroidal_defect() {
        let mut grid = IcosaGrid::subdivide(3);
        let mesh0 = build_mesh(&grid);
        let before = centroidal_defect(&mesh0);
        lloyd_step(&mut grid, &mesh0);
        let mesh1 = build_mesh(&grid);
        let after = centroidal_defect(&mesh1);
        assert!(
            after < before,
            "Lloyd did not improve centroidality: {before} -> {after}"
        );
        // The relaxed mesh is still structurally valid.
        mesh1.validate();
    }

    #[test]
    fn lloyd_converges_monotonically_in_displacement() {
        let mut grid = IcosaGrid::subdivide(2);
        let mut mesh = build_mesh(&grid);
        let mut last = f64::INFINITY;
        for sweep in 0..5 {
            let moved = lloyd_step(&mut grid, &mesh);
            mesh = build_mesh(&grid);
            assert!(
                moved < last * 1.01,
                "sweep {sweep}: displacement grew {last} -> {moved}"
            );
            last = moved;
        }
        assert!(last < 1e-3, "Lloyd not converging: last move {last}");
    }

    #[test]
    fn generate_with_lloyd_matches_counts() {
        let m = crate::generate(2, 2);
        assert_eq!(m.n_cells(), 162);
        m.validate();
    }
}
