#![warn(missing_docs)]
//! SCVT-like spherical mesh substrate for the MPAS shallow-water reproduction.
//!
//! The paper runs on quasi-uniform spherical centroidal Voronoi tessellation
//! (SCVT) meshes distributed with MPAS. We rebuild that substrate from
//! scratch:
//!
//! * [`icosahedron`] — recursive icosahedral subdivision producing generator
//!   points and their Delaunay triangulation. Subdivision level `n` yields
//!   exactly `10*4^n + 2` cells, matching the paper's Table III inventory
//!   (levels 6..=9 give 40 962 / 163 842 / 655 362 / 2 621 442 cells).
//! * [`lloyd`] — topology-preserving Lloyd relaxation nudging generators
//!   toward cell centroids (the *centroidal* property of an SCVT). Sweeps
//!   run on the triangulation; the full mesh is built once, afterwards, in
//!   its final numbering ([`generate_ordered`]).
//! * [`voronoi`] — the Voronoi dual and the complete MPAS horizontal-mesh
//!   connectivity/geometry spec ([`Mesh`]), including the TRiSK
//!   `weightsOnEdge` operator needed by the C-grid shallow-water scheme.
//! * [`reorder`] — SFC and breadth-first renumberings for gather locality,
//!   derived from a triangulation before assembly or from a built mesh.
//! * [`partition`] — recursive-coordinate-bisection domain decomposition
//!   with multi-layer halos, the substrate for the message-passing runtime.
//!
//! The three MPAS point types live here: *mass* points (cell centers),
//! *velocity* points (edge midpoints), *vorticity* points (Voronoi corners =
//! Delaunay triangle circumcenters).

pub mod density;
pub mod icosahedron;
pub mod lloyd;
pub mod mesh;
pub mod partition;
pub mod quality;
pub mod reorder;
pub mod sfc;
pub mod submesh;
pub mod voronoi;

pub use density::{bump_density, generate_variable};
pub use icosahedron::{IcosaGrid, TABLE3_LEVELS};
pub use mesh::{CellId, EdgeId, Mesh, VertexId};
pub use partition::{MeshPartition, RankLocal};
pub use quality::MeshQuality;
pub use reorder::{gather_spread, MeshPermutation, Reordering};
pub use sfc::sfc_partition;
pub use submesh::{extract_local_mesh, LocalMesh};
pub use voronoi::build_mesh;

/// Generate a quasi-uniform spherical mesh at the given icosahedral
/// subdivision level, optionally with `lloyd_iters` relaxation sweeps, and
/// build the full MPAS connectivity, in construction order.
///
/// The sweeps run on the triangulation and the mesh is built once, after
/// the last one ([`lloyd`]); the result is the mesh that alternating
/// [`build_mesh`] and [`lloyd::lloyd_step`] produces, bit for bit.
///
/// This is the one-call entry point used by examples and benches; it is
/// `generate_ordered(level, lloyd_iters, Reordering::None)`.
pub fn generate(level: u32, lloyd_iters: u32) -> Mesh {
    generate_ordered(level, lloyd_iters, Reordering::None)
}

/// [`generate`], numbered per `reorder`: the mesh that
/// `generate(level, lloyd_iters)` renumbered by [`Mesh::reordered`] under
/// `reorder.permutation(..)` would be, bit for bit, without building it
/// twice. After the last sweep the permutation is derived from the
/// triangulation and the triangulation is renumbered, then the mesh is
/// assembled once, in its final numbering. [`Reordering::None`] does no
/// permutation work.
pub fn generate_ordered(level: u32, lloyd_iters: u32, reorder: Reordering) -> Mesh {
    lloyd::relaxed_mesh(
        level,
        lloyd_iters,
        reorder,
        mpas_geom::spherical_polygon_centroid,
    )
}

/// Mesh construction is pinned bit for bit: every array of every mesh,
/// renumbering, partition and local mesh below must hash to its recorded
/// digest, so a change to how they are built may not change what is
/// built. The geometry goes through the platform's `atan2`/`sqrt`; the
/// digests were recorded on x86-64 Linux.
#[cfg(test)]
mod bitwise_tests {
    use super::*;
    use crate::partition::rcb_partition;
    use mpas_geom::Vec3;

    /// Incremental FNV-1a over little-endian arrays, each prefixed by its
    /// length as a `u64`.
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Self {
            Fnv(0xcbf2_9ce4_8422_2325)
        }

        fn put(&mut self, bytes: &[u8]) {
            self.0 = bytes.iter().fold(self.0, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
        }

        fn array<T: Copy, const N: usize>(&mut self, xs: &[T], le: fn(T) -> [u8; N]) {
            self.put(&(xs.len() as u64).to_le_bytes());
            xs.iter().for_each(|&x| self.put(&le(x)));
        }

        /// Points: the length counts points, each three floats.
        fn points(&mut self, ps: &[Vec3]) {
            self.put(&(ps.len() as u64).to_le_bytes());
            let xyz = ps.iter().flat_map(|p| [p.x, p.y, p.z]);
            xyz.for_each(|c| self.put(&c.to_le_bytes()));
        }
    }

    /// FNV-1a over id lists, each prefixed by its length.
    fn ids_digest<'a>(lists: impl IntoIterator<Item = &'a [u32]>) -> u64 {
        let mut h = Fnv::new();
        for ids in lists {
            h.array(ids, u32::to_le_bytes);
        }
        h.0
    }

    /// FNV-1a over every field of `mesh`, bit for bit: a tag, the radius,
    /// then each array (fixed-width rows flattened). The digests below were
    /// recorded over this byte stream, once the image of a mesh file.
    fn mesh_digest(m: &Mesh) -> u64 {
        let mut h = Fnv::new();
        h.put(b"MPASMSH1");
        h.put(&m.sphere_radius.to_le_bytes());
        for ps in [&m.x_cell, &m.x_edge, &m.x_vertex] {
            h.points(ps);
        }
        let ids: [&[u32]; 8] = [
            m.cells_on_edge.as_flattened(),
            m.vertices_on_edge.as_flattened(),
            m.cells_on_vertex.as_flattened(),
            m.edges_on_vertex.as_flattened(),
            &m.cell_offsets,
            &m.edges_on_cell,
            &m.vertices_on_cell,
            &m.cells_on_cell,
        ];
        for xs in ids {
            h.array(xs, u32::to_le_bytes);
        }
        h.array(&m.edge_sign_on_cell, i8::to_le_bytes);
        for xs in [&m.eoe_offsets, &m.edges_on_edge] {
            h.array(xs, u32::to_le_bytes);
        }
        let floats: [&[f64]; 6] = [
            &m.weights_on_edge,
            &m.dc_edge,
            &m.dv_edge,
            &m.area_cell,
            &m.area_triangle,
            m.kite_areas_on_vertex.as_flattened(),
        ];
        for xs in floats {
            h.array(xs, f64::to_le_bytes);
        }
        for ps in [&m.normal_edge, &m.tangent_edge] {
            h.points(ps);
        }
        h.array(m.edge_sign_on_vertex.as_flattened(), i8::to_le_bytes);
        h.array(&m.boundary_edge, |b| [b as u8]);
        h.0
    }

    /// Per level 0..=5: no Lloyd; one Lloyd sweep; that in SFC order; in
    /// BFS order.
    #[rustfmt::skip]
    const RECORDED: [[u64; 4]; 6] = [
        [0x69e4387907426a94, 0x685478cdc14410c0, 0x67e3d76b29138c20, 0xd678eba795938994],
        [0xe363e19c4182a17e, 0xea6b13094787443f, 0x2cc7f1ec756ea4bc, 0x8ad06e5728725b9a],
        [0xc63a58db3575d9b0, 0x6ab623cf261fc1bd, 0x18e49507d309ffbd, 0xe1b793ae7cf0102c],
        [0xf8b480970a5561c0, 0x2af062c480509630, 0x1a926657e703dd25, 0xbd2a754eb082eb00],
        [0x6798f41c3d0bc96f, 0x355c7a773d37f6c7, 0xcc24eadf0429dce8, 0xa5f23158c51785bb],
        [0x87bdc43fbd3c1cef, 0x673f1dd6b2968122, 0xd2b385ce8f9e3b9d, 0x66d67f32126be916],
    ];

    /// Per level 0..=6: no Lloyd in SFC order; in BFS order. Recorded
    /// through `Mesh::reordered` before `generate_ordered` existed.
    #[rustfmt::skip]
    const UNRELAXED_RECORDED: [[u64; 2]; 7] = [
        [0xce1138b14889f3fc, 0xc578b36be86a6480],
        [0x70bafc10db66d19d, 0x11d6a6e67c96f479],
        [0xe2da4014098b3728, 0x14c2328d58455d51],
        [0x0f617999d3d862e1, 0xff1073a157346780],
        [0xbd1a64b1ca15f6a4, 0xcdec37675dbed091],
        [0x1ba8acdcc433f2b4, 0xc0290585af9d82d1],
        [0xfbcce51e4f98f502, 0x38d2a0e15085736a],
    ];

    /// Per level 0..=5: two Lloyd sweeps; three.
    #[rustfmt::skip]
    const REPEATED: [[u64; 2]; 6] = [
        [0x92017cc88e8979d6, 0xac947c9e57730cb8],
        [0x6f0a25ee4addf4eb, 0xd8d0e39ab316545b],
        [0x1307c07d9bc265ae, 0x6cdd3e051bbb6afa],
        [0x263d11db0f46ba21, 0x6f592dd689ede686],
        [0x204bd7cc95007a95, 0x6257c85aca5172b5],
        [0xfdf73b79d4f7cd0e, 0x2d60ecca1ce3d679],
    ];

    /// Level 4 after two sweeps, in SFC order (recorded with
    /// `UNRELAXED_RECORDED`).
    const LEVEL4_TWO_SWEEPS_SFC: u64 = 0x3c834d6072ccbb36;

    /// The level-7 mesh of the `l7-short` benchmark workload: one Lloyd
    /// sweep, SFC order.
    const LEVEL7_FORECAST: u64 = 0x501758e9fdad5282;

    const ORDERINGS: [Reordering; 2] = [Reordering::Sfc, Reordering::Bfs];

    /// `mesh` renumbered by `reorder` the way a mesh built elsewhere is.
    fn reordered(mesh: &Mesh, reorder: Reordering) -> Mesh {
        mesh.reordered(&reorder.permutation(mesh))
    }

    #[test]
    fn meshes_and_renumberings_keep_their_bits() {
        for (level, recorded) in (0u32..).zip(RECORDED) {
            let lloyd = generate(level, 1);
            let got = [
                mesh_digest(&generate(level, 0)),
                mesh_digest(&lloyd),
                mesh_digest(&reordered(&lloyd, Reordering::Sfc)),
                mesh_digest(&reordered(&lloyd, Reordering::Bfs)),
            ];
            assert_eq!(got, recorded, "level {level}");
        }
    }

    #[test]
    fn unrelaxed_renumberings_keep_their_bits() {
        for (level, recorded) in (0u32..).zip(UNRELAXED_RECORDED) {
            let mesh = generate(level, 0);
            let got = ORDERINGS.map(|ord| mesh_digest(&reordered(&mesh, ord)));
            assert_eq!(got, recorded, "level {level}");
        }
        let mesh = generate(4, 2);
        assert_eq!(
            mesh_digest(&reordered(&mesh, Reordering::Sfc)),
            LEVEL4_TWO_SWEEPS_SFC
        );
    }

    #[test]
    fn ordered_generation_reproduces_every_recorded_mesh() {
        let ordered = |level, sweeps, ord| mesh_digest(&generate_ordered(level, sweeps, ord));
        for (level, recorded) in (0u32..).zip(RECORDED) {
            let got = [
                ordered(level, 0, Reordering::None),
                ordered(level, 1, Reordering::None),
                ordered(level, 1, Reordering::Sfc),
                ordered(level, 1, Reordering::Bfs),
            ];
            assert_eq!(got, recorded, "level {level}");
        }
        for (level, recorded) in (0u32..).zip(UNRELAXED_RECORDED) {
            let got = ORDERINGS.map(|ord| ordered(level, 0, ord));
            assert_eq!(got, recorded, "level {level}");
        }
        for (level, recorded) in (0u32..).zip(REPEATED) {
            let got = [2, 3].map(|sweeps| ordered(level, sweeps, Reordering::None));
            assert_eq!(got, recorded, "level {level}");
        }
        assert_eq!(ordered(4, 2, Reordering::Sfc), LEVEL4_TWO_SWEEPS_SFC);
    }

    #[test]
    fn repeated_sweeps_keep_their_bits() {
        for (level, recorded) in (0u32..).zip(REPEATED) {
            let got = [2, 3].map(|sweeps| mesh_digest(&generate(level, sweeps)));
            assert_eq!(got, recorded, "level {level}");
        }
    }

    #[test]
    fn density_weighted_sweeps_keep_their_bits() {
        // The `variable_resolution` example's bump over the TC5 mountain.
        let center = mpas_geom::LonLat::new(1.5 * std::f64::consts::PI, std::f64::consts::PI / 6.0)
            .to_unit_vector();
        let mesh = generate_variable(4, 3, bump_density(center, 0.5, 6.0));
        assert_eq!(mesh_digest(&mesh), 0x543b17a2bf6d9ad1);
    }

    #[test]
    fn level7_forecast_mesh_keeps_its_bits() {
        // Through both paths: renumbering the built mesh, and assembling
        // it in its final numbering.
        let lloyd = generate(7, 1);
        assert_eq!(
            mesh_digest(&reordered(&lloyd, Reordering::Sfc)),
            LEVEL7_FORECAST
        );
        drop(lloyd);
        assert_eq!(
            mesh_digest(&generate_ordered(7, 1, Reordering::Sfc)),
            LEVEL7_FORECAST
        );
    }

    #[test]
    fn grid_sweeps_move_generators_like_mesh_sweeps() {
        use crate::icosahedron::TriEdges;
        use crate::voronoi::Rings;
        let bits = |p: &mpas_geom::Vec3| [p.x, p.y, p.z].map(f64::to_bits);
        for level in 2..=4 {
            let mut grid = IcosaGrid::subdivide(level);
            let mut reference = grid.clone();
            let edges = TriEdges::of(grid.n_points(), &grid.triangles);
            let mut rings = Rings::default();
            for n in 1..=3 {
                let moved = lloyd::sweep(
                    &mut grid,
                    &edges,
                    &mut rings,
                    mpas_geom::spherical_polygon_centroid,
                );
                let mesh = build_mesh(&reference);
                let expected = lloyd::lloyd_step(&mut reference, &mesh);
                assert_eq!(
                    moved.to_bits(),
                    expected.to_bits(),
                    "level {level} sweep {n}"
                );
                assert!(
                    grid.points
                        .iter()
                        .map(bits)
                        .eq(reference.points.iter().map(bits)),
                    "level {level} sweep {n}: a generator moved elsewhere"
                );
            }
        }
    }

    #[test]
    fn partitions_and_local_meshes_keep_their_bits() {
        let mesh = reordered(&generate(4, 1), Reordering::Sfc);
        let rcb = rcb_partition(&mesh, 7);
        let sfc = sfc_partition(&mesh, 5);
        let part = MeshPartition::build(&mesh, 3, 3);
        let mut lists: Vec<Vec<u32>> =
            vec![rcb, sfc, part.owner_cell.clone(), part.owner_edge.clone()];
        for rl in &part.ranks {
            lists.extend([rl.cells.clone(), rl.edges.clone(), rl.vertices.clone()]);
        }
        for rl in &part.ranks {
            for exchange in [
                &rl.send_cells,
                &rl.recv_cells,
                &rl.send_edges,
                &rl.recv_edges,
            ] {
                for (peer, ids) in exchange {
                    lists.extend([vec![*peer as u32], ids.clone()]);
                }
            }
        }
        assert_eq!(
            ids_digest(lists.iter().map(Vec::as_slice)),
            0xe2a8b146a0658f92
        );

        let mut lists: Vec<Vec<u32>> = Vec::new();
        for rl in &part.ranks {
            let lm = extract_local_mesh(&mesh, rl);
            let d = mesh_digest(&lm.mesh);
            let counts = [lm.n_owned_cells, lm.n_compute_cells, lm.n_owned_edges];
            lists.push(
                [d as u32, (d >> 32) as u32]
                    .into_iter()
                    .chain(counts.map(|n| n as u32))
                    .collect(),
            );
            lists.extend([lm.cell_l2g, lm.edge_l2g, lm.vertex_l2g]);
        }
        assert_eq!(
            ids_digest(lists.iter().map(Vec::as_slice)),
            0x013e0bed42593fcd
        );
    }
}
