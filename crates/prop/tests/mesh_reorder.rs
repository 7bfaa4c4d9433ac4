//! Property tests of the renumbering layer (DESIGN.md §9): every ordering at every
//! small level yields a permutation whose reordered mesh re-passes the
//! full structural [`Mesh::validate`] sweep, and whose field helpers
//! round-trip exactly; a mesh assembled in its final numbering equals the
//! mesh renumbered after it was built, bit for bit.

use mpas_geom::Vec3;
use mpas_mesh::{gather_spread, Mesh, MeshPermutation, Reordering};
use mpas_prop::check;

const CASES: usize = 8;
const ORDERINGS: [Reordering; 2] = [Reordering::Sfc, Reordering::Bfs];

/// `generate_ordered(level, sweeps, ord)` equals `generate(level, sweeps)`
/// followed by `reordered` under `ord`'s permutation, array for array and
/// bit for bit, over every level 0–3, sweep count 0–2 and ordering
/// (`None` included: no renumbering at all against the identity one).
#[test]
fn ordered_generation_equals_generate_then_reordered() {
    for level in 0..4 {
        for sweeps in 0..3 {
            let base = mpas_mesh::generate(level, sweeps);
            for ord in [Reordering::None, Reordering::Sfc, Reordering::Bfs] {
                let renumbered = base.reordered(&ord.permutation(&base));
                let ordered = mpas_mesh::generate_ordered(level, sweeps, ord);
                let what = format!("level {level}, {sweeps} sweeps, {}", ord.name());
                assert_same_bits(&ordered, &renumbered, &what);
            }
        }
    }
}

/// Panic naming the first array of `a` whose bits differ from `b`'s. `a`
/// is destructured whole, so a new mesh array must be added here.
fn assert_same_bits(a: &Mesh, b: &Mesh, what: &str) {
    fn f64s(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }
    fn vec3s(xs: &[Vec3]) -> Vec<[u64; 3]> {
        xs.iter()
            .map(|p| [p.x, p.y, p.z].map(f64::to_bits))
            .collect()
    }
    let Mesh {
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
        boundary_edge,
    } = a;
    let check = |same: bool, array: &str| assert!(same, "{what}: {array} differs");
    check(
        sphere_radius.to_bits() == b.sphere_radius.to_bits(),
        "sphere_radius",
    );
    check(vec3s(x_cell) == vec3s(&b.x_cell), "x_cell");
    check(vec3s(x_edge) == vec3s(&b.x_edge), "x_edge");
    check(vec3s(x_vertex) == vec3s(&b.x_vertex), "x_vertex");
    check(*cells_on_edge == b.cells_on_edge, "cells_on_edge");
    check(*vertices_on_edge == b.vertices_on_edge, "vertices_on_edge");
    check(*cells_on_vertex == b.cells_on_vertex, "cells_on_vertex");
    check(*edges_on_vertex == b.edges_on_vertex, "edges_on_vertex");
    check(*cell_offsets == b.cell_offsets, "cell_offsets");
    check(*edges_on_cell == b.edges_on_cell, "edges_on_cell");
    check(*vertices_on_cell == b.vertices_on_cell, "vertices_on_cell");
    check(*cells_on_cell == b.cells_on_cell, "cells_on_cell");
    check(
        *edge_sign_on_cell == b.edge_sign_on_cell,
        "edge_sign_on_cell",
    );
    check(*eoe_offsets == b.eoe_offsets, "eoe_offsets");
    check(*edges_on_edge == b.edges_on_edge, "edges_on_edge");
    check(
        f64s(weights_on_edge) == f64s(&b.weights_on_edge),
        "weights_on_edge",
    );
    check(f64s(dc_edge) == f64s(&b.dc_edge), "dc_edge");
    check(f64s(dv_edge) == f64s(&b.dv_edge), "dv_edge");
    check(f64s(area_cell) == f64s(&b.area_cell), "area_cell");
    check(
        f64s(area_triangle) == f64s(&b.area_triangle),
        "area_triangle",
    );
    check(
        f64s(kite_areas_on_vertex.as_flattened()) == f64s(b.kite_areas_on_vertex.as_flattened()),
        "kite_areas_on_vertex",
    );
    check(vec3s(normal_edge) == vec3s(&b.normal_edge), "normal_edge");
    check(
        vec3s(tangent_edge) == vec3s(&b.tangent_edge),
        "tangent_edge",
    );
    check(
        *edge_sign_on_vertex == b.edge_sign_on_vertex,
        "edge_sign_on_vertex",
    );
    check(*boundary_edge == b.boundary_edge, "boundary_edge");
}

/// `reordered(perm)` re-validates for both non-trivial orderings at
/// the paper's small levels, and the cell gather spread (mean |i - j|
/// over cell adjacencies, the locality proxy) does not regress versus
/// the construction order.
#[test]
fn reordered_mesh_revalidates() {
    check(CASES, |rng| {
        let mesh = mpas_mesh::generate(rng.range(3u32..6), 0);
        let perm = rng.pick(&ORDERINGS).permutation(&mesh);
        perm.validate(&mesh);
        let re = mesh.reordered(&perm);
        re.validate();
        assert_eq!(re.n_cells(), mesh.n_cells());
        assert_eq!(re.n_edges(), mesh.n_edges());
        assert_eq!(re.n_vertices(), mesh.n_vertices());
        assert!(gather_spread(&re) <= gather_spread(&mesh));
    });
}

/// permute ∘ unpermute is the identity on all three entity classes,
/// for random fields.
#[test]
fn field_permutation_round_trips() {
    check(CASES, |rng| {
        let mesh = mpas_mesh::generate(rng.range(3u32..6), 0);
        let perm = rng.pick(&ORDERINGS).permutation(&mesh);
        let seed = rng.range(0.0..1.0);

        let cf: Vec<f64> = (0..mesh.n_cells())
            .map(|i| (i as f64 * 0.7 + seed).sin())
            .collect();
        let ef: Vec<f64> = (0..mesh.n_edges())
            .map(|i| (i as f64 * 0.3 + seed).cos())
            .collect();
        let vf: Vec<f64> = (0..mesh.n_vertices())
            .map(|i| (i as f64 * 0.9 + seed).sin())
            .collect();

        assert_eq!(perm.unpermute_cell_field(&perm.permute_cell_field(&cf)), cf);
        assert_eq!(perm.unpermute_edge_field(&perm.permute_edge_field(&ef)), ef);
        assert_eq!(
            perm.unpermute_vertex_field(&perm.permute_vertex_field(&vf)),
            vf
        );
    });
}

/// The identity permutation reproduces the mesh exactly (spot-checked
/// on the connectivity arrays a non-trivial ordering rewrites).
#[test]
fn identity_reorder_is_a_no_op() {
    check(CASES, |rng| {
        let mesh = mpas_mesh::generate(rng.range(3u32..5), 0);
        let re = mesh.reordered(&MeshPermutation::identity(&mesh));
        assert_eq!(&re.edges_on_cell, &mesh.edges_on_cell);
        assert_eq!(&re.cells_on_edge, &mesh.cells_on_edge);
        assert_eq!(&re.edges_on_vertex, &mesh.edges_on_vertex);
        assert_eq!(&re.dc_edge, &mesh.dc_edge);
        assert_eq!(&re.area_cell, &mesh.area_cell);
    });
}
