//! Range-based pattern-instance operators (gather / regularity-aware form).
//!
//! One function per Table-I instance. **Output convention:** the `out`
//! slice covers exactly the requested range (`out[k - range.start]` is the
//! value at global index `k`); inputs are always full-length arrays indexed
//! globally. Each call therefore touches only its own output chunk — the
//! regularity-aware property (Alg. 3) that lets executors hand disjoint
//! `&mut` chunks of one field to any number of threads or simulated
//! devices with no aliasing.

use crate::coeffs::KernelCoeffs;
use crate::config::ModelConfig;
use crate::reconstruct::zonal_meridional_in;
use mpas_mesh::Mesh;
use std::ops::Range;

/// A1 — thickness tendency: `tend_h(i) = −(1/A_i) Σ_e s_ie u_e h_edge_e l_e`.
pub fn tend_h(mesh: &Mesh, u: &[f64], h_edge: &[f64], out: &mut [f64], cells: Range<usize>) {
    let off = cells.start;
    for i in cells {
        let range = mesh.cell_range(i);
        let mut acc = 0.0;
        for slot in range {
            let e = mesh.edges_on_cell[slot] as usize;
            let s = mesh.edge_sign_on_cell[slot] as f64;
            acc += s * u[e] * h_edge[e] * mesh.dv_edge[e];
        }
        out[i - off] = -acc / mesh.area_cell[i];
    }
}

/// T1 — tracer-mass tendency (flux-form advection):
/// `tend_hq(i) = −(1/A_i) Σ_e s_ie u_e h_edge_e q_edge_e l_e` with the
/// centered edge mixing ratio `q_edge = ½(hq₁/h₁ + hq₂/h₂)`.
///
/// The per-edge flux enters its two cells with exactly opposite sign
/// (multiplying by `s = ±1` is exact in IEEE-754), so total tracer mass
/// `Σ A_i hq_i` telescopes to rounding — the same conservation argument as
/// A1. `h` and `hq` are the *same-stage* cell fields that produced
/// `h_edge`.
pub fn tend_tracer(
    mesh: &Mesh,
    u: &[f64],
    h_edge: &[f64],
    h: &[f64],
    hq: &[f64],
    out: &mut [f64],
    cells: Range<usize>,
) {
    let off = cells.start;
    for i in cells {
        let mut acc = 0.0;
        for slot in mesh.cell_range(i) {
            let e = mesh.edges_on_cell[slot] as usize;
            let s = mesh.edge_sign_on_cell[slot] as f64;
            let [c1, c2] = mesh.cells_on_edge[e];
            let q_edge =
                0.5 * (hq[c1 as usize] / h[c1 as usize] + hq[c2 as usize] / h[c2 as usize]);
            acc += s * u[e] * h_edge[e] * mesh.dv_edge[e] * q_edge;
        }
        out[i - off] = -acc / mesh.area_cell[i];
    }
}

/// B1 — momentum tendency: TRiSK Coriolis/advection flux plus the gradient
/// of the Bernoulli function `K + g (h + b)`.
#[allow(clippy::too_many_arguments)]
pub fn tend_u(
    mesh: &Mesh,
    gravity: f64,
    pv_edge: &[f64],
    u: &[f64],
    h_edge: &[f64],
    ke: &[f64],
    h: &[f64],
    b: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    let off = edges.start;
    for e in edges {
        let [c1, c2] = mesh.cells_on_edge[e];
        let (c1, c2) = (c1 as usize, c2 as usize);
        let mut q = 0.0;
        for slot in mesh.eoe_range(e) {
            let eoe = mesh.edges_on_edge[slot] as usize;
            let w = mesh.weights_on_edge[slot];
            let workpv = 0.5 * (pv_edge[e] + pv_edge[eoe]);
            q += w * u[eoe] * h_edge[eoe] * workpv;
        }
        let grad = (ke[c2] - ke[c1] + gravity * (h[c2] + b[c2] - h[c1] - b[c1])) / mesh.dc_edge[e];
        out[e - off] = q - grad;
    }
}

/// C1 — del2 momentum dissipation:
/// `tend_u += ν [ (δ div)/dc − (δ ζ)/dv ]` (vector Laplacian in div/curl
/// form on the C-grid). Read-modify-write on `tend_u`.
pub fn tend_u_del2(
    mesh: &Mesh,
    nu: f64,
    divergence: &[f64],
    vorticity: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    let off = edges.start;
    for e in edges {
        let [c1, c2] = mesh.cells_on_edge[e];
        let [v1, v2] = mesh.vertices_on_edge[e];
        let d = (divergence[c2 as usize] - divergence[c1 as usize]) / mesh.dc_edge[e];
        let z = (vorticity[v2 as usize] - vorticity[v1 as usize]) / mesh.dv_edge[e];
        out[e - off] += nu * (d - z);
    }
}

/// C1 (chained) — the vector Laplacian of `u` in div/curl form, the inner
/// stage of the del4 hyperviscosity: `lap_u(e) = (δ div)/dc − (δ ζ)/dv`.
pub fn lap_u(
    mesh: &Mesh,
    divergence: &[f64],
    vorticity: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    let off = edges.start;
    for e in edges {
        let [c1, c2] = mesh.cells_on_edge[e];
        let [v1, v2] = mesh.vertices_on_edge[e];
        let d = (divergence[c2 as usize] - divergence[c1 as usize]) / mesh.dc_edge[e];
        let z = (vorticity[v2 as usize] - vorticity[v1 as usize]) / mesh.dv_edge[e];
        out[e - off] = d - z;
    }
}

/// C1 (chained) — apply the outer del4 stage:
/// `tend_u -= ν₄ [ (δ div_lap)/dc − (δ ζ_lap)/dv ]` where `div_lap`/`ζ_lap`
/// are the divergence and curl of the inner Laplacian. Read-modify-write.
pub fn tend_u_del4(
    mesh: &Mesh,
    nu4: f64,
    div_lap: &[f64],
    vort_lap: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    let off = edges.start;
    for e in edges {
        let [c1, c2] = mesh.cells_on_edge[e];
        let [v1, v2] = mesh.vertices_on_edge[e];
        let d = (div_lap[c2 as usize] - div_lap[c1 as usize]) / mesh.dc_edge[e];
        let z = (vort_lap[v2 as usize] - vort_lap[v1 as usize]) / mesh.dv_edge[e];
        out[e - off] -= nu4 * (d - z);
    }
}

/// X1 — boundary enforcement: zero the tendency on masked edges.
pub fn enforce_boundary(mesh: &Mesh, tend_u: &mut [f64], edges: Range<usize>) {
    let off = edges.start;
    for e in edges {
        if mesh.boundary_edge[e] {
            tend_u[e - off] = 0.0;
        }
    }
}

/// X2/X3 — provisional state: `out = base + coef·tend`.
pub fn axpy(base: &[f64], tend: &[f64], coef: f64, out: &mut [f64], range: Range<usize>) {
    let off = range.start;
    for k in range {
        out[k - off] = base[k] + coef * tend[k];
    }
}

/// X4/X5 — accumulation: `acc += weight·tend`.
pub fn accumulate(tend: &[f64], weight: f64, acc: &mut [f64], range: Range<usize>) {
    let off = range.start;
    for k in range {
        acc[k - off] += weight * tend[k];
    }
}

/// D1/D2 — second-derivative blend terms at each edge's two cells: the
/// finite-volume Laplacian of `h` evaluated at cell 1 and cell 2.
///
/// MPAS fits a quadratic (`deriv_two`); the cell Laplacian gives the same
/// O(dc²) correction on quasi-uniform meshes with a 7-point stencil of the
/// same shape (DESIGN.md §5 documents the substitution).
pub fn d2fdx2(mesh: &Mesh, h: &[f64], out1: &mut [f64], out2: &mut [f64], edges: Range<usize>) {
    let lap = |c: usize| -> f64 {
        let mut acc = 0.0;
        for slot in mesh.cell_range(c) {
            let e = mesh.edges_on_cell[slot] as usize;
            let nb = mesh.cells_on_cell[slot] as usize;
            acc += (h[nb] - h[c]) / mesh.dc_edge[e] * mesh.dv_edge[e];
        }
        acc / mesh.area_cell[c]
    };
    let off = edges.start;
    for e in edges {
        let [c1, c2] = mesh.cells_on_edge[e];
        out1[e - off] = lap(c1 as usize);
        out2[e - off] = lap(c2 as usize);
    }
}

/// H2 — thickness at edges: mid-edge average, optionally blended with the
/// D1/D2 second-derivative terms for higher-order accuracy.
pub fn h_edge(
    mesh: &Mesh,
    config: &ModelConfig,
    h: &[f64],
    d2fdx2_cell1: &[f64],
    d2fdx2_cell2: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    if config.high_order_h_edge {
        let off = edges.start;
        for e in edges {
            let [c1, c2] = mesh.cells_on_edge[e];
            let dc2 = mesh.dc_edge[e] * mesh.dc_edge[e];
            out[e - off] = 0.5 * (h[c1 as usize] + h[c2 as usize])
                - dc2 / 12.0 * 0.5 * (d2fdx2_cell1[e] + d2fdx2_cell2[e]);
        }
    } else {
        let off = edges.start;
        for e in edges {
            let [c1, c2] = mesh.cells_on_edge[e];
            out[e - off] = 0.5 * (h[c1 as usize] + h[c2 as usize]);
        }
    }
}

/// C2 — relative vorticity at vertices: circulation around the dual
/// triangle over its area.
pub fn vorticity(mesh: &Mesh, u: &[f64], out: &mut [f64], vertices: Range<usize>) {
    let off = vertices.start;
    for v in vertices {
        let mut circ = 0.0;
        for k in 0..3 {
            let e = mesh.edges_on_vertex[v][k] as usize;
            circ += mesh.edge_sign_on_vertex[v][k] as f64 * u[e] * mesh.dc_edge[e];
        }
        out[v - off] = circ / mesh.area_triangle[v];
    }
}

/// A2 — kinetic energy at cells: `ke_i = Σ_e ¼ dc_e dv_e u_e² / A_i`.
pub fn ke(mesh: &Mesh, u: &[f64], out: &mut [f64], cells: Range<usize>) {
    let off = cells.start;
    for i in cells {
        let mut acc = 0.0;
        for slot in mesh.cell_range(i) {
            let e = mesh.edges_on_cell[slot] as usize;
            acc += 0.25 * mesh.dc_edge[e] * mesh.dv_edge[e] * u[e] * u[e];
        }
        out[i - off] = acc / mesh.area_cell[i];
    }
}

/// B2 — velocity divergence at cells.
pub fn divergence(mesh: &Mesh, u: &[f64], out: &mut [f64], cells: Range<usize>) {
    let off = cells.start;
    for i in cells {
        let mut acc = 0.0;
        for slot in mesh.cell_range(i) {
            let e = mesh.edges_on_cell[slot] as usize;
            acc += mesh.edge_sign_on_cell[slot] as f64 * u[e] * mesh.dv_edge[e];
        }
        out[i - off] = acc / mesh.area_cell[i];
    }
}

/// H1 — tangential velocity by the TRiSK reconstruction.
pub fn tangential_velocity(mesh: &Mesh, u: &[f64], out: &mut [f64], edges: Range<usize>) {
    let off = edges.start;
    for e in edges {
        let mut acc = 0.0;
        for slot in mesh.eoe_range(e) {
            acc += mesh.weights_on_edge[slot] * u[mesh.edges_on_edge[slot] as usize];
        }
        out[e - off] = acc;
    }
}

/// A3 — relative vorticity at cells: kite-area average of the vertex
/// vorticity (the same interpolation MPAS uses for `pv_cell`).
pub fn vorticity_cell(mesh: &Mesh, vorticity: &[f64], out: &mut [f64], cells: Range<usize>) {
    let off = cells.start;
    for i in cells {
        let mut acc = 0.0;
        for slot in mesh.cell_range(i) {
            let v = mesh.vertices_on_cell[slot] as usize;
            let kslot = mesh.cells_on_vertex[v]
                .iter()
                .position(|&c| c as usize == i)
                .expect("vertex/cell inconsistency");
            acc += mesh.kite_areas_on_vertex[v][kslot] * vorticity[v];
        }
        out[i - off] = acc / mesh.area_cell[i];
    }
}

/// E — potential vorticity at vertices: `(f_v + ζ_v) / h_v` with the
/// thickness interpolated by kite areas.
pub fn pv_vertex(
    mesh: &Mesh,
    h: &[f64],
    vorticity: &[f64],
    f_vertex: &[f64],
    out: &mut [f64],
    vertices: Range<usize>,
) {
    let off = vertices.start;
    for v in vertices {
        let mut hv = 0.0;
        for k in 0..3 {
            hv += mesh.kite_areas_on_vertex[v][k] * h[mesh.cells_on_vertex[v][k] as usize];
        }
        hv /= mesh.area_triangle[v];
        out[v - off] = (f_vertex[v] + vorticity[v]) / hv;
    }
}

/// F — potential vorticity at cells: kite-area average of the vertex PV.
pub fn pv_cell(mesh: &Mesh, pv_vertex: &[f64], out: &mut [f64], cells: Range<usize>) {
    let off = cells.start;
    for i in cells {
        let mut acc = 0.0;
        for slot in mesh.cell_range(i) {
            let v = mesh.vertices_on_cell[slot] as usize;
            let kslot = mesh.cells_on_vertex[v]
                .iter()
                .position(|&c| c as usize == i)
                .expect("vertex/cell inconsistency");
            acc += mesh.kite_areas_on_vertex[v][kslot] * pv_vertex[v];
        }
        out[i - off] = acc / mesh.area_cell[i];
    }
}

/// G — potential vorticity at edges with APVM upwinding:
/// `q_e = ½(q_v1 + q_v2) − ½·apvm·dt·(u ∂q/∂n + v ∂q/∂t)`.
#[allow(clippy::too_many_arguments)]
pub fn pv_edge(
    mesh: &Mesh,
    apvm_factor: f64,
    dt: f64,
    pv_vertex: &[f64],
    pv_cell: &[f64],
    u: &[f64],
    v: &[f64],
    out: &mut [f64],
    edges: Range<usize>,
) {
    let off = edges.start;
    for e in edges {
        let [v1, v2] = mesh.vertices_on_edge[e];
        let [c1, c2] = mesh.cells_on_edge[e];
        let base = 0.5 * (pv_vertex[v1 as usize] + pv_vertex[v2 as usize]);
        let grad_t = (pv_vertex[v2 as usize] - pv_vertex[v1 as usize]) / mesh.dv_edge[e];
        let grad_n = (pv_cell[c2 as usize] - pv_cell[c1 as usize]) / mesh.dc_edge[e];
        out[e - off] = base - apvm_factor * dt * (u[e] * grad_n + v[e] * grad_t);
    }
}

/// A4 — least-squares velocity reconstruction at cell centers, with the
/// weights `kc` builds on the first output request.
pub fn reconstruct_xyz(
    mesh: &Mesh,
    kc: &KernelCoeffs,
    u: &[f64],
    ux: &mut [f64],
    uy: &mut [f64],
    uz: &mut [f64],
    cells: Range<usize>,
) {
    let (off, weights) = (cells.start, &kc.output_tables(mesh).recon_weights);
    for i in cells {
        let mut v = mpas_geom::Vec3::ZERO;
        for slot in mesh.cell_range(i) {
            v += weights[slot] * u[mesh.edges_on_cell[slot] as usize];
        }
        ux[i - off] = v.x;
        uy[i - off] = v.y;
        uz[i - off] = v.z;
    }
}

/// X6 — rotate the Cartesian reconstruction into zonal/meridional
/// components: two dot products a cell with the east/north frames `kc`
/// builds on the first output request, bit for bit
/// [`mpas_geom::to_zonal_meridional`].
#[allow(clippy::too_many_arguments)]
pub fn zonal_meridional(
    mesh: &Mesh,
    kc: &KernelCoeffs,
    ux: &[f64],
    uy: &[f64],
    uz: &[f64],
    zonal: &mut [f64],
    meridional: &mut [f64],
    cells: Range<usize>,
) {
    let (off, frames) = (cells.start, &kc.output_tables(mesh).frames);
    for i in cells {
        let v = mpas_geom::Vec3::new(ux[i], uy[i], uz[i]);
        let (z, m) = zonal_meridional_in(&frames[i], v);
        zonal[i - off] = z;
        meridional[i - off] = m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_of_discrete_gradient_is_laplacian_sign() {
        // For u = ∇φ with φ = z (height), div u ≈ surface Laplacian of z,
        // which is −2z/R² on the unit sphere scaled — just check sign
        // structure: positive divergence where z < 0, negative where z > 0.
        let mesh = mpas_mesh::generate(3, 0);
        let phi: Vec<f64> = (0..mesh.n_cells())
            .map(|i| mesh.x_cell[i].z * 1e6)
            .collect();
        let u: Vec<f64> = (0..mesh.n_edges())
            .map(|e| {
                let [c1, c2] = mesh.cells_on_edge[e];
                (phi[c2 as usize] - phi[c1 as usize]) / mesh.dc_edge[e]
            })
            .collect();
        let mut div = vec![0.0; mesh.n_cells()];
        divergence(&mesh, &u, &mut div, 0..mesh.n_cells());
        for (i, &d) in div.iter().enumerate() {
            let z = mesh.x_cell[i].z;
            if z > 0.3 {
                assert!(d < 0.0, "cell {i}: div {d} at z {z}");
            }
            if z < -0.3 {
                assert!(d > 0.0, "cell {i}");
            }
        }
    }

    #[test]
    fn vorticity_of_solid_body_rotation_is_uniform() {
        // u = Ω'×r has curl 2Ω' (vertical component 2Ω'·r̂ on the sphere).
        let mesh = mpas_mesh::generate(4, 0);
        let om = 1e-5;
        let omega = mpas_geom::Vec3::Z * om;
        let u: Vec<f64> = (0..mesh.n_edges())
            .map(|e| {
                omega
                    .cross(mesh.x_edge[e] * mesh.sphere_radius)
                    .dot(mesh.normal_edge[e])
            })
            .collect();
        let mut vort = vec![0.0; mesh.n_vertices()];
        vorticity(&mesh, &u, &mut vort, 0..mesh.n_vertices());
        for (v, &z) in vort.iter().enumerate() {
            let expect = 2.0 * om * mesh.x_vertex[v].z;
            assert!(
                (z - expect).abs() < 0.02 * om.abs().max(expect.abs()),
                "vertex {v}: {z} vs {expect}"
            );
        }
    }

    #[test]
    fn vorticity_cell_matches_vertex_vorticity_for_solid_body() {
        let mesh = mpas_mesh::generate(4, 0);
        let om = 1e-5;
        let omega = mpas_geom::Vec3::Z * om;
        let u: Vec<f64> = (0..mesh.n_edges())
            .map(|e| {
                omega
                    .cross(mesh.x_edge[e] * mesh.sphere_radius)
                    .dot(mesh.normal_edge[e])
            })
            .collect();
        let mut vort = vec![0.0; mesh.n_vertices()];
        vorticity(&mesh, &u, &mut vort, 0..mesh.n_vertices());
        let mut vc = vec![0.0; mesh.n_cells()];
        vorticity_cell(&mesh, &vort, &mut vc, 0..mesh.n_cells());
        for (i, &z) in vc.iter().enumerate() {
            let expect = 2.0 * om * mesh.x_cell[i].z;
            // Pentagon cells carry the largest interpolation error.
            assert!((z - expect).abs() < 0.1 * om, "cell {i}: {z} vs {expect}");
        }
    }

    #[test]
    fn pv_vertex_reduces_to_f_over_h_at_rest() {
        let mesh = mpas_mesh::generate(2, 0);
        let h = vec![2000.0; mesh.n_cells()];
        let vort = vec![0.0; mesh.n_vertices()];
        let f: Vec<f64> = (0..mesh.n_vertices())
            .map(|v| 2.0 * mpas_geom::OMEGA * mesh.x_vertex[v].z)
            .collect();
        let mut pv = vec![0.0; mesh.n_vertices()];
        pv_vertex(&mesh, &h, &vort, &f, &mut pv, 0..mesh.n_vertices());
        for v in 0..mesh.n_vertices() {
            assert!((pv[v] - f[v] / 2000.0).abs() < 1e-18);
        }
    }

    #[test]
    fn pv_cell_preserves_constant_fields() {
        // Kite-area weights sum to the cell area, so a constant PV field
        // interpolates to exactly the same constant.
        let mesh = mpas_mesh::generate(3, 0);
        let pv = vec![3.25e-8; mesh.n_vertices()];
        let mut out = vec![0.0; mesh.n_cells()];
        pv_cell(&mesh, &pv, &mut out, 0..mesh.n_cells());
        for &o in &out {
            assert!((o - 3.25e-8).abs() < 1e-14 * 3.25e-8 + 1e-20);
        }
    }

    #[test]
    fn apvm_disabled_gives_plain_average() {
        let mesh = mpas_mesh::generate(2, 0);
        let pv_v: Vec<f64> = (0..mesh.n_vertices()).map(|v| (v as f64).sin()).collect();
        let pv_c = vec![0.0; mesh.n_cells()];
        let u = vec![10.0; mesh.n_edges()];
        let v = vec![5.0; mesh.n_edges()];
        let mut out = vec![0.0; mesh.n_edges()];
        pv_edge(
            &mesh,
            0.0,
            300.0,
            &pv_v,
            &pv_c,
            &u,
            &v,
            &mut out,
            0..mesh.n_edges(),
        );
        for (e, &o) in out.iter().enumerate() {
            let [v1, v2] = mesh.vertices_on_edge[e];
            let expect = 0.5 * (pv_v[v1 as usize] + pv_v[v2 as usize]);
            assert_eq!(o, expect);
        }
    }

    #[test]
    fn range_splitting_is_exact() {
        // Any op computed in two chunks equals the full-range result.
        let mesh = mpas_mesh::generate(2, 0);
        let u: Vec<f64> = (0..mesh.n_edges())
            .map(|e| (e as f64 * 0.31).sin())
            .collect();
        let mut full = vec![0.0; mesh.n_cells()];
        ke(&mesh, &u, &mut full, 0..mesh.n_cells());
        let mut split = vec![0.0; mesh.n_cells()];
        let mid = mesh.n_cells() / 2;
        let n = mesh.n_cells();
        let (lo, hi) = split.split_at_mut(mid);
        ke(&mesh, &u, lo, 0..mid);
        ke(&mesh, &u, hi, mid..n);
        assert_eq!(full, split);
    }
}
