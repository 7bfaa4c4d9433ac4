//! The mesh-only tables of `mpas_reconstruct`: the A4 least-squares
//! weights and the X6 east/north frames.
//!
//! MPAS uses radial basis functions; we use the simpler constrained
//! least-squares fit with the same stencil shape: at each cell, find the
//! tangent-plane vector `V` minimizing `Σ_e (V·n̂_e − u_e)²` over the cell's
//! edges, subject to `V·r̂ = 0`. The normal equations give a 3×3 system
//! whose inverse is mesh-only, so [`least_squares_weights`] precomputes
//! per-edge coefficient vectors `c_e = M⁻¹ n̂_e`; at run time
//! `V = Σ_e c_e u_e` — a class-A cell←edges reduction, exactly the pattern
//! shape of Table I's A4.
//!
//! X6 rotates `V` into zonal/meridional components. The local east/north
//! unit vectors depend on the cell position only, so [`cell_frame`] builds
//! them once (five square roots and nine divisions a cell) and X6 is two
//! dot products a cell. Both tables live in
//! [`crate::coeffs::KernelCoeffs`], built on the first output request and
//! shared by every model on the mesh.
//!
//! The fit reproduces any uniform tangent flow exactly (unit-tested), which
//! is all the O(h) accuracy the diagnostic output needs.

use mpas_geom::{east_at, north_at, Vec3};
use mpas_mesh::Mesh;

/// The A4 reconstruction weight of every (cell, edge-slot), CSR-parallel
/// to `mesh.edges_on_cell`.
pub(crate) fn least_squares_weights(mesh: &Mesh) -> Vec<Vec3> {
    let mut coeffs = vec![Vec3::ZERO; mesh.edges_on_cell.len()];
    for i in 0..mesh.n_cells() {
        // Phantom fringe cells of a LocalMesh have empty edge rows;
        // they are never reconstructed.
        if mesh.cell_range(i).is_empty() {
            continue;
        }
        let r = mesh.x_cell[i].normalized();
        // Project each edge normal into the cell's tangent plane; with
        // M = Σ ñ ñᵀ + r̂ r̂ᵀ block-diagonal in the tangent/radial split,
        // the reconstruction is then exactly tangent to the sphere.
        let project = |n: Vec3| n - r * n.dot(r);
        let mut m = [[0.0f64; 3]; 3];
        let range = mesh.cell_range(i);
        for &e in &mesh.edges_on_cell[range.clone()] {
            let n = project(mesh.normal_edge[e as usize]);
            accumulate_dyad(&mut m, n);
        }
        accumulate_dyad(&mut m, r);
        let minv = invert3(&m);
        for slot in range {
            let n = project(mesh.normal_edge[mesh.edges_on_cell[slot] as usize]);
            coeffs[slot] = mat_vec(&minv, n);
        }
    }
    coeffs
}

/// The local `[east, north]` unit vectors at `p`, exactly the vectors
/// [`mpas_geom::to_zonal_meridional`] derives on every call (including its
/// `lon = 0` limit at the poles), so [`zonal_meridional_in`] reproduces
/// its bits.
pub(crate) fn cell_frame(p: Vec3) -> [Vec3; 2] {
    [east_at(p), north_at(p)]
}

/// X6 at one cell: the (zonal, meridional) components of `v` in `frame`.
#[inline]
pub(crate) fn zonal_meridional_in(frame: &[Vec3; 2], v: Vec3) -> (f64, f64) {
    (v.dot(frame[0]), v.dot(frame[1]))
}

fn accumulate_dyad(m: &mut [[f64; 3]; 3], v: Vec3) {
    let a = [v.x, v.y, v.z];
    for r in 0..3 {
        for c in 0..3 {
            m[r][c] += a[r] * a[c];
        }
    }
}

fn mat_vec(m: &[[f64; 3]; 3], v: Vec3) -> Vec3 {
    Vec3::new(
        m[0][0] * v.x + m[0][1] * v.y + m[0][2] * v.z,
        m[1][0] * v.x + m[1][1] * v.y + m[1][2] * v.z,
        m[2][0] * v.x + m[2][1] * v.y + m[2][2] * v.z,
    )
}

/// Inverse of a 3×3 matrix by cofactor expansion.
///
/// # Panics
/// Panics if the matrix is singular (cannot happen for a cell with ≥2
/// non-parallel edge normals plus the radial dyad).
#[allow(clippy::needless_range_loop)]
fn invert3(m: &[[f64; 3]; 3]) -> [[f64; 3]; 3] {
    let det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
    assert!(det.abs() > 1e-30, "singular reconstruction matrix");
    let inv_det = 1.0 / det;
    let mut out = [[0.0f64; 3]; 3];
    for r in 0..3 {
        for c in 0..3 {
            let (r1, r2) = ((r + 1) % 3, (r + 2) % 3);
            let (c1, c2) = ((c + 1) % 3, (c + 2) % 3);
            // Transposed cofactor (adjugate).
            out[c][r] = (m[r1][c1] * m[r2][c2] - m[r1][c2] * m[r2][c1]) * inv_det;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coeffs::KernelCoeffs;
    use crate::config::ModelConfig;
    use crate::kernels::ops;
    use mpas_geom::to_zonal_meridional;

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn invert3_roundtrip() {
        let m = [[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.5]];
        let inv = invert3(&m);
        for r in 0..3 {
            for c in 0..3 {
                let mut acc = 0.0;
                for k in 0..3 {
                    acc += m[r][k] * inv[k][c];
                }
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!((acc - expect).abs() < 1e-12, "({r},{c}) = {acc}");
            }
        }
    }

    #[test]
    fn reconstruction_exact_for_solid_body_rotation() {
        let mesh = mpas_mesh::generate(3, 0);
        let w = least_squares_weights(&mesh);
        let omega = Vec3::new(0.1, 0.2, 1.0) * 1e-5;
        let u: Vec<f64> = (0..mesh.n_edges())
            .map(|e| {
                omega
                    .cross(mesh.x_edge[e] * mesh.sphere_radius)
                    .dot(mesh.normal_edge[e])
            })
            .collect();
        for i in 0..mesh.n_cells() {
            let mut v = Vec3::ZERO;
            for slot in mesh.cell_range(i) {
                v += w[slot] * u[mesh.edges_on_cell[slot] as usize];
            }
            let exact_full = omega.cross(mesh.x_cell[i] * mesh.sphere_radius);
            // The exact solid-body velocity is already tangent; the edge
            // normals differ slightly from the cell tangent plane, so allow
            // a small mesh-scale error.
            let err = (v - exact_full).norm();
            let scale = exact_full.norm().max(1e-12);
            assert!(err / scale < 0.02, "cell {i}: rel err {}", err / scale);
        }
    }

    #[test]
    fn reconstruction_is_tangent_to_sphere() {
        let mesh = mpas_mesh::generate(2, 0);
        let w = least_squares_weights(&mesh);
        let u: Vec<f64> = (0..mesh.n_edges())
            .map(|e| (e as f64 * 0.13).sin())
            .collect();
        for i in 0..mesh.n_cells() {
            let mut v = Vec3::ZERO;
            for slot in mesh.cell_range(i) {
                v += w[slot] * u[mesh.edges_on_cell[slot] as usize];
            }
            let radial = v.dot(mesh.x_cell[i].normalized()).abs();
            assert!(radial < 1e-9 * v.norm().max(1.0), "cell {i}");
        }
    }

    #[test]
    fn frame_x6_matches_to_zonal_meridional_bitwise() {
        // The X6 kernel on every cell of a level-3 mesh, then the frame
        // alone at both exact poles, where `east_at`/`north_at` take their
        // `lon = 0` fallback branch.
        let probe = |s: f64| Vec3::new((0.37 * s).sin(), (0.71 * s).cos(), (0.13 * s).sin()) * 40.0;
        let mesh = mpas_mesh::generate(3, 0);
        let kc = KernelCoeffs::build(&mesh, &ModelConfig::default());
        let nc = mesh.n_cells();
        let v: Vec<Vec3> = (0..nc).map(|i| probe(i as f64)).collect();
        let (ux, uy, uz): (Vec<f64>, Vec<f64>, Vec<f64>) = (
            v.iter().map(|v| v.x).collect(),
            v.iter().map(|v| v.y).collect(),
            v.iter().map(|v| v.z).collect(),
        );
        let (mut zonal, mut meridional) = (vec![0.0; nc], vec![0.0; nc]);
        ops::zonal_meridional(
            &mesh,
            &kc,
            &ux,
            &uy,
            &uz,
            &mut zonal,
            &mut meridional,
            0..nc,
        );
        for i in 0..nc {
            let (z, m) = to_zonal_meridional(mesh.x_cell[i], v[i]);
            assert_eq!(zonal[i].to_bits(), z.to_bits(), "cell {i} zonal");
            assert_eq!(meridional[i].to_bits(), m.to_bits(), "cell {i} meridional");
        }
        for pole in [Vec3::Z, -Vec3::Z] {
            let frame = cell_frame(pole);
            for k in 0..8 {
                let v = probe(k as f64);
                let (z, m) = zonal_meridional_in(&frame, v);
                let (zr, mr) = to_zonal_meridional(pole, v);
                assert_eq!((z.to_bits(), m.to_bits()), (zr.to_bits(), mr.to_bits()));
            }
        }
        // The poles really exercise the fallback frame.
        assert_eq!(cell_frame(Vec3::Z)[0], Vec3::Y);
        assert_eq!(cell_frame(-Vec3::Z)[1], Vec3::X);
    }
}
