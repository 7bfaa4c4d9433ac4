//! The six kernels of Algorithm 1.
//!
//! Each Table-I pattern instance is a free function in [`ops`] taking an
//! explicit output **range**, so the hybrid executors can slice one pattern
//! across devices (the paper's "adjustable part"). The functions here drive
//! the full-range serial composition used by the reference model and by
//! correctness tests.
//!
//! Two kernel tiers sit behind [`crate::config::KernelBackend`]
//! (DESIGN.md §14). [`ops`] holds the seed per-slot forms: the test
//! oracle and, with [`scatter`]'s original edge-order (irregular-reduction)
//! forms of the class-A/C reductions, the Fig. 6 "Baseline"/naive-OpenMP
//! story. [`simd`] is the fast tier: it reads the precomputed
//! [`crate::coeffs::KernelCoeffs`] tables and replays that arithmetic per
//! vertical-layer lane with explicit SIMD inner loops; at one layer it is
//! the flat fast path every executor runs.
//!
//! The `*_backend` drivers select a whole kernel sequence by backend; the
//! [`dispatch`] module selects per kernel and per range (what the
//! threaded/hybrid executors slice across workers).

pub mod dispatch;
pub mod ops;
pub mod scatter;
pub mod simd;

use crate::coeffs::KernelCoeffs;
use crate::config::{KernelBackend, ModelConfig};
use crate::state::{Diagnostics, Reconstruction, State, Tendencies};
use mpas_mesh::Mesh;
use mpas_patterns::dataflow::RkPhase;

/// Whether an RK substep of `phase` runs A3 (`vorticity_cell`). No
/// Table-I instance reads A3's output, so the three intermediate substeps
/// skip it; the final substep, whose diagnostics describe the new time
/// level, and every full refresh fill it (DESIGN.md §14).
pub fn runs_vorticity_cell(phase: RkPhase) -> bool {
    phase == RkPhase::Final
}

/// `compute_solve_diagnostics`: refresh every diagnostic field from the
/// prognostic pair `(h, u)`. `dt` enters only through the APVM upwinding of
/// `pv_edge`.
pub fn compute_solve_diagnostics(
    mesh: &Mesh,
    config: &ModelConfig,
    h: &[f64],
    u: &[f64],
    f_vertex: &[f64],
    dt: f64,
    diag: &mut Diagnostics,
) {
    seed_diagnostics(mesh, config, h, u, f_vertex, dt, RkPhase::Final, diag);
}

/// The seed diagnostic sequence of one RK substep of `phase`.
#[allow(clippy::too_many_arguments)]
fn seed_diagnostics(
    mesh: &Mesh,
    config: &ModelConfig,
    h: &[f64],
    u: &[f64],
    f_vertex: &[f64],
    dt: f64,
    phase: RkPhase,
    diag: &mut Diagnostics,
) {
    let (nc, ne, nv) = (mesh.n_cells(), mesh.n_edges(), mesh.n_vertices());
    if config.high_order_h_edge {
        ops::d2fdx2(
            mesh,
            h,
            &mut diag.d2fdx2_cell1,
            &mut diag.d2fdx2_cell2,
            0..ne,
        );
    }
    if config.advection_only {
        // Williamson TC1: only the thickness flux is needed; the PV chain
        // would divide by the (possibly zero) tracer thickness.
        ops::h_edge(
            mesh,
            config,
            h,
            &diag.d2fdx2_cell1,
            &diag.d2fdx2_cell2,
            &mut diag.h_edge,
            0..ne,
        );
        return;
    }
    ops::h_edge(
        mesh,
        config,
        h,
        &diag.d2fdx2_cell1,
        &diag.d2fdx2_cell2,
        &mut diag.h_edge,
        0..ne,
    );
    ops::vorticity(mesh, u, &mut diag.vorticity, 0..nv);
    ops::ke(mesh, u, &mut diag.ke, 0..nc);
    ops::divergence(mesh, u, &mut diag.divergence, 0..nc);
    ops::tangential_velocity(mesh, u, &mut diag.v, 0..ne);
    if runs_vorticity_cell(phase) {
        ops::vorticity_cell(mesh, &diag.vorticity, &mut diag.vorticity_cell, 0..nc);
    }
    ops::pv_vertex(
        mesh,
        h,
        &diag.vorticity,
        f_vertex,
        &mut diag.pv_vertex,
        0..nv,
    );
    ops::pv_cell(mesh, &diag.pv_vertex, &mut diag.pv_cell, 0..nc);
    ops::pv_edge(
        mesh,
        config.apvm_factor,
        dt,
        &diag.pv_vertex,
        &diag.pv_cell,
        u,
        &diag.v,
        &mut diag.pv_edge,
        0..ne,
    );
}

/// `compute_tend`: thickness and momentum tendencies from the current
/// provisional state and its diagnostics.
pub fn compute_tend(
    mesh: &Mesh,
    config: &ModelConfig,
    h: &[f64],
    u: &[f64],
    b: &[f64],
    diag: &Diagnostics,
    tend: &mut Tendencies,
) {
    let (nc, ne) = (mesh.n_cells(), mesh.n_edges());
    ops::tend_h(mesh, u, &diag.h_edge, &mut tend.tend_h, 0..nc);
    if config.advection_only {
        tend.tend_u.fill(0.0);
        return;
    }
    ops::tend_u(
        mesh,
        config.gravity,
        &diag.pv_edge,
        u,
        &diag.h_edge,
        &diag.ke,
        h,
        b,
        &mut tend.tend_u,
        0..ne,
    );
    if config.del2_viscosity != 0.0 {
        ops::tend_u_del2(
            mesh,
            config.del2_viscosity,
            &diag.divergence,
            &diag.vorticity,
            &mut tend.tend_u,
            0..ne,
        );
    }
    if config.del4_viscosity != 0.0 {
        // Chained C1 application: lap(u) from the existing div/vorticity
        // diagnostics, then the divergence/curl of that Laplacian.
        let nv = mesh.n_vertices();
        let mut lap = vec![0.0; ne];
        ops::lap_u(mesh, &diag.divergence, &diag.vorticity, &mut lap, 0..ne);
        let mut div_lap = vec![0.0; nc];
        ops::divergence(mesh, &lap, &mut div_lap, 0..nc);
        let mut vort_lap = vec![0.0; nv];
        ops::vorticity(mesh, &lap, &mut vort_lap, 0..nv);
        ops::tend_u_del4(
            mesh,
            config.del4_viscosity,
            &div_lap,
            &vort_lap,
            &mut tend.tend_u,
            0..ne,
        );
    }
}

/// `compute_tend_tracers`: flux-form advection tendency (pattern T1) for
/// every tracer-mass field, from the same-stage `(h, u)` and its `h_edge`.
pub fn compute_tend_tracers(
    mesh: &Mesh,
    h: &[f64],
    u: &[f64],
    diag: &Diagnostics,
    tracers: &[Vec<f64>],
    tend: &mut Tendencies,
) {
    let nc = mesh.n_cells();
    for (hq, out) in tracers.iter().zip(tend.tend_tracers.iter_mut()) {
        ops::tend_tracer(mesh, u, &diag.h_edge, h, hq, out, 0..nc);
    }
}

/// [`compute_solve_diagnostics`] on the configured backend: the scalar
/// seed path or the simd tier at one layer (DESIGN.md §14). Fills every
/// field, as a final substep does.
#[allow(clippy::too_many_arguments)]
pub fn compute_solve_diagnostics_backend(
    backend: KernelBackend,
    mesh: &Mesh,
    config: &ModelConfig,
    kc: &KernelCoeffs,
    h: &[f64],
    u: &[f64],
    f_vertex: &[f64],
    dt: f64,
    diag: &mut Diagnostics,
) {
    compute_substep_diagnostics(
        backend,
        mesh,
        config,
        kc,
        h,
        u,
        f_vertex,
        dt,
        RkPhase::Final,
        diag,
    );
}

/// The diagnostics one RK substep of `phase` computes: every field except
/// that an intermediate substep leaves `vorticity_cell` as it was
/// ([`runs_vorticity_cell`]). Each field it does write carries the bits of
/// [`compute_solve_diagnostics_backend`].
#[allow(clippy::too_many_arguments)]
pub fn compute_substep_diagnostics(
    backend: KernelBackend,
    mesh: &Mesh,
    config: &ModelConfig,
    kc: &KernelCoeffs,
    h: &[f64],
    u: &[f64],
    f_vertex: &[f64],
    dt: f64,
    phase: RkPhase,
    diag: &mut Diagnostics,
) {
    match backend {
        KernelBackend::Scalar => seed_diagnostics(mesh, config, h, u, f_vertex, dt, phase, diag),
        KernelBackend::Simd => {
            let (nc, ne, nv) = (mesh.n_cells(), mesh.n_edges(), mesh.n_vertices());
            if config.high_order_h_edge {
                simd::d2fdx2(
                    mesh,
                    kc,
                    1,
                    h,
                    &mut diag.d2fdx2_cell1,
                    &mut diag.d2fdx2_cell2,
                    0..ne,
                );
            }
            simd::h_edge(
                mesh,
                kc,
                config,
                1,
                h,
                &diag.d2fdx2_cell1,
                &diag.d2fdx2_cell2,
                &mut diag.h_edge,
                0..ne,
            );
            if config.advection_only {
                return;
            }
            // The fused sweeps (C2+E, A2+B2, H1+G) store exactly the bits
            // of the standalone kernels while sharing their gathers.
            simd::vorticity_pv(
                mesh,
                kc,
                1,
                u,
                h,
                f_vertex,
                &mut diag.vorticity,
                &mut diag.pv_vertex,
                0..nv,
            );
            simd::ke_divergence(mesh, kc, 1, u, &mut diag.ke, &mut diag.divergence, 0..nc);
            if runs_vorticity_cell(phase) {
                simd::kite_average(
                    mesh,
                    kc,
                    1,
                    &diag.vorticity,
                    &mut diag.vorticity_cell,
                    0..nc,
                );
            }
            simd::kite_average(mesh, kc, 1, &diag.pv_vertex, &mut diag.pv_cell, 0..nc);
            simd::tangential_pv_edge(
                mesh,
                kc,
                1,
                config.apvm_factor,
                dt,
                &diag.pv_vertex,
                &diag.pv_cell,
                u,
                &mut diag.v,
                &mut diag.pv_edge,
                0..ne,
            );
        }
    }
}

/// [`compute_tend`] on the configured backend.
#[allow(clippy::too_many_arguments)]
pub fn compute_tend_backend(
    backend: KernelBackend,
    mesh: &Mesh,
    config: &ModelConfig,
    kc: &KernelCoeffs,
    h: &[f64],
    u: &[f64],
    b: &[f64],
    diag: &Diagnostics,
    tend: &mut Tendencies,
) {
    match backend {
        KernelBackend::Scalar => compute_tend(mesh, config, h, u, b, diag, tend),
        KernelBackend::Simd => {
            let (nc, ne) = (mesh.n_cells(), mesh.n_edges());
            simd::tend_h(mesh, kc, 1, u, &diag.h_edge, &mut tend.tend_h, 0..nc);
            if config.advection_only {
                tend.tend_u.fill(0.0);
                return;
            }
            simd::tend_u(
                mesh,
                kc,
                1,
                config.gravity,
                &diag.pv_edge,
                u,
                &diag.h_edge,
                &diag.ke,
                h,
                b,
                &mut tend.tend_u,
                0..ne,
            );
            if config.del2_viscosity != 0.0 {
                simd::tend_u_del2(
                    mesh,
                    kc,
                    1,
                    config.del2_viscosity,
                    &diag.divergence,
                    &diag.vorticity,
                    &mut tend.tend_u,
                    0..ne,
                );
            }
            if config.del4_viscosity != 0.0 {
                let nv = mesh.n_vertices();
                let mut lap = vec![0.0; ne];
                simd::lap_u(
                    mesh,
                    kc,
                    1,
                    &diag.divergence,
                    &diag.vorticity,
                    &mut lap,
                    0..ne,
                );
                let mut div_lap = vec![0.0; nc];
                simd::divergence(mesh, kc, 1, &lap, &mut div_lap, 0..nc);
                let mut vort_lap = vec![0.0; nv];
                simd::vorticity(mesh, kc, 1, &lap, &mut vort_lap, 0..nv);
                simd::tend_u_del4(
                    mesh,
                    kc,
                    1,
                    config.del4_viscosity,
                    &div_lap,
                    &vort_lap,
                    &mut tend.tend_u,
                    0..ne,
                );
            }
        }
    }
}

/// [`compute_tend_tracers`] on the configured backend.
#[allow(clippy::too_many_arguments)]
pub fn compute_tend_tracers_backend(
    backend: KernelBackend,
    mesh: &Mesh,
    kc: &KernelCoeffs,
    h: &[f64],
    u: &[f64],
    diag: &Diagnostics,
    tracers: &[Vec<f64>],
    tend: &mut Tendencies,
) {
    match backend {
        KernelBackend::Scalar => compute_tend_tracers(mesh, h, u, diag, tracers, tend),
        KernelBackend::Simd => {
            let nc = mesh.n_cells();
            for (hq, out) in tracers.iter().zip(tend.tend_tracers.iter_mut()) {
                simd::tend_tracer(mesh, kc, 1, u, &diag.h_edge, h, hq, out, 0..nc);
            }
        }
    }
}

/// `apply_forcing`: add a fixed forcing tendency to the stage tendencies
/// (`tend += 1.0·f`, pattern F1). Element-wise with an exact weight, so any
/// chunking of the output range reproduces the same bits.
pub fn apply_forcing(mesh: &Mesh, forcing: &Tendencies, tend: &mut Tendencies) {
    ops::accumulate(&forcing.tend_h, 1.0, &mut tend.tend_h, 0..mesh.n_cells());
    ops::accumulate(&forcing.tend_u, 1.0, &mut tend.tend_u, 0..mesh.n_edges());
}

/// `enforce_boundary_edge`: zero the velocity tendency on boundary edges
/// (a no-op on the full sphere, kept for kernel-set fidelity).
pub fn enforce_boundary_edge(mesh: &Mesh, tend: &mut Tendencies) {
    ops::enforce_boundary(mesh, &mut tend.tend_u, 0..mesh.n_edges());
}

/// `compute_next_substep_state` and `accumulative_update` of an
/// intermediate substep in one pass over the tendencies (X2+X4, X3+X5):
/// `provis = base + coef·tend` and `acc += weight·tend`. Each output keeps
/// its standalone expression, so the fusion halves the tendency reads and
/// keeps the bits.
#[allow(clippy::too_many_arguments)]
pub fn advance_substep(
    mesh: &Mesh,
    base: &State,
    tend: &Tendencies,
    coef: f64,
    weight: f64,
    provis: &mut State,
    acc: &mut State,
) {
    let (nc, ne) = (mesh.n_cells(), mesh.n_edges());
    let (b, t) = (&base.h, &tend.tend_h);
    simd::axpy_accumulate(1, b, t, coef, weight, &mut provis.h, &mut acc.h, 0..nc);
    let (b, t) = (&base.u, &tend.tend_u);
    simd::axpy_accumulate(1, b, t, coef, weight, &mut provis.u, &mut acc.u, 0..ne);
    for (((b, t), p), a) in base
        .tracers
        .iter()
        .zip(&tend.tend_tracers)
        .zip(provis.tracers.iter_mut())
        .zip(acc.tracers.iter_mut())
    {
        simd::axpy_accumulate(1, b, t, coef, weight, p, a, 0..nc);
    }
}

/// `accumulative_update`: `acc += weight * tend` (the RK quadrature).
pub fn accumulative_update(mesh: &Mesh, tend: &Tendencies, weight: f64, acc: &mut State) {
    ops::accumulate(&tend.tend_h, weight, &mut acc.h, 0..mesh.n_cells());
    ops::accumulate(&tend.tend_u, weight, &mut acc.u, 0..mesh.n_edges());
    let nc = mesh.n_cells();
    for (t, a) in tend.tend_tracers.iter().zip(acc.tracers.iter_mut()) {
        ops::accumulate(t, weight, a, 0..nc);
    }
}

/// `mpas_reconstruct`: cell-center velocity vectors (A4) and their
/// zonal/meridional decomposition (X6), from the tables in `kc`.
pub fn mpas_reconstruct(mesh: &Mesh, kc: &KernelCoeffs, u: &[f64], recon: &mut Reconstruction) {
    let nc = mesh.n_cells();
    ops::reconstruct_xyz(
        mesh,
        kc,
        u,
        &mut recon.ux,
        &mut recon.uy,
        &mut recon.uz,
        0..nc,
    );
    ops::zonal_meridional(
        kc,
        &recon.ux,
        &recon.uy,
        &recon.uz,
        &mut recon.zonal,
        &mut recon.meridional,
        0..nc,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Mesh, ModelConfig, Vec<f64>) {
        let mesh = mpas_mesh::generate(3, 0);
        let config = ModelConfig::default();
        let f_vertex: Vec<f64> = (0..mesh.n_vertices())
            .map(|v| 2.0 * mpas_geom::OMEGA * mesh.x_vertex[v].z)
            .collect();
        (mesh, config, f_vertex)
    }

    #[test]
    fn mass_tendency_integrates_to_zero() {
        // ∮ tend_h dA = 0 exactly (flux telescoping): discrete conservation.
        let (mesh, config, f_vertex) = setup();
        let h: Vec<f64> = (0..mesh.n_cells())
            .map(|i| 1000.0 + (i as f64).sin())
            .collect();
        let u: Vec<f64> = (0..mesh.n_edges())
            .map(|e| (e as f64 * 0.1).cos())
            .collect();
        let b = vec![0.0; mesh.n_cells()];
        let mut diag = Diagnostics::zeros(&mesh);
        compute_solve_diagnostics(&mesh, &config, &h, &u, &f_vertex, 100.0, &mut diag);
        let mut tend = Tendencies::zeros(&mesh);
        compute_tend(&mesh, &config, &h, &u, &b, &diag, &mut tend);
        let total: f64 = (0..mesh.n_cells())
            .map(|i| tend.tend_h[i] * mesh.area_cell[i])
            .sum();
        let scale: f64 = (0..mesh.n_cells())
            .map(|i| tend.tend_h[i].abs() * mesh.area_cell[i])
            .sum();
        assert!(total.abs() < 1e-12 * scale.max(1.0), "total {total}");
    }

    #[test]
    fn curl_of_discrete_gradient_vanishes() {
        // u_e = (φ(c2) − φ(c1))/dc is a discrete gradient; its circulation
        // around every dual triangle telescopes to exactly zero.
        let (mesh, _config, _f) = setup();
        let phi: Vec<f64> = (0..mesh.n_cells())
            .map(|i| (mesh.x_cell[i].z * 3.0).sin() * 1e5)
            .collect();
        let u: Vec<f64> = (0..mesh.n_edges())
            .map(|e| {
                let [c1, c2] = mesh.cells_on_edge[e];
                (phi[c2 as usize] - phi[c1 as usize]) / mesh.dc_edge[e]
            })
            .collect();
        let mut vort = vec![0.0; mesh.n_vertices()];
        ops::vorticity(&mesh, &u, &mut vort, 0..mesh.n_vertices());
        let worst = vort.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        // Scale: |u|/dv ~ 1e-1; exact cancellation leaves rounding only.
        assert!(worst < 1e-12, "worst vorticity {worst}");
    }

    #[test]
    fn ke_is_nonnegative_and_zero_for_rest() {
        let (mesh, _c, _f) = setup();
        let mut ke = vec![0.0; mesh.n_cells()];
        let u0 = vec![0.0; mesh.n_edges()];
        ops::ke(&mesh, &u0, &mut ke, 0..mesh.n_cells());
        assert!(ke.iter().all(|&k| k == 0.0));
        let u: Vec<f64> = (0..mesh.n_edges()).map(|e| (e as f64).sin()).collect();
        ops::ke(&mesh, &u, &mut ke, 0..mesh.n_cells());
        assert!(ke.iter().all(|&k| k >= 0.0));
        assert!(ke.iter().any(|&k| k > 0.0));
    }

    #[test]
    fn state_at_rest_stays_at_rest_without_topography() {
        // h = const, u = 0: all tendencies must vanish (well-balanced).
        let (mesh, config, f_vertex) = setup();
        let h = vec![1000.0; mesh.n_cells()];
        let u = vec![0.0; mesh.n_edges()];
        let b = vec![0.0; mesh.n_cells()];
        let mut diag = Diagnostics::zeros(&mesh);
        compute_solve_diagnostics(&mesh, &config, &h, &u, &f_vertex, 100.0, &mut diag);
        let mut tend = Tendencies::zeros(&mesh);
        compute_tend(&mesh, &config, &h, &u, &b, &diag, &mut tend);
        let wh = tend.tend_h.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let wu = tend.tend_u.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(wh == 0.0, "tend_h {wh}");
        assert!(wu < 1e-10, "tend_u {wu}");
    }

    #[test]
    fn lake_at_rest_is_balanced_with_topography() {
        // h + b = const with u = 0: the pressure gradient of h balances b.
        let (mesh, config, f_vertex) = setup();
        let b: Vec<f64> = (0..mesh.n_cells())
            .map(|i| 200.0 * (1.0 + mesh.x_cell[i].z))
            .collect();
        let h: Vec<f64> = b.iter().map(|&bi| 1000.0 - bi).collect();
        let u = vec![0.0; mesh.n_edges()];
        let mut diag = Diagnostics::zeros(&mesh);
        compute_solve_diagnostics(&mesh, &config, &h, &u, &f_vertex, 100.0, &mut diag);
        let mut tend = Tendencies::zeros(&mesh);
        compute_tend(&mesh, &config, &h, &u, &b, &diag, &mut tend);
        let wu = tend.tend_u.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(wu < 1e-9, "tend_u {wu}");
    }

    #[test]
    fn high_order_h_edge_close_to_midpoint_average_on_smooth_field() {
        let (mesh, _c, _f) = setup();
        let mut config = ModelConfig::default();
        let h: Vec<f64> = (0..mesh.n_cells())
            .map(|i| 5000.0 + 100.0 * mesh.x_cell[i].z)
            .collect();
        let u = vec![0.0; mesh.n_edges()];
        let f_vertex = vec![0.0; mesh.n_vertices()];
        let mut d2 = Diagnostics::zeros(&mesh);
        config.high_order_h_edge = true;
        compute_solve_diagnostics(&mesh, &config, &h, &u, &f_vertex, 1.0, &mut d2);
        let mut d1 = Diagnostics::zeros(&mesh);
        config.high_order_h_edge = false;
        compute_solve_diagnostics(&mesh, &config, &h, &u, &f_vertex, 1.0, &mut d1);
        for e in 0..mesh.n_edges() {
            let rel = (d2.h_edge[e] - d1.h_edge[e]).abs() / d1.h_edge[e];
            assert!(rel < 1e-3, "edge {e} rel {rel}");
        }
        // And they are not identical (the correction really fires).
        assert!(d1.h_edge != d2.h_edge);
    }

    #[test]
    fn enforce_boundary_zeroes_masked_edges() {
        let (mut mesh, _c, _f) = setup();
        mesh.boundary_edge[3] = true;
        mesh.boundary_edge[17] = true;
        let mut tend = Tendencies::zeros(&mesh);
        tend.tend_u.fill(1.0);
        enforce_boundary_edge(&mesh, &mut tend);
        assert_eq!(tend.tend_u[3], 0.0);
        assert_eq!(tend.tend_u[17], 0.0);
        assert_eq!(tend.tend_u[4], 1.0);
    }
}
