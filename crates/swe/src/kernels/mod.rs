//! The six kernels of Algorithm 1.
//!
//! Each Table-I pattern instance is a free function over an explicit
//! output **range**, so an executor can slice one pattern across workers
//! and devices (the paper's "adjustable part"); [`crate::stage`] composes
//! them into the RK-4 step.
//!
//! Two kernel tiers sit behind [`crate::config::KernelBackend`]
//! (DESIGN.md §14). [`ops`] holds the seed per-slot forms: the test
//! oracle and, with [`scatter`]'s original edge-order (irregular-reduction)
//! forms of the class-A/C reductions, the Fig. 6 "Baseline"/naive-OpenMP
//! story. [`simd`] is the fast tier: it reads the precomputed
//! [`crate::coeffs::KernelCoeffs`] tables and replays that arithmetic per
//! vertical-layer lane with explicit SIMD inner loops; at one layer it is
//! the flat fast path. [`dispatch`] selects one kernel's tier at one layer.

pub mod dispatch;
pub mod ops;
pub mod scatter;
pub mod simd;

use crate::coeffs::KernelCoeffs;
use crate::config::{KernelBackend, ModelConfig};
use crate::stage::{self, Exec, Inputs};
use crate::state::Diagnostics;
use mpas_mesh::Mesh;

/// `compute_solve_diagnostics` on `backend`: every diagnostic field of one
/// layer's `(h, u)`, as the stage program's full refresh computes it on the
/// serial executor. `dt` enters only through the APVM upwinding of
/// `pv_edge`.
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
    let config = ModelConfig {
        kernel_backend: backend,
        ..*config
    };
    let p = Inputs {
        mesh,
        config: &config,
        kc,
        k: 1,
        dt,
        f_vertex,
        b: &[],
        forcing: None,
    };
    stage::diagnostics(&mut Exec::serial(), &p, h, u, diag);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{State, Tendencies};

    fn setup() -> (Mesh, ModelConfig, Vec<f64>) {
        let mesh = mpas_mesh::generate(3, 0);
        let config = ModelConfig {
            kernel_backend: KernelBackend::Scalar,
            ..ModelConfig::default()
        };
        let f_vertex: Vec<f64> = (0..mesh.n_vertices())
            .map(|v| 2.0 * mpas_geom::OMEGA * mesh.x_vertex[v].z)
            .collect();
        (mesh, config, f_vertex)
    }

    /// The seed diagnostics and tendencies of `(h, u)` over topography `b`.
    fn seed_tend(
        mesh: &Mesh,
        config: &ModelConfig,
        h: &[f64],
        u: &[f64],
        b: &[f64],
        f: &[f64],
    ) -> Tendencies {
        let kc = KernelCoeffs::build(mesh, config);
        let mut diag = Diagnostics::zeros(mesh);
        compute_solve_diagnostics_backend(
            config.kernel_backend,
            mesh,
            config,
            &kc,
            h,
            u,
            f,
            100.0,
            &mut diag,
        );
        let p = Inputs {
            mesh,
            config,
            kc: &kc,
            k: 1,
            dt: 100.0,
            f_vertex: f,
            b,
            forcing: None,
        };
        let s = State {
            h: h.to_vec(),
            u: u.to_vec(),
            tracers: Vec::new(),
        };
        let mut tend = Tendencies::zeros(mesh);
        stage::tendencies(&mut Exec::serial(), &p, &s, &diag, &mut tend);
        tend
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
        let tend = seed_tend(&mesh, &config, &h, &u, &b, &f_vertex);
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
        let tend = seed_tend(&mesh, &config, &h, &u, &b, &f_vertex);
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
        let tend = seed_tend(&mesh, &config, &h, &u, &b, &f_vertex);
        let wu = tend.tend_u.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(wu < 1e-9, "tend_u {wu}");
    }

    #[test]
    fn high_order_h_edge_close_to_midpoint_average_on_smooth_field() {
        let (mesh, mut config, _f) = setup();
        let h: Vec<f64> = (0..mesh.n_cells())
            .map(|i| 5000.0 + 100.0 * mesh.x_cell[i].z)
            .collect();
        let u = vec![0.0; mesh.n_edges()];
        let f_vertex = vec![0.0; mesh.n_vertices()];
        let diagnose = |config: &ModelConfig| {
            let kc = KernelCoeffs::build(&mesh, config);
            let mut d = Diagnostics::zeros(&mesh);
            let b = config.kernel_backend;
            compute_solve_diagnostics_backend(
                b, &mesh, config, &kc, &h, &u, &f_vertex, 1.0, &mut d,
            );
            d
        };
        config.high_order_h_edge = true;
        let d2 = diagnose(&config);
        config.high_order_h_edge = false;
        let d1 = diagnose(&config);
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
        simd::enforce_boundary(&mesh, 1, &mut tend.tend_u, 0..mesh.n_edges());
        assert_eq!(tend.tend_u[3], 0.0);
        assert_eq!(tend.tend_u[17], 0.0);
        assert_eq!(tend.tend_u[4], 1.0);
    }
}
