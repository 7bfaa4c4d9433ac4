//! Deep discrete properties of the TRiSK scheme — the reasons the MPAS
//! C-grid discretization (and hence the paper's kernels) look the way they
//! do.

use mpas_swe::config::ModelConfig;
use mpas_swe::kernels::ops;
use mpas_swe::state::Diagnostics;

fn mesh() -> mpas_mesh::Mesh {
    mpas_mesh::generate(3, 0)
}

/// The nonlinear Coriolis term `Q_e = Σ_{e'} w_{ee'} u_{e'} h_{e'} q̄_{ee'}`
/// does no work: `Σ_e d_e l_e h_e u_e Q_e = 0` **exactly** (up to rounding),
/// because the normalized weights are antisymmetric and the edge-pair PV
/// average is symmetric. This is Ringler et al. (2010)'s energy-conserving
/// construction, and it must hold for *any* state, physical or not.
#[test]
fn coriolis_term_is_energy_neutral() {
    let m = mesh();
    for seed in 0..5u64 {
        let u: Vec<f64> = (0..m.n_edges())
            .map(|e| ((e as f64 + seed as f64 * 31.0) * 0.7).sin() * 20.0)
            .collect();
        let h_edge: Vec<f64> = (0..m.n_edges())
            .map(|e| 3000.0 + ((e as f64 + seed as f64) * 0.13).cos() * 200.0)
            .collect();
        let q: Vec<f64> = (0..m.n_edges())
            .map(|e| 1e-8 * (1.0 + 0.3 * ((e as f64 * 0.37).sin())))
            .collect();
        let mut work = 0.0;
        let mut scale = 0.0;
        for e in 0..m.n_edges() {
            let mut q_term = 0.0;
            for slot in m.eoe_range(e) {
                let eoe = m.edges_on_edge[slot] as usize;
                let qbar = 0.5 * (q[e] + q[eoe]);
                q_term += m.weights_on_edge[slot] * u[eoe] * h_edge[eoe] * qbar;
            }
            let contrib = m.dc_edge[e] * m.dv_edge[e] * h_edge[e] * u[e] * q_term;
            work += contrib;
            scale += contrib.abs();
        }
        assert!(
            work.abs() < 1e-12 * scale.max(1.0),
            "seed {seed}: Coriolis work {work:e} (scale {scale:e})"
        );
    }
}

/// The kinetic-energy gradient term conserves energy against the thickness
/// flux: `Σ_i A_i h_i dK_i/dt + Σ_e (transport terms) = 0` is the full
/// statement; here we check its key ingredient — the discrete
/// grad/divergence duality `Σ_e (∇φ)_e F_e l_e d_e?` in the form
/// `Σ_i φ_i (div F)_i A_i = -Σ_e (grad φ)_e F_e l_e d_e / d_e` — i.e. the
/// discrete integration-by-parts identity with no boundary on the sphere.
#[test]
fn discrete_integration_by_parts() {
    let m = mesh();
    let phi: Vec<f64> = (0..m.n_cells())
        .map(|i| (m.x_cell[i].z * 2.0).sin() * 100.0 + m.x_cell[i].x * 40.0)
        .collect();
    let flux: Vec<f64> = (0..m.n_edges())
        .map(|e| ((e as f64) * 0.11).cos() * 8.0)
        .collect();

    // lhs = Σ_i φ_i (div F)_i A_i
    let mut div = vec![0.0; m.n_cells()];
    ops::divergence(&m, &flux, &mut div, 0..m.n_cells());
    let lhs: f64 = (0..m.n_cells())
        .map(|i| phi[i] * div[i] * m.area_cell[i])
        .sum();

    // rhs = −Σ_e (δφ)_e F_e l_e  with (δφ)_e = φ(c2) − φ(c1)
    let rhs: f64 = -(0..m.n_edges())
        .map(|e| {
            let [c1, c2] = m.cells_on_edge[e];
            (phi[c2 as usize] - phi[c1 as usize]) * flux[e] * m.dv_edge[e]
        })
        .sum::<f64>();

    let scale: f64 = (0..m.n_edges())
        .map(|e| (phi[0].abs() + 100.0) * flux[e].abs() * m.dv_edge[e])
        .sum();
    assert!(
        (lhs - rhs).abs() < 1e-12 * scale,
        "integration by parts violated: {lhs} vs {rhs}"
    );
}

/// The tangential-velocity operator annihilates its own null structure:
/// reconstructing from a discrete gradient field (which has zero
/// circulation on every dual cell) still yields a consistent tangential
/// field — check it reproduces the analytic tangential gradient to O(h).
#[test]
fn tangential_reconstruction_of_gradient_flow() {
    let m = mpas_mesh::generate(4, 0);
    // φ = a·r̂ with a fixed vector: grad is a smooth vector field.
    let a = mpas_geom::Vec3::new(0.3, -0.5, 0.8);
    let phi: Vec<f64> = (0..m.n_cells())
        .map(|i| a.dot(m.x_cell[i]) * m.sphere_radius)
        .collect();
    let u: Vec<f64> = (0..m.n_edges())
        .map(|e| {
            let [c1, c2] = m.cells_on_edge[e];
            (phi[c2 as usize] - phi[c1 as usize]) / m.dc_edge[e]
        })
        .collect();
    let mut v = vec![0.0; m.n_edges()];
    ops::tangential_velocity(&m, &u, &mut v, 0..m.n_edges());
    // Analytic tangential component of the surface gradient of a·x:
    // ∇_s(a·x) = a − (a·r̂)r̂ ; tangential component = that · t̂.
    let mut rms_err = 0.0;
    let mut rms_ref = 0.0;
    for (e, &ve) in v.iter().enumerate() {
        let r = m.x_edge[e].normalized();
        let grad = a - r * a.dot(r);
        let exact = grad.dot(m.tangent_edge[e]);
        rms_err += (ve - exact).powi(2);
        rms_ref += exact.powi(2);
    }
    let rel = (rms_err / rms_ref).sqrt();
    assert!(rel < 0.05, "tangential gradient rel RMS {rel}");
}

/// APVM is dissipative for PV variance: with upwinding on, the PV field at
/// edges is damped relative to the centered average, never amplified.
#[test]
fn apvm_damps_pv_extremes() {
    let m = mesh();
    let config = ModelConfig::default();
    let h: Vec<f64> = (0..m.n_cells())
        .map(|i| 5000.0 + (m.x_cell[i].z * 4.0).sin() * 300.0)
        .collect();
    let u: Vec<f64> = (0..m.n_edges())
        .map(|e| ((e as f64) * 0.21).sin() * 15.0)
        .collect();
    let f_v: Vec<f64> = (0..m.n_vertices())
        .map(|v| 2.0 * mpas_geom::OMEGA * m.x_vertex[v].z)
        .collect();
    // The seed kernels (the scalar backend).
    let diagnose = |config: &ModelConfig| {
        let kc = mpas_swe::KernelCoeffs::build(&m, config);
        let mut d = Diagnostics::zeros(&m);
        let scalar = mpas_swe::KernelBackend::Scalar;
        mpas_swe::kernels::compute_solve_diagnostics_backend(
            scalar, &m, config, &kc, &h, &u, &f_v, 600.0, &mut d,
        );
        d
    };
    let d_on = diagnose(&config);
    let off = ModelConfig {
        apvm_factor: 0.0,
        ..config
    };
    let d_off = diagnose(&off);
    // Same centered part; the APVM correction is a small fraction of the
    // global PV magnitude (pointwise relative comparisons are meaningless
    // where f + ζ crosses zero near the equator).
    let pv_scale = d_off.pv_edge.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    let max_corr = (0..m.n_edges())
        .map(|e| (d_on.pv_edge[e] - d_off.pv_edge[e]).abs())
        .fold(0.0f64, f64::max);
    assert!(max_corr > 0.0, "APVM inactive");
    assert!(
        max_corr / pv_scale < 0.2,
        "APVM correction too large: {}",
        max_corr / pv_scale
    );
}
