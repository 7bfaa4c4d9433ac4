//! Williamson test case 1: pure advection of a cosine bell by solid-body
//! rotation — the cleanest end-to-end exercise of the thickness patterns
//! (A1, H2) because the analytic solution is known at every instant.

use mpas_repro::swe::{ModelConfig, ShallowWaterModel, TestCase};
use std::sync::Arc;

fn advection_model(level: u32, alpha: f64) -> ShallowWaterModel {
    let mesh = Arc::new(mpas_repro::mesh::generate(level, 0));
    let config = ModelConfig {
        advection_only: true,
        ..Default::default()
    };
    ShallowWaterModel::new(mesh, config, TestCase::Case1 { alpha }, None)
}

#[test]
fn velocity_is_frozen_in_advection_mode() {
    let mut m = advection_model(3, 0.0);
    let u0 = m.state.u.clone();
    m.run_steps(10);
    assert_eq!(m.state.u, u0, "advection mode must not touch the winds");
}

#[test]
fn bell_advects_with_bounded_error_over_a_quarter_revolution() {
    let mut m = advection_model(4, 0.0);
    // 3 days = a quarter revolution.
    let steps = m.steps_for_days(3.0);
    m.run_steps(steps);
    let norms = m.h_error_norms();
    // Centered 2nd-order advection of a C1 bell: Williamson reports l2
    // errors of a few percent for comparable low-order schemes.
    assert!(norms.l2 < 0.05, "l2 = {}", norms.l2);
    // The bell peak must have moved: the initial field is now a bad
    // reference.
    let initial_ref: Vec<f64> = (0..m.mesh.n_cells())
        .map(|i| m.init.test_case.thickness_at(m.mesh.x_cell[i]))
        .collect();
    let against_initial =
        mpas_repro::swe::ErrorNorms::compute(&m.state.h, &initial_ref, &m.mesh.area_cell);
    // (The 1000 m background dilutes the relative norms, so the contrast
    // factor is modest even for a fully displaced bell.)
    assert!(
        against_initial.l2 > 2.0 * norms.l2,
        "bell did not move: {} vs {}",
        against_initial.l2,
        norms.l2
    );
}

#[test]
fn advection_conserves_tracer_mass_exactly() {
    let mut m = advection_model(3, 0.4);
    let mass0 = m.total_mass();
    m.run_steps(50);
    assert!(((m.total_mass() - mass0) / mass0).abs() < 1e-13);
}

#[test]
fn tilted_advection_also_tracks_the_analytic_bell() {
    // alpha = pi/2 sends the bell over both poles — the classic stress
    // test for polar singularities (our unstructured mesh has none).
    let mut m = advection_model(4, std::f64::consts::FRAC_PI_2);
    let steps = m.steps_for_days(3.0);
    m.run_steps(steps);
    let norms = m.h_error_norms();
    assert!(norms.l2 < 0.05, "over-the-pole l2 = {}", norms.l2);
}

#[test]
fn advection_error_converges_with_resolution() {
    let run = |level: u32| {
        let mut m = advection_model(level, 0.0);
        let steps = m.steps_for_days(1.0);
        m.run_steps(steps);
        m.h_error_norms().l2
    };
    let coarse = run(3);
    let fine = run(4);
    assert!(
        coarse / fine > 1.7,
        "advection not converging: {coarse:.3e} -> {fine:.3e}"
    );
}
