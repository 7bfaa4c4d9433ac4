//! The paper's §V.A correctness validation (Fig. 5), strengthened: every
//! executor — serial reference, threaded, two-pool hybrid, and multi-rank
//! distributed — must produce the *same bits* for the same simulation.
//! (The paper accepts "within machine precision" because OpenMP reordering
//! perturbs rounding; our executors preserve per-point arithmetic order, so
//! exact equality is achievable and asserted.)

use mpas_repro::core::{run_distributed, DistributedConfig, Executor};
use mpas_repro::swe::{Exec, ModelConfig, ShallowWaterModel, TestCase};
use std::sync::Arc;

fn all_test_cases() -> Vec<TestCase> {
    vec![
        TestCase::Case2 { alpha: 0.0 },
        TestCase::Case2 { alpha: 0.5 },
        TestCase::Case5,
        TestCase::Case6,
    ]
}

#[test]
fn fig5_all_executors_agree_on_every_test_case() {
    let mesh = Arc::new(mpas_repro::mesh::generate(3, 0));
    let cfg = ModelConfig::default();
    let dt = ModelConfig::suggested_dt(&mesh);
    for tc in all_test_cases() {
        let mut serial = ShallowWaterModel::new(mesh.clone(), cfg, tc, Some(dt));
        let mut threaded =
            ShallowWaterModel::new_on(mesh.clone(), cfg, tc, Some(dt), Exec::threaded(3));
        let hybrid_exec = Executor::Hybrid {
            cpu_threads: 2,
            acc_threads: 2,
        }
        .exec();
        let mut hybrid = ShallowWaterModel::new_on(mesh.clone(), cfg, tc, Some(dt), hybrid_exec);
        serial.run_steps(3);
        threaded.run_steps(3);
        hybrid.run_steps(3);
        let dist = run_distributed(
            &mesh,
            DistributedConfig {
                n_ranks: 3,
                halo_layers: 3,
                model: cfg,
                test_case: tc,
                dt,
                n_steps: 3,
            },
        );
        assert_eq!(
            serial.state.max_abs_diff(&threaded.state),
            0.0,
            "{tc:?}: threaded diverged"
        );
        assert_eq!(
            serial.state.max_abs_diff(&hybrid.state),
            0.0,
            "{tc:?}: hybrid diverged"
        );
        assert_eq!(
            serial.state.max_abs_diff(&dist),
            0.0,
            "{tc:?}: distributed diverged"
        );
    }
}

#[test]
fn fig5_total_height_stays_in_band_under_mountain_flow() {
    // The Fig. 5 color scale spans roughly 5050-5950 m at day 15; a short
    // run must stay within the same physical band.
    let mesh = Arc::new(mpas_repro::mesh::generate(4, 0));
    let mut m = ShallowWaterModel::new(mesh.clone(), ModelConfig::default(), TestCase::Case5, None);
    m.run_steps(m.steps_for_days(0.5));
    let th = m.total_height();
    let min = th.iter().cloned().fold(f64::MAX, f64::min);
    let max = th.iter().cloned().fold(f64::MIN, f64::max);
    assert!(min > 4900.0 && max < 6050.0, "h+b range [{min}, {max}]");
    assert!(m.state.u.iter().all(|u| u.abs() < 150.0), "wind blow-up");
}

#[test]
fn high_order_h_edge_configuration_also_agrees_across_executors() {
    let mesh = Arc::new(mpas_repro::mesh::generate(3, 0));
    let cfg = ModelConfig {
        high_order_h_edge: true,
        ..Default::default()
    };
    let tc = TestCase::Case5;
    let mut serial = ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
    let mut threaded = ShallowWaterModel::new_on(mesh.clone(), cfg, tc, None, Exec::threaded(2));
    serial.run_steps(2);
    threaded.run_steps(2);
    assert_eq!(serial.state.max_abs_diff(&threaded.state), 0.0);
}

#[test]
fn del2_dissipation_configuration_agrees_and_damps() {
    let mesh = Arc::new(mpas_repro::mesh::generate(3, 0));
    let cfg = ModelConfig {
        del2_viscosity: 1.0e5,
        ..Default::default()
    };
    let tc = TestCase::Case6;
    let mut with_nu = ShallowWaterModel::new(mesh.clone(), cfg, tc, None);
    let mut without = ShallowWaterModel::new(mesh.clone(), ModelConfig::default(), tc, None);
    let mut threaded = ShallowWaterModel::new_on(mesh.clone(), cfg, tc, None, Exec::threaded(2));
    with_nu.run_steps(10);
    without.run_steps(10);
    threaded.run_steps(10);
    assert_eq!(with_nu.state.max_abs_diff(&threaded.state), 0.0);
    // Dissipation must reduce kinetic energy relative to the inviscid run.
    let ke = |m: &ShallowWaterModel| -> f64 { m.diag.ke.iter().sum() };
    assert!(ke(&with_nu) < ke(&without), "del2 did not dissipate");
}
